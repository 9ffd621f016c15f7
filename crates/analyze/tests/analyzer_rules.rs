//! Integration tests: every rule — local R1 and R3, interprocedural R6
//! and R8 — is demonstrated by a fixture that must trigger it and a
//! companion that must not, plus a self-analysis test pinning the
//! analyzer clean over its own sources.
//!
//! Fixtures live in `tests/fixtures/` and are lexed, not compiled; the
//! workspace gate's file walker skips that directory so the
//! deliberately-bad files never fail CI themselves. The local rules
//! run through `analyze_source` on one file; the interprocedural
//! fixtures run through the full `analyze_files` pipeline with
//! synthetic repo paths, as the workspace gate would see them.

use ssq_analyze::callgraph::DepGraph;
use ssq_analyze::{analyze_files, analyze_source, Rule, SourceFile, Violation, WorkspaceReport};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn run(name: &str) -> Vec<Violation> {
    analyze_source(&fixture(name)).unwrap_or_else(|e| panic!("lexing {name}: {e}"))
}

fn assert_only_rule(violations: &[Violation], rule: Rule) {
    assert!(
        !violations.is_empty(),
        "expected at least one {} violation",
        rule.name()
    );
    for v in violations {
        assert_eq!(v.rule, rule, "unexpected violation: {v:?}");
    }
}

#[test]
fn r1_float_cmp_fixture_fails() {
    let v = run("float_cmp_bad.rs");
    assert_only_rule(&v, Rule::FloatCmp);
    assert_eq!(v.len(), 2, "both the unwrap and the expect site: {v:?}");
}

#[test]
fn r1_float_cmp_clean_fixture_passes() {
    assert!(run("float_cmp_good.rs").is_empty());
}

#[test]
fn r3_deny_alloc_fixture_fails() {
    let v = run("deny_alloc_bad.rs");
    assert_only_rule(&v, Rule::DenyAlloc);
    assert_eq!(v.len(), 3, "to_vec, collect, format!: {v:?}");
}

#[test]
fn r3_deny_alloc_clean_fixture_passes() {
    assert!(run("deny_alloc_good.rs").is_empty());
}

/// Runs the full workspace pipeline over fixtures mounted at synthetic
/// repo paths (path → fixture file name).
fn run_workspace(files: &[(&str, &str)]) -> WorkspaceReport {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(path, name)| SourceFile {
            path: path.to_string(),
            src: fixture(name),
        })
        .collect();
    analyze_files(&files, &DepGraph::default()).expect("pipeline runs")
}

fn unsuppressed_rules(report: &WorkspaceReport) -> Vec<Rule> {
    report.unsuppressed().map(|v| v.rule).collect()
}

#[test]
fn r6_alloc_transitive_fixture_fails() {
    let report = run_workspace(&[("crates/geom/src/kernel.rs", "alloc_transitive_bad.rs")]);
    assert_eq!(
        unsuppressed_rules(&report),
        [Rule::AllocTransitive],
        "exactly the laundered `to_vec` in the helper: {:?}",
        report.violations
    );
    let v = report.unsuppressed().next().expect("one violation");
    assert!(
        v.message.contains("dist_row"),
        "message names the kernel root chain: {}",
        v.message
    );
}

#[test]
fn r6_alloc_transitive_clean_fixture_passes() {
    let report = run_workspace(&[("crates/geom/src/kernel.rs", "alloc_transitive_good.rs")]);
    assert!(
        report.violations.is_empty(),
        "unreachable allocations are fine: {:?}",
        report.violations
    );
}

#[test]
fn r8_lock_rank_inversion_across_helper_call_fails() {
    let report = run_workspace(&[("crates/engine/src/locks.rs", "lock_rank_bad.rs")]);
    assert_eq!(
        unsuppressed_rules(&report),
        [Rule::LockRankStatic],
        "exactly the rank-100 acquisition under the held rank-200 lock: {:?}",
        report.violations
    );
    let v = report.unsuppressed().next().expect("one violation");
    assert!(
        v.message.contains("fixture.low") && v.message.contains("fixture.high"),
        "message names both locks of the inversion: {}",
        v.message
    );
    assert_eq!(report.rank_table.len(), 2, "both ranks extracted");
}

#[test]
fn r8_ascending_ranks_across_helper_call_pass() {
    let report = run_workspace(&[("crates/engine/src/locks.rs", "lock_rank_good.rs")]);
    assert!(
        report.violations.is_empty(),
        "ascending acquisition is the documented order: {:?}",
        report.violations
    );
    assert_eq!(report.rank_table.len(), 2, "the table is still extracted");
    assert!(report
        .rank_table_line()
        .contains("100 fixture.low < 200 fixture.high"));
}

#[test]
fn analyzer_is_clean_over_its_own_sources() {
    // Self-analysis: the analyzer's own crate must satisfy every rule
    // it enforces, with no suppressions and no stale directives. Run
    // the real pipeline over `crates/analyze/src/**` exactly as the
    // workspace gate would see it.
    fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read src dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let src_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut paths = Vec::new();
    collect(&src_root, &mut paths);
    paths.sort();
    assert!(paths.len() >= 8, "the analyzer has shrunk; found {paths:?}");
    let files: Vec<SourceFile> = paths
        .iter()
        .map(|p| SourceFile {
            path: format!(
                "crates/analyze/src/{}",
                p.strip_prefix(&src_root)
                    .expect("under src root")
                    .to_string_lossy()
                    .replace('\\', "/")
            ),
            src: std::fs::read_to_string(p).expect("read source"),
        })
        .collect();
    let report = analyze_files(&files, &DepGraph::default()).expect("pipeline runs");
    let findings: Vec<_> = report.unsuppressed().collect();
    assert!(
        findings.is_empty(),
        "the analyzer violates its own rules: {findings:?}"
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale suppressions in the analyzer: {:?}",
        report.stale_allows
    );
}
