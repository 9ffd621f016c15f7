//! Integration tests: every rule — local R1–R5 and interprocedural
//! R6–R9 — is demonstrated by a fixture that must trigger it and a
//! companion that must not, plus a self-analysis test pinning the
//! analyzer clean over its own sources.
//!
//! Fixtures live in `tests/fixtures/` and are lexed, not compiled; the
//! workspace gate's file walker skips that directory so the
//! deliberately-bad files never fail CI themselves. The local rules
//! run through `analyze_source` on one file; the interprocedural
//! fixtures run through the full `analyze_files` pipeline with
//! synthetic repo paths, because path scoping decides the rule roots
//! (`deny-alloc` regions, `no-panic` entry points, SIMD dispatch
//! tables).

use ssq_analyze::callgraph::DepGraph;
use ssq_analyze::{
    analyze_files, analyze_source, config_for_path, FileConfig, Rule, SourceFile, Violation,
    WorkspaceReport,
};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn run(name: &str, config: FileConfig) -> Vec<Violation> {
    analyze_source(&fixture(name), config).unwrap_or_else(|e| panic!("lexing {name}: {e}"))
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
    let v = run("float_cmp_bad.rs", FileConfig::default());
    assert_only_rule(&v, Rule::FloatCmp);
    assert_eq!(v.len(), 2, "both the unwrap and the expect site: {v:?}");
}

#[test]
fn r1_float_cmp_clean_fixture_passes() {
    assert!(run("float_cmp_good.rs", FileConfig::default()).is_empty());
}

#[test]
fn r2_shared_cell_fixture_fails() {
    let config = FileConfig {
        shared_cell: true,
        ..FileConfig::default()
    };
    let v = run("shared_cell_bad.rs", config);
    assert_only_rule(&v, Rule::SharedCell);
    assert_eq!(
        v.len(),
        5,
        "RefCell x2, static mut, cell::Cell, UnsafeCell: {v:?}"
    );
}

#[test]
fn r2_shared_cell_clean_fixture_passes() {
    let config = FileConfig {
        shared_cell: true,
        ..FileConfig::default()
    };
    assert!(run("shared_cell_good.rs", config).is_empty());
}

#[test]
fn r2_is_path_scoped() {
    // The same bad file passes when not configured as a shared-state
    // module — the rule is scoped, not global.
    assert!(run("shared_cell_bad.rs", FileConfig::default()).is_empty());
}

#[test]
fn r3_deny_alloc_fixture_fails() {
    let v = run("deny_alloc_bad.rs", FileConfig::default());
    assert_only_rule(&v, Rule::DenyAlloc);
    assert_eq!(v.len(), 3, "to_vec, collect, format!: {v:?}");
}

#[test]
fn r3_deny_alloc_clean_fixture_passes() {
    assert!(run("deny_alloc_good.rs", FileConfig::default()).is_empty());
}

#[test]
fn r4_no_panic_fixture_fails() {
    let config = FileConfig {
        no_panic: true,
        ..FileConfig::default()
    };
    let v = run("no_panic_bad.rs", config);
    assert_only_rule(&v, Rule::NoPanic);
    assert_eq!(v.len(), 4, "unwrap, expect, unreachable!, panic!: {v:?}");
}

#[test]
fn r4_no_panic_clean_fixture_passes() {
    let config = FileConfig {
        no_panic: true,
        ..FileConfig::default()
    };
    assert!(run("no_panic_good.rs", config).is_empty());
}

#[test]
fn r4_is_path_scoped() {
    assert!(run("no_panic_bad.rs", FileConfig::default()).is_empty());
}

#[test]
fn r5_safety_comment_fixture_fails() {
    let v = run("safety_comment_bad.rs", FileConfig::default());
    assert_only_rule(&v, Rule::SafetyComment);
    assert_eq!(v.len(), 3, "unsafe fn + two unsafe blocks: {v:?}");
}

#[test]
fn r5_safety_comment_clean_fixture_passes() {
    assert!(run("safety_comment_good.rs", FileConfig::default()).is_empty());
}

#[test]
fn r5_flags_unsafe_intrinsic_blocks_without_safety_comments() {
    // The SIMD dispatch layer's idiom: `#[target_feature]` kernels and
    // detection-gated wrapper calls. Every `unsafe` — the fn itself,
    // the aligned intrinsic load, and the wrapper call — must carry a
    // SAFETY comment.
    let v = run("simd_safety_bad.rs", FileConfig::default());
    assert_only_rule(&v, Rule::SafetyComment);
    assert_eq!(
        v.len(),
        3,
        "target_feature fn + intrinsic load + wrapper call: {v:?}"
    );
}

#[test]
fn r5_commented_intrinsic_blocks_pass() {
    assert!(run("simd_safety_good.rs", FileConfig::default()).is_empty());
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
    analyze_files(&files, 2, &DepGraph::default()).expect("pipeline runs")
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
fn r7_panic_transitive_fixture_fails() {
    let report = run_workspace(&[
        ("crates/engine/src/api.rs", "panic_transitive_entry.rs"),
        ("crates/geom/src/helper.rs", "panic_transitive_bad.rs"),
    ]);
    assert_eq!(
        unsuppressed_rules(&report),
        [Rule::PanicTransitive],
        "exactly the helper-crate unwrap: {:?}",
        report.violations
    );
    let v = report.unsuppressed().next().expect("one violation");
    assert_eq!(v.file, "crates/geom/src/helper.rs");
    assert!(
        v.message.contains("nearest"),
        "message names the entry-point chain: {}",
        v.message
    );
}

#[test]
fn r7_panic_transitive_clean_fixture_passes() {
    let report = run_workspace(&[
        ("crates/engine/src/api.rs", "panic_transitive_entry.rs"),
        ("crates/geom/src/helper.rs", "panic_transitive_good.rs"),
    ]);
    assert!(
        report.violations.is_empty(),
        "combinator helper is panic-free: {:?}",
        report.violations
    );
}

#[test]
fn r7_is_entry_point_scoped() {
    // The same panicking helper passes when nothing in the `no-panic`
    // file set reaches it — the rule traces reachability, it does not
    // blanket-ban panics in helper crates.
    let report = run_workspace(&[("crates/geom/src/helper.rs", "panic_transitive_bad.rs")]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
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
fn r9_direct_target_feature_call_fails() {
    let report = run_workspace(&[("crates/geom/src/simd.rs", "simd_dispatch_bad.rs")]);
    assert_eq!(
        unsuppressed_rules(&report),
        [Rule::SimdDispatchGuard, Rule::SimdDispatchGuard],
        "exactly the two undispatched calls (per-tile kernel, range kernel), \
         not the range kernel's own same-family call: {:?}",
        report.violations
    );
    for kernel in ["sum_lanes_avx2", "first_positive_lanes_avx2"] {
        assert!(
            report
                .unsuppressed()
                .any(|v| v.message.contains(&format!("`{kernel}` is a"))),
            "a message names the kernel {kernel}: {:?}",
            report.violations
        );
    }
}

#[test]
fn r9_dispatch_table_wrapper_and_kernel_family_pass() {
    let report = run_workspace(&[("crates/geom/src/simd.rs", "simd_dispatch_good.rs")]);
    assert!(
        report.violations.is_empty(),
        "table-installed wrapper and intra-family kernel calls are the \
         sanctioned paths: {:?}",
        report.violations
    );
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
    assert!(paths.len() >= 10, "the analyzer has grown; found {paths:?}");
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
    let report = analyze_files(&files, 2, &DepGraph::default()).expect("pipeline runs");
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

#[test]
fn workspace_config_routes_fixture_style_paths() {
    // Sanity-check the binary's path scoping against the same rules the
    // fixtures exercise.
    assert!(config_for_path("crates/engine/src/engine.rs").no_panic);
    assert!(!config_for_path("crates/engine/src/engine.rs").shared_cell);
    assert!(config_for_path("crates/rtree/src/tree.rs").shared_cell);
    assert!(!config_for_path("crates/analyze/src/rules.rs").no_panic);
}
