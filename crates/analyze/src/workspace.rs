//! The workspace driver: lex/parse, local scans, call-graph
//! construction, the two interprocedural rules, suppression
//! application, and report assembly (human, JSON, and suppression
//! audit).
//!
//! The driver is filesystem-agnostic — callers hand it
//! [`SourceFile`]s — so fixture tests can run the full pipeline over
//! in-memory files. Only [`dep_graph_from_manifests`] touches disk,
//! and it degrades to "everything visible" when manifests are missing.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::callgraph::{classify_path, CallGraph, DepGraph, Unit};
use crate::interp::{self, lockrank::RankEntry, Ctx};
use crate::lexer::lex;
use crate::parser::parse;
use crate::rules::{apply_suppressions, scan_lexed, LocalScan, Rule, Violation};

/// One input file: a repo-relative display path plus its source text.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (used for rule scoping
    /// and report lines).
    pub path: String,
    /// The file's contents.
    pub src: String,
}

/// A violation bound to its file, with its suppression outcome.
#[derive(Clone, Debug)]
pub struct ReportedViolation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// `true` when an audited allow directive suppressed it.
    pub suppressed: bool,
}

/// An allow directive that no longer suppresses anything.
#[derive(Clone, Debug)]
pub struct StaleAllow {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// The rule it names.
    pub rule: Rule,
}

/// Everything one analyzer run produced.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All violations (suppressed ones included), sorted by file/line.
    pub violations: Vec<ReportedViolation>,
    /// Allow directives that matched nothing this run.
    pub stale_allows: Vec<StaleAllow>,
    /// `(stage, wall time)` per pipeline stage, in run order.
    pub timings: Vec<(&'static str, Duration)>,
    /// Number of files analyzed.
    pub files: usize,
    /// The extracted §12.2 rank table, ascending.
    pub rank_table: Vec<RankEntry>,
}

impl WorkspaceReport {
    /// The violations an audited allow did **not** cover — what CI
    /// fails on.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &ReportedViolation> {
        self.violations.iter().filter(|v| !v.suppressed)
    }

    /// Renders the machine-readable report: a JSON array with one
    /// object per violation (rule, file, line, message, suppression
    /// status), stable across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"message\": \"{}\", \"suppressed\": {}}}",
                v.rule.name(),
                json_escape(&v.file),
                v.line,
                json_escape(&v.message),
                v.suppressed
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// Renders the one-line human summary with per-stage wall times.
    pub fn summary(&self) -> String {
        let unsuppressed = self.unsuppressed().count();
        let status = if unsuppressed == 0 {
            "clean".to_string()
        } else {
            format!("{unsuppressed} violation(s)")
        };
        let timings = self
            .timings
            .iter()
            .map(|(stage, t)| format!("{stage} {}ms", t.as_millis()))
            .collect::<Vec<_>>()
            .join(" · ");
        format!(
            "ssq-analyze: {status} ({} files, {} ranked mutexes) · {timings}",
            self.files,
            self.rank_table.len()
        )
    }

    /// Renders the extracted rank table as one line, ascending — the
    /// CI-visible proof of the §12.2 lattice.
    pub fn rank_table_line(&self) -> String {
        if self.rank_table.is_empty() {
            return "ssq-analyze: lock-rank table: (no ranked mutexes found)".into();
        }
        let entries = self
            .rank_table
            .iter()
            .map(|e| format!("{} {}", e.rank, e.name))
            .collect::<Vec<_>>()
            .join(" < ");
        format!("ssq-analyze: lock-rank table: {entries}")
    }
}

/// Runs the full pipeline over `files`, in order. Returns an error
/// string (for the internal-error exit code) when a file fails to lex.
pub fn analyze_files(files: &[SourceFile], deps: &DepGraph) -> Result<WorkspaceReport, String> {
    let mut report = WorkspaceReport {
        files: files.len(),
        ..WorkspaceReport::default()
    };

    // Stage 1: lex + parse.
    let t = Instant::now();
    let mut units: Vec<Unit> = Vec::with_capacity(files.len());
    for f in files {
        let lexed = lex(&f.src).map_err(|e| format!("{}: lex error: {e}", f.path))?;
        let parsed = parse(&lexed);
        let (crate_name, indexable) = classify_path(&f.path);
        units.push(Unit {
            path: f.path.clone(),
            crate_name,
            indexable,
            lexed,
            parsed,
        });
    }
    report.timings.push(("lex+parse", t.elapsed()));

    // Stage 2: local (single-file) rules.
    let t = Instant::now();
    let mut scans: Vec<LocalScan> = units.iter().map(|u| scan_lexed(&u.lexed)).collect();
    report.timings.push(("local-rules", t.elapsed()));

    // Stage 3: the call graph.
    let t = Instant::now();
    let graph = CallGraph::build(&units, deps);
    report.timings.push(("call-graph", t.elapsed()));

    // Stage 4: the two interprocedural rules.
    let ctx = Ctx {
        units: &units,
        scans: &scans,
        graph: &graph,
    };
    let t = Instant::now();
    let alloc_v = interp::alloc::run(&ctx);
    report.timings.push(("deny-alloc-transitive", t.elapsed()));
    let t = Instant::now();
    let (lock_v, rank_table) = interp::lockrank::run(&ctx);
    report.timings.push(("lock-rank-static", t.elapsed()));
    report.rank_table = rank_table;

    // Stage 5: merge per file, apply suppressions, collect stale
    // directives.
    let mut merged: Vec<Vec<Violation>> = scans
        .iter_mut()
        .map(|s| std::mem::take(&mut s.violations))
        .collect();
    for (file, violation) in alloc_v.into_iter().chain(lock_v) {
        merged[file].push(violation);
    }
    for (i, violations) in merged.into_iter().enumerate() {
        let mut allows = std::mem::take(&mut scans[i].allows);
        let (kept, suppressed) = apply_suppressions(violations, &mut allows);
        let path = &units[i].path;
        for (list, flagged) in [(kept, false), (suppressed, true)] {
            for v in list {
                report.violations.push(ReportedViolation {
                    file: path.clone(),
                    line: v.line,
                    rule: v.rule,
                    message: v.message,
                    suppressed: flagged,
                });
            }
        }
        for a in allows.into_iter().filter(|a| !a.used) {
            report.stale_allows.push(StaleAllow {
                file: path.clone(),
                line: a.line,
                rule: a.rule,
            });
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));
    report
        .stale_allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Builds the crate-visibility graph from the workspace manifests
/// (`Cargo.toml` at the root plus one per `crates/*` member). Only
/// `[dependencies]` sections count — dev-dependencies are test-only
/// and must not widen library reachability. Any IO failure degrades to
/// an empty graph, i.e. full visibility (conservative for every rule).
pub fn dep_graph_from_manifests(root: &Path) -> DepGraph {
    let mut direct: HashMap<String, Vec<String>> = HashMap::new();
    let mut add = |crate_name: &str, manifest: &Path| {
        let Ok(text) = std::fs::read_to_string(manifest) else {
            return;
        };
        let deps = direct.entry(crate_name.to_string()).or_default();
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            let name = line
                .split(|c: char| c.is_whitespace() || c == '=' || c == '.')
                .next()
                .unwrap_or("");
            if let Some(member) = name.strip_prefix("ssq-") {
                deps.push(member.to_string());
            }
        }
    };
    add("spatial-skyline", &root.join("Cargo.toml"));
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            add(&name, &entry.path().join("Cargo.toml"));
        }
    }
    DepGraph::from_direct(&direct)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            src: src.to_string(),
        }
    }

    #[test]
    fn json_output_escapes_and_reports_suppression_status() {
        let files = [file(
            "crates/engine/src/x.rs",
            "fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n\
             // ssq-analyze: allow(float-cmp): inputs are \"finite\" by construction\n\
             fn g(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n",
        )];
        let report = analyze_files(&files, &DepGraph::default()).expect("pipeline runs");
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.unsuppressed().count(), 1);
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"float-cmp\""), "{json}");
        assert!(json.contains("\"suppressed\": true"), "{json}");
        assert!(json.contains("\"suppressed\": false"), "{json}");
        assert!(report.stale_allows.is_empty());
    }

    #[test]
    fn stale_allows_are_collected_with_their_rule() {
        let files = [file(
            "crates/engine/src/x.rs",
            "// ssq-analyze: allow(deny-alloc): obsolete reason\nfn f() -> u8 { 1 }\n",
        )];
        let report = analyze_files(&files, &DepGraph::default()).expect("pipeline runs");
        assert_eq!(report.unsuppressed().count(), 0);
        assert_eq!(report.stale_allows.len(), 1);
        assert_eq!(report.stale_allows[0].rule, Rule::DenyAlloc);
        assert_eq!(report.stale_allows[0].line, 1);
    }

    #[test]
    fn summary_reports_every_stage_and_the_rank_table() {
        let files = [file(
            "crates/engine/src/x.rs",
            "pub const RANK_A: u32 = 10;\n\
             struct S { a: u8 }\n\
             fn build() -> X { X { a: RankedMutex::new(\"engine.a\", RANK_A, 0u8) } }\n",
        )];
        let report = analyze_files(&files, &DepGraph::default()).expect("pipeline runs");
        let summary = report.summary();
        for stage in [
            "lex+parse",
            "local-rules",
            "call-graph",
            "deny-alloc-transitive",
            "lock-rank-static",
        ] {
            assert!(summary.contains(stage), "{summary}");
        }
        assert!(summary.contains("1 ranked mutexes"), "{summary}");
        assert!(report.rank_table_line().contains("10 engine.a"));
    }

    #[test]
    fn lex_errors_surface_as_internal_errors_with_the_path() {
        let files = [file("crates/engine/src/x.rs", "fn f() { \"unterminated }")];
        let err = analyze_files(&files, &DepGraph::default()).expect_err("must fail");
        assert!(err.contains("crates/engine/src/x.rs"), "{err}");
    }
}
