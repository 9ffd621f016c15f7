//! The `ssq-analyze` binary: walks the workspace's Rust sources and
//! reports violations of the rules rustc and clippy cannot check —
//! `float-cmp` and `deny-alloc` on each file, `deny-alloc-transitive`
//! and `lock-rank-static` over the call graph (see `DESIGN.md` §12).
//!
//! Usage: `ssq-analyze [ROOT] [--json PATH] [--audit-suppressions]`
//!
//! * `--json PATH` — also write the machine-readable report (one JSON
//!   object per violation, suppressed ones included).
//! * `--audit-suppressions` — list allow directives that no longer
//!   suppress anything; stale directives fail the run.
//!
//! Exit codes: 0 = clean, 1 = violations found (or stale suppressions
//! in audit mode), 2 = internal error (IO failure, a file the lexer
//! cannot process, or bad usage).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ssq_analyze::workspace::{analyze_files, dep_graph_from_manifests, SourceFile};

struct Options {
    root: PathBuf,
    json: Option<PathBuf>,
    audit: bool,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("ssq-analyze: {message}");
            return ExitCode::from(2);
        }
    };

    let mut paths = Vec::new();
    if let Err(err) = collect_rust_files(&opts.root, &mut paths) {
        eprintln!(
            "ssq-analyze: internal error walking {}: {err}",
            opts.root.display()
        );
        return ExitCode::from(2);
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let display = relative_display(&opts.root, path);
        match std::fs::read_to_string(path) {
            Ok(src) => files.push(SourceFile { path: display, src }),
            Err(err) => {
                eprintln!("ssq-analyze: internal error reading {display}: {err}");
                return ExitCode::from(2);
            }
        }
    }

    let deps = dep_graph_from_manifests(&opts.root);
    let report = match analyze_files(&files, &deps) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("ssq-analyze: internal error: {message}");
            return ExitCode::from(2);
        }
    };

    for v in report.unsuppressed() {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule.name(), v.message);
    }

    if let Some(json_path) = &opts.json {
        if let Err(err) = std::fs::write(json_path, report.to_json()) {
            eprintln!(
                "ssq-analyze: internal error writing {}: {err}",
                json_path.display()
            );
            return ExitCode::from(2);
        }
    }

    let mut failed = report.unsuppressed().count() > 0;
    if opts.audit {
        for stale in &report.stale_allows {
            println!(
                "{}:{}: stale suppression: allow({}) no longer matches any violation",
                stale.file,
                stale.line,
                stale.rule.name()
            );
        }
        if report.stale_allows.is_empty() {
            println!("ssq-analyze: all suppressions are live");
        } else {
            failed = true;
        }
    }

    println!("{}", report.rank_table_line());
    println!("{}", report.summary());
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses the CLI. Errors are usage problems → exit code 2.
fn parse_args() -> Result<Options, String> {
    let mut root = None;
    let mut json = None;
    let mut audit = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json = Some(PathBuf::from(path)),
                None => return Err("--json requires a path argument".into()),
            },
            "--audit-suppressions" => audit = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path if root.is_none() => root = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let root = root.unwrap_or_else(|| {
        // Default to the workspace root: the binary runs from anywhere
        // inside the repo via `cargo run -p ssq-analyze`, which sets
        // CARGO_MANIFEST_DIR to crates/analyze.
        std::env::var("CARGO_MANIFEST_DIR").map_or_else(
            |_| PathBuf::from("."),
            |dir| PathBuf::from(dir).join("../.."),
        )
    });
    Ok(Options { root, json, audit })
}

/// Recursively collects `.rs` files under `dir`, skipping build output,
/// VCS metadata, and the analyzer's own rule fixtures (which violate
/// the rules on purpose).
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders `file` relative to `root` with `/` separators for stable,
/// clickable report lines.
fn relative_display(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.to_string_lossy().replace('\\', "/")
}
