//! The repo's benchmark of the served spatial-skyline query: five seeded
//! workloads, six bounded end-to-end metrics from an untraced run, and a
//! traced single-threaded pass that gives the per-layer numbers. See
//! `README.md` beside this package for what each number means.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke]
//! benchmark [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke]     every workload
//! benchmark --repeat-check [--workload <name>] [--seed <u64>]             two sets of three runs
//! ```

mod inputs;
mod repeat;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::Metric;
use spec::{Workload, DEFAULT_SECONDS, WARMUP};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The command line, parsed.
pub struct Args {
    /// One workload, or `None` for all five.
    pub workload: Option<String>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: Option<u64>,
    /// Run the traced pass instead of the untraced run.
    pub trace: bool,
    /// 1/50 of the points and 1 s windows.
    pub smoke: bool,
    /// Run the repeat check instead of one run.
    pub repeat_check: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 42,
            seconds: None,
            trace: false,
            smoke: false,
            repeat_check: false,
        };
        let mut pending: Option<String> = None;
        while let Some(arg) = pending.take().or_else(|| argv.next()) {
            let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--workload" => args.workload = Some(value("--workload")?),
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let seconds: u64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    args.seconds = Some(seconds);
                }
                // `--trace` alone means 1; the driver passes `--trace 0|1`.
                "--trace" => match argv.next() {
                    Some(v) if v == "0" => args.trace = false,
                    Some(v) if v == "1" => args.trace = true,
                    other => {
                        args.trace = true;
                        pending = other;
                    }
                },
                "--smoke" => args.smoke = true,
                "--repeat-check" => args.repeat_check = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }

    /// The measured window: `--seconds`, else 1 s under `--smoke`, else
    /// the `run_seconds` of `BENCHMARK.json`.
    pub fn window_seconds(&self) -> u64 {
        self.seconds
            .unwrap_or(if self.smoke { 1 } else { DEFAULT_SECONDS })
    }

    /// The unmeasured warm-up before the window.
    fn warmup(&self) -> Duration {
        if self.smoke {
            WARMUP / 10
        } else {
            WARMUP
        }
    }

    /// The arguments that hand this configuration to a child process
    /// running `workload`.
    pub fn for_child(&self, workload: &str, seed: u64) -> Vec<String> {
        let mut argv = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--seconds".to_string(),
            self.window_seconds().to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.smoke {
            argv.push("--smoke".to_string());
        }
        argv
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.repeat_check {
        repeat::check(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload, each in a process of its own, so that one workload's
/// peak memory and warmed allocator never reach the next.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for w in spec::workloads() {
        let status = Command::new(&exe)
            .args(args.for_child(w.name, args.seed))
            .status()
            .map_err(|e| format!("{}: {e}", w.name))?;
        if !status.success() {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {}", failed.join(", ")))
    }
}

/// One workload in this process.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let w = Workload::find(name, args.smoke).ok_or_else(|| {
        let known: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seconds = args.window_seconds();
    println!("# workload {} — {}", w.name, w.why);
    println!(
        "# commit {} | seed {} | nproc {} | simd {} | {} | warm-up {:?} | window {seconds} s | {} points{}",
        commit(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ssq_geom::simd::path_name(),
        rustc_version(),
        args.warmup(),
        w.points,
        if args.smoke { " | SMOKE: never compare these numbers" } else { "" },
    );

    if args.trace {
        let traced = trace::run(&w, args.seed, seconds)?;
        for m in &traced.metrics {
            println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("# spans written to {}", traced.span_file.display());
        report::all_finite(&traced.metrics)?;
        println!(
            "{}",
            report::result_line(
                traced.failed == 0,
                traced.attempted,
                traced.failed,
                &traced.metrics
            )
        );
        return if traced.failed == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} of {} traced answers were wrong",
                traced.failed, traced.attempted
            ))
        };
    }

    let outcome = workloads::run(&w, args.seed, args.warmup(), Duration::from_secs(seconds))?;
    if let Some(late_ms) = outcome.late_ms {
        println!(
            "{:<34} {late_ms:>16.4} ms (harness.generator_late_ms)",
            "generator late, max"
        );
        if late_ms > spec::CHURN_PERIOD.as_secs_f64() * 1e3 {
            return Err(format!(
                "invalid run: the producer ran {late_ms:.1} ms late, more than one period"
            ));
        }
    }
    let metrics = report::end_to_end(&outcome)?;
    report::all_finite(&metrics)?;
    print_end_to_end(&metrics, &outcome);
    let verdict = report::verdict(&outcome);
    println!(
        "{}",
        report::result_line(verdict.is_ok(), outcome.attempted, outcome.failed, &metrics)
    );
    verdict
}

fn print_end_to_end(metrics: &[Metric], outcome: &workloads::Outcome) {
    for m in metrics {
        let samples = match m.name {
            "setup_s" => format!("median of {:?}", outcome.setups_s),
            "publish_p50_ms" => format!("{} batches", outcome.publish_ms.len()),
            "peak_rss_mib" => "VmHWM".to_string(),
            _ => format!("{} samples", outcome.latencies.len()),
        };
        println!("{:<34} {:>16.4} {} ({samples})", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>16.6} ratio ({} failed of {} attempted)",
        "failed_frac",
        outcome.failed_frac(),
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{:<34} {:>16.4} s ({} candidates examined; not part of setup_s)",
        "harness.oracle_s", outcome.oracle_s, outcome.candidates
    );
}

/// The checked-out commit, read from `.git` above the working directory
/// without starting a process; `unknown` outside a git checkout.
fn commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.chars().take(12).collect();
            };
            if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
                return hash.trim().chars().take(12).collect();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|line| line.strip_suffix(reference))
                .map_or_else(
                    || "unknown".into(),
                    |hash| hash.trim().chars().take(12).collect(),
                );
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

/// `rustc --version` of the toolchain on the path; `rustc unknown` when
/// there is none.
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "rustc unknown".into(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_invocation_parses() {
        let args = parse(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(args.workload.as_deref(), Some("churn"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(10), false));
    }

    #[test]
    fn a_bare_trace_flag_means_one() {
        let args = parse(&["--trace", "--workload", "fleet"]).expect("parses");
        assert!(args.trace);
        assert_eq!(args.workload.as_deref(), Some("fleet"));
        assert!(parse(&["--trace", "1"]).expect("parses").trace);
        assert!(
            parse(&["--workload", "fleet", "--trace"])
                .expect("parses")
                .trace
        );
    }

    #[test]
    fn defaults_and_errors() {
        let args = parse(&[]).expect("parses");
        assert_eq!((args.seed, args.window_seconds()), (42, DEFAULT_SECONDS));
        assert_eq!(parse(&["--smoke"]).expect("parses").window_seconds(), 1);
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
