//! `--repeat-check`: do two sets of runs of the same code agree within the
//! benchmark's own bounds?

use crate::report::parse_result_line;
use crate::spec::{self, END_TO_END};
use crate::{stats, Args};
use std::process::Command;

/// Runs per set.
const RUNS: u64 = 3;

/// Runs every workload (or the one given) [`RUNS`] times, twice, each run
/// in a process of its own and the two sets on the same seeds
/// `seed..seed + RUNS`; prints each end-to-end metric's two medians, how
/// far the second is worse than the first, and the bound; fails if any
/// metric is worse by more than its bound.
pub fn check(args: &Args) -> Result<(), String> {
    if args.trace {
        return Err("--repeat-check compares end-to-end metrics; drop --trace".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
    let chosen: Vec<&str> = match &args.workload {
        Some(name) => vec![*names
            .iter()
            .find(|n| *n == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?],
        None => names,
    };

    let mut exceeded = Vec::new();
    for name in chosen {
        let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
        for _ in 0..2 {
            let mut runs = Vec::new();
            for seed in args.seed..args.seed + RUNS {
                let out = Command::new(&exe)
                    .args(args.for_child(name, seed))
                    .output()
                    .map_err(|e| format!("{name}: {e}"))?;
                if !out.status.success() {
                    return Err(format!(
                        "{name} seed {seed} failed: {}",
                        String::from_utf8_lossy(&out.stderr).trim()
                    ));
                }
                let stdout = String::from_utf8_lossy(&out.stdout);
                let last = stdout.lines().last().ok_or("a run printed nothing")?;
                runs.push(parse_result_line(last)?);
            }
            sets.push(runs);
        }
        println!(
            "# {name}: two sets of {RUNS} runs, seeds {}..{}",
            args.seed,
            args.seed + RUNS
        );
        for m in END_TO_END {
            let median_of = |runs: &[Vec<(String, f64)>]| -> Result<f64, String> {
                let mut values: Vec<f64> = runs
                    .iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == m.name).map(|&(_, v)| v))
                    .collect();
                if values.len() != runs.len() {
                    return Err(format!("{name}: a run did not report {}", m.name));
                }
                Ok(stats::median(&mut values))
            };
            let (first, second) = (median_of(&sets[0])?, median_of(&sets[1])?);
            let worse = if m.higher_is_better {
                (first - second) / first
            } else {
                (second - first) / first
            };
            let ok = worse <= m.bound;
            println!(
                "{:<20} {first:>14.4} {second:>14.4} {} | worse by {:>+7.2} % | bound {:>5.1} % | {}",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
            if !ok {
                exceeded.push(format!("{name}/{}", m.name));
            }
        }
    }
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!("beyond their bounds: {}", exceeded.join(", ")))
    }
}
