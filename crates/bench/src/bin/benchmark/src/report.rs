//! Turning a run into named metrics, a verdict and the result line.

use crate::spec::{END_TO_END, MAX_FAILED_FRAC};
use crate::stats;
use crate::workloads::Outcome;

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Why a run must exit non-zero, if it must: too many failed operations.
pub fn verdict(outcome: &Outcome) -> Result<(), String> {
    let frac = outcome.failed_frac();
    if frac > MAX_FAILED_FRAC {
        return Err(format!(
            "failed_frac {frac:.6} ({} of {}) exceeds {MAX_FAILED_FRAC}",
            outcome.failed, outcome.attempted
        ));
    }
    Ok(())
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub fn end_to_end(outcome: &Outcome) -> Result<Vec<Metric>, String> {
    if outcome.latencies.is_empty() {
        return Err("no operation completed inside the window".into());
    }
    if outcome.publish_ms.is_empty() {
        return Err("no delta batch was published".into());
    }
    let p50 = stats::percentile(&outcome.latencies, 0.5) as f64 / 1e3;
    let p99 = stats::guarded_percentile(&outcome.latencies, 0.99)? as f64 / 1e3;
    let values = [
        outcome.setup_s(),
        outcome.throughput(),
        p50,
        p99,
        stats::median(&mut outcome.publish_ms.clone()),
        outcome.peak_rss_mib,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect())
}

/// Rejects a metric set holding a value that is not a finite number.
pub fn all_finite(metrics: &[Metric]) -> Result<(), String> {
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite: {}", m.name, m.value)),
        None => Ok(()),
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads the `(name, value)` pairs back out of a [`result_line`].
pub fn parse_result_line(line: &str) -> Result<Vec<(String, f64)>, String> {
    let metrics = line
        .split_once("\"metrics\": {")
        .ok_or("no metrics object in the result line")?
        .1;
    let mut out = Vec::new();
    for entry in metrics.split("\"unit\"") {
        let Some((head, value)) = entry.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head
            .rsplit('"')
            .nth(1)
            .ok_or_else(|| format!("no metric name before {value:?}"))?;
        let value = value
            .trim_end_matches([',', ' '])
            .parse::<f64>()
            .map_err(|e| format!("metric {name}: {e}"))?;
        out.push((name.to_string(), value));
    }
    if out.is_empty() {
        return Err("the result line holds no metric".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Metric {
                name: "setup_s",
                value: 1.5321,
                unit: "s",
            },
            Metric {
                name: "throughput_ops_s",
                value: 20341.25,
                unit: "ops/s",
            },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert_eq!(
            parse_result_line(&line),
            Ok(vec![
                ("setup_s".to_string(), 1.5321),
                ("throughput_ops_s".to_string(), 20341.25)
            ])
        );
        assert!(parse_result_line("{}").is_err());
    }

    #[test]
    fn a_non_finite_metric_is_rejected() {
        let bad = [Metric {
            name: "latency_p50_us",
            value: f64::NAN,
            unit: "us",
        }];
        assert!(all_finite(&bad).is_err());
    }
}
