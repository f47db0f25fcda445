//! The run's result: metrics, op counts, and the final JSON line.

use crate::stats::{self, Percentile, Tally};
use std::fmt::Write as _;

/// Named metrics in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    pub fn entries(&self) -> &[(&'static str, f64, &'static str)] {
        &self.entries
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// End-to-end metrics printed with the run but left out of the result
    /// line: on a shared 2-core host their run-to-run spread is wider than
    /// any bound the result line may carry (see perfbench/rationale.json).
    pub ungated: Metrics,
    /// The spans of a traced run, written out when the run ends.
    pub trace: Option<crate::trace::Trace>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A non-finite metric makes the run incorrect instead of emitting
    /// invalid JSON.
    pub fn json_line(&self) -> String {
        let mut correct = self.correct && self.tally.failed == 0;
        let mut metrics = String::new();
        for (i, &(name, value, unit)) in self.metrics.entries().iter().enumerate() {
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

/// Latency samples (seconds) summarised as p50, p75 and tail p99, in ms.
pub fn latency_ms(samples: &[f64]) -> (f64, f64, Percentile) {
    let sorted = stats::sorted(samples);
    let p50 = stats::nearest_rank(&sorted, 50.0).unwrap_or(f64::NAN) * 1e3;
    let p75 = stats::nearest_rank(&sorted, 75.0).unwrap_or(f64::NAN) * 1e3;
    let p99 = stats::tail_percentile(&sorted, 99.0).map_or(
        Percentile {
            value: f64::NAN,
            pct: 0.0,
            samples: 0,
        },
        |p| Percentile {
            value: p.value * 1e3,
            ..p
        },
    );
    (p50, p75, p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        o.tally.record(true);
        o.metrics.push("query_p75_ms", 1.25, "ms");
        o.metrics.push("setup_s", 0.5, "s");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"query_p75_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_and_nan_make_the_run_incorrect() {
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        o.tally.record(false);
        assert!(o
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        o.tally.record(true);
        o.metrics.push("x", f64::NAN, "ms");
        assert!(o.json_line().starts_with("{\"correct\": false"));
    }
}
