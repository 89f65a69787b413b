//! What one benchmark invocation reports: named metrics with units,
//! the engine runs attempted and failed, and the result line.

use crate::spans::Spans;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// The outcome of one invocation: metrics, failure accounting, the
/// human-readable report and (traced runs) the span tree.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Engine runs attempted (one replication or one streamed pass).
    pub attempted: u64,
    /// Engine runs that returned `Err` or failed an output check.
    pub failed: u64,
    /// Why each failure happened.
    pub failures: Vec<String>,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Digest of the simulated outputs (untraced runs).
    pub digest: Option<u64>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count `runs` engine runs as failed, for `why`.
    pub fn fail(&mut self, runs: u64, why: impl Into<String>) {
        self.failed += runs;
        self.failures.push(why.into());
    }

    /// Add a report line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every run and every check passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            // Rust's shortest round-trip form keeps every digit; a
            // non-finite value (already failing `correct`) becomes null.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("jobs_per_s", 1234.5, "1/s");
        let line = out.result_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"jobs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        out.fail(1, "boom");
        assert!(!out.correct());
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("sched.owner_arrival.count"));
        assert!(!valid_name("sched owner"));
        assert!(!valid_name(""));
    }
}
