//! The run's result: named metrics with units, correctness gates, and the
//! one-line JSON object the benchmark prints last.

use plurality_telemetry::json::escape;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit string (`ms`, `s`, `MiB`, `count`, …).
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Units of work attempted (engine calls or jobs).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
    /// Messages of every correctness gate that fired.
    pub gate_failures: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a gate outcome; an `Err` marks the run incorrect.
    pub fn gate(&mut self, outcome: Result<(), String>) {
        if let Err(msg) = outcome {
            self.gate_failures.push(msg);
        }
    }

    /// Whether every gate passed and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Non-finite values (which only a fired gate can produce) are
    /// written as `null` so the line stays valid JSON.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    escape(&m.name),
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":\
             {\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        r.gate(Err("winner drifted".into()));
        assert!(!r.correct());
        assert!(r.result_line().starts_with("{\"correct\":false"));
    }
}
