//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `p50_ms`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// A finished run's verdict and metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every reply and every final-state check passed.
    pub correct: bool,
    /// Requests sent, over all phases.
    pub attempted: u64,
    /// Error replies, refusals, missing and wrong replies.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"<name>": {"value": …, "unit": …}, …}`.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let fields: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A JSON number; non-finite values become `0`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        o.push("p50_ms", 1.25, "ms");
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
