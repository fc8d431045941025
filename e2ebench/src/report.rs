//! The result of one run and its JSON rendering.

use crate::check::Checker;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// The metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Context that is not a metric (sample counts, op counts), printed on
    /// a line of its own.
    pub detail: Vec<(String, f64)>,
    /// Per-layer metrics printed as 0 because the workload's ops never
    /// call into their layer, printed on the detail line.
    pub not_on_path: Vec<String>,
}

impl Report {
    /// An empty report for `checker`'s final counts.
    pub fn new(checker: &Checker) -> Self {
        Report {
            attempted: checker.attempted(),
            failed: checker.failed(),
            ..Report::default()
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a detail entry.
    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.push((name.to_string(), value));
    }

    /// The metric named `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// True when ops ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail line.
    pub fn detail_json(&self) -> String {
        let fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v))
            .collect();
        let not_on_path: Vec<String> = self.not_on_path.iter().map(|n| quote(n)).collect();
        format!(
            "{{\"detail\": {{{}}}, \"not_on_path\": [{}]}}",
            fields.join(", "),
            not_on_path.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
    fn result_line_has_exactly_the_four_keys() {
        let checker = Checker::new(false);
        checker.record(true);
        let mut r = Report::new(&checker);
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn quotes_escape() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
