//! The result line and the human-readable table beside it.

use crate::util::Summary;
use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with the pinned table or the simulator, and
    /// other broken checks: any of them fails the whole run.
    pub wrong: u64,
    /// Why the run measured nothing trustworthy (no result is printed).
    pub invalid: Option<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push((name.to_string(), value, unit));
    }

    /// Records `<prefix>_p50_<unit>` and `<prefix>_tail_<unit>`, noting the
    /// tail percentile and sample count on the human table.
    pub fn latency(&mut self, prefix: &str, s: Summary, unit: &'static str) {
        self.metric(&format!("{prefix}_p50_{unit}"), s.p50, unit);
        self.metric(&format!("{prefix}_tail_{unit}"), s.tail, unit);
        self.note(format!(
            "{prefix}: p50 {:.1}, p90 {:.1}, p99 {:.1}, tail p{} {:.1} {unit} over {} samples",
            s.p50, s.p90, s.p99, s.tail_pct, s.tail, s.count
        ));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Flags an incorrect answer: it fails its request and the run.
    pub fn wrong_answer(&mut self, what: String) {
        self.failed += 1;
        self.broken(what);
    }

    /// Flags a failed check outside the attempted requests (a cached
    /// resubmission, a stage replay): it fails the run.
    pub fn broken(&mut self, what: String) {
        self.wrong += 1;
        if self.wrong <= 10 {
            self.note(format!("WRONG: {what}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The readable table (for standard error) and the JSON result line
    /// (the last line of standard output): the end-to-end metrics, or with
    /// `traced` the per-layer ones.
    pub fn render(&self, workload: &str, traced: bool) -> (String, String) {
        let mut table = format!("== {workload}\n");
        for (name, value, unit) in self.metrics.iter().chain(&self.layers) {
            let _ = writeln!(table, "  {name:<28} {value:>16.4} {unit}");
        }
        for note in &self.notes {
            let _ = writeln!(table, "  # {note}");
        }
        let _ = writeln!(
            table,
            "  attempted {} failed {} wrong answers {}",
            self.attempted, self.failed, self.wrong
        );
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let shown = if traced { &self.layers } else { &self.metrics };
        for (i, (name, value, unit)) in shown.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        (table, out)
    }
}
