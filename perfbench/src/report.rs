//! Metrics, correctness checks and failure accounting of one run, and
//! their JSON output.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// Operations of one phase: every attempt ends as exactly one of
/// succeeded, failed or refused (`Overloaded`).
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub refused: u64,
}

impl Accounting {
    /// Record the outcome of one attempt.
    pub fn note<T>(&mut self, r: &dln_serve::ServeResult<T>) {
        self.attempted += 1;
        match r {
            Ok(_) => self.succeeded += 1,
            Err(dln_serve::ServeError::Overloaded { .. }) => self.refused += 1,
            Err(_) => self.failed += 1,
        }
    }

    pub fn ok(&mut self) {
        self.attempted += 1;
        self.succeeded += 1;
    }

    pub fn merge(&mut self, o: &Accounting) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        self.failed += o.failed;
        self.refused += o.refused;
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub checks: Vec<(String, bool, String)>,
    pub phases: Vec<(&'static str, Accounting)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            eprintln!("CHECK FAILED: {name}: {detail}");
        }
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn phase(&mut self, name: &'static str, acc: Accounting) {
        self.phases.push((name, acc));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    pub fn totals(&self) -> Accounting {
        let mut t = Accounting::default();
        for (_, a) in &self.phases {
            t.merge(a);
        }
        t
    }
}

/// JSON string literal (the benchmark only emits ASCII names).
pub fn quote(s: &str) -> String {
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

/// A finite number as JSON (non-finite values become `null`, which the
/// self-test rejects).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, optionally with sample counts.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}",
            quote(&m.name),
            num(m.value),
            quote(m.unit)
        );
        if with_samples {
            let _ = write!(out, ", \"samples\": {}", m.samples);
        }
        out.push('}');
    }
    out.push('}');
    out
}
