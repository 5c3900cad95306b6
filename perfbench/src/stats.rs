//! Small statistics and the result record every workload fills.

use std::fmt::Write as _;
use std::hash::Hasher;

/// Median of `v` (sorted in place); `NaN` when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (sorted in place); `NaN` when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Hashes a value's `Debug` output without materialising the string,
/// so two large reports can be compared cheaply and exactly.
pub fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(Default::default());
    write!(w, "{value:?}").expect("hashing never fails");
    w.0.finish()
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests replayed or invoked).
    pub attempted: u64,
    /// Operations that failed, went missing or returned a wrong result.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Spans recorded around the calls into each layer.
    pub spans: Vec<Span>,
    /// Progress lines (each replay's time, each live phase's verdict)
    /// for standard error.
    pub notes: Vec<String>,
}

/// A timed call into one layer, in microseconds since the run began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check that lost `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }

    pub fn span(
        &mut self,
        name: &str,
        clock: &Clock,
        // lint:allow(W1): the benchmark times the program from outside
        start: std::time::Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: clock.us(start),
            // lint:allow(W1): the benchmark times the program from outside
            end_us: clock.us(std::time::Instant::now()),
            parent,
        });
        self.spans.len() - 1
    }
}

/// The run's time origin for spans.
// lint:allow(W1): the benchmark times the program from outside
pub struct Clock(pub std::time::Instant);

impl Clock {
    // lint:allow(W1): the benchmark times the program from outside
    pub fn us(&self, t: std::time::Instant) -> u64 {
        t.saturating_duration_since(self.0).as_micros() as u64
    }
}

/// JSON string literal with the escapes metric names and messages need.
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

/// A metric value as JSON: full precision, `null` if not finite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
