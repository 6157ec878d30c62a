//! Sample statistics, metric records and the result line.
//!
//! Timings are reported as a median and a high percentile.  A percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p99 needs 1000 samples and a p90 needs 100; otherwise the caller gets
//! `None` and the metric is printed as not reportable.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements of one quantity, in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    /// The nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.values.len();
        if n == 0 || !(p > 0.0 && p < 100.0) {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let beyond = sorted[idx + 1..]
            .iter()
            .filter(|v| **v > sorted[idx])
            .count();
        (beyond >= MIN_BEYOND).then_some(sorted[idx])
    }

    /// The median (the 50th percentile, under the same reporting rule).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The plain median of a few values (no reporting rule), for set-up
    /// repetitions.
    pub fn plain_median(&self) -> Option<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(sorted[n / 2]),
            _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
        }
    }
}

/// Operations completed in a timed interval: when each ended (seconds
/// since the interval began) and its latency in milliseconds.
///
/// End-to-end figures are reported as the median over [`ROUNDS`] rounds
/// of each round's figure, a round being an equal share of the operations
/// in completion order: a stretch the machine ran slowly for reasons
/// outside the program moves the pooled figures but not the median round.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    ops: Vec<(f64, f64)>,
}

/// Rounds a timed interval is split into.
pub const ROUNDS: usize = 5;

impl Timeline {
    pub fn push(&mut self, end: std::time::Duration, latency_ms: f64) {
        self.ops.push((end.as_secs_f64(), latency_ms));
    }

    pub fn merge(&mut self, other: &Timeline) {
        self.ops.extend_from_slice(&other.ops);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Every latency, pooled.
    pub fn latencies(&self) -> Samples {
        Samples {
            values: self.ops.iter().map(|(_, l)| *l).collect(),
        }
    }

    /// The rounds: each one's end time and latencies, in completion order.
    fn rounds(&self) -> Vec<(f64, Samples)> {
        let mut ops = self.ops.clone();
        ops.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = ops.len();
        (0..ROUNDS)
            .map(|r| &ops[r * n / ROUNDS..(r + 1) * n / ROUNDS])
            .filter(|chunk| !chunk.is_empty())
            .map(|chunk| {
                let end = chunk[chunk.len() - 1].0;
                let values = chunk.iter().map(|(_, l)| *l).collect();
                (end, Samples { values })
            })
            .collect()
    }

    /// Median over rounds of the operations completed per second.
    pub fn rate(&self) -> Option<f64> {
        let mut begin = 0.0;
        let mut values = Vec::new();
        for (end, round) in self.rounds() {
            values.push(round.len() as f64 / (end - begin));
            begin = end;
        }
        Samples { values }.plain_median()
    }

    /// Median over rounds of each round's `p`-th percentile latency, or
    /// `None` when some round cannot report it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let values = self
            .rounds()
            .iter()
            .map(|(_, r)| r.percentile(p))
            .collect::<Option<Vec<f64>>>()?;
        Samples { values }.plain_median()
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Adds a metric.  Panics on an invalid or duplicate name or a
    /// non-finite value: both are bugs in the benchmark itself.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }
}

/// Operations attempted and failed.  An operation fails when it errors,
/// is refused, or returns a wrong result.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks an already counted operation as failed (a check made after
    /// the timed interval found its result wrong).
    pub fn fail_checked(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Renders `v` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn json_string(s: &str) -> String {
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

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: Tally, metrics: &MetricSet) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 0..n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 distinct samples sits at rank 990: 10 lie beyond it.
        assert_eq!(samples(1000).percentile(99.0), Some(989.0));
        // With 999 samples only 9 lie beyond the p99 rank.
        assert_eq!(samples(999).percentile(99.0), None);
        assert_eq!(samples(100).percentile(90.0), Some(89.0));
        assert_eq!(samples(99).percentile(90.0), None);
        assert_eq!(samples(20).median(), Some(9.0));
        assert_eq!(samples(19).median(), None);
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond_it() {
        let mut s = Samples::new();
        for _ in 0..990 {
            s.push(1.0);
        }
        for _ in 0..10 {
            s.push(1.0);
        }
        assert_eq!(s.percentile(99.0), None, "all equal: nothing lies beyond");
        s.push(2.0);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    fn rounds_report_the_median_round() {
        let mut t = Timeline::default();
        // Five one-second rounds: 30 ops of 1 ms each, except a slow
        // third round with 30 ops of 9 ms.
        for round in 0..5u32 {
            for i in 0..30u32 {
                let end = std::time::Duration::from_millis(u64::from(round * 1000 + i * 30));
                let base = if round == 2 { 9.0 } else { 1.0 };
                let latency = base + f64::from(i) / 100.0;
                t.push(end, latency);
            }
        }
        // Round 0 ends at 0.87 s; each later round spans one second.
        let rate = t.rate().unwrap();
        assert!((rate - 30.0).abs() < 1e-9, "{rate}");
        let p50 = t.percentile(50.0).unwrap();
        assert!((p50 - 1.14).abs() < 1e-12, "{p50}");
        assert_eq!(t.latencies().len(), 150);
        // p90 of 30 samples leaves only 3 beyond it: not reportable.
        assert_eq!(t.percentile(90.0), None);
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for ok in ["setup_s", "core.parse_us", "q-1.x_y", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metric_set_refuses_bad_names() {
        MetricSet::new().put("bad name", 1.0, "ms");
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut m = MetricSet::new();
        m.put("latency_ms", 1.203_456_789, "ms");
        m.put("count", 3.0, "count");
        let tally = Tally {
            attempted: 10,
            failed: 0,
        };
        assert_eq!(
            result_line(tally, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut t = Tally::default();
        t.record(true);
        assert!(t.correct());
        t.fail_checked();
        assert!(!t.correct());
        assert_eq!(t.failed, 1);
        assert!(!Tally::default().correct(), "nothing attempted");
    }
}
