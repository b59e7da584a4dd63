//! Statistics over timed operations and the result line the benchmark
//! prints last.

use std::fmt::Write as _;

use crate::clock::Lap;

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The timed operations of one round: each operation's latency (wall
/// seconds of the call that served it) and CPU cost (CPU seconds of that
/// call, shared evenly by the operations it served), and the totals.
#[derive(Debug, Default, Clone)]
pub struct OpTimes {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    busy: Lap,
}

impl OpTimes {
    /// One call that served one operation.
    pub fn push(&mut self, lap: Lap) {
        self.push_batch(lap, 1);
    }

    /// One call that served `ops` operations.
    pub fn push_batch(&mut self, lap: Lap, ops: usize) {
        self.wall.extend(std::iter::repeat_n(lap.wall_s, ops));
        self.cpu.extend(std::iter::repeat_n(lap.cpu_s / ops as f64, ops));
        self.busy.wall_s += lap.wall_s;
        self.busy.cpu_s += lap.cpu_s;
    }

    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// Wall and CPU seconds spent in the calls.
    pub fn total(&self) -> Lap {
        self.busy
    }

    /// Operations per CPU second spent in the calls.
    pub fn cpu_rate(&self) -> f64 {
        self.len() as f64 / self.busy.cpu_s
    }

    /// Operations per wall second spent in the calls.
    pub fn wall_rate(&self) -> f64 {
        self.len() as f64 / self.busy.wall_s
    }

    pub fn cpu_p50_ms(&self) -> f64 {
        median(&self.cpu) * 1e3
    }

    pub fn wall_p50_ms(&self) -> f64 {
        median(&self.wall) * 1e3
    }

    pub fn wall_pct_ms(&self, p: f64) -> f64 {
        let mut v = self.wall.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p) * 1e3
    }
}

/// Ordered `name → value` list of one run; units come from the metric
/// tables in `main.rs`.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    items: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // An empty float sum is -0.0; print it as 0.
        let value = value + 0.0;
        match self.items.iter_mut().find(|(n, _)| n == name) {
            Some(item) => item.1 = value,
            None => self.items.push((name.to_string(), value)),
        }
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let prev = self.get(name).unwrap_or(0.0);
        self.set(name, prev + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`,
/// with `metrics` given as `(name, value, unit)`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that round-trips,
        // so every measured digit survives and integers keep a `.0`.
        let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn batches_share_one_call_time() {
        let mut t = OpTimes::default();
        t.push_batch(Lap { wall_s: 0.5, cpu_s: 0.8 }, 4);
        t.push(Lap { wall_s: 1.0, cpu_s: 1.2 });
        assert_eq!((t.len(), t.total()), (5, Lap { wall_s: 1.5, cpu_s: 2.0 }));
        assert_eq!((t.wall_p50_ms(), t.cpu_p50_ms()), (500.0, 200.0));
        assert_eq!((t.wall_rate(), t.cpu_rate()), (5.0 / 1.5, 2.5));
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.25);
        m.add("a_ms", 1.0);
        m.set("n", 3.0);
        let printed = [("a_ms", m.get("a_ms").unwrap(), "ms"), ("n", m.get("n").unwrap(), "count")];
        assert_eq!(
            result_json(true, 4, 0, &printed),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 2.25, \"unit\": \"ms\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
