//! Summary statistics and the result line.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `values` grouped into whole `bin`-second windows of a `window_s`-second
/// phase by each value's offset in seconds from the phase start
/// (`offsets`, one per value). A trailing partial window is dropped.
fn windows(offsets: &[f64], values: &[f64], window_s: f64, bin: f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); (window_s / bin).floor() as usize];
    for (&t, &v) in offsets.iter().zip(values) {
        if let Some(w) = out.get_mut((t / bin) as usize) {
            w.push(v);
        }
    }
    out
}

/// Completions per second in each whole `bin`-second window of a
/// `window_s`-second phase, given each completion's offset from the
/// phase start. A trailing partial window is dropped.
pub fn window_rates(done_s: &[f64], window_s: f64, bin: f64) -> Vec<f64> {
    windows(done_s, done_s, window_s, bin)
        .iter()
        .map(|w| w.len() as f64 / bin)
        .collect()
}

/// The median of each whole `bin`-second window's `values`, grouped as
/// [`window_rates`] groups them, for windows with enough samples to
/// support a median (see [`percentile`]).
pub fn window_medians(offsets: &[f64], values: &[f64], window_s: f64, bin: f64) -> Vec<f64> {
    windows(offsets, values, window_s, bin)
        .iter()
        .filter_map(|w| percentile(w, 0.5).map(|p| p.value))
        .collect()
}

/// A nearest-rank percentile together with the support it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, reported
/// only when at least [`MIN_BEYOND`] samples lie beyond it; otherwise the
/// sample is too small to support that percentile and the result is
/// `None`.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

/// Is `name` a valid metric name: a letter or digit first, then at most
/// 63 more letters, digits, `_`, `.` or `-`?
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered set of named, unit-tagged metric values.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record one metric. Names must be valid and unique, values finite.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("invalid metric name '{name}'"));
        }
        if self.entries.iter().any(|(n, _, _)| n == name) {
            return Err(format!("metric '{name}' recorded twice"));
        }
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite ({value})"));
        }
        self.entries.push((name.to_owned(), value, unit));
        Ok(())
    }

    /// The recorded metrics, in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The JSON object `{name: {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        for (name, value, unit) in &self.entries {
            map.insert(name.clone(), json!({ "value": *value, "unit": *unit }));
        }
        Value::Object(map)
    }
}

/// The result line the benchmark prints last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.to_json(),
    });
    serde_json::to_string(&line).expect("a JSON value always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).expect("1000 samples support p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(percentile(&v[..999], 0.99).is_none(), "only 9 beyond");
        assert!(
            percentile(&v[..19], 0.5).is_none(),
            "only 9 beyond the median"
        );
        assert_eq!(percentile(&v[..20], 0.5).map(|p| p.beyond), Some(10));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn percentile_is_order_free() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&v, 0.99);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.99));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_rates_drop_the_partial_window() {
        let done = [0.1, 0.2, 0.6, 1.1, 1.4, 1.45, 1.6];
        assert_eq!(window_rates(&done, 1.6, 0.5), vec![4.0, 2.0, 6.0]);
        assert!(window_rates(&done, 0.4, 0.5).is_empty());
    }

    #[test]
    fn window_medians_skip_thin_windows() {
        // Window 0 holds 1..=30, window 1 only five samples, window 2 is
        // partial and dropped.
        let mut offsets: Vec<f64> = (0..30).map(|i| f64::from(i) / 100.0).collect();
        let mut values: Vec<f64> = (1..=30).map(f64::from).collect();
        offsets.extend([0.6; 5]);
        values.extend([100.0; 5]);
        offsets.push(1.05);
        values.push(7.0);
        assert_eq!(window_medians(&offsets, &values, 1.1, 0.5), vec![15.0]);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("service.handle_us.validate"));
        assert!(valid_name("p50_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut m = Metrics::default();
        assert!(m.put("ok_ms", 1.0, "ms").is_ok());
        assert!(m.put("ok_ms", 2.0, "ms").is_err(), "duplicate");
        assert!(m.put("bad name", 1.0, "ms").is_err());
        assert!(m.put("nan_ms", f64::NAN, "ms").is_err());
    }

    #[test]
    fn every_declared_metric_name_is_valid() {
        for name in crate::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(crate::per_layer_names())
        {
            assert!(valid_name(&name), "{name}");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("req_per_s", 1234.5, "1/s").expect("valid");
        let line = result_line(true, 10, 0, &m);
        let v: Value = serde_json::from_str(&line).expect("json");
        assert_eq!(v["correct"], true);
        assert_eq!(v["attempted"], 10u64);
        assert_eq!(v["failed"], 0u64);
        assert_eq!(v["metrics"]["req_per_s"]["unit"], "1/s");
        assert_eq!(v["metrics"]["req_per_s"]["value"].as_f64(), Some(1234.5));
    }
}
