//! The process-wide metrics registry.
//!
//! Counters, gauges and [`Log2Histogram`]s keyed by dotted metric names
//! (`exec.par_map.items`, `trustd.event.pipeline_depth`). Metrics are
//! created on first touch; recording is an atomic op on an `Arc`'d cell,
//! with one short map-lock to resolve the name (allocating only on first
//! touch) — cheap at the stage granularity the pipeline records at.
//!
//! Metric *values* are free to be nondeterministic (latencies, memo hit
//! rates, pool widths). The dump format is not: [`Registry::dump_text`]
//! and [`Registry::dump_json`] emit metrics in sorted name order, so two
//! dumps with equal values render identically.

use crate::hist::Log2Histogram;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The metric store: three namespaces, all name-keyed.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    hists: Mutex<BTreeMap<String, Arc<Log2Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses
    /// [`registry`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter cell for `name`, created at zero on first touch.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        cell(&self.counters, name)
    }

    /// The gauge cell for `name`, created at zero on first touch.
    pub fn gauge(&self, name: &str) -> Arc<AtomicI64> {
        cell(&self.gauges, name)
    }

    /// The histogram for `name`, created empty on first touch.
    pub fn hist(&self, name: &str) -> Arc<Log2Histogram> {
        cell(&self.hists, name)
    }

    /// Add `n` to the counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.gauge(name).store(value, Ordering::Relaxed);
    }

    /// Add `delta` (possibly negative) to the gauge `name`.
    pub fn gauge_add(&self, name: &str, delta: i64) {
        self.gauge(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Record one sample into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.hist(name).record(value);
    }

    /// Stable text dump: one line per metric, sorted by kind then name.
    ///
    /// ```text
    /// counter exec.par_map.calls 12
    /// gauge   exec.pool.width 8
    /// hist    trustd.event.pipeline_depth count=40 p50=1 p99=8
    /// ```
    pub fn dump_text(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.lock().expect("registry poisoned").iter() {
            out.push_str(&format!(
                "counter {name} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }
        for (name, g) in self.gauges.lock().expect("registry poisoned").iter() {
            out.push_str(&format!("gauge   {name} {}\n", g.load(Ordering::Relaxed)));
        }
        for (name, h) in self.hists.lock().expect("registry poisoned").iter() {
            out.push_str(&format!(
                "hist    {name} count={} p50={} p99={}\n",
                h.count(),
                h.percentile(50),
                h.percentile(99)
            ));
        }
        out
    }

    /// JSON dump with the same sorted-name stability as
    /// [`Registry::dump_text`].
    pub fn dump_json(&self) -> Value {
        let counters: BTreeMap<String, Value> = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), Value::from(c.load(Ordering::Relaxed))))
            .collect();
        let gauges: BTreeMap<String, Value> = self
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), Value::from(g.load(Ordering::Relaxed))))
            .collect();
        let hists: BTreeMap<String, Value> = self
            .hists
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    json!({
                        "count": h.count(),
                        "p50": h.percentile(50),
                        "p99": h.percentile(99),
                    }),
                )
            })
            .collect();
        json!({
            "counters": counters,
            "gauges": gauges,
            "hists": hists,
        })
    }

    /// Drop every metric (tests only — metric names are created on first
    /// touch, so a reset registry repopulates itself).
    pub fn reset(&self) {
        self.counters.lock().expect("registry poisoned").clear();
        self.gauges.lock().expect("registry poisoned").clear();
        self.hists.lock().expect("registry poisoned").clear();
    }
}

/// The cell for `name` in one namespace. The name is looked up first and
/// copied only on first touch, so recording into an existing metric
/// allocates nothing.
fn cell<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().expect("registry poisoned");
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    Arc::clone(map.entry(name.to_owned()).or_default())
}

/// The process-wide registry every pipeline stage records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Add `n` to the process-wide counter `name`.
pub fn add(name: &str, n: u64) {
    registry().add(name, n);
}

/// Set the process-wide gauge `name`.
pub fn gauge_set(name: &str, value: i64) {
    registry().gauge_set(name, value);
}

/// Add `delta` to the process-wide gauge `name`.
pub fn gauge_add(name: &str, delta: i64) {
    registry().gauge_add(name, delta);
}

/// Record one sample into the process-wide histogram `name`.
pub fn observe(name: &str, value: u64) {
    registry().observe(name, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_accumulate() {
        let r = Registry::new();
        r.add("a.calls", 2);
        r.add("a.calls", 3);
        r.gauge_set("a.width", 8);
        r.gauge_add("a.width", -3);
        r.observe("a.us", 100);
        r.observe("a.us", 100_000);
        assert_eq!(r.counter("a.calls").load(Ordering::Relaxed), 5);
        assert_eq!(r.gauge("a.width").load(Ordering::Relaxed), 5);
        assert_eq!(r.hist("a.us").count(), 2);
    }

    #[test]
    fn a_name_resolves_to_one_cell() {
        let r = Registry::new();
        assert!(Arc::ptr_eq(&r.counter("c"), &r.counter("c")));
        assert!(Arc::ptr_eq(&r.gauge("g"), &r.gauge("g")));
        assert!(Arc::ptr_eq(&r.hist("h"), &r.hist("h")));
        assert!(!Arc::ptr_eq(&r.counter("c"), &r.counter("d")));
    }

    #[test]
    fn dump_text_is_sorted_and_stable() {
        let r = Registry::new();
        r.add("z.last", 1);
        r.add("a.first", 1);
        r.gauge_set("m.mid", -7);
        r.observe("h.us", 64);
        let dump = r.dump_text();
        let a = dump.find("counter a.first 1").expect("a.first present");
        let z = dump.find("counter z.last 1").expect("z.last present");
        assert!(a < z, "counters sorted by name:\n{dump}");
        assert!(dump.contains("gauge   m.mid -7"), "{dump}");
        assert!(dump.contains("hist    h.us count=1 p50=64 p99=64"), "{dump}");
        assert_eq!(dump, r.dump_text(), "dump is stable");
    }

    #[test]
    fn dump_json_mirrors_text() {
        let r = Registry::new();
        r.add("c", 9);
        r.gauge_set("g", 4);
        r.observe("h", 2);
        let v = r.dump_json();
        assert_eq!(v["counters"]["c"], 9u64);
        assert_eq!(v["gauges"]["g"], 4u64);
        assert_eq!(v["hists"]["h"]["count"], 1u64);
        assert_eq!(v["hists"]["h"]["p50"], 2u64);
        // Serialization round-trips (keys sorted via BTreeMap).
        let text = serde_json::to_string(&v).unwrap();
        assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), v);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.add("c", 1);
        r.reset();
        assert_eq!(r.dump_text(), "");
    }

    #[test]
    fn global_registry_is_shared() {
        add("obs.test.shared", 1);
        add("obs.test.shared", 1);
        assert!(
            registry()
                .counter("obs.test.shared")
                .load(Ordering::Relaxed)
                >= 2
        );
    }
}
