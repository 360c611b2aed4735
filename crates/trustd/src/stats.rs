//! Per-request-type service counters.
//!
//! One mutex-guarded ledger: requests served and errored per request
//! kind, memo-cache hits/misses, quarantined inputs in the PR-1
//! [`RunHealth`] vocabulary (stage → error label → count), and a
//! log₂-bucketed latency histogram per kind for p50/p99.
//!
//! Latency is wall-clock and therefore nondeterministic; everything else
//! is a pure function of the request sequence. The determinism tests
//! compare [`ServiceStats::counters_fingerprint`], which excludes the
//! histograms.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use tangled_core::health::RunHealth;
use tangled_obs::registry as metrics;

/// Log₂-bucketed latency histogram (microseconds) — the generalised
/// [`tangled_obs::Log2Histogram`], kept under its historical name here.
/// Bucket `i` covers `[2^i, 2^(i+1))` µs, bucket 0 also absorbs sub-µs
/// samples; 40 buckets reach ~12 days, far beyond any request.
pub use tangled_obs::Log2Histogram as LatencyHistogram;

#[derive(Default)]
struct StatsInner {
    served: BTreeMap<String, u64>,
    errors: BTreeMap<String, u64>,
    cache_hits: u64,
    cache_misses: u64,
    health: RunHealth,
    latency: BTreeMap<String, LatencyHistogram>,
    /// Snapshot sections (or profiles) quarantined during a degraded
    /// warm start: `(unit, label)`. Rendered canonically sorted, so the
    /// stats document is byte-reproducible regardless of the order the
    /// warm-start path discovered the damage in.
    degraded: Vec<(String, String)>,
}

/// Thread-safe service counters.
#[derive(Default)]
pub struct ServiceStats {
    inner: Mutex<StatsInner>,
}

impl ServiceStats {
    /// Fresh, all-zero counters.
    pub fn new() -> ServiceStats {
        ServiceStats::default()
    }

    /// Record one request of `kind`, its latency, and whether it resolved
    /// to an error response. Mirrored into the process-wide metrics
    /// registry (`trustd.requests.<kind>`, `trustd.request_us`) so a
    /// `--metrics-dump` covers the serving path too.
    pub fn record_request(&self, kind: &str, micros: u64, errored: bool) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        *inner.served.entry(kind.to_owned()).or_default() += 1;
        if errored {
            *inner.errors.entry(kind.to_owned()).or_default() += 1;
        }
        inner.latency.entry(kind.to_owned()).or_default().record(micros);
        drop(inner);
        metrics::add(&format!("trustd.requests.{kind}"), 1);
        metrics::observe("trustd.request_us", micros);
    }

    /// Record a memo-cache hit or miss.
    pub fn record_cache(&self, hit: bool) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        if hit {
            inner.cache_hits += 1;
        } else {
            inner.cache_misses += 1;
        }
        drop(inner);
        metrics::add(
            if hit {
                "trustd.cache.hits"
            } else {
                "trustd.cache.misses"
            },
            1,
        );
    }

    /// Record one quarantined input under `(stage, label)` — the PR-1
    /// graceful-degradation vocabulary.
    pub fn record_quarantined(&self, stage: &str, label: &str) {
        self.inner
            .lock()
            .expect("stats poisoned")
            .health
            .record_quarantined(stage, label);
        metrics::add("trustd.quarantined", 1);
    }

    /// Record one snapshot unit quarantined during a degraded warm start
    /// (`unit` is a section or profile name). Counted in the health
    /// ledger under the `warm` stage and listed verbatim in the stats
    /// document, so operators can see *which* sections a degraded server
    /// is running without.
    pub fn record_degraded(&self, unit: &str, label: &str) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        inner.health.record_quarantined("warm", label);
        inner.degraded.push((unit.to_owned(), label.to_owned()));
        drop(inner);
        metrics::add("trustd.warm.degraded", 1);
    }

    /// Total requests served (all kinds).
    pub fn served_total(&self) -> u64 {
        self.inner
            .lock()
            .expect("stats poisoned")
            .served
            .values()
            .sum()
    }

    /// Memo-cache (hits, misses).
    pub fn cache_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("stats poisoned");
        (inner.cache_hits, inner.cache_misses)
    }

    /// Total quarantined inputs.
    pub fn quarantined_total(&self) -> u32 {
        self.inner
            .lock()
            .expect("stats poisoned")
            .health
            .quarantined_total()
    }

    /// A deterministic digest of every counter *except* latency (which is
    /// wall-clock): same request sequence → same fingerprint.
    pub fn counters_fingerprint(&self) -> String {
        let inner = self.inner.lock().expect("stats poisoned");
        let mut out = String::new();
        for (kind, n) in &inner.served {
            out.push_str(&format!("served:{kind}={n};"));
        }
        for (kind, n) in &inner.errors {
            out.push_str(&format!("errors:{kind}={n};"));
        }
        out.push_str(&format!(
            "cache={}/{};",
            inner.cache_hits, inner.cache_misses
        ));
        for (stage, errors) in &inner.health.quarantined {
            for (label, n) in errors {
                out.push_str(&format!("quarantined:{stage}/{label}={n};"));
            }
        }
        out
    }

    /// The full stats document served on a `stats` request.
    pub fn to_json(&self) -> Value {
        let inner = self.inner.lock().expect("stats poisoned");
        // Canonical `(unit, label)` order: the warm-start path may
        // discover damage in any order (parallel verifier builds,
        // section-table order), but two servers degraded the same way
        // must serve byte-identical stats documents.
        let mut degraded = inner.degraded.clone();
        degraded.sort();
        degraded.dedup();
        let latency: BTreeMap<String, Value> = inner
            .latency
            .iter()
            .map(|(kind, h)| {
                (
                    kind.clone(),
                    json!({
                        "count": h.count(),
                        "p50_us": h.percentile(50),
                        "p99_us": h.percentile(99),
                    }),
                )
            })
            .collect();
        json!({
            "served": inner.served.clone(),
            "errors": inner.errors.clone(),
            "cache": {
                "hits": inner.cache_hits,
                "misses": inner.cache_misses,
            },
            "health": inner.health.to_json(),
            "latency_us": latency,
            "warm": {
                "degraded": !inner.degraded.is_empty(),
                "quarantined": degraded
                    .iter()
                    .map(|(unit, label)| json!({
                        "section": unit.as_str(),
                        "error": label.as_str(),
                    }))
                    .collect::<Vec<_>>(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile(50), 0, "empty histogram");
        // 99 fast samples (~4 µs), one slow (~4096 µs).
        for _ in 0..99 {
            h.record(4);
        }
        h.record(4096);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50), 4);
        assert_eq!(h.percentile(99), 4);
        assert_eq!(h.percentile(100), 4096);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(100), 1u64 << 39);
    }

    #[test]
    fn counters_accumulate_and_fingerprint_excludes_latency() {
        let mk = |latency: u64| {
            let s = ServiceStats::new();
            s.record_request("validate", latency, false);
            s.record_request("validate", latency * 2, false);
            s.record_request("audit", latency, true);
            s.record_cache(true);
            s.record_cache(false);
            s.record_quarantined("wire", "bad-json");
            s
        };
        let a = mk(5);
        let b = mk(5000);
        assert_eq!(a.counters_fingerprint(), b.counters_fingerprint());
        assert_eq!(a.served_total(), 3);
        assert_eq!(a.cache_counts(), (1, 1));
        assert_eq!(a.quarantined_total(), 1);
        let fp = a.counters_fingerprint();
        assert!(fp.contains("served:validate=2;"), "{fp}");
        assert!(fp.contains("errors:audit=1;"), "{fp}");
        assert!(fp.contains("quarantined:wire/bad-json=1;"), "{fp}");
    }

    #[test]
    fn json_document_shape() {
        let s = ServiceStats::new();
        s.record_request("probe", 12, false);
        s.record_cache(true);
        s.record_quarantined("cacerts", "malformed-der");
        let v = s.to_json();
        assert_eq!(v["served"]["probe"], 1u64);
        assert_eq!(v["cache"]["hits"], 1u64);
        assert_eq!(v["health"]["quarantined"]["cacerts"]["malformed-der"], 1u32);
        assert_eq!(v["latency_us"]["probe"]["count"], 1u64);
        assert!(v["latency_us"]["probe"]["p99_us"].as_u64().is_some());
        assert_eq!(v["warm"]["degraded"], false);
    }

    #[test]
    fn degraded_warm_start_is_surfaced() {
        let s = ServiceStats::new();
        s.record_degraded("ecosystem", "checksum-mismatch");
        let v = s.to_json();
        assert_eq!(v["warm"]["degraded"], true);
        assert_eq!(v["warm"]["quarantined"][0]["section"], "ecosystem");
        assert_eq!(v["warm"]["quarantined"][0]["error"], "checksum-mismatch");
        assert_eq!(v["health"]["quarantined"]["warm"]["checksum-mismatch"], 1u32);
        let fp = s.counters_fingerprint();
        assert!(fp.contains("quarantined:warm/checksum-mismatch=1;"), "{fp}");
    }

    #[test]
    fn degraded_list_renders_canonically_sorted() {
        // Two services that quarantined the same units in different
        // orders must serve byte-identical stats documents.
        let a = ServiceStats::new();
        a.record_degraded("population", "checksum-mismatch");
        a.record_degraded("eco-stores", "missing-section");
        a.record_degraded("AOSP 4.2", "missing-profile");
        let b = ServiceStats::new();
        b.record_degraded("AOSP 4.2", "missing-profile");
        b.record_degraded("population", "checksum-mismatch");
        b.record_degraded("eco-stores", "missing-section");
        let (ja, jb) = (a.to_json(), b.to_json());
        assert_eq!(
            serde_json::to_string(&ja["warm"]).unwrap(),
            serde_json::to_string(&jb["warm"]).unwrap()
        );
        assert_eq!(ja["warm"]["quarantined"][0]["section"], "AOSP 4.2");
        assert_eq!(ja["warm"]["quarantined"][1]["section"], "eco-stores");
        assert_eq!(ja["warm"]["quarantined"][2]["section"], "population");
    }
}
