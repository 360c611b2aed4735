//! Per-request-type service counters.
//!
//! One mutex-guarded ledger: requests served and errored per request
//! kind, quarantined inputs in the PR-1 [`RunHealth`] vocabulary (stage →
//! error label → count), and a log₂-bucketed latency histogram per kind
//! for p50/p99. Kinds are [`crate::wire::Request::kind`]'s static names,
//! so recording a request allocates nothing.
//!
//! The verdict memo keeps its own hit/miss counters; the service hands
//! them in when it renders the ledger, so the memo's counters are the
//! only cache counters. Nothing here is mirrored into the process-wide
//! metrics registry: the `stats` reply is where each of these counters
//! lives.
//!
//! Latency is wall-clock and therefore nondeterministic; everything else
//! is a pure function of the request sequence. The determinism tests
//! compare [`ServiceStats::counters_fingerprint`], which excludes the
//! histograms.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use tangled_core::health::RunHealth;
use tangled_obs::Log2Histogram;

#[derive(Default)]
struct StatsInner {
    served: BTreeMap<&'static str, u64>,
    errors: BTreeMap<&'static str, u64>,
    health: RunHealth,
    /// Per-kind latency in µs: bucket `i` covers `[2^i, 2^(i+1))`,
    /// bucket 0 also absorbs sub-µs samples.
    latency: BTreeMap<&'static str, Log2Histogram>,
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

    fn inner(&self) -> MutexGuard<'_, StatsInner> {
        self.inner.lock().expect("stats poisoned")
    }

    /// Record one request of `kind`, its latency, and whether it resolved
    /// to an error response.
    pub fn record_request(&self, kind: &'static str, micros: u64, errored: bool) {
        let mut inner = self.inner();
        *inner.served.entry(kind).or_default() += 1;
        if errored {
            *inner.errors.entry(kind).or_default() += 1;
        }
        inner.latency.entry(kind).or_default().record(micros);
    }

    /// Record one quarantined input under `(stage, label)` — the PR-1
    /// graceful-degradation vocabulary.
    pub fn record_quarantined(&self, stage: &str, label: &str) {
        self.inner().health.record_quarantined(stage, label);
    }

    /// Record one snapshot unit quarantined during a degraded warm start
    /// (`unit` is a section or profile name). Counted in the health
    /// ledger under the `warm` stage and listed verbatim in the stats
    /// document, so operators can see *which* sections a degraded server
    /// is running without.
    pub fn record_degraded(&self, unit: &str, label: &str) {
        let mut inner = self.inner();
        inner.health.record_quarantined("warm", label);
        inner.degraded.push((unit.to_owned(), label.to_owned()));
    }

    /// Total requests served (all kinds).
    pub fn served_total(&self) -> u64 {
        self.inner().served.values().sum()
    }

    /// Total quarantined inputs.
    pub fn quarantined_total(&self) -> u32 {
        self.inner().health.quarantined_total()
    }

    /// A deterministic digest of every counter *except* latency (which is
    /// wall-clock), with the memo's `(hits, misses)` as `cache`: same
    /// request sequence → same fingerprint.
    pub fn counters_fingerprint(&self, cache: (u64, u64)) -> String {
        let inner = self.inner();
        let mut out = String::new();
        for (kind, n) in &inner.served {
            out.push_str(&format!("served:{kind}={n};"));
        }
        for (kind, n) in &inner.errors {
            out.push_str(&format!("errors:{kind}={n};"));
        }
        out.push_str(&format!("cache={}/{};", cache.0, cache.1));
        for (stage, errors) in &inner.health.quarantined {
            for (label, n) in errors {
                out.push_str(&format!("quarantined:{stage}/{label}={n};"));
            }
        }
        out
    }

    /// The counter ledger of the stats document served on a `stats`
    /// request, with the memo's `(hits, misses)` as `cache`.
    pub fn to_json(&self, cache: (u64, u64)) -> Value {
        let inner = self.inner();
        // Canonical `(unit, label)` order: the warm-start path may
        // discover damage in any order (parallel verifier builds,
        // section-table order), but two servers degraded the same way
        // must serve byte-identical stats documents.
        let mut degraded = inner.degraded.clone();
        degraded.sort();
        degraded.dedup();
        let per_kind = |map: &BTreeMap<&str, u64>| -> Value {
            Value::Object(map.iter().map(|(k, n)| (k.to_string(), Value::from(*n))).collect())
        };
        let latency: BTreeMap<String, Value> = inner
            .latency
            .iter()
            .map(|(kind, h)| {
                (
                    kind.to_string(),
                    json!({
                        "count": h.count(),
                        "p50_us": h.percentile(50),
                        "p99_us": h.percentile(99),
                    }),
                )
            })
            .collect();
        json!({
            "served": per_kind(&inner.served),
            "errors": per_kind(&inner.errors),
            "cache": {
                "hits": cache.0,
                "misses": cache.1,
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
        let h = Log2Histogram::default();
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
        let h = Log2Histogram::default();
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
            s.record_quarantined("wire", "bad-json");
            s
        };
        let a = mk(5);
        let b = mk(5000);
        assert_eq!(a.counters_fingerprint((1, 1)), b.counters_fingerprint((1, 1)));
        assert_eq!(a.served_total(), 3);
        assert_eq!(a.quarantined_total(), 1);
        let fp = a.counters_fingerprint((1, 1));
        assert!(fp.contains("cache=1/1;"), "{fp}");
        assert!(fp.contains("served:validate=2;"), "{fp}");
        assert!(fp.contains("errors:audit=1;"), "{fp}");
        assert!(fp.contains("quarantined:wire/bad-json=1;"), "{fp}");
    }

    #[test]
    fn json_document_shape() {
        let s = ServiceStats::new();
        s.record_request("probe", 12, false);
        s.record_quarantined("cacerts", "malformed-der");
        let v = s.to_json((1, 0));
        assert_eq!(v["served"]["probe"], 1u64);
        assert_eq!(v["cache"]["hits"], 1u64);
        assert_eq!(v["cache"]["misses"], 0u64);
        assert_eq!(v["health"]["quarantined"]["cacerts"]["malformed-der"], 1u32);
        assert_eq!(v["latency_us"]["probe"]["count"], 1u64);
        assert!(v["latency_us"]["probe"]["p99_us"].as_u64().is_some());
        assert_eq!(v["warm"]["degraded"], false);
    }

    #[test]
    fn degraded_warm_start_is_surfaced() {
        let s = ServiceStats::new();
        s.record_degraded("ecosystem", "checksum-mismatch");
        let v = s.to_json((0, 0));
        assert_eq!(v["warm"]["degraded"], true);
        assert_eq!(v["warm"]["quarantined"][0]["section"], "ecosystem");
        assert_eq!(v["warm"]["quarantined"][0]["error"], "checksum-mismatch");
        assert_eq!(v["health"]["quarantined"]["warm"]["checksum-mismatch"], 1u32);
        let fp = s.counters_fingerprint((0, 0));
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
        let (ja, jb) = (a.to_json((0, 0)), b.to_json((0, 0)));
        assert_eq!(
            serde_json::to_string(&ja["warm"]).unwrap(),
            serde_json::to_string(&jb["warm"]).unwrap()
        );
        assert_eq!(ja["warm"]["quarantined"][0]["section"], "AOSP 4.2");
        assert_eq!(ja["warm"]["quarantined"][1]["section"], "eco-stores");
        assert_eq!(ja["warm"]["quarantined"][2]["section"], "population");
    }
}
