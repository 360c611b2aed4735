//! Validation counting: which roots validate which Notary certificates.
//!
//! This is the machinery behind Table 3 ("number of certificates validated
//! by Mozilla and AOSP root stores"), Table 4 (dead-root fractions) and
//! Figure 3 (per-root validation counts). Every chain is validated by the
//! real [`tangled_x509::chain::ChainVerifier`] against the universe of
//! known roots; the per-root tallies are then cheap set lookups per store.

use crate::ecosystem::{study_time, Ecosystem, NotaryCert};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tangled_exec::{fixed_shard_count, shard_range, ExecPool};
use tangled_pki::store::RootStore;
use tangled_x509::{CertIdentity, ChainOptions, ChainVerifier};

/// Per-root validation tallies over the Notary population.
pub struct ValidationIndex {
    per_root: HashMap<CertIdentity, u32>,
    per_root_sessions: HashMap<CertIdentity, u64>,
    validated_total: u32,
    total_non_expired: u32,
    total: u32,
    total_sessions: u64,
}

impl ValidationIndex {
    /// Validate every non-expired Notary certificate against the universe
    /// of roots and tally by anchoring root identity.
    ///
    /// The population is cut into a fixed number of contiguous shards
    /// (independent of thread count) and the shards are validated on the
    /// ambient [`ExecPool`]. Every leaf runs full path construction; the
    /// one cache underneath is the process-wide signature memo
    /// ([`tangled_x509::sigmemo`]), whose verdicts are pure functions of
    /// their key, so its fill order is unobservable. Tallies merge in
    /// shard order and the index is bit-identical at any thread count.
    pub fn build(eco: &Ecosystem) -> ValidationIndex {
        Self::build_with_pool(eco, &ExecPool::current())
    }

    /// As [`ValidationIndex::build`] but on an explicit pool — the
    /// determinism tests pin widths without touching process-global state.
    ///
    /// Per-shard latencies go to the registry histogram
    /// `notary.validate.shard_us` (`tangled stats` prints its p50/p99);
    /// the timings are observational and do not influence the index.
    pub fn build_with_pool(eco: &Ecosystem, pool: &ExecPool) -> ValidationIndex {
        // Shard boundaries depend on the cert count alone, so the span and
        // its per-shard point events are width-invariant; only the timings
        // (registry histograms) vary run to run.
        let span = tangled_obs::trace::span_start(
            "notary.validate",
            eco.certs.len() as u64,
            0,
            &[("certs", serde_json::Value::from(eco.certs.len() as u64))],
        );
        let started = Instant::now();
        let mut verifier = ChainVerifier::new();
        for root in &eco.universe_roots {
            verifier.add_anchor(Arc::clone(root));
        }
        for inter in &eco.intermediates {
            verifier.add_intermediate(Arc::clone(inter));
        }
        let verifier = verifier;
        let opts = ChainOptions::at(study_time());

        let shards = fixed_shard_count(eco.certs.len());
        let ranges: Vec<_> = (0..shards)
            .map(|s| shard_range(eco.certs.len(), shards, s))
            .collect();
        let tallies = pool.par_map_indexed(&ranges, |_, range| {
            tally_shard(&eco.certs[range.clone()], &verifier, opts)
        });

        // Merge in ascending shard order. Every field is an order-
        // insensitive sum over disjoint certificate ranges, so the result
        // is bit-identical to the single-pass sequential tally.
        let mut per_root: HashMap<CertIdentity, u32> = HashMap::new();
        let mut per_root_sessions: HashMap<CertIdentity, u64> = HashMap::new();
        let mut validated_total = 0u32;
        let mut total_non_expired = 0u32;
        let mut total_sessions = 0u64;
        for (s, t) in tallies.into_iter().enumerate() {
            for (id, n) in t.per_root {
                *per_root.entry(id).or_default() += n;
            }
            for (id, n) in t.per_root_sessions {
                *per_root_sessions.entry(id).or_default() += n;
            }
            validated_total += t.validated_total;
            total_non_expired += t.total_non_expired;
            total_sessions += t.total_sessions;
            // Emitted from the index-ordered merge, never from the shard
            // closure: per-shard counts are width-invariant, per-shard
            // latency is not — the latter goes to the registry only.
            tangled_obs::trace::point(
                "notary.validate",
                span,
                &[
                    ("shard", serde_json::Value::from(s as u64)),
                    ("validated", serde_json::Value::from(t.validated_total)),
                ],
            );
            tangled_obs::registry::observe("notary.validate.shard_us", t.micros);
        }

        let index = ValidationIndex {
            per_root,
            per_root_sessions,
            validated_total,
            total_non_expired,
            total: eco.certs.len() as u32,
            total_sessions,
        };
        tangled_obs::registry::add("notary.validate.runs", 1);
        tangled_obs::registry::observe(
            "notary.validate.us",
            started.elapsed().as_micros() as u64,
        );
        tangled_obs::trace::span_end(
            "notary.validate",
            span,
            &[
                ("validated", serde_json::Value::from(index.validated_total)),
                (
                    "non_expired",
                    serde_json::Value::from(index.total_non_expired),
                ),
            ],
        );
        index
    }

    /// Certificates a single root (by identity) validates.
    pub fn root_count(&self, id: &CertIdentity) -> u32 {
        self.per_root.get(id).copied().unwrap_or(0)
    }

    /// SSL session volume anchored by a single root (traffic-weighted
    /// counterpart of [`ValidationIndex::root_count`] — the Notary's
    /// 66-billion-session view, scaled).
    pub fn root_sessions(&self, id: &CertIdentity) -> u64 {
        self.per_root_sessions.get(id).copied().unwrap_or(0)
    }

    /// Total session volume over the non-expired population.
    pub fn total_sessions(&self) -> u64 {
        self.total_sessions
    }

    /// Certificates validated by *some* root of the given store
    /// (each certificate counted once — Table 3's metric). Only anchors
    /// that are enabled *and* trusted for TLS server verification count,
    /// so both Android's disable switch and Mozilla-style trust scoping
    /// affect the result.
    pub fn store_count(&self, store: &RootStore) -> u32 {
        store
            .iter_enabled()
            .filter(|a| a.trusts_tls())
            .map(|a| self.root_count(&a.identity()))
            .sum()
    }

    /// Validation counts for an arbitrary set of root identities.
    pub fn counts_for<'a>(
        &self,
        ids: impl IntoIterator<Item = &'a CertIdentity>,
    ) -> Vec<u32> {
        ids.into_iter().map(|id| self.root_count(id)).collect()
    }

    /// Fraction of the given roots that validate zero certificates
    /// (Table 4's right-hand column).
    pub fn dead_fraction<'a>(
        &self,
        ids: impl IntoIterator<Item = &'a CertIdentity>,
    ) -> f64 {
        let counts = self.counts_for(ids);
        if counts.is_empty() {
            return 0.0;
        }
        counts.iter().filter(|&&c| c == 0).count() as f64 / counts.len() as f64
    }

    /// Certificates validated by at least one universe root.
    pub fn validated_total(&self) -> u32 {
        self.validated_total
    }

    /// Non-expired certificates considered.
    pub fn total_non_expired(&self) -> u32 {
        self.total_non_expired
    }

    /// All certificates in the ecosystem (expired included).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The raw per-root validation tallies (Figure 3's data).
    pub fn per_root(&self) -> &HashMap<CertIdentity, u32> {
        &self.per_root
    }

    /// The raw per-root session-volume tallies.
    pub fn per_root_sessions(&self) -> &HashMap<CertIdentity, u64> {
        &self.per_root_sessions
    }

    /// Reassemble an index from persisted tallies — the inverse of the
    /// accessors above, used by the snapshot reader so a warm start never
    /// re-validates the ecosystem.
    pub fn from_parts(
        per_root: HashMap<CertIdentity, u32>,
        per_root_sessions: HashMap<CertIdentity, u64>,
        validated_total: u32,
        total_non_expired: u32,
        total: u32,
        total_sessions: u64,
    ) -> ValidationIndex {
        ValidationIndex {
            per_root,
            per_root_sessions,
            validated_total,
            total_non_expired,
            total,
            total_sessions,
        }
    }
}

/// Partial tallies over one contiguous shard of the population.
#[derive(Default)]
struct ShardTally {
    per_root: HashMap<CertIdentity, u32>,
    per_root_sessions: HashMap<CertIdentity, u64>,
    validated_total: u32,
    total_non_expired: u32,
    total_sessions: u64,
    micros: u64,
}

fn tally_shard(certs: &[NotaryCert], verifier: &ChainVerifier, opts: ChainOptions) -> ShardTally {
    let started = Instant::now();
    let mut tally = ShardTally::default();
    for cert in certs {
        let leaf = cert.leaf();
        if !leaf.is_valid_at(study_time()) {
            continue;
        }
        tally.total_non_expired += 1;
        tally.total_sessions += cert.sessions;

        if let Ok(chain) = verifier.verify(leaf, opts) {
            let anchor_id = chain.anchor().identity();
            *tally.per_root.entry(anchor_id.clone()).or_default() += 1;
            *tally.per_root_sessions.entry(anchor_id).or_default() += cert.sessions;
            tally.validated_total += 1;
        }
    }
    tally.micros = started.elapsed().as_micros() as u64;
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::EcosystemSpec;
    use tangled_pki::stores::ReferenceStore;

    fn index() -> (Ecosystem, ValidationIndex) {
        // Scale 0.25 is the smallest at which per-entry rounding keeps the
        // calibrated Table 3 deltas strict (see issuance_plan docs).
        let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.25));
        let idx = ValidationIndex::build(&eco);
        (eco, idx)
    }

    #[test]
    fn table3_ordering_holds() {
        let (_eco, idx) = index();
        let count = |rs: ReferenceStore| idx.store_count(&rs.cached());
        let mozilla = count(ReferenceStore::Mozilla);
        let a41 = count(ReferenceStore::Aosp41);
        let a42 = count(ReferenceStore::Aosp42);
        let a43 = count(ReferenceStore::Aosp43);
        let a44 = count(ReferenceStore::Aosp44);
        let ios = count(ReferenceStore::Ios7);
        // Paper Table 3: Mozilla 744,069 < AOSP 4.1 = 4.2 = 744,350
        // ≤ 4.3 = 744,384 ≤ 4.4 = 744,398 < iOS7 745,736.
        assert!(mozilla < a41, "Mozilla {mozilla} < AOSP4.1 {a41}");
        assert_eq!(a41, a42, "AOSP 4.1 and 4.2 validate identically");
        assert!(a42 < a43);
        assert!(a43 < a44);
        assert!(a44 < ios, "AOSP4.4 {a44} < iOS7 {ios}");
        // Near-equality: total spread below 5 %.
        let spread = (ios - mozilla) as f64 / mozilla as f64;
        assert!(spread < 0.05, "spread {spread:.3}");
    }

    #[test]
    fn coverage_near_three_quarters() {
        let (_eco, idx) = index();
        let frac = idx.validated_total() as f64 / idx.total_non_expired() as f64;
        // Paper: ~744k of ~1M non-expired ≈ 74 %.
        assert!((0.6..0.9).contains(&frac), "coverage {frac:.3}");
    }

    #[test]
    fn sharded_build_is_width_invariant() {
        let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.02));
        let base = ValidationIndex::build_with_pool(&eco, &ExecPool::with_threads(1));
        for width in [2, 3, 8] {
            let idx = ValidationIndex::build_with_pool(&eco, &ExecPool::with_threads(width));
            assert_eq!(idx.validated_total(), base.validated_total(), "width {width}");
            assert_eq!(idx.total_non_expired(), base.total_non_expired());
            assert_eq!(idx.total_sessions(), base.total_sessions());
            for rs in ReferenceStore::ALL {
                let store = rs.cached();
                assert_eq!(idx.store_count(&store), base.store_count(&store));
            }
            assert_eq!(idx.per_root(), base.per_root(), "width {width}");
            assert_eq!(idx.per_root_sessions(), base.per_root_sessions());
        }
    }

    #[test]
    fn dead_fractions_match_table4_shape() {
        let (_eco, idx) = index();
        let dead = |rs: ReferenceStore| {
            let store = rs.cached();
            idx.dead_fraction(store.identities().iter())
        };
        let aosp44 = dead(ReferenceStore::Aosp44);
        let mozilla = dead(ReferenceStore::Mozilla);
        let ios = dead(ReferenceStore::Ios7);
        // Paper Table 4: AOSP 4.4 → 23 %, Mozilla → 22 %, iOS 7 → 41 %.
        assert!((0.15..0.30).contains(&aosp44), "AOSP4.4 dead {aosp44:.3}");
        assert!((0.15..0.30).contains(&mozilla), "Mozilla dead {mozilla:.3}");
        assert!((0.32..0.50).contains(&ios), "iOS7 dead {ios:.3}");
        assert!(ios > aosp44, "iOS7 carries more dead weight");
    }

    #[test]
    fn disabled_anchor_stops_counting() {
        let (_eco, idx) = index();
        let store = ReferenceStore::Aosp44.cached();
        let mut modified = store.cloned_as("disabled-top");
        // Disable the busiest root; the store count must drop by its tally.
        let busiest = modified
            .identities()
            .iter()
            .max_by_key(|id| idx.root_count(id))
            .cloned()
            .unwrap();
        let full = idx.store_count(&modified);
        modified.disable(&busiest);
        let reduced = idx.store_count(&modified);
        assert_eq!(full - reduced, idx.root_count(&busiest));
        assert!(idx.root_count(&busiest) > 0);
    }

    #[test]
    fn empty_store_validates_nothing() {
        let (_eco, idx) = index();
        let empty = RootStore::new("empty");
        assert_eq!(idx.store_count(&empty), 0);
        assert_eq!(idx.dead_fraction(empty.identities().iter()), 0.0);
    }
}
