//! The sharded in-memory store index behind the service.
//!
//! Two structures share one epoch counter:
//!
//! * **Profiles** — named, immutable [`RootStore`] snapshots, each paired
//!   with its preloaded anchor set ([`RootStore::verifier`]) so validation
//!   borrows it per request and never rebuilds or clones it. A profile
//!   swap replaces the whole [`StoreProfile`] atomically under a fresh
//!   epoch; in-flight requests keep their `Arc` to the old profile.
//! * **Membership shards** — `CertIdentity → profile names`, spread over
//!   N shards by identity hash so concurrent `classify` lookups touch
//!   independent locks.
//!
//! Every install takes an epoch no install has had before, so an epoch
//! names one profile version. Cache entries are keyed by `(epoch, chain)`;
//! since a swap changes the epoch, stale verdicts die by *key mismatch* —
//! no scan, no invalidation pass.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use tangled_pki::store::RootStore;
use tangled_pki::stores::{global_factory, standard_key_names, EcosystemStore, ReferenceStore};
use tangled_x509::{CertIdentity, ChainVerifier};

/// Default shard count: enough to spread a handful of worker threads,
/// cheap enough to scan for membership teardown on swap.
pub const DEFAULT_SHARDS: usize = 16;

/// Generate every key the standard stores and the Figure 2 catalogue
/// need in parallel on the ambient [`tangled_exec::ExecPool`], so the
/// store builds (and `class_index`) that follow only sign. Keys are pure
/// in (seed, name): the minted bytes do not depend on this step.
fn prefetch_standard_keys() {
    global_factory()
        .lock()
        .expect("factory poisoned")
        .prefetch(&standard_key_names());
}

/// One installed store profile. Immutable once published.
#[derive(Clone)]
pub struct StoreProfile {
    /// The profile's name (index key).
    pub name: String,
    /// The underlying store.
    pub store: Arc<RootStore>,
    /// The store's enabled anchors ([`RootStore::verifier`]), built once
    /// at install; requests pass their presented chain per call.
    pub anchors: Arc<ChainVerifier>,
    /// The epoch at which this profile was installed — unique to this
    /// install across every profile of the index.
    pub epoch: u64,
}

/// The sharded profile/membership index.
pub struct StoreIndex {
    shards: Vec<RwLock<HashMap<CertIdentity, Vec<String>>>>,
    profiles: RwLock<HashMap<String, StoreProfile>>,
    epoch: AtomicU64,
}

impl StoreIndex {
    /// An empty index with `shards` membership shards (minimum 1).
    pub fn new(shards: usize) -> StoreIndex {
        let shards = shards.max(1);
        StoreIndex {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            profiles: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// An index preloaded with all six reference stores (the four AOSP
    /// releases, Mozilla, iOS 7), each under its canonical name.
    ///
    /// Every standard key is first generated in parallel (see
    /// `prefetch_standard_keys`); the stores then install in
    /// [`ReferenceStore::ALL`] order, so profile epochs are identical at
    /// any thread count.
    pub fn with_reference_profiles() -> StoreIndex {
        prefetch_standard_keys();
        Self::preloaded(
            ReferenceStore::ALL
                .into_iter()
                .map(|rs| (rs.name(), rs.cached()))
                .collect(),
        )
    }

    /// An index preloaded with all ten standard profiles: the six
    /// reference stores (epochs 1–6, [`ReferenceStore::ALL`] order)
    /// followed by the four ecosystem families (epochs 7–10,
    /// [`EcosystemStore::ALL`] order) — the store set the disparity
    /// engine compares and the `compare` wire op answers for. Keys are
    /// prefetched as for [`StoreIndex::with_reference_profiles`].
    pub fn with_standard_profiles() -> StoreIndex {
        prefetch_standard_keys();
        Self::preloaded(
            ReferenceStore::ALL
                .into_iter()
                .map(|rs| (rs.name(), rs.cached()))
                .chain(
                    EcosystemStore::ALL
                        .into_iter()
                        .map(|es| (es.name(), es.cached())),
                )
                .collect(),
        )
    }

    /// Shared preload path: install in list order, so epochs run 1, 2, …
    /// in that order. An anchor set is a few hundred hash inserts, so the
    /// installs are serial.
    pub(crate) fn preloaded(stores: Vec<(&'static str, Arc<RootStore>)>) -> StoreIndex {
        let index = StoreIndex::new(DEFAULT_SHARDS);
        for (name, store) in stores {
            index.install(name, store);
        }
        index
    }

    /// Install (or replace) a profile under the next epoch. Returns the
    /// installed profile.
    pub fn install(&self, name: &str, store: Arc<RootStore>) -> StoreProfile {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.publish(name, store, epoch)
    }

    /// Install a profile *at* a recorded epoch, as checkpoint warm start
    /// requires: folded swap records must land at the epochs the journal
    /// originally produced so the post-restart epoch sequence is
    /// indistinguishable from a full replay. `epoch` must be ahead of
    /// the current counter (epochs only move forward, so no two installs
    /// share one); the counter is advanced to `epoch` by the install.
    /// Refused with the current epoch otherwise.
    pub fn install_at_epoch(
        &self,
        name: &str,
        store: Arc<RootStore>,
        epoch: u64,
    ) -> Result<StoreProfile, u64> {
        self.epoch
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
                (epoch > current).then_some(epoch)
            })?;
        Ok(self.publish(name, store, epoch))
    }

    /// Publish `store` under `name` at an epoch the caller has claimed.
    fn publish(&self, name: &str, store: Arc<RootStore>, epoch: u64) -> StoreProfile {
        let profile = StoreProfile {
            name: name.to_owned(),
            anchors: Arc::new(store.verifier()),
            store: Arc::clone(&store),
            epoch,
        };

        // Membership: drop the old profile's identities, add the new.
        for shard in &self.shards {
            let mut members = shard.write().expect("shard poisoned");
            members.retain(|_, names| {
                names.retain(|n| n != name);
                !names.is_empty()
            });
        }
        for id in store.identities() {
            let mut members = self.shard_for(id).write().expect("shard poisoned");
            let names = members.entry(id.clone()).or_default();
            if !names.iter().any(|n| n == name) {
                names.push(name.to_owned());
            }
        }

        self.profiles
            .write()
            .expect("profiles poisoned")
            .insert(name.to_owned(), profile.clone());
        profile
    }

    /// Look up a profile by name.
    pub fn profile(&self, name: &str) -> Option<StoreProfile> {
        self.profiles
            .read()
            .expect("profiles poisoned")
            .get(name)
            .cloned()
    }

    /// Installed profile names, sorted.
    pub fn profile_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .profiles
            .read()
            .expect("profiles poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Profiles whose store contains `id`, sorted.
    pub fn member_of(&self, id: &CertIdentity) -> Vec<String> {
        let members = self.shard_for(id).read().expect("shard poisoned");
        let mut names = members.get(id).cloned().unwrap_or_default();
        names.sort();
        names
    }

    /// The current global epoch (0 = nothing ever installed).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn shard_for(&self, id: &CertIdentity) -> &RwLock<HashMap<CertIdentity, Vec<String>>> {
        let mut hasher = DefaultHasher::new();
        id.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_profiles_resolve_by_canonical_name() {
        let index = StoreIndex::with_reference_profiles();
        assert_eq!(
            index.profile_names(),
            vec![
                "AOSP 4.1",
                "AOSP 4.2",
                "AOSP 4.3",
                "AOSP 4.4",
                "Mozilla",
                "iOS 7"
            ]
        );
        let p = index.profile("AOSP 4.4").expect("installed");
        assert_eq!(p.store.len(), 150);
        assert_eq!(p.anchors.anchor_count(), p.store.iter_enabled().count());
        assert!(index.profile("AOSP 9.0").is_none());
    }

    #[test]
    fn standard_profiles_cover_all_ten_stores_in_epoch_order() {
        let index = StoreIndex::with_standard_profiles();
        assert_eq!(index.current_epoch(), 10);
        // Epochs follow the canonical order: reference stores 1–6, then
        // the ecosystem families 7–10.
        for (i, name) in tangled_pki::stores::standard_store_names()
            .into_iter()
            .enumerate()
        {
            let p = index.profile(name).expect("installed");
            assert_eq!(p.epoch, i as u64 + 1, "{name}");
        }
        assert_eq!(index.profile("Microsoft").unwrap().store.len(), 261);
    }

    #[test]
    fn membership_spans_profiles() {
        let index = StoreIndex::with_reference_profiles();
        // Every 4.1 anchor also ships in 4.2 (the stores validate
        // identically per Table 3), so membership includes both.
        let store = ReferenceStore::Aosp41.cached();
        let id = &store.identities()[0];
        let members = index.member_of(id);
        assert!(members.contains(&"AOSP 4.1".to_owned()), "{members:?}");
        assert!(members.contains(&"AOSP 4.2".to_owned()), "{members:?}");
        // Sorted output.
        let mut sorted = members.clone();
        sorted.sort();
        assert_eq!(members, sorted);
    }

    #[test]
    fn install_bumps_epoch_and_replaces_membership() {
        let index = StoreIndex::new(4);
        assert_eq!(index.current_epoch(), 0);
        let full = ReferenceStore::Aosp44.cached();
        let p1 = index.install("device", Arc::clone(&full));
        assert_eq!(p1.epoch, 1);
        let id = full.identities()[0].clone();
        assert_eq!(index.member_of(&id), vec!["device".to_owned()]);

        // Swap in a store without that anchor: membership must follow.
        let mut trimmed = full.cloned_as("trimmed");
        trimmed.remove(&id);
        let p2 = index.install("device", Arc::new(trimmed));
        assert_eq!(p2.epoch, 2);
        assert_eq!(index.current_epoch(), 2);
        assert!(index.member_of(&id).is_empty());
        // Other anchors still resolve.
        let other = full.identities()[1].clone();
        assert_eq!(index.member_of(&other), vec!["device".to_owned()]);
    }

    #[test]
    fn every_install_takes_a_fresh_epoch() {
        let index = StoreIndex::new(2);
        let store = ReferenceStore::Aosp41.cached();
        assert_eq!(index.install("a", Arc::clone(&store)).epoch, 1);
        // Epochs only move forward: at or behind the counter is refused
        // with the counter, and nothing is published.
        for behind in [0, 1] {
            let refused = index.install_at_epoch("b", Arc::clone(&store), behind);
            assert_eq!(refused.err(), Some(1));
        }
        assert!(index.profile("b").is_none());
        // A gap is allowed, and later installs continue past it.
        let ahead = index.install_at_epoch("b", Arc::clone(&store), 5).unwrap();
        assert_eq!(ahead.epoch, 5);
        assert_eq!(index.install("a", store).epoch, 6);
        assert_eq!(index.current_epoch(), 6);
    }

    #[test]
    fn presented_overlay_matches_a_cloned_verifier() {
        use tangled_intercept::origin::OriginServers;
        use tangled_intercept::proxy::MitmProxy;
        use tangled_x509::{Certificate, ChainOptions, VerifiedChain};

        let origin = OriginServers::for_table6();
        let mut proxy = MitmProxy::reality_mine().unwrap();
        let mut chains: Vec<Vec<Arc<Certificate>>> = Vec::new();
        for target in origin.targets() {
            chains.push(origin.chain(target).unwrap().to_vec());
            chains.push(proxy.serve(target, &origin).unwrap());
        }
        let outcome = |r: Result<VerifiedChain, tangled_x509::ChainError>| {
            r.map(|c| (c.anchor().subject.clone(), c.len()))
                .map_err(|e| e.label())
        };
        let index = StoreIndex::with_standard_profiles();
        let opts = ChainOptions::at(tangled_intercept::study_time());
        let mut trusted = 0;
        for name in tangled_pki::stores::standard_store_names() {
            let anchors = index.profile(name).unwrap().anchors;
            for chain in &chains {
                let overlay = outcome(anchors.verify_chain(&chain[0], &chain[1..], opts));
                let mut cloned = (*anchors).clone();
                for link in &chain[1..] {
                    cloned.add_intermediate(Arc::clone(link));
                }
                assert_eq!(overlay, outcome(cloned.verify(&chain[0], opts)), "{name}");
                trusted += usize::from(overlay.is_ok());
            }
        }
        // Both outcomes occur: origin chains anchor, proxy chains do not.
        assert!(trusted > 0 && trusted < 10 * chains.len(), "{trusted}");
    }

    #[test]
    fn shard_assignment_is_stable() {
        let index = StoreIndex::new(8);
        let store = ReferenceStore::Mozilla.cached();
        let id = &store.identities()[0];
        let a = index.shard_for(id) as *const _;
        let b = index.shard_for(id) as *const _;
        assert_eq!(a, b, "same identity always maps to the same shard");
    }
}
