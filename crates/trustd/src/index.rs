//! The in-memory store index behind the service.
//!
//! Named, immutable [`RootStore`] profiles, each paired with its
//! preloaded anchor set ([`RootStore::verifier`]) so validation borrows
//! it per request and never rebuilds or clones it. The profiles and the
//! epoch counter sit under one lock: an install builds the anchor set
//! first, then claims its epoch and publishes under one write lock, so a
//! reader sees the old profile or the new one, never a mix. In-flight
//! requests keep their `Arc` to the old profile.
//!
//! Membership (`classify`'s "which stores ship this root") is not a
//! second structure: [`StoreIndex::member_of`] asks each profile's store,
//! ten hash lookups under the read lock.
//!
//! Every install takes an epoch no install has had before, so an epoch
//! names one profile version. Cache entries are keyed by `(epoch, chain)`;
//! since a swap changes the epoch, stale verdicts die by *key mismatch* —
//! no scan, no invalidation pass.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tangled_pki::store::RootStore;
use tangled_pki::stores::{global_factory, standard_key_names, EcosystemStore, ReferenceStore};
use tangled_x509::{CertIdentity, ChainVerifier};

/// The shard count callers used to pass to [`StoreIndex::new`]. The
/// index has no shards; the value is ignored.
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

/// The profile index: installed profiles and the epoch counter, under
/// one lock.
pub struct StoreIndex {
    state: RwLock<IndexState>,
}

#[derive(Default)]
struct IndexState {
    profiles: HashMap<String, StoreProfile>,
    /// The last epoch claimed (0 = nothing ever installed).
    epoch: u64,
}

impl IndexState {
    /// Claim `epoch` for `profile` and publish it under its name.
    fn publish(&mut self, mut profile: StoreProfile, epoch: u64) -> StoreProfile {
        self.epoch = epoch;
        profile.epoch = epoch;
        self.profiles.insert(profile.name.clone(), profile.clone());
        profile
    }
}

impl StoreIndex {
    /// An empty index. `shards` is ignored: the index has one lock.
    pub fn new(_shards: usize) -> StoreIndex {
        StoreIndex {
            state: RwLock::default(),
        }
    }

    /// An index preloaded with all ten standard profiles: the six
    /// reference stores (epochs 1–6, [`ReferenceStore::ALL`] order)
    /// followed by the four ecosystem families (epochs 7–10,
    /// [`EcosystemStore::ALL`] order) — the store set the disparity
    /// engine compares and the `compare` wire op answers for.
    ///
    /// Every standard key is first generated in parallel (see
    /// `prefetch_standard_keys`); the stores then install in order, so
    /// profile epochs are identical at any thread count.
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
        let profile = unpublished(name, store);
        let mut state = self.write();
        let epoch = state.epoch + 1;
        state.publish(profile, epoch)
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
        let profile = unpublished(name, store);
        let mut state = self.write();
        if epoch <= state.epoch {
            return Err(state.epoch);
        }
        Ok(state.publish(profile, epoch))
    }

    /// Look up a profile by name.
    pub fn profile(&self, name: &str) -> Option<StoreProfile> {
        self.read().profiles.get(name).cloned()
    }

    /// Installed profile names, sorted.
    pub fn profile_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().profiles.keys().cloned().collect();
        names.sort();
        names
    }

    /// Profiles whose store contains `id`, sorted.
    pub fn member_of(&self, id: &CertIdentity) -> Vec<String> {
        let mut names: Vec<String> = self
            .read()
            .profiles
            .values()
            .filter(|p| p.store.contains(id))
            .map(|p| p.name.clone())
            .collect();
        names.sort();
        names
    }

    /// The global epoch and every profile's `(name, epoch)`, read under
    /// one lock, so no install lands between them.
    pub fn epochs(&self) -> (u64, BTreeMap<String, u64>) {
        let state = self.read();
        let profiles = state.profiles.values().map(|p| (p.name.clone(), p.epoch));
        (state.epoch, profiles.collect())
    }

    /// The current global epoch (0 = nothing ever installed).
    pub fn current_epoch(&self) -> u64 {
        self.read().epoch
    }

    fn read(&self) -> RwLockReadGuard<'_, IndexState> {
        self.state.read().expect("index poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, IndexState> {
        self.state.write().expect("index poisoned")
    }
}

/// A profile for `store` with its anchor set built, before any lock is
/// taken; [`IndexState::publish`] stamps its epoch.
fn unpublished(name: &str, store: Arc<RootStore>) -> StoreProfile {
    StoreProfile {
        name: name.to_owned(),
        anchors: Arc::new(store.verifier()),
        store,
        epoch: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The six reference stores at epochs 1–6.
    fn reference_index() -> StoreIndex {
        StoreIndex::preloaded(
            ReferenceStore::ALL
                .map(|rs| (rs.name(), rs.cached()))
                .to_vec(),
        )
    }

    #[test]
    fn reference_profiles_resolve_by_canonical_name() {
        let index = reference_index();
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
        let index = reference_index();
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
    fn member_of_never_misses_a_profile_across_an_install() {
        // Two versions of one profile that both hold `id`: whichever an
        // install publishes, `member_of(id)` must name the profile.
        let full = ReferenceStore::Aosp44.cached();
        let id = full.identities()[0].clone();
        let mut trimmed = full.cloned_as("trimmed");
        trimmed.remove(&full.identities()[1]);
        let versions = [Arc::clone(&full), Arc::new(trimmed)];
        let index = StoreIndex::new(DEFAULT_SHARDS);
        index.install("dev", Arc::clone(&full));
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..400 {
                    index.install("dev", Arc::clone(&versions[i % 2]));
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                assert_eq!(index.member_of(&id), ["dev"]);
            }
        });
        assert_eq!(index.current_epoch(), 401);
    }
}
