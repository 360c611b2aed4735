//! Lock-striped hash maps for cross-shard memoisation.
//!
//! A [`StripedMap`] spreads entries over N independently locked stripes by
//! key hash, so shards running on different threads rarely contend even
//! when they share one memo. The map is *value-deterministic*: callers
//! must only insert values that are pure functions of their key (the
//! signature memo's verdicts, trustd's `(epoch, ChainKey)` chain
//! verdicts). Under that contract, which thread computes an entry first —
//! the only racy thing here — cannot be observed in any result, and a
//! compute race at worst duplicates work, never corrupts it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A lock-striped concurrent memo map.
pub struct StripedMap<K, V> {
    stripes: Vec<Mutex<HashMap<K, V>>>,
    /// Per-stripe entry cap; a stripe at the cap is cleared before the next
    /// insert (epoch-style bound for long-lived memos). 0 stores nothing.
    stripe_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> StripedMap<K, V> {
    /// A map with `stripes` stripes (minimum 1), each holding at most
    /// `stripe_cap` entries; a full stripe is flushed wholesale before
    /// admitting the next entry. A `stripe_cap` of 0 stores nothing, so
    /// every lookup computes (and counts as a miss).
    pub fn bounded(stripes: usize, stripe_cap: usize) -> StripedMap<K, V> {
        StripedMap {
            stripes: (0..stripes.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            stripe_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn stripe_for(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.stripes[(hasher.finish() as usize) % self.stripes.len()]
    }

    /// Look up `key`, or compute it with `make` and cache the result;
    /// the flag says whether the lookup hit.
    ///
    /// The stripe lock is *not* held while `make` runs, so an expensive
    /// computation never blocks unrelated keys; two threads racing on the
    /// same key may both compute, and the first insert wins (identical
    /// values by the purity contract, so the winner is unobservable).
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, make: F) -> (V, bool) {
        let stripe = self.stripe_for(&key);
        let hit = stripe.lock().expect("stripe poisoned").get(&key).cloned();
        if let Some(v) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = make();
        if self.stripe_cap > 0 {
            let mut stripe = stripe.lock().expect("stripe poisoned");
            if stripe.len() >= self.stripe_cap && !stripe.contains_key(&key) {
                stripe.clear();
            }
            stripe.entry(key).or_insert_with(|| value.clone());
        }
        (value, false)
    }

    /// Total entries across stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").len())
            .sum()
    }

    /// True when no stripe holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (lookup hits, compute misses).
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drop every entry (counters survive).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("stripe poisoned").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn memoises_and_counts() {
        let map: StripedMap<u32, u32> = StripedMap::bounded(8, usize::MAX);
        let computes = AtomicUsize::new(0);
        let make = |x: u32| {
            computes.fetch_add(1, Ordering::SeqCst);
            x * 2
        };
        assert_eq!(map.get_or_insert_with(21, || make(21)), (42, false));
        assert_eq!(map.get_or_insert_with(21, || make(21)), (42, true));
        assert_eq!(computes.load(Ordering::SeqCst), 1, "second call hits");
        assert_eq!(map.len(), 1);
        let (hits, misses) = map.counters();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn concurrent_fill_is_consistent() {
        let map: StripedMap<u64, u64> = StripedMap::bounded(16, usize::MAX);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let (got, _) = map.get_or_insert_with(i, || i * i);
                        assert_eq!(got, i * i, "thread {t} read a torn value");
                    }
                });
            }
        });
        assert_eq!(map.len(), 500);
        for i in 0..500 {
            assert_eq!(
                map.get_or_insert_with(i, || unreachable!("{i} was filled")),
                (i * i, true)
            );
        }
    }

    #[test]
    fn bounded_stripes_flush_at_cap() {
        // One stripe, cap 4: the fifth distinct key flushes the stripe.
        let map: StripedMap<u32, u32> = StripedMap::bounded(1, 4);
        for i in 0..4 {
            map.get_or_insert_with(i, || i);
        }
        assert_eq!(map.len(), 4);
        map.get_or_insert_with(99, || 99);
        assert_eq!(map.len(), 1, "cap flush keeps only the newcomer");
        // A hit on a held key at the cap neither recomputes nor flushes.
        assert_eq!(map.get_or_insert_with(99, || 100), (99, true));
        assert_eq!(map.len(), 1);
        assert_eq!(map.counters(), (1, 5));
    }

    #[test]
    fn single_entry_stripe_cycles() {
        // Cap 1: every new key replaces the last one.
        let map: StripedMap<u32, u32> = StripedMap::bounded(1, 1);
        for i in 0..10 {
            assert_eq!(map.get_or_insert_with(i, || i * 10), (i * 10, false));
            assert_eq!(map.get_or_insert_with(i, || unreachable!()), (i * 10, true));
            assert_eq!(map.len(), 1);
        }
        assert_eq!(map.get_or_insert_with(0, || 7), (7, false), "0 was flushed");
    }

    #[test]
    fn zero_cap_never_stores() {
        let map: StripedMap<u32, u32> = StripedMap::bounded(4, 0);
        assert_eq!(map.get_or_insert_with(1, || 10), (10, false));
        assert_eq!(map.get_or_insert_with(1, || 11), (11, false), "recomputed");
        assert!(map.is_empty());
        assert_eq!(map.counters(), (0, 2));
    }

    #[test]
    fn clear_empties_every_stripe() {
        let map: StripedMap<u32, u32> = StripedMap::bounded(4, usize::MAX);
        for i in 0..64 {
            map.get_or_insert_with(i, || i);
        }
        assert!(!map.is_empty());
        map.clear();
        assert!(map.is_empty());
    }
}
