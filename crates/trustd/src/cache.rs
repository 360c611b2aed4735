//! A bounded LRU memo cache for verification verdicts.
//!
//! Hand-rolled intrusive doubly-linked list over a slot arena — no
//! external crate, O(1) get/insert/evict, and fully deterministic (the
//! eviction order is a pure function of the access sequence, which the
//! determinism tests rely on).

use std::collections::HashMap;
use std::hash::Hash;

/// One arena slot: the entry plus its list links.
struct Slot<K, V> {
    key: K,
    value: V,
    prev: Option<usize>,
    next: Option<usize>,
}

/// A bounded least-recently-used cache.
///
/// Capacity 0 disables the cache entirely: `insert` is a no-op and every
/// `get` is a miss. Hit and miss counts live in the service's stats, not
/// here.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: Option<usize>,
    tail: Option<usize>,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V: Clone> LruCache<K, V> {
    /// An empty cache bounded at `capacity` entries.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: None,
            tail: None,
            capacity,
        }
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = self.map.get(key).copied()?;
        self.detach(idx);
        self.attach_front(idx);
        Some(self.slots[idx].value.clone())
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(idx) = self.map.get(&key).copied() {
            self.slots[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail.expect("non-empty cache has a tail");
            self.detach(victim);
            let old = &self.slots[victim];
            self.map.remove(&old.key);
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot {
                    key: key.clone(),
                    value,
                    prev: None,
                    next: None,
                };
                idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: None,
                    next: None,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Keys in most-recently-used-first order: the tests' one view of
    /// the list links.
    #[cfg(test)]
    fn keys_mru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while let Some(idx) = cur {
            out.push(self.slots[idx].key.clone());
            cur = self.slots[idx].next;
        }
        out
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            Some(p) => self.slots[p].next = next,
            None if self.head == Some(idx) => self.head = next,
            None => {}
        }
        match next {
            Some(n) => self.slots[n].prev = prev,
            None if self.tail == Some(idx) => self.tail = prev,
            None => {}
        }
        self.slots[idx].prev = None;
        self.slots[idx].next = None;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].next = self.head;
        self.slots[idx].prev = None;
        if let Some(h) = self.head {
            self.slots[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_lru() {
        let mut c: LruCache<u32, &'static str> = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.keys_mru(), vec![3, 2, 1]);
        // Touch 1 → it becomes MRU, 2 is now LRU.
        assert_eq!(c.get(&1), Some("a"));
        c.insert(4, "d");
        assert_eq!(c.get(&2), None, "2 was evicted");
        assert_eq!(c.len(), 3);
        assert_eq!(c.keys_mru(), vec![4, 1, 3], "exactly one eviction");
    }

    #[test]
    fn refresh_promotes_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.keys_mru(), vec![1, 2]);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), Some(20), "nothing evicted");
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
        assert!(c.keys_mru().is_empty());
    }

    #[test]
    fn single_entry_cache_cycles() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for i in 0..10 {
            c.insert(i, i * 10);
            assert_eq!(c.get(&i), Some(i * 10));
            assert_eq!(c.len(), 1);
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None, "previous entry evicted");
            }
        }
        assert_eq!(c.keys_mru(), vec![9]);
    }
}
