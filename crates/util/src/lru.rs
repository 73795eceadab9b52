//! A fixed-capacity least-recently-used cache.
//!
//! The query service keeps answers for hot seed sets behind an
//! [`LruCache`]; the cache must be O(1) per operation so a cache hit stays
//! cheap relative to recomputing a marginal gain. Entries live in a slab
//! (`Vec` of slots) threaded into an intrusive doubly-linked recency list,
//! with an [`FxHashMap`] from key to slot index. No
//! allocation happens after the cache reaches capacity: evicted slots are
//! reused in place.

use crate::hash::FxHashMap;
use std::hash::Hash;

/// Sentinel slot index meaning "no neighbour".
const NIL: usize = usize::MAX;

/// One slab slot: the entry plus its recency-list links.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with a hard entry capacity.
///
/// `get` refreshes recency; `insert` evicts the least recently used entry
/// once the cache is full. A capacity of zero disables caching entirely
/// (every `insert` is a no-op).
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot, or `NIL` when empty.
    head: usize,
    /// Least recently used slot, or `NIL` when empty.
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: FxHashMap::default(),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unlinks `i` from the recency list.
    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Links `i` in as the most recently used slot.
    fn attach_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if i != self.head {
            self.detach(i);
            self.attach_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.slots[i].value)
    }

    /// Inserts `key → value`, returning the evicted least-recently-used
    /// entry when the cache was full (or the previous value under an
    /// existing key).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&key) {
            let old = std::mem::replace(&mut self.slots[i].value, value);
            if i != self.head {
                self.detach(i);
                self.attach_front(i);
            }
            return Some((key, old));
        }
        if self.map.len() == self.capacity {
            // Reuse the LRU slot in place.
            let i = self.tail;
            self.detach(i);
            let slot = &mut self.slots[i];
            let old_key = std::mem::replace(&mut slot.key, key.clone());
            let old_value = std::mem::replace(&mut slot.value, value);
            self.map.remove(&old_key);
            self.map.insert(key, i);
            self.attach_front(i);
            return Some((old_key, old_value));
        }
        let i = self.slots.len();
        self.slots.push(Slot { key: key.clone(), value, prev: NIL, next: NIL });
        self.map.insert(key, i);
        self.attach_front(i);
        None
    }

    /// Drops every entry (capacity is retained).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most to least recently used (test aid).
    #[cfg(test)]
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.slots[i].key.clone());
            i = self.slots[i].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_hit_and_miss() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        assert!(c.is_empty());
        assert_eq!(c.insert(1, "a"), None);
        assert_eq!(c.insert(2, "b"), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(&1); // 2 is now LRU
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), Some((1, 10)));
        assert_eq!(c.keys_by_recency(), vec![1, 2]);
        c.insert(3, 30); // evicts 2, not 1
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.peek(&1), Some(&10));
        c.insert(3, 30); // 1 is still LRU despite the peek
        assert_eq!(c.peek(&1), None);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for i in 0..3 {
            c.insert(i, i);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 3);
        c.insert(9, 9);
        assert_eq!(c.get(&9), Some(&9));
    }

    #[test]
    fn heavy_churn_respects_capacity_and_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(i, i * 2);
            assert!(c.len() <= 8);
        }
        let keys = c.keys_by_recency();
        assert_eq!(keys, (992..1000).rev().collect::<Vec<_>>());
        for k in 992..1000 {
            assert_eq!(c.get(&k), Some(&(k * 2)));
        }
    }
}
