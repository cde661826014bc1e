//! Bounded LRU for hot `(vertex, k)` answers.
//!
//! Rendered JSON bodies are cached keyed by the query parameters, so a hot
//! vertex costs one hierarchy walk and then memcpy-speed responses until the
//! next publish clears the cache. Intrusive doubly-linked list over a slot
//! vector + a `HashMap` from key to slot — O(1) get/put, no per-entry
//! allocation beyond the stored value, no external crates.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map. `capacity == 0` disables
/// caching entirely (every `get` misses, `put` is a no-op).
#[derive(Debug)]
pub struct Lru<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            slots: Vec::with_capacity(capacity.min(4096)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &slot = self.map.get(key)?;
        self.detach(slot);
        self.attach_front(slot);
        Some(&self.slots[slot].value)
    }

    /// Inserts or replaces `key`, evicting the least-recently-used entry if
    /// the cache is full.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = value;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
    }

    /// Drops every entry (used when a new index epoch is published — cached
    /// answers from the old epoch must never be served).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slots[slot].next = self.head;
        self.slots[slot].prev = NIL;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.put("a", 1);
        lru.put("b", 2);
        lru.put("c", 3); // evicts "a"
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.get(&"b"), Some(&2));
        assert_eq!(lru.get(&"c"), Some(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut lru = Lru::new(2);
        lru.put("a", 1);
        lru.put("b", 2);
        assert_eq!(lru.get(&"a"), Some(&1)); // "b" is now LRU
        lru.put("c", 3); // evicts "b"
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&1));
    }

    #[test]
    fn put_replaces_existing() {
        let mut lru = Lru::new(2);
        lru.put("a", 1);
        lru.put("a", 9);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&"a"), Some(&9));
    }

    #[test]
    fn capacity_one_and_zero() {
        let mut one = Lru::new(1);
        one.put(1u32, "x");
        one.put(2u32, "y");
        assert_eq!(one.get(&1), None);
        assert_eq!(one.get(&2), Some(&"y"));

        let mut zero: Lru<u32, &str> = Lru::new(0);
        zero.put(1, "x");
        assert!(zero.is_empty());
        assert_eq!(zero.get(&1), None);
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut lru = Lru::new(3);
        for i in 0..3u32 {
            lru.put(i, i * 10);
        }
        lru.clear();
        assert!(lru.is_empty());
        lru.put(7, 70);
        assert_eq!(lru.get(&7), Some(&70));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn churn_stays_bounded() {
        let mut lru = Lru::new(8);
        for i in 0..1000u32 {
            lru.put(i, i);
            assert!(lru.len() <= 8);
        }
        // The 8 most recent keys survive.
        for i in 992..1000u32 {
            assert_eq!(lru.get(&i), Some(&i));
        }
    }
}
