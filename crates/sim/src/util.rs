//! Small simulation utilities: time-ordered shared resources, an O(1)
//! LRU set, and a fast hasher for the simulator's integer-keyed maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A splitmix64-style mixing hasher for the simulator's integer keys
/// (block numbers, page numbers).  SipHash dominates the miss path's
/// directory and residency lookups; these maps are never iterated, so
/// their bucket order is unobservable and a fast non-DoS-resistant hash
/// is safe — simulation results are bit-identical either way.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // FNV-style fallback for non-integer keys.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut z = self.0 ^ n ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]-keyed maps.
pub type FastHashBuilder = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastHashBuilder>;

/// A serially-reusable resource (a bus, a switch port, a disk arm) modeled
/// by its `free_at` timestamp.  Acquiring at time `now` for `occupancy`
/// cycles queues FIFO behind earlier acquisitions.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: u64,
    /// Total busy cycles, for utilization reporting.
    busy: u64,
}

impl Resource {
    /// New idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire at `now` for `occupancy` cycles.  Returns the queueing delay
    /// (cycles spent waiting before service starts).
    pub fn acquire(&mut self, now: u64, occupancy: u64) -> u64 {
        let start = self.free_at.max(now);
        self.free_at = start + occupancy;
        self.busy += occupancy;
        start - now
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Cumulative busy cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }
}

/// Intrusive doubly-linked O(1) LRU set with a capacity, used for a node's
/// local-memory cache of remote blocks and for page residency.
///
/// `insert` returns the evicted key when the set overflows.
#[derive(Debug)]
pub struct LruSet<K: Eq + Hash + Copy> {
    capacity: usize,
    map: FastHashMap<K, usize>,
    /// Slab of nodes: (key, prev, next); usize::MAX = none.
    nodes: Vec<(K, usize, usize)>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
}

const NONE: usize = usize::MAX;

impl<K: Eq + Hash + Copy> LruSet<K> {
    /// New LRU set holding at most `capacity` keys.  A capacity of 0 is
    /// raised to 1: the set then holds just the most recently inserted key.
    pub fn new(capacity: usize) -> Self {
        LruSet {
            capacity: capacity.max(1),
            map: FastHashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `k` is resident (does not touch recency).
    pub fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    fn unlink(&mut self, i: usize) {
        let (_, prev, next) = self.nodes[i];
        if prev != NONE {
            self.nodes[prev].2 = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.nodes[next].1 = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].1 = NONE;
        self.nodes[i].2 = self.head;
        if self.head != NONE {
            self.nodes[self.head].1 = i;
        }
        self.head = i;
        if self.tail == NONE {
            self.tail = i;
        }
    }

    /// Touch `k` (move to most-recent).  Returns whether it was resident.
    pub fn touch(&mut self, k: K) -> bool {
        if let Some(&i) = self.map.get(&k) {
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            true
        } else {
            false
        }
    }

    /// Insert `k` as most-recent.  If it was already resident this is a
    /// touch.  Returns the evicted key if the capacity overflowed.
    pub fn insert(&mut self, k: K) -> Option<K> {
        if self.touch(k) {
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = (k, NONE, NONE);
                i
            }
            None => {
                self.nodes.push((k, NONE, NONE));
                self.nodes.len() - 1
            }
        };
        self.push_front(i);
        self.map.insert(k, i);
        evicted
    }

    /// Remove `k` if resident; returns whether it was.
    pub fn remove(&mut self, k: &K) -> bool {
        if let Some(i) = self.map.remove(k) {
            self.unlink(i);
            self.free.push(i);
            true
        } else {
            false
        }
    }

    /// Evict and return the least-recently-used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        if self.tail == NONE {
            return None;
        }
        let i = self.tail;
        let k = self.nodes[i].0;
        self.unlink(i);
        self.map.remove(&k);
        self.free.push(i);
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_no_contention() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(100, 50), 0);
        assert_eq!(r.free_at(), 150);
        assert_eq!(r.acquire(200, 10), 0);
        assert_eq!(r.busy_cycles(), 60);
    }

    #[test]
    fn resource_queues_fifo() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(0, 100), 0);
        // Second request at t=10 waits until t=100.
        assert_eq!(r.acquire(10, 100), 90);
        // Third at t=10 waits until t=200.
        assert_eq!(r.acquire(10, 50), 190);
        assert_eq!(r.free_at(), 250);
    }

    #[test]
    fn lru_basic_insert_touch_evict() {
        let mut l = LruSet::new(3);
        assert_eq!(l.insert(1), None);
        assert_eq!(l.insert(2), None);
        assert_eq!(l.insert(3), None);
        assert_eq!(l.len(), 3);
        // Touch 1, making 2 the LRU.
        assert!(l.touch(1));
        assert_eq!(l.insert(4), Some(2));
        assert!(l.contains(&1));
        assert!(!l.contains(&2));
        assert!(l.contains(&3) && l.contains(&4));
    }

    #[test]
    fn lru_zero_capacity_holds_one_key() {
        let mut l = LruSet::new(0);
        assert_eq!(l.insert(1), None, "the first key is kept");
        assert!(l.contains(&1) && l.touch(1));
        assert_eq!(l.insert(2), Some(1), "the next one evicts it");
        assert!(l.contains(&2) && !l.contains(&1));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn lru_reinsert_is_touch() {
        let mut l = LruSet::new(2);
        l.insert(1);
        l.insert(2);
        assert_eq!(l.insert(1), None); // touch, no eviction
        assert_eq!(l.insert(3), Some(2)); // 2 was LRU
    }

    #[test]
    fn lru_remove_and_reuse_slots() {
        let mut l = LruSet::new(2);
        l.insert(1);
        l.insert(2);
        assert!(l.remove(&1));
        assert!(!l.remove(&1));
        assert_eq!(l.len(), 1);
        l.insert(3);
        assert_eq!(l.len(), 2);
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn lru_stress_against_reference() {
        // Compare against a simple Vec-based LRU.
        let mut fast = LruSet::new(8);
        let mut slow: Vec<u64> = Vec::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 20;
            // Reference model.
            let evicted_ref = if let Some(p) = slow.iter().position(|&v| v == k) {
                slow.remove(p);
                slow.insert(0, k);
                None
            } else {
                slow.insert(0, k);
                if slow.len() > 8 {
                    slow.pop()
                } else {
                    None
                }
            };
            let evicted = fast.insert(k);
            assert_eq!(evicted, evicted_ref);
            assert_eq!(fast.len(), slow.len());
        }
    }
}
