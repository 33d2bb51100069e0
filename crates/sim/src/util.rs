//! Small simulation utilities: time-ordered shared resources, an O(1)
//! LRU set in one flat table, and the splitmix64 finalizer that hashes
//! the simulator's integer keys.

/// splitmix64 finalizer: mixes an integer key (block or page number) into
/// a well-spread hash.  The simulator's open-addressed tables
/// ([`LruSet`], `DirTable`) are never iterated, so their slot order is
/// unobservable and a fast non-DoS-resistant hash is safe — simulation
/// results are bit-identical whatever the hash.
#[inline]
pub(crate) fn splitmix64(key: u64) -> u64 {
    let mut z = key ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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

/// O(1) LRU set of `u64` keys with a capacity, used for a node's
/// local-memory cache of remote blocks and for page residency.
///
/// One flat open-addressed table holds everything: each 16-byte slot is
/// a key plus its recency links (`prev` toward the most recent key,
/// `next` toward the least recent), as `u32` slot indices.  A touch reads
/// the key's slot, its list neighbours and the old head, and nothing
/// else — no separate map, node slab or free list.  Probing is linear
/// from the key's `splitmix64` hash, as in `DirTable`.  `remove` and
/// `pop_lru` leave tombstones; when live slots and tombstones reach ¾ of
/// the table it is rebuilt (at twice the size if more than half the
/// slots are live) by walking the list from least to most recent, so the
/// LRU order survives.  The table grows with the keys it holds, not with
/// the capacity.
///
/// `insert` returns the evicted key when the set overflows.
#[derive(Debug)]
pub struct LruSet {
    capacity: usize,
    /// Power-of-two slot table; a slot's `next` is [`EMPTY`] or [`TOMB`]
    /// when it holds no key.
    slots: Vec<Slot>,
    /// `slots.len() - 1`.
    mask: usize,
    /// Live keys.
    len: usize,
    /// Live keys plus tombstones — the rebuild trigger.
    used: usize,
    /// Most recent key's slot, or [`NIL`].
    head: u32,
    /// Least recent key's slot, or [`NIL`].
    tail: u32,
}

/// One table slot: a key and its recency links.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    prev: u32,
    next: u32,
}

/// No list neighbour.
const NIL: u32 = u32::MAX - 2;
/// `next` of a slot that never held a key: ends a probe.
const EMPTY: u32 = u32::MAX;
/// `next` of a slot whose key was removed: a probe passes over it.
const TOMB: u32 = u32::MAX - 1;
/// Slot count of a new table.
const MIN_SLOTS: usize = 16;

const VACANT: Slot = Slot {
    key: 0,
    prev: NIL,
    next: EMPTY,
};

impl LruSet {
    /// New LRU set holding at most `capacity` keys.  A capacity of 0 is
    /// raised to 1: the set then holds just the most recently inserted key.
    pub fn new(capacity: usize) -> Self {
        LruSet {
            capacity: capacity.max(1),
            slots: vec![VACANT; MIN_SLOTS],
            mask: MIN_SLOTS - 1,
            len: 0,
            used: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `k` is resident (does not touch recency).
    pub fn contains(&self, k: &u64) -> bool {
        self.find(*k).is_ok()
    }

    /// Probe for `k`: `Ok(slot)` if resident, else `Err(slot)` with the
    /// slot an insert of `k` should fill — the first tombstone on the
    /// probe path, or the empty slot that ended it.
    #[inline]
    fn find(&self, k: u64) -> Result<usize, usize> {
        let mut i = splitmix64(k) as usize & self.mask;
        let mut grave = None;
        loop {
            let s = self.slots[i];
            match s.next {
                EMPTY => return Err(grave.unwrap_or(i)),
                TOMB => {
                    grave.get_or_insert(i);
                }
                _ if s.key == k => return Ok(i),
                _ => {}
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    #[inline]
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i as u32;
        } else {
            self.tail = i as u32;
        }
        self.head = i as u32;
    }

    /// Make live slot `i` the most recent.
    #[inline]
    fn refresh(&mut self, i: usize) {
        if self.head != i as u32 {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Touch `k` (move to most-recent).  Returns whether it was resident.
    pub fn touch(&mut self, k: u64) -> bool {
        self.find(k).map(|i| self.refresh(i)).is_ok()
    }

    /// Insert `k` as most-recent.  If it was already resident this is a
    /// touch.  Returns the evicted key if the capacity overflowed.
    pub fn insert(&mut self, k: u64) -> Option<u64> {
        let mut free = match self.find(k) {
            Ok(i) => {
                self.refresh(i);
                return None;
            }
            Err(free) => free,
        };
        // Evicting leaves a tombstone but never fills `free`.
        let evicted = if self.len >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        if self.slots[free].next == EMPTY {
            // Rebuild before the table is ¾ full, so every probe ends at
            // an empty slot.
            if (self.used + 1) * 4 > self.slots.len() * 3 {
                let grow = (self.len + 1) * 2 > self.slots.len();
                self.rebuild(self.slots.len() << usize::from(grow));
                free = self.find(k).unwrap_err();
            }
            self.used += 1;
        }
        self.place(free, k);
        evicted
    }

    /// Fill vacant slot `i` with `k` as the most recent key.
    #[inline]
    fn place(&mut self, i: usize, k: u64) {
        self.slots[i].key = k;
        self.push_front(i);
        self.len += 1;
    }

    /// Turn live slot `i` into a tombstone.
    #[inline]
    fn bury(&mut self, i: usize) -> u64 {
        self.unlink(i);
        self.slots[i].next = TOMB;
        self.len -= 1;
        self.slots[i].key
    }

    /// Remove `k` if resident; returns whether it was.
    pub fn remove(&mut self, k: &u64) -> bool {
        match self.find(*k) {
            Ok(i) => {
                self.bury(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Evict and return the least-recently-used key.
    pub fn pop_lru(&mut self) -> Option<u64> {
        (self.tail != NIL).then(|| self.bury(self.tail as usize))
    }

    /// Move every live key into a fresh table of `slots` slots, dropping
    /// the tombstones.  Keys go in from least to most recent, each at the
    /// front, so the recency order is unchanged.
    #[cold]
    fn rebuild(&mut self, slots: usize) {
        assert!(slots <= NIL as usize, "LruSet outgrew u32 slot links");
        let old = std::mem::replace(&mut self.slots, vec![VACANT; slots]);
        self.mask = slots - 1;
        self.len = 0;
        self.used = 0;
        self.head = NIL;
        let mut i = self.tail;
        self.tail = NIL;
        while i != NIL {
            let Slot { key, prev, .. } = old[i as usize];
            let free = self.find(key).unwrap_err();
            self.place(free, key);
            self.used += 1;
            i = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The slab-and-`HashMap` LRU set the flat table replaced: a node
    /// slab of `(key, prev, next)` with a free list, indexed by a map.
    /// The oracle for `flat_table_matches_slab_oracle`.
    struct SlabLru {
        capacity: usize,
        map: HashMap<u64, usize>,
        nodes: Vec<(u64, usize, usize)>,
        free: Vec<usize>,
        head: usize,
        tail: usize,
    }

    const NONE: usize = usize::MAX;

    impl SlabLru {
        fn new(capacity: usize) -> Self {
            SlabLru {
                capacity: capacity.max(1),
                map: HashMap::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NONE,
                tail: NONE,
            }
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

        fn touch(&mut self, k: u64) -> bool {
            let Some(&i) = self.map.get(&k) else {
                return false;
            };
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            true
        }

        fn insert(&mut self, k: u64) -> Option<u64> {
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

        fn remove(&mut self, k: u64) -> bool {
            let Some(i) = self.map.remove(&k) else {
                return false;
            };
            self.unlink(i);
            self.free.push(i);
            true
        }

        fn pop_lru(&mut self) -> Option<u64> {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random operation streams give the flat table and the slab
        /// oracle equal return values and lengths after every operation.
        /// `weights` sets the odds of insert/touch/contains/remove/pop_lru;
        /// the remove-heavy mixes keep few keys live among many
        /// tombstones, forcing in-place rebuilds as well as growth.
        #[test]
        fn flat_table_matches_slab_oracle(
            cap in prop_oneof![Just(0usize), Just(1), 2usize..9, 300usize..3000],
            key_space in prop_oneof![Just(3u64), Just(40), Just(5000), Just(1 << 20)],
            weights in prop_oneof![
                Just([4u8, 2, 1, 1, 1]),
                Just([4, 1, 1, 4, 1]),
                Just([3, 1, 1, 1, 3]),
                Just([6, 0, 0, 5, 0]),
            ],
            ops in proptest::collection::vec((0u8..255, any::<u64>()), 1..4000),
        ) {
            let mut flat = LruSet::new(cap);
            let mut oracle = SlabLru::new(cap);
            let total: u8 = weights.iter().sum();
            for (step, &(pick, raw)) in ops.iter().enumerate() {
                // Mostly a small key space; now and then an extreme key.
                let k = if raw & 0xFF == 0 { raw } else { raw % key_space };
                let mut pick = pick % total;
                let op = weights.iter().position(|&w| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                });
                let (got, want) = match op {
                    Some(0) => (flat.insert(k), oracle.insert(k)),
                    Some(1) => (flat.touch(k).then_some(k), oracle.touch(k).then_some(k)),
                    Some(2) => (
                        flat.contains(&k).then_some(k),
                        oracle.map.contains_key(&k).then_some(k),
                    ),
                    Some(3) => (flat.remove(&k).then_some(k), oracle.remove(k).then_some(k)),
                    _ => (flat.pop_lru(), oracle.pop_lru()),
                };
                prop_assert_eq!(got, want, "step {} op {:?} key {} cap {}", step, op, k, cap);
                prop_assert_eq!(flat.len(), oracle.map.len(), "step {} cap {}", step, cap);
            }
            // Drain both: the full recency order must agree.
            while let Some(k) = oracle.pop_lru() {
                prop_assert_eq!(flat.pop_lru(), Some(k));
            }
            prop_assert!(flat.is_empty() && flat.pop_lru().is_none());
        }
    }

    #[test]
    fn tombstones_rebuild_in_place_keeping_order() {
        let mut l = LruSet::new(1000);
        for k in 0..6 {
            l.insert(k);
        }
        // Churn far more keys through than the table has slots; with six
        // live keys the table must stay put and rebuild over tombstones.
        for k in 100..10_000 {
            assert_eq!(l.insert(k), None);
            assert!(l.remove(&k));
        }
        assert_eq!(l.slots.len(), MIN_SLOTS, "rebuilt in place, not grown");
        l.touch(2);
        for k in [0, 1, 3, 4, 5, 2] {
            assert_eq!(l.pop_lru(), Some(k));
        }
    }

    #[test]
    fn growth_keeps_recency_order() {
        let mut l = LruSet::new(usize::MAX);
        for k in 0..1000 {
            l.insert(k * 7919);
        }
        assert!(l.slots.len() >= 1024, "grew to {}", l.slots.len());
        for k in 0..1000 {
            assert_eq!(l.pop_lru(), Some(k * 7919));
        }
    }

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
