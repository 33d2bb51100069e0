//! Flat, tiled storage for the inter-node coherence directory.
//!
//! The directory used to be a `HashMap<u64, DirState>` — fine for
//! correctness, but every miss paid a pointer-chased probe through
//! `std`'s control-byte groups plus an enum load from a separate heap
//! allocation.  [`DirTable`] keeps the same `get` / `insert` / `remove`
//! contract in one flat allocation of per-group **tiles**, mirroring the
//! struct-of-arrays layout of `cache.rs`:
//!
//! ```text
//! tile t  ->  [ key_0 .. key_7 | meta_0 .. meta_7 ]
//!             meta_i = 0                   (empty)
//!                    | 1                   (tombstone)
//!                    | sharer_mask << 2|2  (Shared)
//!                    | owner      << 2|3   (Exclusive)
//! ```
//!
//! A probe lands in one tile and scans eight keys then eight packed
//! metas, all contiguous — the common directory hit touches two cache
//! lines of simulator-host memory.  Occupancy lives in the meta word, so
//! keys need no reserved sentinel values and any `u64` block number is a
//! valid key.
//!
//! The table is open-addressed with linear probing over slots (tiles are
//! a layout detail, not a probe boundary), grows at ~¾ load, and is
//! never iterated — so bucket order is unobservable and simulation
//! results are bit-identical to the `HashMap` it replaced.  That
//! equivalence is pinned by a property test in
//! `crates/sim/tests/dirtable_model.rs` against a naive map-based model.

use crate::util::splitmix64;

/// Slots per tile; one tile is `2 * LANES` contiguous `u64`s.
const LANES: usize = 8;

const META_EMPTY: u64 = 0;
const META_TOMBSTONE: u64 = 1;
const TAG_SHARED: u64 = 2;
const TAG_EXCLUSIVE: u64 = 3;

/// Directory entry for one coherence block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirEntry {
    /// Clean copies at the nodes in the bitmask.
    Shared(u64),
    /// Dirty, exclusively owned by one node.
    Exclusive(usize),
}

impl DirEntry {
    #[inline]
    fn pack(self) -> u64 {
        match self {
            DirEntry::Shared(mask) => {
                debug_assert!(mask < 1 << 62, "sharer mask overflows packed meta");
                (mask << 2) | TAG_SHARED
            }
            DirEntry::Exclusive(owner) => ((owner as u64) << 2) | TAG_EXCLUSIVE,
        }
    }

    #[inline]
    fn unpack(meta: u64) -> DirEntry {
        if meta & 0b11 == TAG_SHARED {
            DirEntry::Shared(meta >> 2)
        } else {
            DirEntry::Exclusive((meta >> 2) as usize)
        }
    }
}

/// Flat open-addressed block → [`DirEntry`] table (see module docs).
#[derive(Debug, Clone)]
pub struct DirTable {
    /// Tiled storage: `tiles * 2 * LANES` words.
    data: Vec<u64>,
    /// Slot-count mask (`slots - 1`; slot count is a power of two).
    mask: usize,
    /// Occupied (non-tombstone) slots.
    len: usize,
    /// Occupied + tombstoned slots — growth trigger.
    used: usize,
}

impl Default for DirTable {
    fn default() -> Self {
        DirTable::with_capacity(0)
    }
}

impl DirTable {
    /// New table pre-sized for about `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(LANES) * 4 / 3).next_power_of_two();
        DirTable {
            data: vec![0; slots * 2],
            mask: slots - 1,
            len: 0,
            used: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(key_index, meta_index)` of slot `i` in the tiled layout.
    #[inline]
    fn lanes(&self, i: usize) -> (usize, usize) {
        let tile = i / LANES;
        let lane = i % LANES;
        let base = tile * 2 * LANES;
        (base + lane, base + LANES + lane)
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<DirEntry> {
        let mut i = splitmix64(key) as usize & self.mask;
        loop {
            let (ki, mi) = self.lanes(i);
            let meta = self.data[mi];
            if meta == META_EMPTY {
                return None;
            }
            if meta != META_TOMBSTONE && self.data[ki] == key {
                return Some(DirEntry::unpack(meta));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert or replace the entry for `key`.
    #[inline]
    pub fn insert(&mut self, key: u64, entry: DirEntry) {
        // Growth check up front keeps at least one empty slot, so probes
        // below always terminate.
        if (self.used + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
        }
        let packed = entry.pack();
        let mut i = splitmix64(key) as usize & self.mask;
        let mut grave: Option<usize> = None;
        loop {
            let (ki, mi) = self.lanes(i);
            let meta = self.data[mi];
            if meta == META_EMPTY {
                // New key: reuse the first tombstone on the probe path if
                // one was seen, else claim this empty slot.
                let slot = match grave {
                    Some(g) => g,
                    None => {
                        self.used += 1;
                        i
                    }
                };
                let (ki, mi) = self.lanes(slot);
                self.data[ki] = key;
                self.data[mi] = packed;
                self.len += 1;
                return;
            }
            if meta == META_TOMBSTONE {
                grave.get_or_insert(i);
            } else if self.data[ki] == key {
                self.data[mi] = packed;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Remove `key`; returns the entry it held, if any.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<DirEntry> {
        let mut i = splitmix64(key) as usize & self.mask;
        loop {
            let (ki, mi) = self.lanes(i);
            let meta = self.data[mi];
            if meta == META_EMPTY {
                return None;
            }
            if meta != META_TOMBSTONE && self.data[ki] == key {
                self.data[mi] = META_TOMBSTONE;
                self.len -= 1;
                return Some(DirEntry::unpack(meta));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Double the slot count and rehash every live entry (drops
    /// tombstones).
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.data, vec![0; (self.mask + 1) * 4]);
        self.mask = self.mask * 2 + 1;
        self.len = 0;
        self.used = 0;
        let slots = old.len() / 2;
        for i in 0..slots {
            let tile = i / LANES;
            let lane = i % LANES;
            let base = tile * 2 * LANES;
            let meta = old[base + LANES + lane];
            if meta > META_TOMBSTONE {
                self.insert(old[base + lane], DirEntry::unpack(meta));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = DirTable::default();
        assert!(t.is_empty());
        t.insert(7, DirEntry::Shared(0b101));
        t.insert(9, DirEntry::Exclusive(3));
        assert_eq!(t.get(7), Some(DirEntry::Shared(0b101)));
        assert_eq!(t.get(9), Some(DirEntry::Exclusive(3)));
        assert_eq!(t.get(8), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(7), Some(DirEntry::Shared(0b101)));
        assert_eq!(t.remove(7), None);
        assert_eq!(t.get(7), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn overwrite_replaces_in_place() {
        let mut t = DirTable::default();
        t.insert(42, DirEntry::Shared(1));
        t.insert(42, DirEntry::Exclusive(5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(42), Some(DirEntry::Exclusive(5)));
    }

    #[test]
    fn tombstone_slots_are_reused() {
        let mut t = DirTable::with_capacity(8);
        for k in 0..6u64 {
            t.insert(k, DirEntry::Exclusive(k as usize));
        }
        for k in 0..6u64 {
            assert!(t.remove(k).is_some());
        }
        // Re-inserting through the tombstoned probe paths must not grow
        // or lose entries.
        for k in 0..6u64 {
            t.insert(k, DirEntry::Shared(1 << k));
        }
        for k in 0..6u64 {
            assert_eq!(t.get(k), Some(DirEntry::Shared(1 << k)));
        }
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = DirTable::with_capacity(4);
        for k in 0..10_000u64 {
            t.insert(
                k.wrapping_mul(0x9E3779B97F4A7C15),
                DirEntry::Shared(k & 0x3F),
            );
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(
                t.get(k.wrapping_mul(0x9E3779B97F4A7C15)),
                Some(DirEntry::Shared(k & 0x3F))
            );
        }
    }

    #[test]
    fn extreme_keys_are_valid() {
        // Occupancy lives in the meta word, so no key value is reserved.
        let mut t = DirTable::default();
        for k in [0u64, 1, u64::MAX, u64::MAX - 1] {
            t.insert(k, DirEntry::Exclusive(0));
            assert_eq!(t.get(k), Some(DirEntry::Exclusive(0)));
        }
        assert_eq!(t.len(), 4);
    }
}
