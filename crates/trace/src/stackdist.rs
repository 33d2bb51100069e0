//! Exact LRU stack-distance computation.
//!
//! The stack distance of a reference is the number of **distinct other
//! blocks** referenced since the previous reference to the same block
//! (∞ for a block's first reference).  A reference hits in a
//! fully-associative LRU store of capacity `C` blocks iff its stack
//! distance is `< C`.
//!
//! [`StackDistanceAnalyzer`] is a Bennett–Kruskal analyzer that counts
//! *holes* rather than live flags.  Every reference takes the next time
//! slot, and a flat block table remembers each block's latest slot.  When
//! a block is reused, its old slot becomes a hole.  Each slot before `now`
//! is either some block's latest reference or a hole, so the distance of
//! a reuse whose previous slot was `old` is
//!
//! ```text
//! d = (now − old − 1) − holes in (old, now)
//! ```
//!
//! Holes are one bit per slot, with a Fenwick tree over the 64-slot
//! words: a short gap resolves by popcount on one or two words, a long one
//! adds one range query, and each reuse makes one word update.  A cold
//! reference touches no bitset or tree at all.
//!
//! When the slots run out, compaction renumbers the live blocks in order.
//! Afterwards there are no holes, so the bitset and tree are simply
//! zeroed.  The slot space is then `SLOT_FACTOR` × live blocks (at least
//! `INITIAL_SLOTS`), so a compaction is amortized over ≥ 7 references per
//! live block.  Memory is `O(live blocks)`, time `O(log M)` per reference.
//!
//! [`NaiveStackDistance`] is the obviously-correct `O(M · B)` reference
//! implementation (an explicit LRU stack) used by the property tests.

use crate::histogram::DistanceHistogram;

/// Slot space after a compaction, as a multiple of the live blocks.
const SLOT_FACTOR: usize = 8;
/// Largest slot space: every slot fits a `u32` below [`EMPTY`].
const MAX_SLOTS: usize = u32::MAX as usize & !63;
/// Bucket slot of an empty table bucket.  Slots stay below
/// [`MAX_SLOTS`], so occupancy needs no reserved key and every `u64`
/// block is a valid key.
const EMPTY: u32 = u32::MAX;

/// One block-table bucket: the block key (split into halves so a bucket
/// packs into 12 bytes) and the slot of its latest reference.
#[derive(Clone, Copy)]
struct Bucket {
    key: [u32; 2],
    slot: u32,
}

impl Bucket {
    const VACANT: Bucket = Bucket {
        key: [0; 2],
        slot: EMPTY,
    };

    #[inline]
    fn split(key: u64) -> [u32; 2] {
        [key as u32, (key >> 32) as u32]
    }
}

/// Flat block → latest-slot map, open-addressed with linear probing.
/// Blocks are never deleted, so there are no tombstones; the table grows
/// at 7/8 load, like `std`'s.
struct BlockTable {
    buckets: Vec<Bucket>,
    /// Bucket-count mask (the count is a power of two).
    mask: usize,
    len: usize,
}

impl BlockTable {
    const INITIAL_BUCKETS: usize = 1 << 10;

    fn new() -> Self {
        BlockTable {
            buckets: vec![Bucket::VACANT; Self::INITIAL_BUCKETS],
            mask: Self::INITIAL_BUCKETS - 1,
            len: 0,
        }
    }

    /// splitmix64 finalizer — the same mixing as `memhier-sim`'s
    /// `DirTable`.
    #[inline]
    fn hash(key: u64) -> u64 {
        let mut z = key ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Record `slot` as `key`'s latest slot, returning the previous one
    /// (`None` for a new key).
    #[inline]
    fn replace(&mut self, key: u64, slot: u32) -> Option<u32> {
        let want = Bucket::split(key);
        let mut i = Self::hash(key) as usize & self.mask;
        loop {
            let b = &mut self.buckets[i];
            if b.slot == EMPTY {
                *b = Bucket { key: want, slot };
                self.len += 1;
                if self.len * 8 > self.buckets.len() * 7 {
                    self.grow();
                }
                return None;
            }
            if b.key == want {
                return Some(std::mem::replace(&mut b.slot, slot));
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let doubled = vec![Bucket::VACANT; self.buckets.len() * 2];
        let old = std::mem::replace(&mut self.buckets, doubled);
        self.mask = self.buckets.len() - 1;
        for b in old.into_iter().filter(|b| b.slot != EMPTY) {
            let key = u64::from(b.key[0]) | u64::from(b.key[1]) << 32;
            let mut i = Self::hash(key) as usize & self.mask;
            while self.buckets[i].slot != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.buckets[i] = b;
        }
    }
}

/// Hole bitset over the slot space plus a Fenwick tree of per-word hole
/// counts (1-based: `tree[i]` sums the words ending at word `i - 1`).
struct Holes {
    bits: Vec<u64>,
    tree: Vec<u32>,
}

impl Holes {
    fn new(slots: usize) -> Self {
        let words = slots / 64;
        Holes {
            bits: vec![0; words],
            tree: vec![0; words + 1],
        }
    }

    fn slots(&self) -> usize {
        self.bits.len() * 64
    }

    /// Mark `slot` a hole.
    #[inline]
    fn set(&mut self, slot: usize) {
        let w = slot / 64;
        self.bits[w] |= 1 << (slot % 64);
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Holes strictly between slots `lo < hi`.
    #[inline]
    fn between(&self, lo: usize, hi: usize) -> u32 {
        let (wl, wh) = (lo / 64, hi / 64);
        let above = !0u64 << (lo % 64) << 1;
        let below = (1u64 << (hi % 64)) - 1;
        if wl == wh {
            return (self.bits[wl] & above & below).count_ones();
        }
        let ends = (self.bits[wl] & above).count_ones() + (self.bits[wh] & below).count_ones();
        if wh == wl + 1 {
            return ends;
        }
        // Words wl+1 .. wh: prefix(wh) − prefix(wl + 1), walking the
        // larger index down until the two walks meet.
        let (mut i, mut j) = (wh, wl + 1);
        let mut sum = ends;
        while i != j {
            if i > j {
                sum = sum.wrapping_add(self.tree[i]);
                i &= i - 1;
            } else {
                sum = sum.wrapping_sub(self.tree[j]);
                j &= j - 1;
            }
        }
        sum
    }

    /// Close up the holes: move each live slot in `live` down by the
    /// holes before it.  Uses the tree as scratch space for per-word
    /// prefix counts, so the caller starts a fresh space afterwards.
    fn close_up<'a>(&mut self, live: impl Iterator<Item = &'a mut u32>) {
        let mut before = 0;
        for (w, &word) in self.bits.iter().enumerate() {
            self.tree[w] = before;
            before += word.count_ones();
        }
        for slot in live {
            let (w, b) = (*slot as usize / 64, *slot % 64);
            *slot -= self.tree[w] + (self.bits[w] & ((1u64 << b) - 1)).count_ones();
        }
    }
}

/// Streaming exact stack-distance analyzer over block addresses.
///
/// Addresses are mapped to blocks of `granularity` bytes before analysis;
/// distances are counted in **blocks** and can be converted to bytes with
/// [`StackDistanceAnalyzer::granularity`].
pub struct StackDistanceAnalyzer {
    granularity: u64,
    /// `log2(granularity)`.
    shift: u32,
    /// Block → slot of its most recent access.
    blocks: BlockTable,
    holes: Holes,
    /// The slot the next reference takes.
    now: usize,
    live: u32,
    hist: DistanceHistogram,
}

impl StackDistanceAnalyzer {
    /// Slot space before the first compaction, and its floor after.
    const INITIAL_SLOTS: usize = 1 << 16;

    /// Create an analyzer mapping addresses to `granularity`-byte blocks
    /// (`granularity` must be a power of two; 64 = cache-line granularity).
    pub fn new(granularity: u64) -> Self {
        assert!(
            granularity.is_power_of_two(),
            "granularity must be a power of two"
        );
        StackDistanceAnalyzer {
            granularity,
            shift: granularity.trailing_zeros(),
            blocks: BlockTable::new(),
            holes: Holes::new(Self::INITIAL_SLOTS),
            now: 0,
            live: 0,
            hist: DistanceHistogram::new(granularity),
        }
    }

    /// The block size in bytes distances are counted in.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Process one reference to byte address `addr`.  Returns the stack
    /// distance in blocks, or `None` for a cold (first) reference.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        if self.now == self.holes.slots() {
            self.compact();
        }
        let now = self.now;
        self.now += 1;
        let d = match self.blocks.replace(addr >> self.shift, now as u32) {
            Some(old) => {
                let old = old as usize;
                let d = (now - old - 1) as u32 - self.holes.between(old, now);
                self.holes.set(old);
                Some(u64::from(d))
            }
            None => {
                self.live += 1;
                None
            }
        };
        self.hist.record(d);
        d
    }

    /// Squeeze the holes out of the full slot space: renumber every live
    /// block by its rank, then start a hole-free space of
    /// `SLOT_FACTOR × live` slots.  Amortized O(1) per reference.
    fn compact(&mut self) {
        let live = self.live as usize;
        assert!(live < MAX_SLOTS, "more live blocks than u32 slots");
        self.holes.close_up(
            self.blocks
                .buckets
                .iter_mut()
                .filter(|b| b.slot != EMPTY)
                .map(|b| &mut b.slot),
        );
        let slots = (live * SLOT_FACTOR)
            .next_multiple_of(64)
            .clamp(Self::INITIAL_SLOTS, MAX_SLOTS);
        self.holes = Holes::new(slots);
        self.now = live;
    }

    /// Number of distinct blocks seen so far.
    pub fn unique_blocks(&self) -> u32 {
        self.live
    }

    /// Deterministic size of the analyzer's resident state in bytes
    /// (block table buckets + hole bitset + Fenwick words + histogram
    /// buckets), computed from container lengths so identical inputs
    /// report identical sizes.  This is what the out-of-core pipeline's
    /// memory-bound assertions measure: it scales with *live blocks*,
    /// never with trace length.  Per live block that is 12 B table
    /// buckets at 7/16–7/8 load plus 1.5 B for its eight slots (a bitset
    /// byte and half a Fenwick word): about 15–29 B.
    pub fn state_bytes(&self) -> u64 {
        let table = self.blocks.buckets.len() * std::mem::size_of::<Bucket>();
        let holes = self.holes.bits.len() * 8 + self.holes.tree.len() * 4;
        (table + holes) as u64 + self.hist.state_bytes()
    }

    /// The accumulated distance histogram (distances in blocks; the
    /// histogram knows the byte granularity for CDF conversion).
    pub fn histogram(&self) -> DistanceHistogram {
        self.hist.clone()
    }

    /// Consume the analyzer, returning the histogram without cloning.
    pub fn into_histogram(self) -> DistanceHistogram {
        self.hist
    }
}

/// Reference `O(M · B)` implementation: an explicit LRU stack of blocks.
pub struct NaiveStackDistance {
    granularity: u64,
    /// Stack, most recently used first.
    stack: Vec<u64>,
}

impl NaiveStackDistance {
    /// See [`StackDistanceAnalyzer::new`].
    pub fn new(granularity: u64) -> Self {
        assert!(granularity.is_power_of_two());
        NaiveStackDistance {
            granularity,
            stack: Vec::new(),
        }
    }

    /// Process one reference; returns the stack distance in blocks
    /// (`None` = cold).
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        let block = addr / self.granularity;
        match self.stack.iter().position(|&b| b == block) {
            Some(pos) => {
                self.stack.remove(pos);
                self.stack.insert(0, block);
                Some(pos as u64)
            }
            None => {
                self.stack.insert(0, block);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn simple_sequence() {
        // Blocks: A B A C B A D A (granularity 1 byte-block = 1)
        let mut an = StackDistanceAnalyzer::new(1);
        assert_eq!(an.access(0), None); // A cold
        assert_eq!(an.access(1), None); // B cold
        assert_eq!(an.access(0), Some(1)); // A: {B} in between
        assert_eq!(an.access(2), None); // C cold
        assert_eq!(an.access(1), Some(2)); // B: {A, C}
        assert_eq!(an.access(0), Some(2)); // A: {C, B}
        assert_eq!(an.access(3), None); // D cold
        assert_eq!(an.access(0), Some(1)); // A: {D}
        assert_eq!(an.unique_blocks(), 4);
    }

    #[test]
    fn repeated_same_block_distance_zero() {
        let mut an = StackDistanceAnalyzer::new(64);
        an.access(0);
        for _ in 0..10 {
            assert_eq!(an.access(32), Some(0)); // same 64-byte block as 0
        }
    }

    #[test]
    fn granularity_maps_addresses() {
        let mut an = StackDistanceAnalyzer::new(64);
        assert_eq!(an.access(0), None);
        assert_eq!(an.access(63), Some(0)); // same block
        assert_eq!(an.access(64), None); // next block
        assert_eq!(an.access(0), Some(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_granularity() {
        StackDistanceAnalyzer::new(48);
    }

    #[test]
    fn matches_naive_on_random_trace() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut fast = StackDistanceAnalyzer::new(1);
        let mut slow = NaiveStackDistance::new(1);
        for _ in 0..20_000 {
            // Skewed toward small addresses for realistic reuse.
            let addr = (rng.gen::<f64>().powi(3) * 500.0) as u64;
            assert_eq!(fast.access(addr), slow.access(addr));
        }
    }

    #[test]
    fn matches_naive_across_compactions() {
        // Force many compactions with a tiny index space by driving more
        // references than INITIAL_SLOTS.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut fast = StackDistanceAnalyzer::new(1);
        let mut slow = NaiveStackDistance::new(1);
        for _ in 0..(StackDistanceAnalyzer::INITIAL_SLOTS * 3) {
            let addr = rng.gen_range(0u64..300);
            assert_eq!(fast.access(addr), slow.access(addr));
        }
    }

    #[test]
    fn sequential_scan_distances() {
        // A scan never reuses: all cold.
        let mut an = StackDistanceAnalyzer::new(1);
        for i in 0..1000u64 {
            assert_eq!(an.access(i), None);
        }
        // Second scan of the same data: every distance = unique − 1 = 999.
        for i in 0..1000u64 {
            assert_eq!(an.access(i), Some(999));
        }
    }

    #[test]
    fn histogram_totals_match() {
        let mut an = StackDistanceAnalyzer::new(1);
        for i in 0..100u64 {
            an.access(i % 10);
        }
        let h = an.histogram();
        assert_eq!(h.total_refs(), 100);
        assert_eq!(h.cold_refs(), 10);
    }
}
