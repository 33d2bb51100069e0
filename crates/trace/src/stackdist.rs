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
//! The work splits into two stages that share nothing but the stream of
//! old slots between them:
//!
//! - the **slot stage** (`SlotStage`) owns the block table and turns
//!   each address into the slot of its block's previous reference, or
//!   "cold";
//! - the **count stage** (`CountStage`) owns the hole bitset with a
//!   Fenwick tree over its 64-slot words, evaluates the formula above
//!   and records the distance in the histogram.  A short gap resolves by
//!   popcount on one or two words, a long one adds one range query, and
//!   each reuse makes one word update.  A cold reference touches no
//!   bitset or tree at all.
//!
//! Both stages advance `now` by one per reference, so they agree slot
//! for slot.  [`StackDistanceAnalyzer`] runs
//! them back to back on every access; the streaming fitter
//! ([`StreamAnalyzer`](crate::StreamAnalyzer)) runs the count stage on a
//! thread of its own.
//!
//! When the slots run out, the slot stage compacts: every slot that no
//! table bucket holds is a hole, so it renumbers the live blocks in order
//! from the table alone and starts a hole-free slot space of `SLOT_FACTOR` ×
//! live blocks (at least `INITIAL_SLOTS`), so a compaction is amortized
//! over ≥ 7 references per live block.  It hands the count stage the new
//! `now` and an empty slot space of the same size.  Memory is
//! `O(live blocks)`, time `O(log M)` per reference.
//!
//! [`NaiveStackDistance`] is the obviously-correct `O(M · B)` reference
//! implementation (an explicit LRU stack) used by the property tests.

use crate::histogram::DistanceHistogram;

/// Slot space after a compaction, as a multiple of the live blocks.
const SLOT_FACTOR: usize = 8;
/// Slot space before the first compaction, and its floor after.
const INITIAL_SLOTS: usize = 1 << 16;
/// Largest slot space: every slot fits a `u32` below [`EMPTY`].
const MAX_SLOTS: usize = u32::MAX as usize & !63;
/// Bucket slot of an empty table bucket.  Slots stay below
/// [`MAX_SLOTS`], so occupancy needs no reserved key and every `u64`
/// block is a valid key.
const EMPTY: u32 = u32::MAX;
/// What the slot stage reports for a block's first reference: no slot
/// is ever this large.
pub(crate) const COLD: u32 = EMPTY;

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

/// The count stage's holes: a bitset over the slot space plus a Fenwick
/// tree of per-word hole counts (1-based: `tree[i]` sums the words ending
/// at word `i - 1`).
pub(crate) struct Holes {
    bits: Vec<u64>,
    tree: Vec<u32>,
}

impl Holes {
    fn new(slots: usize) -> Self {
        let bits = vec![0; slots / 64];
        let tree = vec![0; bits.len() + 1];
        Holes { bits, tree }
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

    fn state_bytes(&self) -> u64 {
        (self.bits.len() * 8 + self.tree.len() * 4) as u64
    }
}

/// A compaction as the slot stage reports it to the count stage.
pub(crate) struct Compaction {
    /// The slot the next reference takes: the live blocks now hold slots
    /// `0..now`.
    now: usize,
    /// The count stage's new, hole-free slot space.  The slot stage
    /// allocates it so that it comes from the caller's heap when the
    /// count stage runs on a worker thread: allocated there, it left the
    /// worker's malloc arena holding about 1 MB more peak memory.
    holes: Holes,
}

/// The slot stage: the block table over a slot space of `slots`.
pub(crate) struct SlotStage {
    /// `log2(granularity)`.
    shift: u32,
    /// Block → slot of its most recent access.
    blocks: BlockTable,
    /// Size of the slot space, a multiple of 64.
    slots: usize,
    /// The slot the next reference takes.
    now: usize,
    live: u32,
}

impl SlotStage {
    pub(crate) fn new(granularity: u64) -> Self {
        assert!(
            granularity.is_power_of_two(),
            "granularity must be a power of two"
        );
        SlotStage {
            shift: granularity.trailing_zeros(),
            blocks: BlockTable::new(),
            slots: INITIAL_SLOTS,
            now: 0,
            live: 0,
        }
    }

    /// Whether the slot space is used up: the next reference must
    /// [`compact`](SlotStage::compact) first.
    #[inline]
    pub(crate) fn full(&self) -> bool {
        self.now == self.slots
    }

    /// Take the next slot for a reference to byte address `addr`,
    /// returning the slot of its block's previous reference, or [`COLD`].
    /// The slot space must not be [`full`](SlotStage::full).
    #[inline]
    pub(crate) fn next(&mut self, addr: u64) -> u32 {
        debug_assert!(!self.full(), "compact before taking a slot");
        let now = self.now as u32;
        self.now += 1;
        match self.blocks.replace(addr >> self.shift, now) {
            Some(old) => old,
            None => {
                self.live += 1;
                COLD
            }
        }
    }

    /// Squeeze the holes out of the full slot space: renumber every live
    /// block by its rank, then start a hole-free space of
    /// `SLOT_FACTOR × live` slots.  Amortized O(1) per reference.
    pub(crate) fn compact(&mut self) -> Compaction {
        let live = self.live as usize;
        assert!(live < MAX_SLOTS, "more live blocks than u32 slots");
        // The buckets hold exactly the live slots; each moves to the
        // number of live slots before it.
        let mut bits = vec![0u64; self.slots / 64];
        for b in self.blocks.buckets.iter().filter(|b| b.slot != EMPTY) {
            bits[b.slot as usize / 64] |= 1 << (b.slot % 64);
        }
        let mut before = 0;
        let prefix: Vec<u32> = bits
            .iter()
            .map(|word| {
                let at = before;
                before += word.count_ones();
                at
            })
            .collect();
        for b in self.blocks.buckets.iter_mut().filter(|b| b.slot != EMPTY) {
            let (w, bit) = (b.slot as usize / 64, b.slot % 64);
            b.slot = prefix[w] + (bits[w] & ((1u64 << bit) - 1)).count_ones();
        }
        let slots = (live * SLOT_FACTOR)
            .next_multiple_of(64)
            .clamp(INITIAL_SLOTS, MAX_SLOTS);
        self.slots = slots;
        self.now = live;
        Compaction {
            now: live,
            holes: Holes::new(slots),
        }
    }

    /// Number of distinct blocks seen so far.
    pub(crate) fn unique_blocks(&self) -> u32 {
        self.live
    }

    /// Table buckets, in bytes.
    pub(crate) fn state_bytes(&self) -> u64 {
        (self.blocks.buckets.len() * std::mem::size_of::<Bucket>()) as u64
    }
}

/// The count stage: its holes and the distance histogram.
pub(crate) struct CountStage {
    holes: Holes,
    /// The slot of the next reference; tracks the slot stage's.
    now: usize,
    hist: DistanceHistogram,
}

impl CountStage {
    pub(crate) fn new(granularity: u64) -> Self {
        CountStage {
            holes: Holes::new(INITIAL_SLOTS),
            now: 0,
            hist: DistanceHistogram::new(granularity),
        }
    }

    /// Count the reference whose previous slot the slot stage reported as
    /// `old` ([`COLD`] for a first reference): record its distance and
    /// return it.
    #[inline]
    pub(crate) fn count(&mut self, old: u32) -> Option<u64> {
        let now = self.now;
        self.now += 1;
        let d = if old == COLD {
            None
        } else {
            let old = old as usize;
            let d = (now - old - 1) as u32 - self.holes.between(old, now);
            self.holes.set(old);
            Some(u64::from(d))
        };
        self.hist.record(d);
        d
    }

    /// Follow the slot stage into its compacted, hole-free space.
    pub(crate) fn compact(&mut self, c: Compaction) {
        self.holes = c.holes;
        self.now = c.now;
    }

    /// The distances counted so far.
    pub(crate) fn histogram(&self) -> &DistanceHistogram {
        &self.hist
    }

    pub(crate) fn into_histogram(self) -> DistanceHistogram {
        self.hist
    }

    /// Hole bitset, Fenwick words and histogram buckets, in bytes.
    pub(crate) fn state_bytes(&self) -> u64 {
        self.holes.state_bytes() + self.hist.state_bytes()
    }
}

/// Streaming exact stack-distance analyzer over block addresses.
///
/// Addresses are mapped to blocks of `granularity` bytes before analysis;
/// distances are counted in **blocks** and can be converted to bytes with
/// [`StackDistanceAnalyzer::granularity`].
pub struct StackDistanceAnalyzer {
    granularity: u64,
    slots: SlotStage,
    count: CountStage,
}

impl StackDistanceAnalyzer {
    /// Create an analyzer mapping addresses to `granularity`-byte blocks
    /// (`granularity` must be a power of two; 64 = cache-line granularity).
    pub fn new(granularity: u64) -> Self {
        StackDistanceAnalyzer {
            granularity,
            slots: SlotStage::new(granularity),
            count: CountStage::new(granularity),
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
        if self.slots.full() {
            self.count.compact(self.slots.compact());
        }
        self.count.count(self.slots.next(addr))
    }

    /// Number of distinct blocks seen so far.
    pub fn unique_blocks(&self) -> u32 {
        self.slots.unique_blocks()
    }

    /// Deterministic size of the analyzer's resident state in bytes (the
    /// slot stage's table buckets, the count stage's hole bitset, Fenwick
    /// words and histogram buckets), computed from
    /// container lengths so identical inputs report identical sizes.
    /// This is what the out-of-core pipeline's memory-bound assertions
    /// measure: it scales with *live blocks*, never with trace length.
    /// Per live block that is 12 B table buckets at 7/16–7/8 load plus
    /// 1.5 B for its eight slots (a bitset byte and half a Fenwick word):
    /// about 15–29 B.
    pub fn state_bytes(&self) -> u64 {
        self.slots.state_bytes() + self.count.state_bytes()
    }

    /// The accumulated distance histogram (distances in blocks; the
    /// histogram knows the byte granularity for CDF conversion).
    pub fn histogram(&self) -> DistanceHistogram {
        self.count.histogram().clone()
    }

    /// Consume the analyzer, returning the histogram without cloning.
    pub fn into_histogram(self) -> DistanceHistogram {
        self.count.into_histogram()
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
        for _ in 0..(INITIAL_SLOTS * 3) {
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
