//! A synthetic commercial (TPC-C-like) workload.
//!
//! The paper characterizes TPC-C as an aside in §5.2: α = 1.73,
//! β = 1222.66, ρ = 0.36 — locality an order of magnitude worse (β over
//! 10×) than any of the scientific kernels.  Real TPC-C traces are
//! proprietary, so we synthesize a stream with the published parameters
//! (DESIGN.md substitution 3): each process draws stack distances from the
//! target `(α, β)` distribution over a mix of a **private region**
//! (its own warehouse data) and a **shared region** (the common tables),
//! with a TPC-C-ish 30% write ratio and compute padding tuned to ρ ≈ 0.36.

use crate::spmd::{SpmdCtx, SpmdProgram};
use crate::traced::{AddressSpace, TracedArray, CELL_BYTES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Paper-published TPC-C locality parameters.
pub const TPCC_ALPHA: f64 = 1.73;
/// See [`TPCC_ALPHA`].
pub const TPCC_BETA: f64 = 1222.66;
/// See [`TPCC_ALPHA`].
pub const TPCC_RHO: f64 = 0.36;

/// The synthetic commercial workload instance.
pub struct TpccProgram {
    procs: usize,
    /// Simulated references per process.
    refs_per_proc: usize,
    /// Private per-process database slices.
    private: TracedArray<u64>,
    /// Cells per private slice.
    private_cells: usize,
    /// Shared tables.
    shared: TracedArray<u64>,
    seed: u64,
}

/// Fraction of accesses into the shared region.
const SHARED_MIX: f64 = 0.2;
/// Fraction of accesses that are writes.
const WRITE_MIX: f64 = 0.3;

impl TpccProgram {
    /// Build with `db_cells` cells per process region (plus a shared
    /// region of the same size) and `refs_per_proc` accesses per process.
    pub fn new(db_cells: usize, refs_per_proc: usize, procs: usize, seed: u64) -> Arc<Self> {
        assert!(db_cells >= 16);
        let mut sp = AddressSpace::default();
        let private =
            TracedArray::new_with(sp.alloc(db_cells * procs), db_cells * procs, |i| i as u64);
        let shared = TracedArray::new_with(sp.alloc(db_cells), db_cells, |i| i as u64);
        Arc::new(TpccProgram {
            procs,
            refs_per_proc,
            private,
            private_cells: db_cells,
            shared,
            seed,
        })
    }
}

/// An LRU-stack distance sampler over a bounded line set (the classic
/// stack-model generator, kept here so the workload crate needs no
/// dependency on the analysis crate).
///
/// The stack is held as *recency slots* rather than an explicit list:
/// every touch of a line takes the next slot, so live slots in ascending
/// order are the stack from coldest to hottest.  The line at depth `d`
/// is the live slot of rank `live − 1 − d`, found by a Fenwick descent
/// over per-word live counts plus a select inside one word.  A touch
/// frees the line's old slot and fills slot `now`, both `O(log n)`
/// instead of the two footprint-long memmoves of a `Vec` stack.  When the
/// slots run out, compaction renumbers the live slots in order, so the
/// ranks — and therefore every returned index — are exactly those of the
/// explicit stack.
struct StackSampler {
    beta_lines: f64,
    /// `−1/(α−1)`, the exponent of the inverse CDF.
    exponent: f64,
    /// Lines handed out so far.  None ever leaves the stack, so this is
    /// also the stack depth (the live slot count).
    next: usize,
    max: usize,
    slots: RecencySlots,
    /// The slot the next touch takes.
    now: usize,
}

impl StackSampler {
    /// `max` counts 64-byte lines; β converts from bytes to lines.
    fn new(alpha: f64, beta_bytes: f64, max_lines: usize) -> Self {
        let max = max_lines.max(1);
        assert!(max <= u32::MAX as usize, "line index must fit a u32");
        StackSampler {
            beta_lines: beta_bytes / (CELL_BYTES * 8) as f64,
            exponent: -1.0 / (alpha - 1.0),
            next: 0,
            max,
            slots: RecencySlots::default(),
            now: 0,
        }
    }

    /// Draw the next line index to access.
    fn next_index(&mut self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen();
        let d = (self.beta_lines * ((1.0 - u).powf(self.exponent) - 1.0)).min(1e12) as usize;
        let line = if d < self.next {
            self.slots.take((self.next - 1 - d) as u32)
        } else if self.next < self.max {
            self.next += 1;
            (self.next - 1) as u32
        } else {
            // Footprint exhausted: recycle the coldest entry.
            self.slots.take(0)
        };
        // The old slot (if any) is already dead here, so compaction
        // cannot carry it into the new numbering.
        if self.now == self.slots.len() {
            self.now = self.slots.compact();
        }
        self.slots.fill(self.now, line);
        self.now += 1;
        line as usize
    }

    /// Stack depth: the number of distinct lines handed out.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.next
    }
}

/// Live-slot bitset over the recency slots, a Fenwick tree of per-word
/// live counts (1-based: `tree[i]` sums the words ending at word `i − 1`),
/// and the line held by each slot.  It starts with no slots; the first
/// touch compacts, which sizes the space.
#[derive(Default)]
struct RecencySlots {
    bits: Vec<u64>,
    tree: Vec<u32>,
    line: Vec<u32>,
}

impl RecencySlots {
    /// Smallest slot space.
    const MIN_SLOTS: usize = 1024;
    /// Slot space after a compaction, as a multiple of the live slots: a
    /// compaction is amortized over at least one touch per live line, and
    /// the space stays about 8.4 B per line (a `Vec<usize>` stack took 8–16).
    const SLOT_FACTOR: usize = 2;

    fn len(&self) -> usize {
        self.line.len()
    }

    /// Add `delta` (wrapping, so `u32::MAX` subtracts one) to word `w`'s
    /// count.
    #[inline]
    fn add(&mut self, w: usize, delta: u32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Put `line` in the empty `slot`.
    #[inline]
    fn fill(&mut self, slot: usize, line: u32) {
        self.bits[slot / 64] |= 1 << (slot % 64);
        self.line[slot] = line;
        self.add(slot / 64, 1);
    }

    /// Empty the live slot of 0-based `rank` and return its line.
    #[inline]
    fn take(&mut self, rank: u32) -> u32 {
        let slot = self.select(rank);
        self.bits[slot / 64] &= !(1 << (slot % 64));
        self.add(slot / 64, u32::MAX);
        self.line[slot]
    }

    /// The live slot of 0-based `rank` in ascending slot order.
    #[inline]
    fn select(&self, mut rank: u32) -> usize {
        let words = self.tree.len() - 1;
        let mut w = 0;
        let mut step = 1 << words.ilog2();
        while step > 0 {
            // Branch-free: each level's comparison is a coin flip.
            let count = self.tree.get(w + step).copied().unwrap_or(u32::MAX);
            let down = count <= rank;
            w += step * usize::from(down);
            rank -= count * u32::from(down);
            step >>= 1;
        }
        w * 64 + select_in_word(self.bits[w], rank)
    }

    /// Renumber the live slots `0..live` in order, size the space to
    /// `SLOT_FACTOR × live` slots (at least `MIN_SLOTS`), rebuild the tree
    /// in O(n), and return `live`, the first free slot.
    fn compact(&mut self) -> usize {
        let mut live = 0;
        for w in 0..self.bits.len() {
            let mut word = self.bits[w];
            while word != 0 {
                self.line[live] = self.line[w * 64 + word.trailing_zeros() as usize];
                live += 1;
                word &= word - 1;
            }
        }
        let slots = (live * Self::SLOT_FACTOR)
            .next_multiple_of(64)
            .max(Self::MIN_SLOTS);
        self.line
            .reserve_exact(slots.saturating_sub(self.line.len()));
        self.line.resize(slots, 0);
        let words = slots / 64;
        self.bits = vec![0; words];
        self.bits[..live / 64].fill(!0);
        if live % 64 != 0 {
            self.bits[live / 64] = (1 << (live % 64)) - 1;
        }
        self.tree = vec![0; words + 1];
        for i in 1..=words {
            self.tree[i] += self.bits[i - 1].count_ones();
            let parent = i + (i & i.wrapping_neg());
            if parent <= words {
                self.tree[parent] += self.tree[i];
            }
        }
        live
    }
}

/// Bit position of the set bit of 0-based `rank` in `word` (broadword:
/// per-byte popcounts and their prefix sums locate the byte, a table the
/// bit within it).
#[inline]
fn select_in_word(word: u64, rank: u32) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut counts = word - ((word >> 1) & 0x5555_5555_5555_5555);
    counts = (counts & 0x3333_3333_3333_3333) + ((counts >> 2) & 0x3333_3333_3333_3333);
    counts = (counts + (counts >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte i holds the set bits in bytes 0..=i (at most 64, so no carry).
    let prefix = counts.wrapping_mul(ONES);
    // High bit of byte i set iff that prefix is ≤ rank: those bytes lie
    // wholly below the wanted bit, and their number is its byte.
    let below = (((u64::from(rank) * ONES) | HIGHS) - prefix) & HIGHS;
    let byte = ((below >> 7).wrapping_mul(ONES) >> 56) as usize;
    let before = ((prefix << 8) >> (8 * byte)) as u8;
    let bits = (word >> (8 * byte)) as u8;
    8 * byte + usize::from(SELECT_IN_BYTE[usize::from(bits)][usize::from(rank as u8 - before)])
}

/// `SELECT_IN_BYTE[b][r]`: position of the set bit of rank `r` in byte `b`.
static SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                table[b][r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

/// Cells per 64-byte cache line: sampled stack distances are drawn at
/// line granularity so that a line-granular trace analyzer measures the
/// intended `(α, β)` (the model's β is denominated in bytes).
const CELLS_PER_LINE: usize = 8;

impl SpmdProgram for TpccProgram {
    fn processes(&self) -> usize {
        self.procs
    }

    fn run(&self, pid: usize, ctx: &mut SpmdCtx) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (pid as u64).wrapping_mul(0xA5A5));
        // Samplers operate on 64-byte lines; β converts from bytes to
        // lines inside StackSampler via the line size.
        let mut private =
            StackSampler::new(TPCC_ALPHA, TPCC_BETA, self.private_cells / CELLS_PER_LINE);
        let mut shared =
            StackSampler::new(TPCC_ALPHA, TPCC_BETA, self.shared.len() / CELLS_PER_LINE);
        let base = pid * self.private_cells;
        // Compute padding: ρ = refs/(refs+compute) ⇒ compute per ref =
        // (1−ρ)/ρ ≈ 1.78; accumulate fractionally.
        let per_ref = (1.0 - TPCC_RHO) / TPCC_RHO;
        let mut carry = 0.0f64;
        for t in 0..self.refs_per_proc {
            let go_shared = rng.gen::<f64>() < SHARED_MIX;
            let write = rng.gen::<f64>() < WRITE_MIX;
            if go_shared {
                // One cell within the sampled line, varying to touch the
                // whole line over time.
                let line = shared.next_index(&mut rng);
                let i = (line * CELLS_PER_LINE + (t % CELLS_PER_LINE)).min(self.shared.len() - 1);
                if write {
                    let v = self.shared.get(ctx, i);
                    self.shared.set(ctx, i, v.wrapping_add(1));
                } else {
                    let _ = self.shared.get(ctx, i);
                }
            } else {
                let line = private.next_index(&mut rng);
                let i = base
                    + (line * CELLS_PER_LINE + (t % CELLS_PER_LINE)).min(self.private_cells - 1);
                if write {
                    let v = self.private.get(ctx, i);
                    self.private.set(ctx, i, v.wrapping_add(1));
                } else {
                    let _ = self.private.get(ctx, i);
                }
            }
            carry += per_ref * if write { 2.0 } else { 1.0 };
            let k = carry as u32;
            if k > 0 {
                ctx.compute(k);
                carry -= k as f64;
            }
            // A "transaction boundary" barrier every 4096 references keeps
            // the SPMD processes loosely coupled, like the batched
            // transaction commits of an OLTP system.
            if t % 4096 == 4095 {
                ctx.barrier();
            }
        }
        ctx.barrier();
    }

    fn partitions(&self) -> Vec<(u64, u64, usize)> {
        let mut v = Vec::new();
        for pid in 0..self.procs {
            let lo = pid * self.private_cells;
            let hi = (pid + 1) * self.private_cells;
            v.push((self.private.addr_of(lo), self.private.addr_of(hi), pid));
        }
        // Shared tables interleave (unregistered → fallback homes).
        v
    }

    fn name(&self) -> &str {
        "TPC-C"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;

    #[test]
    fn rho_close_to_published() {
        let c = run_spmd(TpccProgram::new(4096, 20_000, 2, 1));
        let rho = c.rho();
        assert!(
            (rho - TPCC_RHO).abs() < 0.03,
            "rho = {rho}, want ≈ {TPCC_RHO}"
        );
    }

    #[test]
    fn write_fraction_near_mix() {
        let c = run_spmd(TpccProgram::new(4096, 20_000, 1, 2));
        let wf = c.writes as f64 / c.mem_refs() as f64;
        // Writes are double-counted (read-modify-write), so the observed
        // store share is below the 30% transaction mix.
        assert!(wf > 0.1 && wf < 0.35, "write fraction {wf}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run_spmd(TpccProgram::new(1024, 5_000, 2, 9));
        let b = run_spmd(TpccProgram::new(1024, 5_000, 2, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn barriers_every_batch() {
        let c = run_spmd(TpccProgram::new(1024, 8192, 2, 3));
        // 8192 refs → batch barriers at t = 4095 and 8191, plus the final
        // barrier: 3 per process × 2 processes.
        assert_eq!(c.barriers, 6, "got {}", c.barriers);
    }

    #[test]
    fn sampler_respects_footprint() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut s = StackSampler::new(1.2, 8000.0, 100);
        for _ in 0..20_000 {
            let i = s.next_index(&mut rng);
            assert!(i < 100);
        }
        assert!(s.len() <= 100);
    }

    /// The explicit `Vec` LRU stack the recency slots replace: the
    /// obviously-correct `O(footprint)`-per-draw reference sampler.
    struct NaiveStackSampler {
        alpha: f64,
        beta_lines: f64,
        stack: Vec<usize>,
        next: usize,
        max: usize,
        /// Draws that recycled the coldest line.
        recycled: usize,
    }

    impl NaiveStackSampler {
        fn new(alpha: f64, beta_bytes: f64, max_lines: usize) -> Self {
            NaiveStackSampler {
                alpha,
                beta_lines: beta_bytes / (CELL_BYTES * 8) as f64,
                stack: Vec::new(),
                next: 0,
                max: max_lines.max(1),
                recycled: 0,
            }
        }

        fn next_index(&mut self, rng: &mut ChaCha8Rng) -> usize {
            let u: f64 = rng.gen();
            let d = (self.beta_lines * ((1.0 - u).powf(-1.0 / (self.alpha - 1.0)) - 1.0)).min(1e12)
                as usize;
            if d < self.stack.len() {
                let v = self.stack.remove(d);
                self.stack.insert(0, v);
                v
            } else if self.next < self.max {
                let v = self.next;
                self.next += 1;
                self.stack.insert(0, v);
                v
            } else {
                self.recycled += 1;
                let v = self.stack.pop().expect("nonempty stack");
                self.stack.insert(0, v);
                v
            }
        }
    }

    /// Draw `n` indices from both samplers on twin generators, asserting
    /// they agree; returns (compactions, recycled draws).
    fn agree(alpha: f64, beta: f64, max: usize, seed: u64, n: usize) -> (usize, usize) {
        let mut fast = StackSampler::new(alpha, beta, max);
        let mut naive = NaiveStackSampler::new(alpha, beta, max);
        let mut r1 = ChaCha8Rng::seed_from_u64(seed);
        let mut r2 = ChaCha8Rng::seed_from_u64(seed);
        let mut compactions = 0;
        for i in 0..n {
            let before = fast.now;
            let (a, b) = (fast.next_index(&mut r1), naive.next_index(&mut r2));
            assert_eq!(
                a, b,
                "draw {i} (α {alpha}, β {beta}, max {max}, seed {seed})"
            );
            compactions += usize::from(fast.now <= before);
        }
        assert_eq!(fast.len(), naive.stack.len());
        (compactions, naive.recycled)
    }

    #[test]
    fn recency_slots_match_naive_through_compactions_and_recycling() {
        let (compactions, recycled) = agree(1.2, 8000.0, 100, 5, 20_000);
        assert!(compactions >= 3, "only {compactions} compactions");
        assert!(recycled > 0, "footprint never exhausted");
        // A footprint past the initial slot space: compaction must grow it.
        let (compactions, _) = agree(1.1, 64_000.0, 5000, 6, 30_000);
        assert!(compactions >= 3, "only {compactions} compactions");
    }

    #[test]
    fn select_in_word_finds_each_rank() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let fixed = [1u64, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0_0000_FFFF_0A0A];
        let random = (0..200).map(|_| rng.gen::<u64>() & rng.gen::<u64>());
        for word in fixed.into_iter().chain(random) {
            let ones: Vec<usize> = (0..64).filter(|b| word >> b & 1 == 1).collect();
            for (rank, &bit) in ones.iter().enumerate() {
                assert_eq!(
                    select_in_word(word, rank as u32),
                    bit,
                    "{word:#x} rank {rank}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn recency_slots_match_naive(
            alpha in 1.05f64..3.0,
            beta in 64.0f64..20_000.0,
            max in 1usize..3000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            agree(alpha, beta, max, seed, 6000);
        }
    }

    /// FNV-1a over 2M draws of the private and shared samplers at paper
    /// size (16,384 lines each), interleaved and seeded exactly as
    /// `TpccProgram::run` does for process 1 of the paper-size registry
    /// workload.  Blessed from the `Vec` sampler; run with
    /// `cargo test --release -p memhier-workloads -- --ignored`.
    #[test]
    #[ignore = "paper size: run in release"]
    fn paper_size_draws_are_pinned() {
        const LINES: usize = (1 << 17) / CELLS_PER_LINE;
        let seed = 0xC0FFEE ^ 1u64.wrapping_mul(0xA5A5);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut private = StackSampler::new(TPCC_ALPHA, TPCC_BETA, LINES);
        let mut shared = StackSampler::new(TPCC_ALPHA, TPCC_BETA, LINES);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..2_000_000 {
            let go_shared = rng.gen::<f64>() < SHARED_MIX;
            let _write = rng.gen::<f64>() < WRITE_MIX;
            let line = if go_shared {
                shared.next_index(&mut rng)
            } else {
                private.next_index(&mut rng)
            };
            let key = line as u64 | u64::from(go_shared) << 63;
            for byte in key.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, PAPER_SIZE_DIGEST, "got {hash:#018x}");
    }

    const PAPER_SIZE_DIGEST: u64 = 0x6b64_de40_9d23_badf;
}
