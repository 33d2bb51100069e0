//! The Radix sort kernel (§5.2): iterative parallel radix sort of
//! integers, "one iteration for each radix-r digit of the keys"
//! (SPLASH-2 / NAS style).  Radix 1024 over 1 M integers at paper size.
//!
//! Each iteration: (1) every process histograms the digit of its key
//! chunk; (2) process 0 turns the `P × R` histogram matrix into global
//! starting offsets (sequentially, as the SPLASH-2 kernel's prefix phase
//! does for small `P·R`); (3) every process permutes its keys into the
//! destination array at its offsets.  The permute phase's scattered remote
//! writes are what gives Radix the worst locality of the four kernels
//! (Table 2: α = 1.14, β = 120.84).

use crate::spmd::{SpmdCtx, SpmdProgram};
use crate::traced::{AddressSpace, Scalar, TracedArray};
use std::sync::Arc;

/// Host cell type of the keys and histogram offsets.  The simulated layout
/// is the same at either width; only the host footprint differs.
pub trait RadixKey: Scalar + Default + Into<u64> {
    /// Width in bits.
    const BITS: u32;
    /// Narrowing conversion of a value known to fit.
    fn from_u64(v: u64) -> Self;
}

impl RadixKey for u32 {
    const BITS: u32 = u32::BITS;
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}

impl RadixKey for u64 {
    const BITS: u32 = u64::BITS;
    fn from_u64(v: u64) -> Self {
        v
    }
}

/// Widest key width a program accepts.
pub const MAX_KEY_BITS: u32 = u64::BITS;

/// A radix-sort program on the narrowest cells that hold its keys and
/// offsets: `u32` up to 32-bit keys and `u32::MAX` keys (every registry
/// size), `u64` above.
pub fn program(
    keys: usize,
    radix: usize,
    key_bits: u32,
    procs: usize,
    seed: u64,
) -> Arc<dyn SpmdProgram> {
    if key_bits <= u32::BITS && u32::try_from(keys).is_ok() {
        RadixProgram::<u32>::new(keys, radix, key_bits, procs, seed)
    } else {
        RadixProgram::<u64>::new(keys, radix, key_bits, procs, seed)
    }
}

/// Key `i` of the input generated from `seed`: `key_bits` high bits of a
/// mixed counter.
fn key_at(seed: u64, key_bits: u32, i: usize) -> u64 {
    let mut x = seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x >> (64 - key_bits)
}

/// The parallel radix-sort program instance, keys held in `K` cells.
pub struct RadixProgram<K: RadixKey> {
    procs: usize,
    n: usize,
    /// Radix (a power of two).
    radix: usize,
    /// Bits per digit.
    bits: u32,
    /// Number of digit passes to cover `key_bits`.
    passes: u32,
    /// Maximum key value is `2^key_bits − 1`.
    key_bits: u32,
    /// Seed the input keys are generated from.
    seed: u64,
    src: TracedArray<K>,
    dst: TracedArray<K>,
    /// `P × R` histogram / offset matrix; row `p` belongs to process `p`.
    hist: TracedArray<K>,
}

impl<K: RadixKey> RadixProgram<K> {
    /// Build with `keys` random keys of `key_bits` bits, radix `radix`,
    /// for `procs` processes (must divide `keys`).
    pub fn new(keys: usize, radix: usize, key_bits: u32, procs: usize, seed: u64) -> Arc<Self> {
        assert!(radix.is_power_of_two() && radix >= 2);
        assert!(
            keys.is_multiple_of(procs),
            "process count must divide key count"
        );
        assert!(
            (1..=K::BITS).contains(&key_bits),
            "{key_bits}-bit keys do not fit {}-bit cells",
            K::BITS
        );
        assert!(
            keys as u64 <= u64::MAX >> (64 - K::BITS),
            "{keys} offsets do not fit {}-bit cells",
            K::BITS
        );
        let bits = radix.trailing_zeros();
        let passes = key_bits.div_ceil(bits);
        let mut sp = AddressSpace::default();
        let src = TracedArray::new_with(sp.alloc(keys), keys, |i| {
            K::from_u64(key_at(seed, key_bits, i))
        });
        let dst = TracedArray::new(sp.alloc(keys), keys);
        let hist = TracedArray::new(sp.alloc(procs * radix), procs * radix);
        Arc::new(RadixProgram {
            procs,
            n: keys,
            radix,
            bits,
            passes,
            key_bits,
            seed,
            src,
            dst,
            hist,
        })
    }

    fn chunk_of(&self, pid: usize) -> std::ops::Range<usize> {
        let per = self.n / self.procs;
        pid * per..(pid + 1) * per
    }

    /// The pass's source and destination arrays (ping-pong by parity).
    fn arrays(&self, pass: u32) -> (&TracedArray<K>, &TracedArray<K>) {
        if pass.is_multiple_of(2) {
            (&self.src, &self.dst)
        } else {
            (&self.dst, &self.src)
        }
    }

    /// Where the sorted result lives after all passes.
    pub fn result(&self) -> Vec<u64> {
        let (_, out) = self.arrays(self.passes - 1);
        (0..self.n).map(|i| out.get_silent(i).into()).collect()
    }

    /// The input keys, regenerated from the seed (the source array is
    /// overwritten by the passes).
    pub fn input(&self) -> Vec<u64> {
        (0..self.n)
            .map(|i| key_at(self.seed, self.key_bits, i))
            .collect()
    }

    /// Number of digit passes.
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Key width in bits (keys are `< 2^key_bits`).
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }
}

impl<K: RadixKey> SpmdProgram for RadixProgram<K> {
    fn processes(&self) -> usize {
        self.procs
    }

    fn run(&self, pid: usize, ctx: &mut SpmdCtx) {
        let r = self.radix;
        for pass in 0..self.passes {
            let (from, to) = self.arrays(pass);
            let shift = pass * self.bits;
            let mask = (r - 1) as u64;
            let digit = |k: K| ((k.into() >> shift) & mask) as usize;

            // Phase 1: zero own histogram row, count digits of own chunk.
            for d in 0..r {
                self.hist.set(ctx, pid * r + d, K::default());
            }
            for i in self.chunk_of(pid) {
                let d = digit(from.get(ctx, i));
                let c: u64 = self.hist.get(ctx, pid * r + d).into();
                self.hist.set(ctx, pid * r + d, K::from_u64(c + 1));
                ctx.compute(3);
            }
            ctx.barrier();

            // Phase 2: process 0 converts counts to starting offsets:
            // offset[p][d] = Σ_{d'<d} total[d'] + Σ_{p'<p} count[p'][d].
            if pid == 0 {
                let mut base = 0u64;
                for d in 0..r {
                    let mut col = 0u64;
                    for p in 0..self.procs {
                        let c: u64 = self.hist.get(ctx, p * r + d).into();
                        self.hist.set(ctx, p * r + d, K::from_u64(base + col));
                        col += c;
                        ctx.compute(2);
                    }
                    base += col;
                }
            }
            ctx.barrier();

            // Phase 3: permute own chunk into the destination (stable).
            // Cursors start at the offsets computed in phase 2; they are
            // our own histogram row, so reads/writes stay in our partition.
            for i in self.chunk_of(pid) {
                let k = from.get(ctx, i);
                let d = digit(k);
                let pos: u64 = self.hist.get(ctx, pid * r + d).into();
                self.hist.set(ctx, pid * r + d, K::from_u64(pos + 1));
                to.set(ctx, pos as usize, k);
                ctx.compute(4);
            }
            ctx.barrier();
        }
    }

    fn partitions(&self) -> Vec<(u64, u64, usize)> {
        let mut v = Vec::new();
        let per = self.n / self.procs;
        for pid in 0..self.procs {
            let (lo, hi) = (pid * per, (pid + 1) * per);
            v.push((self.src.addr_of(lo), self.src.addr_of(hi), pid));
            v.push((self.dst.addr_of(lo), self.dst.addr_of(hi), pid));
            let r = self.radix;
            v.push((
                self.hist.addr_of(pid * r),
                self.hist.addr_of((pid + 1) * r),
                pid,
            ));
        }
        v
    }

    fn name(&self) -> &str {
        "Radix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;

    fn is_sorted(v: &[u64]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn serial_sorts() {
        let p = RadixProgram::<u32>::new(1024, 16, 12, 1, 42);
        run_spmd(Arc::clone(&p));
        let out = p.result();
        assert!(is_sorted(&out));
        let mut expect = p.input();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_sorts_identically() {
        for procs in [2, 4, 8] {
            let p = RadixProgram::<u32>::new(1024, 16, 12, procs, 7);
            run_spmd(Arc::clone(&p));
            let out = p.result();
            let mut expect = p.input();
            expect.sort_unstable();
            assert_eq!(out, expect, "procs = {procs}");
        }
    }

    #[test]
    fn paper_radix_pass_count() {
        // Radix 1024 (10 bits) over 20-bit keys: 2 passes.
        let p = RadixProgram::<u32>::new(1024, 1024, 20, 4, 1);
        assert_eq!(p.passes(), 2);
        // 30-bit keys would need 3.
        let p = RadixProgram::<u32>::new(1024, 1024, 30, 4, 1);
        assert_eq!(p.passes(), 3);
    }

    #[test]
    fn odd_pass_count_result_location() {
        // 1 pass: result must be read from dst.
        let p = RadixProgram::<u32>::new(256, 256, 8, 2, 3);
        assert_eq!(p.passes(), 1);
        run_spmd(Arc::clone(&p));
        assert!(is_sorted(&p.result()));
    }

    #[test]
    fn rho_is_memory_bound() {
        let c = run_spmd(program(2048, 64, 12, 2, 5));
        // Radix is the most memory-bound scientific kernel (paper: 0.37).
        assert!(c.rho() > 0.3, "rho = {}", c.rho());
    }

    #[test]
    fn keys_respect_bit_width() {
        let p = RadixProgram::<u32>::new(512, 16, 10, 1, 9);
        assert!(p.input().iter().all(|&k| k < 1 << 10));
    }

    #[test]
    fn both_cell_widths_emit_the_same_events() {
        use crate::spmd::collect_events;
        for procs in [1, 4] {
            let narrow = collect_events(RadixProgram::<u32>::new(1024, 16, 12, procs, 3));
            let wide = collect_events(RadixProgram::<u64>::new(1024, 16, 12, procs, 3));
            assert!(narrow == wide, "procs = {procs}");
        }
    }

    #[test]
    fn wide_keys_sort_in_u64_cells() {
        for key_bits in [33, 64] {
            let p = RadixProgram::<u64>::new(512, 256, key_bits, 2, 11);
            run_spmd(Arc::clone(&p));
            let mut expect = p.input();
            assert!(expect.iter().any(|&k| k >= 1 << 32), "{key_bits}");
            expect.sort_unstable();
            assert_eq!(p.result(), expect, "key_bits = {key_bits}");
        }
    }

    #[test]
    #[should_panic(expected = "33-bit keys do not fit 32-bit cells")]
    fn narrow_cells_reject_wide_keys() {
        RadixProgram::<u32>::new(256, 16, 33, 1, 1);
    }

    #[test]
    #[should_panic(expected = "65-bit keys do not fit 64-bit cells")]
    fn rejects_keys_wider_than_64_bits() {
        RadixProgram::<u64>::new(256, 16, 65, 1, 1);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_chunks() {
        RadixProgram::<u32>::new(1000, 16, 10, 3, 1);
    }
}
