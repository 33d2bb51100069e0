//! Exactness of the stack-distance analyzer at scale and on adversarial
//! block keys.
//!
//! The other analyzer tests stay below ~150 K references over a few
//! hundred blocks, so they never grow the block table or hold many live
//! blocks across a compaction.  Here a million-reference stream with tens
//! of thousands of live blocks is digested (FNV-1a over every
//! per-reference distance and the final histogram) and compared with a
//! digest recorded from the original `HashMap` + Fenwick analyzer, and a
//! property test checks keys chosen to break a hash table: `u64::MAX`,
//! power-of-two strides, and keys whose hashes share their low bits.

use memhier_trace::{NaiveStackDistance, StackDistanceAnalyzer, SyntheticTrace};
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Next state of a 64-bit LCG (Knuth's MMIX constants).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Synthetic streams interleaved at random; each owns a disjoint block
/// range, so the live set is the sum of many small LRU stacks (the
/// generator's stack update is linear in its stack depth).
const STREAMS: u64 = 128;
/// References in the scale stream.
const SCALE_REFS: usize = 1 << 20;

/// `SCALE_REFS` addresses at 64-byte lines, each paired with a sub-line
/// byte offset so granularity 1 sees four times as many blocks.
fn scale_stream() -> Vec<(u64, u64)> {
    let mut gens: Vec<SyntheticTrace> = (0..STREAMS)
        .map(|k| SyntheticTrace::new(1.5, 90.0, 64, 1000 + k).with_base_block(k << 32))
        .collect();
    let mut state = 17u64;
    (0..SCALE_REFS)
        .map(|_| {
            let r = lcg(&mut state);
            let line = gens[(r % STREAMS) as usize].next_address();
            (line, (r >> 20) % 4 * 16)
        })
        .collect()
}

/// FNV-1a over every per-reference distance (`u64::MAX` = cold) and the
/// final histogram's JSON form; also returns the live block count.
fn digest(granularity: u64, addrs: impl Iterator<Item = u64>) -> (u64, u32) {
    let mut an = StackDistanceAnalyzer::new(granularity);
    let mut hash = FNV_OFFSET;
    for a in addrs {
        let d = an.access(a).unwrap_or(u64::MAX);
        fnv1a(&mut hash, &d.to_le_bytes());
    }
    let hist = serde_json::to_string(&an.histogram()).expect("histogram json");
    fnv1a(&mut hash, hist.as_bytes());
    (hash, an.unique_blocks())
}

/// A million references over 60 K+ live lines (and four times as many
/// byte-granularity blocks), digested against the values the original
/// analyzer produced for the same stream.
#[test]
fn million_reference_digest_matches_the_reference_analyzer() {
    let stream = scale_stream();
    let (line_digest, lines) = digest(64, stream.iter().map(|&(a, _)| a));
    let (byte_digest, blocks) = digest(1, stream.iter().map(|&(a, off)| a + off));
    assert!(lines >= 50_000, "only {lines} live lines");
    assert!(blocks >= 50_000, "only {blocks} live byte blocks");
    assert_eq!(
        (line_digest, lines, byte_digest, blocks),
        (
            0x2466_E8C9_6714_23DB,
            76_286,
            0xCFB7_4CA7_8A55_AE96,
            253_542
        ),
        "stack-distance digest moved"
    );
}

/// Inverse of `x ^ (x >> shift)` for `shift >= 22`.
fn unxorshift(y: u64, shift: u32) -> u64 {
    y ^ (y >> shift) ^ (y >> (2 * shift).min(63))
}

/// Multiplicative inverse of an odd `a` modulo 2^64 (Newton iteration).
fn inverse(a: u64) -> u64 {
    let mut x = a;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

/// The key the analyzer's block table hashes (splitmix64 finalizer on
/// `key ^ golden ratio`) to `hash` — the inverse of its private hash.
fn key_hashing_to(hash: u64) -> u64 {
    let mut z = unxorshift(hash, 31);
    z = z.wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
    z = unxorshift(z, 27);
    z = z.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
    z = unxorshift(z, 30);
    z ^ 0x9E37_79B9_7F4A_7C15
}

/// Block keys that stress an open-addressed table: the extremes of the
/// key space, power-of-two strides, and `colliding` keys whose hashes
/// agree in their low 20 bits (one probe run for every table size up to
/// a million buckets).
fn adversarial_blocks(colliding: u64, seed: u64) -> Vec<u64> {
    let mut blocks = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
    blocks.extend((0..64).map(|s| 1u64 << s));
    blocks.extend((1..200).map(|i| i << 40));
    blocks.extend((0..colliding).map(|i| key_hashing_to(((seed + i) << 20) | 0x5_A5A5)));
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adversarial_keys_match_naive(
        picks in proptest::collection::vec((0usize..1 << 16, 0u64..4), 1..4000),
        colliding in 1u64..1500,
        seed in 0u64..1 << 40,
        granularity in prop_oneof![Just(1u64), Just(64)],
    ) {
        let blocks = adversarial_blocks(colliding, seed);
        let mut fast = StackDistanceAnalyzer::new(granularity);
        let mut slow = NaiveStackDistance::new(granularity);
        // Reuse skews toward a hot prefix of the pool; every address is
        // `block * granularity` (wrapping), offset inside the block.
        for (i, &(pick, hot)) in picks.iter().enumerate() {
            let n = if hot == 0 { blocks.len() } else { blocks.len().min(16) };
            let addr = blocks[pick % n].wrapping_mul(granularity) | (pick as u64 % granularity);
            prop_assert_eq!(
                fast.access(addr),
                slow.access(addr),
                "diverged at ref {} (addr {:#x})",
                i,
                addr
            );
        }
    }
}
