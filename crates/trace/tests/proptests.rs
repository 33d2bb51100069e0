//! Property-based tests of the trace-analysis substrate.

use memhier_trace::{
    fit_locality, DistanceHistogram, NaiveStackDistance, StackDistanceAnalyzer, SyntheticTrace,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fenwick_equals_naive_reference(
        trace in proptest::collection::vec(0u64..200, 1..800),
        granularity in prop_oneof![Just(1u64), Just(8), Just(64)],
    ) {
        let mut fast = StackDistanceAnalyzer::new(granularity);
        let mut slow = NaiveStackDistance::new(granularity);
        for &a in &trace {
            prop_assert_eq!(fast.access(a), slow.access(a));
        }
    }

    #[test]
    fn distances_bounded_by_unique_blocks(
        trace in proptest::collection::vec(0u64..500, 1..1000),
    ) {
        let mut an = StackDistanceAnalyzer::new(1);
        for &a in &trace {
            if let Some(d) = an.access(a) {
                prop_assert!(d < an.unique_blocks() as u64);
            }
        }
    }

    #[test]
    fn histogram_totals_match_trace_length(
        trace in proptest::collection::vec(0u64..300, 1..600),
    ) {
        let mut an = StackDistanceAnalyzer::new(1);
        for &a in &trace {
            an.access(a);
        }
        let h = an.histogram();
        prop_assert_eq!(h.total_refs(), trace.len() as u64);
        prop_assert_eq!(h.cold_refs() as usize, {
            let mut seen = std::collections::HashSet::new();
            trace.iter().filter(|&&a| seen.insert(a)).count()
        });
    }

    #[test]
    fn cdf_points_valid(
        distances in proptest::collection::vec(0u64..1_000_000, 1..500),
        cold in 0u64..50,
    ) {
        let mut h = DistanceHistogram::new(64);
        for &d in &distances {
            h.record(Some(d));
        }
        for _ in 0..cold {
            h.record(None);
        }
        let cdf = h.cdf_points();
        let mut prev_x = 0.0;
        let mut prev_p = 0.0;
        for &(x, p) in &cdf {
            prop_assert!(x > prev_x);
            prop_assert!(p >= prev_p && p <= 1.0 + 1e-12);
            prev_x = x;
            prev_p = p;
        }
        // Last cumulative point accounts for all finite-distance refs.
        let expect = distances.len() as f64 / (distances.len() as u64 + cold) as f64;
        prop_assert!((prev_p - expect).abs() < 1e-9);
    }

    #[test]
    fn tail_at_is_monotone_decreasing(
        distances in proptest::collection::vec(0u64..100_000, 10..300),
        x1 in 1.0f64..1e6,
        dx in 0.0f64..1e6,
    ) {
        let mut h = DistanceHistogram::new(1);
        for &d in &distances {
            h.record(Some(d));
        }
        prop_assert!(h.tail_at(x1 + dx) <= h.tail_at(x1) + 1e-12);
    }

    #[test]
    fn fit_recovers_synthetic_parameters(
        alpha in 1.15f64..2.0,
        beta_exp in 4.0f64..9.0,
        seed in 0u64..1000,
    ) {
        // β from ~16 bytes to ~512 bytes (in block units of 1 at
        // granularity 1 this is the distance scale).
        let beta = beta_exp.exp2();
        let mut g = SyntheticTrace::new(alpha, beta, 1, seed);
        let mut an = StackDistanceAnalyzer::new(1);
        for _ in 0..60_000 {
            an.access(g.next_address());
        }
        let fit = fit_locality(&an.histogram().cdf_points()).unwrap();
        // Statistical recovery at modest sample size: generous bands.
        prop_assert!((fit.alpha - alpha).abs() < 0.35, "alpha {} vs {alpha}", fit.alpha);
        prop_assert!(
            (fit.beta / beta).ln().abs() < 1.2,
            "beta {} vs {beta}", fit.beta
        );
    }

    #[test]
    fn merge_is_commutative_in_totals(
        a in proptest::collection::vec(0u64..1000, 1..200),
        b in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let hist_of = |v: &[u64]| {
            let mut an = StackDistanceAnalyzer::new(1);
            for &x in v {
                an.access(x);
            }
            an.into_histogram()
        };
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab.total_refs(), ba.total_refs());
        prop_assert_eq!(ab.cold_refs(), ba.cold_refs());
        // Full histograms are equal as distributions.
        prop_assert_eq!(ab.cdf_points(), ba.cdf_points());
    }

    #[test]
    fn synthetic_trace_respects_granularity_and_footprint(
        granularity in prop_oneof![Just(8u64), Just(64), Just(256)],
        footprint_blocks in 16u64..256,
    ) {
        let mut g = SyntheticTrace::new(1.3, 500.0, granularity, 5)
            .with_footprint((footprint_blocks * granularity) as f64);
        let mut max_block = 0u64;
        for _ in 0..5000 {
            let a = g.next_address();
            prop_assert_eq!(a % granularity, 0);
            max_block = max_block.max(a / granularity);
        }
        prop_assert!(max_block < footprint_blocks);
    }
}

// ---------------------------------------------------------------------
// Differential test across the analyzer's slot-compaction boundary.
//
// `StackDistanceAnalyzer` appends one slot per access to a fixed-width
// Fenwick tree and *compacts* (rebuilds the slot array and re-indexes
// every live block) each time the 2^16-slot window fills.  A bookkeeping
// bug there — a stale Fenwick count, a wrong slot remap — is invisible
// to short traces and only materializes after the first compaction.
// These tests drive interleaved reuse well past two compactions and
// demand exact agreement with the O(M·B) naive LRU stack.

/// Mirrors the private `stackdist::INITIAL_SLOTS`.
const INITIAL_SLOTS: usize = 1 << 16;

/// Deterministic reuse-heavy stream: a hot set revisited constantly
/// (small distances), a warm half-range, and a full-range scatter, with
/// a phase shift halfway through so pre-compaction blocks are re-touched
/// after their slots have been rebuilt.
fn interleaved_trace(seed: u64, blocks: u64, refs: usize, granularity: u64) -> Vec<u64> {
    assert!(blocks >= 64);
    let mut out = Vec::with_capacity(refs);
    let mut state = seed | 1;
    for i in 0..refs {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = state >> 33;
        let phase = if i < refs / 2 { 0 } else { blocks / 2 };
        let block = match r % 10 {
            // Hot set of 16 blocks; moves at the halfway phase shift.
            0..=5 => (r / 16) % 16 + phase,
            // Warm half-range, phase-shifted too.
            6..=8 => r % (blocks / 2) + phase,
            // Cold full-range scatter (long distances, new blocks).
            _ => r % blocks,
        };
        // Off-alignment addresses exercise the block rounding.
        out.push(block * granularity + (r % granularity));
    }
    out
}

proptest! {
    // The naive reference is O(M·B); three cases keep this under control
    // while still varying seed and granularity across runs.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn fenwick_equals_naive_past_two_compactions(
        seed in 1u64..1_000_000,
        granularity in prop_oneof![Just(1u64), Just(64)],
    ) {
        // 2.25 * INITIAL_SLOTS references => two compactions, plus a
        // tail that reuses post-compaction state.
        let refs = 2 * INITIAL_SLOTS + INITIAL_SLOTS / 4;
        let trace = interleaved_trace(seed, 240, refs, granularity);
        let mut fast = StackDistanceAnalyzer::new(granularity);
        let mut slow = NaiveStackDistance::new(granularity);
        for (i, &a) in trace.iter().enumerate() {
            let f = fast.access(a);
            let s = slow.access(a);
            prop_assert_eq!(
                f, s,
                "fenwick diverged from naive at ref {} of {} (addr {:#x})",
                i, refs, a
            );
        }
        // Aggregates agree with an independent count of the trace.
        let unique = {
            let mut seen = std::collections::HashSet::new();
            trace.iter().filter(|&&a| seen.insert(a / granularity)).count()
        };
        prop_assert_eq!(fast.unique_blocks() as usize, unique);
        let h = fast.histogram();
        prop_assert_eq!(h.total_refs(), refs as u64);
        prop_assert_eq!(h.cold_refs(), unique as u64);
    }

    #[test]
    fn compaction_is_invisible_to_the_histogram(seed in 1u64..1_000_000) {
        // The same stream fed to one analyzer that compacts (long run)
        // and, in two halves, to fresh analyzers that don't, must agree
        // on every per-reference distance of the first half — compaction
        // must never perturb already-recorded state.
        let refs = INITIAL_SLOTS + INITIAL_SLOTS / 2;
        let trace = interleaved_trace(seed, 150, refs, 64);
        let mut whole = StackDistanceAnalyzer::new(64);
        let mut prefix = StackDistanceAnalyzer::new(64);
        let cut = INITIAL_SLOTS / 2; // well before the first compaction
        for (i, &a) in trace.iter().enumerate() {
            let w = whole.access(a);
            if i < cut {
                prop_assert_eq!(w, prefix.access(a));
            }
        }
        prop_assert_eq!(whole.histogram().total_refs(), refs as u64);
    }
}
