//! Property-based tests: the kernels stay correct for arbitrary seeds and
//! (valid) geometry, and their traces uphold the SPMD contract.

use memhier_workloads::edge::EdgeProgram;
use memhier_workloads::fft::FftProgram;
use memhier_workloads::lu::LuProgram;
use memhier_workloads::radix::RadixProgram;
use memhier_workloads::spmd::{collect_events, run_spmd};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn radix_sorts_any_seed(
        seed in any::<u64>(),
        procs in prop_oneof![Just(1usize), Just(2), Just(4)],
        key_bits in 8u32..16,
    ) {
        let p = RadixProgram::<u32>::new(512, 16, key_bits, procs, seed);
        run_spmd(Arc::clone(&p));
        let out = p.result();
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        let mut expect = p.input();
        expect.sort_unstable();
        prop_assert_eq!(&out, &expect);
        // 64-bit cells sort the same keys to the same result.
        let wide = RadixProgram::<u64>::new(512, 16, key_bits, procs, seed);
        run_spmd(Arc::clone(&wide));
        prop_assert_eq!(wide.result(), out);
    }

    #[test]
    fn lu_factors_any_seed(
        seed in any::<u64>(),
        procs in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let p = LuProgram::random_dd(16, 4, procs, seed);
        run_spmd(Arc::clone(&p));
        let err = p.verify_error();
        prop_assert!(err < 1e-8, "LU error {err}");
    }

    #[test]
    fn fft_parseval_holds(seed in any::<u64>(), procs in prop_oneof![Just(1usize), Just(2)]) {
        // Energy conservation: ||X||² = N · ||x||².
        let p = FftProgram::random_input(64, procs, seed);
        let e_in: f64 = (0..64)
            .map(|i| {
                let (re, im) = p.input_at(i);
                re * re + im * im
            })
            .sum();
        run_spmd(Arc::clone(&p));
        let e_out: f64 = p.output().iter().map(|&(re, im)| re * re + im * im).sum();
        prop_assert!(
            (e_out - 64.0 * e_in).abs() < 1e-6 * (1.0 + e_out),
            "Parseval: {e_out} vs {}",
            64.0 * e_in
        );
    }

    #[test]
    fn edge_matches_reference_any_size(
        procs in prop_oneof![Just(1usize), Just(2), Just(4)],
        dim_factor in 1usize..4,
        iters in 1usize..3,
    ) {
        // 8, 16, 24 are all divisible by 1, 2 and 4.
        let dim = 8 * dim_factor;
        let p = EdgeProgram::synthetic(dim, iters, procs);
        run_spmd(Arc::clone(&p));
        prop_assert_eq!(p.edges(), p.reference());
    }

    #[test]
    fn traces_respect_barrier_contract(
        procs in prop_oneof![Just(2usize), Just(4)],
        seed in any::<u64>(),
    ) {
        // Every process emits the same number of barriers (bulk-synchronous
        // SPMD), and barrier counts match across processes.
        let p = RadixProgram::<u32>::new(256, 16, 12, procs, seed);
        let events = collect_events(p);
        let counts: Vec<usize> = events
            .iter()
            .map(|(ev, _)| ev.iter().filter(|e| e.is_barrier()).count())
            .collect();
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        prop_assert!(counts[0] > 0);
    }

    #[test]
    fn compute_events_never_zero(seed in any::<u64>()) {
        let p = RadixProgram::<u32>::new(256, 16, 12, 2, seed);
        let events = collect_events(p);
        for (ev, _) in events {
            for e in ev {
                if let Some(k) = e.compute_count() {
                    prop_assert!(k > 0);
                }
            }
        }
    }
}
