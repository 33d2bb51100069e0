//! Property-based tests of the simulator substrate.

use memhier_core::machine::{LatencyParams, MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use memhier_sim::backend::ClusterBackend;
use memhier_sim::cache::{LineState, SetAssocCache};
use memhier_sim::engine::{ProcSource, SimSession};
use memhier_sim::event::MemEvent;
use memhier_sim::homemap::HomeMap;
use memhier_sim::util::{LruSet, Resource};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_never_exceeds_capacity(
        trace in proptest::collection::vec(0u64..10_000, 1..2000),
    ) {
        let mut cache = SetAssocCache::new(4096, 2, 64);
        let mut resident = std::collections::HashSet::new();
        for &b in &trace {
            let addr = b * 64;
            if cache.lookup(addr).is_none() {
                if let Some(ev) = cache.insert(addr, LineState::Shared) {
                    resident.remove(&ev.addr);
                }
                resident.insert(addr);
            }
            prop_assert!(resident.len() <= 64, "over capacity");
        }
    }

    #[test]
    fn lru_set_size_bounded(
        keys in proptest::collection::vec(0u64..100, 1..1000),
        cap in 1usize..20,
    ) {
        let mut l = LruSet::new(cap);
        for &k in &keys {
            l.insert(k);
            prop_assert!(l.len() <= cap);
        }
    }

    #[test]
    fn resource_waits_are_work_conserving(
        reqs in proptest::collection::vec((0u64..1000, 1u64..100), 1..100),
    ) {
        // Sorted arrivals through a Resource: total busy equals the sum of
        // occupancies, and service never starts before arrival.
        let mut sorted = reqs.clone();
        sorted.sort();
        let mut r = Resource::new();
        let mut expected_busy = 0;
        for &(now, occ) in &sorted {
            let wait = r.acquire(now, occ);
            prop_assert!(r.free_at() >= now + occ);
            prop_assert!(wait <= r.busy_cycles(), "wait bounded by backlog");
            expected_busy += occ;
        }
        prop_assert_eq!(r.busy_cycles(), expected_busy);
    }

    #[test]
    fn backend_latency_at_least_one(
        ops in proptest::collection::vec((0u64..4, 0u64..4096, any::<bool>()), 1..300),
        nn in 1u32..4,
    ) {
        let m = MachineSpec::new(1, 256, 32, 200.0);
        let cluster = if nn == 1 {
            ClusterSpec::single(m)
        } else {
            ClusterSpec::cluster(m, nn, NetworkKind::Ethernet100)
        };
        let mut be = ClusterBackend::new(
            &cluster,
            LatencyParams::paper(),
            HomeMap::new(nn as usize, 256),
        );
        let procs = be.total_procs();
        let mut now = 0;
        let mut refs = 0;
        for &(p, a, w) in &ops {
            let lat = be.access(p as usize % procs, a * 8, w, now);
            prop_assert!(lat >= 1, "latency below the cache-hit cycle");
            now += lat;
            refs += 1;
        }
        prop_assert_eq!(be.counts().total_refs(), refs);
    }

    #[test]
    fn engine_wall_clock_bounds(
        computes in proptest::collection::vec(1u32..100, 1..50),
    ) {
        // Wall clock of a compute-only process equals the instruction sum;
        // with two symmetric processes it still equals the per-process sum.
        let total: u64 = computes.iter().map(|&k| k as u64).sum();
        let cluster = ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0));
        let backend =
            ClusterBackend::new(&cluster, LatencyParams::paper(), HomeMap::new(1, 256));
        let mk = || {
            ProcSource::from_events(
                computes.iter().map(|&k| MemEvent::compute(k)).collect(),
            )
        };
        let r = SimSession::new(backend)
            .with_sources(vec![mk(), mk()])
            .run()
            .report;
        prop_assert_eq!(r.wall_cycles, total);
        prop_assert_eq!(r.total_instructions, 2 * total);
    }

    #[test]
    fn engine_barrier_alignment_holds(
        pre in proptest::collection::vec(1u32..1000, 2..5),
    ) {
        // Processes with different pre-barrier compute loads end the
        // barrier at the same clock = max of loads.
        let cluster = ClusterSpec::single(MachineSpec::new(4, 256, 64, 200.0));
        let n = pre.len().min(4);
        let cluster = if n == 4 { cluster } else {
            ClusterSpec::single(MachineSpec::new(n as u32, 256, 64, 200.0))
        };
        let backend =
            ClusterBackend::new(&cluster, LatencyParams::paper(), HomeMap::new(1, 256));
        let sources: Vec<ProcSource> = pre
            .iter()
            .take(n)
            .map(|&k| {
                ProcSource::from_events(vec![MemEvent::compute(k), MemEvent::BARRIER])
            })
            .collect();
        let r = SimSession::new(backend).with_sources(sources).run().report;
        let max = pre.iter().take(n).map(|&k| k as u64).max().unwrap();
        prop_assert!(r.proc_cycles.iter().all(|&c| c == max), "{:?}", r.proc_cycles);
    }

    #[test]
    fn home_map_total_function(
        ranges in proptest::collection::vec((0u64..1000u64, 1u64..100, 0usize..4), 0..10),
        probe in 0u64..200_000,
    ) {
        let mut m = HomeMap::new(4, 256);
        for &(start, len, node) in &ranges {
            m.register_clamped(start * 128, start * 128 + len * 128, node);
        }
        let h = m.home(probe);
        prop_assert!(h < 4);
    }
}
