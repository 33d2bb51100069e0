//! Thread-count invariance pin for the epoch-parallel engine.
//!
//! The epoch engine is no longer selectable above `memhier-sim`: it
//! stays only as the subject of the ledger benchmark's
//! `sim.replay_epoch{1,2}_ns_per_ref` metrics, and this test builds its
//! sessions the way the ledger does — [`SimSession::sim_threads`] over
//! pre-collected, shared per-process traces.  It goes together with
//! `epoch.rs` once the benchmark stops timing that engine.
//!
//! The epoch engine (`sim_threads >= 1`) shards simulated processors
//! across host worker threads but advances simulated time in fixed
//! deterministic epochs, so its results must be **byte-identical for
//! every host thread count**.  That invariance — not equivalence with
//! the classic serial engine, whose cross-processor interleaving is
//! finer-grained — is the contract this differential net pins:
//!
//! * every platform × kernel pair of `tests/engine_differential.rs`
//!   (including the miss-heavy fixtures) must serialize to the same
//!   `SimReport` JSON at `sim_threads` ∈ {1, 2, 8};
//! * the same must hold with a `TimeSeriesCollector` attached, whose
//!   windowed series exposes the engine's internal event ordering far
//!   more finely than the end-of-run report does.
//!
//! A failure here means the engine's answer depends on host
//! parallelism — the one thing its thread count must never change.

use memhier_bench::runner::{ObserverConfig, Sizes};
use memhier_core::machine::{LatencyParams, MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use memhier_sim::observe::{EventTracer, TimeSeriesCollector};
use memhier_sim::{ClusterBackend, MemEvent, ProcSource, SimSession};
use memhier_workloads::registry::WorkloadKind;
use memhier_workloads::spmd::{collect_events, home_map_for, SpmdProgram};
use std::sync::Arc;

/// The host thread counts every fixture is replayed at.
const THREADS: [usize; 3] = [1, 2, 8];

/// Same platform matrix as `tests/engine_differential.rs`, including
/// the miss-heavy specs, paired with the kernels each one replays.
fn fixtures() -> Vec<(&'static str, ClusterSpec, Vec<WorkloadKind>)> {
    let paper = WorkloadKind::PAPER.to_vec();
    let miss = vec![WorkloadKind::Radix, WorkloadKind::Tpcc];
    let extended = vec![
        WorkloadKind::Stencil4D,
        WorkloadKind::Stream,
        WorkloadKind::GraphWalk,
        WorkloadKind::Inference,
    ];
    vec![
        (
            "smp",
            ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0)),
            paper.clone(),
        ),
        (
            "cow_bus",
            ClusterSpec::cluster(
                MachineSpec::new(1, 256, 64, 200.0),
                4,
                NetworkKind::Ethernet100,
            ),
            paper.clone(),
        ),
        (
            "cow_switch",
            ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 4, NetworkKind::Atm155),
            paper.clone(),
        ),
        (
            "clump_bus",
            ClusterSpec::cluster(
                MachineSpec::new(2, 256, 128, 200.0),
                2,
                NetworkKind::Ethernet100,
            ),
            paper.clone(),
        ),
        (
            "clump_switch",
            ClusterSpec::cluster(MachineSpec::new(2, 256, 128, 200.0), 2, NetworkKind::Atm155),
            paper,
        ),
        (
            "miss_smp_stream",
            ClusterSpec::single(MachineSpec::new(4, 8, 128, 200.0)),
            miss.clone(),
        ),
        (
            "miss_clump_bigset",
            ClusterSpec::cluster(
                MachineSpec::new(2, 8, 128, 200.0),
                2,
                NetworkKind::Ethernet100,
            ),
            miss,
        ),
        (
            "numa_smp",
            ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0).with_numa(2, 40.0)),
            extended.clone(),
        ),
        (
            "fattree_cow",
            ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 8, NetworkKind::FatTree),
            extended,
        ),
    ]
}

/// Replay one fixture's collected traces on the epoch engine at the
/// given thread count and serialize whatever the observers saw alongside
/// the report, so any ordering-dependent state shows up in the byte
/// comparison.
fn snapshot(
    cluster: &ClusterSpec,
    program: &dyn SpmdProgram,
    traces: &[Arc<[MemEvent]>],
    observers: &ObserverConfig,
    sim_threads: usize,
) -> String {
    let home = home_map_for(
        program,
        cluster.machines as usize,
        cluster.machine.n_procs as usize,
        256,
    );
    let mut session = SimSession::new(ClusterBackend::new(cluster, LatencyParams::paper(), home))
        .with_sources(
            traces
                .iter()
                .map(|t| ProcSource::shared(Arc::clone(t)))
                .collect(),
        )
        .sim_threads(sim_threads);
    if let Some(window) = observers.metrics_window {
        session = session.observe(TimeSeriesCollector::new(window));
    }
    if let Some(cap) = observers.trace_capacity {
        session = session.observe(EventTracer::new(cap));
    }
    let out = session.run();
    let mut s = serde_json::to_string_pretty(&out.report).expect("serialize report");
    if let Some(collector) = out.observer::<TimeSeriesCollector>() {
        s.push('\n');
        s.push_str(&serde_json::to_string_pretty(collector.series()).expect("serialize metrics"));
    }
    if let Some(tracer) = out.observer::<EventTracer>() {
        s.push('\n');
        s.push_str(&tracer.log().to_jsonl());
    }
    s
}

fn assert_invariant(name: &str, cluster: &ClusterSpec, kind: WorkloadKind, obs: &ObserverConfig) {
    let program = Sizes::Small
        .workload(kind)
        .instantiate(cluster.total_procs() as usize);
    let traces: Vec<Arc<[MemEvent]>> = collect_events(Arc::clone(&program))
        .into_iter()
        .map(|(events, _)| Arc::from(events))
        .collect();
    let baseline = snapshot(cluster, &*program, &traces, obs, THREADS[0]);
    for &n in &THREADS[1..] {
        let got = snapshot(cluster, &*program, &traces, obs, n);
        assert_eq!(
            baseline, got,
            "`{name}` × {:?} diverged between sim_threads={} and sim_threads={n}: \
             the epoch engine's output must not depend on host thread count",
            kind, THREADS[0],
        );
    }
}

fn check_platform(index: usize) {
    let (name, cluster, kinds) = &fixtures()[index];
    for &kind in kinds {
        assert_invariant(name, cluster, kind, &ObserverConfig::default());
    }
}

// One test per platform so failures localize, mirroring
// tests/engine_differential.rs.

#[test]
fn invariant_smp() {
    check_platform(0);
}

#[test]
fn invariant_cow_bus() {
    check_platform(1);
}

#[test]
fn invariant_cow_switch() {
    check_platform(2);
}

#[test]
fn invariant_clump_bus() {
    check_platform(3);
}

#[test]
fn invariant_clump_switch() {
    check_platform(4);
}

#[test]
fn invariant_miss_smp_stream() {
    check_platform(5);
}

#[test]
fn invariant_miss_clump_bigset() {
    check_platform(6);
}

#[test]
fn invariant_numa_smp() {
    check_platform(7);
}

#[test]
fn invariant_fattree_cow() {
    check_platform(8);
}

/// The observer-attached variant: a `TimeSeriesCollector` (plus the
/// bounded tracer) forces the engine down its per-access notification
/// path, where any cross-thread reordering would surface as different
/// window contents even when end-of-run totals happen to agree.
#[test]
fn invariant_with_timeseries_observer() {
    let obs = ObserverConfig {
        metrics_window: Some(50_000),
        trace_capacity: Some(128),
    };
    for index in [0, 3, 5] {
        let (name, cluster, kinds) = &fixtures()[index];
        for &kind in kinds {
            assert_invariant(name, cluster, kind, &obs);
        }
    }
}
