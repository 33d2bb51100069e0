//! Differential pin on the simulator's exact outputs.
//!
//! The PR-5 hot-path rewrite (struct-of-arrays caches, chunked replay)
//! must be **bit-identical** to the engine it replaces.  These fixtures
//! were blessed from the pre-rewrite engine; every subsequent engine
//! change must reproduce them byte-for-byte across all five platform
//! back-ends × the four paper kernels, or consciously re-bless:
//!
//! ```text
//! MEMHIER_BLESS=1 cargo test -p memhier-bench --test engine_differential
//! ```
//!
//! Unlike `tests/golden.rs` (which pins qualitative orderings precisely
//! because absolute times drift with model tuning), these snapshots pin
//! the full `SimReport` JSON: the whole point of the rewrite is that
//! absolute results do **not** move.
//!
//! Ignored release-only tests pin the paper-size FT16-GraphWalk and
//! C14-Radix reports (re-blessed the same way, with `-- --ignored`) and replay the ledger
//! benchmark's nine scenarios at medium size with and without an
//! observer: the observer-free engine runs processors ahead through
//! private L1 hits, and its reports must equal the observed run's, which
//! keeps strict `(clock, index)` order.

use memhier_bench::runner::{simulate_workload, Sizes};
use memhier_bench::Scenario;
use memhier_core::machine::{LatencyParams, MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use memhier_sim::observe::NopObserver;
use memhier_sim::{ClusterBackend, MemEvent, ProcSource, SimSession};
use memhier_workloads::registry::{Workload, WorkloadKind};
use memhier_workloads::spmd::{collect_events, home_map_for};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// The five platform back-ends of the paper's Table 1 (SMP, COW over a
/// bus, COW over a switch, CLUMP over a bus, CLUMP over a switch).
fn platforms() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        (
            "smp",
            ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0)),
        ),
        (
            "cow_bus",
            ClusterSpec::cluster(
                MachineSpec::new(1, 256, 64, 200.0),
                4,
                NetworkKind::Ethernet100,
            ),
        ),
        (
            "cow_switch",
            ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 4, NetworkKind::Atm155),
        ),
        (
            "clump_bus",
            ClusterSpec::cluster(
                MachineSpec::new(2, 256, 128, 200.0),
                2,
                NetworkKind::Ethernet100,
            ),
        ),
        (
            "clump_switch",
            ClusterSpec::cluster(MachineSpec::new(2, 256, 128, 200.0), 2, NetworkKind::Atm155),
        ),
    ]
}

const WORKLOADS: [WorkloadKind; 4] = [
    WorkloadKind::Fft,
    WorkloadKind::Lu,
    WorkloadKind::Radix,
    WorkloadKind::Edge,
];

/// Miss-heavy platforms: caches an order of magnitude too small for the
/// working sets, so nearly every reference leaves L1 and exercises the
/// flattened directory/home-map miss path rather than the hit fast
/// path the Table-1 fixtures are dominated by.
fn miss_platforms() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        // Streaming pressure: an SMP whose 8 KB caches turn the
        // kernels' sweeps into α→1 streams of misses.
        (
            "miss_smp_stream",
            ClusterSpec::single(MachineSpec::new(4, 8, 128, 200.0)),
        ),
        // Large working set relative to cache *and* split across
        // machines, so misses fan out over the network/home path too.
        (
            "miss_clump_bigset",
            ClusterSpec::cluster(
                MachineSpec::new(2, 8, 128, 200.0),
                2,
                NetworkKind::Ethernet100,
            ),
        ),
    ]
}

/// The miss-heavy fixtures run the two lowest-locality kernels: Radix
/// (scattered histogram writes) and the TPC-C-like commercial mix.
const MISS_WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Radix, WorkloadKind::Tpcc];

/// Memory-pressure platforms: 2 MB machines (512 pages of 4 KB, a
/// 4,096-block remote cache).  With [`PRESSURE_RADIX`] they pin page
/// eviction (all three), remote-block eviction (COW and CLUMP) and dirty
/// writebacks of evicted remote blocks (CLUMP) end to end, which the
/// 128 MB `miss_*` machines never reach.
fn pressure_platforms() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        (
            "pressure_smp",
            ClusterSpec::single(MachineSpec::new(4, 256, 2, 200.0)),
        ),
        (
            "pressure_cow",
            ClusterSpec::cluster(MachineSpec::new(1, 256, 2, 200.0), 4, NetworkKind::Atm155),
        ),
        (
            "pressure_clump",
            ClusterSpec::cluster(
                MachineSpec::new(2, 256, 2, 200.0),
                2,
                NetworkKind::Ethernet100,
            ),
        ),
    ]
}

/// Radix at four times the medium key count: about 8 MB of keys, so a
/// 2 MB machine pages and a cluster node overflows its remote cache.
/// Small Radix touches 66 pages and never evicts anything.
const PRESSURE_RADIX: Workload = Workload::Radix {
    keys: 512 * 1024,
    radix: 1024,
    key_bits: 20,
};

/// The registry-redesign back-ends: a NUMA-aware SMP (two memory
/// domains behind one coherence fabric) and a multi-rack fat-tree COW
/// (8 single-processor nodes, 4 per rack).
fn extended_platforms() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        (
            "numa_smp",
            ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0).with_numa(2, 40.0)),
        ),
        (
            "fattree_cow",
            ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 8, NetworkKind::FatTree),
        ),
    ]
}

/// The four extended workloads ride the extended platforms: every new
/// address-stream generator is pinned on every new back-end.
const EXTENDED_WORKLOADS: [WorkloadKind; 4] = [
    WorkloadKind::Stencil4D,
    WorkloadKind::Stream,
    WorkloadKind::GraphWalk,
    WorkloadKind::Inference,
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reports")
}

fn check_report(name: &str, actual: &str) {
    let path = fixture_dir().join(format!("{name}.json"));
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        fs::write(&path, actual).expect("write fixture");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing report fixture {}; generate it with MEMHIER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "SimReport for `{name}` is no longer byte-identical to the \
         blessed engine output.\nThe engine hot path must not change \
         results; if this difference is an intentional model change, \
         re-bless with MEMHIER_BLESS=1 and justify it in the PR."
    );
}

fn run_one(plat_name: &str, cluster: &ClusterSpec, kind: WorkloadKind) {
    run_workload(plat_name, cluster, &Sizes::Small.workload(kind));
}

fn run_workload(plat_name: &str, cluster: &ClusterSpec, workload: &Workload) {
    let run = simulate_workload(workload, cluster);
    let mut json = serde_json::to_string_pretty(&run.report).expect("serialize report");
    json.push('\n');
    check_report(
        &format!(
            "{plat_name}_{}",
            workload.kind().name().to_ascii_lowercase().replace('-', "")
        ),
        &json,
    );
}

/// A pressure platform runs [`PRESSURE_RADIX`] and small TPC-C.
fn run_pressure(index: usize) {
    let (name, cluster) = &pressure_platforms()[index];
    run_workload(name, cluster, &PRESSURE_RADIX);
    run_one(name, cluster, WorkloadKind::Tpcc);
}

// One test per platform so failures localize and the four kernels of a
// platform run within one process sequentially (each sim already spawns
// its own producer threads).

#[test]
fn reports_smp() {
    let (name, cluster) = &platforms()[0];
    for kind in WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_cow_bus() {
    let (name, cluster) = &platforms()[1];
    for kind in WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_cow_switch() {
    let (name, cluster) = &platforms()[2];
    for kind in WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_clump_bus() {
    let (name, cluster) = &platforms()[3];
    for kind in WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_clump_switch() {
    let (name, cluster) = &platforms()[4];
    for kind in WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_numa_smp() {
    let (name, cluster) = &extended_platforms()[0];
    for kind in EXTENDED_WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_fattree_cow() {
    let (name, cluster) = &extended_platforms()[1];
    for kind in EXTENDED_WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_miss_smp_stream() {
    let (name, cluster) = &miss_platforms()[0];
    for kind in MISS_WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_miss_clump_bigset() {
    let (name, cluster) = &miss_platforms()[1];
    for kind in MISS_WORKLOADS {
        run_one(name, cluster, kind);
    }
}

#[test]
fn reports_pressure_smp() {
    run_pressure(0);
}

#[test]
fn reports_pressure_cow() {
    run_pressure(1);
}

#[test]
fn reports_pressure_clump() {
    run_pressure(2);
}

/// The slowest ledger scenario at paper size, byte for byte: its
/// remote-block and page LRU sets see millions of touches.  This is the
/// report `memhier simulate --config FT16 --workload GraphWalk --paper
/// --json` prints.  Too slow for a debug build:
///
/// ```text
/// cargo test --release -p memhier-bench --test engine_differential -- --ignored
/// ```
#[test]
#[ignore]
fn paper_ft16_graphwalk_report() {
    let s = Scenario::builder()
        .config_name("FT16")
        .workload_name("GraphWalk")
        .size(Sizes::Paper)
        .build()
        .expect("valid scenario");
    let mut json = serde_json::to_string_pretty(&s.run().run.report).expect("serialize report");
    json.push('\n');
    check_report("ft16_graphwalk_paper", &json);
}

/// The paper-size scenario with the largest workload footprint: 1 M
/// Radix keys, their destination array and the histogram offsets.  This
/// is the report `memhier simulate --config C14 --workload Radix --paper
/// --json` prints.  Too slow for a debug build:
///
/// ```text
/// cargo test --release -p memhier-bench --test engine_differential -- --ignored
/// ```
#[test]
#[ignore]
fn paper_c14_radix_report() {
    let s = Scenario::builder()
        .config_name("C14")
        .workload_name("Radix")
        .size(Sizes::Paper)
        .build()
        .expect("valid scenario");
    let mut json = serde_json::to_string_pretty(&s.run().run.report).expect("serialize report");
    json.push('\n');
    check_report("c14_radix_paper", &json);
}

/// The ledger benchmark's nine scenarios (`CONFIG-WORKLOAD`).
const LEDGER_SCENARIOS: [&str; 9] = [
    "C5-LU",
    "C14-Radix",
    "FT8-Stencil4D",
    "N4-Inference",
    "N4-GraphWalk",
    "FT16-GraphWalk",
    "C5-FFT",
    "C13-EDGE",
    "C10-TPCC",
];

/// Medium-size pin of the observer-free engine against its per-event
/// path: an attached observer makes the engine replay strictly in
/// `(clock, index)` order, while the observer-free run lets processors
/// run ahead through private L1 hits.  Both must give the same report on
/// every ledger scenario.  Too slow for a debug build:
///
/// ```text
/// cargo test --release -p memhier-bench --test engine_differential -- --ignored
/// ```
#[test]
#[ignore]
fn medium_ledger_scenarios_match_the_per_event_path() {
    for name in LEDGER_SCENARIOS {
        let (config, workload) = name.split_once('-').expect("CONFIG-WORKLOAD");
        let s = Scenario::builder()
            .config_name(config)
            .workload_name(workload)
            .size(Sizes::Medium)
            .build()
            .expect("valid scenario");
        let program = s
            .resolved_workload()
            .instantiate(s.config.total_procs() as usize);
        let traces: Vec<Arc<[MemEvent]>> = collect_events(Arc::clone(&program))
            .into_iter()
            .map(|(events, _)| Arc::from(events))
            .collect();
        let session = || {
            let home = home_map_for(
                &*program,
                s.config.machines as usize,
                s.config.machine.n_procs as usize,
                256,
            );
            SimSession::new(ClusterBackend::new(&s.config, LatencyParams::paper(), home))
                .with_sources(
                    traces
                        .iter()
                        .map(|t| ProcSource::shared(t.clone()))
                        .collect(),
                )
        };
        let fast = session().run().report;
        let observed = session().observe(NopObserver).run().report;
        assert_eq!(fast, observed, "{name}: the observer-free report differs");
    }
}
