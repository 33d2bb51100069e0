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

use memhier_bench::runner::{simulate_workload_observed, ObserverConfig, Sizes};
use memhier_core::machine::{LatencyParams, MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use memhier_workloads::registry::WorkloadKind;
use std::fs;
use std::path::PathBuf;

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
    let run = simulate_workload_observed(
        &Sizes::Small.workload(kind),
        cluster,
        &LatencyParams::paper(),
        &ObserverConfig::default(),
    )
    .run;
    let mut json = serde_json::to_string_pretty(&run.report).expect("serialize report");
    json.push('\n');
    check_report(
        &format!(
            "{plat_name}_{}",
            kind.name().to_ascii_lowercase().replace('-', "")
        ),
        &json,
    );
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
