//! The sweep runner's determinism contract: the same [`SweepPlan`]
//! executed serially (`--jobs 1`) and with maximum fan-out (`--jobs 8`)
//! must produce **byte-identical** serialized results — same grid order,
//! same simulator outputs, no scheduling leakage.
//!
//! This is what makes the JSON artifacts under `target/experiments/`
//! reproducible regardless of the host's core count.

use memhier_bench::runner::{ObserverConfig, SimRun, Sizes};
use memhier_bench::sweeprun::{run_sweep, set_jobs, PointResult, SweepPlan};
use memhier_bench::Scenario;
use memhier_core::machine::{MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use memhier_sim::observe::{MetricsSeries, TraceLog};
use memhier_workloads::registry::WorkloadKind;

fn plan() -> SweepPlan {
    let clusters = [
        ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0)).named("smp2"),
        ClusterSpec::cluster(
            MachineSpec::new(1, 256, 32, 200.0),
            2,
            NetworkKind::Ethernet100,
        )
        .named("cow2"),
        ClusterSpec::cluster(MachineSpec::new(2, 256, 64, 200.0), 2, NetworkKind::Atm155)
            .named("clump2x2"),
    ];
    let kinds = [WorkloadKind::Fft, WorkloadKind::Lu, WorkloadKind::Radix];
    SweepPlan::cross("determinism", Sizes::Small, &clusters, &kinds)
}

/// A plan whose points differ in size tier, observers (one point only)
/// and workload parameters.
fn mixed_plan() -> SweepPlan {
    let text = include_str!("golden/scenarios/mixed_plan.json");
    let points = Scenario::parse_batch(&serde_json::from_str(text).unwrap()).unwrap();
    SweepPlan {
        name: "mixed".to_string(),
        points,
    }
}

/// `set_jobs` is process-global, so tests touching it must not overlap.
static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Everything one point produced, serialized.
fn render(run: &SimRun, metrics: &Option<MetricsSeries>, trace: &Option<TraceLog>) -> String {
    let mut out = serde_json::to_string_pretty(&run.report).expect("serialize report");
    out.push_str(&serde_json::to_string(&run.counters).unwrap());
    out.push_str(&serde_json::to_string(metrics).unwrap());
    out.push_str(&serde_json::to_string(trace).unwrap());
    out.push('\n');
    out
}

fn sweep_at(plan: &SweepPlan, jobs: usize) -> Vec<PointResult> {
    set_jobs(jobs);
    let results = run_sweep(plan);
    set_jobs(0);
    assert_eq!(results.len(), plan.points.len());
    results
}

fn serialize(results: &[PointResult]) -> String {
    results
        .iter()
        .map(|r| render(&r.run, &r.metrics, &r.trace))
        .collect()
}

fn run_serialized(plan: &SweepPlan, jobs: usize) -> String {
    serialize(&sweep_at(plan, jobs))
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let _guard = JOBS_LOCK.lock().unwrap();
    for plan in [plan(), mixed_plan()] {
        let serial = run_serialized(&plan, 1);
        let parallel = run_serialized(&plan, 8);
        assert!(
            serial == parallel,
            "serialized `{}` results differ between --jobs 1 and --jobs 8\n\
             serial:\n{serial}\nparallel:\n{parallel}",
            plan.name
        );
        // And the artifacts are non-trivial: every point simulated work.
        assert!(serial.contains("wall_cycles"));
    }
}

/// Each point of a mixed plan runs exactly as its own `Scenario::run`:
/// the runner adds no plan-wide size, observers or parameters.
#[test]
fn mixed_points_run_as_their_scenarios() {
    let _guard = JOBS_LOCK.lock().unwrap();
    set_jobs(4);
    let results = run_sweep(&mixed_plan());
    set_jobs(0);
    for r in &results {
        let alone = r.point.run();
        assert!(
            render(&r.run, &r.metrics, &r.trace)
                == render(&alone.run, &alone.metrics, &alone.trace),
            "point {} differs from its own Scenario::run",
            r.index
        );
        assert_eq!(
            r.metrics.is_some(),
            r.index == 2,
            "observers on point 2 only"
        );
    }
    assert_eq!(results[1].point.size, Sizes::Medium);
    assert!(results[3].point.workload_params.is_some());
}

/// Same contract with observers attached: metrics windows and event
/// traces are part of the deterministic output, not a scheduling
/// side-channel — `--jobs 8` must reproduce `--jobs 1` byte for byte.
#[test]
fn observed_sweep_is_byte_identical_across_jobs() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let mut observed = plan();
    for p in &mut observed.points {
        p.observers = ObserverConfig {
            metrics_window: Some(50_000),
            trace_capacity: Some(256),
        };
    }
    let serial = sweep_at(&observed, 1);
    for r in &serial {
        assert!(
            r.metrics.is_some() && r.trace.is_some(),
            "point {} lost its metrics or trace",
            r.index
        );
    }
    let parallel = run_serialized(&observed, 8);
    assert!(
        serialize(&serial) == parallel,
        "observed sweep output differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn repeated_serial_runs_are_stable() {
    // Guards the fixed-seed contract the byte-identity test rests on: if
    // any workload picked up entropy (time, ASLR, iteration order of a
    // hash map), two serial runs would already disagree.
    let _guard = JOBS_LOCK.lock().unwrap();
    let a = run_serialized(&plan(), 1);
    let b = run_serialized(&plan(), 1);
    assert!(a == b, "two serial runs of the same plan diverged");
}
