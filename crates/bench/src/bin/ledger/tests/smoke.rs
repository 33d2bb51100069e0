//! Smoke test: the batch workloads at small size, one pass each, emit
//! exactly the metrics BENCHMARK.json names, each one finite, and pass
//! their output checks.

use memhier_bench::Sizes;
use memhier_ledger::spans::Recorder;
use memhier_ledger::{run, Outcome, Plan, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// The metric names one section of BENCHMARK.json lists.
fn named(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v[section]
        .as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            m["name"]
                .as_str()
                .expect("metric names are strings")
                .to_string()
        })
        .collect()
}

fn small_plan(seconds: f64) -> Plan {
    Plan {
        seed: 1,
        seconds,
        size: Sizes::Small,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_ledger")),
    }
}

fn assert_emits_exactly(out: &Outcome, want: &BTreeSet<String>, what: &str) {
    assert!(
        out.correct(),
        "{what}: {} of {} failed: {:?}",
        out.failed,
        out.attempted,
        out.errors
    );
    let got: BTreeSet<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(&got, want, "{what} emits exactly the named metrics");
    assert_eq!(
        got.len(),
        out.metrics.len(),
        "{what} emits each metric once"
    );
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn batch_workloads_emit_every_end_to_end_metric() {
    let want = named("end_to_end");
    let start = Instant::now();
    for w in [Workload::SimHit, Workload::SimMiss, Workload::TraceFit] {
        let out = run(w, &small_plan(0.0), false, &mut Recorder::new());
        assert_emits_exactly(&out, &want, w.name());
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(
        secs < 10.0,
        "one small pass of each batch workload took {secs:.1} s"
    );
}

#[test]
fn a_traced_run_emits_every_per_layer_metric_and_its_spans() {
    let mut rec = Recorder::new();
    let out = run(Workload::SimMiss, &small_plan(4.0), true, &mut rec);
    assert_emits_exactly(&out, &named("per_layer"), "traced sim_miss");
    let layers: BTreeSet<&str> = rec.spans().iter().map(|s| s.name).collect();
    for name in [
        "bench.scenario_run",
        "workloads.run_spmd",
        "sim.replay_classic",
        "trace.decode",
        "serve.request",
    ] {
        assert!(layers.contains(name), "no {name} span in {layers:?}");
    }
}
