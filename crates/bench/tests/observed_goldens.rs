//! Byte pins for everything an observer emits.
//!
//! Observers see the simulation through [`AccessObservation`]s, and three
//! of them turn that stream into bytes a user keeps: the `.mtr` trace
//! `record_scenario` writes, the [`EventTracer`]'s JSON Lines and the
//! [`TimeSeriesCollector`]'s metrics JSON.  This test records one small
//! scenario on every back-end family (SMP, COW on a bus, COW on a switch,
//! CLUMP, NUMA and fat-tree) and compares an FNV-1a digest of each of the
//! three outputs with `tests/golden/observed_digests.txt`.  Any change to
//! the observed run's event order, to what an observation reports, or to
//! the `.mtr` encoder shows up here.
//!
//! The tracer's capacity covers every access and barrier of these runs,
//! so the JSONL pins the whole observation stream, not a prefix of it.
//!
//! To regenerate after an intentional change to simulated semantics:
//!
//! ```text
//! MEMHIER_BLESS=1 cargo test -p memhier-bench --test observed_goldens
//! ```

use memhier_bench::{record_scenario, Scenario, Sizes};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// One scenario per back-end family: (config, workload).
const SCENARIOS: [(&str, &str); 6] = [
    ("C4", "FFT"),
    ("C8", "Radix"),
    ("C10", "LU"),
    ("C14", "FFT"),
    ("N4", "GraphWalk"),
    ("FT8", "Stencil4D"),
];

/// Metrics window width, cycles: narrow enough for many windows per run.
const WINDOW_CYCLES: u64 = 20_000;

/// Tracer capacity: above every run's access + barrier count here.
const TRACE_CAPACITY: usize = 1 << 21;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario(config: &str, workload: &str, observed: bool) -> Scenario {
    let mut b = Scenario::builder()
        .config_name(config)
        .workload_name(workload)
        .size(Sizes::Small);
    if observed {
        b = b
            .metrics_window(WINDOW_CYCLES)
            .trace_capacity(TRACE_CAPACITY);
    }
    b.build().expect("valid scenario")
}

/// A scratch `.mtr` path private to this test and scenario, so parallel
/// tests never write the same file.
fn scratch_trace(config: &str, workload: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("observed_goldens");
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{config}-{workload}-{}.mtr", std::process::id()))
}

/// The digest line of one scenario.
fn digest_line(config: &str, workload: &str) -> String {
    let path = scratch_trace(config, workload);
    let summary = record_scenario(&scenario(config, workload, false), &path).expect("record");
    let mtr = fs::read(&path).expect("read the recorded trace");
    let _ = fs::remove_file(&path);

    let run = scenario(config, workload, true).run();
    let log = run.trace.expect("tracer attached");
    assert_eq!(log.dropped, 0, "{config}:{workload}: raise TRACE_CAPACITY");
    let metrics = run.metrics.expect("collector attached");
    let metrics = serde_json::to_string(&metrics).expect("metrics serialize");
    format!(
        "{config}:{workload} records={} mtr={:016x} trace={:016x} metrics={:016x}",
        summary.records,
        fnv1a(&mtr),
        fnv1a(log.to_jsonl().as_bytes()),
        fnv1a(metrics.as_bytes()),
    )
}

#[test]
fn observed_outputs_match_the_goldens() {
    let mut actual = String::new();
    for (config, workload) in SCENARIOS {
        writeln!(actual, "{}", digest_line(config, workload)).unwrap();
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/observed_digests.txt");
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        fs::write(&path, &actual).expect("write golden");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; generate it with MEMHIER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "an observed output moved: the .mtr bytes, the tracer JSONL or the \
         metrics JSON of a pinned scenario changed"
    );
}
