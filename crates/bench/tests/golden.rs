//! Golden-snapshot tests for the paper's *qualitative* claims.
//!
//! Absolute simulated times drift whenever the simulator is tuned, so
//! snapshotting them would make every calibration tweak a test failure.
//! What the paper actually argues — and what these tests pin down — are
//! **orderings**: which platform configuration is fastest for each
//! kernel in Figures 2–4, and whether our measured (α, β, ρ) land above
//! or below the paper's published Table 2 values.
//!
//! `configs.json` pins every named configuration `memhier configs` lists
//! — its serialized `ClusterSpec` and its `describe()` line — so a
//! change to how configs are built cannot move a single byte of them.
//!
//! Each figure test runs the experiment (which writes its JSON artifact under
//! `target/experiments/`), re-reads that artifact — so the provenance
//! path itself is exercised — reduces it to a stable text fingerprint,
//! and compares against a checked-in `tests/golden/*.snap` file.
//!
//! To regenerate snapshots after an intentional model change:
//!
//! ```text
//! MEMHIER_BLESS=1 cargo test -p memhier-bench --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use memhier_bench::experiments;
use memhier_bench::runner::{simulate_workload_observed, ObserverConfig, Sizes};
use memhier_bench::tables::experiments_dir;
use memhier_core::machine::{LatencyParams, MachineSpec, NetworkKind};
use memhier_core::params::configs;
use memhier_core::platform::ClusterSpec;
use memhier_workloads::registry::WorkloadKind;

fn snap_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` against `tests/golden/<file>`, or rewrite the
/// snapshot when `MEMHIER_BLESS` is set.
fn check_snapshot(file: &str, actual: &str) {
    let path = snap_dir().join(file);
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        fs::create_dir_all(snap_dir()).expect("create snapshot dir");
        fs::write(&path, actual).expect("write snapshot");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; generate it with MEMHIER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected.trim(),
        actual.trim(),
        "fingerprint for `{file}` diverged from the golden snapshot.\n\
         If the ordering change is an intentional model improvement,\n\
         re-bless with MEMHIER_BLESS=1 and explain it in the PR."
    );
}

fn load_artifact(name: &str) -> serde_json::Value {
    let path = experiments_dir().join(format!("{name}.json"));
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read artifact {}: {e}", path.display()));
    serde_json::from_str(&text).expect("parse artifact JSON")
}

/// Reduce a figure artifact (array of `FigureRow`s) to one line per
/// workload ranking the configurations by simulated `E(Instr)`,
/// fastest first.  Ties in f64 don't occur between distinct configs.
fn ranking_fingerprint(artifact: &serde_json::Value) -> String {
    let rows = artifact.as_array().expect("figure artifact is an array");
    let mut workloads: Vec<String> = Vec::new();
    for r in rows {
        let w = r["workload"].as_str().expect("workload name").to_string();
        if !workloads.contains(&w) {
            workloads.push(w);
        }
    }
    let mut lines = Vec::new();
    for w in &workloads {
        let mut per: Vec<(String, f64)> = rows
            .iter()
            .filter(|r| r["workload"].as_str() == Some(w))
            .map(|r| {
                (
                    r["config"].as_str().expect("config name").to_string(),
                    r["sim_seconds"].as_f64().expect("sim_seconds"),
                )
            })
            .collect();
        per.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
        let order: Vec<&str> = per.iter().map(|(c, _)| c.as_str()).collect();
        lines.push(format!("{w}: {}", order.join(" < ")));
    }
    lines.join("\n")
}

#[test]
fn table2_signs_match_golden() {
    let (_, _chars) = experiments::table2(Sizes::Small, false);
    let artifact = load_artifact("table2");
    // Paper's published Table 2 values (Du & Zhang, Table 2).
    let paper = [
        ("FFT", 1.21, 103.26, 0.20),
        ("LU", 1.30, 90.27, 0.31),
        ("Radix", 1.14, 120.84, 0.37),
        ("EDGE", 1.71, 85.03, 0.45),
    ];
    let sign = |ours: f64, theirs: f64| if ours >= theirs { '+' } else { '-' };
    let rows = artifact.as_array().expect("table2 artifact is an array");
    let mut lines = Vec::new();
    for r in rows {
        let name = r["name"].as_str().expect("name");
        let p = paper.iter().find(|p| p.0 == name).expect("paper row");
        lines.push(format!(
            "{name}: alpha{} beta{} rho{}",
            sign(r["alpha"].as_f64().unwrap(), p.1),
            sign(r["beta"].as_f64().unwrap(), p.2),
            sign(r["rho"].as_f64().unwrap(), p.3),
        ));
    }
    check_snapshot("table2_signs.snap", &lines.join("\n"));
}

#[test]
fn fig2_smp_ranking_matches_golden() {
    let (_, chars) = experiments::table2(Sizes::Small, false);
    let _ = experiments::fig2_smp(Sizes::Small, &chars);
    check_snapshot(
        "fig2_smp_ranking.snap",
        &ranking_fingerprint(&load_artifact("fig2_smp")),
    );
}

#[test]
fn fig3_cow_ranking_matches_golden() {
    let (_, chars) = experiments::table2(Sizes::Small, false);
    let _ = experiments::fig3_cow(Sizes::Small, &chars);
    check_snapshot(
        "fig3_cow_ranking.snap",
        &ranking_fingerprint(&load_artifact("fig3_cow")),
    );
}

/// Reduce a JSON tree to its *shape*: one `path: type` line per leaf,
/// arrays sampled by their first element.  Values are deliberately
/// excluded — cycle counts drift with simulator tuning, but consumers of
/// `--metrics` output depend on the key set and types staying put.
fn schema_fingerprint(path: &str, v: &serde_json::Value, out: &mut Vec<String>) {
    use serde_json::Value;
    match v {
        Value::Object(fields) => {
            for (k, val) in fields {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                schema_fingerprint(&p, val, out);
            }
        }
        Value::Array(a) => match a.first() {
            Some(first) => schema_fingerprint(&format!("{path}[]"), first, out),
            None => out.push(format!("{path}[]: empty")),
        },
        Value::Null => out.push(format!("{path}: null")),
        Value::Bool(_) => out.push(format!("{path}: bool")),
        Value::Number(_) => out.push(format!("{path}: number")),
        Value::String(_) => out.push(format!("{path}: string")),
    }
}

/// The windowed-metrics JSON the CLI writes for `--metrics` is a public
/// surface: pin its schema (not its values) for a small FFT run.
#[test]
fn metrics_json_schema_matches_golden() {
    let cluster = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 32, 200.0),
        2,
        NetworkKind::Ethernet100,
    );
    let out = simulate_workload_observed(
        &Sizes::Small.workload(WorkloadKind::Fft),
        &cluster,
        &LatencyParams::paper(),
        &ObserverConfig {
            metrics_window: Some(100_000),
            trace_capacity: Some(64),
        },
    );
    let series = out.metrics.expect("metrics requested");
    assert!(
        !series.windows.is_empty(),
        "small FFT must fill at least one window"
    );
    // The series' aggregate block must agree with the printed SimReport —
    // same per-level totals, same traffic (the CLI acceptance contract).
    assert_eq!(
        serde_json::to_string(&series.totals.levels).unwrap(),
        serde_json::to_string(&out.run.report.levels).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&series.totals.traffic).unwrap(),
        serde_json::to_string(&out.run.report.traffic).unwrap()
    );
    let json = serde_json::to_string_pretty(&series).expect("serialize metrics");
    let v: serde_json::Value = serde_json::from_str(&json).expect("parse metrics JSON");
    let mut lines = Vec::new();
    schema_fingerprint("", &v, &mut lines);
    check_snapshot("metrics_schema.snap", &lines.join("\n"));

    // The trace is JSONL: every line parses alone and knows its kind.
    let log = out.trace.expect("trace requested");
    for line in log.to_jsonl().lines() {
        let ev: serde_json::Value = serde_json::from_str(line).expect("parse trace line");
        assert!(ev.get("kind").is_some(), "trace event missing kind: {line}");
    }
}

#[test]
fn fig4_clump_ranking_matches_golden() {
    let (_, chars) = experiments::table2(Sizes::Small, false);
    let _ = experiments::fig4_clump(Sizes::Small, &chars);
    check_snapshot(
        "fig4_clump_ranking.snap",
        &ranking_fingerprint(&load_artifact("fig4_clump")),
    );
}

/// Every named configuration, in `memhier configs` order, with its
/// serialized spec and its one-line description: one JSON object per line.
#[test]
fn named_configs_match_golden() {
    let rows: Vec<String> = configs::all_configs()
        .into_iter()
        .chain(configs::extended_configs())
        .map(|c| {
            let row = serde_json::json!({
                "name": c.name,
                "describe": c.describe(),
                "spec": c,
            });
            serde_json::to_string(&row).expect("serialize config")
        })
        .collect();
    check_snapshot("configs.json", &format!("[\n{}\n]", rows.join(",\n")));
}
