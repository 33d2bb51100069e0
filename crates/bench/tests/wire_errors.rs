//! Golden error texts for the typed wire formats.
//!
//! Every request and report type the CLI and `memhierd` decode —
//! `OptimizeRequest`, `RecommendRequest`, `FitRequest`, `FitReport`,
//! `OptimizeReport`, `RecommendReport`, `Scenario` and the `/v1/sweep`
//! grid (`Grid`, through `Scenario::expand_grid`) — is fed a valid body
//! and then every single-fault mutation of it: each key (nested ones
//! too) dropped, retyped or set to `null`, and an unknown key added to
//! each object; non-object bodies are rows of their own.  Hand-listed
//! rows add out-of-range values and unknown names.  Each row of
//! `tests/golden/wire_errors.jsonl` pins the outcome: the re-serialized
//! value on success, the exact `Display` text on failure.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! MEMHIER_BLESS=1 cargo test -p memhier-bench --test wire_errors
//! ```

use memhier_bench::{Scenario, Sizes};
use memhier_cost::{OptimizeReport, OptimizeRequest, RecommendReport, RecommendRequest};
use memhier_trace::{FitReport, FitRequest};
use serde_json::Value;
use std::fs;
use std::path::PathBuf;

/// One valid body per type; the generic mutations start from these.
const BASES: &[(&str, &str)] = &[
    (
        "OptimizeRequest",
        r#"{"workload": "fft", "budget": 9000, "slo": 1e-6,
            "search_space": {"procs": [1, 2], "cache_kb": [256], "memory_mb": [32, 64],
                             "max_machines": 4, "networks": ["atm", "eth100"], "clock_mhz": 300},
            "prices": {"ws_base": 2000, "atm_per_machine": 500.5},
            "top": 3, "confirm": 2, "confirm_size": "MEDIUM"}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": {"alpha": 1.5, "beta": 200, "rho": 0.3}, "budget": 5000}"#,
    ),
    (
        "RecommendRequest",
        r#"{"workload": "edge", "measure": true, "size": "Small", "budget": 8000, "top": 2,
            "prices": {"mem_per_mb": 2.5}}"#,
    ),
    (
        "RecommendRequest",
        r#"{"alpha": 1.5, "beta": 200, "rho": 0.3, "budget": 8000}"#,
    ),
    (
        "FitRequest",
        r#"{"trace": "a.mtr", "granularity": 4, "chunk_records": 100}"#,
    ),
    (
        "FitReport",
        r#"{"alpha": 1.3, "beta": 90.5, "rho": 0.5, "r2": 0.99, "records": 50000,
            "granularity": 64, "converged": true,
            "history": [{"records": 4096, "alpha": 1.31, "beta": 91.0, "r2": 0.98}]}"#,
    ),
    (
        "OptimizeReport",
        r#"{"workload": "FFT", "alpha": 1.5, "beta": 250.0, "rho": 0.4, "budget": 9000.0,
            "slo": 1e-6,
            "search": {"candidates": 10, "unpriced": 1, "over_budget": 2, "model_rejected": 0,
                       "slo_filtered": 0, "feasible": 7, "confirmed": 1, "pruning_ratio": 0.9},
            "ranked": [{"config": "4 x (1P, 256KB, 32MB) over 155Mb ATM", "machines": 4,
                        "procs_per_machine": 1, "cache_kb": 256, "memory_mb": 32,
                        "network": "atm", "cost": 8000.0, "model_seconds": 1e-8}],
            "best": {"config": "1 x (2P, 256KB, 64MB)", "machines": 1, "procs_per_machine": 2,
                     "cache_kb": 256, "memory_mb": 64, "cost": 5600.0, "model_seconds": 2e-8,
                     "simulated": {"size": "small", "seconds": 2.5e-8, "wall_cycles": 1000}},
            "pareto": [{"config": "p", "machines": 1, "procs_per_machine": 1, "cache_kb": 256,
                        "memory_mb": 32, "cost": 1800.0, "model_seconds": 3e-8}]}"#,
    ),
    (
        "RecommendReport",
        r#"{"workload": "LU", "alpha": 1.2, "beta": 300.0, "rho": 0.4,
            "platform": "FewWorkstationsFastNetwork", "rationale": "why", "upgrade_advice": "how",
            "ranked": [{"config": "c", "machines": 2, "procs_per_machine": 1, "cache_kb": 256,
                        "memory_mb": 32, "network": "eth100", "cost": 3800.0,
                        "model_seconds": 4e-8}]}"#,
    ),
    (
        "RecommendReport",
        r#"{"workload": "LU", "alpha": 1.2, "beta": 300.0, "rho": 0.4,
            "platform": "SingleSmp", "rationale": "why", "upgrade_advice": "how"}"#,
    ),
];

/// Hand-listed inputs: out-of-range values, defaults the decoders fill
/// in, and inline cluster-spec faults inside a scenario.
const EXTRA: &[(&str, &str)] = &[
    ("OptimizeRequest", r#"{"workload": "SORT", "budget": 1}"#),
    ("OptimizeRequest", r#"{"workload": "FFT", "budget": -1}"#),
    ("OptimizeRequest", r#"{"workload": "FFT", "budget": 1e400}"#),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "slo": 0}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "slo": -2.5}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "top": 0}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "top": -1}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "top": 1.5}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "confirm": -3}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "confirm_size": "huge"}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": {"alpha": 0.5, "beta": 100, "rho": 0.2}, "budget": 1}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": {"alpha": 1.5, "beta": 100, "rho": 1.5}, "budget": 1}"#,
    ),
    ("OptimizeRequest", r#"{"workload": {}, "budget": 1}"#),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"procs": []}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"procs": ["a"]}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"procs": [5000000000]}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"cache_kb": []}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"memory_mb": [-1]}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"max_machines": 0}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"max_machines": 5000000000}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"networks": []}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"networks": ["token-ring"]}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"networks": [5]}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"clock_mhz": 0}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "search_space": {"clock_mhz": -200}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "prices": {"ws_base": -5}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "prices": {"eth10_per_machine": 1e400}}"#,
    ),
    (
        "OptimizeRequest",
        r#"{"workload": "FFT", "budget": 1, "prices": {}}"#,
    ),
    ("RecommendRequest", r#"{}"#),
    ("RecommendRequest", r#"{"workload": "SORT"}"#),
    (
        "RecommendRequest",
        r#"{"workload": "FFT", "alpha": 1.5, "beta": 200, "rho": 0.3}"#,
    ),
    ("RecommendRequest", r#"{"alpha": 1.5, "beta": 200}"#),
    (
        "RecommendRequest",
        r#"{"alpha": 0.5, "beta": 200, "rho": 0.3}"#,
    ),
    (
        "RecommendRequest",
        r#"{"alpha": 1.5, "beta": 200, "rho": 0.3, "measure": true}"#,
    ),
    ("RecommendRequest", r#"{"workload": "FFT", "size": "huge"}"#),
    ("RecommendRequest", r#"{"workload": "FFT", "budget": -1}"#),
    ("RecommendRequest", r#"{"workload": "FFT", "top": 0}"#),
    ("RecommendRequest", r#"{"workload": "FFT", "top": -2}"#),
    (
        "RecommendRequest",
        r#"{"workload": "FFT", "prices": {"smp4_base": -1}}"#,
    ),
    ("FitRequest", r#"{"trace": "a.mtr"}"#),
    ("FitRequest", r#"{"trace": "a.mtr", "granularity": 48}"#),
    ("FitRequest", r#"{"trace": "a.mtr", "granularity": 0}"#),
    ("FitRequest", r#"{"trace": "a.mtr", "granularity": -64}"#),
    ("FitRequest", r#"{"trace": "a.mtr", "chunk_records": 0}"#),
    ("FitRequest", r#"{"trace": "a.mtr", "chunk_records": 2.5}"#),
    (
        "FitReport",
        r#"{"alpha": 1.3, "beta": 90.5, "rho": 0.5, "r2": 0.99, "records": -1,
                      "granularity": 64, "converged": false}"#,
    ),
    (
        "FitReport",
        r#"{"alpha": 1.3, "beta": 90.5, "rho": 0.5, "r2": 0.99, "records": 10,
                      "granularity": 64, "converged": false, "history": []}"#,
    ),
    (
        "FitReport",
        r#"{"alpha": 1.3, "beta": 90.5, "rho": 0.5, "r_squared": 0.99, "records": 10,
                      "granularity": 64, "converged": false}"#,
    ),
    (
        "OptimizeReport",
        r#"{"workload": "FFT", "alpha": 1.5, "beta": 250.0, "rho": 0.4,
                           "budget": 9000.0, "search": {"candidates": 3},
                           "ranked": [{"config": "c", "cost": 1.0, "model_seconds": 1.0}]}"#,
    ),
    (
        "OptimizeReport",
        r#"{"workload": "FFT", "alpha": 1.5, "beta": 250.0, "rho": 0.4,
                           "budget": 9000.0, "search": {"candidates": -3}}"#,
    ),
    (
        "OptimizeReport",
        r#"{"workload": "FFT", "alpha": 1.5, "beta": 250.0, "rho": 0.4,
                           "budget": 9000.0, "search": {},
                           "ranked": [{"config": "c", "machines": -1, "cost": 1.0,
                                       "model_seconds": 1.0}]}"#,
    ),
    (
        "OptimizeReport",
        r#"{"workload": "FFT", "alpha": 1.5, "beta": 250.0, "rho": 0.4,
                           "budget": 9000.0, "search": {},
                           "best": {"config": "c", "cost": 1.0, "model_seconds": 1.0,
                                    "simulated": {"size": "small", "seconds": 1.0,
                                                  "wall_cycles": -1}}}"#,
    ),
    (
        "RecommendReport",
        r#"{"workload": "LU", "alpha": 1.2, "beta": 300.0, "rho": 0.4,
                            "platform": "Mainframe", "rationale": "why", "upgrade_advice": "how"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": {"n_procs": 2, "cache_bytes": 262144,
                                            "memory_bytes": 67108864, "clock_hz": 2e8},
                                "machines": 1, "network": null, "name": null},
                     "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": {"n_procs": "x", "cache_bytes": 262144,
                                            "memory_bytes": 67108864, "clock_hz": 2e8},
                                "machines": 1},
                     "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": {"n_procs": 2, "cache_bytes": 262144,
                                            "memory_bytes": 67108864},
                                "machines": 1},
                     "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": {"n_procs": 4, "cache_bytes": 262144,
                                            "memory_bytes": 67108864, "clock_hz": 2e8,
                                            "numa": {"domains": "two",
                                                     "remote_penalty_cycles": 40}},
                                "machines": 1},
                     "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": {"n_procs": 1, "cache_bytes": 262144,
                                            "memory_bytes": 67108864, "clock_hz": 2e8},
                                "machines": -4, "network": "Atm155"},
                     "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": {"n_procs": 1, "cache_bytes": 262144,
                                            "memory_bytes": 67108864, "clock_hz": 2e8},
                                "machines": 4, "network": 5},
                     "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": {"n_procs": 1, "cache_bytes": 262144,
                                            "memory_bytes": 67108864, "clock_hz": 2e8},
                                "machines": 4, "network": "TokenRing"},
                     "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"machine": 7, "machines": 1}, "workload": "FFT"}"#,
    ),
];

/// Scenario and sweep-grid bodies, whose rows follow the ones above.
/// The scenario body carries every key but `faults`, which is validated
/// and then dropped, so no decodable row spells it.  A grid decodes to
/// the array of its scenarios.  `null` for a grid's `size` or
/// `sim_threads` means "absent", where in a scenario it is an error.
const SCENARIO_BASES: &[(&str, &str)] = &[
    (
        "Scenario",
        r#"{"config": "C5", "workload": {"key": "Stencil4D", "params": {"iterations": 3}},
            "size": "small", "metrics_window": 1000, "trace_capacity": 4096, "sim_threads": 2}"#,
    ),
    ("Grid", include_str!("golden/scenarios/sweep_request.json")),
];

/// Hand-listed scenario and grid faults: the `{platform, params}` and
/// `{key, params}` object forms, unknown names (reported by the builder,
/// workload before size before config), and the retired keys.
const SCENARIO_EXTRA: &[(&str, &str)] = &[
    (
        "Scenario",
        r#"{"config": {"platform": "warp-drive"}, "workload": "FFT"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"platform": 5}, "workload": "FFT"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"platform": "numa-smp", "params": {"procs": 8, "domainz": 4}},
            "workload": "FFT", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"platform": "numa-smp", "params": {"procs": 8}, "name": "N"},
            "workload": "FFT"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"platform": "numa-smp", "params": 5}, "workload": "FFT"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"platform": "numa-smp", "params": {"procs": 8, "domains": 4}},
            "workload": "Stencil4D", "size": "small"}"#,
    ),
    (
        "Scenario",
        r#"{"config": {"platform": "clump", "params": {"machines": 3, "procs": 4}},
            "workload": "EDGE"}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": {"params": {"iterations": 3}}}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": {"key": "FFT", "params": {}, "extra": 1}}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": {"key": "FFT", "params": {"size": "small"}}}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": {"key": "Stream", "params": {"stride": 2}}}"#,
    ),
    ("Scenario", r#"{}"#),
    ("Scenario", r#"{"size": "small"}"#),
    ("Scenario", r#"{"config": "C99", "workload": "FFT"}"#),
    ("Scenario", r#"{"config": "C5", "workload": "SORT"}"#),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "size": "huge"}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C99", "workload": "SORT", "size": "huge"}"#,
    ),
    ("Scenario", r#"{"config": "C99", "size": "huge"}"#),
    (
        "Scenario",
        r#"{"config": "c5", "workload": "fft", "size": "SMALL"}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "metrics_window": 0}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "metrics_window": 2.5}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "trace_capacity": -1}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "sim_threads": -1}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "faults": 5}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "faults": null}"#,
    ),
    (
        "Scenario",
        r#"{"config": "C5", "workload": "FFT", "faults": "point:explode"}"#,
    ),
    ("Grid", r#"{"configs": ["C5", 7], "workloads": ["LU"]}"#),
    ("Grid", r#"{"configs": ["C5"], "workloads": "LU"}"#),
    ("Grid", r#"{"configs": [], "workloads": ["LU"]}"#),
    ("Grid", r#"{"configs": ["C99"], "workloads": ["LU"]}"#),
    ("Grid", r#"{"configs": ["C5"], "workloads": ["SORT"]}"#),
    (
        "Grid",
        r#"{"configs": ["C5"], "workloads": ["LU"], "size": "huge"}"#,
    ),
    (
        "Grid",
        r#"{"configs": ["C99"], "workloads": ["SORT"], "size": "huge"}"#,
    ),
    (
        "Grid",
        r#"{"configs": ["C5"], "workloads": ["LU"], "sim_threads": -1}"#,
    ),
    (
        "Grid",
        r#"{"configs": ["c5"], "workloads": ["lu"], "size": "Paper"}"#,
    ),
];

/// Decode `v` as `ty`: the re-serialized value, or the error's text.
fn decode(ty: &str, v: &Value) -> Result<Value, String> {
    fn text<E: std::fmt::Display>(e: E) -> String {
        e.to_string()
    }
    match ty {
        "OptimizeRequest" => OptimizeRequest::from_json(v)
            .map(|r| r.to_json())
            .map_err(text),
        "RecommendRequest" => RecommendRequest::from_json(v)
            .map(|r| r.to_json())
            .map_err(text),
        "FitRequest" => FitRequest::from_json(v).map(|r| r.to_json()).map_err(text),
        "FitReport" => FitReport::from_json(v).map(|r| r.to_json()).map_err(text),
        "OptimizeReport" => OptimizeReport::from_json(v)
            .map(|r| r.to_json())
            .map_err(text),
        "RecommendReport" => RecommendReport::from_json(v)
            .map(|r| r.to_json())
            .map_err(text),
        "Scenario" => Scenario::from_json(v).map(|s| s.to_json()).map_err(text),
        "Grid" => Scenario::expand_grid(v, Sizes::Small)
            .map(|grid| Value::Array(grid.iter().map(Scenario::to_json).collect()))
            .map_err(text),
        other => panic!("no decoder for `{other}`"),
    }
}

fn num(n: u64) -> Value {
    Value::Number(serde_json::Number::U64(n))
}

/// A value of another JSON type than `v`.
fn retyped(v: &Value) -> Value {
    match v {
        Value::String(_) => num(7),
        _ => Value::String("x".to_string()),
    }
}

/// Every single-fault mutation of `v` (recursing into nested objects
/// and the first element of arrays), labelled with the path it changed.
fn mutations(v: &Value, path: &str, out: &mut Vec<(String, Value)>) {
    match v {
        Value::Object(fields) => {
            let mut unknown = fields.clone();
            unknown.push(("zz_unknown".to_string(), Value::Bool(true)));
            out.push((format!("unknown key in {path}/"), Value::Object(unknown)));
            for (i, (key, value)) in fields.iter().enumerate() {
                let sub = format!("{path}/{key}");
                let with = |replacement: Value| {
                    let mut f = fields.clone();
                    f[i].1 = replacement;
                    Value::Object(f)
                };
                let mut dropped = fields.clone();
                dropped.remove(i);
                out.push((format!("drop {sub}"), Value::Object(dropped)));
                out.push((format!("retype {sub}"), with(retyped(value))));
                out.push((format!("null {sub}"), with(Value::Null)));
                let mut nested = Vec::new();
                mutations(value, &sub, &mut nested);
                out.extend(nested.into_iter().map(|(label, m)| (label, with(m))));
            }
        }
        Value::Array(items) if !items.is_empty() => {
            let mut nested = Vec::new();
            mutations(&items[0], &format!("{path}/0"), &mut nested);
            for (label, m) in nested {
                let mut a = items.clone();
                a[0] = m;
                out.push((label, Value::Array(a)));
            }
        }
        _ => {}
    }
}

/// One golden row.  Mutation rows name their change to the type's
/// valid body instead of repeating the whole input.
fn row(ty: &str, case: &str, input: &Value, show_input: bool) -> String {
    let mut fields = vec![
        ("type".to_string(), Value::String(ty.to_string())),
        ("case".to_string(), Value::String(case.to_string())),
    ];
    if show_input {
        fields.push(("input".to_string(), input.clone()));
    }
    fields.push(match decode(ty, input) {
        Ok(v) => ("ok".to_string(), v),
        Err(e) => ("err".to_string(), Value::String(e)),
    });
    serde_json::to_string(&Value::Object(fields)).expect("rows serialize")
}

fn golden_rows() -> String {
    let mut lines = Vec::new();
    let parse = |text: &str| -> Value { serde_json::from_str(text).expect("case is valid JSON") };
    for (bases, extra) in [(BASES, EXTRA), (SCENARIO_BASES, SCENARIO_EXTRA)] {
        for (ty, text) in bases {
            let base = parse(text);
            lines.push(row(ty, "valid", &base, true));
            for body in [
                Value::Array(vec![]),
                Value::String("FFT".into()),
                num(5),
                Value::Null,
            ] {
                lines.push(row(ty, "non-object body", &body, true));
            }
            let mut cases = Vec::new();
            mutations(&base, "", &mut cases);
            for (case, input) in &cases {
                lines.push(row(ty, case, input, false));
            }
        }
        for (ty, text) in extra {
            lines.push(row(ty, "listed", &parse(text), true));
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn wire_error_texts_match_the_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_errors.jsonl");
    let actual = golden_rows();
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        fs::write(&path, &actual).expect("write golden");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; bless it with MEMHIER_BLESS=1", path.display()));
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "row {} of wire_errors.jsonl diverged", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "row count of wire_errors.jsonl diverged"
    );
}
