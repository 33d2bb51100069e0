//! Mutation fuzzing of the scenario wire format: `/v1/simulate` bodies
//! (`Scenario::from_json`), their text spelling (`FromStr`) and
//! `/v1/sweep` grids (`Scenario::expand_grid`).
//!
//! Each case starts from a valid body — a named config, an inline
//! cluster spec, the `{platform, params}` form, the `{key, params}`
//! workload form, or a grid — and applies a few random edits anywhere in
//! its tree: drop, duplicate or swap keys and elements, retype a value
//! (`null`, a bool, a string, an array, an object, −1, 2^64, 1e308),
//! or add and rename keys with junk names (so `config.machine.*` and
//! `params` see unknown and misplaced keys).  Every outcome must be a
//! typed `ScenarioError` or a scenario, never a panic, and every
//! scenario accepted must print back to itself: its `to_json` is a
//! fixed point and its `Display` parses to the same scenario.
//!
//! Inputs that once failed are kept in `REGRESSIONS` and checked on
//! every run.

use memhier::prelude::{Scenario, ScenarioError, Sizes};
use proptest::prelude::*;
use serde_json::{Number, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid starting bodies; the last one is a sweep grid.
const SCENARIOS: &[&str] = &[
    r#"{"config": "C5", "workload": "FFT", "size": "small"}"#,
    r#"{"config": {"machine": {"n_procs": 2, "cache_bytes": 262144, "memory_bytes": 67108864,
                               "clock_hz": 2e8},
                   "machines": 4, "network": "Atm155", "name": "MyCluster"},
        "workload": "LU", "size": "small", "trace_capacity": 64}"#,
    r#"{"config": {"platform": "numa-smp", "params": {"procs": 8, "domains": 4}},
        "workload": "Stencil4D", "size": "small", "metrics_window": 1000}"#,
    r#"{"config": "C5", "workload": {"key": "Stencil4D", "params": {"iterations": 3}},
        "size": "small", "metrics_window": 1000, "trace_capacity": 4096, "sim_threads": 2,
        "faults": "point:panic:nth=2"}"#,
];
const GRID: &str = include_str!("../crates/bench/tests/golden/scenarios/sweep_request.json");

/// Bodies that once broke an invariant here, checked on every run.  An
/// inline spec used to print as its bare `name`, which then parsed as
/// an unknown config or as a different named one.
const REGRESSIONS: &[&str] = &[
    r#"{"config": {"machine": {"n_procs": 2, "cache_bytes": 262144, "memory_bytes": 67108864,
                               "clock_hz": 2e8},
                   "machines": 4, "name": "Atm155"},
        "workload": "LU", "size": "small", "trace_capacity": 64}"#,
    r#"{"config": {"machine": {"n_procs": 1, "cache_bytes": 262144, "memory_bytes": 33554432,
                               "clock_hz": 2e8},
                   "machines": 1, "name": "C5"},
        "workload": "FFT", "size": "small"}"#,
];

/// Names that mean something somewhere in a scenario, and some that
/// mean nothing anywhere.
const JUNK_NAMES: &[&str] = &[
    "",
    "C5",
    "C99",
    "MyCluster",
    "FFT",
    "small",
    "config",
    "workload",
    "size",
    "key",
    "params",
    "platform",
    "machine",
    "name",
    "numa",
    "numaa",
    "n_procs",
    "iterations",
    "point:panic:nth=1",
    "é\u{1F600}",
];

fn junk_value(pick: u32) -> Value {
    let name = JUNK_NAMES[pick as usize / 8 % JUNK_NAMES.len()];
    match pick % 8 {
        0 => Value::Null,
        1 => Value::Bool(pick % 16 < 8),
        2 => Value::String(name.to_string()),
        3 => Value::Array(vec![Value::String(name.to_string())]),
        4 => Value::Object(vec![(name.to_string(), Value::Null)]),
        5 => Value::Number(Number::I64(-1)),
        6 => Value::Number(Number::F64(2f64.powi(64))),
        _ => Value::Number(Number::F64(1e308)),
    }
}

/// Paths (child indices) to every object and array in `v`.
fn containers(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Value> = match v {
        Value::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
        Value::Array(items) => items.iter().collect(),
        _ => return,
    };
    out.push(path.clone());
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        containers(child, path, out);
        path.pop();
    }
}

fn at<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |node, &i| match node {
        Value::Object(fields) => &mut fields[i].1,
        Value::Array(items) => &mut items[i],
        _ => unreachable!("paths lead through containers"),
    })
}

/// Apply one edit to the container `at` picks.
fn mutate(v: &mut Value, op: u8, at_: u32, pick: u32) {
    let mut paths = Vec::new();
    containers(v, &mut Vec::new(), &mut paths);
    let node = at(v, &paths[at_ as usize % paths.len()]);
    let name = JUNK_NAMES[pick as usize % JUNK_NAMES.len()].to_string();
    match node {
        Value::Object(fields) => {
            if fields.is_empty() || op >= 5 {
                fields.push((name, junk_value(pick / 7)));
                return;
            }
            let i = pick as usize % fields.len();
            let n = fields.len();
            match op {
                0 => drop(fields.remove(i)),
                1 => fields.insert(i, fields[i].clone()),
                2 => fields.swap(i, (i + 1) % n),
                3 => fields[i].1 = junk_value(pick / 7),
                _ => fields[i].0 = name,
            }
        }
        Value::Array(items) => {
            if items.is_empty() || op >= 4 {
                items.push(junk_value(pick / 7));
                return;
            }
            let i = pick as usize % items.len();
            let n = items.len();
            match op {
                0 => drop(items.remove(i)),
                1 => items.insert(i, items[i].clone()),
                2 => items.swap(i, (i + 1) % n),
                _ => items[i] = junk_value(pick / 7),
            }
        }
        _ => unreachable!("containers are objects or arrays"),
    }
}

/// Every scenario accepted prints back to itself, in JSON and in its
/// `Display` form.
fn check_prints_back(s: &Scenario) -> Result<(), TestCaseError> {
    let json = s.to_json();
    let back = Scenario::from_json(&json);
    prop_assert!(
        back.as_ref() == Ok(s),
        "{json:?} parses to {back:?}, not {s:?}"
    );
    prop_assert_eq!(back.unwrap().to_json(), json);
    let text = s.to_string();
    let parsed = text.parse::<Scenario>();
    prop_assert!(parsed.as_ref() == Ok(s), "{text} parses to {parsed:?}");
    Ok(())
}

/// Decode `v` as a scenario (and as text) or as a grid, without
/// panicking, and check whatever it accepts.
fn check(v: &Value, grid: bool) -> Result<(), TestCaseError> {
    let decoded = catch_unwind(AssertUnwindSafe(
        || -> Vec<Result<Vec<Scenario>, ScenarioError>> {
            if grid {
                return vec![Scenario::expand_grid(v, Sizes::Small)];
            }
            let text = serde_json::to_string(v).expect("values serialize");
            vec![
                Scenario::from_json(v).map(|s| vec![s]),
                text.parse::<Scenario>().map(|s| vec![s]),
            ]
        },
    ));
    prop_assert!(decoded.is_ok(), "decoding panicked on {v:?}");
    for outcome in decoded.unwrap() {
        match outcome {
            Ok(scenarios) => {
                for s in &scenarios {
                    check_prints_back(s)?;
                }
            }
            Err(e) => prop_assert!(!e.to_string().is_empty(), "{v:?}: an empty error"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutated_scenarios_decode_or_fail_typed(
        start in 0..SCENARIOS.len() + 1,
        edits in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..5),
    ) {
        let text = SCENARIOS.get(start).copied().unwrap_or(GRID);
        let mut v: Value = serde_json::from_str(text).expect("valid body");
        for (op, at, pick) in edits {
            mutate(&mut v, op, at, pick);
        }
        check(&v, start == SCENARIOS.len())?;
    }
}

#[test]
fn valid_and_edge_bodies_decode_or_fail_typed() {
    let edges = [
        r#"{"config": "C5", "workload": "FFT", "metrics_window": 18446744073709551616}"#,
        r#"{"config": "C5", "workload": "FFT", "trace_capacity": 18446744073709551615}"#,
        r#"{"config": "C5", "workload": "FFT", "config": "C8", "workload": {"key": "LU"}}"#,
        r#"{"config": "C5", "workload": {"key": "FFT", "key": "LU", "params": {}}}"#,
        r#"{"config": {"platform": "smp", "platform": 5}, "workload": "FFT"}"#,
        r#"{"config": {"machine": {"n_procs": 1e308, "cache_bytes": 1, "memory_bytes": 1,
                                   "clock_hz": 1e308}, "machines": 1}, "workload": "FFT"}"#,
        r#"{"config": "C5", "workload": {"key": "Radix", "params": {"keys": 1e308}}}"#,
        r#"{"configs": ["C5", "C5"], "workloads": ["FFT"], "size": null, "sim_threads": null}"#,
        "C5:FFT:small",
        "MyCluster:FFT:small",
        "C5:FFT:small:extra",
    ];
    for text in SCENARIOS.iter().chain(REGRESSIONS).chain(&edges) {
        match serde_json::from_str::<Value>(text) {
            Ok(v) => check(&v, v.get("configs").is_some()),
            Err(_) => match catch_unwind(|| text.parse::<Scenario>()) {
                Ok(Ok(s)) => check_prints_back(&s),
                Ok(Err(_)) => Ok(()),
                Err(_) => Err(TestCaseError::fail(format!("{text} panicked"))),
            },
        }
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    }
    let grid: Value = serde_json::from_str(GRID).unwrap();
    check(&grid, true).unwrap();
}
