//! Round-trip and schema guarantees for the cost crate's typed wire
//! format.
//!
//! Two layers, mirroring `memhier-bench`'s `scenario_roundtrip.rs`:
//!
//! * property tests that *struct → JSON → parse → JSON* is a fixed
//!   point for [`OptimizeRequest`] and [`RecommendRequest`] across
//!   randomly drawn workloads, budgets, grids, prices, and confirmation
//!   settings (with the `Display` spelling parsing back to the same
//!   value), plus one that any single malformation of a valid request
//!   is a typed error naming the key it touched;
//! * golden fixtures pinning the `/v1/optimize` and `/v1/recommend`
//!   response schemas byte for byte — the exact bytes `memhierd` serves
//!   and `memhier … --json` prints.  Regenerate after an intentional
//!   schema or model change with:
//!
//!   ```text
//!   MEMHIER_BLESS=1 cargo test -p memhier-cost --test wire_roundtrip
//!   ```

use memhier_core::machine::NetworkKind;
use memhier_cost::{
    analyze, optimize, recommend, CandidateSpace, CostError, OptimizeReport, OptimizeRequest,
    PriceTable, RankedEntry, RecommendReport, RecommendRequest, WorkloadSpec,
};
use proptest::prelude::*;
use serde_json::Value;
use std::fs;
use std::path::PathBuf;

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        prop_oneof![
            Just("FFT"),
            Just("LU"),
            Just("Radix"),
            Just("EDGE"),
            Just("TPC-C"),
        ]
        .prop_map(|name| WorkloadSpec::named(name).expect("paper kernels resolve")),
        (1.05f64..3.0, 10.0f64..10_000.0, 0.05f64..0.95)
            .prop_map(|(alpha, beta, rho)| WorkloadSpec::Custom { alpha, beta, rho }),
    ]
}

fn space_strategy() -> impl Strategy<Value = CandidateSpace> {
    let procs = prop_oneof![
        Just(vec![1u32, 2, 4]),
        Just(vec![1, 2]),
        Just(vec![2, 4]),
        Just(vec![1]),
    ];
    let cache = prop_oneof![Just(vec![256u64, 512]), Just(vec![256]), Just(vec![512])];
    let mem = prop_oneof![
        Just(vec![32u64, 64, 128]),
        Just(vec![32, 64, 128, 256]),
        Just(vec![64]),
    ];
    let networks = prop_oneof![
        Just(vec![
            NetworkKind::Ethernet10,
            NetworkKind::Ethernet100,
            NetworkKind::Atm155,
        ]),
        Just(vec![NetworkKind::Ethernet100, NetworkKind::Atm155]),
        Just(vec![NetworkKind::Atm155]),
    ];
    (
        procs,
        cache,
        mem,
        1u32..=40,
        networks,
        prop_oneof![Just(200.0f64), Just(300.0), Just(450.0)],
    )
        .prop_map(
            |(proc_counts, cache_kb, memory_mb, max_machines, networks, clock_mhz)| {
                CandidateSpace {
                    proc_counts,
                    cache_kb,
                    memory_mb,
                    max_machines,
                    networks,
                    clock_mhz,
                }
            },
        )
}

fn prices_strategy() -> impl Strategy<Value = PriceTable> {
    prop_oneof![
        Just(PriceTable::circa_1999()),
        (500.0f64..5_000.0).prop_map(|ws| {
            let mut p = PriceTable::circa_1999();
            p.ws_base = ws;
            p
        }),
        (0.5f64..10.0).prop_map(|mb| {
            let mut p = PriceTable::circa_1999();
            p.mem_per_mb = mb;
            p
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// request → JSON → parse → JSON never drifts, and `Display`
    /// (compact `WORKLOAD@BUDGET` or JSON) parses back to the same
    /// request.
    #[test]
    fn optimize_request_json_is_a_fixed_point(
        workload in workload_strategy(),
        budget in 100.0f64..100_000.0,
        slo in prop_oneof![Just(None), (1e-9f64..1e-5).prop_map(Some)],
        space in space_strategy(),
        prices in prices_strategy(),
        top in 1usize..10,
        confirm in 0usize..8,
        confirm_size in prop_oneof![Just("small"), Just("medium"), Just("paper")],
    ) {
        let mut req = OptimizeRequest::new(workload, budget);
        req.slo = slo;
        req.search_space = space;
        req.prices = prices;
        req.top = top;
        req.confirm = confirm;
        req.confirm_size = confirm_size.to_string();

        let json = req.to_json();
        let parsed = OptimizeRequest::from_json(&json)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed, &req);
        prop_assert_eq!(parsed.to_json(), json);

        let reparsed: OptimizeRequest = req
            .to_string()
            .parse()
            .map_err(|e: memhier_cost::CostError| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reparsed, req);
    }

    /// The same fixed point for recommend requests, including the
    /// flattened custom-workload spelling.
    #[test]
    fn recommend_request_json_is_a_fixed_point(
        workload in workload_strategy(),
        measure in any::<bool>(),
        size in prop_oneof![
            Just(None),
            Just(Some("small")),
            Just(Some("medium")),
            Just(Some("paper")),
        ],
        budget in prop_oneof![Just(None), (100.0f64..100_000.0).prop_map(Some)],
        top in 1usize..10,
        prices in prices_strategy(),
    ) {
        let mut req = RecommendRequest::new(workload);
        // `measure` (and its size tier) only applies to named kernels.
        if matches!(req.workload, WorkloadSpec::Named(_)) {
            req.measure = measure;
            if measure {
                req.size = size.map(str::to_string);
            }
        }
        req.budget = budget;
        req.top = top;
        req.prices = prices;

        let json = req.to_json();
        let parsed = RecommendRequest::from_json(&json)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed, &req);
        prop_assert_eq!(parsed.to_json(), json);

        let reparsed: RecommendRequest = req
            .to_string()
            .parse()
            .map_err(|e: memhier_cost::CostError| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reparsed, req);
    }
}

/// Whether `e` is a typed error that names `key`.
fn names_key(e: &CostError, key: &str) -> bool {
    match e {
        CostError::Missing(k) | CostError::Invalid(k, _) => *k == key,
        CostError::UnknownField(k) => k == key,
        CostError::Syntax(why) => why.contains(&format!("`{key}`")),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One mutation of a valid request — a key dropped, an unknown key
    /// added, a value retyped, or a value nested ten arrays deep — is a
    /// typed error naming that key (dropping an optional key leaves a
    /// valid request), never a panic.
    #[test]
    fn malformed_optimize_requests_are_typed_errors(
        workload in workload_strategy(),
        budget in 100.0f64..100_000.0,
        space in space_strategy(),
        prices in prices_strategy(),
        top in 1usize..10,
        confirm in 0usize..8,
        mutation in 0usize..4,
        pick in 0usize..64,
    ) {
        let mut req = OptimizeRequest::new(workload, budget);
        req.slo = Some(1e-6);
        req.search_space = space;
        req.prices = prices;
        req.top = top;
        req.confirm = confirm;
        req.confirm_size = "medium".to_string();
        let Value::Object(mut fields) = req.to_json() else {
            return Err(TestCaseError::fail("a request serializes to an object"));
        };
        let i = pick % fields.len();
        let mut key = fields[i].0.clone();
        match mutation {
            0 => {
                fields.remove(i);
            }
            1 => {
                key = format!("{key}_x");
                fields.insert(i, (key.clone(), Value::Bool(true)));
            }
            2 => fields[i].1 = Value::Bool(true),
            _ => {
                for _ in 0..10 {
                    let inner = std::mem::replace(&mut fields[i].1, Value::Null);
                    fields[i].1 = Value::Array(vec![inner]);
                }
            }
        }
        match OptimizeRequest::from_json(&Value::Object(fields)) {
            Ok(_) => prop_assert!(
                mutation == 0 && key != "workload" && key != "budget",
                "mutation {} of `{}` parsed",
                mutation,
                key
            ),
            Err(e) => prop_assert!(names_key(&e, &key), "mutation {}: {}", mutation, e),
        }
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the
/// fixture when `MEMHIER_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&path, actual).expect("write fixture");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing fixture {}; generate it with MEMHIER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "`{name}` diverged from the golden schema fixture.\n\
         If the schema or model change is intentional, re-bless with\n\
         MEMHIER_BLESS=1 and call it out in the PR."
    );
}

/// The exact bytes `POST /v1/optimize` serves (and `memhier optimize
/// --json` prints) for a fixed analytic request: schema, field order,
/// and float spelling all pinned.
#[test]
fn golden_optimize_response_schema() {
    let mut req = OptimizeRequest::new(WorkloadSpec::named("FFT").unwrap(), 9_000.0);
    req.search_space.max_machines = 4;
    req.search_space.memory_mb = vec![32, 64];
    req.top = 3;
    let report = analyze(&req).expect("analytic search succeeds");
    let body = format!(
        "{}\n",
        serde_json::to_string_pretty(&report.to_json()).unwrap()
    );
    check_golden("optimize_response.json", &body);

    // The pinned body parses back into an identical report: the wire
    // format is a fixed point on responses too.
    let v: serde_json::Value = serde_json::from_str(body.trim()).unwrap();
    let parsed = OptimizeReport::from_json(&v).expect("fixture parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), report.to_json());
}

/// The exact bytes `POST /v1/recommend` serves (and `memhier recommend
/// --format json` prints) for a budgeted request.
#[test]
fn golden_recommend_response_schema() {
    let req = {
        let mut r = RecommendRequest::new(WorkloadSpec::named("LU").unwrap());
        r.budget = Some(4_000.0);
        r.top = 2;
        r
    };
    // Assemble exactly as `memhier_bench::run_recommend` does for the
    // non-measure path (the bench crate is not a dependency here).
    let params = req.workload.resolve().unwrap();
    let rec = recommend(&params);
    let ranked: Vec<RankedEntry> = optimize(
        req.budget.unwrap(),
        &params,
        &memhier_core::model::AnalyticModel::default(),
        &req.prices,
        &CandidateSpace::paper_market(),
    )
    .iter()
    .take(req.top)
    .map(RankedEntry::from_ranked)
    .collect();
    let report = RecommendReport::new(&params, &rec, Some(ranked));
    let body = format!(
        "{}\n",
        serde_json::to_string_pretty(&report.to_json()).unwrap()
    );
    check_golden("recommend_response.json", &body);

    let v: serde_json::Value = serde_json::from_str(body.trim()).unwrap();
    let parsed = RecommendReport::from_json(&v).expect("fixture parses");
    assert_eq!(parsed, report);
}
