//! Round-trip guarantees for the unified [`Scenario`] API.
//!
//! Two layers:
//!
//! * a property test that *builder → JSON → parse → JSON* is a fixed
//!   point across randomly chosen configs, workloads, sizes, observers,
//!   and fault plans (with the compact-string and `Display` spellings
//!   parsing back to the same value);
//! * golden fixtures pinning the wire formats: a `memhierd` `/v1/sweep`
//!   request body and a `memhier sweep --configs @plan.json` plan file
//!   must deserialize into *identical* `Scenario` batches, and a
//!   `/v1/simulate` body must equal its builder spelling.  The two sweep
//!   fixtures predate the retired `sim_threads` key and still carry it,
//!   so they also pin that older inputs keep parsing.

use memhier_bench::faults::FaultPlan;
use memhier_bench::runner::Sizes;
use memhier_bench::{Scenario, ScenarioError};
use memhier_workloads::registry::WorkloadKind;
use proptest::prelude::*;

fn workload_strategy() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        Just(WorkloadKind::Fft),
        Just(WorkloadKind::Lu),
        Just(WorkloadKind::Radix),
        Just(WorkloadKind::Edge),
        Just(WorkloadKind::Tpcc),
        Just(WorkloadKind::Stencil4D),
        Just(WorkloadKind::Stream),
        Just(WorkloadKind::GraphWalk),
        Just(WorkloadKind::Inference),
    ]
}

/// Every named config spelling: the paper's `C1..C15` plus the extended
/// NUMA and fat-tree configurations.
fn config_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (1u32..=15).prop_map(|i| format!("C{i}")),
        Just("N4".to_string()),
        Just("N8".to_string()),
        Just("FT8".to_string()),
        Just("FT16".to_string()),
    ]
}

fn size_strategy() -> impl Strategy<Value = Sizes> {
    prop_oneof![Just(Sizes::Small), Just(Sizes::Medium), Just(Sizes::Paper)]
}

/// Canonical fault specs (empty = no plan).  Spellings here are already
/// in `FaultPlan`'s `Display` form so the JSON fixed point holds.
fn fault_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just(""),
        Just("point:panic:nth=2"),
        Just("ckpt:io:nth=3"),
        Just("serve:delay:rate=0.1:ms=200"),
        Just("point:panic:rate=0.05:seed=7,ckpt:io:nth=3"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// builder → JSON → parse → JSON never drifts, and both string
    /// spellings (`Display`, compact) parse back to the same scenario.
    #[test]
    fn builder_to_json_to_parse_is_a_fixed_point(
        cfg in config_strategy(),
        workload in workload_strategy(),
        size in size_strategy(),
        window in 0u64..10_000,
        cap in 0u64..5_000,
        fault in fault_strategy(),
    ) {
        let mut b = Scenario::builder()
            .config_name(&cfg)
            .workload(workload)
            .size(size);
        if window > 0 {
            b = b.metrics_window(window);
        }
        if cap > 0 {
            b = b.trace_capacity(cap as usize);
        }
        if !fault.is_empty() {
            b = b.faults(FaultPlan::parse(fault).expect("strategy emits valid specs"));
        }
        // The one thing a named config can refuse is a problem that does
        // not split across its processes (FT16 × small Stencil4D); that
        // is a typed error, and only for such a pair.
        let scenario = match b.build() {
            Err(ScenarioError::Undecomposable { workload: w, processes }) => {
                prop_assert_eq!(w, workload);
                prop_assert!(!size.workload(workload).supports_processes(processes));
                return Ok(());
            }
            built => built.expect("named configs always resolve"),
        };

        // JSON fixed point.
        let json = scenario.to_json();
        let parsed = Scenario::from_json(&json)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed, &scenario);
        prop_assert_eq!(parsed.to_json(), json);

        // Display (compact or JSON, depending on the scenario) parses back.
        let text = scenario.to_string();
        let reparsed: Scenario = text
            .parse()
            .map_err(|e: ScenarioError| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reparsed, scenario);
    }
}

/// The golden `/v1/sweep` request body and the golden `@plan.json` sweep
/// file must expand/parse into *identical* `Scenario` batches — the two
/// entry points share one wire format.  Both carry the retired
/// `sim_threads` key, which must parse and change nothing.
#[test]
fn golden_sweep_request_and_plan_file_agree() {
    let request: serde_json::Value =
        serde_json::from_str(include_str!("golden/scenarios/sweep_request.json")).unwrap();
    let plan: serde_json::Value =
        serde_json::from_str(include_str!("golden/scenarios/sweep_plan.json")).unwrap();

    let from_request = Scenario::expand_grid(&request, Sizes::Small).unwrap();
    let from_plan = Scenario::parse_batch(&plan).unwrap();
    assert_eq!(from_request, from_plan);
    assert_eq!(from_request.len(), 6, "3 configs x 2 workloads");

    // The retired key is ignored: the same grid without it is the same
    // batch.
    assert!(request.get("sim_threads").is_some());
    let without: serde_json::Value = serde_json::from_str(
        r#"{"configs": ["C1", "C5", "C8"], "workloads": ["FFT", "LU"], "size": "small"}"#,
    )
    .unwrap();
    assert_eq!(
        Scenario::expand_grid(&without, Sizes::Small).unwrap(),
        from_request
    );

    // And the shared batch feeds the sweep runner unchanged.
    let sweep = Scenario::sweep_plan("golden", &from_request).unwrap();
    assert_eq!(sweep.len(), 6);
    assert_eq!(sweep.sizes, Sizes::Small);
}

/// The golden `/v1/simulate` body equals its builder spelling, field for
/// field, and survives a serialize→parse round trip byte-identically.
#[test]
fn golden_simulate_request_matches_builder() {
    let body: serde_json::Value =
        serde_json::from_str(include_str!("golden/scenarios/simulate_request.json")).unwrap();
    let parsed = Scenario::from_json(&body).unwrap();

    let built = Scenario::builder()
        .config_name("C8")
        .workload(WorkloadKind::Radix)
        .size(Sizes::Paper)
        .metrics_window(5_000)
        .trace_capacity(4_096)
        .faults(FaultPlan::parse("point:panic:nth=2").unwrap())
        .build()
        .unwrap();
    assert_eq!(parsed, built);

    // The canonical JSON matches the fixture's field order and spelling.
    assert_eq!(
        serde_json::to_string(&parsed.to_json()).unwrap(),
        serde_json::to_string(&body).unwrap()
    );
}

/// Golden wire pin for the registry-redesign matrix: every new workload
/// on both extended back-ends (NUMA SMP `N4`, fat-tree COW `FT8`).  The
/// compact spelling must parse, survive a JSON round trip, and keep the
/// exact canonical bytes blessed in
/// `golden/scenarios/extended_matrix.jsonl` — one scenario per line, so
/// a diff localizes to the scenario that moved.
#[test]
fn golden_extended_matrix_round_trips() {
    let mut lines = Vec::new();
    for cfg in ["N4", "FT8"] {
        for workload in ["Stencil4D", "Stream", "GraphWalk", "Inference"] {
            let text = format!("{cfg}:{workload}:small");
            let scenario: Scenario = text.parse().expect("compact extended scenario parses");
            let json = scenario.to_json();
            let reparsed = Scenario::from_json(&json).expect("canonical JSON parses back");
            assert_eq!(reparsed, scenario, "{text} JSON round trip");
            assert_eq!(
                scenario.to_string().parse::<Scenario>().unwrap(),
                scenario,
                "{text} Display round trip"
            );
            lines.push(serde_json::to_string(&json).expect("serialize"));
        }
    }
    let actual = lines.join("\n") + "\n";

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/scenarios/extended_matrix.jsonl");
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write fixture");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing scenario fixture {}; generate it with MEMHIER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "extended scenario wire bytes drifted; re-bless only with a \
         conscious wire-format change"
    );
}
