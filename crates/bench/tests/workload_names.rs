//! Every entry point that takes a workload name resolves it through the
//! core workload table: each key and alias, in any case, names the same
//! kind everywhere, and an unknown name lists the same keys everywhere.

use memhier_bench::Scenario;
use memhier_cost::{OptimizeRequest, RecommendRequest, WorkloadSpec};
use memhier_workloads::registry::WorkloadKind;
use serde::Deserialize;
use serde_json::Value;

/// Every spelling a kind answers to: its key and aliases, each as
/// registered, upper-cased and lower-cased.
fn spellings(kind: WorkloadKind) -> Vec<String> {
    std::iter::once(kind.name())
        .chain(kind.info().aliases.iter().copied())
        .flat_map(|s| {
            [
                s.to_string(),
                s.to_ascii_uppercase(),
                s.to_ascii_lowercase(),
            ]
        })
        .collect()
}

fn named(kind: WorkloadKind) -> WorkloadSpec {
    WorkloadSpec::Named(kind.name().to_string())
}

#[test]
fn every_spelling_resolves_to_the_same_kind_at_every_entry_point() {
    for kind in WorkloadKind::ALL {
        for name in spellings(kind) {
            let compact: Scenario = format!("C5:{name}:small").parse().unwrap();
            assert_eq!(compact.workload, kind, "compact scenario `{name}`");

            let json: Value = serde_json::from_str(&format!(
                r#"{{"config": "C5", "workload": "{name}", "size": "small"}}"#
            ))
            .unwrap();
            assert_eq!(
                Scenario::from_json(&json).unwrap().workload,
                kind,
                "scenario JSON `{name}`"
            );

            let opt: OptimizeRequest = format!("{name}@1000").parse().unwrap();
            assert_eq!(opt.workload, named(kind), "optimize `{name}@1000`");

            let rec: RecommendRequest = name.parse().unwrap();
            assert_eq!(rec.workload, named(kind), "recommend `{name}`");

            let serde = WorkloadKind::from_json_value(Value::String(name.clone()));
            assert_eq!(serde, Ok(kind), "serde `{name}`");
        }
    }
}

#[test]
fn an_unknown_name_lists_the_same_keys_everywhere() {
    let keys = format!("({})", WorkloadKind::keys().join("|"));
    let name = "SORT";
    let errors = [
        format!("C5:{name}:small")
            .parse::<Scenario>()
            .unwrap_err()
            .to_string(),
        Scenario::from_json(
            &serde_json::from_str(&format!(r#"{{"config": "C5", "workload": "{name}"}}"#)).unwrap(),
        )
        .unwrap_err()
        .to_string(),
        format!("{name}@1000")
            .parse::<OptimizeRequest>()
            .unwrap_err()
            .to_string(),
        name.parse::<RecommendRequest>().unwrap_err().to_string(),
        WorkloadKind::from_json_value(Value::String(name.to_string())).unwrap_err(),
        memhier_bench::workload_kind_by_name(name).unwrap_err(),
    ];
    for err in errors {
        assert_eq!(err, format!("unknown workload `{name}` {keys}"));
    }
}
