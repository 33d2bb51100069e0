//! The registry listing: one JSON document describing every workload,
//! platform family, and network medium, with their typed parameter
//! schemas.
//!
//! `memhier workloads`, `memhier platforms`, and memhierd's
//! `GET /v1/registry` all render from [`registry_json`], so the CLI and
//! the service stay byte-for-byte interchangeable (pinned by
//! `serve_parity.rs`).

use memhier_core::machine::NetworkKind;
use memhier_core::{ParamInfo, FAMILIES};
use memhier_workloads::{Workload, WorkloadKind};
use serde_json::Value;

fn str_array(items: &[&str]) -> Value {
    Value::Array(items.iter().map(|s| Value::String(s.to_string())).collect())
}

fn params_json(params: &[ParamInfo]) -> Value {
    Value::Array(
        params
            .iter()
            .map(|p| {
                serde_json::json!({
                    "name": p.name,
                    "kind": p.kind,
                    "about": p.about,
                    "default": p.default,
                })
            })
            .collect(),
    )
}

/// Every workload, in table order, with its `(α, β, ρ)` under `paper`.
pub fn workloads_json() -> Value {
    Value::Array(
        WorkloadKind::ALL
            .iter()
            .map(|kind| {
                let row = kind.info();
                serde_json::json!({
                    "key": row.key,
                    "aliases": str_array(row.aliases),
                    "description": row.description,
                    "params": params_json(Workload::schema(*kind)),
                    "paper": serde_json::json!({
                        "alpha": row.alpha,
                        "beta": row.beta,
                        "rho": row.rho,
                    }),
                })
            })
            .collect(),
    )
}

/// Every platform family, in table order.
pub fn platforms_json() -> Value {
    Value::Array(
        FAMILIES
            .iter()
            .map(|f| {
                serde_json::json!({
                    "key": f.key,
                    "aliases": str_array(f.aliases),
                    "description": f.description,
                    "params": params_json(f.params),
                })
            })
            .collect(),
    )
}

/// Every network medium, in table order.
pub fn networks_json() -> Value {
    Value::Array(
        NetworkKind::registered()
            .iter()
            .map(|net| {
                let s = net.spec();
                serde_json::json!({
                    "key": s.key,
                    "wire": s.wire,
                    "aliases": str_array(s.aliases),
                    "description": s.description,
                    "mbps": s.mbps,
                })
            })
            .collect(),
    )
}

/// The full registry document: workloads, platforms, and networks.
pub fn registry_json() -> Value {
    serde_json::json!({
        "workloads": workloads_json(),
        "platforms": platforms_json(),
        "networks": networks_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_every_builtin() {
        let doc = registry_json();
        let keys = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|e| e.get("key").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let workloads = keys("workloads");
        for k in [
            "FFT",
            "LU",
            "Radix",
            "EDGE",
            "TPC-C",
            "Stencil4D",
            "Stream",
            "GraphWalk",
            "Inference",
        ] {
            assert!(workloads.contains(&k.to_string()), "workload {k}");
        }
        let platforms = keys("platforms");
        for k in [
            "uniprocessor",
            "smp",
            "cow",
            "clump",
            "numa-smp",
            "fattree-cow",
        ] {
            assert!(platforms.contains(&k.to_string()), "platform {k}");
        }
        let networks = keys("networks");
        for k in ["Ethernet10", "Ethernet100", "Atm155", "FatTree"] {
            assert!(networks.contains(&k.to_string()), "network {k}");
        }
    }

    #[test]
    fn every_entry_has_a_schema_and_description() {
        let doc = registry_json();
        for section in ["workloads", "platforms"] {
            for e in doc.get(section).and_then(Value::as_array).unwrap() {
                assert!(!e
                    .get("description")
                    .and_then(Value::as_str)
                    .unwrap()
                    .is_empty());
                let params = e.get("params").and_then(Value::as_array).unwrap();
                assert!(!params.is_empty(), "{section} entries declare parameters");
                for p in params {
                    for field in ["name", "kind", "about", "default"] {
                        assert!(p.get(field).and_then(Value::as_str).is_some());
                    }
                }
            }
        }
    }

    #[test]
    fn builtin_workloads_carry_paper_params() {
        let doc = registry_json();
        for e in doc.get("workloads").and_then(Value::as_array).unwrap() {
            let paper = e.get("paper").expect("built-ins have paper params");
            assert!(paper.get("alpha").and_then(Value::as_f64).unwrap() > 1.0);
        }
    }
}
