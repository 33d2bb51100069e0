//! Parameter schemas and the parameter-map builder: the rest of the
//! generator half of the workload table.
//!
//! Every workload row in `memhier-core` has one schema here (a typed
//! [`ParamInfo`] list, shared with the platform family table) and one arm in
//! [`Workload::build`], which applies a JSON parameter map on top of a
//! size tier.
//!
//! ```
//! use memhier_workloads::{Workload, WorkloadKind};
//! use serde::__private::Value;
//!
//! let kind = WorkloadKind::parse("stencil4d").unwrap();
//! let w = Workload::build(kind, &Value::Null).unwrap();
//! assert!(w.supports_processes(4));
//! ```

use crate::radix::MAX_KEY_BITS;
use crate::registry::{Workload, WorkloadKind};
use memhier_core::ParamInfo;
use serde::__private::Value;

/// The `size` parameter every built-in accepts.
const SIZE_PARAM: ParamInfo = ParamInfo {
    name: "size",
    kind: "string",
    about: "Base problem size: small | medium | paper",
    default: "paper",
};

fn check_unknown_keys(kind: WorkloadKind, params: &Value) -> Result<(), String> {
    let Value::Object(fields) = params else {
        if params.is_null() {
            return Ok(());
        }
        return Err(format!(
            "workload `{}` parameters must be a JSON object",
            kind.name()
        ));
    };
    let schema = Workload::schema(kind);
    for (k, _) in fields {
        if !schema.iter().any(|p| p.name == k) {
            let known: Vec<&str> = schema.iter().map(|p| p.name).collect();
            return Err(format!(
                "workload `{}` has no parameter `{k}` (known: {})",
                kind.name(),
                known.join(", ")
            ));
        }
    }
    Ok(())
}

fn get_usize(params: &Value, key: &str, default: usize) -> Result<usize, String> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("parameter `{key}` must be a positive integer")),
    }
}

fn get_u32(params: &Value, key: &str, default: u32) -> Result<u32, String> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("parameter `{key}` must be a positive integer")),
    }
}

fn base_size(kind: WorkloadKind, params: &Value) -> Result<Workload, String> {
    match params.get("size").and_then(|v| v.as_str()) {
        None => Ok(Workload::paper(kind)),
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "small" => Ok(Workload::small(kind)),
            "medium" => Ok(Workload::medium(kind)),
            "paper" => Ok(Workload::paper(kind)),
            other => Err(format!(
                "unknown size `{other}` (known: small, medium, paper)"
            )),
        },
    }
}

macro_rules! p {
    ($name:literal, $kind:literal, $about:literal, $default:literal) => {
        ParamInfo {
            name: $name,
            kind: $kind,
            about: $about,
            default: $default,
        }
    };
}

/// Parameter schemas, one per workload in [`WorkloadKind::ALL`] order
/// (indexed by [`WorkloadKind::index`]).  The defaults are the paper tier.
static SCHEMAS: [&[ParamInfo]; 9] = [
    &[
        SIZE_PARAM,
        p!(
            "points",
            "u64",
            "Total complex points (a power of 4)",
            "65536"
        ),
    ],
    &[
        SIZE_PARAM,
        p!("n", "u64", "Matrix dimension", "512"),
        p!("block", "u64", "Block dimension", "16"),
    ],
    &[
        SIZE_PARAM,
        p!("keys", "u64", "Number of keys", "1048576"),
        p!("radix", "u64", "Digit radix (a power of two)", "1024"),
        p!("key_bits", "u32", "Key width in bits", "20"),
    ],
    &[
        SIZE_PARAM,
        p!("dim", "u64", "Image dimension", "128"),
        p!("iterations", "u64", "Blur/register/match iterations", "4"),
    ],
    &[
        SIZE_PARAM,
        p!("db_cells", "u64", "Cells per database region", "131072"),
        p!(
            "refs_per_proc",
            "u64",
            "References each process issues",
            "500000"
        ),
    ],
    &[
        SIZE_PARAM,
        p!("l", "u64", "Lattice extent per dimension", "16"),
        p!("iterations", "u64", "Relaxation sweeps", "8"),
    ],
    &[
        SIZE_PARAM,
        p!("elems", "u64", "Elements per array", "1048576"),
        p!("passes", "u64", "Scan passes", "4"),
    ],
    &[
        SIZE_PARAM,
        p!("nodes", "u64", "Permutation size", "262144"),
        p!("steps", "u64", "Hops each process takes", "500000"),
    ],
    &[
        SIZE_PARAM,
        p!("dim", "u64", "Layer width", "128"),
        p!("layers", "u64", "Layer count", "4"),
        p!("batch", "u64", "Batch rows", "32"),
    ],
];

impl Workload {
    /// The typed parameter schema `kind`'s generator accepts.
    pub fn schema(kind: WorkloadKind) -> &'static [ParamInfo] {
        SCHEMAS[kind.index()]
    }

    /// Build `kind` from a JSON object of parameters: `size` picks the
    /// base tier (default paper), the other keys override its fields.
    /// Unknown keys are rejected, and so is a problem whose arrays do not
    /// fit the simulated address space on one process
    /// ([`Workload::check_layout`]).
    pub fn build(kind: WorkloadKind, params: &Value) -> Result<Workload, String> {
        check_unknown_keys(kind, params)?;
        let mut w = base_size(kind, params)?;
        match &mut w {
            Workload::Fft { points } => {
                *points = get_usize(params, "points", *points)?;
                if !points.is_power_of_two() || points.trailing_zeros() % 2 != 0 {
                    return Err(format!("`points` must be a power of 4, got {points}"));
                }
            }
            Workload::Lu { n, block } => {
                *n = get_usize(params, "n", *n)?;
                *block = get_usize(params, "block", *block)?;
                if *n % *block != 0 {
                    return Err(format!("`block` ({block}) must divide `n` ({n})"));
                }
            }
            Workload::Radix {
                keys,
                radix,
                key_bits,
            } => {
                *keys = get_usize(params, "keys", *keys)?;
                *radix = get_usize(params, "radix", *radix)?;
                *key_bits = get_u32(params, "key_bits", *key_bits)?;
                if !radix.is_power_of_two() {
                    return Err(format!("`radix` must be a power of two, got {radix}"));
                }
                if *key_bits > MAX_KEY_BITS {
                    return Err(format!(
                        "`key_bits` must be at most {MAX_KEY_BITS}, got {key_bits}"
                    ));
                }
            }
            Workload::Edge { dim, iterations } => {
                *dim = get_usize(params, "dim", *dim)?;
                *iterations = get_usize(params, "iterations", *iterations)?;
            }
            Workload::Tpcc {
                db_cells,
                refs_per_proc,
            } => {
                *db_cells = get_usize(params, "db_cells", *db_cells)?;
                *refs_per_proc = get_usize(params, "refs_per_proc", *refs_per_proc)?;
            }
            Workload::Stencil4D { l, iterations } => {
                *l = get_usize(params, "l", *l)?;
                *iterations = get_usize(params, "iterations", *iterations)?;
                if *l < 2 {
                    return Err("`l` must be at least 2".to_string());
                }
            }
            Workload::Stream { elems, passes } => {
                *elems = get_usize(params, "elems", *elems)?;
                *passes = get_usize(params, "passes", *passes)?;
            }
            Workload::GraphWalk { nodes, steps } => {
                *nodes = get_usize(params, "nodes", *nodes)?;
                *steps = get_usize(params, "steps", *steps)?;
                if *nodes < 2 {
                    return Err("`nodes` must be at least 2".to_string());
                }
                if u32::try_from(*nodes).is_err() {
                    return Err(format!("`nodes` must be at most {}, got {nodes}", u32::MAX));
                }
            }
            Workload::Inference { dim, layers, batch } => {
                *dim = get_usize(params, "dim", *dim)?;
                *layers = get_usize(params, "layers", *layers)?;
                *batch = get_usize(params, "batch", *batch)?;
            }
        }
        w.check_layout(1)?;
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn every_kind_has_a_schema_with_a_size() {
        for kind in WorkloadKind::ALL {
            assert!(Workload::schema(kind).iter().any(|p| p.name == "size"));
        }
    }

    #[test]
    fn null_params_build_paper_sizes() {
        for kind in WorkloadKind::ALL {
            let w = Workload::build(kind, &Value::Null).unwrap();
            assert_eq!(w, Workload::paper(kind), "{}", kind.name());
        }
    }

    /// The paper sizes are spelled three ways — `core::params::sizes`, the
    /// paper tier and the schema defaults — and the model row names the
    /// kernel a fourth time.  All of them must agree.
    #[test]
    fn paper_sizes_agree_across_their_spellings() {
        use memhier_core::params::sizes;
        for kind in WorkloadKind::ALL {
            let paper = Workload::paper(kind);
            // Every default, applied at once, rebuilds the paper tier.
            let fields: Vec<String> = Workload::schema(kind)
                .iter()
                .map(|p| match p.kind {
                    "string" => format!("\"{}\": \"{}\"", p.name, p.default),
                    _ => format!("\"{}\": {}", p.name, p.default),
                })
                .collect();
            let defaults: Value =
                serde_json::from_str(&format!("{{{}}}", fields.join(", "))).unwrap();
            assert_eq!(Workload::build(kind, &defaults), Ok(paper), "{kind:?}");
            let core_sizes = match paper {
                Workload::Fft { points } => points == sizes::FFT_POINTS,
                Workload::Lu { n, .. } => n == sizes::LU_N,
                Workload::Radix { keys, radix, .. } => {
                    keys == sizes::RADIX_KEYS && radix == sizes::RADIX_RADIX
                }
                Workload::Edge { dim, .. } => dim == sizes::EDGE_DIM,
                Workload::Tpcc { .. } => true, // §5.2 gives no TPC-C size
                Workload::Stencil4D { l, .. } => l == sizes::STENCIL_L,
                Workload::Stream { elems, .. } => elems == sizes::STREAM_ELEMS,
                Workload::GraphWalk { nodes, .. } => nodes == sizes::GRAPH_NODES,
                Workload::Inference { dim, layers, batch } => {
                    dim == sizes::INFER_DIM
                        && layers == sizes::INFER_LAYERS
                        && batch == sizes::INFER_BATCH
                }
            };
            assert!(
                core_sizes,
                "{kind:?}: paper tier {paper:?} disagrees with params::sizes"
            );
            assert_eq!(kind.params().name, kind.name());
        }
    }

    #[test]
    fn size_and_field_overrides_compose() {
        let w = Workload::build(
            WorkloadKind::Stencil4D,
            &json!({"size": "small", "iterations": 5}),
        )
        .unwrap();
        assert_eq!(
            w,
            Workload::Stencil4D {
                l: 8,
                iterations: 5
            }
        );

        let w = Workload::build(WorkloadKind::Fft, &json!({"points": 16384})).unwrap();
        assert_eq!(w, Workload::Fft { points: 16384 });
    }

    #[test]
    fn bad_params_are_rejected_with_known_keys() {
        let err = Workload::build(WorkloadKind::Stream, &json!({"stride": 2})).unwrap_err();
        assert!(err.contains("no parameter `stride`"), "{err}");
        assert!(err.contains("elems"), "{err}");

        let err = Workload::build(WorkloadKind::Stream, &json!({"elems": 0})).unwrap_err();
        assert!(err.contains("positive"), "{err}");

        let err = Workload::build(WorkloadKind::Fft, &json!({"points": 1000})).unwrap_err();
        assert!(err.contains("power of 4"), "{err}");

        let err = Workload::build(WorkloadKind::Fft, &json!({"size": "jumbo"})).unwrap_err();
        assert!(err.contains("unknown size"), "{err}");
    }

    #[test]
    fn radix_key_bits_range() {
        let build = |bits: u32| Workload::build(WorkloadKind::Radix, &json!({"key_bits": bits}));
        for bits in [1, 32, 33, 64] {
            let Ok(Workload::Radix { key_bits, .. }) = build(bits) else {
                panic!("{bits}-bit keys refused");
            };
            assert_eq!(key_bits, bits);
        }
        let err = build(0).unwrap_err();
        assert!(
            err.contains("`key_bits` must be a positive integer"),
            "{err}"
        );
        let err = build(65).unwrap_err();
        assert_eq!(err, "`key_bits` must be at most 64, got 65");
    }

    #[test]
    fn layouts_end_below_2_pow_62() {
        let build = |elems: u64| Workload::build(WorkloadKind::Stream, &json!({"elems": elems}));
        // Two arrays of `elems` cells from the 2^28 base: the last byte
        // of the second is at 2^62 − 1.
        let elems = (1u64 << 58) - (1 << 24);
        assert!(matches!(build(elems), Ok(Workload::Stream { elems: e, .. }) if e as u64 == elems));
        let too_large = "the workload's arrays do not fit in the 2^62-byte simulated address space";
        assert_eq!(build(elems + 1).unwrap_err(), too_large);
        // Sizes whose product overflows are refused the same way.
        let err = Workload::build(WorkloadKind::Lu, &json!({"n": 1u64 << 32, "block": 1}));
        assert_eq!(err.unwrap_err(), too_large);
        // Arrays that scale with the processor count are checked at it.
        let tpcc = Workload::build(WorkloadKind::Tpcc, &json!({"db_cells": 1u64 << 57})).unwrap();
        assert_eq!(tpcc.check_layout(4).unwrap_err(), too_large);
    }

    #[test]
    fn graphwalk_nodes_fit_u32_cells() {
        let build = |nodes: u64| Workload::build(WorkloadKind::GraphWalk, &json!({"nodes": nodes}));
        assert!(build(u32::MAX as u64).is_ok());
        let err = build(u32::MAX as u64 + 1).unwrap_err();
        assert_eq!(err, "`nodes` must be at most 4294967295, got 4294967296");
    }
}
