//! The workload table: one row per program, joining a kernel to the model.
//!
//! Each [`WorkloadInfo`] row carries a workload's registry key, its
//! accepted aliases, a one-line description, and the model parameters the
//! paper's Table 2 publishes for it — `(α, β, ρ)` plus the data footprint
//! and barrier rate.  A [`WorkloadKind`] is a `Copy` handle to one row, so
//! every crate that names a workload (the CLI, Scenario JSON, the cost
//! wire format, the registry listing) resolves it through one
//! [`WorkloadKind::parse`] and reads one copy of its identity.
//!
//! The address-stream generator behind each row (problem-size tiers,
//! parameter schema, program builder) lives in `memhier-workloads`, keyed
//! by the same handle.
//!
//! ```
//! use memhier_core::WorkloadKind;
//!
//! let k = WorkloadKind::parse("tpcc").unwrap();
//! assert_eq!(k, WorkloadKind::Tpcc);
//! assert_eq!(k.name(), "TPC-C");
//! assert_eq!(k.params().locality.beta, 1222.66);
//! ```

use crate::locality::WorkloadParams;
use crate::params::sizes;
use std::fmt;

/// One row of the workload table.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadInfo {
    /// Canonical registry key and display name (`"FFT"`, `"TPC-C"`, ...).
    pub key: &'static str,
    /// Additional accepted spellings (matched case-insensitively, like the
    /// key).
    pub aliases: &'static [&'static str],
    /// One-line description for registry listings.
    pub description: &'static str,
    /// Locality shape `α`.
    pub alpha: f64,
    /// Locality scale `β`, bytes.
    pub beta: f64,
    /// Memory-reference fraction `ρ`.
    pub rho: f64,
    /// Paper-size data footprint in bytes, when the kernel has one.
    pub footprint: Option<f64>,
    /// Barriers per instruction; `None` keeps [`WorkloadParams::new`]'s
    /// default.
    pub barrier_rate: Option<f64>,
}

/// The built-in workloads: the four Table-2 kernels in paper order, the
/// §5.2 TPC-C aside, then the four post-paper generators.  The order is
/// the handle order ([`WorkloadKind::ALL`]).
static WORKLOADS: [WorkloadInfo; 9] = [
    // Table 2: α = 1.21, β = 103.26, ρ = 0.20.
    WorkloadInfo {
        key: "FFT",
        aliases: &[],
        description: "Six-step complex 1-D FFT (SPLASH-2 kernel)",
        alpha: 1.21,
        beta: 103.26,
        rho: 0.20,
        footprint: Some(sizes::FFT_FOOTPRINT),
        barrier_rate: None,
    },
    // Table 2: α = 1.30, β = 90.27, ρ = 0.31.
    WorkloadInfo {
        key: "LU",
        aliases: &[],
        description: "Blocked dense LU factorization (SPLASH-2 kernel)",
        alpha: 1.30,
        beta: 90.27,
        rho: 0.31,
        footprint: Some(sizes::LU_FOOTPRINT),
        barrier_rate: None,
    },
    // Table 2: α = 1.14, β = 120.84, ρ = 0.37.
    WorkloadInfo {
        key: "Radix",
        aliases: &[],
        description: "Iterative radix sort (SPLASH-2 kernel)",
        alpha: 1.14,
        beta: 120.84,
        rho: 0.37,
        footprint: Some(sizes::RADIX_FOOTPRINT),
        barrier_rate: None,
    },
    // Table 2: α = 1.71, β = 85.03, ρ = 0.45.  EDGE barriers after every
    // iteration (§5.2) — the most barrier-intensive of the four kernels.
    WorkloadInfo {
        key: "EDGE",
        aliases: &[],
        description: "Iterative parallel edge detection",
        alpha: 1.71,
        beta: 85.03,
        rho: 0.45,
        footprint: Some(sizes::EDGE_FOOTPRINT),
        barrier_rate: Some(1e-5),
    },
    // The commercial workload the paper characterizes as an aside in §5.2.
    WorkloadInfo {
        key: "TPC-C",
        aliases: &["TPCC"],
        description: "Synthetic commercial workload at the paper's TPC-C locality",
        alpha: 1.73,
        beta: 1222.66,
        rho: 0.36,
        footprint: None,
        barrier_rate: None,
    },
    // Measured with `memhier record → fit` on the paper-size generator:
    // dense nearest-neighbor sweeps give FFT-like reuse with a larger
    // memory fraction (loads of 8 neighbors + 1 center per site update).
    // One barrier per lattice sweep: halo exchange each iteration.
    WorkloadInfo {
        key: "Stencil4D",
        aliases: &["STENCIL"],
        description: "QCD-style 4-D nearest-neighbor stencil with halo exchange",
        alpha: 1.38,
        beta: 9.85,
        rho: 0.33,
        footprint: Some(sizes::STENCIL_FOOTPRINT),
        barrier_rate: Some(2e-6),
    },
    // Touch-once locality, the pathological corner of the stack-distance
    // model: the fit converges with β driven to its floor — there is no
    // reuse beyond the cache line itself.
    WorkloadInfo {
        key: "Stream",
        aliases: &[],
        description: "Streaming scan: touch-once locality (alpha -> 1)",
        alpha: 1.23,
        beta: 1.01,
        rho: 0.40,
        footprint: Some(sizes::STREAM_FOOTPRINT),
        barrier_rate: None,
    },
    // The stack-distance distribution of a random permutation is
    // near-uniform, so the power-law fit diverges (`memhier fit` reports
    // `converged: false`).  ρ is measured; (α, β) is the documented
    // no-locality stand-in closest to the empirical CDF at cache-sized
    // capacities.
    WorkloadInfo {
        key: "GraphWalk",
        aliases: &["GRAPH"],
        description: "Pointer-chasing traversal of a random permutation cycle",
        alpha: 1.08,
        beta: 400.0,
        rho: 0.43,
        footprint: Some(sizes::GRAPH_FOOTPRINT),
        barrier_rate: None,
    },
    // Layer weights stream past while activations stay hot: steep locality
    // near the top of the stack, a long weight tail behind it.  One
    // barrier per layer per batch: weight broadcast points.
    WorkloadInfo {
        key: "Inference",
        aliases: &["INFER"],
        description: "Batched weight-streaming neural-network inference",
        alpha: 2.90,
        beta: 8818.76,
        rho: 0.33,
        footprint: Some(sizes::INFER_FOOTPRINT),
        barrier_rate: Some(1e-6),
    },
];

/// A workload: a `Copy` handle to one row of the workload table.  The
/// built-ins are associated constants, so call sites read like enum
/// variants (`WorkloadKind::Fft`, ...); names resolve through
/// [`parse`](Self::parse).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadKind(u8);

#[allow(non_upper_case_globals)]
impl WorkloadKind {
    /// Six-step complex 1-D FFT.
    pub const Fft: WorkloadKind = WorkloadKind(0);
    /// Blocked dense LU factorization.
    pub const Lu: WorkloadKind = WorkloadKind(1);
    /// Iterative radix sort.
    pub const Radix: WorkloadKind = WorkloadKind(2);
    /// Iterative edge detection.
    pub const Edge: WorkloadKind = WorkloadKind(3);
    /// Synthetic TPC-C-like commercial workload.
    pub const Tpcc: WorkloadKind = WorkloadKind(4);
    /// QCD-style 4-D nearest-neighbor stencil with halo exchange.
    pub const Stencil4D: WorkloadKind = WorkloadKind(5);
    /// Streaming scan: touch-once locality (α → 1).
    pub const Stream: WorkloadKind = WorkloadKind(6);
    /// Pointer-chasing traversal of a random single-cycle permutation.
    pub const GraphWalk: WorkloadKind = WorkloadKind(7);
    /// Batched weight-streaming neural-network inference.
    pub const Inference: WorkloadKind = WorkloadKind(8);

    /// The four Table-2 kernels, in paper order.
    pub const PAPER: [WorkloadKind; 4] = [
        WorkloadKind::Fft,
        WorkloadKind::Lu,
        WorkloadKind::Radix,
        WorkloadKind::Edge,
    ];

    /// Every built-in workload, paper kernels first (table order).
    pub const ALL: [WorkloadKind; 9] = [
        WorkloadKind::Fft,
        WorkloadKind::Lu,
        WorkloadKind::Radix,
        WorkloadKind::Edge,
        WorkloadKind::Tpcc,
        WorkloadKind::Stencil4D,
        WorkloadKind::Stream,
        WorkloadKind::GraphWalk,
        WorkloadKind::Inference,
    ];

    /// The table row behind this handle.
    pub fn info(&self) -> &'static WorkloadInfo {
        &WORKLOADS[self.index()]
    }

    /// Position in the table (and in [`ALL`](Self::ALL)) — the index
    /// per-workload tables elsewhere are laid out by.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Canonical registry key and display name.
    pub fn name(&self) -> &'static str {
        self.info().key
    }

    /// The model parameters of this row: Table 2's `(α, β, ρ)` for the
    /// paper's programs, measured values for the post-paper generators.
    pub fn params(&self) -> WorkloadParams {
        let row = self.info();
        let mut w = WorkloadParams::new(row.key, row.alpha, row.beta, row.rho)
            .expect("table constants are valid");
        if let Some(bytes) = row.footprint {
            w = w.with_footprint(bytes);
        }
        if let Some(rate) = row.barrier_rate {
            w = w.with_barrier_rate(rate);
        }
        w
    }

    /// Resolve a key or alias, case-insensitively.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| {
            k.name().eq_ignore_ascii_case(name)
                || k.info()
                    .aliases
                    .iter()
                    .any(|a| a.eq_ignore_ascii_case(name))
        })
    }

    /// Canonical keys of every workload, in table order.
    pub fn keys() -> Vec<&'static str> {
        WorkloadKind::ALL.iter().map(|k| k.name()).collect()
    }

    /// The error text every entry point reports for a name
    /// [`parse`](Self::parse) rejects: the name plus the known keys.
    pub fn unknown(name: &str) -> String {
        format!(
            "unknown workload `{name}` ({})",
            WorkloadKind::keys().join("|")
        )
    }
}

/// Debug prints the registry key (`FFT`, `TPC-C`), not the table index.
impl fmt::Debug for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Serializes as the canonical key, the spelling the CLI flags and
/// `memhierd` request bodies use.
impl serde::Serialize for WorkloadKind {
    fn to_json_value(&self) -> serde::__private::Value {
        serde::__private::Value::String(self.name().to_string())
    }
}

impl serde::Deserialize for WorkloadKind {
    fn from_json_value(v: serde::__private::Value) -> Result<Self, serde::Error> {
        let name = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("workload must be a string"))?;
        WorkloadKind::parse(name).ok_or_else(|| serde::Error::custom(WorkloadKind::unknown(name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants() {
        let w = WorkloadKind::PAPER.map(|k| k.params());
        assert_eq!(w[0].name, "FFT");
        assert_eq!(w[0].locality.alpha, 1.21);
        assert_eq!(w[0].locality.beta, 103.26);
        assert_eq!(w[0].rho, 0.20);
        assert_eq!(w[2].name, "Radix");
        assert_eq!(w[2].rho, 0.37);
        assert_eq!(w[3].locality.alpha, 1.71);
        assert_eq!(w[3].barrier_per_instr, 1e-5);
        assert_eq!(WorkloadKind::Fft.params().barrier_per_instr, 1e-7);
    }

    #[test]
    fn tpcc_beta_is_ten_times_scientific() {
        // §5.2: TPC-C's β is over 10x any scientific program's.
        let t = WorkloadKind::Tpcc.params();
        for k in WorkloadKind::PAPER {
            assert!(t.locality.beta > 10.0 * k.params().locality.beta);
        }
    }

    #[test]
    fn handles_index_their_rows() {
        for (i, k) in WorkloadKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(k.params().name, k.name());
            assert!(!k.info().description.is_empty());
            assert_eq!(format!("{k:?}"), k.name());
        }
        assert_eq!(WorkloadKind::keys().len(), WORKLOADS.len());
    }

    #[test]
    fn parse_is_case_insensitive_and_alias_aware() {
        for (spelling, kind) in [
            ("fft", WorkloadKind::Fft),
            ("tpcc", WorkloadKind::Tpcc),
            ("TPC-C", WorkloadKind::Tpcc),
            ("stencil", WorkloadKind::Stencil4D),
            ("STENCIL4D", WorkloadKind::Stencil4D),
            ("GRAPH", WorkloadKind::GraphWalk),
            ("infer", WorkloadKind::Inference),
        ] {
            assert_eq!(WorkloadKind::parse(spelling), Some(kind), "{spelling}");
        }
        assert_eq!(WorkloadKind::parse("no-such-kernel"), None);
        let err = WorkloadKind::unknown("SORT");
        assert!(err.starts_with("unknown workload `SORT` (FFT|LU|"), "{err}");
    }

    #[test]
    fn new_workloads_carry_measured_params() {
        for k in [
            WorkloadKind::Stencil4D,
            WorkloadKind::Stream,
            WorkloadKind::GraphWalk,
            WorkloadKind::Inference,
        ] {
            let w = k.params();
            assert!(w.locality.alpha > 1.0, "{k:?} alpha must exceed 1");
            assert!(w.locality.footprint.is_some(), "{k:?} needs a footprint");
        }
        // Stream's measured fit drives beta to its floor: no reuse
        // beyond the cache line itself.
        let s = WorkloadKind::Stream.params().locality.beta;
        assert!(s < 1.1, "stream beta {s} should sit at the fit floor");
    }

    #[test]
    fn footprints_fit_in_paper_memories() {
        // Every kernel's data fits in even the smallest studied memory
        // (32 MB), so disk traffic in a paging simulator is cold-miss only.
        for k in WorkloadKind::PAPER {
            let fp = k.params().locality.footprint.unwrap();
            assert!(fp < 32.0 * 1024.0 * 1024.0, "{k:?} footprint {fp}");
        }
    }

    #[test]
    fn serde_round_trips_through_the_key() {
        use serde::{Deserialize, Serialize};
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_json_value(k.to_json_value()), Ok(k));
        }
        let bad = WorkloadKind::from_json_value(serde::__private::Value::String("x".into()));
        assert_eq!(bad.unwrap_err().to_string(), WorkloadKind::unknown("x"));
    }
}
