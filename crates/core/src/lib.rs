//! # memhier-core
//!
//! Analytical execution-time model for cluster memory hierarchies, reproducing
//! Du & Zhang, *"The Impact of Memory Hierarchies on Cluster Computing"*
//! (IPPS 1999).
//!
//! The model predicts the average execution time per instruction,
//! `E(Instr) = (1/(n·N)) · (1/S + ρ·T)` (paper eq. 4), of a bulk-synchronous
//! SPMD program on three platform families:
//!
//! * a single bus-based **SMP** (n processors, one shared memory),
//! * a **cluster of workstations** (COW; N single-processor nodes over a
//!   bus or switch network),
//! * a **cluster of SMPs** (CLUMP; N nodes of n processors each).
//!
//! The key quantity is `T`, the average additional memory-access time per
//! reference, accumulated over the memory-hierarchy levels a reference may
//! reach (paper eq. 7).  The probability of reaching level *i* comes from a
//! two-parameter stack-distance model of program locality (paper eqs. 1–2),
//! and the per-level access time is inflated by queueing contention (M/D/1)
//! and barrier synchronization (order statistics of exponentials).
//!
//! ## Crate layout
//!
//! * [`locality`] — the stack-distance locality model `P(x)`, `p(x)` and the
//!   closed-form tail `∫_s^∞ p(x) dx`, plus per-workload parameter records.
//! * [`contention`] — M/D/1 response time and barrier order-statistics math.
//! * [`machine`] — machine, network, and latency parameter types.
//! * [`platform`] — cluster specifications and platform classification
//!   (paper Table 1).
//! * [`model`] — the analytic model proper: `T` and `E(Instr)` per platform.
//! * [`catalog`] — the platform family table: SMP, COW, CLUMP, NUMA SMP,
//!   fat-tree COW and the uniprocessor, each a parameter schema plus a
//!   builder.
//! * [`params`] — the paper's published constants: problem sizes (§5.2)
//!   and the named configurations (C1–C15 of Tables 3–5, plus
//!   N4/N8/FT8/FT16), each a row over a platform family.
//! * [`workload`] — the workload table: one row per program with its
//!   name, aliases and Table-2 `(α, β, ρ)`, behind the [`WorkloadKind`]
//!   handle.
//!
//! ## Quick example
//!
//! ```
//! use memhier_core::params::configs;
//! use memhier_core::model::AnalyticModel;
//! use memhier_core::WorkloadKind;
//!
//! let model = AnalyticModel::default();
//! let fft = WorkloadKind::Fft.params();
//! // C5: 4-processor SMP, 256 KB cache, 128 MB memory, 200 MHz.
//! let pred = model.evaluate(&configs::by_name("C5").unwrap(), &fft).unwrap();
//! assert!(pred.e_instr_seconds > 0.0);
//! ```

pub mod catalog;
pub mod contention;
pub mod error;
pub mod locality;
pub mod machine;
pub mod model;
pub mod params;
pub mod platform;
pub mod sensitivity;
pub mod workload;

pub use catalog::{platform_by_key, platform_keys, ParamInfo, PlatformFamily, FAMILIES};
pub use error::ModelError;
pub use locality::{Locality, WorkloadParams};
pub use machine::{LatencyParams, MachineSpec, NetworkKind, NetworkTopology};
pub use model::{
    AnalyticModel, ArrivalModel, LevelBreakdown, LevelDiagnostic, ModelReport, Prediction, TailMode,
};
pub use platform::{ClusterSpec, PlatformKind};
pub use workload::{WorkloadInfo, WorkloadKind};
