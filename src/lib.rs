//! # memhier
//!
//! A full reproduction of Du & Zhang, *"The Impact of Memory Hierarchies
//! on Cluster Computing"* (IPPS 1999): an analytical execution-time model
//! for cluster memory hierarchies, the program-driven simulator it was
//! validated against, instrumented SPMD workloads (FFT, LU, Radix, EDGE,
//! synthetic TPC-C), a trace-analysis toolchain (exact stack distances +
//! locality fitting), and a budget-constrained cluster optimizer.
//!
//! This facade crate re-exports the six sub-crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `memhier-core` | locality model, M/D/1 contention, platform models, `E(Instr)` |
//! | [`trace`] | `memhier-trace` | stack distances, histograms, `(α, β)` fitting, synthetic traces |
//! | [`sim`] | `memhier-sim` | caches, snooping/directory/hybrid coherence, bus/switch networks, engine |
//! | [`workloads`] | `memhier-workloads` | instrumented SPMD kernels |
//! | [`cost`] | `memhier-cost` | price table, optimizer, upgrade planner, §6 recommendations |
//! | [`mod@bench`] | `memhier-bench` | `Scenario` API, experiment harness, parallel sweep runner |
//!
//! ## Quickstart
//!
//! ```
//! use memhier::core::model::AnalyticModel;
//! use memhier::core::params::configs;
//! use memhier::core::WorkloadKind;
//!
//! let model = AnalyticModel::default();
//! let fft = WorkloadKind::Fft.params();
//! let prediction = model.evaluate(&configs::by_name("C5").unwrap(), &fft).unwrap();
//! println!("E(Instr) on C5 = {:.3e} s", prediction.e_instr_seconds);
//! ```
//!
//! See `examples/` for end-to-end scenarios (budget advisor, trace
//! analysis, full simulation) and the `memhier-bench` crate for the
//! binaries that regenerate every table and figure of the paper.

pub use memhier_bench as bench;
pub use memhier_core as core;
pub use memhier_cost as cost;
pub use memhier_sim as sim;
pub use memhier_trace as trace;
pub use memhier_workloads as workloads;

/// One error type for the whole workspace surface.
///
/// Sub-crates keep their own precise errors ([`core::ModelError`] chief
/// among them); this enum is the top-level catch-all a binary or consumer
/// can bubble everything into via `?`.
#[derive(Debug)]
#[non_exhaustive]
pub enum MemhierError {
    /// Analytic-model validation or evaluation failure.
    Model(memhier_core::ModelError),
    /// Scenario construction or parsing failure (bad config/workload/
    /// size names, malformed JSON or compact form).
    Scenario(memhier_bench::ScenarioError),
    /// Optimizer request/response failure (bad optimize/recommend
    /// requests, unsimulatable workloads).
    Cost(memhier_cost::CostError),
    /// Trace format, streaming-analysis, or fit-request failure.
    Trace(memhier_trace::TraceError),
    /// Filesystem/IO failure (metrics or trace export, artifact writes).
    Io(std::io::Error),
    /// JSON serialization/deserialization failure.
    Json(serde_json::Error),
    /// Anything else (flag parsing, malformed inputs).
    Invalid(String),
}

impl std::fmt::Display for MemhierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemhierError::Model(e) => write!(f, "model error: {e}"),
            MemhierError::Scenario(e) => write!(f, "scenario error: {e}"),
            MemhierError::Cost(e) => write!(f, "cost error: {e}"),
            MemhierError::Trace(e) => write!(f, "trace error: {e}"),
            MemhierError::Io(e) => write!(f, "io error: {e}"),
            MemhierError::Json(e) => write!(f, "json error: {e}"),
            MemhierError::Invalid(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for MemhierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemhierError::Model(e) => Some(e),
            MemhierError::Scenario(e) => Some(e),
            MemhierError::Cost(e) => Some(e),
            MemhierError::Trace(e) => Some(e),
            MemhierError::Io(e) => Some(e),
            MemhierError::Json(e) => Some(e),
            MemhierError::Invalid(_) => None,
        }
    }
}

impl From<memhier_core::ModelError> for MemhierError {
    fn from(e: memhier_core::ModelError) -> Self {
        MemhierError::Model(e)
    }
}

impl From<memhier_bench::ScenarioError> for MemhierError {
    fn from(e: memhier_bench::ScenarioError) -> Self {
        MemhierError::Scenario(e)
    }
}

impl From<memhier_cost::CostError> for MemhierError {
    fn from(e: memhier_cost::CostError) -> Self {
        MemhierError::Cost(e)
    }
}

impl From<memhier_trace::TraceError> for MemhierError {
    fn from(e: memhier_trace::TraceError) -> Self {
        MemhierError::Trace(e)
    }
}

impl From<std::io::Error> for MemhierError {
    fn from(e: std::io::Error) -> Self {
        MemhierError::Io(e)
    }
}

impl From<serde_json::Error> for MemhierError {
    fn from(e: serde_json::Error) -> Self {
        MemhierError::Json(e)
    }
}

impl From<String> for MemhierError {
    fn from(msg: String) -> Self {
        MemhierError::Invalid(msg)
    }
}

impl From<&str> for MemhierError {
    fn from(msg: &str) -> Self {
        MemhierError::Invalid(msg.to_string())
    }
}

/// The blessed public surface in one import:
/// `use memhier::prelude::*;`.
pub mod prelude {
    pub use crate::MemhierError;
    pub use memhier_bench::{Scenario, ScenarioBuilder, ScenarioError, Sizes, SweepPlan};
    pub use memhier_core::model::{LevelBreakdown, LevelDiagnostic, ModelReport};
    pub use memhier_core::{
        AnalyticModel, ArrivalModel, ClusterSpec, LatencyParams, Locality, MachineSpec, ModelError,
        NetworkKind, NetworkTopology, PlatformKind, Prediction, TailMode, WorkloadParams,
    };
    pub use memhier_cost::{
        CostError, OptimizeReport, OptimizeRequest, RecommendReport, RecommendRequest, WorkloadSpec,
    };
    pub use memhier_sim::{
        ClusterBackend, EventTracer, HomeMap, MemEvent, MetricsSeries, NopObserver, ProcSource,
        ProtocolParams, ServiceLevel, SessionOutput, SimObserver, SimReport, SimSession,
        TimeSeriesCollector, TraceLog,
    };
    pub use memhier_workloads::{Workload, WorkloadKind};
}
