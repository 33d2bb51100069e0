//! # memhier-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures (DESIGN.md experiment index E1–E11).
//!
//! * [`runner`] — glue between workloads, the trace analyzer, the
//!   simulator, and the analytic model: `characterize` (Table 2's α/β/ρ
//!   pipeline) and `simulate_workload` (one config × workload run).
//! * [`sweeprun`] — the parallel, memoizing sweep runner: explicit
//!   `SweepPlan` grids fanned out over a rayon pool (`--jobs N` /
//!   `MEMHIER_JOBS`), with a process-wide characterization cache and
//!   grid-ordered (deterministic) results.
//! * [`optimrun`] — the fleet-scale optimizer pipeline: analytic
//!   pruning over a candidate grid (`memhier-cost`), then simulation
//!   confirmation of the finalists through the sweep runner.
//! * [`calib`] — the §5.3.2 "adjust the rates until the model tracks the
//!   simulator" calibration, generalized to a small grid search.
//! * [`tables`] — aligned text tables plus JSON result dumps under
//!   `target/experiments/`.
//! * [`experiments`] — one function per paper artifact (Table 1/2,
//!   Figures 2–4, the speed claim, the §6 case studies and
//!   recommendations).
//!
//! `memhier reproduce <experiment>` runs each experiment; the ledger
//! benchmark in `src/bin/ledger/` times every performance claim.

pub mod calib;
pub mod experiments;
pub mod faults;
pub mod flags;
pub mod loadgen;
pub mod names;
pub mod optimrun;
pub mod record;
pub mod registry_info;
pub mod runner;
pub mod scenario;
pub mod sweeprun;
pub mod tables;

pub use faults::{FaultAction, FaultKind, FaultPlan, FaultRule, FaultSite};
pub use flags::{FlagParser, Matches};
pub use loadgen::{quantile_us, LoadClient, LoadError, Reply};
pub use names::{config_by_name, paper_params, sizes_by_name, workload_kind_by_name};
pub use optimrun::{run_optimize, run_recommend};
pub use record::{record_scenario, RecordSummary, TraceRecorder};
pub use registry_info::registry_json;
pub use runner::{
    characterize, simulate_workload, simulate_workload_observed, simulate_workload_with,
    Characterization, ObservedRun, ObserverConfig, SimRun, Sizes,
};
pub use scenario::{size_name, Scenario, ScenarioBuilder, ScenarioError};
pub use sweeprun::{
    characterize_cached, characterize_many, run_sweep, run_sweep_checkpointed,
    set_checkpoint_config, set_jobs, CheckpointConfig, GridPoint, PointOutcome, PointResult,
    SweepOutcome, SweepPlan,
};
