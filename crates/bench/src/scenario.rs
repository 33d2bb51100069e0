//! The unified `Scenario` API: one canonical description of "run this
//! workload on this platform, with these observers and faults".
//!
//! Before this module, the CLI, `memhierd`, and the sweep runner each
//! grew their own config path (flag strings, ad-hoc JSON fields, and
//! `SweepPlan` construction respectively).  A [`Scenario`] is now the
//! single value all three construct and hand to the simulator:
//!
//! * the CLI's `simulate`/`sweep` subcommands parse their flags into
//!   `Scenario`s;
//! * `memhierd`'s `/v1/simulate` body **is** a `Scenario` in its JSON
//!   form, and `/v1/sweep` expands into one `Scenario` per grid point;
//! * [`Scenario::sweep_plan`] turns a uniform batch into a
//!   [`SweepPlan`] for the parallel runner.
//!
//! # Forms
//!
//! A scenario has three interchangeable spellings, all accepted by its
//! [`FromStr`] impl and round-tripped by [`Display`](fmt::Display) /
//! [`Scenario::to_json`]:
//!
//! * **builder** — [`Scenario::builder()`] with typed setters;
//! * **compact string** — `CONFIG:WORKLOAD[:SIZE]`, e.g. `C5:FFT:small`
//!   (size defaults to `medium`, matching the CLI);
//! * **JSON object** — `{"config": "C5", "workload": "FFT", "size":
//!   "small", "metrics_window": 1000, "trace_capacity": 4096, "faults":
//!   "point:panic:nth=2"}`.  `config` is the paper name (`C1`..`C15`) or
//!   a full inline [`ClusterSpec`] object; optional fields are omitted
//!   when at their defaults, so *builder → JSON → parse → JSON* is a
//!   fixed point (locked in by `tests/scenario_roundtrip.rs`).
//!
//! Parsing reports typed [`ScenarioError`]s, which convert into
//! `memhier::MemhierError` (and `memhierd`'s HTTP 400s) instead of the
//! bare `String`s the entry points used before.

use crate::faults::FaultPlan;
use crate::names::{config_by_name, sizes_by_name, workload_kind_by_name};
use crate::runner::{simulate_workload_threads, ObservedRun, ObserverConfig, Sizes};
use crate::sweeprun::SweepPlan;
use memhier_core::machine::LatencyParams;
use memhier_core::platform::ClusterSpec;
use memhier_core::{platform_by_key, platform_keys};
use memhier_workloads::registry::{Workload, WorkloadKind};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt;
use std::str::FromStr;

/// Why a [`Scenario`] could not be built or parsed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The named configuration is not one of the paper's `C1`..`C15`.
    UnknownConfig(String),
    /// The named workload is not a known kernel.
    UnknownWorkload(String),
    /// The named problem-size tier is not `small|medium|paper`.
    UnknownSize(String),
    /// A required field was never supplied.
    Missing(&'static str),
    /// A field was present but malformed (field name, why).
    Invalid(&'static str, String),
    /// An object key no scenario field matches (typo guard).
    UnknownField(String),
    /// The input was not valid JSON / not a recognized compact form.
    Syntax(String),
    /// A batch operation needs every scenario to agree on a field.
    Mixed(&'static str),
    /// The workload's problem does not split across the platform's
    /// processes (e.g. EDGE's image rows over 12 processes).
    Undecomposable {
        /// The workload that cannot be split.
        workload: WorkloadKind,
        /// The platform's total process count.
        processes: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownConfig(name) => {
                write!(f, "unknown config `{name}` (try `memhier configs`)")
            }
            ScenarioError::UnknownWorkload(name) => f.write_str(&WorkloadKind::unknown(name)),
            ScenarioError::UnknownSize(name) => {
                write!(f, "unknown size `{name}` (small|medium|paper)")
            }
            ScenarioError::Missing(field) => write!(f, "`{field}` is required"),
            ScenarioError::Invalid(field, why) => write!(f, "`{field}`: {why}"),
            ScenarioError::UnknownField(key) => write!(f, "unknown scenario field `{key}`"),
            ScenarioError::Syntax(why) => write!(f, "malformed scenario: {why}"),
            ScenarioError::Mixed(field) => {
                write!(f, "scenarios in one sweep must share the same `{field}`")
            }
            ScenarioError::Undecomposable {
                workload,
                processes,
            } => write!(
                f,
                "workload `{}` does not decompose into {processes} processes at this size",
                workload.name()
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Everything needed to simulate one run: the platform, the workload and
/// its problem size, which observers to attach, and what faults to
/// inject.  Construct via [`Scenario::builder`], a compact string, or
/// JSON (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The cluster to simulate.
    pub config: ClusterSpec,
    /// The kernel to run on it.
    pub workload: WorkloadKind,
    /// Registry parameter overrides for the workload (the JSON `params`
    /// map of the `{"key": ..., "params": {...}}` form); `None` runs the
    /// size tier's stock problem.  Validated against the workload's
    /// parameter schema when the scenario is built.
    pub workload_params: Option<Value>,
    /// Problem-size tier.
    pub size: Sizes,
    /// Observers attached to the run (default: none — the engine's hot
    /// loop stays observer-free).
    pub observers: ObserverConfig,
    /// Intra-scenario engine threads: `Some(n)` pins the epoch-parallel
    /// engine on `n` host threads (`Some(0)` pins the classic engine),
    /// `None` defers to the ambient `--sim-threads` /
    /// `MEMHIER_SIM_THREADS` setting.
    pub sim_threads: Option<usize>,
    /// Deterministic fault-injection plan (default: empty).
    pub faults: FaultPlan,
}

impl Scenario {
    /// Start a builder (size defaults to [`Sizes::Medium`], matching a
    /// flagless `memhier simulate`).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Run the scenario through the program-driven simulator with the
    /// paper's latency table.
    pub fn run(&self) -> ObservedRun {
        simulate_workload_threads(
            &self.resolved_workload(),
            &self.config,
            &LatencyParams::paper(),
            &self.observers,
            self.resolved_sim_threads(),
        )
    }

    /// The sized workload this scenario simulates: the size tier's stock
    /// problem, with any registry parameter overrides applied.
    pub fn resolved_workload(&self) -> Workload {
        match &self.workload_params {
            None => self.size.workload(self.workload),
            Some(params) => resolve_workload_params(self.workload, self.size, params)
                .expect("workload params were validated when the scenario was built"),
        }
    }

    /// The engine selection this scenario runs with: its own pin, else
    /// the ambient [`crate::sweeprun::sim_threads`] setting, else the
    /// classic engine.
    pub fn resolved_sim_threads(&self) -> usize {
        self.sim_threads
            .or_else(crate::sweeprun::sim_threads)
            .unwrap_or(0)
    }

    /// The canonical JSON form.  `config` collapses to its paper name
    /// when it has one; fields at their defaults are omitted, so parsing
    /// this value back yields `self` and re-serializing yields the same
    /// JSON (the round-trip fixed point).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            (
                "config".to_string(),
                match &self.config.name {
                    Some(name) => Value::String(name.clone()),
                    None => serde_json::to_value(&self.config).unwrap_or(Value::Null),
                },
            ),
            (
                "workload".to_string(),
                match &self.workload_params {
                    None => Value::String(self.workload.name().to_string()),
                    Some(params) => Value::Object(vec![
                        (
                            "key".to_string(),
                            Value::String(self.workload.name().to_string()),
                        ),
                        ("params".to_string(), params.clone()),
                    ]),
                },
            ),
            (
                "size".to_string(),
                Value::String(size_name(self.size).to_string()),
            ),
        ];
        if let Some(w) = self.observers.metrics_window {
            fields.push((
                "metrics_window".to_string(),
                serde_json::to_value(&w).unwrap(),
            ));
        }
        if let Some(cap) = self.observers.trace_capacity {
            fields.push((
                "trace_capacity".to_string(),
                serde_json::to_value(&cap).unwrap(),
            ));
        }
        if let Some(threads) = self.sim_threads {
            fields.push((
                "sim_threads".to_string(),
                serde_json::to_value(&(threads as u64)).unwrap(),
            ));
        }
        if !self.faults.is_empty() {
            fields.push(("faults".to_string(), Value::String(self.faults.to_string())));
        }
        Value::Object(fields)
    }

    /// Parse the JSON form (see the module docs).  Missing `size`
    /// defaults to `medium`; unknown keys are rejected so a typo'd field
    /// fails loudly instead of being silently ignored.
    pub fn from_json(v: &Value) -> Result<Scenario, ScenarioError> {
        Scenario::from_json_default(v, Sizes::Medium)
    }

    /// [`Scenario::from_json`] with an explicit default for a missing
    /// `size` field (`memhierd`'s sweep endpoint defaults to `small`
    /// where the CLI defaults to `medium`).
    pub fn from_json_default(v: &Value, default_size: Sizes) -> Result<Scenario, ScenarioError> {
        let fields = match v {
            Value::Object(fields) => fields,
            _ => {
                return Err(ScenarioError::Syntax(
                    "a scenario must be a JSON object".to_string(),
                ))
            }
        };
        let mut b = Scenario::builder().size(default_size);
        for (key, value) in fields {
            match key.as_str() {
                "config" => {
                    b = match value {
                        Value::String(name) => b.config_name(name),
                        Value::Object(_) if value.get("platform").is_some() => {
                            b.config(platform_config_from_json(value)?)
                        }
                        Value::Object(_) => {
                            let spec = ClusterSpec::from_json_value(value.clone())
                                .map_err(|e| ScenarioError::Invalid("config", e))?;
                            b.config(spec)
                        }
                        _ => {
                            return Err(ScenarioError::Invalid(
                                "config",
                                "must be a name string, a {platform, params} object, \
                                 or a cluster-spec object"
                                    .to_string(),
                            ))
                        }
                    };
                }
                "workload" => {
                    b = match value {
                        Value::String(name) => b.workload_name(name),
                        Value::Object(fields) => {
                            for (k, _) in fields {
                                if k != "key" && k != "params" {
                                    return Err(ScenarioError::UnknownField(format!(
                                        "workload.{k}"
                                    )));
                                }
                            }
                            let key = value.get("key").and_then(Value::as_str).ok_or(
                                ScenarioError::Invalid(
                                    "workload",
                                    "object form needs a `key` string".to_string(),
                                ),
                            )?;
                            let params = value.get("params").cloned().unwrap_or(Value::Null);
                            b.workload_name(key).workload_params(params)
                        }
                        _ => {
                            return Err(ScenarioError::Invalid(
                                "workload",
                                "must be a string or a {key, params} object".to_string(),
                            ))
                        }
                    };
                }
                "size" => {
                    let name = value.as_str().ok_or(ScenarioError::Invalid(
                        "size",
                        "must be a string".to_string(),
                    ))?;
                    b = b.size_name(name);
                }
                "metrics_window" => {
                    let w = value
                        .as_u64()
                        .filter(|&w| w > 0)
                        .ok_or(ScenarioError::Invalid(
                            "metrics_window",
                            "must be a positive integer (cycles)".to_string(),
                        ))?;
                    b = b.metrics_window(w);
                }
                "trace_capacity" => {
                    let cap = value.as_u64().ok_or(ScenarioError::Invalid(
                        "trace_capacity",
                        "must be a non-negative integer".to_string(),
                    ))?;
                    b = b.trace_capacity(cap as usize);
                }
                "sim_threads" => {
                    let threads = value.as_u64().ok_or(ScenarioError::Invalid(
                        "sim_threads",
                        "must be a non-negative integer (0 = classic engine)".to_string(),
                    ))?;
                    b = b.sim_threads(threads as usize);
                }
                "faults" => {
                    let spec = value.as_str().ok_or(ScenarioError::Invalid(
                        "faults",
                        "must be a fault-spec string".to_string(),
                    ))?;
                    let plan =
                        FaultPlan::parse(spec).map_err(|e| ScenarioError::Invalid("faults", e))?;
                    b = b.faults(plan);
                }
                other => return Err(ScenarioError::UnknownField(other.to_string())),
            }
        }
        b.build()
    }

    /// Expand a sweep-grid request — `{"configs": [..], "workloads":
    /// [..], "size"?}` — into one scenario per `configs × workloads`
    /// point, cluster-major (all workloads on the first config, then the
    /// second, ...).  This is the shape of `memhierd`'s `/v1/sweep` body
    /// and of the CLI's `--configs`/`--workloads` lists.
    pub fn expand_grid(v: &Value, default_size: Sizes) -> Result<Vec<Scenario>, ScenarioError> {
        let names = |key: &'static str| -> Result<Vec<&str>, ScenarioError> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or(ScenarioError::Invalid(
                    key,
                    "must be an array of strings".to_string(),
                ))?
                .iter()
                .map(|e| {
                    e.as_str().ok_or(ScenarioError::Invalid(
                        key,
                        "must contain only strings".to_string(),
                    ))
                })
                .collect()
        };
        let configs = names("configs")?;
        let workloads = names("workloads")?;
        let size = match v.get("size").filter(|f| !f.is_null()) {
            None => default_size,
            Some(f) => {
                let name = f.as_str().ok_or(ScenarioError::Invalid(
                    "size",
                    "must be a string".to_string(),
                ))?;
                sizes_by_name(name).map_err(|_| ScenarioError::UnknownSize(name.to_string()))?
            }
        };
        let sim_threads = match v.get("sim_threads").filter(|f| !f.is_null()) {
            None => None,
            Some(f) => Some(f.as_u64().ok_or(ScenarioError::Invalid(
                "sim_threads",
                "must be a non-negative integer (0 = classic engine)".to_string(),
            ))? as usize),
        };
        let mut out = Vec::with_capacity(configs.len() * workloads.len());
        for config in &configs {
            for workload in &workloads {
                let mut b = Scenario::builder()
                    .config_name(config)
                    .workload_name(workload)
                    .size(size);
                if let Some(threads) = sim_threads {
                    b = b.sim_threads(threads);
                }
                out.push(b.build()?);
            }
        }
        Ok(out)
    }

    /// Parse a plan file's contents: a JSON array whose elements are
    /// scenario objects or compact `CONFIG:WORKLOAD[:SIZE]` strings
    /// (the `memhier sweep --configs @plan.json` format).
    pub fn parse_batch(v: &Value) -> Result<Vec<Scenario>, ScenarioError> {
        let items = v.as_array().ok_or(ScenarioError::Syntax(
            "a scenario plan must be a JSON array".to_string(),
        ))?;
        items
            .iter()
            .map(|item| match item {
                Value::String(s) => s.parse(),
                other => Scenario::from_json(other),
            })
            .collect()
    }

    /// Build a [`SweepPlan`] from a batch of scenarios.  Every scenario
    /// contributes one grid point; the plan-wide size and observers come
    /// from the batch, so all scenarios must agree on them (the runner
    /// applies them per plan, not per point).
    pub fn sweep_plan(
        name: impl Into<String>,
        scenarios: &[Scenario],
    ) -> Result<SweepPlan, ScenarioError> {
        let first = scenarios
            .first()
            .ok_or(ScenarioError::Missing("scenarios"))?;
        if scenarios.iter().any(|s| s.size != first.size) {
            return Err(ScenarioError::Mixed("size"));
        }
        if scenarios.iter().any(|s| s.observers != first.observers) {
            return Err(ScenarioError::Mixed("observers"));
        }
        if scenarios.iter().any(|s| s.sim_threads != first.sim_threads) {
            return Err(ScenarioError::Mixed("sim_threads"));
        }
        if scenarios.iter().any(|s| s.workload_params.is_some()) {
            // Sweep grids are (config × kind) points at the plan's size
            // tier; per-point parameter maps have nowhere to live there.
            return Err(ScenarioError::Invalid(
                "workload",
                "parameter maps are not supported in sweep batches".to_string(),
            ));
        }
        let mut plan = SweepPlan::new(name, first.size)
            .with_observers(first.observers)
            .with_sim_threads(first.sim_threads);
        for s in scenarios {
            plan = plan.point(&s.config, s.workload);
        }
        Ok(plan)
    }
}

/// Compact form when the config has a paper name, JSON otherwise; both
/// spellings parse back via [`FromStr`].
impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plain = self.observers == ObserverConfig::default()
            && self.faults.is_empty()
            && self.sim_threads.is_none()
            && self.workload_params.is_none();
        match (&self.config.name, plain) {
            (Some(name), true) => write!(
                f,
                "{name}:{}:{}",
                self.workload.name(),
                size_name(self.size)
            ),
            _ => write!(
                f,
                "{}",
                serde_json::to_string(&self.to_json()).map_err(|_| fmt::Error)?
            ),
        }
    }
}

impl FromStr for Scenario {
    type Err = ScenarioError;

    /// Accepts the JSON object form (anything starting with `{`) or the
    /// compact `CONFIG:WORKLOAD[:SIZE]` form.
    fn from_str(s: &str) -> Result<Scenario, ScenarioError> {
        let s = s.trim();
        if s.starts_with('{') {
            let v: Value =
                serde_json::from_str(s).map_err(|e| ScenarioError::Syntax(e.to_string()))?;
            return Scenario::from_json(&v);
        }
        let mut parts = s.split(':');
        let config = parts.next().unwrap_or_default().trim();
        if config.is_empty() {
            return Err(ScenarioError::Missing("config"));
        }
        let workload = parts
            .next()
            .map(str::trim)
            .ok_or(ScenarioError::Missing("workload"))?;
        let mut b = Scenario::builder()
            .config_name(config)
            .workload_name(workload);
        if let Some(size) = parts.next() {
            b = b.size_name(size.trim());
        }
        if let Some(extra) = parts.next() {
            return Err(ScenarioError::Syntax(format!(
                "unexpected `:{extra}` after CONFIG:WORKLOAD:SIZE"
            )));
        }
        b.build()
    }
}

impl Serialize for Scenario {
    fn to_json_value(&self) -> Value {
        self.to_json()
    }
}

impl Deserialize for Scenario {
    fn from_json_value(v: Value) -> Result<Self, String> {
        Scenario::from_json(&v).map_err(|e| e.to_string())
    }
}

/// Typed, infallible-until-`build` builder for [`Scenario`].  Name
/// setters (`config_name`, `workload_name`, `size_name`) defer
/// resolution to [`ScenarioBuilder::build`], so the builder chains
/// without intermediate `Result`s.
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    config: Option<Result<ClusterSpec, ScenarioError>>,
    workload: Option<Result<WorkloadKind, ScenarioError>>,
    workload_params: Option<Value>,
    size: Option<Result<Sizes, ScenarioError>>,
    observers: ObserverConfig,
    sim_threads: Option<usize>,
    faults: FaultPlan,
}

impl ScenarioBuilder {
    /// Set the cluster by full spec.
    pub fn config(mut self, spec: ClusterSpec) -> Self {
        self.config = Some(Ok(spec));
        self
    }

    /// Set the cluster by paper name (`C1`..`C15`); resolved at `build`.
    pub fn config_name(mut self, name: &str) -> Self {
        self.config =
            Some(config_by_name(name).map_err(|_| ScenarioError::UnknownConfig(name.to_string())));
        self
    }

    /// Set the workload kind.
    pub fn workload(mut self, kind: WorkloadKind) -> Self {
        self.workload = Some(Ok(kind));
        self
    }

    /// Set the workload by display name (case-insensitive); resolved at
    /// `build`.
    pub fn workload_name(mut self, name: &str) -> Self {
        self.workload = Some(
            workload_kind_by_name(name)
                .map_err(|_| ScenarioError::UnknownWorkload(name.to_string())),
        );
        self
    }

    /// Set registry parameter overrides for the workload (validated
    /// against its schema at `build`).  `Null` or an empty object means
    /// "no overrides".
    pub fn workload_params(mut self, params: Value) -> Self {
        let empty = matches!(&params, Value::Object(f) if f.is_empty());
        self.workload_params = if params.is_null() || empty {
            None
        } else {
            Some(params)
        };
        self
    }

    /// Set the problem-size tier.
    pub fn size(mut self, size: Sizes) -> Self {
        self.size = Some(Ok(size));
        self
    }

    /// Set the size tier by name (`small|medium|paper`); resolved at
    /// `build`.
    pub fn size_name(mut self, name: &str) -> Self {
        self.size =
            Some(sizes_by_name(name).map_err(|_| ScenarioError::UnknownSize(name.to_string())));
        self
    }

    /// Attach a [`TimeSeriesCollector`](memhier_sim::observe::TimeSeriesCollector)
    /// with this window width (cycles).
    pub fn metrics_window(mut self, cycles: u64) -> Self {
        self.observers.metrics_window = Some(cycles);
        self
    }

    /// Attach an [`EventTracer`](memhier_sim::observe::EventTracer)
    /// bounded to this many events.
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.observers.trace_capacity = Some(events);
        self
    }

    /// Replace the whole observer config.
    pub fn observers(mut self, observers: ObserverConfig) -> Self {
        self.observers = observers;
        self
    }

    /// Pin the intra-scenario engine: `n ≥ 1` runs the epoch-parallel
    /// engine on `n` host threads, `0` pins the classic engine (unset
    /// defers to the ambient `--sim-threads` / `MEMHIER_SIM_THREADS`).
    pub fn sim_threads(mut self, threads: usize) -> Self {
        self.sim_threads = Some(threads);
        self
    }

    /// Set the fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Resolve deferred names and produce the scenario.  `config` and
    /// `workload` are required; `size` defaults to [`Sizes::Medium`].
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let workload = self.workload.ok_or(ScenarioError::Missing("workload"))??;
        let size = self.size.unwrap_or(Ok(Sizes::Medium))?;
        // Validate the params against the registry schema, and the
        // problem against the platform, now so `run` can't fail later.
        let resolved = match &self.workload_params {
            None => size.workload(workload),
            Some(params) => resolve_workload_params(workload, size, params)?,
        };
        let config = self.config.ok_or(ScenarioError::Missing("config"))??;
        let processes = config.total_procs() as usize;
        if !resolved.supports_processes(processes) {
            return Err(ScenarioError::Undecomposable {
                workload,
                processes,
            });
        }
        Ok(Scenario {
            config,
            workload,
            workload_params: self.workload_params,
            size,
            observers: self.observers,
            sim_threads: self.sim_threads,
            faults: self.faults,
        })
    }
}

/// The canonical lowercase name of a size tier (inverse of
/// [`sizes_by_name`]).
pub fn size_name(size: Sizes) -> &'static str {
    match size {
        Sizes::Small => "small",
        Sizes::Medium => "medium",
        Sizes::Paper => "paper",
    }
}

/// Build a [`ClusterSpec`] from the `{"platform": key, "params": {...}}`
/// config form via the platform family table.
fn platform_config_from_json(v: &Value) -> Result<ClusterSpec, ScenarioError> {
    if let Value::Object(fields) = v {
        for (k, _) in fields {
            if k != "platform" && k != "params" {
                return Err(ScenarioError::UnknownField(format!("config.{k}")));
            }
        }
    }
    let key = v
        .get("platform")
        .and_then(Value::as_str)
        .ok_or(ScenarioError::Invalid(
            "config",
            "`platform` must be a registry key string".to_string(),
        ))?;
    let family = platform_by_key(key).ok_or_else(|| {
        ScenarioError::Invalid(
            "config",
            format!(
                "unknown platform `{key}` (known: {})",
                platform_keys().join("|")
            ),
        )
    })?;
    let params = v.get("params").cloned().unwrap_or(Value::Null);
    family
        .build(&params)
        .map_err(|e| ScenarioError::Invalid("config", e.to_string()))
}

/// Resolve a workload parameter map against the registry: the scenario's
/// size tier supplies the base problem, the map overrides its fields.
fn resolve_workload_params(
    kind: WorkloadKind,
    size: Sizes,
    params: &Value,
) -> Result<Workload, ScenarioError> {
    if params.get("size").is_some() {
        return Err(ScenarioError::Invalid(
            "workload",
            "set `size` at the scenario level, not inside `params`".to_string(),
        ));
    }
    let mut fields = match params {
        Value::Object(f) => f.clone(),
        Value::Null => Vec::new(),
        _ => {
            return Err(ScenarioError::Invalid(
                "workload",
                "`params` must be a JSON object".to_string(),
            ))
        }
    };
    fields.push((
        "size".to_string(),
        Value::String(size_name(size).to_string()),
    ));
    Workload::build(kind, &Value::Object(fields)).map_err(|e| ScenarioError::Invalid("workload", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier_core::machine::MachineSpec;

    fn c5_fft() -> Scenario {
        Scenario::builder()
            .config_name("C5")
            .workload_name("FFT")
            .size(Sizes::Small)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_resolves_names() {
        let s = c5_fft();
        assert_eq!(s.config.name.as_deref(), Some("C5"));
        assert_eq!(s.workload, WorkloadKind::Fft);
        assert_eq!(s.size, Sizes::Small);
        assert!(!s.observers.is_active());
        assert!(s.faults.is_empty());
    }

    #[test]
    fn builder_reports_first_bad_name() {
        let e = Scenario::builder()
            .config_name("C99")
            .workload_name("FFT")
            .build()
            .unwrap_err();
        assert_eq!(e, ScenarioError::UnknownConfig("C99".to_string()));
        let e = Scenario::builder()
            .workload(WorkloadKind::Lu)
            .build()
            .unwrap_err();
        assert_eq!(e, ScenarioError::Missing("config"));
    }

    #[test]
    fn compact_string_round_trips() {
        let s = c5_fft();
        assert_eq!(s.to_string(), "C5:FFT:small");
        assert_eq!("C5:FFT:small".parse::<Scenario>().unwrap(), s);
        // Size defaults to medium, as in the CLI.
        let m = "C5:FFT".parse::<Scenario>().unwrap();
        assert_eq!(m.size, Sizes::Medium);
    }

    #[test]
    fn json_round_trips_and_is_a_fixed_point() {
        let s = Scenario::builder()
            .config_name("C8")
            .workload(WorkloadKind::Radix)
            .size(Sizes::Paper)
            .metrics_window(5_000)
            .faults(FaultPlan::parse("point:panic:nth=2").unwrap())
            .build()
            .unwrap();
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn display_falls_back_to_json_for_unnamed_configs() {
        let s = Scenario::builder()
            .config(ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0)))
            .workload(WorkloadKind::Edge)
            .build()
            .unwrap();
        let text = s.to_string();
        assert!(text.starts_with('{'), "{text}");
        assert_eq!(text.parse::<Scenario>().unwrap(), s);
    }

    #[test]
    fn from_json_rejects_typos_and_bad_shapes() {
        let bad: Value =
            serde_json::from_str(r#"{"config": "C5", "workload": "FFT", "metrics_windw": 10}"#)
                .unwrap();
        assert_eq!(
            Scenario::from_json(&bad).unwrap_err(),
            ScenarioError::UnknownField("metrics_windw".to_string())
        );
        let bad: Value = serde_json::from_str(r#"{"config": 7, "workload": "FFT"}"#).unwrap();
        assert!(matches!(
            Scenario::from_json(&bad).unwrap_err(),
            ScenarioError::Invalid("config", _)
        ));
        assert!(matches!(
            "C5".parse::<Scenario>().unwrap_err(),
            ScenarioError::Missing("workload")
        ));
        assert!(matches!(
            "C5:FFT:small:extra".parse::<Scenario>().unwrap_err(),
            ScenarioError::Syntax(_)
        ));
    }

    #[test]
    fn sweep_plan_requires_uniform_batches() {
        let a = c5_fft();
        let mut b = a.clone();
        b.workload = WorkloadKind::Lu;
        let plan = Scenario::sweep_plan("test", &[a.clone(), b.clone()]).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.sizes, Sizes::Small);
        b.size = Sizes::Paper;
        assert_eq!(
            Scenario::sweep_plan("test", &[a, b]).unwrap_err(),
            ScenarioError::Mixed("size")
        );
        assert_eq!(
            Scenario::sweep_plan("test", &[]).unwrap_err(),
            ScenarioError::Missing("scenarios")
        );
    }

    #[test]
    fn scenario_runs_the_simulator() {
        let out = "C1:EDGE:small".parse::<Scenario>().unwrap().run();
        assert!(out.run.report.wall_cycles > 0);
        assert!(out.metrics.is_none());
    }

    #[test]
    fn new_workloads_parse_in_compact_form() {
        for (text, kind) in [
            ("N4:Stencil4D:small", WorkloadKind::Stencil4D),
            ("FT8:Stream:small", WorkloadKind::Stream),
            ("N8:graphwalk:small", WorkloadKind::GraphWalk),
            ("FT16:INFER:small", WorkloadKind::Inference),
        ] {
            let s = text.parse::<Scenario>().unwrap();
            assert_eq!(s.workload, kind, "{text}");
        }
    }

    #[test]
    fn unknown_workload_error_lists_registry_keys() {
        let e = "C5:WAVELET:small".parse::<Scenario>().unwrap_err();
        assert_eq!(e, ScenarioError::UnknownWorkload("WAVELET".to_string()));
        let msg = e.to_string();
        for key in ["FFT", "Stencil4D", "Stream", "GraphWalk", "Inference"] {
            assert!(msg.contains(key), "`{msg}` should list `{key}`");
        }
    }

    #[test]
    fn platform_registry_config_form() {
        let v: Value = serde_json::from_str(
            r#"{"config": {"platform": "numa-smp", "params": {"procs": 8, "domains": 4}},
                "workload": "Stencil4D", "size": "small"}"#,
        )
        .unwrap();
        let s = Scenario::from_json(&v).unwrap();
        assert_eq!(s.config.machine.n_procs, 8);
        assert_eq!(s.config.machine.numa_domains(), 4);
        // parse(to_json) is still an involution even though the platform
        // spelling canonicalizes to a full cluster spec.
        let json = s.to_json();
        assert_eq!(Scenario::from_json(&json).unwrap(), s);

        let bad: Value =
            serde_json::from_str(r#"{"config": {"platform": "warp-drive"}, "workload": "FFT"}"#)
                .unwrap();
        let msg = Scenario::from_json(&bad).unwrap_err().to_string();
        assert!(msg.contains("numa-smp"), "{msg}");
    }

    #[test]
    fn undecomposable_workload_is_a_typed_error() {
        let v: Value = serde_json::from_str(
            r#"{"config": {"platform": "clump", "params": {"machines": 3, "procs": 4}},
                "workload": "EDGE"}"#,
        )
        .unwrap();
        let e = Scenario::from_json(&v).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::Undecomposable {
                workload: WorkloadKind::Edge,
                processes: 12,
            }
        );
        assert!(e.to_string().contains("EDGE"), "{e}");
        // The same platform takes a kernel that does split 12 ways.
        let lu: Value = serde_json::from_str(
            r#"{"config": {"platform": "clump", "params": {"machines": 3, "procs": 4}},
                "workload": "LU"}"#,
        )
        .unwrap();
        assert!(Scenario::from_json(&lu).is_ok());
    }

    #[test]
    fn workload_parameter_map_form() {
        let v: Value = serde_json::from_str(
            r#"{"config": "C5", "size": "small",
                "workload": {"key": "stencil4d", "params": {"iterations": 3}}}"#,
        )
        .unwrap();
        let s = Scenario::from_json(&v).unwrap();
        assert_eq!(s.workload, WorkloadKind::Stencil4D);
        assert_eq!(
            s.resolved_workload(),
            Workload::Stencil4D {
                l: 8,
                iterations: 3
            }
        );
        // The JSON form round-trips with the canonical key.
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json);

        // Bad parameter names fail at parse, with the schema's keys.
        let bad: Value = serde_json::from_str(
            r#"{"config": "C5", "workload": {"key": "Stream", "params": {"stride": 2}}}"#,
        )
        .unwrap();
        let msg = Scenario::from_json(&bad).unwrap_err().to_string();
        assert!(msg.contains("no parameter `stride`"), "{msg}");

        // `size` belongs to the scenario, not the params map.
        let bad: Value = serde_json::from_str(
            r#"{"config": "C5", "workload": {"key": "FFT", "params": {"size": "small"}}}"#,
        )
        .unwrap();
        assert!(Scenario::from_json(&bad).is_err());

        // An empty params map collapses to the plain string form.
        let v: Value =
            serde_json::from_str(r#"{"config": "C5", "workload": {"key": "FFT", "params": {}}}"#)
                .unwrap();
        let s = Scenario::from_json(&v).unwrap();
        assert!(s.workload_params.is_none());
        assert_eq!(s.to_string(), "C5:FFT:medium");
    }
}
