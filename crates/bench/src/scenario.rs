//! The unified `Scenario` API: one canonical description of "run this
//! workload on this platform, with these observers".
//!
//! Before this module, the CLI, `memhierd`, and the sweep runner each
//! grew their own config path (flag strings, ad-hoc JSON fields, and
//! sweep-grid construction respectively).  A [`Scenario`] is now the
//! single value all three construct and hand to the simulator:
//!
//! * the CLI's `simulate`/`sweep` subcommands parse their flags into
//!   `Scenario`s;
//! * `memhierd`'s `/v1/simulate` body **is** a `Scenario` in its JSON
//!   form, and `/v1/sweep` expands into one `Scenario` per grid point;
//! * a [`SweepPlan`](crate::sweeprun::SweepPlan) is a name plus a list
//!   of `Scenario`s, each run by the parallel runner as
//!   [`Scenario::run`] runs it, so the points of one batch may differ in
//!   size, observers and workload parameters.
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
//!   "small", "metrics_window": 1000, "trace_capacity": 4096}`, one
//!   derived wire struct.  `config` is a config name, a `{platform,
//!   params}` object or an inline [`ClusterSpec`]; `workload` is a name or
//!   a `{key, params}` object.  It prints as a name only when the spec
//!   *is* the config of that name (a C1 spec named `C5` is spelled out),
//!   and optional fields are omitted at their defaults, so *builder →
//!   JSON → parse → JSON* is a lossless fixed point (locked in by
//!   `tests/scenario_roundtrip.rs`).  The retired `sim_threads` and
//!   `faults` keys are type-checked and ignored.
//!
//! Parsing reports typed [`ScenarioError`]s, which convert into
//! `memhier::MemhierError` (and `memhierd`'s HTTP 400s) instead of the
//! bare `String`s the entry points used before.

use crate::names::{config_by_name, sizes_by_name, workload_kind_by_name};
use crate::runner::{simulate_workload_observed, ObservedRun, ObserverConfig, Sizes};
use memhier_core::platform::ClusterSpec;
use memhier_core::{platform_by_key, platform_keys};
use memhier_workloads::registry::{Workload, WorkloadKind};
use serde::{Deserialize, ErrorKind, Expected, Serialize};
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

/// Decoder faults in the scenario wording: the outermost key names the
/// field, an unknown key is spelled with the keys leading to it
/// (`config.machine.numaa`), a non-object is a syntax error named by the
/// struct's `expecting` text, and a `ScenarioError` the `config` or
/// `workload` codec raised comes back unchanged.
impl From<serde::Error> for ScenarioError {
    fn from(e: serde::Error) -> Self {
        if let Some(scenario) = e.downcast_ref::<ScenarioError>() {
            return scenario.clone();
        }
        let field = e.path.first().map_or("", |&(_, key)| key);
        match e.kind {
            ErrorKind::UnknownField(key) => {
                let mut path: Vec<&str> = e.path.iter().map(|&(_, key)| key).collect();
                path.push(&key);
                ScenarioError::UnknownField(path.join("."))
            }
            ErrorKind::Invalid(Expected::Object(what), _) if e.path.is_empty() => {
                ScenarioError::Syntax(format!("{what} must be a JSON object"))
            }
            ErrorKind::Invalid(expected, _) => {
                ScenarioError::Invalid(field, format!("must be {}", expected.describe()))
            }
            kind => ScenarioError::Invalid(field, kind.to_string()),
        }
    }
}

/// Everything needed to simulate one run: the platform, the workload and
/// its problem size, and which observers to attach.  Construct via
/// [`Scenario::builder`], a compact string, or JSON (see the module docs
/// for the grammar).
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
}

/// The JSON form of a [`Scenario`].  Keys may be omitted but never
/// `null`; `config` and `workload` are required by the builder, which
/// also resolves the names.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "a scenario")]
struct ScenarioWire {
    #[serde(deserialize_with = "present")]
    config: Option<ConfigWire>,
    #[serde(deserialize_with = "present")]
    workload: Option<WorkloadWire>,
    #[serde(deserialize_with = "present")]
    size: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "positive")]
    metrics_window: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    trace_capacity: Option<usize>,
    /// Retired: once chose a second engine.  Checked, never set.
    #[serde(skip_serializing_if = "Option::is_none")]
    #[serde(deserialize_with = "sim_threads")]
    sim_threads: Option<u64>,
    /// Retired: a fault plan nothing applied.  Checked, never set.
    #[serde(skip_serializing_if = "Option::is_none")]
    #[serde(deserialize_with = "fault_spec")]
    faults: Option<String>,
}

/// The `/v1/sweep` grid: `configs × workloads` at one size.  A `null`
/// `size` or `sim_threads` reads as absent.
#[derive(Default, Deserialize)]
#[serde(deny_unknown_fields)]
struct GridWire {
    #[serde(deserialize_with = "names")]
    configs: Option<Vec<String>>,
    #[serde(deserialize_with = "names")]
    workloads: Option<Vec<String>>,
    size: Option<String>,
    /// Retired, as in a scenario: checked, never read.
    #[allow(dead_code)]
    #[serde(deserialize_with = "grid_sim_threads")]
    sim_threads: Option<u64>,
}

/// A scenario's `config`: a configuration name, resolved by the builder,
/// or a spec given inline as a cluster-spec or `{platform, params}`
/// object.
enum ConfigWire {
    Name(String),
    Spec(ClusterSpec),
}

impl ConfigWire {
    /// The lossless spelling: the name only when `spec` is exactly the
    /// configuration of that name.
    fn of(spec: &ClusterSpec) -> ConfigWire {
        match &spec.name {
            Some(name) if config_by_name(name).as_ref() == Ok(spec) => {
                ConfigWire::Name(name.clone())
            }
            _ => ConfigWire::Spec(spec.clone()),
        }
    }
}

impl Serialize for ConfigWire {
    fn to_json_value(&self) -> Value {
        match self {
            ConfigWire::Name(name) => Value::String(name.clone()),
            ConfigWire::Spec(spec) => spec.to_json_value(),
        }
    }
}

impl Deserialize for ConfigWire {
    fn from_json_value(v: Value) -> Result<Self, serde::Error> {
        let invalid = |why: String| serde::Error::custom(ScenarioError::Invalid("config", why));
        if let (Value::Object(fields), Some(platform)) = (&v, v.get("platform")) {
            if let Some((key, _)) = fields
                .iter()
                .find(|(k, _)| k != "platform" && k != "params")
            {
                return Err(serde::Error::unknown_field(key.clone()));
            }
            let key = platform
                .as_str()
                .ok_or_else(|| invalid("`platform` must be a registry key string".into()))?;
            let family = platform_by_key(key).ok_or_else(|| {
                invalid(format!(
                    "unknown platform `{key}` (known: {})",
                    platform_keys().join("|")
                ))
            })?;
            return family
                .build(&v["params"])
                .map(ConfigWire::Spec)
                .map_err(|e| invalid(e.to_string()));
        }
        match v {
            Value::String(name) => Ok(ConfigWire::Name(name)),
            // An unknown key keeps its path (`config.machine.numaa`).
            Value::Object(_) => ClusterSpec::from_json_value(v)
                .map(ConfigWire::Spec)
                .map_err(|e| match e.kind {
                    ErrorKind::UnknownField(_) => e,
                    _ => invalid(e.to_string()),
                }),
            _ => Err(invalid(
                "must be a name string, a {platform, params} object, or a cluster-spec object"
                    .into(),
            )),
        }
    }
}

/// A scenario's `workload`: a registry key, or a `{key, params}` object
/// whose parameter map the builder validates.  `params` is `null` in the
/// plain form.
struct WorkloadWire {
    key: String,
    params: Value,
}

impl Serialize for WorkloadWire {
    fn to_json_value(&self) -> Value {
        let key = Value::String(self.key.clone());
        if self.params.is_null() {
            return key;
        }
        Value::Object(vec![
            ("key".to_string(), key),
            ("params".to_string(), self.params.clone()),
        ])
    }
}

impl Deserialize for WorkloadWire {
    fn from_json_value(v: Value) -> Result<Self, serde::Error> {
        let invalid =
            |why: &str| serde::Error::custom(ScenarioError::Invalid("workload", why.to_string()));
        match &v {
            Value::String(key) => Ok(WorkloadWire {
                key: key.clone(),
                params: Value::Null,
            }),
            Value::Object(fields) => {
                if let Some((key, _)) = fields.iter().find(|(k, _)| k != "key" && k != "params") {
                    return Err(serde::Error::unknown_field(key.clone()));
                }
                let key = v["key"]
                    .as_str()
                    .ok_or_else(|| invalid("object form needs a `key` string"))?;
                Ok(WorkloadWire {
                    key: key.to_string(),
                    params: v["params"].clone(),
                })
            }
            _ => Err(invalid("must be a string or a {key, params} object")),
        }
    }
}

/// What a `deserialize_with` helper reads from a present key.
type Field<T> = Result<Option<T>, serde::Error>;

/// An optional key that is present must hold a value of its type.
fn present<T: Deserialize>(v: Value) -> Field<T> {
    T::from_json_value(v).map(Some)
}

/// `v` as `read` takes it, or the error that it must be `what`.
fn must_be<T>(v: Value, what: &'static str, read: impl FnOnce(&Value) -> Option<T>) -> Field<T> {
    let got = read(&v).map(Some);
    got.ok_or_else(|| serde::Error::invalid(Expected::Other(what), v))
}

/// A metrics window: a positive cycle count.
fn positive(v: Value) -> Field<u64> {
    let what = "a positive integer (cycles)";
    must_be(v, what, |v| v.as_u64().filter(|&n| n > 0))
}

/// The retired `sim_threads` key, which once selected a second engine.
/// Older bodies and plan files still carry it, so it is type-checked as
/// before and its value ignored: every scenario runs the one engine.
fn sim_threads(v: Value) -> Field<u64> {
    let what = "a non-negative integer (0 = classic engine)";
    must_be(v, what, Value::as_u64)
}

/// The retired `faults` key: it must still be a valid fault spec.
fn fault_spec(v: Value) -> Field<String> {
    let spec = must_be(v, "a fault-spec string", |v| v.as_str().map(str::to_string))?;
    let plan = crate::faults::FaultPlan::parse(spec.as_deref().unwrap_or_default());
    plan.map(|_| spec).map_err(serde::Error::custom)
}

/// [`sim_threads`], reading `null` as absent (the grid's rule).
fn grid_sim_threads(v: Value) -> Field<u64> {
    match v {
        Value::Null => Ok(None),
        v => sim_threads(v),
    }
}

/// A grid's list of names.  Anything but an array reads as absent, which
/// [`Scenario::expand_grid`] refuses.
fn names(v: Value) -> Field<Vec<String>> {
    match v {
        Value::Array(_) => {
            present(v).map_err(|_| serde::Error::custom("must contain only strings"))
        }
        _ => Ok(None),
    }
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
        simulate_workload_observed(&self.resolved_workload(), &self.config, &self.observers)
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

    /// The canonical JSON form.  `config` is a name only when it is
    /// exactly the configuration of that name, and fields at their
    /// defaults are omitted, so parsing this value back yields `self`
    /// and re-serializing yields the same JSON (the round-trip fixed
    /// point).
    pub fn to_json(&self) -> Value {
        ScenarioWire {
            config: Some(ConfigWire::of(&self.config)),
            workload: Some(WorkloadWire {
                key: self.workload.name().to_string(),
                params: self.workload_params.clone().unwrap_or(Value::Null),
            }),
            size: Some(size_name(self.size).to_string()),
            metrics_window: self.observers.metrics_window,
            trace_capacity: self.observers.trace_capacity,
            sim_threads: None,
            faults: None,
        }
        .to_json_value()
    }

    /// Parse the JSON form (see the module docs).  Missing `size`
    /// defaults to `medium`; unknown keys are rejected so a typo'd field
    /// fails loudly instead of being silently ignored.  The retired
    /// `sim_threads` and `faults` keys are the exceptions: they are
    /// type-checked and their values ignored.
    pub fn from_json(v: &Value) -> Result<Scenario, ScenarioError> {
        Scenario::from_json_default(v, Sizes::Medium)
    }

    /// [`Scenario::from_json`] with an explicit default for a missing
    /// `size` field (`memhierd`'s sweep endpoint defaults to `small`
    /// where the CLI defaults to `medium`).
    pub fn from_json_default(v: &Value, default_size: Sizes) -> Result<Scenario, ScenarioError> {
        let wire = ScenarioWire::from_json_value(v.clone())?;
        let mut b = Scenario::builder().size(default_size);
        b = match wire.config {
            Some(ConfigWire::Name(name)) => b.config_name(&name),
            Some(ConfigWire::Spec(spec)) => b.config(spec),
            None => b,
        };
        if let Some(workload) = wire.workload {
            b = b
                .workload_name(&workload.key)
                .workload_params(workload.params);
        }
        if let Some(size) = wire.size {
            b = b.size_name(&size);
        }
        b.observers(ObserverConfig {
            metrics_window: wire.metrics_window,
            trace_capacity: wire.trace_capacity,
        })
        .build()
    }

    /// Expand a sweep-grid request — `{"configs": [..], "workloads":
    /// [..], "size"?}` — into one scenario per `configs × workloads`
    /// point, cluster-major (all workloads on the first config, then the
    /// second, ...).  This is the shape of `memhierd`'s `/v1/sweep` body
    /// and of the CLI's `--configs`/`--workloads` lists; any other key
    /// but the retired, ignored `sim_threads` is rejected as a typo.
    pub fn expand_grid(v: &Value, default_size: Sizes) -> Result<Vec<Scenario>, ScenarioError> {
        // A body that is not an object has no `configs` list.
        let grid = match v {
            Value::Object(_) => GridWire::from_json_value(v.clone())?,
            _ => GridWire::default(),
        };
        let list = |names: Option<Vec<String>>, key| {
            names.ok_or_else(|| ScenarioError::Invalid(key, "must be an array of strings".into()))
        };
        let configs = list(grid.configs, "configs")?;
        let workloads = list(grid.workloads, "workloads")?;
        let size = match grid.size {
            None => default_size,
            Some(name) => sizes_by_name(&name).map_err(|_| ScenarioError::UnknownSize(name))?,
        };
        Scenario::grid(&configs, &workloads, size)
    }

    /// One scenario per `configs × workloads` point at `size`,
    /// cluster-major; the first name that does not resolve is the error.
    pub fn grid(
        configs: &[String],
        workloads: &[String],
        size: Sizes,
    ) -> Result<Vec<Scenario>, ScenarioError> {
        cluster_major(configs, workloads, |c, w| {
            Scenario::builder()
                .config_name(c)
                .workload_name(w)
                .size(size)
                .build()
        })
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
}

/// `point` of every `configs × workloads` pair, cluster-major: all
/// workloads on the first config, then on the second, ... (the reading
/// order of the paper's figures, and the point order of every sweep).
pub(crate) fn cluster_major<C, W, T, B: FromIterator<T>>(
    configs: &[C],
    workloads: &[W],
    point: impl Fn(&C, &W) -> T,
) -> B {
    let point = &point;
    configs
        .iter()
        .flat_map(|c| workloads.iter().map(move |w| point(c, w)))
        .collect()
}

/// Compact form when the config is a named configuration and nothing
/// else is set, JSON otherwise; both spellings parse back via
/// [`FromStr`].
impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plain = self.observers == ObserverConfig::default() && self.workload_params.is_none();
        match (ConfigWire::of(&self.config), plain) {
            (ConfigWire::Name(name), true) => {
                let (workload, size) = (self.workload.name(), size_name(self.size));
                write!(f, "{name}:{workload}:{size}")
            }
            _ => f.write_str(&serde_json::to_string(&self.to_json()).map_err(|_| fmt::Error)?),
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
        resolved
            .check_layout(processes)
            .map_err(|e| ScenarioError::Invalid("workload", e))?;
        Ok(Scenario {
            config,
            workload,
            workload_params: self.workload_params,
            size,
            observers: self.observers,
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
    fn names_ignore_case_like_workloads() {
        let lower = "c5:fft:small".parse::<Scenario>().unwrap();
        let upper = "C5:FFT:small".parse::<Scenario>().unwrap();
        assert_eq!(lower, upper);
        assert_eq!(lower.to_string(), "C5:FFT:small");
        assert_eq!(lower.run().run.report, upper.run().run.report);
    }

    #[test]
    fn json_round_trips_and_is_a_fixed_point() {
        let s = Scenario::builder()
            .config_name("C8")
            .workload(WorkloadKind::Radix)
            .size(Sizes::Paper)
            .metrics_window(5_000)
            .build()
            .unwrap();
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn retired_faults_key_is_checked_and_dropped() {
        let parse = |extra: &str| {
            let body = format!(r#"{{"config": "C5", "workload": "FFT", "size": "small"{extra}}}"#);
            Scenario::from_json(&serde_json::from_str(&body).unwrap())
        };
        let with = parse(r#", "faults": "point:panic:nth=2", "sim_threads": 4"#).unwrap();
        assert_eq!(with, c5_fft());
        assert_eq!(with.to_json(), c5_fft().to_json());
        assert!(matches!(
            parse(r#", "faults": "point:explode""#).unwrap_err(),
            ScenarioError::Invalid("faults", _)
        ));
        assert!(matches!(
            parse(r#", "faults": 5"#).unwrap_err(),
            ScenarioError::Invalid("faults", _)
        ));
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
    fn inline_cluster_spec_rejects_typos_at_any_depth() {
        let spec = r#""machine": {"n_procs": 4, "cache_bytes": 262144,
                                   "memory_bytes": 67108864, "clock_hz": 2e8}"#;
        let parse = |config: String| {
            let v: Value =
                serde_json::from_str(&format!(r#"{{"config": {config}, "workload": "LU"}}"#))
                    .unwrap();
            Scenario::from_json(&v)
        };
        assert!(parse(format!(r#"{{{spec}, "machines": 1}}"#)).is_ok());
        let e = parse(format!(r#"{{{spec}, "machines": 1, "nmae": "x"}}"#)).unwrap_err();
        assert_eq!(e, ScenarioError::UnknownField("config.nmae".to_string()));
        let numaa = spec.replace(
            r#""clock_hz": 2e8"#,
            r#""clock_hz": 2e8, "numaa": {"domains": 2, "remote_penalty_cycles": 40}"#,
        );
        let e = parse(format!(r#"{{{numaa}, "machines": 1}}"#)).unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown scenario field `config.machine.numaa`"
        );
        let domainz = spec.replace(
            r#""clock_hz": 2e8"#,
            r#""clock_hz": 2e8, "numa": {"domainz": 2, "remote_penalty_cycles": 40}"#,
        );
        let e = parse(format!(r#"{{{domainz}, "machines": 1}}"#)).unwrap_err();
        assert_eq!(
            e,
            ScenarioError::UnknownField("config.machine.numa.domainz".to_string())
        );
    }

    #[test]
    fn sweep_grid_rejects_unknown_keys() {
        let v: Value =
            serde_json::from_str(r#"{"configs": ["C5"], "workloads": ["LU"], "sise": "paper"}"#)
                .unwrap();
        assert_eq!(
            Scenario::expand_grid(&v, Sizes::Small).unwrap_err(),
            ScenarioError::UnknownField("sise".to_string())
        );
        let v: Value =
            serde_json::from_str(r#"{"configs": ["C5"], "workloads": ["LU"], "size": "paper"}"#)
                .unwrap();
        let grid = Scenario::expand_grid(&v, Sizes::Small).unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].size, Sizes::Paper);
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
