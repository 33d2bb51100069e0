//! The cost crate's typed wire format: request/response structs for the
//! fleet-scale optimizer and the §6 recommender, following the
//! `Scenario` conventions from `memhier-bench`:
//!
//! * `to_json` → `from_json` is a **fixed point** (defaults are omitted
//!   on output and refilled on input);
//! * unknown object keys are rejected ([`CostError::UnknownField`]) so a
//!   typo'd field fails loudly instead of being silently ignored;
//! * [`FromStr`]/[`Display`](fmt::Display) give a compact one-line
//!   spelling (`FFT@20000`) that falls back to JSON when any field is
//!   non-default;
//! * errors are one `#[non_exhaustive]` enum with `From` conversions
//!   into the workspace facade error and the service's HTTP error.
//!
//! The struct codecs are derived (`#[derive(Serialize, Deserialize)]`
//! with `serde` attributes for defaults, omission and typo rejection);
//! `From<serde::Error>` words the decoder's faults as [`CostError`]s, and
//! each `from_json` adds the range checks a type cannot express.  Three
//! shapes the derive does not model keep hand-written codecs: a
//! [`WorkloadSpec`] is a name or an `{alpha, beta, rho}` object, a
//! [`RecommendRequest`] flattens that object into its own keys, and a
//! [`CandidateSpace`] spells networks by wire name and omits every key
//! that equals the paper market.
//!
//! The same [`OptimizeRequest`]/[`OptimizeReport`] pair backs `memhier
//! optimize --json` and `memhierd`'s `POST /v1/optimize`, and the same
//! [`RecommendRequest`]/[`RecommendReport`] pair backs `memhier
//! recommend --format json` and `POST /v1/recommend`, so the CLI and the
//! service stay byte-for-byte interchangeable (pinned by
//! `serve_parity.rs` and the golden fixtures in `tests/golden/`).

use crate::enumerate::CandidateSpace;
use crate::optimize::RankedConfig;
use crate::prices::PriceTable;
use crate::recommend::{Recommendation, RecommendedPlatform};
use memhier_core::locality::WorkloadParams;
use memhier_core::machine::NetworkKind;
use memhier_core::WorkloadKind;
use serde::{Deserialize, ErrorKind, Expected, Serialize};
use serde_json::Value;
use std::fmt;
use std::str::FromStr;

/// Why a request could not be parsed or evaluated.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CostError {
    /// The named workload is not a row of the workload table.
    UnknownWorkload(String),
    /// A required field was never supplied.
    Missing(&'static str),
    /// A field was present but malformed (field name, why).
    Invalid(&'static str, String),
    /// An object key no request field matches (typo guard).
    UnknownField(String),
    /// The input was not valid JSON / not a recognized compact form.
    Syntax(String),
    /// Simulation confirmation was requested for a workload the
    /// simulator has no kernel for (custom `(α, β, ρ)` parameters).
    Unsimulatable(String),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::UnknownWorkload(name) => f.write_str(&WorkloadKind::unknown(name)),
            CostError::Missing(field) => write!(f, "`{field}` is required"),
            CostError::Invalid(field, why) => write!(f, "`{field}`: {why}"),
            CostError::UnknownField(key) => write!(f, "unknown request field `{key}`"),
            CostError::Syntax(why) => write!(f, "malformed request: {why}"),
            CostError::Unsimulatable(why) => {
                write!(f, "cannot confirm by simulation: {why}")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// Decoder faults in the request wording: the innermost key names the
/// field, a non-object is a syntax error named by the struct's
/// `expecting` text, and a `CostError` a hand-written codec raised comes
/// back unchanged.
impl From<serde::Error> for CostError {
    fn from(e: serde::Error) -> Self {
        if let Some(cost) = e.downcast_ref::<CostError>() {
            return cost.clone();
        }
        let (ty, key) = e.field().unwrap_or(("", ""));
        // A bad price is reported against the table, not the price.
        let field = if ty == "PriceTable" { "prices" } else { key };
        match e.kind {
            ErrorKind::UnknownField(k) => CostError::UnknownField(k),
            ErrorKind::Missing(_) => CostError::Missing(match (ty, key) {
                // A confirmation's fields are named under its block.
                ("SimConfirmation", "size") => "simulated.size",
                ("SimConfirmation", "seconds") => "simulated.seconds",
                ("SimConfirmation", "wall_cycles") => "simulated.wall_cycles",
                _ => key,
            }),
            ErrorKind::Invalid(Expected::Object(what), _) => {
                CostError::Syntax(format!("{what} must be a JSON object"))
            }
            ErrorKind::Invalid(expected, _) if !matches!(expected, Expected::Variant(_)) => {
                CostError::Invalid(field, format!("must be {}", expected.describe()))
            }
            kind => CostError::Invalid(field, kind.to_string()),
        }
    }
}

/// Canonical short name of a network medium on the wire
/// (`eth10|eth100|atm|fattree`, matching the CLI's `--network`
/// spellings): the `wire` spelling from the medium's network-table row.
pub fn network_name(net: NetworkKind) -> &'static str {
    net.spec().wire
}

/// Parse a network medium from any network-table spelling (key, wire name,
/// or alias, case-insensitive; `atm155` is accepted for `atm`).
pub fn network_by_name(name: &str) -> Result<NetworkKind, CostError> {
    NetworkKind::parse(name).ok_or_else(|| {
        let known: Vec<&str> = NetworkKind::registered()
            .iter()
            .map(|n| n.spec().wire)
            .collect();
        CostError::Invalid(
            "networks",
            format!("unknown network `{name}` ({})", known.join("|")),
        )
    })
}

fn parse_workload(name: &str) -> Result<WorkloadKind, CostError> {
    WorkloadKind::parse(name).ok_or_else(|| CostError::UnknownWorkload(name.to_string()))
}

/// Problem-size tiers simulation confirmation may run at.  The cost
/// crate cannot depend on the bench runner, so the three stable tier
/// names are validated here and resolved downstream.
pub const CONFIRM_SIZES: [&str; 3] = ["small", "medium", "paper"];

fn validate_confirm_size(name: &str) -> Result<String, CostError> {
    let lower = name.to_ascii_lowercase();
    if CONFIRM_SIZES.contains(&lower.as_str()) {
        Ok(lower)
    } else {
        Err(CostError::Invalid(
            "confirm_size",
            format!("unknown size `{name}` (small|medium|paper)"),
        ))
    }
}

fn check_budget(budget: f64) -> Result<f64, CostError> {
    if budget.is_finite() && budget >= 0.0 {
        Ok(budget)
    } else {
        Err(CostError::Invalid(
            "budget",
            "must be finite and non-negative".to_string(),
        ))
    }
}

fn check_top(top: usize) -> Result<usize, CostError> {
    if top >= 1 {
        Ok(top)
    } else {
        Err(CostError::Invalid("top", "must be at least 1".to_string()))
    }
}

/// Every price must be finite and non-negative.
fn check_prices(prices: &PriceTable) -> Result<(), CostError> {
    if let Value::Object(fields) = prices.to_json_value() {
        for (key, price) in fields {
            if !price.as_f64().is_some_and(|p| p.is_finite() && p >= 0.0) {
                return Err(CostError::Invalid(
                    "prices",
                    format!("`{key}` must be finite and non-negative"),
                ));
            }
        }
    }
    Ok(())
}

fn is_circa_1999(prices: &PriceTable) -> bool {
    *prices == PriceTable::circa_1999()
}

/// Optional wire fields are omitted when absent, never `null`: a key
/// that is present must hold a value of the field's type.
fn present<T: Deserialize>(v: Value) -> Result<Option<T>, serde::Error> {
    T::from_json_value(v).map(Some)
}

/// The workload a request optimizes for: a table workload by name, or raw
/// `(α, β, ρ)` parameters for a workload characterized elsewhere (e.g.
/// by `memhier fit`).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A workload-table row, stored under its canonical key (`FFT`,
    /// `TPC-C`, `Stencil4D`, ...).
    Named(String),
    /// Custom locality/memory-pressure parameters.
    Custom {
        /// Locality shape `α > 1`.
        alpha: f64,
        /// Locality scale `β > 1`, bytes.
        beta: f64,
        /// Memory-reference fraction `ρ`.
        rho: f64,
    },
}

impl WorkloadSpec {
    /// A named table workload, canonicalized; errors on unknown names.
    pub fn named(name: &str) -> Result<Self, CostError> {
        let kind = parse_workload(name)?;
        Ok(WorkloadSpec::Named(kind.name().to_string()))
    }

    /// Resolve to concrete model parameters.
    pub fn resolve(&self) -> Result<WorkloadParams, CostError> {
        match self {
            WorkloadSpec::Named(name) => parse_workload(name).map(|k| k.params()),
            WorkloadSpec::Custom { alpha, beta, rho } => {
                WorkloadParams::new("custom", *alpha, *beta, *rho)
                    .map_err(|e| CostError::Invalid("workload", e.to_string()))
            }
        }
    }

    /// The `{alpha, beta, rho}` object form, validated at the boundary
    /// so a bad request fails at parse time, not mid-search.
    fn custom_from_json(fields: &[(String, Value)]) -> Result<Self, CostError> {
        let (mut alpha, mut beta, mut rho) = (None, None, None);
        for (key, value) in fields {
            let slot = match key.as_str() {
                "alpha" => &mut alpha,
                "beta" => &mut beta,
                "rho" => &mut rho,
                other => return Err(CostError::UnknownField(other.to_string())),
            };
            *slot = Some(value.as_f64().ok_or_else(|| {
                CostError::Invalid("workload", format!("`{key}` must be a number"))
            })?);
        }
        let spec = WorkloadSpec::Custom {
            alpha: alpha.ok_or(CostError::Missing("workload.alpha"))?,
            beta: beta.ok_or(CostError::Missing("workload.beta"))?,
            rho: rho.ok_or(CostError::Missing("workload.rho"))?,
        };
        spec.resolve()?;
        Ok(spec)
    }
}

/// A name string or an `{alpha, beta, rho}` object.
impl Serialize for WorkloadSpec {
    fn to_json_value(&self) -> Value {
        match self {
            WorkloadSpec::Named(name) => Value::String(name.clone()),
            WorkloadSpec::Custom { alpha, beta, rho } => Value::Object(vec![
                ("alpha".to_string(), alpha.to_json_value()),
                ("beta".to_string(), beta.to_json_value()),
                ("rho".to_string(), rho.to_json_value()),
            ]),
        }
    }
}

impl Deserialize for WorkloadSpec {
    fn from_json_value(v: Value) -> Result<Self, serde::Error> {
        match v {
            Value::String(name) => WorkloadSpec::named(&name),
            Value::Object(fields) => WorkloadSpec::custom_from_json(&fields),
            other => {
                return Err(serde::Error::invalid(
                    Expected::Other("a kernel name or an {alpha, beta, rho} object"),
                    other,
                ))
            }
        }
        .map_err(serde::Error::custom)
    }
}

/// The wire grid object: keys equal to the paper-market default are
/// omitted, and networks go by their wire names (`eth10|eth100|atm|
/// fattree`), not `NetworkKind`'s serde key.
impl Serialize for CandidateSpace {
    fn to_json_value(&self) -> Value {
        let default = CandidateSpace::paper_market();
        let mut fields = Vec::new();
        if self.proc_counts != default.proc_counts {
            fields.push(("procs".to_string(), self.proc_counts.to_json_value()));
        }
        if self.cache_kb != default.cache_kb {
            fields.push(("cache_kb".to_string(), self.cache_kb.to_json_value()));
        }
        if self.memory_mb != default.memory_mb {
            fields.push(("memory_mb".to_string(), self.memory_mb.to_json_value()));
        }
        if self.max_machines != default.max_machines {
            fields.push((
                "max_machines".to_string(),
                self.max_machines.to_json_value(),
            ));
        }
        if self.networks != default.networks {
            let names: Vec<&str> = self.networks.iter().map(|&n| network_name(n)).collect();
            fields.push(("networks".to_string(), names.to_json_value()));
        }
        if self.clock_mhz != default.clock_mhz {
            fields.push(("clock_mhz".to_string(), self.clock_mhz.to_json_value()));
        }
        Value::Object(fields)
    }
}

/// Missing keys take their paper-market defaults; unknown keys are
/// rejected.
impl Deserialize for CandidateSpace {
    fn from_json_value(v: Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(key: &'static str, v: Value) -> Result<T, serde::Error> {
            T::from_json_value(v).map_err(|e| e.within("CandidateSpace", key))
        }
        fn bad(key: &'static str, why: &str) -> serde::Error {
            serde::Error::custom(why.to_string()).within("CandidateSpace", key)
        }
        /// A non-empty array, decoded element by element.
        fn list<T: Deserialize>(
            key: &'static str,
            v: Value,
            what: &str,
        ) -> Result<Vec<T>, serde::Error> {
            match v {
                Value::Array(items) if items.is_empty() => Err(bad(key, "must not be empty")),
                Value::Array(items) => items.into_iter().map(|e| field(key, e)).collect(),
                _ => Err(bad(key, &format!("must be an array of {what}"))),
            }
        }
        let Value::Object(fields) = v else {
            return Err(serde::Error::invalid(Expected::Object("`search_space`"), v));
        };
        let mut space = CandidateSpace::paper_market();
        for (key, value) in fields {
            match key.as_str() {
                "procs" => {
                    space.proc_counts = list::<u64>("procs", value, "integers")?
                        .into_iter()
                        .map(|n| {
                            u32::try_from(n)
                                .map_err(|_| bad("procs", &format!("count {n} out of range")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "cache_kb" => space.cache_kb = list("cache_kb", value, "integers")?,
                "memory_mb" => space.memory_mb = list("memory_mb", value, "integers")?,
                "max_machines" => {
                    let n: u64 = field("max_machines", value)?;
                    space.max_machines = u32::try_from(n)
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| bad("max_machines", "must be at least 1"))?;
                }
                "networks" => {
                    space.networks = list::<String>("networks", value, "names")?
                        .iter()
                        .map(|name| network_by_name(name).map_err(serde::Error::custom))
                        .collect::<Result<_, _>>()?;
                }
                "clock_mhz" => {
                    let mhz: f64 = field("clock_mhz", value)?;
                    if !mhz.is_finite() || mhz <= 0.0 {
                        return Err(bad("clock_mhz", "must be positive and finite"));
                    }
                    space.clock_mhz = mhz;
                }
                _ => return Err(serde::Error::unknown_field(key)),
            }
        }
        Ok(space)
    }
}

fn is_paper_market(space: &CandidateSpace) -> bool {
    *space == CandidateSpace::paper_market()
}

/// Default number of ranked configurations an optimize report carries.
pub const DEFAULT_TOP: usize = 5;

fn default_top() -> usize {
    DEFAULT_TOP
}

fn is_default_top(top: &usize) -> bool {
    *top == DEFAULT_TOP
}

fn is_zero(n: &usize) -> bool {
    *n == 0
}

fn small() -> String {
    "small".to_string()
}

fn is_small(size: &String) -> bool {
    size == "small"
}

/// A fleet-scale optimization request: *"under this budget (and
/// optionally this SLO), what is the best cluster for this workload in
/// this market?"* — the paper's §6 question scaled to a parameterized
/// candidate grid with optional simulation confirmation of the analytic
/// finalists.
///
/// Its canonical JSON omits default-valued fields, so it is also the
/// minimal spelling of the request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "an optimize request")]
pub struct OptimizeRequest {
    /// What runs on the cluster.
    pub workload: WorkloadSpec,
    /// Total budget, dollars.
    pub budget: f64,
    /// Optional SLO: maximum acceptable model-predicted `E(Instr)` in
    /// seconds.  Candidates predicted slower are filtered (and counted).
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    pub slo: Option<f64>,
    /// The candidate grid (default: the paper's 828-point market).
    #[serde(default, skip_serializing_if = "is_paper_market")]
    pub search_space: CandidateSpace,
    /// Component prices (default: the reconstructed c.-1999 table).
    #[serde(default, skip_serializing_if = "is_circa_1999")]
    pub prices: PriceTable,
    /// Ranked configurations to report (default [`DEFAULT_TOP`]).
    #[serde(default = "default_top", skip_serializing_if = "is_default_top")]
    pub top: usize,
    /// Analytic finalists to confirm with full simulation (default 0 =
    /// analytic only).  Requires a named paper workload.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub confirm: usize,
    /// Problem-size tier for confirmation runs (default `small`).
    #[serde(default = "small", skip_serializing_if = "is_small")]
    pub confirm_size: String,
}

impl OptimizeRequest {
    /// A default-shaped request for `workload` under `budget`.
    pub fn new(workload: WorkloadSpec, budget: f64) -> Self {
        OptimizeRequest {
            workload,
            budget,
            slo: None,
            search_space: CandidateSpace::paper_market(),
            prices: PriceTable::circa_1999(),
            top: DEFAULT_TOP,
            confirm: 0,
            confirm_size: small(),
        }
    }

    /// Canonical JSON form; default-valued fields are omitted.
    pub fn to_json(&self) -> Value {
        self.to_json_value()
    }

    /// Parse the JSON form.  `workload` and `budget` are required;
    /// everything else defaults; unknown keys are rejected.  This is the
    /// entry point for outside input: the derived `Deserialize` checks
    /// shape only, and this adds the range checks.
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        let mut req = OptimizeRequest::from_json_value(v.clone())?;
        check_budget(req.budget)?;
        if req.slo.is_some_and(|s| !s.is_finite() || s <= 0.0) {
            return Err(CostError::Invalid(
                "slo",
                "must be positive and finite (seconds)".to_string(),
            ));
        }
        check_prices(&req.prices)?;
        check_top(req.top)?;
        req.confirm_size = validate_confirm_size(&req.confirm_size)?;
        Ok(req)
    }
}

impl fmt::Display for OptimizeRequest {
    /// Compact `WORKLOAD@BUDGET` when lossless (the canonical JSON holds
    /// nothing else), JSON otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let json = self.to_json();
        match &self.workload {
            WorkloadSpec::Named(name) if matches!(&json, Value::Object(k) if k.len() == 2) => {
                write!(f, "{name}@{}", self.budget)
            }
            _ => f.write_str(&serde_json::to_string(&json).map_err(|_| fmt::Error)?),
        }
    }
}

impl FromStr for OptimizeRequest {
    type Err = CostError;

    /// Accepts the JSON object form or the compact `WORKLOAD@BUDGET`.
    fn from_str(s: &str) -> Result<Self, CostError> {
        let s = s.trim();
        if s.starts_with('{') {
            let v: Value = serde_json::from_str(s)
                .map_err(|e| CostError::Syntax(format!("invalid JSON: {e}")))?;
            return OptimizeRequest::from_json(&v);
        }
        let (name, budget) = s
            .split_once('@')
            .ok_or_else(|| CostError::Syntax(format!("expected WORKLOAD@BUDGET, got `{s}`")))?;
        let budget: f64 = budget
            .trim()
            .parse()
            .map_err(|_| CostError::Invalid("budget", format!("bad number `{budget}`")))?;
        Ok(OptimizeRequest::new(
            WorkloadSpec::named(name.trim())?,
            check_budget(budget)?,
        ))
    }
}

/// Where each candidate of the search space went: the counted
/// diagnostics behind the pruning ratio.  Every candidate lands in
/// exactly one bucket, so `candidates = unpriced + over_budget +
/// model_rejected + slo_filtered + feasible`.  Missing keys read as 0.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields, expecting = "`search`")]
pub struct SearchStats {
    /// Size of the enumerated grid.
    pub candidates: usize,
    /// Skipped: the market prices no such machine (counted, not
    /// silently dropped).
    pub unpriced: usize,
    /// Filtered: cluster cost exceeds the budget.
    pub over_budget: usize,
    /// Filtered: the analytic model rejects or saturates the config.
    pub model_rejected: usize,
    /// Filtered: model-predicted `E(Instr)` misses the SLO.
    pub slo_filtered: usize,
    /// Survivors ranked by the analytic model.
    pub feasible: usize,
    /// Finalists confirmed by full simulation.
    pub confirmed: usize,
    /// Fraction of the grid **not** simulated:
    /// `(candidates − confirmed) / candidates`.
    pub pruning_ratio: f64,
}

impl SearchStats {
    /// Record that `n` finalists were simulated and refresh the ratio.
    pub fn set_confirmed(&mut self, n: usize) {
        self.confirmed = n;
        self.pruning_ratio = if self.candidates == 0 {
            0.0
        } else {
            (self.candidates - self.confirmed.min(self.candidates)) as f64 / self.candidates as f64
        };
    }
}

/// Simulation confirmation attached to a ranked finalist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "`simulated`")]
pub struct SimConfirmation {
    /// Problem-size tier the confirmation ran at.
    pub size: String,
    /// Simulated `E(Instr)` in seconds (the model's direct counterpart).
    pub seconds: f64,
    /// Simulated wall-clock, cycles.
    pub wall_cycles: u64,
}

/// One ranked cluster in a report: the flattened, human-auditable
/// projection of a [`RankedConfig`] (machine shape, dollars, predicted
/// time, and — for confirmed finalists — the simulated time).  Only
/// `config`, `cost` and `model_seconds` are required on input; the shape
/// fields read as 0 when absent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "a ranked entry")]
pub struct RankedEntry {
    /// Human-readable description (`ClusterSpec::describe`).
    pub config: String,
    /// Machine count `N`.
    #[serde(default)]
    pub machines: u32,
    /// Processors per machine `n`.
    #[serde(default)]
    pub procs_per_machine: u32,
    /// Per-processor cache, KB.
    #[serde(default)]
    pub cache_kb: u64,
    /// Per-machine memory, MB.
    #[serde(default)]
    pub memory_mb: u64,
    /// Cluster network (`eth10|eth100|atm`); absent for single machines.
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    pub network: Option<String>,
    /// Cluster cost, dollars.
    pub cost: f64,
    /// Model-predicted `E(Instr)`, seconds.
    pub model_seconds: f64,
    /// Simulation confirmation, when this entry was a finalist.
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    pub simulated: Option<SimConfirmation>,
}

impl RankedEntry {
    /// Project an evaluated candidate into its wire form.
    pub fn from_ranked(r: &RankedConfig) -> Self {
        RankedEntry {
            config: r.spec.describe(),
            machines: r.spec.machines,
            procs_per_machine: r.spec.machine.n_procs,
            cache_kb: r.spec.machine.cache_bytes / 1024,
            memory_mb: r.spec.machine.memory_bytes / (1024 * 1024),
            network: r.spec.network.map(|n| network_name(n).to_string()),
            cost: r.cost,
            model_seconds: r.e_instr_seconds,
            simulated: None,
        }
    }
}

/// The optimizer's answer: workload echo, search diagnostics, the ranked
/// shortlist (model order, with simulation confirmations attached to
/// finalists), the winner, and the cost/performance Pareto frontier of
/// the feasible set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "an optimize report")]
pub struct OptimizeReport {
    /// Resolved workload name (`custom` for raw parameters).
    pub workload: String,
    /// Locality shape α.
    pub alpha: f64,
    /// Locality scale β, bytes.
    pub beta: f64,
    /// Memory-reference fraction ρ.
    pub rho: f64,
    /// The budget searched under, dollars.
    pub budget: f64,
    /// The SLO applied, if any (seconds).
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    pub slo: Option<f64>,
    /// Where every candidate went.
    pub search: SearchStats,
    /// The shortlist, best model prediction first.
    #[serde(default)]
    pub ranked: Vec<RankedEntry>,
    /// The recommendation: simulation-confirmed winner when finalists
    /// ran, the analytic optimum otherwise; absent when nothing is
    /// feasible.
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    pub best: Option<RankedEntry>,
    /// Pareto frontier of the feasible set, cost ascending.
    #[serde(default)]
    pub pareto: Vec<RankedEntry>,
}

impl OptimizeReport {
    /// Canonical JSON form (`slo`/`best` omitted when absent).
    pub fn to_json(&self) -> Value {
        self.to_json_value()
    }

    /// Parse the JSON form back (round-trip guarantee for artifacts).
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        Ok(OptimizeReport::from_json_value(v.clone())?)
    }
}

/// Default ranked-list length for budgeted recommendations.
pub const DEFAULT_RECOMMEND_TOP: usize = 3;

/// A §6 recommendation request: classify a workload (by name, by raw
/// `(α, β, ρ)`, or by trace measurement) and optionally back the advice
/// with the cost-optimal concrete clusters under a budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendRequest {
    /// What to classify.
    pub workload: WorkloadSpec,
    /// Measure `(α, β, ρ)` from a trace instead of using the Table-2
    /// values (named paper workloads only).
    pub measure: bool,
    /// Problem-size tier for measurement (default `small` downstream).
    pub size: Option<String>,
    /// With a budget, attach the top ranked concrete clusters.
    pub budget: Option<f64>,
    /// Ranked list length (default [`DEFAULT_RECOMMEND_TOP`]).
    pub top: usize,
    /// Component prices for the ranked list.
    pub prices: PriceTable,
}

impl RecommendRequest {
    /// A default-shaped request for `workload`.
    pub fn new(workload: WorkloadSpec) -> Self {
        RecommendRequest {
            workload,
            measure: false,
            size: None,
            budget: None,
            top: DEFAULT_RECOMMEND_TOP,
            prices: PriceTable::circa_1999(),
        }
    }

    /// Canonical JSON form; defaults omitted.  The `workload` field is
    /// flattened for custom parameters (`alpha`/`beta`/`rho` at top
    /// level), matching the historical `/v1/recommend` body shape — a
    /// shape the derive does not model, so this codec is hand-written.
    pub fn to_json(&self) -> Value {
        let mut fields = match self.workload.to_json_value() {
            Value::Object(custom) => custom,
            name => vec![("workload".to_string(), name)],
        };
        if self.measure {
            fields.push(("measure".to_string(), Value::Bool(true)));
        }
        if let Some(size) = &self.size {
            fields.push(("size".to_string(), size.to_json_value()));
        }
        if let Some(budget) = self.budget {
            fields.push(("budget".to_string(), budget.to_json_value()));
        }
        if self.top != DEFAULT_RECOMMEND_TOP {
            fields.push(("top".to_string(), self.top.to_json_value()));
        }
        if !is_circa_1999(&self.prices) {
            fields.push(("prices".to_string(), self.prices.to_json_value()));
        }
        Value::Object(fields)
    }

    /// Parse the JSON form (the `/v1/recommend` body): either `workload`
    /// or the `alpha`+`beta`+`rho` triple is required; unknown keys are
    /// rejected.
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        fn field<T: Deserialize>(key: &'static str, v: &Value) -> Result<T, CostError> {
            Ok(T::from_json_value(v.clone()).map_err(|e| e.within("RecommendRequest", key))?)
        }
        let Value::Object(fields) = v else {
            return Err(CostError::Syntax(
                "a recommend request must be a JSON object".to_string(),
            ));
        };
        let mut named = None;
        let (mut alpha, mut beta, mut rho) = (None, None, None);
        let mut req = RecommendRequest::new(WorkloadSpec::Named(String::new()));
        for (key, value) in fields {
            match key.as_str() {
                "workload" => {
                    named = Some(WorkloadSpec::named(&field::<String>("workload", value)?)?)
                }
                "alpha" => alpha = Some(field("alpha", value)?),
                "beta" => beta = Some(field("beta", value)?),
                "rho" => rho = Some(field("rho", value)?),
                "measure" => req.measure = field("measure", value)?,
                "size" => {
                    req.size = Some(validate_confirm_size(&field::<String>("size", value)?)?);
                }
                "budget" => req.budget = Some(check_budget(field("budget", value)?)?),
                "top" => req.top = check_top(field("top", value)?)?,
                "prices" => {
                    req.prices = field("prices", value)?;
                    check_prices(&req.prices)?;
                }
                other => return Err(CostError::UnknownField(other.to_string())),
            }
        }
        req.workload = match (named, alpha, beta, rho) {
            (Some(w), None, None, None) => w,
            (None, Some(alpha), Some(beta), Some(rho)) => {
                let spec = WorkloadSpec::Custom { alpha, beta, rho };
                spec.resolve()?;
                spec
            }
            (None, None, None, None) => {
                return Err(CostError::Missing("workload (or alpha+beta+rho)"))
            }
            (Some(_), _, _, _) => {
                return Err(CostError::Invalid(
                    "workload",
                    "give either a workload name or alpha+beta+rho, not both".to_string(),
                ))
            }
            _ => return Err(CostError::Missing("alpha+beta+rho (all three)")),
        };
        if req.measure && !matches!(req.workload, WorkloadSpec::Named(_)) {
            return Err(CostError::Invalid(
                "measure",
                "requires a named paper workload".to_string(),
            ));
        }
        Ok(req)
    }
}

impl fmt::Display for RecommendRequest {
    /// The bare workload name when lossless (the canonical JSON holds
    /// nothing else), JSON otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let json = self.to_json();
        match &self.workload {
            WorkloadSpec::Named(name) if matches!(&json, Value::Object(k) if k.len() == 1) => {
                f.write_str(name)
            }
            _ => f.write_str(&serde_json::to_string(&json).map_err(|_| fmt::Error)?),
        }
    }
}

impl FromStr for RecommendRequest {
    type Err = CostError;

    /// Accepts the JSON object form or a bare workload name.
    fn from_str(s: &str) -> Result<Self, CostError> {
        let s = s.trim();
        if s.starts_with('{') {
            let v: Value = serde_json::from_str(s)
                .map_err(|e| CostError::Syntax(format!("invalid JSON: {e}")))?;
            return RecommendRequest::from_json(&v);
        }
        Ok(RecommendRequest::new(WorkloadSpec::named(s)?))
    }
}

/// The §6 recommendation answer: the classified workload, the platform
/// class with its rationale, and (under a budget) the ranked concrete
/// clusters backing the advice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "a recommend report")]
pub struct RecommendReport {
    /// Workload name.
    pub workload: String,
    /// Locality shape α.
    pub alpha: f64,
    /// Locality scale β, bytes.
    pub beta: f64,
    /// Memory-reference fraction ρ.
    pub rho: f64,
    /// The recommended platform class.
    pub platform: RecommendedPlatform,
    /// Why (restating the triggering rule).
    pub rationale: String,
    /// §6 upgrade guidance for this class.
    pub upgrade_advice: String,
    /// Cost-optimal concrete clusters (present only under a budget).
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    pub ranked: Option<Vec<RankedEntry>>,
}

impl RecommendReport {
    /// Assemble a report from a classified workload.
    pub fn new(w: &WorkloadParams, r: &Recommendation, ranked: Option<Vec<RankedEntry>>) -> Self {
        RecommendReport {
            workload: w.name.clone(),
            alpha: w.locality.alpha,
            beta: w.locality.beta,
            rho: w.rho,
            platform: r.platform,
            rationale: r.rationale.clone(),
            upgrade_advice: r.upgrade_advice.clone(),
            ranked,
        }
    }

    /// Canonical JSON form (`ranked` omitted when no budget was given).
    pub fn to_json(&self) -> Value {
        self.to_json_value()
    }

    /// Parse the JSON form back.
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        Ok(RecommendReport::from_json_value(v.clone())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimize_request_json_fixed_point() {
        let mut req = OptimizeRequest::new(WorkloadSpec::named("fft").unwrap(), 20_000.0);
        req.slo = Some(2.5e-8);
        req.search_space.max_machines = 32;
        req.search_space.memory_mb = vec![32, 64, 128, 256];
        req.prices.atm_per_machine = 500.0;
        req.top = 7;
        req.confirm = 4;
        req.confirm_size = "medium".to_string();
        let json = req.to_json();
        let parsed = OptimizeRequest::from_json(&json).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn optimize_request_defaults_omitted() {
        let req = OptimizeRequest::new(WorkloadSpec::named("LU").unwrap(), 5_000.0);
        let json = req.to_json();
        assert_eq!(
            serde_json::to_string(&json).unwrap(),
            r#"{"workload":"LU","budget":5000.0}"#
        );
        assert_eq!(OptimizeRequest::from_json(&json).unwrap(), req);
    }

    #[test]
    fn optimize_request_compact_round_trip() {
        let req = OptimizeRequest::new(WorkloadSpec::named("Radix").unwrap(), 12_000.0);
        assert_eq!(req.to_string(), "Radix@12000");
        let parsed: OptimizeRequest = req.to_string().parse().unwrap();
        assert_eq!(parsed, req);
        // Non-default requests fall back to JSON, which also parses.
        let mut fancy = req.clone();
        fancy.confirm = 3;
        let reparsed: OptimizeRequest = fancy.to_string().parse().unwrap();
        assert_eq!(reparsed, fancy);
    }

    #[test]
    fn workload_names_canonicalize() {
        assert_eq!(
            WorkloadSpec::named("tpcc").unwrap(),
            WorkloadSpec::Named("TPC-C".to_string())
        );
        assert!(matches!(
            WorkloadSpec::named("nope"),
            Err(CostError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn unknown_fields_rejected() {
        let v: Value =
            serde_json::from_str(r#"{"workload":"FFT","budget":100,"buget":5}"#).unwrap();
        assert!(matches!(
            OptimizeRequest::from_json(&v),
            Err(CostError::UnknownField(k)) if k == "buget"
        ));
        let v: Value =
            serde_json::from_str(r#"{"workload":"FFT","budget":100,"search_space":{"prcs":[1]}}"#)
                .unwrap();
        assert!(matches!(
            OptimizeRequest::from_json(&v),
            Err(CostError::UnknownField(k)) if k == "prcs"
        ));
    }

    #[test]
    fn partial_prices_override_defaults() {
        let v: Value = serde_json::from_str(r#"{"ws_base":2000.0}"#).unwrap();
        let p = PriceTable::from_json_value(v).unwrap();
        assert_eq!(p.ws_base, 2000.0);
        assert_eq!(p.atm_per_machine, PriceTable::circa_1999().atm_per_machine);
        let bad: Value =
            serde_json::from_str(r#"{"workload":"FFT","budget":1,"prices":{"ws_base":-5.0}}"#)
                .unwrap();
        assert!(matches!(
            OptimizeRequest::from_json(&bad),
            Err(CostError::Invalid("prices", _))
        ));
    }

    #[test]
    fn custom_workload_validates_at_parse() {
        let v: Value =
            serde_json::from_str(r#"{"workload":{"alpha":0.5,"beta":100,"rho":0.2},"budget":1}"#)
                .unwrap();
        assert!(matches!(
            OptimizeRequest::from_json(&v),
            Err(CostError::Invalid("workload", _))
        ));
    }

    #[test]
    fn recommend_request_fixed_point_and_flattened_custom() {
        let named = RecommendRequest::new(WorkloadSpec::named("EDGE").unwrap());
        assert_eq!(
            serde_json::to_string(&named.to_json()).unwrap(),
            r#"{"workload":"EDGE"}"#
        );
        assert_eq!(
            RecommendRequest::from_json(&named.to_json()).unwrap(),
            named
        );

        let mut custom = RecommendRequest::new(WorkloadSpec::Custom {
            alpha: 1.5,
            beta: 200.0,
            rho: 0.3,
        });
        custom.budget = Some(8_000.0);
        custom.top = 5;
        let json = custom.to_json();
        assert_eq!(
            serde_json::to_string(&json).unwrap(),
            r#"{"alpha":1.5,"beta":200.0,"rho":0.3,"budget":8000.0,"top":5}"#
        );
        let parsed = RecommendRequest::from_json(&json).unwrap();
        assert_eq!(parsed, custom);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn recommend_request_rejects_mixed_and_partial_workloads() {
        let mixed: Value =
            serde_json::from_str(r#"{"workload":"FFT","alpha":1.5,"beta":200,"rho":0.3}"#).unwrap();
        assert!(RecommendRequest::from_json(&mixed).is_err());
        let partial: Value = serde_json::from_str(r#"{"alpha":1.5,"beta":200}"#).unwrap();
        assert!(matches!(
            RecommendRequest::from_json(&partial),
            Err(CostError::Missing(_))
        ));
        let measure_custom: Value =
            serde_json::from_str(r#"{"alpha":1.5,"beta":200,"rho":0.3,"measure":true}"#).unwrap();
        assert!(matches!(
            RecommendRequest::from_json(&measure_custom),
            Err(CostError::Invalid("measure", _))
        ));
    }

    #[test]
    fn space_wire_round_trips_non_defaults() {
        let mut space = CandidateSpace::paper_market();
        space.proc_counts = vec![1, 2];
        space.networks = vec![NetworkKind::Atm155, NetworkKind::Ethernet10];
        space.clock_mhz = 300.0;
        let json = space.to_json_value();
        let parsed = CandidateSpace::from_json_value(json.clone()).unwrap();
        assert_eq!(parsed, space);
        assert_eq!(parsed.to_json_value(), json);
        // Order of non-default arrays is preserved verbatim.
        assert_eq!(
            serde_json::to_string(json.get("networks").unwrap()).unwrap(),
            r#"["atm","eth10"]"#
        );
    }

    #[test]
    fn search_stats_pruning_ratio() {
        let mut s = SearchStats {
            candidates: 1000,
            unpriced: 10,
            over_budget: 700,
            model_rejected: 40,
            slo_filtered: 50,
            feasible: 200,
            confirmed: 0,
            pruning_ratio: 0.0,
        };
        s.set_confirmed(5);
        assert_eq!(s.pruning_ratio, 0.995);
        let round = SearchStats::from_json_value(s.to_json_value()).unwrap();
        assert_eq!(round, s);
    }
}
