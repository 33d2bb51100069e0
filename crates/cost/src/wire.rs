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
use serde::{Deserialize, Serialize};
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

    fn to_json_field(&self) -> Value {
        match self {
            WorkloadSpec::Named(name) => Value::String(name.clone()),
            WorkloadSpec::Custom { alpha, beta, rho } => Value::Object(vec![
                ("alpha".to_string(), f64_value(*alpha)),
                ("beta".to_string(), f64_value(*beta)),
                ("rho".to_string(), f64_value(*rho)),
            ]),
        }
    }

    fn from_json_field(v: &Value) -> Result<Self, CostError> {
        match v {
            Value::String(name) => WorkloadSpec::named(name),
            Value::Object(fields) => {
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
                // Validate (α, β, ρ) at the boundary so a bad request
                // fails at parse time, not mid-search.
                spec.resolve()?;
                Ok(spec)
            }
            _ => Err(CostError::Invalid(
                "workload",
                "must be a kernel name or an {alpha, beta, rho} object".to_string(),
            )),
        }
    }
}

fn u64_value(v: u64) -> Value {
    Value::Number(serde_json::Number::U64(v))
}

fn f64_value(v: f64) -> Value {
    Value::Number(serde_json::Number::F64(v))
}

fn as_object<'a>(v: &'a Value, what: &'static str) -> Result<&'a Vec<(String, Value)>, CostError> {
    match v {
        Value::Object(fields) => Ok(fields),
        _ => Err(CostError::Syntax(format!("{what} must be a JSON object"))),
    }
}

fn req_f64(field: &'static str, v: &Value) -> Result<f64, CostError> {
    v.as_f64()
        .ok_or_else(|| CostError::Invalid(field, "must be a number".to_string()))
}

fn req_u64(field: &'static str, v: &Value) -> Result<u64, CostError> {
    v.as_u64()
        .ok_or_else(|| CostError::Invalid(field, "must be a non-negative integer".to_string()))
}

fn req_str<'a>(field: &'static str, v: &'a Value) -> Result<&'a str, CostError> {
    v.as_str()
        .ok_or_else(|| CostError::Invalid(field, "must be a string".to_string()))
}

fn uint_list(field: &'static str, v: &Value) -> Result<Vec<u64>, CostError> {
    let arr = v
        .as_array()
        .ok_or_else(|| CostError::Invalid(field, "must be an array of integers".to_string()))?;
    if arr.is_empty() {
        return Err(CostError::Invalid(field, "must not be empty".to_string()));
    }
    arr.iter().map(|e| req_u64(field, e)).collect()
}

/// Serialize a candidate space as the wire grid object, omitting keys
/// that equal the paper-market default.
pub fn space_to_json(space: &CandidateSpace) -> Value {
    let default = CandidateSpace::paper_market();
    let mut fields = Vec::new();
    if space.proc_counts != default.proc_counts {
        fields.push((
            "procs".to_string(),
            Value::Array(
                space
                    .proc_counts
                    .iter()
                    .map(|&n| u64_value(n as u64))
                    .collect(),
            ),
        ));
    }
    if space.cache_kb != default.cache_kb {
        fields.push((
            "cache_kb".to_string(),
            Value::Array(space.cache_kb.iter().map(|&n| u64_value(n)).collect()),
        ));
    }
    if space.memory_mb != default.memory_mb {
        fields.push((
            "memory_mb".to_string(),
            Value::Array(space.memory_mb.iter().map(|&n| u64_value(n)).collect()),
        ));
    }
    if space.max_machines != default.max_machines {
        fields.push((
            "max_machines".to_string(),
            u64_value(space.max_machines as u64),
        ));
    }
    if space.networks != default.networks {
        fields.push((
            "networks".to_string(),
            Value::Array(
                space
                    .networks
                    .iter()
                    .map(|&n| Value::String(network_name(n).to_string()))
                    .collect(),
            ),
        ));
    }
    if space.clock_mhz != default.clock_mhz {
        fields.push(("clock_mhz".to_string(), f64_value(space.clock_mhz)));
    }
    Value::Object(fields)
}

/// Parse a wire grid object into a candidate space.  Missing keys take
/// their paper-market defaults; unknown keys are rejected.
pub fn space_from_json(v: &Value) -> Result<CandidateSpace, CostError> {
    let fields = as_object(v, "`search_space`")?;
    let mut space = CandidateSpace::paper_market();
    for (key, value) in fields {
        match key.as_str() {
            "procs" => {
                space.proc_counts = uint_list("procs", value)?
                    .into_iter()
                    .map(|n| {
                        u32::try_from(n).map_err(|_| {
                            CostError::Invalid("procs", format!("count {n} out of range"))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "cache_kb" => space.cache_kb = uint_list("cache_kb", value)?,
            "memory_mb" => space.memory_mb = uint_list("memory_mb", value)?,
            "max_machines" => {
                let n = req_u64("max_machines", value)?;
                space.max_machines =
                    u32::try_from(n).ok().filter(|&n| n >= 1).ok_or_else(|| {
                        CostError::Invalid("max_machines", "must be at least 1".to_string())
                    })?;
            }
            "networks" => {
                let arr = value.as_array().ok_or_else(|| {
                    CostError::Invalid("networks", "must be an array of names".to_string())
                })?;
                if arr.is_empty() {
                    return Err(CostError::Invalid(
                        "networks",
                        "must not be empty".to_string(),
                    ));
                }
                space.networks = arr
                    .iter()
                    .map(|e| network_by_name(req_str("networks", e)?))
                    .collect::<Result<_, _>>()?;
            }
            "clock_mhz" => {
                let mhz = req_f64("clock_mhz", value)?;
                if !mhz.is_finite() || mhz <= 0.0 {
                    return Err(CostError::Invalid(
                        "clock_mhz",
                        "must be positive and finite".to_string(),
                    ));
                }
                space.clock_mhz = mhz;
            }
            other => return Err(CostError::UnknownField(other.to_string())),
        }
    }
    Ok(space)
}

/// Serialize a price table (full eight-field object).
pub fn prices_to_json(prices: &PriceTable) -> Value {
    serde_json::to_value(prices).expect("price table serializes")
}

/// Parse a price table.  Missing keys take their c.-1999 defaults (so a
/// request can override just one price); unknown keys are rejected;
/// every price must be finite and non-negative.
pub fn prices_from_json(v: &Value) -> Result<PriceTable, CostError> {
    let fields = as_object(v, "`prices`")?;
    let mut p = PriceTable::circa_1999();
    for (key, value) in fields {
        let slot = match key.as_str() {
            "ws_base" => &mut p.ws_base,
            "smp2_base" => &mut p.smp2_base,
            "smp4_base" => &mut p.smp4_base,
            "mem_per_mb" => &mut p.mem_per_mb,
            "cache512_per_proc" => &mut p.cache512_per_proc,
            "eth10_per_machine" => &mut p.eth10_per_machine,
            "eth100_per_machine" => &mut p.eth100_per_machine,
            "atm_per_machine" => &mut p.atm_per_machine,
            other => return Err(CostError::UnknownField(other.to_string())),
        };
        let price = req_f64("prices", value)?;
        if !price.is_finite() || price < 0.0 {
            return Err(CostError::Invalid(
                "prices",
                format!("`{key}` must be finite and non-negative"),
            ));
        }
        *slot = price;
    }
    Ok(p)
}

/// Default number of ranked configurations an optimize report carries.
pub const DEFAULT_TOP: usize = 5;

/// A fleet-scale optimization request: *"under this budget (and
/// optionally this SLO), what is the best cluster for this workload in
/// this market?"* — the paper's §6 question scaled to a parameterized
/// candidate grid with optional simulation confirmation of the analytic
/// finalists.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// What runs on the cluster.
    pub workload: WorkloadSpec,
    /// Total budget, dollars.
    pub budget: f64,
    /// Optional SLO: maximum acceptable model-predicted `E(Instr)` in
    /// seconds.  Candidates predicted slower are filtered (and counted).
    pub slo: Option<f64>,
    /// The candidate grid (default: the paper's 828-point market).
    pub search_space: CandidateSpace,
    /// Component prices (default: the reconstructed c.-1999 table).
    pub prices: PriceTable,
    /// Ranked configurations to report (default [`DEFAULT_TOP`]).
    pub top: usize,
    /// Analytic finalists to confirm with full simulation (default 0 =
    /// analytic only).  Requires a named paper workload.
    pub confirm: usize,
    /// Problem-size tier for confirmation runs (default `small`).
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
            confirm_size: "small".to_string(),
        }
    }

    /// Canonical JSON form; default-valued fields are omitted so the
    /// output is also the minimal spelling of the request.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("workload".to_string(), self.workload.to_json_field()),
            ("budget".to_string(), f64_value(self.budget)),
        ];
        if let Some(slo) = self.slo {
            fields.push(("slo".to_string(), f64_value(slo)));
        }
        let space = space_to_json(&self.search_space);
        if space != Value::Object(vec![]) {
            fields.push(("search_space".to_string(), space));
        }
        if self.prices != PriceTable::circa_1999() {
            fields.push(("prices".to_string(), prices_to_json(&self.prices)));
        }
        if self.top != DEFAULT_TOP {
            fields.push(("top".to_string(), u64_value(self.top as u64)));
        }
        if self.confirm != 0 {
            fields.push(("confirm".to_string(), u64_value(self.confirm as u64)));
        }
        if self.confirm_size != "small" {
            fields.push((
                "confirm_size".to_string(),
                Value::String(self.confirm_size.clone()),
            ));
        }
        Value::Object(fields)
    }

    /// Parse the JSON form.  `workload` and `budget` are required;
    /// everything else defaults; unknown keys are rejected.
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        let fields = as_object(v, "an optimize request")?;
        let mut workload = None;
        let mut budget = None;
        let mut req = OptimizeRequest::new(WorkloadSpec::Named(String::new()), 0.0);
        for (key, value) in fields {
            match key.as_str() {
                "workload" => workload = Some(WorkloadSpec::from_json_field(value)?),
                "budget" => {
                    let b = req_f64("budget", value)?;
                    if !b.is_finite() || b < 0.0 {
                        return Err(CostError::Invalid(
                            "budget",
                            "must be finite and non-negative".to_string(),
                        ));
                    }
                    budget = Some(b);
                }
                "slo" => {
                    let s = req_f64("slo", value)?;
                    if !s.is_finite() || s <= 0.0 {
                        return Err(CostError::Invalid(
                            "slo",
                            "must be positive and finite (seconds)".to_string(),
                        ));
                    }
                    req.slo = Some(s);
                }
                "search_space" => req.search_space = space_from_json(value)?,
                "prices" => req.prices = prices_from_json(value)?,
                "top" => {
                    let t = req_u64("top", value)?;
                    if t == 0 {
                        return Err(CostError::Invalid("top", "must be at least 1".to_string()));
                    }
                    req.top = t as usize;
                }
                "confirm" => req.confirm = req_u64("confirm", value)? as usize,
                "confirm_size" => {
                    req.confirm_size = validate_confirm_size(req_str("confirm_size", value)?)?;
                }
                other => return Err(CostError::UnknownField(other.to_string())),
            }
        }
        req.workload = workload.ok_or(CostError::Missing("workload"))?;
        req.budget = budget.ok_or(CostError::Missing("budget"))?;
        Ok(req)
    }

    /// Whether every optional field still has its default value (the
    /// compact `WORKLOAD@BUDGET` spelling is then lossless).
    fn is_default_shaped(&self) -> bool {
        self.slo.is_none()
            && self.search_space == CandidateSpace::paper_market()
            && self.prices == PriceTable::circa_1999()
            && self.top == DEFAULT_TOP
            && self.confirm == 0
            && self.confirm_size == "small"
    }
}

impl fmt::Display for OptimizeRequest {
    /// Compact `WORKLOAD@BUDGET` when lossless, JSON otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.workload {
            WorkloadSpec::Named(name) if self.is_default_shaped() => {
                write!(f, "{name}@{}", self.budget)
            }
            _ => {
                let text = serde_json::to_string(&self.to_json()).map_err(|_| fmt::Error)?;
                f.write_str(&text)
            }
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
        if !budget.is_finite() || budget < 0.0 {
            return Err(CostError::Invalid(
                "budget",
                "must be finite and non-negative".to_string(),
            ));
        }
        Ok(OptimizeRequest::new(
            WorkloadSpec::named(name.trim())?,
            budget,
        ))
    }
}

impl Serialize for OptimizeRequest {
    fn to_json_value(&self) -> Value {
        self.to_json()
    }
}

impl Deserialize for OptimizeRequest {
    fn from_json_value(v: Value) -> Result<Self, String> {
        OptimizeRequest::from_json(&v).map_err(|e| e.to_string())
    }
}

/// Where each candidate of the search space went: the counted
/// diagnostics behind the pruning ratio.  Every candidate lands in
/// exactly one bucket, so `candidates = unpriced + over_budget +
/// model_rejected + slo_filtered + feasible`.
#[derive(Debug, Clone, PartialEq)]
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

    pub(crate) fn to_json(&self) -> Value {
        Value::Object(vec![
            ("candidates".to_string(), u64_value(self.candidates as u64)),
            ("unpriced".to_string(), u64_value(self.unpriced as u64)),
            (
                "over_budget".to_string(),
                u64_value(self.over_budget as u64),
            ),
            (
                "model_rejected".to_string(),
                u64_value(self.model_rejected as u64),
            ),
            (
                "slo_filtered".to_string(),
                u64_value(self.slo_filtered as u64),
            ),
            ("feasible".to_string(), u64_value(self.feasible as u64)),
            ("confirmed".to_string(), u64_value(self.confirmed as u64)),
            ("pruning_ratio".to_string(), f64_value(self.pruning_ratio)),
        ])
    }

    pub(crate) fn from_json(v: &Value) -> Result<Self, CostError> {
        let fields = as_object(v, "`search`")?;
        let mut s = SearchStats {
            candidates: 0,
            unpriced: 0,
            over_budget: 0,
            model_rejected: 0,
            slo_filtered: 0,
            feasible: 0,
            confirmed: 0,
            pruning_ratio: 0.0,
        };
        for (key, value) in fields {
            match key.as_str() {
                "candidates" => s.candidates = req_u64("candidates", value)? as usize,
                "unpriced" => s.unpriced = req_u64("unpriced", value)? as usize,
                "over_budget" => s.over_budget = req_u64("over_budget", value)? as usize,
                "model_rejected" => s.model_rejected = req_u64("model_rejected", value)? as usize,
                "slo_filtered" => s.slo_filtered = req_u64("slo_filtered", value)? as usize,
                "feasible" => s.feasible = req_u64("feasible", value)? as usize,
                "confirmed" => s.confirmed = req_u64("confirmed", value)? as usize,
                "pruning_ratio" => s.pruning_ratio = req_f64("pruning_ratio", value)?,
                other => return Err(CostError::UnknownField(other.to_string())),
            }
        }
        Ok(s)
    }
}

/// Simulation confirmation attached to a ranked finalist.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfirmation {
    /// Problem-size tier the confirmation ran at.
    pub size: String,
    /// Simulated `E(Instr)` in seconds (the model's direct counterpart).
    pub seconds: f64,
    /// Simulated wall-clock, cycles.
    pub wall_cycles: u64,
}

impl SimConfirmation {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("size".to_string(), Value::String(self.size.clone())),
            ("seconds".to_string(), f64_value(self.seconds)),
            ("wall_cycles".to_string(), u64_value(self.wall_cycles)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, CostError> {
        let fields = as_object(v, "`simulated`")?;
        let (mut size, mut seconds, mut wall) = (None, None, None);
        for (key, value) in fields {
            match key.as_str() {
                "size" => size = Some(req_str("size", value)?.to_string()),
                "seconds" => seconds = Some(req_f64("seconds", value)?),
                "wall_cycles" => wall = Some(req_u64("wall_cycles", value)?),
                other => return Err(CostError::UnknownField(other.to_string())),
            }
        }
        Ok(SimConfirmation {
            size: size.ok_or(CostError::Missing("simulated.size"))?,
            seconds: seconds.ok_or(CostError::Missing("simulated.seconds"))?,
            wall_cycles: wall.ok_or(CostError::Missing("simulated.wall_cycles"))?,
        })
    }
}

/// One ranked cluster in a report: the flattened, human-auditable
/// projection of a [`RankedConfig`] (machine shape, dollars, predicted
/// time, and — for confirmed finalists — the simulated time).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEntry {
    /// Human-readable description (`ClusterSpec::describe`).
    pub config: String,
    /// Machine count `N`.
    pub machines: u32,
    /// Processors per machine `n`.
    pub procs_per_machine: u32,
    /// Per-processor cache, KB.
    pub cache_kb: u64,
    /// Per-machine memory, MB.
    pub memory_mb: u64,
    /// Cluster network (`eth10|eth100|atm`); absent for single machines.
    pub network: Option<String>,
    /// Cluster cost, dollars.
    pub cost: f64,
    /// Model-predicted `E(Instr)`, seconds.
    pub model_seconds: f64,
    /// Simulation confirmation, when this entry was a finalist.
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

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("config".to_string(), Value::String(self.config.clone())),
            ("machines".to_string(), u64_value(self.machines as u64)),
            (
                "procs_per_machine".to_string(),
                u64_value(self.procs_per_machine as u64),
            ),
            ("cache_kb".to_string(), u64_value(self.cache_kb)),
            ("memory_mb".to_string(), u64_value(self.memory_mb)),
        ];
        if let Some(net) = &self.network {
            fields.push(("network".to_string(), Value::String(net.clone())));
        }
        fields.push(("cost".to_string(), f64_value(self.cost)));
        fields.push(("model_seconds".to_string(), f64_value(self.model_seconds)));
        if let Some(sim) = &self.simulated {
            fields.push(("simulated".to_string(), sim.to_json()));
        }
        Value::Object(fields)
    }

    fn from_json(v: &Value) -> Result<Self, CostError> {
        let fields = as_object(v, "a ranked entry")?;
        let mut e = RankedEntry {
            config: String::new(),
            machines: 0,
            procs_per_machine: 0,
            cache_kb: 0,
            memory_mb: 0,
            network: None,
            cost: 0.0,
            model_seconds: 0.0,
            simulated: None,
        };
        let (mut saw_config, mut saw_cost, mut saw_model) = (false, false, false);
        for (key, value) in fields {
            match key.as_str() {
                "config" => {
                    e.config = req_str("config", value)?.to_string();
                    saw_config = true;
                }
                "machines" => e.machines = req_u64("machines", value)? as u32,
                "procs_per_machine" => {
                    e.procs_per_machine = req_u64("procs_per_machine", value)? as u32
                }
                "cache_kb" => e.cache_kb = req_u64("cache_kb", value)?,
                "memory_mb" => e.memory_mb = req_u64("memory_mb", value)?,
                "network" => e.network = Some(req_str("network", value)?.to_string()),
                "cost" => {
                    e.cost = req_f64("cost", value)?;
                    saw_cost = true;
                }
                "model_seconds" => {
                    e.model_seconds = req_f64("model_seconds", value)?;
                    saw_model = true;
                }
                "simulated" => e.simulated = Some(SimConfirmation::from_json(value)?),
                other => return Err(CostError::UnknownField(other.to_string())),
            }
        }
        if !saw_config {
            return Err(CostError::Missing("config"));
        }
        if !saw_cost {
            return Err(CostError::Missing("cost"));
        }
        if !saw_model {
            return Err(CostError::Missing("model_seconds"));
        }
        Ok(e)
    }
}

/// The optimizer's answer: workload echo, search diagnostics, the ranked
/// shortlist (model order, with simulation confirmations attached to
/// finalists), the winner, and the cost/performance Pareto frontier of
/// the feasible set.
#[derive(Debug, Clone, PartialEq)]
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
    pub slo: Option<f64>,
    /// Where every candidate went.
    pub search: SearchStats,
    /// The shortlist, best model prediction first.
    pub ranked: Vec<RankedEntry>,
    /// The recommendation: simulation-confirmed winner when finalists
    /// ran, the analytic optimum otherwise; absent when nothing is
    /// feasible.
    pub best: Option<RankedEntry>,
    /// Pareto frontier of the feasible set, cost ascending.
    pub pareto: Vec<RankedEntry>,
}

impl OptimizeReport {
    /// Canonical JSON form (`slo`/`best` omitted when absent).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("alpha".to_string(), f64_value(self.alpha)),
            ("beta".to_string(), f64_value(self.beta)),
            ("rho".to_string(), f64_value(self.rho)),
            ("budget".to_string(), f64_value(self.budget)),
        ];
        if let Some(slo) = self.slo {
            fields.push(("slo".to_string(), f64_value(slo)));
        }
        fields.push(("search".to_string(), self.search.to_json()));
        fields.push((
            "ranked".to_string(),
            Value::Array(self.ranked.iter().map(RankedEntry::to_json).collect()),
        ));
        if let Some(best) = &self.best {
            fields.push(("best".to_string(), best.to_json()));
        }
        fields.push((
            "pareto".to_string(),
            Value::Array(self.pareto.iter().map(RankedEntry::to_json).collect()),
        ));
        Value::Object(fields)
    }

    /// Parse the JSON form back (round-trip guarantee for artifacts).
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        let fields = as_object(v, "an optimize report")?;
        let mut workload = None;
        let (mut alpha, mut beta, mut rho, mut budget) = (None, None, None, None);
        let mut slo = None;
        let mut search = None;
        let mut ranked = Vec::new();
        let mut best = None;
        let mut pareto = Vec::new();
        for (key, value) in fields {
            match key.as_str() {
                "workload" => workload = Some(req_str("workload", value)?.to_string()),
                "alpha" => alpha = Some(req_f64("alpha", value)?),
                "beta" => beta = Some(req_f64("beta", value)?),
                "rho" => rho = Some(req_f64("rho", value)?),
                "budget" => budget = Some(req_f64("budget", value)?),
                "slo" => slo = Some(req_f64("slo", value)?),
                "search" => search = Some(SearchStats::from_json(value)?),
                "ranked" => {
                    let arr = value.as_array().ok_or_else(|| {
                        CostError::Invalid("ranked", "must be an array".to_string())
                    })?;
                    ranked = arr
                        .iter()
                        .map(RankedEntry::from_json)
                        .collect::<Result<_, _>>()?;
                }
                "best" => best = Some(RankedEntry::from_json(value)?),
                "pareto" => {
                    let arr = value.as_array().ok_or_else(|| {
                        CostError::Invalid("pareto", "must be an array".to_string())
                    })?;
                    pareto = arr
                        .iter()
                        .map(RankedEntry::from_json)
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(CostError::UnknownField(other.to_string())),
            }
        }
        Ok(OptimizeReport {
            workload: workload.ok_or(CostError::Missing("workload"))?,
            alpha: alpha.ok_or(CostError::Missing("alpha"))?,
            beta: beta.ok_or(CostError::Missing("beta"))?,
            rho: rho.ok_or(CostError::Missing("rho"))?,
            budget: budget.ok_or(CostError::Missing("budget"))?,
            slo,
            search: search.ok_or(CostError::Missing("search"))?,
            ranked,
            best,
            pareto,
        })
    }
}

impl Serialize for OptimizeReport {
    fn to_json_value(&self) -> Value {
        self.to_json()
    }
}

impl Deserialize for OptimizeReport {
    fn from_json_value(v: Value) -> Result<Self, String> {
        OptimizeReport::from_json(&v).map_err(|e| e.to_string())
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
    /// level), matching the historical `/v1/recommend` body shape.
    pub fn to_json(&self) -> Value {
        let mut fields = Vec::new();
        match &self.workload {
            WorkloadSpec::Named(name) => {
                fields.push(("workload".to_string(), Value::String(name.clone())));
            }
            WorkloadSpec::Custom { alpha, beta, rho } => {
                fields.push(("alpha".to_string(), f64_value(*alpha)));
                fields.push(("beta".to_string(), f64_value(*beta)));
                fields.push(("rho".to_string(), f64_value(*rho)));
            }
        }
        if self.measure {
            fields.push(("measure".to_string(), Value::Bool(true)));
        }
        if let Some(size) = &self.size {
            fields.push(("size".to_string(), Value::String(size.clone())));
        }
        if let Some(budget) = self.budget {
            fields.push(("budget".to_string(), f64_value(budget)));
        }
        if self.top != DEFAULT_RECOMMEND_TOP {
            fields.push(("top".to_string(), u64_value(self.top as u64)));
        }
        if self.prices != PriceTable::circa_1999() {
            fields.push(("prices".to_string(), prices_to_json(&self.prices)));
        }
        Value::Object(fields)
    }

    /// Parse the JSON form (the `/v1/recommend` body): either `workload`
    /// or the `alpha`+`beta`+`rho` triple is required; unknown keys are
    /// rejected.
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        let fields = as_object(v, "a recommend request")?;
        let mut named = None;
        let (mut alpha, mut beta, mut rho) = (None, None, None);
        let mut req = RecommendRequest::new(WorkloadSpec::Named(String::new()));
        for (key, value) in fields {
            match key.as_str() {
                "workload" => named = Some(WorkloadSpec::named(req_str("workload", value)?)?),
                "alpha" => alpha = Some(req_f64("alpha", value)?),
                "beta" => beta = Some(req_f64("beta", value)?),
                "rho" => rho = Some(req_f64("rho", value)?),
                "measure" => {
                    req.measure = value.as_bool().ok_or_else(|| {
                        CostError::Invalid("measure", "must be a boolean".to_string())
                    })?;
                }
                "size" => {
                    req.size = Some(validate_confirm_size(req_str("size", value)?)?);
                }
                "budget" => {
                    let b = req_f64("budget", value)?;
                    if !b.is_finite() || b < 0.0 {
                        return Err(CostError::Invalid(
                            "budget",
                            "must be finite and non-negative".to_string(),
                        ));
                    }
                    req.budget = Some(b);
                }
                "top" => {
                    let t = req_u64("top", value)?;
                    if t == 0 {
                        return Err(CostError::Invalid("top", "must be at least 1".to_string()));
                    }
                    req.top = t as usize;
                }
                "prices" => req.prices = prices_from_json(value)?,
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
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let default_shaped = !self.measure
            && self.size.is_none()
            && self.budget.is_none()
            && self.top == DEFAULT_RECOMMEND_TOP
            && self.prices == PriceTable::circa_1999();
        match &self.workload {
            WorkloadSpec::Named(name) if default_shaped => f.write_str(name),
            _ => {
                let text = serde_json::to_string(&self.to_json()).map_err(|_| fmt::Error)?;
                f.write_str(&text)
            }
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

impl Serialize for RecommendRequest {
    fn to_json_value(&self) -> Value {
        self.to_json()
    }
}

impl Deserialize for RecommendRequest {
    fn from_json_value(v: Value) -> Result<Self, String> {
        RecommendRequest::from_json(&v).map_err(|e| e.to_string())
    }
}

/// The §6 recommendation answer: the classified workload, the platform
/// class with its rationale, and (under a budget) the ranked concrete
/// clusters backing the advice.
#[derive(Debug, Clone, PartialEq)]
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
        let mut fields = vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("alpha".to_string(), f64_value(self.alpha)),
            ("beta".to_string(), f64_value(self.beta)),
            ("rho".to_string(), f64_value(self.rho)),
            (
                "platform".to_string(),
                serde_json::to_value(&self.platform).expect("platform serializes"),
            ),
            (
                "rationale".to_string(),
                Value::String(self.rationale.clone()),
            ),
            (
                "upgrade_advice".to_string(),
                Value::String(self.upgrade_advice.clone()),
            ),
        ];
        if let Some(ranked) = &self.ranked {
            fields.push((
                "ranked".to_string(),
                Value::Array(ranked.iter().map(RankedEntry::to_json).collect()),
            ));
        }
        Value::Object(fields)
    }

    /// Parse the JSON form back.
    pub fn from_json(v: &Value) -> Result<Self, CostError> {
        let fields = as_object(v, "a recommend report")?;
        let mut workload = None;
        let (mut alpha, mut beta, mut rho) = (None, None, None);
        let mut platform = None;
        let mut rationale = None;
        let mut upgrade = None;
        let mut ranked = None;
        for (key, value) in fields {
            match key.as_str() {
                "workload" => workload = Some(req_str("workload", value)?.to_string()),
                "alpha" => alpha = Some(req_f64("alpha", value)?),
                "beta" => beta = Some(req_f64("beta", value)?),
                "rho" => rho = Some(req_f64("rho", value)?),
                "platform" => {
                    platform = Some(
                        RecommendedPlatform::from_json_value(value.clone())
                            .map_err(|e| CostError::Invalid("platform", e))?,
                    );
                }
                "rationale" => rationale = Some(req_str("rationale", value)?.to_string()),
                "upgrade_advice" => upgrade = Some(req_str("upgrade_advice", value)?.to_string()),
                "ranked" => {
                    let arr = value.as_array().ok_or_else(|| {
                        CostError::Invalid("ranked", "must be an array".to_string())
                    })?;
                    ranked = Some(
                        arr.iter()
                            .map(RankedEntry::from_json)
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                other => return Err(CostError::UnknownField(other.to_string())),
            }
        }
        Ok(RecommendReport {
            workload: workload.ok_or(CostError::Missing("workload"))?,
            alpha: alpha.ok_or(CostError::Missing("alpha"))?,
            beta: beta.ok_or(CostError::Missing("beta"))?,
            rho: rho.ok_or(CostError::Missing("rho"))?,
            platform: platform.ok_or(CostError::Missing("platform"))?,
            rationale: rationale.ok_or(CostError::Missing("rationale"))?,
            upgrade_advice: upgrade.ok_or(CostError::Missing("upgrade_advice"))?,
            ranked,
        })
    }
}

impl Serialize for RecommendReport {
    fn to_json_value(&self) -> Value {
        self.to_json()
    }
}

impl Deserialize for RecommendReport {
    fn from_json_value(v: Value) -> Result<Self, String> {
        RecommendReport::from_json(&v).map_err(|e| e.to_string())
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
        let p = prices_from_json(&v).unwrap();
        assert_eq!(p.ws_base, 2000.0);
        assert_eq!(p.atm_per_machine, PriceTable::circa_1999().atm_per_machine);
        let bad: Value = serde_json::from_str(r#"{"ws_base":-5.0}"#).unwrap();
        assert!(prices_from_json(&bad).is_err());
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
        let json = space_to_json(&space);
        let parsed = space_from_json(&json).unwrap();
        assert_eq!(parsed, space);
        assert_eq!(space_to_json(&parsed), json);
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
        let round = SearchStats::from_json(&s.to_json()).unwrap();
        assert_eq!(round, s);
    }
}
