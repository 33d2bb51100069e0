//! Out-of-core streaming stack-distance analysis and online `(α, β)`
//! fitting.
//!
//! [`StreamAnalyzer`] wraps the exact in-memory analyzer behind a
//! chunk-oriented push interface whose resident state is bounded by
//! *live blocks* (the compaction bound), not trace length — traces far
//! larger than RAM stream through in fixed-size chunks with results
//! **identical at any chunk size**, because chunking is purely an I/O
//! batching choice.  Fit convergence is tracked by re-fitting at fixed
//! record milestones (4096 · 2ᵏ): milestones depend only on how many
//! records have flowed, so the [`FitReport`] — history included — is
//! byte-identical whether the trace arrived in 1 KiB chunks or whole.
//!
//! [`FitReport`]/[`FitRequest`] follow the workspace wire conventions
//! (`crates/cost/src/wire.rs`): their codecs are derived, `to_json →
//! from_json` is a fixed point, defaults are omitted on output and
//! refilled on input, and unknown keys are rejected.  `from_json` maps
//! the decoder's error onto [`TraceError`] and applies the range checks
//! the types cannot express.  The same pair backs `memhier fit --json`
//! and `memhierd`'s `POST /v1/fit` byte-for-byte.

use crate::fit::{fit_locality_checked, FitError};
use crate::format::{TraceError, TraceReader};
use crate::stackdist::StackDistanceAnalyzer;
use serde::{Deserialize, ErrorKind, Expected, Serialize};
use serde_json::Value;
use std::path::Path;

/// First fit milestone; subsequent milestones double.
pub const FIRST_MILESTONE: u64 = 4096;

/// Relative `α` movement between the last two fits below which the fit
/// is declared converged.
pub const ALPHA_TOL: f64 = 0.01;
/// Relative `β` movement between the last two fits below which the fit
/// is declared converged.
pub const BETA_TOL: f64 = 0.05;

/// Default analysis granularity in bytes (cache-line).
pub const DEFAULT_GRANULARITY: u64 = 64;
/// Default most records per analyzer push in [`run_fit`].
pub const DEFAULT_CHUNK_RECORDS: u64 = 65_536;

/// One entry of a fit's convergence history: the parameters refit after
/// `records` references had streamed through.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "history entry")]
pub struct FitSnapshot {
    /// Records seen when this fit ran.
    pub records: u64,
    /// Fitted `α` at that point.
    pub alpha: f64,
    /// Fitted `β` at that point.
    pub beta: f64,
    /// Fit quality at that point.
    #[serde(rename = "r2")]
    pub r_squared: f64,
}

/// The final product of the fitting pipeline: the paper's `(α, β, ρ)`
/// triple plus fit quality and the milestone history that shows whether
/// the parameters had stopped moving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "fit report")]
pub struct FitReport {
    /// Fitted locality shape `α > 1`.
    pub alpha: f64,
    /// Fitted locality scale `β`, bytes.
    pub beta: f64,
    /// Memory-reference density `ρ` (0 when the trace carries no
    /// instruction count).
    pub rho: f64,
    /// Log-domain coefficient of determination of the final fit.
    #[serde(rename = "r2")]
    pub r_squared: f64,
    /// Total address records analyzed.
    pub records: u64,
    /// Analysis granularity in bytes.
    pub granularity: u64,
    /// Whether the final fit moved less than ([`ALPHA_TOL`],
    /// [`BETA_TOL`]) relative to the last milestone fit.
    pub converged: bool,
    /// Milestone fits, oldest first (milestones whose fit was rejected
    /// as degenerate are absent).  Omitted from the JSON when empty.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub history: Vec<FitSnapshot>,
}

/// Decoder faults in the trace wire's wording: the innermost key names the
/// field, and the only string on the trace wire is a file path.
impl From<serde::Error> for TraceError {
    fn from(e: serde::Error) -> Self {
        let key = e.field().map_or("", |(_, key)| key);
        match e.kind {
            ErrorKind::UnknownField(k) => TraceError::UnknownField(k),
            ErrorKind::Missing(_) => TraceError::Missing(key),
            ErrorKind::Invalid(Expected::Object(what), _) => {
                TraceError::Syntax(format!("{what} must be a JSON object"))
            }
            ErrorKind::Invalid(Expected::String, _) => {
                TraceError::Invalid(key, "expected a file path string".to_string())
            }
            ErrorKind::Invalid(expected, _) => {
                TraceError::Invalid(key, format!("expected {}", expected.describe()))
            }
            ErrorKind::Custom(why) => TraceError::Invalid(key, why.to_string()),
        }
    }
}

impl FitReport {
    /// JSON form; an empty history is omitted.
    pub fn to_json(&self) -> Value {
        self.to_json_value()
    }

    /// Parse the [`to_json`](FitReport::to_json) form back (fixed
    /// point); unknown keys are rejected.
    pub fn from_json(v: &Value) -> Result<FitReport, TraceError> {
        Ok(FitReport::from_json_value(v.clone())?)
    }
}

/// A fit request: which trace to analyze and how.  Backs both `memhier
/// fit --trace` and `POST /v1/fit` (the service resolves `trace`
/// against its own filesystem).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "fit request")]
pub struct FitRequest {
    /// Path of the `.mtr` trace file.
    pub trace: String,
    /// Analysis granularity in bytes (power of two).
    #[serde(
        default = "default_granularity",
        skip_serializing_if = "is_default_granularity"
    )]
    pub granularity: u64,
    /// The most records [`run_fit`] pushes at once — a latency knob
    /// only; results are identical for every value.
    #[serde(
        default = "default_chunk_records",
        skip_serializing_if = "is_default_chunk_records"
    )]
    pub chunk_records: u64,
}

fn default_granularity() -> u64 {
    DEFAULT_GRANULARITY
}

fn is_default_granularity(g: &u64) -> bool {
    *g == DEFAULT_GRANULARITY
}

fn default_chunk_records() -> u64 {
    DEFAULT_CHUNK_RECORDS
}

fn is_default_chunk_records(n: &u64) -> bool {
    *n == DEFAULT_CHUNK_RECORDS
}

impl FitRequest {
    /// A request for `trace` with default granularity and chunking.
    pub fn new(trace: impl Into<String>) -> Self {
        FitRequest {
            trace: trace.into(),
            granularity: DEFAULT_GRANULARITY,
            chunk_records: DEFAULT_CHUNK_RECORDS,
        }
    }

    /// JSON form; defaulted fields are omitted.
    pub fn to_json(&self) -> Value {
        self.to_json_value()
    }

    /// Parse the [`to_json`](FitRequest::to_json) form back (fixed
    /// point), validating field values; unknown keys are rejected.  This
    /// is the entry point for outside input: the derived `Deserialize`
    /// checks shape only.
    pub fn from_json(v: &Value) -> Result<FitRequest, TraceError> {
        let req = FitRequest::from_json_value(v.clone())?;
        if !req.granularity.is_power_of_two() {
            return Err(TraceError::Invalid(
                "granularity",
                format!("{} is not a power of two", req.granularity),
            ));
        }
        if req.chunk_records == 0 {
            return Err(TraceError::Invalid(
                "chunk_records",
                "must be at least 1".to_string(),
            ));
        }
        Ok(req)
    }
}

/// Streaming stack-distance + online-fit engine.
///
/// Push addresses (singly or in chunks of any size), then
/// [`finish`](StreamAnalyzer::finish) for the [`FitReport`].  State is
/// `O(live blocks)`; [`peak_state_bytes`](StreamAnalyzer::peak_state_bytes)
/// exposes the high-water mark so tests can assert the bound instead of
/// hoping for it.
pub struct StreamAnalyzer {
    an: StackDistanceAnalyzer,
    records: u64,
    next_milestone: u64,
    history: Vec<FitSnapshot>,
    peak_state: u64,
}

impl StreamAnalyzer {
    /// New analyzer at `granularity`-byte blocks (power of two).
    pub fn new(granularity: u64) -> Self {
        StreamAnalyzer {
            an: StackDistanceAnalyzer::new(granularity),
            records: 0,
            next_milestone: FIRST_MILESTONE,
            history: Vec::new(),
            peak_state: 0,
        }
    }

    /// Feed one address.
    pub fn push(&mut self, addr: u64) {
        self.an.access(addr);
        self.records += 1;
        if self.records == self.next_milestone {
            self.snapshot();
            self.next_milestone *= 2;
        }
        let state = self.an.state_bytes();
        if state > self.peak_state {
            self.peak_state = state;
        }
    }

    /// Feed a chunk of addresses.  Chunk boundaries carry no meaning:
    /// any partition of the same stream produces the same state, the
    /// same history, and the same final report.
    pub fn push_chunk(&mut self, addrs: &[u64]) {
        for &a in addrs {
            self.push(a);
        }
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current resident analysis state in bytes.
    pub fn state_bytes(&self) -> u64 {
        self.an.state_bytes()
    }

    /// High-water mark of [`state_bytes`](StreamAnalyzer::state_bytes).
    pub fn peak_state_bytes(&self) -> u64 {
        self.peak_state
    }

    /// Distinct blocks seen.
    pub fn unique_blocks(&self) -> u32 {
        self.an.unique_blocks()
    }

    /// Milestone fits collected so far.
    pub fn history(&self) -> &[FitSnapshot] {
        &self.history
    }

    fn snapshot(&mut self) {
        if let Ok(fit) = fit_locality_checked(&self.an.histogram().cdf_points()) {
            self.history.push(FitSnapshot {
                records: self.records,
                alpha: fit.alpha,
                beta: fit.beta,
                r_squared: fit.r_squared,
            });
        }
    }

    /// Run the final fit and assemble the report.  `total_instructions`
    /// (memory + compute) yields `ρ = records / total_instructions`; 0
    /// means unknown and reports `ρ = 0`.
    pub fn finish(self, total_instructions: u64) -> Result<FitReport, FitError> {
        let records = self.records;
        let history = self.history;
        let granularity = self.an.granularity();
        let fit = fit_locality_checked(&self.an.into_histogram().cdf_points())?;
        let converged = history.last().is_some_and(|last| {
            let da = (fit.alpha - last.alpha).abs() / fit.alpha.abs().max(f64::MIN_POSITIVE);
            let db = (fit.beta - last.beta).abs() / fit.beta.abs().max(f64::MIN_POSITIVE);
            da < ALPHA_TOL && db < BETA_TOL
        });
        let rho = if total_instructions > 0 {
            records as f64 / total_instructions as f64
        } else {
            0.0
        };
        Ok(FitReport {
            alpha: fit.alpha,
            beta: fit.beta,
            rho,
            r_squared: fit.r_squared,
            records,
            granularity,
            converged,
            history,
        })
    }
}

/// Execute a [`FitRequest`]: stream the trace file through a
/// [`StreamAnalyzer`], pushing each decoded `.mtr` block in slices of at
/// most `chunk_records` records, and return the report.  The whole trace
/// is never resident; peak memory is one decoded block plus the
/// compaction-bounded analysis state.
pub fn run_fit(req: &FitRequest) -> Result<FitReport, TraceError> {
    let mut reader = TraceReader::open(Path::new(&req.trace))?;
    let total_instructions = reader.header().total_instructions;
    let mut analyzer = StreamAnalyzer::new(req.granularity);
    let max = usize::try_from(req.chunk_records).unwrap_or(usize::MAX);
    loop {
        let chunk = reader.next_records(max)?;
        if chunk.is_empty() {
            break;
        }
        analyzer.push_chunk(chunk);
    }
    Ok(analyzer.finish(total_instructions)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticTrace;

    fn synthetic_addrs(n: usize) -> Vec<u64> {
        SyntheticTrace::new(1.3, 90.0, 64, 7).take(n).collect()
    }

    #[test]
    fn chunking_is_invisible() {
        let addrs = synthetic_addrs(30_000);
        let mut whole = StreamAnalyzer::new(64);
        whole.push_chunk(&addrs);
        for chunk_size in [1usize, 128, 4096, 10_000] {
            let mut chunked = StreamAnalyzer::new(64);
            for c in addrs.chunks(chunk_size) {
                chunked.push_chunk(c);
            }
            assert_eq!(chunked.history(), whole.history(), "chunk {chunk_size}");
            assert_eq!(chunked.records(), whole.records());
            assert_eq!(chunked.state_bytes(), whole.state_bytes());
        }
        let a = whole.finish(60_000).unwrap();
        let mut again = StreamAnalyzer::new(64);
        for c in addrs.chunks(333) {
            again.push_chunk(c);
        }
        assert_eq!(again.finish(60_000).unwrap(), a);
    }

    #[test]
    fn milestones_double_from_4096() {
        let addrs = synthetic_addrs(40_000);
        let mut an = StreamAnalyzer::new(64);
        an.push_chunk(&addrs);
        let recs: Vec<u64> = an.history().iter().map(|s| s.records).collect();
        for r in &recs {
            assert!(r.is_power_of_two() && *r >= FIRST_MILESTONE, "{recs:?}");
        }
        assert!(recs.windows(2).all(|w| w[1] == w[0] * 2), "{recs:?}");
    }

    #[test]
    fn converges_on_stationary_stream() {
        let addrs = synthetic_addrs(300_000);
        let mut an = StreamAnalyzer::new(64);
        an.push_chunk(&addrs);
        let report = an.finish(600_000).unwrap();
        assert!(report.converged, "history: {:?}", report.history);
        assert_eq!(report.records, 300_000);
        assert!((report.rho - 0.5).abs() < 1e-12);
        assert!(report.alpha > 1.0 && report.beta > 0.0);
    }

    #[test]
    fn short_stream_not_converged() {
        // Below the first milestone there is no history to compare with.
        let addrs = synthetic_addrs(1000);
        let mut an = StreamAnalyzer::new(64);
        an.push_chunk(&addrs);
        let report = an.finish(2000).unwrap();
        assert!(!report.converged);
        assert!(report.history.is_empty());
    }

    #[test]
    fn report_json_fixed_point() {
        let addrs = synthetic_addrs(50_000);
        let mut an = StreamAnalyzer::new(64);
        an.push_chunk(&addrs);
        let report = an.finish(100_000).unwrap();
        let v = report.to_json();
        let back = FitReport::from_json(&v).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), v);
    }

    #[test]
    fn report_json_rejects_typos() {
        let addrs = synthetic_addrs(10_000);
        let mut an = StreamAnalyzer::new(64);
        an.push_chunk(&addrs);
        let mut v = an.finish(0).unwrap().to_json();
        if let Value::Object(fields) = &mut v {
            fields.push(("alpa".to_string(), 1.0f64.to_json_value()));
        }
        assert!(matches!(
            FitReport::from_json(&v).unwrap_err(),
            TraceError::UnknownField(k) if k == "alpa"
        ));
    }

    #[test]
    fn request_json_fixed_point_and_validation() {
        let req = FitRequest::new("a.mtr");
        let v = req.to_json();
        // Defaults omitted.
        assert_eq!(
            v,
            Value::Object(vec![(
                "trace".to_string(),
                Value::String("a.mtr".to_string()),
            )])
        );
        assert_eq!(FitRequest::from_json(&v).unwrap(), req);

        let custom = FitRequest {
            trace: "b.mtr".to_string(),
            granularity: 4,
            chunk_records: 100,
        };
        assert_eq!(FitRequest::from_json(&custom.to_json()).unwrap(), custom);

        let bad = serde_json::from_str::<Value>(r#"{"trace": "x", "granularity": 48}"#).unwrap();
        assert!(matches!(
            FitRequest::from_json(&bad).unwrap_err(),
            TraceError::Invalid("granularity", _)
        ));
        let bad = serde_json::from_str::<Value>(r#"{"trace": "x", "chunk_records": 0}"#).unwrap();
        assert!(matches!(
            FitRequest::from_json(&bad).unwrap_err(),
            TraceError::Invalid("chunk_records", _)
        ));
        let bad = serde_json::from_str::<Value>(r#"{}"#).unwrap();
        assert!(matches!(
            FitRequest::from_json(&bad).unwrap_err(),
            TraceError::Missing("trace")
        ));
    }

    #[test]
    fn empty_stream_is_typed_error() {
        let an = StreamAnalyzer::new(64);
        assert!(matches!(
            an.finish(0),
            Err(FitError::TooFewPoints { usable: 0 })
        ));
    }

    #[test]
    fn footprint_capped_stream_has_bounded_state() {
        // 4× the records must not grow the resident state when the
        // working set is capped: state scales with live blocks only.
        // A 16 KiB footprint (256 blocks) saturates within ~2k records,
        // long before either run ends.
        let gen = |n: usize| {
            SyntheticTrace::new(1.3, 90.0, 64, 9)
                .with_footprint((1u64 << 14) as f64)
                .take(n)
                .collect::<Vec<u64>>()
        };
        let mut small = StreamAnalyzer::new(64);
        small.push_chunk(&gen(20_000));
        let mut large = StreamAnalyzer::new(64);
        large.push_chunk(&gen(80_000));
        assert_eq!(
            small.peak_state_bytes(),
            large.peak_state_bytes(),
            "state grew with trace length"
        );
    }
}
