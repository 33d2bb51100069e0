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
use crate::histogram::DistanceHistogram;
use crate::stackdist::{Compaction, CountStage, SlotStage};
use serde::{Deserialize, ErrorKind, Expected, Serialize};
use serde_json::Value;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

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

/// Records per batch the slot stage hands to the count stage.
const BATCH_RECORDS: usize = 16 * 1024;
/// Batches that may wait in the channel before the slot stage blocks.
const PIPELINE_DEPTH: usize = 4;

/// What the slot stage sends the count stage, in stream order.
enum Batch {
    /// Previous slots (or [`COLD`](crate::stackdist::COLD)), one per record.
    Slots(Vec<u32>),
    /// The slot stage compacted before the next record.
    Compact(Compaction),
}

/// Everything downstream of the slot stage: the count stage and the
/// milestone fits.
struct FitStage {
    count: CountStage,
    records: u64,
    next_milestone: u64,
    history: Vec<FitSnapshot>,
}

impl FitStage {
    fn new(granularity: u64) -> Self {
        FitStage {
            count: CountStage::new(granularity),
            records: 0,
            next_milestone: FIRST_MILESTONE,
            history: Vec::new(),
        }
    }

    fn count_all(&mut self, slots: &[u32]) {
        for &old in slots {
            self.count.count(old);
            self.records += 1;
            if self.records == self.next_milestone {
                self.history
                    .extend(milestone_fit(self.count.histogram(), self.records));
                self.next_milestone *= 2;
            }
        }
    }
}

/// The fit of `hist` at a milestone of `records` records, unless it is
/// degenerate.
fn milestone_fit(hist: &DistanceHistogram, records: u64) -> Option<FitSnapshot> {
    let fit = fit_locality_checked(&hist.cdf_points()).ok()?;
    Some(FitSnapshot {
        records,
        alpha: fit.alpha,
        beta: fit.beta,
        r_squared: fit.r_squared,
    })
}

/// Run the final fit on `hist` and assemble the report.
fn final_report(
    hist: &DistanceHistogram,
    history: Vec<FitSnapshot>,
    records: u64,
    total_instructions: u64,
) -> Result<FitReport, FitError> {
    let fit = fit_locality_checked(&hist.cdf_points())?;
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
        granularity: hist.granularity(),
        converged,
        history,
    })
}

/// The count stage's thread and the channels to it.
struct Worker {
    batches: SyncSender<Batch>,
    /// Emptied batch buffers coming back for reuse.
    spare: Receiver<Vec<u32>>,
    thread: JoinHandle<FitStage>,
}

impl Worker {
    fn spawn(mut fit: FitStage) -> Worker {
        let (batches, inbox) = mpsc::sync_channel(PIPELINE_DEPTH);
        let (recycle, spare) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("memhier-fit-count".to_string())
            .spawn(move || {
                for batch in inbox {
                    match batch {
                        Batch::Slots(mut slots) => {
                            fit.count_all(&slots);
                            slots.clear();
                            let _ = recycle.send(slots);
                        }
                        Batch::Compact(c) => fit.count.compact(c),
                    }
                }
                fit
            })
            .expect("spawning the stack-distance count stage");
        Worker {
            batches,
            spare,
            thread,
        }
    }

    /// Hang up and wait for the count stage to drain; a panic on the
    /// worker comes back as `Err`.
    fn join(self) -> std::thread::Result<FitStage> {
        drop(self.batches);
        self.thread.join()
    }
}

/// Streaming stack-distance + online-fit engine.
///
/// Push addresses (singly or in chunks of any size), then
/// [`finish`](StreamAnalyzer::finish) for the [`FitReport`].  State is
/// `O(live blocks)`; [`peak_state_bytes`](StreamAnalyzer::peak_state_bytes)
/// exposes the high-water mark so tests can assert the bound instead of
/// hoping for it.
///
/// The analysis runs as a two-stage pipeline (see
/// [`stackdist`](crate::stackdist)): the slot stage runs in `push` on the
/// caller's thread and hands the count stage batches of previous slots
/// over a bounded channel; the count stage, with the milestone fits, runs
/// on a worker thread.  `push` waits only when the channel is full.
/// [`finish`](StreamAnalyzer::finish) and the accessors that read the
/// count stage's state drain the pipeline and join the worker (it starts
/// again at the next hand-off), and so does dropping the analyzer.  A
/// panic in the count stage resurfaces on the caller's thread at the next
/// hand-off or drain.  The results are those of
/// [`StackDistanceAnalyzer`](crate::StackDistanceAnalyzer) run on the
/// same stream, bit for bit, at any chunking.
pub struct StreamAnalyzer {
    slots: SlotStage,
    records: u64,
    /// Previous slots not yet handed to the count stage.
    batch: Vec<u32>,
    batch_records: usize,
    /// The count stage while it is not running on `worker`.
    fit: Option<FitStage>,
    worker: Option<Worker>,
}

impl StreamAnalyzer {
    /// New analyzer at `granularity`-byte blocks (power of two).
    pub fn new(granularity: u64) -> Self {
        Self::with_batch_records(granularity, BATCH_RECORDS)
    }

    /// [`StreamAnalyzer::new`] handing the count stage `batch_records`
    /// records at a time.
    pub(crate) fn with_batch_records(granularity: u64, batch_records: usize) -> Self {
        assert!(batch_records > 0, "batches must hold a record");
        StreamAnalyzer {
            slots: SlotStage::new(granularity),
            records: 0,
            batch: Vec::with_capacity(batch_records),
            batch_records,
            fit: Some(FitStage::new(granularity)),
            worker: None,
        }
    }

    /// Feed one address.
    #[inline]
    pub fn push(&mut self, addr: u64) {
        if self.slots.full() {
            let c = self.slots.compact();
            self.send_batch();
            self.send(Batch::Compact(c));
        }
        self.batch.push(self.slots.next(addr));
        self.records += 1;
        if self.batch.len() == self.batch_records {
            self.send_batch();
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

    /// Hand the pending batch, if any, to the count stage.
    fn send_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let spare = self.worker.as_ref().and_then(|w| w.spare.try_recv().ok());
        let fresh = spare.unwrap_or_else(|| Vec::with_capacity(self.batch_records));
        let full = std::mem::replace(&mut self.batch, fresh);
        self.send(Batch::Slots(full));
    }

    /// Send `batch` to the count stage's worker, starting it if need be.
    fn send(&mut self, batch: Batch) {
        let worker = match &mut self.worker {
            Some(w) => w,
            None => {
                let fit = self.fit.take().expect("the count stage is here");
                self.worker.insert(Worker::spawn(fit))
            }
        };
        if worker.batches.send(batch).is_err() {
            // Only a panic drops the worker's end while this one lives;
            // joining resumes it here.
            self.join();
            unreachable!("the count stage hung up without panicking");
        }
    }

    /// Join the worker, if one runs, and take the count stage back.
    fn join(&mut self) {
        if let Some(worker) = self.worker.take() {
            match worker.join() {
                Ok(fit) => self.fit = Some(fit),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    }

    /// Drain the pipeline: every record pushed so far is counted, and the
    /// count stage is back on this thread.
    fn sync(&mut self) -> &mut FitStage {
        self.join();
        let fit = self.fit.as_mut().expect("the count stage was joined");
        fit.count_all(&self.batch);
        self.batch.clear();
        fit
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current resident analysis state in bytes, both stages counted.
    /// Drains the pipeline.
    pub fn state_bytes(&mut self) -> u64 {
        let slot_bytes = self.slots.state_bytes();
        slot_bytes + self.sync().count.state_bytes()
    }

    /// High-water mark of [`state_bytes`](StreamAnalyzer::state_bytes)
    /// over every record pushed (0 before the first).  Blocks are never
    /// forgotten, so the table, the slot space and the histogram only
    /// grow, and the state peaks at the latest record.  Drains the
    /// pipeline.
    pub fn peak_state_bytes(&mut self) -> u64 {
        match self.records {
            0 => 0,
            _ => self.state_bytes(),
        }
    }

    /// Distinct blocks seen.
    pub fn unique_blocks(&self) -> u32 {
        self.slots.unique_blocks()
    }

    /// Milestone fits collected so far.  Drains the pipeline.
    pub fn history(&mut self) -> &[FitSnapshot] {
        &self.sync().history
    }

    /// Run the final fit and assemble the report.  `total_instructions`
    /// (memory + compute) yields `ρ = records / total_instructions`; 0
    /// means unknown and reports `ρ = 0`.
    pub fn finish(mut self, total_instructions: u64) -> Result<FitReport, FitError> {
        let fit = self.sync();
        let history = std::mem::take(&mut fit.history);
        final_report(
            fit.count.histogram(),
            history,
            fit.records,
            total_instructions,
        )
    }
}

impl Drop for StreamAnalyzer {
    /// Join the count stage's worker; a panic it died of is dropped with
    /// it.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
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
    use crate::format::TraceWriter;
    use crate::stackdist::StackDistanceAnalyzer;
    use crate::synthetic::SyntheticTrace;
    use proptest::prelude::*;
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
    use std::time::Duration;

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

    /// Run `f` on a thread of its own, failing the test if it has not
    /// returned within a minute: a pipeline that hangs fails instead of
    /// blocking the suite.  A panic in `f` is resumed here.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(v) => v,
            Err(RecvTimeoutError::Timeout) => panic!("hung: no result within 60 s"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(thread.join().expect_err("sent no result"))
            }
        }
    }

    fn panic_text(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// The single-threaded composition: one [`StackDistanceAnalyzer`]
    /// running both stages inline, with a milestone fit at every
    /// 4096 · 2ᵏ records.  Returns the report, the distinct blocks and the
    /// state after every record.
    fn inline_composition(
        addrs: &[u64],
        total_instructions: u64,
    ) -> (Result<FitReport, FitError>, u32, Vec<u64>) {
        let mut an = StackDistanceAnalyzer::new(64);
        let mut history = Vec::new();
        let mut states = Vec::with_capacity(addrs.len());
        for (i, &a) in addrs.iter().enumerate() {
            an.access(a);
            let records = i as u64 + 1;
            if records >= FIRST_MILESTONE && records.is_power_of_two() {
                history.extend(milestone_fit(&an.histogram(), records));
            }
            states.push(an.state_bytes());
        }
        let report = final_report(
            &an.histogram(),
            history,
            addrs.len() as u64,
            total_instructions,
        );
        (report, an.unique_blocks(), states)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The worker pipeline at tiny batch sizes, where compactions and
        /// milestones fall on batch boundaries, and drained once mid-stream,
        /// gives the inline composition's results bit for bit.
        #[test]
        fn pipeline_matches_inline_composition(
            seed in 0u64..1_000,
            len in 1usize..160_000,
            capped in any::<bool>(),
            batch in prop_oneof![Just(1usize), Just(2), Just(64), Just(4096), 1usize..5_000],
            chunk in 1usize..40_000,
            probe in 0usize..160_000,
        ) {
            let synthetic = SyntheticTrace::new(1.3, 90.0, 64, seed);
            let addrs: Vec<u64> = if capped {
                synthetic.with_footprint((1u64 << 14) as f64).take(len).collect()
            } else {
                synthetic.take(len).collect()
            };
            let (report, unique, states) = inline_composition(&addrs, 2 * len as u64);

            let mut an = StreamAnalyzer::with_batch_records(64, batch);
            let probe = probe % len;
            for (i, c) in addrs.chunks(chunk).enumerate() {
                an.push_chunk(c);
                if i * chunk <= probe && probe < (i + 1) * chunk {
                    let seen = an.records() as usize;
                    prop_assert_eq!(an.state_bytes(), states[seen - 1]);
                    prop_assert_eq!(
                        an.peak_state_bytes(),
                        states[..seen].iter().copied().max().unwrap()
                    );
                }
            }
            prop_assert_eq!(an.unique_blocks(), unique);
            prop_assert_eq!(an.state_bytes(), states[len - 1]);
            prop_assert_eq!(an.peak_state_bytes(), states.iter().copied().max().unwrap());
            prop_assert_eq!(
                format!("{:?}", an.finish(2 * len as u64)),
                format!("{report:?}")
            );
        }
    }

    #[test]
    fn peak_state_is_zero_before_any_record() {
        let mut an = StreamAnalyzer::new(64);
        assert_eq!(an.peak_state_bytes(), 0);
        assert!(an.state_bytes() > 0);
    }

    #[test]
    fn dropping_mid_stream_joins_the_worker() {
        within_a_minute(|| {
            let mut an = StreamAnalyzer::with_batch_records(64, 1024);
            an.push_chunk(&synthetic_addrs(100_000));
            let worker = an
                .worker
                .as_mut()
                .expect("the count stage runs on its worker");
            // Keep the receiving end of the buffer-recycling channel: its
            // sending end lives exactly as long as the worker does.
            let spare = std::mem::replace(&mut worker.spare, mpsc::channel().1);
            drop(an);
            while spare.try_recv().is_ok() {}
            assert_eq!(spare.try_recv(), Err(TryRecvError::Disconnected));
        });
    }

    /// Whether `text` is the panic a bad slot causes in the count stage:
    /// the gap underflows (checked arithmetic) or the bitset index runs
    /// past the slot space.
    fn is_bad_slot_panic(text: &str) -> bool {
        text.contains("overflow") || text.contains("out of bounds")
    }

    /// Push some records, then slip the count stage a slot the slot stage
    /// never issued, which panics the worker.
    fn analyzer_with_a_dying_worker() -> StreamAnalyzer {
        let mut an = StreamAnalyzer::with_batch_records(64, 256);
        an.push_chunk(&synthetic_addrs(2_000));
        assert!(an.worker.is_some());
        an.batch.push(u32::MAX - 1);
        an
    }

    #[test]
    fn count_stage_panic_resurfaces_at_the_next_drain() {
        let text = within_a_minute(|| {
            let mut an = analyzer_with_a_dying_worker();
            an.send_batch();
            let payload = catch_unwind(AssertUnwindSafe(|| an.history().len()))
                .expect_err("the worker's panic must reach the caller");
            panic_text(&*payload)
        });
        assert!(is_bad_slot_panic(&text), "{text}");
    }

    #[test]
    fn count_stage_panic_resurfaces_in_push() {
        let text = within_a_minute(|| {
            let mut an = analyzer_with_a_dying_worker();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                an.push_chunk(&synthetic_addrs(200_000));
            }))
            .expect_err("back-pressure must surface the worker's panic");
            assert!(an.worker.is_none(), "the dead worker was joined");
            panic_text(&*payload)
        });
        assert!(is_bad_slot_panic(&text), "{text}");
    }

    /// Write `addrs` as a `.mtr` trace in the temp directory.
    fn write_trace(name: &str, addrs: &[u64]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("memhier-stream-{}-{name}.mtr", std::process::id()));
        let mut w = TraceWriter::create(&path, 1).expect("create trace");
        for &a in addrs {
            w.record(a).expect("record");
        }
        w.finish(2 * addrs.len() as u64).expect("finish");
        path
    }

    /// The error a plain decode of `path` stops at.
    fn decode_error(path: &Path) -> TraceError {
        let mut reader = TraceReader::open(path).expect("open");
        loop {
            match reader.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("{} decodes cleanly", path.display()),
                Err(e) => return e,
            }
        }
    }

    /// A damaged trace fails `run_fit` with the error the decoder reports,
    /// after two blocks' worth of records have gone to the worker.
    #[test]
    fn damaged_traces_fail_run_fit_with_the_decoder_error() {
        let path = write_trace("intact", &synthetic_addrs(200_000));
        let bytes = std::fs::read(&path).expect("read trace");
        std::fs::remove_file(&path).expect("remove trace");
        // Header, then blocks of [payload length, record count, CRC, payload].
        let mut third = 36;
        let mut records = 0;
        for _ in 0..2 {
            let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            records += word(third + 4) as usize;
            third += 12 + word(third) as usize;
        }
        assert!(
            records > 2 * BATCH_RECORDS,
            "{records} records precede block 3"
        );

        let mut flipped = bytes.clone();
        flipped[third + 12 + 100] ^= 0x10;
        let truncated = &bytes[..third + 12 + 100];
        for (name, damaged) in [("flipped", &flipped[..]), ("truncated", truncated)] {
            let path = write_trace(name, &[]);
            std::fs::write(&path, damaged).expect("write damaged trace");
            let expected = format!("{:?}", decode_error(&path));
            let trace = path.to_string_lossy().into_owned();
            let got = within_a_minute(move || run_fit(&FitRequest::new(trace)))
                .expect_err("a damaged trace must not fit");
            std::fs::remove_file(&path).expect("remove trace");
            assert_eq!(format!("{got:?}"), expected, "{name}");
            match name {
                "flipped" => assert!(
                    matches!(got, TraceError::CrcMismatch { what: "block", .. }),
                    "{got:?}"
                ),
                _ => assert!(matches!(got, TraceError::Truncated(_)), "{got:?}"),
            }
        }
    }
}
