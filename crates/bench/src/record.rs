//! Trace recording: tap a simulated scenario's address stream into a
//! `.mtr` file (the front half of the paper's §7 toolchain — "an
//! efficient tool to collect application program memory access traces").
//!
//! [`TraceRecorder`] is a [`SimObserver`] that appends every observed
//! access address to a streaming [`TraceWriter`]; [`record_scenario`]
//! runs a [`Scenario`] with the recorder attached and finalizes the file
//! with the run's total instruction count (so `memhier fit` can recover
//! ρ).  The run is the same single-threaded, deterministic simulation
//! [`Scenario::run`] performs, so the recorded bytes are identical at
//! any `--jobs` setting.

use crate::scenario::Scenario;
use memhier_core::machine::LatencyParams;
use memhier_sim::backend::ClusterBackend;
use memhier_sim::engine::{ProcSource, SimSession};
use memhier_sim::observe::{AccessObservation, SimObserver};
use memhier_trace::format::{TraceError, TraceWriter};
use memhier_workloads::spmd::{home_map_for, stream_spmd};
use std::any::Any;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// A [`SimObserver`] that streams every accessed address into an open
/// [`TraceWriter`].  The first write error stops recording and is
/// surfaced when the recorder is finalized.
pub struct TraceRecorder {
    writer: Option<TraceWriter<BufWriter<File>>>,
    error: Option<TraceError>,
}

impl TraceRecorder {
    /// Start recording into a fresh trace file at `path` (raw byte
    /// addresses: header granularity 1; analysis granularity is chosen
    /// at fit time).
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        Ok(TraceRecorder {
            writer: Some(TraceWriter::create(path, 1)?),
            error: None,
        })
    }

    /// Addresses recorded so far.
    pub fn records(&self) -> u64 {
        self.writer.as_ref().map_or(0, |w| w.records())
    }

    /// Finalize the trace file with the run's total instruction count,
    /// returning the record count (or the first error the recorder hit).
    pub fn finish(mut self, total_instructions: u64) -> Result<u64, TraceError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer
            .take()
            .expect("writer present unless an error was taken")
            .finish(total_instructions)
    }
}

impl SimObserver for TraceRecorder {
    fn on_access(&mut self, o: &AccessObservation) {
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.record(o.addr) {
                self.error = Some(e);
                self.writer = None;
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// What [`record_scenario`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSummary {
    /// Address records written.
    pub records: u64,
    /// Total instructions (memory + compute) the run executed — the ρ
    /// denominator, also stored in the trace header.
    pub total_instructions: u64,
}

/// Run `scenario` with a [`TraceRecorder`] tapped in and write its
/// address stream to `path` as a finalized `.mtr` trace.
///
/// The recorder rides alongside whatever observers the scenario already
/// configures; like all observers it cannot perturb simulated time, so
/// recording a run does not change its report.
pub fn record_scenario(scenario: &Scenario, path: &Path) -> Result<RecordSummary, TraceError> {
    let workload = scenario.size.workload(scenario.workload);
    let cluster = scenario.config.clone();
    let latency = LatencyParams::paper();
    let procs = cluster.total_procs() as usize;
    if !workload.supports_processes(procs) {
        return Err(TraceError::Invalid(
            "scenario",
            format!(
                "{:?} does not decompose into {procs} processes on this config",
                scenario.workload
            ),
        ));
    }
    let recorder = TraceRecorder::create(path)?;
    let program = workload.instantiate(procs);
    let home = home_map_for(
        &*program,
        cluster.machines as usize,
        cluster.machine.n_procs as usize,
        256,
    );
    let backend = ClusterBackend::new(&cluster, latency, home);
    let (mut out, counters) = stream_spmd(program, move |rxs| {
        SimSession::new(backend)
            .with_sources(rxs.into_iter().map(ProcSource::Channel).collect())
            .observe(recorder)
            .run()
    });
    let recorder = out
        .take_observer::<TraceRecorder>()
        .expect("recorder attached above");
    let total_instructions = counters.total_instructions();
    let records = recorder.finish(total_instructions)?;
    Ok(RecordSummary {
        records,
        total_instructions,
    })
}
