//! Trace recording: tap a simulated scenario's address stream into a
//! `.mtr` file (the front half of the paper's §7 toolchain — "an
//! efficient tool to collect application program memory access traces").
//!
//! [`TraceRecorder`] is a [`SimObserver`] that collects every observed
//! access address and hands them, in batches, to a writer thread that
//! encodes them into a streaming [`TraceWriter`]; [`record_scenario`]
//! runs a [`Scenario`] with the recorder attached and finalizes the file
//! with the run's total instruction count (so `memhier fit` can recover
//! ρ).  The run is the same single-threaded, deterministic simulation
//! [`Scenario::run`] performs, and the writer sees the addresses in the
//! order the run observed them, so the recorded bytes are identical at
//! any `--jobs` setting and however the two threads are scheduled.

use crate::scenario::Scenario;
use memhier_core::machine::LatencyParams;
use memhier_sim::backend::ClusterBackend;
use memhier_sim::engine::{ProcSource, SimSession};
use memhier_sim::observe::{AccessObservation, SimObserver};
use memhier_trace::format::{TraceError, TraceWriter};
use memhier_workloads::spmd::{home_map_for, stream_spmd};
use std::any::Any;
use std::io::{Seek, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Addresses per batch handed to the writer thread.
const BATCH_ADDRS: usize = 16 * 1024;
/// Batch buffers a recorder owns: one fills while the writer drains the
/// other.  The writer encodes an address in about 12 ns, a few times
/// faster than an observed simulation produces one, so the simulation
/// rarely waits, and a third buffer would only add peak memory.
const BUFFERS: usize = 2;

/// What the recorder sends its writer thread, in stream order.
enum ToWriter {
    /// The next addresses of the stream.
    Addrs(Vec<u64>),
    /// Finalize the file with this total instruction count.
    Finish(u64),
}

/// The writer thread and the channels to it.
struct Writer {
    batches: SyncSender<ToWriter>,
    /// Emptied batch buffers coming back for the recorder to fill.
    spare: Receiver<Vec<u64>>,
    /// Yields what [`TraceWriter::finish`] returned, or the first error.
    thread: JoinHandle<Result<u64, TraceError>>,
}

impl Writer {
    /// Start a thread that encodes every address sent to it into
    /// `trace`, with all but one of the batch buffers queued as spares.
    ///
    /// The buffers are allocated here, on the caller's thread, and so are
    /// the channels' slots: memory a thread allocates stays in that
    /// thread's malloc arena.
    fn spawn<W: Write + Seek + Send + 'static>(mut trace: TraceWriter<W>) -> Writer {
        let (batches, inbox) = mpsc::sync_channel(BUFFERS);
        let (recycle, spare) = mpsc::sync_channel(BUFFERS);
        for _ in 1..BUFFERS {
            let _ = recycle.send(Vec::with_capacity(BATCH_ADDRS));
        }
        let thread = std::thread::Builder::new()
            .name("memhier-trace-writer".to_string())
            .spawn(move || {
                for msg in inbox {
                    match msg {
                        ToWriter::Addrs(mut addrs) => {
                            for &a in &addrs {
                                trace.record(a)?;
                            }
                            addrs.clear();
                            // Never blocks: there is a slot for every buffer.
                            let _ = recycle.send(addrs);
                        }
                        ToWriter::Finish(total_instructions) => {
                            return trace.finish(total_instructions);
                        }
                    }
                }
                // The recorder was dropped unfinished.
                Err(TraceError::Unfinished)
            })
            .expect("spawning the trace writer");
        Writer {
            batches,
            spare,
            thread,
        }
    }
}

/// A [`SimObserver`] that streams every accessed address into a `.mtr`
/// file.
///
/// The simulation thread only appends addresses to a buffer; full
/// buffers go over a bounded channel to a writer thread that owns the
/// [`TraceWriter`] and does the varint encoding, the checksums and the
/// file writes, and emptied buffers come back for reuse.  The file holds
/// exactly the bytes a [`TraceWriter`] fed the same addresses on one
/// thread would write.  The first write error stops recording, and it —
/// or a panic on the writer thread — surfaces at
/// [`finish`](TraceRecorder::finish).  Dropping an unfinished recorder
/// joins the writer and leaves the file unfinished.
pub struct TraceRecorder {
    /// Addresses not yet handed to the writer.
    buf: Vec<u64>,
    /// Addresses handed to the writer so far.
    sent: u64,
    /// The writer thread, until `finish` joins it.
    writer: Option<Writer>,
    /// Whether the writer still takes batches.  It hangs up only after a
    /// write error or a panic, which `finish` reports.
    open: bool,
}

impl TraceRecorder {
    /// Start recording into a fresh trace file at `path` (raw byte
    /// addresses: header granularity 1; analysis granularity is chosen
    /// at fit time).
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        Ok(Self::spawn(TraceWriter::create(path, 1)?))
    }

    /// Record into `trace` from a new writer thread.
    fn spawn<W: Write + Seek + Send + 'static>(trace: TraceWriter<W>) -> Self {
        TraceRecorder {
            buf: Vec::with_capacity(BATCH_ADDRS),
            sent: 0,
            writer: Some(Writer::spawn(trace)),
            open: true,
        }
    }

    /// Append one address.
    #[inline]
    fn push(&mut self, addr: u64) {
        self.buf.push(addr);
        if self.buf.len() == BATCH_ADDRS {
            self.hand_off();
        }
    }

    /// Send the buffered addresses to the writer and go on in the spare
    /// buffer, waiting for the writer to empty one if need be.
    fn hand_off(&mut self) {
        self.sent += self.buf.len() as u64;
        let writer = self.writer.as_ref().expect("recording until finished");
        let spare = if self.open {
            writer.spare.recv().ok()
        } else {
            None
        };
        let Some(fresh) = spare else {
            self.open = false;
            self.buf.clear();
            return;
        };
        let full = std::mem::replace(&mut self.buf, fresh);
        self.open = writer.batches.send(ToWriter::Addrs(full)).is_ok();
    }

    /// Addresses recorded so far, buffered ones included.
    pub fn records(&self) -> u64 {
        self.sent + self.buf.len() as u64
    }

    /// Finalize the trace file with the run's total instruction count,
    /// returning the record count (or the first error the recorder hit).
    /// A panic on the writer thread resumes here.
    pub fn finish(mut self, total_instructions: u64) -> Result<u64, TraceError> {
        let writer = self.writer.take().expect("finished once");
        if self.open {
            let tail = std::mem::take(&mut self.buf);
            // A failed send means the writer stopped; joining says why.
            let _ = writer
                .batches
                .send(ToWriter::Addrs(tail))
                .and_then(|()| writer.batches.send(ToWriter::Finish(total_instructions)));
        }
        drop(writer.batches);
        match writer.thread.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for TraceRecorder {
    /// Join the writer thread, which writes what it was sent and leaves
    /// the file unfinished; an error or a panic it met is dropped with it.
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            drop(writer.batches);
            let _ = writer.thread.join();
        }
    }
}

impl SimObserver for TraceRecorder {
    fn on_access(&mut self, o: &AccessObservation<'_>) {
        self.push(o.addr);
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
    let workload = scenario.resolved_workload();
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

#[cfg(test)]
mod tests {
    use super::*;
    use memhier_trace::format::TraceReader;
    use std::any::Any;
    use std::io::{self, Cursor, SeekFrom};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Arc;
    use std::time::Duration;

    /// Run `f` on a thread of its own, failing the test if it has not
    /// returned within a minute: a writer that hangs fails instead of
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

    /// Addresses with deltas wide enough to fill `.mtr` blocks quickly.
    fn addrs(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A scratch trace path private to one test.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("memhier-record-{name}-{}.mtr", std::process::id()))
    }

    #[test]
    fn records_counts_buffered_addresses_and_the_bytes_match_one_thread() {
        let path = scratch("count");
        let (n, file) = within_a_minute({
            let path = path.clone();
            move || {
                let mut rec = TraceRecorder::create(&path).unwrap();
                let total = 3 * BATCH_ADDRS as u64 + 100;
                for (i, a) in addrs(total).enumerate() {
                    assert_eq!(rec.records(), i as u64);
                    rec.push(a);
                }
                assert_eq!(rec.records(), total);
                let n = rec.finish(7 * total).unwrap();
                (n, std::fs::read(&path).unwrap())
            }
        });
        let _ = std::fs::remove_file(&path);
        assert_eq!(n, 3 * BATCH_ADDRS as u64 + 100);
        let mut one_thread = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut one_thread, 1).unwrap();
        for a in addrs(n) {
            w.record(a).unwrap();
        }
        w.finish(7 * n).unwrap();
        assert!(
            file == one_thread.into_inner(),
            "the writer thread changed the bytes"
        );
        let decoded: Vec<u64> = TraceReader::new(Cursor::new(&file))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert!(decoded.into_iter().eq(addrs(n)));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn write_error_surfaces_at_finish() {
        let err = within_a_minute(|| {
            let mut rec = TraceRecorder::create(Path::new("/dev/full")).unwrap();
            for a in addrs(200_000) {
                rec.push(a);
            }
            assert_eq!(rec.records(), 200_000);
            rec.finish(1).expect_err("/dev/full takes no bytes")
        });
        assert!(matches!(err, TraceError::Io(_)), "{err:?}");
    }

    /// An in-memory sink that runs `on_drop` when the writer thread lets
    /// go of it, after a pause that lets an unjoined thread be caught.
    struct Sink {
        bytes: Cursor<Vec<u8>>,
        /// Writes left before the next one panics.
        writes_left: usize,
        dropped: Arc<AtomicBool>,
    }

    impl Sink {
        fn new(writes_left: usize) -> (Sink, Arc<AtomicBool>) {
            let dropped = Arc::new(AtomicBool::new(false));
            let sink = Sink {
                bytes: Cursor::new(Vec::new()),
                writes_left,
                dropped: Arc::clone(&dropped),
            };
            (sink, dropped)
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.writes_left == 0 {
                panic!("the sink exploded");
            }
            self.writes_left -= 1;
            self.bytes.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Seek for Sink {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.bytes.seek(pos)
        }
    }

    impl Drop for Sink {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(50));
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_an_unfinished_recorder_joins_the_writer() {
        let (sink, dropped) = Sink::new(usize::MAX);
        within_a_minute(move || {
            let trace = TraceWriter::new(sink, 1).unwrap();
            // A session that panics mid-run drops its recorder unwinding.
            let unwound = catch_unwind(AssertUnwindSafe(move || {
                let mut rec = TraceRecorder::spawn(trace);
                for a in addrs(2 * BATCH_ADDRS as u64 + 5) {
                    rec.push(a);
                }
                panic!("the session died");
            }));
            assert!(unwound.is_err());
            assert!(
                dropped.load(Ordering::SeqCst),
                "the writer thread outlived its recorder"
            );
        });
    }

    #[test]
    fn writer_panic_resurfaces_at_finish() {
        // The header goes through; the first block write panics.
        let (sink, dropped) = Sink::new(1);
        let text = within_a_minute(move || {
            let mut rec = TraceRecorder::spawn(TraceWriter::new(sink, 1).unwrap());
            for a in addrs(200_000) {
                rec.push(a);
            }
            assert_eq!(rec.records(), 200_000);
            let payload = catch_unwind(AssertUnwindSafe(move || rec.finish(1)))
                .expect_err("the writer's panic must reach the caller");
            assert!(dropped.load(Ordering::SeqCst), "the writer was joined");
            panic_text(&*payload)
        });
        assert_eq!(text, "the sink exploded");
    }

    #[test]
    fn records_the_parameterised_workload() {
        use crate::runner::Sizes;
        let scenario = Scenario::builder()
            .config_name("C1")
            .workload_name("Radix")
            .workload_params(serde_json::json!({"keys": 1024, "radix": 16, "key_bits": 8}))
            .size(Sizes::Small)
            .build()
            .unwrap();
        let path = scratch("params");
        let summary = record_scenario(&scenario, &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let run = scenario.run().run;
        // 1 Ki 8-bit keys, not the 16 Ki keys of the stock small Radix.
        assert_eq!(run.report.total_refs, 14_528);
        assert_eq!(summary.records, run.report.total_refs);
        assert_eq!(
            summary.total_instructions,
            run.counters.total_instructions()
        );
    }
}
