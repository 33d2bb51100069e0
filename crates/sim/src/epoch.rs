//! The intra-scenario parallel engine: simulated processors sharded
//! across host worker threads under deterministic epoch barriers.
//!
//! Selected only with [`SimSession::sim_threads`](crate::SimSession::sim_threads):
//! no scenario, sweep, flag or `memhierd` request reaches it, so every
//! user path runs the classic engine.  It remains as the subject of the
//! ledger benchmark's `sim.replay_epoch{1,2}_ns_per_ref` metrics and is
//! to be deleted, with `SimSession::sim_threads` and the
//! `thread_invariance` tests, in the next change to that benchmark.
//!
//! `sim_threads = 0` keeps the classic conservative engine in
//! `engine.rs`; any `n ≥ 1` runs
//! **this** engine, and — crucially — runs the *same algorithm* for every
//! `n`.  The thread count only chooses how the per-processor work of a
//! phase is distributed over host threads; no simulated decision ever
//! reads it.  Reports and observer streams are therefore byte-identical
//! across `sim_threads ∈ {1, 2, 8, …}` (pinned by the `thread_invariance`
//! differential tests in `crates/bench`).
//!
//! # The epoch algorithm
//!
//! Simulated time advances in fixed **epochs** of [`EPOCH_CYCLES`].
//! Within an epoch the engine alternates two phases until every live
//! processor has reached the epoch horizon:
//!
//! * **Phase A (parallel)** — each processor independently replays its
//!   stream: compute events advance its clock, and memory references are
//!   classified against *its own cache only* (a non-mutating probe).
//!   References that resolve entirely locally — any read hit, or a write
//!   hit on a Modified line — are applied on the spot (LRU refresh, clock
//!   advance).  Anything that would touch shared coherence state (a miss,
//!   a Shared/Exclusive write, a barrier) **parks** the processor on that
//!   pending event.  Processors touch disjoint state, so shards run on
//!   worker threads with no locks.
//! * **Phase B (serial)** — all parked coherence events are processed in
//!   `(issue clock, processor)` order through the full backend — the
//!   batched coherence exchange at the epoch barrier.  Processors whose
//!   event resolved below the horizon rejoin Phase A in the next round.
//!
//! Barriers release exactly as in the classic engine: once every
//! unfinished processor is parked at the barrier, clocks align to the
//! latest arrival.
//!
//! # Semantics
//!
//! Phase A's speculation means another processor's invalidation lands at
//! the next round boundary rather than between two hits of a run, so
//! epoch-engine reports can differ (slightly, and deterministically) from
//! the classic engine's.  The pinned contract is **thread-count
//! invariance**, not classic-equivalence; `sim_threads` unset/0 preserves
//! the classic results bit-for-bit.
//!
//! Channel sources are fully drained into memory up front (one drainer
//! thread per channel, so producers' real barriers can't deadlock against
//! a serial drain) — batching is invisible here by construction.

use crate::backend::ClusterBackend;
use crate::cache::{LineState, SetAssocCache};
use crate::engine::{ProcSource, SessionOutput};
use crate::event::MemEvent;
use crate::observe::{AccessObservation, BarrierObservation, ServiceLevel, SimObserver};
use crate::report::{LevelCounts, SimReport};
use std::sync::{Arc, Condvar, Mutex};

/// Epoch width in simulated cycles.  A fixed constant: results must not
/// depend on the host, only on the stream and the backend.
pub const EPOCH_CYCLES: u64 = 8192;

/// One L1 hit applied speculatively in Phase A, recorded (observer runs
/// only) so the serial phase can emit its observation in deterministic
/// order.
#[derive(Clone, Copy)]
struct HitRec {
    clock: u64,
    addr: u64,
    write: bool,
}

/// Per-processor replay state for the epoch engine.  The event stream is
/// fully materialized, so Phase A is pure slice-cursor work.
struct EpochProc {
    events: Arc<[MemEvent]>,
    pos: usize,
    clock: u64,
    instructions: u64,
    refs: u64,
    finished: bool,
    at_barrier: bool,
    /// Coherence event deferred to Phase B: `(addr, write)` issued at
    /// `clock`.
    pending: Option<(u64, bool)>,
    /// L1 hits applied this round (fast path — just a count).
    hits: u64,
    /// L1 hits applied this round (observer path — full records).
    hit_records: Vec<HitRec>,
}

impl EpochProc {
    fn new(events: Arc<[MemEvent]>) -> Self {
        EpochProc {
            events,
            pos: 0,
            clock: 0,
            instructions: 0,
            refs: 0,
            finished: false,
            at_barrier: false,
            pending: None,
            hits: 0,
            hit_records: Vec::new(),
        }
    }

    /// Runnable in Phase A of the current round.
    #[inline]
    fn runnable(&self, horizon: u64) -> bool {
        !self.finished && !self.at_barrier && self.pending.is_none() && self.clock < horizon
    }
}

/// Phase A for one processor: replay until the horizon, a deferred
/// coherence event, a barrier, or stream end.  Touches only this
/// processor's state and cache.
fn advance_proc(
    p: &mut EpochProc,
    cache: &mut SetAssocCache,
    horizon: u64,
    hit_lat: u64,
    observing: bool,
) {
    let events = p.events.clone();
    let events = &events[..];
    while p.clock < horizon {
        let Some(&e) = events.get(p.pos) else {
            p.finished = true;
            return;
        };
        match e {
            MemEvent::Read(a) | MemEvent::Write(a) => {
                let write = matches!(e, MemEvent::Write(_));
                // Classify with a non-mutating probe: `lookup` refreshes
                // LRU even on a miss, and a deferred event must reach the
                // backend's own `lookup` with the cache untouched.
                let local = match cache.probe(a) {
                    Some(_) if !write => true,
                    Some(LineState::Modified) => true,
                    _ => false,
                };
                if !local {
                    p.pending = Some((a, write));
                    p.pos += 1;
                    return;
                }
                cache.lookup(a);
                if observing {
                    p.hit_records.push(HitRec {
                        clock: p.clock,
                        addr: a,
                        write,
                    });
                } else {
                    p.hits += 1;
                }
                p.pos += 1;
                p.clock += 1 + hit_lat;
                p.instructions += 1;
                p.refs += 1;
            }
            MemEvent::Compute(k) => {
                p.pos += 1;
                p.clock += k as u64;
                p.instructions += k as u64;
            }
            MemEvent::Barrier => {
                p.pos += 1;
                p.at_barrier = true;
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool: persistent threads, condvar-blocked round handoff
// ---------------------------------------------------------------------------

/// Round release state, updated by the main thread under
/// [`RoundCtl::release`].
struct Release {
    /// Bumped by the main thread to release a Phase A round.
    round: u64,
    /// Horizon for the current round.
    horizon: u64,
    /// Set (with a final broadcast) to shut workers down.
    stop: bool,
}

/// Shared round-control block.  Raw pointers because the processor and
/// cache arrays live on the engine's stack for the whole run; the round
/// protocol guarantees workers only dereference them between a round
/// release and their own completion signal, while the main thread is
/// blocked waiting — so every access window is exclusive per shard.
///
/// Synchronization deliberately *blocks* rather than spins: idle workers
/// sleep on a condvar through the serial Phase B, so on hosts with fewer
/// cores than `sim_threads` (including single-core CI runners) they
/// never steal cycles from the main thread's work.
struct RoundCtl {
    /// Round release state; workers sleep on [`Self::released`].
    release: Mutex<Release>,
    released: Condvar,
    /// Count of workers finished with the current round; the main thread
    /// sleeps on [`Self::all_done`].
    done: Mutex<u64>,
    all_done: Condvar,
    /// `*mut EpochProc` of the processor array.
    procs: usize,
    /// `*mut SetAssocCache` of the per-processor cache array.
    caches: usize,
    /// Fixed disjoint `[start, end)` index range per shard; shard 0 is
    /// run by the main thread, shard `w + 1` by worker `w`.
    shards: Vec<(usize, usize)>,
    hit_lat: u64,
    observing: bool,
}

// SAFETY: the raw pointers are only dereferenced under the round protocol
// described on `RoundCtl`, which hands each shard's slice to exactly one
// thread at a time.
unsafe impl Send for RoundCtl {}
unsafe impl Sync for RoundCtl {}

impl RoundCtl {
    /// Run Phase A for one shard.
    ///
    /// # Safety
    ///
    /// Caller must hold the round protocol's exclusivity for `shard`:
    /// either it is the main thread between releasing a round and waiting
    /// for workers (shard 0), or a worker between observing the round
    /// bump and signalling `done`.
    unsafe fn run_shard(&self, shard: usize, horizon: u64) {
        let (start, end) = self.shards[shard];
        let procs = self.procs as *mut EpochProc;
        let caches = self.caches as *mut SetAssocCache;
        for i in start..end {
            let p = &mut *procs.add(i);
            if p.runnable(horizon) {
                advance_proc(
                    p,
                    &mut *caches.add(i),
                    horizon,
                    self.hit_lat,
                    self.observing,
                );
            }
        }
    }
}

/// The persistent worker pool.  Dropping it (including during a panic
/// unwind out of Phase B) stops and joins every worker before the arrays
/// the control block points into go away.
struct WorkerPool {
    ctl: Arc<RoundCtl>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(ctl: Arc<RoundCtl>) -> Self {
        let workers = ctl.shards.len() - 1;
        let handles = (0..workers)
            .map(|w| {
                let ctl = Arc::clone(&ctl);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        // Sleep until the next round (or shutdown).
                        let horizon = {
                            let mut g = ctl.release.lock().expect("release lock");
                            loop {
                                if g.stop {
                                    return;
                                }
                                if g.round != seen {
                                    seen = g.round;
                                    break g.horizon;
                                }
                                g = ctl.released.wait(g).expect("release wait");
                            }
                        };
                        // SAFETY: round protocol — the main thread bumped
                        // `round` and is now blocked on `done`, so this
                        // worker has exclusive access to shard w + 1.
                        unsafe { ctl.run_shard(w + 1, horizon) };
                        let mut d = ctl.done.lock().expect("done lock");
                        *d += 1;
                        if *d == workers as u64 {
                            ctl.all_done.notify_one();
                        }
                    }
                })
            })
            .collect();
        WorkerPool { ctl, handles }
    }

    /// Release one Phase A round and run the main thread's shard while the
    /// workers run theirs; returns once every shard is done.
    fn run_round(&self, horizon: u64) {
        let workers = (self.ctl.shards.len() - 1) as u64;
        if workers > 0 {
            let mut g = self.ctl.release.lock().expect("release lock");
            g.round += 1;
            g.horizon = horizon;
            drop(g);
            self.ctl.released.notify_all();
        }
        // SAFETY: round protocol — shard 0 belongs to the main thread for
        // the duration of the round.
        unsafe { self.ctl.run_shard(0, horizon) };
        if workers > 0 {
            let mut d = self.ctl.done.lock().expect("done lock");
            while *d < workers {
                d = self.ctl.all_done.wait(d).expect("done wait");
            }
            *d = 0;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut g) = self.ctl.release.lock() {
            g.stop = true;
        }
        self.ctl.released.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Source materialization
// ---------------------------------------------------------------------------

/// Drain every source into a flat trace.  Channels get one drainer thread
/// each: consuming them serially could deadlock against producers that
/// block on *real* barriers while a sibling's bounded channel is full.
fn materialize(sources: Vec<ProcSource>) -> Vec<Arc<[MemEvent]>> {
    enum Slot {
        Ready(Arc<[MemEvent]>),
        Draining(std::thread::JoinHandle<Vec<MemEvent>>),
    }
    let slots: Vec<Slot> = sources
        .into_iter()
        .map(|s| match s {
            ProcSource::InMemory(v) => Slot::Ready(Arc::from(v)),
            ProcSource::Shared(a) => Slot::Ready(a),
            ProcSource::Channel(rx) => Slot::Draining(std::thread::spawn(move || {
                let mut all = Vec::new();
                while let Ok(batch) = rx.recv() {
                    all.extend_from_slice(&batch);
                }
                all
            })),
        })
        .collect();
    slots
        .into_iter()
        .map(|s| match s {
            Slot::Ready(a) => a,
            Slot::Draining(h) => Arc::from(h.join().expect("source drainer panicked")),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// One entry of the serial phase's merged, `(clock, proc)`-ordered pass.
struct MergedEv {
    clock: u64,
    proc: usize,
    addr: u64,
    write: bool,
    deferred: bool,
}

struct EpochEngine {
    backend: ClusterBackend,
    procs: Vec<EpochProc>,
    observers: Vec<Box<dyn SimObserver>>,
    barriers: u64,
    barrier_wait: u64,
    last_counts: LevelCounts,
    hit_lat: u64,
}

/// Run a session on the epoch engine with `sim_threads` host threads.
pub(crate) fn run_epoch(
    backend: ClusterBackend,
    sources: Vec<ProcSource>,
    observers: Vec<Box<dyn SimObserver>>,
    sim_threads: usize,
) -> SessionOutput {
    assert_eq!(
        sources.len(),
        backend.total_procs(),
        "one event source per simulated processor"
    );
    let procs: Vec<EpochProc> = materialize(sources)
        .into_iter()
        .map(EpochProc::new)
        .collect();
    let hit_lat = backend.hit_latency();
    let mut engine = EpochEngine {
        backend,
        procs,
        observers,
        barriers: 0,
        barrier_wait: 0,
        last_counts: LevelCounts::default(),
        hit_lat,
    };
    engine.run(sim_threads);
    let (report, observers) = engine.finish();
    SessionOutput::from_parts(report, observers)
}

impl EpochEngine {
    fn run(&mut self, sim_threads: usize) {
        let n = self.procs.len();
        if n == 0 {
            return;
        }
        let shard_count = sim_threads.max(1).min(n);
        let mut shards = Vec::with_capacity(shard_count);
        let (base, rem) = (n / shard_count, n % shard_count);
        let mut at = 0usize;
        for s in 0..shard_count {
            let len = base + usize::from(s < rem);
            shards.push((at, at + len));
            at += len;
        }
        let observing = !self.observers.is_empty();
        let ctl = Arc::new(RoundCtl {
            release: Mutex::new(Release {
                round: 0,
                horizon: 0,
                stop: false,
            }),
            released: Condvar::new(),
            done: Mutex::new(0),
            all_done: Condvar::new(),
            procs: self.procs.as_mut_ptr() as usize,
            caches: self.backend.caches_mut().as_mut_ptr() as usize,
            shards,
            hit_lat: self.hit_lat,
            observing,
        });
        let pool = WorkerPool::spawn(ctl);

        loop {
            let Some(base_clock) = self
                .procs
                .iter()
                .filter(|p| !p.finished && !p.at_barrier)
                .map(|p| p.clock)
                .min()
            else {
                // No processor can advance on its own; a pending barrier
                // (possibly completed by a finishing processor) is the
                // only way forward.
                if self.barrier_ready() {
                    self.release_barrier();
                    continue;
                }
                break;
            };
            let horizon = base_clock + EPOCH_CYCLES;
            // Inner rounds: Phase A fan-out, serial Phase B, barrier
            // check — until no live processor remains below the horizon.
            loop {
                if self.procs.iter().any(|p| p.runnable(horizon)) {
                    pool.run_round(horizon);
                }
                self.serial_phase();
                if self.barrier_ready() {
                    self.release_barrier();
                }
                let more = self.procs.iter().any(|p| p.runnable(horizon));
                if !more {
                    break;
                }
            }
        }
        drop(pool);
    }

    /// Phase B plus observation fan-out: apply the round's speculative
    /// hit counts, then process every deferred coherence event through
    /// the full backend in `(issue clock, processor)` order.
    fn serial_phase(&mut self) {
        if self.observers.is_empty() {
            let mut hits = 0u64;
            let mut deferred: Vec<(u64, usize)> = Vec::new();
            for (i, p) in self.procs.iter_mut().enumerate() {
                hits += p.hits;
                p.hits = 0;
                if p.pending.is_some() {
                    deferred.push((p.clock, i));
                }
            }
            self.backend.add_l1_hits(hits);
            deferred.sort_unstable();
            for (clock, i) in deferred {
                let (addr, write) = self.procs[i].pending.take().expect("deferred event");
                let lat = self.backend.access(i, addr, write, clock);
                let p = &mut self.procs[i];
                p.clock = clock + 1 + lat;
                p.instructions += 1;
                p.refs += 1;
            }
            return;
        }
        // Observer path: merge hits and deferred events into one ordered
        // pass so the observation stream is a pure function of the
        // algorithm (per-processor clocks strictly increase between
        // records, so `(clock, proc)` totally orders a round).
        let mut merged: Vec<MergedEv> = Vec::new();
        for (i, p) in self.procs.iter_mut().enumerate() {
            for r in p.hit_records.drain(..) {
                merged.push(MergedEv {
                    clock: r.clock,
                    proc: i,
                    addr: r.addr,
                    write: r.write,
                    deferred: false,
                });
            }
            if let Some((addr, write)) = p.pending {
                merged.push(MergedEv {
                    clock: p.clock,
                    proc: i,
                    addr,
                    write,
                    deferred: true,
                });
            }
        }
        merged.sort_unstable_by_key(|e| (e.clock, e.proc));
        for e in merged {
            if e.deferred {
                self.procs[e.proc].pending = None;
                let lat = self.backend.access(e.proc, e.addr, e.write, e.clock);
                let p = &mut self.procs[e.proc];
                p.clock = e.clock + 1 + lat;
                p.instructions += 1;
                p.refs += 1;
                self.notify_access(e.proc, e.addr, e.write, e.clock, lat);
            } else {
                self.backend.add_l1_hits(1);
                self.notify_access(e.proc, e.addr, e.write, e.clock, self.hit_lat);
            }
        }
    }

    /// Snapshot the backend around the access just completed and fan it
    /// out to every observer (mirrors the classic engine's snapshots).
    fn notify_access(&mut self, proc: usize, addr: u64, write: bool, issue_clock: u64, lat: u64) {
        let counts = self.backend.counts();
        let obs = AccessObservation {
            proc,
            addr,
            write,
            issue_clock,
            complete_clock: issue_clock + 1 + lat,
            mem_cycles: lat,
            level: ServiceLevel::classify(&self.last_counts, &counts),
            paged: counts.disk > self.last_counts.disk,
            upgraded: counts.upgrades > self.last_counts.upgrades,
            counts,
            traffic: self.backend.traffic(),
            bus_busy_cycles: self.backend.total_bus_busy_cycles(),
            network_busy_cycles: self.backend.network_busy_cycles(),
            io_busy_cycles: self.backend.total_io_busy_cycles(),
        };
        self.last_counts = counts;
        for o in &mut self.observers {
            o.on_access(&obs);
        }
    }

    /// Whether every unfinished processor is parked at the barrier.
    fn barrier_ready(&self) -> bool {
        let mut any = false;
        for p in &self.procs {
            if p.finished {
                continue;
            }
            if !p.at_barrier {
                return false;
            }
            any = true;
        }
        any
    }

    /// Release a resolved barrier: align every parked clock to the latest
    /// arrival, exactly as the classic engine does.
    fn release_barrier(&mut self) {
        let max = self
            .procs
            .iter()
            .filter(|p| p.at_barrier)
            .map(|p| p.clock)
            .max()
            .expect("at least one process at the barrier");
        self.barriers += 1;
        let observing = !self.observers.is_empty();
        let mut waits: Vec<(usize, u64)> = Vec::new();
        for (i, p) in self.procs.iter_mut().enumerate() {
            if p.at_barrier {
                self.barrier_wait += max - p.clock;
                if observing {
                    waits.push((i, max - p.clock));
                }
                p.clock = max;
                p.at_barrier = false;
            }
        }
        if observing {
            let obs = BarrierObservation {
                release_clock: max,
                waits: &waits,
            };
            for o in &mut self.observers {
                o.on_barrier(&obs);
            }
        }
    }

    fn finish(mut self) -> (SimReport, Vec<Box<dyn SimObserver>>) {
        let proc_cycles: Vec<u64> = self.procs.iter().map(|p| p.clock).collect();
        let wall = proc_cycles.iter().copied().max().unwrap_or(0);
        let total_instructions: u64 = self.procs.iter().map(|p| p.instructions).sum();
        let total_refs: u64 = self.procs.iter().map(|p| p.refs).sum();
        let e_cycles = if total_instructions == 0 {
            0.0
        } else {
            wall as f64 / total_instructions as f64
        };
        let report = SimReport {
            wall_cycles: wall,
            proc_cycles,
            total_instructions,
            total_refs,
            e_instr_cycles: e_cycles,
            e_instr_seconds: e_cycles / self.backend.clock_hz(),
            levels: self.backend.counts(),
            traffic: self.backend.traffic(),
            barriers: self.barriers,
            barrier_wait_cycles: self.barrier_wait,
            bus_busy_cycles: self.backend.bus_busy_cycles(),
            network_busy_cycles: self.backend.network_busy_cycles(),
            io_busy_cycles: self.backend.io_busy_cycles(),
        };
        for o in &mut self.observers {
            o.on_finish(&report);
        }
        (report, self.observers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimSession;
    use crate::homemap::HomeMap;
    use crate::observe::TimeSeriesCollector;
    use memhier_core::machine::{LatencyParams, MachineSpec, NetworkKind};
    use memhier_core::platform::ClusterSpec;

    fn smp_backend(n: u32) -> ClusterBackend {
        let c = ClusterSpec::single(MachineSpec::new(n, 256, 64, 200.0));
        ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(1, 256))
    }

    fn clump_backend() -> ClusterBackend {
        let c = ClusterSpec::cluster(MachineSpec::new(2, 64, 32, 200.0), 2, NetworkKind::Atm155);
        ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(2, 256))
    }

    fn mixed_events(p: u64, refs: u64) -> Vec<MemEvent> {
        (0..refs)
            .map(|i| match i % 4 {
                0 => MemEvent::Write((p * 7 + i) * 72 % (1 << 18)),
                1 => MemEvent::Compute(5),
                _ => MemEvent::Read((p * 13 + i) * 40 % (1 << 18)),
            })
            .chain([MemEvent::Barrier])
            .chain((0..refs / 2).map(|i| MemEvent::Read(i * 64 % (1 << 16))))
            .collect()
    }

    fn run_with(backend: ClusterBackend, procs: u64, threads: usize) -> SimReport {
        let sources = (0..procs)
            .map(|p| ProcSource::from_events(mixed_events(p, 600)))
            .collect();
        SimSession::new(backend)
            .with_sources(sources)
            .sim_threads(threads)
            .run()
            .report
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let smp = run_with(smp_backend(4), 4, 1);
        for t in [2, 3, 8] {
            assert_eq!(run_with(smp_backend(4), 4, t), smp, "smp @ {t} threads");
        }
        let clump = run_with(clump_backend(), 4, 1);
        for t in [2, 8] {
            assert_eq!(
                run_with(clump_backend(), 4, t),
                clump,
                "clump @ {t} threads"
            );
        }
    }

    #[test]
    fn observer_stream_is_thread_invariant() {
        let observed = |threads: usize| {
            let sources = (0..4u64)
                .map(|p| ProcSource::from_events(mixed_events(p, 400)))
                .collect();
            let out = SimSession::new(smp_backend(4))
                .with_sources(sources)
                .sim_threads(threads)
                .observe(TimeSeriesCollector::new(5_000))
                .run();
            let series = out
                .observer::<TimeSeriesCollector>()
                .unwrap()
                .series()
                .clone();
            (out.report, series)
        };
        let one = observed(1);
        assert!(!one.1.windows.is_empty());
        assert_eq!(observed(2), one);
        assert_eq!(observed(8), one);
    }

    #[test]
    fn totals_match_the_classic_engine_on_conflict_free_streams() {
        // With a single processor there is no cross-processor coherence to
        // speculate through, so the epoch engine must agree with the
        // classic engine exactly.
        let events: Vec<MemEvent> = (0..2000u64)
            .map(|i| match i % 3 {
                0 => MemEvent::Write(i * 48 % (1 << 20)),
                1 => MemEvent::Compute(2),
                _ => MemEvent::Read(i * 56 % (1 << 20)),
            })
            .collect();
        let classic = SimSession::new(smp_backend(1))
            .with_sources(vec![ProcSource::from_events(events.clone())])
            .run()
            .report;
        let epoch = SimSession::new(smp_backend(1))
            .with_sources(vec![ProcSource::from_events(events)])
            .sim_threads(4)
            .run()
            .report;
        assert_eq!(classic, epoch);
    }

    #[test]
    fn barrier_aligns_clocks_like_classic() {
        let s0 = vec![
            MemEvent::Compute(1000),
            MemEvent::Barrier,
            MemEvent::Compute(5),
        ];
        let s1 = vec![
            MemEvent::Compute(10),
            MemEvent::Barrier,
            MemEvent::Compute(5),
        ];
        let r = SimSession::new(smp_backend(2))
            .with_sources(vec![
                ProcSource::from_events(s0),
                ProcSource::from_events(s1),
            ])
            .sim_threads(2)
            .run()
            .report;
        assert_eq!(r.wall_cycles, 1005);
        assert_eq!(r.proc_cycles, vec![1005, 1005]);
        assert_eq!(r.barriers, 1);
        assert_eq!(r.barrier_wait_cycles, 990);
    }

    #[test]
    fn channel_sources_are_predrained() {
        use crossbeam::channel;
        let mut sources = Vec::new();
        let mut handles = Vec::new();
        for p in 0..2u64 {
            let (tx, rx) = channel::bounded::<Vec<MemEvent>>(2);
            let evs = mixed_events(p, 300);
            handles.push(std::thread::spawn(move || {
                for piece in evs.chunks(7) {
                    tx.send(piece.to_vec()).unwrap();
                }
                tx.send(Vec::new()).unwrap();
            }));
            sources.push(ProcSource::Channel(rx));
        }
        let chunked = SimSession::new(smp_backend(2))
            .with_sources(sources)
            .sim_threads(2)
            .run()
            .report;
        for h in handles {
            h.join().unwrap();
        }
        let in_memory = SimSession::new(smp_backend(2))
            .with_sources(
                (0..2u64)
                    .map(|p| ProcSource::from_events(mixed_events(p, 300)))
                    .collect(),
            )
            .sim_threads(2)
            .run()
            .report;
        assert_eq!(chunked, in_memory);
    }

    #[test]
    fn epoch_boundary_straddling_stream() {
        // A compute burst that jumps far past several epoch horizons, then
        // more memory work: the epoch loop must re-anchor and finish.
        let events: Vec<MemEvent> = [MemEvent::Compute(100)]
            .into_iter()
            .chain((0..50u64).map(|i| MemEvent::Read(i * 64)))
            .chain([MemEvent::Compute(10 * EPOCH_CYCLES as u32)])
            .chain((0..50u64).map(|i| MemEvent::Write(i * 64)))
            .collect();
        let r = SimSession::new(smp_backend(1))
            .with_sources(vec![ProcSource::from_events(events)])
            .sim_threads(2)
            .run()
            .report;
        assert_eq!(r.total_refs, 100);
        assert!(r.wall_cycles > 10 * EPOCH_CYCLES);
    }
}
