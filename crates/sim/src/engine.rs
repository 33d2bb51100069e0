//! The program-driven SPMD execution engine.
//!
//! Each logical processor's instruction stream arrives as a sequence of
//! [`MemEvent`]s, either in memory or over a bounded
//! [`batch_channel`](crate::event::batch_channel) from a live workload
//! thread.  The engine advances processors in **simulated
//! time order** (a conservative discrete-event loop keyed on per-processor
//! clocks), so shared-resource queueing in the backend sees requests in the
//! order the simulated machine would issue them.
//!
//! The hot loop replays events in **chunks**: each processor's stream is a
//! flat buffer consumed by cursor (no per-event queue traffic), and the
//! scheduler is a linear scan over per-processor ready clocks that also
//! returns the *runner-up*.  The winning processor then replays a whole
//! run of events inline, and a run ends at the processor's next
//! **coherence event**, not at the runner-up's clock:
//!
//! * up to the runner-up's clock every event runs, exactly as a per-event
//!   priority queue would order it (min `(clock, index)` first);
//! * past it the run continues through *private* events only — Compute,
//!   a read hit in any state, a write hit on a Modified line — while
//!   `(clock, i) < (H_k, k)` holds for every other runnable processor
//!   `k`, where `H_k` is a lower bound on the issue clock of `k`'s next
//!   non-private event, found by probing `k`'s own cache over its
//!   buffered events.
//!
//! Under write-invalidate a private event touches nothing but the issuing
//! processor's own LRU stamps and the commutative L1-hit count, and no
//! other processor's state-changing event can fall before it, so the
//! result is bit-identical to the per-event order.  Misses, upgrades and
//! every observed run keep that exact order; barrier arrival is
//! order-free, since release waits for every processor.
//!
//! The entry point is the [`SimSession`] builder: backend + one source per
//! processor + any number of [`SimObserver`] taps.  Observed and
//! unobserved runs share one replay loop, instantiated twice: the
//! unobserved copy contains no observer code at all, and the observed one
//! hands each access to the observers as an
//! [`AccessObservation`](crate::observe::AccessObservation) that reads the
//! backend only when an observer asks — observability is strictly
//! pay-for-what-you-use.
//!
//! **Barrier contract:** a workload thread must emit
//! [`MemEvent::BARRIER`] (and flush its batch) *before* blocking on any
//! real synchronization.  The engine parks a process at a barrier and
//! releases all of them — clocks aligned to the latest arrival — once every
//! unfinished process has arrived.  Violating the contract can deadlock the
//! engine against the workload threads (see `memhier-workloads`' `SpmdCtx`,
//! which upholds it).

use crate::backend::ClusterBackend;
use crate::cache::SetAssocCache;
use crate::event::{BatchReceiver, MemEvent};
use crate::observe::{Observers, SimObserver};
use crate::report::SimReport;
use std::sync::Arc;

/// Where a logical processor's events come from.
pub enum ProcSource {
    /// A pre-materialized event list (tests, small traces).
    InMemory(Vec<MemEvent>),
    /// A pre-materialized event list shared by reference count — replaying
    /// the same trace across many runs (benchmarks, sweeps over platform
    /// configurations) costs a pointer copy instead of cloning the whole
    /// buffer each time.
    Shared(Arc<[MemEvent]>),
    /// Batches streamed from a live workload thread.
    ///
    /// **Each channel must have its own producer thread** (the `spmd`
    /// harness guarantees this).  The engine consumes processors in
    /// simulated-time order and *blocks* on the laggard's channel; a single
    /// producer feeding several bounded channels can deadlock against that
    /// order when another processor's queue fills.
    ///
    /// With one producer per channel the engine cannot deadlock against
    /// the producers, however shallow the channels are:
    ///
    /// * the engine blocks only in `recv` on an *empty* channel;
    /// * an empty channel's producer is never blocked in `send` (a
    ///   blocked sender is released by the time its queue drains to
    ///   half, so before it empties), so it is generating or waiting at
    ///   a real barrier;
    /// * a producer waiting at a real barrier has already flushed its
    ///   [`MemEvent::BARRIER`] (the barrier contract above), so the
    ///   engine parks that processor at the simulated barrier before it
    ///   needs the channel again, and serves the others until every
    ///   producer has arrived and the real barrier opens.
    ///
    /// The engine hands each spent batch back before it takes the next,
    /// so a producer refills it instead of allocating.  That return path
    /// never blocks either side, so it adds no wait to the argument.
    Channel(BatchReceiver),
}

impl ProcSource {
    /// Wrap an event vector.
    pub fn from_events(events: Vec<MemEvent>) -> Self {
        ProcSource::InMemory(events)
    }

    /// Wrap a shared event buffer (cheap to clone per replay).
    pub fn shared(events: Arc<[MemEvent]>) -> Self {
        ProcSource::Shared(events)
    }
}

/// A replay buffer the engine consumes by cursor — either an owned batch
/// or a refcounted shared trace.  Never popped element-by-element.
enum ReplayBuf {
    Owned(Vec<MemEvent>),
    Shared(Arc<[MemEvent]>),
}

impl ReplayBuf {
    #[inline]
    fn as_slice(&self) -> &[MemEvent] {
        match self {
            ReplayBuf::Owned(v) => v,
            ReplayBuf::Shared(s) => s,
        }
    }
}

struct ProcState {
    /// Live producer channel; dropped once it disconnects.
    channel: Option<BatchReceiver>,
    /// Current replay buffer, consumed by cursor.
    buf: ReplayBuf,
    pos: usize,
    clock: u64,
    instructions: u64,
    refs: u64,
    finished: bool,
    at_barrier: bool,
    /// This processor's horizon, as other processors' runs see it.
    ahead: Lookahead,
    /// Backs off this processor's own run-ahead attempts after ones that
    /// gained nothing.
    run_ahead: Backoff,
}

/// Events one lookahead request reads at most before it settles for the
/// bound it has; a later request goes on from there.
const SCAN_EVENTS: usize = 128;

/// A fresh scan that stops within this many events counts as a failure
/// for the lookahead's backoff.
const SHORT_SCAN: usize = 4;

/// Most requests one backoff declines in a row.
const MAX_BACKOFF: u32 = 64;

/// Exponential backoff: after a failure the next 1, 3, 7, … (at most
/// [`MAX_BACKOFF`]) requests are declined; a success resets it.
#[derive(Default)]
struct Backoff {
    level: u32,
    skip: u32,
}

impl Backoff {
    /// Whether to decline this request, counting it against the skip.
    #[inline]
    fn declines(&mut self) -> bool {
        let decline = self.skip > 0;
        self.skip -= decline as u32;
        decline
    }

    fn record(&mut self, success: bool) {
        if success {
            self.level = 0;
        } else {
            self.level = (2 * self.level + 1).min(MAX_BACKOFF);
            self.skip = self.level;
        }
    }
}

/// A processor's cached horizon: every buffered event from its cursor up
/// to `pos` is private, so its next non-private event issues at `clock`
/// or later.
///
/// The cache stays valid while the processor's clock is below `clock`
/// (it has not reached `pos`, so it has not refilled its buffer either)
/// and its L1 has made no state change since the scan (`changes`).  A
/// private event's outcome depends on nothing else.
#[derive(Default)]
struct Lookahead {
    pos: usize,
    clock: u64,
    /// The L1's [`SetAssocCache::changes`] reading the scan was made under.
    changes: u64,
    /// Whether the scan may go on from `pos`: false once it met a
    /// non-private event, a barrier or the end of the buffer.
    open: bool,
    /// Declines fresh scans after ones that stopped within [`SHORT_SCAN`]
    /// events; a declined request answers with the processor's clock.
    backoff: Backoff,
}

/// Whether `e` is private for the processor owning `cache`: Compute, a
/// read hit, or a write hit on a Modified line.
#[inline(always)]
fn is_private(cache: &SetAssocCache, e: MemEvent) -> bool {
    match e.address() {
        Some(a) => cache.is_private_hit(a, e.is_write()),
        None => !e.is_barrier(),
    }
}

/// Lower bound on the issue clock of `p`'s next non-private event, given
/// its L1 `cache` (see [`Lookahead`]).  Read-only on the simulated state.
fn horizon(p: &mut ProcState, cache: &SetAssocCache, hit_lat: u64) -> u64 {
    let la = &mut p.ahead;
    let fresh = la.changes != cache.changes() || la.clock <= p.clock;
    if fresh {
        if la.backoff.declines() {
            return p.clock;
        }
        la.pos = p.pos;
        la.clock = p.clock;
        la.changes = cache.changes();
        la.open = true;
    }
    if !la.open {
        return la.clock;
    }
    let slice = p.buf.as_slice();
    let start = la.pos;
    let end = slice.len().min(start + SCAN_EVENTS);
    let mut clock = la.clock;
    let mut q = start;
    while q < end && is_private(cache, slice[q]) {
        clock += match slice[q].compute_count() {
            Some(k) => k as u64,
            None => 1 + hit_lat,
        };
        q += 1;
    }
    la.open = q == end && q < slice.len();
    la.pos = q;
    la.clock = clock;
    if fresh {
        la.backoff.record(la.open || q - start >= SHORT_SCAN);
    }
    clock
}

impl ProcState {
    fn new(source: ProcSource) -> Self {
        let (channel, buf) = match source {
            ProcSource::InMemory(events) => (None, ReplayBuf::Owned(events)),
            ProcSource::Shared(events) => (None, ReplayBuf::Shared(events)),
            ProcSource::Channel(rx) => (Some(rx), ReplayBuf::Owned(Vec::new())),
        };
        ProcState {
            channel,
            buf,
            pos: 0,
            clock: 0,
            instructions: 0,
            refs: 0,
            finished: false,
            at_barrier: false,
            ahead: Lookahead::default(),
            run_ahead: Backoff::default(),
        }
    }
}

/// Builder for one simulated run: a backend, one event source per
/// processor, and optional [`SimObserver`] taps.
///
/// ```no_run
/// use memhier_sim::{ProcSource, SimSession, TimeSeriesCollector};
/// # fn demo(backend: memhier_sim::ClusterBackend, sources: Vec<ProcSource>) {
/// let out = SimSession::new(backend)
///     .with_sources(sources)
///     .observe(TimeSeriesCollector::new(100_000))
///     .run();
/// println!("wall = {} cycles", out.report.wall_cycles);
/// let series = out.observer::<TimeSeriesCollector>().unwrap().series();
/// println!("{} windows", series.windows.len());
/// # }
/// ```
pub struct SimSession {
    backend: ClusterBackend,
    sources: Vec<ProcSource>,
    observers: Vec<Box<dyn SimObserver>>,
    sim_threads: usize,
}

impl SimSession {
    /// Start a session on `backend` with no sources and no observers.
    pub fn new(backend: ClusterBackend) -> Self {
        SimSession {
            backend,
            sources: Vec::new(),
            observers: Vec::new(),
            sim_threads: 0,
        }
    }

    /// Set the event sources; length must equal the backend's processor
    /// count by the time [`SimSession::run`] is called.
    pub fn with_sources(mut self, sources: Vec<ProcSource>) -> Self {
        self.sources = sources;
        self
    }

    /// Append a single event source.
    pub fn source(mut self, source: ProcSource) -> Self {
        self.sources.push(source);
        self
    }

    /// Attach an observer.  Observers receive read-only snapshots and can
    /// never perturb simulated time.
    pub fn observe<O: SimObserver>(mut self, observer: O) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attach an already-boxed observer (for dynamic configurations).
    pub fn observe_boxed(mut self, observer: Box<dyn SimObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Select the engine: `0` (the default) runs the classic conservative
    /// engine in this module; any `n ≥ 1` runs the epoch-parallel engine
    /// (see [`crate::epoch`]) with `n` host threads.  The epoch engine's
    /// results are identical for every `n` — the thread count is a host
    /// resource knob, never a simulated parameter.  Nothing above this
    /// crate selects it but the ledger benchmark and its invariance test.
    pub fn sim_threads(mut self, threads: usize) -> Self {
        self.sim_threads = threads;
        self
    }

    /// Run to completion.  Panics unless `sources.len()` equals the
    /// backend's processor count.
    pub fn run(self) -> SessionOutput {
        if self.sim_threads > 0 {
            return crate::epoch::run_epoch(
                self.backend,
                self.sources,
                self.observers,
                self.sim_threads,
            );
        }
        let engine = Engine::build(self.backend, self.sources, self.observers);
        let (report, observers) = engine.run_inner();
        SessionOutput { report, observers }
    }
}

/// Result of [`SimSession::run`]: the final report plus the observers,
/// ready to be downcast back to their concrete types.
pub struct SessionOutput {
    /// The end-of-run aggregate report.
    pub report: SimReport,
    observers: Vec<Box<dyn SimObserver>>,
}

impl SessionOutput {
    /// Assemble an output from a finished engine's parts (epoch engine).
    pub(crate) fn from_parts(report: SimReport, observers: Vec<Box<dyn SimObserver>>) -> Self {
        SessionOutput { report, observers }
    }

    /// Borrow the first attached observer of concrete type `T`.
    pub fn observer<T: SimObserver>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref())
    }

    /// Mutably borrow the first attached observer of concrete type `T`.
    pub fn observer_mut<T: SimObserver>(&mut self) -> Option<&mut T> {
        self.observers
            .iter_mut()
            .find_map(|o| o.as_any_mut().downcast_mut())
    }

    /// Remove and return the first attached observer of concrete type
    /// `T`, yielding ownership — the escape hatch for observers holding
    /// resources that must be finalized (an open trace file, a socket).
    pub fn take_observer<T: SimObserver>(&mut self) -> Option<Box<T>> {
        let idx = self.observers.iter().position(|o| o.as_any().is::<T>())?;
        self.observers.swap_remove(idx).into_any().downcast().ok()
    }
}

/// Sentinel ready-clock for a processor that cannot run (finished or
/// parked at a barrier).  Simulated clocks never reach it.
const PARKED: u64 = u64::MAX;

/// Why a replay run ended.
enum RunEnd {
    /// Clock passed the runner-up; the processor stays runnable.
    Yield,
    /// Parked at a barrier.
    Barrier,
    /// Event stream exhausted.
    Finished,
}

/// The simulation engine: a backend plus one event source per processor.
/// Internal — drive it through [`SimSession`].
struct Engine {
    backend: ClusterBackend,
    procs: Vec<ProcState>,
    barriers: u64,
    barrier_wait: u64,
    observers: Observers,
}

impl Engine {
    fn build(
        backend: ClusterBackend,
        sources: Vec<ProcSource>,
        observers: Vec<Box<dyn SimObserver>>,
    ) -> Self {
        assert_eq!(
            sources.len(),
            backend.total_procs(),
            "one event source per simulated processor"
        );
        let procs = sources.into_iter().map(ProcState::new).collect();
        Engine {
            backend,
            procs,
            barriers: 0,
            barrier_wait: 0,
            observers: Observers::new(observers),
        }
    }

    /// Release a resolved barrier: align every parked clock to the latest
    /// arrival and resume (ready clocks in `keys` updated to match).
    fn release_barrier(&mut self, keys: &mut [u64]) {
        let max = self
            .procs
            .iter()
            .filter(|p| p.at_barrier)
            .map(|p| p.clock)
            .max()
            .expect("at least one process at the barrier");
        self.barriers += 1;
        let mut waits: Vec<(usize, u64)> = Vec::new();
        let observing = !self.observers.is_empty();
        for (i, p) in self.procs.iter_mut().enumerate() {
            if p.at_barrier {
                self.barrier_wait += max - p.clock;
                if observing {
                    waits.push((i, max - p.clock));
                }
                p.clock = max;
                p.at_barrier = false;
                keys[i] = max;
            }
        }
        if observing {
            self.observers.barrier(max, &waits);
        }
    }

    /// Whether every unfinished process is parked at the barrier.
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

    fn run_inner(mut self) -> (SimReport, Vec<Box<dyn SimObserver>>) {
        let observing = !self.observers.is_empty();
        // `keys[i]` is the simulated time at which processor i may next
        // act, or PARKED.  Processor count is small (the paper's platforms
        // top out at a few dozen), so a linear scan beats a heap — and one
        // scan yields both the lexicographic minimum of (clock, index) and
        // the runner-up, which bounds how long the winner may replay
        // events inline before any other processor could act.
        let mut keys: Vec<u64> = vec![0; self.procs.len()];
        loop {
            let mut bi = 0usize;
            let mut bc = PARKED;
            let mut si = 0usize;
            let mut sc = PARKED;
            for (j, &c) in keys.iter().enumerate() {
                if c < bc {
                    sc = bc;
                    si = bi;
                    bc = c;
                    bi = j;
                } else if c < sc {
                    sc = c;
                    si = j;
                }
            }
            if bc == PARKED {
                break;
            }
            let i = bi;
            debug_assert_eq!(self.procs[i].clock, bc);
            // Replay a run: processor i stays first in (clock, index)
            // order until its clock passes the runner-up's — no other
            // clock moves meanwhile, so this is exactly the order a
            // per-event priority queue would produce.  Unobserved, the
            // run then goes on through private events (see `run_ahead`);
            // observers see every access in strict `(clock, index)` order.
            let end = if observing {
                self.replay_observed(i, si, sc)
            } else {
                match self.replay::<false>(i, si, sc) {
                    RunEnd::Yield if !self.procs[i].run_ahead.declines() => {
                        self.run_ahead(i, si, &keys)
                    }
                    end => end,
                }
            };
            match end {
                RunEnd::Yield => keys[i] = self.procs[i].clock,
                RunEnd::Barrier | RunEnd::Finished => {
                    keys[i] = PARKED;
                    // A finishing process may complete a pending barrier.
                    if self.barrier_ready() {
                        self.release_barrier(&mut keys);
                    }
                }
            }
        }
        self.finish()
    }

    /// The hot loop: replay processor `i`'s events until it can no longer
    /// be first in `(clock, index)` order, with the proc state hoisted into
    /// locals and the buffer viewed as one slice.  With `OBSERVE` every
    /// access goes to the observers as it completes; without, the loop
    /// holds no observer code.
    ///
    /// The lexicographic continuation test `(clock, i) < (sc, si)`
    /// collapses to `clock <= limit` with `limit = sc` when `i < si` and
    /// `sc - 1` otherwise.  `sc - 1` cannot underflow: the scan only
    /// leaves `si < i` when the runner-up was a displaced earlier winner,
    /// which forces `sc` strictly above the winning clock, hence `sc >= 1`.
    #[inline(always)]
    fn replay<const OBSERVE: bool>(&mut self, i: usize, si: usize, sc: u64) -> RunEnd {
        let backend = &mut self.backend;
        let observers = &mut self.observers;
        let p = &mut self.procs[i];
        let mut clock = p.clock;
        let mut instructions = p.instructions;
        let mut refs = p.refs;
        let limit = if i < si { sc } else { sc - 1 };
        let end = 'run: loop {
            let slice = p.buf.as_slice();
            let mut pos = p.pos;
            while let Some(&e) = slice.get(pos) {
                pos += 1;
                // Memory references dominate the stream, so test for them
                // first, with one compare on the event word's top bit, then
                // tell a barrier from a compute run with a second: a
                // compare chain, not an indirect jump-table dispatch
                // (which mispredicts on mixed read/write/compute runs).
                if let Some(a) = e.address() {
                    // A memory instruction costs 1 cycle to execute (the
                    // paper's "one instruction execution: 1") plus the
                    // memory time returned by the backend (which includes
                    // the 1-cycle cache access) — exactly the model's
                    // `1/S + ρ·T` split.
                    let write = e.is_write();
                    let lat = backend.access(i, a, write, clock);
                    if OBSERVE {
                        observers.access(backend, i, a, write, clock, lat);
                    }
                    clock += 1 + lat;
                    instructions += 1;
                    refs += 1;
                } else if e.is_barrier() {
                    p.pos = pos;
                    p.at_barrier = true;
                    break 'run RunEnd::Barrier;
                } else {
                    let k = e.instructions();
                    clock += k;
                    instructions += k;
                }
                if clock > limit {
                    p.pos = pos;
                    break 'run RunEnd::Yield;
                }
            }
            p.pos = pos;
            match p.channel.as_ref() {
                None => {
                    p.finished = true;
                    break RunEnd::Finished;
                }
                Some(rx) => {
                    // Hand the spent batch back before taking the next, so
                    // the producer can refill it instead of allocating.
                    if let ReplayBuf::Owned(spent) =
                        std::mem::replace(&mut p.buf, ReplayBuf::Owned(Vec::new()))
                    {
                        rx.recycle(spent);
                    }
                    match rx.recv() {
                        Ok(batch) => {
                            // Empty batches (a producer-side flush with
                            // nothing pending) fall through to the next recv.
                            p.buf = ReplayBuf::Owned(batch);
                            p.pos = 0;
                        }
                        Err(_) => {
                            p.channel = None;
                            p.finished = true;
                            break RunEnd::Finished;
                        }
                    }
                }
            }
        };
        p.clock = clock;
        p.instructions = instructions;
        p.refs = refs;
        end
    }

    /// [`Engine::replay`] with observers, kept out of the scheduling loop
    /// so that the unobserved loop compiles as if it were alone.
    #[inline(never)]
    fn replay_observed(&mut self, i: usize, si: usize, sc: u64) -> RunEnd {
        self.replay::<true>(i, si, sc)
    }

    /// Carry processor `i` on past the classic limit through private
    /// events — Compute, a read hit, a write hit on a Modified line — while
    /// each one's issue clock `c` keeps `(c, i) < (H_k, k)` for every other
    /// runnable processor `k`.  Such an event touches only `i`'s own LRU
    /// stamps and the L1-hit count, and no other processor's
    /// state-changing event falls before it, so running it now instead of
    /// in `(clock, index)` order changes nothing.  The run ends at `i`'s
    /// next non-private event, at a barrier (arrival is order-free) or at
    /// the end of its buffer.
    ///
    /// The lookahead has to pay for itself: nothing is scanned unless the
    /// event that stopped the run is itself private, and attempts back
    /// off after ones that gained nothing (the caller asks the backoff
    /// first, so the scheduling loop inlines only that check).
    #[inline(never)]
    fn run_ahead(&mut self, i: usize, si: usize, keys: &[u64]) -> RunEnd {
        let p = &self.procs[i];
        let next = p.buf.as_slice().get(p.pos);
        if !next.is_some_and(|&e| is_private(self.backend.cache(i), e)) {
            return RunEnd::Yield;
        }
        let limit = self.run_ahead_limit(i, si, keys);
        let backend = &mut self.backend;
        let p = &mut self.procs[i];
        let slice = p.buf.as_slice();
        let mut pos = p.pos;
        let mut clock = p.clock;
        let mut instructions = p.instructions;
        let mut refs = p.refs;
        let mut end = RunEnd::Yield;
        while clock <= limit {
            let Some(&e) = slice.get(pos) else { break };
            if let Some(a) = e.address() {
                let Some(lat) = backend.private_hit(i, a, e.is_write()) else {
                    break;
                };
                clock += 1 + lat;
                instructions += 1;
                refs += 1;
            } else if e.is_barrier() {
                pos += 1;
                p.at_barrier = true;
                end = RunEnd::Barrier;
                break;
            } else {
                let k = e.instructions();
                clock += k;
                instructions += k;
            }
            pos += 1;
        }
        p.run_ahead.record(pos > p.pos);
        p.pos = pos;
        p.clock = clock;
        p.instructions = instructions;
        p.refs = refs;
        end
    }

    /// The latest issue clock `c` with `(c, i) < (H_k, k)` for every other
    /// runnable processor `k`.  The runner-up `si` binds most often, so its
    /// horizon comes first; a processor whose clock alone cannot lower the
    /// limit is never scanned, and the search stops once the limit falls
    /// below `i`'s clock.  `h - 1` cannot underflow: a runnable `k < i`
    /// lost the scheduling scan to `i`, so its clock, and `H_k`, are ≥ 1.
    fn run_ahead_limit(&mut self, i: usize, si: usize, keys: &[u64]) -> u64 {
        debug_assert!(si != i && keys[si] != PARKED);
        let hit_lat = self.backend.hit_latency();
        let bound = |h: u64, k: usize| if i < k { h } else { h - 1 };
        let clock = self.procs[i].clock;
        let mut limit = bound(
            horizon(&mut self.procs[si], self.backend.cache(si), hit_lat),
            si,
        );
        for (k, &key) in keys.iter().enumerate() {
            if clock > limit {
                break;
            }
            if k == i || k == si || key == PARKED || bound(key, k) >= limit {
                continue;
            }
            let h = horizon(&mut self.procs[k], self.backend.cache(k), hit_lat);
            limit = limit.min(bound(h, k));
        }
        limit
    }

    fn finish(self) -> (SimReport, Vec<Box<dyn SimObserver>>) {
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
        let observers = self.observers.finish(&report);
        (report, observers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{batch_channel, BatchSender};
    use crate::homemap::HomeMap;
    use crate::observe::{EventTracer, NopObserver, TimeSeriesCollector, TraceKind};
    use memhier_core::machine::{LatencyParams, MachineSpec};
    use memhier_core::platform::ClusterSpec;

    fn smp_backend(n: u32) -> ClusterBackend {
        let c = ClusterSpec::single(MachineSpec::new(n, 256, 64, 200.0));
        ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(1, 256))
    }

    fn run_sim(backend: ClusterBackend, sources: Vec<ProcSource>) -> SimReport {
        SimSession::new(backend).with_sources(sources).run().report
    }

    #[test]
    fn compute_only_stream() {
        let backend = smp_backend(1);
        let src = ProcSource::from_events(vec![MemEvent::compute(100), MemEvent::compute(50)]);
        let r = run_sim(backend, vec![src]);
        assert_eq!(r.wall_cycles, 150);
        assert_eq!(r.total_instructions, 150);
        assert_eq!(r.e_instr_cycles, 1.0);
        assert_eq!(r.total_refs, 0);
    }

    #[test]
    fn memory_latency_accumulates() {
        let backend = smp_backend(1);
        // Cold read: 1 + 50 + 2000; warm same-line read: 1.
        let src = ProcSource::from_events(vec![MemEvent::read(0), MemEvent::read(0)]);
        let r = run_sim(backend, vec![src]);
        // Cold: 1 (instr) + 2051 (mem).  Warm: 1 (instr) + 1 (hit).
        assert_eq!(r.wall_cycles, 2052 + 2);
        assert_eq!(r.total_refs, 2);
        assert_eq!(r.levels.l1_hits, 1);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let backend = smp_backend(2);
        // Proc 0 computes 1000, proc 1 computes 10; both barrier, then
        // each computes 5 more.
        let s0 = ProcSource::from_events(vec![
            MemEvent::compute(1000),
            MemEvent::BARRIER,
            MemEvent::compute(5),
        ]);
        let s1 = ProcSource::from_events(vec![
            MemEvent::compute(10),
            MemEvent::BARRIER,
            MemEvent::compute(5),
        ]);
        let r = run_sim(backend, vec![s0, s1]);
        assert_eq!(r.wall_cycles, 1005);
        assert_eq!(r.proc_cycles, vec![1005, 1005]);
        assert_eq!(r.barriers, 1);
        assert_eq!(r.barrier_wait_cycles, 990);
    }

    #[test]
    fn unbalanced_finish_releases_barrier() {
        // Proc 1 ends without reaching the barrier; proc 0 must still
        // complete (the barrier degenerates to a self-barrier).
        let backend = smp_backend(2);
        let s0 = ProcSource::from_events(vec![
            MemEvent::compute(10),
            MemEvent::BARRIER,
            MemEvent::compute(1),
        ]);
        let s1 = ProcSource::from_events(vec![MemEvent::compute(3)]);
        let r = run_sim(backend, vec![s0, s1]);
        assert_eq!(r.proc_cycles[0], 11);
        assert_eq!(r.barriers, 1);
    }

    #[test]
    fn channel_sources_stream() {
        // One producer thread per channel — the engine's documented
        // requirement (a single producer for several bounded channels can
        // deadlock against the engine's time-ordered consumption).
        let backend = smp_backend(2);
        let (tx0, rx0) = batch_channel(4);
        let (tx1, rx1) = batch_channel(4);
        let f0 = std::thread::spawn(move || {
            for i in 0..10u64 {
                tx0.send(vec![MemEvent::read(i * 64), MemEvent::compute(3)])
                    .unwrap();
            }
        });
        let f1 = std::thread::spawn(move || {
            for i in 0..10u64 {
                tx1.send(vec![MemEvent::read(i * 64 + 8192), MemEvent::compute(3)])
                    .unwrap();
            }
        });
        let r = run_sim(
            backend,
            vec![ProcSource::Channel(rx0), ProcSource::Channel(rx1)],
        );
        f0.join().unwrap();
        f1.join().unwrap();
        assert_eq!(r.total_refs, 20);
        assert_eq!(r.total_instructions, 20 + 60);
    }

    #[test]
    fn contention_visible_in_wall_clock() {
        // Two processors issuing simultaneous misses must take longer than
        // one processor issuing the same misses alone (bus queueing),
        // per-processor.  Address regions are disjoint (1 MB apart) so no
        // page or line is shared between processors.
        let mk = |n: u32, procs: usize| {
            let backend = smp_backend(n);
            let sources: Vec<ProcSource> = (0..procs)
                .map(|p| {
                    ProcSource::from_events(
                        (0..200u64)
                            .map(|i| MemEvent::read(p as u64 * (1 << 20) + i * 64))
                            .collect(),
                    )
                })
                .collect();
            run_sim(backend, sources)
        };
        let solo = mk(1, 1);
        let duo = mk(2, 2);
        // Per-proc time in the contended run exceeds the solo run.
        assert!(
            duo.proc_cycles[0] > solo.proc_cycles[0],
            "duo {} vs solo {}",
            duo.proc_cycles[0],
            solo.proc_cycles[0]
        );
    }

    #[test]
    fn e_instr_seconds_uses_clock() {
        let backend = smp_backend(1);
        let src = ProcSource::from_events(vec![MemEvent::compute(100)]);
        let r = run_sim(backend, vec![src]);
        assert!((r.e_instr_seconds - 1.0 / 2e8).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "one event source per")]
    fn source_count_checked() {
        let backend = smp_backend(2);
        let _ = SimSession::new(backend)
            .source(ProcSource::from_events(vec![]))
            .run();
    }

    /// Send `events` in `chunk`-sized batches, refilling the batches the
    /// consumer hands back, then an empty one.
    fn send_chunked(tx: BatchSender, events: &[MemEvent], chunk: usize) {
        for piece in events.chunks(chunk) {
            let mut batch = tx.reuse().unwrap_or_default();
            batch.extend_from_slice(piece);
            tx.send(batch).unwrap();
        }
        tx.send(Vec::new()).unwrap();
    }

    #[test]
    fn chunk_size_invariance() {
        // Results must not depend on how the event stream is batched:
        // chunk=1 over a channel ≡ chunk=4096 ≡ one in-memory vector.
        let events = |p: u64| -> Vec<MemEvent> {
            (0..500u64)
                .map(|i| match i % 4 {
                    0 => MemEvent::write(p * (1 << 20) + i * 8),
                    1 => MemEvent::compute(7),
                    _ => MemEvent::read(p * (1 << 20) + i * 32),
                })
                .chain([MemEvent::BARRIER])
                .chain((0..100u64).map(|i| MemEvent::read(i * 64)))
                .collect()
        };
        let chunked = |chunk: usize| -> SimReport {
            let mut sources = Vec::new();
            let mut handles = Vec::new();
            for p in 0..2u64 {
                let (tx, rx) = batch_channel(4);
                let evs = events(p);
                // An empty trailing flush must be invisible.
                handles.push(std::thread::spawn(move || send_chunked(tx, &evs, chunk)));
                sources.push(ProcSource::Channel(rx));
            }
            let r = run_sim(smp_backend(2), sources);
            for h in handles {
                h.join().unwrap();
            }
            r
        };
        let in_memory = run_sim(
            smp_backend(2),
            vec![
                ProcSource::from_events(events(0)),
                ProcSource::from_events(events(1)),
            ],
        );
        assert_eq!(chunked(1), in_memory);
        assert_eq!(chunked(4096), in_memory);
        // A refcount-shared buffer replays identically to an owned one.
        let shared = run_sim(
            smp_backend(2),
            vec![
                ProcSource::shared(events(0).into()),
                ProcSource::shared(events(1).into()),
            ],
        );
        assert_eq!(shared, in_memory);
    }

    #[test]
    fn chunk_size_invariance_with_timeseries_observer() {
        // The observed path must be batching-invariant too:
        // with a TimeSeriesCollector attached, both the report and the
        // emitted windowed series must not depend on chunk size.
        let events = |p: u64| -> Vec<MemEvent> {
            (0..800u64)
                .map(|i| match i % 5 {
                    0 => MemEvent::write(p * (1 << 21) + i * 16),
                    1 => MemEvent::compute(3),
                    _ => MemEvent::read(p * (1 << 21) + i * 64),
                })
                .chain([MemEvent::BARRIER])
                .chain((0..200u64).map(|i| MemEvent::read(i * 128)))
                .collect()
        };
        let observed = |sources: Vec<ProcSource>| {
            let out = SimSession::new(smp_backend(2))
                .with_sources(sources)
                .observe(TimeSeriesCollector::new(1_000))
                .run();
            let series = out
                .observer::<TimeSeriesCollector>()
                .expect("collector attached")
                .series()
                .clone();
            (out.report, series)
        };
        let chunked = |chunk: usize| {
            let mut sources = Vec::new();
            let mut handles = Vec::new();
            for p in 0..2u64 {
                let (tx, rx) = batch_channel(4);
                let evs = events(p);
                handles.push(std::thread::spawn(move || send_chunked(tx, &evs, chunk)));
                sources.push(ProcSource::Channel(rx));
            }
            let out = observed(sources);
            for h in handles {
                h.join().unwrap();
            }
            out
        };
        let (report, series) = observed(vec![
            ProcSource::from_events(events(0)),
            ProcSource::from_events(events(1)),
        ]);
        assert!(!series.windows.is_empty(), "series should have windows");
        assert_eq!(chunked(1), (report.clone(), series.clone()));
        assert_eq!(chunked(4096), (report, series));
    }

    #[test]
    fn nop_observer_changes_nothing() {
        let mk_sources = || {
            vec![ProcSource::from_events(
                (0..100u64)
                    .map(|i| {
                        if i % 3 == 0 {
                            MemEvent::write(i * 64)
                        } else {
                            MemEvent::read(i * 32)
                        }
                    })
                    .collect(),
            )]
        };
        let bare = run_sim(smp_backend(1), mk_sources());
        let observed = SimSession::new(smp_backend(1))
            .with_sources(mk_sources())
            .observe(NopObserver)
            .run();
        assert_eq!(bare, observed.report);
    }

    #[test]
    fn collector_reconciles_with_report() {
        let sources = vec![
            ProcSource::from_events(
                (0..300u64)
                    .map(|i| MemEvent::read(i * 64))
                    .chain([MemEvent::BARRIER, MemEvent::compute(10)])
                    .collect(),
            ),
            ProcSource::from_events(
                (0..50u64)
                    .map(|i| MemEvent::write(i * 64))
                    .chain([MemEvent::BARRIER, MemEvent::compute(10)])
                    .collect(),
            ),
        ];
        let out = SimSession::new(smp_backend(2))
            .with_sources(sources)
            .observe(TimeSeriesCollector::new(1000))
            .run();
        let series = out.observer::<TimeSeriesCollector>().unwrap().series();
        let sum = |f: fn(&crate::observe::MetricsWindow) -> u64| -> u64 {
            series.windows.iter().map(f).sum()
        };
        assert_eq!(sum(|w| w.refs), out.report.total_refs);
        assert_eq!(sum(|w| w.l1_hits), out.report.levels.l1_hits);
        assert_eq!(sum(|w| w.local_memory), out.report.levels.local_memory);
        assert_eq!(sum(|w| w.upgrades), out.report.levels.upgrades);
        assert_eq!(sum(|w| w.data_bytes), out.report.traffic.data_bytes);
        assert_eq!(
            sum(|w| w.coherence_bytes),
            out.report.traffic.coherence_bytes
        );
        assert_eq!(
            sum(|w| w.barrier_wait_cycles),
            out.report.barrier_wait_cycles
        );
        assert_eq!(
            sum(|w| w.bus_busy_cycles),
            out.report.bus_busy_cycles.iter().sum::<u64>()
        );
        // Per-proc refs reconcile too.
        let proc_refs: u64 = series.per_proc.iter().map(|p| p.refs).sum();
        assert_eq!(proc_refs, out.report.total_refs);
        assert_eq!(series.totals.wall_cycles, out.report.wall_cycles);
    }

    #[test]
    fn tracer_records_accesses_and_barriers() {
        let sources = vec![
            ProcSource::from_events(vec![
                MemEvent::read(0),
                MemEvent::BARRIER,
                MemEvent::read(64),
            ]),
            ProcSource::from_events(vec![
                MemEvent::compute(5),
                MemEvent::BARRIER,
                MemEvent::read(8192),
            ]),
        ];
        let out = SimSession::new(smp_backend(2))
            .with_sources(sources)
            .observe(EventTracer::new(64))
            .run();
        let log = out.observer::<EventTracer>().unwrap().log();
        let accesses = log
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Access)
            .count();
        let barriers = log
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Barrier)
            .count();
        assert_eq!(accesses as u64, out.report.total_refs);
        assert_eq!(barriers as u64, out.report.barriers);
        assert_eq!(log.dropped, 0);
        // JSONL round-trips through the parser.
        for line in log.to_jsonl().lines() {
            let _: serde_json::Value = serde_json::from_str(line).unwrap();
        }
    }
}
