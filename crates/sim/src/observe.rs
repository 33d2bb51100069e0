//! Pluggable observability taps for the simulation engine.
//!
//! The engine itself only aggregates end-of-run totals ([`SimReport`]);
//! everything finer-grained — windowed utilization series, per-access
//! traces — is the business of a [`SimObserver`] attached through
//! [`SimSession::observe`](crate::SimSession::observe).  Observers are
//! strictly *taps*: they receive read-only snapshots after each simulated
//! memory access and barrier release and cannot perturb simulated time, so
//! a run with observers attached produces the exact same `SimReport` as a
//! run without (the no-op-observer test in `crates/sim/tests` pins this).
//!
//! Built-in observers:
//!
//! * [`NopObserver`] — does nothing; useful to assert the zero-cost claim.
//! * [`TimeSeriesCollector`] — buckets the run into fixed-width cycle
//!   windows and emits a [`MetricsSeries`]: per-window level service
//!   counts, traffic, stall cycles, barrier waits and bus/network/IO
//!   utilization, plus per-processor totals.  Window sums reconcile
//!   exactly with the final [`LevelCounts`]/[`Traffic`] totals.
//! * [`EventTracer`] — a bounded structured trace of accesses and barrier
//!   releases with JSON Lines export ([`TraceLog::to_jsonl`]).

use crate::backend::ClusterBackend;
use crate::report::{LevelCounts, SimReport, Traffic};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// Which memory-hierarchy level serviced a reference (paper §5.3's
/// service categories).  Derived by the engine from the backend's
/// [`LevelCounts`] delta around each access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceLevel {
    /// L1 cache hit (1 cycle).
    L1,
    /// Intra-SMP cache-to-cache transfer (snoop hit).
    CacheToCache,
    /// Local node memory.
    LocalMemory,
    /// Remote node's memory (clean copy).
    RemoteClean,
    /// Remotely cached dirty data.
    RemoteDirty,
}

impl ServiceLevel {
    /// Stable lowercase name used in metrics/trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            ServiceLevel::L1 => "l1",
            ServiceLevel::CacheToCache => "cache_to_cache",
            ServiceLevel::LocalMemory => "local_memory",
            ServiceLevel::RemoteClean => "remote_clean",
            ServiceLevel::RemoteDirty => "remote_dirty",
        }
    }

    /// Classify one access from the counts delta around it.  Exactly one
    /// of the five service counters increments per access (disk pagings
    /// and upgrades piggyback on the service category).
    pub(crate) fn classify(before: &LevelCounts, after: &LevelCounts) -> ServiceLevel {
        if after.l1_hits > before.l1_hits {
            ServiceLevel::L1
        } else if after.cache_to_cache > before.cache_to_cache {
            ServiceLevel::CacheToCache
        } else if after.remote_dirty > before.remote_dirty {
            ServiceLevel::RemoteDirty
        } else if after.remote_clean > before.remote_clean {
            ServiceLevel::RemoteClean
        } else {
            ServiceLevel::LocalMemory
        }
    }
}

/// Read-only view of one simulated memory reference, handed to
/// [`SimObserver::on_access`] right after the access.
///
/// The fields are what the engine knows anyway.  Everything else is a
/// method that reads the backend when an observer asks, so an observer
/// pays only for what it calls: [`counts`](Self::counts),
/// [`traffic`](Self::traffic) and the three busy-cycle sums are the
/// backend's cumulative totals *after* this access, and
/// [`level`](Self::level), [`paged`](Self::paged) and
/// [`upgraded`](Self::upgraded) compare those counts with the ones before
/// it.
#[derive(Clone, Copy)]
pub struct AccessObservation<'a> {
    /// Issuing logical processor.
    pub proc: usize,
    /// Byte address accessed.
    pub addr: u64,
    /// Write (vs read).
    pub write: bool,
    /// Simulated clock when the access was issued.
    pub issue_clock: u64,
    /// Processor clock after the access (issue + 1 instruction cycle +
    /// memory latency).
    pub complete_clock: u64,
    /// Memory latency in cycles (includes the 1-cycle cache access, not
    /// the 1-cycle instruction execution).
    pub mem_cycles: u64,
    backend: &'a ClusterBackend,
    /// Level service counts before this access.
    before: &'a LevelCounts,
}

impl AccessObservation<'_> {
    /// Cumulative level service counts after this access (a copy of
    /// seven counters).
    pub fn counts(&self) -> LevelCounts {
        self.backend.counts()
    }

    /// Cumulative shared-media traffic after this access (a copy of two
    /// counters).
    pub fn traffic(&self) -> Traffic {
        self.backend.traffic()
    }

    /// Cumulative memory-bus busy cycles, summed over every node's buses.
    pub fn bus_busy_cycles(&self) -> u64 {
        self.backend.total_bus_busy_cycles()
    }

    /// Cumulative cluster-network busy cycles, summed over its links.
    pub fn network_busy_cycles(&self) -> u64 {
        self.backend.network_busy_cycles()
    }

    /// Cumulative I/O-bus busy cycles, summed over nodes.
    pub fn io_busy_cycles(&self) -> u64 {
        self.backend.total_io_busy_cycles()
    }

    /// Hierarchy level that serviced the reference.
    pub fn level(&self) -> ServiceLevel {
        ServiceLevel::classify(self.before, &self.backend.counts())
    }

    /// Whether this access triggered a disk page-in.
    pub fn paged(&self) -> bool {
        self.backend.counts().disk > self.before.disk
    }

    /// Whether this write needed a Shared→Modified upgrade round.
    pub fn upgraded(&self) -> bool {
        self.backend.counts().upgrades > self.before.upgrades
    }
}

impl fmt::Debug for AccessObservation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessObservation")
            .field("proc", &self.proc)
            .field("addr", &self.addr)
            .field("write", &self.write)
            .field("issue_clock", &self.issue_clock)
            .field("complete_clock", &self.complete_clock)
            .field("mem_cycles", &self.mem_cycles)
            .field("level", &self.level())
            .finish_non_exhaustive()
    }
}

/// Snapshot handed to [`SimObserver::on_barrier`] when a barrier releases.
#[derive(Debug)]
pub struct BarrierObservation<'a> {
    /// Clock all parked processors were aligned to.
    pub release_clock: u64,
    /// `(processor, cycles waited)` for every released processor.
    pub waits: &'a [(usize, u64)],
}

/// A read-only tap on the simulation.  All hooks default to no-ops, so an
/// implementor only overrides what it needs.  `Any + Send` lets session
/// outputs downcast observers back to their concrete type and lets boxed
/// observers cross worker-pool thread boundaries.
pub trait SimObserver: Any + Send {
    /// Called after every simulated memory reference.
    fn on_access(&mut self, _obs: &AccessObservation<'_>) {}
    /// Called after every barrier release.
    fn on_barrier(&mut self, _obs: &BarrierObservation<'_>) {}
    /// Called once when the run completes, with the final report.
    fn on_finish(&mut self, _report: &SimReport) {}
    /// Upcast for downcasting out of [`SessionOutput`](crate::SessionOutput).
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Consuming upcast, so
    /// [`SessionOutput::take_observer`](crate::SessionOutput::take_observer)
    /// can hand the observer back by value (e.g. to finalize a file it
    /// owns).  Implementations are always `fn into_any(self: Box<Self>)
    /// -> Box<dyn Any> { self }`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The zero-cost default: observes nothing.  Attaching it must not change
/// any simulated cycle count.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopObserver;

impl SimObserver for NopObserver {
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

/// A session's attached observers, and the one place both engines build
/// observations: each engine calls [`Observers::access`] after an access
/// and [`Observers::barrier`] after a release, in its observation order.
pub(crate) struct Observers {
    list: Vec<Box<dyn SimObserver>>,
    /// The backend's level counts after the last observed access, which
    /// are the counts before the next.
    last_counts: LevelCounts,
}

impl Observers {
    pub(crate) fn new(list: Vec<Box<dyn SimObserver>>) -> Self {
        Observers {
            list,
            last_counts: LevelCounts::default(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Hand every observer the access `proc` just completed on `backend`:
    /// issued at `issue_clock` to `addr`, taking `lat` memory cycles.
    #[inline]
    pub(crate) fn access(
        &mut self,
        backend: &ClusterBackend,
        proc: usize,
        addr: u64,
        write: bool,
        issue_clock: u64,
        lat: u64,
    ) {
        let obs = AccessObservation {
            proc,
            addr,
            write,
            issue_clock,
            complete_clock: issue_clock + 1 + lat,
            mem_cycles: lat,
            backend,
            before: &self.last_counts,
        };
        for o in &mut self.list {
            o.on_access(&obs);
        }
        self.last_counts = backend.counts();
    }

    /// Hand every observer a barrier release at `release_clock`.
    pub(crate) fn barrier(&mut self, release_clock: u64, waits: &[(usize, u64)]) {
        let obs = BarrierObservation {
            release_clock,
            waits,
        };
        for o in &mut self.list {
            o.on_barrier(&obs);
        }
    }

    /// Hand every observer the final report and give them back.
    pub(crate) fn finish(mut self, report: &SimReport) -> Vec<Box<dyn SimObserver>> {
        for o in &mut self.list {
            o.on_finish(report);
        }
        self.list
    }
}

// ---------------------------------------------------------------------------
// Windowed time-series collector
// ---------------------------------------------------------------------------

/// One fixed-width window of the [`MetricsSeries`].  Count fields are
/// deltas attributed to the window containing the access's *issue* clock
/// (a long miss contributes wholly to the window it was issued in).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsWindow {
    /// Window index (`start_cycle / window_cycles`).
    pub index: u64,
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// End cycle of the window (exclusive).
    pub end_cycle: u64,
    /// Memory references issued in this window.
    pub refs: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Cache-to-cache transfers.
    pub cache_to_cache: u64,
    /// Local-memory services.
    pub local_memory: u64,
    /// Remote fetches served clean.
    pub remote_clean: u64,
    /// Remote fetches served dirty.
    pub remote_dirty: u64,
    /// Disk page-ins.
    pub disk: u64,
    /// Write upgrades.
    pub upgrades: u64,
    /// Demand data bytes moved.
    pub data_bytes: u64,
    /// Coherence-protocol bytes moved.
    pub coherence_bytes: u64,
    /// Memory-latency cycles summed over references issued here.
    pub stall_cycles: u64,
    /// Barrier-wait cycles attributed to releases in this window.
    pub barrier_wait_cycles: u64,
    /// Memory-bus busy cycles accrued (summed over nodes).
    pub bus_busy_cycles: u64,
    /// Cluster-network busy cycles accrued.
    pub network_busy_cycles: u64,
    /// I/O-bus busy cycles accrued (summed over nodes).
    pub io_busy_cycles: u64,
    /// `bus_busy_cycles / window span` (can exceed 1.0: busy cycles are
    /// summed over all node buses).
    pub bus_utilization: f64,
    /// `network_busy_cycles / window span`.
    pub network_utilization: f64,
    /// `io_busy_cycles / window span` (summed over node I/O buses).
    pub io_utilization: f64,
    /// L1 hit rate among references issued in this window.
    pub l1_hit_rate: f64,
}

/// Per-processor totals over the whole run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcBreakdown {
    /// Logical processor id.
    pub proc: u64,
    /// Memory references issued.
    pub refs: u64,
    /// Memory-latency cycles (stall) accumulated.
    pub mem_stall_cycles: u64,
    /// Cycles spent parked at barriers.
    pub barrier_wait_cycles: u64,
}

/// Run-level totals mirrored from the final [`SimReport`]; window sums
/// reconcile with these exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsTotals {
    /// Simulated wall clock, cycles.
    pub wall_cycles: u64,
    /// Final level service counts.
    pub levels: LevelCounts,
    /// Final traffic breakdown.
    pub traffic: Traffic,
    /// Final memory-bus busy cycles, summed over nodes.
    pub bus_busy_cycles: u64,
    /// Final network busy cycles.
    pub network_busy_cycles: u64,
    /// Final I/O-bus busy cycles, summed over nodes.
    pub io_busy_cycles: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Total barrier-wait cycles.
    pub barrier_wait_cycles: u64,
}

/// The serializable output of a [`TimeSeriesCollector`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSeries {
    /// Window width, cycles.
    pub window_cycles: u64,
    /// Dense window list from cycle 0 through the last active window.
    pub windows: Vec<MetricsWindow>,
    /// Per-processor run totals.
    pub per_proc: Vec<ProcBreakdown>,
    /// Run totals (equal to the printed `SimReport` aggregates).
    pub totals: MetricsTotals,
}

/// Buckets the run into fixed-width cycle windows.  Attach via
/// [`SimSession::observe`](crate::SimSession::observe); after the run,
/// pull the finished series with [`TimeSeriesCollector::series`] (or
/// downcast out of the session output).
#[derive(Debug)]
pub struct TimeSeriesCollector {
    window_cycles: u64,
    windows: Vec<MetricsWindow>,
    per_proc: Vec<ProcBreakdown>,
    last_counts: LevelCounts,
    last_traffic: Traffic,
    last_bus: u64,
    last_net: u64,
    last_io: u64,
    finished: Option<MetricsSeries>,
}

impl TimeSeriesCollector {
    /// Collector with the given window width in cycles (minimum 1).
    pub fn new(window_cycles: u64) -> Self {
        TimeSeriesCollector {
            window_cycles: window_cycles.max(1),
            windows: Vec::new(),
            per_proc: Vec::new(),
            last_counts: LevelCounts::default(),
            last_traffic: Traffic::default(),
            last_bus: 0,
            last_net: 0,
            last_io: 0,
            finished: None,
        }
    }

    fn window_mut(&mut self, clock: u64) -> &mut MetricsWindow {
        let idx = (clock / self.window_cycles) as usize;
        while self.windows.len() <= idx {
            let i = self.windows.len() as u64;
            self.windows.push(MetricsWindow {
                index: i,
                start_cycle: i * self.window_cycles,
                end_cycle: (i + 1) * self.window_cycles,
                ..MetricsWindow::default()
            });
        }
        &mut self.windows[idx]
    }

    fn proc_mut(&mut self, proc: usize) -> &mut ProcBreakdown {
        while self.per_proc.len() <= proc {
            let p = self.per_proc.len() as u64;
            self.per_proc.push(ProcBreakdown {
                proc: p,
                ..ProcBreakdown::default()
            });
        }
        &mut self.per_proc[proc]
    }

    /// The finished series.  Only available after the session ran
    /// (`on_finish` fired); panics otherwise.
    pub fn series(&self) -> &MetricsSeries {
        self.finished
            .as_ref()
            .expect("TimeSeriesCollector::series before the run finished")
    }

    /// Consume the collector, yielding the finished series.
    pub fn into_series(self) -> MetricsSeries {
        self.finished
            .expect("TimeSeriesCollector::into_series before the run finished")
    }
}

impl SimObserver for TimeSeriesCollector {
    fn on_access(&mut self, o: &AccessObservation<'_>) {
        let counts = o.counts();
        let traffic = o.traffic();
        let (bus, net, io) = (
            o.bus_busy_cycles(),
            o.network_busy_cycles(),
            o.io_busy_cycles(),
        );
        let dc = LevelCounts {
            l1_hits: counts.l1_hits - self.last_counts.l1_hits,
            cache_to_cache: counts.cache_to_cache - self.last_counts.cache_to_cache,
            local_memory: counts.local_memory - self.last_counts.local_memory,
            remote_clean: counts.remote_clean - self.last_counts.remote_clean,
            remote_dirty: counts.remote_dirty - self.last_counts.remote_dirty,
            disk: counts.disk - self.last_counts.disk,
            upgrades: counts.upgrades - self.last_counts.upgrades,
        };
        let d_data = traffic.data_bytes - self.last_traffic.data_bytes;
        let d_coh = traffic.coherence_bytes - self.last_traffic.coherence_bytes;
        let d_bus = bus - self.last_bus;
        let d_net = net - self.last_net;
        let d_io = io - self.last_io;
        self.last_counts = counts;
        self.last_traffic = traffic;
        self.last_bus = bus;
        self.last_net = net;
        self.last_io = io;

        let w = self.window_mut(o.issue_clock);
        w.refs += 1;
        w.l1_hits += dc.l1_hits;
        w.cache_to_cache += dc.cache_to_cache;
        w.local_memory += dc.local_memory;
        w.remote_clean += dc.remote_clean;
        w.remote_dirty += dc.remote_dirty;
        w.disk += dc.disk;
        w.upgrades += dc.upgrades;
        w.data_bytes += d_data;
        w.coherence_bytes += d_coh;
        w.stall_cycles += o.mem_cycles;
        w.bus_busy_cycles += d_bus;
        w.network_busy_cycles += d_net;
        w.io_busy_cycles += d_io;

        let p = self.proc_mut(o.proc);
        p.refs += 1;
        p.mem_stall_cycles += o.mem_cycles;
    }

    fn on_barrier(&mut self, o: &BarrierObservation<'_>) {
        let total: u64 = o.waits.iter().map(|&(_, w)| w).sum();
        self.window_mut(o.release_clock).barrier_wait_cycles += total;
        for &(proc, wait) in o.waits {
            self.proc_mut(proc).barrier_wait_cycles += wait;
        }
    }

    fn on_finish(&mut self, report: &SimReport) {
        let totals = MetricsTotals {
            wall_cycles: report.wall_cycles,
            levels: report.levels,
            traffic: report.traffic,
            bus_busy_cycles: report.bus_busy_cycles.iter().sum(),
            network_busy_cycles: report.network_busy_cycles,
            io_busy_cycles: report.io_busy_cycles.iter().sum(),
            barriers: report.barriers,
            barrier_wait_cycles: report.barrier_wait_cycles,
        };
        // Catch-up window: attribute any busy/traffic cycles not seen at
        // the last access (none today — accesses are the only mutators —
        // but this keeps the reconciliation invariant robust).
        if !self.windows.is_empty() {
            let d_bus = totals.bus_busy_cycles - self.last_bus;
            let d_net = totals.network_busy_cycles - self.last_net;
            let d_io = totals.io_busy_cycles - self.last_io;
            let d_data = totals.traffic.data_bytes - self.last_traffic.data_bytes;
            let d_coh = totals.traffic.coherence_bytes - self.last_traffic.coherence_bytes;
            let last = self.windows.last_mut().expect("non-empty");
            last.bus_busy_cycles += d_bus;
            last.network_busy_cycles += d_net;
            last.io_busy_cycles += d_io;
            last.data_bytes += d_data;
            last.coherence_bytes += d_coh;
        }
        let span = self.window_cycles as f64;
        for w in &mut self.windows {
            w.bus_utilization = w.bus_busy_cycles as f64 / span;
            w.network_utilization = w.network_busy_cycles as f64 / span;
            w.io_utilization = w.io_busy_cycles as f64 / span;
            w.l1_hit_rate = if w.refs == 0 {
                0.0
            } else {
                w.l1_hits as f64 / w.refs as f64
            };
        }
        self.finished = Some(MetricsSeries {
            window_cycles: self.window_cycles,
            windows: std::mem::take(&mut self.windows),
            per_proc: std::mem::take(&mut self.per_proc),
            totals,
        });
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

// ---------------------------------------------------------------------------
// Bounded structured event tracer
// ---------------------------------------------------------------------------

/// Kind of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A memory reference.
    Access,
    /// A barrier release.
    Barrier,
}

/// One structured trace record.  Access records carry `proc`/`addr`/
/// `write`/`latency`/`level`; barrier records carry `released`/`max_wait`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Record kind.
    pub kind: TraceKind,
    /// Simulated clock (issue clock for accesses, release clock for
    /// barriers).
    pub clock: u64,
    /// Issuing processor (accesses only).
    pub proc: Option<u64>,
    /// Byte address (accesses only).
    pub addr: Option<u64>,
    /// Write flag (accesses only).
    pub write: Option<bool>,
    /// Memory latency in cycles (accesses only).
    pub latency: Option<u64>,
    /// Servicing hierarchy level (accesses only).
    pub level: Option<ServiceLevel>,
    /// Number of processors released (barriers only).
    pub released: Option<u64>,
    /// Longest wait among released processors (barriers only).
    pub max_wait: Option<u64>,
}

/// The tracer's bounded output: the retained events plus how many were
/// dropped once the capacity filled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceLog {
    /// Configured capacity.
    pub capacity: u64,
    /// Retained records, oldest first.
    pub events: Vec<TraceEvent>,
    /// Records dropped after the capacity filled.
    pub dropped: u64,
}

impl TraceLog {
    /// Render as JSON Lines: one compact JSON object per event, newline
    /// terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde_json::to_string(e).expect("trace event serializes"));
            out.push('\n');
        }
        out
    }
}

/// Records up to `capacity` structured events, then counts the overflow
/// (keeping the *first* `capacity` events — the warm-up is where the
/// hierarchy fills, which is usually the interesting part).
#[derive(Debug)]
pub struct EventTracer {
    log: TraceLog,
}

impl EventTracer {
    /// Tracer retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventTracer {
            log: TraceLog {
                capacity: capacity as u64,
                events: Vec::new(),
                dropped: 0,
            },
        }
    }

    fn push(&mut self, e: TraceEvent) {
        if (self.log.events.len() as u64) < self.log.capacity {
            self.log.events.push(e);
        } else {
            self.log.dropped += 1;
        }
    }

    /// The trace accumulated so far.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Consume the tracer, yielding its log.
    pub fn into_log(self) -> TraceLog {
        self.log
    }
}

impl SimObserver for EventTracer {
    fn on_access(&mut self, o: &AccessObservation<'_>) {
        self.push(TraceEvent {
            kind: TraceKind::Access,
            clock: o.issue_clock,
            proc: Some(o.proc as u64),
            addr: Some(o.addr),
            write: Some(o.write),
            latency: Some(o.mem_cycles),
            level: Some(o.level()),
            released: None,
            max_wait: None,
        });
    }

    fn on_barrier(&mut self, o: &BarrierObservation<'_>) {
        self.push(TraceEvent {
            kind: TraceKind::Barrier,
            clock: o.release_clock,
            proc: None,
            addr: None,
            write: None,
            latency: None,
            level: None,
            released: Some(o.waits.len() as u64),
            max_wait: Some(o.waits.iter().map(|&(_, w)| w).max().unwrap_or(0)),
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homemap::HomeMap;
    use memhier_core::machine::{LatencyParams, MachineSpec};
    use memhier_core::platform::ClusterSpec;

    #[test]
    fn classify_picks_the_incremented_level() {
        let a = LevelCounts::default();
        let mut b = a;
        b.l1_hits = 1;
        assert_eq!(ServiceLevel::classify(&a, &b), ServiceLevel::L1);
        let mut c = b;
        c.remote_dirty = 1;
        c.disk = 1; // piggybacks; level is still remote_dirty
        assert_eq!(ServiceLevel::classify(&b, &c), ServiceLevel::RemoteDirty);
    }

    #[test]
    fn tracer_bounds_and_counts_drops() {
        let mut t = EventTracer::new(2);
        for i in 0..5u64 {
            t.push(TraceEvent {
                kind: TraceKind::Access,
                clock: i,
                proc: Some(0),
                addr: Some(i * 64),
                write: Some(false),
                latency: Some(1),
                level: Some(ServiceLevel::L1),
                released: None,
                max_wait: None,
            });
        }
        assert_eq!(t.log().events.len(), 2);
        assert_eq!(t.log().dropped, 3);
        let jsonl = t.log().to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("kind").is_some());
        }
    }

    fn smp_backend() -> ClusterBackend {
        let spec = ClusterSpec::single(MachineSpec::new(1, 256, 64, 200.0));
        ClusterBackend::new(&spec, LatencyParams::paper(), HomeMap::new(1, 256))
    }

    /// Records what each access's observation reports.
    #[derive(Default)]
    struct Probe(Vec<(ServiceLevel, bool, LevelCounts)>);

    impl SimObserver for Probe {
        fn on_access(&mut self, o: &AccessObservation<'_>) {
            self.0.push((o.level(), o.paged(), o.counts()));
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

    #[test]
    fn observations_read_the_backend_around_the_access() {
        let mut backend = smp_backend();
        let mut taps = Observers::new(vec![Box::new(Probe::default())]);
        for clock in [0, 5000] {
            let lat = backend.access(0, 64, false, clock);
            taps.access(&backend, 0, 64, false, clock, lat);
        }
        let probe = taps.list[0].as_any().downcast_ref::<Probe>().unwrap();
        let (cold, paged, counts) = probe.0[0];
        assert_eq!((cold, paged), (ServiceLevel::LocalMemory, true));
        assert_eq!((counts.local_memory, counts.disk), (1, 1));
        let (warm, paged, counts) = probe.0[1];
        assert_eq!((warm, paged), (ServiceLevel::L1, false));
        assert_eq!(counts.l1_hits, 1);
    }

    #[test]
    fn collector_windows_are_dense() {
        let mut backend = smp_backend();
        let lat = backend.access(0, 64, false, 250);
        let mut taps = Observers::new(vec![Box::new(TimeSeriesCollector::new(100))]);
        taps.access(&backend, 0, 64, false, 250, lat);
        let c = taps.list[0]
            .as_any()
            .downcast_ref::<TimeSeriesCollector>()
            .unwrap();
        assert_eq!(c.windows.len(), 3);
        assert_eq!(c.windows[2].refs, 1);
        assert_eq!(c.windows[0].refs, 0);
        assert_eq!(c.windows[2].start_cycle, 200);
        assert_eq!(c.windows[2].end_cycle, 300);
    }
}
