//! The SPMD execution harness.
//!
//! A workload implements [`SpmdProgram`]; the harness runs one OS thread
//! per logical process.  Each thread owns an [`SpmdCtx`] that (a) batches
//! the process's [`MemEvent`]s toward a consumer and (b) wraps the real
//! `std::sync::Barrier` so the simulated barrier event is always emitted
//! **and flushed** before the thread blocks — the deadlock-freedom contract
//! the simulation engine relies on.
//!
//! Three consumption modes:
//! * [`run_spmd`] — run to completion discarding events (functional tests);
//! * [`collect_events`] — gather every process's events in memory
//!   (small traces);
//! * [`stream_spmd`] — stream batches through bounded channels to a
//!   caller-supplied consumer (the simulator engine or a trace analyzer).
//!
//! Streaming memory is bounded and small: each process's channel queues
//! at most 8 batches (`STREAM_DEPTH`) of 4,096 8-byte events, so a
//! generator that outruns its consumer blocks instead of growing the
//! host's resident set.  The consumer hands spent batches back, and a
//! generator refills one of those before it allocates another.

use crate::traced::CELL_BYTES;
use memhier_sim::event::{batch_channel, BatchReceiver, BatchSender};
use memhier_sim::MemEvent;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Barrier};

/// Counters each process accumulates (the inputs to ρ and the barrier
/// rate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcCounters {
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Non-memory instructions.
    pub compute: u64,
    /// Barriers crossed.
    pub barriers: u64,
}

impl ProcCounters {
    /// Memory references.
    pub fn mem_refs(&self) -> u64 {
        self.reads + self.writes
    }
    /// Total instructions `m + M`.
    pub fn total_instructions(&self) -> u64 {
        self.mem_refs() + self.compute
    }
    /// `ρ = M/(m+M)`.
    pub fn rho(&self) -> f64 {
        let t = self.total_instructions();
        if t == 0 {
            0.0
        } else {
            self.mem_refs() as f64 / t as f64
        }
    }
    /// Merge another process's counters.
    pub fn merge(&mut self, o: &ProcCounters) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.compute += o.compute;
        self.barriers += o.barriers;
    }
}

/// Where a context sends its finished batches.
pub enum TraceSink {
    /// Drop events (functional testing).
    Discard,
    /// Keep them all in memory.
    Collect(Vec<MemEvent>),
    /// Stream batches through a bounded channel, refilling the batches
    /// its consumer hands back.
    Channel(BatchSender),
}

/// Per-process execution context: event emission + barrier + counters.
pub struct SpmdCtx {
    pid: usize,
    sink: TraceSink,
    batch: Vec<MemEvent>,
    barrier: Option<Arc<Barrier>>,
    /// Batches allocated so far; the rest were reused.
    allocated: usize,
    /// Running counters.
    pub counters: ProcCounters,
}

/// Events per batch before a flush (channel mode).
const BATCH: usize = 4096;

/// Batches each [`stream_spmd`] channel queues before its producer
/// blocks.
///
/// A batch is `BATCH` 8-byte events, 32 KiB.  Per process, at most
/// `STREAM_DEPTH` batches sit in the channel, one is being filled by the
/// generator and one is being replayed by the consumer, so streamed
/// events hold about `procs × (STREAM_DEPTH + 2) × 32 KiB` of host
/// memory: 5 MiB for a 16-processor run.  When the consumer returns
/// each spent batch before it takes the next, as the engine does, a
/// process allocates no more batches than that, since it sends a full
/// batch before it takes a spent one back or allocates.  The channel wakes a blocked producer only once
/// its queue has drained to half, so a shallow queue still refills
/// `STREAM_DEPTH / 2` batches per wake-up.
const STREAM_DEPTH: usize = 8;

impl SpmdCtx {
    /// Build a context for process `pid`.
    pub fn new(pid: usize, sink: TraceSink, barrier: Option<Arc<Barrier>>) -> Self {
        SpmdCtx {
            pid,
            sink,
            batch: Vec::with_capacity(BATCH),
            barrier,
            allocated: 1,
            counters: ProcCounters::default(),
        }
    }

    /// This process's id.
    pub fn pid(&self) -> usize {
        self.pid
    }

    fn push(&mut self, e: MemEvent) {
        self.batch.push(e);
        if self.batch.len() >= BATCH {
            self.flush();
        }
    }

    /// Emit a load of `addr`.
    pub fn read(&mut self, addr: u64) {
        self.counters.reads += 1;
        self.push(MemEvent::read(addr));
    }

    /// Emit a store to `addr`.
    pub fn write(&mut self, addr: u64) {
        self.counters.writes += 1;
        self.push(MemEvent::write(addr));
    }

    /// Account `k` non-memory instructions (coalesced with a preceding
    /// compute event when possible).
    pub fn compute(&mut self, k: u32) {
        if k == 0 {
            return;
        }
        self.counters.compute += k as u64;
        if let Some(last) = self.batch.last_mut() {
            if let Some(sum) = last.compute_count().and_then(|prev| prev.checked_add(k)) {
                *last = MemEvent::compute(sum);
                return;
            }
        }
        self.push(MemEvent::compute(k));
    }

    /// Cross a barrier: emit the simulated barrier, flush, then block on
    /// the real barrier (in that order — the engine's deadlock contract).
    pub fn barrier(&mut self) {
        self.counters.barriers += 1;
        self.push(MemEvent::BARRIER);
        self.flush();
        if let Some(b) = &self.barrier {
            b.wait();
        }
    }

    /// Flush buffered events to the sink.  Only a channel takes the
    /// buffer away, and refills it with a batch its consumer handed back
    /// or, when none is waiting, a fresh one; the other sinks leave it in
    /// place for reuse.
    pub fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        match &mut self.sink {
            TraceSink::Discard => self.batch.clear(),
            TraceSink::Collect(v) => v.append(&mut self.batch),
            TraceSink::Channel(tx) => {
                // The engine consuming the far end has ended early only if
                // the simulation was aborted; dropping the rest is correct.
                let _ = tx.send(std::mem::take(&mut self.batch));
                self.batch = tx.reuse().unwrap_or_else(|| {
                    self.allocated += 1;
                    Vec::with_capacity(BATCH)
                });
            }
        }
    }

    /// Finish: hand the sink what is buffered, with no batch to follow,
    /// and extract counters, collected events and the batches allocated.
    fn finish(mut self) -> (ProcCounters, Vec<MemEvent>, usize) {
        let events = match self.sink {
            TraceSink::Discard => Vec::new(),
            TraceSink::Collect(mut v) => {
                v.append(&mut self.batch);
                v
            }
            TraceSink::Channel(tx) => {
                if !self.batch.is_empty() {
                    let _ = tx.send(self.batch);
                }
                Vec::new()
            }
        };
        (self.counters, events, self.allocated)
    }
}

/// A bulk-synchronous SPMD program over instrumented arrays.
pub trait SpmdProgram: Send + Sync + 'static {
    /// Number of logical processes this instance was built for.
    fn processes(&self) -> usize;
    /// Execute process `pid`'s share of the computation.
    fn run(&self, pid: usize, ctx: &mut SpmdCtx);
    /// Address partitions `(start, end_exclusive, owner_pid)` for home-node
    /// assignment; empty = interleaved homes.
    fn partitions(&self) -> Vec<(u64, u64, usize)> {
        Vec::new()
    }
    /// Human-readable name.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// Run every process with discarded traces; returns merged counters.
/// This is the functional-correctness path (fast — no event traffic).
pub fn run_spmd<P: SpmdProgram + ?Sized>(program: Arc<P>) -> ProcCounters {
    let n = program.processes();
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|pid| {
            let p = Arc::clone(&program);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut ctx = SpmdCtx::new(pid, TraceSink::Discard, Some(b));
                p.run(pid, &mut ctx);
                ctx.finish().0
            })
        })
        .collect();
    let mut total = ProcCounters::default();
    for h in handles {
        total.merge(&h.join().expect("spmd process panicked"));
    }
    total
}

/// Run every process collecting full event lists (small problem sizes
/// only).  Returns per-process `(events, counters)`.
pub fn collect_events<P: SpmdProgram + ?Sized>(
    program: Arc<P>,
) -> Vec<(Vec<MemEvent>, ProcCounters)> {
    let n = program.processes();
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|pid| {
            let p = Arc::clone(&program);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut ctx = SpmdCtx::new(pid, TraceSink::Collect(Vec::new()), Some(b));
                p.run(pid, &mut ctx);
                let (c, e, _) = ctx.finish();
                (e, c)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("spmd process panicked"))
        .collect()
}

/// Spawn the program's processes streaming into bounded channels of
/// 8 batches (`STREAM_DEPTH`) each; hand the receivers to `consume` on the
/// calling thread; join and return merged counters together with
/// `consume`'s result.
///
/// `consume` must keep draining all channels until they disconnect (the
/// simulation engine and the trace analyzer both do).  A process whose
/// consumer falls behind blocks in its next flush once `STREAM_DEPTH`
/// batches are queued, and resumes once half of them are taken.  A
/// consumer should [`recycle`](BatchReceiver::recycle) each batch it is
/// done with; one that does not costs its producers an allocation per
/// batch, never a wait.
pub fn stream_spmd<P, R>(
    program: Arc<P>,
    consume: impl FnOnce(Vec<BatchReceiver>) -> R,
) -> (R, ProcCounters)
where
    P: SpmdProgram + ?Sized,
{
    let (result, counters, _) = stream_counted(program, consume);
    (result, counters)
}

/// [`stream_spmd`], also returning the batches its processes allocated.
fn stream_counted<P, R>(
    program: Arc<P>,
    consume: impl FnOnce(Vec<BatchReceiver>) -> R,
) -> (R, ProcCounters, usize)
where
    P: SpmdProgram + ?Sized,
{
    let n = program.processes();
    let barrier = Arc::new(Barrier::new(n));
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| batch_channel(STREAM_DEPTH)).unzip();
    let handles: Vec<_> = txs
        .into_iter()
        .enumerate()
        .map(|(pid, tx)| {
            let p = Arc::clone(&program);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut ctx = SpmdCtx::new(pid, TraceSink::Channel(tx), Some(b));
                p.run(pid, &mut ctx);
                let (c, _, allocated) = ctx.finish();
                (c, allocated)
            })
        })
        .collect();
    let result = consume(rxs);
    let mut total = ProcCounters::default();
    let mut allocated = 0;
    for h in handles {
        let (c, a) = h.join().expect("spmd process panicked");
        total.merge(&c);
        allocated += a;
    }
    (result, total, allocated)
}

/// Build the simulator's home map from a program's partitions: the owner
/// *process*'s node becomes the home node.
pub fn home_map_for<P: SpmdProgram + ?Sized>(
    program: &P,
    nodes: usize,
    procs_per_node: usize,
    block_bytes: u64,
) -> memhier_sim::HomeMap {
    let mut map = memhier_sim::HomeMap::new(nodes, block_bytes);
    for (start, end, pid) in program.partitions() {
        let node = (pid / procs_per_node).min(nodes - 1);
        // Align outward to block boundaries so a block is wholly owned.
        let s = start / block_bytes * block_bytes;
        let e = end.div_ceil(block_bytes) * block_bytes;
        map.register_clamped(s, e, node);
    }
    map
}

/// Element stride helper re-exported for workloads computing partition
/// byte-ranges.
pub const ELEM_BYTES: u64 = CELL_BYTES;

/// Test helper: a context with a collecting sink and no real barrier, plus
/// a drain function returning the emitted events.
#[cfg(any(test, feature = "test-util"))]
pub fn test_ctx(pid: usize) -> (SpmdCtx, impl FnOnce(SpmdCtx) -> Vec<MemEvent>) {
    let ctx = SpmdCtx::new(pid, TraceSink::Collect(Vec::new()), None);
    (ctx, |ctx: SpmdCtx| ctx.finish().1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Toy {
        procs: usize,
    }

    impl SpmdProgram for Toy {
        fn processes(&self) -> usize {
            self.procs
        }
        fn run(&self, pid: usize, ctx: &mut SpmdCtx) {
            for i in 0..10u64 {
                ctx.read(pid as u64 * 1024 + i * 8);
                ctx.compute(3);
            }
            ctx.barrier();
            ctx.write(pid as u64 * 1024);
        }
        fn partitions(&self) -> Vec<(u64, u64, usize)> {
            (0..self.procs)
                .map(|p| (p as u64 * 1024, p as u64 * 1024 + 1024, p))
                .collect()
        }
        fn name(&self) -> &str {
            "toy"
        }
    }

    #[test]
    fn counters_accumulate() {
        let c = run_spmd(Arc::new(Toy { procs: 4 }));
        assert_eq!(c.reads, 40);
        assert_eq!(c.writes, 4);
        assert_eq!(c.compute, 120);
        assert_eq!(c.barriers, 4);
        let rho = c.rho();
        assert!((rho - 44.0 / 164.0).abs() < 1e-12);
    }

    #[test]
    fn collect_preserves_order_and_counts() {
        let out = collect_events(Arc::new(Toy { procs: 2 }));
        assert_eq!(out.len(), 2);
        for (events, c) in &out {
            // 10 reads + coalesced computes + barrier + 1 write.
            assert_eq!(c.mem_refs(), 11);
            let reads = events.iter().filter(|e| e.is_read()).count();
            assert_eq!(reads, 10);
            let barriers = events.iter().filter(|e| e.is_barrier()).count();
            assert_eq!(barriers, 1);
            // Barrier must come before the final write.
            let bpos = events.iter().position(|e| e.is_barrier()).unwrap();
            let wpos = events.iter().position(|e| e.is_write()).unwrap();
            assert!(bpos < wpos);
        }
    }

    #[test]
    fn compute_coalesces() {
        let (mut ctx, drain) = test_ctx(0);
        ctx.compute(3);
        ctx.compute(4);
        ctx.read(0);
        ctx.compute(1);
        let ev = drain(ctx);
        assert_eq!(
            ev,
            vec![
                MemEvent::compute(7),
                MemEvent::read(0),
                MemEvent::compute(1)
            ]
        );
    }

    #[test]
    fn compute_splits_at_u32_max() {
        let (mut ctx, drain) = test_ctx(0);
        ctx.compute(u32::MAX - 1);
        ctx.compute(1);
        ctx.compute(1);
        ctx.compute(u32::MAX);
        let ev = drain(ctx);
        assert_eq!(
            ev,
            vec![
                MemEvent::compute(u32::MAX),
                MemEvent::compute(1),
                MemEvent::compute(u32::MAX)
            ]
        );
        let (mut ctx, drain) = test_ctx(0);
        ctx.compute(u32::MAX);
        ctx.compute(u32::MAX);
        assert_eq!(drain(ctx), vec![MemEvent::compute(u32::MAX); 2]);
    }

    #[test]
    fn stream_mode_delivers_everything() {
        let (streamed, c) = stream_spmd(Arc::new(Toy { procs: 3 }), |rxs| {
            // A process sends at most two batches, so draining the
            // channels one after another never fills one.
            rxs.iter()
                .map(|rx| {
                    let mut events = Vec::new();
                    while let Ok(batch) = rx.recv() {
                        events.extend_from_slice(&batch);
                        rx.recycle(batch);
                    }
                    events
                })
                .collect::<Vec<_>>()
        });
        // Each process streams exactly the events it collects, in order.
        let collected = collect_events(Arc::new(Toy { procs: 3 }));
        assert_eq!(streamed.len(), collected.len());
        for (stream, (events, _)) in streamed.iter().zip(&collected) {
            assert_eq!(stream, events);
        }
        assert_eq!(c.mem_refs(), 33);
    }

    /// One process writing `batches` full batches, counting each flush
    /// that has returned.
    struct Flusher {
        batches: usize,
        flushed: Arc<AtomicUsize>,
    }

    impl SpmdProgram for Flusher {
        fn processes(&self) -> usize {
            1
        }
        fn run(&self, _pid: usize, ctx: &mut SpmdCtx) {
            for b in 0..self.batches {
                // The BATCH-th push flushes, blocking while the channel
                // is full.
                for i in 0..BATCH as u64 {
                    ctx.write((b as u64 * BATCH as u64 + i) * 8);
                }
                self.flushed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn stream_producer_blocks_at_stream_depth() {
        let batches = STREAM_DEPTH + 3;
        let flushed = Arc::new(AtomicUsize::new(0));
        let program = Arc::new(Flusher {
            batches,
            flushed: Arc::clone(&flushed),
        });
        let (received, c) = stream_spmd(program, |rxs| {
            // Nothing is read until the producer has queued a full
            // channel; STREAM_DEPTH flushes return without a reader.
            while flushed.load(Ordering::SeqCst) < STREAM_DEPTH {
                std::thread::yield_now();
            }
            // The next flush must block: give the producer ample time
            // to (wrongly) finish it.  A correct channel passes however
            // the threads are scheduled.
            for _ in 0..10_000 {
                std::thread::yield_now();
                assert_eq!(flushed.load(Ordering::SeqCst), STREAM_DEPTH);
            }
            let rx = rxs.into_iter().next().expect("one process");
            let mut received = 0;
            while let Ok(batch) = rx.recv() {
                assert_eq!(batch.len(), BATCH);
                received += 1;
                // A flush returns only once its batch is queued.
                assert!(flushed.load(Ordering::SeqCst) <= received + STREAM_DEPTH);
            }
            received
        });
        assert_eq!(received, batches);
        assert_eq!(flushed.load(Ordering::SeqCst), batches);
        assert_eq!(c.writes, (batches * BATCH) as u64);
    }

    #[test]
    fn producer_never_waits_for_spent_batches() {
        // The consumer keeps every batch and returns none: the producer
        // allocates a fresh one per flush instead of blocking.
        let batches = 3 * STREAM_DEPTH;
        let program = Arc::new(Flusher {
            batches,
            flushed: Arc::new(AtomicUsize::new(0)),
        });
        let (kept, c, allocated) = stream_counted(program, |rxs| {
            let rx = rxs.into_iter().next().expect("one process");
            std::iter::from_fn(|| rx.recv().ok()).collect::<Vec<_>>()
        });
        assert_eq!(kept.len(), batches);
        assert_eq!(c.writes, (batches * BATCH) as u64);
        // The first batch plus one after each flush.
        assert_eq!(allocated, batches + 1);
    }

    /// Processes writing `batches` full batches each, crossing a barrier
    /// (which flushes a partial batch) every third one.
    struct Phased {
        procs: usize,
        batches: usize,
    }

    impl SpmdProgram for Phased {
        fn processes(&self) -> usize {
            self.procs
        }
        fn run(&self, pid: usize, ctx: &mut SpmdCtx) {
            for b in 0..self.batches as u64 {
                for i in 0..BATCH as u64 {
                    ctx.read(((pid as u64) << 32) | ((b * BATCH as u64 + i) * 8));
                    ctx.compute(1 + i as u32 % 3);
                }
                if b % 3 == 2 {
                    ctx.barrier();
                }
            }
        }
    }

    #[test]
    fn recycled_streams_allocate_at_most_depth_plus_two_batches() {
        let procs = 3;
        let program = Arc::new(Phased {
            procs,
            batches: 4 * STREAM_DEPTH,
        });
        let (events, c, allocated) = stream_counted(program, |rxs| {
            // One draining thread per channel, each slower than its
            // producer now and then, so queues fill and drain.
            let drainers: Vec<_> = rxs
                .into_iter()
                .map(|rx| {
                    std::thread::spawn(move || {
                        let mut events = 0;
                        while let Ok(batch) = rx.recv() {
                            events += batch.len();
                            if events % 5 == 0 {
                                std::thread::yield_now();
                            }
                            rx.recycle(batch);
                        }
                        events
                    })
                })
                .collect();
            drainers
                .into_iter()
                .map(|h| h.join().expect("drainer"))
                .sum::<usize>()
        });
        assert_eq!(c.mem_refs(), (procs * 4 * STREAM_DEPTH * BATCH) as u64);
        assert!(events > c.mem_refs() as usize);
        assert!(
            allocated <= procs * (STREAM_DEPTH + 2),
            "{allocated} batches allocated"
        );
    }

    #[test]
    fn the_engine_recycles_within_the_same_bound() {
        use memhier_core::machine::{LatencyParams, MachineSpec};
        use memhier_core::platform::ClusterSpec;
        use memhier_sim::{ClusterBackend, HomeMap, ProcSource, SimSession};
        let procs = 3;
        let program = Arc::new(Phased {
            procs,
            batches: 4 * STREAM_DEPTH,
        });
        let cluster = ClusterSpec::single(MachineSpec::new(procs as u32, 256, 64, 200.0));
        let backend = ClusterBackend::new(&cluster, LatencyParams::paper(), HomeMap::new(1, 256));
        let (out, c, allocated) = stream_counted(program, |rxs| {
            SimSession::new(backend)
                .with_sources(rxs.into_iter().map(ProcSource::Channel).collect())
                .run()
        });
        assert_eq!(out.report.total_refs, c.mem_refs());
        assert!(
            allocated <= procs * (STREAM_DEPTH + 2),
            "{allocated} batches allocated"
        );
    }

    #[test]
    fn home_map_respects_partitions() {
        let toy = Toy { procs: 4 };
        // 4 processes on 2 nodes of 2.
        let map = home_map_for(&toy, 2, 2, 256);
        assert_eq!(map.home(0), 0); // pid 0 → node 0
        assert_eq!(map.home(1030), 0); // pid 1 → node 0
        assert_eq!(map.home(2050), 1); // pid 2 → node 1
        assert_eq!(map.home(3080), 1); // pid 3 → node 1
    }
}
