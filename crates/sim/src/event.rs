//! The event vocabulary flowing from instrumented workloads to the engine,
//! and the batch channel that carries it from a live workload thread.

use crossbeam::channel::{bounded, Receiver, RecvError, SendError, Sender};
use std::fmt;

/// Addresses a [`MemEvent`] can carry: `0 ..= ADDRESS_LIMIT − 1`, 62 bits.
pub const ADDRESS_LIMIT: u64 = 1 << 62;

/// Tag bits of each kind, above the 62-bit payload.
const WRITE: u64 = 1 << 62;
const COMPUTE: u64 = 2 << 62;
const BARRIER: u64 = 3 << 62;

/// One event of a logical processor's instruction stream.
///
/// This is the simulator's entire input interface — the moral equivalent of
/// the memory-reference event stream MINT hands its back-ends.  An event is
/// one 64-bit word: two tag bits (Read = 00, Write = 01, Compute = 10,
/// Barrier = 11) above a 62-bit address or a `u32` compute count.  The top
/// bit is clear exactly for memory references, so a replay loop tells them
/// apart with one compare, and a read's word is its address.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct MemEvent(u64);

const _: () = assert!(std::mem::size_of::<MemEvent>() == 8);

impl MemEvent {
    /// A barrier: the process waits until every process reaches it.
    pub const BARRIER: MemEvent = MemEvent(BARRIER);

    /// A load from byte address `addr`, which must be below
    /// [`ADDRESS_LIMIT`].
    #[inline]
    pub fn read(addr: u64) -> Self {
        debug_assert!(addr < ADDRESS_LIMIT, "address {addr:#x} is not below 2^62");
        MemEvent(addr)
    }

    /// A store to byte address `addr`, which must be below
    /// [`ADDRESS_LIMIT`].
    #[inline]
    pub fn write(addr: u64) -> Self {
        debug_assert!(addr < ADDRESS_LIMIT, "address {addr:#x} is not below 2^62");
        MemEvent(WRITE | addr)
    }

    /// `k` non-memory instructions (arithmetic/control), 1 cycle each.
    #[inline]
    pub fn compute(k: u32) -> Self {
        MemEvent(COMPUTE | k as u64)
    }

    /// Whether this is a memory reference (a load or a store).
    #[inline]
    pub fn is_mem(self) -> bool {
        self.0 < COMPUTE
    }

    /// Whether this is a load.
    #[inline]
    pub fn is_read(self) -> bool {
        self.0 < WRITE
    }

    /// Whether this is a store.
    #[inline]
    pub fn is_write(self) -> bool {
        self.0 >> 62 == WRITE >> 62
    }

    /// Whether this is a barrier.
    #[inline]
    pub fn is_barrier(self) -> bool {
        self.0 == BARRIER
    }

    /// The referenced address, if any.
    #[inline]
    pub fn address(self) -> Option<u64> {
        self.is_mem().then_some(self.0 & (ADDRESS_LIMIT - 1))
    }

    /// The instruction count of a compute event.
    #[inline]
    pub fn compute_count(self) -> Option<u32> {
        (self.0 >> 62 == COMPUTE >> 62).then_some(self.0 as u32)
    }

    /// Instructions this event represents: 1 for a reference, `k` for a
    /// compute event, 0 for a barrier (whose payload is zero).
    #[inline]
    pub fn instructions(self) -> u64 {
        if self.is_mem() {
            1
        } else {
            self.0 as u32 as u64
        }
    }
}

impl fmt::Debug for MemEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.address(), self.compute_count()) {
            (Some(a), _) if self.is_read() => f.debug_tuple("Read").field(&a).finish(),
            (Some(a), _) => f.debug_tuple("Write").field(&a).finish(),
            (None, Some(k)) => f.debug_tuple("Compute").field(&k).finish(),
            (None, None) => f.write_str("Barrier"),
        }
    }
}

/// A channel of event batches from one producer thread to one consumer,
/// queueing at most `depth` batches, with a return path on which the
/// consumer hands each spent batch back for reuse.
///
/// Neither end ever blocks on the return path.  It holds `depth + 2`
/// batches — every buffer a producer that reuses before it allocates can
/// have in flight: `depth` queued, one being filled and one being
/// consumed — so a returned batch is dropped only when a producer
/// allocated more than it needed.
pub fn batch_channel(depth: usize) -> (BatchSender, BatchReceiver) {
    let (tx, rx) = bounded(depth);
    let (spent_tx, spent_rx) = bounded(depth + 2);
    (
        BatchSender {
            batches: tx,
            spent: spent_rx,
        },
        BatchReceiver {
            batches: rx,
            spent: spent_tx,
        },
    )
}

/// The producer's end of a [`batch_channel`].
pub struct BatchSender {
    batches: Sender<Vec<MemEvent>>,
    spent: Receiver<Vec<MemEvent>>,
}

impl BatchSender {
    /// Queue a batch, blocking while `depth` batches are queued; `Err`
    /// once the consumer has gone.
    pub fn send(&self, batch: Vec<MemEvent>) -> Result<(), SendError<Vec<MemEvent>>> {
        self.batches.send(batch)
    }

    /// An empty batch the consumer has handed back, if one is waiting.
    /// Never blocks.
    pub fn reuse(&self) -> Option<Vec<MemEvent>> {
        self.spent.try_recv().ok()
    }
}

/// The consumer's end of a [`batch_channel`].
pub struct BatchReceiver {
    batches: Receiver<Vec<MemEvent>>,
    spent: Sender<Vec<MemEvent>>,
}

impl BatchReceiver {
    /// Block until a batch arrives; `Err` once the channel is empty and
    /// the producer has gone.
    pub fn recv(&self) -> Result<Vec<MemEvent>, RecvError> {
        self.batches.recv()
    }

    /// Pass every event to `f` until the channel is empty and the
    /// producer has gone, recycling each batch.
    pub fn for_each(&self, mut f: impl FnMut(MemEvent)) {
        while let Ok(batch) = self.recv() {
            batch.iter().copied().for_each(&mut f);
            self.recycle(batch);
        }
    }

    /// Hand a spent batch back to the producer, emptied.  Never blocks: a
    /// batch the producer cannot take (the return path is full, or the
    /// producer has finished) is dropped, and so is one that never
    /// allocated.
    pub fn recycle(&self, mut batch: Vec<MemEvent>) {
        if batch.capacity() > 0 {
            batch.clear();
            let _ = self.spent.try_send(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_counts() {
        assert_eq!(MemEvent::read(0).instructions(), 1);
        assert_eq!(MemEvent::write(8).instructions(), 1);
        assert_eq!(MemEvent::compute(17).instructions(), 17);
        assert_eq!(MemEvent::BARRIER.instructions(), 0);
    }

    #[test]
    fn classification() {
        assert!(MemEvent::read(0).is_mem());
        assert!(MemEvent::write(0).is_mem());
        assert!(!MemEvent::compute(1).is_mem());
        assert!(!MemEvent::BARRIER.is_mem());
        assert_eq!(MemEvent::read(42).address(), Some(42));
        assert_eq!(MemEvent::compute(3).address(), None);
    }

    /// Each kind, decoded back at the bounds of its payload.
    #[test]
    fn every_kind_round_trips_at_its_bounds() {
        for addr in [0, 1, ADDRESS_LIMIT - 1] {
            let r = MemEvent::read(addr);
            assert!(r.is_read() && !r.is_write() && !r.is_barrier());
            assert_eq!((r.address(), r.compute_count()), (Some(addr), None));
            let w = MemEvent::write(addr);
            assert!(w.is_write() && !w.is_read() && !w.is_barrier());
            assert_eq!((w.address(), w.compute_count()), (Some(addr), None));
            assert_ne!(r, w);
        }
        for k in [1, u32::MAX] {
            let c = MemEvent::compute(k);
            assert!(!c.is_read() && !c.is_write() && !c.is_barrier());
            assert_eq!((c.address(), c.compute_count()), (None, Some(k)));
            assert_eq!(c.instructions(), k as u64);
        }
        let b = MemEvent::BARRIER;
        assert!(b.is_barrier() && !b.is_read() && !b.is_write());
        assert_eq!((b.address(), b.compute_count()), (None, None));
        assert_eq!(
            format!(
                "{:?}",
                [
                    MemEvent::read(4),
                    MemEvent::write(8),
                    MemEvent::compute(3),
                    b
                ]
            ),
            "[Read(4), Write(8), Compute(3), Barrier]"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not below 2^62")]
    fn addresses_at_the_limit_are_refused() {
        let _ = MemEvent::write(ADDRESS_LIMIT);
    }

    #[test]
    fn recycled_batches_come_back_empty() {
        let (tx, rx) = batch_channel(2);
        assert_eq!(tx.reuse(), None);
        tx.send(vec![MemEvent::read(8); 3]).unwrap();
        let batch = rx.recv().unwrap();
        let cap = batch.capacity();
        rx.recycle(batch);
        rx.recycle(Vec::new());
        let back = tx.reuse().expect("the spent batch");
        assert!(back.is_empty());
        assert_eq!(back.capacity(), cap);
        assert_eq!(tx.reuse(), None, "an unallocated batch is not returned");
        drop(tx);
        assert!(rx.recv().is_err());
        rx.recycle(back);
    }
}
