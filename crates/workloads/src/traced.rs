//! Instrumented shared arrays.
//!
//! [`TracedArray<T>`] is the workloads' only window onto shared data: every
//! `get`/`set` goes through the process's [`crate::spmd::SpmdCtx`], which
//! emits the corresponding [`memhier_sim::MemEvent`] — the same role MINT's
//! binary instrumentation plays for the paper's simulators.
//!
//! Storage is a `Vec` of the element type's atomic cell ([`Scalar::Cell`]):
//! `AtomicU32` for `u32` elements, `AtomicU64` for the 8-byte types, so a
//! host array takes the element's own width.  The simulated layout does
//! not depend on it: every element still occupies [`CELL_BYTES`] of the
//! simulated address space.  Cells are accessed with `Ordering::Relaxed`:
//! the kernels are barrier-synchronized with disjoint writes inside each
//! phase, and the real `std::sync::Barrier` between phases provides the
//! happens-before edges, so relaxed atomics are sufficient and keep the
//! code free of `unsafe` (see the Rust Atomics and Locks guidance on
//! fence-synchronized relaxed data).

use crate::spmd::SpmdCtx;
use memhier_sim::event::ADDRESS_LIMIT;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Element types storable in a traced cell.
pub trait Scalar: Copy + Send + Sync + 'static {
    /// The atomic host cell holding one element.
    type Cell: Send + Sync;
    /// A cell holding `self`.
    fn cell(self) -> Self::Cell;
    /// Relaxed load.
    fn load(cell: &Self::Cell) -> Self;
    /// Relaxed store.
    fn store(cell: &Self::Cell, v: Self);
}

macro_rules! scalar {
    ($t:ty, $cell:ty, $to:expr, $from:expr) => {
        impl Scalar for $t {
            type Cell = $cell;
            fn cell(self) -> $cell {
                <$cell>::new($to(self))
            }
            fn load(cell: &$cell) -> Self {
                $from(cell.load(Ordering::Relaxed))
            }
            fn store(cell: &$cell, v: Self) {
                cell.store($to(v), Ordering::Relaxed)
            }
        }
    };
}

scalar!(f64, AtomicU64, f64::to_bits, f64::from_bits);
scalar!(u64, AtomicU64, |v| v, |b| b);
scalar!(i64, AtomicU64, |v: i64| v as u64, |b| b as i64);
scalar!(u32, AtomicU32, |v| v, |b| b);

/// A shared, instrumented array of `T` with a fixed simulated base address.
///
/// Every element occupies 8 simulated bytes (one cell) whatever its host
/// width, so the element at index `i` lives at `base + 8·i` in the
/// simulated address space.
pub struct TracedArray<T: Scalar> {
    base: u64,
    cells: Vec<T::Cell>,
}

/// Simulated bytes per element.
pub const CELL_BYTES: u64 = 8;

impl<T: Scalar> TracedArray<T> {
    /// Allocate `len` elements at simulated address `base`, initialized by
    /// `init(i)` (initialization is *untraced*: the paper measures the
    /// parallel phase, not program loading).
    pub fn new_with(base: u64, len: usize, init: impl Fn(usize) -> T) -> Self {
        let cells = (0..len).map(|i| init(i).cell()).collect();
        TracedArray { base, cells }
    }

    /// Allocate `len` zero-bit elements at `base`.
    pub fn new(base: u64, len: usize) -> Self
    where
        T: Default,
    {
        Self::new_with(base, len, |_| T::default())
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Simulated base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Simulated end address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.cells.len() as u64 * CELL_BYTES
    }

    /// Simulated address of element `i`.
    pub fn addr_of(&self, i: usize) -> u64 {
        self.base + i as u64 * CELL_BYTES
    }

    /// Traced load.
    pub fn get(&self, ctx: &mut SpmdCtx, i: usize) -> T {
        ctx.read(self.addr_of(i));
        T::load(&self.cells[i])
    }

    /// Traced store.
    pub fn set(&self, ctx: &mut SpmdCtx, i: usize, v: T) {
        ctx.write(self.addr_of(i));
        T::store(&self.cells[i], v);
    }

    /// Untraced load — for result verification and initialization only.
    pub fn get_silent(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Untraced store — for initialization only.
    pub fn set_silent(&self, i: usize, v: T) {
        T::store(&self.cells[i], v);
    }

    /// Untraced snapshot of the whole array.
    pub fn snapshot(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get_silent(i)).collect()
    }
}

/// Why a layout reaching [`ADDRESS_LIMIT`] is refused.
pub(crate) const TOO_LARGE: &str =
    "the workload's arrays do not fit in the 2^62-byte simulated address space";

/// A simple bump allocator for simulated addresses, block-aligned so that
/// distinct arrays never share a coherence block.  Every array ends at or
/// below [`ADDRESS_LIMIT`], the addresses a `MemEvent` can carry.
#[derive(Debug)]
pub struct AddressSpace {
    next: u64,
    align: u64,
}

impl AddressSpace {
    /// Conventional program base (arbitrary, nonzero to catch stray zeros).
    pub const DEFAULT_BASE: u64 = 0x1000_0000;

    /// New allocator starting at `DEFAULT_BASE`, aligning to `align` bytes.
    pub fn new(align: u64) -> Self {
        assert!(align.is_power_of_two());
        AddressSpace {
            next: Self::DEFAULT_BASE,
            align,
        }
    }

    /// Reserve space for `len` elements; returns the base address.
    /// Panics if the array would reach [`ADDRESS_LIMIT`]
    /// (`Workload::build` refuses such a layout up front).
    pub fn alloc(&mut self, len: usize) -> u64 {
        self.try_alloc(len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reserve space for `len` elements, or refuse if the array would
    /// reach [`ADDRESS_LIMIT`].
    pub fn try_alloc(&mut self, len: usize) -> Result<u64, String> {
        let base = self.next;
        let end = (len as u64)
            .checked_mul(CELL_BYTES)
            .and_then(|bytes| base.checked_add(bytes))
            .filter(|&end| end <= ADDRESS_LIMIT)
            .ok_or(TOO_LARGE)?;
        self.next = (end + self.align - 1) & !(self.align - 1);
        Ok(base)
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        // 4 KiB alignment keeps arrays on distinct pages *and* blocks.
        Self::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::test_ctx;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(f64::load(&3.25f64.cell()), 3.25);
        assert_eq!(u64::load(&u64::MAX.cell()), u64::MAX);
        assert_eq!(u32::load(&u32::MAX.cell()), u32::MAX);
        assert_eq!(i64::load(&(-9i64).cell()), -9);
    }

    #[test]
    fn cells_take_the_element_width() {
        use std::mem::size_of;
        assert_eq!(size_of::<<u32 as Scalar>::Cell>(), 4);
        assert_eq!(size_of::<<f64 as Scalar>::Cell>(), 8);
        assert_eq!(size_of::<<u64 as Scalar>::Cell>(), 8);
        assert_eq!(size_of::<<i64 as Scalar>::Cell>(), 8);
        // The simulated layout is the same at either width.
        let a: TracedArray<u32> = TracedArray::new(0x1000, 10);
        assert_eq!(a.addr_of(3), 0x1000 + 24);
        assert_eq!(a.end(), 0x1000 + 80);
    }

    #[test]
    fn addresses_and_layout() {
        let a: TracedArray<f64> = TracedArray::new(0x1000, 10);
        assert_eq!(a.len(), 10);
        assert_eq!(a.addr_of(0), 0x1000);
        assert_eq!(a.addr_of(3), 0x1000 + 24);
        assert_eq!(a.end(), 0x1000 + 80);
    }

    #[test]
    fn traced_access_emits_events() {
        let a: TracedArray<u64> = TracedArray::new(0x1000, 4);
        let (mut ctx, drain) = test_ctx(0);
        a.set(&mut ctx, 2, 99);
        assert_eq!(a.get(&mut ctx, 2), 99);
        let events = drain(ctx);
        use memhier_sim::MemEvent;
        assert_eq!(
            events,
            vec![MemEvent::write(0x1010), MemEvent::read(0x1010)]
        );
    }

    #[test]
    fn silent_access_does_not_trace() {
        let a: TracedArray<u64> = TracedArray::new_with(0, 4, |i| i as u64);
        let (ctx, drain) = test_ctx(0);
        assert_eq!(a.get_silent(3), 3);
        a.set_silent(3, 7);
        assert_eq!(a.get_silent(3), 7);
        assert!(drain(ctx).is_empty());
        assert_eq!(a.snapshot(), vec![0, 1, 2, 7]);
    }

    #[test]
    fn address_space_is_aligned_and_disjoint() {
        let mut sp = AddressSpace::default();
        let a = sp.alloc(100);
        let b = sp.alloc(1);
        let c = sp.alloc(1000);
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 800);
        assert!(c >= b + 8);
    }
}
