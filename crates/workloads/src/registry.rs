//! Sized workloads: the generator half of the workload table.  The
//! paper's problem sizes (§5.2) and the scaled tiers are a static table
//! indexed by the core [`WorkloadKind`] handle; [`Workload::instantiate`]
//! turns a sized workload into a runnable SPMD program.

use crate::edge::EdgeProgram;
use crate::fft::FftProgram;
use crate::graphwalk::GraphWalkProgram;
use crate::inference::InferenceProgram;
use crate::lu::LuProgram;
use crate::radix;
use crate::spmd::SpmdProgram;
use crate::stencil4d::Stencil4dProgram;
use crate::stream::StreamProgram;
use crate::tpcc::TpccProgram;
use crate::traced::{AddressSpace, CELL_BYTES, TOO_LARGE};
use std::sync::Arc;

pub use memhier_core::WorkloadKind;

/// A fully-specified workload: kind plus problem size.
///
/// `Hash` + `Eq` make a `Workload` (with a granularity) directly usable
/// as a characterization-cache key in the sweep runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// FFT over `points` complex points (a power of 4).
    Fft {
        /// Total complex points.
        points: usize,
    },
    /// LU of an `n × n` matrix in `block × block` blocks.
    Lu {
        /// Matrix dimension.
        n: usize,
        /// Block dimension.
        block: usize,
    },
    /// Radix sort of `keys` integers of `key_bits` bits with digit `radix`.
    Radix {
        /// Number of keys.
        keys: usize,
        /// Digit radix (power of two).
        radix: usize,
        /// Key width in bits.
        key_bits: u32,
    },
    /// Edge detection on a `dim × dim` image for `iterations` rounds.
    Edge {
        /// Image dimension.
        dim: usize,
        /// Blur/register/match iterations.
        iterations: usize,
    },
    /// Synthetic TPC-C: `db_cells` cells per region, `refs_per_proc`
    /// accesses per process.
    Tpcc {
        /// Cells per database region.
        db_cells: usize,
        /// References each process issues.
        refs_per_proc: usize,
    },
    /// 4-D stencil sweep over an `l⁴` lattice for `iterations` rounds.
    Stencil4D {
        /// Lattice extent per dimension.
        l: usize,
        /// Relaxation sweeps.
        iterations: usize,
    },
    /// Streaming scan over `elems` cells for `passes` passes.
    Stream {
        /// Elements per array.
        elems: usize,
        /// Scan passes.
        passes: usize,
    },
    /// Pointer chase over a `nodes`-cycle for `steps` hops per process.
    GraphWalk {
        /// Permutation size.
        nodes: usize,
        /// Hops each process takes.
        steps: usize,
    },
    /// Forward inference: `layers` of `dim × dim` weights over `batch` rows.
    Inference {
        /// Layer width.
        dim: usize,
        /// Layer count.
        layers: usize,
        /// Batch rows.
        batch: usize,
    },
}

/// Problem-size tiers, `[small, medium, paper]`, one row per workload in
/// [`WorkloadKind::ALL`] order (indexed by [`WorkloadKind::index`]).
static TIERS: [[Workload; 3]; 9] = [
    [
        Workload::Fft { points: 4096 },
        Workload::Fft { points: 16 * 1024 }, // 512 KB data
        Workload::Fft { points: 64 * 1024 },
    ],
    [
        Workload::Lu { n: 64, block: 8 },
        Workload::Lu { n: 192, block: 16 }, // 288 KB matrix
        Workload::Lu { n: 512, block: 16 },
    ],
    [
        Workload::Radix {
            keys: 16 * 1024,
            radix: 256,
            key_bits: 16,
        },
        Workload::Radix {
            keys: 128 * 1024,
            radix: 1024,
            key_bits: 20,
        }, // 2 MB
        Workload::Radix {
            keys: 1024 * 1024,
            radix: 1024,
            key_bits: 20,
        },
    ],
    [
        Workload::Edge {
            dim: 32,
            iterations: 2,
        },
        Workload::Edge {
            dim: 128,
            iterations: 4,
        }, // paper size
        Workload::Edge {
            dim: 128,
            iterations: 4,
        },
    ],
    [
        Workload::Tpcc {
            db_cells: 1 << 12,
            refs_per_proc: 20_000,
        },
        Workload::Tpcc {
            db_cells: 1 << 16,
            refs_per_proc: 100_000,
        },
        Workload::Tpcc {
            db_cells: 1 << 17,
            refs_per_proc: 500_000,
        },
    ],
    [
        Workload::Stencil4D {
            l: 8,
            iterations: 2,
        },
        Workload::Stencil4D {
            l: 16,
            iterations: 2,
        }, // 1 MB of field data
        Workload::Stencil4D {
            l: 16,
            iterations: 8,
        },
    ],
    [
        Workload::Stream {
            elems: 64 * 1024,
            passes: 2,
        },
        Workload::Stream {
            elems: 256 * 1024,
            passes: 2,
        }, // 4 MB
        Workload::Stream {
            elems: 1024 * 1024,
            passes: 4,
        },
    ],
    [
        Workload::GraphWalk {
            nodes: 16 * 1024,
            steps: 20_000,
        },
        Workload::GraphWalk {
            nodes: 64 * 1024,
            steps: 100_000,
        }, // 1 MB
        Workload::GraphWalk {
            nodes: 256 * 1024,
            steps: 500_000,
        },
    ],
    [
        Workload::Inference {
            dim: 48,
            layers: 2,
            batch: 16,
        },
        Workload::Inference {
            dim: 96,
            layers: 3,
            batch: 16,
        }, // 216 KB of weights
        Workload::Inference {
            dim: 128,
            layers: 4,
            batch: 32,
        },
    ],
];

impl Workload {
    /// The paper's §5.2 problem sizes: FFT 64 K points, LU 512 × 512,
    /// Radix 1 M integers radix 1024, EDGE 128 × 128.
    pub fn paper(kind: WorkloadKind) -> Workload {
        TIERS[kind.index()][2]
    }

    /// Small sizes for fast tests and CI (same structure, ~100× less work).
    pub fn small(kind: WorkloadKind) -> Workload {
        TIERS[kind.index()][0]
    }

    /// Medium sizes for the experiment harness's default mode — working
    /// sets exceed the studied cache sizes (so every hierarchy level is
    /// exercised) while a 15-configuration × 4-application sweep stays in
    /// the minutes range.
    pub fn medium(kind: WorkloadKind) -> Workload {
        TIERS[kind.index()][1]
    }

    /// Which workload this is.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            Workload::Fft { .. } => WorkloadKind::Fft,
            Workload::Lu { .. } => WorkloadKind::Lu,
            Workload::Radix { .. } => WorkloadKind::Radix,
            Workload::Edge { .. } => WorkloadKind::Edge,
            Workload::Tpcc { .. } => WorkloadKind::Tpcc,
            Workload::Stencil4D { .. } => WorkloadKind::Stencil4D,
            Workload::Stream { .. } => WorkloadKind::Stream,
            Workload::GraphWalk { .. } => WorkloadKind::GraphWalk,
            Workload::Inference { .. } => WorkloadKind::Inference,
        }
    }

    /// Whether this size can be partitioned across `processes` SPMD
    /// processes — the kernels' divisibility constraints, queryable
    /// without instantiating: FFT needs `processes | √points`, Radix
    /// `processes | keys`, EDGE `processes | dim` (rows of the image);
    /// LU and TPC-C accept any positive count.
    ///
    /// Config planners (the fleet optimizer, sweep assemblers) use this
    /// to pass over grid points no decomposition exists for instead of
    /// tripping [`instantiate`](Self::instantiate)'s assertions.
    pub fn supports_processes(&self, processes: usize) -> bool {
        if processes == 0 {
            return false;
        }
        match *self {
            Workload::Fft { points } => {
                let m = 1usize << (points.trailing_zeros() / 2);
                m.is_multiple_of(processes)
            }
            Workload::Lu { .. } => true,
            Workload::Radix { keys, .. } => keys.is_multiple_of(processes),
            Workload::Edge { dim, .. } => dim.is_multiple_of(processes),
            Workload::Tpcc { .. } => true,
            Workload::Stencil4D { l, .. } => l.is_multiple_of(processes),
            Workload::Stream { elems, .. } => elems.is_multiple_of(processes),
            Workload::GraphWalk { nodes, .. } => processes <= nodes,
            Workload::Inference { batch, .. } => batch.is_multiple_of(processes),
        }
    }

    /// Check that the arrays [`instantiate`](Self::instantiate) lays out
    /// for `processes` processes fit the simulated address space (below
    /// [`ADDRESS_LIMIT`](memhier_sim::event::ADDRESS_LIMIT)); returns the
    /// end of the last one.
    pub fn check_layout(&self, processes: usize) -> Result<u64, String> {
        let mut space = AddressSpace::default();
        let mut end = AddressSpace::DEFAULT_BASE;
        for len in self.array_lens(processes).ok_or(TOO_LARGE)? {
            end = space.try_alloc(len)? + len as u64 * CELL_BYTES;
        }
        Ok(end)
    }

    /// Element counts of the arrays `instantiate(processes)` allocates,
    /// in allocation order; `None` if one overflows `usize`.
    fn array_lens(&self, processes: usize) -> Option<Vec<usize>> {
        let square = |n: usize| n.checked_mul(n);
        Some(match *self {
            Workload::Fft { points } => vec![points; 6],
            Workload::Lu { n, .. } => vec![square(n)?],
            Workload::Radix { keys, radix, .. } => vec![keys, keys, processes.checked_mul(radix)?],
            Workload::Edge { dim, .. } => vec![square(dim)?; 4],
            Workload::Tpcc { db_cells, .. } => vec![db_cells.checked_mul(processes)?, db_cells],
            Workload::Stencil4D { l, .. } => vec![square(square(l)?)?; 2],
            Workload::Stream { elems, .. } => vec![elems; 2],
            Workload::GraphWalk { nodes, .. } => vec![nodes, nodes, processes],
            Workload::Inference { dim, layers, batch } => {
                let acts = batch.checked_mul(dim)?;
                vec![layers.checked_mul(square(dim)?)?, acts, acts]
            }
        })
    }

    /// Instantiate for `processes` SPMD processes with a fixed seed.
    ///
    /// Panics if `processes` is incompatible with the size (each kernel
    /// documents its divisibility constraint; probe with
    /// [`supports_processes`](Self::supports_processes) first when the
    /// count comes from a searched grid rather than a curated config).
    pub fn instantiate(&self, processes: usize) -> Arc<dyn SpmdProgram> {
        let seed = 0xC0FFEE;
        match *self {
            Workload::Fft { points } => FftProgram::random_input(points, processes, seed),
            Workload::Lu { n, block } => LuProgram::random_dd(n, block, processes, seed),
            Workload::Radix {
                keys,
                radix,
                key_bits,
            } => radix::program(keys, radix, key_bits, processes, seed),
            Workload::Edge { dim, iterations } => {
                EdgeProgram::synthetic(dim, iterations, processes)
            }
            Workload::Tpcc {
                db_cells,
                refs_per_proc,
            } => TpccProgram::new(db_cells, refs_per_proc, processes, seed),
            Workload::Stencil4D { l, iterations } => {
                Stencil4dProgram::random_field(l, iterations, processes, seed)
            }
            Workload::Stream { elems, passes } => StreamProgram::new(elems, passes, processes),
            Workload::GraphWalk { nodes, steps } => {
                GraphWalkProgram::random_cycle(nodes, steps, processes, seed)
            }
            Workload::Inference { dim, layers, batch } => {
                InferenceProgram::random_weights(dim, layers, batch, processes, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;

    #[test]
    fn every_reference_falls_inside_the_checked_layout() {
        for kind in WorkloadKind::ALL {
            let w = Workload::small(kind);
            let procs = if w.supports_processes(2) { 2 } else { 1 };
            let end = w.check_layout(procs).unwrap();
            let max = crate::spmd::collect_events(w.instantiate(procs))
                .iter()
                .flat_map(|(events, _)| events.iter().filter_map(|e| e.address()))
                .max()
                .unwrap();
            assert!(
                max < end,
                "{kind:?}: {max:#x} past the layout's end {end:#x}"
            );
        }
    }

    #[test]
    fn paper_sizes_match_section_5_2() {
        assert_eq!(
            Workload::paper(WorkloadKind::Fft),
            Workload::Fft { points: 65536 }
        );
        assert_eq!(
            Workload::paper(WorkloadKind::Lu),
            Workload::Lu { n: 512, block: 16 }
        );
        assert_eq!(
            Workload::paper(WorkloadKind::Radix),
            Workload::Radix {
                keys: 1_048_576,
                radix: 1024,
                key_bits: 20
            }
        );
        assert_eq!(
            Workload::paper(WorkloadKind::Edge),
            Workload::Edge {
                dim: 128,
                iterations: 4
            }
        );
    }

    #[test]
    fn kinds_roundtrip() {
        for k in WorkloadKind::ALL {
            assert_eq!(Workload::paper(k).kind(), k);
            assert_eq!(Workload::small(k).kind(), k);
            assert_eq!(Workload::medium(k).kind(), k);
        }
    }

    #[test]
    fn supports_processes_matches_kernel_constraints() {
        // small FFT: 4096 points → m = 64 rows; small Radix: 16 K keys;
        // small EDGE: 32-row image.
        let fft = Workload::small(WorkloadKind::Fft);
        assert!(fft.supports_processes(64) && !fft.supports_processes(3));
        let radix = Workload::small(WorkloadKind::Radix);
        assert!(radix.supports_processes(8) && !radix.supports_processes(6));
        let edge = Workload::small(WorkloadKind::Edge);
        assert!(edge.supports_processes(16) && !edge.supports_processes(5));
        for k in [WorkloadKind::Lu, WorkloadKind::Tpcc] {
            assert!(Workload::small(k).supports_processes(7));
        }
        for k in WorkloadKind::PAPER {
            assert!(!Workload::small(k).supports_processes(0));
        }
    }

    #[test]
    fn every_small_workload_runs_on_1_2_4_procs() {
        for k in WorkloadKind::ALL {
            for procs in [1usize, 2, 4] {
                let p = Workload::small(k).instantiate(procs);
                assert_eq!(p.processes(), procs);
                assert_eq!(p.name(), k.name(), "programs are named by their table key");
                let c = run_spmd(p);
                assert!(c.mem_refs() > 0, "{k:?} on {procs} procs produced no refs");
            }
        }
    }

    #[test]
    fn new_workload_divisibility() {
        let st = Workload::small(WorkloadKind::Stencil4D);
        assert!(st.supports_processes(8) && !st.supports_processes(3));
        let s = Workload::small(WorkloadKind::Stream);
        assert!(s.supports_processes(16) && !s.supports_processes(7));
        let g = Workload::small(WorkloadKind::GraphWalk);
        assert!(g.supports_processes(5) && !g.supports_processes(0));
        let i = Workload::small(WorkloadKind::Inference);
        assert!(i.supports_processes(8) && !i.supports_processes(3));
    }
}
