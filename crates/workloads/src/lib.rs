//! # memhier-workloads
//!
//! Instrumented SPMD implementations of the paper's four applications
//! (§5.2) plus a synthetic commercial workload:
//!
//! * **FFT** — complex 1-D six-step FFT, 64 K points, contiguous
//!   per-process partitions (SPLASH-2 kernel).
//! * **LU** — blocked dense LU factorization, 512 × 512, blocks assigned by
//!   2-D scatter decomposition (SPLASH-2 kernel).
//! * **Radix** — iterative radix sort, 1 M integers, radix 1024
//!   (SPLASH-2 kernel).
//! * **EDGE** — iterative parallel edge detection (blur / register / match
//!   phases with a barrier per iteration), 128 × 128 bitmap.
//! * **TPCC** — a tuned synthetic stream reproducing the paper's published
//!   TPC-C locality (α ≈ 1.73, β ≈ 1222.66, ρ ≈ 0.36); real TPC-C traces
//!   are proprietary (DESIGN.md substitution 3).
//!
//! Beyond the paper's set, four generators broaden the locality spectrum:
//!
//! * **Stencil4D** — QCD-style 4-D nearest-neighbor relaxation with halo
//!   exchange over slab partitions.
//! * **Stream** — touch-once streaming scan, the α → 1 corner of the
//!   stack-distance model.
//! * **GraphWalk** — pointer chase over a random single-cycle permutation:
//!   dependent loads, no spatial locality.
//! * **Inference** — batched weight-streaming MLP forward pass.
//!
//! Each workload is one core row plus one generator arm: its name,
//! aliases and `(α, β, ρ)` are a row of `memhier-core`'s workload table
//! behind the [`WorkloadKind`] handle, and this crate keys the generator
//! half by the same handle — the size tiers in [`registry`], the parameter
//! schema and parameter-map builder in [`catalog`].
//!
//! Every kernel is a *real computation* — tests check numeric results —
//! executed under the [`spmd`] harness, which runs one OS thread per
//! logical process, routes all data accesses through [`traced::TracedArray`]
//! (emitting [`memhier_sim::MemEvent`]s), and keeps the real `std::sync`
//! barriers aligned with the simulated barrier events (the engine's
//! barrier contract).
//!
//! Problem sizes are configurable; the paper sizes (§5.2) and a small fast
//! test size are provided by [`registry::Workload`].

pub mod catalog;
pub mod edge;
pub mod fft;
pub mod graphwalk;
pub mod inference;
pub mod lu;
pub mod radix;
pub mod registry;
pub mod spmd;
pub mod stencil4d;
pub mod stream;
pub mod tpcc;
pub mod traced;

pub use registry::{Workload, WorkloadKind};
pub use spmd::{run_spmd, SpmdCtx, SpmdProgram, TraceSink};
