//! # memhier-trace
//!
//! Address-trace collection and analysis for the IPPS'99 memory-hierarchy
//! model: exact LRU **stack-distance** computation (Bennett–Kruskal, counting
//! holes in a bitset over a word-level Fenwick tree), distance **histograms** and empirical CDFs, least-squares
//! **fitting** of the paper's locality parameters `(α, β)` (eq. 1), the
//! memory-reference density **ρ**, and a **synthetic trace generator** that
//! draws references from a target `(α, β)` distribution (used both for
//! property tests and for controlled model-vs-simulation experiments).
//!
//! The paper's §7 sketches exactly this toolchain: "(1) an efficient tool to
//! collect application program memory access traces, (2) a trace analysis
//! tool to compute the application parameters α, β, and ρ".
//!
//! ## Pipeline
//!
//! ```
//! use memhier_trace::{StackDistanceAnalyzer, fit::fit_locality};
//!
//! // Feed block addresses through the analyzer ...
//! let mut an = StackDistanceAnalyzer::new(64); // 64-byte granularity
//! for addr in [0u64, 64, 0, 128, 64, 0, 192, 0] {
//!     an.access(addr);
//! }
//! let hist = an.histogram();
//! assert_eq!(hist.total_refs(), 8);
//! // ... and fit (needs more data than this toy trace for a good fit).
//! let cdf = hist.cdf_points();
//! assert!(!cdf.is_empty());
//! let _fit = fit_locality(&cdf);
//! ```

pub mod fit;
pub mod format;
pub mod histogram;
pub mod phase;
pub mod stackdist;
pub mod stats;
pub mod stream;
pub mod synthetic;

pub use fit::{fit_locality, fit_locality_checked, FitError, FitResult};
pub use format::{TraceError, TraceHeader, TraceReader, TraceWriter};
pub use histogram::DistanceHistogram;
pub use phase::{PhaseAnalyzer, PhaseSummary};
pub use stackdist::{NaiveStackDistance, StackDistanceAnalyzer};
pub use stats::TraceStats;
pub use stream::{run_fit, FitReport, FitRequest, FitSnapshot, StreamAnalyzer};
pub use synthetic::SyntheticTrace;
