//! The memhier ledger: the repository's benchmark.
//!
//! Each workload measures one path a memhier user waits on, timing calls
//! into the workspace crates' public functions from outside:
//!
//! * `sim_hit` / `sim_miss` — paper-size `Scenario::run` (what `memhier
//!   simulate --paper` does) on cache-friendly and miss-heavy scenarios;
//! * `trace_fit` — the record → fit → optimize toolchain;
//! * `serve_mix` — memhierd, as a child process driven over TCP by an
//!   open-loop mixed request stream.
//!
//! An untraced run reports the end-to-end metrics; a traced run reports
//! the per-layer metrics and writes the spans it recorded.  See README.md
//! for the metric definitions and the layer-to-end-to-end map.

mod batch;
mod layers;
mod serve_mix;
pub mod spans;
mod stats;
mod stream;

use memhier_bench::Sizes;
use std::path::PathBuf;

/// The ledger executable's internal child modes: `--memhierd` (serve
/// until stdin closes) and `--setup WORKLOAD SIZE` (time one set-up).
/// `None` when `args` asks for neither.
pub fn child(args: &[String]) -> Option<Result<(), String>> {
    match args {
        [flag] if flag == "--memhierd" => Some(serve_mix::memhierd_child()),
        [flag, workload, size] if flag == "--setup" => Some(batch::setup_child(workload, size)),
        _ => None,
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimHit,
    SimMiss,
    TraceFit,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimHit,
        Workload::SimMiss,
        Workload::TraceFit,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimHit => "sim_hit",
            Workload::SimMiss => "sim_miss",
            Workload::TraceFit => "trace_fit",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `CONFIG-WORKLOAD` scenarios the workload simulates: its passes
    /// for the batch workloads, the `/v1/simulate` bases for serve_mix.
    pub fn scenarios(self) -> &'static [&'static str] {
        match self {
            // L1 miss rate 0.3-6.5%: the cache hit path dominates.
            Workload::SimHit => &["C5-LU", "C14-Radix", "FT8-Stencil4D", "N4-Inference"],
            // Miss rate 6-90%: the directory/home-map/network path
            // dominates, and C10-TPCC is bound by address generation.
            Workload::SimMiss => &[
                "N4-GraphWalk",
                "FT16-GraphWalk",
                "C5-FFT",
                "C13-EDGE",
                "C10-TPCC",
            ],
            Workload::TraceFit => &["C5-FFT", "C14-Radix"],
            // Small simulations of 1-3 ms on four platform kinds.
            Workload::ServeMix => &["C9-EDGE", "N4-Stencil4D", "FT8-Stencil4D", "C1-GraphWalk"],
        }
    }
}

/// How one run is carried out.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Permutes the per-pass scenario order and seeds the request stream.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Problem size of the batch scenarios: paper in the benchmark.
    pub size: Sizes,
    /// Directory for scratch trace files.
    pub scratch: PathBuf,
    /// The ledger executable, which runs the child processes (see
    /// [`child`]).
    pub exe: PathBuf,
}

impl Plan {
    /// Size of the per-layer probes.  Paper-size event traces (C5-LU's is
    /// ~4 GB) do not fit in memory, so the layer probes of a paper-size
    /// run replay medium-size ones.
    pub fn layer_size(&self) -> Sizes {
        match self.size {
            Sizes::Paper => Sizes::Medium,
            other => other,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarizes.
    pub samples: usize,
    /// Which statistic it is, for the human-readable report.
    pub note: String,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations run (scenario runs, pipeline passes, requests, probes).
    pub attempted: u64,
    /// Operations whose output failed a check, or that failed outright.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Per-scenario and per-class detail lines (digests, medians).
    pub details: Vec<String>,
}

/// Failures kept verbatim in an [`Outcome`]; the rest are only counted.
const MAX_ERRORS: usize = 20;

impl Outcome {
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            note: note.into(),
        });
    }

    /// Count one operation, failed when `errors` is non-empty.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            let room = MAX_ERRORS.saturating_sub(self.errors.len());
            self.errors.extend(errors.into_iter().take(room));
        }
    }

    /// Count `attempted` operations, one failed per entry of `errors`.
    pub fn ops(&mut self, attempted: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += errors.len() as u64;
        let room = MAX_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(errors.into_iter().take(room));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn to_json(&self) -> serde_json::Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect();
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    }
}

/// Run `workload` untraced (end-to-end metrics) or traced (per-layer
/// metrics, spans kept in `rec`).
pub fn run(workload: Workload, plan: &Plan, traced: bool, rec: &mut spans::Recorder) -> Outcome {
    match (workload, traced) {
        (Workload::ServeMix, false) => serve_mix::run(plan, rec),
        (Workload::TraceFit, false) => batch::run_trace_fit(workload, plan, rec),
        (_, false) => batch::run_sim(workload, plan, rec),
        (_, true) => layers::run(workload, plan, rec),
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}
