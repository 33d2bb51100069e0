//! Glue between the workloads, the trace analyzer, the simulator, and the
//! analytic model.
//!
//! Every simulation here runs the simulator's one streaming engine: the
//! `SimSession` defaults, with no engine selection above `memhier-sim`.

use memhier_core::locality::WorkloadParams;
use memhier_core::machine::LatencyParams;
use memhier_core::platform::ClusterSpec;
use memhier_sim::backend::ClusterBackend;
use memhier_sim::engine::{ProcSource, SimSession};
use memhier_sim::observe::{EventTracer, MetricsSeries, TimeSeriesCollector, TraceLog};
use memhier_sim::report::SimReport;
use memhier_trace::{fit_locality, StackDistanceAnalyzer};
use memhier_workloads::registry::{Workload, WorkloadKind};
use memhier_workloads::spmd::{home_map_for, stream_spmd, ProcCounters};
use serde::{Deserialize, Serialize};

/// Problem-size tier for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// Tiny (CI tests).
    Small,
    /// Default for `memhier reproduce`: minutes, not hours.
    Medium,
    /// The paper's §5.2 sizes (pass `--paper` to `memhier reproduce`).
    Paper,
}

impl Sizes {
    /// Resolve a workload at this tier.
    pub fn workload(&self, kind: WorkloadKind) -> Workload {
        match self {
            Sizes::Small => Workload::small(kind),
            Sizes::Medium => Workload::medium(kind),
            Sizes::Paper => Workload::paper(kind),
        }
    }
}

/// One simulation run's outputs.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The simulator's report.
    pub report: SimReport,
    /// The workload's instruction counters.
    pub counters: ProcCounters,
}

/// Run `workload` on `cluster` through the full program-driven simulator
/// with the paper's latency table.
pub fn simulate_workload(workload: &Workload, cluster: &ClusterSpec) -> SimRun {
    simulate_workload_observed(workload, cluster, &ObserverConfig::default()).run
}

/// Which observers to attach to a simulated run.  The default attaches
/// none, which keeps the engine's hot loop snapshot-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverConfig {
    /// Attach a [`TimeSeriesCollector`] with this window width (cycles).
    pub metrics_window: Option<u64>,
    /// Attach an [`EventTracer`] bounded to this many events.
    pub trace_capacity: Option<usize>,
}

impl ObserverConfig {
    /// Whether any observer is requested.
    pub fn is_active(&self) -> bool {
        self.metrics_window.is_some() || self.trace_capacity.is_some()
    }
}

/// A simulation run plus whatever the configured observers collected.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The plain run outputs.
    pub run: SimRun,
    /// Windowed metrics, when [`ObserverConfig::metrics_window`] was set.
    pub metrics: Option<MetricsSeries>,
    /// Bounded event trace, when [`ObserverConfig::trace_capacity`] was set.
    pub trace: Option<TraceLog>,
}

/// [`simulate_workload`] plus observers: the full observability entry
/// point behind [`Scenario::run`](crate::Scenario::run), which the sweep
/// runner and the CLI's `--metrics`/`--trace` flags go through.  Its
/// inputs must be owned or `Send`, since sweep workers run it (checked
/// at compile time below).
pub fn simulate_workload_observed(
    workload: &Workload,
    cluster: &ClusterSpec,
    observers: &ObserverConfig,
) -> ObservedRun {
    let procs = cluster.total_procs() as usize;
    let program = workload.instantiate(procs);
    let home = home_map_for(
        &*program,
        cluster.machines as usize,
        cluster.machine.n_procs as usize,
        256,
    );
    let backend = ClusterBackend::new(cluster, LatencyParams::paper(), home);
    let cfg = *observers;
    let (out, counters) = stream_spmd(program, move |rxs| {
        let mut session = SimSession::new(backend)
            .with_sources(rxs.into_iter().map(ProcSource::Channel).collect());
        if let Some(window) = cfg.metrics_window {
            session = session.observe(TimeSeriesCollector::new(window));
        }
        if let Some(cap) = cfg.trace_capacity {
            session = session.observe(EventTracer::new(cap));
        }
        session.run()
    });
    let metrics = out
        .observer::<TimeSeriesCollector>()
        .map(|c| c.series().clone());
    let trace = out.observer::<EventTracer>().map(|t| t.log().clone());
    ObservedRun {
        run: SimRun {
            report: out.report,
            counters,
        },
        metrics,
        trace,
    }
}

// Send audit for the sweep runner: every input a worker thread closes
// over when running one grid point.  A non-`Send` field sneaking into
// any of these types turns into a compile error here instead of a
// trait-bound error deep inside rayon.
#[allow(dead_code)]
fn _sweep_inputs_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Workload>();
    assert_send::<ClusterSpec>();
    assert_send::<ClusterBackend>();
    assert_send::<SimRun>();
    assert_send::<ObserverConfig>();
    assert_send::<ObservedRun>();
    assert_send::<Characterization>();
}

/// A workload's measured characterization — our reproduction of Table 2's
/// per-program `(α, β, ρ)` row, with fit quality and footprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Characterization {
    /// Workload name.
    pub name: String,
    /// Fitted locality shape `α`.
    pub alpha: f64,
    /// Fitted locality scale `β` (bytes).
    pub beta: f64,
    /// Log-domain fit quality.
    pub r_squared: f64,
    /// Measured `ρ = M/(m+M)`.
    pub rho: f64,
    /// Measured barriers per instruction.
    pub barrier_rate: f64,
    /// Unique bytes touched.
    pub footprint_bytes: f64,
    /// Memory references analyzed.
    pub refs: u64,
    /// Store share of references (informs the model's dirty fraction).
    pub write_fraction: f64,
    /// Fraction of references touching data owned by another process,
    /// measured on a 4-process decomposition (drives the model's
    /// remote-level sharing flow).
    pub sharing_fraction: f64,
}

impl Characterization {
    /// The workload this characterization measured (programs are named
    /// by their workload-table key).
    pub fn kind(&self) -> WorkloadKind {
        WorkloadKind::parse(&self.name).expect("characterized programs carry a table key")
    }

    /// Convert to the analytic model's workload parameters.
    pub fn to_model_params(&self) -> WorkloadParams {
        WorkloadParams::new(
            self.name.clone(),
            self.alpha.max(1.0001),
            self.beta.max(1.01),
            self.rho,
        )
        .expect("measured parameters are in range")
        .with_footprint(self.footprint_bytes.max(1.0))
        .with_barrier_rate(self.barrier_rate)
        .with_dirty_fraction((self.write_fraction * 0.7).clamp(0.05, 0.6))
        .with_sharing_fraction(self.sharing_fraction)
    }
}

/// Run `workload` on one process, stream its address trace through the
/// exact stack-distance analyzer, and fit `(α, β)` — the paper's §5.2
/// methodology ("we first collected the values of α and β of the four
/// applications on a one-processor system").
pub fn characterize(workload: &Workload, granularity: u64) -> Characterization {
    let program = workload.instantiate(1);
    let name = program.name().to_string();
    let (analyzer, counters) = stream_spmd(program, |rxs| {
        let rx = rxs.into_iter().next().expect("one process");
        let mut an = StackDistanceAnalyzer::new(granularity);
        rx.for_each(|ev| {
            if let Some(addr) = ev.address() {
                an.access(addr);
            }
        });
        an
    });
    let hist = analyzer.histogram();
    let fit = fit_locality(&hist.cdf_points()).unwrap_or(memhier_trace::FitResult {
        alpha: 1.5,
        beta: 100.0,
        r_squared: 0.0,
        points: 0,
    });
    Characterization {
        name,
        alpha: fit.alpha,
        beta: fit.beta,
        r_squared: fit.r_squared,
        rho: counters.rho(),
        barrier_rate: counters.barriers as f64 / counters.total_instructions().max(1) as f64,
        footprint_bytes: analyzer.unique_blocks() as f64 * granularity as f64,
        refs: counters.mem_refs(),
        write_fraction: counters.writes as f64 / counters.mem_refs().max(1) as f64,
        sharing_fraction: measure_sharing(workload, 4),
    }
}

/// Measure the fraction of references touching data owned by another
/// process, on a `procs`-way decomposition of `workload`.  Unpartitioned
/// addresses (e.g. a shared table) count as shared.
pub fn measure_sharing(workload: &Workload, procs: usize) -> f64 {
    let program = workload.instantiate(procs);
    // Sorted partition table for binary-search ownership lookup.
    let mut parts = program.partitions();
    parts.sort_unstable();
    let owner = move |addr: u64| -> Option<usize> {
        let pos = parts.partition_point(|&(s, _, _)| s <= addr);
        if pos > 0 {
            let (s, e, p) = parts[pos - 1];
            if addr >= s && addr < e {
                return Some(p);
            }
        }
        None
    };
    let owner = std::sync::Arc::new(owner);
    let ((shared, total), _) = stream_spmd(program, move |rxs| {
        // One counting thread per process stream (fair, deadlock-free).
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(pid, rx)| {
                let owner = std::sync::Arc::clone(&owner);
                std::thread::spawn(move || {
                    let mut shared = 0u64;
                    let mut total = 0u64;
                    rx.for_each(|ev| {
                        if let Some(addr) = ev.address() {
                            total += 1;
                            if owner(addr) != Some(pid) {
                                shared += 1;
                            }
                        }
                    });
                    (shared, total)
                })
            })
            .collect();
        let mut shared = 0u64;
        let mut total = 0u64;
        for h in handles {
            let (s, t) = h.join().expect("counter thread");
            shared += s;
            total += t;
        }
        (shared, total)
    });
    if total == 0 {
        0.0
    } else {
        shared as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier_core::machine::{MachineSpec, NetworkKind};

    #[test]
    fn characterize_small_fft() {
        let c = characterize(&Sizes::Small.workload(WorkloadKind::Fft), 64);
        assert_eq!(c.name, "FFT");
        assert!(c.alpha > 1.0, "alpha {}", c.alpha);
        assert!(c.beta > 1.0);
        assert!(c.rho > 0.1 && c.rho < 0.9, "rho {}", c.rho);
        assert!(c.refs > 10_000);
        assert!(c.footprint_bytes > 0.0);
        // Model params conversion is valid.
        let w = c.to_model_params();
        assert_eq!(w.name, "FFT");
    }

    #[test]
    fn simulate_small_fft_on_smp() {
        let cluster = ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0));
        let run = simulate_workload(&Sizes::Small.workload(WorkloadKind::Fft), &cluster);
        assert!(run.report.wall_cycles > 0);
        assert!(run.report.e_instr_cycles > 0.5);
        assert_eq!(run.report.total_refs, run.counters.mem_refs());
        assert!(run.report.levels.l1_hits > run.report.levels.local_memory);
    }

    #[test]
    fn simulate_small_radix_on_cow() {
        let cluster = ClusterSpec::cluster(
            MachineSpec::new(1, 256, 32, 200.0),
            2,
            NetworkKind::Ethernet100,
        );
        let run = simulate_workload(&Sizes::Small.workload(WorkloadKind::Radix), &cluster);
        // Radix's permute phase must generate remote traffic.
        let remote = run.report.levels.remote_clean + run.report.levels.remote_dirty;
        assert!(remote > 0, "no remote traffic: {:?}", run.report.levels);
        assert!(run.report.barriers > 0);
    }
}
