//! Cross-crate integration: workload → trace → fit → model pipeline.

use memhier::core::model::AnalyticModel;
use memhier::trace::{fit_locality, StackDistanceAnalyzer, SyntheticTrace};
use memhier::workloads::registry::{Workload, WorkloadKind};
use memhier::workloads::spmd::stream_spmd;

/// Characterize a small workload: stream its 1-process trace through the
/// exact analyzer and fit (α, β).
fn fit_kernel(kind: WorkloadKind) -> (f64, f64, f64, f64) {
    let program = Workload::small(kind).instantiate(1);
    let (an, counters) = stream_spmd(program, |rxs| {
        let rx = rxs.into_iter().next().unwrap();
        let mut an = StackDistanceAnalyzer::new(64);
        rx.for_each(|ev| {
            if let Some(a) = ev.address() {
                an.access(a);
            }
        });
        an
    });
    let fit = fit_locality(&an.histogram().cdf_points()).expect("fit");
    (fit.alpha, fit.beta, fit.r_squared, counters.rho())
}

#[test]
fn every_kernel_fits_the_locality_model() {
    for kind in WorkloadKind::PAPER {
        let (alpha, beta, r2, rho) = fit_kernel(kind);
        assert!(alpha > 1.0 && alpha < 4.0, "{kind:?}: alpha {alpha}");
        assert!(beta > 1.0, "{kind:?}: beta {beta}");
        assert!(r2 > 0.5, "{kind:?}: poor fit R^2 = {r2}");
        assert!(rho > 0.05 && rho < 0.95, "{kind:?}: rho {rho}");
    }
}

#[test]
fn fitted_parameters_drive_the_model() {
    // The measured characterization of any kernel must produce a finite,
    // positive prediction on every paper configuration.
    let (alpha, beta, _, rho) = fit_kernel(WorkloadKind::Lu);
    let w = memhier::core::locality::WorkloadParams::new("LU*", alpha, beta, rho).unwrap();
    let model = AnalyticModel::default();
    for cfg in memhier::core::params::configs::all_configs() {
        let e = model.evaluate_or_inf(&cfg, &w);
        assert!(e.is_finite() && e > 0.0, "{:?}: {e}", cfg.name);
    }
}

#[test]
fn synthetic_trace_closes_the_loop() {
    // trace crate → analyzer → fit recovers the generator's parameters;
    // then the model evaluated with those parameters is finite.  This
    // exercises trace + core together at a scale the unit tests don't.
    let (alpha, beta) = (1.25, 150.0);
    let mut g = SyntheticTrace::new(alpha, beta, 64, 2024);
    let mut an = StackDistanceAnalyzer::new(64);
    for _ in 0..400_000 {
        an.access(g.next_address());
    }
    let fit = fit_locality(&an.histogram().cdf_points()).unwrap();
    assert!(
        (fit.alpha - alpha).abs() < 0.1,
        "alpha {} vs {alpha}",
        fit.alpha
    );
    // β is fitted in bytes; the generator's β is also bytes.
    assert!(
        (fit.beta - beta).abs() / beta < 0.5,
        "beta {} vs {beta}",
        fit.beta
    );
}

#[test]
fn radix_measures_worse_locality_than_edge() {
    // The paper's Table-2 qualitative ordering must hold for our
    // implementations: EDGE has better locality than Radix.  Single fitted
    // parameters are scale-sensitive, so compare the measured miss tails
    // directly: the fraction of references reusing beyond a 32 KB window.
    let tail = |kind: WorkloadKind| {
        let program = Workload::small(kind).instantiate(1);
        let (an, counters) = stream_spmd(program, |rxs| {
            let rx = rxs.into_iter().next().unwrap();
            let mut an = StackDistanceAnalyzer::new(64);
            rx.for_each(|ev| {
                if let Some(a) = ev.address() {
                    an.access(a);
                }
            });
            an
        });
        (an.histogram().tail_at(32.0 * 1024.0), counters.rho())
    };
    let (t_edge, rho_edge) = tail(WorkloadKind::Edge);
    let (t_radix, rho_radix) = tail(WorkloadKind::Radix);
    assert!(
        t_edge < t_radix,
        "EDGE 32KB-tail {t_edge} should be below Radix's {t_radix}"
    );
    // Both are memory-heavy kernels but Radix's rho is high (paper 0.37).
    assert!(rho_radix > 0.2, "radix rho {rho_radix}");
    assert!(rho_edge > 0.2, "edge rho {rho_edge}");
}
