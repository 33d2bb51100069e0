//! Cross-crate integration: the analytic model must track the simulator in
//! *shape* — orderings across configurations and applications — which is
//! the paper's transferable claim (absolute agreement is calibrated; see
//! EXPERIMENTS.md).

use memhier::core::machine::{LatencyParams, MachineSpec, NetworkKind};
use memhier::core::model::AnalyticModel;
use memhier::core::platform::ClusterSpec;
use memhier::sim::backend::ClusterBackend;
use memhier::sim::engine::{ProcSource, SimSession};
use memhier::workloads::registry::{Workload, WorkloadKind};
use memhier::workloads::spmd::{home_map_for, stream_spmd};

fn sim_seconds(kind: WorkloadKind, cluster: &ClusterSpec) -> f64 {
    let program = Workload::small(kind).instantiate(cluster.total_procs() as usize);
    let home = home_map_for(
        &*program,
        cluster.machines as usize,
        cluster.machine.n_procs as usize,
        256,
    );
    let backend = ClusterBackend::new(cluster, LatencyParams::paper(), home);
    let (report, _) = stream_spmd(program, |rxs| {
        SimSession::new(backend)
            .with_sources(rxs.into_iter().map(ProcSource::Channel).collect())
            .run()
            .report
    });
    report.e_instr_seconds
}

fn model_seconds(kind: WorkloadKind, cluster: &ClusterSpec) -> f64 {
    AnalyticModel::default().evaluate_or_inf(cluster, &kind.params())
}

/// Rendered per-level [`memhier::core::model::ModelReport`] for assertion
/// messages, so a disagreement is explainable level by level.
fn model_diag(kind: WorkloadKind, cluster: &ClusterSpec) -> String {
    AnalyticModel::default()
        .evaluate(cluster, &kind.params())
        .map(|p| p.report().render())
        .unwrap_or_else(|e| format!("(model unevaluable: {e})"))
}

#[test]
fn both_agree_more_processors_help_on_smps() {
    let smp2 = ClusterSpec::single(MachineSpec::new(2, 256, 128, 200.0));
    let smp4 = ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0));
    for kind in [WorkloadKind::Fft, WorkloadKind::Edge] {
        let (s2, s4) = (sim_seconds(kind, &smp2), sim_seconds(kind, &smp4));
        let (m2, m4) = (model_seconds(kind, &smp2), model_seconds(kind, &smp4));
        assert!(s4 < s2, "{kind:?} sim: 4P {s4} should beat 2P {s2}");
        assert!(m4 < m2, "{kind:?} model: 4P {m4} should beat 2P {m2}");
    }
}

#[test]
fn both_agree_on_network_ordering_for_cow() {
    // Model and simulator must agree that 10 Mb Ethernet is the worst
    // cluster network (paper Figure 3's dominant feature).
    let mk = |net| ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 4, net);
    for kind in [WorkloadKind::Fft, WorkloadKind::Radix] {
        let s_slow = sim_seconds(kind, &mk(NetworkKind::Ethernet10));
        let s_fast = sim_seconds(kind, &mk(NetworkKind::Atm155));
        let m_slow = model_seconds(kind, &mk(NetworkKind::Ethernet10));
        let m_fast = model_seconds(kind, &mk(NetworkKind::Atm155));
        assert!(
            s_slow > s_fast,
            "{kind:?} sim: Eth10 {s_slow} vs ATM {s_fast}"
        );
        assert!(
            m_slow > m_fast,
            "{kind:?} model: Eth10 {m_slow} vs ATM {m_fast}"
        );
    }
}

#[test]
fn both_agree_smp_beats_slow_cow() {
    // §6 / Table-1 claim: the short hierarchy wins against a slow-network
    // cluster of equal processor count.
    let smp = ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0));
    let cow = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 64, 200.0),
        4,
        NetworkKind::Ethernet10,
    );
    for kind in WorkloadKind::PAPER {
        let (ss, sc) = (sim_seconds(kind, &smp), sim_seconds(kind, &cow));
        let (ms, mc) = (model_seconds(kind, &smp), model_seconds(kind, &cow));
        assert!(ss < sc, "{kind:?} sim: SMP {ss} vs 10Mb COW {sc}");
        assert!(ms < mc, "{kind:?} model: SMP {ms} vs 10Mb COW {mc}");
    }
}

#[test]
fn model_within_two_orders_of_magnitude_of_sim() {
    // A very loose absolute sanity band for the *uncalibrated* model with
    // paper Table-2 parameters against small-size simulations: same units,
    // same ballpark.  (Tight comparisons happen, calibrated, in the
    // `memhier reproduce` experiments at medium/paper sizes.)
    let configs = [
        ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0)),
        ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0)),
    ];
    for cluster in &configs {
        for kind in WorkloadKind::PAPER {
            let s = sim_seconds(kind, cluster);
            let m = model_seconds(kind, cluster);
            let ratio = m / s;
            assert!(
                (0.01..100.0).contains(&ratio),
                "{kind:?} on {}: model {m} vs sim {s} (ratio {ratio})\n{}",
                cluster.describe(),
                model_diag(kind, cluster)
            );
        }
    }
}
