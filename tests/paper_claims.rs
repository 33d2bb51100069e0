//! The paper's headline qualitative claims, checked end to end with the
//! published Table-2 parameters.

use memhier::core::machine::{MachineSpec, NetworkKind};
use memhier::core::model::AnalyticModel;
use memhier::core::platform::ClusterSpec;
use memhier::core::WorkloadKind;
use memhier::cost::{recommend, RecommendedPlatform};

#[test]
fn fft_ethernet_vs_atm_gap_is_large() {
    // §6: "the execution times of the FFT program were 4 times higher on a
    // slow Ethernet of workstations than that on a fast ATM network of
    // workstations" (4 × 64 MB Ethernet vs 3 × 32 MB ATM, same cost).
    let model = AnalyticModel::default();
    let w = WorkloadKind::Fft.params();
    let eth = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 64, 200.0),
        4,
        NetworkKind::Ethernet10,
    );
    let atm = ClusterSpec::cluster(MachineSpec::new(1, 256, 32, 200.0), 3, NetworkKind::Atm155);
    let ratio = model.evaluate_or_inf(&eth, &w) / model.evaluate_or_inf(&atm, &w);
    assert!(
        ratio > 2.0,
        "paper reports ~4x; we must at least reproduce a multi-x gap, got {ratio:.2}"
    );
    assert!(ratio < 40.0, "gap implausibly large: {ratio:.2}");
}

#[test]
fn hierarchy_length_is_the_sensitive_factor() {
    // The abstract's claim: "the length of memory hierarchy is the most
    // sensitive factor" — for every kernel, at equal q and equal aggregate
    // memory, the 3-level SMP beats the 5-level slow-network cluster.
    let model = AnalyticModel::default();
    let smp = ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0));
    let cow = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 32, 200.0),
        4,
        NetworkKind::Ethernet10,
    );
    for w in WorkloadKind::PAPER.map(|k| k.params()) {
        let (e_smp, e_cow) = (
            model.evaluate_or_inf(&smp, &w),
            model.evaluate_or_inf(&cow, &w),
        );
        assert!(e_smp < e_cow, "{}: SMP {e_smp} vs slow COW {e_cow}", w.name);
    }
}

#[test]
fn recommendation_matrix_matches_section_6() {
    let cases = [
        ("LU", RecommendedPlatform::ManyWorkstationsSlowNetwork),
        ("FFT", RecommendedPlatform::FewWorkstationsFastNetwork),
        ("EDGE", RecommendedPlatform::WorkstationsLargeMemory),
        ("Radix", RecommendedPlatform::SingleSmp),
        ("TPC-C", RecommendedPlatform::SmpOrFastClusterOfSmps),
    ];
    for w in WorkloadKind::PAPER
        .into_iter()
        .chain([WorkloadKind::Tpcc])
        .map(|k| k.params())
    {
        let expect = cases.iter().find(|c| c.0 == w.name).unwrap().1;
        assert_eq!(recommend(&w).platform, expect, "{}", w.name);
    }
}

#[test]
fn upgrading_memory_helps_good_locality_network_helps_poor() {
    // §6's upgrade principles, checked through the model directly: for
    // EDGE (good locality) growing memory beats upgrading the network at
    // equal-ish spend; for FFT (poor locality) the reverse.
    let model = AnalyticModel::default();
    let base = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 32, 200.0),
        4,
        NetworkKind::Ethernet10,
    );
    let mut more_mem = base.clone();
    more_mem.machine.memory_bytes = 128 << 20;
    let mut faster_net = base.clone();
    faster_net.network = Some(NetworkKind::Atm155);

    let fft = WorkloadKind::Fft.params();
    let gain_mem = model.evaluate_or_inf(&base, &fft) / model.evaluate_or_inf(&more_mem, &fft);
    let gain_net = model.evaluate_or_inf(&base, &fft) / model.evaluate_or_inf(&faster_net, &fft);
    assert!(
        gain_net > gain_mem,
        "FFT: network upgrade ({gain_net:.2}x) should beat memory upgrade ({gain_mem:.2}x)"
    );
}

#[test]
fn tpcc_wants_the_shortest_hierarchy() {
    // §5.2/§6: the commercial workload's locality is an order of magnitude
    // worse; among equal-cost-ish options the SMP (or clustered SMPs over
    // a fast switch) must win by a wide margin over Ethernet workstations.
    let model = AnalyticModel::default();
    let w = WorkloadKind::Tpcc.params();
    let smp = ClusterSpec::single(MachineSpec::new(4, 512, 128, 200.0));
    let cow = ClusterSpec::cluster(
        MachineSpec::new(1, 512, 128, 200.0),
        4,
        NetworkKind::Ethernet100,
    );
    let (e_smp, e_cow) = (
        model.evaluate_or_inf(&smp, &w),
        model.evaluate_or_inf(&cow, &w),
    );
    assert!(
        e_smp < e_cow,
        "TPC-C: SMP {e_smp} should beat the Ethernet COW {e_cow}"
    );
    // And the qualitative §6 rule itself puts TPC-C on SMPs.
    assert_eq!(
        recommend(&w).platform,
        RecommendedPlatform::SmpOrFastClusterOfSmps
    );
}
