//! Cross-crate integration: optimizer and upgrade planner consistency with
//! the model and the price table.

use memhier::core::model::AnalyticModel;
use memhier::core::WorkloadKind;
use memhier::cost::{optimize, plan_upgrade, CandidateSpace, PriceTable};

#[test]
fn reported_numbers_are_reproducible() {
    // Whatever the optimizer reports must re-derive exactly from the model
    // and prices.
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let ranked = optimize(
        15_000.0,
        &WorkloadKind::Radix.params(),
        &model,
        &prices,
        &CandidateSpace::paper_market(),
    );
    assert!(!ranked.is_empty());
    for r in ranked.iter().take(10) {
        let cost = prices.cluster_cost(&r.spec).expect("pricable");
        assert_eq!(cost, r.cost);
        let e = model.evaluate_or_inf(&r.spec, &WorkloadKind::Radix.params());
        assert!((e - r.e_instr_seconds).abs() / e < 1e-12);
    }
}

#[test]
fn optimum_is_actually_minimal() {
    // Exhaustively verify the winner beats every other affordable config.
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let space = CandidateSpace::paper_market();
    let w = WorkloadKind::Edge.params();
    let budget = 10_000.0;
    let ranked = optimize(budget, &w, &model, &prices, &space);
    let best = &ranked[0];
    for cand in space.candidates() {
        if let Some(cost) = prices.cluster_cost(&cand) {
            if cost <= budget {
                let e = model.evaluate_or_inf(&cand, &w);
                assert!(
                    e >= best.e_instr_seconds - 1e-18,
                    "{} (E = {e}) beats reported best {} (E = {})",
                    cand.describe(),
                    best.spec.describe(),
                    best.e_instr_seconds
                );
            }
        }
    }
}

#[test]
fn upgrades_monotone_in_budget() {
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let existing = {
        use memhier::core::machine::{MachineSpec, NetworkKind};
        use memhier::core::platform::ClusterSpec;
        ClusterSpec::cluster(
            MachineSpec::new(1, 256, 32, 200.0),
            2,
            NetworkKind::Ethernet10,
        )
    };
    let w = WorkloadKind::Fft.params();
    let mut prev_best = f64::INFINITY;
    for budget in [0.0, 500.0, 2000.0, 8000.0] {
        let plans = plan_upgrade(&existing, budget, &w, &model, &prices);
        let best = plans[0].e_instr_seconds;
        assert!(
            best <= prev_best + 1e-18,
            "budget {budget}: best {best} worse than smaller budget's {prev_best}"
        );
        for p in &plans {
            assert!(p.cost <= budget, "plan exceeds budget: {p:?}");
        }
        prev_best = best;
    }
}

#[test]
fn optimizer_follows_section6_for_extreme_workloads() {
    use memhier::core::locality::WorkloadParams;
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let space = CandidateSpace::paper_market();
    // A pathological memory-bound, poor-locality workload must avoid
    // shared-bus Ethernet entirely: the winner is either a single SMP
    // (§6's Radix rule) or a switch-network cluster whose per-port
    // contention the model dilutes (§6 notes the SMP's processor count
    // "could be limited").
    let nasty = WorkloadParams::new("nasty", 1.05, 500.0, 0.6).unwrap();
    let ranked = optimize(25_000.0, &nasty, &model, &prices, &space);
    let best = &ranked[0];
    let acceptable = best.spec.machines == 1
        || best.spec.network == Some(memhier::core::machine::NetworkKind::Atm155);
    assert!(
        acceptable,
        "memory-bound/poor-locality picked a bus-network cluster: {}",
        best.spec.describe()
    );
}
