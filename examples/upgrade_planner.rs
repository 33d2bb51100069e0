//! Upgrade planner: the paper's §1 question 2 — "what is a cost-effective
//! way to upgrade or scale an existing cluster platform for a given budget
//! increase and a given type of workload?" (§6 case study 3).
//!
//! ```sh
//! cargo run --example upgrade_planner             # $2,500 increase
//! cargo run --example upgrade_planner -- 4000     # custom increase
//! ```

use memhier::core::machine::{MachineSpec, NetworkKind};
use memhier::core::model::AnalyticModel;
use memhier::core::platform::ClusterSpec;
use memhier::core::WorkloadKind;
use memhier::cost::{plan_upgrade, PriceTable};

fn main() {
    let extra: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2500.0);

    // The aging lab cluster: two 32 MB workstations on thin Ethernet.
    let existing = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 32, 200.0),
        2,
        NetworkKind::Ethernet10,
    );
    println!("Existing cluster : {}", existing.describe());
    println!("Budget increase  : ${extra:.0}");
    println!();

    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();

    for w in WorkloadKind::PAPER.map(|k| k.params()) {
        let before = model.evaluate_or_inf(&existing, &w);
        let plans = plan_upgrade(&existing, extra, &w, &model, &prices);
        let best = &plans[0];
        println!("{:6}: {}", w.name, best.actions.join(", "));
        println!(
            "        ${:.0}; E(Instr) {:.3e} -> {:.3e} s  ({:.2}x faster)",
            best.cost,
            before,
            best.e_instr_seconds,
            before / best.e_instr_seconds
        );
        // The paper's §6 guidance for reference.
        let rec = memhier::cost::recommend(&w);
        println!("        section-6 guidance: {}", rec.upgrade_advice);
        println!();
    }
}
