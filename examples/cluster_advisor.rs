//! Cluster advisor: the paper's headline use case — "what is an optimal
//! cluster platform for a given budget and a given type of workload?"
//! (§1, question 1; §6 case studies 1–2).
//!
//! ```sh
//! cargo run --example cluster_advisor            # $5,000 and $20,000
//! cargo run --example cluster_advisor -- 12000   # custom budget
//! ```

use memhier::core::model::AnalyticModel;
use memhier::core::WorkloadKind;
use memhier::cost::{optimize, recommend, CandidateSpace, PriceTable};

fn main() {
    let budgets: Vec<f64> = {
        let args: Vec<f64> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![5000.0, 20_000.0]
        } else {
            args
        }
    };

    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let space = CandidateSpace::paper_market();
    let workloads: Vec<_> = WorkloadKind::PAPER
        .into_iter()
        .chain([WorkloadKind::Tpcc])
        .map(|k| k.params())
        .collect();

    for budget in budgets {
        println!("=== Budget: ${budget:.0} ===");
        for w in &workloads {
            let rec = recommend(w);
            let ranked = optimize(budget, w, &model, &prices, &space);
            match ranked.first() {
                Some(best) => {
                    println!("{:7} -> {}", w.name, best.spec.describe());
                    println!(
                        "          ${:.0}, predicted E(Instr) = {:.3e} s; rule of thumb: {:?}",
                        best.cost, best.e_instr_seconds, rec.platform
                    );
                }
                None => println!("{:7} -> nothing affordable", w.name),
            }
        }
        println!();
    }
}
