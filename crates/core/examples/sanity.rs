//! Print the analytic model's E(Instr) for every paper configuration
//! (C1–C15) × Table-2 kernel — a quick sanity sweep of the model alone.
//!
//! ```sh
//! cargo run -p memhier-core --example sanity
//! ```
use memhier_core::model::AnalyticModel;
use memhier_core::params::configs;
use memhier_core::WorkloadKind;

fn main() {
    let model = AnalyticModel::default();
    println!("E(Instr) in seconds (self-consistent arrivals, paper Table-2 parameters)");
    for c in configs::all_configs() {
        print!("{:4}", c.name.clone().unwrap());
        for w in WorkloadKind::PAPER.map(|k| k.params()) {
            print!("  {}={:.3e}", w.name, model.evaluate_or_inf(&c, &w));
        }
        println!();
    }
}
