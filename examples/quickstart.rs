//! Quickstart: evaluate the analytic model for one platform and workload,
//! and print the per-level breakdown.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use memhier::core::model::AnalyticModel;
use memhier::core::params::configs;
use memhier::core::WorkloadKind;

fn main() {
    let model = AnalyticModel::default();

    // The paper's Table-2 characterization of the FFT kernel
    // (α = 1.21, β = 103.26, ρ = 0.20).
    let fft = WorkloadKind::Fft.params();

    // C5: a 4-processor SMP with 256 KB caches and 128 MB memory (Table 3).
    let cluster = configs::by_name("C5").expect("C5 is a named config");

    let p = model.evaluate(&cluster, &fft).expect("model evaluates");

    println!("Platform : {}", cluster.describe());
    println!(
        "Workload : {} (alpha={}, beta={}, rho={})",
        fft.name, fft.locality.alpha, fft.locality.beta, fft.rho
    );
    println!();
    println!("Average memory access time T : {:.2} cycles", p.t_cycles);
    println!("Per-processor CPI            : {:.2}", p.per_proc_cpi);
    println!(
        "E(Instr)                     : {:.4} cycles = {:.3e} s",
        p.e_instr_cycles, p.e_instr_seconds
    );
    println!();
    println!("Hierarchy breakdown:");
    for l in &p.levels {
        println!(
            "  {:8} reach={:<9.6} service={:>6.0}cy effective={:>8.1}cy utilization={:.3}",
            l.name, l.reach_prob, l.service_cycles, l.effective_cycles, l.utilization
        );
    }

    // Compare the three platform families at equal processor count (q = 4).
    println!();
    println!("Same workload, q = 4 processors arranged three ways:");
    use memhier::core::machine::{MachineSpec, NetworkKind};
    use memhier::core::platform::ClusterSpec;
    let smp = ClusterSpec::single(MachineSpec::new(4, 256, 128, 200.0));
    let cow = ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), 4, NetworkKind::Atm155);
    let clump = ClusterSpec::cluster(MachineSpec::new(2, 256, 64, 200.0), 2, NetworkKind::Atm155);
    for c in [smp, cow, clump] {
        let e = model.evaluate_or_inf(&c, &fft);
        println!("  {:45} E(Instr) = {:.3e} s", c.describe(), e);
    }
}
