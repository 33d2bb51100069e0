//! Trace analysis: run an instrumented kernel, compute its exact LRU
//! stack-distance distribution, fit the paper's (α, β) locality model, and
//! draw the measured-vs-fitted CDF as ASCII art (the paper's §5.2
//! methodology, end to end).
//!
//! ```sh
//! cargo run --release --example trace_analysis          # LU
//! cargo run --release --example trace_analysis -- radix # any kernel
//! ```

use memhier::trace::{fit_locality, StackDistanceAnalyzer};
use memhier::workloads::registry::{Workload, WorkloadKind};
use memhier::workloads::spmd::stream_spmd;

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("fft") => WorkloadKind::Fft,
        Some("radix") => WorkloadKind::Radix,
        Some("edge") => WorkloadKind::Edge,
        Some("tpcc") => WorkloadKind::Tpcc,
        _ => WorkloadKind::Lu,
    };
    let workload = Workload::medium(kind);
    println!("Tracing {:?} at medium size on one process...", kind.name());

    let program = workload.instantiate(1);
    let (analyzer, counters) = stream_spmd(program, |rxs| {
        let rx = rxs.into_iter().next().unwrap();
        let mut an = StackDistanceAnalyzer::new(64);
        rx.for_each(|ev| {
            if let Some(addr) = ev.address() {
                an.access(addr);
            }
        });
        an
    });

    let hist = analyzer.histogram();
    let cdf = hist.cdf_points();
    let fit = fit_locality(&cdf).expect("enough points to fit");

    println!("references : {}", counters.mem_refs());
    println!("rho        : {:.3}", counters.rho());
    println!(
        "unique data: {} KB",
        analyzer.unique_blocks() as u64 * 64 / 1024
    );
    println!(
        "fit        : alpha = {:.3}, beta = {:.1} bytes (R^2 = {:.4})",
        fit.alpha, fit.beta, fit.r_squared
    );
    println!();

    // ASCII CDF: measured (*) vs fitted model (-).
    println!("P(x) vs stack distance (log x):  * measured   - fitted");
    let width = 60usize;
    let max_x = cdf.last().map(|p| p.0).unwrap_or(1.0);
    for row in 0..12 {
        let p_level = 1.0 - row as f64 / 12.0;
        let mut line = vec![' '; width + 1];
        #[allow(clippy::needless_range_loop)]
        for col in 0..=width {
            let x = 64.0 * (max_x / 64.0).powf(col as f64 / width as f64);
            let fitted = 1.0 - (x / fit.beta + 1.0).powf(-(fit.alpha - 1.0));
            if (fitted - p_level).abs() < 1.0 / 24.0 {
                line[col] = '-';
            }
            let measured = cdf
                .iter()
                .take_while(|pt| pt.0 <= x)
                .last()
                .map(|pt| pt.1)
                .unwrap_or(0.0);
            if (measured - p_level).abs() < 1.0 / 24.0 {
                line[col] = '*';
            }
        }
        println!("{:4.2} |{}", p_level, line.iter().collect::<String>());
    }
    println!("      {}", "-".repeat(width));
    let hi_label = if max_x >= 1048576.0 {
        format!("{:.0}MB", max_x / 1048576.0)
    } else {
        format!("{:.0}KB", max_x / 1024.0)
    };
    println!("      64B{hi_label:>width$}", width = width - 3);
}
