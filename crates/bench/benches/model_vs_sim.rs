//! E6 — the §5.3.3 cost claim: "the modeling computation for each of all
//! the above configurations took between 0.5 and 1 second, and required
//! only about a hundred bytes of memory.  In contrast, it usually took
//! more than 20 minutes to obtain one simulation result."
//!
//! We benchmark the analytic model evaluation (well under a millisecond on
//! modern hardware) against a full small-size program-driven simulation,
//! and include the Open-vs-SelfConsistent arrival ablation (DESIGN.md
//! §2.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memhier_bench::runner::{simulate_workload, Sizes};
use memhier_core::model::{AnalyticModel, ArrivalModel};
use memhier_core::params::configs;
use memhier_workloads::registry::WorkloadKind;
use std::hint::black_box;

fn bench_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("model_evaluate");
    let workloads = WorkloadKind::PAPER.map(|k| k.params());
    let cfgs = configs::all_configs();
    for arrival in [ArrivalModel::Open, ArrivalModel::SelfConsistent] {
        let model = AnalyticModel {
            arrival,
            ..AnalyticModel::default()
        };
        g.bench_with_input(
            BenchmarkId::new("all_cfgs_x_kernels", format!("{arrival:?}")),
            &model,
            |b, model| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for cfg in &cfgs {
                        for w in &workloads {
                            acc += model.evaluate_or_inf(black_box(cfg), black_box(w));
                        }
                    }
                    acc
                })
            },
        );
    }
    g.finish();
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    let c5 = configs::by_name("C5").expect("C5 is a named config");
    for kind in [WorkloadKind::Edge, WorkloadKind::Fft] {
        g.bench_with_input(
            BenchmarkId::new("small_on_C5", kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    simulate_workload(black_box(&Sizes::Small.workload(kind)), black_box(&c5))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_model, bench_sim);
criterion_main!(benches);
