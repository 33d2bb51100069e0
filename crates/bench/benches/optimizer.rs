//! Optimizer throughput: the paper's "enumerate all configurations and
//! pick the best" (§4) over the full market, plus the upgrade planner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memhier_core::machine::{MachineSpec, NetworkKind};
use memhier_core::model::AnalyticModel;
use memhier_core::platform::ClusterSpec;
use memhier_core::WorkloadKind;
use memhier_cost::{optimize, plan_upgrade, CandidateSpace, PriceTable};
use std::hint::black_box;

fn bench_optimize(c: &mut Criterion) {
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let space = CandidateSpace::paper_market();
    let mut g = c.benchmark_group("optimize");
    for budget in [5_000.0f64, 20_000.0, 100_000.0] {
        g.bench_with_input(
            BenchmarkId::new("radix_market", budget as u64),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    optimize(
                        black_box(budget),
                        &WorkloadKind::Radix.params(),
                        &model,
                        &prices,
                        &space,
                    )
                    .len()
                })
            },
        );
    }
    g.finish();
}

fn bench_upgrade(c: &mut Criterion) {
    let model = AnalyticModel::default();
    let prices = PriceTable::circa_1999();
    let existing = ClusterSpec::cluster(
        MachineSpec::new(1, 256, 32, 200.0),
        2,
        NetworkKind::Ethernet10,
    );
    c.bench_function("upgrade_plan_fft_2500", |b| {
        b.iter(|| {
            plan_upgrade(
                black_box(&existing),
                2500.0,
                &WorkloadKind::Fft.params(),
                &model,
                &prices,
            )
            .len()
        })
    });
}

criterion_group!(benches, bench_optimize, bench_upgrade);
criterion_main!(benches);
