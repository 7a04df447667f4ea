//! E11 and E12 (§1.4, §1.6): the per-hop deterioration curve and the
//! two-party `Θ(1/ε²)` sample bound, plus the regenerated tables.

use baselines::simulate_chain;
use bench::{announce, bench_config};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sweeps::samples_for_confidence;

fn lower_bound(c: &mut Criterion) {
    let cfg = bench_config();
    announce(&experiments::specs::table("e11", &cfg).to_markdown());
    announce(&experiments::specs::table("e12", &cfg).to_markdown());

    let mut group = c.benchmark_group("e11_e12_lower_bound");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &epsilon in &[0.1f64, 0.2, 0.4] {
        group.bench_with_input(
            BenchmarkId::new("samples_for_99pct", epsilon),
            &epsilon,
            |b, &eps| b.iter(|| samples_for_confidence(eps, 0.99)),
        );
        group.bench_with_input(
            BenchmarkId::new("chain_simulation_8hops", epsilon),
            &epsilon,
            |b, &eps| b.iter(|| simulate_chain(eps, 8, 10_000, 3).expect("valid")),
        );
    }
    group.finish();
}

criterion_group!(benches, lower_bound);
criterion_main!(benches);
