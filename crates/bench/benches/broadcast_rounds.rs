//! E1 (Theorem 2.17): broadcast cost versus population size, plus the
//! regenerated rounds-vs-n table.

use bench::{announce, bench_config};
use breathe::{BroadcastProtocol, Params};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flip_model::Opinion;

fn broadcast_rounds(c: &mut Criterion) {
    announce(&experiments::specs::table("e01", &bench_config()).to_markdown());

    let mut group = c.benchmark_group("e01_broadcast_rounds_vs_n");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[250usize, 500, 1_000] {
        let params = Params::practical(n, 0.25).expect("valid parameters");
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        group.bench_with_input(BenchmarkId::from_parameter(n), &protocol, |b, protocol| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                protocol.run_with_seed(seed).expect("run succeeds")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, broadcast_rounds);
criterion_main!(benches);
