//! E9 (Theorem 3.1): the cost of removing the global clock, plus the
//! regenerated overhead table.

use bench::{announce, bench_config};
use breathe::{AsyncBroadcastProtocol, AsyncVariant, BroadcastProtocol, Params};
use criterion::{criterion_group, criterion_main, Criterion};
use flip_model::Opinion;

fn async_overhead(c: &mut Criterion) {
    announce(&experiments::specs::table("e09", &bench_config()).to_markdown());

    let params = Params::practical(400, 0.3).expect("valid parameters");
    let mut group = c.benchmark_group("e09_async_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let sync = BroadcastProtocol::new(params.clone(), Opinion::One);
    group.bench_function("fully_synchronous", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            sync.run_with_seed(seed).expect("run succeeds")
        });
    });

    let offsets = AsyncBroadcastProtocol::new(
        params.clone(),
        Opinion::One,
        AsyncVariant::BoundedOffsets { max_offset: 18 },
    );
    group.bench_function("bounded_offsets", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            offsets.run_with_seed(seed).expect("run succeeds")
        });
    });

    let resync = AsyncBroadcastProtocol::new(params, Opinion::One, AsyncVariant::Resynchronised);
    group.bench_function("resynchronised", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            resync.run_with_seed(seed).expect("run succeeds")
        });
    });

    group.finish();
}

criterion_group!(benches, async_overhead);
criterion_main!(benches);
