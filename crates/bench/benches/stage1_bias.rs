//! E4–E6 (Claims 2.2, 2.4, 2.8; Lemma 2.3): Stage I seeding, layer growth and
//! bias decay, plus the regenerated tables.

use bench::{announce, bench_config};
use breathe::{BroadcastProtocol, Params};
use criterion::{criterion_group, criterion_main, Criterion};
use flip_model::Opinion;

fn stage1_bias(c: &mut Criterion) {
    let cfg = bench_config();
    announce(&experiments::specs::table("e04", &cfg).to_markdown());
    announce(&experiments::specs::table("e06", &cfg).to_markdown());

    let params = Params::practical(800, 0.3).expect("valid parameters");
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let mut group = c.benchmark_group("e04_e06_stage1_detailed_run");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("detailed_broadcast_n800_eps0.3", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            protocol.run_detailed(seed).expect("run succeeds")
        });
    });
    group.finish();
}

criterion_group!(benches, stage1_bias);
criterion_main!(benches);
