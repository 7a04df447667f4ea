//! E8 (Corollary 2.18): noisy majority-consensus, plus the regenerated
//! success table.

use bench::{announce, bench_config};
use breathe::{InitialSet, MajorityConsensusProtocol, Params};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flip_model::Opinion;

fn majority_consensus(c: &mut Criterion) {
    announce(&experiments::specs::table("e08", &bench_config()).to_markdown());

    let params = Params::practical(600, 0.3).expect("valid parameters");
    let mut group = c.benchmark_group("e08_majority_consensus");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &set_size in &[60usize, 200] {
        let initial = InitialSet::with_bias(set_size, 0.2).expect("valid bias");
        let protocol = MajorityConsensusProtocol::new(params.clone(), Opinion::One, initial)
            .expect("valid initial set");
        group.bench_with_input(
            BenchmarkId::from_parameter(set_size),
            &protocol,
            |b, protocol| {
                let mut seed = 0;
                b.iter(|| {
                    seed += 1;
                    protocol.run_with_seed(seed).expect("run succeeds")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, majority_consensus);
criterion_main!(benches);
