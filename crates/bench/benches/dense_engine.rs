//! Benchmarks of the dense counts-based engine: the million-agent regime the
//! per-agent engine cannot reach, plus a head-to-head round cost at a size
//! both engines handle.  `dense_engine/*` entries are hot-path gated by
//! `bench/baseline.json` (see `src/bin/bench_gate.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flip_model::{
    BinarySymmetricChannel, DenseSimulation, FlipEngine, HybridSimulation, MajoritySamplerProtocol,
    RumorAgent, RumorProtocol, SimulationConfig, StratifiedPopulation, StratifiedSimulation,
    ZealotRumorProtocol,
};

fn rumor_sim(n: u64, seed: u64) -> DenseSimulation<RumorProtocol, BinarySymmetricChannel> {
    let population = RumorProtocol::population(n, 0, n / 1_000);
    let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
    let config = SimulationConfig::new(n as usize).with_seed(seed);
    DenseSimulation::new(RumorProtocol, channel, population, config).expect("valid simulation")
}

fn dense_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_engine");
    group.sample_size(10);

    // A single round at growing n: per-round cost should be flat in n.
    for &n in &[10_000u64, 1_000_000] {
        group.bench_with_input(BenchmarkId::new("step", n), &n, |b, &n| {
            let mut sim = rumor_sim(n, 1);
            b.iter(|| sim.step().metrics.messages_sent);
        });
    }

    // The acceptance workload: a full 500-round run at n = 10^6, including
    // simulation construction.
    group.bench_function("run500_n1e6", |b| {
        b.iter(|| {
            let mut sim = rumor_sim(1_000_000, 2);
            sim.run(500);
            sim.census().active()
        });
    });

    // Stage II boosting over a ~600-state machine: the worst-case state-space
    // size the experiments use.
    group.bench_function("majority_boost_n1e6", |b| {
        let sampler = MajoritySamplerProtocol::new(23);
        b.iter(|| {
            let population = sampler.population(490_000, 510_000);
            let channel = BinarySymmetricChannel::from_epsilon(0.3).expect("valid epsilon");
            let config = SimulationConfig::new(1_000_000).with_seed(3);
            let mut sim = DenseSimulation::new(sampler, channel, population, config)
                .expect("valid simulation");
            sim.run(23 * 10);
            sim.census().holding(flip_model::Opinion::One)
        });
    });

    // One heterogeneous two-stratum round at n = 10^6: per-round cost is
    // O(#strata × #states), so this should sit within a small factor of the
    // single-stratum `step` cost.
    group.bench_function("stratified_zealot_step_n1e6", |b| {
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let population = ZealotRumorProtocol::population(1_000_000, 0, 1_000, 100_000);
        let config = SimulationConfig::new(1_000_000).with_seed(4);
        let mut sim =
            StratifiedSimulation::new(ZealotRumorProtocol, vec![channel; 2], population, config)
                .expect("valid simulation");
        b.iter(|| sim.step().metrics.messages_sent);
    });

    // One hybrid round at n = 10^6 with 64 tracked agents: the tracked loop
    // adds O(k) per-message work on top of the dense bulk's binomials.
    group.bench_function("hybrid_round", |b| {
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let tracked = RumorAgent::population(64, 0, 32);
        let bulk = StratifiedPopulation::single(RumorProtocol::population(999_936, 0, 968));
        let config = SimulationConfig::new(1_000_000).with_seed(5);
        let mut sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config)
            .expect("valid simulation");
        b.iter(|| sim.step().metrics.messages_sent);
    });

    group.finish();
}

criterion_group!(benches, dense_engine);
criterion_main!(benches);
