//! Microbenchmarks of the Flip-model substrate itself (engine, scheduler,
//! channel), used as an ablation reference point: how much of the protocol's
//! wall-clock cost is the communication substrate versus protocol logic.

use breathe::{BroadcastProtocol, Params};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use flip_model::{
    Agent, BernoulliSkip, BinarySymmetricChannel, Channel, FlipEngine, GossipScheduler, Opinion,
    OpinionDelta, Round, RoundPool, RoundRouting, SimRng, Simulation, SimulationConfig, Telemetry,
};
use rand::Rng;

struct Beacon(Opinion);

impl Agent for Beacon {
    const RNG_FREE_HOOKS: bool = true;

    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        Some(self.0)
    }
    fn deliver(&mut self, _round: Round, _message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        OpinionDelta::NONE
    }
    fn opinion(&self) -> Option<Opinion> {
        Some(self.0)
    }
}

fn substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // A fixed pure-CPU workload (~3 ms/iter) used as the machine-speed
    // calibration unit by the bench gate: long enough that low-sample
    // timings are stable to a few percent, unlike the microsecond benches
    // whose single-run jitter would otherwise multiply into every
    // normalized ratio.  Deliberately self-contained arithmetic (an inline
    // LCG, no workspace code): if it shared a hot function with the gated
    // benches, a regression there would cancel out of the normalized ratios
    // instead of tripping the gate.
    group.bench_function("calibration_spin", |b| {
        b.iter(|| {
            let mut state = 0xCA11_B8A7Eu64;
            let mut acc = 0u64;
            for _ in 0..4_000_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                acc = acc.wrapping_add(state >> 33);
            }
            acc
        });
    });

    // Raw generator throughput: batched counter-mixed refill of a 4k-word
    // buffer (the core primitive behind every other number here).
    group.bench_function("rng_fill", |b| {
        let mut rng = SimRng::from_seed(7);
        let mut buf = vec![0u64; 4096];
        b.iter(|| {
            rng.fill_u64(&mut buf);
            buf[4095]
        });
    });

    // Raw channel throughput.
    let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid");
    group.bench_function("channel_transmit_10k", |b| {
        let mut rng = SimRng::from_seed(1);
        b.iter(|| {
            let mut flips = 0u32;
            for _ in 0..10_000 {
                if channel.transmit(Opinion::One, &mut rng) == Opinion::Zero {
                    flips += 1;
                }
            }
            flips
        });
    });

    // Scheduler routing with everyone sending.
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("route_all_send", n), &n, |b, &n| {
            let mut scheduler = GossipScheduler::new(n).expect("valid population");
            let mut rng = SimRng::from_seed(2);
            let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::One)).collect();
            let mut routing = RoundRouting::with_capacity(n);
            b.iter(|| {
                scheduler.route_into(&sends, &mut rng, &mut routing, None, &mut Telemetry::off());
                routing.sent
            });
        });
    }

    // The two routing paths head to head at and above the radix crossover:
    // `route_single_pass` scatters straight into the population-wide
    // reservoir slots, `route_radix` buckets recipients into cache-resident
    // windows first.  The gap between the pairs is the cache-miss cost the
    // radix scheme removes (and the data behind the `RADIX_MIN_N` choice).
    for &n in &[100_000usize, 1_000_000] {
        let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::One)).collect();
        group.bench_with_input(BenchmarkId::new("route_radix", n), &n, |b, &n| {
            let mut scheduler = GossipScheduler::new(n).expect("valid population");
            let mut rng = SimRng::from_seed(6);
            let mut routing = RoundRouting::with_capacity(n);
            b.iter(|| {
                scheduler.route_into_radix(&sends, &mut rng, &mut routing, &mut Telemetry::off());
                routing.sent
            });
        });
        group.bench_with_input(BenchmarkId::new("route_single_pass", n), &n, |b, &n| {
            let mut scheduler = GossipScheduler::new(n).expect("valid population");
            let mut rng = SimRng::from_seed(6);
            let mut routing = RoundRouting::with_capacity(n);
            b.iter(|| {
                scheduler.route_into_single_pass(
                    &sends,
                    &mut rng,
                    &mut routing,
                    &mut Telemetry::off(),
                );
                routing.sent
            });
        });
    }

    // The parallel router over a persistent four-lane `RoundPool` at radix
    // scale, against the sequential radix reference at the same tiers.  The
    // lane width is fixed (not machine-derived) so the workload — and the
    // baseline entry gating it — is identical on every host; on a single
    // hardware thread the four lanes time-slice one core, so the bench then
    // measures pure orchestration overhead (staging regions, prefix sums,
    // pool rendezvous) rather than speedup.  n = 10⁷ is the new large-n
    // tier: one decade past the engine's previous headline scale.
    for &n in &[1_000_000usize, 10_000_000] {
        let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::One)).collect();
        group.bench_with_input(BenchmarkId::new("route_parallel", n), &n, |b, &n| {
            let pool = RoundPool::new(4);
            let mut scheduler = GossipScheduler::new(n).expect("valid population");
            let mut rng = SimRng::from_seed(6);
            let mut routing = RoundRouting::with_capacity(n);
            b.iter(|| {
                scheduler.route_into(
                    &sends,
                    &mut rng,
                    &mut routing,
                    Some(&pool),
                    &mut Telemetry::off(),
                );
                routing.sent
            });
        });
    }
    group.bench_with_input(
        BenchmarkId::new("route_radix", 10_000_000),
        &10_000_000usize,
        |b, &n| {
            let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::One)).collect();
            let mut scheduler = GossipScheduler::new(n).expect("valid population");
            let mut rng = SimRng::from_seed(6);
            let mut routing = RoundRouting::with_capacity(n);
            b.iter(|| {
                scheduler.route_into_radix(&sends, &mut rng, &mut routing, &mut Telemetry::off());
                routing.sent
            });
        },
    );

    // Routing plus fused channel noise (geometric skip-sampling over the
    // accepted stream) without any agent logic: the substrate cost of one
    // noisy all-send round at the worst-case crossover of ε = 0.2.
    group.bench_function("route_fused_noise_10k", |b| {
        let n = 10_000;
        let mut scheduler = GossipScheduler::new(n).expect("valid population");
        let mut rng = SimRng::from_seed(4);
        let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::One)).collect();
        let mut routing = RoundRouting::with_capacity(n);
        let skip = BernoulliSkip::new(channel.crossover()).expect("noisy channel");
        b.iter(|| {
            scheduler.route_into(&sends, &mut rng, &mut routing, None, &mut Telemetry::off());
            let mut flips = 0u64;
            skip.for_each_success(&mut rng, routing.accepted().len(), |_| flips += 1);
            flips
        });
    });

    // One full engine round with everyone sending (the headline per-agent
    // hot-path number; 100k is the scenario-diversity scale of the ROADMAP,
    // 1e6 the million-agent scale the radix path unlocked, and 1e7 the tier
    // the parallel round opens up).
    for &n in &[1_000usize, 10_000, 100_000, 1_000_000, 10_000_000] {
        group.bench_with_input(BenchmarkId::new("engine_round_all_send", n), &n, |b, &n| {
            let agents: Vec<Beacon> = (0..n).map(|_| Beacon(Opinion::One)).collect();
            let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid");
            let config = SimulationConfig::new(n).with_seed(3);
            let mut sim = Simulation::new(agents, channel, config).expect("valid simulation");
            b.iter(|| sim.step().metrics.messages_sent);
        });
    }

    // The headline round with telemetry recording on: phase timers around
    // every round phase plus event counters.  The gap to
    // `engine_round_all_send/100000` is the whole observability overhead —
    // gated in the baseline so instrumentation creep shows up as a perf
    // regression, not as a slow mystery.  (Telemetry *off* is the zero-cost
    // path: `engine_round_all_send` itself runs with the disabled handle,
    // which holds no recorder, and is gated separately.)
    group.bench_function("engine_round_telemetry_overhead", |b| {
        let n = 100_000;
        let agents: Vec<Beacon> = (0..n).map(|_| Beacon(Opinion::One)).collect();
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid");
        let config = SimulationConfig::new(n).with_seed(3);
        let mut sim = Simulation::new(agents, channel, config).expect("valid simulation");
        sim.enable_telemetry();
        b.iter(|| sim.step().metrics.messages_sent);
    });

    // The same engine round with four worker lanes — bit-identical results,
    // so the gap to `engine_round_all_send` at the same n is exactly the
    // round's parallel efficiency on the host (≈ overhead-only on a
    // single-core runner, see `route_parallel`).
    for &n in &[1_000_000usize, 10_000_000] {
        group.bench_with_input(BenchmarkId::new("engine_round_threaded", n), &n, |b, &n| {
            let agents: Vec<Beacon> = (0..n).map(|_| Beacon(Opinion::One)).collect();
            let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid");
            let config = SimulationConfig::new(n).with_seed(3).with_threads(4);
            let mut sim = Simulation::new(agents, channel, config).expect("valid simulation");
            b.iter(|| sim.step().metrics.messages_sent);
        });
    }

    // One full engine round at n = 10⁵ with a Byzantine tenth injected:
    // the cost of the fault path (role lookups, forced sends, delivery
    // gating) over the honest `engine_round_all_send/100000` round.
    group.bench_function("faulty_round_n1e5", |b| {
        let n = 100_000;
        let agents: Vec<Beacon> = (0..n).map(|_| Beacon(Opinion::One)).collect();
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid");
        let config = SimulationConfig::new(n)
            .with_seed(3)
            .with_faults("byz:0.1".parse().expect("valid directive"));
        let mut sim = Simulation::new(agents, channel, config).expect("valid simulation");
        b.iter(|| sim.step().metrics.messages_sent);
    });

    // The paper's protocol on the same engine: the first Stage II phase of
    // a broadcast at n = 10⁴, ε = 0.25.  Every agent sends and takes
    // deliveries each round, and at the phase end all of them draw their
    // majority samples.  Construction and Stage I are untimed set-up, so
    // the time per round beyond `engine_round_all_send/10000` (beacons over
    // the same routing) is mostly `BreatheAgent`'s protocol step: send,
    // deliver and end of round.
    group.bench_function("breathe_broadcast_n1e4", |b| {
        let params = Params::practical(10_000, 0.25).expect("valid parameters");
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let schedule = protocol.schedule();
        let first_boost = schedule.phases()[schedule.spreading_phase_count()];
        b.iter_batched(
            || {
                let mut sim = protocol.build_simulation(11).expect("valid simulation");
                sim.run(first_boost.start);
                sim
            },
            |mut sim| {
                sim.run(first_boost.len);
                sim
            },
            BatchSize::LargeInput,
        );
    });

    // End-to-end cost of the spec layer itself: protocol resolution plus one
    // tiny rumor trial through `ProtocolRegistry::run_trial` — the only path
    // any experiment cell takes since the spec migration.  The trial counter
    // increments so the registry cannot amortise anything across iterations;
    // a regression here taxes every cell of every sweep.
    group.bench_function("registry_dispatch", |b| {
        let registry = sweeps::ProtocolRegistry::builtin();
        let spec = sweeps::ScenarioSpec {
            protocol: "rumor".into(),
            backend: flip_model::Backend::Agents,
            trials: 1,
            base_seed: 9,
            point: 0,
            rounds: 80,
            params: std::collections::BTreeMap::from([
                ("n".to_string(), 64.0),
                ("epsilon".to_string(), 0.25),
                ("informed".to_string(), 4.0),
            ]),
            faults: String::new(),
        };
        let mut trial = 0u64;
        b.iter(|| {
            trial += 1;
            registry
                .run_trial(&spec, trial)
                .expect("rumor trial runs")
                .len()
        });
    });

    // The sweep store's record codec: each record written as its shard line
    // and read back, over 1,000 six-trial records shaped like a dense
    // `rumor` cell (three metrics, every sketch past initialisation).  A
    // resumed, exported or reopened sweep pays this once per cell.
    let records = codec_records(1_000);
    group.bench_function("record_codec", |b| {
        b.iter(|| {
            records
                .iter()
                .map(|record| {
                    let line = record.to_json_line();
                    sweeps::CellRecord::from_json_line(&line)
                        .expect("record parses")
                        .trials
                })
                .sum::<u32>()
        });
    });

    // The lossless JSON export of a 1,000-cell sweep: every cell's
    // canonical spec and record line, written into one document.
    let export_spec = sweeps::SweepSpec {
        name: "export-bench".into(),
        protocol: "rumor".into(),
        backend: flip_model::Backend::Dense,
        trials: 6,
        base_seed: 9,
        point_base: 0,
        rounds: 500,
        faults: String::new(),
        defaults: std::collections::BTreeMap::from([("informed".to_string(), 1.0)]),
        axes: vec![
            sweeps::Axis {
                key: "n".into(),
                values: (0..10).map(|i| 1e3 * 2f64.powi(i)).collect(),
            },
            sweeps::Axis {
                key: "epsilon".into(),
                values: (0..100).map(|j| 0.05 + 0.004 * f64::from(j)).collect(),
            },
        ],
    };
    let export_cells: Vec<_> = export_spec
        .expand()
        .expect("valid spec")
        .into_iter()
        .zip(records)
        .collect();
    group.bench_function("export_json_1000", |b| {
        b.iter(|| sweeps::export_json(&export_spec, &export_cells).len());
    });

    group.finish();
}

/// `count` records of six trials each, with the metrics of a dense `rumor`
/// cell and values from a fixed generator.
fn codec_records(count: u64) -> Vec<sweeps::CellRecord> {
    let mut rng = SimRng::from_seed(5);
    (0..count)
        .map(|cell| {
            let trials: Vec<Vec<(&'static str, f64)>> = (0..6)
                .map(|_| {
                    vec![
                        ("fraction_correct", rng.gen::<f64>()),
                        ("messages_sent", f64::from(rng.gen_range(1..1_000_000u32))),
                        ("rounds", f64::from(rng.gen_range(10..40u32))),
                    ]
                })
                .collect();
            sweeps::CellRecord::from_trials(format!("{cell:016x}"), cell, &trials)
        })
        .collect()
}

criterion_group!(benches, substrate);
criterion_main!(benches);
