//! Golden-seed snapshot tests for the dense (counts-based) engine.
//!
//! The per-agent RNG has a snapshot in `tests/rng_and_noise.rs`; this file
//! is the dense engine's counterpart.  The constants below ARE the
//! reproducibility contract: identical seeds must keep producing identical
//! dense simulations across releases.  If one of these tests fails, the
//! dense round pipeline changed — binomial sampler, state-cell iteration
//! order, RNG stream consumption, collision accounting, anything — and every
//! seeded dense result in the repository (E1-D/E8-D tables, sweep stores,
//! CI smoke exports) silently changed with it.  Binomial-sampler drift in
//! particular (BINV/BTPE cutovers, rejection-loop tweaks) passes every
//! distributional test; only an exact snapshot catches it.

use breathe_paper as _;
use flip_model::{
    BinarySymmetricChannel, DenseSimulation, FlipEngine, MajoritySamplerProtocol, Opinion,
    RumorProtocol, SimulationConfig,
};

#[test]
fn rumor_golden_seed_snapshot_pins_the_dense_pipeline() {
    let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
    let population = RumorProtocol::population(10_000, 0, 100);
    let config = SimulationConfig::new(10_000)
        .with_seed(0xD0_5EED)
        .with_reference(Opinion::One);
    let mut sim =
        DenseSimulation::new(RumorProtocol, channel, population, config).expect("valid parameters");
    sim.run(30);

    // Exact post-run state counts: [uninformed, active-Zero, active-One].
    assert_eq!(sim.population().counts(), &[0, 4_507, 5_493]);
    assert_eq!(sim.census().active(), 10_000);
    assert_eq!(sim.census().fraction_correct(Opinion::One), 0.5493);

    // Exact message accounting across all 30 rounds.
    let metrics = sim.metrics();
    assert_eq!(metrics.rounds, 30);
    assert_eq!(metrics.messages_sent, 233_406);
    assert_eq!(metrics.messages_accepted, 151_167);
    assert_eq!(metrics.messages_collided, 82_239);
    assert_eq!(metrics.bits_flipped, 45_062);
}

#[test]
fn majority_sampler_golden_seed_snapshot_pins_the_boost_pipeline() {
    // Two full phases of 23-sample majority boosting at n = 10⁶ — the E8-D
    // workload shape, exercising the multi-state dense path (600 counter
    // states) and the binomial sampler's large-n regime.
    let sampler = MajoritySamplerProtocol::new(23);
    let population = sampler.population(450_000, 550_000);
    let channel = BinarySymmetricChannel::from_epsilon(0.3).expect("valid epsilon");
    let config = SimulationConfig::new(1_000_000)
        .with_seed(0xB1A5)
        .with_reference(Opinion::One);
    let mut sim =
        DenseSimulation::new(sampler, channel, population, config).expect("valid parameters");
    sim.run(46);

    // After two phases every agent sits in a fresh-phase state: the exact
    // split between the Zero-camp base state (0) and the One-camp base
    // state (300) is the snapshot.
    let counts = sim.population().counts();
    assert_eq!(counts.len(), 600);
    let nonzero: Vec<(usize, u64)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i, c))
        .collect();
    assert_eq!(nonzero, vec![(0, 321_509), (300, 678_491)]);
    assert_eq!(sim.census().fraction_correct(Opinion::One), 0.678_491);

    let metrics = sim.metrics();
    assert_eq!(metrics.messages_sent, 46_000_000);
    assert_eq!(metrics.messages_accepted, 29_084_529);
    assert_eq!(metrics.bits_flipped, 5_818_880);
}

#[test]
fn dense_snapshots_are_seed_sensitive() {
    // The snapshots above pin a *stream*, not a coincidence: a neighbouring
    // seed must produce a different trajectory.
    let run = |seed: u64| {
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let population = RumorProtocol::population(10_000, 0, 100);
        let config = SimulationConfig::new(10_000)
            .with_seed(seed)
            .with_reference(Opinion::One);
        let mut sim = DenseSimulation::new(RumorProtocol, channel, population, config)
            .expect("valid parameters");
        sim.run(30);
        (
            sim.population().counts().to_vec(),
            sim.metrics().messages_sent,
        )
    };
    let (counts_a, sent_a) = run(0xD0_5EED);
    let (counts_b, sent_b) = run(0xD0_5EEE);
    assert_ne!((counts_a, sent_a), (counts_b, sent_b));
}
