//! Equivalence of the dense counts-based engine and the per-agent reference
//! engine.
//!
//! The two backends share the round structure (send → route/collide →
//! corrupt → deliver) but the dense engine samples aggregate transition
//! counts instead of iterating agents, replacing the exact balls-into-bins
//! collision process with its independent-reception marginal.  The contract
//! (documented on `flip_model::DenseSimulation`) is therefore:
//!
//! 1. **identical** results wherever the dynamics are deterministic — e.g.
//!    any fixed point of a noiseless protocol, or a population that sends
//!    nothing — and
//! 2. **distributional equivalence** elsewhere: mean population trajectories
//!    agree within Chernoff-style fluctuation bounds.
//!
//! All tests run under fixed seeds and are fully deterministic.

use breathe_paper as _;
use flip_model::{
    AdversarialCapChannel, Agent, BinarySymmetricChannel, DenseSimulation, FlipEngine,
    HybridSimulation, NoiselessChannel, Opinion, OpinionDelta, Round, RumorAgent, RumorProtocol,
    SimRng, Simulation, SimulationConfig, StratifiedPopulation, StratifiedSimulation,
    VoterProtocol, ZealotAgent, ZealotRumorProtocol,
};

/// The per-agent twin of `VoterProtocol`: always pushes its opinion, adopts
/// whatever it hears.
struct Voter {
    opinion: Opinion,
}

impl Agent for Voter {
    const RNG_FREE_HOOKS: bool = true;

    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        Some(self.opinion)
    }
    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        let before = self.opinion;
        self.opinion = message;
        OpinionDelta::between(Some(before), Some(self.opinion))
    }
    fn opinion(&self) -> Option<Opinion> {
        Some(self.opinion)
    }
}

fn adopters(n: usize, ones: usize) -> Vec<RumorAgent> {
    RumorAgent::population(n, 0, ones)
}

// ---------------------------------------------------------------- identity

/// A noiseless, unanimous population is a deterministic fixed point: both
/// backends must report *identical* censuses and message counts every round.
#[test]
fn degenerate_noiseless_fixed_point_is_identical() {
    let n = 1_000;
    let mut agent_sim = Simulation::new(
        adopters(n, n),
        NoiselessChannel,
        SimulationConfig::new(n).with_seed(1),
    )
    .unwrap();
    let mut dense_sim = DenseSimulation::new(
        RumorProtocol,
        NoiselessChannel,
        RumorProtocol::population(n as u64, 0, n as u64),
        SimulationConfig::new(n).with_seed(2),
    )
    .unwrap();

    for _ in 0..50 {
        let a = agent_sim.step();
        let d = dense_sim.step();
        assert_eq!(a.census_active, d.census_active);
        assert_eq!(a.metrics.messages_sent, d.metrics.messages_sent);
        assert_eq!(
            agent_sim.census().holding(Opinion::One),
            dense_sim.census().holding(Opinion::One)
        );
    }
    assert!(agent_sim.census().is_unanimous(Opinion::One));
    assert!(dense_sim.census().is_unanimous(Opinion::One));
}

/// A population in which nobody ever sends is equally deterministic: nothing
/// may change on either backend, round after round.
#[test]
fn silent_population_is_identical() {
    let n = 500;
    let mut agent_sim = Simulation::new(
        adopters(n, 0),
        NoiselessChannel,
        SimulationConfig::new(n).with_seed(3),
    )
    .unwrap();
    let mut dense_sim = DenseSimulation::new(
        RumorProtocol,
        NoiselessChannel,
        RumorProtocol::population(n as u64, 0, 0),
        SimulationConfig::new(n).with_seed(4),
    )
    .unwrap();
    for _ in 0..20 {
        let a = agent_sim.step();
        let d = dense_sim.step();
        assert_eq!(a.census_active, 0);
        assert_eq!(d.census_active, 0);
        assert_eq!(a.metrics.messages_sent, 0);
        assert_eq!(d.metrics.messages_sent, 0);
    }
}

/// Absorption is permanent on both backends: once a noiseless rumor saturates
/// the population, the unanimous state never decays.
#[test]
fn noiseless_rumor_reaches_the_same_absorbing_state() {
    let n = 400;
    let mut agent_sim = Simulation::new(
        adopters(n, 1),
        NoiselessChannel,
        SimulationConfig::new(n).with_seed(5),
    )
    .unwrap();
    let mut dense_sim = DenseSimulation::new(
        RumorProtocol,
        NoiselessChannel,
        RumorProtocol::population(n as u64, 0, 1),
        SimulationConfig::new(n).with_seed(6),
    )
    .unwrap();
    agent_sim.run_until(5_000, |s| s.census().active() == n);
    dense_sim.run_until(5_000, |s| s.census().active() == n);
    assert!(agent_sim.census().is_unanimous(Opinion::One));
    assert!(dense_sim.census().is_unanimous(Opinion::One));
    // Still absorbed 50 rounds later.
    agent_sim.run(50);
    dense_sim.run(50);
    assert!(agent_sim.census().is_unanimous(Opinion::One));
    assert!(dense_sim.census().is_unanimous(Opinion::One));
}

// ------------------------------------------------------- mean trajectories

/// Chernoff-style allowance for comparing two empirical means of a
/// `[0, n]`-valued statistic over `trials` independent runs: with per-run
/// fluctuations of order `√n` (binomial concentration), the difference of
/// means concentrates within `O(√(n/trials))`.  The constant 6 keeps the
/// false-alarm probability far below one in a million while still detecting
/// any systematic O(n) discrepancy between the backends.
fn chernoff_allowance(n: f64, trials: f64) -> f64 {
    6.0 * (n / trials).sqrt() + 6.0
}

/// Mean active-count trajectories of noisy rumor spreading must agree at
/// every checkpoint within the Chernoff allowance.
#[test]
fn noisy_rumor_mean_trajectories_agree() {
    let n = 2_000usize;
    let trials = 32u64;
    let checkpoints = [3u64, 6, 10, 15, 25];
    let epsilon = 0.25;

    // trajectories[c][t] = active count at checkpoint c in trial t.
    let mut agent_traj = vec![Vec::new(); checkpoints.len()];
    let mut dense_traj = vec![Vec::new(); checkpoints.len()];
    for trial in 0..trials {
        let channel = BinarySymmetricChannel::from_epsilon(epsilon).unwrap();
        let mut sim = Simulation::new(
            adopters(n, 10),
            channel,
            SimulationConfig::new(n).with_seed(1_000 + trial),
        )
        .unwrap();
        let mut round = 0u64;
        for (c, &checkpoint) in checkpoints.iter().enumerate() {
            sim.run(checkpoint - round);
            round = checkpoint;
            agent_traj[c].push(sim.census().active() as f64);
        }

        let channel = BinarySymmetricChannel::from_epsilon(epsilon).unwrap();
        let mut sim = DenseSimulation::new(
            RumorProtocol,
            channel,
            RumorProtocol::population(n as u64, 0, 10),
            SimulationConfig::new(n).with_seed(2_000 + trial),
        )
        .unwrap();
        let mut round = 0u64;
        for (c, &checkpoint) in checkpoints.iter().enumerate() {
            sim.run(checkpoint - round);
            round = checkpoint;
            dense_traj[c].push(sim.census().active() as f64);
        }
    }

    let allowance = chernoff_allowance(n as f64, trials as f64);
    for (c, &checkpoint) in checkpoints.iter().enumerate() {
        let agent_mean: f64 = agent_traj[c].iter().sum::<f64>() / trials as f64;
        let dense_mean: f64 = dense_traj[c].iter().sum::<f64>() / trials as f64;
        assert!(
            (agent_mean - dense_mean).abs() < allowance,
            "round {checkpoint}: agents mean {agent_mean:.1} vs dense mean {dense_mean:.1} \
             (allowance {allowance:.1})"
        );
    }
}

/// The noisy voter model keeps its mean opinion split near the initial split
/// on both backends (the voter update is unbiased in expectation while the
/// noise pulls towards 1/2, so neither backend may drift systematically away
/// from the other).
#[test]
fn noisy_voter_mean_splits_agree() {
    let n = 2_000usize;
    let trials = 32u64;
    let rounds = 30u64;
    let crossover = 0.1;

    let mut agent_ones = Vec::new();
    let mut dense_ones = Vec::new();
    for trial in 0..trials {
        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let voters: Vec<Voter> = (0..n)
            .map(|i| Voter {
                opinion: if i < n * 7 / 10 {
                    Opinion::One
                } else {
                    Opinion::Zero
                },
            })
            .collect();
        let mut sim = Simulation::new(
            voters,
            channel,
            SimulationConfig::new(n).with_seed(3_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        agent_ones.push(sim.census().holding(Opinion::One) as f64);

        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let population = flip_model::DensePopulation::from_counts(vec![
            (n * 3 / 10) as u64,
            (n * 7 / 10) as u64,
        ])
        .unwrap();
        let mut sim = DenseSimulation::new(
            VoterProtocol,
            channel,
            population,
            SimulationConfig::new(n).with_seed(4_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        dense_ones.push(sim.census().holding(Opinion::One) as f64);
    }

    let agent_mean: f64 = agent_ones.iter().sum::<f64>() / trials as f64;
    let dense_mean: f64 = dense_ones.iter().sum::<f64>() / trials as f64;
    let allowance = chernoff_allowance(n as f64, trials as f64);
    assert!(
        (agent_mean - dense_mean).abs() < allowance,
        "agents mean {agent_mean:.1} vs dense mean {dense_mean:.1} (allowance {allowance:.1})"
    );
}

/// Aggregate message accounting must agree in expectation too: with every
/// agent sending each round, both backends accept `≈ n(1 − 1/e)` messages
/// per round and flip the configured fraction of them.
#[test]
fn message_metrics_agree_in_expectation() {
    let n = 5_000usize;
    let rounds = 200u64;
    let crossover = 0.2;

    let channel = BinarySymmetricChannel::new(crossover).unwrap();
    let voters: Vec<Voter> = (0..n)
        .map(|i| Voter {
            opinion: Opinion::from_bit(u8::from(i % 2 == 0)),
        })
        .collect();
    let mut agent_sim =
        Simulation::new(voters, channel, SimulationConfig::new(n).with_seed(11)).unwrap();
    agent_sim.run(rounds);

    let channel = BinarySymmetricChannel::new(crossover).unwrap();
    let population =
        flip_model::DensePopulation::from_counts(vec![(n / 2) as u64, (n / 2) as u64]).unwrap();
    let mut dense_sim = DenseSimulation::new(
        VoterProtocol,
        channel,
        population,
        SimulationConfig::new(n).with_seed(12),
    )
    .unwrap();
    dense_sim.run(rounds);

    let a = agent_sim.metrics();
    let d = dense_sim.metrics();
    assert_eq!(
        a.messages_sent, d.messages_sent,
        "everyone sends every round"
    );
    let a_accept = a.messages_accepted as f64 / a.messages_sent as f64;
    let d_accept = d.messages_accepted as f64 / d.messages_sent as f64;
    assert!(
        (a_accept - d_accept).abs() < 0.01,
        "acceptance rates diverge: {a_accept:.4} vs {d_accept:.4}"
    );
    let a_flip = a.empirical_flip_rate().unwrap();
    let d_flip = d.empirical_flip_rate().unwrap();
    assert!(
        (a_flip - d_flip).abs() < 0.01,
        "flip rates diverge: {a_flip:.4} vs {d_flip:.4}"
    );
}

// ------------------------------------- optimized-engine noise-path parity

/// The *optimized* agent engine (fused geometric-skip noise, incremental
/// census, priority-reservoir routing) must track the dense engine's mean
/// trajectories through the noisy regime the fused path handles — the suite
/// above certifies the engine as a whole; this pins the fused-noise path at
/// a high crossover where skip gaps are short.
#[test]
fn fused_noise_engine_matches_dense_voter_trajectories() {
    let n = 2_000usize;
    let trials = 32u64;
    let rounds = 25u64;
    let crossover = 0.3; // mean skip gap ≈ 2.3: exercises dense flip runs

    let mut agent_ones = Vec::new();
    let mut dense_ones = Vec::new();
    for trial in 0..trials {
        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let voters: Vec<Voter> = (0..n)
            .map(|i| Voter {
                opinion: if i < n * 4 / 5 {
                    Opinion::One
                } else {
                    Opinion::Zero
                },
            })
            .collect();
        let mut sim = Simulation::new(
            voters,
            channel,
            SimulationConfig::new(n).with_seed(5_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        agent_ones.push(sim.census().holding(Opinion::One) as f64);

        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let population =
            flip_model::DensePopulation::from_counts(vec![(n / 5) as u64, (n * 4 / 5) as u64])
                .unwrap();
        let mut sim = DenseSimulation::new(
            VoterProtocol,
            channel,
            population,
            SimulationConfig::new(n).with_seed(6_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        dense_ones.push(sim.census().holding(Opinion::One) as f64);
    }

    let agent_mean: f64 = agent_ones.iter().sum::<f64>() / trials as f64;
    let dense_mean: f64 = dense_ones.iter().sum::<f64>() / trials as f64;
    let allowance = chernoff_allowance(n as f64, trials as f64);
    assert!(
        (agent_mean - dense_mean).abs() < allowance,
        "agents mean {agent_mean:.1} vs dense mean {dense_mean:.1} (allowance {allowance:.1})"
    );
}

/// The same voter-model agreement at the radix crossover: every round is an
/// all-send dense round, so the agents engine routes through the
/// cache-bucketed radix path from round 0.  Pins that the radix rework kept
/// the model itself unchanged at the population scale it was built for.
#[test]
fn radix_routed_engine_matches_dense_voter_trajectories() {
    let n = flip_model::RADIX_MIN_N;
    let trials = 8u64;
    let rounds = 10u64;
    let crossover = 0.3;

    let mut agent_ones = Vec::new();
    let mut dense_ones = Vec::new();
    for trial in 0..trials {
        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let voters: Vec<Voter> = (0..n)
            .map(|i| Voter {
                opinion: if i < n * 4 / 5 {
                    Opinion::One
                } else {
                    Opinion::Zero
                },
            })
            .collect();
        let mut sim = Simulation::new(
            voters,
            channel,
            SimulationConfig::new(n).with_seed(7_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        agent_ones.push(sim.census().holding(Opinion::One) as f64);

        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        // `n` is not divisible by 5: match the agent loop's split exactly.
        let ones = (n * 4 / 5) as u64;
        let population =
            flip_model::DensePopulation::from_counts(vec![n as u64 - ones, ones]).unwrap();
        let mut sim = DenseSimulation::new(
            VoterProtocol,
            channel,
            population,
            SimulationConfig::new(n).with_seed(8_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        dense_ones.push(sim.census().holding(Opinion::One) as f64);
    }

    let agent_mean: f64 = agent_ones.iter().sum::<f64>() / trials as f64;
    let dense_mean: f64 = dense_ones.iter().sum::<f64>() / trials as f64;
    let allowance = chernoff_allowance(n as f64, trials as f64);
    assert!(
        (agent_mean - dense_mean).abs() < allowance,
        "agents mean {agent_mean:.1} vs dense mean {dense_mean:.1} (allowance {allowance:.1})"
    );
}

/// The radix-crossover voter agreement again, with the agents engine running
/// its rounds over three worker lanes: the parallel router is bit-identical
/// to the sequential one, so the threaded engine must clear exactly the same
/// Chernoff bar against the dense engine that the sequential leg does.
#[test]
fn parallel_radix_engine_matches_dense_voter_trajectories() {
    let n = flip_model::RADIX_MIN_N;
    let trials = 8u64;
    let rounds = 10u64;
    let crossover = 0.3;

    let mut agent_ones = Vec::new();
    let mut dense_ones = Vec::new();
    for trial in 0..trials {
        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let voters: Vec<Voter> = (0..n)
            .map(|i| Voter {
                opinion: if i < n * 4 / 5 {
                    Opinion::One
                } else {
                    Opinion::Zero
                },
            })
            .collect();
        let mut sim = Simulation::new(
            voters,
            channel,
            SimulationConfig::new(n)
                .with_seed(7_000 + trial)
                .with_threads(3),
        )
        .unwrap();
        sim.run(rounds);
        agent_ones.push(sim.census().holding(Opinion::One) as f64);

        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let ones = (n * 4 / 5) as u64;
        let population =
            flip_model::DensePopulation::from_counts(vec![n as u64 - ones, ones]).unwrap();
        let mut sim = DenseSimulation::new(
            VoterProtocol,
            channel,
            population,
            SimulationConfig::new(n).with_seed(8_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        dense_ones.push(sim.census().holding(Opinion::One) as f64);
    }

    let agent_mean: f64 = agent_ones.iter().sum::<f64>() / trials as f64;
    let dense_mean: f64 = dense_ones.iter().sum::<f64>() / trials as f64;
    let allowance = chernoff_allowance(n as f64, trials as f64);
    assert!(
        (agent_mean - dense_mean).abs() < allowance,
        "agents mean {agent_mean:.1} vs dense mean {dense_mean:.1} (allowance {allowance:.1})"
    );
}

/// A genuinely varying channel (`AdversarialCapChannel` with a non-collapsed
/// interval) cannot be fused, so the engine falls back to one `transmit` per
/// message; that per-message path must also track the dense engine, which
/// consumes the channel's `mean_crossover`.
#[test]
fn per_message_fallback_engine_matches_dense_mean_trajectories() {
    let n = 2_000usize;
    let trials = 32u64;
    let checkpoints = [3u64, 8, 15, 25];

    let mut agent_traj = vec![Vec::new(); checkpoints.len()];
    let mut dense_traj = vec![Vec::new(); checkpoints.len()];
    for trial in 0..trials {
        // Flip probability uniform on [0.1, 0.3] per message (mean 0.2).
        let channel = AdversarialCapChannel::new(0.1, 0.3).unwrap();
        assert!(
            flip_model::Channel::fixed_crossover(&channel).is_none(),
            "the interval channel must take the per-message path"
        );
        let mut sim = Simulation::new(
            adopters(n, 10),
            channel,
            SimulationConfig::new(n).with_seed(7_000 + trial),
        )
        .unwrap();
        let mut round = 0u64;
        for (c, &checkpoint) in checkpoints.iter().enumerate() {
            sim.run(checkpoint - round);
            round = checkpoint;
            agent_traj[c].push(sim.census().active() as f64);
        }

        let channel = AdversarialCapChannel::new(0.1, 0.3).unwrap();
        let mut sim = DenseSimulation::new(
            RumorProtocol,
            channel,
            RumorProtocol::population(n as u64, 0, 10),
            SimulationConfig::new(n).with_seed(8_000 + trial),
        )
        .unwrap();
        let mut round = 0u64;
        for (c, &checkpoint) in checkpoints.iter().enumerate() {
            sim.run(checkpoint - round);
            round = checkpoint;
            dense_traj[c].push(sim.census().active() as f64);
        }
    }

    let allowance = chernoff_allowance(n as f64, trials as f64);
    for (c, &checkpoint) in checkpoints.iter().enumerate() {
        let agent_mean: f64 = agent_traj[c].iter().sum::<f64>() / trials as f64;
        let dense_mean: f64 = dense_traj[c].iter().sum::<f64>() / trials as f64;
        assert!(
            (agent_mean - dense_mean).abs() < allowance,
            "round {checkpoint}: agents mean {agent_mean:.1} vs dense mean {dense_mean:.1} \
             (allowance {allowance:.1})"
        );
    }
}

// ---------------------------------------------- stratified & hybrid engines

/// A single-stratum stratified run must be *bit-identical* to the dense
/// engine from equal RNG states — `DenseSimulation` delegates to
/// `StratifiedSimulation`, and this pins that an explicitly-constructed
/// single-stratum simulation consumes the RNG stream in exactly the same
/// order (no extra draws, no reordering).
#[test]
fn single_stratum_stratified_rounds_are_bit_identical_to_dense() {
    let n = 10_000u64;
    let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
    let config = SimulationConfig::new(n as usize)
        .with_seed(0xD0_5EED)
        .with_reference(Opinion::One);
    let mut dense = DenseSimulation::new(
        RumorProtocol,
        channel,
        RumorProtocol::population(n, 0, 3),
        config.clone(),
    )
    .unwrap();
    let mut stratified = StratifiedSimulation::new(
        RumorProtocol,
        vec![channel],
        StratifiedPopulation::single(RumorProtocol::population(n, 0, 3)),
        config,
    )
    .unwrap();
    for round in 0..40 {
        assert_eq!(dense.step(), stratified.step(), "round {round}");
    }
    assert_eq!(dense.metrics(), stratified.metrics());
    assert_eq!(
        dense.population().counts(),
        stratified.population().stratum(0).counts()
    );
}

/// Mean trajectories of the two-stratum zealot scenario must agree between
/// the per-agent reference engine (`ZealotAgent`) and the stratified dense
/// engine (`ZealotRumorProtocol`) within the Chernoff allowance — the
/// heterogeneous analogue of `noisy_rumor_mean_trajectories_agree`.
#[test]
fn stratified_zealot_mean_trajectories_agree() {
    let n = 2_000usize;
    let zealots = 200usize;
    let informed = 20usize;
    let trials = 32u64;
    let rounds = 20u64;
    let epsilon = 0.25;

    let mut agent_zeros = Vec::new();
    let mut agent_ones = Vec::new();
    let mut strat_zeros = Vec::new();
    let mut strat_ones = Vec::new();
    for trial in 0..trials {
        let channel = BinarySymmetricChannel::from_epsilon(epsilon).unwrap();
        let agents = ZealotAgent::population(n, 0, informed, zealots);
        let mut sim = Simulation::new(
            agents,
            channel,
            SimulationConfig::new(n).with_seed(9_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        agent_zeros.push(sim.census().holding(Opinion::Zero) as f64);
        agent_ones.push(sim.census().holding(Opinion::One) as f64);

        let channel = BinarySymmetricChannel::from_epsilon(epsilon).unwrap();
        let population =
            ZealotRumorProtocol::population(n as u64, 0, informed as u64, zealots as u64);
        let mut sim = StratifiedSimulation::new(
            ZealotRumorProtocol,
            vec![channel; 2],
            population,
            SimulationConfig::new(n).with_seed(10_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        strat_zeros.push(sim.census().holding(Opinion::Zero) as f64);
        strat_ones.push(sim.census().holding(Opinion::One) as f64);
    }

    let allowance = chernoff_allowance(n as f64, trials as f64);
    for (label, agents, stratified) in [
        ("zeros", &agent_zeros, &strat_zeros),
        ("ones", &agent_ones, &strat_ones),
    ] {
        let agent_mean: f64 = agents.iter().sum::<f64>() / trials as f64;
        let strat_mean: f64 = stratified.iter().sum::<f64>() / trials as f64;
        assert!(
            (agent_mean - strat_mean).abs() < allowance,
            "{label}: agents mean {agent_mean:.1} vs stratified mean {strat_mean:.1} \
             (allowance {allowance:.1})"
        );
    }
}

/// The hybrid engine (tracked agents against a dense bulk) must track the
/// full per-agent engine's mean activation trajectory at small `n`.
#[test]
fn hybrid_mean_trajectories_agree_with_the_per_agent_engine() {
    let n = 2_000usize;
    let tracked_count = 64usize;
    let informed = 10usize;
    let trials = 32u64;
    let rounds = 15u64;
    let epsilon = 0.25;

    let mut agent_active = Vec::new();
    let mut hybrid_active = Vec::new();
    for trial in 0..trials {
        let channel = BinarySymmetricChannel::from_epsilon(epsilon).unwrap();
        let mut sim = Simulation::new(
            adopters(n, informed),
            channel,
            SimulationConfig::new(n).with_seed(11_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        agent_active.push(sim.census().active() as f64);

        // The informed agents all land in the tracked subpopulation; the
        // bulk starts silent — the same global initial state.
        let channel = BinarySymmetricChannel::from_epsilon(epsilon).unwrap();
        let tracked = RumorAgent::population(tracked_count, 0, informed);
        let bulk = StratifiedPopulation::single(RumorProtocol::population(
            (n - tracked_count) as u64,
            0,
            0,
        ));
        let mut sim = HybridSimulation::new(
            tracked,
            RumorProtocol,
            channel,
            bulk,
            SimulationConfig::new(n).with_seed(12_000 + trial),
        )
        .unwrap();
        sim.run(rounds);
        hybrid_active.push(sim.census().active() as f64);
    }

    let agent_mean: f64 = agent_active.iter().sum::<f64>() / trials as f64;
    let hybrid_mean: f64 = hybrid_active.iter().sum::<f64>() / trials as f64;
    let allowance = chernoff_allowance(n as f64, trials as f64);
    assert!(
        (agent_mean - hybrid_mean).abs() < allowance,
        "agents mean {agent_mean:.1} vs hybrid mean {hybrid_mean:.1} (allowance {allowance:.1})"
    );
}

/// Golden-seed snapshot of a stratified census: pins the exact per-stratum
/// counts and message totals of a fixed heterogeneous run, so any change to
/// the stratified engine's RNG draw order fails here before it can silently
/// shift every stratified experiment.
#[test]
fn stratified_zealot_golden_seed_census_snapshot() {
    let n = 10_000u64;
    let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
    let population = ZealotRumorProtocol::population(n, 0, 50, 1_000);
    let config = SimulationConfig::new(n as usize)
        .with_seed(0xD0_5EED)
        .with_reference(Opinion::One);
    let mut sim =
        StratifiedSimulation::new(ZealotRumorProtocol, vec![channel; 2], population, config)
            .unwrap();
    sim.run(30);

    assert_eq!(sim.population().stratum(0).counts(), &[0, 5_169, 3_831]);
    assert_eq!(sim.population().stratum(1).counts(), &[1_000]);
    let census = sim.census();
    assert_eq!(census.holding(Opinion::Zero), 6_169);
    assert_eq!(census.holding(Opinion::One), 3_831);
    let metrics = sim.metrics();
    assert_eq!(metrics.messages_sent, 266_360);
    assert_eq!(metrics.messages_accepted, 172_042);
    assert_eq!(metrics.bits_flipped, 51_541);
}

// ------------------------------------------------------- million-agent runs

/// The heterogeneous zealot scenario completes at `n = 10⁶` on the
/// stratified engine — the scale the per-agent engine cannot reach — and
/// the rumor still saturates the honest population.
#[test]
fn stratified_zealot_million_completes() {
    let n = 1_000_000u64;
    let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
    let population = ZealotRumorProtocol::population(n, 0, 1_000, 100_000);
    let config = SimulationConfig::new(n as usize)
        .with_seed(99)
        .with_reference(Opinion::One);
    let mut sim =
        StratifiedSimulation::new(ZealotRumorProtocol, vec![channel; 2], population, config)
            .unwrap();
    let rounds = sim.run_until(500, |s| s.census().active() == n as usize);
    assert!(rounds < 500, "activation must beat the cap (took {rounds})");
    assert_eq!(sim.census().active(), n as usize);
    assert_eq!(sim.population().stratum(1).counts(), &[100_000]);
}

/// The adversarial-cap scenario completes at `n = 10⁶` on the hybrid
/// engine: the tracked agents see the channel's exact per-message law while
/// the bulk runs on its mean — previously this channel was stuck at
/// per-agent scale.
#[test]
fn hybrid_adversarial_cap_million_completes() {
    let n = 1_000_000usize;
    let tracked_count = 32usize;
    let channel = AdversarialCapChannel::new(0.1, 0.3).unwrap();
    let tracked = RumorAgent::population(tracked_count, 0, 1);
    let bulk = StratifiedPopulation::single(RumorProtocol::population(
        (n - tracked_count) as u64,
        0,
        999,
    ));
    let config = SimulationConfig::new(n)
        .with_seed(7)
        .with_reference(Opinion::One);
    let mut sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config).unwrap();
    let rounds = sim.run_until(500, |s| s.census().active() == n);
    assert!(rounds < 500, "activation must beat the cap (took {rounds})");
    assert_eq!(sim.census().active(), n);
}

// ------------------------------------------------------------- performance

/// The acceptance bar for the dense engine: one million agents for 500 rounds
/// in under a second (release builds only — debug builds skip the wall-clock
/// assertion but still exercise the run).
#[test]
fn dense_million_agents_500_rounds_under_a_second() {
    let n = 1_000_000u64;
    let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
    let population = RumorProtocol::population(n, 0, 1_000);
    let config = SimulationConfig::new(n as usize).with_seed(42);
    let start = std::time::Instant::now();
    let mut sim = DenseSimulation::new(RumorProtocol, channel, population, config).unwrap();
    sim.run(500);
    let elapsed = start.elapsed();
    assert_eq!(sim.metrics().rounds, 500);
    assert_eq!(
        sim.census().active(),
        n as usize,
        "rumor saturates well before round 500"
    );
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "500 dense rounds at n = 10^6 took {elapsed:?}"
        );
    }
}
