//! End-to-end integration tests for the noisy broadcast protocol
//! (Theorem 2.17), spanning the `flip-model` and `breathe` crates.

use breathe::{
    AsyncBroadcastProtocol, AsyncVariant, BroadcastProtocol, InitialSet, MajorityConsensusProtocol,
    Multipliers, OffsetAgent, Params, ResyncAgent, Schedule, Stage1State, StageKind,
};
use flip_model::{
    Agent, BinarySymmetricChannel, Census, HybridSimulation, Metrics, Opinion, OpinionDelta, Phase,
    Recorder, Round, RoundSummary, RumorProtocol, SimRng, Simulation, SimulationConfig,
    StratifiedPopulation,
};

#[test]
fn broadcast_reaches_consensus_across_populations_and_noise_levels() {
    for &(n, epsilon) in &[(200usize, 0.35), (500, 0.3), (1_000, 0.25)] {
        let params = Params::practical(n, epsilon).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let outcome = protocol.run_with_seed(42).unwrap();
        assert!(
            outcome.fraction_correct > 0.95,
            "n={n}, eps={epsilon}: fraction_correct = {}",
            outcome.fraction_correct
        );
        assert_eq!(outcome.n, n);
        assert_eq!(outcome.total_rounds, protocol.schedule().total_rounds());
    }
}

#[test]
fn broadcast_success_rate_is_high_over_repeated_trials() {
    let params = Params::practical(400, 0.3).unwrap();
    let protocol = BroadcastProtocol::new(params, Opinion::Zero);
    let trials = 10;
    let successes = (0..trials)
        .filter(|&seed| protocol.run_with_seed(seed).unwrap().fraction_correct > 0.99)
        .count();
    assert!(
        successes >= trials as usize - 1,
        "only {successes}/{trials} trials reached near-consensus"
    );
}

#[test]
fn message_complexity_stays_within_a_constant_factor_of_n_log_n_over_eps_sq() {
    let epsilon = 0.25;
    for &n in &[300usize, 600, 1_200] {
        let params = Params::practical(n, epsilon).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let outcome = protocol.run_with_seed(7).unwrap();
        let scale = n as f64 * (n as f64).ln() / (epsilon * epsilon);
        let normalised = outcome.messages_sent as f64 / scale;
        assert!(
            normalised > 0.5 && normalised < 200.0,
            "n={n}: messages/scale = {normalised}"
        );
    }
}

#[test]
fn the_message_pattern_is_symmetric_in_the_broadcast_value() {
    // Symmetric algorithms (paper §1.3.4): whether the source holds 0 or 1 must
    // not change who speaks when.  With identical seeds the two executions must
    // therefore send exactly the same number of messages in every round.
    let params = Params::practical(300, 0.3).unwrap();
    let run = |correct: Opinion| {
        let protocol = BroadcastProtocol::new(params.clone(), correct);
        let mut sim = protocol.build_simulation(99).unwrap();
        let mut per_round = Vec::new();
        for _ in 0..protocol.schedule().total_rounds() {
            per_round.push(sim.step().metrics.messages_sent);
        }
        per_round
    };
    assert_eq!(run(Opinion::One), run(Opinion::Zero));
}

#[test]
fn stage1_produces_a_positive_bias_and_stage2_amplifies_it() {
    let params = Params::practical(600, 0.25).unwrap();
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let detailed = protocol.run_detailed(5).unwrap();
    let outcome = &detailed.outcome;
    assert!(outcome.fraction_correct_after_stage1 > 0.5);
    assert!(outcome.fraction_correct >= outcome.fraction_correct_after_stage1);
    assert!(outcome.fraction_correct > 0.95);

    // The per-phase trajectory should (weakly) improve during Stage II.
    let spreading = protocol.schedule().spreading_phase_count();
    let stage2 = &detailed.fraction_correct_after_phase[spreading - 1..];
    let first = stage2.first().copied().unwrap();
    let last = stage2.last().copied().unwrap();
    assert!(last >= first);
}

#[test]
fn paper_strict_constants_still_produce_a_valid_schedule() {
    let params = Params::paper_strict(64, 0.4).unwrap();
    let schedule = Schedule::broadcast(&params);
    assert!(schedule.total_rounds() > 100_000);
    assert_eq!(schedule.phases()[0].kind, StageKind::Spreading);
    // We do not run it — the point is that the literal constants are representable.
}

#[test]
fn custom_multipliers_flow_through_to_the_schedule() {
    let multipliers = Multipliers {
        s_mult: 1.0,
        beta_mult: 2.0,
        f_mult: 2.5,
        gamma_mult: 4.0,
        extra_boost_phases: 1,
        final_mult: 2.0,
    };
    let params = Params::with_multipliers(1_000, 0.3, multipliers).unwrap();
    let default_params = Params::practical(1_000, 0.3).unwrap();
    assert!(params.total_rounds() < default_params.total_rounds());
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let outcome = protocol.run_with_seed(3).unwrap();
    // Smaller constants still give a strong (if not always perfect) majority.
    assert!(
        outcome.fraction_correct > 0.8,
        "{}",
        outcome.fraction_correct
    );
}

/// Forwards every hook to the wrapped agent but keeps the default
/// `next_end_round`, so the engine calls its `end_round` in every round.
#[derive(Clone)]
struct EveryRound<A>(A);

impl<A: Agent> Agent for EveryRound<A> {
    fn send(&mut self, round: Round, rng: &mut SimRng) -> Option<Opinion> {
        self.0.send(round, rng)
    }

    fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
        self.0.deliver(round, message, rng)
    }

    fn end_round(&mut self, round: Round, rng: &mut SimRng) -> OpinionDelta {
        self.0.end_round(round, rng)
    }

    fn opinion(&self) -> Option<Opinion> {
        self.0.opinion()
    }

    fn is_active(&self) -> bool {
        self.0.is_active()
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// Runs `agents` for `rounds` rounds twice, as they are and wrapped in
/// [`EveryRound`], and asserts that every round summary, the final census
/// and the metrics agree: the engine's skipped end-of-round calls must all
/// have been no-ops.  After every round, both engines' maintained censuses
/// must also match a full recount, so an agent whose delivery changes its
/// opinion while reporting no delta fails here in release builds too (debug
/// builds audit the census only every 64 rounds).
fn assert_skipping_changes_nothing<A: Agent + Clone>(
    agents: Vec<A>,
    rounds: u64,
    faults: Option<String>,
) {
    let n = agents.len();
    let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
    let mut config = SimulationConfig::new(n)
        .with_seed(0x5EED)
        .with_reference(Opinion::One);
    if let Some(directive) = &faults {
        config = config.with_faults(directive.parse().unwrap());
    }
    let wrapped: Vec<EveryRound<A>> = agents.iter().cloned().map(EveryRound).collect();
    let mut skipping = Simulation::new(agents, channel, config.clone()).unwrap();
    let mut every = Simulation::new(wrapped, channel, config).unwrap();
    skipping.enable_telemetry();
    every.enable_telemetry();
    for round in 0..rounds {
        assert_eq!(
            skipping.step(),
            every.step(),
            "round {round}, faults {faults:?}"
        );
        assert_eq!(
            skipping.census(),
            Census::of_agents(skipping.agents()),
            "census recount after round {round}, faults {faults:?}"
        );
        assert_eq!(
            every.census(),
            Census::of_agents(every.agents()),
            "census recount after round {round}, faults {faults:?}"
        );
    }
    assert_eq!(skipping.census(), every.census(), "faults {faults:?}");
    assert_eq!(skipping.metrics(), every.metrics(), "faults {faults:?}");

    // Every round times one send loop, plus one end-of-round loop when it
    // runs: the wrapped run has one in every round, and the phase-aware run
    // must have skipped most of them.
    let end_loops = |recorder: Recorder| recorder.phases().get(Phase::ProtocolStep).count - rounds;
    assert_eq!(end_loops(every.take_telemetry().unwrap()), rounds);
    let ran = end_loops(skipping.take_telemetry().unwrap());
    assert!(
        2 * ran < rounds,
        "the end-of-round loop ran in {ran} of {rounds} rounds"
    );
}

/// `None` (fault-free), a Byzantine tenth, and a tenth that crashes one
/// round into the second Stage II phase window (shifted by `d`).
fn fault_plans(schedule: &Schedule, d: u64) -> [Option<String>; 3] {
    let phase = schedule.spreading_phase_count() + 1;
    let crash = schedule.phases()[phase].start + phase as u64 * d + 1;
    [
        None,
        Some("byz:0.1".to_string()),
        Some(format!("crash:0.1@{crash}")),
    ]
}

#[test]
fn skipping_end_of_round_calls_changes_nothing() {
    let params = Params::practical(300, 0.3).unwrap();

    let broadcast = BroadcastProtocol::new(params.clone(), Opinion::One);
    let schedule = broadcast.schedule();
    for faults in fault_plans(schedule, 0) {
        assert_skipping_changes_nothing(
            broadcast.build_agents(),
            schedule.total_rounds() + 2,
            faults,
        );
    }

    let majority =
        MajorityConsensusProtocol::new(params.clone(), Opinion::One, InitialSet::new(40, 20))
            .unwrap();
    let schedule = majority.schedule();
    for faults in fault_plans(schedule, 0) {
        assert_skipping_changes_nothing(
            majority.build_agents(),
            schedule.total_rounds() + 2,
            faults,
        );
    }

    // Bounded offsets: every agent ends its phases at its own rounds.
    let d = 5;
    let schedule = broadcast.schedule();
    let offset_agents: Vec<OffsetAgent> = (0..params.n())
        .map(|i| {
            let stage1 = if i == 0 {
                Stage1State::informed(Opinion::One)
            } else {
                Stage1State::uninformed()
            };
            OffsetAgent::new(schedule.clone(), stage1, (i as u64 * 7) % d, d)
        })
        .collect();
    for faults in fault_plans(schedule, d) {
        assert_skipping_changes_nothing(
            offset_agents.clone(),
            schedule.shifted_total_rounds(d) + 2,
            faults,
        );
    }

    // Resynchronised clocks: every agent's windows start `reset_after`
    // rounds after it first hears a message, at a round the gate cannot
    // know in advance.
    let resync =
        AsyncBroadcastProtocol::new(params.clone(), Opinion::One, AsyncVariant::Resynchronised);
    let log2n = resync.log2_n();
    let (d, preamble_len, reset_after) = (2 * log2n, 2 * log2n, 4 * log2n);
    let resync_agents: Vec<ResyncAgent> = (0..params.n())
        .map(|i| {
            let stage1 = if i == 0 {
                Stage1State::informed(Opinion::One)
            } else {
                Stage1State::uninformed()
            };
            ResyncAgent::new(schedule.clone(), stage1, preamble_len, reset_after, d)
        })
        .collect();
    for faults in fault_plans(schedule, d) {
        assert_skipping_changes_nothing(
            resync_agents.clone(),
            2 * reset_after + schedule.shifted_total_rounds(d),
            faults,
        );
    }
}

/// Runs `tracked` agents over an uninformed rumor bulk on the hybrid engine,
/// so the whole population is n = 300.
fn hybrid_run<A: Agent>(
    tracked: Vec<A>,
    rounds: u64,
    faults: &Option<String>,
) -> (Vec<RoundSummary>, Census, Metrics) {
    let n = 300;
    let bulk =
        StratifiedPopulation::single(RumorProtocol::population((n - tracked.len()) as u64, 0, 0));
    let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
    let mut config = SimulationConfig::new(n)
        .with_seed(0x5EED)
        .with_reference(Opinion::One);
    if let Some(directive) = faults {
        config = config.with_faults(directive.parse().unwrap());
    }
    let mut sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config).unwrap();
    let summaries = (0..rounds).map(|_| sim.step()).collect();
    (summaries, sim.census(), sim.metrics().clone())
}

#[test]
fn hybrid_skipping_end_of_round_calls_changes_nothing() {
    let params = Params::practical(300, 0.3).unwrap();
    let broadcast = BroadcastProtocol::new(params, Opinion::One);
    let schedule = broadcast.schedule();
    let tracked: Vec<_> = broadcast.build_agents().into_iter().take(64).collect();
    let rounds = schedule.total_rounds() + 2;
    for faults in fault_plans(schedule, 0) {
        let wrapped = tracked.iter().cloned().map(EveryRound).collect();
        assert!(
            hybrid_run(tracked.clone(), rounds, &faults) == hybrid_run(wrapped, rounds, &faults),
            "faults {faults:?}"
        );
    }
}
