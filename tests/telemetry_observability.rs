//! Observability contracts: fault accounting in [`Metrics`], telemetry
//! bit-neutrality, and per-round summaries on the hybrid backend.
//!
//! The telemetry crate's unit suite pins the recorder mechanics; this file
//! pins the system-level promises: enabling telemetry never perturbs a
//! seeded run (timing reads the wall clock, never the RNG stream), the
//! fault counters in `Metrics` account for every interception, and the
//! hybrid engine's round summaries count its tracked prefix and its bulk
//! together.

use breathe_paper as _;
use flip_model::{
    Agent, BinarySymmetricChannel, Event, FlipEngine, HybridSimulation, Metrics, NoiselessChannel,
    Opinion, Phase, RumorAgent, RumorProtocol, Simulation, SimulationConfig, StratifiedPopulation,
};

/// Pinned fault accounting on a seeded crash run: `crash:0.2@3` over 1000
/// fully informed agents silences the sampled faulty set from round 3 on,
/// so six rounds give exactly 3 × |faulty| forced (silenced) sends and
/// crashed agent-rounds, while the suppressed-delivery count follows the
/// seeded routing.
#[test]
fn crash_fault_accounting_is_pinned_on_a_seeded_run() {
    let n = 1_000;
    let rounds = 6u64;
    let run = || {
        let agents = RumorAgent::population(n, 0, n);
        let config = SimulationConfig::new(n)
            .with_seed(0xFA_04)
            .with_faults("crash:0.2@3".parse().expect("valid directive"));
        let mut sim = Simulation::new(agents, NoiselessChannel, config).expect("valid parameters");
        let faulty = sim.fault_plan().expect("plan exists").faulty_count() as u64;
        sim.run(rounds);
        (faulty, sim.metrics().clone())
    };
    let (faulty, metrics) = run();
    assert!(faulty > 0, "a fifth of 1000 agents samples non-empty");
    assert_eq!(
        metrics.forced_sends,
        3 * faulty,
        "one silencing per crashed agent-round"
    );
    assert_eq!(metrics.crashed_agent_rounds, 3 * faulty);
    assert!(
        metrics.suppressed_deliveries > 0,
        "messages routed to crashed agents must be suppressed"
    );
    assert!(
        metrics.suppressed_deliveries < metrics.messages_accepted,
        "honest agents still receive"
    );
    // The interception counters ride the same seeded determinism as the
    // message counters: a re-run reproduces them bit for bit.
    assert_eq!((faulty, metrics), run());
}

/// Byzantine roles force a send every round and never accept a delivery;
/// no agent ever counts as crashed.
#[test]
fn byzantine_fault_accounting_separates_forced_from_crashed() {
    let n = 500;
    let rounds = 8u64;
    let agents = RumorAgent::population(n, 0, n);
    let config = SimulationConfig::new(n)
        .with_seed(0xFA_05)
        .with_faults("byz:0.1".parse().expect("valid directive"));
    let mut sim = Simulation::new(agents, NoiselessChannel, config).expect("valid parameters");
    sim.run(rounds);
    let metrics: &Metrics = sim.metrics();
    let faulty = sim.fault_plan().expect("plan exists").faulty_count() as u64;
    assert!(faulty > 0, "a tenth of 500 agents samples non-empty");
    assert_eq!(
        metrics.forced_sends,
        rounds * faulty,
        "every Byzantine agent-round injects"
    );
    assert_eq!(
        metrics.crashed_agent_rounds, 0,
        "byzantine agents never crash"
    );
    assert!(
        metrics.suppressed_deliveries > 0,
        "byzantine roles are deaf"
    );
}

/// The load-bearing telemetry contract: an instrumented run's summaries are
/// bit-identical to an uninstrumented one — phase timing reads the
/// monotonic clock, never the simulation RNG.
#[test]
fn telemetry_enabled_runs_are_bit_identical_to_disabled_runs() {
    let n = 4_096;
    let rounds = 20;
    let run = |telemetry: bool, threads: usize| {
        let agents = RumorAgent::population(n, 0, 64);
        let channel = BinarySymmetricChannel::from_epsilon(0.25).expect("valid epsilon");
        let config = SimulationConfig::new(n)
            .with_seed(0x7E1E)
            .with_reference(Opinion::One)
            .with_threads(threads);
        let mut sim = Simulation::new(agents, channel, config).expect("valid parameters");
        if telemetry {
            sim.enable_telemetry();
        }
        let summaries: Vec<_> = (0..rounds).map(|_| sim.step()).collect();
        let recorder = sim.take_telemetry();
        (summaries, recorder)
    };
    for threads in [1, 3] {
        let (plain, none) = run(false, threads);
        let (instrumented, recorder) = run(true, threads);
        assert_eq!(plain, instrumented, "threads = {threads}");
        assert!(none.is_none(), "telemetry off yields no recorder");
        let recorder = recorder.expect("telemetry on yields a recorder");
        for phase in [Phase::RngReserve, Phase::ProtocolStep, Phase::NoiseMerge] {
            assert_eq!(
                recorder.phases().get(phase).count,
                rounds,
                "{phase} timed once per round (threads = {threads})"
            );
        }
        assert!(
            recorder.phases().get(Phase::ProtocolStep).total_ns > 0,
            "wall time accumulates"
        );
    }
}

/// Hybrid telemetry: per-message `Channel::transmit` draws on the tracked
/// path are counted, phases are timed once per round, and enabling the
/// instrumentation leaves the seeded run untouched.
#[test]
fn hybrid_telemetry_counts_tracked_corrections_without_perturbing_the_run() {
    let n = 20_000u64;
    let tracked = 64usize;
    let rounds = 30;
    let run = |telemetry: bool| {
        let agents = RumorAgent::population(tracked, 0, tracked);
        let bulk =
            StratifiedPopulation::single(RumorProtocol::population(n - tracked as u64, 0, 0));
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let config = SimulationConfig::new(n as usize).with_seed(0x7E1F);
        let mut sim = HybridSimulation::new(agents, RumorProtocol, channel, bulk, config)
            .expect("valid parameters");
        if telemetry {
            sim.enable_telemetry();
        }
        let summaries: Vec<_> = (0..rounds).map(|_| sim.step()).collect();
        let recorder = sim.take_telemetry();
        (summaries, recorder)
    };
    let (plain, _) = run(false);
    let (instrumented, recorder) = run(true);
    assert_eq!(plain, instrumented, "telemetry must not touch the RNG");
    let recorder = recorder.expect("telemetry on yields a recorder");
    assert!(
        recorder.event(Event::HybridTrackedCorrections) > 0,
        "tracked deliveries draw per-message channel noise"
    );
    for phase in [Phase::ProtocolStep, Phase::NoiseMerge, Phase::CensusApply] {
        assert_eq!(recorder.phases().get(phase).count, rounds, "{phase}");
    }
}

/// Per-round summaries on the hybrid backend: one per executed round, in
/// round order, each counting the whole split population (the tracked
/// prefix and the bulk together).
#[test]
fn hybrid_round_summaries_census_the_whole_split_population() {
    let n = 10_000u64;
    let tracked = 32usize;
    // No tracked agent starts informed: the run below ends only once the
    // rumor has reached every one of them.
    let agents = RumorAgent::population(tracked, 0, 0);
    let bulk = StratifiedPopulation::single(RumorProtocol::population(n - tracked as u64, 0, 100));
    let channel = BinarySymmetricChannel::from_epsilon(0.3).expect("valid epsilon");
    let config = SimulationConfig::new(n as usize)
        .with_seed(0x7E20)
        .with_reference(Opinion::One);
    let mut sim = HybridSimulation::new(agents, RumorProtocol, channel, bulk, config)
        .expect("valid parameters");
    let mut summaries = Vec::new();
    while summaries.len() < 200 && sim.tracked().iter().any(|a| a.opinion().is_none()) {
        let summary = sim.step();
        let census = sim.census();
        assert_eq!(summary.census_active, census.active(), "the full census");
        assert_eq!(
            summary.census_correct,
            Some(census.holding(Opinion::One)),
            "reference configured"
        );
        summaries.push(summary);
    }
    assert!(
        summaries.len() < 200,
        "the rumor reaches every tracked agent"
    );
    assert_eq!(sim.metrics().rounds, summaries.len() as u64);
    for (round, summary) in summaries.iter().enumerate() {
        assert_eq!(summary.metrics.round, round as u64, "one summary per round");
    }
    assert!(
        summaries
            .windows(2)
            .all(|pair| pair[0].census_active <= pair[1].census_active),
        "an informed agent stays informed"
    );
}
