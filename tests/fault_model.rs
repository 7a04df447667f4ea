//! Cross-engine fault-injection contracts at integration scale.
//!
//! The unit suites in `flip_model::faults`, `engine` and `hybrid` pin the
//! role semantics; this file pins the system-level behaviour the E13
//! family rests on: a Byzantine minority slows but does not stop rumor
//! spreading, crashed agents go dark at their crash round, and the hybrid
//! engine completes a million-agent faulty run (the weekly large-n leg).

use breathe_paper as _;
use flip_model::{
    Agent, BinarySymmetricChannel, FaultSpec, FlipEngine, HybridSimulation, NoiselessChannel,
    Opinion, RumorAgent, RumorProtocol, Simulation, SimulationConfig, StratifiedPopulation,
};

#[test]
fn byzantine_minority_slows_but_does_not_stop_the_rumor() {
    let n = 2_000;
    let run = |faults: Option<FaultSpec>| {
        let agents = RumorAgent::population(n, 0, 50);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).expect("valid epsilon");
        let mut config = SimulationConfig::new(n)
            .with_seed(0xFA_01)
            .with_reference(Opinion::One);
        if let Some(spec) = faults {
            config = config.with_faults(spec);
        }
        let mut sim = Simulation::new(agents, channel, config).expect("valid parameters");
        sim.run(60);
        let plan = sim.fault_plan().cloned();
        let honest_active = (0..n)
            .filter(|&i| {
                plan.as_ref().is_none_or(|p| !p.is_faulty(i)) && sim.agents()[i].is_active()
            })
            .count();
        let honest = n - plan.as_ref().map_or(0, |p| p.faulty_count());
        (honest_active, honest)
    };
    let (honest_active, honest) = run(Some("byz:0.1".parse().unwrap()));
    let (fault_free_active, fault_free) = run(None);
    assert_eq!(fault_free, n);
    assert!(
        fault_free_active > n * 9 / 10,
        "the honest baseline must spread: {fault_free_active}/{n}"
    );
    // Byzantine-constant agents push the wrong bit but cannot silence the
    // honest majority: most honest agents still learn the rumor.
    assert!(
        honest_active > honest / 2,
        "a Byzantine tenth must not stop the spread: {honest_active}/{honest}"
    );
}

#[test]
fn crashed_agents_go_dark_at_their_round() {
    // crash:F@R: before round R the faulty set behaves honestly; from R on
    // it neither sends nor receives.  On a noiseless channel with every
    // agent informed, message counts expose the silence exactly.
    let n = 1_000;
    let spec: FaultSpec = "crash:0.2@3".parse().expect("valid directive");
    let agents = RumorAgent::population(n, 0, n);
    let config = SimulationConfig::new(n)
        .with_seed(0xFA_02)
        .with_reference(Opinion::One)
        .with_faults(spec);
    let mut sim = Simulation::new(agents, NoiselessChannel, config).expect("valid parameters");
    let faulty = sim.fault_plan().expect("plan exists").faulty_count() as u64;
    sim.run(3);
    let before = sim.metrics().messages_sent;
    assert_eq!(
        before,
        3 * n as u64,
        "everyone sends before the crash round"
    );
    sim.run(2);
    let after = sim.metrics().messages_sent - before;
    assert_eq!(
        after,
        2 * (n as u64 - faulty),
        "crashed agents must stop sending at round 3"
    );
}

/// The weekly large-n completion leg: a million-agent hybrid run with a
/// five-percent Byzantine minority concentrated in the tracked prefix.
/// Ignored by default — it wants a release build — and run explicitly
/// (`-- --ignored`) by the weekly large-n workflow.
#[test]
#[ignore = "large-n smoke (release builds; run via the weekly large-n workflow)"]
fn byzantine_hybrid_million_completes() {
    let n = 1_000_000;
    let k = 100_000;
    let spec: FaultSpec = "byz:0.05".parse().expect("valid directive");
    let run = |threads: usize| {
        let tracked = RumorAgent::population(k, 0, k / 2);
        let bulk = StratifiedPopulation::single(RumorProtocol::population(
            (n - k) as u64,
            0,
            ((n - k) / 2) as u64,
        ));
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let config = SimulationConfig::new(n)
            .with_seed(0xFA_03)
            .with_reference(Opinion::One)
            .with_threads(threads)
            .with_faults(spec);
        let mut sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config)
            .expect("valid simulation");
        sim.run(4);
        assert_eq!(
            sim.fault_plan().expect("plan exists").faulty_count(),
            n / 20
        );
        (sim.census(), sim.metrics().clone())
    };
    let threaded = run(4);
    assert_eq!(threaded, run(1), "faulty hybrid runs are lane-invariant");
    let (census, metrics) = threaded;
    assert!(census.active() >= n / 2, "informed agents never forget");
    assert!(metrics.messages_sent > 0);
}
