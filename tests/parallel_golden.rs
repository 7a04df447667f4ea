//! Golden-seed snapshot for the parallel radix router at n = 10⁶.
//!
//! `tests/dense_golden.rs` pins the dense engine's stream; this file pins
//! the per-agent engine's *parallel* round pipeline at full radix scale.
//! The constants ARE the reproducibility contract: a seeded million-agent
//! run over worker lanes must keep producing exactly these census counts
//! and message tallies across releases — and, because the parallel router
//! is bit-identical to the sequential paths by construction, the identical
//! constants must hold at every thread count, including one.  If this test
//! fails, the routing pipeline changed (redraw chain, packed-word layout,
//! scatter/resolve/emit order, RNG block reservation — anything), and every
//! seeded large-n result in the repository changed with it.

use breathe_paper as _;
use flip_model::{
    BinarySymmetricChannel, FaultSpec, Opinion, RumorAgent, Simulation, SimulationConfig,
    RADIX_MIN_N,
};

/// One snapshot run: census split and exact message accounting.
fn snapshot(n: usize, threads: usize, rounds: u64) -> (usize, usize, u64, u64, u64, u64) {
    let agents = RumorAgent::population(n, 0, n / 2);
    let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
    let config = SimulationConfig::new(n)
        .with_seed(0x9A_11E1)
        .with_reference(Opinion::One)
        .with_threads(threads);
    let mut sim = Simulation::new(agents, channel, config).expect("valid parameters");
    sim.run(rounds);
    let metrics = sim.metrics();
    (
        sim.census().active(),
        sim.census().holding(Opinion::One),
        metrics.messages_sent,
        metrics.messages_accepted,
        metrics.messages_collided,
        metrics.bits_flipped,
    )
}

#[test]
fn parallel_radix_golden_seed_snapshot_at_1e6() {
    // Half the million agents start informed, so every round is dense and
    // routes through the parallel radix scatter from round 0.
    let golden = (848_959, 739_092, 1_196_901, 895_338, 301_563, 268_698);
    assert_eq!(snapshot(1_000_000, 4, 2), golden);
    // Bit-identity across lane counts is part of the pinned contract.
    assert_eq!(snapshot(1_000_000, 1, 2), golden);
}

/// The n = 10⁷ smoke: one decade past the golden tier, the scale the
/// parallel round exists for.  Ignored by default — it wants a release
/// build and ~1 GB of buffers — and run explicitly (`-- --ignored`) by the
/// weekly large-n workflow.  No pinned constants at this tier; the contract
/// checked is thread-count bit-identity plus exact message conservation.
/// Rumor agents declare RNG-free hooks, so the lanes run the send pass and
/// the delivery walk as well as routing; three lanes split the population
/// unevenly.
#[test]
#[ignore = "large-n smoke (release builds; run via the weekly large-n workflow)"]
fn parallel_radix_smoke_at_1e7() {
    let n = 10_000_000;
    let reference = snapshot(n, 1, 1);
    for threads in [2, 3, 8] {
        assert_eq!(snapshot(n, threads, 1), reference, "threads = {threads}");
    }
    let (active, _, sent, accepted, collided, _) = reference;
    assert_eq!(sent, (n / 2) as u64, "every informed agent pushes");
    assert_eq!(sent, accepted + collided, "conservation");
    assert!(active >= n / 2, "informed agents never forget");
}

#[test]
fn fault_injected_runs_are_thread_invariant_at_radix_scale() {
    // Fault draws ride the reserved counter-mode RNG stream, so injecting
    // a tenth of the population as Byzantine-constant agents must not
    // break lane invariance: the same seed produces the same census,
    // metrics and fault plan at every thread count.  The faulty run must
    // also actually differ from the honest one (the injection is live) and
    // stay seed-sensitive (the plan is a stream, not a fixed prefix).
    let n = RADIX_MIN_N;
    let run = |seed: u64, threads: usize, faults: Option<FaultSpec>| {
        let agents = RumorAgent::population(n, 0, n / 2);
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let mut config = SimulationConfig::new(n)
            .with_seed(seed)
            .with_reference(Opinion::One)
            .with_threads(threads);
        if let Some(spec) = faults {
            config = config.with_faults(spec);
        }
        let mut sim = Simulation::new(agents, channel, config).expect("valid parameters");
        sim.run(3);
        let faulty: Vec<usize> = sim.fault_plan().map_or_else(Vec::new, |plan| {
            (0..n).filter(|&i| plan.is_faulty(i)).collect()
        });
        (sim.census(), sim.metrics().clone(), faulty)
    };
    let byz: FaultSpec = "byz:0.1".parse().expect("valid directive");
    let reference = run(0xFA17, 1, Some(byz));
    // The plan samples i.i.d. per agent, so the count is Binomial(n, 0.1):
    // a ±5% band around n/10 is ~60 standard deviations wide at this n.
    let faulty = reference.2.len();
    assert!(
        (n / 10).abs_diff(faulty) < n / 200,
        "byz:0.1 must draw about n/10 faulty agents, got {faulty}"
    );
    assert_eq!(run(0xFA17, 4, Some(byz)), reference, "threads = 4");
    assert_ne!(
        run(0xFA18, 1, Some(byz)),
        reference,
        "a neighbouring seed must diverge"
    );
    let honest = run(0xFA17, 1, None);
    assert!(honest.2.is_empty(), "no plan without a directive");
    assert_ne!(
        (honest.0, honest.1),
        (reference.0, reference.1.clone()),
        "injected faults must change the run"
    );
}

#[test]
fn parallel_radix_golden_snapshot_is_seed_sensitive() {
    // The snapshot pins a stream, not a coincidence: at the (cheaper) radix
    // crossover, a neighbouring seed must diverge while lane counts agree.
    let run = |seed: u64, threads: usize| {
        let n = RADIX_MIN_N;
        let agents = RumorAgent::population(n, 0, n / 2);
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let config = SimulationConfig::new(n)
            .with_seed(seed)
            .with_reference(Opinion::One)
            .with_threads(threads);
        let mut sim = Simulation::new(agents, channel, config).expect("valid parameters");
        sim.run(2);
        (sim.census().holding(Opinion::One), sim.metrics().clone())
    };
    assert_eq!(run(0x9A_11E1, 4), run(0x9A_11E1, 8));
    assert_ne!(run(0x9A_11E1, 4), run(0x9A_11E2, 4));
}
