//! The radix-vs-single-pass routing equivalence contract at scale.
//!
//! `GossipScheduler` routes large dense rounds through a cache-bucketed
//! radix path and everything else through the single-pass path; the
//! crossover is purely a performance decision, so the two paths must be
//! *bit-identical* from equal RNG states — same deliveries, same emission
//! order (recipient order for dense rounds, first-arrival order for sparse
//! ones), same collision counts, same RNG stream afterwards.  This suite
//! pins that contract at n ∈ {10³, 10⁵, 10⁶} (spanning both sides of the
//! `RADIX_MIN_N` crossover) for all-send, sparse and single-message
//! rounds, and checks `route_into`'s dispatch matches both explicit paths
//! exactly at the crossover boundary.
//!
//! The second half of the suite pins the *thread-invariance* contract: the
//! parallel router (`route_into` handed a `RoundPool`) must be
//! bit-identical to **both** sequential paths — deliveries, counts, and the
//! post-round RNG stream — for every pool width in {1, 2, 3, 8}, at every
//! population in {10³, 10⁵, `RADIX_MIN_N`, 10⁶}, for dense and sparse
//! rounds alike; and a whole `Simulation` configured with any thread count
//! must reproduce the single-threaded run census-for-census.

use breathe_paper as _;
use flip_model::{
    BinarySymmetricChannel, FaultSpec, FlipEngine, GossipScheduler, HybridSimulation, Opinion,
    RoundPool, RoundRouting, RumorAgent, RumorProtocol, SimRng, Simulation, SimulationConfig,
    StratifiedPopulation, Telemetry, RADIX_MIN_N,
};
use rand::RngCore;

/// Routes `sends` through both paths from equal RNG states for several
/// rounds, asserting routing outcome and RNG stream stay identical.
fn assert_paths_agree(n: usize, sends: &[(u32, Opinion)], seed: u64, rounds: usize) {
    let mut single = GossipScheduler::new(n).expect("valid population");
    let mut radix = GossipScheduler::new(n).expect("valid population");
    let mut rng_single = SimRng::from_seed(seed);
    let mut rng_radix = SimRng::from_seed(seed);
    let mut out_single = RoundRouting::with_capacity(n);
    let mut out_radix = RoundRouting::with_capacity(n);
    for round in 0..rounds {
        single.route_into_single_pass(
            sends,
            &mut rng_single,
            &mut out_single,
            &mut Telemetry::off(),
        );
        radix.route_into_radix(sends, &mut rng_radix, &mut out_radix, &mut Telemetry::off());
        assert_eq!(
            out_single.sent, out_radix.sent,
            "n = {n}, round {round}: sent diverged"
        );
        assert_eq!(
            out_single.collided, out_radix.collided,
            "n = {n}, round {round}: collided diverged"
        );
        assert_eq!(
            out_single.accepted(),
            out_radix.accepted(),
            "n = {n}, round {round}: accepted deliveries diverged"
        );
        assert_eq!(
            rng_single.next_u64(),
            rng_radix.next_u64(),
            "n = {n}, round {round}: RNG streams diverged"
        );
    }
}

#[test]
fn radix_and_single_pass_agree_at_1e3() {
    let n = 1_000;
    let all: Vec<(u32, Opinion)> = (0..n as u32)
        .map(|i| (i, Opinion::from_bit(u8::from(i % 2 == 0))))
        .collect();
    let sparse: Vec<(u32, Opinion)> = (0..n as u32)
        .step_by(11)
        .map(|i| (i, Opinion::One))
        .collect();
    assert_paths_agree(n, &all, 0xA11, 8);
    assert_paths_agree(n, &sparse, 0xA12, 8);
    assert_paths_agree(n, &[(0u32, Opinion::One)], 0xA13, 50);
}

#[test]
fn radix_and_single_pass_agree_at_1e5() {
    let n = 100_000;
    let all: Vec<(u32, Opinion)> = (0..n as u32)
        .map(|i| (i, Opinion::from_bit(u8::from(i % 2 == 0))))
        .collect();
    let sparse: Vec<(u32, Opinion)> = (0..n as u32)
        .step_by(13)
        .map(|i| (i, Opinion::Zero))
        .collect();
    assert_paths_agree(n, &all, 0xB11, 3);
    assert_paths_agree(n, &sparse, 0xB12, 3);
}

#[test]
fn radix_and_single_pass_agree_at_1e6() {
    let n = 1_000_000;
    let all: Vec<(u32, Opinion)> = (0..n as u32)
        .map(|i| (i, Opinion::from_bit(u8::from(i % 5 == 0))))
        .collect();
    let sparse: Vec<(u32, Opinion)> = (0..n as u32)
        .step_by(17)
        .map(|i| (i, Opinion::One))
        .collect();
    assert_paths_agree(n, &all, 0xC11, 2);
    assert_paths_agree(n, &sparse, 0xC12, 2);
}

/// Routes `sends` through the parallel router (pool of `workers` lanes) and
/// both sequential paths from equal RNG states for several rounds, asserting
/// deliveries, counts and the post-round RNG stream stay identical.
fn assert_parallel_agrees(
    n: usize,
    sends: &[(u32, Opinion)],
    seed: u64,
    rounds: usize,
    workers: usize,
) {
    let pool = RoundPool::new(workers);
    let mut parallel = GossipScheduler::new(n).expect("valid population");
    let mut single = GossipScheduler::new(n).expect("valid population");
    let mut radix = GossipScheduler::new(n).expect("valid population");
    let mut rng_p = SimRng::from_seed(seed);
    let mut rng_s = SimRng::from_seed(seed);
    let mut rng_r = SimRng::from_seed(seed);
    let mut out_p = RoundRouting::with_capacity(n);
    let mut out_s = RoundRouting::with_capacity(n);
    let mut out_r = RoundRouting::with_capacity(n);
    for round in 0..rounds {
        parallel.route_into(
            sends,
            &mut rng_p,
            &mut out_p,
            Some(&pool),
            &mut Telemetry::off(),
        );
        single.route_into_single_pass(sends, &mut rng_s, &mut out_s, &mut Telemetry::off());
        radix.route_into_radix(sends, &mut rng_r, &mut out_r, &mut Telemetry::off());
        let ctx = format!("n = {n}, workers = {workers}, round {round}");
        assert_eq!(out_p.sent, out_s.sent, "{ctx}: sent diverged");
        assert_eq!(out_p.collided, out_s.collided, "{ctx}: collided diverged");
        assert_eq!(
            out_p.accepted(),
            out_s.accepted(),
            "{ctx}: deliveries diverged from single-pass"
        );
        assert_eq!(
            out_p.accepted(),
            out_r.accepted(),
            "{ctx}: deliveries diverged from sequential radix"
        );
        assert_eq!(
            rng_p.next_u64(),
            rng_s.next_u64(),
            "{ctx}: RNG streams diverged"
        );
        rng_r.next_u64(); // keep the radix stream in lock-step too
    }
}

/// The `sends` patterns the thread matrix exercises: a dense all-send round
/// and a sparse round (~n/13 senders).
fn dense_and_sparse(n: usize) -> [Vec<(u32, Opinion)>; 2] {
    let dense: Vec<(u32, Opinion)> = (0..n as u32)
        .map(|i| (i, Opinion::from_bit(u8::from(i % 3 == 0))))
        .collect();
    let sparse: Vec<(u32, Opinion)> = (0..n as u32)
        .step_by(13)
        .map(|i| (i, Opinion::One))
        .collect();
    [dense, sparse]
}

#[test]
fn parallel_routing_is_thread_invariant_at_1e3() {
    for sends in &dense_and_sparse(1_000) {
        for workers in [1, 2, 3, 8] {
            assert_parallel_agrees(1_000, sends, 0xD11, 6, workers);
        }
    }
}

#[test]
fn parallel_routing_is_thread_invariant_at_1e5() {
    for sends in &dense_and_sparse(100_000) {
        for workers in [1, 2, 3, 8] {
            assert_parallel_agrees(100_000, sends, 0xD12, 2, workers);
        }
    }
}

#[test]
fn parallel_routing_is_thread_invariant_at_radix_min_n() {
    // The smallest population the radix (and thus the parallel scatter)
    // path handles: every lane-count must agree here, where per-lane
    // staging regions are smallest relative to the bucket count.
    for sends in &dense_and_sparse(RADIX_MIN_N) {
        for workers in [1, 2, 3, 8] {
            assert_parallel_agrees(RADIX_MIN_N, sends, 0xD13, 2, workers);
        }
    }
}

#[test]
fn parallel_routing_is_thread_invariant_at_1e6() {
    for sends in &dense_and_sparse(1_000_000) {
        for workers in [1, 2, 3, 8] {
            assert_parallel_agrees(1_000_000, sends, 0xD14, 1, workers);
        }
    }
}

#[test]
fn simulations_are_bit_identical_across_thread_counts() {
    // Whole-engine invariance: a seeded run at any `with_threads` width
    // reproduces the single-threaded run exactly — census, metrics, and
    // the spent RNG stream.  Half the population starts informed so the
    // rounds are dense and the parallel radix path actually engages.
    let n = RADIX_MIN_N;
    let run = |threads: usize| {
        let agents = RumorAgent::population(n, 0, n / 2);
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let config = SimulationConfig::new(n)
            .with_seed(0xE14)
            .with_reference(Opinion::One)
            .with_threads(threads);
        let mut sim = Simulation::new(agents, channel, config).expect("valid simulation");
        sim.run(3);
        (sim.census(), sim.metrics().clone())
    };
    let reference = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(run(threads), reference, "threads = {threads}");
    }
}

#[test]
fn faulty_simulations_are_bit_identical_across_thread_counts() {
    // Fault-injection twin of the invariance test above: the fault plan is
    // drawn from a reserved counter-mode RNG stream, so a Byzantine tenth
    // of the population must not disturb lane invariance — on either the
    // per-agent engine or the hybrid engine, each checked independently.
    let n = RADIX_MIN_N;
    let byz: FaultSpec = "byz:0.1".parse().expect("valid directive");
    let agents_run = |threads: usize, seed: u64| {
        let agents = RumorAgent::population(n, 0, n / 2);
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let config = SimulationConfig::new(n)
            .with_seed(seed)
            .with_reference(Opinion::One)
            .with_threads(threads)
            .with_faults(byz);
        let mut sim = Simulation::new(agents, channel, config).expect("valid simulation");
        sim.run(3);
        (sim.census(), sim.metrics().clone())
    };
    let reference = agents_run(1, 0xFA14);
    for threads in [2, 4, 8] {
        assert_eq!(
            agents_run(threads, 0xFA14),
            reference,
            "threads = {threads}"
        );
    }
    assert_ne!(agents_run(1, 0xFA15), reference, "seed sensitivity");

    // The hybrid engine draws the same per-agent roles over its tracked
    // prefix; the tracked set must be large enough to hold every faulty
    // agent (n/10 here), and the whole run must stay lane-invariant.
    let k = 16_384;
    let hybrid_run = |threads: usize, seed: u64| {
        let tracked = RumorAgent::population(k, 0, k / 2);
        let bulk = StratifiedPopulation::single(RumorProtocol::population(
            (n - k) as u64,
            0,
            ((n - k) / 2) as u64,
        ));
        let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
        let config = SimulationConfig::new(n)
            .with_seed(seed)
            .with_reference(Opinion::One)
            .with_threads(threads)
            .with_faults(byz);
        let mut sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config)
            .expect("valid simulation");
        sim.run(3);
        (sim.census(), sim.metrics().clone())
    };
    let hybrid_reference = hybrid_run(1, 0xFA16);
    for threads in [2, 4, 8] {
        assert_eq!(
            hybrid_run(threads, 0xFA16),
            hybrid_reference,
            "hybrid threads = {threads}"
        );
    }
    assert_ne!(hybrid_run(1, 0xFA17), hybrid_reference, "hybrid seeds");
}

#[test]
fn crossover_straddles_identically() {
    // One agent below and one agent at the crossover: `route_into` switches
    // paths between these two sizes, and both must match their explicit
    // counterparts exactly.
    for n in [RADIX_MIN_N - 1, RADIX_MIN_N] {
        let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::One)).collect();
        let mut dispatched = GossipScheduler::new(n).expect("valid");
        let mut single = GossipScheduler::new(n).expect("valid");
        let mut radix = GossipScheduler::new(n).expect("valid");
        let mut rng_d = SimRng::from_seed(99);
        let mut rng_s = SimRng::from_seed(99);
        let mut rng_r = SimRng::from_seed(99);
        let mut out_d = RoundRouting::with_capacity(n);
        let mut out_s = RoundRouting::with_capacity(n);
        let mut out_r = RoundRouting::with_capacity(n);
        for _ in 0..2 {
            dispatched.route_into(&sends, &mut rng_d, &mut out_d, None, &mut Telemetry::off());
            single.route_into_single_pass(&sends, &mut rng_s, &mut out_s, &mut Telemetry::off());
            radix.route_into_radix(&sends, &mut rng_r, &mut out_r, &mut Telemetry::off());
            assert_eq!(out_d.accepted(), out_s.accepted(), "n = {n}");
            assert_eq!(out_d.accepted(), out_r.accepted(), "n = {n}");
        }
    }
}
