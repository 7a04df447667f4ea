//! Thread-count invariance of the per-agent engine's lane passes.
//!
//! With a worker pool, an agent type that declares `Agent::RNG_FREE_HOOKS`
//! has the send pass and the delivery walk of each round run on every
//! `RoundPool` lane, over contiguous agent ranges, next to the routing that
//! already ran there.  The contract is bit-identity with the single-lane
//! run: every round's `RoundSummary` and every agent's final opinion must
//! match the threads = 1 run at threads {2, 3, 8}.  It is pinned at a
//! population just past the radix crossover (`RADIX_MIN_N + 3`, so no lane
//! count splits it evenly) and at 10⁶, for rumor runs that start sparse and
//! turn dense, rumor runs that are dense from round 0, both under Byzantine
//! and crash fault plans, and the zealot scenario.
//!
//! The guard is pinned too: an agent type that declares RNG-free hooks but
//! draws anyway panics, naming the type, instead of silently changing
//! results.

use breathe_paper as _;
use flip_model::{
    Agent, BinarySymmetricChannel, FaultSpec, Opinion, OpinionDelta, Round, RoundSummary,
    RumorAgent, SimRng, Simulation, SimulationConfig, ZealotAgent, RADIX_MIN_N,
};
use rand::RngCore;

/// Lane counts checked against the single-lane reference.
const THREADS: [usize; 3] = [2, 3, 8];

/// Population sizes: just past the radix crossover, with a remainder no
/// lane count divides, and the million-agent scale.
const SIZES: [usize; 2] = [RADIX_MIN_N + 3, 1_000_000];

/// Rounds for runs from one informed agent: enough for the sends to pass
/// the dense threshold (`n/8`) at both sizes and keep going for a while.
const SPARSE_TO_DENSE_ROUNDS: u64 = 24;

/// Rounds for runs that are dense from round 0.
const DENSE_ROUNDS: u64 = 4;

/// What a run leaves observable: every round's summary, then every agent's
/// final opinion.
type Outcome = (Vec<RoundSummary>, Vec<Option<Opinion>>);

fn run<A: Agent>(agents: Vec<A>, threads: usize, faults: Option<&str>, rounds: u64) -> Outcome {
    let n = agents.len();
    let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
    let mut config = SimulationConfig::new(n)
        .with_seed(0x1A7E_5EED ^ n as u64)
        .with_reference(Opinion::One)
        .with_threads(threads);
    if let Some(directive) = faults {
        let spec: FaultSpec = directive.parse().expect("valid directive");
        config = config.with_faults(spec);
    }
    let mut sim = Simulation::new(agents, channel, config).expect("valid parameters");
    let summaries = (0..rounds).map(|_| sim.step()).collect();
    let opinions = sim.agents().iter().map(Agent::opinion).collect();
    (summaries, opinions)
}

/// Runs `population(n)` for `rounds` rounds at every size and thread count,
/// and asserts that each multi-lane run equals the single-lane one.
/// Returns the single-lane outcomes, in [`SIZES`] order.
fn assert_lane_invariant<A: Agent>(
    population: impl Fn(usize) -> Vec<A>,
    faults: Option<&str>,
    rounds: u64,
) -> Vec<Outcome> {
    SIZES
        .iter()
        .map(|&n| {
            let reference = run(population(n), 1, faults, rounds);
            for threads in THREADS {
                let (summaries, opinions) = run(population(n), threads, faults, rounds);
                let context = format!("n = {n}, threads = {threads}, faults = {faults:?}");
                assert_eq!(summaries, reference.0, "{context}");
                // A plain `assert!`: a mismatch would otherwise print n
                // opinions twice.
                assert!(opinions == reference.1, "final opinions differ: {context}");
            }
            reference
        })
        .collect()
}

/// Asserts that a run from one informed agent passed through both sparse
/// and dense rounds, so both delivery walks (one lane, then every lane) ran.
fn assert_sparse_then_dense(outcomes: &[Outcome]) {
    for (&n, (summaries, _)) in SIZES.iter().zip(outcomes) {
        let dense = |summary: &RoundSummary| summary.metrics.messages_sent >= (n / 8) as u64;
        assert!(!dense(&summaries[0]), "n = {n}: round 0 is sparse");
        assert!(
            dense(summaries.last().expect("rounds ran")),
            "n = {n}: the last round is dense"
        );
    }
}

fn one_informed(n: usize) -> Vec<RumorAgent> {
    RumorAgent::population(n, 0, 1)
}

fn half_informed(n: usize) -> Vec<RumorAgent> {
    RumorAgent::population(n, 0, n / 2)
}

#[test]
fn rumor_from_one_agent_is_lane_invariant() {
    let outcomes = assert_lane_invariant(one_informed, None, SPARSE_TO_DENSE_ROUNDS);
    assert_sparse_then_dense(&outcomes);
}

#[test]
fn rumor_from_one_agent_is_lane_invariant_under_byzantine_faults() {
    let outcomes = assert_lane_invariant(one_informed, Some("byz:0.05"), SPARSE_TO_DENSE_ROUNDS);
    assert_sparse_then_dense(&outcomes);
    let forced: u64 = outcomes[0].0.iter().map(|s| s.metrics.forced_sends).sum();
    assert!(forced > 0, "Byzantine agents force their sends");
}

#[test]
fn rumor_from_one_agent_is_lane_invariant_under_crash_faults() {
    let outcomes =
        assert_lane_invariant(one_informed, Some("crash:0.05@3"), SPARSE_TO_DENSE_ROUNDS);
    let suppressed: u64 = outcomes[0]
        .0
        .iter()
        .map(|s| s.metrics.suppressed_deliveries)
        .sum();
    assert!(suppressed > 0, "crashed agents drop their deliveries");
}

#[test]
fn dense_rumor_is_lane_invariant() {
    assert_lane_invariant(half_informed, None, DENSE_ROUNDS);
}

#[test]
fn dense_rumor_is_lane_invariant_under_byzantine_faults() {
    assert_lane_invariant(half_informed, Some("byz:0.05"), DENSE_ROUNDS);
}

#[test]
fn dense_rumor_is_lane_invariant_under_crash_faults() {
    let outcomes = assert_lane_invariant(half_informed, Some("crash:0.05@1"), DENSE_ROUNDS);
    let suppressed: u64 = outcomes[1]
        .0
        .iter()
        .map(|s| s.metrics.suppressed_deliveries)
        .sum();
    assert!(suppressed > 0, "crashed agents drop their deliveries");
}

#[test]
fn zealot_scenario_is_lane_invariant() {
    let outcomes = assert_lane_invariant(
        |n| ZealotAgent::population(n, 0, 1, n / 20),
        None,
        SPARSE_TO_DENSE_ROUNDS,
    );
    let (_, opinions) = &outcomes[0];
    assert!(
        opinions.contains(&Some(Opinion::One)) && opinions.contains(&Some(Opinion::Zero)),
        "the rumor and the zealots' bit both spread"
    );
}

/// Declares RNG-free hooks, then draws in `deliver`.
struct MisdeclaredDrawer(Option<Opinion>);

impl Agent for MisdeclaredDrawer {
    const RNG_FREE_HOOKS: bool = true;

    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        Some(self.0.unwrap_or(Opinion::Zero))
    }

    fn deliver(&mut self, _round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
        let before = self.0;
        if rng.next_u64() & 1 == 0 {
            self.0 = Some(message);
        }
        OpinionDelta::between(before, self.0)
    }

    fn opinion(&self) -> Option<Opinion> {
        self.0
    }
}

#[test]
#[should_panic(expected = "MisdeclaredDrawer` declares `RNG_FREE_HOOKS`")]
fn misdeclared_rng_free_hooks_panic_on_lanes() {
    let n = RADIX_MIN_N;
    let agents = (0..n).map(|_| MisdeclaredDrawer(None)).collect();
    let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
    let config = SimulationConfig::new(n).with_seed(5).with_threads(2);
    let mut sim = Simulation::new(agents, channel, config).expect("valid parameters");
    sim.step();
}
