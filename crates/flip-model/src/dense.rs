//! The dense, counts-based population engine.
//!
//! The per-agent [`Simulation`](crate::Simulation) stores one heap object per
//! agent and dispatches trait calls per agent per round, which caps practical
//! experiments near `n ≈ 10⁴`.  The paper's claims, however, are asymptotic in
//! `n`; reaching the `n = 10⁶–10⁷` regime needs an engine whose per-round cost
//! is independent of `n`.
//!
//! This module provides that engine.  A homogeneous population is represented
//! as packed per-state **counts** ([`DensePopulation`]) — a protocol is a
//! finite state machine over a small state space ([`DenseProtocol`]) and a
//! round is executed by sampling **aggregate transition counts**: one binomial
//! draw per (state, received-symbol) cell via the vendored
//! [`rand::distributions::Binomial`], so a round costs `O(#states)` instead of
//! `O(n)`.
//!
//! # Exactness
//!
//! Sends, channel noise and state transitions are sampled from their exact
//! aggregate distributions.  The one approximation is collision resolution:
//! the per-agent engine throws `M` messages into mailboxes chosen uniformly
//! among each sender's `n − 1` peers and keeps one per non-empty mailbox (an
//! occupancy process with mild negative correlation between mailboxes and
//! no self-delivery), while the dense engine lets every agent receive
//! independently with the occupancy marginal `p = 1 − (1 − 1/(n−1))^M`.
//! Per-round means agree with the per-agent engine up to `O(1/n)` relative
//! error (the self-exclusion term a sender's own message contributes) and
//! fluctuations agree to `O(1)`; the two backends are therefore
//! *distributionally equivalent* for population-level statistics (and exactly
//! equal in every degenerate case where the dynamics are deterministic — see
//! `tests/dense_equivalence.rs`).
//!
//! # Example
//!
//! ```
//! use flip_model::{
//!     BinarySymmetricChannel, DensePopulation, DenseSimulation, RumorProtocol,
//!     SimulationConfig,
//! };
//!
//! # fn main() -> Result<(), flip_model::FlipError> {
//! // One million agents, one thousand informed: far beyond the per-agent engine.
//! let population = RumorProtocol::population(1_000_000, 0, 1_000);
//! let channel = BinarySymmetricChannel::from_epsilon(0.3)?;
//! let config = SimulationConfig::new(1_000_000).with_seed(7);
//! let mut sim = DenseSimulation::new(RumorProtocol, channel, population, config)?;
//! sim.run(100);
//! assert!(sim.census().active() > 990_000);
//! # Ok(())
//! # }
//! ```

use crate::agent::Round;
use crate::channel::Channel;
use crate::config::SimulationConfig;
use crate::engine::RoundSummary;
use crate::error::FlipError;
use crate::metrics::Metrics;
use crate::opinion::Opinion;
use crate::population::Census;
use crate::stratified::{StratifiedPopulation, StratifiedSimulation};

/// A protocol expressed as a finite state machine over a small state space,
/// runnable by [`DenseSimulation`] in `O(#states)` per round.
///
/// States are indices in `0..state_count()`.  All agents in the same state are
/// interchangeable (the population is homogeneous and anonymous), which is
/// what lets the engine track counts instead of agents.  Transitions may
/// depend on the global round, so phase-based protocols can encode their
/// schedule without enlarging the state space.
pub trait DenseProtocol {
    /// Number of states in the machine (must be at least 1 and constant).
    fn state_count(&self) -> usize;

    /// Send behaviour of a state: `Some((symbol, probability))` when agents in
    /// `state` push `symbol` with the given probability this round, `None`
    /// when they stay silent ("breathe").
    fn send(&self, state: usize, round: Round) -> Option<(Opinion, f64)>;

    /// Successor state for an agent in `state` that accepts `heard` this round.
    fn on_receive(&self, state: usize, heard: Opinion, round: Round) -> usize;

    /// End-of-round successor, applied to every agent *after* reception (the
    /// dense analogue of [`Agent::end_round`](crate::Agent::end_round)).
    /// Defaults to the identity.
    fn on_round_end(&self, state: usize, round: Round) -> usize {
        let _ = round;
        state
    }

    /// The opinion agents in `state` hold, or `None` when undecided.
    fn opinion_of(&self, state: usize) -> Option<Opinion>;
}

/// A population stored as packed per-state counts.
///
/// # Example
///
/// ```
/// use flip_model::{DensePopulation, Opinion, RumorProtocol};
///
/// let population = DensePopulation::from_counts(vec![97, 1, 2]).unwrap();
/// assert_eq!(population.n(), 100);
/// let census = population.census(&RumorProtocol);
/// assert_eq!(census.active(), 3);
/// assert_eq!(census.holding(Opinion::One), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensePopulation {
    pub(crate) counts: Vec<u64>,
    n: u64,
}

impl DensePopulation {
    /// Builds one stratum of a [`StratifiedPopulation`] from raw counts,
    /// skipping the two-agent minimum: individual strata may be empty; only
    /// the stratified total is subject to the push-gossip size floor.
    pub(crate) fn stratum_from_counts(counts: Vec<u64>) -> Self {
        let n: u64 = counts.iter().sum();
        Self { counts, n }
    }

    /// Builds a population from per-state counts (`counts[s]` agents in state `s`).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`] if the counts sum to fewer
    /// than two agents.
    pub fn from_counts(counts: Vec<u64>) -> Result<Self, FlipError> {
        let n: u64 = counts.iter().sum();
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n: n as usize });
        }
        Ok(Self { counts, n })
    }

    /// Total number of agents.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of agents currently in `state`.
    #[must_use]
    pub fn count(&self, state: usize) -> u64 {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// All per-state counts, indexed by state.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// A census of the population under the given protocol's state→opinion map.
    #[must_use]
    pub fn census<P: DenseProtocol>(&self, protocol: &P) -> Census {
        let mut holding = [0u64; 2];
        for (state, &count) in self.counts.iter().enumerate() {
            if let Some(op) = protocol.opinion_of(state) {
                holding[op.index()] += count;
            }
        }
        Census::from_counts(holding[0] as usize, holding[1] as usize, self.n as usize)
    }
}

/// A synchronous Flip-model simulation over per-state counts.
///
/// The dense counterpart of [`Simulation`](crate::Simulation): it shares the
/// same [`RoundSummary`]/[`Metrics`] reporting surface, runs the same
/// push-gossip/collision/noise round structure, but executes each round with
/// `O(#states)` binomial draws, so `n = 10⁶` costs the same per round as
/// `n = 100`.  See the module docs for the exactness contract.
///
/// Since the stratified generalization landed this is a thin wrapper over a
/// single-stratum [`StratifiedSimulation`]; the stratified engine draws the
/// same variates in the same order, so seeded dense runs are bit-identical
/// to what this type produced when it owned the round loop
/// (`tests/dense_golden.rs` pins the stream).
#[derive(Debug)]
pub struct DenseSimulation<P, C> {
    inner: StratifiedSimulation<P, C>,
}

impl<P: DenseProtocol, C: Channel> DenseSimulation<P, C> {
    /// Creates a dense simulation over the given population.
    ///
    /// Populations of fewer than two agents are unrepresentable here: every
    /// [`DensePopulation`] constructor already rejects them.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if the configured population
    /// size disagrees with the counts, the protocol declares no states, or
    /// the counts vector is longer than the declared state count.
    pub fn new(
        protocol: P,
        channel: C,
        population: DensePopulation,
        config: SimulationConfig,
    ) -> Result<Self, FlipError> {
        let inner = StratifiedSimulation::new(
            protocol,
            vec![channel],
            StratifiedPopulation::single(population),
            config,
        )?;
        Ok(Self { inner })
    }

    /// Executes one synchronous round and returns its summary.
    pub fn step(&mut self) -> RoundSummary {
        self.inner.step()
    }

    /// Executes `rounds` rounds and returns the accumulated metrics.
    pub fn run(&mut self, rounds: u64) -> &Metrics {
        self.inner.run(rounds)
    }

    /// Executes rounds until `predicate` returns `true` (checked after every
    /// round) or `max_rounds` rounds have been executed, whichever comes first.
    ///
    /// Returns the number of rounds executed by this call.
    pub fn run_until<F>(&mut self, max_rounds: u64, mut predicate: F) -> u64
    where
        F: FnMut(&Self) -> bool,
    {
        let mut executed = 0;
        while executed < max_rounds {
            self.step();
            executed += 1;
            if predicate(self) {
                break;
            }
        }
        executed
    }

    /// The current per-state population counts.
    #[must_use]
    pub fn population(&self) -> &DensePopulation {
        self.inner.population().stratum(0)
    }

    /// A census of the current population.
    #[must_use]
    pub fn census(&self) -> Census {
        self.inner.census()
    }

    /// The accumulated metrics so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    /// The next round index to be executed (equals rounds executed so far).
    #[must_use]
    pub fn round(&self) -> Round {
        self.inner.round()
    }

    /// The protocol state machine in use.
    #[must_use]
    pub fn protocol(&self) -> &P {
        self.inner.protocol()
    }

    /// The noise channel in use.
    #[must_use]
    pub fn channel(&self) -> &C {
        &self.inner.channels()[0]
    }

    /// Consumes the simulation, returning the final population and metrics.
    #[must_use]
    pub fn into_parts(self) -> (DensePopulation, Metrics) {
        let (_, _, population, metrics) = self.inner.into_raw_parts();
        (population.into_stratum0(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BinarySymmetricChannel, NoiselessChannel};
    use crate::dense_protocols::{RumorProtocol, VoterProtocol};

    #[test]
    fn rejects_bad_constructions() {
        assert!(DensePopulation::from_counts(vec![1]).is_err());
        assert!(DensePopulation::from_counts(vec![0, 0]).is_err());

        let population = DensePopulation::from_counts(vec![5, 5]).unwrap();
        let config = SimulationConfig::new(11);
        assert!(matches!(
            DenseSimulation::new(VoterProtocol, NoiselessChannel, population, config),
            Err(FlipError::InvalidParameter { .. })
        ));

        // Counts vector longer than the protocol's state space.
        let population = DensePopulation::from_counts(vec![5, 5, 5, 5]).unwrap();
        let config = SimulationConfig::new(20);
        assert!(DenseSimulation::new(VoterProtocol, NoiselessChannel, population, config).is_err());
    }

    #[test]
    fn short_counts_vectors_are_padded() {
        // A rumor population seeded with only the undecided slot filled.
        let population = DensePopulation::from_counts(vec![10]).unwrap();
        let config = SimulationConfig::new(10);
        let sim =
            DenseSimulation::new(RumorProtocol, NoiselessChannel, population, config).unwrap();
        assert_eq!(sim.population().counts().len(), 3);
    }

    #[test]
    fn silent_population_never_changes() {
        let population = RumorProtocol::population(100, 0, 0);
        let config = SimulationConfig::new(100).with_seed(1);
        let mut sim =
            DenseSimulation::new(RumorProtocol, NoiselessChannel, population, config).unwrap();
        let summary = sim.step();
        assert_eq!(summary.metrics.messages_sent, 0);
        assert_eq!(summary.census_active, 0);
        sim.run(10);
        assert_eq!(sim.metrics().messages_sent, 0);
        assert_eq!(sim.census().active(), 0);
        assert_eq!(sim.round(), 11);
    }

    #[test]
    fn unanimous_population_is_a_fixed_point() {
        let population = RumorProtocol::population(1_000, 0, 1_000);
        let config = SimulationConfig::new(1_000).with_seed(2);
        let mut sim =
            DenseSimulation::new(RumorProtocol, NoiselessChannel, population, config).unwrap();
        for _ in 0..20 {
            let summary = sim.step();
            assert_eq!(summary.census_active, 1_000);
            assert_eq!(summary.metrics.messages_sent, 1_000);
        }
        assert!(sim.census().is_unanimous(Opinion::One));
    }

    #[test]
    fn rumor_spreads_densely() {
        let population = RumorProtocol::population(100_000, 0, 10);
        let config = SimulationConfig::new(100_000)
            .with_seed(3)
            .with_reference(Opinion::One);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let mut sim = DenseSimulation::new(RumorProtocol, channel, population, config).unwrap();
        let executed = sim.run_until(1_000, |s| s.census().active() == 100_000);
        assert!(executed < 100, "rumor should spread in O(log n) rounds");
        // With noise, both opinions circulate among the activated agents.
        assert!(sim.census().holding(Opinion::One) > 0);
        assert!(sim.census().holding(Opinion::Zero) > 0);
    }

    #[test]
    fn metrics_balance_and_flip_rate_is_calibrated() {
        let population = DensePopulation::from_counts(vec![500, 500]).unwrap();
        let config = SimulationConfig::new(1_000).with_seed(4);
        let channel = BinarySymmetricChannel::new(0.25).unwrap();
        let mut sim = DenseSimulation::new(VoterProtocol, channel, population, config).unwrap();
        sim.run(500);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, m.messages_accepted + m.messages_collided);
        assert_eq!(m.rounds, 500);
        let rate = m.empirical_flip_rate().unwrap();
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
        // Roughly 1 - 1/e of the population receives per round when everyone sends.
        let accept_rate = m.messages_accepted as f64 / m.messages_sent as f64;
        assert!(
            (accept_rate - 0.632).abs() < 0.02,
            "accept rate = {accept_rate}"
        );
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let population = RumorProtocol::population(10_000, 5, 5);
            let config = SimulationConfig::new(10_000).with_seed(seed);
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim = DenseSimulation::new(RumorProtocol, channel, population, config).unwrap();
            let summaries: Vec<(usize, u64)> = (0..50)
                .map(|_| {
                    let s = sim.step();
                    (s.census_active, s.metrics.messages_sent)
                })
                .collect();
            (summaries, sim.metrics().clone())
        };
        let (s1, m1) = run(77);
        let (s2, m2) = run(77);
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
        let (s3, _) = run(78);
        assert_ne!(s1, s3, "different seeds should (almost surely) differ");
    }

    #[test]
    fn reference_is_reported_in_summaries() {
        let population = RumorProtocol::population(100, 10, 20);
        let config = SimulationConfig::new(100)
            .with_seed(5)
            .with_reference(Opinion::One);
        let mut sim =
            DenseSimulation::new(RumorProtocol, NoiselessChannel, population, config).unwrap();
        let summary = sim.step();
        assert_eq!(
            summary.census_correct,
            Some(sim.census().holding(Opinion::One))
        );
        let (population, metrics) = sim.into_parts();
        assert_eq!(population.n(), 100);
        assert_eq!(metrics.rounds, 1);
    }
}
