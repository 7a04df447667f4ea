//! The stratified dense engine: per-stratum counts against a shared pool.
//!
//! The dense engine ([`DenseSimulation`](crate::DenseSimulation)) assumes one
//! interchangeable population: a single count vector, a single send table, a
//! single channel.  Heterogeneous scenarios — zealot subpopulations, agent
//! classes listening through differently-noisy channels — break that
//! assumption and used to fall back to the per-agent engine, capping them
//! orders of magnitude below the `n ≥ 10⁶` regime the paper's asymptotic
//! claims ask for.
//!
//! This module generalizes the counts representation to **strata**.  A
//! stratum is an (agent-class × channel-class) pair with its own count
//! vector, send table ([`StratifiedProtocol::send`]) and channel (one
//! [`Channel`] per stratum, so each stratum has its own crossover
//! parameters).  Agents never move between strata — a stratum is a fixed
//! subpopulation, and all state transitions stay inside it.  Every round the
//! strata push into **one shared global message pool**: sends are one
//! binomial per (stratum, state) cell, the pool's symbol mix is global, and
//! reception is one binomial pair per (stratum, state) cell against the
//! occupancy marginal of the whole population, so a round costs
//! `O(#strata × #states)` regardless of `n`.
//!
//! # Exactness
//!
//! Identical to the dense engine's contract (see [`crate::dense`]): exact
//! aggregate sampling of sends, noise and transitions, with independent
//! per-agent reception at the occupancy marginal `p = 1 − (1 − 1/(n−1))^M`
//! as the one approximation.  With a single stratum the engine draws the
//! *same random variates in the same order* as [`DenseSimulation`] — the
//! dense engine is now a thin wrapper over this one, and
//! `tests/dense_equivalence.rs` pins the bit-identity.
//!
//! # Example
//!
//! ```
//! use flip_model::{
//!     BinarySymmetricChannel, FlipEngine, SimulationConfig, StratifiedSimulation,
//!     ZealotRumorProtocol,
//! };
//!
//! # fn main() -> Result<(), flip_model::FlipError> {
//! // A million-agent rumor population infiltrated by 1000 zealots that
//! // always push Zero: two strata, one shared message pool.
//! let protocol = ZealotRumorProtocol;
//! let population = ZealotRumorProtocol::population(1_000_000, 0, 1_000, 1_000);
//! let channel = BinarySymmetricChannel::from_epsilon(0.3)?;
//! let config = SimulationConfig::new(1_000_000).with_seed(7);
//! let mut sim =
//!     StratifiedSimulation::new(protocol, vec![channel; 2], population, config)?;
//! sim.run(100);
//! assert!(sim.census().active() > 990_000);
//! # Ok(())
//! # }
//! ```

use rand::distributions::{Binomial, Distribution};

use crate::agent::Round;
use crate::channel::Channel;
use crate::config::SimulationConfig;
use crate::dense::{DensePopulation, DenseProtocol};
use crate::engine::{FlipEngine, RoundSummary};
use crate::error::FlipError;
use crate::metrics::{Metrics, RoundMetrics};
use crate::opinion::Opinion;
use crate::population::Census;
use crate::rng::SimRng;

/// A protocol over a stratified population: a finite state machine per
/// stratum, runnable by [`StratifiedSimulation`] in `O(#strata × #states)`
/// per round.
///
/// The single-stratum case is exactly [`DenseProtocol`], and every dense
/// protocol implements this trait automatically through a blanket impl —
/// Rumor/Voter/MajoritySampler run unchanged on the stratified engine.
pub trait StratifiedProtocol {
    /// Number of strata (must be at least 1 and constant).
    fn stratum_count(&self) -> usize;

    /// Number of states in `stratum`'s machine (at least 1, constant).
    fn state_count(&self, stratum: usize) -> usize;

    /// Send behaviour of a state in `stratum`: `Some((symbol, probability))`
    /// when its agents push `symbol` with the given probability this round,
    /// `None` when they stay silent ("breathe").
    fn send(&self, stratum: usize, state: usize, round: Round) -> Option<(Opinion, f64)>;

    /// Successor state (within the same stratum) for an agent in `stratum`'s
    /// `state` that accepts `heard` this round.
    fn on_receive(&self, stratum: usize, state: usize, heard: Opinion, round: Round) -> usize;

    /// End-of-round successor, applied after reception; defaults to identity.
    fn on_round_end(&self, stratum: usize, state: usize, round: Round) -> usize {
        let _ = round;
        let _ = stratum;
        state
    }

    /// The opinion agents in `stratum`'s `state` hold, or `None` if undecided.
    fn opinion_of(&self, stratum: usize, state: usize) -> Option<Opinion>;
}

/// Every dense protocol is a one-stratum stratified protocol.
impl<P: DenseProtocol> StratifiedProtocol for P {
    fn stratum_count(&self) -> usize {
        1
    }

    fn state_count(&self, _stratum: usize) -> usize {
        DenseProtocol::state_count(self)
    }

    fn send(&self, _stratum: usize, state: usize, round: Round) -> Option<(Opinion, f64)> {
        DenseProtocol::send(self, state, round)
    }

    fn on_receive(&self, _stratum: usize, state: usize, heard: Opinion, round: Round) -> usize {
        DenseProtocol::on_receive(self, state, heard, round)
    }

    fn on_round_end(&self, _stratum: usize, state: usize, round: Round) -> usize {
        DenseProtocol::on_round_end(self, state, round)
    }

    fn opinion_of(&self, _stratum: usize, state: usize) -> Option<Opinion> {
        DenseProtocol::opinion_of(self, state)
    }
}

/// A population stored as per-stratum packed per-state counts.
///
/// Individual strata may be empty (and may hold a single agent); only the
/// total population must contain at least two agents for push gossip to be
/// defined.
///
/// # Example
///
/// ```
/// use flip_model::StratifiedPopulation;
///
/// let population =
///     StratifiedPopulation::from_strata(vec![vec![97, 1, 2], vec![5]]).unwrap();
/// assert_eq!(population.n(), 105);
/// assert_eq!(population.stratum_count(), 2);
/// assert_eq!(population.stratum(1).n(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratifiedPopulation {
    strata: Vec<DensePopulation>,
    n: u64,
}

impl StratifiedPopulation {
    /// Builds a stratified population from per-stratum count vectors
    /// (`strata[s][state]` agents in stratum `s`'s `state`).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`] if the counts sum to fewer
    /// than two agents across all strata, or [`FlipError::InvalidParameter`]
    /// when no strata are given.
    pub fn from_strata(strata: Vec<Vec<u64>>) -> Result<Self, FlipError> {
        if strata.is_empty() {
            return Err(FlipError::InvalidParameter {
                name: "strata",
                message: "a stratified population needs at least one stratum".to_string(),
            });
        }
        let strata: Vec<DensePopulation> = strata
            .into_iter()
            .map(DensePopulation::stratum_from_counts)
            .collect();
        let n: u64 = strata.iter().map(DensePopulation::n).sum();
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n: n as usize });
        }
        Ok(Self { strata, n })
    }

    /// Wraps a dense (single-stratum) population.
    #[must_use]
    pub fn single(population: DensePopulation) -> Self {
        let n = population.n();
        Self {
            strata: vec![population],
            n,
        }
    }

    /// Total number of agents across all strata.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of strata.
    #[must_use]
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// The counts of one stratum.
    ///
    /// # Panics
    ///
    /// Panics if `stratum >= stratum_count()`.
    #[must_use]
    pub fn stratum(&self, stratum: usize) -> &DensePopulation {
        &self.strata[stratum]
    }

    /// Unwraps a single-stratum population back into its dense form.
    ///
    /// # Panics
    ///
    /// Panics if the population has more than one stratum (callers guard on
    /// construction: the dense wrapper only ever builds single-stratum
    /// populations).
    pub(crate) fn into_stratum0(self) -> DensePopulation {
        assert_eq!(self.strata.len(), 1, "population is not single-stratum");
        self.strata.into_iter().next().expect("one stratum")
    }

    /// A census of the whole population under the protocol's opinion map.
    #[must_use]
    pub fn census<P: StratifiedProtocol>(&self, protocol: &P) -> Census {
        let mut holding = [0u64; 2];
        for (s, stratum) in self.strata.iter().enumerate() {
            for (state, &count) in stratum.counts().iter().enumerate() {
                if let Some(op) = protocol.opinion_of(s, state) {
                    holding[op.index()] += count;
                }
            }
        }
        Census::from_counts(holding[0] as usize, holding[1] as usize, self.n as usize)
    }
}

/// One round's shared message pool: how many messages of each symbol the
/// senders pushed, whatever engine side they came from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MessagePool {
    sent: [u64; 2],
}

impl MessagePool {
    /// Adds `count` messages carrying `symbol`.
    pub(crate) fn push(&mut self, symbol: Opinion, count: u64) {
        self.sent[symbol.index()] += count;
    }

    /// Messages pushed in total.
    pub(crate) fn total(&self) -> u64 {
        self.sent[0] + self.sent[1]
    }

    /// The occupancy marginal over `n` agents: the probability that an
    /// agent's mailbox is non-empty, `1 − (1 − 1/(n−1))^M` (see
    /// [`crate::dense`]).
    pub(crate) fn receive_probability(&self, n: u64) -> f64 {
        1.0 - (1.0 - 1.0 / (n as f64 - 1.0)).powf(self.total() as f64)
    }

    /// The pool's global share of [`Opinion::One`] messages (NaN when
    /// empty).
    pub(crate) fn fraction_one(&self) -> f64 {
        self.sent[1] as f64 / self.total() as f64
    }
}

/// The dense bulk of a stratified or hybrid engine: a stratified protocol,
/// its per-stratum counts, and the reused successor counts.
///
/// Its two passes are the whole counts-based round, shared by
/// [`StratifiedSimulation`] and [`HybridSimulation`](crate::HybridSimulation):
/// [`send`](Bulk::send) pushes the bulk's messages into the round's pool, and
/// [`receive`](Bulk::receive) delivers the pool back to the bulk.
#[derive(Debug)]
pub(crate) struct Bulk<P> {
    pub(crate) protocol: P,
    pub(crate) population: StratifiedPopulation,
    next_counts: Vec<Vec<u64>>,
}

impl<P: StratifiedProtocol> Bulk<P> {
    /// Validates `population` against the protocol's stratum and state
    /// declarations and pads every stratum's counts to its state count.
    pub(crate) fn new(
        protocol: P,
        mut population: StratifiedPopulation,
    ) -> Result<Self, FlipError> {
        let strata = protocol.stratum_count();
        if strata == 0 {
            return Err(FlipError::InvalidParameter {
                name: "stratum_count",
                message: "a stratified protocol needs at least one stratum".to_string(),
            });
        }
        if population.stratum_count() != strata {
            return Err(FlipError::InvalidParameter {
                name: "strata",
                message: format!(
                    "population has {} strata but the protocol declares {strata}",
                    population.stratum_count()
                ),
            });
        }
        for (s, stratum) in population.strata.iter_mut().enumerate() {
            let states = protocol.state_count(s);
            if states == 0 {
                return Err(FlipError::InvalidParameter {
                    name: "state_count",
                    message: format!("stratum {s} declares no states; need at least one"),
                });
            }
            if stratum.counts().len() > states {
                return Err(FlipError::InvalidParameter {
                    name: "counts",
                    message: format!(
                        "stratum {s} has {} state slots but its protocol declares {states}",
                        stratum.counts().len()
                    ),
                });
            }
            stratum.counts.resize(states, 0);
        }
        let next_counts = population
            .strata
            .iter()
            .map(|stratum| vec![0; stratum.counts().len()])
            .collect();
        Ok(Self {
            protocol,
            population,
            next_counts,
        })
    }

    /// The aggregate send pass: one binomial per (stratum, sending state)
    /// cell, stratum by stratum with states inner, pushed into `pool`.
    pub(crate) fn send(&self, round: Round, rng: &mut SimRng, pool: &mut MessagePool) {
        for (s, stratum) in self.population.strata.iter().enumerate() {
            for (state, &count) in stratum.counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if let Some((symbol, probability)) = self.protocol.send(s, state, round) {
                    pool.push(symbol, binomial(rng, count, probability));
                }
            }
        }
    }

    /// The aggregate reception pass over a population of `n` agents; returns
    /// the bulk's `(accepted, flipped)` message counts.
    ///
    /// Per stratum: for each state, the receivers (one binomial at the
    /// pool's occupancy marginal) and how many of them hear `One` (one
    /// binomial at the pool's symbol mix seen through the stratum's mean
    /// `crossover`), each group moved to its successor state; then the
    /// stratum's two flip counts, conditioned on the heard symbols actually
    /// drawn.  The successor counts then swap in.  An empty pool has a zero
    /// marginal, so every binomial short-circuits without drawing and each
    /// state only takes its end-of-round step.
    pub(crate) fn receive(
        &mut self,
        pool: &MessagePool,
        n: u64,
        crossover: impl Fn(usize) -> f64,
        round: Round,
        rng: &mut SimRng,
    ) -> (u64, u64) {
        let protocol = &self.protocol;
        let p_receive = pool.receive_probability(n);
        let fraction_one = pool.fraction_one();
        let mut accepted = 0u64;
        let mut flips = 0u64;
        let strata = self.population.strata.iter_mut();
        for (s, (stratum, next)) in strata.zip(&mut self.next_counts).enumerate() {
            let crossover = crossover(s);
            let hear_one = fraction_one * (1.0 - crossover) + (1.0 - fraction_one) * crossover;
            let mut stratum_accepted = 0u64;
            let mut heard_ones = 0u64;
            next.fill(0);
            for (state, &count) in stratum.counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let receivers = binomial(rng, count, p_receive);
                let hear_ones = binomial(rng, receivers, hear_one);
                stratum_accepted += receivers;
                heard_ones += hear_ones;
                next[protocol.on_round_end(s, state, round)] += count - receivers;
                for (symbol, heard) in [
                    (Opinion::One, hear_ones),
                    (Opinion::Zero, receivers - hear_ones),
                ] {
                    let successor = protocol.on_receive(s, state, symbol, round);
                    next[protocol.on_round_end(s, successor, round)] += heard;
                }
            }
            let flip_given_one = if hear_one > 0.0 {
                ((1.0 - fraction_one) * crossover / hear_one).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let flip_given_zero = if hear_one < 1.0 {
                (fraction_one * crossover / (1.0 - hear_one)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            flips += binomial(rng, heard_ones, flip_given_one)
                + binomial(rng, stratum_accepted - heard_ones, flip_given_zero);
            accepted += stratum_accepted;
            std::mem::swap(&mut stratum.counts, next);
        }
        (accepted, flips)
    }

    /// A census of the bulk.
    pub(crate) fn census(&self) -> Census {
        self.population.census(&self.protocol)
    }
}

pub(crate) fn binomial(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    Binomial::new(n, p)
        .expect("probability is validated above")
        .sample(rng)
}

/// A synchronous Flip-model simulation over per-stratum, per-state counts.
///
/// The stratified generalization of [`DenseSimulation`](crate::DenseSimulation)
/// (which is a single-stratum wrapper around this engine): same
/// [`RoundSummary`]/[`Metrics`] reporting surface, same
/// push-gossip/collision/noise round structure, one channel per stratum, and
/// `O(#strata × #states)` binomial draws per round.
///
/// A round draws the bulk's sends stratum by stratum (states inner) into the
/// shared pool, then per stratum a reception pass (receivers and heard-ones
/// binomials per state, then that stratum's two flip-count binomials).
/// With one stratum this is the dense engine's draw sequence, so the
/// `DenseSimulation` delegation is bit-identical.
#[derive(Debug)]
pub struct StratifiedSimulation<P, C> {
    bulk: Bulk<P>,
    channels: Vec<C>,
    rng: SimRng,
    metrics: Metrics,
    reference: Option<Opinion>,
}

impl<P: StratifiedProtocol, C: Channel> StratifiedSimulation<P, C> {
    /// Creates a stratified simulation over the given population, with one
    /// channel per stratum (`channels[s]` carries stratum `s`'s receptions).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if the configured population
    /// size disagrees with the counts, the channel list length disagrees
    /// with the protocol's stratum count, the protocol declares no strata or
    /// a stateless stratum, or a stratum's counts vector is longer than its
    /// declared state count.
    pub fn new(
        protocol: P,
        channels: Vec<C>,
        population: StratifiedPopulation,
        config: SimulationConfig,
    ) -> Result<Self, FlipError> {
        if config.population() as u64 != population.n() {
            return Err(FlipError::InvalidParameter {
                name: "population",
                message: format!(
                    "config says {} agents but counts sum to {}",
                    config.population(),
                    population.n()
                ),
            });
        }
        if channels.len() != protocol.stratum_count() {
            return Err(FlipError::InvalidParameter {
                name: "channels",
                message: format!(
                    "{} channels supplied but the protocol declares {} strata",
                    channels.len(),
                    protocol.stratum_count()
                ),
            });
        }
        Ok(Self {
            bulk: Bulk::new(protocol, population)?,
            channels,
            rng: SimRng::from_seed(config.seed()),
            metrics: Metrics::new(),
            reference: config.reference(),
        })
    }

    /// The current per-stratum population counts.
    #[must_use]
    pub fn population(&self) -> &StratifiedPopulation {
        &self.bulk.population
    }

    /// Consumes the simulation, returning the final population and metrics.
    #[must_use]
    pub fn into_parts(self) -> (StratifiedPopulation, Metrics) {
        (self.bulk.population, self.metrics)
    }
}

impl<P: StratifiedProtocol, C: Channel> FlipEngine for StratifiedSimulation<P, C> {
    fn step(&mut self) -> RoundSummary {
        let round = self.metrics.rounds;
        let mut pool = MessagePool::default();
        self.bulk.send(round, &mut self.rng, &mut pool);
        let channels = &self.channels;
        let (accepted, flips) = self.bulk.receive(
            &pool,
            self.bulk.population.n,
            |s| channels[s].mean_crossover(),
            round,
            &mut self.rng,
        );

        // Independent reception can (rarely) draw slightly more receivers
        // than messages; clamp the accounting so `sent = accepted + collided`.
        let sent = pool.total();
        let accepted_capped = accepted.min(sent);
        // The stratified engine carries no fault plan: the fault counters in
        // its round metrics stay zero.
        let round_metrics = RoundMetrics {
            round,
            messages_sent: sent,
            messages_accepted: accepted_capped,
            messages_collided: sent - accepted_capped,
            bits_flipped: flips.min(accepted_capped),
            ..RoundMetrics::default()
        };
        self.metrics.absorb_round(&round_metrics);

        let census = self.bulk.census();
        RoundSummary {
            metrics: round_metrics,
            census_active: census.active(),
            census_correct: self.reference.map(|r| census.holding(r)),
        }
    }

    fn census(&self) -> Census {
        self.bulk.census()
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BinarySymmetricChannel, NoiselessChannel};
    use crate::dense_protocols::RumorProtocol;

    #[test]
    fn rejects_bad_constructions() {
        assert!(StratifiedPopulation::from_strata(vec![]).is_err());
        assert!(StratifiedPopulation::from_strata(vec![vec![1], vec![0]]).is_err());

        // Channel list length must match the stratum count.
        let population = StratifiedPopulation::single(RumorProtocol::population(10, 0, 1));
        let config = SimulationConfig::new(10);
        assert!(matches!(
            StratifiedSimulation::new(
                RumorProtocol,
                Vec::<NoiselessChannel>::new(),
                population,
                config
            ),
            Err(FlipError::InvalidParameter {
                name: "channels",
                ..
            })
        ));

        // Population stratum count must match the protocol's.
        let population = StratifiedPopulation::from_strata(vec![vec![10], vec![5]]).unwrap();
        let config = SimulationConfig::new(15);
        assert!(matches!(
            StratifiedSimulation::new(RumorProtocol, vec![NoiselessChannel], population, config),
            Err(FlipError::InvalidParameter { name: "strata", .. })
        ));
    }

    #[test]
    fn empty_strata_are_allowed_and_stay_empty() {
        let population = StratifiedPopulation::from_strata(vec![vec![0, 0, 100]]).unwrap();
        assert_eq!(population.n(), 100);
        let config = SimulationConfig::new(100).with_seed(9);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let mut sim =
            StratifiedSimulation::new(RumorProtocol, vec![channel], population, config).unwrap();
        sim.run(5);
        assert_eq!(sim.population().n(), 100);
        assert_eq!(sim.census().active(), 100);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let population = StratifiedPopulation::single(RumorProtocol::population(5_000, 5, 5));
            let config = SimulationConfig::new(5_000).with_seed(seed);
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim =
                StratifiedSimulation::new(RumorProtocol, vec![channel], population, config)
                    .unwrap();
            (0..40)
                .map(|_| {
                    let s = sim.step();
                    (s.census_active, s.metrics.messages_sent)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(41), run(41));
        assert_ne!(run(41), run(42));
    }
}
