//! The hybrid engine: a tracked subpopulation simulated exactly, against a
//! dense bulk.
//!
//! The dense/stratified engines reach `n ≥ 10⁶` by replacing per-message
//! channel noise with its mean crossover and per-agent state with counts.
//! That is the right trade for the bulk, but some questions are about
//! *specific agents*: the adversary's targets, a panel of tracked agents
//! whose exact per-message noise matters (e.g. an
//! [`AdversarialCapChannel`](crate::AdversarialCapChannel) whose per-message
//! crossover draws are part of the model), or any protocol whose per-agent
//! implementation exists but whose dense form does not.
//!
//! [`HybridSimulation`] splits the population: `k` **tracked** agents run
//! the per-agent [`Agent`] contract — every send, reception and channel
//! corruption is sampled individually, exactly as the reference engine would
//! — while the remaining `n − k` agents form a dense
//! [`StratifiedPopulation`] bulk advanced with `O(#strata × #states)`
//! binomial draws.  Each round the two sides exchange aggregates through one
//! shared message pool: tracked sends and bulk sends are pooled, every agent
//! (tracked or bulk) receives against the same occupancy marginal, and a
//! tracked agent's accepted message is drawn from the pool's global symbol
//! mix before being corrupted by the *real* channel.  A round therefore
//! costs `O(k + #strata × #states)` — constant in `n` for fixed `k`.
//!
//! # Exactness
//!
//! The bulk inherits the dense engine's contract (exact aggregate sampling;
//! independent reception at the occupancy marginal as the one
//! approximation).  Tracked agents additionally get *exact per-message
//! channel noise* — [`Channel::transmit`] per accepted message rather than
//! the mean crossover — so channels whose per-message law is not a fixed
//! Bernoulli (adversarial caps) keep their exact semantics on the tracked
//! set.  What the split ignores is the `O(k/n)` correlation between the
//! tracked agents' sends and their own receptions (a sender never receives
//! its own message), the same order as the occupancy approximation itself.
//!
//! # Example
//!
//! ```
//! use flip_model::{
//!     AdversarialCapChannel, FlipEngine, HybridSimulation, RumorAgent, RumorProtocol,
//!     SimulationConfig, StratifiedPopulation,
//! };
//!
//! # fn main() -> Result<(), flip_model::FlipError> {
//! // A million-agent rumor run where 32 tracked agents experience exact
//! // per-message adversarial noise.
//! let tracked = RumorAgent::population(32, 0, 32);
//! let bulk = StratifiedPopulation::single(RumorProtocol::population(999_968, 0, 968));
//! let channel = AdversarialCapChannel::new(0.1, 0.3)?;
//! let config = SimulationConfig::new(1_000_000).with_seed(7);
//! let mut sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config)?;
//! sim.run(60);
//! assert!(sim.census().active() > 990_000);
//! # Ok(())
//! # }
//! ```

use crate::agent::Agent;
use crate::channel::Channel;
use crate::config::SimulationConfig;
use crate::engine::{EndRoundGate, FlipEngine, RoundSummary};
use crate::error::FlipError;
use crate::faults::FaultPlan;
use crate::metrics::{Metrics, RoundMetrics};
use crate::opinion::Opinion;
use crate::population::Census;
use crate::rng::SimRng;
use crate::stratified::{Bulk, MessagePool, StratifiedPopulation, StratifiedProtocol};
use telemetry::{Event, Phase, Recorder, Telemetry};

/// A synchronous Flip-model simulation over `k` exactly-simulated tracked
/// agents plus a dense bulk, exchanging aggregate send counts and sampled
/// deliveries through one shared pool each round.
///
/// Selected by `--backend hybrid:k` on `sweep table`; see the module
/// docs for the exactness contract.
///
/// A round draws the tracked sends, the bulk's aggregate sends, then each
/// tracked agent's reception, then the bulk's reception pass, which is the
/// stratified engine's own (every stratum hears through the channel's mean
/// crossover).
#[derive(Debug)]
pub struct HybridSimulation<A, P, C> {
    tracked: Vec<A>,
    channel: C,
    bulk: Bulk<P>,
    rng: SimRng,
    metrics: Metrics,
    reference: Option<Opinion>,
    n: u64,
    /// When the end-of-round loop over the tracked agents runs next.
    end_round: EndRoundGate,
    /// Fault roles over the tracked prefix — the hybrid engine carries the
    /// faulty agents on its exactly-simulated side, against an honest bulk.
    faults: Option<FaultPlan>,
    telemetry: Telemetry,
}

impl<A: Agent, P: StratifiedProtocol, C: Channel> HybridSimulation<A, P, C> {
    /// Creates a hybrid simulation from a tracked subpopulation, a bulk
    /// protocol/population pair, and one channel (used per-message for the
    /// tracked agents and via its mean crossover for the bulk).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if the tracked set is empty
    /// or the configured population size disagrees with
    /// `tracked.len() + bulk.n()`, [`FlipError::PopulationTooSmall`] if the
    /// two sides sum to fewer than two agents, and the stratified engine's
    /// validation errors for bulk/protocol mismatches.
    pub fn new(
        tracked: Vec<A>,
        protocol: P,
        channel: C,
        bulk: StratifiedPopulation,
        config: SimulationConfig,
    ) -> Result<Self, FlipError> {
        if tracked.is_empty() {
            return Err(FlipError::InvalidParameter {
                name: "tracked",
                message: "the hybrid backend needs a tracked subpopulation of at least \
                          one agent (select it with `--backend hybrid:k`, k >= 1)"
                    .to_string(),
            });
        }
        let n = tracked.len() as u64 + bulk.n();
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n: n as usize });
        }
        if config.population() as u64 != n {
            return Err(FlipError::InvalidParameter {
                name: "population",
                message: format!(
                    "config says {} agents but tracked + bulk sum to {} + {} = {n}",
                    config.population(),
                    tracked.len(),
                    bulk.n()
                ),
            });
        }
        // Faulty roles live on the tracked side: the dense bulk is always
        // honest (its aggregate updates have no per-agent identity to
        // corrupt), so the whole faulty population must fit in `k`.
        let faults = match config.faults() {
            None => None,
            Some(spec) => {
                let faulty = (spec.fraction * n as f64).round() as u64;
                if faulty > tracked.len() as u64 {
                    return Err(FlipError::InvalidParameter {
                        name: "faults",
                        message: format!(
                            "fault fraction {} of n = {n} makes {faulty} agents faulty, \
                             but the hybrid backend carries faults only on its tracked \
                             subpopulation of {}; raise `--backend hybrid:k` to k >= {faulty}",
                            spec.fraction,
                            tracked.len(),
                        ),
                    });
                }
                Some(FaultPlan::leading(&spec, faulty as usize, tracked.len()))
            }
        };
        Ok(Self {
            tracked,
            channel,
            bulk: Bulk::new(protocol, bulk)?,
            rng: SimRng::from_seed(config.seed()),
            end_round: EndRoundGate::default(),
            metrics: Metrics::new(),
            reference: config.reference(),
            n,
            faults,
            telemetry: Telemetry::off(),
        })
    }

    /// The tracked agents, in their construction order.
    #[must_use]
    pub fn tracked(&self) -> &[A] {
        &self.tracked
    }

    /// The dense bulk's current per-stratum counts.
    #[must_use]
    pub fn bulk(&self) -> &StratifiedPopulation {
        &self.bulk.population
    }

    /// The channel in use.
    #[must_use]
    pub fn channel(&self) -> &C {
        &self.channel
    }

    /// The fault plan over the tracked prefix, when faults are configured.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Consumes the simulation, returning the tracked agents, the bulk
    /// population, and the accumulated metrics.
    #[must_use]
    pub fn into_parts(self) -> (Vec<A>, StratifiedPopulation, Metrics) {
        (self.tracked, self.bulk.population, self.metrics)
    }
}

impl<A: Agent, P: StratifiedProtocol, C: Channel> FlipEngine for HybridSimulation<A, P, C> {
    fn step(&mut self) -> RoundSummary {
        let round = self.metrics.rounds;
        let faults = self.faults.as_ref();

        // Phase 1: sends — tracked agents individually, bulk in aggregate,
        // all into one shared pool.
        let span = self.telemetry.begin();
        let mut pool = MessagePool::default();
        let mut forced_sends = 0u64;
        for (idx, agent) in self.tracked.iter_mut().enumerate() {
            let (message, forced) = FaultPlan::send(faults, idx, agent, round, &mut self.rng);
            forced_sends += u64::from(forced);
            if let Some(symbol) = message {
                pool.push(symbol, 1);
            }
        }
        self.bulk.send(round, &mut self.rng, &mut pool);
        let sent = pool.total();
        self.telemetry.end(Phase::ProtocolStep, span);
        self.telemetry.add(Event::FaultForcedSends, forced_sends);

        // Phase 2: reception against the shared pool.
        let span = self.telemetry.begin();
        let mut accepted = 0u64;
        let mut flips = 0u64;
        let mut suppressed = 0u64;
        if sent > 0 {
            let p_receive = pool.receive_probability(self.n);
            let fraction_one = pool.fraction_one();
            // Tracked deliveries: sample whether each agent's mailbox is
            // non-empty, draw the accepted symbol from the pool's global
            // mix, then corrupt it through the *real* channel — exact
            // per-message noise, not the mean crossover.
            for (idx, agent) in self.tracked.iter_mut().enumerate() {
                if !self.rng.chance(p_receive) {
                    continue;
                }
                let symbol = if self.rng.chance(fraction_one) {
                    Opinion::One
                } else {
                    Opinion::Zero
                };
                let delivered = self.channel.transmit(symbol, &mut self.rng);
                flips += u64::from(delivered != symbol);
                accepted += 1;
                if FaultPlan::is_deaf(faults, idx, round) {
                    suppressed += 1;
                    continue;
                }
                let _ = agent.deliver(round, delivered, &mut self.rng);
            }
        }
        // Every tracked acceptance so far drew its own channel corruption.
        self.telemetry
            .add(Event::HybridTrackedCorrections, accepted);
        let channel = &self.channel;
        let (bulk_accepted, bulk_flips) = self.bulk.receive(
            &pool,
            self.n,
            |_| channel.mean_crossover(),
            round,
            &mut self.rng,
        );
        accepted += bulk_accepted;
        flips += bulk_flips;
        self.telemetry.end(Phase::NoiseMerge, span);
        self.telemetry
            .add(Event::FaultSuppressedDeliveries, suppressed);

        if self.end_round.is_due(&self.tracked, round) {
            let span = self.telemetry.begin();
            self.end_round
                .run_hooks(&mut self.tracked, round, faults, &mut self.rng, |_| {});
            self.telemetry.end(Phase::ProtocolStep, span);
        }

        let accepted_capped = accepted.min(sent);
        let round_metrics = RoundMetrics {
            round,
            messages_sent: sent,
            messages_accepted: accepted_capped,
            messages_collided: sent - accepted_capped,
            bits_flipped: flips.min(accepted_capped),
            forced_sends,
            suppressed_deliveries: suppressed,
            crashed_agents: faults.map_or(0, |plan| plan.crashed_count(round) as u64),
        };
        self.metrics.absorb_round(&round_metrics);

        let span = self.telemetry.begin();
        let census = self.census();
        self.telemetry.end(Phase::CensusApply, span);
        RoundSummary {
            metrics: round_metrics,
            census_active: census.active(),
            census_correct: self.reference.map(|r| census.holding(r)),
        }
    }

    /// A census over both sides of the split.
    fn census(&self) -> Census {
        let mut holding = [0usize; 2];
        for agent in &self.tracked {
            if let Some(op) = agent.opinion() {
                holding[op.index()] += 1;
            }
        }
        let bulk = self.bulk.census();
        Census::from_counts(
            holding[0] + bulk.holding(Opinion::Zero),
            holding[1] + bulk.holding(Opinion::One),
            self.n as usize,
        )
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn enable_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
    }

    fn take_telemetry(&mut self) -> Option<Recorder> {
        self.telemetry.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BinarySymmetricChannel, NoiselessChannel};
    use crate::dense_protocols::{RumorAgent, RumorProtocol};

    fn split_rumor(
        n: u64,
        tracked: usize,
        informed: u64,
    ) -> (Vec<RumorAgent>, StratifiedPopulation) {
        // Tracked agents take the first `tracked` slots of the canonical
        // per-agent layout (informed ones first here, for simplicity).
        let tracked_ones = informed.min(tracked as u64);
        let agents = RumorAgent::population(tracked, 0, tracked_ones as usize);
        let bulk = StratifiedPopulation::single(RumorProtocol::population(
            n - tracked as u64,
            0,
            informed - tracked_ones,
        ));
        (agents, bulk)
    }

    #[test]
    fn rejects_bad_constructions() {
        let (agents, bulk) = split_rumor(100, 4, 10);
        let config = SimulationConfig::new(99);
        assert!(matches!(
            HybridSimulation::new(agents, RumorProtocol, NoiselessChannel, bulk, config),
            Err(FlipError::InvalidParameter {
                name: "population",
                ..
            })
        ));

        let bulk = StratifiedPopulation::single(RumorProtocol::population(10, 0, 0));
        let config = SimulationConfig::new(10);
        assert!(matches!(
            HybridSimulation::new(
                Vec::<RumorAgent>::new(),
                RumorProtocol,
                NoiselessChannel,
                bulk,
                config
            ),
            Err(FlipError::InvalidParameter {
                name: "tracked",
                ..
            })
        ));
    }

    #[test]
    fn rumor_spreads_through_the_split() {
        let (agents, bulk) = split_rumor(50_000, 16, 16);
        let config = SimulationConfig::new(50_000)
            .with_seed(3)
            .with_reference(Opinion::One);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let mut sim = HybridSimulation::new(agents, RumorProtocol, channel, bulk, config).unwrap();
        let executed = sim.run_until(1_000, |s| s.census().active() == 50_000);
        assert!(executed < 100, "rumor should spread in O(log n) rounds");
        assert!(sim.census().holding(Opinion::One) > 0);
        assert!(sim.census().holding(Opinion::Zero) > 0);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, m.messages_accepted + m.messages_collided);
    }

    #[test]
    fn fault_fractions_larger_than_the_tracked_set_fail_loudly() {
        let (agents, bulk) = split_rumor(1_000, 16, 16);
        let config = SimulationConfig::new(1_000)
            .with_seed(1)
            .with_faults("byz:0.1".parse().unwrap()); // 100 faulty > 16 tracked
        let err = HybridSimulation::new(agents, RumorProtocol, NoiselessChannel, bulk, config)
            .unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("faults"),
            "must name the parameter: {message}"
        );
        assert!(
            message.contains("hybrid:k") && message.contains("k >= 100"),
            "must tell the caller how to fix it: {message}"
        );
    }

    #[test]
    fn byzantine_tracked_agents_poison_the_honest_bulk() {
        // 100 tracked agents, all Byzantine (round(0.1 * 1000) = 100 = k),
        // flood Zero against an honest bulk: the bulk must pick up Zeros it
        // could never produce honestly.  Only 50 tracked agents start
        // informed, so the other 50 are deaf *and* uninformed.
        let (agents, bulk) = split_rumor(1_000, 100, 50);
        let config = SimulationConfig::new(1_000)
            .with_seed(5)
            .with_faults("byz:0.1".parse().unwrap());
        let mut sim =
            HybridSimulation::new(agents, RumorProtocol, NoiselessChannel, bulk, config).unwrap();
        let plan = sim.fault_plan().expect("faults configured");
        assert_eq!(plan.faulty_count(), 100);
        assert_eq!(plan.len(), 100, "roles cover exactly the tracked prefix");
        sim.run(40);
        assert!(
            sim.census().holding(Opinion::Zero) > 0,
            "Byzantine zeros must reach the bulk"
        );
        // The Byzantine tracked agents never deliver: those that started
        // uninformed stay inactive forever.
        let deaf_uninformed = sim
            .tracked()
            .iter()
            .filter(|agent| agent.opinion().is_none())
            .count();
        assert!(deaf_uninformed > 0, "deaf tracked agents must stay frozen");
    }

    #[test]
    fn tracked_path_meters_the_same_flip_budget_as_the_per_agent_path() {
        // Both engines spend the budget through the one `Channel::transmit`
        // entry point, so total flips never exceed it on either backend.
        use crate::channel::AdversarialCapChannel;
        use crate::engine::Simulation;

        let budget = 5u64;

        let channel = AdversarialCapChannel::new(0.5, 0.5)
            .unwrap()
            .with_flip_budget(budget);
        let agents = RumorAgent::population(500, 0, 250);
        let config = SimulationConfig::new(500).with_seed(7);
        let mut per_agent = Simulation::new(agents, channel, config).unwrap();
        per_agent.run(30);
        assert!(per_agent.metrics().bits_flipped <= budget);
        assert_eq!(
            per_agent.channel().flip_budget_remaining(),
            Some(budget - per_agent.metrics().bits_flipped)
        );
        assert!(per_agent.metrics().bits_flipped > 0, "budget partly spent");

        // Hybrid: all noise lands on the tracked path (a noiseless-mean bulk
        // would divide by zero here, so keep the bulk empty of senders by
        // tracking everyone except a token silent bulk of waiters).
        let channel = AdversarialCapChannel::new(0.5, 0.5)
            .unwrap()
            .with_flip_budget(budget);
        let (tracked, bulk) = split_rumor(500, 100, 100);
        let config = SimulationConfig::new(500).with_seed(7);
        let mut hybrid =
            HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config).unwrap();
        hybrid.run(30);
        let tracked_flips = budget - hybrid.channel().flip_budget_remaining().unwrap();
        assert!(tracked_flips <= budget);
        assert!(
            tracked_flips > 0,
            "tracked deliveries must spend the budget"
        );
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let (agents, bulk) = split_rumor(5_000, 100, 100);
            let config = SimulationConfig::new(5_000)
                .with_seed(seed)
                .with_faults("crash:0.005@10".parse().unwrap());
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim =
                HybridSimulation::new(agents, RumorProtocol, channel, bulk, config).unwrap();
            (0..40)
                .map(|_| {
                    let s = sim.step();
                    (s.census_active, s.metrics.messages_sent)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(33), run(33));
        assert_ne!(run(33), run(34));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let (agents, bulk) = split_rumor(5_000, 8, 8);
            let config = SimulationConfig::new(5_000).with_seed(seed);
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim =
                HybridSimulation::new(agents, RumorProtocol, channel, bulk, config).unwrap();
            (0..40)
                .map(|_| {
                    let s = sim.step();
                    (s.census_active, s.metrics.messages_sent)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }
}
