//! The "immediately forward what you heard" strategy of paper §1.6.
//!
//! An agent adopts the first message it hears as its opinion and from the next
//! round on pushes that opinion every round until the protocol ends.  Without
//! the waiting ("breathing") of Stage I, the typical agent sits at the end of a
//! forwarding chain of length `Θ(log n)`, so the probability that its opinion
//! matches the source's is only `1/2 + (2ε)^{Θ(log n)}` — indistinguishable
//! from a coin flip for small `ε`.  This baseline reproduces exactly that
//! failure mode.
//!
//! # Stopping once nothing can change
//!
//! An informed agent keeps its opinion for good (only the first message is
//! adopted) and sends it in every round after the one it adopted in.  So
//! once every agent holds an opinion — after `O(log n)` rounds, far inside
//! the Breathe budget the E10 comparison gives every baseline — no later
//! round can change the census, and every later round sends exactly `n`
//! messages.  [`ForwardingProtocol::run_with_seed`] therefore simulates
//! only until full activation and adds `n` messages per skipped round; its
//! outcome equals a full-budget run's field for field.

use flip_model::{Agent, FlipError, Opinion, OpinionDelta, Round, SimRng};

use crate::{BaselineOutcome, BaselineRun, Rounds};

/// An agent running the immediate-forwarding strategy.
#[derive(Debug, Clone, Default)]
pub struct ForwardingAgent {
    opinion: Option<Opinion>,
    adopted_at: Option<Round>,
}

impl ForwardingAgent {
    /// An uninformed agent.
    #[must_use]
    pub fn uninformed() -> Self {
        Self::default()
    }

    /// The source: informed from round 0.
    #[must_use]
    pub fn source(opinion: Opinion) -> Self {
        Self {
            opinion: Some(opinion),
            adopted_at: Some(0),
        }
    }

    /// Round at which the agent adopted its opinion, if it has.
    #[must_use]
    pub fn adopted_at(&self) -> Option<Round> {
        self.adopted_at
    }
}

impl Agent for ForwardingAgent {
    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        // Forward from the round after adoption (a message heard this round is
        // only forwarded starting next round).
        match (self.opinion, self.adopted_at) {
            (Some(op), Some(adopted)) if round > adopted || adopted == 0 => Some(op),
            _ => None,
        }
    }

    fn deliver(&mut self, round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        if self.opinion.is_none() {
            self.opinion = Some(message);
            self.adopted_at = Some(round);
            OpinionDelta::adopted(message)
        } else {
            OpinionDelta::NONE
        }
    }

    fn opinion(&self) -> Option<Opinion> {
        self.opinion
    }
}

/// Runner for the immediate-forwarding baseline.
///
/// # Example
///
/// ```
/// use baselines::ForwardingProtocol;
/// use flip_model::Opinion;
///
/// let outcome = ForwardingProtocol::new(500, 0.1, 200)
///     .unwrap()
///     .run_with_seed(Opinion::One, 1)
///     .unwrap();
/// // With noise this strategy ends far from consensus.
/// assert!(outcome.fraction_correct < 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct ForwardingProtocol(BaselineRun);

impl ForwardingProtocol {
    /// Creates a runner over `n` agents with noise margin `ε`, running for `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError`] if `n < 2` or `ε ∉ (0, 1/2]`.
    pub fn new(n: usize, epsilon: f64, rounds: u64) -> Result<Self, FlipError> {
        BaselineRun::new(n, epsilon, rounds).map(Self)
    }

    /// Runs one execution in which the source holds `correct`, simulating
    /// rounds only until every agent is informed (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from engine construction.
    pub fn run_with_seed(&self, correct: Opinion, seed: u64) -> Result<BaselineOutcome, FlipError> {
        let mut agents = vec![ForwardingAgent::uninformed(); self.0.n];
        agents[0] = ForwardingAgent::source(correct);
        self.0.run(agents, correct, seed, Rounds::UntilAllActive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flip_model::{BinarySymmetricChannel, Simulation, SimulationConfig};

    #[test]
    fn constructor_validates_inputs() {
        assert!(ForwardingProtocol::new(1, 0.2, 10).is_err());
        assert!(ForwardingProtocol::new(10, 0.0, 10).is_err());
        assert!(ForwardingProtocol::new(10, 0.2, 10).is_ok());
    }

    #[test]
    fn forwarding_informs_everyone_quickly() {
        let (_, informed) = full_budget_run(500, 0.45, 200, 3);
        let informed = informed.expect("everyone should hear something in 200 rounds");
        // Exponential growth: ~log n rounds, far less than 200.
        assert!(informed < 100, "informed after {informed} rounds");
    }

    #[test]
    fn forwarding_is_accurate_without_noise_margin_loss() {
        // epsilon = 0.5 means a noiseless channel: forwarding then works.
        let protocol = ForwardingProtocol::new(300, 0.5, 150).unwrap();
        let outcome = protocol.run_with_seed(Opinion::One, 5).unwrap();
        assert!(outcome.fraction_correct > 0.99, "outcome = {outcome:?}");
    }

    #[test]
    fn forwarding_degrades_under_noise() {
        // With strong noise the typical opinion is close to a coin flip.
        let protocol = ForwardingProtocol::new(1_000, 0.1, 300).unwrap();
        let outcome = protocol.run_with_seed(Opinion::One, 7).unwrap();
        assert!(
            outcome.fraction_correct < 0.75,
            "forwarding should be unreliable, got {}",
            outcome.fraction_correct
        );
    }

    /// A full-budget run built from the agents and the engine directly,
    /// with the first round after which every agent was informed.
    fn full_budget_run(
        n: usize,
        epsilon: f64,
        budget: u64,
        seed: u64,
    ) -> (BaselineOutcome, Option<u64>) {
        let correct = Opinion::One;
        let mut agents = vec![ForwardingAgent::uninformed(); n];
        agents[0] = ForwardingAgent::source(correct);
        let channel = BinarySymmetricChannel::from_epsilon(epsilon).unwrap();
        let config = SimulationConfig::new(n)
            .with_seed(seed)
            .with_reference(correct);
        let mut sim = Simulation::new(agents, channel, config).unwrap();
        let mut informed = None;
        for round in 1..=budget {
            sim.step();
            if informed.is_none() && sim.census().active() == n {
                informed = Some(round);
            }
        }
        let census = sim.census();
        let outcome = BaselineOutcome {
            n,
            epsilon,
            correct,
            rounds: budget,
            messages_sent: sim.metrics().messages_sent,
            fraction_correct: census.fraction_correct(correct),
            all_correct: census.is_unanimous(correct),
        };
        (outcome, informed)
    }

    #[test]
    fn stopping_once_everyone_is_informed_matches_a_full_budget_run() {
        let (mut cut_short, mut never_informed) = (0, 0);
        for n in [2, 3, 10, 200] {
            for epsilon in [0.05, 0.2, 0.5] {
                for budget in [0, 1, 5, 40, 300] {
                    for seed in 0..3 {
                        let (expected, informed) = full_budget_run(n, epsilon, budget, seed);
                        let outcome = ForwardingProtocol::new(n, epsilon, budget)
                            .unwrap()
                            .run_with_seed(Opinion::One, seed)
                            .unwrap();
                        assert_eq!(outcome, expected, "n {n}, ε {epsilon}, {budget} rounds");
                        match informed {
                            Some(round) if round < budget => cut_short += 1,
                            None => never_informed += 1,
                            Some(_) => {}
                        }
                    }
                }
            }
        }
        // Both sides of the exit are covered: runs that skip rounds and
        // budgets that end before everyone is informed.
        assert!(
            cut_short > 50 && never_informed > 20,
            "{cut_short}, {never_informed}"
        );
    }

    #[test]
    fn source_sends_from_round_zero_and_adopters_from_the_next_round() {
        let mut rng = SimRng::from_seed(0);
        let mut source = ForwardingAgent::source(Opinion::One);
        assert_eq!(source.send(0, &mut rng), Some(Opinion::One));

        let mut adopter = ForwardingAgent::uninformed();
        assert_eq!(adopter.send(0, &mut rng), None);
        let _ = adopter.deliver(4, Opinion::Zero, &mut rng);
        assert_eq!(adopter.adopted_at(), Some(4));
        assert_eq!(adopter.send(4, &mut rng), None);
        assert_eq!(adopter.send(5, &mut rng), Some(Opinion::Zero));
    }

    #[test]
    fn first_message_wins() {
        let mut rng = SimRng::from_seed(0);
        let mut agent = ForwardingAgent::uninformed();
        let _ = agent.deliver(1, Opinion::Zero, &mut rng);
        let _ = agent.deliver(2, Opinion::One, &mut rng);
        assert_eq!(agent.opinion(), Some(Opinion::Zero));
    }
}
