//! The two-choices majority dynamics of Doerr et al. (paper §1.2, reference \[22\]).
//!
//! Every agent repeatedly samples the opinions of two other agents chosen
//! uniformly at random and re-sets its own opinion to the majority among its
//! own opinion and the two samples.  In the noiseless setting this converges
//! to the initial majority in `O(log n)` rounds provided the initial bias is
//! `Ω(√(log n / n))`.  Run over the noisy Flip channel it plateaus: even from
//! unanimity, a constant fraction of agents see two corrupted samples each
//! update and flip away, so full consensus is never reached — which is why the
//! paper's Stage II ends with a large-sample majority vote instead.
//!
//! The dynamics are expressed in the push-gossip engine as follows: every
//! agent pushes its opinion every round; an agent buffers the (noisy) messages
//! it accepts and, as soon as it holds two, applies the majority update and
//! clears the buffer.

use flip_model::{Agent, FlipError, Opinion, OpinionDelta, Round, SimRng};

use crate::{BaselineOutcome, BaselineRun, Rounds};

/// An agent running the two-choices dynamics over push gossip.
#[derive(Debug, Clone)]
struct TwoChoicesAgent {
    opinion: Opinion,
    /// The first two messages heard since the last update; only the first
    /// `heard` entries are set.
    samples: [Opinion; 2],
    /// How many messages `samples` holds (stops at two).
    heard: u8,
}

impl TwoChoicesAgent {
    fn new(opinion: Opinion) -> Self {
        Self {
            opinion,
            samples: [opinion; 2],
            heard: 0,
        }
    }
}

impl Agent for TwoChoicesAgent {
    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        Some(self.opinion)
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        // Only the first two messages are ever used.
        if let Some(slot) = self.samples.get_mut(usize::from(self.heard)) {
            *slot = message;
            self.heard += 1;
        }
        OpinionDelta::NONE
    }

    fn end_round(&mut self, _round: Round, _rng: &mut SimRng) -> OpinionDelta {
        if usize::from(self.heard) == self.samples.len() {
            let before = self.opinion;
            let ones = self.samples.iter().filter(|&&m| m == Opinion::One).count()
                + usize::from(self.opinion == Opinion::One);
            self.opinion = if ones >= 2 {
                Opinion::One
            } else {
                Opinion::Zero
            };
            self.heard = 0;
            OpinionDelta::between(Some(before), Some(self.opinion))
        } else {
            OpinionDelta::NONE
        }
    }

    fn opinion(&self) -> Option<Opinion> {
        Some(self.opinion)
    }
}

/// Runner for the two-choices majority dynamics.
///
/// # Example
///
/// ```
/// use baselines::TwoChoicesProtocol;
/// use flip_model::Opinion;
///
/// // Noiseless (epsilon = 0.5), strong initial majority: converges.
/// let protocol = TwoChoicesProtocol::new(300, 0.5, 120).unwrap();
/// let outcome = protocol.run_with_seed(Opinion::One, 200, 1).unwrap();
/// assert!(outcome.fraction_correct > 0.95);
/// ```
#[derive(Debug, Clone)]
pub struct TwoChoicesProtocol(BaselineRun);

impl TwoChoicesProtocol {
    /// Creates a runner over `n` agents with noise margin `ε`, running for `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError`] if `n < 2` or `ε ∉ (0, 1/2]`.
    pub fn new(n: usize, epsilon: f64, rounds: u64) -> Result<Self, FlipError> {
        BaselineRun::new(n, epsilon, rounds).map(Self)
    }

    /// Runs one execution with `initially_correct` agents holding `correct` and
    /// the rest holding the opposite opinion.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if `initially_correct > n`, and
    /// propagates engine errors.
    pub fn run_with_seed(
        &self,
        correct: Opinion,
        initially_correct: usize,
        seed: u64,
    ) -> Result<BaselineOutcome, FlipError> {
        if initially_correct > self.0.n {
            return Err(FlipError::InvalidParameter {
                name: "initially_correct",
                message: format!(
                    "{initially_correct} initially-correct agents exceed the population of {}",
                    self.0.n
                ),
            });
        }
        let agents: Vec<TwoChoicesAgent> = (0..self.0.n)
            .map(|i| {
                TwoChoicesAgent::new(if i < initially_correct {
                    correct
                } else {
                    correct.flipped()
                })
            })
            .collect();
        self.0.run(agents, correct, seed, Rounds::All)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_inputs() {
        assert!(TwoChoicesProtocol::new(1, 0.3, 10).is_err());
        assert!(TwoChoicesProtocol::new(10, 0.0, 10).is_err());
        assert!(TwoChoicesProtocol::new(10, 0.3, 10).is_ok());
    }

    #[test]
    fn rejects_oversized_initial_majority() {
        let protocol = TwoChoicesProtocol::new(10, 0.3, 10).unwrap();
        assert!(protocol.run_with_seed(Opinion::One, 11, 0).is_err());
    }

    #[test]
    fn noiseless_dynamics_amplify_a_clear_majority() {
        let protocol = TwoChoicesProtocol::new(400, 0.5, 200).unwrap();
        let outcome = protocol.run_with_seed(Opinion::One, 260, 3).unwrap();
        assert!(outcome.fraction_correct > 0.98, "outcome = {outcome:?}");
    }

    #[test]
    fn noisy_dynamics_plateau_below_full_consensus() {
        let protocol = TwoChoicesProtocol::new(400, 0.15, 400).unwrap();
        let outcome = protocol.run_with_seed(Opinion::One, 400, 4).unwrap();
        // Even starting from unanimity, channel noise keeps knocking agents off;
        // at this noise level the dynamics drift all the way back towards a
        // fair coin (which is exactly why Stage II ends with a large-sample vote).
        assert!(!outcome.all_correct, "outcome = {outcome:?}");
        assert!(outcome.fraction_correct < 0.995);
        assert!(outcome.fraction_correct > 0.25);
    }

    #[test]
    fn majority_update_uses_own_opinion_plus_two_samples() {
        let mut rng = SimRng::from_seed(0);
        let mut agent = TwoChoicesAgent::new(Opinion::Zero);
        let _ = agent.deliver(0, Opinion::One, &mut rng);
        let _ = agent.end_round(0, &mut rng);
        // Only one sample: no update yet.
        assert_eq!(agent.opinion(), Some(Opinion::Zero));
        let _ = agent.deliver(1, Opinion::One, &mut rng);
        let _ = agent.deliver(1, Opinion::One, &mut rng);
        let _ = agent.end_round(1, &mut rng);
        // Two one-samples beat the zero own-opinion.
        assert_eq!(agent.opinion(), Some(Opinion::One));
    }
}
