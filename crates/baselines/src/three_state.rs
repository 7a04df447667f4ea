//! The three-state approximate-majority population protocol of Angluin,
//! Aspnes and Eisenstat (paper §1.2, reference \[6\]).
//!
//! Agents hold one of three states — the two opinions plus *blank* — and
//! interact in random ordered pairs.  When an opinionated initiator meets a
//! responder of the opposite opinion, the responder becomes blank; when it
//! meets a blank responder, the responder adopts the initiator's opinion.
//! Angluin et al. show convergence to the initial majority in `O(log n)`
//! parallel time and robustness to a small number of Byzantine agents.
//!
//! The paper stresses that this protocol **cannot be used in the Flip model**:
//! it inherently needs a three-symbol alphabet, while the Flip model allows a
//! single bit per message (§1.2).  It is implemented here — on its own
//! pairwise-interaction scheduler rather than the single-bit push-gossip
//! engine — purely as a comparator, with optional opinion-flip noise applied
//! to the transmitted state to show how its accuracy degrades.

use flip_model::{majority_bias, FlipError, Opinion, SimRng};
use rand::Rng;

use crate::BaselineOutcome;

/// A state of the three-state protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreeState {
    /// Holding an opinion.
    Holding(Opinion),
    /// Undecided ("blank").
    Blank,
}

impl ThreeState {
    /// The opinion held, if any.
    #[must_use]
    pub fn opinion(self) -> Option<Opinion> {
        match self {
            ThreeState::Holding(op) => Some(op),
            ThreeState::Blank => None,
        }
    }
}

/// Runner for the three-state approximate-majority protocol.
///
/// One "round" performs `n` random ordered pairwise interactions (so that
/// parallel time is comparable to the synchronous rounds of the other
/// baselines).
///
/// # Example
///
/// ```
/// use baselines::ThreeStateProtocol;
/// use flip_model::Opinion;
///
/// let protocol = ThreeStateProtocol::new(300, 0.5, 60).unwrap();
/// let outcome = protocol.run_with_seed(Opinion::One, 180, 120, 2).unwrap();
/// assert!(outcome.fraction_correct > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct ThreeStateProtocol {
    n: usize,
    /// Probability that a transmitted opinion is flipped (`1/2 − ε`), mirroring
    /// the Flip-model noise applied to this protocol's (illegal) larger alphabet.
    epsilon: f64,
    rounds: u64,
}

impl ThreeStateProtocol {
    /// Creates a runner over `n` agents, with noise margin `ε`, for `rounds` parallel rounds.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError`] if `n < 2` or `ε ∉ (0, 1/2]`.
    pub fn new(n: usize, epsilon: f64, rounds: u64) -> Result<Self, FlipError> {
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n });
        }
        if !epsilon.is_finite() || epsilon <= 0.0 || epsilon > 0.5 {
            return Err(FlipError::InvalidEpsilon { epsilon });
        }
        Ok(Self { n, epsilon, rounds })
    }

    /// Runs one execution with `initially_correct` agents holding `correct`,
    /// `initially_wrong` agents holding the opposite opinion, and the rest blank.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if the initial counts exceed `n`.
    pub fn run_with_seed(
        &self,
        correct: Opinion,
        initially_correct: usize,
        initially_wrong: usize,
        seed: u64,
    ) -> Result<BaselineOutcome, FlipError> {
        if initially_correct + initially_wrong > self.n {
            return Err(FlipError::InvalidParameter {
                name: "initial_counts",
                message: format!(
                    "{initially_correct} + {initially_wrong} opinionated agents exceed n = {}",
                    self.n
                ),
            });
        }
        let mut rng = SimRng::from_seed(seed);
        let flip_probability = 0.5 - self.epsilon;
        let mut states: Vec<ThreeState> = (0..self.n)
            .map(|i| {
                if i < initially_correct {
                    ThreeState::Holding(correct)
                } else if i < initially_correct + initially_wrong {
                    ThreeState::Holding(correct.flipped())
                } else {
                    ThreeState::Blank
                }
            })
            .collect();

        let mut interactions = 0u64;
        for _ in 0..self.rounds {
            for _ in 0..self.n {
                let initiator = rng.gen_range(0..self.n);
                let mut responder = rng.gen_range(0..self.n - 1);
                if responder >= initiator {
                    responder += 1;
                }
                if let ThreeState::Holding(sent) = states[initiator] {
                    interactions += 1;
                    // The transmitted opinion passes through the noisy channel.
                    let received = if rng.chance(flip_probability) {
                        sent.flipped()
                    } else {
                        sent
                    };
                    states[responder] = match states[responder] {
                        ThreeState::Blank => ThreeState::Holding(received),
                        ThreeState::Holding(current) if current != received => ThreeState::Blank,
                        keep => keep,
                    };
                }
            }
        }

        let holding_correct = states
            .iter()
            .filter(|s| s.opinion() == Some(correct))
            .count();
        Ok(BaselineOutcome {
            n: self.n,
            epsilon: self.epsilon,
            correct,
            rounds: self.rounds,
            messages_sent: interactions,
            fraction_correct: holding_correct as f64 / self.n as f64,
            all_correct: holding_correct == self.n,
        })
    }

    /// The majority-bias of an initial configuration, for convenience.
    #[must_use]
    pub fn initial_bias(initially_correct: usize, initially_wrong: usize) -> f64 {
        majority_bias(initially_correct, initially_wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_inputs() {
        assert!(ThreeStateProtocol::new(1, 0.3, 10).is_err());
        assert!(ThreeStateProtocol::new(10, 0.0, 10).is_err());
        assert!(ThreeStateProtocol::new(10, 0.3, 10).is_ok());
    }

    #[test]
    fn rejects_oversized_initial_sets() {
        let protocol = ThreeStateProtocol::new(10, 0.3, 10).unwrap();
        assert!(protocol.run_with_seed(Opinion::One, 8, 8, 0).is_err());
    }

    #[test]
    fn noiseless_protocol_converges_to_the_initial_majority() {
        let protocol = ThreeStateProtocol::new(500, 0.5, 80).unwrap();
        let outcome = protocol.run_with_seed(Opinion::Zero, 300, 200, 1).unwrap();
        assert!(outcome.fraction_correct > 0.95, "outcome = {outcome:?}");
    }

    #[test]
    fn noise_prevents_full_consensus() {
        let protocol = ThreeStateProtocol::new(500, 0.15, 200).unwrap();
        let outcome = protocol.run_with_seed(Opinion::Zero, 500, 0, 2).unwrap();
        assert!(!outcome.all_correct, "outcome = {outcome:?}");
    }

    #[test]
    fn blank_agents_adopt_and_conflicts_blank() {
        assert_eq!(ThreeState::Blank.opinion(), None);
        assert_eq!(
            ThreeState::Holding(Opinion::One).opinion(),
            Some(Opinion::One)
        );
    }

    #[test]
    fn initial_bias_helper_matches_paper_definition() {
        assert!((ThreeStateProtocol::initial_bias(70, 30) - 0.2).abs() < 1e-12);
    }
}
