//! The noisy voter model with a zealot source (paper §1.2, references [49, 50]).
//!
//! Every opinionated agent pushes its opinion each round and every agent that
//! accepts a message adopts it verbatim (after channel noise); a single
//! *zealot* — the source — never changes its opinion.  Physicists study this
//! dynamics as a model of opinion spreading; the paper points out that its
//! convergence time around a zealot is polynomial in `n`, and with channel
//! noise the stationary distribution stays close to a fair coin regardless of
//! the zealot.  This baseline quantifies both effects.

use flip_model::{Agent, FlipError, Opinion, OpinionDelta, Round, SimRng};

use crate::{BaselineOutcome, BaselineRun, Rounds};

/// A voter-model agent (the zealot never updates).
#[derive(Debug, Clone, Default)]
struct VoterAgent {
    opinion: Option<Opinion>,
    is_zealot: bool,
}

impl Agent for VoterAgent {
    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        self.opinion
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        if self.is_zealot {
            return OpinionDelta::NONE;
        }
        let before = self.opinion;
        self.opinion = Some(message);
        OpinionDelta::between(before, self.opinion)
    }

    fn opinion(&self) -> Option<Opinion> {
        self.opinion
    }
}

/// Runner for the noisy voter model with one zealot.
///
/// # Example
///
/// ```
/// use baselines::NoisyVoterProtocol;
/// use flip_model::Opinion;
///
/// let protocol = NoisyVoterProtocol::new(300, 0.2, 500).unwrap();
/// let outcome = protocol.run_with_seed(Opinion::One, 7).unwrap();
/// // The noisy voter model hovers near a fair coin; it does not reach consensus.
/// assert!(!outcome.all_correct);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyVoterProtocol(BaselineRun);

impl NoisyVoterProtocol {
    /// Creates a runner over `n` agents with noise margin `ε`, running for `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError`] if `n < 2` or `ε ∉ (0, 1/2]`.
    pub fn new(n: usize, epsilon: f64, rounds: u64) -> Result<Self, FlipError> {
        BaselineRun::new(n, epsilon, rounds).map(Self)
    }

    /// Runs one execution in which the zealot holds `correct` and the other
    /// `n − 1` agents start undecided.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from engine construction.
    pub fn run_with_seed(&self, correct: Opinion, seed: u64) -> Result<BaselineOutcome, FlipError> {
        let mut agents = vec![VoterAgent::default(); self.0.n];
        agents[0] = VoterAgent {
            opinion: Some(correct),
            is_zealot: true,
        };
        self.0.run(agents, correct, seed, Rounds::All)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_inputs() {
        assert!(NoisyVoterProtocol::new(1, 0.2, 10).is_err());
        assert!(NoisyVoterProtocol::new(10, 0.6, 10).is_err());
        assert!(NoisyVoterProtocol::new(10, 0.2, 10).is_ok());
    }

    #[test]
    fn noisy_voter_hovers_near_a_fair_coin() {
        let protocol = NoisyVoterProtocol::new(400, 0.1, 600).unwrap();
        let outcome = protocol.run_with_seed(Opinion::One, 5).unwrap();
        assert!(
            outcome.fraction_correct > 0.3 && outcome.fraction_correct < 0.8,
            "outcome = {outcome:?}"
        );
        assert!(!outcome.all_correct);
    }

    #[test]
    fn zealot_never_changes_its_opinion() {
        let mut rng = SimRng::from_seed(0);
        let mut zealot = VoterAgent {
            opinion: Some(Opinion::One),
            is_zealot: true,
        };
        let _ = zealot.deliver(0, Opinion::Zero, &mut rng);
        assert_eq!(zealot.opinion(), Some(Opinion::One));

        let mut voter = VoterAgent::default();
        let _ = voter.deliver(0, Opinion::Zero, &mut rng);
        assert_eq!(voter.opinion(), Some(Opinion::Zero));
        let _ = voter.deliver(1, Opinion::One, &mut rng);
        assert_eq!(voter.opinion(), Some(Opinion::One));
    }
}
