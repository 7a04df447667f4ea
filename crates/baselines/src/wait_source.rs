//! The "stay silent and listen only to the source" strategy of paper §1.6.
//!
//! Only the source ever transmits; every other agent passively accumulates the
//! (noisy) bits it happens to receive and holds the majority of what it has
//! heard.  This is perfectly reliable in the limit but extremely slow: an
//! individual agent is the recipient of a source message only with probability
//! `1/n` per round, so it needs `Θ(n·log n / ε²)` rounds to gather the
//! `Θ(log n / ε²)` samples required for a confident majority — a factor `n`
//! slower than the breathe-before-speaking protocol.

use flip_model::{Agent, FlipError, Opinion, OpinionDelta, Round, SimRng};

use crate::{BaselineOutcome, BaselineRun};

/// An agent running the wait-for-source strategy.
#[derive(Debug, Clone, Default)]
struct WaitAgent {
    source_opinion: Option<Opinion>,
    zeros: u64,
    ones: u64,
}

impl Agent for WaitAgent {
    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        self.source_opinion
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        if self.source_opinion.is_some() {
            return OpinionDelta::NONE; // the source ignores incoming messages
        }
        // The running majority can change (or vanish into a tie) with every
        // sample, so capture the derived opinion around the update.
        let before = self.opinion();
        match message {
            Opinion::Zero => self.zeros += 1,
            Opinion::One => self.ones += 1,
        }
        OpinionDelta::between(before, self.opinion())
    }

    fn opinion(&self) -> Option<Opinion> {
        if let Some(op) = self.source_opinion {
            return Some(op);
        }
        match self.ones.cmp(&self.zeros) {
            std::cmp::Ordering::Greater => Some(Opinion::One),
            std::cmp::Ordering::Less => Some(Opinion::Zero),
            std::cmp::Ordering::Equal => None,
        }
    }
}

/// Runner for the wait-for-source baseline.
///
/// # Example
///
/// ```
/// use baselines::WaitForSourceProtocol;
/// use flip_model::Opinion;
///
/// let protocol = WaitForSourceProtocol::new(200, 0.3, 400).unwrap();
/// let outcome = protocol.run_with_seed(Opinion::One, 1).unwrap();
/// // 400 rounds is nowhere near the Θ(n log n / ε²) this strategy needs.
/// assert!(!outcome.all_correct);
/// ```
#[derive(Debug, Clone)]
pub struct WaitForSourceProtocol(BaselineRun);

impl WaitForSourceProtocol {
    /// Creates a runner over `n` agents with noise margin `ε`, running for `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError`] if `n < 2` or `ε ∉ (0, 1/2]`.
    pub fn new(n: usize, epsilon: f64, rounds: u64) -> Result<Self, FlipError> {
        BaselineRun::new(n, epsilon, rounds).map(Self)
    }

    /// Rounds this strategy needs, in expectation, for a typical agent to hold a
    /// confident majority: `confidence_factor · n · ln n / ε²`.
    ///
    /// This is the `Θ(n log n / ε²)` bound of paper §1.4/§1.6 with the
    /// constant exposed as `confidence_factor`.
    #[must_use]
    pub fn predicted_rounds(n: usize, epsilon: f64, confidence_factor: f64) -> f64 {
        confidence_factor * n as f64 * (n as f64).ln() / (epsilon * epsilon)
    }

    /// Runs one execution in which the source holds `correct`.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from engine construction.
    pub fn run_with_seed(&self, correct: Opinion, seed: u64) -> Result<BaselineOutcome, FlipError> {
        let mut agents = vec![WaitAgent::default(); self.0.n];
        agents[0].source_opinion = Some(correct);
        Ok(self.0.run(agents, correct, seed, false)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_inputs() {
        assert!(WaitForSourceProtocol::new(1, 0.2, 10).is_err());
        assert!(WaitForSourceProtocol::new(10, 0.7, 10).is_err());
        assert!(WaitForSourceProtocol::new(10, 0.2, 10).is_ok());
    }

    #[test]
    fn only_the_source_sends() {
        let protocol = WaitForSourceProtocol::new(100, 0.3, 50).unwrap();
        let outcome = protocol.run_with_seed(Opinion::One, 2).unwrap();
        // Exactly one message per round.
        assert_eq!(outcome.messages_sent, 50);
    }

    #[test]
    fn short_runs_leave_most_agents_undecided_or_unreliable() {
        let protocol = WaitForSourceProtocol::new(500, 0.2, 500).unwrap();
        let outcome = protocol.run_with_seed(Opinion::One, 3).unwrap();
        // 500 rounds gives each agent roughly one sample; far from consensus.
        assert!(outcome.fraction_correct < 0.9, "outcome = {outcome:?}");
        assert!(!outcome.all_correct);
    }

    #[test]
    fn very_long_runs_do_converge_on_tiny_populations() {
        // n = 20, epsilon = 0.4: each agent needs a handful of samples and gets
        // one every ~20 rounds; 4000 rounds is plenty.
        let protocol = WaitForSourceProtocol::new(20, 0.4, 4_000).unwrap();
        let outcome = protocol.run_with_seed(Opinion::Zero, 4).unwrap();
        assert!(outcome.fraction_correct > 0.9, "outcome = {outcome:?}");
    }

    #[test]
    fn predicted_rounds_scales_linearly_in_n() {
        let small = WaitForSourceProtocol::predicted_rounds(100, 0.2, 1.0);
        let large = WaitForSourceProtocol::predicted_rounds(1_000, 0.2, 1.0);
        assert!(large / small > 9.0);
    }

    #[test]
    fn undecided_agents_report_no_opinion() {
        let agent = WaitAgent::default();
        assert_eq!(agent.opinion(), None);
        let mut agent = WaitAgent::default();
        let mut rng = SimRng::from_seed(0);
        let _ = agent.deliver(0, Opinion::One, &mut rng);
        let _ = agent.deliver(1, Opinion::Zero, &mut rng);
        assert_eq!(agent.opinion(), None, "ties stay undecided");
        let _ = agent.deliver(2, Opinion::One, &mut rng);
        assert_eq!(agent.opinion(), Some(Opinion::One));
    }
}
