//! Comparator protocols ("baselines") for the *Breathe before Speaking*
//! reproduction.
//!
//! The paper motivates its protocol by explaining why the obvious strategies
//! fail in the Flip model (§1.6) and by situating it among related dynamics
//! from distributed computing and physics (§1.2).  This crate implements those
//! comparators so that the experiments can reproduce the paper's qualitative
//! comparisons:
//!
//! * [`bft`] — gossip adaptations of classic binary Byzantine-consensus
//!   protocols (Ben-Or, BV-broadcast, safe BBC) plus the Stage-II style
//!   majority boost, the comparators of the E13 fault-tolerance family.
//! * [`forwarding`] — *immediately forward what you heard*: reliability decays
//!   exponentially with the hop count, so the population converges to a
//!   near-coin-flip mixture.
//! * [`wait_source`] — *stay silent and listen only to the source*: reliable
//!   but needs `Θ(n log n / ε²)` rounds, a factor `n` slower than breathe.
//! * [`two_choices`] — the two-choices majority dynamics of Doerr et al.,
//!   which converges from a large initial bias in the noiseless setting but
//!   has no mechanism to create a bias from a single source under noise.
//! * [`three_state`] — the Angluin–Aspnes–Eisenstat three-state approximate
//!   majority population protocol (needs a third symbol, which the Flip model
//!   forbids; simulated with pairwise interactions for comparison).
//! * [`noisy_voter`] — the physicists' noisy voter model with a zealot source,
//!   whose convergence time is polynomial in `n`.
//! * [`path_deterioration`] — the `1/2 + (2ε)^c / 2` per-hop reliability decay
//!   that motivates breathing before speaking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bft;
pub mod forwarding;
pub mod noisy_voter;
pub mod path_deterioration;
pub mod three_state;
pub mod two_choices;
pub mod wait_source;

pub use bft::{BenOrAgent, BvBroadcastAgent, MajorityBoostAgent, SafeBbcAgent};
pub use forwarding::{ForwardingAgent, ForwardingProtocol};
pub use noisy_voter::NoisyVoterProtocol;
pub use path_deterioration::{chain_correct_probability, simulate_chain};
pub use three_state::{ThreeState, ThreeStateProtocol};
pub use two_choices::TwoChoicesProtocol;
pub use wait_source::WaitForSourceProtocol;

use flip_model::{
    Agent, BinarySymmetricChannel, FlipEngine, FlipError, Opinion, Simulation, SimulationConfig,
};

/// The outcome shared by every baseline runner.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Population size.
    pub n: usize,
    /// Noise margin `ε` of the channel the baseline ran over.
    pub epsilon: f64,
    /// The correct opinion the population was supposed to converge to.
    pub correct: Opinion,
    /// The round budget the outcome covers.  A forwarding run stops
    /// simulating once no agent can change, and its outcome still covers
    /// the whole budget.
    pub rounds: u64,
    /// Messages (bits) pushed in total.
    pub messages_sent: u64,
    /// Fraction of all agents holding the correct opinion at the end.
    pub fraction_correct: f64,
    /// Whether every agent held the correct opinion at the end.
    pub all_correct: bool,
}

/// How much of its round budget a [`BaselineRun`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rounds {
    /// Every round.
    All,
    /// Rounds until every agent holds an opinion.  Only for agents that,
    /// once every agent is informed, never change state again and send in
    /// every round: the outcome then adds `n` messages per skipped round.
    UntilAllActive,
}

/// What the engine-backed baselines share: `n` agents pushing over a binary
/// symmetric channel of margin `ε` for a fixed budget of rounds.
#[derive(Debug, Clone)]
struct BaselineRun {
    n: usize,
    epsilon: f64,
    rounds: u64,
}

impl BaselineRun {
    /// Checks the shared parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError`] if `n < 2` or `ε ∉ (0, 1/2]`.
    fn new(n: usize, epsilon: f64, rounds: u64) -> Result<Self, FlipError> {
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n });
        }
        BinarySymmetricChannel::from_epsilon(epsilon)?;
        Ok(Self { n, epsilon, rounds })
    }

    /// Runs `agents` over the round budget on an engine seeded with `seed`,
    /// simulating the rounds `rounds` asks for, and scores the outcome
    /// against `correct`.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from engine construction.
    fn run<A: Agent>(
        &self,
        agents: Vec<A>,
        correct: Opinion,
        seed: u64,
        rounds: Rounds,
    ) -> Result<BaselineOutcome, FlipError> {
        let channel = BinarySymmetricChannel::from_epsilon(self.epsilon)?;
        let config = SimulationConfig::new(self.n).with_seed(seed);
        let mut sim = Simulation::new(agents, channel, config)?;
        let skipped = if rounds == Rounds::UntilAllActive {
            let n = self.n;
            self.rounds - sim.run_until(self.rounds, |sim| sim.census().active() == n)
        } else {
            sim.run(self.rounds);
            0
        };
        let census = sim.census();
        Ok(BaselineOutcome {
            n: self.n,
            epsilon: self.epsilon,
            correct,
            rounds: self.rounds,
            messages_sent: sim.metrics().messages_sent + self.n as u64 * skipped,
            fraction_correct: census.fraction_correct(correct),
            all_correct: census.is_unanimous(correct),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_outcome_is_plain_data() {
        let outcome = BaselineOutcome {
            n: 10,
            epsilon: 0.2,
            correct: Opinion::One,
            rounds: 5,
            messages_sent: 40,
            fraction_correct: 0.7,
            all_correct: false,
        };
        let copy = outcome.clone();
        assert_eq!(outcome, copy);
    }
}
