//! The agent contract that protocols implement.

use std::fmt;

use crate::opinion::Opinion;
use crate::rng::SimRng;

/// A round number (the global, zero-based round counter of the engine).
///
/// Protocols that do not assume a global clock should ignore the value and
/// count rounds on a clock of their own.
pub type Round = u64;

/// Identifier of an agent within a population.
///
/// Only the simulation engine ever sees agent identifiers; they are used for
/// routing.  They are *never* exposed to protocol logic, which keeps the
/// model anonymous as required by the paper.
///
/// Stored as 32 bits so a routed [`Delivery`](crate::Delivery) packs into
/// 12 bytes — population indices are bounded well below `u32::MAX` by the
/// scheduler's 31-bit routing-index range, and the round loop streams
/// millions of deliveries per second through the cache hierarchy.
///
/// # Example
///
/// ```
/// use flip_model::AgentId;
///
/// let id = AgentId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(u32);

impl AgentId {
    /// Wraps a population index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the 32-bit identifier space (the
    /// engine's population bound rejects such sizes long before any id is
    /// minted).
    #[must_use]
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "agent index exceeds u32 range");
        Self(index as u32)
    }

    /// Returns the underlying population index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

impl From<usize> for AgentId {
    fn from(index: usize) -> Self {
        Self::new(index)
    }
}

/// A report of how one agent callback changed the agent's opinion, so the
/// engine can maintain a running [`Census`](crate::Census) in O(changes)
/// instead of recounting all `n` agents every round.
///
/// `before` and `after` are the opinions [`Agent::opinion`] would have
/// returned immediately before and after the callback ran.  A callback that
/// cannot change the opinion returns [`OpinionDelta::NONE`]; a callback with
/// non-trivial internal state simply captures `self.opinion()` on entry and
/// exit:
///
/// ```ignore
/// fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
///     let before = self.opinion();
///     /* ... mutate state ... */
///     OpinionDelta::between(before, self.opinion())
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use = "the engine needs the delta to keep its census consistent"]
pub struct OpinionDelta {
    /// Opinion held before the callback ran.
    pub before: Option<Opinion>,
    /// Opinion held after the callback ran.
    pub after: Option<Opinion>,
}

impl OpinionDelta {
    /// The delta of a callback that left the opinion untouched.
    pub const NONE: Self = Self {
        before: None,
        after: None,
    };

    /// A delta from explicit before/after opinions.
    pub fn between(before: Option<Opinion>, after: Option<Opinion>) -> Self {
        Self { before, after }
    }

    /// The delta of an undecided agent adopting its first opinion.
    pub fn adopted(opinion: Opinion) -> Self {
        Self {
            before: None,
            after: Some(opinion),
        }
    }
}

/// A per-agent protocol state machine driven by the [`Simulation`](crate::Simulation) engine.
///
/// In every round the engine:
///
/// 1. asks every agent what to [`send`](Agent::send) (or whether to *wait*),
/// 2. routes each sent message to a uniformly random other agent, keeps one
///    message per recipient (uniformly among those that arrived), corrupts the
///    bit through the channel, and calls [`deliver`](Agent::deliver) on the
///    recipient,
/// 3. calls [`end_round`](Agent::end_round) on every agent, in rounds that
///    some agent's [`next_end_round`](Agent::next_end_round) may need.
///
/// Agents never learn who they talked to.  The `round` argument is the global
/// round counter; protocols relying only on local clocks must ignore it.
///
/// # Census contract
///
/// [`deliver`](Agent::deliver) and [`end_round`](Agent::end_round) return an
/// [`OpinionDelta`] describing any change of [`opinion`](Agent::opinion) they
/// caused; the engine folds these into a running census instead of recounting
/// the population.  [`send`](Agent::send) takes `&mut self` only for internal
/// bookkeeping — it must **not** change the value `opinion()` reports, since
/// it has no way to report a delta.  (Debug builds of the engine periodically
/// recount the population and assert agreement.)
///
/// # Lanes
///
/// Agents are plain data (`Send`), so the engine may run the send pass and
/// the delivery walk of one round on several [`RoundPool`](crate::RoundPool)
/// lanes, each over a contiguous range of agents.  It does so only when an
/// agent type declares [`RNG_FREE_HOOKS`](Agent::RNG_FREE_HOOKS), the
/// population has at least [`RADIX_MIN_N`](crate::RADIX_MIN_N) agents and
/// [`SimulationConfig::with_threads`](crate::SimulationConfig::with_threads)
/// asked for more than one lane; the delivery walk also needs a dense round
/// and a fixed-crossover or noiseless channel.  Every other round runs both passes on the calling thread.
/// Results are bit-identical either way, provided no two agents share
/// mutable state.
pub trait Agent: Send {
    /// Promises that [`send`](Agent::send) and [`deliver`](Agent::deliver)
    /// never touch their `rng` argument; the default `false` promises
    /// nothing.
    ///
    /// Hooks that draw consume one engine-wide stream in agent order, which
    /// only a single lane reproduces, so agent types that declare `true`
    /// let the engine spread those two hooks over its lanes (see the trait
    /// docs).  [`end_round`](Agent::end_round) always runs on one lane and
    /// may draw either way.  Each lane hands the hooks a copy of the engine
    /// RNG and checks afterwards that it did not move, so an agent type that
    /// declares `true` and draws anyway panics, naming the type, instead of
    /// silently changing results.
    const RNG_FREE_HOOKS: bool = false;

    /// Decides what to transmit this round; `None` means stay silent ("breathe").
    ///
    /// Must not change the opinion reported by [`opinion`](Agent::opinion)
    /// (see the census contract above).
    fn send(&mut self, round: Round, rng: &mut SimRng) -> Option<Opinion>;

    /// Handles a message delivered to this agent (already corrupted by the
    /// channel), reporting any opinion change it caused.
    fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta;

    /// Hook invoked after all deliveries of the round; the default does
    /// nothing and reports no change.
    ///
    /// Phase-based protocols use this to make end-of-phase decisions (choosing
    /// an initial opinion, taking the majority of samples, ...).
    fn end_round(&mut self, round: Round, rng: &mut SimRng) -> OpinionDelta {
        let _ = (round, rng);
        OpinionDelta::NONE
    }

    /// A lower bound on the first round `≥ round` in which
    /// [`end_round`](Agent::end_round) may change the agent's state or draw
    /// from the RNG.
    ///
    /// The engine runs its O(n) end-of-round loop only in rounds that some
    /// agent's bound has reached: each time the loop runs in round `r`, it
    /// calls `end_round(r)` on every agent and then takes the minimum of
    /// `next_end_round(r + 1)` over the population as the next round to run
    /// it in.  The first bound is the minimum of `next_end_round(r)` taken at
    /// the end of round `r`.
    ///
    /// In every round before the bound, `end_round` must be a pure no-op (no
    /// state change, no RNG draw, [`OpinionDelta::NONE`]), since the engine
    /// may skip the call or make it for another agent's sake; caches that
    /// only speed up later calls may still be updated.  The bound must stay
    /// valid whatever [`send`](Agent::send) and [`deliver`](Agent::deliver)
    /// do in between, because the engine does not ask again until the bound
    /// is reached.
    ///
    /// The default returns `round` (act every round), which is always
    /// valid.  Phase-based protocols return the last round of the current
    /// phase; agents that never act at end of round return [`Round::MAX`].
    fn next_end_round(&self, round: Round) -> Round {
        round
    }

    /// The opinion the agent currently holds, if it has adopted one.
    fn opinion(&self) -> Option<Opinion>;

    /// Whether the agent has been activated (holds an opinion or has heard a message).
    ///
    /// The default considers an agent active exactly when it holds an opinion.
    fn is_active(&self) -> bool {
        self.opinion().is_some()
    }

    /// Whether the agent has irrevocably finished executing its protocol.
    ///
    /// The engine never forces termination; this is informational (used by
    /// [`FlipEngine::run_until`](crate::FlipEngine::run_until) predicates and
    /// experiment harnesses).  The default is `false`.
    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;

    impl Agent for Silent {
        fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
            None
        }
        fn deliver(&mut self, _round: Round, _message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
            OpinionDelta::NONE
        }
        fn opinion(&self) -> Option<Opinion> {
            None
        }
    }

    #[test]
    fn default_hooks_are_benign() {
        let mut agent = Silent;
        let mut rng = SimRng::from_seed(0);
        assert_eq!(agent.end_round(0, &mut rng), OpinionDelta::NONE);
        assert_eq!(agent.next_end_round(7), 7, "the default acts every round");
        assert!(!agent.is_active());
        assert!(!agent.is_done());
    }

    #[test]
    fn agent_id_round_trips() {
        let id = AgentId::from(17usize);
        assert_eq!(id.index(), 17);
        assert_eq!(id, AgentId::new(17));
        assert_eq!(id.to_string(), "agent#17");
    }

    #[test]
    fn agent_id_ordering_follows_index() {
        assert!(AgentId::new(1) < AgentId::new(2));
    }
}
