//! Removing the global-clock assumption (paper §3).
//!
//! Two agent flavours are provided:
//!
//! * [`OffsetAgent`] — the *modified algorithm* of §3.1: clocks are initialised
//!   to arbitrary values in `[0, D)` and every phase `i` is executed when the
//!   agent's own clock shows `[rᵢ + i·D, rᵢ + i·D + xᵢ)`.  Messages arriving
//!   while an agent idles between its phase windows are attributed to the
//!   upcoming phase (they were necessarily sent by clock-ahead agents already
//!   executing it).
//! * [`ResyncAgent`] — the full §3.2 construction that removes any bound on
//!   clock skew: a preamble in which informed agents push arbitrary bits for
//!   `2·log₂ n` rounds, every agent resets its clock `4·log₂ n` rounds after it
//!   first hears a message, and then the §3.1 algorithm runs with `D = 2·log₂ n`.

use std::sync::Arc;

use flip_model::{
    Agent, BinarySymmetricChannel, FlipEngine, FlipError, Opinion, OpinionDelta, Round, SimRng,
    Simulation, SimulationConfig,
};
use rand::Rng;

use crate::agent_core::ProtocolCore;
use crate::params::Params;
use crate::schedule::Schedule;
use crate::stage1::Stage1State;

/// §3.1 agent: runs the protocol on a clock offset by a known bounded amount.
#[derive(Debug, Clone)]
pub struct OffsetAgent {
    /// The protocol on the schedule shifted by the clock-skew bound `D`.
    core: ProtocolCore,
    /// This agent's initial clock value, in `[0, D)`.
    offset: u64,
}

impl OffsetAgent {
    /// Creates an agent whose clock starts at `offset`, running with skew bound `d`.
    #[must_use]
    pub fn new(schedule: Arc<Schedule>, stage1: Stage1State, offset: u64, d: u64) -> Self {
        Self {
            core: ProtocolCore::shifted(schedule, stage1, d),
            offset,
        }
    }

    /// The agent's initial clock offset.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    #[inline]
    fn local_time(&self, round: Round) -> u64 {
        self.offset + round
    }
}

impl Agent for OffsetAgent {
    #[inline]
    fn send(&mut self, round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        self.core.send(self.local_time(round))
    }

    #[inline]
    fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
        self.core.deliver(self.local_time(round), message, rng);
        OpinionDelta::NONE
    }

    fn end_round(&mut self, round: Round, rng: &mut SimRng) -> OpinionDelta {
        self.core.end_round(self.local_time(round), rng)
    }

    fn next_end_round(&self, round: Round) -> Round {
        // Local and global time differ by the fixed offset.
        self.core
            .window_last(self.local_time(round))
            .map_or(Round::MAX, |last| last - self.offset)
    }

    fn opinion(&self) -> Option<Opinion> {
        self.core.opinion()
    }
}

/// §3.2 agent: synchronises its clock with an activation preamble, then runs
/// the §3.1 algorithm with `D = 2·log₂ n`.
#[derive(Debug, Clone)]
pub struct ResyncAgent {
    /// The protocol on the schedule shifted by the post-reset skew bound
    /// `D = 2·log₂ n`.
    core: ProtocolCore,
    /// Length of the preamble broadcast (`2·log₂ n` rounds).
    preamble_len: u64,
    /// Rounds after first hearing a message at which the clock resets (`4·log₂ n`).
    reset_after: u64,
    /// Global round at which this agent first heard a message (or `Some(0)` for
    /// initially informed agents).  Only differences of this value are ever
    /// used, which is what a local round counter would provide.
    heard_first: Option<Round>,
    /// Global round at which this agent's main clock reads zero.
    main_start: Option<Round>,
}

impl ResyncAgent {
    /// Creates a resynchronising agent.
    #[must_use]
    pub fn new(
        schedule: Arc<Schedule>,
        stage1: Stage1State,
        preamble_len: u64,
        reset_after: u64,
        d: u64,
    ) -> Self {
        let informed = stage1.is_initially_informed();
        Self {
            core: ProtocolCore::shifted(schedule, stage1, d),
            preamble_len,
            reset_after,
            heard_first: informed.then_some(0),
            main_start: None,
        }
    }

    /// Whether the agent has entered the main (post-preamble) protocol.
    #[must_use]
    pub fn is_resynchronised(&self) -> bool {
        self.main_start.is_some()
    }

    fn maybe_reset(&mut self, round: Round) {
        if self.main_start.is_none() {
            if let Some(heard) = self.heard_first {
                if round >= heard + self.reset_after {
                    self.main_start = Some(heard + self.reset_after);
                }
            }
        }
    }

    /// The main clock's reading at `round`, once it has been reset.
    fn main_time(&mut self, round: Round) -> Option<u64> {
        self.maybe_reset(round);
        Some(round.saturating_sub(self.main_start?))
    }
}

impl Agent for ResyncAgent {
    #[inline]
    fn send(&mut self, round: Round, rng: &mut SimRng) -> Option<Opinion> {
        if let Some(time) = self.main_time(round) {
            return self.core.send(time);
        }
        // Preamble: an informed/activated agent pushes an arbitrary (random)
        // bit for `preamble_len` rounds after it was activated.  The content
        // carries no information, so symmetry is preserved.
        match self.heard_first {
            Some(heard) if round < heard + self.preamble_len => Some(Opinion::random(rng)),
            _ => None,
        }
    }

    #[inline]
    fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
        match self.main_time(round) {
            Some(time) => self.core.deliver(time, message, rng),
            // Preamble messages only matter for activation (clock start).
            None => {
                self.heard_first.get_or_insert(round);
            }
        }
        OpinionDelta::NONE
    }

    fn end_round(&mut self, round: Round, rng: &mut SimRng) -> OpinionDelta {
        match self.main_time(round) {
            Some(time) => self.core.end_round(time, rng),
            None => OpinionDelta::NONE,
        }
    }

    fn next_end_round(&self, round: Round) -> Round {
        // The main clock reads zero `reset_after` rounds after the agent
        // first hears a message (as in `maybe_reset`); an agent that has
        // heard nothing yet hears at `round` at the earliest.  Before then
        // `end_round` does nothing, and from then on it acts only at the
        // last time of a main-clock window.
        let main_start = self.heard_first.unwrap_or(round) + self.reset_after;
        self.core
            .window_last(round.saturating_sub(main_start))
            .map_or(Round::MAX, |last| main_start + last)
    }

    fn opinion(&self) -> Option<Opinion> {
        self.core.opinion()
    }
}

/// Which §3 construction to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncVariant {
    /// §3.1: clocks start at arbitrary offsets in `[0, D)` with `D` known.
    BoundedOffsets {
        /// The skew bound `D`.
        max_offset: u64,
    },
    /// §3.2: arbitrary skew removed via the activation/clock-reset preamble.
    Resynchronised,
}

/// The result of one clock-shifted broadcast execution.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncOutcome {
    /// Population size.
    pub n: usize,
    /// Noise margin `ε`.
    pub epsilon: f64,
    /// Rounds executed (global rounds until every agent finished its schedule).
    pub total_rounds: u64,
    /// Rounds the fully-synchronous protocol would have taken.
    pub synchronous_rounds: u64,
    /// Messages (bits) pushed in total.
    pub messages_sent: u64,
    /// Fraction of agents holding the correct opinion at the end.
    pub fraction_correct: f64,
    /// Whether every agent ended with the correct opinion.
    pub all_correct: bool,
}

impl AsyncOutcome {
    /// The additive round overhead relative to the fully-synchronous protocol
    /// (Theorem 3.1 bounds this by `O(log² n)` for the resynchronised variant).
    #[must_use]
    pub fn overhead_rounds(&self) -> u64 {
        self.total_rounds.saturating_sub(self.synchronous_rounds)
    }
}

/// Runner for the noisy broadcast protocol without a global clock (Theorem 3.1).
///
/// # Example
///
/// ```
/// use breathe::{AsyncBroadcastProtocol, AsyncVariant, Params};
/// use flip_model::Opinion;
///
/// let params = Params::practical(300, 0.3).unwrap();
/// let outcome = AsyncBroadcastProtocol::new(
///     params,
///     Opinion::One,
///     AsyncVariant::BoundedOffsets { max_offset: 16 },
/// )
/// .run_with_seed(5)
/// .unwrap();
/// assert!(outcome.fraction_correct > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct AsyncBroadcastProtocol {
    params: Params,
    correct: Opinion,
    variant: AsyncVariant,
    schedule: Arc<Schedule>,
}

impl AsyncBroadcastProtocol {
    /// Creates an asynchronous broadcast runner.
    #[must_use]
    pub fn new(params: Params, correct: Opinion, variant: AsyncVariant) -> Self {
        let schedule = Arc::new(Schedule::broadcast(&params));
        Self {
            params,
            correct,
            variant,
            schedule,
        }
    }

    /// The parameters of this instance.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The variant being run.
    #[must_use]
    pub fn variant(&self) -> AsyncVariant {
        self.variant
    }

    /// `⌈log₂ n⌉`, the unit of the §3.2 preamble lengths.
    #[must_use]
    pub fn log2_n(&self) -> u64 {
        (self.params.n() as f64).log2().ceil() as u64
    }

    /// Runs one execution.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from channel or engine construction.
    pub fn run_with_seed(&self, seed: u64) -> Result<AsyncOutcome, FlipError> {
        let channel = BinarySymmetricChannel::from_epsilon(self.params.epsilon())?;
        let config = SimulationConfig::new(self.params.n())
            .with_seed(seed)
            .with_reference(self.correct);
        match self.variant {
            AsyncVariant::BoundedOffsets { max_offset } => {
                let d = max_offset.max(1);
                let mut offset_rng = SimRng::from_seed(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
                let mut agents = Vec::with_capacity(self.params.n());
                for i in 0..self.params.n() {
                    let stage1 = if i == 0 {
                        Stage1State::informed(self.correct)
                    } else {
                        Stage1State::uninformed()
                    };
                    let offset = initial_offset(d, &mut offset_rng);
                    agents.push(OffsetAgent::new(self.schedule.clone(), stage1, offset, d));
                }
                let total = self.schedule.shifted_total_rounds(d);
                let mut sim = Simulation::new(agents, channel, config)?;
                sim.run(total);
                Ok(self.outcome(total, sim.metrics().messages_sent, &sim.census()))
            }
            AsyncVariant::Resynchronised => {
                let log2n = self.log2_n();
                let d = 2 * log2n;
                let preamble_len = 2 * log2n;
                let reset_after = 4 * log2n;
                let mut agents = Vec::with_capacity(self.params.n());
                for i in 0..self.params.n() {
                    let stage1 = if i == 0 {
                        Stage1State::informed(self.correct)
                    } else {
                        Stage1State::uninformed()
                    };
                    agents.push(ResyncAgent::new(
                        self.schedule.clone(),
                        stage1,
                        preamble_len,
                        reset_after,
                        d,
                    ));
                }
                // Horizon: the slowest agent resets at most `reset_after + preamble
                // spreading time` rounds in; add slack for the shifted schedule.
                let total = 2 * reset_after + self.schedule.shifted_total_rounds(d);
                let mut sim = Simulation::new(agents, channel, config)?;
                sim.run(total);
                Ok(self.outcome(total, sim.metrics().messages_sent, &sim.census()))
            }
        }
    }

    fn outcome(
        &self,
        total_rounds: u64,
        messages_sent: u64,
        census: &flip_model::Census,
    ) -> AsyncOutcome {
        AsyncOutcome {
            n: self.params.n(),
            epsilon: self.params.epsilon(),
            total_rounds,
            synchronous_rounds: self.schedule.total_rounds(),
            messages_sent,
            fraction_correct: census.fraction_correct(self.correct),
            all_correct: census.is_unanimous(self.correct),
        }
    }
}

/// Draws one agent's initial clock value, uniform in `[0, d)` (§3.1); a
/// bound of `0` or `1` draws nothing and starts the clock at `0`.
fn initial_offset(d: u64, rng: &mut SimRng) -> u64 {
    if d > 1 {
        rng.gen_range(0..d)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_offsets_are_in_range_and_varied() {
        let mut rng = SimRng::from_seed(1);
        let offsets: Vec<u64> = (0..200).map(|_| initial_offset(10, &mut rng)).collect();
        assert!(offsets.iter().all(|&o| o < 10));
        assert!(offsets.iter().any(|&o| o != offsets[0]));
    }

    #[test]
    fn degenerate_bound_yields_zero() {
        let mut rng = SimRng::from_seed(2);
        let before = rng.clone();
        assert_eq!(initial_offset(1, &mut rng), 0);
        assert_eq!(initial_offset(0, &mut rng), 0);
        assert_eq!(rng, before, "a degenerate bound draws nothing");
    }

    #[test]
    fn offset_agent_with_zero_offset_matches_synchronous_positions() {
        let params = Params::practical(200, 0.35).unwrap();
        let schedule = Arc::new(Schedule::broadcast(&params));
        let agent = OffsetAgent::new(schedule.clone(), Stage1State::uninformed(), 0, 0);
        assert_eq!(agent.offset(), 0);
        assert_eq!(
            schedule.shifted_position(0, 0),
            schedule.position(0),
            "zero shift must coincide"
        );
    }

    #[test]
    fn bounded_offsets_variant_reaches_consensus() {
        let params = Params::practical(300, 0.3).unwrap();
        let protocol = AsyncBroadcastProtocol::new(
            params,
            Opinion::One,
            AsyncVariant::BoundedOffsets { max_offset: 20 },
        );
        let outcome = protocol.run_with_seed(6).unwrap();
        assert!(outcome.fraction_correct > 0.9, "outcome = {outcome:?}");
        assert!(outcome.total_rounds > outcome.synchronous_rounds);
    }

    #[test]
    fn resynchronised_variant_reaches_consensus() {
        let params = Params::practical(300, 0.3).unwrap();
        let protocol =
            AsyncBroadcastProtocol::new(params, Opinion::Zero, AsyncVariant::Resynchronised);
        let outcome = protocol.run_with_seed(7).unwrap();
        assert!(outcome.fraction_correct > 0.9, "outcome = {outcome:?}");
        let overhead = outcome.overhead_rounds();
        // Theorem 3.1: the overhead is an additive O(log² n); with n = 300 and
        // our explicit horizon it stays far below the synchronous runtime
        // multiplied by a constant.
        assert!(overhead > 0);
    }

    #[test]
    fn overhead_is_reported_consistently() {
        let outcome = AsyncOutcome {
            n: 10,
            epsilon: 0.3,
            total_rounds: 120,
            synchronous_rounds: 100,
            messages_sent: 0,
            fraction_correct: 1.0,
            all_correct: true,
        };
        assert_eq!(outcome.overhead_rounds(), 20);
    }

    #[test]
    fn resync_agent_resets_its_clock_after_the_prescribed_delay() {
        let params = Params::practical(64, 0.4).unwrap();
        let schedule = Arc::new(Schedule::broadcast(&params));
        let mut agent = ResyncAgent::new(schedule, Stage1State::informed(Opinion::One), 4, 8, 4);
        let mut rng = SimRng::from_seed(1);
        assert!(!agent.is_resynchronised());
        for round in 0..8 {
            let _ = agent.send(round, &mut rng);
            let _ = agent.end_round(round, &mut rng);
        }
        assert!(!agent.is_resynchronised());
        let _ = agent.send(8, &mut rng);
        assert!(agent.is_resynchronised());
    }

    #[test]
    fn dormant_resync_agent_starts_counting_when_first_hearing_a_message() {
        let params = Params::practical(64, 0.4).unwrap();
        let schedule = Arc::new(Schedule::broadcast(&params));
        let mut agent = ResyncAgent::new(schedule, Stage1State::uninformed(), 4, 8, 4);
        let mut rng = SimRng::from_seed(2);
        // Silent while dormant.
        assert_eq!(agent.send(0, &mut rng), None);
        let _ = agent.deliver(3, Opinion::One, &mut rng);
        // During its preamble window it broadcasts arbitrary bits.
        assert!(agent.send(4, &mut rng).is_some());
        // After the preamble window but before reset it is silent again.
        assert_eq!(agent.send(3 + 5, &mut rng), None);
        // After `reset_after` rounds it has resynchronised.
        let _ = agent.send(3 + 8, &mut rng);
        assert!(agent.is_resynchronised());
    }
}
