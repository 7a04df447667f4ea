//! Stage I — layered spreading with "breathing" (waiting) before speaking.
//!
//! The rule of Stage I (paper §2.1.2): an agent activated during phase `i`
//! stays silent for the rest of phase `i`, collects the messages it hears in
//! that phase, adopts the content of *one uniformly random* such message as
//! its initial opinion at the end of the phase, and from phase `i + 1` onward
//! pushes that initial opinion in every round until Stage I ends.

use flip_model::{Opinion, SimRng};
use rand::Rng;

/// The Stage I state of a single agent.
///
/// The state machine is deliberately tiny: a level (the phase in which the
/// agent was activated), a reservoir-sampled candidate opinion for the
/// activation phase, and the adopted initial opinion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage1State {
    /// Whether this agent starts the protocol already informed (the broadcast
    /// source, or a member of the initial set `A` in majority consensus).
    initially_informed: bool,
    /// Phase (index into the schedule's spreading phases) in which the agent
    /// was activated; `Some(0)` for initially informed agents.  Stored in
    /// 32 bits to keep the per-agent state small.
    level: Option<u32>,
    /// Messages heard during the activation phase.
    heard_in_level_phase: u32,
    /// Reservoir-sampled candidate among those messages.
    reservoir: Option<Opinion>,
    /// The initial opinion adopted at the end of the activation phase.
    initial_opinion: Option<Opinion>,
}

impl Stage1State {
    /// State of an agent that starts with no information (the common case).
    #[must_use]
    pub fn uninformed() -> Self {
        Self {
            initially_informed: false,
            level: None,
            heard_in_level_phase: 0,
            reservoir: None,
            initial_opinion: None,
        }
    }

    /// State of an initially informed agent holding `opinion` (level 0).
    ///
    /// The broadcast source and every member of the initial opinionated set
    /// `A` of the majority-consensus problem are constructed this way.
    #[must_use]
    pub fn informed(opinion: Opinion) -> Self {
        Self {
            initially_informed: true,
            level: Some(0),
            heard_in_level_phase: 0,
            reservoir: None,
            initial_opinion: Some(opinion),
        }
    }

    /// Whether the agent was constructed already informed.
    #[must_use]
    pub fn is_initially_informed(&self) -> bool {
        self.initially_informed
    }

    /// The spreading phase in which this agent was activated, if any.
    #[must_use]
    pub fn level(&self) -> Option<usize> {
        self.level.map(|level| level as usize)
    }

    /// The initial opinion adopted by the agent, if already set.
    #[must_use]
    pub fn initial_opinion(&self) -> Option<Opinion> {
        self.initial_opinion
    }

    /// Whether the agent has been activated (heard a message or started informed).
    #[must_use]
    pub fn is_activated(&self) -> bool {
        self.level.is_some()
    }

    /// The message to push during spreading phase `phase`, if any.
    ///
    /// Initially informed agents push from the very first phase; an agent
    /// activated in phase `i` pushes from phase `i + 1` on.
    #[must_use]
    #[inline]
    pub fn send(&self, phase: usize) -> Option<Opinion> {
        match self.level() {
            Some(level) if self.initially_informed || phase > level => self.initial_opinion,
            _ => None,
        }
    }

    /// Handles a message delivered during spreading phase `phase`.
    ///
    /// A dormant agent becomes activated at level `phase`; messages heard
    /// during the activation phase feed the uniform reservoir from which the
    /// initial opinion is drawn at the end of the phase.  Messages heard in
    /// later phases are ignored (the paper's agents never revise their initial
    /// opinion during Stage I).
    #[inline]
    pub fn deliver(&mut self, phase: usize, message: Opinion, rng: &mut SimRng) {
        if self.initial_opinion.is_some() || self.initially_informed {
            return;
        }
        match self.level() {
            None => {
                self.level = Some(u32::try_from(phase).expect("phase indices fit in 32 bits"));
                self.heard_in_level_phase = 1;
                self.reservoir = Some(message);
            }
            Some(level) if level == phase => {
                self.heard_in_level_phase += 1;
                // Reservoir sampling keeps each heard message with equal probability.
                if rng.gen_range(0..self.heard_in_level_phase) == 0 {
                    self.reservoir = Some(message);
                }
            }
            Some(_) => {
                // Activated in an earlier phase: the initial opinion was already
                // fixed at the end of that phase; later messages are ignored.
            }
        }
    }

    /// Handles the end of spreading phase `phase`: an agent activated in this
    /// phase commits to its reservoir-sampled initial opinion.
    pub fn end_phase(&mut self, phase: usize) {
        if self.initially_informed {
            return;
        }
        if self.level() == Some(phase) && self.initial_opinion.is_none() {
            self.initial_opinion = self.reservoir;
        }
    }
}

impl Default for Stage1State {
    fn default() -> Self {
        Self::uninformed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed(7)
    }

    #[test]
    fn uninformed_agent_is_dormant_and_silent() {
        let state = Stage1State::uninformed();
        assert!(!state.is_activated());
        assert_eq!(state.send(0), None);
        assert_eq!(state.send(5), None);
        assert_eq!(state.initial_opinion(), None);
    }

    #[test]
    fn informed_agent_sends_from_phase_zero() {
        let state = Stage1State::informed(Opinion::One);
        assert!(state.is_activated());
        assert_eq!(state.level(), Some(0));
        assert_eq!(state.send(0), Some(Opinion::One));
        assert_eq!(state.send(3), Some(Opinion::One));
    }

    #[test]
    fn informed_agent_never_changes_its_opinion() {
        let mut state = Stage1State::informed(Opinion::One);
        let mut rng = rng();
        state.deliver(0, Opinion::Zero, &mut rng);
        state.end_phase(0);
        assert_eq!(state.initial_opinion(), Some(Opinion::One));
    }

    #[test]
    fn activation_sets_level_and_waits_until_phase_ends() {
        let mut state = Stage1State::uninformed();
        let mut rng = rng();
        state.deliver(2, Opinion::One, &mut rng);
        assert_eq!(state.level(), Some(2));
        // Still silent during its own activation phase and no opinion committed yet.
        assert_eq!(state.send(2), None);
        assert_eq!(state.initial_opinion(), None);
        state.end_phase(2);
        assert_eq!(state.initial_opinion(), Some(Opinion::One));
        // Sends from the next phase on.
        assert_eq!(state.send(3), Some(Opinion::One));
        assert_eq!(state.send(2), None);
    }

    #[test]
    fn single_message_is_adopted_verbatim() {
        for opinion in Opinion::ALL {
            let mut state = Stage1State::uninformed();
            let mut rng = rng();
            state.deliver(1, opinion, &mut rng);
            state.end_phase(1);
            assert_eq!(state.initial_opinion(), Some(opinion));
        }
    }

    #[test]
    fn reservoir_choice_is_roughly_uniform_over_activation_phase_messages() {
        let mut ones = 0;
        for seed in 0..2_000 {
            let mut state = Stage1State::uninformed();
            let mut rng = SimRng::from_seed(seed);
            // Three messages in the activation phase: two zeros, one one.
            state.deliver(0, Opinion::Zero, &mut rng);
            state.deliver(0, Opinion::One, &mut rng);
            state.deliver(0, Opinion::Zero, &mut rng);
            state.end_phase(0);
            if state.initial_opinion() == Some(Opinion::One) {
                ones += 1;
            }
        }
        let fraction = f64::from(ones) / 2_000.0;
        assert!((fraction - 1.0 / 3.0).abs() < 0.05, "fraction = {fraction}");
    }

    #[test]
    fn messages_after_activation_phase_are_ignored() {
        let mut state = Stage1State::uninformed();
        let mut rng = rng();
        state.deliver(1, Opinion::Zero, &mut rng);
        state.end_phase(1);
        for _ in 0..10 {
            state.deliver(2, Opinion::One, &mut rng);
        }
        state.end_phase(2);
        assert_eq!(state.initial_opinion(), Some(Opinion::Zero));
    }

    #[test]
    fn end_of_unrelated_phase_does_not_commit() {
        let mut state = Stage1State::uninformed();
        let mut rng = rng();
        state.deliver(3, Opinion::One, &mut rng);
        state.end_phase(2);
        assert_eq!(state.initial_opinion(), None);
        state.end_phase(3);
        assert_eq!(state.initial_opinion(), Some(Opinion::One));
    }

    #[test]
    fn default_is_uninformed() {
        assert_eq!(Stage1State::default(), Stage1State::uninformed());
    }
}
