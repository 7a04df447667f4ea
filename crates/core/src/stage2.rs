//! Stage II — boosting the bias by repeated noisy majority sampling.
//!
//! The rule of Stage II (paper §2.2.2): in every round of every phase each
//! agent pushes its current opinion.  At the end of a phase of `m` rounds, an
//! agent that received at least `m/2` messages ("successful") selects a
//! uniformly random subset of exactly `m/2` of them and adopts the majority
//! opinion of that subset; unsuccessful agents keep their opinion.

use flip_model::{Opinion, SimRng};
use rand::Rng;

/// The Stage II state of a single agent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stage2State {
    opinion: Option<Opinion>,
    /// Messages received in the current phase.
    received: u64,
    /// How many of them carried [`Opinion::One`].
    ones_received: u64,
}

impl Stage2State {
    /// Creates Stage II state with no opinion yet (set one with
    /// [`Stage2State::adopt`] when Stage I hands over).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The agent's current opinion, if any.
    #[must_use]
    #[inline]
    pub fn opinion(&self) -> Option<Opinion> {
        self.opinion
    }

    /// Adopts an opinion (used when Stage I hands its initial opinion over,
    /// and in tests).  Adopting `None` leaves the agent opinion-less.
    pub fn adopt(&mut self, opinion: Option<Opinion>) {
        self.opinion = opinion;
    }

    /// Number of messages received so far in the current phase.
    #[must_use]
    pub fn received_in_phase(&self) -> u64 {
        self.received
    }

    /// The message to push this round: the current opinion (silent if none).
    #[must_use]
    #[inline]
    pub fn send(&self) -> Option<Opinion> {
        self.opinion
    }

    /// Records a message received during the current phase.
    ///
    /// Counted with arithmetic on the bit: the bit is as good as random,
    /// so a branch on it would be mispredicted about every other message.
    #[inline]
    pub fn deliver(&mut self, message: Opinion) {
        self.received += 1;
        self.ones_received += u64::from(message.as_bit());
    }

    /// Ends a phase of length `phase_len`, drawing `samples` samples if successful.
    ///
    /// Returns `true` if the agent was successful (received at least
    /// `phase_len / 2` messages) and therefore re-evaluated its opinion.
    /// Successful agents draw `samples` of their received messages uniformly
    /// at random *without replacement* and adopt the majority among the drawn
    /// subset; `samples` is odd so ties cannot occur.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `samples` is odd and `samples <= phase_len / 2`,
    /// which the [`Schedule`](crate::Schedule) guarantees by construction.
    pub fn end_phase(&mut self, phase_len: u64, samples: u64, rng: &mut SimRng) -> bool {
        debug_assert_eq!(samples % 2, 1, "sample subsets must be odd-sized");
        debug_assert!(samples <= phase_len / 2 + 1);
        let received = self.received_in_phase();
        let successful = received >= phase_len / 2 && received >= samples;
        if successful {
            let ones_drawn = draw_without_replacement(self.ones_received, received, samples, rng);
            let new_opinion = if 2 * ones_drawn > samples {
                Opinion::One
            } else {
                Opinion::Zero
            };
            self.opinion = Some(new_opinion);
        }
        self.received = 0;
        self.ones_received = 0;
        successful
    }
}

/// Draws `samples` items without replacement from a population of `total`
/// items of which `successes` are "ones", returning how many ones were drawn
/// (a hypergeometric sample).
fn draw_without_replacement(successes: u64, total: u64, samples: u64, rng: &mut SimRng) -> u64 {
    debug_assert!(successes <= total);
    debug_assert!(samples <= total);
    let mut remaining_ones = successes;
    let mut remaining_total = total;
    let mut drawn_ones = 0;
    for _ in 0..samples {
        // Probability the next drawn item is a one: remaining_ones / remaining_total.
        if remaining_total == 0 {
            break;
        }
        // Whether the draw is a one is a coin flip for a branch predictor,
        // so the comparison's result is added instead of branched on.
        let one = u64::from(rng.gen_range(0..remaining_total) < remaining_ones);
        drawn_ones += one;
        remaining_ones -= one;
        remaining_total -= 1;
    }
    drawn_ones
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opinionless_agent_is_silent_and_stays_opinionless_when_unsuccessful() {
        let mut state = Stage2State::new();
        let mut rng = SimRng::from_seed(1);
        assert_eq!(state.send(), None);
        // Receives a single message in a 10-round phase: unsuccessful.
        state.deliver(Opinion::One);
        let successful = state.end_phase(10, 5, &mut rng);
        assert!(!successful);
        assert_eq!(state.opinion(), None);
        assert_eq!(state.received_in_phase(), 0, "counters reset at phase end");
    }

    #[test]
    fn adopted_opinion_is_sent() {
        let mut state = Stage2State::new();
        state.adopt(Some(Opinion::Zero));
        assert_eq!(state.send(), Some(Opinion::Zero));
    }

    #[test]
    fn successful_agent_takes_majority_of_unanimous_samples() {
        let mut state = Stage2State::new();
        state.adopt(Some(Opinion::Zero));
        let mut rng = SimRng::from_seed(2);
        for _ in 0..9 {
            state.deliver(Opinion::One);
        }
        let successful = state.end_phase(10, 5, &mut rng);
        assert!(successful);
        assert_eq!(state.opinion(), Some(Opinion::One));
    }

    #[test]
    fn unsuccessful_agent_keeps_its_opinion() {
        let mut state = Stage2State::new();
        state.adopt(Some(Opinion::Zero));
        let mut rng = SimRng::from_seed(3);
        state.deliver(Opinion::One);
        state.deliver(Opinion::One);
        let successful = state.end_phase(10, 5, &mut rng);
        assert!(!successful);
        assert_eq!(state.opinion(), Some(Opinion::Zero));
    }

    #[test]
    fn success_requires_enough_messages_for_the_subset() {
        let mut state = Stage2State::new();
        let mut rng = SimRng::from_seed(4);
        // Phase of length 4 would need only 2 received, but the subset needs 3.
        state.deliver(Opinion::One);
        state.deliver(Opinion::One);
        assert!(!state.end_phase(4, 3, &mut rng));
    }

    #[test]
    fn counters_reset_between_phases() {
        let mut state = Stage2State::new();
        let mut rng = SimRng::from_seed(5);
        for _ in 0..6 {
            state.deliver(Opinion::One);
        }
        assert_eq!(state.received_in_phase(), 6);
        state.end_phase(10, 5, &mut rng);
        assert_eq!(state.received_in_phase(), 0);
        for _ in 0..6 {
            state.deliver(Opinion::Zero);
        }
        state.end_phase(10, 5, &mut rng);
        assert_eq!(state.opinion(), Some(Opinion::Zero));
    }

    #[test]
    fn majority_respects_sample_composition_statistically() {
        // 60% ones in the received pool, sampling 11 of 20: the majority should
        // be ones noticeably more often than zeros.
        let mut one_wins = 0;
        for seed in 0..1_000 {
            let mut state = Stage2State::new();
            let mut rng = SimRng::from_seed(seed);
            for _ in 0..12 {
                state.deliver(Opinion::One);
            }
            for _ in 0..8 {
                state.deliver(Opinion::Zero);
            }
            state.end_phase(22, 11, &mut rng);
            if state.opinion() == Some(Opinion::One) {
                one_wins += 1;
            }
        }
        assert!(one_wins > 700, "one_wins = {one_wins}");
    }

    #[test]
    fn hypergeometric_draw_is_within_bounds_and_roughly_unbiased() {
        let mut rng = SimRng::from_seed(11);
        let mut total_drawn = 0u64;
        let trials = 5_000;
        for _ in 0..trials {
            let drawn = draw_without_replacement(30, 100, 21, &mut rng);
            assert!(drawn <= 21);
            assert!(drawn <= 30);
            total_drawn += drawn;
        }
        let mean = total_drawn as f64 / trials as f64;
        // Expected value is 21 * 30/100 = 6.3.
        assert!((mean - 6.3).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn drawing_the_whole_pool_returns_all_ones() {
        let mut rng = SimRng::from_seed(12);
        assert_eq!(draw_without_replacement(4, 9, 9, &mut rng), 4);
        assert_eq!(draw_without_replacement(0, 9, 9, &mut rng), 0);
        assert_eq!(draw_without_replacement(9, 9, 9, &mut rng), 9);
    }
}
