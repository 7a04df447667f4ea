//! Round and message accounting.

/// Aggregate counters maintained by the engine over an entire run.
///
/// In the Flip model every message carries exactly one bit, so
/// `messages_sent` equals the total bit complexity of the execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of rounds executed so far.
    pub rounds: u64,
    /// Total number of messages pushed by agents.
    pub messages_sent: u64,
    /// Messages accepted by a recipient (at most one per agent per round).
    pub messages_accepted: u64,
    /// Messages dropped because the recipient accepted another message that round.
    pub messages_collided: u64,
    /// Accepted messages whose bit was flipped by the channel.
    pub bits_flipped: u64,
    /// Sends intercepted by the fault plan: Byzantine injections that
    /// replaced an honest send and crash silencings that dropped one.
    pub forced_sends: u64,
    /// Deliveries dropped because the recipient's fault role refused them.
    pub suppressed_deliveries: u64,
    /// Agent-rounds spent crashed (per round, the number of agents whose
    /// crash round had already passed).
    pub crashed_agent_rounds: u64,
}

impl Metrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of accepted messages corrupted by the channel, if any were accepted.
    #[must_use]
    pub fn empirical_flip_rate(&self) -> Option<f64> {
        if self.messages_accepted == 0 {
            None
        } else {
            Some(self.bits_flipped as f64 / self.messages_accepted as f64)
        }
    }

    /// Adds one round's worth of counters.
    pub fn absorb_round(&mut self, round: &RoundMetrics) {
        self.rounds += 1;
        self.messages_sent += round.messages_sent;
        self.messages_accepted += round.messages_accepted;
        self.messages_collided += round.messages_collided;
        self.bits_flipped += round.bits_flipped;
        self.forced_sends += round.forced_sends;
        self.suppressed_deliveries += round.suppressed_deliveries;
        self.crashed_agent_rounds += round.crashed_agents;
    }
}

/// Counters for a single round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// The round index these counters belong to.
    pub round: u64,
    /// Messages pushed in the round.
    pub messages_sent: u64,
    /// Messages accepted by recipients in the round.
    pub messages_accepted: u64,
    /// Messages dropped due to collisions in the round.
    pub messages_collided: u64,
    /// Accepted messages whose bit was flipped in the round.
    pub bits_flipped: u64,
    /// Sends intercepted by the fault plan in the round.
    pub forced_sends: u64,
    /// Deliveries suppressed by deaf fault roles in the round.
    pub suppressed_deliveries: u64,
    /// Agents that were crashed during the round.
    pub crashed_agents: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbing_rounds_accumulates() {
        let mut m = Metrics::new();
        m.absorb_round(&RoundMetrics {
            round: 0,
            messages_sent: 10,
            messages_accepted: 8,
            messages_collided: 2,
            bits_flipped: 3,
            ..RoundMetrics::default()
        });
        m.absorb_round(&RoundMetrics {
            round: 1,
            messages_sent: 5,
            messages_accepted: 5,
            messages_collided: 0,
            bits_flipped: 1,
            ..RoundMetrics::default()
        });
        assert_eq!(m.rounds, 2);
        assert_eq!(m.messages_sent, 15);
        assert_eq!(m.messages_accepted, 13);
        assert_eq!(m.messages_collided, 2);
        assert_eq!(m.bits_flipped, 4);
    }

    #[test]
    fn rates_are_none_when_nothing_happened() {
        let m = Metrics::new();
        assert!(m.empirical_flip_rate().is_none());
    }

    #[test]
    fn rates_are_fractions() {
        let mut m = Metrics::new();
        m.absorb_round(&RoundMetrics {
            round: 0,
            messages_sent: 100,
            messages_accepted: 80,
            messages_collided: 20,
            bits_flipped: 20,
            ..RoundMetrics::default()
        });
        assert!((m.empirical_flip_rate().unwrap() - 0.25).abs() < 1e-12);
    }
}
