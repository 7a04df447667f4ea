//! Gossip adaptations of classic binary Byzantine-consensus protocols, used
//! as comparators for the E13 fault-tolerance experiment family.
//!
//! The Flip model gives every agent one pushed bit per round to a uniformly
//! random peer and at most one accepted bit back — there is no all-to-all
//! broadcast and no sender identity, so the quorum protocols of the BFT
//! literature cannot run verbatim.  The agents here keep each protocol's
//! *decision structure* (phases, supermajority thresholds, common/local
//! coins) but replace "count distinct senders" with "tally the bits accepted
//! during a phase of `L` rounds".  Because a recipient accepts at most one
//! bit per round and stays empty with probability `≈ 1/e`, a phase yields a
//! *random* `≈ 0.63·L` samples; the classic `n − f` / `2f + 1` / `f + 1`
//! quorums therefore become **fractions of the phase tally `t`** (`⌈2t/3⌉`
//! supermajority, `⌈t/3⌉` echo) guarded by a minimum quorum of `⌈L/2⌉`
//! accepted samples — a phase with fewer samples is inconclusive, the gossip
//! stand-in for "wait for `n − f` messages before acting".
//!
//! * [`MajorityBoostAgent`] — the paper's Stage-II style repeated noisy
//!   majority: the *non-BFT* baseline the comparison is anchored on.
//! * [`BenOrAgent`] — Ben-Or's randomized consensus: supermajority decides,
//!   majority adopts, a tie flips a local coin.
//! * [`BvBroadcastAgent`] — the BV-broadcast primitive: echo a value carrying
//!   a third of the tally, deliver it into `bin_values` at two thirds.
//! * [`SafeBbcAgent`] — the safe binary Byzantine consensus loop: BV-style
//!   EST phases alternating with AUX phases whose singleton support is
//!   matched against a rotating common coin.
//!
//! Unlike their quorum-certified ancestors, the tally adaptations offer
//! *statistical* rather than absolute agreement — a sufficiently unlucky
//! tally can still decide against a large majority.  That gap is exactly
//! what E13 measures when it runs these protocols against the paper's
//! majority dynamics under identical noise and fault injection.
//!
//! All four are deterministic functions of the engine's [`SimRng`] stream,
//! so they inherit the engine's thread-count invariance and compose with the
//! fault-injection layer (`flip_model::faults`) without extra plumbing.

use flip_model::{Agent, Opinion, OpinionDelta, Round, SimRng};

/// Splits a population: the first `correct` agents hold [`Opinion::One`]
/// (the reference opinion), the rest hold [`Opinion::Zero`].
fn seeded<T>(n: usize, correct: usize, make: impl Fn(Opinion) -> T) -> Vec<T> {
    assert!(correct <= n, "correct = {correct} exceeds n = {n}");
    (0..n)
        .map(|i| {
            make(if i < correct {
                Opinion::One
            } else {
                Opinion::Zero
            })
        })
        .collect()
}

/// The minimum phase tally (`⌈L/2⌉`) below which a phase is inconclusive.
fn quorum(phase_len: u64) -> u32 {
    phase_len.div_ceil(2) as u32
}

/// The Stage-II style repeated noisy majority boost: every round push the
/// current opinion, every `phase_len` rounds re-set it to the majority of the
/// bits accepted during the phase (ties keep the current opinion).
///
/// This is the paper's own amplification dynamic run standalone — E13 uses
/// it as the non-BFT baseline that Ben-Or is compared against under
/// identical noise and fault injection.
#[derive(Debug, Clone)]
pub struct MajorityBoostAgent {
    opinion: Opinion,
    phase_len: u64,
    ones: u32,
    total: u32,
}

impl MajorityBoostAgent {
    /// An agent starting from `opinion`, deciding every `phase_len` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len` is zero.
    #[must_use]
    pub fn new(opinion: Opinion, phase_len: u64) -> Self {
        assert!(phase_len > 0, "phase_len must be >= 1");
        Self {
            opinion,
            phase_len,
            ones: 0,
            total: 0,
        }
    }

    /// A population of `n` agents, the first `correct` holding [`Opinion::One`].
    #[must_use]
    pub fn population(n: usize, correct: usize, phase_len: u64) -> Vec<Self> {
        seeded(n, correct, |opinion| Self::new(opinion, phase_len))
    }
}

impl Agent for MajorityBoostAgent {
    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        Some(self.opinion)
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        self.ones += u32::from(message.as_bit());
        self.total += 1;
        OpinionDelta::NONE
    }

    fn end_round(&mut self, round: Round, _rng: &mut SimRng) -> OpinionDelta {
        if !(round + 1).is_multiple_of(self.phase_len) {
            return OpinionDelta::NONE;
        }
        let before = self.opinion;
        let zeros = self.total - self.ones;
        if self.ones > zeros {
            self.opinion = Opinion::One;
        } else if zeros > self.ones {
            self.opinion = Opinion::Zero;
        }
        self.ones = 0;
        self.total = 0;
        OpinionDelta::between(Some(before), Some(self.opinion))
    }

    fn opinion(&self) -> Option<Opinion> {
        Some(self.opinion)
    }
}

/// Ben-Or's randomized binary consensus, phase-tally adaptation.
///
/// Each phase of `phase_len` rounds the agent pushes its current estimate
/// and tallies accepted bits.  At phase end, provided the tally `t` reaches
/// the `⌈phase_len/2⌉` quorum:
///
/// * a `≥ ⌈2t/3⌉` supermajority for a value **decides** it (irrevocably),
/// * otherwise a strict majority adopts the value as the next estimate,
/// * a tie re-randomizes the estimate with a local coin.
///
/// Below the quorum the phase is inconclusive: the majority/tie step still
/// runs (so sparse phases keep mixing) but no decision is taken.  Decided
/// agents keep pushing their decision forever, which is what lets an
/// early-deciding cohort drag the rest of the population along.
#[derive(Debug, Clone)]
pub struct BenOrAgent {
    estimate: Opinion,
    decided: Option<Opinion>,
    phase_len: u64,
    ones: u32,
    total: u32,
}

impl BenOrAgent {
    /// An agent starting from `estimate`, with phases of `phase_len` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len` is zero.
    #[must_use]
    pub fn new(estimate: Opinion, phase_len: u64) -> Self {
        assert!(phase_len > 0, "phase_len must be >= 1");
        Self {
            estimate,
            decided: None,
            phase_len,
            ones: 0,
            total: 0,
        }
    }

    /// A population of `n` agents, the first `correct` holding [`Opinion::One`].
    #[must_use]
    pub fn population(n: usize, correct: usize, phase_len: u64) -> Vec<Self> {
        seeded(n, correct, |opinion| Self::new(opinion, phase_len))
    }

    /// The decided value, if this agent has decided.
    #[must_use]
    pub fn decided(&self) -> Option<Opinion> {
        self.decided
    }
}

impl Agent for BenOrAgent {
    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        Some(self.decided.unwrap_or(self.estimate))
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        self.ones += u32::from(message.as_bit());
        self.total += 1;
        OpinionDelta::NONE
    }

    fn end_round(&mut self, round: Round, rng: &mut SimRng) -> OpinionDelta {
        if !(round + 1).is_multiple_of(self.phase_len) {
            return OpinionDelta::NONE;
        }
        let (ones, total) = (self.ones, self.total);
        self.ones = 0;
        self.total = 0;
        if self.decided.is_some() {
            return OpinionDelta::NONE;
        }
        let before = self.estimate;
        let zeros = total - ones;
        let conclusive = total >= quorum(self.phase_len);
        if conclusive && 3 * ones >= 2 * total && ones > zeros {
            self.decided = Some(Opinion::One);
            self.estimate = Opinion::One;
        } else if conclusive && 3 * zeros >= 2 * total && zeros > ones {
            self.decided = Some(Opinion::Zero);
            self.estimate = Opinion::Zero;
        } else if ones > zeros {
            self.estimate = Opinion::One;
        } else if zeros > ones {
            self.estimate = Opinion::Zero;
        } else {
            self.estimate = Opinion::random(rng);
        }
        OpinionDelta::between(Some(before), Some(self.estimate))
    }

    fn opinion(&self) -> Option<Opinion> {
        Some(self.decided.unwrap_or(self.estimate))
    }

    fn is_done(&self) -> bool {
        self.decided.is_some()
    }
}

/// The BV-broadcast primitive, phase-tally adaptation.
///
/// The classic primitive echoes a value once `f + 1` distinct senders
/// vouched for it and delivers it into `bin_values` at `2f + 1`.  Over
/// anonymous gossip the per-phase tally `t` stands in for the sender count:
/// in any conclusive phase (tally `≥ ⌈L/2⌉`) a value carrying `⌈t/3⌉` of
/// the tally joins the broadcast set (the echo), and at `⌈2t/3⌉` it is
/// delivered into `bin_values`.  Agents pushing two values alternate them
/// by round parity.
///
/// The agent's reported opinion is the first value it delivered (its
/// initial estimate until then), so a census over a BV-broadcast population
/// reads off which values achieved delivery.
#[derive(Debug, Clone)]
pub struct BvBroadcastAgent {
    estimate: Opinion,
    broadcasting: [bool; 2],
    bin_values: [bool; 2],
    delivered: Option<Opinion>,
    counts: [u32; 2],
    phase_len: u64,
}

impl BvBroadcastAgent {
    /// An agent initially broadcasting `estimate`, with phases of
    /// `phase_len` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len` is zero.
    #[must_use]
    pub fn new(estimate: Opinion, phase_len: u64) -> Self {
        assert!(phase_len > 0, "phase_len must be >= 1");
        let mut broadcasting = [false; 2];
        broadcasting[estimate.index()] = true;
        Self {
            estimate,
            broadcasting,
            bin_values: [false; 2],
            delivered: None,
            counts: [0; 2],
            phase_len,
        }
    }

    /// A population of `n` agents, the first `correct` holding [`Opinion::One`].
    #[must_use]
    pub fn population(n: usize, correct: usize, phase_len: u64) -> Vec<Self> {
        seeded(n, correct, |opinion| Self::new(opinion, phase_len))
    }

    /// Whether `value` has been delivered into this agent's `bin_values`.
    #[must_use]
    pub fn bin_value(&self, value: Opinion) -> bool {
        self.bin_values[value.index()]
    }

    /// Whether this agent is (re-)broadcasting `value`.
    #[must_use]
    pub fn is_broadcasting(&self, value: Opinion) -> bool {
        self.broadcasting[value.index()]
    }
}

impl Agent for BvBroadcastAgent {
    fn send(&mut self, round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        match self.broadcasting {
            [true, true] => Some(Opinion::from_bit((round & 1) as u8)),
            [true, false] => Some(Opinion::Zero),
            [false, true] => Some(Opinion::One),
            [false, false] => None,
        }
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        self.counts[message.index()] += 1;
        OpinionDelta::NONE
    }

    fn end_round(&mut self, round: Round, _rng: &mut SimRng) -> OpinionDelta {
        if !(round + 1).is_multiple_of(self.phase_len) {
            return OpinionDelta::NONE;
        }
        let counts = self.counts;
        self.counts = [0; 2];
        let total = counts[0] + counts[1];
        if total < quorum(self.phase_len) {
            return OpinionDelta::NONE;
        }
        let before = self.opinion();
        for value in Opinion::ALL {
            let count = counts[value.index()];
            if 3 * count >= total {
                self.broadcasting[value.index()] = true;
            }
            if 3 * count >= 2 * total && count > 0 {
                self.bin_values[value.index()] = true;
                if self.delivered.is_none() {
                    self.delivered = Some(value);
                }
            }
        }
        OpinionDelta::between(before, self.opinion())
    }

    fn opinion(&self) -> Option<Opinion> {
        Some(self.delivered.unwrap_or(self.estimate))
    }
}

/// Safe binary Byzantine consensus, phase-tally adaptation.
///
/// Alternates two phase kinds, each `phase_len` rounds long:
///
/// * **EST** (even phases): push the current estimate; at a conclusive
///   phase end (tally `t ≥ ⌈L/2⌉`) a value carrying `⌈2t/3⌉` of the tally
///   enters `bin_values` — if none qualifies the phase majority does, so
///   noise cannot stall the loop.
/// * **AUX** (odd phases): push a `bin_values` witness (preferring the
///   estimate); at phase end the values carrying `⌈t/3⌉` of a conclusive
///   tally that are also in `bin_values` form the support set.  A singleton
///   support `{v}` matching the iteration's rotating common coin
///   **decides** `v`; a singleton not matching adopts `v`; anything else
///   adopts the coin.
///
/// The rotating coin (`iteration mod 2`) is the standard derandomized
/// stand-in for a common coin — every agent computes the same value from
/// the global round counter, which the synchronous Flip engine provides.
#[derive(Debug, Clone)]
pub struct SafeBbcAgent {
    estimate: Opinion,
    decided: Option<Opinion>,
    bin_values: [bool; 2],
    counts: [u32; 2],
    phase_len: u64,
}

impl SafeBbcAgent {
    /// An agent starting from `estimate`, with phases of `phase_len` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len` is zero.
    #[must_use]
    pub fn new(estimate: Opinion, phase_len: u64) -> Self {
        assert!(phase_len > 0, "phase_len must be >= 1");
        Self {
            estimate,
            decided: None,
            bin_values: [false; 2],
            counts: [0; 2],
            phase_len,
        }
    }

    /// A population of `n` agents, the first `correct` holding [`Opinion::One`].
    #[must_use]
    pub fn population(n: usize, correct: usize, phase_len: u64) -> Vec<Self> {
        seeded(n, correct, |opinion| Self::new(opinion, phase_len))
    }

    /// The decided value, if this agent has decided.
    #[must_use]
    pub fn decided(&self) -> Option<Opinion> {
        self.decided
    }

    /// Phase index of `round` (0-based; even = EST, odd = AUX).
    fn phase(&self, round: Round) -> u64 {
        round / self.phase_len
    }

    /// The rotating common coin for the EST/AUX iteration containing `phase`.
    fn coin(phase: u64) -> Opinion {
        Opinion::from_bit(((phase / 2) & 1) as u8)
    }
}

impl Agent for SafeBbcAgent {
    fn send(&mut self, round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        if let Some(value) = self.decided {
            return Some(value);
        }
        if self.phase(round).is_multiple_of(2) {
            return Some(self.estimate);
        }
        // AUX phase: witness a bin value, preferring the own estimate.
        if self.bin_values[self.estimate.index()] {
            Some(self.estimate)
        } else if self.bin_values[self.estimate.flipped().index()] {
            Some(self.estimate.flipped())
        } else {
            None
        }
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        self.counts[message.index()] += 1;
        OpinionDelta::NONE
    }

    fn end_round(&mut self, round: Round, _rng: &mut SimRng) -> OpinionDelta {
        if !(round + 1).is_multiple_of(self.phase_len) {
            return OpinionDelta::NONE;
        }
        let phase = self.phase(round);
        let counts = self.counts;
        self.counts = [0; 2];
        if self.decided.is_some() {
            return OpinionDelta::NONE;
        }
        let total = counts[0] + counts[1];
        let conclusive = total >= quorum(self.phase_len);
        let before = self.estimate;
        if phase.is_multiple_of(2) {
            // EST phase end: supermajority delivery into bin_values, with
            // the phase majority as the noise-proof fallback.
            self.bin_values = [false; 2];
            if conclusive {
                for value in Opinion::ALL {
                    if 3 * counts[value.index()] >= 2 * total && counts[value.index()] > 0 {
                        self.bin_values[value.index()] = true;
                    }
                }
            }
            if self.bin_values == [false; 2] {
                let majority = if counts[1] >= counts[0] {
                    Opinion::One
                } else {
                    Opinion::Zero
                };
                self.bin_values[majority.index()] = true;
            }
        } else {
            // AUX phase end: singleton supported value vs the common coin.
            let supported: Vec<Opinion> = Opinion::ALL
                .into_iter()
                .filter(|v| {
                    conclusive && self.bin_values[v.index()] && 3 * counts[v.index()] >= total
                })
                .collect();
            let coin = Self::coin(phase);
            match supported.as_slice() {
                [value] if *value == coin => {
                    self.decided = Some(*value);
                    self.estimate = *value;
                }
                [value] => self.estimate = *value,
                _ => self.estimate = coin,
            }
        }
        OpinionDelta::between(Some(before), Some(self.estimate))
    }

    fn opinion(&self) -> Option<Opinion> {
        Some(self.decided.unwrap_or(self.estimate))
    }

    fn is_done(&self) -> bool {
        self.decided.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flip_model::{
        BinarySymmetricChannel, FlipEngine, NoiselessChannel, Simulation, SimulationConfig,
    };

    fn config(n: usize, seed: u64) -> SimulationConfig {
        SimulationConfig::new(n)
            .with_seed(seed)
            .with_reference(Opinion::One)
    }

    #[test]
    fn majority_boost_amplifies_a_bias_under_noise() {
        let n = 2_000;
        let agents = MajorityBoostAgent::population(n, 1_200, 15);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let mut sim = Simulation::new(agents, channel, config(n, 9)).unwrap();
        sim.run(120);
        let fraction = sim.census().fraction_correct(Opinion::One);
        assert!(fraction > 0.9, "60% bias should amplify, got {fraction}");
    }

    #[test]
    fn ben_or_decides_overwhelmingly_with_a_clear_majority() {
        let n = 600;
        let agents = BenOrAgent::population(n, 480, 15);
        let channel = BinarySymmetricChannel::from_epsilon(0.4).unwrap();
        let mut sim = Simulation::new(agents, channel, config(n, 4)).unwrap();
        sim.run(300);
        let decided_one = sim
            .agents()
            .iter()
            .filter(|a| a.decided() == Some(Opinion::One))
            .count();
        let decided = sim.agents().iter().filter(|a| a.is_done()).count();
        assert!(
            decided > n / 2,
            "most agents should decide within 20 phases, got {decided}"
        );
        // The tally adaptation gives statistical (not absolute) agreement:
        // wrong decisions must stay rare outliers.
        assert!(
            decided_one * 100 >= decided * 95,
            "an 80% majority must dominate decisions: {decided_one}/{decided}"
        );
    }

    #[test]
    fn ben_or_ties_rerandomize_instead_of_stalling() {
        // A dead-even split with no noise: tallies keep tying, so agents
        // must keep flipping local coins rather than freeze, and everyone
        // eventually decides.  (The decisions themselves may split — with
        // per-agent tallies standing in for global quorums, a perfect tie
        // is exactly where the adaptation's statistical-agreement gap
        // shows; E13 quantifies that gap against the majority dynamics.)
        let n = 100;
        let agents = BenOrAgent::population(n, 50, 9);
        let mut sim = Simulation::new(agents, NoiselessChannel, config(n, 21)).unwrap();
        let rounds = sim.run_until(20_000, |s| s.agents().iter().all(|a| a.is_done()));
        assert!(rounds < 20_000, "every agent must decide eventually");
        assert!(sim.agents().iter().all(|a| a.is_done()));
    }

    #[test]
    fn bv_broadcast_delivers_a_unanimous_value() {
        let n = 400;
        let agents = BvBroadcastAgent::population(n, n, 12);
        let mut sim = Simulation::new(agents, NoiselessChannel, config(n, 3)).unwrap();
        sim.run(96);
        let delivered = sim
            .agents()
            .iter()
            .filter(|a| a.bin_value(Opinion::One))
            .count();
        assert!(
            delivered * 100 >= n * 95,
            "a unanimous One must reach almost every bin_values, got {delivered}/{n}"
        );
        assert!(
            sim.agents().iter().all(|a| !a.bin_value(Opinion::Zero)),
            "Zero was never proposed and must not be delivered"
        );
    }

    #[test]
    fn bv_broadcast_echoes_a_minority_value_it_heard_often_enough() {
        // With a 50/50 split both values clear the third-of-tally echo
        // threshold, so agents end up re-broadcasting both (alternating by
        // round parity) even though neither reaches delivery.
        let n = 400;
        let agents = BvBroadcastAgent::population(n, 200, 12);
        let mut sim = Simulation::new(agents, NoiselessChannel, config(n, 5)).unwrap();
        sim.run(48);
        let echoing_both = sim
            .agents()
            .iter()
            .filter(|a| a.is_broadcasting(Opinion::Zero) && a.is_broadcasting(Opinion::One))
            .count();
        assert!(
            echoing_both > n / 2,
            "an even split should echo both values widely, got {echoing_both}/{n}"
        );
    }

    #[test]
    fn safe_bbc_decides_the_majority_value() {
        let n = 600;
        let agents = SafeBbcAgent::population(n, 480, 15);
        let channel = BinarySymmetricChannel::from_epsilon(0.4).unwrap();
        let mut sim = Simulation::new(agents, channel, config(n, 8)).unwrap();
        sim.run(600);
        let decided_one = sim
            .agents()
            .iter()
            .filter(|a| a.decided() == Some(Opinion::One))
            .count();
        let decided = sim.agents().iter().filter(|a| a.is_done()).count();
        assert!(decided > n / 2, "most agents should decide, got {decided}");
        assert!(
            decided_one * 100 >= decided * 95,
            "an 80% majority must dominate decisions: {decided_one}/{decided}"
        );
    }

    #[test]
    fn phase_tally_agents_are_seed_deterministic() {
        let n = 300;
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let run = |seed: u64| {
            let mut sim =
                Simulation::new(BenOrAgent::population(n, 200, 9), channel, config(n, seed))
                    .unwrap();
            sim.run(90);
            (sim.census(), sim.metrics().clone())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn zero_phase_lengths_are_rejected() {
        for result in [
            std::panic::catch_unwind(|| MajorityBoostAgent::new(Opinion::One, 0)).map(|_| ()),
            std::panic::catch_unwind(|| BenOrAgent::new(Opinion::One, 0)).map(|_| ()),
            std::panic::catch_unwind(|| BvBroadcastAgent::new(Opinion::One, 0)).map(|_| ()),
            std::panic::catch_unwind(|| SafeBbcAgent::new(Opinion::One, 0)).map(|_| ()),
        ] {
            assert!(result.is_err(), "phase_len = 0 must panic");
        }
    }
}
