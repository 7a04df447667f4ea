//! Built-in [`DenseProtocol`] state machines.
//!
//! These are the dense counterparts of the simplest per-agent dynamics the
//! workspace uses: rumor spreading ([`RumorProtocol`], the counts-based twin
//! of the "adopt the first bit you hear" agent), the noisy voter update
//! ([`VoterProtocol`]) and phase-wise majority sampling
//! ([`MajoritySamplerProtocol`], the dense analogue of the paper's Stage II
//! boosting).  Protocol crates can define their own machines; these three
//! cover the scaling and consensus experiments and the equivalence tests.

use crate::agent::{Agent, OpinionDelta, Round};
use crate::dense::{DensePopulation, DenseProtocol};
use crate::opinion::Opinion;
use crate::rng::SimRng;
use crate::stratified::{StratifiedPopulation, StratifiedProtocol};

/// Dense rumor spreading: opinionated agents push their opinion every round,
/// undecided agents stay silent and adopt the first (possibly corrupted) bit
/// they accept, and opinionated agents never change their mind.
///
/// This is exactly the aggregate behaviour of the per-agent `Adopter` used
/// throughout the engine tests, which makes it the reference workload for the
/// dense-vs-agents equivalence suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RumorProtocol;

impl RumorProtocol {
    const UNDECIDED: usize = 0;
    const HOLDING_ZERO: usize = 1;
    const HOLDING_ONE: usize = 2;

    /// Builds the state counts for `n` agents of which `zeros` hold
    /// [`Opinion::Zero`], `ones` hold [`Opinion::One`] and the rest are
    /// undecided.
    ///
    /// # Panics
    ///
    /// Panics if `zeros + ones > n` or the population has fewer than two
    /// agents.
    #[must_use]
    pub fn population(n: u64, zeros: u64, ones: u64) -> DensePopulation {
        assert!(zeros + ones <= n, "more opinions than agents");
        DensePopulation::from_counts(vec![n - zeros - ones, zeros, ones])
            .expect("population has at least two agents")
    }
}

impl DenseProtocol for RumorProtocol {
    fn state_count(&self) -> usize {
        3
    }

    fn send(&self, state: usize, _round: Round) -> Option<(Opinion, f64)> {
        match state {
            Self::HOLDING_ZERO => Some((Opinion::Zero, 1.0)),
            Self::HOLDING_ONE => Some((Opinion::One, 1.0)),
            _ => None,
        }
    }

    fn on_receive(&self, state: usize, heard: Opinion, _round: Round) -> usize {
        if state == Self::UNDECIDED {
            Self::HOLDING_ZERO + heard.index()
        } else {
            state
        }
    }

    fn opinion_of(&self, state: usize) -> Option<Opinion> {
        match state {
            Self::HOLDING_ZERO => Some(Opinion::Zero),
            Self::HOLDING_ONE => Some(Opinion::One),
            _ => None,
        }
    }
}

/// The per-agent twin of [`RumorProtocol`], for running the same rumor
/// dynamics on the reference [`Simulation`](crate::Simulation) engine: silent
/// until it hears a bit, then adopts it and pushes it forever.
///
/// Keeping the twin next to its dense counterpart guarantees the
/// dense-vs-agents equivalence suite and the backend-switching experiments
/// exercise one shared definition of the dynamics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RumorAgent {
    opinion: Option<Opinion>,
}

impl RumorAgent {
    /// An agent already holding `opinion` (`None` for an undecided agent).
    #[must_use]
    pub fn new(opinion: Option<Opinion>) -> Self {
        Self { opinion }
    }

    /// Builds the per-agent population matching
    /// [`RumorProtocol::population`]: `zeros` agents holding
    /// [`Opinion::Zero`], then `ones` holding [`Opinion::One`], then
    /// undecided agents up to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `zeros + ones > n`.
    #[must_use]
    pub fn population(n: usize, zeros: usize, ones: usize) -> Vec<Self> {
        assert!(zeros + ones <= n, "more opinions than agents");
        (0..n)
            .map(|i| {
                Self::new(if i < zeros {
                    Some(Opinion::Zero)
                } else if i < zeros + ones {
                    Some(Opinion::One)
                } else {
                    None
                })
            })
            .collect()
    }
}

impl Agent for RumorAgent {
    const RNG_FREE_HOOKS: bool = true;

    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        self.opinion
    }

    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        if self.opinion.is_none() {
            self.opinion = Some(message);
            OpinionDelta::adopted(message)
        } else {
            OpinionDelta::NONE
        }
    }

    fn opinion(&self) -> Option<Opinion> {
        self.opinion
    }
}

/// The dense noisy voter model: every agent pushes its current opinion every
/// round and adopts whatever (possibly corrupted) bit it accepts.
///
/// All agents are always opinionated; state `s` holds the opinion with bit
/// value `s`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoterProtocol;

impl DenseProtocol for VoterProtocol {
    fn state_count(&self) -> usize {
        2
    }

    fn send(&self, state: usize, _round: Round) -> Option<(Opinion, f64)> {
        Some((Opinion::from_bit(state as u8), 1.0))
    }

    fn on_receive(&self, _state: usize, heard: Opinion, _round: Round) -> usize {
        heard.index()
    }

    fn opinion_of(&self, state: usize) -> Option<Opinion> {
        Some(Opinion::from_bit(state as u8))
    }
}

/// Dense phase-wise majority sampling — the aggregate analogue of the paper's
/// Stage II ("speak") boosting.
///
/// Time is divided into phases of `phase_len` rounds.  Within a phase every
/// agent pushes its current opinion each round while tallying the bits it
/// accepts; at the end of the phase it adopts the majority of its tally
/// (keeping its opinion on a tie or an empty tally) and resets.  Each phase
/// multiplies a small population bias by `Θ(ε·√phase_len)`, which is the
/// boost of Lemma 2.11 in aggregate form.
///
/// The state encodes `(opinion, ones heard, total heard)` with both tallies
/// capped at `phase_len`, so the machine has `(L+1)(L+2)` states for
/// `L = phase_len` — constant in `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajoritySamplerProtocol {
    phase_len: u64,
    /// Number of `(ones, total)` tally combinations: (L+1)(L+2)/2.
    tally_states: usize,
}

impl MajoritySamplerProtocol {
    /// Creates a sampler with the given phase length (tallies are capped at
    /// `phase_len`, which is also the number of rounds per phase).
    ///
    /// # Panics
    ///
    /// Panics if `phase_len` is zero.
    #[must_use]
    pub fn new(phase_len: u64) -> Self {
        assert!(phase_len > 0, "phases need at least one round");
        let l = phase_len as usize;
        Self {
            phase_len,
            tally_states: (l + 1) * (l + 2) / 2,
        }
    }

    /// The configured phase length in rounds.
    #[must_use]
    pub fn phase_len(&self) -> u64 {
        self.phase_len
    }

    /// Builds the state counts for a fully opinionated population with
    /// `zeros + ones` agents and empty tallies.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents.
    #[must_use]
    pub fn population(&self, zeros: u64, ones: u64) -> DensePopulation {
        let mut counts = vec![0u64; DenseProtocol::state_count(self)];
        counts[self.encode(Opinion::Zero, 0, 0)] = zeros;
        counts[self.encode(Opinion::One, 0, 0)] = ones;
        DensePopulation::from_counts(counts).expect("population has at least two agents")
    }

    /// Packs `(opinion, ones, total)` into a state index; tallies are stored
    /// triangularly since `ones <= total`.
    fn encode(&self, opinion: Opinion, ones: u64, total: u64) -> usize {
        debug_assert!(ones <= total && total <= self.phase_len);
        let t = total as usize;
        opinion.index() * self.tally_states + t * (t + 1) / 2 + ones as usize
    }

    fn decode(&self, state: usize) -> (Opinion, u64, u64) {
        let opinion = Opinion::from_bit(u8::from(state >= self.tally_states));
        let mut tally = state % self.tally_states;
        let mut total = 0usize;
        while tally > total {
            tally -= total + 1;
            total += 1;
        }
        (opinion, tally as u64, total as u64)
    }

    fn is_phase_end(&self, round: Round) -> bool {
        (round + 1).is_multiple_of(self.phase_len)
    }
}

impl DenseProtocol for MajoritySamplerProtocol {
    fn state_count(&self) -> usize {
        2 * self.tally_states
    }

    fn send(&self, state: usize, _round: Round) -> Option<(Opinion, f64)> {
        let (opinion, _, _) = self.decode(state);
        Some((opinion, 1.0))
    }

    fn on_receive(&self, state: usize, heard: Opinion, _round: Round) -> usize {
        let (opinion, ones, total) = self.decode(state);
        if total >= self.phase_len {
            return state;
        }
        self.encode(opinion, ones + u64::from(heard.as_bit()), total + 1)
    }

    fn on_round_end(&self, state: usize, round: Round) -> usize {
        if !self.is_phase_end(round) {
            return state;
        }
        let (opinion, ones, total) = self.decode(state);
        let next = match (2 * ones).cmp(&total) {
            std::cmp::Ordering::Greater => Opinion::One,
            std::cmp::Ordering::Less => Opinion::Zero,
            std::cmp::Ordering::Equal => opinion,
        };
        self.encode(next, 0, 0)
    }

    fn opinion_of(&self, state: usize) -> Option<Opinion> {
        let (opinion, _, _) = self.decode(state);
        Some(opinion)
    }
}

/// Stratified rumor spreading infiltrated by **zealots**: stratum 0 runs the
/// honest [`RumorProtocol`] dynamics, stratum 1 is a fixed subpopulation that
/// pushes [`Opinion::Zero`] every round and never listens.
///
/// This is the workspace's canonical *heterogeneous* scenario — two agent
/// classes with different send tables sharing one message pool — and the
/// reason the stratified engine exists: it has no single-stratum dense form,
/// so before strata it only ran on the per-agent engine (capping it near
/// `n ≈ 10⁵`).  [`ZealotAgent`] is its per-agent twin for the equivalence
/// suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZealotRumorProtocol;

impl ZealotRumorProtocol {
    /// Stratum index of the honest rumor-spreading subpopulation.
    pub const HONEST: usize = 0;
    /// Stratum index of the zealot subpopulation.
    pub const ZEALOTS: usize = 1;

    /// Builds the stratified counts for `n` agents total: `zealots` zealots,
    /// and among the `n − zealots` honest agents `zeros`/`ones` opinionated
    /// seeds with the rest undecided.
    ///
    /// # Panics
    ///
    /// Panics if `zeros + ones + zealots > n` or the population has fewer
    /// than two agents.
    #[must_use]
    pub fn population(n: u64, zeros: u64, ones: u64, zealots: u64) -> StratifiedPopulation {
        assert!(zeros + ones + zealots <= n, "more opinions than agents");
        let honest = n - zealots;
        StratifiedPopulation::from_strata(vec![
            vec![honest - zeros - ones, zeros, ones],
            vec![zealots],
        ])
        .expect("population has at least two agents")
    }
}

impl StratifiedProtocol for ZealotRumorProtocol {
    fn stratum_count(&self) -> usize {
        2
    }

    fn state_count(&self, stratum: usize) -> usize {
        if stratum == Self::ZEALOTS {
            1
        } else {
            DenseProtocol::state_count(&RumorProtocol)
        }
    }

    fn send(&self, stratum: usize, state: usize, round: Round) -> Option<(Opinion, f64)> {
        if stratum == Self::ZEALOTS {
            Some((Opinion::Zero, 1.0))
        } else {
            DenseProtocol::send(&RumorProtocol, state, round)
        }
    }

    fn on_receive(&self, stratum: usize, state: usize, heard: Opinion, round: Round) -> usize {
        if stratum == Self::ZEALOTS {
            state
        } else {
            DenseProtocol::on_receive(&RumorProtocol, state, heard, round)
        }
    }

    fn opinion_of(&self, stratum: usize, state: usize) -> Option<Opinion> {
        if stratum == Self::ZEALOTS {
            Some(Opinion::Zero)
        } else {
            DenseProtocol::opinion_of(&RumorProtocol, state)
        }
    }
}

/// The per-agent twin of [`ZealotRumorProtocol`], for running the zealot
/// scenario on the reference [`Simulation`](crate::Simulation) engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZealotAgent {
    /// An honest rumor-spreading agent.
    Honest(RumorAgent),
    /// A zealot: pushes [`Opinion::Zero`] every round, never listens.
    Zealot,
}

impl ZealotAgent {
    /// Builds the per-agent population matching
    /// [`ZealotRumorProtocol::population`]: the honest agents first (in
    /// [`RumorAgent::population`] order), then the zealots.
    ///
    /// # Panics
    ///
    /// Panics if `zeros + ones + zealots > n`.
    #[must_use]
    pub fn population(n: usize, zeros: usize, ones: usize, zealots: usize) -> Vec<Self> {
        assert!(zeros + ones + zealots <= n, "more opinions than agents");
        RumorAgent::population(n - zealots, zeros, ones)
            .into_iter()
            .map(ZealotAgent::Honest)
            .chain((0..zealots).map(|_| ZealotAgent::Zealot))
            .collect()
    }
}

impl Agent for ZealotAgent {
    const RNG_FREE_HOOKS: bool = true;

    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, round: Round, rng: &mut SimRng) -> Option<Opinion> {
        match self {
            ZealotAgent::Honest(agent) => agent.send(round, rng),
            ZealotAgent::Zealot => Some(Opinion::Zero),
        }
    }

    fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
        match self {
            ZealotAgent::Honest(agent) => agent.deliver(round, message, rng),
            ZealotAgent::Zealot => OpinionDelta::NONE,
        }
    }

    fn opinion(&self) -> Option<Opinion> {
        match self {
            ZealotAgent::Honest(agent) => agent.opinion(),
            ZealotAgent::Zealot => Some(Opinion::Zero),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::BinarySymmetricChannel;
    use crate::config::SimulationConfig;
    use crate::dense::DenseSimulation;
    use crate::engine::FlipEngine;
    use crate::stratified::StratifiedSimulation;

    #[test]
    fn rumor_population_splits_counts() {
        let p = RumorProtocol::population(100, 10, 20);
        assert_eq!(p.counts(), &[70, 10, 20]);
        assert_eq!(p.census(&RumorProtocol).active(), 30);
    }

    #[test]
    #[should_panic(expected = "more opinions than agents")]
    fn rumor_population_rejects_overfull_seeds() {
        let _ = RumorProtocol::population(10, 6, 6);
    }

    #[test]
    fn voter_states_map_to_opinions() {
        // UFCS throughout: the stratified blanket impl gives every dense
        // protocol a second set of method names differing only in arity.
        let voter = &VoterProtocol;
        assert_eq!(DenseProtocol::opinion_of(voter, 0), Some(Opinion::Zero));
        assert_eq!(DenseProtocol::opinion_of(voter, 1), Some(Opinion::One));
        assert_eq!(DenseProtocol::on_receive(voter, 0, Opinion::One, 0), 1);
        assert_eq!(DenseProtocol::send(voter, 1, 0), Some((Opinion::One, 1.0)));
    }

    #[test]
    fn sampler_encoding_round_trips() {
        let sampler = MajoritySamplerProtocol::new(7);
        for op in Opinion::ALL {
            for total in 0..=7u64 {
                for ones in 0..=total {
                    let state = sampler.encode(op, ones, total);
                    assert!(state < DenseProtocol::state_count(&sampler));
                    assert_eq!(sampler.decode(state), (op, ones, total));
                }
            }
        }
    }

    #[test]
    fn sampler_tallies_and_resets_at_phase_end() {
        let sampler = MajoritySamplerProtocol::new(5);
        let start = sampler.encode(Opinion::Zero, 0, 0);
        // Hear two ones and a zero mid-phase.
        let s = DenseProtocol::on_receive(&sampler, start, Opinion::One, 0);
        let s = DenseProtocol::on_receive(&sampler, s, Opinion::One, 1);
        let s = DenseProtocol::on_receive(&sampler, s, Opinion::Zero, 2);
        assert_eq!(sampler.decode(s), (Opinion::Zero, 2, 3));
        // Mid-phase round ends keep the tally.
        assert_eq!(DenseProtocol::on_round_end(&sampler, s, 2), s);
        // The phase ends after round 4: majority of (2 ones / 3) flips to One.
        let ended = DenseProtocol::on_round_end(&sampler, s, 4);
        assert_eq!(sampler.decode(ended), (Opinion::One, 0, 0));
    }

    #[test]
    fn sampler_keeps_opinion_on_tie_or_silence() {
        let sampler = MajoritySamplerProtocol::new(4);
        let s = sampler.encode(Opinion::One, 1, 2);
        assert_eq!(
            sampler.decode(DenseProtocol::on_round_end(&sampler, s, 3)),
            (Opinion::One, 0, 0)
        );
        let silent = sampler.encode(Opinion::Zero, 0, 0);
        assert_eq!(
            sampler.decode(DenseProtocol::on_round_end(&sampler, silent, 3)),
            (Opinion::Zero, 0, 0)
        );
    }

    #[test]
    fn sampler_caps_tally_at_phase_len() {
        let sampler = MajoritySamplerProtocol::new(2);
        let full = sampler.encode(Opinion::Zero, 1, 2);
        assert_eq!(
            DenseProtocol::on_receive(&sampler, full, Opinion::One, 0),
            full
        );
    }

    #[test]
    fn zealot_populations_match_across_engines() {
        let dense = ZealotRumorProtocol::population(100, 5, 10, 20);
        assert_eq!(dense.n(), 100);
        assert_eq!(
            dense.stratum(ZealotRumorProtocol::HONEST).counts(),
            &[65, 5, 10]
        );
        assert_eq!(dense.stratum(ZealotRumorProtocol::ZEALOTS).counts(), &[20]);
        let agents = ZealotAgent::population(100, 5, 10, 20);
        assert_eq!(agents.len(), 100);
        let zealots = agents
            .iter()
            .filter(|a| matches!(a, ZealotAgent::Zealot))
            .count();
        assert_eq!(zealots, 20);
        // Both censuses agree: zealots hold Zero, honest seeds as assigned.
        let census = dense.census(&ZealotRumorProtocol);
        assert_eq!(census.holding(Opinion::Zero), 25);
        assert_eq!(census.holding(Opinion::One), 10);
    }

    #[test]
    fn zealots_drag_the_population_towards_zero() {
        // 10% zealots vs a One-seeded rumor: once everyone is activated, far
        // more than the noise floor holds Zero.
        let population = ZealotRumorProtocol::population(100_000, 0, 100, 10_000);
        let config = SimulationConfig::new(100_000)
            .with_seed(13)
            .with_reference(Opinion::One);
        let channel = BinarySymmetricChannel::from_epsilon(0.4).unwrap();
        let mut sim =
            StratifiedSimulation::new(ZealotRumorProtocol, vec![channel; 2], population, config)
                .unwrap();
        sim.run_until(500, |s| s.census().active() == 100_000);
        assert_eq!(sim.census().active(), 100_000);
        let zero_share = sim.census().holding(Opinion::Zero) as f64 / 100_000.0;
        // eps = 0.4 noise alone corrupts only 10% of deliveries; zealots push
        // the Zero share well above that.
        assert!(zero_share > 0.2, "zero share = {zero_share}");
    }

    #[test]
    fn sampler_amplifies_a_small_bias() {
        // 52/48 initial split, eps = 0.3 noise, a dozen boost phases: the
        // majority should grow well beyond its initial margin (Lemma 2.11 in
        // aggregate form).
        let sampler = MajoritySamplerProtocol::new(11);
        let population = sampler.population(48_000, 52_000);
        let config = SimulationConfig::new(100_000)
            .with_seed(11)
            .with_reference(Opinion::One);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let mut sim = DenseSimulation::new(sampler, channel, population, config).unwrap();
        sim.run(11 * 12);
        let fraction = sim.census().fraction_correct(Opinion::One);
        assert!(fraction > 0.9, "fraction correct = {fraction}");
    }
}
