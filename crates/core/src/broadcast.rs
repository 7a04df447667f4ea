//! The noisy broadcast protocol (paper §2, Theorem 2.17) in the
//! fully-synchronous setting.

use std::sync::Arc;

use flip_model::{
    Agent, BinarySymmetricChannel, Census, FlipError, Opinion, OpinionDelta, Round, SimRng,
    Simulation, SimulationConfig,
};

use crate::agent_core::ProtocolCore;
use crate::params::Params;
use crate::schedule::{Schedule, StageKind};
use crate::stage1::Stage1State;

/// A fully-synchronous agent running the two-stage protocol.
///
/// The agent maps the engine's global round directly to the phase schedule —
/// this is the fully-synchronous setting of paper §2 where all clocks start at
/// zero together.
#[derive(Debug, Clone)]
pub struct BreatheAgent {
    core: ProtocolCore,
}

impl BreatheAgent {
    /// Creates an agent with no initial information.
    #[must_use]
    pub fn uninformed(schedule: Arc<Schedule>) -> Self {
        Self {
            core: ProtocolCore::new(schedule, Stage1State::uninformed()),
        }
    }

    /// Creates an initially informed agent (the source, or a member of the
    /// initial set of the majority-consensus problem).
    #[must_use]
    pub fn informed(schedule: Arc<Schedule>, opinion: Opinion) -> Self {
        Self {
            core: ProtocolCore::new(schedule, Stage1State::informed(opinion)),
        }
    }

    /// The spreading phase in which the agent was activated, if any.
    #[must_use]
    pub fn level(&self) -> Option<usize> {
        self.core.stage1().level()
    }

    /// The initial opinion adopted at the end of the activation phase, if any.
    #[must_use]
    pub fn initial_opinion(&self) -> Option<Opinion> {
        self.core.stage1().initial_opinion()
    }

    /// Whether the agent started the execution already informed.
    #[must_use]
    pub fn is_initially_informed(&self) -> bool {
        self.core.stage1().is_initially_informed()
    }
}

impl Agent for BreatheAgent {
    #[inline(always)]
    fn send(&mut self, round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        self.core.send(round)
    }

    #[inline(always)]
    fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
        self.core.deliver(round, message, rng);
        OpinionDelta::NONE
    }

    #[inline]
    fn end_round(&mut self, round: Round, rng: &mut SimRng) -> OpinionDelta {
        self.core.end_round(round, rng)
    }

    #[inline]
    fn next_end_round(&self, round: Round) -> Round {
        self.core.window_last(round).unwrap_or(Round::MAX)
    }

    fn opinion(&self) -> Option<Opinion> {
        self.core.opinion()
    }

    fn is_done(&self) -> bool {
        false
    }
}

/// The result of one noisy-broadcast execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastOutcome {
    /// Population size.
    pub n: usize,
    /// Noise margin `ε`.
    pub epsilon: f64,
    /// The correct opinion held by the source.
    pub correct: Opinion,
    /// Rounds executed in total.
    pub total_rounds: u64,
    /// Rounds spent in Stage I.
    pub stage1_rounds: u64,
    /// Total messages (= bits) pushed.
    pub messages_sent: u64,
    /// Agents holding *any* opinion at the end of Stage I.
    pub active_after_stage1: usize,
    /// Fraction of all agents holding the correct opinion at the end of Stage I.
    pub fraction_correct_after_stage1: f64,
    /// Fraction of all agents holding the correct opinion at the end.
    pub fraction_correct: f64,
    /// Whether every agent ended with the correct opinion.
    pub all_correct: bool,
}

/// Per-level statistics of Stage I (one entry per spreading phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Agents activated during this spreading phase (`Y_i` in the paper).
    pub activated: usize,
    /// Among them, agents whose initial opinion equals the correct opinion (`Z_i`).
    pub initially_correct: usize,
}

impl LevelStats {
    /// The level's bias towards the correct opinion
    /// (`ε_i` in the paper: fraction correct minus one half).
    #[must_use]
    pub fn bias(&self) -> f64 {
        if self.activated == 0 {
            0.0
        } else {
            self.initially_correct as f64 / self.activated as f64 - 0.5
        }
    }
}

/// Detailed per-phase view of one broadcast execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedOutcome {
    /// The headline outcome.
    pub outcome: BroadcastOutcome,
    /// Stage I statistics per level (index = spreading phase).
    pub levels: Vec<LevelStats>,
    /// Fraction of agents holding the correct opinion after each phase of the
    /// schedule (Stage I and Stage II phases alike, in order).
    pub fraction_correct_after_phase: Vec<f64>,
    /// Number of active agents after each phase of the schedule.
    pub active_after_phase: Vec<usize>,
}

/// Runner for the noisy broadcast protocol of Theorem 2.17.
///
/// # Example
///
/// ```
/// use breathe::{BroadcastProtocol, Params};
/// use flip_model::Opinion;
///
/// let params = Params::practical(400, 0.3).unwrap();
/// let outcome = BroadcastProtocol::new(params, Opinion::One)
///     .run_with_seed(1)
///     .unwrap();
/// assert!(outcome.fraction_correct > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct BroadcastProtocol {
    params: Params,
    correct: Opinion,
    schedule: Arc<Schedule>,
}

impl BroadcastProtocol {
    /// Creates a broadcast runner whose source holds `correct`.
    #[must_use]
    pub fn new(params: Params, correct: Opinion) -> Self {
        let schedule = Arc::new(Schedule::broadcast(&params));
        Self {
            params,
            correct,
            schedule,
        }
    }

    /// The parameters of this instance.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The phase schedule of this instance.
    #[must_use]
    pub fn schedule(&self) -> &Arc<Schedule> {
        &self.schedule
    }

    /// The correct opinion held by the source.
    #[must_use]
    pub fn correct(&self) -> Opinion {
        self.correct
    }

    /// Builds the population: agent `0` is the source, everyone else is uninformed.
    #[must_use]
    pub fn build_agents(&self) -> Vec<BreatheAgent> {
        let mut agents = Vec::with_capacity(self.params.n());
        agents.push(BreatheAgent::informed(self.schedule.clone(), self.correct));
        for _ in 1..self.params.n() {
            agents.push(BreatheAgent::uninformed(self.schedule.clone()));
        }
        agents
    }

    /// Builds the simulation (agents, channel and configuration) for one run.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from channel or engine construction.
    pub fn build_simulation(
        &self,
        seed: u64,
    ) -> Result<Simulation<BreatheAgent, BinarySymmetricChannel>, FlipError> {
        let channel = BinarySymmetricChannel::from_epsilon(self.params.epsilon())?;
        let config = SimulationConfig::new(self.params.n())
            .with_seed(seed)
            .with_reference(self.correct);
        Simulation::new(self.build_agents(), channel, config)
    }

    /// Runs one execution and reports the headline outcome.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from simulation construction.
    pub fn run_with_seed(&self, seed: u64) -> Result<BroadcastOutcome, FlipError> {
        let mut sim = self.build_simulation(seed)?;
        Ok(self.run_simulation(&mut sim))
    }

    /// Runs an already-built simulation (see [`Self::build_simulation`])
    /// through the full schedule and reports the headline outcome.
    ///
    /// Splitting construction from execution lets callers configure the
    /// engine first — enable telemetry, say — without changing the run:
    /// `run_with_seed` is exactly `build_simulation` + `run_simulation`.
    pub fn run_simulation(
        &self,
        sim: &mut Simulation<BreatheAgent, BinarySymmetricChannel>,
    ) -> BroadcastOutcome {
        let stage1_rounds = self.schedule.spreading_rounds();
        sim.run(stage1_rounds);
        let stage1_census = sim.census();
        sim.run(self.schedule.total_rounds() - stage1_rounds);
        self.outcome_from(&sim.census(), &stage1_census, sim.metrics().messages_sent)
    }

    /// Runs one execution, recording per-phase statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from simulation construction.
    pub fn run_detailed(&self, seed: u64) -> Result<DetailedOutcome, FlipError> {
        let mut sim = self.build_simulation(seed)?;
        let mut fraction_correct_after_phase = Vec::with_capacity(self.schedule.phase_count());
        let mut active_after_phase = Vec::with_capacity(self.schedule.phase_count());
        let mut stage1_census = Census::from_counts(0, 0, self.params.n());
        for (idx, phase) in self.schedule.phases().iter().enumerate() {
            sim.run(phase.len);
            let census = sim.census();
            fraction_correct_after_phase.push(census.fraction_correct(self.correct));
            active_after_phase.push(census.active());
            if idx == self.schedule.last_spreading_phase() {
                stage1_census = census;
            }
        }
        let final_census = sim.census();
        let messages = sim.metrics().messages_sent;
        let levels = self.level_stats(sim.agents());
        Ok(DetailedOutcome {
            outcome: self.outcome_from(&final_census, &stage1_census, messages),
            levels,
            fraction_correct_after_phase,
            active_after_phase,
        })
    }

    fn level_stats(&self, agents: &[BreatheAgent]) -> Vec<LevelStats> {
        let mut levels = vec![LevelStats::default(); self.schedule.spreading_phase_count()];
        for agent in agents {
            if agent.is_initially_informed() {
                continue;
            }
            if let (Some(level), Some(op)) = (agent.level(), agent.initial_opinion()) {
                if level < levels.len() {
                    levels[level].activated += 1;
                    if op == self.correct {
                        levels[level].initially_correct += 1;
                    }
                }
            }
        }
        levels
    }

    fn outcome_from(
        &self,
        final_census: &Census,
        stage1_census: &Census,
        messages_sent: u64,
    ) -> BroadcastOutcome {
        BroadcastOutcome {
            n: self.params.n(),
            epsilon: self.params.epsilon(),
            correct: self.correct,
            total_rounds: self.schedule.total_rounds(),
            stage1_rounds: self.schedule.spreading_rounds(),
            messages_sent,
            active_after_stage1: stage1_census.active(),
            fraction_correct_after_stage1: stage1_census.fraction_correct(self.correct),
            fraction_correct: final_census.fraction_correct(self.correct),
            all_correct: final_census.is_unanimous(self.correct),
        }
    }
}

/// Returns the phase kind of the schedule entry `phase` (handy for reports).
#[must_use]
pub fn phase_kind(schedule: &Schedule, phase: usize) -> StageKind {
    schedule.phases()[phase].kind
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_succeeds_on_a_small_noisy_population() {
        let params = Params::practical(300, 0.3).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let outcome = protocol.run_with_seed(11).unwrap();
        assert!(outcome.fraction_correct > 0.95, "outcome = {outcome:?}");
        assert_eq!(outcome.n, 300);
        assert!(outcome.messages_sent > 0);
        assert!(outcome.total_rounds > outcome.stage1_rounds);
    }

    #[test]
    fn broadcast_succeeds_for_both_source_opinions() {
        let params = Params::practical(300, 0.3).unwrap();
        for correct in Opinion::ALL {
            let protocol = BroadcastProtocol::new(params.clone(), correct);
            let outcome = protocol.run_with_seed(5).unwrap();
            assert!(
                outcome.fraction_correct > 0.9,
                "correct = {correct}, outcome = {outcome:?}"
            );
        }
    }

    #[test]
    fn stage1_activates_essentially_everyone() {
        let params = Params::practical(400, 0.3).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::Zero);
        let outcome = protocol.run_with_seed(3).unwrap();
        assert!(
            outcome.active_after_stage1 >= 398,
            "active = {}",
            outcome.active_after_stage1
        );
        // Stage I alone only guarantees a small positive bias, not consensus.
        assert!(outcome.fraction_correct_after_stage1 > 0.5);
    }

    #[test]
    fn detailed_run_reports_per_phase_and_per_level_data() {
        let params = Params::practical(300, 0.3).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let detailed = protocol.run_detailed(7).unwrap();
        assert_eq!(
            detailed.fraction_correct_after_phase.len(),
            protocol.schedule().phase_count()
        );
        assert_eq!(
            detailed.levels.len(),
            protocol.schedule().spreading_phase_count()
        );
        // Phase 0 activates a positive number of agents with a positive bias.
        assert!(detailed.levels[0].activated > 0);
        assert!(detailed.levels[0].bias() > 0.0);
        // The final fraction matches the headline outcome.
        let last = *detailed.fraction_correct_after_phase.last().unwrap();
        assert!((last - detailed.outcome.fraction_correct).abs() < 1e-12);
        // Activation counts never decrease over phases.
        for w in detailed.active_after_phase.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let params = Params::practical(200, 0.35).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let a = protocol.run_with_seed(9).unwrap();
        let b = protocol.run_with_seed(9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn build_agents_has_exactly_one_source() {
        let params = Params::practical(100, 0.35).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let agents = protocol.build_agents();
        assert_eq!(agents.len(), 100);
        assert_eq!(
            agents.iter().filter(|a| a.is_initially_informed()).count(),
            1
        );
        assert_eq!(agents[0].opinion(), Some(Opinion::One));
        assert_eq!(agents[1].opinion(), None);
    }

    #[test]
    fn phase_kind_helper_reports_stages() {
        let params = Params::practical(100, 0.35).unwrap();
        let schedule = Schedule::broadcast(&params);
        assert_eq!(phase_kind(&schedule, 0), StageKind::Spreading);
        assert_eq!(
            phase_kind(&schedule, schedule.phase_count() - 1),
            StageKind::Boosting
        );
    }
}
