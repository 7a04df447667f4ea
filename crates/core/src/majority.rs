//! The noisy majority-consensus protocol (paper Corollary 2.18).

use std::sync::Arc;

use flip_model::{
    majority_bias, BinarySymmetricChannel, FlipEngine, FlipError, Opinion, Simulation,
    SimulationConfig,
};

use crate::broadcast::BreatheAgent;
use crate::params::Params;
use crate::schedule::Schedule;

/// The initial opinionated set `A` of a majority-consensus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitialSet {
    /// Members of `A` holding the (majority) correct opinion `B`.
    pub holding_correct: usize,
    /// Members of `A` holding the minority opinion.
    pub holding_wrong: usize,
}

impl InitialSet {
    /// Creates an initial set from its two counts.
    #[must_use]
    pub fn new(holding_correct: usize, holding_wrong: usize) -> Self {
        Self {
            holding_correct,
            holding_wrong,
        }
    }

    /// Builds the smallest-wrong-count set of the given size whose
    /// majority-bias is at least `bias` (paper definition: `(A_B − A_B̄)/2|A|`).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if `bias` is not in `[0, 1/2]`.
    pub fn with_bias(size: usize, bias: f64) -> Result<Self, FlipError> {
        if !(0.0..=0.5).contains(&bias) || !bias.is_finite() {
            return Err(FlipError::InvalidParameter {
                name: "bias",
                message: format!("majority-bias must lie in [0, 0.5], got {bias}"),
            });
        }
        // bias = (correct - wrong) / (2 size)  with correct + wrong = size
        //  ⇒ correct = size/2 + bias·size.
        let correct = ((size as f64) * (0.5 + bias)).ceil() as usize;
        let correct = correct.min(size);
        Ok(Self {
            holding_correct: correct,
            holding_wrong: size - correct,
        })
    }

    /// Total size `|A|` of the initial set.
    #[must_use]
    pub fn size(&self) -> usize {
        self.holding_correct + self.holding_wrong
    }

    /// The paper's majority-bias of the set.
    #[must_use]
    pub fn majority_bias(&self) -> f64 {
        majority_bias(self.holding_correct, self.holding_wrong)
    }
}

/// The result of one noisy majority-consensus execution.
#[derive(Debug, Clone, PartialEq)]
pub struct MajorityOutcome {
    /// Population size.
    pub n: usize,
    /// Noise margin `ε`.
    pub epsilon: f64,
    /// Size of the initial opinionated set `|A|`.
    pub initial_set_size: usize,
    /// Majority-bias of the initial set.
    pub initial_majority_bias: f64,
    /// Rounds executed.
    pub total_rounds: u64,
    /// Messages (bits) pushed in total.
    pub messages_sent: u64,
    /// Fraction of all agents holding the correct opinion at the end.
    pub fraction_correct: f64,
    /// Whether every agent ended with the correct (initial-majority) opinion.
    pub all_correct: bool,
}

/// Runner for the noisy majority-consensus protocol of Corollary 2.18.
///
/// The initial set `A` enters Stage I at phase `i_A` (larger sets skip more of
/// the early growth phases); the rest of the protocol is identical to
/// broadcast.
///
/// # Example
///
/// ```
/// use breathe::{InitialSet, MajorityConsensusProtocol, Params};
/// use flip_model::Opinion;
///
/// let params = Params::practical(400, 0.3).unwrap();
/// let initial = InitialSet::new(60, 20); // bias 0.25 towards the correct opinion
/// let outcome = MajorityConsensusProtocol::new(params, Opinion::One, initial)
///     .unwrap()
///     .run_with_seed(3)
///     .unwrap();
/// assert!(outcome.fraction_correct > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct MajorityConsensusProtocol {
    params: Params,
    correct: Opinion,
    initial: InitialSet,
    schedule: Arc<Schedule>,
}

impl MajorityConsensusProtocol {
    /// Creates a majority-consensus runner.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if the initial set is empty,
    /// does not fit in the population, or does not have a strict majority for
    /// `correct`.
    pub fn new(params: Params, correct: Opinion, initial: InitialSet) -> Result<Self, FlipError> {
        if initial.size() == 0 {
            return Err(FlipError::InvalidParameter {
                name: "initial_set",
                message: "the initial opinionated set must not be empty".to_string(),
            });
        }
        if initial.size() > params.n() {
            return Err(FlipError::InvalidParameter {
                name: "initial_set",
                message: format!(
                    "initial set of {} agents exceeds the population of {}",
                    initial.size(),
                    params.n()
                ),
            });
        }
        if initial.holding_correct <= initial.holding_wrong {
            return Err(FlipError::InvalidParameter {
                name: "initial_set",
                message: "the correct opinion must hold a strict majority of the initial set"
                    .to_string(),
            });
        }
        let schedule = Arc::new(Schedule::majority_consensus(&params, initial.size()));
        Ok(Self {
            params,
            correct,
            initial,
            schedule,
        })
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

    /// The initial opinionated set.
    #[must_use]
    pub fn initial_set(&self) -> InitialSet {
        self.initial
    }

    /// Builds the population: the first `|A|` agents are opinionated, the rest dormant.
    ///
    /// Positions carry no meaning in the anonymous push-gossip model, so
    /// placing the opinionated agents first is without loss of generality.
    #[must_use]
    pub fn build_agents(&self) -> Vec<BreatheAgent> {
        let mut agents = Vec::with_capacity(self.params.n());
        for _ in 0..self.initial.holding_correct {
            agents.push(BreatheAgent::informed(self.schedule.clone(), self.correct));
        }
        for _ in 0..self.initial.holding_wrong {
            agents.push(BreatheAgent::informed(
                self.schedule.clone(),
                self.correct.flipped(),
            ));
        }
        for _ in self.initial.size()..self.params.n() {
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

    /// Runs one execution.
    ///
    /// # Errors
    ///
    /// Propagates [`FlipError`] from channel or engine construction.
    pub fn run_with_seed(&self, seed: u64) -> Result<MajorityOutcome, FlipError> {
        let mut sim = self.build_simulation(seed)?;
        Ok(self.run_simulation(&mut sim))
    }

    /// Runs an already-built simulation (see [`Self::build_simulation`])
    /// through the full schedule.  Splitting construction from execution
    /// lets callers configure the engine first — enable telemetry, say —
    /// without changing the run.
    pub fn run_simulation(
        &self,
        sim: &mut Simulation<BreatheAgent, BinarySymmetricChannel>,
    ) -> MajorityOutcome {
        sim.run(self.schedule.total_rounds());
        let census = sim.census();
        MajorityOutcome {
            n: self.params.n(),
            epsilon: self.params.epsilon(),
            initial_set_size: self.initial.size(),
            initial_majority_bias: self.initial.majority_bias(),
            total_rounds: self.schedule.total_rounds(),
            messages_sent: sim.metrics().messages_sent,
            fraction_correct: census.fraction_correct(self.correct),
            all_correct: census.is_unanimous(self.correct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_set_bias_constructor_matches_definition() {
        let set = InitialSet::with_bias(100, 0.2).unwrap();
        assert_eq!(set.size(), 100);
        assert!(set.majority_bias() >= 0.2);
        assert!(set.majority_bias() < 0.26);

        let unanimous = InitialSet::with_bias(40, 0.5).unwrap();
        assert_eq!(unanimous.holding_wrong, 0);
        assert!((unanimous.majority_bias() - 0.5).abs() < 1e-12);

        assert!(InitialSet::with_bias(10, 0.7).is_err());
        assert!(InitialSet::with_bias(10, -0.1).is_err());
    }

    #[test]
    fn constructor_validates_the_initial_set() {
        let params = Params::practical(200, 0.3).unwrap();
        assert!(MajorityConsensusProtocol::new(
            params.clone(),
            Opinion::One,
            InitialSet::new(0, 0)
        )
        .is_err());
        assert!(MajorityConsensusProtocol::new(
            params.clone(),
            Opinion::One,
            InitialSet::new(150, 100)
        )
        .is_err());
        assert!(MajorityConsensusProtocol::new(
            params.clone(),
            Opinion::One,
            InitialSet::new(10, 10)
        )
        .is_err());
        assert!(
            MajorityConsensusProtocol::new(params, Opinion::One, InitialSet::new(30, 10)).is_ok()
        );
    }

    #[test]
    fn consensus_reaches_the_initial_majority() {
        let params = Params::practical(300, 0.3).unwrap();
        let initial = InitialSet::new(70, 30);
        let protocol = MajorityConsensusProtocol::new(params, Opinion::Zero, initial).unwrap();
        let outcome = protocol.run_with_seed(4).unwrap();
        assert!(outcome.fraction_correct > 0.9, "outcome = {outcome:?}");
        assert_eq!(outcome.initial_set_size, 100);
        assert!((outcome.initial_majority_bias - 0.2).abs() < 1e-12);
    }

    #[test]
    fn works_when_everyone_starts_opinionated() {
        let params = Params::practical(200, 0.3).unwrap();
        let initial = InitialSet::new(130, 70);
        let protocol = MajorityConsensusProtocol::new(params, Opinion::One, initial).unwrap();
        let outcome = protocol.run_with_seed(8).unwrap();
        assert!(outcome.fraction_correct > 0.9, "outcome = {outcome:?}");
    }

    #[test]
    fn build_agents_places_the_initial_set() {
        let params = Params::practical(100, 0.35).unwrap();
        let initial = InitialSet::new(20, 10);
        let protocol = MajorityConsensusProtocol::new(params, Opinion::One, initial).unwrap();
        let agents = protocol.build_agents();
        use flip_model::Agent;
        let correct = agents
            .iter()
            .filter(|a| a.opinion() == Some(Opinion::One))
            .count();
        let wrong = agents
            .iter()
            .filter(|a| a.opinion() == Some(Opinion::Zero))
            .count();
        assert_eq!(correct, 20);
        assert_eq!(wrong, 10);
        assert_eq!(agents.len(), 100);
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let params = Params::practical(150, 0.35).unwrap();
        let initial = InitialSet::new(40, 20);
        let protocol = MajorityConsensusProtocol::new(params, Opinion::One, initial).unwrap();
        assert_eq!(
            protocol.run_with_seed(2).unwrap(),
            protocol.run_with_seed(2).unwrap()
        );
    }
}
