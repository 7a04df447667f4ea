//! Population-level censuses: counts, fractions and biases.

use crate::agent::{Agent, OpinionDelta};
use crate::opinion::Opinion;

/// A snapshot of how many agents hold which opinion.
///
/// # Example
///
/// ```
/// use flip_model::{Census, Opinion};
///
/// let census = Census::from_counts(60, 40, 100);
/// assert_eq!(census.majority(), Some(Opinion::Zero));
/// assert!((census.fraction_correct(Opinion::Zero) - 0.6).abs() < 1e-12);
/// assert!((census.bias_towards(Opinion::Zero) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    holding: [usize; 2],
    n: usize,
}

impl Census {
    /// Builds a census directly from counts (mostly useful in tests and analysis code).
    #[must_use]
    pub fn from_counts(zeros: usize, ones: usize, n: usize) -> Self {
        Self {
            holding: [zeros, ones],
            n,
        }
    }

    /// Counts opinions over a slice of agents.
    #[must_use]
    pub fn of_agents<A: Agent>(agents: &[A]) -> Self {
        let mut holding = [0usize; 2];
        for agent in agents {
            if let Some(op) = agent.opinion() {
                holding[op.index()] += 1;
            }
        }
        Self {
            holding,
            n: agents.len(),
        }
    }

    /// Folds one agent callback's [`OpinionDelta`] into the counts.
    ///
    /// This is the O(1) update behind the engine's incremental census: the
    /// engine applies the delta each `deliver`/`end_round` returns instead of
    /// recounting all `n` agents every round.
    #[inline]
    pub fn apply(&mut self, delta: OpinionDelta) {
        if delta.before == delta.after {
            return;
        }
        if let Some(before) = delta.before {
            debug_assert!(
                self.holding[before.index()] > 0,
                "delta retracts an opinion nobody held"
            );
            self.holding[before.index()] = self.holding[before.index()].saturating_sub(1);
        }
        if let Some(after) = delta.after {
            self.holding[after.index()] += 1;
        }
    }

    /// Folds the net change of a batch of callbacks into the counts.
    pub(crate) fn absorb(&mut self, delta: CensusDelta) {
        for (held, change) in self.holding.iter_mut().zip(delta.holding) {
            debug_assert!(
                held.checked_add_signed(change).is_some(),
                "delta retracts an opinion nobody held"
            );
            *held = held.saturating_add_signed(change);
        }
    }

    /// Population size the census was taken over.
    #[must_use]
    pub fn population(&self) -> usize {
        self.n
    }

    /// Number of agents currently holding any opinion.
    #[must_use]
    pub fn active(&self) -> usize {
        self.holding[0] + self.holding[1]
    }

    /// Number of agents holding the given opinion.
    #[must_use]
    pub fn holding(&self, opinion: Opinion) -> usize {
        self.holding[opinion.index()]
    }

    /// The opinion held by strictly more agents, or `None` on a tie.
    #[must_use]
    pub fn majority(&self) -> Option<Opinion> {
        match self.holding[0].cmp(&self.holding[1]) {
            std::cmp::Ordering::Greater => Some(Opinion::Zero),
            std::cmp::Ordering::Less => Some(Opinion::One),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// Fraction of the *whole population* holding `correct`.
    #[must_use]
    pub fn fraction_correct(&self, correct: Opinion) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.holding(correct) as f64 / self.n as f64
    }

    /// Fraction of the *opinionated agents* holding `correct`.
    #[must_use]
    pub fn fraction_correct_among_active(&self, correct: Opinion) -> f64 {
        let active = self.active();
        if active == 0 {
            return 0.0;
        }
        self.holding(correct) as f64 / active as f64
    }

    /// Bias of the whole population towards `correct`: `fraction_correct − 1/2`.
    #[must_use]
    pub fn bias_towards(&self, correct: Opinion) -> f64 {
        self.fraction_correct(correct) - 0.5
    }

    /// Bias of the opinionated agents towards `correct`.
    #[must_use]
    pub fn bias_among_active(&self, correct: Opinion) -> f64 {
        self.fraction_correct_among_active(correct) - 0.5
    }

    /// Whether every agent holds the `correct` opinion.
    #[must_use]
    pub fn is_unanimous(&self, correct: Opinion) -> bool {
        self.holding(correct) == self.n
    }
}

/// The net change a batch of [`OpinionDelta`]s makes to a [`Census`]: signed
/// per-opinion counts, so engine lanes that each fold their own agents'
/// deltas can be summed in any order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CensusDelta {
    holding: [isize; 2],
}

impl CensusDelta {
    /// Adds one callback's delta (a no-op delta cancels out).
    #[inline]
    pub(crate) fn apply(&mut self, delta: OpinionDelta) {
        if let Some(before) = delta.before {
            self.holding[before.index()] -= 1;
        }
        if let Some(after) = delta.after {
            self.holding[after.index()] += 1;
        }
    }
}

/// The paper's majority-bias of an initial opinionated set (§1.3.1):
/// `(A_B − A_B̄) / (2 |A|)` where `A_B` agents hold the majority opinion `B`.
///
/// Returns `0` for an empty set.
///
/// # Example
///
/// ```
/// use flip_model::majority_bias;
///
/// // 70 agents hold B, 30 hold the other opinion: bias = (70 - 30) / (2 * 100) = 0.2.
/// assert!((majority_bias(70, 30) - 0.2).abs() < 1e-12);
/// ```
#[must_use]
pub fn majority_bias(holding_majority: usize, holding_minority: usize) -> f64 {
    let total = holding_majority + holding_minority;
    if total == 0 {
        return 0.0;
    }
    (holding_majority as f64 - holding_minority as f64) / (2.0 * total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Round;
    use crate::rng::SimRng;

    struct Fixed(Option<Opinion>);

    impl Agent for Fixed {
        fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
            None
        }
        fn deliver(&mut self, _round: Round, _message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
            OpinionDelta::NONE
        }
        fn opinion(&self) -> Option<Opinion> {
            self.0
        }
    }

    #[test]
    fn apply_folds_deltas_into_counts() {
        let mut census = Census::from_counts(2, 3, 10);
        census.apply(OpinionDelta::adopted(Opinion::One));
        assert_eq!(census.holding(Opinion::One), 4);
        assert_eq!(census.active(), 6);
        census.apply(OpinionDelta::between(
            Some(Opinion::One),
            Some(Opinion::Zero),
        ));
        assert_eq!(census.holding(Opinion::One), 3);
        assert_eq!(census.holding(Opinion::Zero), 3);
        census.apply(OpinionDelta::between(Some(Opinion::Zero), None));
        assert_eq!(census.holding(Opinion::Zero), 2);
        assert_eq!(census.active(), 5);
        // No-op deltas leave everything untouched.
        census.apply(OpinionDelta::NONE);
        census.apply(OpinionDelta::between(
            Some(Opinion::One),
            Some(Opinion::One),
        ));
        assert_eq!(census, Census::from_counts(2, 3, 10));
    }

    #[test]
    fn absorbed_deltas_match_applying_them_one_by_one() {
        let deltas = [
            OpinionDelta::adopted(Opinion::One),
            OpinionDelta::between(Some(Opinion::One), Some(Opinion::Zero)),
            OpinionDelta::NONE,
            OpinionDelta::between(Some(Opinion::Zero), Some(Opinion::Zero)),
            OpinionDelta::between(Some(Opinion::Zero), None),
            OpinionDelta::adopted(Opinion::Zero),
        ];
        let mut one_by_one = Census::from_counts(2, 3, 10);
        // Two lanes' batches, absorbed in reverse order: the sum commutes.
        let (mut first, mut second) = (CensusDelta::default(), CensusDelta::default());
        for (i, &delta) in deltas.iter().enumerate() {
            one_by_one.apply(delta);
            if i < 3 { &mut first } else { &mut second }.apply(delta);
        }
        let mut batched = Census::from_counts(2, 3, 10);
        batched.absorb(second);
        batched.absorb(first);
        assert_eq!(batched, one_by_one);
    }

    #[test]
    fn census_counts_agents() {
        let agents = vec![
            Fixed(Some(Opinion::One)),
            Fixed(Some(Opinion::One)),
            Fixed(Some(Opinion::Zero)),
            Fixed(None),
        ];
        let census = Census::of_agents(&agents);
        assert_eq!(census.population(), 4);
        assert_eq!(census.active(), 3);
        assert_eq!(census.holding(Opinion::One), 2);
        assert_eq!(census.holding(Opinion::Zero), 1);
        assert_eq!(census.majority(), Some(Opinion::One));
        assert!(!census.is_unanimous(Opinion::One));
    }

    #[test]
    fn fraction_and_bias_use_population_or_active_as_documented() {
        let census = Census::from_counts(1, 2, 4);
        assert!((census.fraction_correct(Opinion::One) - 0.5).abs() < 1e-12);
        assert!((census.fraction_correct_among_active(Opinion::One) - 2.0 / 3.0).abs() < 1e-12);
        assert!((census.bias_towards(Opinion::One) - 0.0).abs() < 1e-12);
        assert!((census.bias_among_active(Opinion::One) - (2.0 / 3.0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn tie_has_no_majority() {
        let census = Census::from_counts(3, 3, 6);
        assert_eq!(census.majority(), None);
    }

    #[test]
    fn empty_population_is_handled() {
        let census = Census::from_counts(0, 0, 0);
        assert_eq!(census.fraction_correct(Opinion::One), 0.0);
        assert_eq!(census.fraction_correct_among_active(Opinion::One), 0.0);
        assert!(!census.is_unanimous(Opinion::Zero) || census.population() == 0);
    }

    #[test]
    fn unanimity_detection() {
        let census = Census::from_counts(0, 5, 5);
        assert!(census.is_unanimous(Opinion::One));
        assert!(!census.is_unanimous(Opinion::Zero));
    }

    #[test]
    fn majority_bias_matches_paper_definition() {
        assert!((majority_bias(70, 30) - 0.2).abs() < 1e-12);
        assert!((majority_bias(50, 50) - 0.0).abs() < 1e-12);
        assert!((majority_bias(100, 0) - 0.5).abs() < 1e-12);
        assert_eq!(majority_bias(0, 0), 0.0);
    }
}
