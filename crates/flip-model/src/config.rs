//! Simulation configuration.

use crate::faults::FaultSpec;
use crate::opinion::Opinion;
use crate::trace::TraceOptions;

/// Configuration for a [`Simulation`](crate::Simulation).
///
/// `SimulationConfig` is a non-consuming builder: configure it with the
/// `with_*` methods and pass it to [`Simulation::new`](crate::Simulation::new).
///
/// # Example
///
/// ```
/// use flip_model::{Opinion, SimulationConfig};
///
/// let config = SimulationConfig::new(1_000)
///     .with_seed(7)
///     .with_reference(Opinion::One)
///     .with_history(true);
/// assert_eq!(config.population(), 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    n: usize,
    seed: u64,
    reference: Option<Opinion>,
    trace: TraceOptions,
    threads: usize,
    faults: Option<FaultSpec>,
}

impl SimulationConfig {
    /// Creates a configuration for a population of `n` agents with seed `0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            seed: 0,
            reference: None,
            trace: TraceOptions::default(),
            threads: 1,
            faults: None,
        }
    }

    /// Sets the RNG seed (runs with equal seeds are bit-for-bit identical).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declares which opinion is "correct" so that traces can record the
    /// per-round fraction of correct agents.
    #[must_use]
    pub fn with_reference(mut self, reference: Opinion) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Enables (or disables) per-round history recording in the trace.
    #[must_use]
    pub fn with_history(mut self, record: bool) -> Self {
        self.trace.record_history = record;
        self
    }

    /// Enables (or disables) recording each agent's activation round.
    #[must_use]
    pub fn with_activation_trace(mut self, record: bool) -> Self {
        self.trace.record_activations = record;
        self
    }

    /// Replaces the trace options wholesale.
    #[must_use]
    pub fn with_trace_options(mut self, trace: TraceOptions) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the number of worker lanes available to a single round
    /// (default `1`: fully sequential).
    ///
    /// Intra-round parallelism is **bit-identical** to the sequential
    /// engine: a seeded run produces exactly the same deliveries, metrics
    /// and RNG stream at every thread count (see
    /// [`GossipScheduler::route_into`](crate::GossipScheduler::route_into)),
    /// so this knob trades wall-clock for cores without perturbing results.
    /// Values are clamped to [`MAX_WORKERS`](crate::MAX_WORKERS); sweeps
    /// should derive this from
    /// `TrialRunner::round_threads` so trial fan-out and round workers
    /// share one budget.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Injects faulty participants: the engine samples a deterministic
    /// [`FaultPlan`](crate::FaultPlan) from `spec` at construction (the
    /// hybrid engine assigns the faulty roles to its tracked prefix).
    ///
    /// Without this call no fault machinery runs and no RNG words are
    /// drawn for fault assignment, so fault-free seeded results are
    /// byte-identical to builds that predate fault injection.
    #[must_use]
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// The configured population size.
    #[must_use]
    pub fn population(&self) -> usize {
        self.n
    }

    /// The configured RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured correct opinion, if any.
    #[must_use]
    pub fn reference(&self) -> Option<Opinion> {
        self.reference
    }

    /// The configured trace options.
    #[must_use]
    pub fn trace_options(&self) -> TraceOptions {
        self.trace
    }

    /// The configured number of per-round worker lanes (at least `1`).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured fault injection, if any.
    #[must_use]
    pub fn faults(&self) -> Option<FaultSpec> {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_fields() {
        let config = SimulationConfig::new(42)
            .with_seed(9)
            .with_reference(Opinion::Zero)
            .with_history(true)
            .with_activation_trace(true);
        assert_eq!(config.population(), 42);
        assert_eq!(config.seed(), 9);
        assert_eq!(config.reference(), Some(Opinion::Zero));
        assert!(config.trace_options().record_history);
        assert!(config.trace_options().record_activations);
    }

    #[test]
    fn defaults_are_quiet() {
        let config = SimulationConfig::new(5);
        assert_eq!(config.seed(), 0);
        assert_eq!(config.reference(), None);
        assert!(!config.trace_options().record_history);
        assert!(!config.trace_options().record_activations);
        assert_eq!(config.threads(), 1);
    }

    #[test]
    fn threads_are_clamped_to_at_least_one() {
        assert_eq!(SimulationConfig::new(5).with_threads(0).threads(), 1);
        assert_eq!(SimulationConfig::new(5).with_threads(4).threads(), 4);
    }

    #[test]
    fn faults_default_to_none_and_round_trip() {
        assert_eq!(SimulationConfig::new(5).faults(), None);
        let spec: FaultSpec = "byz:0.1".parse().unwrap();
        assert_eq!(
            SimulationConfig::new(5).with_faults(spec).faults(),
            Some(spec)
        );
    }

    #[test]
    fn trace_options_can_be_replaced() {
        let config = SimulationConfig::new(5).with_trace_options(TraceOptions {
            record_history: true,
            record_activations: false,
        });
        assert!(config.trace_options().record_history);
    }
}
