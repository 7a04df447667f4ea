//! The experiment harness of the *Breathe before Speaking* reproduction.
//!
//! The paper is theoretical, so its "evaluation" is the collection of
//! quantitative claims (theorems, lemmas, claims) plus the informal
//! comparisons of §1.4 and §1.6.  Each becomes an experiment `E1`–`E12`
//! (see the paper-section index in `docs/ARCHITECTURE.md`); this crate
//! provides:
//!
//! * [`cli`] — the shared command-line convention of the `sweep table`,
//!   `sweep gen` and `full_report` surfaces (`--full`, `--backend`,
//!   `--trials`, `--threads`, `--seed`, `--faults`),
//! * [`specs`] — the [`specs::EXPERIMENTS`] table: every experiment family
//!   (E1–E13 and the ablations A1–A3) as a declarative
//!   [`sweeps::SweepSpec`] over the sweep registry, plus the renderer that
//!   rebuilds its results table from streaming sweep aggregates (pinned
//!   digit-for-digit against the original hand-rolled runners in
//!   `tests/spec_equivalence.rs`),
//! * [`scaling`] and [`consensus`] — the shared quick/full parameter grids
//!   those specs sweep,
//! * [`report`] — assembling the tables into a markdown report.
//!
//! Grid-level orchestration, persistence and resume live in the [`sweeps`]
//! crate, driven by the `sweep` binary.  [`specs::table`] runs one builtin
//! sweep in memory for an [`ExperimentConfig`] and renders its
//! [`analysis::Table`], so the same code path serves `sweep table`, the
//! integration tests and the Criterion benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod consensus;
pub mod report;
pub mod scaling;
pub mod specs;

pub use report::Report;

use flip_model::{Backend, FaultSpec};

/// Controls how heavy an experiment run is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of independent trials per configuration point.
    pub trials: u32,
    /// Base seed; trial `t` of configuration point `c` uses a seed derived
    /// deterministically from `(base_seed, c, t)`.
    pub base_seed: u64,
    /// Quick mode shrinks population sizes and trial counts so that the whole
    /// suite finishes in minutes; full mode uses paper-scale sizes.
    pub quick: bool,
    /// Which simulation engine to use where an experiment supports both: the
    /// exact per-agent engine, or the dense counts-based engine that reaches
    /// `n = 10⁶⁺` (selected on the command line with `--backend dense`).
    pub backend: Backend,
    /// Worker-thread override (`--threads`); `None` defers to
    /// [`sweeps::default_threads`] (the `FLIP_THREADS` environment variable,
    /// or the machine width).
    pub threads: Option<usize>,
    /// Round-cap override (`--rounds`) for surfaces that expose one — the
    /// `sweep gen` builtin-spec generator applies it to the generated
    /// spec's `rounds` field.  `None` keeps each sweep's own cap.  Zero is
    /// rejected at parse time: a 0-round sweep silently exports empty
    /// aggregates.
    pub rounds: Option<u64>,
    /// Fault-injection directive (`--faults byz:0.1|crash:0.05@20|...`) for
    /// surfaces that support it — `sweep gen` writes it into the generated
    /// spec's `faults` field.  `None` (the default) runs fault-free and
    /// keeps every fault-free spec hash unchanged.
    pub faults: Option<FaultSpec>,
    /// Waives the `f/n < 1/3` sanity bound on `--faults`
    /// (`--allow-supermajority-faults`): no binary consensus can tolerate a
    /// Byzantine third, so asking for one is almost always a typo — but the
    /// E13 family deliberately sweeps past the bound to chart the collapse.
    pub allow_supermajority_faults: bool,
}

impl ExperimentConfig {
    /// The quick preset used by tests and the default binary invocation.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trials: 5,
            base_seed: 0xBEA7_4E5E,
            quick: true,
            backend: Backend::Agents,
            threads: None,
            rounds: None,
            faults: None,
            allow_supermajority_faults: false,
        }
    }

    /// The full preset: paper-scale population sizes and trial counts.
    #[must_use]
    pub fn full() -> Self {
        Self {
            trials: 20,
            base_seed: 0xBEA7_4E5E,
            quick: false,
            backend: Backend::Agents,
            threads: None,
            rounds: None,
            faults: None,
            allow_supermajority_faults: false,
        }
    }

    /// Returns the same configuration with the given backend selected.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Chooses between two values depending on quick/full mode.
    #[must_use]
    pub fn pick<T: Copy>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// A deterministic seed for configuration point `point` and trial `trial`.
    ///
    /// Derived with [`flip_model::SimRng::stream_seed`], the same mixer
    /// `SimRng::fork` uses, so "one master seed, many independent streams"
    /// has a single definition: point streams fork off the base seed, trial
    /// streams fork off their point stream.
    #[must_use]
    pub fn seed_for(&self, point: u64, trial: u64) -> u64 {
        use flip_model::SimRng;
        SimRng::stream_seed(SimRng::stream_seed(self.base_seed, point), trial)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agents_only_binaries_reject_the_dense_backend() {
        let quick = ExperimentConfig::quick();
        assert_eq!(specs::binary_sweeps("e03", &quick), Ok(vec!["e03"]));
        let message = specs::binary_sweeps("e03", &quick.with_backend(Backend::Dense))
            .expect_err("dense must be rejected loudly");
        assert!(message.contains("--backend dense"), "{message}");
    }

    #[test]
    fn presets_differ_in_scale() {
        let quick = ExperimentConfig::quick();
        let full = ExperimentConfig::full();
        assert!(quick.trials < full.trials);
        assert!(quick.quick && !full.quick);
        assert_eq!(quick.pick(1, 2), 1);
        assert_eq!(full.pick(1, 2), 2);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let cfg = ExperimentConfig::quick();
        assert_eq!(cfg.seed_for(1, 2), cfg.seed_for(1, 2));
        assert_ne!(cfg.seed_for(1, 2), cfg.seed_for(1, 3));
        assert_ne!(cfg.seed_for(1, 2), cfg.seed_for(2, 2));
    }

    #[test]
    fn args_select_the_preset() {
        assert_eq!(
            cli::parse_config(vec!["e01".to_string()]),
            ExperimentConfig::quick()
        );
        assert_eq!(
            cli::parse_config(vec!["--full".to_string()]),
            ExperimentConfig::full()
        );
        assert_eq!(
            cli::parse_config(Vec::<String>::new()),
            ExperimentConfig::quick()
        );
    }

    #[test]
    fn args_select_the_backend() {
        assert_eq!(
            cli::parse_config(Vec::<String>::new()).backend,
            Backend::Agents
        );
        assert_eq!(
            cli::parse_config(vec!["--backend".to_string(), "dense".to_string()]).backend,
            Backend::Dense
        );
        assert_eq!(
            cli::parse_config(vec!["--backend=dense".to_string()]).backend,
            Backend::Dense
        );
        let cfg = cli::parse_config(vec!["--full".to_string(), "--backend=agents".to_string()]);
        assert_eq!(cfg.backend, Backend::Agents);
        assert!(!cfg.quick);
        assert_eq!(
            ExperimentConfig::quick()
                .with_backend(Backend::Dense)
                .backend,
            Backend::Dense
        );
    }

    #[test]
    #[should_panic(expected = "invalid --backend")]
    fn unknown_backend_fails_loudly() {
        let _ = cli::parse_config(vec!["--backend".to_string(), "gpu".to_string()]);
    }
}
