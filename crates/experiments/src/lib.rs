//! The experiment harness of the *Breathe before Speaking* reproduction.
//!
//! The paper is theoretical, so its "evaluation" is the collection of
//! quantitative claims (theorems, lemmas, claims) plus the informal
//! comparisons of §1.4 and §1.6.  Each becomes an experiment `E1`–`E12`
//! (see the paper-section index in `docs/ARCHITECTURE.md`); this crate
//! provides:
//!
//! * [`cli`] — the shared command-line convention of every experiment
//!   binary (`--full`, `--backend`, `--trials`, `--threads`, `--seed`),
//! * [`specs`] — every experiment family (E1–E13 and the ablations A1–A3)
//!   expressed as a declarative [`sweeps::SweepSpec`] over the sweep
//!   registry, plus renderers that rebuild each results table from
//!   streaming sweep aggregates (pinned digit-for-digit against the
//!   original hand-rolled runners in `tests/spec_equivalence.rs`),
//! * [`scaling`] and [`consensus`] — the shared quick/full parameter grids
//!   those specs sweep,
//! * [`report`] — assembling the tables into a markdown report.
//!
//! Multi-trial fan-out lives in [`sweeps::TrialRunner`] (re-exported here as
//! [`TrialRunner`]); grid-level orchestration, persistence and resume live in
//! the [`sweeps`] crate driven by the `sweep` binary.
//!
//! Every experiment function takes an [`ExperimentConfig`] and returns one or
//! more [`analysis::Table`]s, so the same code path serves the `e01`…`e12`
//! binaries, the integration tests and the Criterion benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod consensus;
pub mod report;
pub mod scaling;
pub mod specs;

pub use report::Report;
pub use sweeps::{runner, TrialRunner};

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

    /// A [`TrialRunner`] for one configuration point, honouring the
    /// `--threads` override (and, through [`TrialRunner::new`], the
    /// `FLIP_THREADS` environment variable).
    #[must_use]
    pub fn runner(&self) -> TrialRunner {
        let runner = TrialRunner::new(u64::from(self.trials));
        match self.threads {
            Some(threads) => runner.with_threads(threads),
            None => runner,
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// Parses the standard command-line convention of the experiment binaries
/// (see [`cli::parse_config`] for the accepted flags).
///
/// # Panics
///
/// Panics with a usage message on unknown flags or invalid values, so a typo
/// fails a binary invocation loudly instead of silently running a default.
#[must_use]
pub fn config_from_args<I: IntoIterator<Item = String>>(args: I) -> ExperimentConfig {
    cli::parse_config(args)
}

/// Guard for binaries whose experiments exist only on the per-agent engine:
/// rejects a `--backend dense`/`hybrid:k` selection loudly instead of
/// silently running the default engine and letting the user mistake the
/// numbers for counts-engine results.  (`e01` and `e08` have non-agents
/// variants and dispatch through [`specs::backend_tables`] instead.)
///
/// # Panics
///
/// Panics when `cfg.backend` is not [`Backend::Agents`].
pub fn require_agents_backend(cfg: &ExperimentConfig, binary: &str) {
    assert!(
        cfg.backend == Backend::Agents,
        "`{binary}` runs only on the per-agent engine; drop `--backend {}` \
         (dense and hybrid variants exist for e01, dense for e08)",
        cfg.backend
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agents_only_binaries_reject_the_dense_backend() {
        require_agents_backend(&ExperimentConfig::quick(), "e03");
        let result = std::panic::catch_unwind(|| {
            require_agents_backend(
                &ExperimentConfig::quick().with_backend(Backend::Dense),
                "e03",
            );
        });
        assert!(result.is_err(), "dense must be rejected loudly");
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
            config_from_args(vec!["e01".to_string()]),
            ExperimentConfig::quick()
        );
        assert_eq!(
            config_from_args(vec!["--full".to_string()]),
            ExperimentConfig::full()
        );
        assert_eq!(
            config_from_args(Vec::<String>::new()),
            ExperimentConfig::quick()
        );
    }

    #[test]
    fn args_select_the_backend() {
        assert_eq!(
            config_from_args(Vec::<String>::new()).backend,
            Backend::Agents
        );
        assert_eq!(
            config_from_args(vec!["--backend".to_string(), "dense".to_string()]).backend,
            Backend::Dense
        );
        assert_eq!(
            config_from_args(vec!["--backend=dense".to_string()]).backend,
            Backend::Dense
        );
        let cfg = config_from_args(vec!["--full".to_string(), "--backend=agents".to_string()]);
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
        let _ = config_from_args(vec!["--backend".to_string(), "gpu".to_string()]);
    }

    #[test]
    fn runner_honours_the_threads_override() {
        let mut cfg = ExperimentConfig::quick();
        cfg.trials = 64;
        cfg.threads = Some(3);
        assert_eq!(cfg.runner().threads(), 3);
        assert_eq!(cfg.runner().trials(), 64);
        cfg.threads = None;
        assert!(cfg.runner().threads() >= 1);
    }
}
