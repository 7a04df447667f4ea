//! A deterministic multi-trial runner that fans independent simulations out
//! over threads.

/// The environment variable that caps worker threads for every
/// [`TrialRunner`] (and, transitively, every sweep): `FLIP_THREADS=4` limits
/// fan-out to four workers machine-wide without touching any command line.
pub const THREADS_ENV: &str = "FLIP_THREADS";

/// Parses a `FLIP_THREADS`-style value: `None` (unset) falls back to the
/// machine's available parallelism.
///
/// # Panics
///
/// Panics on a present-but-invalid value (non-numeric or zero) so a typo'd
/// override fails loudly instead of silently running at a surprise width.
#[must_use]
pub fn threads_from_env(value: Option<&str>) -> usize {
    match value {
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("invalid {THREADS_ENV} value `{raw}`: expected an integer >= 1"),
        },
    }
}

/// The default worker-thread count: the `FLIP_THREADS` environment override
/// when set, otherwise the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    let value = std::env::var(THREADS_ENV).ok();
    threads_from_env(value.as_deref())
}

/// Runs independent trials in parallel with stable per-trial seeds.
///
/// The fan-out is lock-free: every worker runs one contiguous range of
/// trials and keeps its own results, so no result ever crosses a lock.
/// Results are returned in trial order, and because each trial's value
/// depends only on its trial index, a parallel run is *bit-identical* to a
/// sequential one by construction.
///
/// # The shared thread budget
///
/// `threads` is the runner's **total** budget, shared between the two levels
/// of parallelism a trial can use: the trial fan-out above, and the
/// intra-round worker lanes of a simulation
/// ([`SimulationConfig::with_threads`](flip_model::SimulationConfig::with_threads)).
/// A trial body that spins up its own round workers must size them from
/// [`TrialRunner::round_threads`], which returns the per-trial budget left
/// over after the fan-out claims its workers; the invariant
///
/// ```text
/// trial_workers × round_threads ≤ threads        (both factors ≥ 1)
/// ```
///
/// holds for every `(trials, threads)` pair, so `trials × round-workers`
/// can never oversubscribe the budget no matter how the two knobs are set.
/// Because intra-round parallelism is bit-identical across lane counts,
/// splitting the budget differently changes wall-clock only — never results.
///
/// # Example
///
/// ```
/// use sweeps::TrialRunner;
///
/// let runner = TrialRunner::new(8);
/// let squares = runner.run(|trial| trial * trial);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone)]
pub struct TrialRunner {
    trials: u64,
    /// The budget set with [`TrialRunner::with_threads`]; `None` until then,
    /// so a runner whose budget is set at once never probes the machine.
    threads: Option<usize>,
}

impl TrialRunner {
    /// Creates a runner for the given number of trials, using as many threads
    /// as [`default_threads`] allows (the `FLIP_THREADS` environment override
    /// when set, otherwise every core the machine offers) — but never more
    /// threads than trials: a 4-trial run on a 64-core machine gets 4 worker
    /// threads, not 64, since the surplus threads would only be spawned to
    /// exit immediately.  That default is looked up when the runner first
    /// needs it, not here, and never when [`TrialRunner::with_threads`]
    /// sets the budget.
    #[must_use]
    pub fn new(trials: u64) -> Self {
        Self {
            trials,
            threads: None,
        }
    }

    /// Overrides the number of worker threads (the `--threads` flag and tests
    /// route through this).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The number of trials this runner executes.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The number of worker threads a parallel run will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            let cap = usize::try_from(self.trials).unwrap_or(usize::MAX);
            default_threads().min(cap).max(1)
        })
    }

    /// The intra-round worker budget each trial may use on top of the trial
    /// fan-out — the whole budget divided by the number of trial workers
    /// [`TrialRunner::run`] will actually spawn, rounded down, never below 1.
    ///
    /// Passing this to
    /// [`SimulationConfig::with_threads`](flip_model::SimulationConfig::with_threads)
    /// keeps `trial_workers × round_threads ≤ threads` (see the type-level
    /// docs): with more trials than threads every trial runs its rounds
    /// sequentially, and when trials are scarce the spare threads migrate
    /// into the rounds instead of idling.
    #[must_use]
    pub fn round_threads(&self) -> usize {
        let threads = self.threads();
        let trials = usize::try_from(self.trials).unwrap_or(usize::MAX);
        let trial_workers = threads.min(trials).max(1);
        (threads / trial_workers).max(1)
    }

    /// Runs `task` once per trial index (0-based) and collects the results in
    /// trial order.
    ///
    /// Each worker runs one contiguous range of trials on `on_lanes`, the
    /// first range on the calling thread, so no synchronisation is needed
    /// beyond the scope join.  A trial that panics panics the caller with
    /// its own payload.
    pub fn run<T, F>(&self, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        if self.trials == 0 {
            return Vec::new();
        }
        let trials = usize::try_from(self.trials).expect("trial count fits in memory");
        let chunk = trials.div_ceil(self.threads().min(trials));
        let ranges = (0..self.trials)
            .step_by(chunk)
            .map(|first| first..self.trials.min(first + chunk as u64))
            .collect();
        on_lanes(ranges, |range| range.map(&task).collect::<Vec<T>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Runs `work` once per share, the first share on the calling thread and
/// every other one on a scoped thread of its own, and returns the results
/// in share order.  The one lane fan-out of the trial runner, the store
/// loader and the exports: one share spawns nothing, and a panicking lane
/// panics the caller with its own payload.
pub(crate) fn on_lanes<S: Send, R: Send>(shares: Vec<S>, work: impl Fn(S) -> R + Sync) -> Vec<R> {
    let mut shares = shares.into_iter();
    let Some(first) = shares.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|scope| {
        let lanes: Vec<_> = shares
            .map(|share| scope.spawn(move || work(share)))
            .collect();
        let mut results = Vec::with_capacity(lanes.len() + 1);
        results.push(work(first));
        results.extend(lanes.into_iter().map(|lane| {
            lane.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_trials_yield_nothing() {
        let runner = TrialRunner::new(0);
        let out: Vec<u64> = runner.run(|t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_trial_reaches_the_caller_with_its_own_payload() {
        // 8 trials at widths 1, 2 and 4: trial 5 runs on the caller, then
        // on the second and on the third lane.
        for threads in [1, 2, 4] {
            let outcome = std::panic::catch_unwind(|| {
                TrialRunner::new(8).with_threads(threads).run(|trial| {
                    assert_ne!(trial, 5, "trial {trial} failed");
                    trial
                })
            });
            let payload = outcome.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("the trial's formatted message");
            assert!(
                message.contains("trial 5 failed"),
                "threads {threads}: {message}"
            );
        }
    }

    #[test]
    fn results_come_back_in_trial_order() {
        let runner = TrialRunner::new(64).with_threads(4);
        let out = runner.run(|t| t * 3);
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn single_threaded_and_parallel_runs_agree() {
        let sequential = TrialRunner::new(16).with_threads(1).run(|t| t * t + 1);
        let parallel = TrialRunner::new(16).with_threads(8).run(|t| t * t + 1);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn parallel_runs_are_bit_identical_for_every_thread_count() {
        // Chunked disjoint writes make parallel output identical to the
        // sequential reference regardless of how the trials split across
        // workers — including thread counts that do not divide the trials.
        let reference = TrialRunner::new(23).with_threads(1).run(|t| t * 31 + 7);
        for threads in 2..=9 {
            let parallel = TrialRunner::new(23)
                .with_threads(threads)
                .run(|t| t * 31 + 7);
            assert_eq!(parallel, reference, "threads = {threads}");
        }
    }

    #[test]
    fn trial_count_is_reported() {
        assert_eq!(TrialRunner::new(7).trials(), 7);
        assert!(TrialRunner::new(7).with_threads(0).threads() >= 1);
    }

    #[test]
    fn worker_threads_never_exceed_trials() {
        assert_eq!(TrialRunner::new(1).threads(), 1);
        assert!(TrialRunner::new(4).threads() <= 4);
        // Zero trials still leaves a (never-used) worker so the struct stays valid.
        assert_eq!(TrialRunner::new(0).threads(), 1);
        // The explicit override remains available for tests that want more.
        assert_eq!(TrialRunner::new(2).with_threads(8).threads(), 8);
    }

    #[test]
    fn round_threads_never_oversubscribe_the_budget() {
        // The two parallelism levels share one budget: for every
        // (trials, threads) pair, the trial workers actually spawned times
        // the per-trial round budget must stay within the total.
        for trials in [0u64, 1, 2, 3, 5, 8, 64] {
            for threads in 1..=12usize {
                let runner = TrialRunner::new(trials).with_threads(threads);
                let trial_workers = threads.min(usize::try_from(trials).unwrap()).max(1);
                let round = runner.round_threads();
                assert!(round >= 1, "trials={trials} threads={threads}");
                assert!(
                    trial_workers * round <= threads.max(1),
                    "oversubscribed: trials={trials} threads={threads} \
                     workers={trial_workers} round={round}"
                );
            }
        }
    }

    #[test]
    fn spare_threads_migrate_into_rounds() {
        // More threads than trials: the surplus goes to intra-round lanes.
        assert_eq!(TrialRunner::new(3).with_threads(8).round_threads(), 2);
        assert_eq!(TrialRunner::new(1).with_threads(8).round_threads(), 8);
        assert_eq!(TrialRunner::new(2).with_threads(9).round_threads(), 4);
        // More trials than threads: rounds run sequentially.
        assert_eq!(TrialRunner::new(8).with_threads(4).round_threads(), 1);
        assert_eq!(TrialRunner::new(64).with_threads(64).round_threads(), 1);
        // Degenerate corners stay valid.
        assert_eq!(TrialRunner::new(0).with_threads(4).round_threads(), 4);
        assert_eq!(TrialRunner::new(5).with_threads(1).round_threads(), 1);
    }

    #[test]
    fn env_override_parsing_is_strict() {
        // Unset: falls back to the machine width, always >= 1.
        assert!(threads_from_env(None) >= 1);
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 12 ")), 12);
        for bad in ["0", "-1", "four", ""] {
            let result = std::panic::catch_unwind(|| threads_from_env(Some(bad)));
            assert!(result.is_err(), "`{bad}` must be rejected loudly");
        }
    }
}
