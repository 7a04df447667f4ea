//! The sweep orchestrator: executes a grid of cells across threads,
//! checkpointing each completed cell to the shard store.
//!
//! # Execution model
//!
//! Cells are handed out from a shared atomic counter — dynamic load
//! balancing, so a slow cell (large `n`) never stalls the queue behind it
//! the way static chunking would.  Inside a cell, trials fan out over the
//! lock-free [`TrialRunner`], and each trial in turn receives the leftover
//! [`TrialRunner::round_threads`] as intra-round worker lanes; all three
//! levels share the one thread budget
//! (`outer × trial_workers × round_threads ≤ threads`), so small grids with
//! heavy cells still saturate the machine without oversubscribing it.
//!
//! # Determinism and resume
//!
//! A cell's record depends only on its hash-addressed spec: seeds derive
//! from `(base_seed, point, trial)`, the [`TrialRunner`] returns results in
//! trial order for any thread count, and aggregation folds sequentially.
//! Scheduling therefore cannot influence results — which is what makes
//! `resume` (skip persisted cells, run the rest) produce byte-identical
//! exports to an uninterrupted run.
//!
//! # Observability
//!
//! With [`SweepRunner::with_telemetry`] each cell runs under a fresh
//! [`TelemetryHub`]: engine-level phase timers and event counters from every
//! trial merge there, stream into a per-cell [`CellTelemetry`] line in the
//! store's `telemetry/` shards (same checkpoint-per-cell, torn-tail-tolerant
//! contract as the result shards), and fold into the sweep-wide
//! [`SweepOutcome::telemetry`] recorder.  Timing reads the monotonic clock,
//! never a simulation RNG, so results stay bit-identical with telemetry on.
//! [`SweepRunner::with_progress`] streams one stderr line per completed cell
//! (cells/sec, trials/sec, ETA) through [`ProgressReporter`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use telemetry::Recorder;

use crate::aggregate::CellRecord;
use crate::error::SweepError;
use crate::observe::{CellTelemetry, ProgressReporter, TelemetryHub, TrialContext};
use crate::registry::ProtocolRegistry;
use crate::runner::{default_threads, TrialRunner};
use crate::spec::{ScenarioSpec, SweepSpec};
use crate::store::{ShardWriter, SweepStore};

/// Result of one [`SweepRunner::run`] call.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every available cell record (persisted + newly run), in grid order.
    /// Complete exactly when `completed`.
    pub cells: Vec<CellRecord>,
    /// Cells executed by this call.
    pub executed: usize,
    /// Cells skipped because the store already held them.
    pub skipped: usize,
    /// Cells in the full grid.
    pub total: usize,
    /// Whether every grid cell now has a record.
    pub completed: bool,
    /// The merged telemetry recorder over every cell this call executed
    /// (`None` unless [`SweepRunner::with_telemetry`] was set).
    pub telemetry: Option<Recorder>,
}

/// Orchestrates one sweep: expansion, scheduling, checkpointing.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    max_cells: Option<usize>,
    telemetry: bool,
    progress: bool,
}

impl SweepRunner {
    /// A runner with the default thread budget ([`default_threads`]:
    /// `FLIP_THREADS` override or machine width).
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: default_threads(),
            max_cells: None,
            telemetry: false,
            progress: false,
        }
    }

    /// Overrides the total thread budget.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Stops after executing at most `max_cells` new cells (grid order).
    ///
    /// This is the deterministic stand-in for "kill the process mid-sweep"
    /// used by the interruption tests and the CI smoke leg; a real kill
    /// behaves the same except that its cut-off point is arbitrary.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: usize) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// Enables per-cell telemetry collection (phase profiles, event
    /// counters), telemetry shards when a store is attached, and the merged
    /// [`SweepOutcome::telemetry`] recorder.  Results are bit-identical
    /// either way.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the live stderr progress reporter (one line per completed
    /// cell: cells/sec, trials/sec, ETA).
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The configured thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `spec`, skipping cells already persisted in `store`, appending
    /// each newly completed cell to the store as it finishes.  Pass
    /// `store = None` for a purely in-memory run (the thin experiment
    /// binaries do this).  The store's shards load on this runner's thread
    /// budget, so `with_threads(1)` loads on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the first error hit: spec expansion, registry resolution,
    /// simulation failure, or store I/O.  Cells completed before the error
    /// remain persisted — a failed run resumes like a killed one.
    pub fn run(
        &self,
        spec: &SweepSpec,
        registry: &ProtocolRegistry,
        store: Option<&SweepStore>,
    ) -> Result<SweepOutcome, SweepError> {
        let grid = spec.expand()?;
        // Resolve every cell up front so an unknown protocol or a bad
        // backend fails before any compute is spent.
        for cell in &grid {
            registry.resolve(cell)?;
        }
        // Each cell's address is computed once per run: the pending filter,
        // the record and the outcome all reuse it.
        let hashes: Vec<String> = grid.iter().map(ScenarioSpec::hash_hex).collect();
        let mut persisted = match store {
            Some(store) => store.load_cells_on(self.threads)?,
            None => std::collections::BTreeMap::new(),
        };

        let pending: Vec<usize> = (0..grid.len())
            .filter(|&i| !persisted.contains_key(&hashes[i]))
            .take(self.max_cells.unwrap_or(usize::MAX))
            .collect();
        // Only grid cells count: a store may hold records of other cells.
        let skipped = hashes.iter().filter(|h| persisted.contains_key(*h)).count();

        let outer = self.threads.min(pending.len()).max(1);
        let inner = (self.threads / outer).max(1);
        let mut shards = match store {
            Some(store) if !pending.is_empty() => store.open_shards(outer)?,
            _ => Vec::new(),
        };
        let mut tele_shards = match store {
            Some(store) if self.telemetry && !pending.is_empty() => {
                store.open_telemetry_shards(outer)?
            }
            _ => Vec::new(),
        };
        let sweep_hub = if self.telemetry {
            Some(TelemetryHub::new())
        } else {
            None
        };
        let progress = ProgressReporter::new(self.progress, pending.len(), skipped);

        let next = AtomicUsize::new(0);
        // First error wins and aborts the queue: workers check the flag
        // before pulling another cell, so a failure on cell 3 of 1000 does
        // not burn hours finishing the other 997 before reporting.
        let abort = AtomicBool::new(false);
        let (grid_ref, hashes_ref, pending_ref) = (&grid, &hashes, &pending);
        let next_ref = &next;
        let abort_ref = &abort;
        let sweep_hub_ref = sweep_hub.as_ref();
        let progress_ref = &progress;
        let telemetry_on = self.telemetry;
        let mut fresh: Vec<(usize, CellRecord)> = Vec::with_capacity(pending.len());
        let mut first_error: Option<SweepError> = None;

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..outer)
                .map(|worker| {
                    let mut shard = shards.pop();
                    let mut tele_shard = tele_shards.pop();
                    scope.spawn(move || {
                        let mut mine: Vec<(usize, CellRecord)> = Vec::new();
                        let run = |index: usize,
                                   shard: Option<&mut ShardWriter<CellRecord>>,
                                   tele_shard: Option<&mut ShardWriter<CellTelemetry>>|
                         -> Result<CellRecord, SweepError> {
                            let cell = &grid_ref[index];
                            let cell_start = Instant::now();
                            let hub = telemetry_on.then(TelemetryHub::new);
                            let record = run_cell(
                                cell,
                                hashes_ref[index].clone(),
                                registry,
                                inner,
                                hub.as_ref(),
                            )?;
                            // The result record is the checkpoint; telemetry
                            // rides behind it so a kill in between loses a
                            // profile, never duplicates one.
                            if let Some(writer) = shard {
                                writer.append(&record)?;
                            }
                            if let Some(hub) = &hub {
                                let recorder = hub.take();
                                if let Some(writer) = tele_shard {
                                    writer.append(&CellTelemetry {
                                        hash: record.hash.clone(),
                                        point: record.point,
                                        worker: worker as u64,
                                        trials: u64::from(cell.trials),
                                        elapsed_ns: cell_start.elapsed().as_nanos() as u64,
                                        recorder: recorder.clone(),
                                    })?;
                                }
                                if let Some(sweep_hub) = sweep_hub_ref {
                                    sweep_hub.absorb(&recorder);
                                }
                            }
                            progress_ref.cell_finished(
                                worker,
                                record.point,
                                u64::from(cell.trials),
                                cell_start.elapsed(),
                            );
                            Ok(record)
                        };
                        loop {
                            if abort_ref.load(Ordering::Relaxed) {
                                return Ok(mine);
                            }
                            let slot = next_ref.fetch_add(1, Ordering::Relaxed);
                            let Some(&grid_index) = pending_ref.get(slot) else {
                                return Ok(mine);
                            };
                            match run(grid_index, shard.as_mut(), tele_shard.as_mut()) {
                                Ok(record) => mine.push((grid_index, record)),
                                Err(err) => {
                                    abort_ref.store(true, Ordering::Relaxed);
                                    return Err(err);
                                }
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                match handle.join().expect("sweep worker panicked") {
                    Ok(mine) => fresh.extend(mine),
                    Err(err) => {
                        if first_error.is_none() {
                            first_error = Some(err);
                        }
                    }
                }
            }
        });
        if let Some(err) = first_error {
            return Err(err);
        }

        let executed = fresh.len();
        let mut by_index: Vec<Option<CellRecord>> = (0..grid.len()).map(|_| None).collect();
        for (i, record) in fresh {
            by_index[i] = Some(record);
        }
        let cells: Vec<CellRecord> = by_index
            .into_iter()
            .zip(&hashes)
            .filter_map(|(record, hash)| record.or_else(|| persisted.remove(hash)))
            .collect();
        let completed = cells.len() == grid.len();
        Ok(SweepOutcome {
            cells,
            executed,
            skipped,
            total: grid.len(),
            completed,
            telemetry: sweep_hub.map(|hub| hub.take()),
        })
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs every trial of one cell (fanning out over `inner_threads`) and folds
/// the per-trial metrics into a record addressed by `hash`, in trial order.
///
/// Threads left over after the trial fan-out ([`TrialRunner::round_threads`])
/// are granted to each trial as intra-round worker lanes, so a cell with few
/// trials but a huge `n` still uses its whole share of the budget —
/// `trial_workers × round_threads` never exceeds `inner_threads`.
fn run_cell(
    cell: &ScenarioSpec,
    hash: String,
    registry: &ProtocolRegistry,
    inner_threads: usize,
    hub: Option<&TelemetryHub>,
) -> Result<CellRecord, SweepError> {
    let runner = TrialRunner::new(u64::from(cell.trials)).with_threads(inner_threads);
    let round_threads = runner.round_threads();
    let results = runner.run(|trial| {
        let mut context = TrialContext::new(round_threads);
        if let Some(hub) = hub {
            context = context.with_hub(hub);
        }
        registry.run_trial_with_context(cell, trial, &context)
    });
    let mut trials = Vec::with_capacity(results.len());
    for result in results {
        trials.push(result?);
    }
    Ok(CellRecord::from_trials(hash, cell.point, &trials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axis;
    use flip_model::Backend;
    use std::collections::BTreeMap;

    fn tiny_sweep() -> SweepSpec {
        SweepSpec {
            name: "orchestrator-demo".into(),
            protocol: "rumor".into(),
            backend: Backend::Agents,
            trials: 3,
            base_seed: 21,
            point_base: 10,
            rounds: 150,
            faults: String::new(),
            defaults: BTreeMap::from([
                ("epsilon".to_string(), 0.25),
                ("informed".to_string(), 5.0),
            ]),
            axes: vec![Axis {
                key: "n".into(),
                values: vec![80.0, 120.0, 160.0],
            }],
        }
    }

    #[test]
    fn in_memory_runs_cover_the_grid_in_order() {
        let outcome = SweepRunner::new()
            .with_threads(4)
            .run(&tiny_sweep(), &ProtocolRegistry::builtin(), None)
            .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.executed, 3);
        assert_eq!(outcome.skipped, 0);
        assert_eq!(outcome.total, 3);
        let points: Vec<u64> = outcome.cells.iter().map(|c| c.point).collect();
        assert_eq!(points, vec![10, 11, 12]);
        for cell in &outcome.cells {
            assert_eq!(cell.trials, 3);
            assert!(cell.metrics.contains_key("rounds"));
        }
    }

    #[test]
    fn scheduling_cannot_change_results() {
        let registry = ProtocolRegistry::builtin();
        let spec = tiny_sweep();
        let single = SweepRunner::new()
            .with_threads(1)
            .run(&spec, &registry, None)
            .unwrap();
        for threads in [2, 3, 8] {
            let parallel = SweepRunner::new()
                .with_threads(threads)
                .run(&spec, &registry, None)
                .unwrap();
            assert_eq!(parallel.cells, single.cells, "threads = {threads}");
        }
    }

    #[test]
    fn max_cells_executes_a_prefix_and_reports_incomplete() {
        let outcome = SweepRunner::new()
            .with_threads(2)
            .with_max_cells(2)
            .run(&tiny_sweep(), &ProtocolRegistry::builtin(), None)
            .unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.cells.len(), 2);
    }

    #[test]
    fn a_cell_error_aborts_the_queue_instead_of_draining_it() {
        use crate::registry::{Param, Protocol};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let executed = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&executed);
        const INFORMED: &[Param] = &[Param::int("informed", 0, 8)];
        let mut registry = crate::ProtocolRegistry::new();
        registry.register(
            "fail-second",
            Protocol::new(
                &[Backend::Agents],
                false,
                &[INFORMED],
                move |spec, _trial, _ctx| {
                    seen.fetch_add(1, Ordering::Relaxed);
                    if spec.point == 1 {
                        Err(crate::SweepError::Simulation("boom".into()))
                    } else {
                        Ok(vec![("x", 1.0)])
                    }
                },
            ),
        );
        let mut spec = tiny_sweep();
        spec.protocol = "fail-second".into();
        spec.point_base = 0;
        spec.trials = 1;
        spec.axes[0].values = (0..20).map(|i| 100.0 + f64::from(i)).collect();

        let err = SweepRunner::new()
            .with_threads(1)
            .run(&spec, &registry, None)
            .unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
        // Sequentially, the failure on cell 1 must stop the queue: cells
        // 2..20 never run.
        assert_eq!(executed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn telemetry_runs_match_plain_runs_and_persist_profile_shards() {
        use crate::store::SweepStore;
        use telemetry::Phase;

        let dir = std::env::temp_dir().join(format!(
            "sweep-orchestrator-telemetry-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_sweep();
        let registry = ProtocolRegistry::builtin();

        let plain = SweepRunner::new()
            .with_threads(2)
            .run(&spec, &registry, None)
            .unwrap();
        assert!(plain.telemetry.is_none(), "off by default");

        let store = SweepStore::create(&dir, &spec).unwrap();
        let observed = SweepRunner::new()
            .with_threads(2)
            .with_telemetry(true)
            .run(&spec, &registry, Some(&store))
            .unwrap();
        assert_eq!(
            observed.cells, plain.cells,
            "telemetry must never perturb results"
        );

        let aggregate = observed.telemetry.expect("telemetry recorder");
        let rounds_timed = aggregate.phases().get(Phase::ProtocolStep).count;
        assert!(rounds_timed > 0, "engine phases reach the sweep aggregate");

        // One telemetry line per cell, joinable onto the result records,
        // and their merge reproduces the sweep-wide aggregate exactly.
        let profiles = store.load_telemetry().unwrap();
        assert_eq!(profiles.len(), observed.cells.len());
        let mut merged = telemetry::Recorder::new();
        for cell in &observed.cells {
            let profile = profiles.get(&cell.hash).expect("profile per cell");
            assert_eq!(profile.point, cell.point);
            assert_eq!(profile.trials, u64::from(spec.trials));
            assert!(profile.elapsed_ns > 0);
            merged.merge(&profile.recorder);
        }
        assert_eq!(merged, aggregate);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_survives_interruption_and_resume() {
        use crate::store::SweepStore;

        let dir = std::env::temp_dir().join(format!(
            "sweep-orchestrator-tele-resume-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_sweep();
        let registry = ProtocolRegistry::builtin();
        let store = SweepStore::create(&dir, &spec).unwrap();

        let partial = SweepRunner::new()
            .with_threads(1)
            .with_telemetry(true)
            .with_max_cells(2)
            .run(&spec, &registry, Some(&store))
            .unwrap();
        assert!(!partial.completed);
        assert_eq!(store.load_telemetry().unwrap().len(), 2);

        let resumed = SweepRunner::new()
            .with_threads(1)
            .with_telemetry(true)
            .run(&spec, &registry, Some(&store))
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.executed, 1, "only the missing cell re-runs");
        // The resumed generation's shard joins the first one's: every grid
        // cell now has exactly one profile.
        let profiles = store.load_telemetry().unwrap();
        assert_eq!(profiles.len(), 3);
        for cell in &resumed.cells {
            assert!(profiles.contains_key(&cell.hash));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_of_other_cells_are_not_counted_as_skipped() {
        use crate::store::SweepStore;

        let dir =
            std::env::temp_dir().join(format!("sweep-orchestrator-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_sweep();
        let registry = ProtocolRegistry::builtin();
        let store = SweepStore::create(&dir, &spec).unwrap();
        let cut = SweepRunner::new()
            .with_threads(1)
            .with_max_cells(2)
            .run(&spec, &registry, Some(&store))
            .unwrap();
        assert_eq!(cut.executed, 2);

        // A valid record of a cell outside the grid, appended to the shard.
        let mut shards = std::fs::read_dir(dir.join("shards"))
            .unwrap()
            .map(|entry| entry.unwrap().path());
        let shard = shards.next().unwrap();
        assert!(shards.next().is_none(), "one worker, one shard");
        let mut foreign = cut.cells[0].clone();
        foreign.hash = "f0f0f0f0f0f0f0f0".into();
        let mut text = std::fs::read_to_string(&shard).unwrap();
        text.push_str(&foreign.to_json_line());
        text.push('\n');
        std::fs::write(&shard, text).unwrap();

        let resumed = SweepRunner::new()
            .with_threads(1)
            .run(&spec, &registry, Some(&store))
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.executed, 1);
        assert_eq!(resumed.skipped, 2, "the foreign record is not a grid cell");
        assert_eq!(resumed.total, 3);
        assert_eq!(resumed.cells.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_specs_fail_before_any_compute() {
        let mut spec = tiny_sweep();
        spec.protocol = "no-such-protocol".into();
        let err = SweepRunner::new()
            .run(&spec, &ProtocolRegistry::builtin(), None)
            .unwrap_err();
        assert!(matches!(err, SweepError::Protocol(_)));
        let mut spec = tiny_sweep();
        spec.backend = Backend::Dense;
        spec.protocol = "broadcast".into();
        assert!(SweepRunner::new()
            .run(&spec, &ProtocolRegistry::builtin(), None)
            .is_err());
    }
}
