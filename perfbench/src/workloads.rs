//! The three workloads: input generation from the seed, set-up, and one pass
//! through the public entry points (untraced) or through spans around each
//! layer's public functions (traced).
//!
//! Every input is generated here from `(workload, seed)`; the program under
//! test only ever receives the resulting specs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use experiments::{specs, ExperimentConfig};
use flip_model::{
    Backend, BinarySymmetricChannel, Opinion, Phase, Recorder, RumorAgent, Simulation,
    SimulationConfig,
};
use sweeps::{
    export_csv, export_json, ordered_cells, parse_export_json, Axis, CellRecord, ProtocolRegistry,
    ReportRunner, ReportSpec, ScenarioSpec, SweepRunner, SweepSpec, SweepStore, TelemetryHub,
    TrialContext, TrialRunner,
};

use crate::trace::{SpanId, Tracer};

/// The seed the goldens and references were recorded with.
pub const DEFAULT_SEED: u64 = 0xBEA7_4E5E;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReportQuick,
    Agents4e6,
    DenseStore,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReportQuick,
        Workload::Agents4e6,
        Workload::DenseStore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReportQuick => "report_quick",
            Workload::Agents4e6 => "agents_4e6",
            Workload::DenseStore => "dense_store",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload's generated inputs: the sweeps it runs and its thread budget.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// The report members (`report_quick`) or the single sweep.
    pub sweeps: Vec<SweepSpec>,
    pub threads: usize,
    /// `dense_store`: cells executed before the deliberate cut.
    pub cut: Option<usize>,
}

fn quick_config(seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        base_seed: seed,
        threads: Some(threads),
        trials: 1,
        ..ExperimentConfig::quick()
    }
}

/// A one-trial sweep with no parameters yet; callers fill in the rest.
fn sweep(name: &str, protocol: &str, backend: Backend, seed: u64) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        protocol: protocol.into(),
        backend,
        trials: 1,
        base_seed: seed,
        point_base: 0,
        rounds: 0,
        faults: String::new(),
        defaults: BTreeMap::new(),
        axes: Vec::new(),
    }
}

fn params(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

fn axis(key: &str, values: Vec<f64>) -> Axis {
    Axis {
        key: key.into(),
        values,
    }
}

/// `count` integers spread geometrically over `[lo, hi]`.
fn geometric(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| (lo * (hi / lo).powf(i as f64 / (count - 1) as f64)).round())
        .collect()
}

impl Inputs {
    /// Generates the workload's inputs.  `toy` shrinks every workload to a
    /// size that finishes in about a second (the harness self-test).
    pub fn generate(workload: Workload, seed: u64, toy: bool) -> Self {
        match workload {
            Workload::ReportQuick => {
                let cfg = quick_config(seed, 1);
                let report = if toy {
                    let members = ["e11", "e12"]
                        .iter()
                        .map(|m| specs::builtin(m, &cfg).expect("builtin member"))
                        .collect();
                    ReportSpec::new(specs::REPORT_SPEC_NAME, members).expect("valid members")
                } else {
                    specs::report_spec(&cfg)
                };
                Self {
                    workload,
                    sweeps: report.members,
                    threads: 1,
                    cut: None,
                }
            }
            Workload::Agents4e6 => {
                let n = if toy { 40_000.0 } else { 4_000_000.0 };
                let spec = SweepSpec {
                    rounds: 400,
                    defaults: params(&[("epsilon", 0.25), ("informed", 1.0)]),
                    axes: vec![axis("n", vec![n])],
                    ..sweep("agents_4e6", "rumor", Backend::Agents, seed)
                };
                Self {
                    workload,
                    sweeps: vec![spec],
                    threads: 2,
                    cut: None,
                }
            }
            Workload::DenseStore => {
                let (ns, eps) = if toy { (10, 20) } else { (25, 200) };
                let epsilons = (0..eps)
                    .map(|j| 0.05 + 0.4 * j as f64 / eps as f64)
                    .collect();
                let spec = SweepSpec {
                    rounds: 500,
                    defaults: params(&[("informed", 1.0)]),
                    axes: vec![
                        axis("n", geometric(1e3, 1e6, ns)),
                        axis("epsilon", epsilons),
                    ],
                    ..sweep("dense_store", "rumor", Backend::Dense, seed)
                };
                Self {
                    workload,
                    sweeps: vec![spec],
                    threads: 2,
                    cut: Some(ns * eps / 2),
                }
            }
        }
    }

    pub fn cells(&self) -> u64 {
        self.sweeps.iter().map(|s| s.grid_len() as u64).sum()
    }

    pub fn trials(&self) -> u64 {
        self.sweeps
            .iter()
            .map(|s| s.grid_len() as u64 * u64::from(s.trials))
            .sum()
    }

    fn report(&self) -> ReportSpec {
        ReportSpec::new(specs::REPORT_SPEC_NAME, self.sweeps.clone()).expect("valid members")
    }
}

/// What one pass produced and how long it took.
pub struct PassOutput {
    pub wall_s: f64,
    pub export_s: f64,
    /// `dense_store`: reopening the complete store and finding nothing to run.
    pub resume_s: Option<f64>,
    /// Every exported output, by label, for the byte-identity checks.
    pub pieces: Vec<(String, String)>,
    /// Σ n · rounds over every trial whose cell reports a round count.
    pub agent_rounds: f64,
    /// `dense_store`: whether the JSON export parsed back into the records.
    pub round_trip_ok: Option<bool>,
    /// The pass's results per sweep, kept for the export timing loop.
    pub results: Vec<(SweepSpec, Vec<(ScenarioSpec, CellRecord)>)>,
}

/// Rounds from a cell's metrics: `rounds` or `total_rounds`.  `get` reads
/// one metric: a trial's value, or a record's sum over its trials.
fn rounds_from(get: impl Fn(&str) -> Option<f64>) -> Option<f64> {
    get("rounds").or_else(|| get("total_rounds"))
}

/// Rounds one trial ran, when its metrics say.
fn trial_rounds(metrics: &[(&str, f64)]) -> Option<f64> {
    rounds_from(|key| {
        metrics.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    })
}

fn cell_n(cell: &ScenarioSpec) -> f64 {
    cell.params.get("n").copied().unwrap_or(0.0)
}

/// Σ n · rounds over a sweep's records.
fn agent_rounds(pairs: &[(ScenarioSpec, CellRecord)]) -> f64 {
    pairs
        .iter()
        .map(|(cell, record)| {
            let rounds = rounds_from(|key| record.metrics.get(key).map(|a| a.moments.sum));
            cell_n(cell) * rounds.unwrap_or(0.0)
        })
        .sum()
}

fn pair(spec: &SweepSpec, cells: Vec<CellRecord>) -> Vec<(ScenarioSpec, CellRecord)> {
    let grid = spec.expand().expect("a spec that ran also expands");
    assert_eq!(grid.len(), cells.len(), "sweep `{}` is complete", spec.name);
    grid.into_iter().zip(cells).collect()
}

/// CSV + JSON export of every sweep result.
pub fn export_all(
    results: &[(SweepSpec, Vec<(ScenarioSpec, CellRecord)>)],
) -> Vec<(String, String)> {
    let mut pieces = Vec::new();
    for (spec, pairs) in results {
        pieces.push((format!("{}.csv", spec.name), export_csv(pairs)));
        pieces.push((format!("{}.json", spec.name), export_json(spec, pairs)));
    }
    pieces
}

fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("scratch store is removable");
    }
}

/// Set-up: spec build and expansion, registry, cell resolution, plus the
/// workload's own start-up (store creation, population and routing buffers).
/// Returns seconds.
pub fn setup(workload: Workload, seed: u64, toy: bool, scratch: &Path) -> f64 {
    let store_dir = scratch.join("setup-store");
    fresh_dir(&store_dir);
    let start = Instant::now();
    let inputs = Inputs::generate(workload, seed, toy);
    let registry = ProtocolRegistry::builtin();
    let mut grids = Vec::new();
    for spec in &inputs.sweeps {
        let grid = spec.expand().expect("generated specs expand");
        for cell in &grid {
            registry.resolve(cell).expect("generated cells resolve");
        }
        grids.push(grid);
    }
    let mut engine = None;
    match workload {
        Workload::ReportQuick => {}
        Workload::Agents4e6 => {
            let cell = &grids[0][0];
            engine = Some(new_rumor_engine(cell, inputs.threads));
        }
        Workload::DenseStore => {
            SweepStore::create(&store_dir, &inputs.sweeps[0]).expect("store creates");
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(engine);
    fresh_dir(&store_dir);
    elapsed
}

/// The per-agent `rumor` engine exactly as the registry's `rumor` runner
/// builds it for trial 0 of `cell` (fault-free, agents backend).
fn new_rumor_engine(
    cell: &ScenarioSpec,
    round_threads: usize,
) -> Simulation<RumorAgent, BinarySymmetricChannel> {
    let n = usize::try_from(cell.n()).expect("n fits in usize");
    let informed = cell.param_or("informed", 1.0) as usize;
    let channel = BinarySymmetricChannel::from_epsilon(cell.epsilon()).expect("valid epsilon");
    let config = SimulationConfig::new(n)
        .with_seed(cell.seed_for_trial(0))
        .with_reference(Opinion::One)
        .with_threads(round_threads);
    Simulation::new(RumorAgent::population(n, 0, informed), channel, config)
        .expect("valid population")
}

/// One untraced pass through the public entry points users call.
pub fn run_pass(inputs: &Inputs, registry: &ProtocolRegistry, scratch: &Path) -> PassOutput {
    let start = Instant::now();
    let mut pieces = Vec::new();
    let mut resume_s = None;
    let mut round_trip_ok = None;
    let results: Vec<(SweepSpec, Vec<(ScenarioSpec, CellRecord)>)> = match inputs.workload {
        Workload::ReportQuick => {
            let report = inputs.report();
            let outcome = ReportRunner::new()
                .with_threads(inputs.threads)
                .run(&report, registry, None)
                .expect("report runs");
            assert!(outcome.completed, "in-memory reports complete");
            let results: Vec<_> = report
                .members
                .iter()
                .zip(outcome.members)
                .map(|(spec, member)| (spec.clone(), pair(spec, member.outcome.cells)))
                .collect();
            for (spec, pairs) in &results {
                let table = specs::render(&spec.name, pairs).to_markdown();
                pieces.push((format!("{}.md", spec.name), table));
            }
            results
        }
        Workload::Agents4e6 => {
            let spec = &inputs.sweeps[0];
            let outcome = SweepRunner::new()
                .with_threads(inputs.threads)
                .run(spec, registry, None)
                .expect("sweep runs");
            vec![(spec.clone(), pair(spec, outcome.cells))]
        }
        Workload::DenseStore => {
            let spec = &inputs.sweeps[0];
            let dir = scratch.join("store");
            fresh_dir(&dir);
            let store = SweepStore::create(&dir, spec).expect("store creates");
            let runner = SweepRunner::new().with_threads(inputs.threads);
            let cut = runner
                .clone()
                .with_max_cells(inputs.cut.expect("dense_store has a cut"))
                .run(spec, registry, Some(&store))
                .expect("first leg runs");
            assert!(!cut.completed, "the cut leaves work for the resume");
            let resumed = runner
                .run(spec, registry, Some(&store))
                .expect("resume runs");
            assert!(resumed.completed && resumed.skipped == cut.executed);
            let export_start = Instant::now();
            let records = store.load_cells().expect("store loads");
            let (pairs, missing) = ordered_cells(spec, &records).expect("spec expands");
            assert_eq!(missing, 0, "resumed store is complete");
            let exported = vec![(spec.clone(), pairs)];
            pieces = export_all(&exported);
            let export_s = export_start.elapsed().as_secs_f64();
            let reopen_start = Instant::now();
            let (reopened, stored_spec) = SweepStore::open(&dir).expect("store reopens");
            let noop = runner
                .run(&stored_spec, registry, Some(&reopened))
                .expect("reopen runs");
            assert_eq!(noop.executed, 0, "a complete store has nothing left to run");
            resume_s = Some(reopen_start.elapsed().as_secs_f64());
            let wall_s = start.elapsed().as_secs_f64();
            round_trip_ok = Some(round_trip(&exported[0].1, &pieces[1].1));
            fresh_dir(&dir);
            return PassOutput {
                wall_s,
                export_s,
                resume_s,
                agent_rounds: agent_rounds(&exported[0].1),
                pieces,
                round_trip_ok,
                results: exported,
            };
        }
    };
    let export_start = Instant::now();
    pieces.extend(export_all(&results));
    let export_s = export_start.elapsed().as_secs_f64();
    PassOutput {
        wall_s: start.elapsed().as_secs_f64(),
        export_s,
        resume_s,
        agent_rounds: results.iter().map(|(_, p)| agent_rounds(p)).sum(),
        pieces,
        round_trip_ok,
        results,
    }
}

fn round_trip(pairs: &[(ScenarioSpec, CellRecord)], json: &str) -> bool {
    parse_export_json(json).is_ok_and(|parsed| parsed == pairs)
}

/// Counts gathered at the layer boundaries of a traced pass.
#[derive(Debug, Default)]
pub struct Counters {
    /// Merged engine telemetry of every trial.
    pub recorder: Recorder,
    pub cells: u64,
    pub observations: u64,
    pub rounds: f64,
    pub messages: f64,
    /// Σ n · rounds and messages over trials that produced engine telemetry.
    pub telemetry_agent_rounds: f64,
    pub telemetry_messages: f64,
    pub dense_rounds: f64,
    pub appends: u64,
    pub bytes_written: u64,
    pub records_loaded: u64,
    pub bytes_read: u64,
    pub export_bytes: u64,
    /// Σ workers × wall of every orchestrated run: the lane capacity.
    pub lane_capacity_ns: u64,
}

/// The traced pass's span sink and counters.
pub struct TraceCtx {
    pub tracer: Tracer,
    pub counters: Mutex<Counters>,
}

impl TraceCtx {
    pub fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            counters: Mutex::new(Counters::default()),
        }
    }

    fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.counters.lock().expect("counter lock"));
    }

    fn note_trial(&self, cell: &ScenarioSpec, metrics: &[(&str, f64)], recorder: &Recorder) {
        let rounds = trial_rounds(metrics);
        let messages = metrics
            .iter()
            .find(|(k, _)| *k == "messages_sent")
            .map_or(0.0, |(_, v)| *v);
        let timed = recorder.phases().get(Phase::ProtocolStep).count > 0;
        self.count(|c| {
            c.observations += metrics.len() as u64;
            c.rounds += rounds.unwrap_or(0.0);
            c.messages += messages;
            if timed {
                c.telemetry_agent_rounds += cell_n(cell) * rounds.unwrap_or(0.0);
                c.telemetry_messages += messages;
            }
            if cell.backend == Backend::Dense {
                c.dense_rounds += rounds.unwrap_or(0.0);
            }
            c.recorder.merge(recorder);
        });
    }
}

fn phase_totals(recorder: &Recorder) -> Vec<(&'static str, u64)> {
    Phase::ALL
        .iter()
        .map(|p| (p.name(), recorder.phases().get(*p).total_ns))
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// `SweepStore::load_cells` inside a `store.load` span, counting what it read.
fn traced_load(ctx: &TraceCtx, parent: SpanId, store: &SweepStore) -> BTreeMap<String, CellRecord> {
    ctx.tracer.span(Some(parent), "store.load", "", |_| {
        let bytes = dir_bytes(&store.dir().join("shards"));
        let cells = store.load_cells().expect("store loads");
        ctx.count(|c| {
            c.bytes_read += bytes;
            c.records_loaded += cells.len() as u64;
        });
        cells
    })
}

fn trial_label(cell: &ScenarioSpec) -> String {
    format!("{}@{}", cell.protocol, cell.backend.as_str())
}

/// The orchestrator's loop (expand, resolve, skip persisted, fan cells out
/// over workers, fold, checkpoint) rebuilt from the sweeps crate's public
/// functions with a span around each call.  Returns the grid's records in
/// grid order and the number of cells executed.
fn traced_sweep(
    ctx: &TraceCtx,
    parent: SpanId,
    spec: &SweepSpec,
    registry: &ProtocolRegistry,
    store: Option<&SweepStore>,
    threads: usize,
    max_cells: Option<usize>,
) -> (Vec<CellRecord>, usize) {
    let t = &ctx.tracer;
    t.span(Some(parent), "sweeps.run", &spec.name, |run| {
        let grid = t.span(Some(run), "spec.expand", "", |_| {
            spec.expand().expect("generated specs expand")
        });
        let hashes: Vec<String> = t.span(Some(run), "spec.hash", "", |_| {
            grid.iter().map(ScenarioSpec::hash_hex).collect()
        });
        t.span(Some(run), "registry.resolve", "", |_| {
            for cell in &grid {
                registry.resolve(cell).expect("generated cells resolve");
            }
        });
        let persisted: BTreeMap<String, CellRecord> = match store {
            Some(store) => traced_load(ctx, run, store),
            None => BTreeMap::new(),
        };
        ctx.count(|c| c.cells += grid.len() as u64);
        let pending: Vec<usize> = (0..grid.len())
            .filter(|&i| !persisted.contains_key(&hashes[i]))
            .take(max_cells.unwrap_or(usize::MAX))
            .collect();
        let outer = threads.min(pending.len()).max(1);
        let inner = (threads / outer).max(1);
        let mut shards = match store {
            Some(store) if !pending.is_empty() => store.open_shards(outer).expect("shards open"),
            _ => Vec::new(),
        };
        let shards_dir = store.map(|s| s.dir().join("shards"));
        let bytes_before = shards_dir.as_deref().map_or(0, dir_bytes);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let fresh: Mutex<Vec<(usize, CellRecord)>> = Mutex::new(Vec::new());
        let started = t.now_ns();
        t.span(Some(run), "orchestrator.run", "", |orch| {
            std::thread::scope(|scope| {
                for _ in 0..outer {
                    let mut shard = shards.pop();
                    let (grid, hashes, pending, next, fresh) =
                        (&grid, &hashes, &pending, &next, &fresh);
                    scope.spawn(move || loop {
                        let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&index) = pending.get(slot) else {
                            return;
                        };
                        let cell = &grid[index];
                        let record =
                            t.span(Some(orch), "orchestrator.cell", &cell.protocol, |span| {
                                let record =
                                    traced_cell(ctx, span, cell, &hashes[index], registry, inner);
                                if let Some(writer) = shard.as_mut() {
                                    t.span(Some(span), "store.append", "", |_| {
                                        writer.append(&record).expect("shard appends");
                                    });
                                    ctx.count(|c| c.appends += 1);
                                }
                                record
                            });
                        fresh.lock().expect("results lock").push((index, record));
                    });
                }
            });
        });
        let wall = t.now_ns() - started;
        let bytes_written = shards_dir.as_deref().map_or(0, dir_bytes) - bytes_before;
        ctx.count(|c| {
            c.lane_capacity_ns += wall * outer as u64;
            c.bytes_written += bytes_written;
        });
        let mut fresh: BTreeMap<usize, CellRecord> = fresh
            .into_inner()
            .expect("results lock")
            .into_iter()
            .collect();
        let executed = fresh.len();
        let mut cells = Vec::with_capacity(grid.len());
        for (i, hash) in hashes.iter().enumerate() {
            if let Some(record) = fresh.remove(&i) {
                cells.push(record);
            } else if let Some(record) = persisted.get(hash) {
                cells.push(record.clone());
            }
        }
        (cells, executed)
    })
}

/// One cell's trials under the [`TrialRunner`] fan-out, each inside a
/// `registry.trial` span with its engine phases imported, then the fold.
fn traced_cell(
    ctx: &TraceCtx,
    parent: SpanId,
    cell: &ScenarioSpec,
    hash: &str,
    registry: &ProtocolRegistry,
    inner_threads: usize,
) -> CellRecord {
    let t = &ctx.tracer;
    let runner = TrialRunner::new(u64::from(cell.trials)).with_threads(inner_threads);
    let round_threads = runner.round_threads();
    let label = trial_label(cell);
    let trials = runner.run(|trial| {
        let hub = TelemetryHub::new();
        let context = TrialContext::new(round_threads).with_hub(&hub);
        let open = t.open(Some(parent), "registry.trial", &label);
        let metrics = registry
            .run_trial_with_context(cell, trial, &context)
            .expect("trial runs");
        let (id, start) = t.close(open);
        let recorder = hub.take();
        t.import(id, start, &phase_totals(&recorder));
        ctx.note_trial(cell, &metrics, &recorder);
        metrics
    });
    t.span(Some(parent), "aggregate.fold", "", |_| {
        CellRecord::from_trials(hash.to_string(), cell.point, &trials)
    })
}

/// The `agents_4e6` trial with the engine driven directly, so each
/// `Simulation::new` and `Simulation::step` call gets its own span.  Mirrors
/// the registry's `rumor` runner on the agents backend.
fn traced_engine_cell(
    ctx: &TraceCtx,
    parent: SpanId,
    cell: &ScenarioSpec,
    threads: usize,
) -> CellRecord {
    let t = &ctx.tracer;
    let runner = TrialRunner::new(u64::from(cell.trials)).with_threads(threads);
    assert_eq!(
        cell.trials, 1,
        "the engine workload runs one trial per cell"
    );
    let round_threads = runner.round_threads();
    let n = usize::try_from(cell.n()).expect("n fits in usize");
    let label = trial_label(cell);
    let mut sim = t.span(Some(parent), "engine.new", &label, |_| {
        new_rumor_engine(cell, round_threads)
    });
    sim.enable_telemetry();
    let mut rounds = 0u64;
    let mut before = phase_totals(sim.telemetry().expect("telemetry on"));
    while rounds < cell.rounds {
        let open = t.open(Some(parent), "engine.step", &label);
        sim.step();
        let (id, start) = t.close(open);
        let after = phase_totals(sim.telemetry().expect("telemetry on"));
        let delta: Vec<_> = after
            .iter()
            .zip(&before)
            .map(|(&(name, a), &(_, b))| (name, a - b))
            .collect();
        t.import(id, start, &delta);
        before = after;
        rounds += 1;
        if sim.census().active() == n {
            break;
        }
    }
    let recorder = sim.take_telemetry().expect("telemetry on");
    let metrics = vec![
        ("rounds", rounds as f64),
        (
            "fraction_correct",
            sim.census().fraction_correct(Opinion::One),
        ),
        ("messages_sent", sim.metrics().messages_sent as f64),
    ];
    ctx.note_trial(cell, &metrics, &recorder);
    t.span(Some(parent), "aggregate.fold", "", |_| {
        CellRecord::from_trials(cell.hash_hex(), cell.point, &[metrics])
    })
}

fn traced_exports(
    ctx: &TraceCtx,
    parent: SpanId,
    results: &[(SweepSpec, Vec<(ScenarioSpec, CellRecord)>)],
) -> Vec<(String, String)> {
    let t = &ctx.tracer;
    let mut pieces = Vec::new();
    for (spec, pairs) in results {
        let csv = t.span(Some(parent), "export.csv", &spec.name, |_| {
            export_csv(pairs)
        });
        let json = t.span(Some(parent), "export.json", &spec.name, |_| {
            export_json(spec, pairs)
        });
        ctx.count(|c| c.export_bytes += (csv.len() + json.len()) as u64);
        pieces.push((format!("{}.csv", spec.name), csv));
        pieces.push((format!("{}.json", spec.name), json));
    }
    pieces
}

/// One traced pass: the same work as [`run_pass`], with spans around every
/// call into a layer.  Returns the exported pieces, which must equal the
/// untraced pass's.  The `dense_store` scratch store is left for the caller
/// to remove, outside the traced interval.
pub fn run_traced(
    ctx: &TraceCtx,
    root: SpanId,
    inputs: &Inputs,
    registry: &ProtocolRegistry,
    scratch: &Path,
    seed: u64,
    toy: bool,
) -> Vec<(String, String)> {
    let t = &ctx.tracer;
    match inputs.workload {
        Workload::ReportQuick => {
            let rebuilt = t.span(Some(root), "specs.build", "", |_| {
                Inputs::generate(inputs.workload, seed, toy)
            });
            assert_eq!(rebuilt.sweeps, inputs.sweeps, "spec build is deterministic");
            let mut results = Vec::new();
            for spec in &inputs.sweeps {
                let cells = t.span(Some(root), "compose.member", &spec.name, |member| {
                    traced_sweep(ctx, member, spec, registry, None, inputs.threads, None).0
                });
                results.push((spec.clone(), pair(spec, cells)));
            }
            let mut pieces = Vec::new();
            for (spec, pairs) in &results {
                let table = t.span(Some(root), "specs.render", &spec.name, |_| {
                    specs::render(&spec.name, pairs).to_markdown()
                });
                pieces.push((format!("{}.md", spec.name), table));
            }
            pieces.extend(traced_exports(ctx, root, &results));
            pieces
        }
        Workload::Agents4e6 => {
            let spec = &inputs.sweeps[0];
            let grid = t.span(Some(root), "spec.expand", "", |_| {
                spec.expand().expect("generated specs expand")
            });
            ctx.count(|c| c.cells += grid.len() as u64);
            let mut cells = Vec::new();
            for cell in &grid {
                t.span(Some(root), "registry.resolve", "", |_| {
                    registry.resolve(cell).expect("generated cells resolve");
                });
                let started = t.now_ns();
                cells.push(
                    t.span(Some(root), "orchestrator.cell", &cell.protocol, |c| {
                        traced_engine_cell(ctx, c, cell, inputs.threads)
                    }),
                );
                let wall = t.now_ns() - started;
                ctx.count(|c| c.lane_capacity_ns += wall);
            }
            let results = vec![(spec.clone(), pair(spec, cells))];
            traced_exports(ctx, root, &results)
        }
        Workload::DenseStore => {
            let spec = &inputs.sweeps[0];
            let dir = scratch.join("store");
            fresh_dir(&dir);
            let store = t.span(Some(root), "store.create", "", |_| {
                SweepStore::create(&dir, spec).expect("store creates")
            });
            let cut = inputs.cut.expect("dense_store has a cut");
            let (_, executed) = traced_sweep(
                ctx,
                root,
                spec,
                registry,
                Some(&store),
                inputs.threads,
                Some(cut),
            );
            assert_eq!(executed, cut);
            traced_sweep(
                ctx,
                root,
                spec,
                registry,
                Some(&store),
                inputs.threads,
                None,
            );
            let records = traced_load(ctx, root, &store);
            let pairs = t.span(Some(root), "export.order", "", |_| {
                let (pairs, missing) = ordered_cells(spec, &records).expect("spec expands");
                assert_eq!(missing, 0, "resumed store is complete");
                pairs
            });
            let results = vec![(spec.clone(), pairs)];
            let pieces = traced_exports(ctx, root, &results);
            let reopened = t.span(Some(root), "store.open", "", |_| {
                SweepStore::open(&dir).expect("store reopens")
            });
            let (_, executed) = traced_sweep(
                ctx,
                root,
                &reopened.1,
                registry,
                Some(&reopened.0),
                inputs.threads,
                None,
            );
            assert_eq!(executed, 0, "a complete store has nothing left to run");
            pieces
        }
    }
}
