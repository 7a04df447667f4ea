//! The protocol registry: scenario ids resolved to executable trial runners.
//!
//! A [`ProtocolRegistry`] maps a protocol id (the `protocol` field of a
//! [`ScenarioSpec`]) to one [`Protocol`] declaration: the [`TrialFn`] that
//! runs **one trial** of one cell and returns its metrics as `(name, value)`
//! pairs, the [`Backend`] families it runs on (`hybrid:16` stands for every
//! `hybrid:k`), whether it takes fault directives, and every [`Param`] its
//! runner reads besides `n` and `epsilon`.  [`ProtocolRegistry::builtin`]
//! declares the paper's workloads in one table, which `sweep list` prints:
//!
//! | id                   | protocol                                       |
//! |----------------------|------------------------------------------------|
//! | `broadcast`          | full two-stage noisy broadcast (`breathe`)     |
//! | `broadcast-detailed` | broadcast with per-level Stage I statistics    |
//! | `mc-boost`           | Monte-Carlo noisy-majority boost (Lemma 2.11)  |
//! | `async-broadcast`    | broadcast on local clocks (Theorem 3.1)        |
//! | `baseline-compare`   | breathe vs the §1.2/§1.6 baseline protocols    |
//! | `chain-relay`        | relayed-bit reliability vs chain length (§1.6) |
//! | `two-party-samples`  | exact majority-decoder sample counts (§1.4)    |
//! | `majority-consensus` | noisy majority-consensus from an initial set   |
//! | `rumor`              | push rumor spreading until full activation     |
//! | `rumor-zealot`       | rumor spreading against a zealot subpopulation |
//! | `majority-sampler`   | Stage-II style repeated noisy majority boost   |
//! | `ben-or`             | Ben-Or randomized consensus (gossip adapted)   |
//! | `bv-broadcast`       | the BV-broadcast primitive (gossip adapted)    |
//! | `safe-bbc`           | safe binary Byzantine consensus (EST/AUX)      |
//! | `bft-compare`        | Stage-II majority vs Ben-Or, one trial each    |
//!
//! [`ProtocolRegistry::resolve`] checks a cell against its declaration: an
//! unknown id, an unsupported backend, a fault directive for a protocol
//! without fault injection, an undeclared param key, and a missing or
//! out-of-range value are all errors, the param errors naming the cell's
//! point.  The sweep runner resolves every cell before any trial, so a bad
//! value in the last cell fails before the first one runs.  Runners read
//! checked values; checks that relate two values, or a value to the cell
//! (`informed ≤ n`, a hybrid's `k < n`, a round cap, `trials = 1`), stay in
//! the runners.  An optional param's default lives where its runner reads
//! it, never in the spec, so a spec hashes as it was written.  This is the
//! workspace's single backend dispatch point: experiment tables and sweep
//! specs both resolve a `(protocol, backend)` pair here.
//!
//! Fault-capable runners read a spec's `faults` directive through
//! [`fault_spec_for`].  A custom protocol builds its declaration with
//! [`Protocol::new`] and registers it with [`ProtocolRegistry::register`].

use std::collections::BTreeMap;
use std::fmt;

use analysis::chernoff::majority_correct_probability;
use analysis::theory;
use baselines::{
    simulate_chain, BenOrAgent, BvBroadcastAgent, ForwardingProtocol, MajorityBoostAgent,
    NoisyVoterProtocol, SafeBbcAgent, ThreeStateProtocol, TwoChoicesProtocol,
    WaitForSourceProtocol,
};
use breathe::{
    AsyncBroadcastProtocol, AsyncVariant, BroadcastProtocol, InitialSet, MajorityConsensusProtocol,
    Multipliers, Params,
};
use flip_model::{
    Agent, Backend, BinarySymmetricChannel, Channel, DenseSimulation, FaultSpec, FlipEngine,
    HybridSimulation, MajoritySamplerProtocol, Opinion, RumorAgent, RumorProtocol, SimRng,
    Simulation, SimulationConfig, StratifiedPopulation, StratifiedSimulation, ZealotAgent,
    ZealotRumorProtocol,
};
use rand::Rng;

use crate::error::SweepError;
use crate::observe::TrialContext;
use crate::spec::ScenarioSpec;

/// Runs one trial of one cell: `(spec, trial_index, context)` → metric
/// pairs.
///
/// Implementations must be deterministic functions of
/// [`ScenarioSpec::seed_for_trial`]`(trial)` and should report a stable
/// metric-name set; a metric may be omitted for some trials of a cell (its
/// aggregate then covers the reporting trials only — per-level statistics
/// that exist only when the level activated, or run constants recorded on
/// trial 0 alone).  The [`TrialContext`] carries the
/// intra-round worker budget this trial may use (from
/// [`TrialRunner::round_threads`](crate::TrialRunner::round_threads)) and
/// the optional telemetry hub; because the engine's parallel rounds are
/// bit-identical across lane counts and phase timing never touches the
/// simulation RNG, neither may ever change a trial's metrics — protocols
/// that cannot honour them simply ignore the context.
pub type TrialFn = Box<
    dyn Fn(&ScenarioSpec, u64, &TrialContext) -> Result<Vec<(&'static str, f64)>, SweepError>
        + Send
        + Sync,
>;

/// One spec param a protocol reads besides `n` and `epsilon`: a value of
/// its kind in its closed range `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Param {
    /// The key in a cell's `params`.
    pub key: &'static str,
    /// Whole numbers only.  An integer range ends by 2⁵³ ([`Param::int`]
    /// checks it), where `f64` holds every integer, so a checked value
    /// casts exactly.
    pub integer: bool,
    /// The smallest accepted value.
    pub min: f64,
    /// The largest accepted value.
    pub max: f64,
    /// Whether every cell must set it; an optional param's default lives
    /// where its runner reads it.
    pub required: bool,
}

impl Param {
    /// An optional integer param accepting `min..=max`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in a constant) when `max` exceeds 2⁵³.
    #[must_use]
    pub const fn int(key: &'static str, min: u64, max: u64) -> Self {
        assert!(max <= MAX_INT, "an integer param's range ends by 2^53");
        Self {
            integer: true,
            ..Self::real(key, min as f64, max as f64)
        }
    }

    /// An optional real param accepting `[min, max]`.
    #[must_use]
    pub const fn real(key: &'static str, min: f64, max: f64) -> Self {
        Self {
            key,
            integer: false,
            min,
            max,
            required: false,
        }
    }

    /// The same param, required in every cell.
    #[must_use]
    pub const fn required(self) -> Self {
        Self {
            required: true,
            ..self
        }
    }
}

impl fmt::Display for Param {
    /// What the param accepts: `a non-negative integer in 0..=5` or
    /// `a real in [-0.5, 0.5]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.integer {
            let (min, max) = (self.min as u64, self.max as u64);
            write!(f, "a non-negative integer in {min}..={max}")
        } else {
            write!(f, "a real in [{:?}, {:?}]", self.min, self.max)
        }
    }
}

/// A protocol's declaration: what [`ProtocolRegistry::resolve`] checks a
/// cell against, and the runner it hands back.
pub struct Protocol {
    /// The backend families the runner builds an engine for.
    pub backends: &'static [Backend],
    /// Whether the runner honours a `faults` directive (through
    /// [`fault_spec_for`]).
    pub faults: bool,
    /// The params the runner reads besides `n` and `epsilon`, in groups so
    /// protocols can share one (the Breathe schedule multipliers).
    pub params: &'static [&'static [Param]],
    /// Runs one trial of a cell that passed the checks; only
    /// [`ProtocolRegistry::resolve`] hands it out.
    run: TrialFn,
}

impl Protocol {
    /// Declares `run`, which may rely on every cell it gets having passed
    /// the checks: a declared key holds a value in its range, and a
    /// required one is set.
    pub fn new(
        backends: &'static [Backend],
        faults: bool,
        params: &'static [&'static [Param]],
        run: impl Fn(&ScenarioSpec, u64, &TrialContext) -> TrialResult + Send + Sync + 'static,
    ) -> Self {
        Self {
            backends,
            faults,
            params,
            run: Box::new(run),
        }
    }

    /// Every declared param, group by group.
    pub fn declared(&self) -> impl Iterator<Item = &'static Param> {
        self.params.iter().copied().flatten()
    }

    /// Checks a cell's params against the declaration; allocates only to
    /// report a failure, naming the cell by its seed point.
    fn check(&self, spec: &ScenarioSpec) -> Result<(), SweepError> {
        let point = spec.point;
        let fail = |message| {
            Err(SweepError::Spec(format!(
                "cell at point {point}: {message}"
            )))
        };
        for (key, &value) in &spec.params {
            if key == "n" || key == "epsilon" {
                continue;
            }
            let Some(param) = self.declared().find(|p| p.key == key) else {
                let keys: String = self.declared().map(|p| format!(", {}", p.key)).collect();
                let protocol = &spec.protocol;
                return fail(format!(
                    "`{key}` is not a param of `{protocol}`, which reads n, epsilon{keys}"
                ));
            };
            let admitted = (param.min..=param.max).contains(&value)
                && !(param.integer && value.fract() != 0.0);
            if !admitted {
                return fail(format!("`{key}` must be {param}, got {value}"));
            }
        }
        let missing = self
            .declared()
            .find(|p| p.required && !spec.params.contains_key(p.key));
        match missing {
            Some(p) => fail(format!("`{}` needs `{}`, {p}", spec.protocol, p.key)),
            None => Ok(()),
        }
    }
}

/// The largest integer param value: `f64` holds every integer up to 2⁵³.
const MAX_INT: u64 = 1 << 53;
/// The largest `u32`, the cap of the params a runner reads as one.
const MAX_U32: u64 = u32::MAX as u64;
/// The smallest positive `f64`: `[POSITIVE, f64::MAX]` is every positive
/// finite real.
const POSITIVE: f64 = f64::from_bits(1);
/// The largest `f64` below 1: `[0, BELOW_ONE]` is `[0, 1)`.
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// The Breathe schedule multipliers [`params_from_spec`] reads; [`Params`]
/// takes any positive finite multiplier.
const SCHEDULE: &[Param] = &[
    Param::real("s_mult", POSITIVE, f64::MAX),
    Param::real("beta_mult", POSITIVE, f64::MAX),
    Param::real("f_mult", POSITIVE, f64::MAX),
    Param::real("gamma_mult", POSITIVE, f64::MAX),
    Param::real("final_mult", POSITIVE, f64::MAX),
    Param::int("extra_boost_phases", 0, MAX_INT),
];
const MC_BOOST: &[Param] = &[
    Param::real("delta", -0.5, 0.5).required(),
    Param::int("mc_trials", 1, MAX_U32).required(),
    Param::int("seed_point", 0, MAX_INT),
];
const CHAIN_RELAY: &[Param] = &[
    Param::int("hops", 0, MAX_U32).required(),
    Param::int("samples", 1, MAX_U32).required(),
    Param::int("seed_point", 0, MAX_INT),
];
/// [`InitialSet::with_bias`] takes a majority-bias in `[0, 1/2]`.
const INITIAL_SET: &[Param] = &[
    Param::int("initial_size", 0, MAX_INT),
    Param::real("initial_bias", 0.0, 0.5),
];
/// `0` runs fault-free; [`FaultSpec::new`] takes any other fraction below 1.
const FAULT_FRACTION: Param = Param::real("fault_fraction", 0.0, BELOW_ONE);
const INFORMED: Param = Param::int("informed", 0, MAX_INT);
/// A whole-population bias towards the correct opinion.
const POPULATION_BIAS: Param = Param::real("initial_bias", -0.5, 0.5);
/// What [`consensus_setup`] and the fault assignment read.
const CONSENSUS: &[Param] = &[
    POPULATION_BIAS,
    Param::int("phase_len", 1, MAX_INT),
    FAULT_FRACTION,
];

/// What a trial returns: its metric pairs, or why it could not run.
type TrialResult = Result<Vec<(&'static str, f64)>, SweepError>;

/// The scenario-id → declaration mapping driving a sweep.
pub struct ProtocolRegistry {
    entries: BTreeMap<String, Protocol>,
}

impl ProtocolRegistry {
    /// An empty registry (useful for fully custom harnesses).
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// The registry with the built-in protocols (see the module docs).
    #[must_use]
    pub fn builtin() -> Self {
        const AGENTS: &[Backend] = &[Backend::Agents];
        const DENSE: &[Backend] = &[Backend::Dense];
        const EVERY: &[Backend] = &Backend::ALL;
        const VARIANT: Param = Param::int("variant", 0, 1);
        const BASELINE: Param = Param::int("baseline", 0, 5).required();
        const CONFIDENCE: Param = Param::real("confidence", POSITIVE, BELOW_ONE);
        const RUMOR: &[Param] = &[INFORMED, FAULT_FRACTION];
        const RUMOR_ZEALOT: &[Param] = &[INFORMED, Param::int("zealots", 1, MAX_INT).required()];
        #[rustfmt::skip]
        let table: [(&str, Protocol); 15] = [
            // id                                backends faults params                    runner
            ("broadcast",          Protocol::new(AGENTS,  false, &[SCHEDULE],              run_broadcast)),
            ("broadcast-detailed", Protocol::new(AGENTS,  false, &[SCHEDULE],              run_broadcast_detailed)),
            ("mc-boost",           Protocol::new(AGENTS,  false, &[SCHEDULE, MC_BOOST],    run_mc_boost)),
            ("async-broadcast",    Protocol::new(AGENTS,  false, &[SCHEDULE, &[VARIANT]],  run_async_broadcast)),
            ("baseline-compare",   Protocol::new(AGENTS,  false, &[SCHEDULE, &[BASELINE]], run_baseline_compare)),
            ("chain-relay",        Protocol::new(AGENTS,  false, &[CHAIN_RELAY],           run_chain_relay)),
            ("two-party-samples",  Protocol::new(AGENTS,  false, &[&[CONFIDENCE]],         run_two_party_samples)),
            ("majority-consensus", Protocol::new(AGENTS,  false, &[SCHEDULE, INITIAL_SET], run_majority_consensus)),
            ("rumor",              Protocol::new(EVERY,   true,  &[RUMOR],                 run_rumor)),
            ("rumor-zealot",       Protocol::new(EVERY,   false, &[RUMOR_ZEALOT],          run_rumor_zealot)),
            ("majority-sampler",   Protocol::new(DENSE,   false, &[&[POPULATION_BIAS]],    run_majority_sampler)),
            ("ben-or",             Protocol::new(AGENTS,  true,  &[CONSENSUS],             |s, t, c| run_decider(s, t, c, BenOrAgent::population, BenOrAgent::decided))),
            ("bv-broadcast",       Protocol::new(AGENTS,  true,  &[CONSENSUS],             run_bv_broadcast)),
            ("safe-bbc",           Protocol::new(AGENTS,  true,  &[CONSENSUS],             |s, t, c| run_decider(s, t, c, SafeBbcAgent::population, SafeBbcAgent::decided))),
            ("bft-compare",        Protocol::new(AGENTS,  true,  &[CONSENSUS],             run_bft_compare)),
        ];
        Self {
            entries: table
                .into_iter()
                .map(|(id, p)| (id.to_string(), p))
                .collect(),
        }
    }

    /// Registers (or replaces) the protocol `id`.
    pub fn register(&mut self, id: &str, protocol: Protocol) {
        self.entries.insert(id.to_string(), protocol);
    }

    /// The registered protocols with their declarations, in id order.  A
    /// declaration's runner is private: only [`Self::resolve`] hands it out,
    /// after checking the cell.
    pub fn list(&self) -> impl Iterator<Item = (&str, &Protocol)> {
        self.entries.iter().map(|(id, p)| (id.as_str(), p))
    }

    /// Resolves a cell to its trial runner, checking it against the
    /// protocol's declaration (see the module docs).  The runner expects
    /// this cell: it reads the checked values without checking them again.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Protocol`] for unknown ids, unsupported
    /// protocol/backend combinations and fault directives the protocol
    /// does not take, and [`SweepError::Spec`] naming the cell's point for
    /// an undeclared param key or a missing or out-of-range value.
    pub fn resolve(&self, spec: &ScenarioSpec) -> Result<&TrialFn, SweepError> {
        let entry = self.entries.get(&spec.protocol).ok_or_else(|| {
            SweepError::Protocol(format!(
                "unknown protocol `{}`; registered: {}",
                spec.protocol,
                self.entries.keys().cloned().collect::<Vec<_>>().join(", ")
            ))
        })?;
        if !entry.backends.iter().any(|b| b.same_family(spec.backend)) {
            return Err(SweepError::Protocol(format!(
                "protocol `{}` has no `{}` variant (supported: {})",
                spec.protocol,
                spec.backend,
                entry
                    .backends
                    .iter()
                    .map(|b| b.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
        if !spec.faults.is_empty() && !entry.faults {
            return Err(SweepError::Protocol(format!(
                "protocol `{}` does not support fault injection, but the spec carries \
                 `faults: {}`; drop the directive or pick a fault-capable protocol",
                spec.protocol, spec.faults
            )));
        }
        entry.check(spec)?;
        Ok(&entry.run)
    }

    /// Runs one trial of `spec` (resolve + execute) with sequential rounds.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolRegistry::resolve`] failures and simulation
    /// errors from the protocol itself.
    pub fn run_trial(&self, spec: &ScenarioSpec, trial: u64) -> TrialResult {
        self.run_trial_with_context(spec, trial, &TrialContext::sequential())
    }

    /// Runs one trial of `spec` under an explicit [`TrialContext`] (thread
    /// budget plus optional telemetry hub).  The telemetry attachment obeys
    /// the same invariance contract as the thread budget: metrics are
    /// bit-identical with and without it.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolRegistry::resolve`] failures and simulation
    /// errors from the protocol itself.
    pub fn run_trial_with_context(
        &self,
        spec: &ScenarioSpec,
        trial: u64,
        context: &TrialContext,
    ) -> TrialResult {
        (self.resolve(spec)?)(spec, trial, context)
    }
}

impl Default for ProtocolRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

/// The cell's `n` as a population size.
///
/// # Errors
///
/// [`SweepError::Spec`] when `n` does not fit in `usize`.
fn population_size(spec: &ScenarioSpec) -> Result<usize, SweepError> {
    usize::try_from(spec.n()).map_err(|_| SweepError::Spec("`n` does not fit in usize".into()))
}

/// The cell's channel: binary symmetric with margin `epsilon`.
///
/// # Errors
///
/// [`SweepError::Spec`] when `epsilon` is not in `(0, 1/2]`.
fn channel(spec: &ScenarioSpec) -> Result<BinarySymmetricChannel, SweepError> {
    BinarySymmetricChannel::from_epsilon(spec.epsilon())
        .map_err(|e| SweepError::Spec(e.to_string()))
}

/// Requires `trials = 1` of a runner that `does` its whole measurement in
/// one trial.
fn one_trial(spec: &ScenarioSpec, does: &str) -> Result<(), SweepError> {
    if spec.trials == 1 {
        return Ok(());
    }
    let (protocol, trials) = (&spec.protocol, spec.trials);
    Err(SweepError::Spec(format!(
        "`{protocol}` {does} in one trial; set `trials` to 1 (got {trials})"
    )))
}

/// Requires the round cap a run-until-done runner stops at.
fn round_cap(spec: &ScenarioSpec) -> Result<(), SweepError> {
    if spec.rounds > 0 {
        return Ok(());
    }
    let protocol = &spec.protocol;
    Err(SweepError::Spec(format!(
        "`{protocol}` needs a round cap (`rounds` > 0)"
    )))
}

/// The engine config every runner builds: `n` agents seeded with `seed`,
/// [`Opinion::One`] as the reference, the context's round lanes, and the
/// cell's resolved fault assignment.
fn engine_config(
    n: usize,
    seed: u64,
    ctx: &TrialContext,
    fault: Option<FaultSpec>,
) -> SimulationConfig {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_reference(Opinion::One)
        .with_threads(ctx.round_threads);
    match fault {
        Some(spec) => config.with_faults(spec),
        None => config,
    }
}

/// Builds `Params` from a cell: `n`/`epsilon` plus any of the multiplier
/// overrides (`s_mult`, `beta_mult`, `f_mult`, `gamma_mult`, `final_mult`,
/// `extra_boost_phases`) the spec carries.
///
/// # Errors
///
/// [`SweepError::Spec`] when `n` does not fit in `usize` or [`Params`]
/// rejects the values.  The multipliers' declared ranges are not checked
/// here: the cell must be one that [`ProtocolRegistry::resolve`] accepted
/// for a protocol reading them.  On any other cell a bad
/// `extra_boost_phases` is cast, not reported (`-1` reads as 0, `1.5` as 1).
pub fn params_from_spec(spec: &ScenarioSpec) -> Result<Params, SweepError> {
    let practical = Multipliers::practical();
    let multipliers = Multipliers {
        s_mult: spec.param_or("s_mult", practical.s_mult),
        beta_mult: spec.param_or("beta_mult", practical.beta_mult),
        f_mult: spec.param_or("f_mult", practical.f_mult),
        gamma_mult: spec.param_or("gamma_mult", practical.gamma_mult),
        extra_boost_phases: spec.param_or("extra_boost_phases", practical.extra_boost_phases as f64)
            as usize,
        final_mult: spec.param_or("final_mult", practical.final_mult),
    };
    Params::with_multipliers(population_size(spec)?, spec.epsilon(), multipliers)
        .map_err(|e| SweepError::Spec(e.to_string()))
}

/// `broadcast`: the full two-stage protocol, one source, opinion `One`.
fn run_broadcast(spec: &ScenarioSpec, trial: u64, ctx: &TrialContext) -> TrialResult {
    let params = params_from_spec(spec)?;
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let mut sim = protocol.build_simulation(spec.seed_for_trial(trial))?;
    let outcome = ctx.observe(&mut sim, |sim| protocol.run_simulation(sim));
    Ok(vec![
        ("total_rounds", outcome.total_rounds as f64),
        ("stage1_rounds", outcome.stage1_rounds as f64),
        ("messages_sent", outcome.messages_sent as f64),
        ("active_after_stage1", outcome.active_after_stage1 as f64),
        (
            "fraction_correct_after_stage1",
            outcome.fraction_correct_after_stage1,
        ),
        ("fraction_correct", outcome.fraction_correct),
        ("all_correct", f64::from(u8::from(outcome.all_correct))),
        ("stage1_bias", outcome.fraction_correct_after_stage1 - 0.5),
    ])
}

/// Interns a dynamically-built metric name (`prefix` + `index`) so level- and
/// phase-indexed metrics can use the `&'static str` names [`TrialFn`]
/// returns.  Names are leaked once and reused forever; the universe of
/// per-level names is tiny (a few dozen across a whole report run).
fn indexed_metric(prefix: &str, index: usize) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let name = format!("{prefix}{index}");
    let mut map = NAMES
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("metric-name interner poisoned");
    if let Some(&interned) = map.get(&name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    map.insert(name, leaked);
    leaked
}

/// `broadcast-detailed`: one full broadcast run per trial with the per-level
/// Stage I statistics the E4/E5/E6/E7b tables render — level sizes, level
/// biases, the paper's Claim 2.2/2.4/2.8 bound checks (evaluated per trial
/// against this cell's `Params`), and the per-phase fraction-correct
/// trajectory.
///
/// Level-indexed metrics follow the legacy reporting rules exactly:
/// `level_cum_i`/`claim24_holds_i` cover levels `0..levels-1`;
/// `level_bias_i`/`claim28_holds_i` are omitted for a trial whose level `i`
/// activated no agents (the aggregates then cover the reporting trials
/// only, matching the legacy per-level vectors).
fn run_broadcast_detailed(spec: &ScenarioSpec, trial: u64, _ctx: &TrialContext) -> TrialResult {
    let params = params_from_spec(spec)?;
    let epsilon = spec.epsilon();
    let protocol = BroadcastProtocol::new(params.clone(), Opinion::One);
    let detailed = protocol.run_detailed(spec.seed_for_trial(trial))?;
    let levels = detailed.levels.len();
    let level0 = detailed.levels[0];
    let (lo, hi, min_bias) = theory::claim_2_2_bounds(params.beta_s(), epsilon);
    let claim22 =
        level0.activated as f64 >= lo && level0.activated as f64 <= hi && level0.bias() >= min_bias;
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("x0", level0.activated as f64),
        ("x0p1", level0.activated as f64 + 1.0),
        ("bias0", level0.bias()),
        ("claim22_holds", f64::from(u8::from(claim22))),
        ("levels", levels as f64),
        (
            "all_active",
            f64::from(u8::from(detailed.outcome.active_after_stage1 == params.n())),
        ),
        (
            "stage1_bias",
            detailed.outcome.fraction_correct_after_stage1 - 0.5,
        ),
        (
            "stage1_bias_positive",
            f64::from(u8::from(
                detailed.outcome.fraction_correct_after_stage1 - 0.5 > 0.0,
            )),
        ),
    ];
    let beta = params.beta();
    for level in 0..levels.saturating_sub(1) {
        let x0 = detailed.levels[0].activated + 1;
        let cumulative = detailed.levels[..=level]
            .iter()
            .map(|l| l.activated)
            .sum::<usize>()
            + 1;
        let (lo, hi) = theory::claim_2_4_bounds(beta, x0 as u64, level as u32);
        let holds = cumulative as f64 >= lo && cumulative as f64 <= hi + 1.0;
        metrics.push((indexed_metric("level_cum_", level), cumulative as f64));
        metrics.push((
            indexed_metric("claim24_holds_", level),
            f64::from(u8::from(holds)),
        ));
    }
    for (level, stats) in detailed.levels.iter().enumerate() {
        if stats.activated == 0 {
            continue;
        }
        let bound = theory::claim_2_8_bias_lower_bound(epsilon, level as u32);
        metrics.push((indexed_metric("level_bias_", level), stats.bias()));
        metrics.push((
            indexed_metric("claim28_holds_", level),
            f64::from(u8::from(stats.bias() >= bound)),
        ));
    }
    for (phase, &fraction) in detailed.fraction_correct_after_phase.iter().enumerate() {
        metrics.push((indexed_metric("phase_frac_", phase), fraction));
    }
    Ok(metrics)
}

/// `mc-boost`: the Lemma 2.11 Monte-Carlo estimate — `gamma` (from the
/// cell's `Params`) noisy samples of a `delta`-biased population, majority
/// decoded, repeated `mc_trials` times inside **one** cell trial.
///
/// The whole estimate is one draw, so the spec must set `trials = 1`; the
/// sample count rides in the `mc_trials` param.  Seeding matches the legacy
/// E7a loop: the RNG is `stream_seed(stream_seed(base_seed, seed_point),
/// point - seed_point)` with `seed_point` defaulting to the legacy `700`, so
/// the cell at `point = seed_point + idx` reproduces
/// `cfg.seed_for(seed_point, idx)` exactly.
fn run_mc_boost(spec: &ScenarioSpec, _trial: u64, _ctx: &TrialContext) -> TrialResult {
    one_trial(spec, "draws its `mc_trials`-sample estimate")?;
    let params = params_from_spec(spec)?;
    let gamma = params.gamma();
    let delta = spec.params["delta"];
    let mc_trials = spec.params["mc_trials"] as u32;
    let seed_point = spec.param_or("seed_point", 700.0) as u64;
    let Some(idx) = spec.point.checked_sub(seed_point) else {
        return Err(SweepError::Spec(format!(
            "`mc-boost` cell point {} precedes its seed point {seed_point}",
            spec.point
        )));
    };
    let seed = SimRng::stream_seed(SimRng::stream_seed(spec.base_seed, seed_point), idx);
    let channel = channel(spec)?;
    let mut rng = SimRng::from_seed(seed);
    let mut correct_majorities = 0u32;
    for _ in 0..mc_trials {
        let mut correct_samples = 0u64;
        for _ in 0..gamma {
            // Sample an agent from a population with bias delta, then transmit.
            let opinion_correct = rng.gen::<f64>() < 0.5 + delta;
            let sent = if opinion_correct {
                Opinion::One
            } else {
                Opinion::Zero
            };
            if channel.transmit(sent, &mut rng) == Opinion::One {
                correct_samples += 1;
            }
        }
        if 2 * correct_samples > gamma {
            correct_majorities += 1;
        }
    }
    Ok(vec![(
        "measured",
        f64::from(correct_majorities) / f64::from(mc_trials),
    )])
}

/// `async-broadcast`: the Theorem 3.1 local-clock broadcast.  The `variant`
/// param selects the construction: `0` (the default) runs bounded clock
/// offsets (with the legacy `d = 2⌈log₂ n⌉` bound), `1` the resynchronised
/// schedule.
///
/// `all_correct` is reported every trial; the round counts
/// (`sync_rounds`/`total_rounds`/`overhead_rounds`) are fixed by the
/// schedule, so they are recorded on trial 0 only — exactly the values the
/// legacy E9 table displayed from its first outcome.
fn run_async_broadcast(spec: &ScenarioSpec, trial: u64, _ctx: &TrialContext) -> TrialResult {
    let params = params_from_spec(spec)?;
    let d = 2 * (spec.n() as f64).log2().ceil() as u64;
    let variant = if spec.param_or("variant", 0.0) == 0.0 {
        AsyncVariant::BoundedOffsets { max_offset: d }
    } else {
        AsyncVariant::Resynchronised
    };
    let protocol = AsyncBroadcastProtocol::new(params, Opinion::One, variant);
    let outcome = protocol.run_with_seed(spec.seed_for_trial(trial))?;
    let mut metrics: Vec<(&'static str, f64)> =
        vec![("all_correct", f64::from(u8::from(outcome.all_correct)))];
    if trial == 0 {
        metrics.push(("sync_rounds", outcome.synchronous_rounds as f64));
        metrics.push(("total_rounds", outcome.total_rounds as f64));
        metrics.push(("overhead_rounds", outcome.overhead_rounds() as f64));
    }
    Ok(metrics)
}

/// `baseline-compare`: one protocol from the E10 comparison per cell, picked
/// by the `baseline` param — `0` breathe itself, `1` immediate forwarding,
/// `2` wait-for-source, `3` two-choices majority, `4` three-state majority,
/// `5` noisy voter with a zealot.  Every baseline gets the breathe round
/// budget (`Params::total_rounds` for the cell's `n`/`ε`), the legacy
/// apples-to-apples rule.
fn run_baseline_compare(spec: &ScenarioSpec, trial: u64, _ctx: &TrialContext) -> TrialResult {
    let n = population_size(spec)?;
    let epsilon = spec.epsilon();
    let params = params_from_spec(spec)?;
    let budget = params.total_rounds();
    let correct = Opinion::One;
    let seed = spec.seed_for_trial(trial);
    let spec_err = |e: flip_model::FlipError| SweepError::Spec(e.to_string());
    let baseline = spec.params["baseline"] as u8;
    let (fraction, all_correct) = if baseline == 0 {
        let outcome = BroadcastProtocol::new(params, correct).run_with_seed(seed)?;
        (outcome.fraction_correct, outcome.all_correct)
    } else {
        let outcome = match baseline {
            1 => ForwardingProtocol::new(n, epsilon, budget)
                .map_err(spec_err)?
                .run_with_seed(correct, seed),
            2 => WaitForSourceProtocol::new(n, epsilon, budget)
                .map_err(spec_err)?
                .run_with_seed(correct, seed),
            3 => TwoChoicesProtocol::new(n, epsilon, budget)
                .map_err(spec_err)?
                .run_with_seed(correct, n / 2 + 1, seed),
            4 => ThreeStateProtocol::new(n, epsilon, budget)
                .map_err(spec_err)?
                .run_with_seed(correct, 1, 0, seed),
            5 => NoisyVoterProtocol::new(n, epsilon, budget)
                .map_err(spec_err)?
                .run_with_seed(correct, seed),
            _ => unreachable!("`resolve` admits baselines 0..=5"),
        }?;
        (outcome.fraction_correct, outcome.all_correct)
    };
    Ok(vec![
        ("fraction_correct", fraction),
        ("all_correct", f64::from(u8::from(all_correct))),
    ])
}

/// `chain-relay`: the §1.6 relay chain — one bit forwarded over `hops`
/// noisy links, majority over nothing (a single path), measured over
/// `samples` chains inside one cell trial (so `trials` must be 1).
///
/// Seeding matches the legacy E11 loop: `stream_seed(stream_seed(base_seed,
/// seed_point), hops)` with `seed_point` defaulting to the legacy `1100` —
/// the legacy seed depended on the hop count only, never on `ε`.
fn run_chain_relay(spec: &ScenarioSpec, _trial: u64, _ctx: &TrialContext) -> TrialResult {
    one_trial(spec, "draws its `samples`-chain estimate")?;
    let epsilon = spec.epsilon();
    let hops = spec.params["hops"] as u32;
    let samples = spec.params["samples"] as u32;
    let seed_point = spec.param_or("seed_point", 1_100.0) as u64;
    let seed = SimRng::stream_seed(
        SimRng::stream_seed(spec.base_seed, seed_point),
        u64::from(hops),
    );
    let measured = simulate_chain(epsilon, hops, samples, seed)
        .map_err(|e| SweepError::Spec(e.to_string()))?;
    Ok(vec![("measured", measured)])
}

/// The smallest odd sample count for which an exact majority decoder over a
/// binary symmetric channel with crossover `1/2 - epsilon` reaches the given
/// confidence (searched in steps of two; capped at ~10⁶ samples).
///
/// The `two-party-samples` runner records this count as its `samples`
/// metric, which the E12 table prints.
#[must_use]
pub fn samples_for_confidence(epsilon: f64, confidence: f64) -> u64 {
    let p = 0.5 + epsilon;
    let mut samples = 1u64;
    while majority_correct_probability(samples, p) < confidence {
        samples += 2;
        if samples > 1_000_000 {
            break;
        }
    }
    samples
}

/// `two-party-samples`: the §1.4 two-party lower-bound table — the exact
/// (deterministic) majority-decoder sample count for the cell's `ε` at the
/// `confidence` param (default `0.99`).  Deterministic, so `trials` must be
/// 1.
fn run_two_party_samples(spec: &ScenarioSpec, _trial: u64, _ctx: &TrialContext) -> TrialResult {
    one_trial(spec, "computes its exact count")?;
    let confidence = spec.param_or("confidence", 0.99);
    let needed = samples_for_confidence(spec.epsilon(), confidence);
    Ok(vec![("samples", needed as f64)])
}

/// `majority-consensus`: params `initial_size` (default `n`) and
/// `initial_bias` (default `0.1`) select the opinionated set.
fn run_majority_consensus(spec: &ScenarioSpec, trial: u64, ctx: &TrialContext) -> TrialResult {
    let params = params_from_spec(spec)?;
    let size = spec.param_or("initial_size", spec.n() as f64) as usize;
    let bias = spec.param_or("initial_bias", 0.1);
    let initial = InitialSet::with_bias(size, bias).map_err(|e| SweepError::Spec(e.to_string()))?;
    let protocol = MajorityConsensusProtocol::new(params, Opinion::One, initial)
        .map_err(|e| SweepError::Spec(e.to_string()))?;
    let mut sim = protocol.build_simulation(spec.seed_for_trial(trial))?;
    let outcome = ctx.observe(&mut sim, |sim| protocol.run_simulation(sim));
    Ok(vec![
        ("total_rounds", outcome.total_rounds as f64),
        ("messages_sent", outcome.messages_sent as f64),
        ("initial_majority_bias", outcome.initial_majority_bias),
        ("fraction_correct", outcome.fraction_correct),
        ("all_correct", f64::from(u8::from(outcome.all_correct))),
    ])
}

/// Resolves a cell's effective fault assignment: the spec's `faults`
/// directive, with the fraction overridden by the `fault_fraction` param
/// when present.
///
/// The override lets a sweep axis vary the faulty fraction cell-by-cell
/// against a single directive string: `fault_fraction = 0` means
/// *fault-free* (so a sweep can include the honest baseline in its grid),
/// any other value replaces the directive's fraction while keeping its
/// kind.  A `fault_fraction` without a base directive is a spec error —
/// there is no fault kind to apply it to.
///
/// # Errors
///
/// Returns [`SweepError::Spec`] for unparsable directives, a
/// `fault_fraction` outside `(0, 1)`, or an override with no base
/// directive.
pub fn fault_spec_for(spec: &ScenarioSpec) -> Result<Option<FaultSpec>, SweepError> {
    let base: Option<FaultSpec> = if spec.faults.is_empty() {
        None
    } else {
        Some(
            spec.faults
                .parse()
                .map_err(|e: flip_model::FlipError| SweepError::Spec(e.to_string()))?,
        )
    };
    let Some(&fraction) = spec.params.get("fault_fraction") else {
        return Ok(base);
    };
    if fraction == 0.0 {
        return Ok(None);
    }
    let Some(base) = base else {
        return Err(SweepError::Spec(
            "`fault_fraction` overrides the fraction of the spec's `faults` directive, \
             but this spec has no `faults` directive to override"
                .into(),
        ));
    };
    FaultSpec::new(base.kind, fraction)
        .map(Some)
        .map_err(|e| SweepError::Spec(e.to_string()))
}

/// Validates a hybrid tracked-subpopulation size against the cell's `n`.
fn hybrid_tracked(k: u32, n: usize) -> Result<usize, SweepError> {
    let k = k as usize;
    if k == 0 {
        return Err(SweepError::Spec(
            "`hybrid:0` tracks no agents; the tracked subpopulation size must be >= 1".into(),
        ));
    }
    if k >= n {
        return Err(SweepError::Spec(format!(
            "`hybrid:{k}` leaves no dense bulk at n = {n}; use the agents backend instead"
        )));
    }
    Ok(k)
}

/// The tail of every `rumor`/`rumor-zealot` backend arm: runs `engine`
/// until all `n` agents are active or the cell's round cap, under the
/// context's telemetry, and reports the rounds run, the final fraction
/// holding [`Opinion::One`] and the messages sent.
fn run_to_activation<E: FlipEngine>(
    mut engine: E,
    n: usize,
    spec: &ScenarioSpec,
    ctx: &TrialContext,
) -> Vec<(&'static str, f64)> {
    let rounds = ctx.observe(&mut engine, |engine| {
        engine.run_until(spec.rounds, |e| e.census().active() == n)
    });
    vec![
        ("rounds", rounds as f64),
        (
            "fraction_correct",
            engine.census().fraction_correct(Opinion::One),
        ),
        ("messages_sent", engine.metrics().messages_sent as f64),
    ]
}

/// `rumor`: `informed` agents start active; runs until full activation or
/// the cell's round cap, on any engine family.  The agents backend hands
/// `round_threads` to the engine's (bit-identical) parallel router; the
/// dense and hybrid backends are counts-based and have no per-message work
/// to split.  On `hybrid:k` the tracked agents are the first `k` slots of
/// the canonical per-agent layout (informed first, then undecided).
///
/// Fault-capable: a `faults` directive assigns roles on the agents backend
/// (and on the tracked side of `hybrid:k`, whose constructor checks that
/// `k` covers the faulty count).  The dense backend has no per-agent roles
/// and rejects faults loudly.
fn run_rumor(spec: &ScenarioSpec, trial: u64, ctx: &TrialContext) -> TrialResult {
    round_cap(spec)?;
    let n = population_size(spec)?;
    let informed = spec.param_or("informed", 1.0) as u64;
    if informed > spec.n() {
        return Err(SweepError::Spec(format!(
            "`informed` = {informed} exceeds n = {}",
            spec.n()
        )));
    }
    let fault = fault_spec_for(spec)?;
    let channel = channel(spec)?;
    let config = engine_config(n, spec.seed_for_trial(trial), ctx, fault);
    Ok(match spec.backend {
        Backend::Dense => {
            if fault.is_some() {
                return Err(SweepError::Spec(
                    "the dense backend aggregates agents into counts and has no per-agent \
                     fault roles; run faulty `rumor` cells on `agents` or `hybrid:k`"
                        .into(),
                ));
            }
            let population = RumorProtocol::population(spec.n(), 0, informed);
            let sim = DenseSimulation::new(RumorProtocol, channel, population, config)?;
            run_to_activation(sim, n, spec, ctx)
        }
        Backend::Agents => {
            let agents = RumorAgent::population(n, 0, informed as usize);
            run_to_activation(Simulation::new(agents, channel, config)?, n, spec, ctx)
        }
        Backend::Hybrid(k) => {
            let k = hybrid_tracked(k, n)?;
            let tracked_ones = informed.min(k as u64);
            let tracked = RumorAgent::population(k, 0, tracked_ones as usize);
            let bulk = StratifiedPopulation::single(RumorProtocol::population(
                (n - k) as u64,
                0,
                informed - tracked_ones,
            ));
            let sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config)?;
            run_to_activation(sim, n, spec, ctx)
        }
    })
}

/// `rumor-zealot`: heterogeneous rumor spreading — `informed` honest agents
/// seed [`Opinion::One`] while a `zealots`-sized subpopulation pushes
/// [`Opinion::Zero`] every round and never listens.  Two strata on the
/// dense engine, the same split agent-by-agent on the reference engine, and
/// on `hybrid:k` the first `k` agents of the per-agent layout (honest
/// first, zealots last) tracked exactly against the stratified bulk.
fn run_rumor_zealot(spec: &ScenarioSpec, trial: u64, ctx: &TrialContext) -> TrialResult {
    round_cap(spec)?;
    let n = population_size(spec)?;
    let informed = spec.param_or("informed", 1.0) as u64;
    let zealots = spec.params["zealots"] as u64;
    if informed + zealots > spec.n() {
        return Err(SweepError::Spec(format!(
            "`informed` + `zealots` = {} exceeds n = {}",
            informed + zealots,
            spec.n()
        )));
    }
    let channel = channel(spec)?;
    let config = engine_config(n, spec.seed_for_trial(trial), ctx, None);
    Ok(match spec.backend {
        Backend::Dense => {
            let population = ZealotRumorProtocol::population(spec.n(), 0, informed, zealots);
            let sim = StratifiedSimulation::new(
                ZealotRumorProtocol,
                vec![channel; 2],
                population,
                config,
            )?;
            run_to_activation(sim, n, spec, ctx)
        }
        Backend::Agents => {
            let agents = ZealotAgent::population(n, 0, informed as usize, zealots as usize);
            run_to_activation(Simulation::new(agents, channel, config)?, n, spec, ctx)
        }
        Backend::Hybrid(k) => {
            let k = hybrid_tracked(k, n)?;
            let honest = n - zealots as usize;
            // First k agents of the per-agent layout: informed ones, then
            // undecided honest, then zealots.
            let tracked: Vec<ZealotAgent> =
                ZealotAgent::population(n, 0, informed as usize, zealots as usize)
                    .into_iter()
                    .take(k)
                    .collect();
            let tracked_ones = informed.min(k as u64);
            let tracked_undecided = (k as u64 - tracked_ones).min(honest as u64 - informed);
            let tracked_zealots = k as u64 - tracked_ones - tracked_undecided;
            let bulk = StratifiedPopulation::from_strata(vec![
                vec![
                    honest as u64 - informed - tracked_undecided,
                    0,
                    informed - tracked_ones,
                ],
                vec![zealots - tracked_zealots],
            ])
            .map_err(|e| SweepError::Spec(e.to_string()))?;
            let sim = HybridSimulation::new(tracked, ZealotRumorProtocol, channel, bulk, config)?;
            run_to_activation(sim, n, spec, ctx)
        }
    })
}

/// The most `(opinion, ones, total)` states `majority-sampler` builds.  The
/// dense engine keeps two count vectors of this many `u64`s (16 MiB each at
/// the cap), and a round visits every state.  E8-D's ε = 0.3 needs 600.
const MAX_SAMPLER_STATES: u64 = 1 << 21;

/// `majority-sampler`: dense Stage-II boost.  Param `initial_bias` sets the
/// whole-population bias towards the correct opinion; phase length is the
/// paper's odd `L = ⌈2/ε²⌉ | 1` and the phase count `2·⌈log₂ n⌉` (the E8-D
/// schedule).  The sampler has `(L+1)(L+2)` states, which must not exceed
/// [`MAX_SAMPLER_STATES`].
fn run_majority_sampler(spec: &ScenarioSpec, trial: u64, ctx: &TrialContext) -> TrialResult {
    let epsilon = spec.epsilon();
    let n = spec.n();
    let bias = spec.param_or("initial_bias", 0.01);
    let phase_len = ((2.0 / (epsilon * epsilon)).ceil() as u64) | 1;
    let states = phase_len
        .checked_add(1)
        .zip(phase_len.checked_add(2))
        .and_then(|(a, b)| a.checked_mul(b));
    if states.is_none_or(|states| states > MAX_SAMPLER_STATES) {
        return Err(SweepError::Spec(format!(
            "`epsilon` = {epsilon} gives the sampler phases of L = {phase_len} rounds and \
             (L+1)(L+2) tally states, more than the {MAX_SAMPLER_STATES} it can hold; \
             raise `epsilon`"
        )));
    }
    let phases = 2 * (n as f64).log2().ceil() as u64;
    let correct = (((0.5 + bias) * n as f64).round() as u64).min(n);
    let sampler = MajoritySamplerProtocol::new(phase_len);
    let population = sampler.population(n - correct, correct);
    let channel = channel(spec)?;
    let config = engine_config(
        population_size(spec)?,
        spec.seed_for_trial(trial),
        ctx,
        None,
    );
    let mut sim = DenseSimulation::new(sampler, channel, population, config)?;
    sim.run(phases * phase_len);
    let fraction = sim.census().fraction_correct(Opinion::One);
    Ok(vec![
        ("fraction_correct", fraction),
        ("majority_preserved", f64::from(u8::from(fraction > 0.5))),
        ("phases", phases as f64),
    ])
}

/// Shared setup for the consensus comparators: `(n, initially-correct
/// count, phase length)` from the `initial_bias` (default `0.1`) and
/// `phase_len` (default `15`) params, requiring a round cap.
fn consensus_setup(spec: &ScenarioSpec) -> Result<(usize, usize, u64), SweepError> {
    round_cap(spec)?;
    let n = population_size(spec)?;
    let bias = spec.param_or("initial_bias", 0.1);
    let correct = ((0.5 + bias) * n as f64).round() as usize;
    let phase_len = spec.param_or("phase_len", 15.0) as u64;
    Ok((n, correct.min(n), phase_len))
}

/// A consensus comparator's engine over `agents`: the cell's channel and
/// fault assignment, seeded with `seed`.
fn consensus_engine<A: Agent>(
    spec: &ScenarioSpec,
    seed: u64,
    ctx: &TrialContext,
    agents: Vec<A>,
) -> Result<Simulation<A, BinarySymmetricChannel>, SweepError> {
    let config = engine_config(agents.len(), seed, ctx, fault_spec_for(spec)?);
    Ok(Simulation::new(agents, channel(spec)?, config)?)
}

/// Counts `(honest agents, honest agents satisfying pred)` over a
/// per-agent simulation, skipping agents the fault plan marked faulty —
/// the E13 statistics are about what the *honest* population achieves
/// despite the faulty one, whose state is adversarial garbage.
fn honest_count<A: Agent, C: Channel>(
    sim: &Simulation<A, C>,
    pred: impl Fn(&A) -> bool,
) -> (usize, usize) {
    let mut honest = 0;
    let mut matching = 0;
    for (i, agent) in sim.agents().iter().enumerate() {
        if sim.fault_plan().is_some_and(|p| p.is_faulty(i)) {
            continue;
        }
        honest += 1;
        matching += usize::from(pred(agent));
    }
    (honest, matching)
}

/// Runs a deciding comparator until every honest agent has decided or the
/// cell's round cap, under the context's telemetry; returns the rounds run.
fn run_until_decided<A: Agent, C: Channel>(
    sim: &mut Simulation<A, C>,
    spec: &ScenarioSpec,
    ctx: &TrialContext,
) -> u64 {
    ctx.observe(sim, |sim| {
        sim.run_until(spec.rounds, |s| {
            s.agents()
                .iter()
                .enumerate()
                .all(|(i, a)| a.is_done() || s.fault_plan().is_some_and(|p| p.is_faulty(i)))
        })
    })
}

/// `ben-or` and `safe-bbc`: a gossip-adapted consensus protocol built by
/// `population`, run until every honest agent decides or the round cap.
/// Fault-capable; statistics are honest-only.
fn run_decider<A: Agent>(
    spec: &ScenarioSpec,
    trial: u64,
    ctx: &TrialContext,
    population: fn(usize, usize, u64) -> Vec<A>,
    decided: fn(&A) -> Option<Opinion>,
) -> TrialResult {
    let (n, correct, phase_len) = consensus_setup(spec)?;
    let agents = population(n, correct, phase_len);
    let mut sim = consensus_engine(spec, spec.seed_for_trial(trial), ctx, agents)?;
    let rounds = run_until_decided(&mut sim, spec, ctx);
    let (honest, correct_now) = honest_count(&sim, |a| a.opinion() == Some(Opinion::One));
    let (_, decided_count) = honest_count(&sim, A::is_done);
    let (_, decided_correct) = honest_count(&sim, |a| decided(a) == Some(Opinion::One));
    let honest = honest.max(1) as f64;
    Ok(vec![
        ("rounds", rounds as f64),
        ("fraction_correct", correct_now as f64 / honest),
        ("decided_fraction", decided_count as f64 / honest),
        ("decided_correct_fraction", decided_correct as f64 / honest),
        ("messages_sent", sim.metrics().messages_sent as f64),
    ])
}

/// `bv-broadcast`: the BV primitive run for the full round cap; reports
/// which values achieved delivery among the honest agents.
fn run_bv_broadcast(spec: &ScenarioSpec, trial: u64, ctx: &TrialContext) -> TrialResult {
    let (n, correct, phase_len) = consensus_setup(spec)?;
    let agents = BvBroadcastAgent::population(n, correct, phase_len);
    let mut sim = consensus_engine(spec, spec.seed_for_trial(trial), ctx, agents)?;
    ctx.observe(&mut sim, |sim| {
        sim.run(spec.rounds);
    });
    let (honest, delivered_one) = honest_count(&sim, |a| a.bin_value(Opinion::One));
    let (_, delivered_zero) = honest_count(&sim, |a| a.bin_value(Opinion::Zero));
    let honest = honest.max(1) as f64;
    Ok(vec![
        ("rounds", spec.rounds as f64),
        ("delivered_one_fraction", delivered_one as f64 / honest),
        ("delivered_zero_fraction", delivered_zero as f64 / honest),
        ("messages_sent", sim.metrics().messages_sent as f64),
    ])
}

/// `bft-compare` (the E13 workload): one trial runs the paper's Stage-II
/// style majority boost *and* gossip-adapted Ben-Or over the same cell —
/// identical `n`, noise, fault directive and round cap — with the two
/// engines sub-seeded from the trial seed
/// ([`SimRng::stream_seed`]`(trial_seed, 0 | 1)`), so the comparison is
/// apples-to-apples per trial and remains thread-count-invariant.
fn run_bft_compare(spec: &ScenarioSpec, trial: u64, ctx: &TrialContext) -> TrialResult {
    let (n, correct, phase_len) = consensus_setup(spec)?;
    let trial_seed = spec.seed_for_trial(trial);

    let agents = MajorityBoostAgent::population(n, correct, phase_len);
    let mut majority = consensus_engine(spec, SimRng::stream_seed(trial_seed, 0), ctx, agents)?;
    ctx.observe(&mut majority, |sim| {
        sim.run(spec.rounds);
    });
    let (honest, majority_correct) = honest_count(&majority, |a| a.opinion() == Some(Opinion::One));

    let agents = BenOrAgent::population(n, correct, phase_len);
    let mut benor = consensus_engine(spec, SimRng::stream_seed(trial_seed, 1), ctx, agents)?;
    let benor_rounds = run_until_decided(&mut benor, spec, ctx);
    // The two runs draw their faulty sets independently, so each fraction
    // is over its own run's honest agents.
    let (benor_honest, benor_correct) = honest_count(&benor, |a| a.opinion() == Some(Opinion::One));
    let (_, benor_decided) = honest_count(&benor, |a| a.is_done());

    let messages = majority.metrics().messages_sent + benor.metrics().messages_sent;
    let all_correct = honest > 0 && majority_correct == honest;
    let honest = honest.max(1) as f64;
    let benor_honest = benor_honest.max(1) as f64;
    Ok(vec![
        (
            "majority_fraction_correct",
            majority_correct as f64 / honest,
        ),
        ("majority_all_correct", f64::from(u8::from(all_correct))),
        (
            "benor_fraction_correct",
            benor_correct as f64 / benor_honest,
        ),
        (
            "benor_decided_fraction",
            benor_decided as f64 / benor_honest,
        ),
        ("benor_rounds", benor_rounds as f64),
        ("messages_sent", messages as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cell(protocol: &str, backend: Backend, params: &[(&str, f64)]) -> ScenarioSpec {
        ScenarioSpec {
            protocol: protocol.into(),
            backend,
            trials: 2,
            base_seed: 11,
            point: 0,
            rounds: 200,
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
            faults: String::new(),
        }
    }

    #[test]
    fn unknown_protocols_and_backends_fail_loudly() {
        let registry = ProtocolRegistry::builtin();
        let unknown = cell(
            "teleport",
            Backend::Agents,
            &[("n", 100.0), ("epsilon", 0.2)],
        );
        assert!(matches!(
            registry.resolve(&unknown),
            Err(SweepError::Protocol(_))
        ));
        let dense_broadcast = cell(
            "broadcast",
            Backend::Dense,
            &[("n", 100.0), ("epsilon", 0.2)],
        );
        let Err(err) = registry.resolve(&dense_broadcast) else {
            panic!("dense broadcast must be rejected");
        };
        assert!(err.to_string().contains("no `dense` variant"), "{err}");
    }

    #[test]
    fn integer_params_reject_negative_fractional_and_oversized_values() {
        let registry = ProtocolRegistry::builtin();
        let rejects = |spec: ScenarioSpec, key: &str| {
            let Err(err) = registry.run_trial(&spec, 0) else {
                panic!("`{key}` = {} must be rejected", spec.params[key]);
            };
            let expected = format!("`{key}` must be a non-negative integer");
            assert!(err.to_string().contains(&expected), "{err}");
        };
        let rumor = |informed: f64| {
            cell(
                "rumor",
                Backend::Agents,
                &[("n", 100.0), ("epsilon", 0.2), ("informed", informed)],
            )
        };
        // Negative: a truncating cast made this a run with nobody informed.
        rejects(rumor(-3.0), "informed");
        // Past 2^53, where f64 stops representing every integer.
        rejects(rumor(2f64.powi(60)), "informed");
        // Fractional: a truncating cast ran baseline 1.
        let baseline = cell(
            "baseline-compare",
            Backend::Agents,
            &[("n", 100.0), ("epsilon", 0.3), ("baseline", 1.5)],
        );
        rejects(baseline, "baseline");
        let boost = cell(
            "broadcast",
            Backend::Agents,
            &[("n", 100.0), ("epsilon", 0.3), ("extra_boost_phases", 0.5)],
        );
        rejects(boost, "extra_boost_phases");
        // Too large for the target type: a saturating cast made this
        // u32::MAX hops.
        let chain = ScenarioSpec {
            trials: 1,
            ..cell(
                "chain-relay",
                Backend::Agents,
                &[("n", 100.0), ("epsilon", 0.2), ("hops", 2f64.powi(32))],
            )
        };
        rejects(chain, "hops");
    }

    #[test]
    fn listing_names_every_builtin() {
        let registry = ProtocolRegistry::builtin();
        let ids: Vec<&str> = registry.list().map(|(id, _)| id).collect();
        assert_eq!(
            ids,
            vec![
                "async-broadcast",
                "baseline-compare",
                "ben-or",
                "bft-compare",
                "broadcast",
                "broadcast-detailed",
                "bv-broadcast",
                "chain-relay",
                "majority-consensus",
                "majority-sampler",
                "mc-boost",
                "rumor",
                "rumor-zealot",
                "safe-bbc",
                "two-party-samples",
            ]
        );
    }

    #[test]
    fn broadcast_detailed_reports_per_level_statistics() {
        let registry = ProtocolRegistry::builtin();
        let spec = cell(
            "broadcast-detailed",
            Backend::Agents,
            &[("n", 300.0), ("epsilon", 0.3)],
        );
        let metrics = registry.run_trial(&spec, 0).unwrap();
        assert_eq!(metrics, registry.run_trial(&spec, 0).unwrap());
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric `{name}`"))
        };
        // The level-0 pair matches a direct run_detailed call.
        let params = Params::practical(300, 0.3).unwrap();
        let detailed = BroadcastProtocol::new(params, Opinion::One)
            .run_detailed(spec.seed_for_trial(0))
            .unwrap();
        assert_eq!(get("x0"), detailed.levels[0].activated as f64);
        assert_eq!(get("x0p1"), detailed.levels[0].activated as f64 + 1.0);
        assert_eq!(get("bias0"), detailed.levels[0].bias());
        assert_eq!(get("levels"), detailed.levels.len() as f64);
        assert_eq!(
            get("stage1_bias"),
            detailed.outcome.fraction_correct_after_stage1 - 0.5
        );
        // Phase trajectory covers every schedule phase.
        let phases = detailed.fraction_correct_after_phase.len();
        for phase in 0..phases {
            assert_eq!(
                get(&format!("phase_frac_{phase}")),
                detailed.fraction_correct_after_phase[phase]
            );
        }
        // Cumulative level sizes cover levels 0..levels-1.
        assert!(metrics.iter().any(|(k, _)| *k == "level_cum_0"));
    }

    #[test]
    fn mc_boost_reproduces_the_lemma_2_11_monte_carlo() {
        let registry = ProtocolRegistry::builtin();
        let mut spec = cell(
            "mc-boost",
            Backend::Agents,
            &[
                ("n", 1_000.0),
                ("epsilon", 0.2),
                ("delta", 0.1),
                ("mc_trials", 2_000.0),
            ],
        );
        spec.trials = 1;
        spec.point = 703;
        let metrics = registry.run_trial(&spec, 0).unwrap();
        assert_eq!(metrics, registry.run_trial(&spec, 0).unwrap());
        let measured = metrics[0].1;
        assert_eq!(metrics[0].0, "measured");
        assert!(measured > 0.6, "a 10% bias must boost past 0.6: {measured}");
        // Multi-trial specs are rejected loudly.
        spec.trials = 2;
        let err = registry.run_trial(&spec, 0).unwrap_err();
        assert!(err.to_string().contains("trials"), "{err}");
    }

    #[test]
    fn async_broadcast_runs_both_variants() {
        let registry = ProtocolRegistry::builtin();
        for variant in [0.0, 1.0] {
            let spec = cell(
                "async-broadcast",
                Backend::Agents,
                &[("n", 300.0), ("epsilon", 0.3), ("variant", variant)],
            );
            let trial0 = registry.run_trial(&spec, 0).unwrap();
            assert_eq!(trial0, registry.run_trial(&spec, 0).unwrap());
            let names: Vec<&str> = trial0.iter().map(|(k, _)| *k).collect();
            assert_eq!(
                names,
                vec![
                    "all_correct",
                    "sync_rounds",
                    "total_rounds",
                    "overhead_rounds"
                ],
                "variant {variant}"
            );
            // Later trials report the per-trial metric only.
            let trial1 = registry.run_trial(&spec, 1).unwrap();
            let names: Vec<&str> = trial1.iter().map(|(k, _)| *k).collect();
            assert_eq!(names, vec!["all_correct"], "variant {variant}");
        }
        let bad = cell(
            "async-broadcast",
            Backend::Agents,
            &[("n", 300.0), ("epsilon", 0.3), ("variant", 7.0)],
        );
        assert!(registry.run_trial(&bad, 0).is_err());
    }

    #[test]
    fn baseline_compare_dispatches_every_index() {
        let registry = ProtocolRegistry::builtin();
        for baseline in 0..6 {
            let spec = cell(
                "baseline-compare",
                Backend::Agents,
                &[
                    ("n", 200.0),
                    ("epsilon", 0.2),
                    ("baseline", baseline as f64),
                ],
            );
            let metrics = registry.run_trial(&spec, 0).unwrap();
            assert_eq!(metrics, registry.run_trial(&spec, 0).unwrap(), "{baseline}");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| *k).collect();
            assert_eq!(names, vec!["fraction_correct", "all_correct"], "{baseline}");
        }
        let bad = cell(
            "baseline-compare",
            Backend::Agents,
            &[("n", 200.0), ("epsilon", 0.2), ("baseline", 6.0)],
        );
        let err = registry.run_trial(&bad, 0).unwrap_err();
        assert!(err.to_string().contains("0..=5"), "{err}");
    }

    #[test]
    fn chain_relay_matches_the_direct_simulation() {
        let registry = ProtocolRegistry::builtin();
        let mut spec = cell(
            "chain-relay",
            Backend::Agents,
            &[
                ("n", 1.0),
                ("epsilon", 0.3),
                ("hops", 3.0),
                ("samples", 5_000.0),
            ],
        );
        spec.trials = 1;
        spec.point = 1_103;
        let metrics = registry.run_trial(&spec, 0).unwrap();
        // The legacy seed derivation: hops-keyed, epsilon-independent.
        let seed = SimRng::stream_seed(SimRng::stream_seed(spec.base_seed, 1_100), 3);
        let direct = simulate_chain(0.3, 3, 5_000, seed).unwrap();
        assert_eq!(metrics, vec![("measured", direct)]);
    }

    #[test]
    fn two_party_samples_is_deterministic_and_monotone() {
        let registry = ProtocolRegistry::builtin();
        let mut needed = Vec::new();
        for epsilon in [0.1, 0.2, 0.4] {
            let mut spec = cell(
                "two-party-samples",
                Backend::Agents,
                &[("n", 1.0), ("epsilon", epsilon)],
            );
            spec.trials = 1;
            let metrics = registry.run_trial(&spec, 0).unwrap();
            assert_eq!(metrics[0].0, "samples");
            assert_eq!(metrics[0].1, samples_for_confidence(epsilon, 0.99) as f64);
            needed.push(metrics[0].1);
        }
        assert!(needed[0] > needed[1] && needed[1] > needed[2]);
    }

    #[test]
    fn fault_directives_are_rejected_for_non_capable_protocols() {
        let registry = ProtocolRegistry::builtin();
        let mut spec = cell(
            "broadcast",
            Backend::Agents,
            &[("n", 100.0), ("epsilon", 0.2)],
        );
        spec.faults = "byz:0.2".into();
        let Err(err) = registry.resolve(&spec) else {
            panic!("broadcast must reject fault directives");
        };
        let message = err.to_string();
        assert!(
            message.contains("broadcast") && message.contains("byz:0.2"),
            "{message}"
        );
    }

    #[test]
    fn fault_fraction_param_overrides_the_directive() {
        let mut spec = cell("rumor", Backend::Agents, &[("n", 100.0), ("epsilon", 0.2)]);
        spec.faults = "byz:0.2".into();
        // No override: the directive stands.
        let base = fault_spec_for(&spec).unwrap().unwrap();
        assert_eq!(base.fraction, 0.2);
        // Override replaces the fraction but keeps the kind.
        spec.params.insert("fault_fraction".into(), 0.05);
        let overridden = fault_spec_for(&spec).unwrap().unwrap();
        assert_eq!(overridden.kind, base.kind);
        assert_eq!(overridden.fraction, 0.05);
        // Zero means fault-free — the honest baseline cell of a sweep axis.
        spec.params.insert("fault_fraction".into(), 0.0);
        assert_eq!(fault_spec_for(&spec).unwrap(), None);
        // An override without a base directive has no kind to apply to.
        spec.faults = String::new();
        spec.params.insert("fault_fraction".into(), 0.1);
        let err = fault_spec_for(&spec).unwrap_err();
        assert!(err.to_string().contains("fault_fraction"), "{err}");
        // And an out-of-range override fails like a bad directive.
        spec.faults = "byz:0.2".into();
        spec.params.insert("fault_fraction".into(), 1.5);
        assert!(fault_spec_for(&spec).is_err());
    }

    #[test]
    fn faulty_rumor_runs_deterministically_and_differs_from_honest() {
        let registry = ProtocolRegistry::builtin();
        for backend in [Backend::Agents, Backend::Hybrid(64)] {
            let honest = cell(
                "rumor",
                backend,
                &[("n", 400.0), ("epsilon", 0.25), ("informed", 10.0)],
            );
            let mut faulty = honest.clone();
            faulty.faults = "byz:0.1".into();
            let a = registry.run_trial(&faulty, 0).unwrap();
            let b = registry.run_trial(&faulty, 0).unwrap();
            assert_eq!(a, b, "same seed must reproduce ({backend})");
            assert_ne!(
                a,
                registry.run_trial(&honest, 0).unwrap(),
                "Byzantine agents must perturb the run ({backend})"
            );
        }
    }

    #[test]
    fn dense_rumor_rejects_fault_directives() {
        let registry = ProtocolRegistry::builtin();
        let mut spec = cell(
            "rumor",
            Backend::Dense,
            &[("n", 400.0), ("epsilon", 0.25), ("informed", 10.0)],
        );
        spec.faults = "byz:0.1".into();
        let Err(err) = registry.run_trial(&spec, 0) else {
            panic!("dense + faults must be rejected");
        };
        assert!(err.to_string().contains("dense"), "{err}");
    }

    #[test]
    fn consensus_protocols_run_and_report_their_metrics() {
        let registry = ProtocolRegistry::builtin();
        let expectations: [(&str, &[&str]); 3] = [
            (
                "ben-or",
                &[
                    "rounds",
                    "fraction_correct",
                    "decided_fraction",
                    "decided_correct_fraction",
                    "messages_sent",
                ],
            ),
            (
                "bv-broadcast",
                &[
                    "rounds",
                    "delivered_one_fraction",
                    "delivered_zero_fraction",
                    "messages_sent",
                ],
            ),
            (
                "safe-bbc",
                &[
                    "rounds",
                    "fraction_correct",
                    "decided_fraction",
                    "decided_correct_fraction",
                    "messages_sent",
                ],
            ),
        ];
        for (protocol, expected) in expectations {
            let spec = cell(
                protocol,
                Backend::Agents,
                &[("n", 300.0), ("epsilon", 0.3), ("initial_bias", 0.2)],
            );
            let a = registry.run_trial(&spec, 0).unwrap();
            assert_eq!(a, registry.run_trial(&spec, 0).unwrap(), "{protocol}");
            let names: Vec<&str> = a.iter().map(|(k, _)| *k).collect();
            assert_eq!(names, expected, "{protocol}");
        }
    }

    #[test]
    fn bft_compare_reports_honest_statistics_under_faults() {
        let registry = ProtocolRegistry::builtin();
        let mut spec = cell(
            "bft-compare",
            Backend::Agents,
            &[("n", 300.0), ("epsilon", 0.3), ("initial_bias", 0.2)],
        );
        spec.rounds = 120;
        spec.faults = "byz:0.1".into();
        let metrics = registry.run_trial(&spec, 0).unwrap();
        assert_eq!(metrics, registry.run_trial(&spec, 0).unwrap());
        let names: Vec<&str> = metrics.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            names,
            vec![
                "majority_fraction_correct",
                "majority_all_correct",
                "benor_fraction_correct",
                "benor_decided_fraction",
                "benor_rounds",
                "messages_sent",
            ]
        );
        let get = |name: &str| metrics.iter().find(|(k, _)| *k == name).unwrap().1;
        for name in ["majority_fraction_correct", "benor_fraction_correct"] {
            let value = get(name);
            assert!((0.0..=1.0).contains(&value), "{name} = {value}");
        }
        // The 70/30 start under moderate noise: the majority dynamic must
        // hold its ground for the honest agents even with 10% Byzantine.
        assert!(get("majority_fraction_correct") > 0.5);
        // The faulty twin must differ from the honest run.
        let mut honest = spec.clone();
        honest.faults = String::new();
        assert_ne!(metrics, registry.run_trial(&honest, 0).unwrap());

        // Every cell of the quick E13 grid: the majority and Ben-Or runs
        // draw their faulty sets independently, so a fraction over the
        // other run's honest count could pass 1.
        let e13 = crate::spec::SweepSpec {
            name: "e13".into(),
            protocol: "bft-compare".into(),
            backend: Backend::Agents,
            trials: 2,
            base_seed: 0xBEA7_4E5E,
            point_base: 3_000,
            rounds: 120,
            faults: "byz:0.1".into(),
            defaults: [("n", 300.0), ("initial_bias", 0.1), ("phase_len", 15.0)]
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            axes: vec![
                crate::spec::Axis {
                    key: "epsilon".into(),
                    values: vec![0.15, 0.3],
                },
                crate::spec::Axis {
                    key: "fault_fraction".into(),
                    values: vec![0.0, 0.05, 0.1, 0.2, 0.3],
                },
            ],
        };
        for cell in e13.expand().unwrap() {
            for trial in 0..2 {
                for (name, value) in registry.run_trial(&cell, trial).unwrap() {
                    assert!(
                        !name.contains("fraction") || (0.0..=1.0).contains(&value),
                        "{name} = {value} at point {} trial {trial}",
                        cell.point
                    );
                }
            }
        }
    }

    #[test]
    fn rumor_rejects_more_informed_agents_than_n_on_every_engine_family() {
        let registry = ProtocolRegistry::builtin();
        for backend in Backend::ALL {
            let spec = cell(
                "rumor",
                backend,
                &[("n", 1_000.0), ("epsilon", 0.25), ("informed", 5_000.0)],
            );
            let err = registry.run_trial(&spec, 0).unwrap_err();
            assert!(matches!(err, SweepError::Spec(_)), "{backend}: {err}");
            assert!(err.to_string().contains("`informed`"), "{backend}: {err}");
        }
    }

    #[test]
    fn rumor_zealot_runs_on_every_engine_family() {
        let registry = ProtocolRegistry::builtin();
        for backend in Backend::ALL {
            let spec = cell(
                "rumor-zealot",
                backend,
                &[
                    ("n", 400.0),
                    ("epsilon", 0.25),
                    ("informed", 10.0),
                    ("zealots", 40.0),
                ],
            );
            let a = registry.run_trial(&spec, 0).unwrap();
            let b = registry.run_trial(&spec, 0).unwrap();
            assert_eq!(a, b, "same seed must reproduce ({backend})");
            let names: Vec<&str> = a.iter().map(|(k, _)| *k).collect();
            assert_eq!(names, vec!["rounds", "fraction_correct", "messages_sent"]);
        }
    }

    #[test]
    fn rumor_zealot_requires_a_zealot_subpopulation() {
        let registry = ProtocolRegistry::builtin();
        let spec = cell(
            "rumor-zealot",
            Backend::Dense,
            &[("n", 400.0), ("epsilon", 0.25), ("informed", 10.0)],
        );
        let Err(err) = registry.run_trial(&spec, 0) else {
            panic!("zealots = 0 must be rejected");
        };
        assert!(err.to_string().contains("`zealots`"), "{err}");
    }

    #[test]
    fn hybrid_rejects_a_tracked_count_that_swallows_the_population() {
        let registry = ProtocolRegistry::builtin();
        let spec = cell(
            "rumor",
            Backend::Hybrid(500),
            &[("n", 300.0), ("epsilon", 0.25), ("informed", 10.0)],
        );
        let Err(err) = registry.run_trial(&spec, 0) else {
            panic!("hybrid:500 at n = 300 must be rejected");
        };
        assert!(err.to_string().contains("no dense bulk"), "{err}");
    }

    #[test]
    fn rumor_runs_on_both_engines_and_is_seed_deterministic() {
        let registry = ProtocolRegistry::builtin();
        for backend in Backend::ALL {
            let spec = cell(
                "rumor",
                backend,
                &[("n", 300.0), ("epsilon", 0.25), ("informed", 10.0)],
            );
            let a = registry.run_trial(&spec, 0).unwrap();
            let b = registry.run_trial(&spec, 0).unwrap();
            assert_eq!(a, b, "same seed must reproduce ({backend})");
            let c = registry.run_trial(&spec, 1).unwrap();
            assert_ne!(a, c, "different trials use different seeds ({backend})");
            let names: Vec<&str> = a.iter().map(|(k, _)| *k).collect();
            assert_eq!(names, vec!["rounds", "fraction_correct", "messages_sent"]);
        }
    }

    #[test]
    fn round_threads_cannot_change_rumor_metrics() {
        // The budget knob trades wall-clock for cores only: on both
        // backends a trial granted extra intra-round lanes must report
        // bit-identical metrics to the sequential run (the parallel router
        // is bit-identical by construction, and dense ignores the knob).
        let registry = ProtocolRegistry::builtin();
        for backend in Backend::ALL {
            let spec = cell(
                "rumor",
                backend,
                &[("n", 400.0), ("epsilon", 0.25), ("informed", 3.0)],
            );
            let sequential = registry
                .run_trial_with_context(&spec, 0, &TrialContext::new(1))
                .unwrap();
            for round_threads in [2, 4, 7] {
                let threaded = registry
                    .run_trial_with_context(&spec, 0, &TrialContext::new(round_threads))
                    .unwrap();
                assert_eq!(
                    threaded, sequential,
                    "round_threads={round_threads} ({backend})"
                );
            }
            // The two-arg convenience wrapper is the sequential case.
            assert_eq!(registry.run_trial(&spec, 0).unwrap(), sequential);
        }
    }

    #[test]
    fn rumor_requires_a_round_cap() {
        let registry = ProtocolRegistry::builtin();
        let mut spec = cell("rumor", Backend::Agents, &[("n", 100.0), ("epsilon", 0.2)]);
        spec.rounds = 0;
        assert!(registry.run_trial(&spec, 0).is_err());
    }

    #[test]
    fn broadcast_reports_the_legacy_outcome_metrics() {
        let registry = ProtocolRegistry::builtin();
        let spec = cell(
            "broadcast",
            Backend::Agents,
            &[("n", 300.0), ("epsilon", 0.3)],
        );
        let metrics = registry.run_trial(&spec, 0).unwrap();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get("total_rounds") > get("stage1_rounds"));
        assert!(get("fraction_correct") > 0.9);
        assert!(get("messages_sent") > 0.0);
        // Reproduces the protocol run directly (the migration contract).
        let params = Params::practical(300, 0.3).unwrap();
        let outcome = BroadcastProtocol::new(params, Opinion::One)
            .run_with_seed(spec.seed_for_trial(0))
            .unwrap();
        assert_eq!(get("fraction_correct"), outcome.fraction_correct);
        assert_eq!(get("messages_sent"), outcome.messages_sent as f64);
    }

    #[test]
    fn gamma_multiplier_override_reaches_params() {
        let registry = ProtocolRegistry::builtin();
        let starved = cell(
            "broadcast",
            Backend::Agents,
            &[("n", 300.0), ("epsilon", 0.3), ("gamma_mult", 0.25)],
        );
        // Must match a direct with_multipliers construction trial-for-trial.
        let multipliers = Multipliers {
            gamma_mult: 0.25,
            ..Multipliers::practical()
        };
        let params = Params::with_multipliers(300, 0.3, multipliers).unwrap();
        let outcome = BroadcastProtocol::new(params, Opinion::One)
            .run_with_seed(starved.seed_for_trial(1))
            .unwrap();
        let metrics = registry.run_trial(&starved, 1).unwrap();
        let fraction = metrics
            .iter()
            .find(|(k, _)| *k == "fraction_correct")
            .unwrap()
            .1;
        assert_eq!(fraction, outcome.fraction_correct);
    }

    #[test]
    fn majority_sampler_boosts_bias_on_the_dense_engine() {
        let registry = ProtocolRegistry::builtin();
        let spec = cell(
            "majority-sampler",
            Backend::Dense,
            &[("n", 50_000.0), ("epsilon", 0.3), ("initial_bias", 0.05)],
        );
        let metrics = registry.run_trial(&spec, 0).unwrap();
        let fraction = metrics
            .iter()
            .find(|(k, _)| *k == "fraction_correct")
            .unwrap()
            .1;
        assert!(fraction > 0.8, "boost should amplify a 5% edge: {fraction}");
    }

    #[test]
    fn majority_sampler_rejects_impossible_biases() {
        // A typo'd bias (> 0.5) must fail loudly, not wrap `n - correct`
        // into a garbage population that exports plausible-looking numbers.
        let registry = ProtocolRegistry::builtin();
        for bad in [0.6, -0.7, 5.0] {
            let spec = cell(
                "majority-sampler",
                Backend::Dense,
                &[("n", 10_000.0), ("epsilon", 0.3), ("initial_bias", bad)],
            );
            let err = registry.run_trial(&spec, 0).unwrap_err();
            assert!(err.to_string().contains("initial_bias"), "{bad}: {err}");
        }
        // The boundary itself is fine: bias 0.5 = everyone starts correct.
        let spec = cell(
            "majority-sampler",
            Backend::Dense,
            &[("n", 10_000.0), ("epsilon", 0.3), ("initial_bias", 0.5)],
        );
        assert!(registry.run_trial(&spec, 0).is_ok());
    }

    #[test]
    fn majority_sampler_rejects_epsilons_with_too_many_tally_states() {
        // L = ⌈2/ε²⌉ | 1 overflows the state count at ε = 1e-10 and asks for
        // two ~3 GB count vectors at ε = 0.01: both are spec errors.
        let registry = ProtocolRegistry::builtin();
        for epsilon in [1e-10, 0.01] {
            let spec = cell(
                "majority-sampler",
                Backend::Dense,
                &[("n", 1_000.0), ("epsilon", epsilon)],
            );
            let err = registry.run_trial(&spec, 0).unwrap_err();
            assert!(matches!(err, SweepError::Spec(_)), "{epsilon}: {err}");
            let message = err.to_string();
            assert!(
                message.contains("epsilon") && message.contains("L ="),
                "{epsilon}: {message}"
            );
        }
    }

    #[test]
    fn params_are_checked_against_the_declaration_before_any_trial() {
        let registry = ProtocolRegistry::builtin();
        let message = |spec: &ScenarioSpec| match registry.resolve(spec) {
            Ok(_) => panic!("{spec:?} must be rejected"),
            Err(err) => err.to_string(),
        };
        // A misspelt key names the cell's point and lists what the protocol
        // reads.
        let mut misspelt = cell(
            "broadcast",
            Backend::Agents,
            &[("n", 100.0), ("epsilon", 0.2), ("s_mul", 99.0)],
        );
        misspelt.point = 7;
        let err = message(&misspelt);
        assert!(
            err.contains("point 7") && err.contains("`s_mul`") && err.contains("s_mult, beta_mult"),
            "{err}"
        );
        // The list leads with the keys every protocol reads.
        let relay = ScenarioSpec {
            trials: 1,
            ..cell(
                "chain-relay",
                Backend::Agents,
                &[
                    ("n", 1.0),
                    ("epsilon", 0.2),
                    ("hops", 2.0),
                    ("informed", 1.0),
                ],
            )
        };
        assert!(message(&relay).contains("reads n, epsilon, hops, samples, seed_point"));
        // A required param that is missing is named with its range.
        let missing = cell(
            "baseline-compare",
            Backend::Agents,
            &[("n", 100.0), ("epsilon", 0.2)],
        );
        let err = message(&missing);
        assert!(err.contains("`baseline`") && err.contains("0..=5"), "{err}");
        // Out of range: the key, the range, the value and the point.
        let bias = cell(
            "majority-sampler",
            Backend::Dense,
            &[("n", 1_000.0), ("epsilon", 0.3), ("initial_bias", 0.7)],
        );
        let err = message(&bias);
        assert!(
            err.contains("point 0")
                && err.contains("`initial_bias` must be a real in [-0.5, 0.5], got 0.7"),
            "{err}"
        );
        // A closed range admits its ends.
        let mut faulty = cell("rumor", Backend::Agents, &[("n", 100.0), ("epsilon", 0.2)]);
        for value in [0.0, BELOW_ONE] {
            faulty.params.insert("fault_fraction".into(), value);
            assert!(registry.resolve(&faulty).is_ok(), "{value}");
        }
        faulty.params.insert("fault_fraction".into(), 1.0);
        let err = message(&faulty);
        assert!(
            err.contains("`fault_fraction` must be a real in [0.0, 0.9999999999999999], got 1"),
            "{err}"
        );
    }

    #[test]
    fn custom_protocols_can_be_registered() {
        let mut registry = ProtocolRegistry::new();
        registry.register(
            "constant",
            Protocol::new(&[Backend::Agents], false, &[], |spec, trial, _ctx| {
                Ok(vec![("value", spec.n() as f64 + trial as f64)])
            }),
        );
        let spec = cell(
            "constant",
            Backend::Agents,
            &[("n", 10.0), ("epsilon", 0.2)],
        );
        assert_eq!(registry.run_trial(&spec, 5).unwrap(), vec![("value", 15.0)]);
    }

    #[test]
    fn telemetry_context_collects_profiles_without_changing_metrics() {
        use crate::observe::{TelemetryHub, TrialContext};
        use telemetry::Phase;

        let registry = ProtocolRegistry::builtin();
        for backend in [Backend::Agents, Backend::Hybrid(64)] {
            let spec = cell(
                "rumor",
                backend,
                &[("n", 400.0), ("epsilon", 0.25), ("informed", 10.0)],
            );
            let plain = registry.run_trial(&spec, 0).unwrap();
            let hub = TelemetryHub::new();
            let ctx = TrialContext::sequential().with_hub(&hub);
            let observed = registry.run_trial_with_context(&spec, 0, &ctx).unwrap();
            assert_eq!(
                plain, observed,
                "telemetry must be metric-neutral ({backend})"
            );
            let recorder = hub.take();
            let steps = recorder.phases().get(Phase::ProtocolStep).count;
            assert!(steps > 0, "engine phases reach the hub ({backend})");
        }
        // The breathe wrappers (`broadcast`, `majority-consensus`) build
        // their engines internally; the split construction
        // (`build_simulation` + `run_simulation`) still reaches the hub.
        let broadcast = cell(
            "broadcast",
            Backend::Agents,
            &[("n", 200.0), ("epsilon", 0.3)],
        );
        let plain = registry.run_trial(&broadcast, 0).unwrap();
        let hub = TelemetryHub::new();
        let ctx = TrialContext::sequential().with_hub(&hub);
        let observed = registry
            .run_trial_with_context(&broadcast, 0, &ctx)
            .unwrap();
        assert_eq!(
            plain, observed,
            "telemetry must be metric-neutral (broadcast)"
        );
        assert!(
            hub.take().phases().get(Phase::ProtocolStep).count > 0,
            "broadcast engine phases reach the hub"
        );

        // Counts-only backends have no engine telemetry; the hub stays empty.
        let dense = cell(
            "rumor",
            Backend::Dense,
            &[("n", 400.0), ("epsilon", 0.25), ("informed", 10.0)],
        );
        let hub = TelemetryHub::new();
        let ctx = TrialContext::sequential().with_hub(&hub);
        registry.run_trial_with_context(&dense, 0, &ctx).unwrap();
        assert!(hub.take().is_empty());
    }
}
