//! The synchronous round engine driving agents over the Flip model.

use std::any::type_name;

use crate::agent::{Agent, OpinionDelta, Round};
use crate::channel::Channel;
use crate::config::SimulationConfig;
use crate::error::FlipError;
use crate::faults::FaultPlan;
use crate::metrics::{Metrics, RoundMetrics};
use crate::opinion::Opinion;
use crate::pool::{RoundPool, MAX_WORKERS};
use crate::population::{Census, CensusDelta};
use crate::rng::{BernoulliSkip, SimRng};
use crate::scheduler::{Delivery, GossipScheduler, RoundRouting, RADIX_MIN_N};
use telemetry::{Event, Phase, Recorder, Telemetry};

/// How the engine applies channel noise to accepted messages.
///
/// Resolved once at construction from [`Channel::fixed_crossover`].
#[derive(Debug, Clone, Copy)]
enum NoiseMode {
    /// The channel never flips: skip noise entirely.
    Noiseless,
    /// Fixed crossover `p`: geometric skip-sampling positions the flipped
    /// messages directly in the accepted stream (exact for i.i.d.
    /// Bernoulli(`p`) flips), costing one logarithm per flip instead of one
    /// draw per message.
    Fused(BernoulliSkip),
    /// Message-dependent noise: fall back to one [`Channel::transmit`] call
    /// per accepted message.
    PerMessage,
}

impl NoiseMode {
    fn for_channel<C: Channel>(channel: &C) -> Self {
        match channel.fixed_crossover() {
            Some(p) => match BernoulliSkip::new(p) {
                Some(skip) => NoiseMode::Fused(skip),
                // The skip-sampler rejects p ≤ 0 and p too small to ever
                // flip in a finite stream — genuinely noiseless — but also
                // p ≥ 1 and NaN, which must keep the exact per-message path
                // (a hypothetical always-flip channel would otherwise be
                // silently treated as never flipping).
                None if (0.0..0.5).contains(&p) || p <= 0.0 => NoiseMode::Noiseless,
                None => NoiseMode::PerMessage,
            },
            None => NoiseMode::PerMessage,
        }
    }
}

/// When the end-of-round loop of a per-agent engine runs next, shared by
/// [`Simulation`] and [`HybridSimulation`](crate::HybridSimulation).
///
/// It holds the minimum of [`Agent::next_end_round`] over the population,
/// taken the last time the loop ran; `None` before the first round and
/// after [`Simulation::agents_mut`], when the next round asks every agent
/// afresh.
#[derive(Debug, Default)]
pub(crate) struct EndRoundGate {
    next_end: Option<Round>,
}

impl EndRoundGate {
    /// Whether some agent's bound has reached `round`.
    pub(crate) fn is_due<A: Agent>(&mut self, agents: &[A], round: Round) -> bool {
        let next_end = *self.next_end.get_or_insert_with(|| {
            agents
                .iter()
                .map(|agent| agent.next_end_round(round))
                .min()
                .unwrap_or(Round::MAX)
        });
        round >= next_end
    }

    /// Runs `end_round` on every agent in index order, so the RNG stream is
    /// the one an every-round loop would draw, and takes the next bound.
    /// With a fault plan, a deaf role's protocol is frozen: its hook neither
    /// runs nor draws from the stream, while its bound still counts, which
    /// is only ever conservative.
    pub(crate) fn run_hooks<A: Agent>(
        &mut self,
        agents: &mut [A],
        round: Round,
        faults: Option<&FaultPlan>,
        rng: &mut SimRng,
        mut on_delta: impl FnMut(OpinionDelta),
    ) {
        let mut next = Round::MAX;
        for (idx, agent) in agents.iter_mut().enumerate() {
            if faults.is_none_or(|plan| plan.role(idx).runs_protocol(round)) {
                on_delta(agent.end_round(round, rng));
            }
            next = next.min(agent.next_end_round(round + 1));
        }
        self.next_end = Some(next);
    }

    /// Forgets the bound: the agents may have been replaced.
    pub(crate) fn reset(&mut self) {
        self.next_end = None;
    }
}

/// What one lane of an agent pass reports back to [`Simulation::step`].
#[derive(Debug, Clone, Copy, Default)]
struct LaneTally {
    /// Send pass: how many sends the lane wrote at the head of its segment.
    sends: usize,
    /// Forced sends (send pass) or suppressed deliveries (delivery walk).
    faulted: u64,
    /// Delivery walk: the net census change of the lane's agents.
    census: CensusDelta,
    /// Whether the hooks moved the lane's copy of the engine RNG.
    drew: bool,
}

/// One lane's share of the send pass: a contiguous range of agents and the
/// same range of the send buffer.
struct SendRange<'a, A> {
    /// Population index of `agents[0]`.
    first: usize,
    agents: &'a mut [A],
    out: &'a mut [(u32, Opinion)],
}

impl<A: Agent> SendRange<'_, A> {
    /// Writes the range's sends to the head of `out`, branch-free: a silent
    /// agent writes a placeholder that the next send overwrites.  Faulty
    /// roles override their agent ([`FaultPlan::send`]).
    fn send(self, round: Round, faults: Option<&FaultPlan>, rng: &mut SimRng) -> LaneTally {
        let mut tally = LaneTally::default();
        for (offset, agent) in self.agents.iter_mut().enumerate() {
            let idx = self.first + offset;
            let (message, forced) = FaultPlan::send(faults, idx, agent, round, rng);
            tally.faulted += u64::from(forced);
            self.out[tally.sends] = (idx as u32, message.unwrap_or(Opinion::Zero));
            tally.sends += usize::from(message.is_some());
        }
        tally
    }
}

/// One lane's share of the fused delivery walk.
struct WalkRange<'a, A> {
    /// Population index of `agents[0]`.
    first: usize,
    agents: &'a mut [A],
    /// Index of `deliveries[0]` in the round's accepted list.
    start: usize,
    /// The accepted deliveries to `agents`.
    deliveries: &'a [Delivery],
    /// The round's flip positions from the first one at or after `start`,
    /// ending in a `u32::MAX` sentinel.
    flips: &'a [u32],
}

impl<A: Agent> WalkRange<'_, A> {
    /// Corrupts and delivers the range's messages, merging the flip
    /// positions in with a two-pointer scan.  The sentinel (no message index
    /// reaches it) ends the list, so the scan needs no end test, and whether
    /// a message flips, a random bit, is never branched on: the comparison
    /// both flips the payload and advances the pointer.
    fn deliver(self, round: Round, faults: Option<&FaultPlan>, rng: &mut SimRng) -> LaneTally {
        let mut tally = LaneTally::default();
        let mut next_flip = 0;
        for (i, delivery) in self.deliveries.iter().enumerate() {
            let flip = (self.start + i) as u32 == self.flips[next_flip];
            next_flip += usize::from(flip);
            let payload = delivery.payload.flipped_if(flip);
            let recipient = delivery.recipient.index();
            if FaultPlan::is_deaf(faults, recipient, round) {
                tally.faulted += 1;
                continue;
            }
            let agent = &mut self.agents[recipient - self.first];
            tally.census.apply(agent.deliver(round, payload, rng));
        }
        tally
    }
}

/// Runs one agent pass, `pass`, over `ranges`, writes each range's tally
/// to `tallies` and returns those tallies, in range order.
///
/// With `pool`, every range runs on its own lane and hands the hooks a copy
/// of the engine RNG, which must not move.  Without, the single range (the
/// whole population) runs inline on the engine RNG itself.
///
/// # Panics
///
/// Panics, naming `A`, when the hooks on some lane drew from their copy: the
/// agent type declared [`Agent::RNG_FREE_HOOKS`] falsely.
fn agent_pass<'t, A: Agent, T: Send>(
    pool: Option<&RoundPool>,
    rng: &mut SimRng,
    ranges: impl Iterator<Item = T>,
    tallies: &'t mut [LaneTally; MAX_WORKERS],
    pass: impl Fn(T, &mut SimRng) -> LaneTally + Sync,
) -> &'t [LaneTally] {
    let mut ran = 0;
    let tasks = ranges.zip(tallies.iter_mut()).inspect(|_| ran += 1);
    match pool {
        None => {
            for (range, tally) in tasks {
                *tally = pass(range, rng);
            }
        }
        Some(pool) => {
            let engine = &*rng;
            pool.run(tasks, |_, (range, tally)| {
                let mut copy = engine.clone();
                *tally = pass(range, &mut copy);
                tally.drew = copy != *engine;
            });
        }
    }
    let tallies = &tallies[..ran];
    assert!(
        !tallies.iter().any(|tally| tally.drew),
        "`{}` declares `RNG_FREE_HOOKS`, but its `send` or `deliver` drew from the RNG",
        type_name::<A>()
    );
    tallies
}

/// Summary of a single executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// Counters for the round.
    pub metrics: RoundMetrics,
    /// Census taken after the round completed.
    pub census_active: usize,
    /// Agents holding the reference opinion after the round, if configured.
    pub census_correct: Option<usize>,
}

/// An engine executing the Flip model's round semantics (paper §1.3.2).
///
/// The per-agent [`Simulation`], the counts-based
/// [`StratifiedSimulation`](crate::StratifiedSimulation) and
/// [`DenseSimulation`](crate::DenseSimulation), and the
/// [`HybridSimulation`](crate::HybridSimulation) implement it, so code
/// written against the trait drives every backend.  An engine supplies
/// [`step`](FlipEngine::step), [`census`](FlipEngine::census) and
/// [`metrics`](FlipEngine::metrics); the run loops are provided, and the
/// telemetry hooks default to no-ops for engines that record nothing.
pub trait FlipEngine {
    /// Executes one synchronous round and returns its summary.
    fn step(&mut self) -> RoundSummary;

    /// A census of the current population.
    fn census(&self) -> Census;

    /// The accumulated metrics so far.
    fn metrics(&self) -> &Metrics;

    /// Turns on phase timing and event counting for later rounds.  Purely
    /// observational: recording never touches the RNG stream.
    fn enable_telemetry(&mut self) {}

    /// Takes the recorder accumulated so far, disabling further recording;
    /// `None` when telemetry is off.
    fn take_telemetry(&mut self) -> Option<Recorder> {
        None
    }

    /// Executes `rounds` rounds and returns the accumulated metrics.
    fn run(&mut self, rounds: u64) -> &Metrics {
        for _ in 0..rounds {
            self.step();
        }
        self.metrics()
    }

    /// Executes rounds until `predicate` returns `true` (checked after every
    /// round) or `max_rounds` rounds have run, whichever comes first.
    ///
    /// Returns the number of rounds executed by this call.
    fn run_until<F>(&mut self, max_rounds: u64, mut predicate: F) -> u64
    where
        F: FnMut(&Self) -> bool,
    {
        let mut executed = 0;
        while executed < max_rounds {
            self.step();
            executed += 1;
            if predicate(self) {
                break;
            }
        }
        executed
    }
}

/// A synchronous Flip-model simulation over a homogeneous population of agents.
///
/// The engine owns the agents, the gossip scheduler, the noise channel and
/// the metrics.  Each call to [`Simulation::step`] executes one round with
/// exactly the semantics of paper §1.3.2 and returns it as a
/// [`RoundSummary`]; [`FlipEngine::run`] and [`FlipEngine::run_until`]
/// execute many.
///
/// See the crate-level documentation for a complete example.
///
/// # Hot-path design
///
/// The round loop is allocation-free after the first round: the send buffer
/// and the [`RoundRouting`] are sized to the population and reused every
/// step.  The census is *incremental* — the engine folds the
/// [`OpinionDelta`](crate::OpinionDelta)s returned by
/// [`Agent::deliver`]/[`Agent::end_round`] into a running [`Census`] in
/// O(changes), instead of recounting all `n` agents each round — and channel
/// noise for fixed-crossover channels is fused into delivery by geometric
/// skip-sampling (see [`Channel::fixed_crossover`]).
///
/// With a worker pool, routing always runs on every lane, and the send pass
/// and the fused delivery walk do too when the agent type allows it (see
/// the [`Agent`] docs).  Each lane then covers a contiguous agent range:
/// it writes its sends into its own range of the send buffer, which a
/// sequential copy packs in lane order, so message `i` keeps index `i` and
/// its routing word.  A dense round emits deliveries in recipient order, so
/// each lane finds its deliveries and its first flip by binary search and
/// returns a census delta that the round folds in after the join.
#[derive(Debug)]
pub struct Simulation<A, C> {
    agents: Vec<A>,
    channel: C,
    scheduler: GossipScheduler,
    rng: SimRng,
    round: Round,
    metrics: Metrics,
    reference: Option<Opinion>,
    noise: NoiseMode,
    /// Running opinion counts, maintained from agent-reported deltas.
    census: Census,
    /// Set by [`Simulation::agents_mut`]: the caller may have changed
    /// opinions behind the engine's back, so the next census read recounts.
    census_dirty: bool,
    /// When the end-of-round loop runs next.
    end_round: EndRoundGate,
    /// One slot per agent, reserved at construction but filled on the first
    /// round, so building an engine writes none of them: the send pass
    /// writes each agent range's sends into that range's slots, then packs
    /// them into the prefix the scheduler reads.
    send_buffer: Vec<(u32, Opinion)>,
    routing: RoundRouting,
    /// Flip positions of the current round's fused noise, then a
    /// `u32::MAX` sentinel (reused; sized to the population plus the
    /// sentinel, so even a round in which every message flips cannot
    /// reallocate).
    flip_buffer: Vec<u32>,
    /// Persistent worker pool for intra-round parallel routing and agent
    /// passes, present when [`SimulationConfig::with_threads`] asked for
    /// more than one lane.  Spawned once here (warm-up) so rounds stay
    /// allocation-free; parallel rounds are bit-identical to sequential
    /// ones, so the pool never affects seeded results.
    pool: Option<RoundPool>,
    /// Per-agent fault roles, sampled once at construction when the config
    /// injects faults ([`SimulationConfig::with_faults`]); `None` keeps the
    /// fault-free hot path (and RNG stream) untouched.
    faults: Option<FaultPlan>,
    /// The current agent pass's per-lane results, reused every pass.
    lane_tallies: [LaneTally; MAX_WORKERS],
    /// Phase timers and event counters; off by default (no recorder, no
    /// clock reads) until [`Simulation::enable_telemetry`].  Timing never
    /// touches the RNG stream, so enabled runs stay bit-identical.
    telemetry: Telemetry,
}

impl<A: Agent, C: Channel> Simulation<A, C> {
    /// Creates a simulation over the given agents.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`] if fewer than two agents are
    /// supplied, or [`FlipError::InvalidParameter`] if the configured
    /// population size does not match `agents.len()`.
    pub fn new(agents: Vec<A>, channel: C, config: SimulationConfig) -> Result<Self, FlipError> {
        if agents.len() < 2 {
            return Err(FlipError::PopulationTooSmall { n: agents.len() });
        }
        if config.population() != agents.len() {
            return Err(FlipError::InvalidParameter {
                name: "population",
                message: format!(
                    "config says {} agents but {} were supplied",
                    config.population(),
                    agents.len()
                ),
            });
        }
        let n = agents.len();
        let mut scheduler = GossipScheduler::new(n)?;
        let census = Census::of_agents(&agents);
        let mut routing = RoundRouting::with_capacity(n);
        let pool = (config.threads() > 1).then(|| RoundPool::new(config.threads()));
        if let Some(pool) = &pool {
            if n >= RADIX_MIN_N {
                // Pre-size the parallel path's staging and bookkeeping for
                // the worst-case (all-send) round, so warmed-up parallel
                // rounds never allocate.  Below the radix crossover the
                // parallel dispatch falls back to single-pass routing and
                // needs none of it.
                scheduler.reserve_parallel(pool.workers());
                routing.reserve_parallel(n, pool.workers());
            }
        }
        // Fault roles are drawn from the engine's own stream *before* any
        // round runs, via one reserved block: thread-count-invariant, and a
        // fault-free config draws nothing at all, keeping every pre-fault
        // seeded result byte-identical.
        let mut rng = SimRng::from_seed(config.seed());
        let faults = config
            .faults()
            .map(|spec| FaultPlan::sample(&spec, n, &mut rng));
        Ok(Self {
            agents,
            noise: NoiseMode::for_channel(&channel),
            channel,
            scheduler,
            rng,
            round: 0,
            metrics: Metrics::new(),
            reference: config.reference(),
            census,
            census_dirty: false,
            end_round: EndRoundGate::default(),
            send_buffer: Vec::with_capacity(n),
            routing,
            flip_buffer: Vec::with_capacity(n + 1),
            pool,
            faults,
            lane_tallies: [LaneTally::default(); MAX_WORKERS],
            telemetry: Telemetry::off(),
        })
    }

    /// Turns on phase timing and event counting (and, when a worker pool is
    /// present, per-lane busy-time accounting).
    ///
    /// Purely observational: telemetry reads the monotonic clock and adds
    /// integers the round loop already computed, never the RNG stream, so an
    /// instrumented run's deliveries and metrics are bit-identical to an
    /// uninstrumented one.
    pub fn enable_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
        if let Some(pool) = &self.pool {
            pool.set_timing(true);
        }
    }

    /// The telemetry recorder accumulated so far, when enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Recorder> {
        self.telemetry.recorder()
    }

    /// Takes the telemetry recorder out, disabling further recording.
    pub fn take_telemetry(&mut self) -> Option<Recorder> {
        if let Some(pool) = &self.pool {
            pool.set_timing(false);
        }
        self.telemetry.take()
    }

    /// Executes one synchronous round and returns its summary.
    pub fn step(&mut self) -> RoundSummary {
        if self.census_dirty {
            let span = self.telemetry.begin();
            self.census = Census::of_agents(&self.agents);
            self.census_dirty = false;
            self.telemetry.end(Phase::CensusApply, span);
        }
        let round = self.round;
        let n = self.agents.len();
        if self.send_buffer.len() < n {
            self.send_buffer.resize(n, (0, Opinion::Zero));
        }
        // The agent passes run on every lane only when hooks that draw
        // nothing cannot tell lanes apart (see the `Agent` docs), and only
        // from routing's crossover on, below which a round is too short to
        // pay for a dispatch.
        let lanes = self
            .pool
            .as_ref()
            .filter(|_| A::RNG_FREE_HOOKS && n >= RADIX_MIN_N);
        let faults = self.faults.as_ref();

        // Phase 1: collect sends, each lane into its own range of the send
        // buffer, then pack the lane segments in lane order.
        let span = self.telemetry.begin();
        let chunk = n.div_ceil(lanes.map_or(1, RoundPool::workers));
        let ranges = self
            .agents
            .chunks_mut(chunk)
            .zip(self.send_buffer.chunks_mut(chunk))
            .enumerate()
            .map(|(lane, (agents, out))| SendRange {
                first: lane * chunk,
                agents,
                out,
            });
        let tallies = agent_pass::<A, _>(
            lanes,
            &mut self.rng,
            ranges,
            &mut self.lane_tallies,
            |range, rng| range.send(round, faults, rng),
        );
        let mut sent = 0;
        let mut forced_sends = 0u64;
        for (lane, tally) in tallies.iter().enumerate() {
            let first = lane * chunk;
            if first != sent {
                self.send_buffer
                    .copy_within(first..first + tally.sends, sent);
            }
            sent += tally.sends;
            forced_sends += tally.faulted;
        }
        self.telemetry.end(Phase::ProtocolStep, span);
        self.telemetry.add(Event::FaultForcedSends, forced_sends);

        // Phase 2: route into the reused buffer, then corrupt + deliver.
        // The parallel and sequential routes are bit-identical; the pool
        // only changes which cores do the work.
        self.scheduler.route_into(
            &self.send_buffer[..sent],
            &mut self.rng,
            &mut self.routing,
            self.pool.as_ref(),
            &mut self.telemetry,
        );

        // Split borrows: the routing buffer is read while agents, census and
        // rng are written.
        let noise = self.noise;
        let (agents, routing, rng, census, channel, flip_buffer, lane_tallies, tel) = (
            &mut self.agents,
            &self.routing,
            &mut self.rng,
            &mut self.census,
            &self.channel,
            &mut self.flip_buffer,
            &mut self.lane_tallies,
            &mut self.telemetry,
        );

        // Noise is fused into the delivery walk: payloads are corrupted in
        // registers on their way into `deliver`, so the accepted buffer is
        // traversed exactly once per round.
        let accepted = routing.accepted();
        let mut flips = 0u64;
        let mut suppressed = 0u64;
        let span = tel.begin();
        if let NoiseMode::PerMessage = noise {
            // Each `transmit` may draw, in delivery order: one lane.
            for delivery in accepted {
                let corrupted = channel.transmit(delivery.payload, rng);
                flips += u64::from(corrupted != delivery.payload);
                let recipient = delivery.recipient.index();
                if FaultPlan::is_deaf(faults, recipient, round) {
                    suppressed += 1;
                    continue;
                }
                census.apply(agents[recipient].deliver(round, corrupted, rng));
            }
            tel.add(Event::PerMessageFallbacks, accepted.len() as u64);
        } else {
            // Geometric skip-sampling positions the flips (gaps
            // batch-drawn, before any delivery, so the RNG stream matches
            // the standalone sampler exactly); a noiseless channel leaves
            // the list empty.  A `u32::MAX` sentinel ends it.
            flip_buffer.clear();
            if let NoiseMode::Fused(skip) = noise {
                skip.for_each_success(rng, accepted.len(), |position| {
                    flip_buffer.push(position as u32);
                });
            }
            flips = flip_buffer.len() as u64;
            flip_buffer.push(u32::MAX);
            let flip_list = &flip_buffer[..];
            // Lanes need the deliveries in recipient order, which only
            // dense rounds emit.
            let lanes = lanes.filter(|_| self.scheduler.is_dense(sent));
            let chunk = n.div_ceil(lanes.map_or(1, RoundPool::workers));
            let ranges = agents.chunks_mut(chunk).enumerate().map(|(lane, agents)| {
                let first = lane * chunk;
                let (start, end, first_flip) = if lanes.is_some() {
                    let below = |bound: usize| {
                        accepted.partition_point(|delivery| delivery.recipient.index() < bound)
                    };
                    let start = below(first);
                    let first_flip =
                        flip_list.partition_point(|&position| (position as usize) < start);
                    (start, below(first + agents.len()), first_flip)
                } else {
                    (0, accepted.len(), 0)
                };
                WalkRange {
                    first,
                    agents,
                    start,
                    deliveries: &accepted[start..end],
                    flips: &flip_list[first_flip..],
                }
            });
            let tallies = agent_pass::<A, _>(lanes, rng, ranges, lane_tallies, |range, rng| {
                range.deliver(round, faults, rng)
            });
            for tally in tallies {
                census.absorb(tally.census);
                suppressed += tally.faulted;
            }
        }
        tel.end(Phase::NoiseMerge, span);
        tel.add(Event::FaultSuppressedDeliveries, suppressed);

        // Phase 3: end-of-round hooks, only in rounds some agent's
        // `next_end_round` bound has reached (every other call would be a
        // no-op).
        if self.end_round.is_due(agents, round) {
            let span = tel.begin();
            self.end_round
                .run_hooks(agents, round, faults, rng, |delta| census.apply(delta));
            tel.end(Phase::ProtocolStep, span);
        }
        // Drained last, so a round's lane busy time covers every pass.
        if let Some(pool) = self.pool.as_ref().filter(|pool| pool.timing_enabled()) {
            pool.drain_lane_nanos(|lane, ns| tel.record_lane(lane, ns));
        }

        let round_metrics = RoundMetrics {
            round,
            messages_sent: self.routing.sent,
            messages_accepted: self.routing.accepted().len() as u64,
            messages_collided: self.routing.collided,
            bits_flipped: flips,
            forced_sends,
            suppressed_deliveries: suppressed,
            crashed_agents: self
                .faults
                .as_ref()
                .map_or(0, |plan| plan.crashed_count(round) as u64),
        };
        self.metrics.absorb_round(&round_metrics);
        self.round += 1;

        // Debug builds periodically audit the incremental census against a
        // full recount, which catches agents that misreport deltas (or
        // change opinions inside `send`).
        #[cfg(debug_assertions)]
        if round.is_multiple_of(64) {
            debug_assert_eq!(
                self.census,
                Census::of_agents(&self.agents),
                "incremental census diverged from a full recount at round {round}"
            );
        }

        RoundSummary {
            metrics: round_metrics,
            census_active: self.census.active(),
            census_correct: self.reference.map(|r| self.census.holding(r)),
        }
    }

    /// The agents, in population order.
    #[must_use]
    pub fn agents(&self) -> &[A] {
        &self.agents
    }

    /// Mutable access to the agents (useful for seeding initial opinions).
    ///
    /// Marks the maintained census dirty: the engine recounts once on the
    /// next [`census`](Simulation::census) read or [`step`](Simulation::step).
    /// It also forgets the end-of-round schedule, so the next step asks
    /// every agent for a fresh [`Agent::next_end_round`] bound.
    #[must_use]
    pub fn agents_mut(&mut self) -> &mut [A] {
        self.census_dirty = true;
        self.end_round.reset();
        &mut self.agents
    }

    /// A census of the current population.
    ///
    /// O(1): returns the incrementally maintained counts.  After
    /// [`agents_mut`](Simulation::agents_mut) the maintained counts are
    /// stale, and every `census` call until the next
    /// [`step`](Simulation::step) recounts the population in O(n) (`step`
    /// resynchronises the maintained counts once).
    #[must_use]
    pub fn census(&self) -> Census {
        if self.census_dirty {
            Census::of_agents(&self.agents)
        } else {
            self.census
        }
    }

    /// The accumulated metrics so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The next round index to be executed (equals rounds executed so far).
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// The noise channel in use.
    #[must_use]
    pub fn channel(&self) -> &C {
        &self.channel
    }

    /// The fault plan sampled at construction, when faults are configured.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Consumes the simulation, returning the agents and metrics.
    #[must_use]
    pub fn into_parts(self) -> (Vec<A>, Metrics) {
        (self.agents, self.metrics)
    }
}

/// Delegates to the inherent methods, which stay callable without the trait
/// in scope.
impl<A: Agent, C: Channel> FlipEngine for Simulation<A, C> {
    fn step(&mut self) -> RoundSummary {
        Simulation::step(self)
    }

    fn census(&self) -> Census {
        Simulation::census(self)
    }

    fn metrics(&self) -> &Metrics {
        Simulation::metrics(self)
    }

    fn enable_telemetry(&mut self) {
        Simulation::enable_telemetry(self);
    }

    fn take_telemetry(&mut self) -> Option<Recorder> {
        Simulation::take_telemetry(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::OpinionDelta;
    use crate::channel::{AdversarialCapChannel, BinarySymmetricChannel, NoiselessChannel};
    use crate::{
        DenseSimulation, HybridSimulation, RumorAgent, RumorProtocol, StratifiedPopulation,
        StratifiedSimulation,
    };

    /// An agent that always sends its fixed opinion.
    struct Beacon(Opinion);

    impl Agent for Beacon {
        const RNG_FREE_HOOKS: bool = true;

        fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
            Some(self.0)
        }
        fn deliver(&mut self, _round: Round, _message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
            OpinionDelta::NONE
        }
        fn opinion(&self) -> Option<Opinion> {
            Some(self.0)
        }
    }

    /// An agent that adopts the first message it hears and then repeats it.
    struct Adopter {
        opinion: Option<Opinion>,
    }

    impl Agent for Adopter {
        const RNG_FREE_HOOKS: bool = true;

        fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
            self.opinion
        }
        fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
            if self.opinion.is_none() {
                self.opinion = Some(message);
                OpinionDelta::adopted(message)
            } else {
                OpinionDelta::NONE
            }
        }
        fn opinion(&self) -> Option<Opinion> {
            self.opinion
        }
    }

    fn adopters(n: usize, informed: usize) -> Vec<Adopter> {
        (0..n)
            .map(|i| Adopter {
                opinion: (i < informed).then_some(Opinion::One),
            })
            .collect()
    }

    #[test]
    fn rejects_mismatched_population() {
        let agents = adopters(10, 1);
        let config = SimulationConfig::new(11);
        assert!(Simulation::new(agents, NoiselessChannel, config).is_err());
    }

    #[test]
    fn rejects_tiny_population() {
        let agents = adopters(1, 1);
        let config = SimulationConfig::new(1);
        assert!(matches!(
            Simulation::new(agents, NoiselessChannel, config),
            Err(FlipError::PopulationTooSmall { n: 1 })
        ));
    }

    #[test]
    fn step_counts_messages_and_rounds() {
        let agents = vec![Beacon(Opinion::One), Beacon(Opinion::Zero)];
        let config = SimulationConfig::new(2).with_seed(3);
        let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
        let summary = sim.step();
        assert_eq!(summary.metrics.messages_sent, 2);
        // With two agents, each message must go to the other agent; both accept one.
        assert_eq!(summary.metrics.messages_accepted, 2);
        assert_eq!(sim.metrics().rounds, 1);
        assert_eq!(sim.round(), 1);
    }

    #[test]
    fn rumor_spreads_in_noiseless_network() {
        let agents = adopters(200, 1);
        let config = SimulationConfig::new(200).with_seed(5);
        let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
        let executed = sim.run_until(5_000, |s| s.census().active() == 200);
        assert!(executed < 5_000, "rumor should spread quickly");
        assert!(sim.census().is_unanimous(Opinion::One));
    }

    /// The provided run loop, checked on all four engines: it stops at
    /// `max_rounds`, stops in the round the predicate turns true, returns
    /// the executed count, and agrees with `metrics().rounds`.
    #[test]
    fn run_until_stops_at_max_rounds() {
        fn check<E: FlipEngine>(label: &str, build: impl Fn() -> E) {
            let mut engine = build();
            assert_eq!(engine.run_until(17, |_| false), 17, "{label}");
            assert_eq!(engine.metrics().rounds, 17, "{label}");
            assert_eq!(engine.run_until(0, |_| true), 0, "{label}");

            let mut engine = build();
            let mut calls = 0;
            let executed = engine.run_until(100, |e| {
                calls += 1;
                e.metrics().rounds == 5
            });
            assert_eq!((executed, calls), (5, 5), "{label}");
            assert_eq!(engine.metrics().rounds, 5, "{label}");

            // A census predicate stops in the first round stepping by hand
            // reaches.
            let mut reference = build();
            let mut first_full = 0;
            while reference.census().active() < N {
                reference.step();
                first_full += 1;
            }
            let mut engine = build();
            let executed = engine.run_until(1_000, |e| e.census().active() == N);
            assert_eq!(executed, first_full, "{label}");
            assert_eq!(engine.metrics().rounds, first_full, "{label}");
            assert_eq!(engine.metrics(), reference.metrics(), "{label}");
        }

        const N: usize = 300;
        let channel = || BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let config = || SimulationConfig::new(N).with_seed(5);
        check("agents", || {
            Simulation::new(RumorAgent::population(N, 0, 2), channel(), config()).unwrap()
        });
        check("dense", || {
            let population = RumorProtocol::population(N as u64, 0, 2);
            DenseSimulation::new(RumorProtocol, channel(), population, config()).unwrap()
        });
        check("stratified", || {
            let population =
                StratifiedPopulation::single(RumorProtocol::population(N as u64, 0, 2));
            StratifiedSimulation::new(RumorProtocol, vec![channel()], population, config()).unwrap()
        });
        check("hybrid", || {
            let tracked = RumorAgent::population(8, 0, 1);
            let bulk = StratifiedPopulation::single(RumorProtocol::population(N as u64 - 8, 0, 1));
            HybridSimulation::new(tracked, RumorProtocol, channel(), bulk, config()).unwrap()
        });
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let agents = adopters(100, 1);
            let config = SimulationConfig::new(100).with_seed(seed);
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim = Simulation::new(agents, channel, config).unwrap();
            let history: Vec<RoundSummary> = (0..50).map(|_| sim.step()).collect();
            (history, sim.metrics().clone())
        };
        let (h1, m1) = run(99);
        let (h2, m2) = run(99);
        assert_eq!(h1, h2);
        assert_eq!(m1, m2);
        let (h3, _) = run(100);
        assert_ne!(h1, h3, "different seeds should (almost surely) differ");
    }

    #[test]
    fn noise_flips_are_counted() {
        let agents = vec![Beacon(Opinion::One), Beacon(Opinion::One)];
        let config = SimulationConfig::new(2).with_seed(8);
        let channel = BinarySymmetricChannel::new(0.5).unwrap();
        let mut sim = Simulation::new(agents, channel, config).unwrap();
        sim.run(1_000);
        let rate = sim.metrics().empirical_flip_rate().unwrap();
        assert!((rate - 0.5).abs() < 0.05, "rate = {rate}");
    }

    #[test]
    fn trace_reference_counts_correct_agents() {
        let agents = adopters(50, 5);
        let config = SimulationConfig::new(50)
            .with_seed(2)
            .with_reference(Opinion::One);
        let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
        let summary = sim.step();
        assert_eq!(
            summary.census_correct,
            Some(sim.census().holding(Opinion::One))
        );
    }

    #[test]
    fn maintained_census_matches_full_recount_every_round() {
        let agents = adopters(150, 3);
        let config = SimulationConfig::new(150).with_seed(13);
        let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
        let mut sim = Simulation::new(agents, channel, config).unwrap();
        for _ in 0..80 {
            sim.step();
            assert_eq!(sim.census(), Census::of_agents(sim.agents()));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "incremental census diverged")]
    fn debug_builds_audit_the_census_against_a_full_recount() {
        /// Adopts the first message it hears but reports no change.
        struct Unreported(Option<Opinion>);
        impl Agent for Unreported {
            fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
                self.0
            }
            fn deliver(
                &mut self,
                _round: Round,
                message: Opinion,
                _rng: &mut SimRng,
            ) -> OpinionDelta {
                self.0 = self.0.or(Some(message));
                OpinionDelta::NONE
            }
            fn opinion(&self) -> Option<Opinion> {
                self.0
            }
        }
        let agents = (0..50)
            .map(|i| Unreported((i == 0).then_some(Opinion::One)))
            .collect();
        let config = SimulationConfig::new(50).with_seed(3);
        let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
        sim.step();
    }

    #[test]
    fn agents_mut_invalidates_the_maintained_census() {
        let agents = adopters(10, 0);
        let config = SimulationConfig::new(10).with_seed(1);
        let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
        assert_eq!(sim.census().active(), 0);
        sim.agents_mut()[4].opinion = Some(Opinion::One);
        // The census read after external mutation must reflect it ...
        assert_eq!(sim.census().active(), 1);
        assert_eq!(sim.census().holding(Opinion::One), 1);
        // ... and stepping resynchronises the maintained counts.
        sim.step();
        assert_eq!(sim.census(), Census::of_agents(sim.agents()));
    }

    #[test]
    fn fused_noise_flip_rate_matches_crossover() {
        // Same statistical check as `noise_flips_are_counted`, but at a
        // crossover where skips are long enough to exercise multi-message
        // gaps (p = 0.1) and over a larger population.
        let agents: Vec<Beacon> = (0..100).map(|_| Beacon(Opinion::One)).collect();
        let config = SimulationConfig::new(100).with_seed(17);
        let channel = BinarySymmetricChannel::new(0.1).unwrap();
        let mut sim = Simulation::new(agents, channel, config).unwrap();
        sim.run(1_000);
        let rate = sim.metrics().empirical_flip_rate().unwrap();
        assert!((rate - 0.1).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn out_of_range_fixed_crossover_keeps_the_per_message_path() {
        // A (contract-stretching) channel reporting a fixed crossover of 1.0
        // must not be fused into "noiseless": the engine has to fall back to
        // per-message transmit, which flips every bit.
        struct AlwaysFlip;
        impl Channel for AlwaysFlip {
            fn transmit(&self, message: Opinion, _rng: &mut SimRng) -> Opinion {
                message.flipped()
            }
            fn crossover(&self) -> f64 {
                1.0
            }
            fn fixed_crossover(&self) -> Option<f64> {
                Some(1.0)
            }
        }
        let agents = vec![Beacon(Opinion::One), Beacon(Opinion::One)];
        let config = SimulationConfig::new(2).with_seed(23);
        let mut sim = Simulation::new(agents, AlwaysFlip, config).unwrap();
        sim.run(100);
        let rate = sim.metrics().empirical_flip_rate().unwrap();
        assert!((rate - 1.0).abs() < f64::EPSILON, "rate = {rate}");
    }

    #[test]
    fn per_message_fallback_matches_mean_crossover() {
        // An AdversarialCapChannel with a genuine interval cannot be fused;
        // its empirical flip rate must match the interval mean.
        let agents: Vec<Beacon> = (0..100).map(|_| Beacon(Opinion::One)).collect();
        let config = SimulationConfig::new(100).with_seed(19);
        let channel = AdversarialCapChannel::new(0.1, 0.3).unwrap();
        let mut sim = Simulation::new(agents, channel, config).unwrap();
        sim.run(1_000);
        let rate = sim.metrics().empirical_flip_rate().unwrap();
        assert!((rate - 0.2).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn byzantine_constant_agents_flood_the_wrong_bit() {
        // Half the population is Byzantine-constant (pushing Zero) among
        // adopters seeded with One: adopters must end up hearing plenty of
        // zeros, while the Byzantine agents themselves never adopt anything.
        let spec: crate::FaultSpec = "byz:0.5".parse().unwrap();
        let agents = adopters(400, 10);
        let config = SimulationConfig::new(400).with_seed(31).with_faults(spec);
        let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
        let plan = sim.fault_plan().expect("faults configured").clone();
        assert!(plan.faulty_count() > 100, "half the population is faulty");
        sim.run(60);
        let zeros = sim.census().holding(Opinion::Zero);
        assert!(zeros > 0, "Byzantine zeros must infect the population");
        // Byzantine-constant agents ignore deliveries: a faulty adopter that
        // started uninformed stays uninformed forever.
        for (idx, agent) in sim.agents().iter().enumerate() {
            if plan.is_faulty(idx) && idx >= 10 {
                assert_eq!(agent.opinion(), None, "agent {idx} must stay deaf");
            }
        }
    }

    #[test]
    fn crashed_agents_freeze_at_their_crash_round() {
        // Everyone crashes at round 0: nothing is ever sent or delivered.
        let spec: crate::FaultSpec = "crash:0.999999@0".parse().unwrap();
        let mut all_faulty = None;
        for seed in 0..50 {
            let agents = adopters(50, 5);
            let config = SimulationConfig::new(50).with_seed(seed).with_faults(spec);
            let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
            if sim.fault_plan().unwrap().faulty_count() == 50 {
                sim.run(20);
                assert_eq!(sim.metrics().messages_sent, 0);
                assert_eq!(sim.census().active(), 5, "no one adopts after a crash");
                all_faulty = Some(seed);
                break;
            }
        }
        assert!(all_faulty.is_some(), "some seed crashes everyone");
    }

    #[test]
    fn fault_free_configs_share_the_stream_with_pre_fault_builds() {
        // A config without faults must not consume any RNG words for fault
        // machinery: its history equals the plain run digit for digit.
        let run = |faulty: bool| {
            let agents = adopters(100, 1);
            let mut config = SimulationConfig::new(100).with_seed(99);
            if faulty {
                config = config.with_faults("byz:0.2".parse().unwrap());
            }
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim = Simulation::new(agents, channel, config).unwrap();
            let history: Vec<RoundSummary> = (0..50).map(|_| sim.step()).collect();
            (history, sim.metrics().clone())
        };
        let (h_clean, m_clean) = run(false);
        let (h_again, m_again) = run(false);
        assert_eq!(h_clean, h_again);
        assert_eq!(m_clean, m_again);
        let (h_faulty, _) = run(true);
        assert_ne!(h_clean, h_faulty, "faults must actually perturb the run");
    }

    #[test]
    fn adaptive_flip_agents_invert_their_own_sends() {
        // Two agents that always send One and remember the last bit heard.
        // With n = 2 every message reaches the other agent, so when exactly
        // one agent is adaptive-flipped its peer hears Zero (the inverted
        // send) while the flipped agent still hears the honest One.
        struct Echo {
            heard: Option<Opinion>,
        }
        impl Agent for Echo {
            fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
                Some(Opinion::One)
            }
            fn deliver(
                &mut self,
                _round: Round,
                message: Opinion,
                _rng: &mut SimRng,
            ) -> OpinionDelta {
                let before = self.heard;
                self.heard = Some(message);
                OpinionDelta::between(before, self.heard)
            }
            fn opinion(&self) -> Option<Opinion> {
                self.heard
            }
        }
        // Find a seed whose sampled plan flips exactly one of the two.
        for seed in 0..50 {
            let config = SimulationConfig::new(2)
                .with_seed(seed)
                .with_faults("flip:0.5".parse().unwrap());
            let agents = vec![Echo { heard: None }, Echo { heard: None }];
            let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
            let plan = sim.fault_plan().unwrap();
            if plan.faulty_count() != 1 {
                continue;
            }
            let faulty = usize::from(!plan.is_faulty(0));
            sim.run(10);
            assert_eq!(
                sim.agents()[1 - faulty].heard,
                Some(Opinion::Zero),
                "the honest agent hears the inverted send"
            );
            assert_eq!(
                sim.agents()[faulty].heard,
                Some(Opinion::One),
                "the flipped agent still receives honestly"
            );
            // The inversion happens at the sender, not on the wire.
            assert_eq!(sim.metrics().bits_flipped, 0);
            return;
        }
        panic!("no seed flipped exactly one of two agents");
    }

    #[test]
    fn into_parts_returns_state() {
        let agents = adopters(10, 1);
        let config = SimulationConfig::new(10).with_seed(2);
        let mut sim = Simulation::new(agents, NoiselessChannel, config).unwrap();
        sim.run(3);
        let (agents, metrics) = sim.into_parts();
        assert_eq!(agents.len(), 10);
        assert_eq!(metrics.rounds, 3);
    }
}
