//! Observability primitives for the *Breathe before Speaking* reproduction:
//! hierarchical phase timers, structured event counters and mergeable run
//! profiles.
//!
//! The crate is a dependency-free leaf so every layer of the workspace —
//! the `flip-model` engines, the `sweeps` runner and the experiment
//! binaries — can speak one telemetry vocabulary:
//!
//! * [`Phase`] — the fixed taxonomy of engine round phases (RNG reserve,
//!   scatter, window resolve, sweep emit, noise merge, protocol step,
//!   census apply), timed into a [`PhaseProfile`] of per-phase
//!   count/total/min/max statistics.
//! * [`Event`] — counters for machinery that is otherwise invisible:
//!   radix bucket spills, staging high-water marks, Lemire rejection
//!   redraws, per-message noise fallbacks, fault interceptions and hybrid
//!   tracked-correction draws.
//! * [`Recorder`] — the accumulating sink: phase profile, event counters
//!   and per-lane busy time, mergeable across runs and workers.
//! * [`Telemetry`] — the engine-facing handle.  Disabled (the default) it
//!   holds no recorder: [`Telemetry::begin`] returns an empty span without
//!   reading the clock and every other operation is one predictable branch,
//!   so the disabled hot path stays allocation-free and branch-cheap.
//!
//! # Determinism
//!
//! Telemetry observes the engines, it never participates: timers read the
//! monotonic clock (`std::time::Instant`) and counters add integers that
//! the instrumented code already computed.  No telemetry operation draws
//! from — or even holds a reference to — the simulation RNG, so enabling
//! instrumentation cannot perturb a seeded run: deliveries, metrics and
//! golden snapshots are byte-identical with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;

/// Maximum number of per-round worker lanes a profile tracks; mirrors the
/// round pool's hard width cap in `flip-model`.
pub const MAX_LANES: usize = 64;

/// One phase of an engine round, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reserving the round's RNG counter block (fixed-size stream advance).
    RngReserve,
    /// Scattering messages to recipients (single-pass slot writes, or the
    /// radix path's staging pass).
    Scatter,
    /// Max-resolving the reservoir window (radix paths; fused into the
    /// scatter on the single-pass path).
    WindowResolve,
    /// Emitting accepted deliveries by sweeping slots in recipient order.
    SweepEmit,
    /// Applying channel noise and delivering accepted messages to agents.
    NoiseMerge,
    /// Running agent protocol hooks (send collection and `end_round`).
    ProtocolStep,
    /// Applying census/count updates (recounts, dense count swaps).
    CensusApply,
}

impl Phase {
    /// Every phase, in execution order.
    pub const ALL: [Phase; 7] = [
        Phase::RngReserve,
        Phase::Scatter,
        Phase::WindowResolve,
        Phase::SweepEmit,
        Phase::NoiseMerge,
        Phase::ProtocolStep,
        Phase::CensusApply,
    ];

    /// Number of phases in the taxonomy.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable machine-readable name (used as JSONL keys).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::RngReserve => "rng_reserve",
            Phase::Scatter => "scatter",
            Phase::WindowResolve => "window_resolve",
            Phase::SweepEmit => "sweep_emit",
            Phase::NoiseMerge => "noise_merge",
            Phase::ProtocolStep => "protocol_step",
            Phase::CensusApply => "census_apply",
        }
    }

    /// Index into [`Phase::ALL`]-shaped arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The phase with the given [`Phase::name`], if any (the inverse used
    /// when reading JSONL telemetry shards back).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured event counter.
///
/// Most events are *sums* ([`Recorder::add_event`]); high-water marks
/// ([`Event::is_high_water`]) are folded with `max`
/// ([`Recorder::observe_max`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Messages that overflowed their radix bucket's fixed-capacity staging
    /// area into the spill list.
    RadixSpills,
    /// High-water mark: the fullest radix staging bucket's occupancy.
    StagingHighWater,
    /// Lemire rejection redraws while drawing recipients (re-mixes of a
    /// message's own block word; they never touch the live stream).
    LemireRedraws,
    /// Accepted messages corrupted through the per-message
    /// `Channel::transmit` fallback instead of fused noise.
    PerMessageFallbacks,
    /// Sends intercepted by the fault plan (Byzantine injections and
    /// crash silencings).
    FaultForcedSends,
    /// Deliveries suppressed because the recipient's fault role was deaf.
    FaultSuppressedDeliveries,
    /// Per-message channel-correction draws spent on the hybrid engine's
    /// tracked agents.
    HybridTrackedCorrections,
}

impl Event {
    /// Every event kind.
    pub const ALL: [Event; 7] = [
        Event::RadixSpills,
        Event::StagingHighWater,
        Event::LemireRedraws,
        Event::PerMessageFallbacks,
        Event::FaultForcedSends,
        Event::FaultSuppressedDeliveries,
        Event::HybridTrackedCorrections,
    ];

    /// Number of event kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable machine-readable name (used as JSONL keys).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Event::RadixSpills => "radix_spills",
            Event::StagingHighWater => "staging_high_water",
            Event::LemireRedraws => "lemire_redraws",
            Event::PerMessageFallbacks => "per_message_fallbacks",
            Event::FaultForcedSends => "fault_forced_sends",
            Event::FaultSuppressedDeliveries => "fault_suppressed_deliveries",
            Event::HybridTrackedCorrections => "hybrid_tracked_corrections",
        }
    }

    /// Index into [`Event::ALL`]-shaped arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the event is a high-water mark (merged with `max`) rather
    /// than a sum.
    #[must_use]
    pub const fn is_high_water(self) -> bool {
        matches!(self, Event::StagingHighWater)
    }

    /// The event with the given [`Event::name`], if any (the inverse used
    /// when reading JSONL telemetry shards back).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Event> {
        Event::ALL.into_iter().find(|e| e.name() == name)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated timing statistics for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of recorded spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest recorded span, in nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest recorded span, in nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Records one span of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.count += 1;
        self.total_ns += ns;
    }

    /// Folds another statistic into this one; the count and total
    /// saturate, so merging many cells' profiles cannot overflow.
    pub fn merge(&mut self, other: &PhaseStat) {
        if other.count == 0 {
            return;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// Mean span length in nanoseconds (`None` when nothing was recorded).
    #[must_use]
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }
}

/// Per-phase timing statistics for a run (or a merged set of runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    stats: [PhaseStat; Phase::COUNT],
}

impl PhaseProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one span for `phase`.
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.stats[phase.index()].record(ns);
    }

    /// The statistics accumulated for `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> &PhaseStat {
        &self.stats[phase.index()]
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for phase in Phase::ALL {
            self.stats[phase.index()].merge(other.get(phase));
        }
    }

    /// Folds a pre-accumulated statistic into `phase` (the deserialization
    /// path: shard readers rebuild profiles from stored count/total/min/max
    /// quadruples rather than from individual spans).
    pub fn absorb(&mut self, phase: Phase, stat: &PhaseStat) {
        self.stats[phase.index()].merge(stat);
    }

    /// Whether no span has been recorded for any phase.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.count == 0)
    }
}

/// The standard accumulating sink: a [`PhaseProfile`], the event counters
/// and per-lane busy time, all mergeable across runs and workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorder {
    phases: PhaseProfile,
    events: [u64; Event::COUNT],
    lanes: [u64; MAX_LANES],
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            phases: PhaseProfile::default(),
            events: [0; Event::COUNT],
            lanes: [0; MAX_LANES],
        }
    }
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed span of `ns` nanoseconds for `phase`.
    pub fn record_phase(&mut self, phase: Phase, ns: u64) {
        self.phases.record(phase, ns);
    }

    /// Adds `count` occurrences of `event` (saturating).
    pub fn add_event(&mut self, event: Event, count: u64) {
        let slot = &mut self.events[event.index()];
        *slot = slot.saturating_add(count);
    }

    /// Observes a high-water `value` for `event` (folded with `max`).
    pub fn observe_max(&mut self, event: Event, value: u64) {
        let slot = &mut self.events[event.index()];
        *slot = (*slot).max(value);
    }

    /// Adds `ns` nanoseconds of busy time for worker `lane` (saturating;
    /// lanes at or past the tracked width are dropped).
    pub fn record_lane(&mut self, lane: usize, ns: u64) {
        if let Some(slot) = self.lanes.get_mut(lane) {
            *slot = slot.saturating_add(ns);
        }
    }

    /// The accumulated phase profile.
    #[must_use]
    pub fn phases(&self) -> &PhaseProfile {
        &self.phases
    }

    /// The accumulated count (or high-water mark) of `event`.
    #[must_use]
    pub fn event(&self, event: Event) -> u64 {
        self.events[event.index()]
    }

    /// Busy nanoseconds recorded for each worker lane (index = lane).
    #[must_use]
    pub fn lane_nanos(&self) -> &[u64; MAX_LANES] {
        &self.lanes
    }

    /// Whether nothing at all has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
            && self.events.iter().all(|&c| c == 0)
            && self.lanes.iter().all(|&ns| ns == 0)
    }

    /// Folds a pre-accumulated statistic into `phase` (deserialization).
    pub fn absorb_phase(&mut self, phase: Phase, stat: &PhaseStat) {
        self.phases.absorb(phase, stat);
    }

    /// Folds another recorder into this one (sums, maxes for high-water
    /// events, per-lane sums).
    pub fn merge(&mut self, other: &Recorder) {
        self.phases.merge(&other.phases);
        for event in Event::ALL {
            let i = event.index();
            if event.is_high_water() {
                self.events[i] = self.events[i].max(other.events[i]);
            } else {
                self.events[i] = self.events[i].saturating_add(other.events[i]);
            }
        }
        for (mine, theirs) in self.lanes.iter_mut().zip(&other.lanes) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Renders the profile as an aligned plain-text table (phases with at
    /// least one span, then non-zero events, then non-idle lanes).
    #[must_use]
    pub fn render(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1.0e6
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>10} {:>10} {:>10}\n",
            "phase", "count", "total ms", "min us", "mean us", "max us"
        ));
        for phase in Phase::ALL {
            let stat = self.phases.get(phase);
            if stat.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<16} {:>10} {:>12.3} {:>10.2} {:>10.2} {:>10.2}\n",
                phase.name(),
                stat.count,
                ms(stat.total_ns),
                stat.min_ns as f64 / 1.0e3,
                stat.mean_ns().unwrap_or(0.0) / 1.0e3,
                stat.max_ns as f64 / 1.0e3,
            ));
        }
        let events: Vec<Event> = Event::ALL
            .into_iter()
            .filter(|&e| self.event(e) > 0)
            .collect();
        if !events.is_empty() {
            out.push_str(&format!("\n{:<28} {:>14}\n", "event", "count"));
            for event in events {
                out.push_str(&format!("{:<28} {:>14}\n", event.name(), self.event(event)));
            }
        }
        let busy_lanes = self.lanes.iter().filter(|&&ns| ns > 0).count();
        if busy_lanes > 0 {
            out.push_str(&format!("\n{:<8} {:>12}\n", "lane", "busy ms"));
            for (lane, &ns) in self.lanes.iter().enumerate() {
                if ns > 0 {
                    out.push_str(&format!("{:<8} {:>12.3}\n", lane, ms(ns)));
                }
            }
        }
        out
    }
}

/// An in-flight phase measurement; see [`Telemetry::begin`].
///
/// Holds the start instant only when the owning handle was enabled, so a
/// disabled handle never reads the clock.
#[derive(Debug)]
#[must_use = "a span measures nothing unless finished with Telemetry::end"]
pub struct PhaseSpan {
    start: Option<Instant>,
}

impl PhaseSpan {
    /// A span that will record nothing.
    pub const fn empty() -> Self {
        Self { start: None }
    }
}

/// The engine-facing telemetry handle: either *off* (the default — no
/// recorder, no clock reads, one predictable branch per call site) or *on*
/// (accumulating into a boxed [`Recorder`]).
///
/// The handle is deliberately concrete rather than generic over a sink
/// type: engines hold it as a plain field, so enabling
/// telemetry is a runtime decision that does not monomorphize — or change
/// the type of — any engine.
#[derive(Debug, Default)]
pub struct Telemetry {
    recorder: Option<Box<Recorder>>,
}

impl Telemetry {
    /// A disabled handle (records nothing, never reads the clock).
    #[must_use]
    pub const fn off() -> Self {
        Self { recorder: None }
    }

    /// An enabled handle accumulating into a fresh [`Recorder`].
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            recorder: Some(Box::default()),
        }
    }

    /// Whether the handle is recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Starts a phase span: reads the clock only when enabled.
    #[inline]
    pub fn begin(&self) -> PhaseSpan {
        PhaseSpan {
            start: self.recorder.is_some().then(Instant::now),
        }
    }

    /// Finishes `span`, attributing its elapsed time to `phase`.
    #[inline]
    pub fn end(&mut self, phase: Phase, span: PhaseSpan) {
        if let (Some(recorder), Some(start)) = (self.recorder.as_deref_mut(), span.start) {
            recorder.record_phase(phase, saturating_ns(start));
        }
    }

    /// Adds `count` occurrences of `event` (no-op when disabled or zero).
    #[inline]
    pub fn add(&mut self, event: Event, count: u64) {
        if count > 0 {
            if let Some(recorder) = self.recorder.as_deref_mut() {
                recorder.add_event(event, count);
            }
        }
    }

    /// Observes a high-water `value` for `event` (no-op when disabled).
    #[inline]
    pub fn observe_max(&mut self, event: Event, value: u64) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.observe_max(event, value);
        }
    }

    /// Adds `ns` nanoseconds of busy time for worker `lane`.
    #[inline]
    pub fn record_lane(&mut self, lane: usize, ns: u64) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.record_lane(lane, ns);
        }
    }

    /// The recorder accumulated so far, when enabled.
    #[must_use]
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// Takes the recorder out, disabling the handle.
    pub fn take(&mut self) -> Option<Recorder> {
        self.recorder.take().map(|boxed| *boxed)
    }
}

fn saturating_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_match_all_order() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        for (i, event) in Event::ALL.into_iter().enumerate() {
            assert_eq!(event.index(), i);
        }
    }

    #[test]
    fn phase_stat_tracks_count_total_min_max() {
        let mut stat = PhaseStat::default();
        assert_eq!(stat.mean_ns(), None);
        stat.record(10);
        stat.record(30);
        stat.record(20);
        assert_eq!(stat.count, 3);
        assert_eq!(stat.total_ns, 60);
        assert_eq!(stat.min_ns, 10);
        assert_eq!(stat.max_ns, 30);
        assert_eq!(stat.mean_ns(), Some(20.0));
    }

    #[test]
    fn phase_stat_merge_is_commutative_with_zero_identity() {
        let mut a = PhaseStat::default();
        a.record(5);
        a.record(15);
        let mut b = PhaseStat::default();
        b.record(1);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 3);
        assert_eq!(ab.min_ns, 1);
        assert_eq!(ab.max_ns, 15);

        let mut with_empty = a;
        with_empty.merge(&PhaseStat::default());
        assert_eq!(with_empty, a);
        let mut from_empty = PhaseStat::default();
        from_empty.merge(&a);
        assert_eq!(from_empty, a);
    }

    #[test]
    fn recorder_accumulates_and_merges() {
        let mut a = Recorder::new();
        a.record_phase(Phase::Scatter, 100);
        a.add_event(Event::RadixSpills, 3);
        a.observe_max(Event::StagingHighWater, 40);
        a.record_lane(0, 70);

        let mut b = Recorder::new();
        b.record_phase(Phase::Scatter, 200);
        b.add_event(Event::RadixSpills, 2);
        b.observe_max(Event::StagingHighWater, 25);
        b.record_lane(1, 30);

        a.merge(&b);
        assert_eq!(a.phases().get(Phase::Scatter).count, 2);
        assert_eq!(a.phases().get(Phase::Scatter).total_ns, 300);
        assert_eq!(a.event(Event::RadixSpills), 5);
        // High-water marks merge with max, not addition.
        assert_eq!(a.event(Event::StagingHighWater), 40);
        assert_eq!(a.lane_nanos()[0], 70);
        assert_eq!(a.lane_nanos()[1], 30);
        assert!(!a.is_empty());
    }

    #[test]
    fn merges_saturate_instead_of_overflowing() {
        let mut a = Recorder::new();
        a.absorb_phase(
            Phase::Scatter,
            &PhaseStat {
                count: u64::MAX,
                total_ns: u64::MAX,
                min_ns: 1,
                max_ns: 9,
            },
        );
        a.add_event(Event::RadixSpills, u64::MAX);
        a.record_lane(0, u64::MAX);
        let b = a.clone();
        a.merge(&b);
        a.add_event(Event::RadixSpills, 1);
        a.record_lane(0, 1);
        let scatter = a.phases().get(Phase::Scatter);
        assert_eq!((scatter.count, scatter.total_ns), (u64::MAX, u64::MAX));
        assert_eq!(a.event(Event::RadixSpills), u64::MAX);
        assert_eq!(a.lane_nanos()[0], u64::MAX);
    }

    #[test]
    fn disabled_handle_records_nothing_and_never_reads_the_clock() {
        let mut tel = Telemetry::off();
        assert!(!tel.is_enabled());
        let span = tel.begin();
        // The span is empty: no Instant was taken.
        assert!(span.start.is_none());
        tel.end(Phase::Scatter, span);
        tel.add(Event::LemireRedraws, 7);
        tel.observe_max(Event::StagingHighWater, 9);
        tel.record_lane(0, 1);
        assert!(tel.recorder().is_none());
        assert!(tel.take().is_none());
    }

    #[test]
    fn enabled_handle_accumulates_and_takes() {
        let mut tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        let span = tel.begin();
        tel.end(Phase::ProtocolStep, span);
        tel.add(Event::FaultForcedSends, 2);
        tel.add(Event::FaultForcedSends, 0); // zero adds are dropped early
        let recorder = tel.take().expect("recorder present");
        assert!(!tel.is_enabled());
        assert_eq!(recorder.phases().get(Phase::ProtocolStep).count, 1);
        assert_eq!(recorder.event(Event::FaultForcedSends), 2);
    }

    #[test]
    fn render_lists_recorded_phases_and_events() {
        let mut recorder = Recorder::new();
        recorder.record_phase(Phase::NoiseMerge, 1_500);
        recorder.add_event(Event::PerMessageFallbacks, 12);
        let table = recorder.render();
        assert!(table.contains("noise_merge"), "{table}");
        assert!(table.contains("per_message_fallbacks"), "{table}");
        assert!(!table.contains("rng_reserve"), "{table}");
    }
}
