//! Sweep-level observability: the trial-side telemetry plumbing, per-cell
//! telemetry records for the JSONL telemetry shards, and the live progress
//! reporter.
//!
//! Telemetry rides *next to* the result store, never inside it: profiles are
//! advisory wall-clock data, so they live in their own `telemetry/` directory
//! (see [`crate::SweepStore::open_telemetry_shards`]) and a missing or
//! partial telemetry record never invalidates a persisted cell.  The write
//! order in the orchestrator guarantees a killed run leaves at most a torn
//! final line per shard, which the loader drops — exactly the contract of the
//! result shards.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use telemetry::{Event, Phase, PhaseStat, Recorder};

use crate::json::{parse, Json};

/// A thread-safe collection point for [`Recorder`]s produced by the trials
/// of one cell (or one whole run).
///
/// Trials run on the [`crate::TrialRunner`] fan-out, so each finished
/// simulation folds its recorder in under a mutex; the lock is taken once
/// per *trial*, never on the simulation hot path.
#[derive(Debug, Default)]
pub struct TelemetryHub {
    recorder: Mutex<Recorder>,
}

impl TelemetryHub {
    /// An empty hub.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one trial's recorder into the hub.
    pub fn absorb(&self, recorder: &Recorder) {
        self.recorder
            .lock()
            .expect("telemetry hub lock")
            .merge(recorder);
    }

    /// Takes the accumulated recorder, leaving the hub empty.
    #[must_use]
    pub fn take(&self) -> Recorder {
        std::mem::take(&mut *self.recorder.lock().expect("telemetry hub lock"))
    }

    /// A copy of the accumulated recorder.
    #[must_use]
    pub fn snapshot(&self) -> Recorder {
        self.recorder.lock().expect("telemetry hub lock").clone()
    }
}

/// Per-trial execution context handed to every protocol runner.
///
/// Carries the round-level thread budget (what the bare `usize` parameter
/// used to be) plus the optional telemetry hub.  Runners that construct an
/// instrumentable engine check [`TrialContext::telemetry_enabled`], switch
/// the engine's recorder on, and hand the result back through
/// [`TrialContext::absorb`]; runners on counts-only backends ignore the hub
/// and cost nothing.
#[derive(Debug, Clone, Copy)]
pub struct TrialContext<'a> {
    /// Worker threads each trial's simulation may use for its rounds.
    pub round_threads: usize,
    hub: Option<&'a TelemetryHub>,
}

impl<'a> TrialContext<'a> {
    /// A context with the given round-thread budget and no telemetry.
    #[must_use]
    pub fn new(round_threads: usize) -> Self {
        Self {
            round_threads,
            hub: None,
        }
    }

    /// The single-threaded, telemetry-off context.
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Attaches a telemetry hub; trial recorders folded via
    /// [`TrialContext::absorb`] accumulate there.
    #[must_use]
    pub fn with_hub(mut self, hub: &'a TelemetryHub) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Whether runners should enable engine telemetry.
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// Folds a finished trial's recorder (if any) into the attached hub.
    pub fn absorb(&self, recorder: Option<Recorder>) {
        if let (Some(hub), Some(recorder)) = (self.hub, recorder) {
            hub.absorb(&recorder);
        }
    }
}

/// One cell's telemetry: the merged recorder of all its trials plus enough
/// identity (cell hash, point) to join it back onto the result shards.
///
/// Serialized one-per-line into `telemetry/telemetry-GGGG-WW.jsonl` shards;
/// the JSONL round-trip is exact for every counter and nanosecond field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTelemetry {
    /// The cell's spec hash (joins onto [`crate::CellRecord::hash`]).
    pub hash: String,
    /// The cell's point number within the sweep grid.
    pub point: u64,
    /// The orchestrator worker that ran the cell.
    pub worker: u64,
    /// Trials merged into [`CellTelemetry::recorder`].
    pub trials: u64,
    /// Wall-clock nanoseconds the cell took end to end.
    pub elapsed_ns: u64,
    /// The merged phase/event/lane recorder for the cell.
    pub recorder: Recorder,
}

impl CellTelemetry {
    /// Serializes to the canonical single-line JSON form.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let stat = self.recorder.phases().get(phase);
            if stat.count == 0 {
                continue;
            }
            phases.push((
                phase.name().to_string(),
                Json::object(vec![
                    ("count".into(), Json::UInt(stat.count)),
                    ("total_ns".into(), Json::UInt(stat.total_ns)),
                    ("min_ns".into(), Json::UInt(stat.min_ns)),
                    ("max_ns".into(), Json::UInt(stat.max_ns)),
                ]),
            ));
        }
        let events: Vec<(String, Json)> = Event::ALL
            .into_iter()
            .filter(|&e| self.recorder.event(e) > 0)
            .map(|e| (e.name().to_string(), Json::UInt(self.recorder.event(e))))
            .collect();
        let lanes: Vec<Json> = self
            .recorder
            .lane_nanos()
            .iter()
            .enumerate()
            .filter(|&(_, &ns)| ns > 0)
            .map(|(lane, &ns)| Json::Array(vec![Json::UInt(lane as u64), Json::UInt(ns)]))
            .collect();
        Json::object(vec![
            ("hash".into(), Json::Str(self.hash.clone())),
            ("point".into(), Json::UInt(self.point)),
            ("worker".into(), Json::UInt(self.worker)),
            ("trials".into(), Json::UInt(self.trials)),
            ("elapsed_ns".into(), Json::UInt(self.elapsed_ns)),
            ("phases".into(), Json::Object(phases)),
            ("events".into(), Json::Object(events)),
            ("lanes".into(), Json::Array(lanes)),
        ])
        .to_string()
    }

    /// Parses one shard line.
    ///
    /// Phase and event names that this build does not know are skipped, not
    /// rejected: telemetry is advisory, and a shard written by a newer build
    /// must not brick `sweep report` on an older one.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let doc = parse(line)?;
        let field_u64 = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or invalid `{key}`"))
        };
        let hash = doc
            .get("hash")
            .and_then(Json::as_str)
            .ok_or("missing or invalid `hash`")?
            .to_string();
        let mut recorder = Recorder::new();
        if let Some(Json::Object(pairs)) = doc.get("phases") {
            for (name, value) in pairs {
                let Some(phase) = Phase::from_name(name) else {
                    continue;
                };
                let stat_u64 = |key: &str| {
                    value
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("phase `{name}`: missing or invalid `{key}`"))
                };
                let stat = PhaseStat {
                    count: stat_u64("count")?,
                    total_ns: stat_u64("total_ns")?,
                    min_ns: stat_u64("min_ns")?,
                    max_ns: stat_u64("max_ns")?,
                };
                recorder.absorb_phase(phase, &stat);
            }
        }
        if let Some(Json::Object(pairs)) = doc.get("events") {
            for (name, value) in pairs {
                let Some(event) = Event::from_name(name) else {
                    continue;
                };
                let count = value
                    .as_u64()
                    .ok_or_else(|| format!("event `{name}`: invalid count"))?;
                if event.is_high_water() {
                    recorder.observe_max(event, count);
                } else {
                    recorder.add_event(event, count);
                }
            }
        }
        if let Some(lanes) = doc.get("lanes").and_then(Json::as_array) {
            for entry in lanes {
                let pair = entry.as_array().ok_or("lanes: entry is not a pair")?;
                let (lane, ns) = match pair {
                    [lane, ns] => (
                        lane.as_u64().ok_or("lanes: invalid lane index")?,
                        ns.as_u64().ok_or("lanes: invalid lane nanos")?,
                    ),
                    _ => return Err("lanes: entry is not a pair".into()),
                };
                recorder.record_lane(lane as usize, ns);
            }
        }
        Ok(Self {
            hash,
            point: field_u64("point")?,
            worker: field_u64("worker")?,
            trials: field_u64("trials")?,
            elapsed_ns: field_u64("elapsed_ns")?,
            recorder,
        })
    }
}

/// The live progress reporter: cells/sec, trials/sec and an ETA, one stderr
/// line per completed cell.
///
/// All counters are atomics so every orchestrator worker reports through one
/// shared instance; a disabled reporter still counts (the totals feed
/// [`crate::SweepOutcome`]) but never writes.
#[derive(Debug)]
pub struct ProgressReporter {
    enabled: bool,
    total: usize,
    skipped: usize,
    started: Instant,
    cells_done: AtomicUsize,
    trials_done: AtomicU64,
}

impl ProgressReporter {
    /// A reporter over `total` pending cells (`skipped` already persisted).
    #[must_use]
    pub fn new(enabled: bool, total: usize, skipped: usize) -> Self {
        Self {
            enabled,
            total,
            skipped,
            started: Instant::now(),
            cells_done: AtomicUsize::new(0),
            trials_done: AtomicU64::new(0),
        }
    }

    /// Records one finished cell and, when enabled, writes its progress
    /// line to stderr.
    pub fn cell_finished(&self, worker: usize, point: u64, trials: u64, cell_elapsed: Duration) {
        let done = self.cells_done.fetch_add(1, Ordering::Relaxed) + 1;
        let trials_done = self.trials_done.fetch_add(trials, Ordering::Relaxed) + trials;
        if self.enabled {
            let line = progress_line(
                done,
                self.total,
                self.skipped,
                point,
                worker,
                trials,
                cell_elapsed.as_secs_f64(),
                trials_done,
                self.started.elapsed().as_secs_f64(),
            );
            eprintln!("{line}");
        }
    }
}

/// Formats one progress line (pure, so the layout is unit-testable).
#[allow(clippy::too_many_arguments)]
#[must_use]
pub(crate) fn progress_line(
    done: usize,
    total: usize,
    skipped: usize,
    point: u64,
    worker: usize,
    trials: u64,
    cell_secs: f64,
    trials_done: u64,
    elapsed_secs: f64,
) -> String {
    let mut line = format!(
        "[sweep] cell {done}/{total} point {point:04} worker {worker}: {trials} trials in {cell_secs:.2}s"
    );
    if elapsed_secs > 0.0 {
        let cells_per_sec = done as f64 / elapsed_secs;
        let trials_per_sec = trials_done as f64 / elapsed_secs;
        let _ = write!(
            line,
            " | {cells_per_sec:.2} cells/s, {trials_per_sec:.1} trials/s"
        );
        if done < total {
            let eta = (total - done) as f64 / cells_per_sec;
            let _ = write!(line, " | ETA {}", format_eta(eta));
        }
    }
    if skipped > 0 {
        let _ = write!(line, " ({skipped} resumed)");
    }
    line
}

/// Renders a duration in seconds as a compact `47s` / `3m12s` / `1h02m`.
#[must_use]
pub(crate) fn format_eta(secs: f64) -> String {
    let secs = secs.max(0.0).round() as u64;
    if secs < 60 {
        format!("{secs}s")
    } else if secs < 3600 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_recorder() -> Recorder {
        let mut r = Recorder::new();
        r.record_phase(Phase::ProtocolStep, 1_000);
        r.record_phase(Phase::ProtocolStep, 3_000);
        r.record_phase(Phase::NoiseMerge, 500);
        r.add_event(Event::LemireRedraws, 7);
        r.observe_max(Event::StagingHighWater, 12);
        r.record_lane(0, 900);
        r.record_lane(3, 4_200);
        r
    }

    #[test]
    fn cell_telemetry_round_trips_exactly() {
        let cell = CellTelemetry {
            hash: "abcd".into(),
            point: 42,
            worker: 3,
            trials: 5,
            elapsed_ns: 123_456_789,
            recorder: busy_recorder(),
        };
        let line = cell.to_json_line();
        assert!(!line.contains('\n'), "single line");
        let back = CellTelemetry::from_json_line(&line).expect("parses");
        assert_eq!(back, cell);
        // And the canonical form is stable.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn unknown_phase_and_event_names_are_skipped() {
        let line = "{\"hash\":\"x\",\"point\":0,\"worker\":0,\"trials\":1,\"elapsed_ns\":9,\
                    \"phases\":{\"warp_drive\":{\"count\":1,\"total_ns\":2,\"min_ns\":2,\"max_ns\":2}},\
                    \"events\":{\"tachyon_leaks\":3},\"lanes\":[]}";
        let cell = CellTelemetry::from_json_line(line).expect("advisory data parses");
        assert!(cell.recorder.is_empty(), "unknown names contribute nothing");
    }

    #[test]
    fn malformed_lines_name_the_field() {
        for (line, needle) in [
            ("{\"point\":0}", "hash"),
            (
                "{\"hash\":\"x\",\"worker\":0,\"trials\":1,\"elapsed_ns\":9}",
                "point",
            ),
            (
                "{\"hash\":\"x\",\"point\":0,\"worker\":0,\"trials\":1,\"elapsed_ns\":9,\
                 \"phases\":{\"protocol_step\":{\"count\":1}}}",
                "total_ns",
            ),
            ("not json", "byte"),
        ] {
            let err = CellTelemetry::from_json_line(line).expect_err(line);
            assert!(err.contains(needle), "`{err}` should mention {needle}");
        }
    }

    #[test]
    fn hub_merges_across_threads_and_drains() {
        let hub = TelemetryHub::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| hub.absorb(&busy_recorder()));
            }
        });
        let merged = hub.snapshot();
        assert_eq!(merged.phases().get(Phase::ProtocolStep).count, 8);
        assert_eq!(merged.event(Event::LemireRedraws), 28);
        assert_eq!(
            merged.event(Event::StagingHighWater),
            12,
            "high-water merges with max, not sum"
        );
        assert_eq!(hub.take(), merged, "take drains the accumulated recorder");
        assert!(hub.snapshot().is_empty());
    }

    #[test]
    fn context_routes_recorders_only_when_hubbed() {
        let hub = TelemetryHub::new();
        let off = TrialContext::new(2);
        assert!(!off.telemetry_enabled());
        assert_eq!(off.round_threads, 2);
        off.absorb(Some(busy_recorder())); // no hub: dropped, not panicked
        assert!(hub.snapshot().is_empty());

        let on = TrialContext::sequential().with_hub(&hub);
        assert!(on.telemetry_enabled());
        on.absorb(None); // engine telemetry disabled upstream: a no-op
        on.absorb(Some(busy_recorder()));
        assert_eq!(hub.snapshot().event(Event::LemireRedraws), 7);
    }

    #[test]
    fn progress_lines_carry_rates_and_eta() {
        let line = progress_line(2, 10, 3, 7, 1, 5, 0.5, 10, 4.0);
        assert!(line.contains("cell 2/10"), "{line}");
        assert!(line.contains("point 0007"), "{line}");
        assert!(line.contains("worker 1"), "{line}");
        assert!(line.contains("0.50 cells/s"), "{line}");
        assert!(line.contains("2.5 trials/s"), "{line}");
        assert!(line.contains("ETA 16s"), "{line}");
        assert!(line.contains("(3 resumed)"), "{line}");
        // The final cell has no ETA.
        let done = progress_line(10, 10, 0, 9, 0, 5, 0.5, 50, 20.0);
        assert!(!done.contains("ETA"), "{done}");
    }

    #[test]
    fn eta_formatting_scales_units() {
        assert_eq!(format_eta(0.4), "0s");
        assert_eq!(format_eta(59.0), "59s");
        assert_eq!(format_eta(192.0), "3m12s");
        assert_eq!(format_eta(3_726.0), "1h02m");
    }
}
