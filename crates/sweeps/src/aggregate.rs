//! Streaming per-cell aggregation and its serialized form.
//!
//! A sweep cell may run millions of trials; nothing here ever holds
//! per-trial data.  Every metric a protocol reports folds into a
//! [`MetricAggregate`]: online moments ([`analysis::streaming::StreamingMoments`])
//! plus three P² quantile sketches (q = 0.1, 0.5, 0.9).  A finished cell is a
//! [`CellRecord`] — the unit the shard store persists, one JSONL line each.
//!
//! Aggregation order is trial order (the [`crate::TrialRunner`] returns
//! results in trial order regardless of thread count), so a record is a
//! deterministic function of the cell spec alone — the property the
//! byte-identical-resume guarantee rests on.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use analysis::streaming::{P2Quantile, P2State, StreamingEstimator, StreamingMoments};

use crate::error::SweepError;
use crate::json::{put, required, write_f64, write_str, write_u64, Scanner};

/// The quantiles every metric tracks.
pub const TRACKED_QUANTILES: [f64; 3] = [0.1, 0.5, 0.9];

/// Streaming summary of one metric across a cell's trials.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricAggregate {
    /// Count / sum / mean / variance / min / max.
    pub moments: StreamingMoments,
    /// P² sketches for [`TRACKED_QUANTILES`], in that order.
    pub quantiles: [P2Quantile; 3],
}

impl MetricAggregate {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self {
            moments: StreamingMoments::new(),
            quantiles: TRACKED_QUANTILES
                .map(|q| P2Quantile::new(q).expect("tracked quantiles are valid")),
        }
    }

    /// Absorbs one trial's value.
    pub fn observe(&mut self, x: f64) {
        self.moments.observe(x);
        for sketch in &mut self.quantiles {
            sketch.observe(x);
        }
    }

    /// The estimate for tracked quantile index `i` (0 → q10, 1 → q50, 2 → q90).
    #[must_use]
    pub fn quantile(&self, i: usize) -> f64 {
        self.quantiles[i].estimate()
    }

    /// Appends the full aggregate state as one JSON object: the moments,
    /// then the three sketches in [`TRACKED_QUANTILES`] order.
    fn write_json(&self, out: &mut String) {
        let m = &self.moments;
        out.push_str("{\"count\":");
        write_u64(out, m.count);
        for (key, value) in [
            (",\"sum\":", m.sum),
            (",\"welford_mean\":", m.welford_mean),
            (",\"m2\":", m.m2),
            (",\"min\":", m.min),
            (",\"max\":", m.max),
        ] {
            out.push_str(key);
            write_f64(out, value);
        }
        out.push_str(",\"quantiles\":[");
        for (i, sketch) in self.quantiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_sketch(out, &sketch.snapshot());
        }
        out.push_str("]}");
    }

    /// Reads an aggregate written by [`MetricAggregate::write_json`], in any
    /// key order.
    fn read_json(s: &mut Scanner<'_>) -> Result<Self, String> {
        let (mut count, mut quantiles) = (None, None);
        let [mut sum, mut welford_mean, mut m2, mut min, mut max] = [None; 5];
        s.object(|s, key| match &*key {
            "count" => put(&mut count, &key, s.u64()?),
            "sum" => put(&mut sum, &key, s.f64()?),
            "welford_mean" => put(&mut welford_mean, &key, s.f64()?),
            "m2" => put(&mut m2, &key, s.f64()?),
            "min" => put(&mut min, &key, s.f64()?),
            "max" => put(&mut max, &key, s.f64()?),
            "quantiles" => put(&mut quantiles, &key, read_sketches(s)?),
            _ => s.skip_value(),
        })?;
        Ok(Self {
            moments: StreamingMoments {
                count: required(count, "count")?,
                sum: required(sum, "sum")?,
                welford_mean: required(welford_mean, "welford_mean")?,
                m2: required(m2, "m2")?,
                min: required(min, "min")?,
                max: required(max, "max")?,
            },
            quantiles: required(quantiles, "quantiles")?,
        })
    }
}

impl Default for MetricAggregate {
    fn default() -> Self {
        Self::new()
    }
}

fn write_sketch(out: &mut String, state: &P2State) {
    out.push_str("{\"q\":");
    write_f64(out, state.q);
    out.push_str(",\"count\":");
    write_u64(out, state.count);
    for (key, values) in [
        (",\"heights\":[", &state.heights[..]),
        (",\"positions\":[", &state.positions[..]),
        (",\"desired\":[", &state.desired[..]),
        (",\"buffer\":[", state.observations()),
    ] {
        out.push_str(key);
        for (i, &value) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_f64(out, value);
        }
        out.push(']');
    }
    out.push('}');
}

/// Reads the three sketches, checking each against its tracked quantile
/// and restoring it in place.
fn read_sketches(s: &mut Scanner<'_>) -> Result<[P2Quantile; 3], String> {
    let mut sketches = MetricAggregate::new().quantiles;
    let mut found = 0;
    s.array(|s| {
        let slot = sketches
            .get_mut(found)
            .ok_or_else(|| format!("more than {} quantile sketches", TRACKED_QUANTILES.len()))?;
        let expected_q = TRACKED_QUANTILES[found];
        let state = read_sketch(s)?;
        if (state.q - expected_q).abs() > 1e-12 {
            return Err(format!(
                "quantile sketch order mismatch: expected q={expected_q}, found q={}",
                state.q
            ));
        }
        *slot =
            P2Quantile::restore(state).ok_or_else(|| "inconsistent P² sketch state".to_string())?;
        found += 1;
        Ok(())
    })?;
    if found != sketches.len() {
        return Err(format!(
            "expected {} quantile sketches, found {found}",
            TRACKED_QUANTILES.len()
        ));
    }
    Ok(sketches)
}

fn read_sketch(s: &mut Scanner<'_>) -> Result<P2State, String> {
    let (mut q, mut count) = (None, None);
    let [mut heights, mut positions, mut desired] = [None; 3];
    let mut buffer = None;
    s.object(|s, key| match &*key {
        "q" => put(&mut q, &key, s.f64()?),
        "count" => put(&mut count, &key, s.u64()?),
        "heights" => put(&mut heights, &key, read_markers(s, &key)?),
        "positions" => put(&mut positions, &key, read_markers(s, &key)?),
        "desired" => put(&mut desired, &key, read_markers(s, &key)?),
        "buffer" => put(&mut buffer, &key, read_up_to_five(s, &key)?),
        _ => s.skip_value(),
    })?;
    let (buffer, buffered) = required(buffer, "buffer")?;
    Ok(P2State {
        q: required(q, "q")?,
        count: required(count, "count")?,
        heights: required(heights, "heights")?,
        positions: required(positions, "positions")?,
        desired: required(desired, "desired")?,
        buffer,
        buffered,
    })
}

/// Reads one of a sketch's five-entry marker arrays.
fn read_markers(s: &mut Scanner<'_>, key: &str) -> Result<[f64; 5], String> {
    match read_up_to_five(s, key)? {
        (markers, 5) => Ok(markers),
        _ => Err(format!("`{key}` must have exactly 5 entries")),
    }
}

/// Reads an array of at most five numbers into an inline array, zeroed past
/// the entries read, and returns it with the entry count.  No sketch array
/// is longer: markers have five entries and a buffer at most four, so a
/// sixth entry is an error.
fn read_up_to_five(s: &mut Scanner<'_>, key: &str) -> Result<([f64; 5], usize), String> {
    let mut values = [0.0; 5];
    let mut len = 0;
    s.array(|s| {
        let slot = values
            .get_mut(len)
            .ok_or_else(|| format!("`{key}` has more than 5 entries"))?;
        *slot = s.f64()?;
        len += 1;
        Ok(())
    })?;
    Ok((values, len))
}

/// A completed sweep cell: its address, spec echo, and per-metric aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's content address ([`crate::ScenarioSpec::hash_hex`]).
    pub hash: String,
    /// The cell's seed point (also its position in the grid).
    pub point: u64,
    /// Trials aggregated into this record.
    pub trials: u32,
    /// Aggregates keyed by metric name (sorted — canonical order).
    pub metrics: BTreeMap<String, MetricAggregate>,
}

impl CellRecord {
    /// Builds a record by folding per-trial metric lists in trial order.
    ///
    /// Every trial must report the same metric names; the fold is sequential
    /// so the result is deterministic.
    #[must_use]
    pub fn from_trials(
        hash: String,
        point: u64,
        trial_metrics: &[Vec<(&'static str, f64)>],
    ) -> Self {
        let mut metrics: BTreeMap<String, MetricAggregate> = BTreeMap::new();
        for trial in trial_metrics {
            for (name, value) in trial {
                metrics
                    .entry((*name).to_string())
                    .or_default()
                    .observe(*value);
            }
        }
        Self {
            hash,
            point,
            trials: u32::try_from(trial_metrics.len()).expect("trials fit in u32"),
            metrics,
        }
    }

    /// One shard-store JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Appends the record's shard-store line (no trailing newline) to `out`:
    /// `{"cell":…,"point":…,"trials":…,"metrics":{name: aggregate, …}}`, the
    /// metrics in name order.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"cell\":");
        write_str(out, &self.hash);
        out.push_str(",\"point\":");
        write_u64(out, self.point);
        out.push_str(",\"trials\":");
        write_u64(out, u64::from(self.trials));
        out.push_str(",\"metrics\":{");
        for (i, (name, aggregate)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, name);
            out.push(':');
            aggregate.write_json(out);
        }
        out.push_str("}}");
    }

    /// Parses one shard-store line.
    ///
    /// Keys may come in any order and unknown keys are skipped; a missing
    /// field, a duplicated key or metric, or an inconsistent sketch is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Store`] on malformed JSON or schema drift.
    pub fn from_json_line(line: &str) -> Result<Self, SweepError> {
        let mut scanner = Scanner::new(line);
        scanner.skip_ws();
        Self::read_json(&mut scanner)
            .and_then(|record| scanner.finish().map(|()| record))
            .map_err(SweepError::Store)
    }

    /// Reads one record object at the scanner's position (a shard line, or
    /// a cell of a JSON export).
    pub(crate) fn read_json(s: &mut Scanner<'_>) -> Result<Self, String> {
        let (mut hash, mut point, mut trials, mut metrics) = (None, None, None, None);
        s.object(|s, key| match &*key {
            "cell" => put(&mut hash, &key, s.string()?.into_owned()),
            "point" => put(&mut point, &key, s.u64()?),
            "trials" => put(&mut trials, &key, s.u64()?),
            "metrics" => put(&mut metrics, &key, read_metrics(s)?),
            _ => s.skip_value(),
        })?;
        Ok(Self {
            hash: required(hash, "cell")?,
            point: required(point, "point")?,
            trials: u32::try_from(required(trials, "trials")?)
                .map_err(|_| "`trials` does not fit in u32".to_string())?,
            metrics: required(metrics, "metrics")?,
        })
    }
}

fn read_metrics(s: &mut Scanner<'_>) -> Result<BTreeMap<String, MetricAggregate>, String> {
    let mut metrics = BTreeMap::new();
    s.object(|s, name| {
        let aggregate = MetricAggregate::read_json(s)?;
        match metrics.entry(name.into_owned()) {
            Entry::Occupied(entry) => Err(format!("duplicate metric `{}`", entry.key())),
            Entry::Vacant(entry) => {
                entry.insert(aggregate);
                Ok(())
            }
        }
    })?;
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_record() -> CellRecord {
        let trials: Vec<Vec<(&'static str, f64)>> = (0..40)
            .map(|t| {
                vec![
                    ("rounds", f64::from(t % 7) + 10.0),
                    ("fraction_correct", 1.0 - f64::from(t) / 100.0),
                    ("all_correct", f64::from(u32::from(t % 3 == 0))),
                ]
            })
            .collect();
        CellRecord::from_trials("00ff00ff00ff00ff".into(), 42, &trials)
    }

    #[test]
    fn fold_matches_batch_statistics() {
        let record = demo_record();
        assert_eq!(record.trials, 40);
        let rounds = &record.metrics["rounds"];
        assert_eq!(rounds.moments.count, 40);
        assert_eq!(rounds.moments.min, 10.0);
        assert_eq!(rounds.moments.max, 16.0);
        let values: Vec<f64> = (0..40).map(|t| f64::from(t % 7) + 10.0).collect();
        assert_eq!(rounds.moments.mean(), analysis::mean(&values));
        // The success-rate metric folds to successes/trials exactly.
        let successes = (0..40).filter(|t| t % 3 == 0).count() as f64;
        assert_eq!(record.metrics["all_correct"].moments.sum, successes);
    }

    #[test]
    fn record_round_trips_byte_identically() {
        let record = demo_record();
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = CellRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed, record);
        // Serializing the parsed record reproduces the original bytes — the
        // property resumable exports depend on.
        assert_eq!(parsed.to_json_line(), line);
    }

    /// Writes an aggregate and reads it back with the record codec's
    /// aggregate reader.
    fn through_json(aggregate: &MetricAggregate) -> MetricAggregate {
        let mut text = String::new();
        aggregate.write_json(&mut text);
        let mut scanner = Scanner::new(&text);
        let back = MetricAggregate::read_json(&mut scanner).unwrap();
        scanner.finish().unwrap();
        back
    }

    #[test]
    fn aggregate_round_trips_mid_stream_and_continues_identically() {
        let mut original = MetricAggregate::new();
        for i in 0..23 {
            original.observe(f64::from(i * i % 17));
        }
        let mut restored = through_json(&original);
        assert_eq!(restored, original);
        for i in 0..50 {
            original.observe(f64::from(i));
            restored.observe(f64::from(i));
        }
        assert_eq!(restored, original);
        // Small-count aggregates (buffer still in play) also round-trip.
        let mut young = MetricAggregate::new();
        young.observe(3.5);
        young.observe(-1.0);
        let back = through_json(&young);
        assert_eq!(back, young);
    }

    #[test]
    fn small_sample_and_duplicate_aggregates_serialize_exactly() {
        // A cell with fewer than five trials keeps raw observations in the
        // P² buffers; its serialized form must restore to the *identical*
        // aggregate (bit-exact floats via the shortest-round-trip JSON) and
        // re-serialize to the identical line.
        for trials in 1..5usize {
            let rows: Vec<Vec<(&'static str, f64)>> = (0..trials)
                .map(|t| vec![("rounds", 0.1 * t as f64 + 7.0), ("flat", -3.25)])
                .collect();
            let record = CellRecord::from_trials("feed".into(), 1, &rows);
            let line = record.to_json_line();
            let parsed = CellRecord::from_json_line(&line).unwrap();
            assert_eq!(parsed, record, "{trials} trials");
            assert_eq!(parsed.to_json_line(), line, "{trials} trials");
            // Pre-initialisation estimates are the exact interpolation of
            // the buffered values.
            let flat = &parsed.metrics["flat"];
            for q in 0..3 {
                assert_eq!(flat.quantile(q), -3.25);
            }
        }

        // All-duplicate inputs past the P² initialisation point: markers
        // collapse onto the constant and the state still round-trips
        // byte-identically.
        let rows: Vec<Vec<(&'static str, f64)>> = (0..40).map(|_| vec![("c", 42.5)]).collect();
        let record = CellRecord::from_trials("dupe".into(), 2, &rows);
        let line = record.to_json_line();
        let parsed = CellRecord::from_json_line(&line).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(parsed.to_json_line(), line);
        let c = &parsed.metrics["c"];
        assert_eq!(c.moments.min, 42.5);
        assert_eq!(c.moments.max, 42.5);
        assert_eq!(c.moments.mean(), 42.5);
        for q in 0..3 {
            assert_eq!(c.quantile(q), 42.5, "constant stream quantile {q}");
        }
    }

    #[test]
    fn quantile_estimates_are_exposed() {
        let mut agg = MetricAggregate::new();
        for i in 0..=100 {
            agg.observe(f64::from(i));
        }
        assert!((agg.quantile(1) - 50.0).abs() < 6.0, "median ≈ 50");
        assert!(agg.quantile(0) < agg.quantile(1));
        assert!(agg.quantile(1) < agg.quantile(2));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(CellRecord::from_json_line("").is_err());
        assert!(CellRecord::from_json_line("{\"cell\":\"x\"}").is_err());
        assert!(CellRecord::from_json_line("{\"point\":1}").is_err());
        // A truncated (torn) line is a parse error, not a panic.
        let line = demo_record().to_json_line();
        assert!(CellRecord::from_json_line(&line[..line.len() / 2]).is_err());
        // So is anything after the record, and a record nested too deep.
        assert!(CellRecord::from_json_line(&format!("{line} x")).is_err());
        assert!(CellRecord::from_json_line(&"[".repeat(1_000_000)).is_err());
        let deep = format!("{{\"cell\":\"x\",\"extra\":{}", "[".repeat(1_000_000));
        assert!(CellRecord::from_json_line(&deep).is_err());
        // A marker array holds exactly five entries.
        let at = line.find("\"heights\":[").unwrap() + "\"heights\":[".len();
        let end = at + line[at..].find(']').unwrap();
        let four = line[at..end].rsplit_once(',').unwrap().0;
        let short = format!("{}{four}{}", &line[..at], &line[end..]);
        assert!(CellRecord::from_json_line(&short).is_err());
        let long = format!("{},1.0{}", &line[..end], &line[end..]);
        assert!(CellRecord::from_json_line(&long).is_err());
    }
}
