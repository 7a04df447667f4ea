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
//!
//! # One shared table per record
//!
//! A record's aggregates live in a [`MetricTable`]: one immutable slice,
//! sorted by name, behind an [`Arc`].  A record is built once (folded from
//! its trials or decoded from its line) and then only read, so cloning it —
//! as [`crate::ordered_cells`] does to pair it with its grid cell — shares
//! the table instead of copying three ~700-byte aggregates.
//!
//! # Reading in write order
//!
//! The record, aggregate and sketch readers take their members in the order
//! the writers emit them (`RECORD_KEYS`, `AGGREGATE_KEYS`, `SKETCH_KEYS`),
//! matching each key in place with no string read or lookup; the metric
//! names arrive sorted and are appended.  At the first member out of place
//! they fall back to a keyed read of the rest: each key read and looked up,
//! the metric names collected in a `BTreeMap`.  Both paths fill the same
//! slots through the same checks (`put` for a repeated key, `required` for
//! a missing one, a repeated metric name, [`P2Quantile::restore`] and the
//! sketch order), so a line in any key order reads as it always did, and a
//! malformed one fails with the same message.  A test keeps a copy of the
//! keyed readers they replaced and compares the two on every input the
//! codec tests generate.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use analysis::streaming::{P2Quantile, P2State, StreamingEstimator, StreamingMoments};

use crate::error::SweepError;
use crate::json::{put, required, write_f64, write_str, write_u64, Scanner};

/// The quantiles every metric tracks.
pub const TRACKED_QUANTILES: [f64; 3] = [0.1, 0.5, 0.9];

/// The members of a serialized aggregate, in write order.
const AGGREGATE_KEYS: [&str; 7] = [
    "count",
    "sum",
    "welford_mean",
    "m2",
    "min",
    "max",
    "quantiles",
];

/// The members of a serialized sketch, in write order.
const SKETCH_KEYS: [&str; 6] = ["q", "count", "heights", "positions", "desired", "buffer"];

/// The members of a serialized record, in write order.
const RECORD_KEYS: [&str; 4] = ["cell", "point", "trials", "metrics"];

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
    /// then the three sketches in [`TRACKED_QUANTILES`] order (the members
    /// of `AGGREGATE_KEYS`, in its order).
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
        // sum, welford_mean, m2, min, max: fields 1 to 5.
        let mut moments = [None; 5];
        s.fields(&AGGREGATE_KEYS, |s, field| match field {
            0 => put(&mut count, AGGREGATE_KEYS[0], s.u64()?),
            1..=5 => put(&mut moments[field - 1], AGGREGATE_KEYS[field], s.f64()?),
            6 => put(&mut quantiles, AGGREGATE_KEYS[6], read_sketches(s)?),
            _ => s.skip_value(),
        })?;
        let [sum, welford_mean, m2, min, max] = moments;
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

/// Writes a sketch's state: the members of `SKETCH_KEYS`, in its order.
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
    // heights, positions, desired: fields 2 to 4.
    let mut markers = [None; 3];
    let mut buffer = None;
    s.fields(&SKETCH_KEYS, |s, field| match field {
        0 => put(&mut q, SKETCH_KEYS[0], s.f64()?),
        1 => put(&mut count, SKETCH_KEYS[1], s.u64()?),
        2..=4 => {
            let key = SKETCH_KEYS[field];
            put(&mut markers[field - 2], key, read_markers(s, key)?)
        }
        5 => put(
            &mut buffer,
            SKETCH_KEYS[5],
            read_up_to_five(s, SKETCH_KEYS[5])?,
        ),
        _ => s.skip_value(),
    })?;
    let [heights, positions, desired] = markers;
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

/// A record's aggregates keyed by metric name: an immutable table sorted by
/// name, shared by every clone (see the module docs).
///
/// It reads like the `BTreeMap<String, MetricAggregate>` it replaced:
/// lookups by name (`get`, `contains_key`, `table["rounds"]`), iteration in
/// name order, and the same `==` and `Debug` output.  Collecting
/// `(name, aggregate)` pairs into one keeps, as the map did, the last
/// aggregate of a name given twice.
#[derive(Clone)]
pub struct MetricTable(pub(crate) Arc<[(String, MetricAggregate)]>);

impl MetricTable {
    /// The aggregate of metric `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricAggregate> {
        self.0
            .binary_search_by(|(key, _)| key.as_str().cmp(name))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// Whether the table holds metric `name`.
    #[must_use]
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// `(name, aggregate)` pairs in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&String, &MetricAggregate)> {
        self.0.iter().map(|(name, aggregate)| (name, aggregate))
    }

    /// The metric names, in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &String> {
        self.0.iter().map(|(name, _)| name)
    }
}

impl Index<&str> for MetricTable {
    type Output = MetricAggregate;

    /// The aggregate of metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when the table has no metric `name`.
    fn index(&self, name: &str) -> &MetricAggregate {
        self.get(name).expect("no entry found for key")
    }
}

impl PartialEq for MetricTable {
    fn eq(&self, other: &Self) -> bool {
        self.0[..] == other.0[..]
    }
}

impl fmt::Debug for MetricTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(String, MetricAggregate)> for MetricTable {
    fn from_iter<I: IntoIterator<Item = (String, MetricAggregate)>>(pairs: I) -> Self {
        let by_name: BTreeMap<_, _> = pairs.into_iter().collect();
        Self(by_name.into_iter().collect())
    }
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
    pub metrics: MetricTable,
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
        let mut folded: Vec<(&str, MetricAggregate)> = Vec::new();
        for trial in trial_metrics {
            for &(name, value) in trial {
                let slot = match folded.iter().position(|(known, _)| *known == name) {
                    Some(slot) => slot,
                    None => {
                        folded.push((name, MetricAggregate::new()));
                        folded.len() - 1
                    }
                };
                folded[slot].1.observe(value);
            }
        }
        folded.sort_unstable_by(|a, b| a.0.cmp(b.0));
        Self {
            hash,
            point,
            trials: u32::try_from(trial_metrics.len()).expect("trials fit in u32"),
            metrics: MetricTable(
                folded
                    .into_iter()
                    .map(|(name, aggregate)| (name.to_string(), aggregate))
                    .collect(),
            ),
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
    /// metrics in name order (the members of `RECORD_KEYS`, in its order).
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
        s.fields(&RECORD_KEYS, |s, field| match field {
            0 => put(&mut hash, RECORD_KEYS[0], s.string()?.into_owned()),
            1 => put(&mut point, RECORD_KEYS[1], s.u64()?),
            2 => put(&mut trials, RECORD_KEYS[2], s.u64()?),
            3 => put(&mut metrics, RECORD_KEYS[3], read_metrics(s)?),
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

/// Reads the metrics object into a table.  While the names come sorted
/// (the writer's order) each is appended; from the first one out of order
/// on, every name goes into a map, which becomes the table at the end.
fn read_metrics(s: &mut Scanner<'_>) -> Result<MetricTable, String> {
    let mut sorted: Vec<(String, MetricAggregate)> = Vec::new();
    let mut unsorted: Option<BTreeMap<String, MetricAggregate>> = None;
    s.object(|s, name| {
        let aggregate = MetricAggregate::read_json(s)?;
        if unsorted.is_none() && sorted.last().is_none_or(|(last, _)| **last < *name) {
            sorted.push((name.into_owned(), aggregate));
            return Ok(());
        }
        let map = unsorted.get_or_insert_with(|| sorted.drain(..).collect());
        match map.entry(name.into_owned()) {
            Entry::Occupied(entry) => Err(format!("duplicate metric `{}`", entry.key())),
            Entry::Vacant(entry) => {
                entry.insert(aggregate);
                Ok(())
            }
        }
    })?;
    Ok(MetricTable(match unsorted {
        Some(map) => map.into_iter().collect(),
        None => sorted.into(),
    }))
}

#[cfg(test)]
mod keyed_reference;

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

    /// Random metric sets: `broadcast-detailed`'s level-indexed names, a
    /// name repeated, and an aggregate fed `values` observations.
    fn random_metrics(rng: &mut rand::rngs::StdRng) -> Vec<(String, MetricAggregate)> {
        use rand::Rng;
        (0..rng.gen_range(0..14usize))
            .map(|_| {
                let name = match rng.gen_range(0..4u32) {
                    0 => format!("level_cum_{}", rng.gen_range(0..12u32)),
                    1 => format!("level_bias_{}", rng.gen_range(0..12u32)),
                    2 => format!("phase_frac_{}", rng.gen_range(0..3u32)),
                    _ => ["rounds", "all_correct", "Rounds", "", "é"][rng.gen_range(0..5usize)]
                        .to_string(),
                };
                let mut aggregate = MetricAggregate::new();
                for _ in 0..rng.gen_range(0..7u32) {
                    aggregate.observe(f64::from(rng.gen_range(-5..50i32)) / 4.0);
                }
                (name, aggregate)
            })
            .collect()
    }

    #[test]
    fn metric_table_reads_like_the_map_it_replaced() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let pairs = random_metrics(&mut rng);
            let map: BTreeMap<String, MetricAggregate> = pairs.iter().cloned().collect();
            let table: MetricTable = pairs.iter().cloned().collect();
            assert_eq!(format!("{table:?}"), format!("{map:?}"));
            assert!(table.keys().eq(map.keys()));
            assert!(table.iter().eq(map.iter()));
            for name in [
                "rounds",
                "level_cum_1",
                "level_cum_10",
                "level_bias_11",
                "missing",
                "",
            ] {
                assert_eq!(table.get(name), map.get(name), "{name}");
                assert_eq!(table.contains_key(name), map.contains_key(name), "{name}");
            }
            for (name, aggregate) in &map {
                assert_eq!(&table[name.as_str()], aggregate);
            }
            // Equality follows the maps', clone or not.
            let other = random_metrics(&mut rng);
            let other_map: BTreeMap<String, MetricAggregate> = other.iter().cloned().collect();
            let other_table: MetricTable = other.into_iter().collect();
            assert_eq!(table == other_table, map == other_map);
            assert_eq!(table.clone(), table);
        }
    }

    /// The fold `from_trials` ran before its table: a map entry per name,
    /// observed in trial order.
    fn map_fold(trials: &[Vec<(&'static str, f64)>]) -> BTreeMap<String, MetricAggregate> {
        let mut metrics: BTreeMap<String, MetricAggregate> = BTreeMap::new();
        for trial in trials {
            for (name, value) in trial {
                metrics
                    .entry((*name).to_string())
                    .or_default()
                    .observe(*value);
            }
        }
        metrics
    }

    #[test]
    fn from_trials_builds_the_table_the_map_fold_built() {
        use rand::{Rng, SeedableRng};
        const NAMES: [&str; 6] = [
            "rounds",
            "level_cum_0",
            "level_cum_10",
            "level_cum_2",
            "b",
            "a",
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..500 {
            // Trials that list their metrics in one order, in shuffled
            // orders, with a name missing or repeated.
            let base: Vec<&'static str> = NAMES[..rng.gen_range(0..=NAMES.len())].to_vec();
            let trials: Vec<Vec<(&'static str, f64)>> = (0..rng.gen_range(0..9usize))
                .map(|_| {
                    let mut names = base.clone();
                    match rng.gen_range(0..4u32) {
                        0 => names.reverse(),
                        1 if !names.is_empty() => {
                            names.remove(rng.gen_range(0..names.len()));
                        }
                        2 => names.push(NAMES[rng.gen_range(0..NAMES.len())]),
                        _ => {}
                    }
                    names
                        .into_iter()
                        .map(|name| (name, f64::from(rng.gen_range(0..100u32)) / 8.0))
                        .collect()
                })
                .collect();
            let record = CellRecord::from_trials("feed".into(), 3, &trials);
            let expected: MetricTable = map_fold(&trials).into_iter().collect();
            assert_eq!(record.metrics, expected);
            assert_eq!(format!("{:?}", record.metrics), format!("{expected:?}"));
        }
    }

    #[test]
    fn written_members_come_in_the_in_order_readers_key_order() {
        let line = demo_record().to_json_line();
        let keys = |value: &crate::json::Json| match value {
            crate::json::Json::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("an object, not {other}"),
        };
        let record = crate::json::parse(&line).unwrap();
        assert_eq!(keys(&record), RECORD_KEYS);
        let metrics = record.get("metrics").unwrap();
        let names: Vec<String> = keys(metrics);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for name in &names {
            let aggregate = metrics.get(name).unwrap();
            assert_eq!(keys(aggregate), AGGREGATE_KEYS);
            for sketch in aggregate.get("quantiles").unwrap().as_array().unwrap() {
                assert_eq!(keys(sketch), SKETCH_KEYS);
            }
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
