//! Deterministic CSV / JSON exports of a sweep's aggregates.
//!
//! Exports walk cells in **grid order** (the [`crate::SweepSpec::expand`]
//! order), never in completion or shard order, and format floats with Rust's
//! shortest round-trip form — so two stores holding the same records export
//! byte-identical documents no matter how the sweep was scheduled, killed or
//! resumed.
//!
//! * **CSV** — one row per cell: identity columns (`point`, `protocol`,
//!   `backend`, `trials`, `rounds`, then every parameter in sorted order)
//!   followed, for each metric in sorted order, by
//!   `mean`/`std`/`min`/`max`/`p10`/`p50`/`p90`.  A summary for people and
//!   spreadsheets; lossy (sketch internals are dropped).
//! * **JSON** — the full aggregate schema, including quantile-sketch state;
//!   [`parse_export_json`] round-trips it losslessly back into
//!   [`CellRecord`]s.
//!
//! # Formatting on lanes
//!
//! Both exports format on the lanes of the [`default_threads`] budget (the
//! `FLIP_THREADS` override or the machine width), the budget
//! [`SweepStore::load_cells`](crate::SweepStore::load_cells) loads on.  The
//! grid-ordered cells are cut into one contiguous chunk per lane; each
//! chunk is formatted into its own buffer on a scoped thread, the calling
//! thread formatting the first, and the buffers are joined in chunk order.
//! So the bytes are those of a one-lane export, whatever the lane count.
//! A budget of one, or a single cell, spawns no thread.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::aggregate::CellRecord;
use crate::error::SweepError;
use crate::json::{put, required, write_f64, write_str, Json, Scanner};
use crate::runner::{default_threads, on_lanes};
use crate::spec::{ScenarioSpec, SweepSpec};

/// Pairs every grid cell with its persisted record, in grid order.
///
/// Returns the pairs plus the number of missing cells (0 means complete);
/// callers decide whether partial is acceptable.  A paired record is a
/// clone that shares its metric table with the record in `records`, so
/// pairing copies no aggregate.
///
/// # Errors
///
/// Returns [`SweepError::Spec`] when the spec fails to expand.
pub fn ordered_cells(
    spec: &SweepSpec,
    records: &BTreeMap<String, CellRecord>,
) -> Result<(Vec<(ScenarioSpec, CellRecord)>, usize), SweepError> {
    let grid = spec.expand()?;
    let mut pairs = Vec::with_capacity(grid.len());
    let mut missing = 0usize;
    for cell in grid {
        match records.get(&cell.hash_hex()) {
            Some(record) => pairs.push((cell, record.clone())),
            None => missing += 1,
        }
    }
    Ok((pairs, missing))
}

/// The union of parameter keys across cells, sorted (CSV column stability).
fn param_columns(cells: &[(ScenarioSpec, CellRecord)]) -> BTreeSet<&str> {
    cells
        .iter()
        .flat_map(|(spec, _)| spec.params.keys().map(String::as_str))
        .collect()
}

/// The union of metric names across cells, sorted.
fn metric_columns(cells: &[(ScenarioSpec, CellRecord)]) -> BTreeSet<&str> {
    cells
        .iter()
        .flat_map(|(_, record)| record.metrics.keys().map(String::as_str))
        .collect()
}

/// Writes `cells` after `head`: one contiguous chunk of cells per lane of a
/// `threads` budget, each formatted into its own buffer by `write` (given
/// the cell's index in `cells`) on [`on_lanes`], the buffers joined in
/// chunk order.  Lane 0 writes into `head` itself.
fn write_on_lanes(
    head: String,
    cells: &[(ScenarioSpec, CellRecord)],
    threads: usize,
    write: impl Fn(&mut String, usize, &(ScenarioSpec, CellRecord)) + Sync,
) -> String {
    let chunk = cells.len().div_ceil(threads.max(1)).max(1);
    let mut shares: Vec<_> = cells
        .chunks(chunk)
        .enumerate()
        .map(|(lane, cells)| (String::new(), lane * chunk, cells))
        .collect();
    match shares.first_mut() {
        Some(first) => first.0 = head,
        None => return head,
    }
    let mut pieces = on_lanes(shares, |(mut out, first, cells)| {
        for (i, cell) in cells.iter().enumerate() {
            write(&mut out, first + i, cell);
        }
        out
    })
    .into_iter();
    let mut out = pieces.next().expect("one piece per share");
    out.reserve(pieces.as_slice().iter().map(String::len).sum());
    for piece in pieces {
        out.push_str(&piece);
    }
    out
}

/// Writes a CSV float as `{:?}`, the shortest round-trip form.  Finite
/// values go through [`write_f64`], which prints the same bytes and skips
/// the float formatter for integral ones; non-finite values, which JSON
/// writes as `null`, keep `{:?}` (`NaN`, `inf`).
fn write_csv_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        write_f64(out, value);
    } else {
        let _ = write!(out, "{value:?}");
    }
}

/// Renders the summary CSV (see the module docs for the column layout).
/// Floats use the shortest round-trip form (`{:?}`), the byte-stable form.
/// Rows are formatted on [`default_threads`] lanes.
#[must_use]
pub fn export_csv(cells: &[(ScenarioSpec, CellRecord)]) -> String {
    export_csv_on(cells, default_threads())
}

/// [`export_csv`] on a budget of `threads` lanes (one formats on the
/// calling thread).
pub(crate) fn export_csv_on(cells: &[(ScenarioSpec, CellRecord)], threads: usize) -> String {
    let params = param_columns(cells);
    let metrics = metric_columns(cells);
    let mut head = String::new();
    head.push_str("point,protocol,backend,trials,rounds");
    for key in &params {
        head.push(',');
        head.push_str(key);
    }
    for name in &metrics {
        for stat in ["mean", "std", "min", "max", "p10", "p50", "p90"] {
            head.push(',');
            head.push_str(name);
            head.push('_');
            head.push_str(stat);
        }
    }
    head.push('\n');
    write_on_lanes(head, cells, threads, |out, _, (spec, record)| {
        let _ = write!(
            out,
            "{},{},{},{},{}",
            record.point, spec.protocol, spec.backend, record.trials, spec.rounds
        );
        for &key in &params {
            out.push(',');
            if let Some(&v) = spec.params.get(key) {
                write_csv_f64(out, v);
            }
        }
        for &name in &metrics {
            match record.metrics.get(name) {
                Some(agg) => {
                    let m = &agg.moments;
                    for v in [
                        m.mean(),
                        m.std_dev(),
                        m.min,
                        m.max,
                        agg.quantile(0),
                        agg.quantile(1),
                        agg.quantile(2),
                    ] {
                        out.push(',');
                        write_csv_f64(out, v);
                    }
                }
                None => out.push_str(",,,,,,,"),
            }
        }
        out.push('\n');
    })
}

/// Renders the lossless JSON export: sweep identity plus every cell's full
/// aggregate state (spec echo included), as
/// `{"name":…,"sweep_hash":…,"cells":[{"spec":…,"record":…},…]}` where
/// `spec` is the cell's canonical JSON and `record` its shard-store line.
/// Both are written straight into the document, on [`default_threads`]
/// lanes.
#[must_use]
pub fn export_json(spec: &SweepSpec, cells: &[(ScenarioSpec, CellRecord)]) -> String {
    export_json_on(spec, cells, default_threads())
}

/// [`export_json`] on a budget of `threads` lanes (one formats on the
/// calling thread).
pub(crate) fn export_json_on(
    spec: &SweepSpec,
    cells: &[(ScenarioSpec, CellRecord)],
    threads: usize,
) -> String {
    let mut head = String::new();
    head.push_str("{\"name\":");
    write_str(&mut head, &spec.name);
    head.push_str(",\"sweep_hash\":");
    write_str(&mut head, &spec.hash_hex());
    head.push_str(",\"cells\":[");
    let mut out = write_on_lanes(head, cells, threads, |out, i, (cell_spec, record)| {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"spec\":");
        cell_spec.write_canonical_json(out);
        out.push_str(",\"record\":");
        record.write_json(out);
        out.push('}');
    });
    out.push_str("]}");
    out
}

/// Parses an [`export_json`] document back into `(spec, record)` pairs —
/// the lossless round trip the export tests pin down.  Records are read
/// with the shard-line codec in place; only each cell's small spec object
/// becomes a [`Json`] tree, for [`ScenarioSpec::from_json`].
///
/// # Errors
///
/// Returns [`SweepError::Store`] on malformed documents and
/// [`SweepError::Spec`] on an invalid cell spec.
pub fn parse_export_json(text: &str) -> Result<Vec<(ScenarioSpec, CellRecord)>, SweepError> {
    let mut scanner = Scanner::new(text);
    scanner.skip_ws();
    let mut cells = None;
    scanner
        .object(|s, key| match &*key {
            "cells" => {
                let mut list = Vec::new();
                s.array(|s| {
                    list.push(read_export_cell(s)?);
                    Ok(())
                })?;
                put(&mut cells, &key, list)
            }
            _ => s.skip_value(),
        })
        .and_then(|()| scanner.finish())
        .and_then(|()| required(cells, "cells"))
        .map_err(SweepError::Store)?
        .into_iter()
        .map(|(spec, record)| Ok((ScenarioSpec::from_json(&spec)?, record)))
        .collect()
}

/// One `{"spec":…,"record":…}` cell of a JSON export.
fn read_export_cell(s: &mut Scanner<'_>) -> Result<(Json, CellRecord), String> {
    let (mut spec, mut record) = (None, None);
    s.object(|s, key| match &*key {
        "spec" => put(&mut spec, &key, s.value()?),
        "record" => put(&mut record, &key, CellRecord::read_json(s)?),
        _ => s.skip_value(),
    })?;
    Ok((required(spec, "spec")?, required(record, "record")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ProtocolRegistry;
    use crate::spec::Axis;
    use crate::SweepRunner;
    use flip_model::Backend;

    fn run_demo() -> (SweepSpec, Vec<(ScenarioSpec, CellRecord)>) {
        let spec = SweepSpec {
            name: "export-demo".into(),
            protocol: "rumor".into(),
            backend: Backend::Agents,
            trials: 3,
            base_seed: 9,
            point_base: 0,
            rounds: 120,
            faults: String::new(),
            defaults: BTreeMap::from([
                ("epsilon".to_string(), 0.25),
                ("informed".to_string(), 4.0),
            ]),
            axes: vec![Axis {
                key: "n".into(),
                values: vec![60.0, 90.0],
            }],
        };
        let outcome = SweepRunner::new()
            .with_threads(2)
            .run(&spec, &ProtocolRegistry::builtin(), None)
            .unwrap();
        let records: BTreeMap<String, CellRecord> = outcome
            .cells
            .into_iter()
            .map(|r| (r.hash.clone(), r))
            .collect();
        let (pairs, missing) = ordered_cells(&spec, &records).unwrap();
        assert_eq!(missing, 0);
        (spec, pairs)
    }

    #[test]
    fn csv_has_one_row_per_cell_with_stable_columns() {
        let (_, pairs) = run_demo();
        let csv = export_csv(&pairs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 cells");
        let header = lines[0];
        assert!(header.starts_with("point,protocol,backend,trials,rounds,epsilon,informed,n"));
        assert!(header.contains("rounds_mean"));
        assert!(header.contains("fraction_correct_p50"));
        let columns = header.split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        }
        assert!(lines[1].starts_with("0,rumor,agents,3,120,0.25,4.0,60.0"));
    }

    #[test]
    fn json_export_round_trips_losslessly() {
        let (spec, pairs) = run_demo();
        let exported = export_json(&spec, &pairs);
        let parsed = parse_export_json(&exported).unwrap();
        assert_eq!(parsed, pairs);
        // Re-export of the parsed document is byte-identical.
        assert_eq!(export_json(&spec, &parsed), exported);
    }

    #[test]
    fn missing_cells_are_counted_not_invented() {
        let (spec, pairs) = run_demo();
        let mut records: BTreeMap<String, CellRecord> = pairs
            .iter()
            .map(|(_, r)| (r.hash.clone(), r.clone()))
            .collect();
        records.remove(&pairs[0].1.hash);
        let (partial, missing) = ordered_cells(&spec, &records).unwrap();
        assert_eq!(partial.len(), 1);
        assert_eq!(missing, 1);
    }

    #[test]
    fn paired_records_share_their_tables_with_the_loaded_ones() {
        let (spec, pairs) = run_demo();
        let records: BTreeMap<String, CellRecord> = pairs
            .into_iter()
            .map(|(_, r)| (r.hash.clone(), r))
            .collect();
        let (paired, missing) = ordered_cells(&spec, &records).unwrap();
        assert_eq!((paired.len(), missing), (2, 0));
        for (_, record) in &paired {
            let loaded = &records[&record.hash];
            assert_eq!(record, loaded);
            assert!(std::sync::Arc::ptr_eq(&record.metrics.0, &loaded.metrics.0));
        }
    }

    /// The first `count` cells of a sweep over `n`, with records of one to
    /// six trials that mix integral, fractional, huge and non-finite values
    /// and leave a metric out of every third cell (an empty CSV run).
    fn synthetic_cells(count: usize) -> (SweepSpec, Vec<(ScenarioSpec, CellRecord)>) {
        let spec = SweepSpec {
            name: "lanes".into(),
            protocol: "rumor".into(),
            backend: Backend::Agents,
            trials: 3,
            base_seed: 5,
            point_base: 0,
            rounds: 50,
            faults: String::new(),
            defaults: BTreeMap::from([("epsilon".to_string(), 0.25)]),
            axes: vec![Axis {
                key: "n".into(),
                values: (0..count.max(1)).map(|i| 10.0 + i as f64).collect(),
            }],
        };
        let values = [0.1, 3.0, -0.0, 1e17, 2.5e-9, f64::INFINITY, f64::NAN];
        let pairs = spec
            .expand()
            .unwrap()
            .into_iter()
            .take(count)
            .enumerate()
            .map(|(i, cell)| {
                let trials: Vec<Vec<(&'static str, f64)>> = (0..=i % 6)
                    .map(|t| {
                        let mut metrics = vec![("rounds", (i * 7 + t) as f64)];
                        if i % 3 != 0 {
                            metrics.push(("x", values[(i + t) % values.len()]));
                        }
                        metrics
                    })
                    .collect();
                let record = CellRecord::from_trials(cell.hash_hex(), i as u64, &trials);
                (cell, record)
            })
            .collect();
        (spec, pairs)
    }

    #[test]
    fn exports_write_the_same_bytes_on_every_lane_count() {
        for count in [0, 1, 2, 37] {
            let (spec, pairs) = synthetic_cells(count);
            let csv = export_csv_on(&pairs, 1);
            let json = export_json_on(&spec, &pairs, 1);
            assert_eq!(csv.lines().count(), count + 1, "{count} cells");
            for lanes in [2, 3, 8] {
                assert_eq!(
                    export_csv_on(&pairs, lanes),
                    csv,
                    "{count} cells, {lanes} lanes"
                );
                assert_eq!(
                    export_json_on(&spec, &pairs, lanes),
                    json,
                    "{count} cells, {lanes} lanes"
                );
            }
            assert_eq!(export_csv(&pairs), csv);
            assert_eq!(export_json(&spec, &pairs), json);
        }
    }

    #[test]
    fn csv_floats_print_as_debug() {
        for v in [
            0.0,
            -0.0,
            3.0,
            -7.0,
            0.1,
            1e15,
            9_999_999_999_999_998.0,
            1e16,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut out = String::new();
            write_csv_f64(&mut out, v);
            assert_eq!(out, format!("{v:?}"));
        }
    }

    #[test]
    fn malformed_exports_fail_loudly() {
        assert!(parse_export_json("{}").is_err());
        assert!(parse_export_json("{\"cells\":[{}]}").is_err());
        assert!(parse_export_json("nope").is_err());
        let (spec, pairs) = run_demo();
        let exported = export_json(&spec, &pairs);
        assert!(parse_export_json(&format!("{exported} x")).is_err());
        let mut duplicated = exported.clone();
        duplicated.insert_str(1, "\"cells\":[],");
        assert!(parse_export_json(&duplicated).is_err());
    }
}
