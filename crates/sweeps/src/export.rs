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

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::aggregate::CellRecord;
use crate::error::SweepError;
use crate::json::{put, required, write_str, Json, Scanner};
use crate::spec::{ScenarioSpec, SweepSpec};

/// Pairs every grid cell with its persisted record, in grid order.
///
/// Returns the pairs plus the number of missing cells (0 means complete);
/// callers decide whether partial is acceptable.
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
fn param_columns(cells: &[(ScenarioSpec, CellRecord)]) -> Vec<String> {
    let mut keys: Vec<String> = cells
        .iter()
        .flat_map(|(spec, _)| spec.params.keys().cloned())
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// The union of metric names across cells, sorted.
fn metric_columns(cells: &[(ScenarioSpec, CellRecord)]) -> Vec<String> {
    let mut names: Vec<String> = cells
        .iter()
        .flat_map(|(_, record)| record.metrics.keys().cloned())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Renders the summary CSV (see the module docs for the column layout).
/// Floats use the shortest round-trip form (`{:?}`), the byte-stable form.
#[must_use]
pub fn export_csv(cells: &[(ScenarioSpec, CellRecord)]) -> String {
    let params = param_columns(cells);
    let metrics = metric_columns(cells);
    let mut out = String::new();
    out.push_str("point,protocol,backend,trials,rounds");
    for key in &params {
        out.push(',');
        out.push_str(key);
    }
    for name in &metrics {
        for stat in ["mean", "std", "min", "max", "p10", "p50", "p90"] {
            out.push(',');
            out.push_str(name);
            out.push('_');
            out.push_str(stat);
        }
    }
    out.push('\n');
    for (spec, record) in cells {
        let _ = write!(
            out,
            "{},{},{},{},{}",
            record.point, spec.protocol, spec.backend, record.trials, spec.rounds
        );
        for key in &params {
            out.push(',');
            if let Some(v) = spec.params.get(key) {
                let _ = write!(out, "{v:?}");
            }
        }
        for name in &metrics {
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
                        let _ = write!(out, ",{v:?}");
                    }
                }
                None => out.push_str(",,,,,,,"),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the lossless JSON export: sweep identity plus every cell's full
/// aggregate state (spec echo included), as
/// `{"name":…,"sweep_hash":…,"cells":[{"spec":…,"record":…},…]}` where
/// `spec` is the cell's canonical JSON and `record` its shard-store line.
/// Both are written straight into the document.
#[must_use]
pub fn export_json(spec: &SweepSpec, cells: &[(ScenarioSpec, CellRecord)]) -> String {
    let mut out = String::new();
    out.push_str("{\"name\":");
    write_str(&mut out, &spec.name);
    out.push_str(",\"sweep_hash\":");
    write_str(&mut out, &spec.hash_hex());
    out.push_str(",\"cells\":[");
    for (i, (cell_spec, record)) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"spec\":");
        cell_spec.write_canonical_json(&mut out);
        out.push_str(",\"record\":");
        record.write_json(&mut out);
        out.push('}');
    }
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
