//! The keyed readers the in-order readers replaced, kept as a test oracle:
//! every member's key is read as a string and matched, and the metrics are
//! collected into a `BTreeMap`.  On the inputs the codec property tests
//! generate (records respelled, reordered, with a member duplicated, torn
//! or bit-flipped), on every line of both store fixtures and on a record
//! whose metric names come in descending order, the in-order readers must
//! return the same record or fail with the same message.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use analysis::streaming::{P2Quantile, P2State, StreamingMoments};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{read_markers, read_up_to_five, CellRecord, MetricAggregate, TRACKED_QUANTILES};
use crate::error::SweepError;
use crate::json::{parse, put, required, Json, Scanner};

/// The generators of `tests/codec_properties.rs`.
#[path = "../../tests/codec_inputs/mod.rs"]
mod codec_inputs;

use codec_inputs::{count_objects, duplicate_member, flip_bit, record, respell, torn};

fn keyed_line(line: &str) -> Result<CellRecord, String> {
    let mut scanner = Scanner::new(line);
    scanner.skip_ws();
    let record = keyed_record(&mut scanner)?;
    scanner.finish()?;
    Ok(record)
}

fn keyed_record(s: &mut Scanner<'_>) -> Result<CellRecord, String> {
    let (mut hash, mut point, mut trials, mut metrics) = (None, None, None, None);
    s.object(|s, key| match &*key {
        "cell" => put(&mut hash, &key, s.string()?.into_owned()),
        "point" => put(&mut point, &key, s.u64()?),
        "trials" => put(&mut trials, &key, s.u64()?),
        "metrics" => put(&mut metrics, &key, keyed_metrics(s)?),
        _ => s.skip_value(),
    })?;
    Ok(CellRecord {
        hash: required(hash, "cell")?,
        point: required(point, "point")?,
        trials: u32::try_from(required(trials, "trials")?)
            .map_err(|_| "`trials` does not fit in u32".to_string())?,
        metrics: required(metrics, "metrics")?.into_iter().collect(),
    })
}

fn keyed_metrics(s: &mut Scanner<'_>) -> Result<BTreeMap<String, MetricAggregate>, String> {
    let mut metrics = BTreeMap::new();
    s.object(|s, name| {
        let aggregate = keyed_aggregate(s)?;
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

fn keyed_aggregate(s: &mut Scanner<'_>) -> Result<MetricAggregate, String> {
    let (mut count, mut quantiles) = (None, None);
    let [mut sum, mut welford_mean, mut m2, mut min, mut max] = [None; 5];
    s.object(|s, key| match &*key {
        "count" => put(&mut count, &key, s.u64()?),
        "sum" => put(&mut sum, &key, s.f64()?),
        "welford_mean" => put(&mut welford_mean, &key, s.f64()?),
        "m2" => put(&mut m2, &key, s.f64()?),
        "min" => put(&mut min, &key, s.f64()?),
        "max" => put(&mut max, &key, s.f64()?),
        "quantiles" => put(&mut quantiles, &key, keyed_sketches(s)?),
        _ => s.skip_value(),
    })?;
    Ok(MetricAggregate {
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

fn keyed_sketches(s: &mut Scanner<'_>) -> Result<[P2Quantile; 3], String> {
    let mut sketches = MetricAggregate::new().quantiles;
    let mut found = 0;
    s.array(|s| {
        let slot = sketches
            .get_mut(found)
            .ok_or_else(|| format!("more than {} quantile sketches", TRACKED_QUANTILES.len()))?;
        let expected_q = TRACKED_QUANTILES[found];
        let state = keyed_sketch(s)?;
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

fn keyed_sketch(s: &mut Scanner<'_>) -> Result<P2State, String> {
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

/// The in-order readers' result, an error as its message.
fn in_order(text: &str) -> Result<CellRecord, String> {
    CellRecord::from_json_line(text).map_err(|err| match err {
        SweepError::Store(message) => message,
        other => panic!("a record line fails with a store error, got {other}"),
    })
}

/// Both readers give the same record (to the bit, via `Debug`) or the same
/// message.
fn assert_same(text: &str) {
    let (new, old) = (in_order(text), keyed_line(text));
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{text}");
}

#[test]
fn in_order_readers_match_the_keyed_readers() {
    let mut rng = StdRng::seed_from_u64(22);
    for seed in 0..400 {
        let line = record(seed, rng.gen_range(1..8)).to_json_line();
        let tree = parse(&line).expect("a written line parses");
        let mut respelled = String::new();
        respell(&tree, &mut rng, &mut respelled);
        // The members reordered alone: the respelling written compactly.
        let reordered = parse(&respelled).expect("a respelling parses").to_string();
        let mut duplicated = tree.clone();
        let mut target = rng.gen_range(0..count_objects(&tree));
        assert!(duplicate_member(&mut duplicated, &mut target, &mut rng));
        let duplicated = duplicated.to_string();
        assert!(keyed_line(&duplicated).is_err(), "{duplicated}");
        let mut inputs = vec![line.clone(), respelled, reordered, duplicated];
        for _ in 0..3 {
            inputs.push(torn(&line, &mut rng));
            inputs.push(flip_bit(&line, &mut rng));
        }
        for text in &inputs {
            assert_same(text);
        }
    }

    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut lines = 0;
    for fixture in ["dense-t3", "dense-t6"] {
        let shards =
            fs::read_dir(fixtures.join(fixture).join("shards")).expect("fixture has shards");
        for entry in shards {
            let content =
                fs::read_to_string(entry.expect("readable entry").path()).expect("shard reads");
            for line in content.lines() {
                assert!(in_order(line).is_ok(), "{line}");
                assert_same(line);
                for _ in 0..8 {
                    assert_same(&torn(line, &mut rng));
                    assert_same(&flip_bit(line, &mut rng));
                }
                lines += 1;
            }
        }
    }
    assert_eq!(lines, 12, "both fixtures, six cells each");
}

/// Metric names in descending order leave the in-order path at the second
/// name; the rest go through the fallback, which must read them as the
/// keyed reader does, a repeated name included.
#[test]
fn descending_metric_names_read_like_the_keyed_readers() {
    const NAMES: usize = 4_000;
    let mut aggregate = MetricAggregate::new();
    for x in [3.0, 1.5, 4.0] {
        aggregate.observe(x);
    }
    let mut member = String::new();
    aggregate.write_json(&mut member);
    let line = |names: &[usize]| {
        let metrics: Vec<String> = names
            .iter()
            .map(|i| format!("\"level_cum_{i}\":{member}"))
            .collect();
        format!(
            "{{\"cell\":\"x\",\"point\":1,\"trials\":3,\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    };
    let descending: Vec<usize> = (0..NAMES).rev().collect();
    let text = line(&descending);
    let record = in_order(&text).expect("descending names read");
    assert_eq!(record.metrics.keys().len(), NAMES);
    assert!(record.metrics.keys().is_sorted());
    assert_same(&text);
    // A repeated name, near either end, fails as in the keyed reader.
    for at in [1, NAMES / 2, NAMES - 1] {
        let mut names = descending.clone();
        names.insert(at, descending[at / 2]);
        assert_same(&line(&names));
    }
}
