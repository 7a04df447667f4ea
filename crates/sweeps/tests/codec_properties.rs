//! Property tests of the cell-record codec and the loaders built on it.
//!
//! * Round trip: any record — arbitrary names, 1–7 trials, floats that
//!   include −0.0, subnormals, ±1e300 and integral values ≥ 1e16 — reads
//!   back equal and re-serializes to the same bytes, alone and inside a
//!   JSON export.
//! * Garbage: truncated, bit-flipped and random input to the record reader,
//!   the export parser, `json::parse` and, through a shard file, the store
//!   loader returns `Ok` or `Err` and never panics.  A corrupted middle
//!   line fails the load; a torn final line is dropped.  The telemetry
//!   shard reader and the sweep and report manifest loaders get the same
//!   treatment, and a telemetry line that repeats a phase, event or lane
//!   entry is an error.
//! * Equivalent input: reordered keys, extra whitespace, escaped string
//!   characters and re-spelled numbers read as the same record; a
//!   duplicated key is an error.
//!
//! The records and their damage come from `codec_inputs`, which the record
//! readers' unit test in `src/aggregate/keyed_reference.rs` shares.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use flip_model::Backend;
use flip_model::{Event, Phase, Recorder};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::Rng;
use sweeps::json::{parse, Json};
use sweeps::{
    export_json, parse_export_json, Axis, CellRecord, CellTelemetry, MetricAggregate, ReportSpec,
    ReportStore, SweepSpec, SweepStore, TRACKED_QUANTILES,
};

mod codec_inputs;

use codec_inputs::{count_objects, duplicate_member, flip_bit, name, record, respell, torn};

fn sweep_spec(cells: usize) -> SweepSpec {
    SweepSpec {
        name: "codec \"properties\"".into(),
        protocol: "rumor".into(),
        backend: Backend::Dense,
        trials: 1,
        base_seed: 5,
        point_base: 0,
        rounds: 10,
        faults: String::new(),
        defaults: BTreeMap::from([("epsilon".to_string(), 0.25)]),
        axes: vec![Axis {
            key: "n".into(),
            values: (1..=cells).map(|n| n as f64).collect(),
        }],
    }
}

/// Tokens that make random input look enough like JSON to reach deep into
/// the readers.
const GARBAGE_TOKENS: [&str; 20] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "d83e",
    "0",
    "-",
    "1.5e3",
    "null",
    "true",
    " ",
    "\"cell\"",
    "\"metrics\"",
    "\"quantiles\"",
    "\u{1F980}",
];

fn garbage(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..40usize))
        .map(|_| GARBAGE_TOKENS[rng.gen_range(0..GARBAGE_TOKENS.len())])
        .collect()
}

/// Feeds `text` to every reader; none may panic.
fn read_everywhere(text: &str) {
    let _ = CellRecord::from_json_line(text);
    let _ = parse_export_json(text);
    let _ = parse(text);
}

/// A telemetry line with at least one phase, one counting event and one
/// lane, every value random.
fn telemetry(rng: &mut StdRng) -> CellTelemetry {
    let mut recorder = Recorder::new();
    for _ in 0..rng.gen_range(1..6usize) {
        let phase = Phase::ALL[rng.gen_range(0..Phase::ALL.len())];
        recorder.record_phase(phase, rng.gen_range(0..u64::MAX / 8));
    }
    let counting: Vec<Event> = Event::ALL
        .into_iter()
        .filter(|e| !e.is_high_water())
        .collect();
    for _ in 0..rng.gen_range(1..4usize) {
        let event = counting[rng.gen_range(0..counting.len())];
        recorder.add_event(event, rng.gen_range(1..u64::MAX / 8));
    }
    for _ in 0..rng.gen_range(1..4usize) {
        recorder.record_lane(rng.gen_range(0..8usize), rng.gen_range(1..u64::MAX / 8));
    }
    CellTelemetry {
        hash: name(rng),
        point: rng.gen::<u64>(),
        worker: rng.gen_range(0..4u64),
        trials: rng.gen_range(1..8u64),
        elapsed_ns: rng.gen::<u64>(),
        recorder,
    }
}

/// The member of `doc`'s `key` object or array at `index`, duplicated in
/// place by `edit`.
fn duplicate_entry(doc: &Json, key: &str, rng: &mut StdRng, edit: impl Fn(&mut Json)) -> String {
    let Json::Object(mut pairs) = doc.clone() else {
        panic!("a telemetry line is an object");
    };
    let (_, entries) = pairs
        .iter_mut()
        .find(|(name, _)| name == key)
        .expect("the line carries the key");
    match entries {
        Json::Object(members) => {
            let mut copy = members[rng.gen_range(0..members.len())].clone();
            edit(&mut copy.1);
            members.insert(rng.gen_range(0..=members.len()), copy);
        }
        Json::Array(items) => {
            let mut copy = items[rng.gen_range(0..items.len())].clone();
            edit(&mut copy);
            items.insert(rng.gen_range(0..=items.len()), copy);
        }
        _ => panic!("`{key}` is an object or an array"),
    }
    Json::Object(pairs).to_string()
}

fn temp_store(tag: &str) -> (PathBuf, SweepStore) {
    let dir = std::env::temp_dir().join(format!("sweeps-codec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = SweepStore::create(&dir, &sweep_spec(1)).expect("store creates");
    (dir, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn records_round_trip_byte_for_byte(seed in 0u64..u64::MAX, trials in 1u32..8) {
        let original = record(seed, trials);
        let line = original.to_json_line();
        prop_assert!(!line.contains('\n'));
        let back = CellRecord::from_json_line(&line).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(&back, &original);
        prop_assert_eq!(back.to_json_line(), line);

        // Inside a JSON export, next to a spec echo, the same holds.
        let spec = sweep_spec(2);
        let cells: Vec<_> = spec
            .expand()
            .unwrap()
            .into_iter()
            .zip([original.clone(), record(seed ^ 1, trials)])
            .collect();
        let exported = export_json(&spec, &cells);
        let parsed = parse_export_json(&exported).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(&parsed, &cells);
        prop_assert_eq!(export_json(&spec, &parsed), exported);
    }

    #[test]
    fn garbage_input_never_panics(seed in 0u64..u64::MAX, trials in 1u32..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = record(seed, trials).to_json_line();
        // Every proper prefix of a record is a torn line: always an error.
        for _ in 0..8 {
            let prefix = torn(&line, &mut rng);
            prop_assert!(CellRecord::from_json_line(&prefix).is_err(), "{} parsed", prefix);
            read_everywhere(&prefix);
        }
        for _ in 0..8 {
            read_everywhere(&flip_bit(&line, &mut rng));
            read_everywhere(&garbage(&mut rng));
        }
        let spec = sweep_spec(1);
        let cell = spec.expand().unwrap().remove(0);
        let exported = export_json(&spec, &[(cell, record(seed, trials))]);
        for _ in 0..4 {
            let prefix = torn(&exported, &mut rng);
            prop_assert!(parse_export_json(&prefix).is_err());
            read_everywhere(&prefix);
            read_everywhere(&flip_bit(&exported, &mut rng));
        }
        // Nesting past the limit is an error, not a stack overflow.
        let deep = "[".repeat(rng.gen_range(129..100_000usize));
        prop_assert!(parse(&deep).is_err());
        let deep_member = format!("{{\"cell\":\"x\",\"extra\":{deep}");
        prop_assert!(CellRecord::from_json_line(&deep_member).is_err());
    }

    #[test]
    fn corrupt_shards_fail_and_torn_tails_drop(seed in 0u64..u64::MAX, lines in 3usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (dir, store) = temp_store("shards");
        let shard = dir.join("shards").join("shard-0001-00.jsonl");
        let records: Vec<CellRecord> = (0..lines)
            .map(|i| {
                let mut r = record(seed.wrapping_add(i as u64), rng.gen_range(1..8));
                r.hash = format!("cell-{i}");
                r
            })
            .collect();
        let text: Vec<String> = records.iter().map(CellRecord::to_json_line).collect();
        let write = |body: &[String], tail: &str| {
            fs::write(&shard, format!("{}\n{tail}", body.join("\n"))).expect("shard writes");
        };

        // Intact: every record loads.
        write(&text, "");
        prop_assert_eq!(store.load_cells().map(|c| c.len()).ok(), Some(lines));

        // A torn final line (a proper prefix, no newline) is dropped.
        write(&text[..lines - 1], &torn(&text[lines - 1], &mut rng));
        let loaded = store.load_cells().map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(loaded.len(), lines - 1);
        prop_assert!(!loaded.contains_key(&records[lines - 1].hash));

        // A torn middle line is corruption: the load fails.
        let middle = rng.gen_range(0..lines - 1);
        let mut cut = text.clone();
        cut[middle] = torn(&text[middle], &mut rng);
        write(&cut, "");
        prop_assert!(store.load_cells().is_err());

        // A bit flip in a middle line fails the load exactly when that
        // line no longer reads as a record.
        let mut flipped = text.clone();
        flipped[middle] = flip_bit(&text[middle], &mut rng);
        write(&flipped, "");
        let loaded = store.load_cells();
        if !flipped[middle].contains(['\n', '\r']) {
            let line_ok = CellRecord::from_json_line(&flipped[middle]).is_ok();
            prop_assert_eq!(loaded.is_ok(), line_ok);
        }

        // Random garbage in the middle never panics.
        let mut noisy = text.clone();
        noisy[middle] = garbage(&mut rng);
        write(&noisy, "");
        let _ = store.load_cells();
        fs::remove_dir_all(&dir).expect("temp store removable");
    }

    #[test]
    fn equivalent_spellings_read_as_the_same_record(seed in 0u64..u64::MAX, trials in 1u32..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = record(seed, trials).to_json_line();
        let tree = parse(&line).map_err(TestCaseError::Fail)?;
        let expected = CellRecord::from_json_line(&line).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        for _ in 0..4 {
            let mut variant = String::new();
            respell(&tree, &mut rng, &mut variant);
            let back = CellRecord::from_json_line(&variant)
                .map_err(|e| TestCaseError::Fail(format!("{e}\n{variant}")))?;
            prop_assert_eq!(&back, &expected);
            prop_assert_eq!(back.to_json_line(), line.clone());
        }

        // A key duplicated in any object of the record is an error.
        let mut duplicated = tree.clone();
        let mut target = rng.gen_range(0..count_objects(&tree));
        prop_assert!(duplicate_member(&mut duplicated, &mut target, &mut rng));
        let text = duplicated.to_string();
        prop_assert!(CellRecord::from_json_line(&text).is_err(), "accepted {}", text);
    }

    #[test]
    fn telemetry_lines_reject_garbage_and_repeated_entries(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let original = telemetry(&mut rng);
        let line = original.to_json_line();
        let back = CellTelemetry::from_json_line(&line).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(&back, &original);
        for _ in 0..8 {
            let prefix = torn(&line, &mut rng);
            prop_assert!(CellTelemetry::from_json_line(&prefix).is_err(), "{} parsed", prefix);
            let _ = CellTelemetry::from_json_line(&flip_bit(&line, &mut rng));
            let _ = CellTelemetry::from_json_line(&garbage(&mut rng));
        }

        // A repeated phase, event or lane is an error, even when merging
        // the copies would overflow.
        let doc = parse(&line).map_err(TestCaseError::Fail)?;
        let saturate_total = |stat: &mut Json| {
            if let Json::Object(fields) = stat {
                for (key, value) in fields {
                    if key == "total_ns" {
                        *value = Json::UInt(u64::MAX);
                    }
                }
            }
        };
        for (key, edit) in [
            ("phases", &saturate_total as &dyn Fn(&mut Json)),
            ("events", &|_: &mut Json| {}),
            ("lanes", &|_: &mut Json| {}),
        ] {
            let repeated = duplicate_entry(&doc, key, &mut rng, edit);
            prop_assert!(
                CellTelemetry::from_json_line(&repeated).is_err(),
                "accepted {}",
                repeated
            );
        }
    }

    #[test]
    fn corrupt_manifests_fail_without_panicking(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = std::env::temp_dir().join(format!("sweeps-codec-manifests-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let member = |name: &str| SweepSpec { name: name.into(), ..sweep_spec(2) };
        let report = ReportSpec::new("codec", vec![member("m1"), member("m2")]).expect("valid report");
        ReportStore::create(&dir, &report).expect("report store creates");
        let report_manifest = dir.join("report.json");
        let member_manifest = dir.join("members").join("m2").join("manifest.json");
        for path in [&report_manifest, &member_manifest] {
            let text = fs::read_to_string(path).expect("manifest reads");
            for _ in 0..4 {
                fs::write(path, torn(&text, &mut rng)).expect("manifest writes");
                prop_assert!(ReportStore::open(&dir).is_err());
                prop_assert!(path == &report_manifest || SweepStore::open(path.parent().unwrap()).is_err());
                for corrupt in [flip_bit(&text, &mut rng), garbage(&mut rng)] {
                    fs::write(path, corrupt).expect("manifest writes");
                    let _ = ReportStore::open(&dir);
                    let _ = SweepStore::open(member_manifest.parent().unwrap());
                }
            }
            fs::write(path, text).expect("manifest writes");
        }
        let (_, reopened) = ReportStore::open(&dir).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        prop_assert_eq!(reopened, report);
        fs::remove_dir_all(&dir).expect("temp store removable");
    }
}
