//! The persisted formats, pinned byte for byte by stores written with an
//! earlier build of the `sweep` binary.
//!
//! Each fixture under `tests/fixtures/` is a complete store of a small dense
//! `rumor` sweep (2 n × 3 ε), cut after four cells and resumed, so its shards
//! span two run generations and two workers.  `dense-t6` runs six trials per
//! cell (every P² sketch past initialisation, in marker state); `dense-t3`
//! runs three (every sketch still buffering raw observations).  Next to the
//! store lie the spec file it was run from and its CSV and JSON exports.
//!
//! A change to the record codec, the canonical spec form, the manifest
//! writer or the exports that moves a single byte fails here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use sweeps::{
    export_csv, export_json, ordered_cells, parse_export_json, CellRecord, SweepSpec, SweepStore,
};

const FIXTURES: [&str; 2] = ["dense-t6", "dense-t3"];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every non-empty line of every shard, in sorted shard order.
fn stored_lines(dir: &Path) -> Vec<String> {
    let mut shards: Vec<PathBuf> = fs::read_dir(dir.join("shards"))
        .expect("fixture has shards")
        .map(|entry| entry.expect("readable entry").path())
        .collect();
    shards.sort();
    assert!(shards.len() >= 2, "fixture spans several shard files");
    shards
        .iter()
        .flat_map(|path| {
            let content = read(path);
            assert!(content.ends_with('\n'), "{}: no torn line", path.display());
            content.lines().map(str::to_string).collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn loaded_records_reserialize_to_every_stored_line() {
    for name in FIXTURES {
        let dir = fixture(name);
        let (store, spec) = SweepStore::open(&dir).expect("fixture opens");
        let records = store.load_cells().expect("fixture loads");
        assert_eq!(records.len(), spec.grid_len(), "{name}: complete store");
        let lines = stored_lines(&dir);
        assert_eq!(lines.len(), records.len(), "{name}: one line per cell");
        let written: BTreeSet<String> = records.values().map(CellRecord::to_json_line).collect();
        let stored: BTreeSet<String> = lines.into_iter().collect();
        assert_eq!(
            written, stored,
            "{name}: records re-serialize byte for byte"
        );
        for line in &stored {
            let record = CellRecord::from_json_line(line).expect("stored line parses");
            assert_eq!(&records[&record.hash], &record, "{name}");
        }
    }
}

#[test]
fn exports_match_the_checked_in_documents() {
    for name in FIXTURES {
        let dir = fixture(name);
        let (store, spec) = SweepStore::open(&dir).expect("fixture opens");
        let records = store.load_cells().expect("fixture loads");
        let (pairs, missing) = ordered_cells(&spec, &records).expect("spec expands");
        assert_eq!(missing, 0, "{name}");
        assert_eq!(
            export_csv(&pairs),
            read(&dir.join("export.csv")),
            "{name}: CSV export"
        );
        let json = read(&dir.join("export.json"));
        assert_eq!(export_json(&spec, &pairs), json, "{name}: JSON export");
        assert_eq!(
            parse_export_json(&json).expect("export parses"),
            pairs,
            "{name}: the JSON export parses back into the store's records"
        );
    }
}

#[test]
fn spec_file_and_manifest_are_reproduced() {
    for name in FIXTURES {
        let dir = fixture(name);
        let spec_text = read(&dir.join("spec.json"));
        let spec = SweepSpec::from_json_text(&spec_text).expect("spec file parses");
        let (store, stored_spec) = SweepStore::open(&dir).expect("fixture opens");
        assert_eq!(stored_spec, spec, "{name}");
        assert_eq!(store.sweep_hash(), spec.hash_hex(), "{name}");
        assert_eq!(format!("{}\n", spec.to_pretty_json()), spec_text, "{name}");

        // A fresh store for the same spec writes the same manifest bytes.
        let fresh = std::env::temp_dir().join(format!(
            "sweeps-fixture-manifest-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&fresh);
        SweepStore::create(&fresh, &spec).expect("store creates");
        assert_eq!(
            read(&fresh.join("manifest.json")),
            read(&dir.join("manifest.json")),
            "{name}: manifest"
        );
        fs::remove_dir_all(&fresh).expect("temp store removable");
    }
}
