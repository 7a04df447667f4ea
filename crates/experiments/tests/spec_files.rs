//! Freshness guard for the checked-in spec files under `specs/`.
//!
//! The files are generated with `sweep gen <name>` (quick mode); if a grid,
//! seed point or trial preset changes in code, this test fails until the
//! files are regenerated — so the specs in the repository always describe
//! what `sweep table` actually runs.

use experiments::{specs, ExperimentConfig};
use std::path::Path;

fn specs_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

#[test]
fn checked_in_specs_match_their_generators() {
    let cfg = ExperimentConfig::quick();
    for name in specs::EXPERIMENTS.iter().map(|e| e.name) {
        let path = specs_dir().join(format!("{name}.json"));
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
        let generated = specs::builtin(name, &cfg)
            .expect("builtin names resolve")
            .to_pretty_json()
            + "\n";
        assert_eq!(
            on_disk, generated,
            "specs/{name}.json is stale; regenerate with `cargo run -p experiments --bin sweep \
             -- gen {name} > specs/{name}.json`"
        );
    }
}

#[test]
fn checked_in_specs_parse_and_expand() {
    for name in specs::EXPERIMENTS.iter().map(|e| e.name) {
        let path = specs_dir().join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path).expect("spec file readable");
        let spec = sweeps::SweepSpec::from_json_text(&text)
            .unwrap_or_else(|e| panic!("specs/{name}.json: {e}"));
        assert_eq!(spec.name, name);
        assert!(spec.grid_len() >= 1);
    }
}
