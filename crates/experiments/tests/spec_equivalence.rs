//! The migration contract: every registry-backed sweep reproduces its
//! original hand-rolled experiment **digit for digit**.
//!
//! The golden markdown under `tests/golden/` was captured from the legacy
//! runners (`scaling::e01_rounds_vs_n`, `stage_claims::e04_phase0_seeding`,
//! …) immediately before they were deleted, with the sweep specs pinned
//! equal in the same commit.  The specs (`specs::EXPERIMENTS`) must keep
//! constructing the same protocols, walking the grid in the same order and
//! deriving the same `(base_seed, point, trial)` seeds — so the rendered
//! tables stay equal *as strings*.  Any drift in seed numbering, grid
//! order, aggregation arithmetic or formatting fails here.  Every entry of
//! `specs::EXPERIMENTS` needs a golden: a new entry without one fails
//! `every_experiment_reproduces_its_golden_table`.
//!
//! To re-bless after an *intentional* change, run with `BLESS_GOLDEN=1` and
//! review the diff:
//!
//! ```sh
//! BLESS_GOLDEN=1 cargo test -p experiments --test spec_equivalence
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use experiments::specs::{self, EXPERIMENTS};
use experiments::ExperimentConfig;

fn tiny(trials: u32) -> ExperimentConfig {
    ExperimentConfig {
        trials,
        base_seed: 0xBEA7_4E5E,
        ..ExperimentConfig::quick()
    }
}

/// The trials per cell each golden table was captured at.
fn golden_trials(name: &str) -> u32 {
    match name {
        "e04" => 3,
        "e01-dense" | "e08-dense" => 1,
        _ => 2,
    }
}

/// The named sweep's table at its golden configuration, rendered once per
/// test process: the loop over every experiment and the per-experiment
/// tests below (which report each drifting table under its own name) share
/// it.
fn rendered(name: &str) -> &'static str {
    static TABLES: [OnceLock<String>; EXPERIMENTS.len()] =
        [const { OnceLock::new() }; EXPERIMENTS.len()];
    let index = EXPERIMENTS
        .iter()
        .position(|e| e.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a builtin sweep"));
    TABLES[index].get_or_init(|| {
        specs::table(name, &tiny(golden_trials(name)))
            .expect("builtin sweep runs")
            .to_markdown()
    })
}

fn check(name: &str) {
    let markdown = rendered(name);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.md"));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, markdown).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden table {}; run with BLESS_GOLDEN=1 to capture it",
            path.display()
        )
    });
    assert_eq!(markdown, expected, "sweep `{name}` drifted from its golden");
}

#[test]
fn every_experiment_reproduces_its_golden_table() {
    for experiment in EXPERIMENTS {
        check(experiment.name);
    }
}

#[test]
fn e01_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e01");
}

#[test]
fn e01_dense_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e01-dense");
}

#[test]
fn e02_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e02");
}

#[test]
fn e03_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e03");
}

#[test]
fn e04_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e04");
}

#[test]
fn e05_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e05");
}

#[test]
fn e06_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e06");
}

#[test]
fn e07_sweeps_reproduce_both_golden_tables_digit_for_digit() {
    check("e07a");
    check("e07b");
}

#[test]
fn e08_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e08");
}

#[test]
fn e08_dense_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e08-dense");
}

#[test]
fn e09_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e09");
}

#[test]
fn e10_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e10");
}

#[test]
fn e11_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e11");
}

#[test]
fn e12_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("e12");
}

#[test]
fn a1_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("a1");
}

#[test]
fn a2_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("a2");
}

#[test]
fn a3_sweep_reproduces_the_golden_table_digit_for_digit() {
    check("a3");
}

#[test]
fn base_seed_changes_flow_through_deterministically() {
    // The pinned digits are not an accident of the default seed: a different
    // base seed reproduces itself exactly and differs from the default.
    let cfg = ExperimentConfig {
        trials: 2,
        base_seed: 0x1234_5678,
        ..ExperimentConfig::quick()
    };
    assert_eq!(
        specs::table("a2", &cfg)
            .expect("builtin sweep runs")
            .to_markdown(),
        specs::table("a2", &cfg)
            .expect("builtin sweep runs")
            .to_markdown()
    );
    let other = ExperimentConfig {
        base_seed: 0x8765_4321,
        ..cfg
    };
    assert_ne!(
        specs::table("a2", &other)
            .expect("builtin sweep runs")
            .to_markdown(),
        specs::table("a2", &cfg)
            .expect("builtin sweep runs")
            .to_markdown()
    );
}
