//! Smoke tests: every builtin sweep behind `sweep table` (the `e01`–`e13`
//! and `ablations` experiments) runs end-to-end at a tiny scale and
//! produces a well-formed, non-empty table.  The tests walk
//! `experiments::specs::EXPERIMENTS`, so a new entry is smoked without a
//! new test.
//!
//! The point is rot prevention, not statistics — an experiment whose
//! sweep panics, loops or renders an empty table fails here within seconds
//! instead of rotting silently until someone runs `sweep table`.

use std::sync::OnceLock;

use analysis::Table;
use experiments::specs::{self, EXPERIMENTS};
use experiments::ExperimentConfig;

/// The smallest configuration every entrypoint accepts: one trial per point,
/// quick-mode grids.
fn smoke_config() -> ExperimentConfig {
    ExperimentConfig {
        trials: 1,
        base_seed: 0x0005_40CE,
        ..ExperimentConfig::quick()
    }
}

/// A table is well-formed when it has a title, at least one column and at
/// least one row, every row matches the column count, and every number in
/// a rate or fraction column lies in `[0, 1]`.
fn assert_well_formed(table: &Table) {
    assert!(!table.title().is_empty(), "table has an empty title");
    assert!(
        !table.columns().is_empty(),
        "table `{}` has no columns",
        table.title()
    );
    assert!(
        !table.is_empty(),
        "table `{}` produced no rows",
        table.title()
    );
    for row in table.rows() {
        assert_eq!(
            row.len(),
            table.columns().len(),
            "table `{}` has a ragged row",
            table.title()
        );
    }
    for (column, header) in table.columns().iter().enumerate() {
        if !(header.contains("rate") || header.contains("fraction")) {
            continue;
        }
        for row in table.rows() {
            // Summary rows (E1's fit) carry text, not a value.
            if let Ok(value) = row[column].parse::<f64>() {
                assert!(
                    (0.0..=1.0).contains(&value),
                    "table `{}`: `{header}` = {value} in row {row:?}",
                    table.title()
                );
            }
        }
    }
    let markdown = table.to_markdown();
    assert!(markdown.contains(table.title()));
}

/// The named sweep's table at the smoke configuration, run once per test
/// process: the loop over every experiment and the per-experiment tests
/// share it.
fn smoke(name: &str) -> &'static Table {
    static TABLES: [OnceLock<Table>; EXPERIMENTS.len()] =
        [const { OnceLock::new() }; EXPERIMENTS.len()];
    let index = EXPERIMENTS
        .iter()
        .position(|e| e.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a builtin sweep"));
    let table = TABLES[index].get_or_init(|| specs::table(name, &smoke_config()));
    assert_well_formed(table);
    table
}

#[test]
fn every_experiment_renders_a_well_formed_table() {
    for experiment in EXPERIMENTS {
        smoke(experiment.name);
    }
}

#[test]
fn e01_rounds_vs_n_smoke() {
    smoke("e01");
}

#[test]
fn e02_rounds_vs_epsilon_smoke() {
    smoke("e02");
}

#[test]
fn e03_message_complexity_smoke() {
    smoke("e03");
}

#[test]
fn e04_phase0_seeding_smoke() {
    smoke("e04");
}

#[test]
fn e05_layer_growth_smoke() {
    smoke("e05");
}

#[test]
fn e06_bias_decay_smoke() {
    smoke("e06");
}

#[test]
fn e07_stage2_boost_smoke() {
    smoke("e07a");
    smoke("e07b");
}

#[test]
fn e08_majority_consensus_smoke() {
    smoke("e08");
}

#[test]
fn e09_async_overhead_smoke() {
    smoke("e09");
}

#[test]
fn e10_baseline_comparison_smoke() {
    smoke("e10");
}

#[test]
fn e11_path_deterioration_smoke() {
    smoke("e11");
}

#[test]
fn e12_two_party_lower_bound_smoke() {
    smoke("e12");
}

#[test]
fn ablations_smoke() {
    smoke("a1");
    smoke("a2");
    smoke("a3");
}

#[test]
fn config_from_args_matches_binary_convention() {
    // `sweep table` parses its flags through this parser; pin its contract.
    let parse = |args: &[String]| {
        experiments::cli::parse("sweep table", args, &["--full"])
            .expect("valid flags")
            .config
    };
    let quick = parse(&[]);
    assert!(quick.quick);
    let full = parse(&["--full".to_string()]);
    assert!(!full.quick);
    assert!(full.trials > quick.trials);
}

#[test]
fn experiments_are_deterministic_for_a_fixed_seed() {
    // Two runs of the same entrypoint with the same config must be
    // byte-identical; this is the property that makes `sweep table`
    // a reproducible report generator rather than a one-off sample.
    let first = specs::table("e01", &smoke_config());
    let second = specs::table("e01", &smoke_config());
    assert_eq!(first.to_csv(), second.to_csv());
}
