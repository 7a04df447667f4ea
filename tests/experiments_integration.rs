//! Integration tests for the experiment harness: every experiment table can be
//! generated at a tiny scale and has the expected shape, and the headline
//! qualitative conclusions of the paper hold in the generated numbers.

use experiments::specs::{self, EXPERIMENTS};
use experiments::ExperimentConfig;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        trials: 2,
        base_seed: 99,
        ..ExperimentConfig::quick()
    }
}

#[test]
fn every_experiment_is_reachable_through_sweep_table() {
    // `sweep table <binary> --backend <b>` must select each builtin sweep
    // on the engine family its spec runs on.
    for experiment in EXPERIMENTS {
        let backend = (experiment.build)(&tiny()).backend;
        let sweeps = specs::binary_sweeps(experiment.binary, &tiny().with_backend(backend))
            .unwrap_or_else(|e| panic!("{}: {e}", experiment.name));
        assert!(
            sweeps.contains(&experiment.name),
            "`sweep table {} --backend {backend}` runs {sweeps:?}, not {}",
            experiment.binary,
            experiment.name
        );
    }
}

#[test]
fn e01_success_rates_are_high_everywhere() {
    let table = specs::table("e01", &tiny()).expect("builtin sweep runs");
    // Last row is the fit; the others carry an all-correct rate in column 4.
    for row in &table.rows()[..table.len() - 1] {
        let fraction: f64 = row[3].parse().unwrap();
        assert!(fraction > 0.9, "row = {row:?}");
    }
    assert!(table.to_markdown().contains("E1"));
}

#[test]
fn e03_normalised_message_cost_is_bounded() {
    let table = specs::table("e03", &tiny()).expect("builtin sweep runs");
    for row in table.rows() {
        let normalised: f64 = row[3].parse().unwrap();
        assert!(
            normalised > 0.1 && normalised < 500.0,
            "normalised messages out of range: {row:?}"
        );
    }
}

#[test]
fn e07_sampling_table_shows_the_boost_growing_with_delta() {
    let sampling = &specs::table("e07a", &tiny()).expect("builtin sweep runs");
    let measured: Vec<f64> = sampling
        .rows()
        .iter()
        .map(|r| r[2].parse().unwrap())
        .collect();
    // Larger population bias gives a larger majority-correct probability.
    assert!(measured.last().unwrap() > measured.first().unwrap());
    assert!(measured.iter().all(|&m| m >= 0.4));
}

#[test]
fn e08_largest_most_biased_committee_reaches_near_consensus() {
    let table = specs::table("e08", &tiny()).expect("builtin sweep runs");
    let last = table.rows().last().unwrap();
    let fraction: f64 = last[3].parse().unwrap();
    assert!(fraction > 0.8, "row = {last:?}");
}

#[test]
fn e10_breathe_rows_dominate_the_failing_baselines() {
    let table = specs::table("e10", &tiny()).expect("builtin sweep runs");
    // Rows come in blocks of six per epsilon: breathe first, then baselines.
    let rows = table.rows();
    assert_eq!(rows.len() % 6, 0);
    for block in rows.chunks(6) {
        let breathe: f64 = block[0][3].parse().unwrap();
        let forwarding: f64 = block[1][3].parse().unwrap();
        let voter: f64 = block[5][3].parse().unwrap();
        assert!(breathe > forwarding, "block = {block:?}");
        assert!(breathe > voter, "block = {block:?}");
    }
}

#[test]
fn e12_sample_counts_scale_like_inverse_epsilon_squared() {
    let table = specs::table("e12", &tiny()).expect("builtin sweep runs");
    let normalised: Vec<f64> = table.rows().iter().map(|r| r[2].parse().unwrap()).collect();
    let max = normalised.iter().cloned().fold(f64::MIN, f64::max);
    let min = normalised.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 10.0,
        "samples * eps^2 should be roughly constant: {normalised:?}"
    );
}
