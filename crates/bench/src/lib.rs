//! Shared helpers for the Criterion benchmarks that regenerate the paper's
//! evaluation (experiments E1–E12; see the paper-section index in
//! `docs/ARCHITECTURE.md`).
//!
//! Each benchmark measures the wall-clock cost of one experiment's inner
//! simulation at a reduced scale, and — more importantly for the reproduction
//! — prints the corresponding result table once per run so that
//! `cargo bench` regenerates the same rows as `sweep table e01`…`e12`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use experiments::ExperimentConfig;

/// The benchmark-sized experiment configuration: tiny trial counts so the
/// measured simulations stay in the milliseconds-to-seconds range.
#[must_use]
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        trials: 2,
        base_seed: 0xBE9C,
        ..ExperimentConfig::quick()
    }
}

/// Prints a table header so benchmark logs clearly attribute regenerated rows.
pub fn announce(table_markdown: &str) {
    println!("\n--- regenerated table ---\n{table_markdown}");
}

pub mod gate;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_small() {
        assert!(bench_config().trials <= 4);
        assert!(bench_config().quick);
    }
}
