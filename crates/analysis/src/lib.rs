//! Probability bounds, theoretical predictions and empirical estimators used
//! to reproduce the quantitative claims of *Breathe before Speaking*.
//!
//! * [`chernoff`] — the multiplicative Chernoff bounds of paper §1.7.
//! * [`stirling`] — Stirling-formula bounds on central binomial probabilities
//!   (Claim 2.12) and the two-step imaginary process of Lemma 2.11.
//! * [`theory`] — closed-form predictions: round/message complexities, the
//!   per-phase boost guarantee and the §1.4 lower bounds.
//! * [`estimators`] — empirical success rates with Wilson confidence
//!   intervals, means and standard deviations.
//! * [`fitting`] — least-squares fits used to check the `log n` and `1/ε²`
//!   scaling shapes.
//! * [`streaming`] — single-pass aggregation: online moments (Welford) and
//!   P² quantile sketches, used by the sweep orchestrator so million-trial
//!   sweeps never hold per-trial data in memory.
//! * [`tables`] — plain-text/markdown/CSV rendering for experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chernoff;
pub mod estimators;
pub mod fitting;
pub mod stirling;
pub mod streaming;
pub mod tables;
pub mod theory;

pub use estimators::{mean, std_dev, SuccessRate};
pub use fitting::{fit_linear, fit_power_law, LinearFit};
pub use streaming::{P2Quantile, P2State, StreamingEstimator, StreamingMoments};
pub use tables::Table;
