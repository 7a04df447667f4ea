//! Declarative scenario sweeps for the *Breathe before Speaking*
//! reproduction: specs as data, one orchestrator, resumable results.
//!
//! The paper's claims are statements over **sweeps** — grids of
//! `(n, ε, protocol, backend, rounds, trials)`.  This crate turns a sweep
//! from a hand-rolled loop inside an experiment binary into a pipeline of
//! plain data:
//!
//! 1. **Describe** — a [`SweepSpec`] (JSON on disk, [`spec`] in code) names
//!    a protocol from the [`ProtocolRegistry`], an engine
//!    [`Backend`](flip_model::Backend), and axes whose cross product expands
//!    into hash-addressed [`ScenarioSpec`] cells.
//! 2. **Run** — the [`SweepRunner`] executes cells across threads (dynamic
//!    cell queue × lock-free per-trial [`TrialRunner`]) and checkpoints each
//!    completed cell to a [`SweepStore`] — a manifest plus JSONL shards.
//! 3. **Resume** — a killed sweep restarts by skipping persisted cells;
//!    because every record is a deterministic function of its cell spec
//!    (seeds derive from `(base_seed, point, trial)`), the final export is
//!    **byte-identical** to an uninterrupted run.
//! 4. **Aggregate & export** — metrics stream into online moments and P²
//!    quantile sketches ([`analysis::streaming`]); exports walk the grid in
//!    spec order as CSV (summary) or JSON (lossless, round-trippable).
//! 5. **Compose** — a [`ReportSpec`] sequences member sweeps into one
//!    [`ReportStore`] (shared manifest, per-member sub-stores, one
//!    `max_cells` budget) so a whole experiment report is a single
//!    resumable run ([`ReportRunner`]).
//!
//! The `sweep` binary (crate `experiments`) is the command-line face:
//! `sweep run spec.json --out DIR`, `sweep resume DIR`,
//! `sweep export DIR --csv`.
//!
//! # Example
//!
//! ```
//! use sweeps::{Axis, ProtocolRegistry, SweepRunner, SweepSpec};
//! use flip_model::Backend;
//! use std::collections::BTreeMap;
//!
//! let spec = SweepSpec {
//!     name: "doc-demo".into(),
//!     protocol: "rumor".into(),
//!     backend: Backend::Agents,
//!     trials: 2,
//!     base_seed: 7,
//!     point_base: 0,
//!     rounds: 80,
//!     faults: String::new(),
//!     defaults: BTreeMap::from([
//!         ("epsilon".to_string(), 0.25),
//!         ("informed".to_string(), 4.0),
//!     ]),
//!     axes: vec![Axis { key: "n".into(), values: vec![50.0, 100.0] }],
//! };
//! let outcome = SweepRunner::new()
//!     .with_threads(2)
//!     .run(&spec, &ProtocolRegistry::builtin(), None)
//!     .unwrap();
//! assert!(outcome.completed);
//! assert_eq!(outcome.cells.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod compose;
pub mod error;
pub mod export;
pub mod json;
pub mod observe;
pub mod orchestrator;
pub mod registry;
pub mod runner;
pub mod spec;
pub mod store;

pub use aggregate::{CellRecord, MetricAggregate, MetricTable, TRACKED_QUANTILES};
pub use compose::{
    is_report_store, MemberOutcome, ReportOutcome, ReportRunner, ReportSpec, ReportStore,
    REPORT_FORMAT,
};
pub use error::SweepError;
pub use export::{export_csv, export_json, ordered_cells, parse_export_json};
pub use observe::{CellTelemetry, ProgressReporter, TelemetryHub, TrialContext};
pub use orchestrator::{SweepOutcome, SweepRunner};
pub use registry::{
    fault_spec_for, samples_for_confidence, Param, Protocol, ProtocolRegistry, TrialFn,
};
pub use runner::{default_threads, TrialRunner, THREADS_ENV};
pub use spec::{Axis, ScenarioSpec, SweepSpec};
pub use store::{ShardRecord, ShardWriter, SweepStore};
