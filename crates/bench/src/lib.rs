//! The performance gate behind `cargo bench`.
//!
//! The crate's two Criterion targets time the simulation substrate
//! (`benches/substrate.rs`: routing, noise, the engine round, the record
//! codec) and the dense engines (`benches/dense_engine.rs`).  [`gate`]
//! compares their results against the checked-in `bench/baseline.json`,
//! through the `bench_gate` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
