//! The **Flip model** of communication from *Breathe before Speaking:
//! Efficient Information Dissemination despite Noisy, Limited and Anonymous
//! Communication* (Feinerman, Haeupler, Korman; PODC 2014).
//!
//! The model (paper §1.3) consists of `n` anonymous agents proceeding in
//! synchronous rounds.  In every round each agent may either *wait* (send
//! nothing) or *push* a single-bit message to another agent chosen uniformly
//! at random; neither side learns the other's identity.  If several messages
//! reach the same agent in one round, the recipient accepts exactly one of
//! them, chosen uniformly at random, and the rest are dropped.  Every accepted
//! bit is flipped independently with probability at most `1/2 − ε`
//! (a binary symmetric channel).
//!
//! This crate is the *substrate* on which the paper's protocols (crate
//! `breathe`) and the comparison baselines (crate `baselines`) run.  It knows
//! nothing about any particular protocol: protocols are per-agent state
//! machines implementing the [`Agent`] trait, and the [`Simulation`] engine
//! applies the push-gossip routing, collision and noise semantics.
//!
//! Three engine families execute the model, selected by [`Backend`]: the
//! per-agent [`Simulation`] (the exact reference semantics), the counts-based
//! [`DenseSimulation`]/[`StratifiedSimulation`] — homogeneous protocols
//! ([`DenseProtocol`]) and stratified heterogeneous ones
//! ([`StratifiedProtocol`]) in `O(#strata × #states)` per round, reaching
//! populations of `10⁶`–`10⁷` agents — and the [`HybridSimulation`], which
//! runs `k` tracked agents exactly against a dense bulk.  Every engine
//! implements [`FlipEngine`] (`step`, `census`, `metrics`, telemetry and the
//! shared `run`/`run_until` loops), so code written against the trait drives
//! any backend.  See the [`dense`](DenseSimulation),
//! [`stratified`](StratifiedSimulation) and [`hybrid`](HybridSimulation)
//! module documentation for the equivalence contract between them.
//!
//! # Example
//!
//! A tiny "everyone repeats what they last heard" protocol:
//!
//! ```
//! use flip_model::{
//!     Agent, BinarySymmetricChannel, FlipEngine, Opinion, OpinionDelta, Round, SimRng,
//!     Simulation, SimulationConfig,
//! };
//!
//! struct Parrot {
//!     opinion: Option<Opinion>,
//! }
//!
//! impl Agent for Parrot {
//!     fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
//!         self.opinion
//!     }
//!     fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
//!         let before = self.opinion;
//!         self.opinion = Some(message);
//!         OpinionDelta::between(before, self.opinion)
//!     }
//!     fn opinion(&self) -> Option<Opinion> {
//!         self.opinion
//!     }
//! }
//!
//! # fn main() -> Result<(), flip_model::FlipError> {
//! let mut agents: Vec<Parrot> = (0..100).map(|_| Parrot { opinion: None }).collect();
//! agents[0].opinion = Some(Opinion::One); // a single informed agent
//!
//! let channel = BinarySymmetricChannel::from_epsilon(0.3)?;
//! let config = SimulationConfig::new(100).with_seed(7);
//! let mut sim = Simulation::new(agents, channel, config)?;
//! sim.run(200);
//! assert!(sim.census().active() > 90);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `pool` module (and only it) carries a
// reviewed `#![allow(unsafe_code)]` for the scoped-task erasure behind
// [`RoundPool`]; every other module remains statically unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod backend;
mod channel;
mod config;
mod dense;
mod dense_protocols;
mod engine;
mod error;
mod faults;
mod hybrid;
mod metrics;
mod opinion;
mod pool;
mod population;
mod rng;
mod scheduler;
mod stratified;

pub use agent::{Agent, AgentId, OpinionDelta, Round};
pub use backend::{Backend, DEFAULT_HYBRID_TRACKED};
pub use channel::{AdversarialCapChannel, BinarySymmetricChannel, Channel, NoiselessChannel};
pub use config::SimulationConfig;
pub use dense::{DensePopulation, DenseProtocol, DenseSimulation};
pub use dense_protocols::{
    MajoritySamplerProtocol, RumorAgent, RumorProtocol, VoterProtocol, ZealotAgent,
    ZealotRumorProtocol,
};
pub use engine::{FlipEngine, RoundSummary, Simulation};
pub use error::FlipError;
pub use faults::{FaultKind, FaultPlan, FaultRole, FaultSpec};
pub use hybrid::HybridSimulation;
pub use metrics::{Metrics, RoundMetrics};
pub use opinion::Opinion;
pub use pool::{RoundPool, MAX_WORKERS};
pub use population::{majority_bias, Census};
pub use rng::{BernoulliSkip, SimRng};
pub use scheduler::{Delivery, GossipScheduler, RoundRouting, RADIX_BUCKET_BITS, RADIX_MIN_N};
pub use stratified::{StratifiedPopulation, StratifiedProtocol, StratifiedSimulation};
pub use telemetry::{Event, Phase, PhaseProfile, PhaseSpan, PhaseStat, Recorder, Telemetry};
