//! The **Breathe before Speaking** protocols (Feinerman, Haeupler, Korman;
//! PODC 2014): asymptotically optimal noisy broadcast and noisy
//! majority-consensus in the [Flip model](flip_model).
//!
//! The protocol has two stages:
//!
//! * **Stage I — spreading ("breathe")**: information propagates in layers.
//!   An agent activated in phase `i` stays silent until the phase ends, adopts
//!   the content of one uniformly random message it heard in that phase, and
//!   only then starts pushing that opinion.  Phase lengths of `Θ(1/ε²)` rounds
//!   make each new layer more than `1/ε²` times larger than the previous one,
//!   which outpaces the per-hop reliability loss of the noisy channel and
//!   leaves the whole population with a bias of `Ω(√(log n / n))` towards the
//!   source's opinion.
//! * **Stage II — boosting ("speak")**: `O(log n)` phases of repeated noisy
//!   majority sampling amplify that tiny bias to full consensus, with a final
//!   `Θ(log n / ε²)`-sample majority vote pinning every agent to the correct
//!   opinion with high probability.
//!
//! Both stages together take `O(log n / ε²)` rounds and `O(n log n / ε²)`
//! single-bit messages — matching the lower bounds of paper §1.4.
//!
//! # Quick start
//!
//! ```
//! use breathe::{BroadcastProtocol, Params};
//! use flip_model::Opinion;
//!
//! # fn main() -> Result<(), flip_model::FlipError> {
//! let params = Params::practical(500, 0.25)?;
//! let protocol = BroadcastProtocol::new(params, Opinion::One);
//! let outcome = protocol.run_with_seed(42)?;
//! assert!(outcome.fraction_correct > 0.9);
//! println!(
//!     "{} / {} agents correct after {} rounds and {} bits",
//!     (outcome.fraction_correct * outcome.n as f64).round(),
//!     outcome.n,
//!     outcome.total_rounds,
//!     outcome.messages_sent,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The majority-consensus variant ([`MajorityConsensusProtocol`]) starts from
//! an initial opinionated set instead of a single source, and the
//! [`AsyncBroadcastProtocol`] removes the global-clock assumption (paper §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent_core;
mod async_clock;
mod broadcast;
mod majority;
mod memory;
mod params;
mod schedule;
mod stage1;
mod stage2;

pub use agent_core::ProtocolCore;
pub use async_clock::{
    AsyncBroadcastProtocol, AsyncOutcome, AsyncVariant, OffsetAgent, ResyncAgent,
};
pub use broadcast::{
    BreatheAgent, BroadcastOutcome, BroadcastProtocol, DetailedOutcome, LevelStats,
};
pub use majority::{InitialSet, MajorityConsensusProtocol, MajorityOutcome};
pub use memory::{footprint, theoretical_bits, MemoryFootprint};
pub use params::{Multipliers, Params};
pub use schedule::{PhaseSpec, Position, Schedule, StageKind};
pub use stage1::Stage1State;
pub use stage2::Stage2State;

/// The error type returned by this crate (re-exported from [`flip_model`]).
pub use flip_model::FlipError;
