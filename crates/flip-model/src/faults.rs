//! Fault injection: faulty-participant roles, deterministic fault plans and
//! adversarial message schedules.
//!
//! The Flip model's only adversary so far was *stochastic*: channel noise up
//! to the crossover cap.  This module adds *faulty participants* — agents
//! that crash, push a constant bit, equivocate by round parity, or
//! adaptively invert their own protocol — so the paper's Stage I/II dynamics
//! can be compared against classical BFT machinery (the `ben-or` /
//! `bv-broadcast` / `safe-bbc` registry protocols and experiment E13) under
//! one substrate.
//!
//! # Determinism
//!
//! Fault assignment is sampled **once, at simulation construction**, from
//! the engine's own [`SimRng`] using a single
//! [`reserve_block`](SimRng::reserve_block): agent `i` is faulty iff
//! [`block_word`](SimRng::block_word)`(base, i)` falls below the
//! fraction-scaled threshold.  Because the reservation advances the stream
//! by a fixed amount regardless of how many agents come out faulty, and the
//! per-agent words are re-mixed in registers, fault draws are independent of
//! thread count and of iteration order — a fault-injected parallel round is
//! bit-identical to its sequential twin, exactly like the fault-free engine.
//! A configuration without faults draws nothing, so every pre-existing
//! seeded result is byte-identical.
//!
//! # Role semantics
//!
//! | role | sends | receives | runs protocol |
//! |---|---|---|---|
//! | [`FaultRole::Honest`] | protocol | yes | yes |
//! | [`FaultRole::Crashed`] | protocol until round `r`, then silent | until round `r` | until round `r` |
//! | [`FaultRole::ByzantineConstant`] | the fixed bit, every round | ignores | no |
//! | [`FaultRole::ByzantineEquivocating`] | bit = round parity | ignores | no |
//! | [`FaultRole::ByzantineAdaptiveFlip`] | negation of its honest send | yes | yes |
//!
//! Dropped receptions still consume their routed slot and their channel
//! corruption draw — the message died at a deaf recipient, not in the
//! scheduler — so fault-free agents observe exactly the same stream with or
//! without faulty peers in the population.

use std::cell::Cell;
use std::fmt;
use std::str::FromStr;

use crate::agent::{Agent, Round};
use crate::channel::Channel;
use crate::error::FlipError;
use crate::opinion::Opinion;
use crate::rng::SimRng;

/// Which fault family a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Byzantine-constant: push the wrong bit ([`Opinion::Zero`], the
    /// convention being that experiments designate [`Opinion::One`] as the
    /// reference) every round, ignore everything received.
    Byzantine,
    /// Byzantine-equivocating: push the bit equal to the round's parity, so
    /// the agent advertises both values in any two consecutive rounds.
    Equivocate,
    /// Byzantine-adaptive: run the honest protocol (receive and update
    /// state normally) but transmit the *negation* of every honest send.
    AdaptiveFlip,
    /// Crash: behave honestly until `round`, then fall permanently silent
    /// and deaf.
    Crash {
        /// First round in which the agent is crashed.
        round: Round,
    },
}

/// A parsed `--faults` directive: which fault kind, injected into which
/// fraction of the population.
///
/// The string forms accepted by [`FromStr`] (and produced by `Display`):
///
/// * `byz:F` — [`FaultKind::Byzantine`] at fraction `F`,
/// * `equiv:F` — [`FaultKind::Equivocate`],
/// * `flip:F` — [`FaultKind::AdaptiveFlip`],
/// * `crash:F@R` — [`FaultKind::Crash`] at round `R`.
///
/// `F` must lie strictly between 0 and 1: a zero fraction would silently run
/// a fault-free simulation while claiming to inject faults.
///
/// # Example
///
/// ```
/// use flip_model::{FaultKind, FaultSpec};
///
/// let spec: FaultSpec = "crash:0.25@8".parse().unwrap();
/// assert_eq!(spec.kind, FaultKind::Crash { round: 8 });
/// assert_eq!(spec.fraction, 0.25);
/// assert_eq!(spec.to_string(), "crash:0.25@8");
/// assert!("byz:0".parse::<FaultSpec>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The fault family to inject.
    pub kind: FaultKind,
    /// The expected fraction of the population carrying the fault,
    /// strictly inside `(0, 1)`.
    pub fraction: f64,
}

impl FaultSpec {
    /// Creates a spec, validating the fraction.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] (named `faults`) unless
    /// `fraction` is finite and strictly inside `(0, 1)`.
    pub fn new(kind: FaultKind, fraction: f64) -> Result<Self, FlipError> {
        if !fraction.is_finite() || fraction <= 0.0 || fraction >= 1.0 {
            return Err(FlipError::InvalidParameter {
                name: "faults",
                message: format!(
                    "fault fraction {fraction} must lie strictly between 0 and 1 \
                     (a zero fraction would silently run fault-free)"
                ),
            });
        }
        Ok(Self { kind, fraction })
    }

    /// The concrete role a faulty agent under this spec plays.
    #[must_use]
    pub fn role(&self) -> FaultRole {
        match self.kind {
            FaultKind::Byzantine => FaultRole::ByzantineConstant {
                opinion: Opinion::Zero,
            },
            FaultKind::Equivocate => FaultRole::ByzantineEquivocating,
            FaultKind::AdaptiveFlip => FaultRole::ByzantineAdaptiveFlip,
            FaultKind::Crash { round } => FaultRole::Crashed { round },
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Byzantine => write!(f, "byz:{}", self.fraction),
            FaultKind::Equivocate => write!(f, "equiv:{}", self.fraction),
            FaultKind::AdaptiveFlip => write!(f, "flip:{}", self.fraction),
            FaultKind::Crash { round } => write!(f, "crash:{}@{round}", self.fraction),
        }
    }
}

impl FromStr for FaultSpec {
    type Err = FlipError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = |message: String| FlipError::InvalidParameter {
            name: "faults",
            message,
        };
        let (kind_str, rest) = s.split_once(':').ok_or_else(|| {
            invalid(format!(
                "`{s}` has no `:`; expected `byz:F`, `equiv:F`, `flip:F` or `crash:F@R`"
            ))
        })?;
        let parse_fraction = |raw: &str| -> Result<f64, FlipError> {
            raw.parse::<f64>()
                .map_err(|_| invalid(format!("`{raw}` is not a number (the fault fraction)")))
        };
        let kind = match kind_str {
            "byz" => FaultKind::Byzantine,
            "equiv" => FaultKind::Equivocate,
            "flip" => FaultKind::AdaptiveFlip,
            "crash" => {
                let (fraction_str, round_str) = rest.split_once('@').ok_or_else(|| {
                    invalid(format!(
                        "`crash:{rest}` is missing its crash round; write `crash:F@R`"
                    ))
                })?;
                let round = round_str.parse::<Round>().map_err(|_| {
                    invalid(format!("`{round_str}` is not a round number (crash round)"))
                })?;
                return Self::new(FaultKind::Crash { round }, parse_fraction(fraction_str)?);
            }
            other => {
                return Err(invalid(format!(
                    "unknown fault kind `{other}`; expected `byz`, `equiv`, `flip` or `crash`"
                )))
            }
        };
        Self::new(kind, parse_fraction(rest)?)
    }
}

/// The concrete behavior one agent has been assigned for a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRole {
    /// Runs its protocol untouched.
    Honest,
    /// Honest until `round`, then permanently silent and deaf.
    Crashed {
        /// First round in which the agent is crashed.
        round: Round,
    },
    /// Pushes `opinion` every round and ignores everything received.
    ByzantineConstant {
        /// The bit the agent floods.
        opinion: Opinion,
    },
    /// Pushes the bit equal to the current round's parity.
    ByzantineEquivocating,
    /// Runs the honest protocol but transmits the negation of every send.
    ByzantineAdaptiveFlip,
}

impl FaultRole {
    /// Whether the role is anything other than [`FaultRole::Honest`].
    #[must_use]
    pub fn is_faulty(self) -> bool {
        self != FaultRole::Honest
    }

    /// Whether a message delivered in `round` reaches the agent's protocol.
    #[must_use]
    pub fn accepts_delivery(self, round: Round) -> bool {
        match self {
            FaultRole::Honest | FaultRole::ByzantineAdaptiveFlip => true,
            FaultRole::Crashed { round: crash } => round < crash,
            FaultRole::ByzantineConstant { .. } | FaultRole::ByzantineEquivocating => false,
        }
    }

    /// Whether the agent's protocol hooks (`end_round`) run in `round`.
    #[must_use]
    pub fn runs_protocol(self, round: Round) -> bool {
        // Identical gating to reception: a deaf agent's protocol is frozen.
        self.accepts_delivery(round)
    }
}

/// The per-trial deterministic assignment of a [`FaultRole`] to every agent.
///
/// Built either by i.i.d. sampling over the whole population
/// ([`FaultPlan::sample`] — the per-agent engine) or by assigning the role
/// to a leading prefix ([`FaultPlan::leading`] — the hybrid engine, whose
/// tracked agents carry the faulty roles against the dense honest bulk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    roles: Vec<FaultRole>,
    faulty: usize,
    /// The shared crash round when the plan's faulty role is
    /// [`FaultRole::Crashed`] (a plan injects a single spec, so every
    /// crashed agent crashes in the same round).
    crash_round: Option<Round>,
}

impl FaultPlan {
    /// Samples a plan for `n` agents: each independently carries the spec's
    /// role with probability `spec.fraction`.
    ///
    /// Consumes exactly one `n`-word [`SimRng::reserve_block`], so the draw
    /// is thread-count-invariant and costs no per-agent stream state.
    #[must_use]
    pub fn sample(spec: &FaultSpec, n: usize, rng: &mut SimRng) -> Self {
        // fraction < 1 keeps the scaled threshold below 2^64; the `as`
        // conversion saturates anyway for paranoid inputs.
        let threshold = (spec.fraction * (u64::MAX as f64 + 1.0)) as u64;
        let role = spec.role();
        let base = rng.reserve_block(n);
        let mut faulty = 0usize;
        let roles = (0..n)
            .map(|i| {
                if SimRng::block_word(base, i) < threshold {
                    faulty += 1;
                    role
                } else {
                    FaultRole::Honest
                }
            })
            .collect();
        Self {
            roles,
            faulty,
            crash_round: Self::crash_round_of(&role),
        }
    }

    /// A plan over `n` agents whose first `faulty` agents carry the spec's
    /// role — the hybrid layout, where the tracked prefix is the faulty set.
    #[must_use]
    pub fn leading(spec: &FaultSpec, faulty: usize, n: usize) -> Self {
        let faulty = faulty.min(n);
        let role = spec.role();
        let roles = (0..n)
            .map(|i| if i < faulty { role } else { FaultRole::Honest })
            .collect();
        Self {
            roles,
            faulty,
            crash_round: Self::crash_round_of(&role),
        }
    }

    fn crash_round_of(role: &FaultRole) -> Option<Round> {
        match role {
            FaultRole::Crashed { round } => Some(*round),
            _ => None,
        }
    }

    /// How many of the plan's agents are crashed during `round` (O(1): a
    /// plan carries one spec, so all crashed agents share one crash round).
    #[must_use]
    pub fn crashed_count(&self, round: Round) -> usize {
        match self.crash_round {
            Some(crash) if round >= crash => self.faulty,
            _ => 0,
        }
    }

    /// The role of agent `i` (agents beyond the plan are honest).
    #[must_use]
    pub fn role(&self, i: usize) -> FaultRole {
        self.roles.get(i).copied().unwrap_or(FaultRole::Honest)
    }

    /// Whether agent `i` carries a fault.
    #[must_use]
    pub fn is_faulty(&self, i: usize) -> bool {
        self.role(i).is_faulty()
    }

    /// How many agents carry a fault.
    #[must_use]
    pub fn faulty_count(&self) -> usize {
        self.faulty
    }

    /// The number of agents the plan covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// Whether the plan covers no agents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// The message a faulty sender injects in `round`, `Some(None)` for a
    /// silenced sender, or `None` when the agent's own protocol decides
    /// (honest and adaptive-flip roles — the latter negates the result).
    #[must_use]
    pub fn forced_send(&self, i: usize, round: Round) -> Option<Option<Opinion>> {
        match self.role(i) {
            FaultRole::Honest | FaultRole::ByzantineAdaptiveFlip => None,
            FaultRole::Crashed { round: crash } => (round >= crash).then_some(None),
            FaultRole::ByzantineConstant { opinion } => Some(Some(opinion)),
            FaultRole::ByzantineEquivocating => Some(Some(Opinion::from_bit((round & 1) as u8))),
        }
    }

    /// What agent `idx` pushes in `round` under `plan`, and whether its role
    /// forced the send: the send pass of both per-agent engines.
    ///
    /// Byzantine roles inject their bit without consulting (or advancing)
    /// the agent, crashed agents fall silent, and adaptive-flip agents run
    /// their protocol but transmit its negation.  Without a plan the agent
    /// decides alone.
    #[inline(always)]
    pub(crate) fn send<A: Agent>(
        plan: Option<&Self>,
        idx: usize,
        agent: &mut A,
        round: Round,
        rng: &mut SimRng,
    ) -> (Option<Opinion>, bool) {
        let Some(plan) = plan else {
            return (agent.send(round, rng), false);
        };
        if let Some(forced) = plan.forced_send(idx, round) {
            return (forced, true);
        }
        let sent = agent.send(round, rng);
        if plan.role(idx) == FaultRole::ByzantineAdaptiveFlip {
            (sent.map(Opinion::flipped), false)
        } else {
            (sent, false)
        }
    }

    /// Whether `plan` makes `recipient` deaf in `round`.
    ///
    /// A message routed to a deaf role dies at the recipient, not before:
    /// its slot, flip position and corruption draw are consumed exactly as
    /// for an honest recipient, so honest agents observe the same stream
    /// whether or not faulty peers exist.
    #[inline(always)]
    pub(crate) fn is_deaf(plan: Option<&Self>, recipient: usize, round: Round) -> bool {
        plan.is_some_and(|plan| !plan.role(recipient).accepts_delivery(round))
    }
}

/// A message-injection adversary composing with any [`Channel`]: every
/// `period`-th transmission (counted 1-based across the whole run) is
/// *replaced* by a fixed bit instead of passing through the inner channel.
///
/// This models an adversary with limited write access to the medium rather
/// than to the participants: contrast [`FaultRole::ByzantineConstant`],
/// which corrupts a sender, with a schedule that corrupts every k-th
/// *message* regardless of who sent it.
///
/// The replacement counter makes the channel stateful, so
/// [`Channel::fixed_crossover`] reports `None` and the engine always takes
/// the exact per-message path — the schedule composes with fused-noise
/// channels by disabling their fusion, never by being skipped.
///
/// # Example
///
/// ```
/// use flip_model::{AdversarialSchedule, Channel, NoiselessChannel, Opinion, SimRng};
///
/// # fn main() -> Result<(), flip_model::FlipError> {
/// let schedule = AdversarialSchedule::new(NoiselessChannel, Opinion::Zero, 3)?;
/// let mut rng = SimRng::from_seed(1);
/// let sent: Vec<Opinion> = (0..6).map(|_| schedule.transmit(Opinion::One, &mut rng)).collect();
/// // Every third message is replaced by the adversary's bit.
/// assert_eq!(sent[2], Opinion::Zero);
/// assert_eq!(sent[5], Opinion::Zero);
/// assert_eq!(sent[0], Opinion::One);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdversarialSchedule<C> {
    inner: C,
    bit: Opinion,
    period: u64,
    transmitted: Cell<u64>,
}

impl<C: Channel> AdversarialSchedule<C> {
    /// Wraps `inner`, replacing every `period`-th transmission with `bit`.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] when `period` is zero.
    pub fn new(inner: C, bit: Opinion, period: u64) -> Result<Self, FlipError> {
        if period == 0 {
            return Err(FlipError::InvalidParameter {
                name: "period",
                message: "the adversarial schedule period must be >= 1 \
                          (1 replaces every message)"
                    .into(),
            });
        }
        Ok(Self {
            inner,
            bit,
            period,
            transmitted: Cell::new(0),
        })
    }

    /// The wrapped channel.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// How many messages have passed through the schedule so far.
    #[must_use]
    pub fn transmitted(&self) -> u64 {
        self.transmitted.get()
    }
}

impl<C: Channel> Channel for AdversarialSchedule<C> {
    fn transmit(&self, message: Opinion, rng: &mut SimRng) -> Opinion {
        let count = self.transmitted.get() + 1;
        self.transmitted.set(count);
        if count.is_multiple_of(self.period) {
            self.bit
        } else {
            self.inner.transmit(message, rng)
        }
    }

    fn crossover(&self) -> f64 {
        // An upper bound: the injected bit differs from the payload at most
        // once per period, on top of the inner channel's own crossover.
        (self.inner.crossover() + 1.0 / self.period as f64).min(1.0)
    }

    fn mean_crossover(&self) -> f64 {
        // The schedule's replacements flip only when the payload disagrees
        // with the injected bit (unknowable here), so the inner mean plus
        // the full replacement rate is the honest upper bound.
        (self.inner.mean_crossover() + 1.0 / self.period as f64).min(1.0)
    }

    fn fixed_crossover(&self) -> Option<f64> {
        // Stateful by construction: the engine must call `transmit` for
        // every message or the schedule would silently never fire.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BinarySymmetricChannel, NoiselessChannel};

    #[test]
    fn fault_specs_parse_and_round_trip() {
        for (text, kind, fraction) in [
            ("byz:0.1", FaultKind::Byzantine, 0.1),
            ("equiv:0.2", FaultKind::Equivocate, 0.2),
            ("flip:0.05", FaultKind::AdaptiveFlip, 0.05),
            ("crash:0.25@8", FaultKind::Crash { round: 8 }, 0.25),
        ] {
            let spec: FaultSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(spec.kind, kind, "{text}");
            assert_eq!(spec.fraction, fraction, "{text}");
            assert_eq!(spec.to_string(), text);
            assert_eq!(spec.to_string().parse::<FaultSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn invalid_fault_specs_fail_naming_the_parameter() {
        for bad in [
            "byz:0",
            "byz:1",
            "byz:-0.1",
            "byz:half",
            "byz",
            "crash:0.1",
            "crash:0.1@x",
            "gremlin:0.1",
            "byz:0.1@3",
        ] {
            let err = match bad.parse::<FaultSpec>() {
                Ok(spec) => panic!("`{bad}` must be rejected, parsed {spec:?}"),
                Err(err) => err.to_string(),
            };
            assert!(
                err.contains("faults"),
                "`{bad}` error must name `faults`: {err}"
            );
        }
        // `byz:0.1@3` sneaks a crash round into a non-crash kind.
        assert!("byz:0.1@3".parse::<FaultSpec>().is_err());
    }

    #[test]
    fn sampled_plans_hit_the_expected_fraction_and_are_deterministic() {
        let spec: FaultSpec = "byz:0.1".parse().unwrap();
        let mut rng = SimRng::from_seed(42);
        let plan = FaultPlan::sample(&spec, 100_000, &mut rng);
        assert_eq!(plan.len(), 100_000);
        let frac = plan.faulty_count() as f64 / 100_000.0;
        assert!((frac - 0.1).abs() < 0.01, "fraction = {frac}");
        // Same seed, same plan; the draw is a pure function of the stream.
        let mut rng2 = SimRng::from_seed(42);
        assert_eq!(FaultPlan::sample(&spec, 100_000, &mut rng2), plan);
        // And the faulty count matches a recount of the roles.
        let recount = (0..plan.len()).filter(|&i| plan.is_faulty(i)).count();
        assert_eq!(recount, plan.faulty_count());
    }

    #[test]
    fn leading_plans_assign_the_prefix() {
        let spec: FaultSpec = "equiv:0.5".parse().unwrap();
        let plan = FaultPlan::leading(&spec, 3, 8);
        assert_eq!(plan.faulty_count(), 3);
        assert!(plan.is_faulty(0) && plan.is_faulty(2));
        assert!(!plan.is_faulty(3) && !plan.is_faulty(7));
        // Out-of-plan indices are honest.
        assert_eq!(plan.role(100), FaultRole::Honest);
    }

    #[test]
    fn roles_gate_sending_reception_and_protocol() {
        let crash = FaultRole::Crashed { round: 5 };
        assert!(crash.accepts_delivery(4) && !crash.accepts_delivery(5));
        assert!(crash.runs_protocol(4) && !crash.runs_protocol(6));
        let constant = FaultRole::ByzantineConstant {
            opinion: Opinion::Zero,
        };
        assert!(!constant.accepts_delivery(0));
        assert!(FaultRole::ByzantineAdaptiveFlip.accepts_delivery(0));
        assert!(FaultRole::Honest.accepts_delivery(0));
        assert!(constant.is_faulty() && !FaultRole::Honest.is_faulty());
    }

    #[test]
    fn forced_sends_follow_the_role_table() {
        let byz: FaultSpec = "byz:0.5".parse().unwrap();
        let plan = FaultPlan::leading(&byz, 1, 2);
        assert_eq!(plan.forced_send(0, 0), Some(Some(Opinion::Zero)));
        assert_eq!(plan.forced_send(1, 0), None, "honest agents decide");

        let equiv: FaultSpec = "equiv:0.5".parse().unwrap();
        let plan = FaultPlan::leading(&equiv, 1, 2);
        assert_eq!(plan.forced_send(0, 0), Some(Some(Opinion::Zero)));
        assert_eq!(plan.forced_send(0, 1), Some(Some(Opinion::One)));

        let crash: FaultSpec = "crash:0.5@3".parse().unwrap();
        let plan = FaultPlan::leading(&crash, 1, 2);
        assert_eq!(plan.forced_send(0, 2), None, "honest until the crash");
        assert_eq!(plan.forced_send(0, 3), Some(None), "silent after");

        let flip: FaultSpec = "flip:0.5".parse().unwrap();
        let plan = FaultPlan::leading(&flip, 1, 2);
        assert_eq!(plan.forced_send(0, 0), None, "adaptive runs the protocol");
    }

    #[test]
    fn crashed_count_is_zero_before_the_crash_round_and_all_faulty_after() {
        let crash: FaultSpec = "crash:0.5@3".parse().unwrap();
        let plan = FaultPlan::leading(&crash, 2, 8);
        assert_eq!(plan.crashed_count(0), 0);
        assert_eq!(plan.crashed_count(2), 0);
        assert_eq!(plan.crashed_count(3), 2);
        assert_eq!(plan.crashed_count(100), 2);
        // Non-crash faults never report crashed agents.
        let byz: FaultSpec = "byz:0.5".parse().unwrap();
        let plan = FaultPlan::leading(&byz, 2, 8);
        assert_eq!(plan.crashed_count(0), 0);
        assert_eq!(plan.crashed_count(50), 0);
        // Sampled plans carry the crash round too.
        let mut rng = SimRng::from_seed(11);
        let sampled = FaultPlan::sample(&crash, 1000, &mut rng);
        assert_eq!(sampled.crashed_count(2), 0);
        assert_eq!(sampled.crashed_count(3), sampled.faulty_count());
    }

    #[test]
    fn adversarial_schedule_replaces_every_period_th_message() {
        let schedule = AdversarialSchedule::new(NoiselessChannel, Opinion::Zero, 1).unwrap();
        let mut rng = SimRng::from_seed(7);
        for _ in 0..10 {
            assert_eq!(schedule.transmit(Opinion::One, &mut rng), Opinion::Zero);
        }
        assert_eq!(schedule.transmitted(), 10);
        assert!(AdversarialSchedule::new(NoiselessChannel, Opinion::Zero, 0).is_err());
    }

    #[test]
    fn adversarial_schedule_composes_with_noisy_channels() {
        // Between injections the inner channel's stream is untouched: a
        // period-3 schedule over a BSC must produce the inner channel's
        // exact outputs on non-multiples (same RNG draws, same results).
        let inner = BinarySymmetricChannel::new(0.3).unwrap();
        let schedule = AdversarialSchedule::new(inner, Opinion::Zero, 3).unwrap();
        let mut rng_direct = SimRng::from_seed(9);
        let mut rng_sched = SimRng::from_seed(9);
        for i in 1..=30u64 {
            let through = schedule.transmit(Opinion::One, &mut rng_sched);
            if i.is_multiple_of(3) {
                assert_eq!(through, Opinion::Zero, "message {i} must be replaced");
            } else {
                assert_eq!(
                    through,
                    inner.transmit(Opinion::One, &mut rng_direct),
                    "message {i} must pass through the inner channel"
                );
            }
        }
        assert!(
            schedule.fixed_crossover().is_none(),
            "stateful: never fused"
        );
        assert!(schedule.crossover() >= inner.crossover());
    }
}
