//! Noise channels applied to every accepted message.

use crate::error::FlipError;
use crate::opinion::Opinion;
use crate::rng::SimRng;

/// A point-to-point channel through which every accepted message passes.
///
/// The Flip model specifies a binary symmetric channel whose crossover
/// probability is *at most* `1/2 − ε`; this trait lets experiments plug in the
/// exact-worst-case channel ([`BinarySymmetricChannel`]), a noiseless control
/// ([`NoiselessChannel`]) or a heterogeneous cap-respecting channel
/// ([`AdversarialCapChannel`]).
pub trait Channel {
    /// Transmits one bit, possibly corrupting it.
    fn transmit(&self, message: Opinion, rng: &mut SimRng) -> Opinion;

    /// The probability that [`transmit`](Channel::transmit) flips the bit
    /// (an upper bound for channels whose noise varies per message).
    fn crossover(&self) -> f64;

    /// The noise margin `ε = 1/2 − crossover`.
    fn epsilon(&self) -> f64 {
        0.5 - self.crossover()
    }

    /// The *expected* per-message flip probability, used by the dense engine
    /// to sample aggregate flip counts.  Defaults to [`crossover`]
    /// (exact for channels with a fixed flip rate); channels whose noise
    /// varies per message must override it with the mean rate.
    ///
    /// [`crossover`]: Channel::crossover
    fn mean_crossover(&self) -> f64 {
        self.crossover()
    }

    /// The single fixed per-message flip probability of this channel, or
    /// `None` when the flip probability depends on the message.
    ///
    /// When this returns `Some(p)` the engine *fuses* noise into routing: it
    /// geometric-skip-samples the positions of flipped messages directly in
    /// the accepted stream (exact for i.i.d. Bernoulli(`p`) flips, one `ln`
    /// per flip instead of one draw per message) and never calls
    /// [`transmit`](Channel::transmit).  Channels with message-dependent
    /// noise return `None` (the default) and keep the per-message path.
    fn fixed_crossover(&self) -> Option<f64> {
        None
    }
}

/// The binary symmetric channel with a fixed crossover probability `p ∈ [0, 1/2]`.
///
/// This is the worst case permitted by the Flip model when constructed via
/// [`BinarySymmetricChannel::from_epsilon`], which sets `p = 1/2 − ε` exactly.
///
/// # Example
///
/// ```
/// use flip_model::{BinarySymmetricChannel, Channel};
///
/// # fn main() -> Result<(), flip_model::FlipError> {
/// let channel = BinarySymmetricChannel::from_epsilon(0.1)?;
/// assert!((channel.crossover() - 0.4).abs() < 1e-12);
/// assert!((channel.epsilon() - 0.1).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinarySymmetricChannel {
    crossover: f64,
}

impl BinarySymmetricChannel {
    /// Creates a channel that flips each bit with probability `crossover`.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidCrossover`] if `crossover` is not in `[0, 1/2]`
    /// or is not finite.
    pub fn new(crossover: f64) -> Result<Self, FlipError> {
        if !crossover.is_finite() || !(0.0..=0.5).contains(&crossover) {
            return Err(FlipError::InvalidCrossover {
                probability: crossover,
            });
        }
        Ok(Self { crossover })
    }

    /// Creates the worst-case channel of the Flip model: crossover `1/2 − ε`.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidEpsilon`] if `ε` is not in `(0, 1/2]` or is
    /// not finite.
    pub fn from_epsilon(epsilon: f64) -> Result<Self, FlipError> {
        if !epsilon.is_finite() || epsilon <= 0.0 || epsilon > 0.5 {
            return Err(FlipError::InvalidEpsilon { epsilon });
        }
        Ok(Self {
            crossover: 0.5 - epsilon,
        })
    }
}

impl Channel for BinarySymmetricChannel {
    fn transmit(&self, message: Opinion, rng: &mut SimRng) -> Opinion {
        if rng.chance(self.crossover) {
            message.flipped()
        } else {
            message
        }
    }

    fn crossover(&self) -> f64 {
        self.crossover
    }

    fn fixed_crossover(&self) -> Option<f64> {
        Some(self.crossover)
    }
}

/// A channel that never corrupts messages (`ε = 1/2`).
///
/// Useful as a control in experiments: with this channel the noisy broadcast
/// problem collapses to classical rumor spreading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoiselessChannel;

impl Channel for NoiselessChannel {
    fn transmit(&self, message: Opinion, _rng: &mut SimRng) -> Opinion {
        message
    }

    fn crossover(&self) -> f64 {
        0.0
    }

    fn fixed_crossover(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// A channel whose per-message flip probability varies but never exceeds a cap.
///
/// The Flip model only promises that the flip probability is *at most*
/// `1/2 − ε`; protocols must therefore tolerate message-dependent noise below
/// the cap.  This channel draws, for every message, a flip probability
/// uniformly from `[low, cap]`, which is useful for robustness tests.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialCapChannel {
    low: f64,
    cap: f64,
}

impl AdversarialCapChannel {
    /// Creates a channel whose per-message crossover is drawn uniformly from `[low, cap]`.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidCrossover`] if `cap` is not in `[0, 1/2]` or
    /// [`FlipError::InvalidParameter`] if `low` is negative or exceeds `cap`.
    pub fn new(low: f64, cap: f64) -> Result<Self, FlipError> {
        if !cap.is_finite() || !(0.0..=0.5).contains(&cap) {
            return Err(FlipError::InvalidCrossover { probability: cap });
        }
        if !low.is_finite() || low < 0.0 || low > cap {
            return Err(FlipError::InvalidParameter {
                name: "low",
                message: format!("lower bound {low} must lie in [0, cap = {cap}]"),
            });
        }
        Ok(Self { low, cap })
    }
}

impl Channel for AdversarialCapChannel {
    fn transmit(&self, message: Opinion, rng: &mut SimRng) -> Opinion {
        use rand::Rng;
        let p = if (self.cap - self.low).abs() < f64::EPSILON {
            self.cap
        } else {
            rng.gen_range(self.low..=self.cap)
        };
        if rng.chance(p) {
            message.flipped()
        } else {
            message
        }
    }

    fn crossover(&self) -> f64 {
        self.cap
    }

    fn mean_crossover(&self) -> f64 {
        // The per-message rate is uniform on [low, cap].
        0.5 * (self.low + self.cap)
    }

    fn fixed_crossover(&self) -> Option<f64> {
        // A collapsed interval is a fixed-rate channel; anything wider has
        // message-dependent noise and keeps the per-message path.
        ((self.cap - self.low).abs() < f64::EPSILON).then_some(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsc_rejects_invalid_crossover() {
        assert!(BinarySymmetricChannel::new(0.7).is_err());
        assert!(BinarySymmetricChannel::new(-0.1).is_err());
        assert!(BinarySymmetricChannel::new(f64::NAN).is_err());
        assert!(BinarySymmetricChannel::new(0.5).is_ok());
        assert!(BinarySymmetricChannel::new(0.0).is_ok());
    }

    #[test]
    fn bsc_rejects_invalid_epsilon() {
        assert!(BinarySymmetricChannel::from_epsilon(0.0).is_err());
        assert!(BinarySymmetricChannel::from_epsilon(0.6).is_err());
        assert!(BinarySymmetricChannel::from_epsilon(f64::INFINITY).is_err());
        assert!(BinarySymmetricChannel::from_epsilon(0.5).is_ok());
    }

    #[test]
    fn epsilon_and_crossover_are_consistent() {
        let c = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
        assert!((c.crossover() - 0.3).abs() < 1e-12);
        assert!((c.epsilon() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empirical_flip_rate_matches_crossover() {
        let c = BinarySymmetricChannel::new(0.3).unwrap();
        let mut rng = SimRng::from_seed(17);
        let flips = (0..20_000)
            .filter(|_| c.transmit(Opinion::One, &mut rng) == Opinion::Zero)
            .count();
        let rate = flips as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn zero_crossover_never_flips() {
        let c = BinarySymmetricChannel::new(0.0).unwrap();
        let mut rng = SimRng::from_seed(1);
        for _ in 0..100 {
            assert_eq!(c.transmit(Opinion::Zero, &mut rng), Opinion::Zero);
        }
    }

    #[test]
    fn noiseless_channel_is_identity() {
        let c = NoiselessChannel;
        let mut rng = SimRng::from_seed(1);
        for op in Opinion::ALL {
            assert_eq!(c.transmit(op, &mut rng), op);
        }
        assert_eq!(c.crossover(), 0.0);
        assert_eq!(c.epsilon(), 0.5);
    }

    #[test]
    fn adversarial_cap_channel_validates_bounds() {
        assert!(AdversarialCapChannel::new(0.0, 0.4).is_ok());
        assert!(AdversarialCapChannel::new(0.2, 0.1).is_err());
        assert!(AdversarialCapChannel::new(-0.1, 0.4).is_err());
        assert!(AdversarialCapChannel::new(0.0, 0.6).is_err());
    }

    #[test]
    fn fixed_crossover_reports_fusable_channels() {
        assert_eq!(
            BinarySymmetricChannel::new(0.3).unwrap().fixed_crossover(),
            Some(0.3)
        );
        assert_eq!(NoiselessChannel.fixed_crossover(), Some(0.0));
        // A genuinely varying channel must keep the per-message path ...
        assert_eq!(
            AdversarialCapChannel::new(0.1, 0.4)
                .unwrap()
                .fixed_crossover(),
            None
        );
        // ... but a collapsed interval is a fixed-rate channel.
        assert_eq!(
            AdversarialCapChannel::new(0.4, 0.4)
                .unwrap()
                .fixed_crossover(),
            Some(0.4)
        );
    }

    #[test]
    fn adversarial_cap_channel_flips_at_most_at_cap_rate() {
        let c = AdversarialCapChannel::new(0.0, 0.25).unwrap();
        let mut rng = SimRng::from_seed(9);
        let flips = (0..20_000)
            .filter(|_| c.transmit(Opinion::One, &mut rng) == Opinion::Zero)
            .count();
        let rate = flips as f64 / 20_000.0;
        // Expected rate is the mean of U[0, 0.25] = 0.125; it must stay below the cap.
        assert!(rate < 0.25, "rate = {rate}");
        assert!(rate > 0.05, "rate = {rate}");
    }
}
