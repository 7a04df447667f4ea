//! The binary opinion alphabet used by every message in the Flip model.

use std::fmt;
use std::ops::Not;

use rand::Rng;

use crate::rng::SimRng;

/// One of the two abstract, symmetric opinions an agent may hold or transmit.
///
/// The paper treats the two opinions as interchangeable symbols: a protocol may
/// compare opinions for equality and transmit them, but no decision (other than
/// *which* bit to transmit) may depend on the concrete value.  See
/// [`Opinion::flipped`] for the effect of channel noise.
///
/// # Example
///
/// ```
/// use flip_model::Opinion;
///
/// let b = Opinion::One;
/// assert_eq!(b.flipped(), Opinion::Zero);
/// assert_eq!(!b, Opinion::Zero);
/// assert_eq!(Opinion::from(true), Opinion::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opinion {
    /// The opinion encoded by the bit `0`.
    Zero,
    /// The opinion encoded by the bit `1`.
    One,
}

impl Opinion {
    /// Both opinions, in bit order.
    pub const ALL: [Opinion; 2] = [Opinion::Zero, Opinion::One];

    /// Returns the opposite opinion (the result of a channel bit flip).
    #[must_use]
    #[inline]
    pub fn flipped(self) -> Self {
        match self {
            Opinion::Zero => Opinion::One,
            Opinion::One => Opinion::Zero,
        }
    }

    /// Returns the opposite opinion when `flip` is set, and `self`
    /// otherwise.  The choice is arithmetic on the bits, with no branch, so
    /// a random `flip` costs no misprediction.
    #[must_use]
    #[inline]
    pub fn flipped_if(self, flip: bool) -> Self {
        Opinion::from_bit(self.as_bit() ^ u8::from(flip))
    }

    /// Encodes the opinion as a bit (`0` or `1`).
    #[must_use]
    #[inline]
    pub fn as_bit(self) -> u8 {
        match self {
            Opinion::Zero => 0,
            Opinion::One => 1,
        }
    }

    /// Decodes an opinion from a bit; any non-zero value maps to [`Opinion::One`].
    #[must_use]
    #[inline]
    pub fn from_bit(bit: u8) -> Self {
        if bit == 0 {
            Opinion::Zero
        } else {
            Opinion::One
        }
    }

    /// Index of the opinion (`0` or `1`), convenient for array-indexed tallies.
    #[must_use]
    pub fn index(self) -> usize {
        self.as_bit() as usize
    }

    /// Draws an opinion uniformly at random (a fair coin).
    #[must_use]
    pub fn random(rng: &mut SimRng) -> Self {
        if rng.gen::<bool>() {
            Opinion::One
        } else {
            Opinion::Zero
        }
    }
}

impl Not for Opinion {
    type Output = Opinion;

    fn not(self) -> Self::Output {
        self.flipped()
    }
}

impl From<bool> for Opinion {
    fn from(value: bool) -> Self {
        if value {
            Opinion::One
        } else {
            Opinion::Zero
        }
    }
}

impl From<Opinion> for bool {
    fn from(value: Opinion) -> Self {
        value == Opinion::One
    }
}

impl fmt::Display for Opinion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_an_involution() {
        for op in Opinion::ALL {
            assert_eq!(op.flipped().flipped(), op);
            assert_ne!(op.flipped(), op);
        }
    }

    #[test]
    fn flipped_if_flips_exactly_when_asked() {
        for op in Opinion::ALL {
            assert_eq!(op.flipped_if(true), op.flipped());
            assert_eq!(op.flipped_if(false), op);
        }
    }

    #[test]
    fn not_operator_matches_flipped() {
        assert_eq!(!Opinion::Zero, Opinion::One);
        assert_eq!(!Opinion::One, Opinion::Zero);
    }

    #[test]
    fn bit_round_trip() {
        for op in Opinion::ALL {
            assert_eq!(Opinion::from_bit(op.as_bit()), op);
        }
        assert_eq!(Opinion::from_bit(7), Opinion::One);
    }

    #[test]
    fn bool_conversions_round_trip() {
        for op in Opinion::ALL {
            assert_eq!(Opinion::from(bool::from(op)), op);
        }
    }

    #[test]
    fn index_matches_bit() {
        assert_eq!(Opinion::Zero.index(), 0);
        assert_eq!(Opinion::One.index(), 1);
    }

    #[test]
    fn display_shows_bit() {
        assert_eq!(Opinion::Zero.to_string(), "0");
        assert_eq!(Opinion::One.to_string(), "1");
    }

    #[test]
    fn random_produces_both_values() {
        let mut rng = SimRng::from_seed(3);
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[Opinion::random(&mut rng).index()] = true;
        }
        assert!(seen[0] && seen[1]);
    }
}
