//! Streaming (single-pass, O(1)-memory) aggregation: online moments and
//! quantile sketches.
//!
//! Million-trial sweeps cannot hold per-trial samples in memory, so the sweep
//! orchestrator folds every metric into these accumulators as trials finish.
//! Two estimators are provided:
//!
//! * [`StreamingMoments`] — count, plain running sum, Welford mean/M2 (for a
//!   numerically stable variance), min and max.  The reported
//!   [`mean`](StreamingMoments::mean) is `sum / count`, which is *bit-identical*
//!   to [`crate::estimators::mean`] over the same values in the same order —
//!   that identity is what lets a sweep-backed experiment reproduce a
//!   hand-rolled one digit-for-digit.
//! * [`P2Quantile`] — the P² algorithm of Jain & Chlamtac (1985): a five-marker
//!   sketch that tracks one quantile with O(1) memory and no sorting.
//!
//! Both expose their full internal state ([`StreamingMoments`] as public
//! fields, [`P2Quantile`] via [`P2Quantile::snapshot`]/[`P2Quantile::restore`])
//! so result stores can serialize them exactly and resume aggregation across
//! process restarts.

/// Anything that can absorb a stream of observations one value at a time.
///
/// The sweep orchestrator drives every metric accumulator through this trait,
/// so adding a new streaming estimator only requires implementing it here.
pub trait StreamingEstimator {
    /// Absorbs one observation.
    fn observe(&mut self, x: f64);

    /// Number of observations absorbed so far.
    fn count(&self) -> u64;
}

/// Online count / sum / mean / variance / min / max.
///
/// # Example
///
/// ```
/// use analysis::streaming::{StreamingEstimator, StreamingMoments};
///
/// let mut m = StreamingMoments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     m.observe(x);
/// }
/// assert_eq!(m.count(), 4);
/// assert!((m.mean() - 2.5).abs() < 1e-12);
/// assert!((m.std_dev() - 1.2909944487358056).abs() < 1e-12);
/// assert_eq!(m.min, 1.0);
/// assert_eq!(m.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingMoments {
    /// Number of observations.
    pub count: u64,
    /// Plain running sum, accumulated in observation order (`mean()` divides
    /// this by `count` so it matches a naive sum-then-divide bit for bit).
    pub sum: f64,
    /// Welford running mean (used only to keep `m2` stable; see `mean()`).
    pub welford_mean: f64,
    /// Welford sum of squared deviations.
    pub m2: f64,
    /// Smallest observation (`+∞` when empty).
    pub min: f64,
    /// Largest observation (`-∞` when empty).
    pub max: f64,
}

impl StreamingMoments {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            welford_mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The mean as `sum / count` (0 when empty).
    ///
    /// Deliberately *not* the Welford mean: dividing the plain in-order sum
    /// reproduces [`crate::estimators::mean`] exactly, so streaming and
    /// collect-then-average code paths print identical digits.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Unbiased sample variance from Welford's M2 (0 for fewer than 2 values).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Default for StreamingMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingEstimator for StreamingMoments {
    fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.welford_mean;
        self.welford_mean += delta / self.count as f64;
        self.m2 += delta * (x - self.welford_mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    fn count(&self) -> u64 {
        self.count
    }
}

/// The full serializable state of a [`P2Quantile`] sketch.
///
/// `buffer` holds the raw observations while fewer than five have been seen
/// (the sketch proper initialises from the first five); its first
/// `buffered` slots are in use and the rest are `0.0`.  Afterwards
/// `buffered` is 0 and the five markers carry all state.  The state is
/// plain inline data, so taking or restoring it never allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct P2State {
    /// The tracked quantile in `(0, 1)`.
    pub q: f64,
    /// Observations absorbed so far.
    pub count: u64,
    /// Marker heights (estimates of the min, q/2, q, (1+q)/2 quantiles, max).
    pub heights: [f64; 5],
    /// Marker positions (1-based ranks, integral values stored as `f64`).
    pub positions: [f64; 5],
    /// Desired marker positions.
    pub desired: [f64; 5],
    /// Raw observations while `count < 5`, in arrival order, in the first
    /// `buffered` slots.
    pub buffer: [f64; 5],
    /// How many leading `buffer` slots hold observations.
    pub buffered: usize,
}

impl P2State {
    /// The buffered observations, in arrival order (empty when `buffered`
    /// is out of range).
    #[must_use]
    pub fn observations(&self) -> &[f64] {
        self.buffer.get(..self.buffered).unwrap_or_default()
    }
}

/// A P² single-quantile sketch (Jain & Chlamtac, 1985).
///
/// Tracks an estimate of the `q`-quantile of a stream using five markers,
/// adjusted with piecewise-parabolic interpolation — O(1) memory and O(1)
/// work per observation, no sorting, deterministic given the input order.
///
/// The first five observations wait in an inline `[f64; 5]` buffer rather
/// than a heap vector, so creating, feeding, cloning, snapshotting and
/// restoring a sketch never allocate.  Slots not holding an observation
/// stay `0.0` (the buffer is zeroed again once the markers initialise), so
/// the derived `PartialEq` compares exactly the state that matters.
///
/// # Example
///
/// ```
/// use analysis::streaming::{P2Quantile, StreamingEstimator};
///
/// let mut median = P2Quantile::new(0.5).unwrap();
/// for i in 0..1001 {
///     // A linear ramp: the true median is 500.
///     median.observe(f64::from(i));
/// }
/// assert!((median.estimate() - 500.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    count: u64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    /// The first `count` observations while `count < 5`; `0.0` elsewhere.
    buffer: [f64; 5],
}

impl P2Quantile {
    /// Creates a sketch for the quantile `q`; returns `None` unless
    /// `0 < q < 1`.
    #[must_use]
    pub fn new(q: f64) -> Option<Self> {
        if !(q > 0.0 && q < 1.0) {
            return None;
        }
        Some(Self {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            buffer: [0.0; 5],
        })
    }

    /// The tracked quantile.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The current estimate of the `q`-quantile.
    ///
    /// With fewer than five observations the estimate interpolates the sorted
    /// buffer; with none it is `NaN`.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.count < 5 {
            let mut buffer = self.buffer;
            let sorted = &mut buffer[..self.buffered()];
            sort(sorted);
            // Linear interpolation between order statistics.
            let rank = self.q * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
        }
        self.heights[2]
    }

    /// How many buffer slots hold observations: `count` before the markers
    /// initialise, 0 after.
    fn buffered(&self) -> usize {
        if self.count < 5 {
            self.count as usize
        } else {
            0
        }
    }

    /// Exports the full sketch state for serialization.
    #[must_use]
    pub fn snapshot(&self) -> P2State {
        P2State {
            q: self.q,
            count: self.count,
            heights: self.heights,
            positions: self.positions,
            desired: self.desired,
            buffer: self.buffer,
            buffered: self.buffered(),
        }
    }

    /// Rebuilds a sketch from a [`snapshot`](Self::snapshot); returns `None`
    /// on an invalid quantile or an inconsistent buffer.  Only the first
    /// `buffered` slots of the state's buffer are read.
    #[must_use]
    pub fn restore(state: P2State) -> Option<Self> {
        let mut sketch = Self::new(state.q)?;
        if state.count < 5 && state.buffered as u64 != state.count {
            return None;
        }
        if state.count >= 5 && state.buffered != 0 {
            // Initialisation drains the buffer into the markers; a state
            // claiming both is corrupt and would diverge from the sketch
            // that produced it.
            return None;
        }
        sketch.count = state.count;
        sketch.heights = state.heights;
        sketch.positions = state.positions;
        sketch.desired = state.desired;
        let buffered = sketch.buffered();
        sketch.buffer[..buffered].copy_from_slice(&state.buffer[..buffered]);
        Some(sketch)
    }

    /// Initialises the markers from the first five observations and zeroes
    /// the buffer.
    fn initialise(&mut self) {
        self.heights = self.buffer;
        sort(&mut self.heights);
        self.buffer = [0.0; 5];
    }

    /// One P² marker-adjustment step after a new observation landed in cell
    /// `k` (i.e. between markers `k` and `k + 1`).
    fn adjust(&mut self, k: usize) {
        for pos in self.positions.iter_mut().skip(k + 1) {
            *pos += 1.0;
        }
        for (des, inc) in self.desired.iter_mut().zip(self.increments) {
            *des += inc;
        }
        for i in 1..=3 {
            let d = self.desired[i] - self.positions[i];
            let can_right = d >= 1.0 && self.positions[i + 1] - self.positions[i] > 1.0;
            let can_left = d <= -1.0 && self.positions[i - 1] - self.positions[i] < -1.0;
            if !(can_right || can_left) {
                continue;
            }
            let d = d.signum();
            let parabolic = self.heights[i]
                + d / (self.positions[i + 1] - self.positions[i - 1])
                    * ((self.positions[i] - self.positions[i - 1] + d)
                        * (self.heights[i + 1] - self.heights[i])
                        / (self.positions[i + 1] - self.positions[i])
                        + (self.positions[i + 1] - self.positions[i] - d)
                            * (self.heights[i] - self.heights[i - 1])
                            / (self.positions[i] - self.positions[i - 1]));
            if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                self.heights[i] = parabolic;
            } else {
                // Parabolic prediction left the bracket: fall back to linear.
                let j = if d > 0.0 { i + 1 } else { i - 1 };
                self.heights[i] += d * (self.heights[j] - self.heights[i])
                    / (self.positions[j] - self.positions[i]);
            }
            self.positions[i] += d;
        }
    }
}

/// Sorts observations ascending; incomparable pairs (NaN) count as equal,
/// and the sort is stable, so their arrival order decides.
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

impl StreamingEstimator for P2Quantile {
    fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.buffer[self.count as usize - 1] = x;
            if self.count == 5 {
                self.initialise();
            }
            return;
        }
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // Largest i in 0..=3 with heights[i] <= x.
            (0..=3).rfind(|&i| self.heights[i] <= x).unwrap_or(0)
        };
        self.adjust(k);
    }

    fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_the_batch_estimators() {
        let values: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37 - 5.0).collect();
        let mut m = StreamingMoments::new();
        for &v in &values {
            m.observe(v);
        }
        assert_eq!(m.count(), 100);
        // Bit-identical to the naive in-order sum, not merely close.
        assert_eq!(m.mean(), crate::estimators::mean(&values));
        assert!((m.std_dev() - crate::estimators::std_dev(&values)).abs() < 1e-9);
        assert_eq!(m.min, -5.0);
        assert_eq!(m.max, 99.0 * 0.37 - 5.0);
    }

    #[test]
    fn empty_and_single_moments_are_safe() {
        let mut m = StreamingMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        m.observe(3.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min, 3.0);
        assert_eq!(m.max, 3.0);
    }

    #[test]
    fn p2_rejects_degenerate_quantiles() {
        assert!(P2Quantile::new(0.0).is_none());
        assert!(P2Quantile::new(1.0).is_none());
        assert!(P2Quantile::new(-0.5).is_none());
        assert!(P2Quantile::new(0.5).is_some());
    }

    #[test]
    fn p2_small_streams_interpolate_exactly() {
        let mut sketch = P2Quantile::new(0.5).unwrap();
        assert!(sketch.estimate().is_nan());
        for x in [4.0, 1.0, 3.0] {
            sketch.observe(x);
        }
        assert!((sketch.estimate() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn p2_tracks_quantiles_of_a_uniform_ramp() {
        for (q, truth) in [(0.1, 100.0), (0.5, 500.0), (0.9, 900.0)] {
            let mut sketch = P2Quantile::new(q).unwrap();
            for i in 0..=1000 {
                sketch.observe(f64::from(i));
            }
            let got = sketch.estimate();
            assert!(
                (got - truth).abs() < 25.0,
                "q = {q}: got {got}, want ≈ {truth}"
            );
        }
    }

    #[test]
    fn p2_survives_constant_streams() {
        let mut sketch = P2Quantile::new(0.9).unwrap();
        for _ in 0..100 {
            sketch.observe(7.0);
        }
        assert_eq!(sketch.estimate(), 7.0);
    }

    #[test]
    fn p2_snapshot_restore_round_trips_mid_stream() {
        let mut original = P2Quantile::new(0.5).unwrap();
        for i in 0..37 {
            original.observe(f64::from(i * i % 23));
        }
        let mut restored = P2Quantile::restore(original.snapshot()).unwrap();
        // Continuing both with the same tail keeps them identical.
        for i in 0..50 {
            original.observe(f64::from(i));
            restored.observe(f64::from(i));
        }
        assert_eq!(original, restored);

        // Round-trip also works before the sketch initialises.
        let mut young = P2Quantile::new(0.1).unwrap();
        young.observe(2.0);
        young.observe(9.0);
        let back = P2Quantile::restore(young.snapshot()).unwrap();
        assert_eq!(young, back);
    }

    #[test]
    fn p2_restore_rejects_inconsistent_state() {
        let mut state = P2Quantile::new(0.5).unwrap().snapshot();
        state.count = 3; // but buffer is empty
        assert!(P2Quantile::restore(state).is_none());
        let mut bad_q = P2Quantile::new(0.5).unwrap().snapshot();
        bad_q.q = 1.5;
        assert!(P2Quantile::restore(bad_q).is_none());
        // An initialised sketch (count >= 5) must have drained its buffer;
        // a state claiming both is corrupt.
        let mut sketch = P2Quantile::new(0.5).unwrap();
        for i in 0..9 {
            sketch.observe(f64::from(i));
        }
        let mut torn = sketch.snapshot();
        torn.buffer[..2].copy_from_slice(&[1.0, 2.0]);
        torn.buffered = 2;
        assert!(P2Quantile::restore(torn).is_none());
        // A buffer claiming more slots than it has is rejected at every count.
        for count in [4, 5, 6] {
            let mut state = P2Quantile::new(0.5).unwrap().snapshot();
            state.count = count;
            state.buffered = 6;
            assert!(P2Quantile::restore(state).is_none(), "count {count}");
        }
    }

    #[test]
    fn p2_small_sample_regime_estimates_and_round_trips_exactly() {
        // Every pre-initialisation count (0..=4): the estimate is the exact
        // sorted-buffer interpolation, and snapshot -> restore reproduces
        // the sketch *exactly* (f64-bit equality via PartialEq), then
        // continues identically to the original.
        let samples = [7.5, -2.0, 7.5, 11.25]; // includes a duplicate
        for (q, truths) in [
            (0.5, [7.5, 2.75, 7.5, 7.5]),
            (0.1, [7.5, -1.05, -0.1, 0.85]),
        ] {
            let mut sketch = P2Quantile::new(q).unwrap();
            assert!(sketch.estimate().is_nan(), "empty sketch has no estimate");
            let empty = P2Quantile::restore(sketch.snapshot()).unwrap();
            assert_eq!(empty, sketch, "empty state round-trips");

            for (i, &x) in samples.iter().enumerate() {
                sketch.observe(x);
                assert_eq!(sketch.count(), i as u64 + 1);
                let got = sketch.estimate();
                let want = truths[i];
                assert!(
                    (got - want).abs() < 1e-12,
                    "q = {q}, n = {}: estimate {got} != {want}",
                    i + 1
                );
                let restored = P2Quantile::restore(sketch.snapshot()).unwrap();
                assert_eq!(restored, sketch, "q = {q}, n = {}", i + 1);
                // Exact same future: drive both across the initialisation
                // boundary and beyond.
                let mut a = sketch.clone();
                let mut b = restored;
                for j in 0..40 {
                    a.observe(f64::from(j * j % 13));
                    b.observe(f64::from(j * j % 13));
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn p2_all_duplicate_streams_stay_exact_and_round_trip() {
        // A constant stream must pin every quantile to the constant with no
        // drift (the parabolic update degenerates to equal heights), and the
        // sketch state must serialize exactly at every prefix length.
        for q in [0.1, 0.5, 0.9] {
            let mut sketch = P2Quantile::new(q).unwrap();
            for i in 0..200 {
                sketch.observe(-3.25);
                assert_eq!(
                    sketch.estimate(),
                    -3.25,
                    "q = {q}: drifted after {} duplicates",
                    i + 1
                );
                let state = sketch.snapshot();
                assert!(state.heights.iter().all(|h| h.is_finite()));
                let restored = P2Quantile::restore(state).unwrap();
                assert_eq!(restored, sketch);
            }
        }
    }

    #[test]
    fn moments_small_and_duplicate_streams_round_trip_through_public_state() {
        // StreamingMoments exposes its state as public fields; rebuilding
        // from them must be exact in the same regimes.
        let mut m = StreamingMoments::new();
        for _ in 0..3 {
            m.observe(0.1); // 0.1 is not exactly representable: sums wobble
        }
        let copy = StreamingMoments { ..m };
        assert_eq!(copy, m);
        assert_eq!(m.count(), 3);
        assert_eq!(m.min, 0.1);
        assert_eq!(m.max, 0.1);
        assert_eq!(m.mean(), (0.1 + 0.1 + 0.1) / 3.0, "in-order sum exactly");
    }

    /// A reference P² sketch that buffers in a heap `Vec`; the inline
    /// buffer must reproduce it bit for bit.
    struct VecSketch {
        q: f64,
        count: u64,
        heights: [f64; 5],
        positions: [f64; 5],
        desired: [f64; 5],
        increments: [f64; 5],
        buffer: Vec<f64>,
    }

    impl VecSketch {
        fn new(q: f64) -> Self {
            Self {
                q,
                count: 0,
                heights: [0.0; 5],
                positions: [1.0, 2.0, 3.0, 4.0, 5.0],
                desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
                increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
                buffer: Vec::with_capacity(5),
            }
        }

        fn sorted_buffer(&self) -> Vec<f64> {
            let mut sorted = self.buffer.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            sorted
        }

        fn estimate(&self) -> f64 {
            if self.count == 0 {
                return f64::NAN;
            }
            if self.count < 5 {
                let sorted = self.sorted_buffer();
                let rank = self.q * (sorted.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let frac = rank - lo as f64;
                return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
            }
            self.heights[2]
        }

        fn observe(&mut self, x: f64) {
            self.count += 1;
            if self.count <= 5 {
                self.buffer.push(x);
                if self.count == 5 {
                    let sorted = self.sorted_buffer();
                    for (h, s) in self.heights.iter_mut().zip(sorted) {
                        *h = s;
                    }
                    self.buffer.clear();
                }
                return;
            }
            let k = if x < self.heights[0] {
                self.heights[0] = x;
                0
            } else if x >= self.heights[4] {
                self.heights[4] = x;
                3
            } else {
                (0..=3).rfind(|&i| self.heights[i] <= x).unwrap_or(0)
            };
            for pos in self.positions.iter_mut().skip(k + 1) {
                *pos += 1.0;
            }
            for (des, inc) in self.desired.iter_mut().zip(self.increments) {
                *des += inc;
            }
            for i in 1..=3 {
                let d = self.desired[i] - self.positions[i];
                let can_right = d >= 1.0 && self.positions[i + 1] - self.positions[i] > 1.0;
                let can_left = d <= -1.0 && self.positions[i - 1] - self.positions[i] < -1.0;
                if !(can_right || can_left) {
                    continue;
                }
                let d = d.signum();
                let (p, h) = (self.positions, self.heights);
                let parabolic = h[i]
                    + d / (p[i + 1] - p[i - 1])
                        * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                            + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]));
                if h[i - 1] < parabolic && parabolic < h[i + 1] {
                    self.heights[i] = parabolic;
                } else {
                    let j = if d > 0.0 { i + 1 } else { i - 1 };
                    self.heights[i] += d * (h[j] - h[i]) / (p[j] - p[i]);
                }
                self.positions[i] += d;
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A stream with many ties, signed zeros and wide magnitudes, from a
    /// SplitMix64 counter.
    fn stream(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..len)
            .map(|_| {
                let word = next();
                match word % 6 {
                    0 => [0.0, -0.0, 1.0, -2.5, 1e300][(word >> 8) as usize % 5],
                    1 => f64::from((word >> 8) as u32 % 7),
                    2 => (word >> 11) as f64 * -1e-12,
                    _ => (word >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0,
                }
            })
            .collect()
    }

    /// Feeds `values` to the inline sketch and the reference, checking
    /// after every observation that estimates and states agree bit for bit
    /// and that the snapshot restores to an equal sketch, which then keeps
    /// pace with the original through the rest of the stream.
    fn check_against_reference(q: f64, values: &[f64]) {
        let mut sketch = P2Quantile::new(q).unwrap();
        let mut reference = VecSketch::new(q);
        for (seen, &x) in values.iter().enumerate() {
            sketch.observe(x);
            reference.observe(x);
            let at = format!("q = {q}, after {} of {values:?}", seen + 1);
            assert_eq!(
                sketch.estimate().to_bits(),
                reference.estimate().to_bits(),
                "{at}"
            );
            let state = sketch.snapshot();
            assert_eq!(state.count, reference.count, "{at}");
            assert_eq!(bits(&state.heights), bits(&reference.heights), "{at}");
            assert_eq!(bits(&state.positions), bits(&reference.positions), "{at}");
            assert_eq!(bits(&state.desired), bits(&reference.desired), "{at}");
            assert_eq!(bits(state.observations()), bits(&reference.buffer), "{at}");
            assert!(
                state.buffer[state.buffered..]
                    .iter()
                    .all(|v| v.to_bits() == 0),
                "{at}: unused slots must stay 0.0"
            );
            let mut restored = P2Quantile::restore(state.clone()).unwrap();
            assert_eq!(restored.snapshot(), state, "{at}");
            assert_eq!(restored, sketch, "{at}");
            let mut original = sketch.clone();
            for &y in &values[seen + 1..] {
                original.observe(y);
                restored.observe(y);
                assert_eq!(restored, original, "{at}, continued with {y}");
            }
        }
    }

    #[test]
    fn p2_inline_buffer_matches_the_vec_reference() {
        for q in [0.1, 0.25, 0.5, 0.9] {
            for len in 0..=12 {
                for seed in 0..40 {
                    check_against_reference(q, &stream(seed * 13 + len as u64, len));
                }
            }
        }
    }

    #[test]
    fn p2_inline_buffer_matches_the_vec_reference_on_long_streams() {
        for q in [0.1, 0.5, 0.9] {
            for seed in 0..3 {
                let values = stream(1_000 + seed, 2_000);
                let mut sketch = P2Quantile::new(q).unwrap();
                let mut reference = VecSketch::new(q);
                for &x in &values {
                    sketch.observe(x);
                    reference.observe(x);
                    assert_eq!(sketch.estimate().to_bits(), reference.estimate().to_bits());
                }
                let state = sketch.snapshot();
                assert_eq!(bits(&state.heights), bits(&reference.heights));
                assert_eq!(bits(&state.positions), bits(&reference.positions));
                assert_eq!(bits(&state.desired), bits(&reference.desired));
                assert_eq!(state.buffer, [0.0; 5]);
                assert_eq!(P2Quantile::restore(state).unwrap(), sketch);
            }
        }
        // The prefix-by-prefix check, restores included, on one long stream.
        check_against_reference(0.5, &stream(7, 300));
    }
}
