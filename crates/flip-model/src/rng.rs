//! Deterministic random number generation for simulations.
//!
//! [`SimRng`] is the hot-path generator: a counter-mixed SplitMix64 core
//! (vendored in `vendor/rand` as [`rand::split_mix64`]) with batched refill
//! ([`SimRng::fill_u64`]), a Lemire nearly-divisionless bounded sampler
//! ([`SimRng::gen_index`]) and the geometric skip-sampler
//! ([`BernoulliSkip`]) that lets the engine fuse channel noise into routing.

use rand::{split_mix64, RngCore, GOLDEN_GAMMA};

/// `1 / 2^53`, for converting 53 random mantissa bits into a unit f64.
const UNIT_F64: f64 = 1.0 / (1u64 << 53) as f64;

/// The random number generator threaded through every simulation.
///
/// All randomness in a [`Simulation`](crate::Simulation) — protocol coin
/// flips, gossip recipient choices, collision resolution and channel noise —
/// is derived from a single `SimRng` seeded by the caller, so that every run
/// is exactly reproducible from its seed.
///
/// The core is a SplitMix64 counter generator: output `k` of a stream is
/// `split_mix64(origin + k·γ)`, two multiplies and a handful of xor-shifts
/// with the whole state in one register.  Because outputs carry no loop-borne
/// data dependency beyond the counter increment, [`SimRng::fill_u64`]
/// generates batches at full instruction-level parallelism, and single draws
/// ([`next_u64`](RngCore::next_u64)) are branch-free.
///
/// # Example
///
/// ```
/// use flip_model::SimRng;
/// use rand::Rng;
///
/// let mut a = SimRng::from_seed(1);
/// let mut b = SimRng::from_seed(1);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
///
/// Two generators compare equal exactly when they will produce the same
/// stream, which is how the engine checks that a hook left a copy untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    /// The counter: the raw (pre-mix) argument of the last word produced.
    state: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        // Scramble the seed (murmur3-style finalizer, distinct from the
        // SplitMix64 output mix) so that nearby seeds land in counter
        // positions astronomically far apart.
        let mut z = seed ^ 0x1F0A_2BE7_1D4C_9E85;
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^= z >> 33;
        Self { state: z }
    }

    /// Derives the seed of an independent child stream from a master seed:
    /// the mixer shared by [`SimRng::fork`] and the experiment harness's
    /// per-trial seed derivation, so "one master seed, many well-separated
    /// streams" has exactly one definition in the workspace.
    #[must_use]
    pub fn stream_seed(master: u64, stream: u64) -> u64 {
        split_mix64(master ^ stream.wrapping_mul(GOLDEN_GAMMA))
    }

    /// Derives an independent child generator for a named stream.
    ///
    /// Useful when running many trials in parallel from one master seed: each
    /// trial gets `master.fork(trial_index)` and the streams do not interact.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> Self {
        let base = self.next_u64();
        Self::from_seed(Self::stream_seed(base, stream))
    }

    /// Fills `dest` with random words in one batched pass.
    ///
    /// Counter-based generation: word `i` is `split_mix64(base + (i+1)·γ)`,
    /// with no dependency between loop iterations, so the mixes of adjacent
    /// words overlap in the pipeline.  The stream is identical to calling
    /// [`next_u64`](RngCore::next_u64) `dest.len()` times.
    pub fn fill_u64(&mut self, dest: &mut [u64]) {
        let base = self.state;
        for (i, slot) in dest.iter_mut().enumerate() {
            *slot = split_mix64(base.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN_GAMMA)));
        }
        self.state = base.wrapping_add((dest.len() as u64).wrapping_mul(GOLDEN_GAMMA));
    }

    /// Reserves a block of `count` words from the stream and returns its
    /// counter base: word `i` of the block is
    /// `split_mix64(base + (i + 1)·γ)`, exactly the words
    /// [`SimRng::fill_u64`] would have written into a `count`-sized buffer.
    ///
    /// This is the allocation-free form of `fill_u64` for consumers that
    /// can re-mix words on the fly (the gossip scheduler's routing passes
    /// recompute a message's word wherever they need it instead of storing
    /// a population-sized word buffer): the generator state advances past
    /// the block immediately, so interleaved single draws
    /// ([`next_u64`](RngCore::next_u64), e.g. Lemire rejection redraws)
    /// continue the stream identically to the buffered version.
    #[must_use]
    pub fn reserve_block(&mut self, count: usize) -> u64 {
        let base = self.state;
        self.state = base.wrapping_add((count as u64).wrapping_mul(GOLDEN_GAMMA));
        base
    }

    /// Word `i` of a block reserved with [`SimRng::reserve_block`].
    #[inline(always)]
    #[must_use]
    pub fn block_word(base: u64, i: usize) -> u64 {
        split_mix64(base.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Draws a uniform index in `[0, bound)` with Lemire's nearly-divisionless
    /// method: one multiply and one compare on the common path, the modulo
    /// confined to a rejection branch of probability `bound / 2^64`.
    ///
    /// For a bound sampled many times, cache the rejection threshold instead
    /// of recomputing it: [`rand::distributions::UniformIndex`] is the
    /// reusable 64-bit form, and the gossip scheduler inlines the same
    /// technique at 32 bits for its recipient draws.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `bound` is zero.
    #[inline]
    #[must_use]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "cannot sample an empty range");
        rand::sample_below(self, bound as u64) as usize
    }

    /// A uniform f64 in the half-open interval `(0, 1]` (never zero, so it is
    /// safe to take its logarithm).
    #[inline]
    #[must_use]
    pub fn f64_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * UNIT_F64
    }

    /// Returns `true` with the given probability.
    ///
    /// Out-of-range probabilities are clamped: `p ≤ 0` never fires and
    /// `p ≥ 1` always fires.
    #[must_use]
    pub fn chance(&mut self, probability: f64) -> bool {
        if probability <= 0.0 {
            false
        } else if probability >= 1.0 {
            true
        } else {
            (self.next_u64() >> 11) as f64 * UNIT_F64 < probability
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        split_mix64(self.state)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let len = chunk.len();
            chunk.copy_from_slice(&bytes[..len]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// `ln(x)` for `x ∈ (0, 1]`, accurate to ~10⁻¹⁰, inlined and branch-light.
///
/// Splits `x` into mantissa and exponent, reduces the mantissa to
/// `[0.75, 1.5)` and evaluates the atanh series of `ln m` (with
/// `t = (m−1)/(m+1)`, `|t| ≤ 0.2`, seven terms).  The libm `ln` costs ~8 ns
/// per call through its function-call boundary; this runs in roughly half
/// that and inlines into the skip-sampling loop.
#[inline]
fn ln_unit(x: f64) -> f64 {
    const MANTISSA_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
    const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
    let bits = x.to_bits();
    let exponent = ((bits >> 52) as i64 - 1023) as f64;
    let mantissa = f64::from_bits((bits & MANTISSA_MASK) | ONE_BITS);
    // Reduce to [0.75, 1.5) (select, not branch: the predicate is random).
    let reduce = mantissa >= 1.5;
    let m = if reduce { 0.5 * mantissa } else { mantissa };
    let e = exponent + f64::from(u8::from(reduce));
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // Plain mul/add Horner (f64::mul_add would fall back to a libm call on
    // targets without native FMA, costing more than it saves).
    let series = 1.0
        + t2 * (1.0 / 3.0
            + t2 * (1.0 / 5.0
                + t2 * (1.0 / 7.0
                    + t2 * (1.0 / 9.0
                        + t2 * (1.0 / 11.0 + t2 * (1.0 / 13.0 + t2 * (1.0 / 15.0)))))));
    2.0 * t * series + e * std::f64::consts::LN_2
}

/// A geometric skip-sampler over a stream of i.i.d. Bernoulli(`p`) trials.
///
/// Instead of drawing one Bernoulli per trial, the sampler draws the *gap*
/// until the next success directly: `K = ⌊ln U / ln(1−p)⌋` with
/// `U ∈ (0, 1]` is exactly geometrically distributed, so walking a stream by
/// `K` failures, one success, `K'` failures, … reproduces the i.i.d.
/// Bernoulli process while spending one `ln` per *success* instead of one
/// draw per *trial*.  The engine uses this to fuse fixed-crossover channel
/// noise into message delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliSkip {
    /// `1 / ln(1 − p)` (negative, since `p ∈ (0, 1)`).
    inv_ln_keep: f64,
}

impl BernoulliSkip {
    /// Creates a skip-sampler for success probability `p`.
    ///
    /// Returns `None` when successes are impossible to represent: `p ≤ 0`,
    /// or `p` so small that `1 − p` rounds to `1.0` (a gap beyond any
    /// realistic stream length).  `p ≥ 1` is rejected as well — a
    /// probability-one success needs no sampler.
    #[must_use]
    pub fn new(p: f64) -> Option<Self> {
        if !(0.0..1.0).contains(&p) {
            return None;
        }
        let ln_keep = (1.0 - p).ln();
        if ln_keep == 0.0 {
            // p = 0, p = −0.0, or p subnormal/tiny enough that `1 − p`
            // rounds to exactly 1.0: a sampler would turn `1 / ln(1)` into
            // infinite gaps, so "no successes, ever" is expressed as "no
            // sampler" instead and callers skip the stream without drawing.
            return None;
        }
        // For every accepted p, ln(1 − p) is strictly negative and finite
        // (p < 1 keeps the argument ≥ the smallest normal above 0), so gaps
        // can never be NaN or negative.
        debug_assert!(ln_keep < 0.0 && ln_keep.is_finite());
        Some(Self {
            inv_ln_keep: ln_keep.recip(),
        })
    }

    /// Draws the number of failures before the next success (possibly zero).
    ///
    /// Values beyond `usize::MAX` saturate, which callers read as "no success
    /// within any stream this process can hold".
    #[inline]
    #[must_use]
    pub fn gap(&self, rng: &mut SimRng) -> usize {
        // U ∈ (0, 1] keeps ln finite; the f64→usize cast saturates.
        (ln_unit(rng.f64_open01()) * self.inv_ln_keep) as usize
    }

    /// Calls `on_success` with the index of every success in a stream of
    /// `stream_len` i.i.d. Bernoulli(`p`) trials, in increasing order.
    ///
    /// Gaps are drawn in small batches: successive success positions form a
    /// serial chain, but the logarithms behind the gaps do not depend on the
    /// positions, so evaluating a batch ahead of the walk lets them pipeline
    /// instead of serialising on the `ln` latency.  (A batch may overshoot
    /// the stream; the spare draws simply advance the RNG, which keeps the
    /// stream deterministic for a given seed and call sequence.)
    pub fn for_each_success(
        &self,
        rng: &mut SimRng,
        stream_len: usize,
        mut on_success: impl FnMut(usize),
    ) {
        const BATCH: usize = 16;
        let mut position = 0usize;
        let mut stride = 0usize; // 0 before the first success, 1 after
        loop {
            let mut gaps = [0usize; BATCH];
            for gap in &mut gaps {
                *gap = self.gap(rng);
            }
            for &gap in &gaps {
                position = position.saturating_add(stride).saturating_add(gap);
                stride = 1;
                if position >= stream_len {
                    return;
                }
                on_success(position);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(99);
        let mut b = SimRng::from_seed(99);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fill_u64_produces_exactly_the_single_draw_stream() {
        let mut batched = SimRng::from_seed(7);
        let mut single = SimRng::from_seed(7);
        let mut buf = vec![0u64; 100];
        batched.fill_u64(&mut buf);
        for (i, &word) in buf.iter().enumerate() {
            assert_eq!(word, single.next_u64(), "word {i}");
        }
        // And the streams stay aligned after the batch.
        for _ in 0..16 {
            assert_eq!(batched.next_u64(), single.next_u64());
        }
    }

    #[test]
    fn reserve_block_matches_fill_u64_exactly() {
        let mut buffered = SimRng::from_seed(7);
        let mut reserved = SimRng::from_seed(7);
        let mut buf = vec![0u64; 57];
        buffered.fill_u64(&mut buf);
        let base = reserved.reserve_block(57);
        for (i, &word) in buf.iter().enumerate() {
            assert_eq!(word, SimRng::block_word(base, i), "word {i}");
        }
        // Streams stay aligned after the block on both sides.
        for _ in 0..16 {
            assert_eq!(buffered.next_u64(), reserved.next_u64());
        }
    }

    #[test]
    fn forked_streams_are_deterministic() {
        let mut master1 = SimRng::from_seed(5);
        let mut master2 = SimRng::from_seed(5);
        let mut c1 = master1.fork(3);
        let mut c2 = master2.fork(3);
        for _ in 0..16 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn forked_streams_diverge_by_stream_id() {
        let mut master = SimRng::from_seed(5);
        let mut c1 = master.fork(1);
        let mut master = SimRng::from_seed(5);
        let mut c2 = master.fork(2);
        let same = (0..16).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn stream_seed_is_deterministic_and_separating() {
        assert_eq!(SimRng::stream_seed(1, 2), SimRng::stream_seed(1, 2));
        assert_ne!(SimRng::stream_seed(1, 2), SimRng::stream_seed(1, 3));
        assert_ne!(SimRng::stream_seed(1, 2), SimRng::stream_seed(2, 2));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::from_seed(0);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::from_seed(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn gen_range_works_via_rng_trait() {
        let mut rng = SimRng::from_seed(4);
        for _ in 0..100 {
            let x: usize = rng.gen_range(0..10);
            assert!(x < 10);
        }
    }

    #[test]
    fn gen_index_respects_bounds_and_covers_them() {
        let mut rng = SimRng::from_seed(8);
        let mut seen = [false; 9];
        for _ in 0..1_000 {
            seen[rng.gen_index(9)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_open01_is_positive_and_at_most_one() {
        let mut rng = SimRng::from_seed(12);
        for _ in 0..10_000 {
            let u = rng.f64_open01();
            assert!(u > 0.0 && u <= 1.0, "u = {u}");
        }
    }

    #[test]
    fn bernoulli_skip_rejects_degenerate_probabilities() {
        assert!(BernoulliSkip::new(0.0).is_none());
        assert!(BernoulliSkip::new(-0.1).is_none());
        assert!(BernoulliSkip::new(1.0).is_none());
        assert!(BernoulliSkip::new(1e-300).is_none());
        assert!(BernoulliSkip::new(0.5).is_some());
        assert!(BernoulliSkip::new(f64::NAN).is_none());
    }

    #[test]
    fn ln_unit_matches_libm_to_ten_decimals() {
        let mut rng = SimRng::from_seed(33);
        for _ in 0..100_000 {
            let u = rng.f64_open01();
            let fast = ln_unit(u);
            let exact = u.ln();
            assert!(
                (fast - exact).abs() <= 1e-10 * exact.abs().max(1e-12),
                "u = {u}, fast = {fast}, exact = {exact}"
            );
        }
        assert_eq!(ln_unit(1.0), 0.0);
        // Smallest value f64_open01 can produce.
        let tiny = 1.0 / (1u64 << 53) as f64;
        assert!((ln_unit(tiny) - tiny.ln()).abs() < 1e-9);
    }

    #[test]
    fn for_each_success_positions_are_increasing_and_calibrated() {
        let p = 0.25;
        let skip = BernoulliSkip::new(p).unwrap();
        let mut rng = SimRng::from_seed(55);
        let stream_len = 1_000usize;
        let rounds = 400u32;
        let mut total = 0u64;
        for _ in 0..rounds {
            let mut last: Option<usize> = None;
            skip.for_each_success(&mut rng, stream_len, |pos| {
                assert!(pos < stream_len);
                if let Some(prev) = last {
                    assert!(pos > prev, "positions must strictly increase");
                }
                last = Some(pos);
                total += 1;
            });
        }
        let mean = total as f64 / f64::from(rounds);
        let expected = stream_len as f64 * p;
        let sigma = (stream_len as f64 * p * (1.0 - p) / f64::from(rounds)).sqrt();
        assert!(
            (mean - expected).abs() < 6.0 * sigma,
            "mean flips {mean:.1} vs expected {expected:.1}"
        );
    }

    #[test]
    fn for_each_success_handles_empty_streams() {
        let skip = BernoulliSkip::new(0.5).unwrap();
        let mut rng = SimRng::from_seed(56);
        skip.for_each_success(&mut rng, 0, |_| panic!("no successes in an empty stream"));
    }

    #[test]
    fn bernoulli_skip_mean_gap_matches_geometry() {
        // Mean gap of Geometric(p) is (1 - p) / p.
        let p = 0.3;
        let skip = BernoulliSkip::new(p).unwrap();
        let mut rng = SimRng::from_seed(21);
        let trials = 200_000;
        let total: u64 = (0..trials).map(|_| skip.gap(&mut rng) as u64).sum();
        let mean = total as f64 / f64::from(trials);
        let expected = (1.0 - p) / p;
        assert!((mean - expected).abs() < 0.02, "mean gap = {mean}");
    }
}
