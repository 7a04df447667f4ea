//! Closed-form predictions from the paper: complexities, lower bounds, and the
//! per-phase guarantees that the experiments compare measurements against.

/// Asymptotic shape of the protocol's round complexity (Theorem 2.17):
/// `constant · ln n / ε²`.
#[must_use]
pub fn predicted_rounds(n: usize, epsilon: f64, constant: f64) -> f64 {
    constant * (n as f64).ln() / (epsilon * epsilon)
}

/// Asymptotic shape of the protocol's message/bit complexity (Theorem 2.17):
/// `constant · n · ln n / ε²`.
#[must_use]
pub fn predicted_messages(n: usize, epsilon: f64, constant: f64) -> f64 {
    n as f64 * predicted_rounds(n, epsilon, constant)
}

/// Round-complexity lower bound of §1.4: every agent needs `Ω(ln n / ε²)`
/// received bits even if all of them came straight from the source, and it can
/// accept at most one per round.
#[must_use]
pub fn lower_bound_rounds(n: usize, epsilon: f64, constant: f64) -> f64 {
    constant * (n as f64).ln() / (epsilon * epsilon)
}

/// Message-complexity lower bound of §1.4: `Ω(n·ln n / ε²)` total bits.
#[must_use]
pub fn lower_bound_messages(n: usize, epsilon: f64, constant: f64) -> f64 {
    n as f64 * lower_bound_rounds(n, epsilon, constant)
}

/// Shannon-style two-party bound (§1.4): the number of uses of a binary
/// symmetric channel with crossover `1/2 − ε` needed to learn one bit with
/// error probability at most `failure`, up to constants: `ln(1/failure)/(2ε²)`.
///
/// This is the `Θ(1/ε²)` sample bound instantiated with the standard
/// Chernoff/KL constant for a majority decoder.
#[must_use]
pub fn two_party_samples(epsilon: f64, failure: f64) -> f64 {
    if failure <= 0.0 || failure >= 1.0 {
        return f64::INFINITY;
    }
    (1.0 / failure).ln() / (2.0 * epsilon * epsilon)
}

/// Per-sample correctness during Stage II (Lemma 2.11): sampling a population
/// with bias `δ` over a channel with margin `ε` yields a correct bit with
/// probability `1/2 + 2εδ`.
#[must_use]
pub fn noisy_sample_correct_probability(epsilon: f64, delta: f64) -> f64 {
    (0.5 + 2.0 * epsilon * delta).clamp(0.0, 1.0)
}

/// The bias the paper guarantees at the end of Stage I (Lemma 2.3):
/// `constant · √(ln n / n)`.
#[must_use]
pub fn stage1_final_bias(n: usize, constant: f64) -> f64 {
    constant * ((n as f64).ln() / n as f64).sqrt()
}

/// The per-phase growth guarantee of Stage II (Lemma 2.14): from a bias of
/// `δ`, one phase reaches at least `min{1.7·δ, 1/800}` — provided
/// `δ ≥ c·√(ln n / n)`.
#[must_use]
pub fn lemma_2_14_next_bias(delta: f64) -> f64 {
    (1.7 * delta).min(1.0 / 800.0)
}

/// The additive overhead of removing the global clock (Theorem 3.1):
/// `constant · ln² n` rounds.
#[must_use]
pub fn async_overhead_rounds(n: usize, constant: f64) -> f64 {
    let ln_n = (n as f64).ln();
    constant * ln_n * ln_n
}

/// Claim 2.2: at the end of phase 0 the activated set has size in
/// `[βs/3, βs]` and bias at least `ε/2`.  Returns `(min_activated, max_activated,
/// min_bias)` for the given phase-0 length.
#[must_use]
pub fn claim_2_2_bounds(beta_s: u64, epsilon: f64) -> (f64, f64, f64) {
    (beta_s as f64 / 3.0, beta_s as f64, epsilon / 2.0)
}

/// Claim 2.4: after phase `i` the activated population `X_i` satisfies
/// `(β+1)^i·X₀/16 ≤ X_i ≤ (β+1)^i·X₀`.  Returns `(lower, upper)`.
#[must_use]
pub fn claim_2_4_bounds(beta: u64, x0: u64, i: u32) -> (f64, f64) {
    let growth = (beta as f64 + 1.0).powi(i as i32);
    (growth * x0 as f64 / 16.0, growth * x0 as f64)
}

/// Claim 2.8: the per-level bias satisfies `ε_i ≥ ε^{i+1}/2`.
#[must_use]
pub fn claim_2_8_bias_lower_bound(epsilon: f64, level: u32) -> f64 {
    epsilon.powi(level as i32 + 1) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexities_scale_as_documented() {
        let base = predicted_rounds(1_000, 0.2, 1.0);
        assert!(predicted_rounds(1_000_000, 0.2, 1.0) / base > 1.9);
        assert!((predicted_rounds(1_000, 0.1, 1.0) / base - 4.0).abs() < 1e-9);
        assert!(
            (predicted_messages(1_000, 0.2, 1.0) / predicted_rounds(1_000, 0.2, 1.0) - 1_000.0)
                .abs()
                < 1e-6
        );
        assert_eq!(
            lower_bound_messages(500, 0.25, 1.0),
            500.0 * lower_bound_rounds(500, 0.25, 1.0)
        );
    }

    #[test]
    fn two_party_bound_grows_with_confidence_and_noise() {
        assert!(two_party_samples(0.1, 0.01) > two_party_samples(0.3, 0.01));
        assert!(two_party_samples(0.1, 0.0001) > two_party_samples(0.1, 0.01));
        assert_eq!(two_party_samples(0.1, 0.0), f64::INFINITY);
        assert_eq!(two_party_samples(0.1, 1.0), f64::INFINITY);
    }

    #[test]
    fn sample_correctness_is_clamped() {
        assert!((noisy_sample_correct_probability(0.2, 0.1) - 0.54).abs() < 1e-12);
        assert_eq!(noisy_sample_correct_probability(0.5, 0.6), 1.0);
    }

    #[test]
    fn stage1_bias_shrinks_with_n() {
        assert!(stage1_final_bias(1_000, 1.0) > stage1_final_bias(100_000, 1.0));
    }

    #[test]
    fn lemma_2_14_growth_caps_at_the_plateau() {
        assert!((lemma_2_14_next_bias(0.0005) - 0.00085).abs() < 1e-9);
        assert!((lemma_2_14_next_bias(0.1) - 1.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn async_overhead_is_polylogarithmic() {
        let small = async_overhead_rounds(1_000, 1.0);
        let large = async_overhead_rounds(1_000_000, 1.0);
        assert!(large / small < 5.0, "log² growth is tame");
    }

    #[test]
    fn claim_bounds_have_sane_shapes() {
        let (lo, hi, bias) = claim_2_2_bounds(300, 0.2);
        assert!(lo < hi);
        assert!((bias - 0.1).abs() < 1e-12);

        let (lo, hi) = claim_2_4_bounds(10, 50, 2);
        assert!((hi / lo - 16.0).abs() < 1e-9);
        assert!((hi - 121.0 * 50.0).abs() < 1e-9);

        assert!(claim_2_8_bias_lower_bound(0.2, 0) > claim_2_8_bias_lower_bound(0.2, 1));
        assert!((claim_2_8_bias_lower_bound(0.2, 0) - 0.1).abs() < 1e-12);
    }
}
