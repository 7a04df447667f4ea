//! Protocol parameters derived from the population size `n` and noise margin `ε`.

use flip_model::FlipError;

/// All tunable constants of the two-stage protocol.
///
/// The paper fixes its constants (`s`, `β`, `f` of Stage I; `r`, `γ`, `k` of
/// Stage II) only up to "sufficiently large" multiples of `1/ε²` — the
/// literal values chosen in the proofs (e.g. `r = ⌈2²²/ε²⌉` in §2.2.2) are far
/// larger than anything needed in practice.  `Params` therefore separates the
/// *structure* (which is exactly the paper's) from the *multipliers*, and
/// offers two presets:
///
/// * [`Params::practical`] — calibrated multipliers that preserve the
///   asymptotic shape (`Θ(log n / ε²)` rounds) at laptop-scale populations and
///   succeed with high probability in simulation; used throughout the
///   experiments.
/// * [`Params::paper_strict`] — the literal constants of the paper, provided
///   for completeness (runs are enormous; only sensible for tiny `n`).
///
/// # Derived quantities (paper §2.1.2 and §2.2.2)
///
/// * `βs = ⌈s·ln n⌉` — length of Stage I phase 0 (only the source speaks).
/// * `β` — length of each intermediate Stage I phase.
/// * `βf = ⌈f·ln n⌉` — length of the last Stage I phase.
/// * `T = ⌊ln(n / 2βs) / ln(β + 1)⌋` — number of intermediate phases.
/// * `γ` (odd) — Stage II sample count; each of the first `k` Stage II phases
///   has `2γ` rounds.
/// * `k` — number of doubling phases, `Θ(log n)`.
/// * `m_final` — length of the final Stage II phase, `Θ(log n / ε²)`.
///
/// # Example
///
/// ```
/// use breathe::Params;
///
/// let params = Params::practical(2_000, 0.2).unwrap();
/// assert!(params.stage1_intermediate_phases() <= 4);
/// assert!(params.gamma() % 2 == 1);
/// assert!(params.total_rounds() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    n: usize,
    epsilon: f64,
    /// Stage I: `s = s_mult / ε²`.
    s_mult: f64,
    /// Stage I: `β = β_mult / ε²`.
    beta_mult: f64,
    /// Stage I: `f = f_mult / ε²`.
    f_mult: f64,
    /// Stage II: `γ ≈ γ_mult / ε²` (rounded up to an odd integer).
    gamma_mult: f64,
    /// Stage II: extra doubling phases beyond `⌈log2 √(n / ln n)⌉`.
    extra_boost_phases: usize,
    /// Stage II: final phase length `≈ final_mult · ln n / ε²`.
    final_mult: f64,
}

impl Params {
    /// Practical defaults preserving the paper's structure at simulation scale.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`] if `n < 8`,
    /// [`FlipError::InvalidEpsilon`] if `ε ∉ (0, 1/2]`, and
    /// [`FlipError::InvalidParameter`] naming the floor if `ε < 1/√n` (the
    /// paper requires `ε > n^{-1/2+η}`).
    pub fn practical(n: usize, epsilon: f64) -> Result<Self, FlipError> {
        Self::with_multipliers(n, epsilon, Multipliers::practical())
    }

    /// The literal constants used in the paper's proofs (§2.1.2, §2.2.2).
    ///
    /// These are enormous (`γ ≈ 2²³/ε²`); use only for tiny demonstrations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Params::practical`].
    pub fn paper_strict(n: usize, epsilon: f64) -> Result<Self, FlipError> {
        Self::with_multipliers(n, epsilon, Multipliers::paper_strict())
    }

    /// Builds parameters with explicit multipliers.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`], [`FlipError::InvalidEpsilon`]
    /// or [`FlipError::InvalidParameter`] under the conditions of
    /// [`Params::practical`], and [`FlipError::InvalidParameter`] when a
    /// multiplier is not positive.
    pub fn with_multipliers(
        n: usize,
        epsilon: f64,
        multipliers: Multipliers,
    ) -> Result<Self, FlipError> {
        if n < 8 {
            return Err(FlipError::PopulationTooSmall { n });
        }
        if !epsilon.is_finite() || epsilon <= 0.0 || epsilon > 0.5 {
            return Err(FlipError::InvalidEpsilon { epsilon });
        }
        let floor = 1.0 / (n as f64).sqrt();
        if epsilon < floor {
            return Err(FlipError::InvalidParameter {
                name: "epsilon",
                message: format!("{epsilon} is below 1/√n = {floor:.4} for n = {n}"),
            });
        }
        multipliers.validate()?;
        Ok(Self {
            n,
            epsilon,
            s_mult: multipliers.s_mult,
            beta_mult: multipliers.beta_mult,
            f_mult: multipliers.f_mult,
            gamma_mult: multipliers.gamma_mult,
            extra_boost_phases: multipliers.extra_boost_phases,
            final_mult: multipliers.final_mult,
        })
    }

    /// The population size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The noise margin `ε` (each bit is flipped with probability `1/2 − ε`).
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Natural logarithm of `n`, the `log n` factor used throughout.
    #[must_use]
    pub fn ln_n(&self) -> f64 {
        (self.n as f64).ln()
    }

    /// `1/ε²`, the noise penalty factor.
    #[must_use]
    pub fn inv_eps_sq(&self) -> f64 {
        1.0 / (self.epsilon * self.epsilon)
    }

    /// Stage I phase 0 length `βs = ⌈s · ln n⌉` (only the source transmits).
    #[must_use]
    pub fn beta_s(&self) -> u64 {
        ((self.s_mult * self.inv_eps_sq() * self.ln_n()).ceil() as u64).max(4)
    }

    /// Stage I intermediate phase length `β = ⌈β_mult / ε²⌉`.
    #[must_use]
    pub fn beta(&self) -> u64 {
        ((self.beta_mult * self.inv_eps_sq()).ceil() as u64).max(2)
    }

    /// Stage I final phase length `βf = ⌈f · ln n⌉`.
    #[must_use]
    pub fn beta_f(&self) -> u64 {
        ((self.f_mult * self.inv_eps_sq() * self.ln_n()).ceil() as u64).max(4)
    }

    /// Number `T` of intermediate Stage I phases:
    /// `T = ⌊ln(n / 2βs) / ln(β + 1)⌋`, clamped to be non-negative.
    #[must_use]
    pub fn stage1_intermediate_phases(&self) -> usize {
        let beta_s = self.beta_s() as f64;
        let beta = self.beta() as f64;
        let ratio = self.n as f64 / (2.0 * beta_s);
        if ratio <= 1.0 {
            return 0;
        }
        (ratio.ln() / (beta + 1.0).ln()).floor() as usize
    }

    /// Stage II sample count `γ` (always odd so majorities are never tied).
    #[must_use]
    pub fn gamma(&self) -> u64 {
        let raw = (self.gamma_mult * self.inv_eps_sq()).ceil() as u64;
        let raw = raw.max(3);
        if raw.is_multiple_of(2) {
            raw + 1
        } else {
            raw
        }
    }

    /// Number `k` of Stage II doubling phases.
    ///
    /// The end-of-Stage-I bias is `Ω(√(ln n / n))`, so
    /// `k = ⌈log₂ √(n / ln n)⌉ + extra` doublings reach a constant bias.
    #[must_use]
    pub fn boost_phases(&self) -> usize {
        let delta1 = (self.ln_n() / self.n as f64).sqrt();
        let k = (1.0 / delta1).log2().ceil().max(1.0) as usize;
        k + self.extra_boost_phases
    }

    /// Length of each of the first `k` Stage II phases: `2γ` rounds.
    #[must_use]
    pub fn boost_phase_len(&self) -> u64 {
        2 * self.gamma()
    }

    /// Number of samples taken by a successful agent in the final Stage II
    /// phase (odd by construction).
    #[must_use]
    pub fn final_samples(&self) -> u64 {
        let half = (self.final_mult * self.ln_n() * self.inv_eps_sq() / 2.0).ceil() as u64;
        let half = half.max(3);
        if half.is_multiple_of(2) {
            half + 1
        } else {
            half
        }
    }

    /// Length of the final Stage II phase (`2 ×` the final sample count).
    #[must_use]
    pub fn final_phase_len(&self) -> u64 {
        2 * self.final_samples()
    }

    /// Total Stage I rounds for the broadcast protocol.
    #[must_use]
    pub fn stage1_rounds(&self) -> u64 {
        self.beta_s() + self.stage1_intermediate_phases() as u64 * self.beta() + self.beta_f()
    }

    /// Total Stage II rounds.
    #[must_use]
    pub fn stage2_rounds(&self) -> u64 {
        self.boost_phases() as u64 * self.boost_phase_len() + self.final_phase_len()
    }

    /// Total rounds of the full broadcast protocol.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.stage1_rounds() + self.stage2_rounds()
    }

    /// The paper's asymptotic round bound `Θ(ln n / ε²)` evaluated without
    /// constants, useful for scaling fits.
    #[must_use]
    pub fn theoretical_round_scale(&self) -> f64 {
        self.ln_n() * self.inv_eps_sq()
    }

    /// The starting Stage I phase `i_A` for the majority-consensus protocol
    /// (Corollary 2.18): `i_A = ln(|A| / ln n) / (2 ln(1/ε))`, clamped to
    /// `[0, T + 1]`.
    #[must_use]
    pub fn majority_start_phase(&self, initial_set: usize) -> usize {
        let t = self.stage1_intermediate_phases();
        if initial_set == 0 {
            return 0;
        }
        let ratio = initial_set as f64 / self.ln_n();
        if ratio <= 1.0 {
            return 0;
        }
        let denom = 2.0 * (1.0 / self.epsilon).ln();
        if denom <= 0.0 {
            return t + 1;
        }
        let ia = (ratio.ln() / denom).floor() as usize;
        ia.min(t + 1)
    }
}

/// The tunable multipliers behind [`Params`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multipliers {
    /// Stage I phase-0 multiplier: `s = s_mult / ε²`.
    pub s_mult: f64,
    /// Stage I intermediate-phase multiplier: `β = beta_mult / ε²`.
    pub beta_mult: f64,
    /// Stage I final-phase multiplier: `f = f_mult / ε²`.
    pub f_mult: f64,
    /// Stage II sample multiplier: `γ ≈ gamma_mult / ε²`.
    pub gamma_mult: f64,
    /// Additional Stage II doubling phases on top of the derived `k`.
    pub extra_boost_phases: usize,
    /// Final Stage II phase multiplier: `m ≈ final_mult · ln n / ε²`.
    pub final_mult: f64,
}

impl Multipliers {
    /// Calibrated defaults used by [`Params::practical`].
    #[must_use]
    pub fn practical() -> Self {
        Self {
            s_mult: 1.5,
            beta_mult: 5.0,
            f_mult: 3.0,
            gamma_mult: 6.0,
            extra_boost_phases: 3,
            final_mult: 3.0,
        }
    }

    /// The literal constants of the paper's proofs, used by [`Params::paper_strict`].
    #[must_use]
    pub fn paper_strict() -> Self {
        Self {
            // The paper requires f > c1·β > c2·s > c3/ε² for "sufficiently
            // large" constants; these are representative large choices.
            s_mult: 64.0,
            beta_mult: 256.0,
            f_mult: 1024.0,
            // γ = 2r + 1 with r = ⌈2²²/ε²⌉  ⇒  γ_mult = 2²³.
            gamma_mult: (1u64 << 23) as f64,
            extra_boost_phases: 8,
            final_mult: 64.0,
        }
    }

    fn validate(&self) -> Result<(), FlipError> {
        let checks = [
            ("s_mult", self.s_mult),
            ("beta_mult", self.beta_mult),
            ("f_mult", self.f_mult),
            ("gamma_mult", self.gamma_mult),
            ("final_mult", self.final_mult),
        ];
        for (name, value) in checks {
            if !value.is_finite() || value <= 0.0 {
                return Err(FlipError::InvalidParameter {
                    name,
                    message: format!("multiplier must be positive and finite, got {value}"),
                });
            }
        }
        Ok(())
    }
}

impl Default for Multipliers {
    fn default() -> Self {
        Self::practical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn practical_params_are_valid_for_reasonable_inputs() {
        for &n in &[100usize, 1_000, 10_000] {
            for &eps in &[0.15, 0.25, 0.4] {
                let p = Params::practical(n, eps).unwrap();
                assert!(p.beta_s() > 0);
                assert!(p.beta() >= 2);
                assert!(p.beta_f() > 0);
                assert_eq!(p.gamma() % 2, 1);
                assert_eq!(p.final_samples() % 2, 1);
                assert!(p.total_rounds() == p.stage1_rounds() + p.stage2_rounds());
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Params::practical(4, 0.3).is_err());
        assert!(Params::practical(1_000, 0.0).is_err());
        assert!(Params::practical(1_000, 0.6).is_err());
        assert!(Params::practical(1_000, f64::NAN).is_err());
        // epsilon below 1/sqrt(n) violates the paper's requirement.
        assert!(Params::practical(100, 0.05).is_err());
    }

    #[test]
    fn epsilon_below_the_floor_names_the_floor() {
        let err = Params::practical(1_000, 1e-9).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameter `epsilon`: 0.000000001 is below 1/√n = 0.0316 for n = 1000"
        );
    }

    #[test]
    fn rejects_non_positive_multipliers() {
        let mut m = Multipliers::practical();
        m.beta_mult = 0.0;
        assert!(Params::with_multipliers(1_000, 0.2, m).is_err());
        let mut m = Multipliers::practical();
        m.gamma_mult = -1.0;
        assert!(Params::with_multipliers(1_000, 0.2, m).is_err());
    }

    #[test]
    fn rounds_scale_with_log_n() {
        let eps = 0.2;
        let small = Params::practical(1_000, eps).unwrap();
        let large = Params::practical(100_000, eps).unwrap();
        let ratio = large.total_rounds() as f64 / small.total_rounds() as f64;
        // ln(100_000)/ln(1_000) ≈ 1.67; allow generous slack for roundings
        // and the k extra doubling phases.
        assert!(ratio > 1.1 && ratio < 3.0, "ratio = {ratio}");
    }

    #[test]
    fn rounds_scale_with_inverse_epsilon_squared() {
        let n = 5_000;
        let coarse = Params::practical(n, 0.4).unwrap();
        let fine = Params::practical(n, 0.1).unwrap();
        let ratio = fine.total_rounds() as f64 / coarse.total_rounds() as f64;
        // (0.4/0.1)^2 = 16; phases that depend only on log n dilute it a little.
        assert!(ratio > 8.0 && ratio < 24.0, "ratio = {ratio}");
    }

    #[test]
    fn intermediate_phase_count_is_zero_for_small_populations() {
        let p = Params::practical(200, 0.3).unwrap();
        // βs already exceeds n/2 for such a small population.
        assert_eq!(p.stage1_intermediate_phases(), 0);
    }

    #[test]
    fn intermediate_phase_count_grows_with_n() {
        let eps = 0.35;
        let small = Params::practical(2_000, eps).unwrap();
        let large = Params::practical(200_000, eps).unwrap();
        assert!(large.stage1_intermediate_phases() >= small.stage1_intermediate_phases());
    }

    #[test]
    fn paper_strict_is_much_larger_than_practical() {
        let practical = Params::practical(1_000, 0.3).unwrap();
        let strict = Params::paper_strict(1_000, 0.3).unwrap();
        assert!(strict.gamma() > 1_000 * practical.gamma());
        assert!(strict.total_rounds() > 100 * practical.total_rounds());
    }

    #[test]
    fn majority_start_phase_is_clamped() {
        let p = Params::practical(10_000, 0.2).unwrap();
        let t = p.stage1_intermediate_phases();
        assert_eq!(p.majority_start_phase(0), 0);
        assert_eq!(p.majority_start_phase(5), 0);
        assert!(p.majority_start_phase(10_000) <= t + 1);
        // Larger initial sets never start earlier than smaller ones.
        assert!(p.majority_start_phase(5_000) >= p.majority_start_phase(50));
    }

    #[test]
    fn theoretical_scale_matches_formula() {
        let p = Params::practical(1_000, 0.25).unwrap();
        let expected = (1_000f64).ln() / (0.25 * 0.25);
        assert!((p.theoretical_round_scale() - expected).abs() < 1e-9);
    }
}
