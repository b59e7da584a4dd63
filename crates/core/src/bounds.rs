//! The unified RIS framework of §3: sample-complexity bounds shared by
//! every RIS algorithm.
//!
//! Central quantity (Table 1 of the paper):
//!
//! ```text
//! Υ(ε, δ) = (2 + 2ε/3) · ln(1/δ) / ε²
//! ```
//!
//! `Υ(ε,δ)/µ` Monte Carlo samples of a `[0,1]` variable with mean `µ`
//! suffice for an (ε,δ)-approximation (Corollary 1, via the martingale
//! Chernoff bounds of Lemma 2).
//!
//! The [`certificate`] submodule turns these bounds into the runtime
//! stopping-rule engine shared by SSA and D-SSA, with D-SSA's D2 anchor
//! at the certified D-SSA-Fix constants (`docs/DERIVATIONS.md` §4).

pub mod certificate;

/// `1 − 1/e`, the submodular greedy approximation factor.
pub const ONE_MINUS_INV_E: f64 = 1.0 - 0.36787944117144233; // 1 − e⁻¹

/// The sample bound `Υ(ε, δ) = (2 + 2ε/3)·ln(1/δ)/ε²`.
///
/// # Panics
/// Panics if `eps <= 0` or `delta` is not in `(0, 1)`.
pub fn upsilon(eps: f64, delta: f64) -> f64 {
    assert!(eps > 0.0, "upsilon needs eps > 0, got {eps}");
    assert!(
        (0.0..1.0).contains(&delta) && delta > 0.0,
        "upsilon needs delta in (0,1), got {delta}"
    );
    (2.0 + 2.0 * eps / 3.0) * (1.0 / delta).ln() / (eps * eps)
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Computed as `Σ_{i=1..k} ln((n−k+i)/i)` — exact to f64 rounding, `O(k)`
/// (`k ≤ 20000` in every experiment). `k > n` yields `-inf` (no such
/// subsets); `k = 0` yields `0`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k); // symmetry, fewer terms
    let mut sum = 0.0f64;
    for i in 1..=k {
        sum += ((n - k + i) as f64 / i as f64).ln();
    }
    sum
}

/// Natural log of the gamma function, Lanczos approximation (g = 7,
/// n = 9 coefficients; |rel err| < 1e-13 for x > 0).
///
/// Used to cross-check [`ln_choose`] and exposed for consumers that need
/// continuous binomial interpolation.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma needs x > 0, got {x}");
    const G: f64 = 7.0;
    // canonical Lanczos(g=7) coefficients, quoted verbatim from the
    // reference tables (a digit or two beyond f64 precision)
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // reflection formula
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The nominal cap on SSA/D-SSA sample counts (line 2 of Algorithm 1,
/// line 1 of Algorithm 4):
///
/// ```text
/// Nmax = 8 · (1−1/e)/(2+2ε/3) · Υ(ε, (δ/6)/C(n,k)) · cap_ratio
///      = 8 · (1−1/e) · (ln(6/δ) + ln C(n,k)) / ε² · cap_ratio
/// ```
///
/// `cap_ratio` is the worst-case `Γ/OPT_k` bound: `n/k` for plain IM
/// (every seed influences at least itself, so `OPT_k ≥ k`), and
/// `Γ / (top-k weight sum)` for the weighted (TVM) universe.
pub fn nmax(n: u64, k: u64, eps: f64, delta: f64, cap_ratio: f64) -> f64 {
    assert!(cap_ratio.is_finite() && cap_ratio > 0.0, "cap_ratio must be positive");
    8.0 * ONE_MINUS_INV_E * ((6.0 / delta).ln() + ln_choose(n, k)) / (eps * eps) * cap_ratio
}

/// Iteration cap for the doubling schedule:
/// `imax = ⌈log₂(2·Nmax / Υ(ε, δ/3))⌉`, at least 1.
pub fn max_iterations(n_max: f64, eps: f64, delta: f64) -> u32 {
    let base = upsilon(eps, delta / 3.0);
    let ratio = (2.0 * n_max / base).max(2.0);
    (ratio.log2().ceil() as u32).max(1)
}

/// One doubling-schedule checkpoint: `Λ·2^doublings` sets, clamped at
/// `cap_sets` (pass `u64::MAX` for the uncapped value). Saturating: a
/// schedule that outgrows `u64` is past any cap, so it reads as the cap
/// instead of losing high bits or overflowing. SSA's iteration `t` pool
/// is `doublings = t − 1`; D-SSA's `2Λ·2^(t−1)` is `doublings = t`.
pub(crate) fn schedule_target(lambda: u64, doublings: u32, cap_sets: u64) -> u64 {
    lambda.saturating_mul(2u64.saturating_pow(doublings)).min(cap_sets)
}

/// The RIS thresholds established by prior work, given an estimate of
/// `OPT_k` (all are `Θ(n/OPT_k)`; their intractable dependence on `OPT_k`
/// is exactly what SSA/D-SSA's stopping rules remove).
#[derive(Debug, Clone, Copy)]
pub struct PriorThresholds {
    /// TIM/TIM+'s threshold (Eq. 12, Tang et al. SIGMOD'14):
    /// `(8+2ε)·n·(ln(2/δ) + ln C(n,k)) / (ε²·OPT_k)`.
    pub tim: f64,
    /// IMM's threshold (Eq. 13, Tang et al. SIGMOD'15):
    /// `2n·((1−1/e)α + β)² / (ε²·OPT_k)`.
    pub imm: f64,
    /// The paper's simplification of IMM's threshold (Eq. 14):
    /// `4(1−1/e)·n·(2ln(2/δ) + ln C(n,k)) / (ε²·OPT_k)`.
    pub imm_simplified: f64,
}

/// Computes the prior-work thresholds for a given `OPT_k` estimate.
pub fn prior_thresholds(n: u64, k: u64, eps: f64, delta: f64, opt_k: f64) -> PriorThresholds {
    assert!(opt_k > 0.0, "opt_k must be positive");
    let nf = n as f64;
    let lc = ln_choose(n, k);
    let l2d = (2.0 / delta).ln();
    let tim = (8.0 + 2.0 * eps) * nf * (l2d + lc) / (eps * eps * opt_k);
    let alpha = l2d.sqrt();
    let beta = (ONE_MINUS_INV_E * (l2d + lc)).sqrt();
    let imm = 2.0 * nf * (ONE_MINUS_INV_E * alpha + beta).powi(2) / (eps * eps * opt_k);
    let imm_simplified = 4.0 * ONE_MINUS_INV_E * nf * (2.0 * l2d + lc) / (eps * eps * opt_k);
    PriorThresholds { tim, imm, imm_simplified }
}

/// Upper tail of the martingale Chernoff bound (Lemma 2, Eq. 5):
/// `Pr[µ̂ > (1+ε)µ] ≤ exp(−T·µ·ε² / (2 + 2ε/3))`.
pub fn chernoff_upper_tail(samples: f64, mu: f64, eps: f64) -> f64 {
    (-(samples * mu * eps * eps) / (2.0 + 2.0 * eps / 3.0)).exp()
}

/// Lower tail of the martingale Chernoff bound (Lemma 2, Eq. 6):
/// `Pr[µ̂ < (1−ε)µ] ≤ exp(−T·µ·ε² / 2)`.
pub fn chernoff_lower_tail(samples: f64, mu: f64, eps: f64) -> f64 {
    (-(samples * mu * eps * eps) / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsilon_closed_form() {
        // ε = 0.1, δ = 0.01: (2 + 0.0667)·ln(100)/0.01
        let u = upsilon(0.1, 0.01);
        let expected = (2.0 + 2.0 * 0.1 / 3.0) * 100.0f64.ln() / 0.01;
        assert!((u - expected).abs() < 1e-9);
        // tighter ε needs more samples; smaller δ needs more samples
        assert!(upsilon(0.05, 0.01) > u);
        assert!(upsilon(0.1, 0.001) > u);
    }

    #[test]
    #[should_panic(expected = "eps > 0")]
    fn upsilon_rejects_zero_eps() {
        upsilon(0.0, 0.1);
    }

    #[test]
    fn ln_choose_small_cases() {
        assert_eq!(ln_choose(5, 0), 0.0);
        assert_eq!(ln_choose(5, 5), 0.0);
        assert!((ln_choose(5, 2) - 10.0f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 3) - 120.0f64.ln()).abs() < 1e-12);
        assert_eq!(ln_choose(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_choose_matches_ln_gamma() {
        for (n, k) in [(100u64, 10u64), (1000, 50), (50_000, 500), (1_000_000, 20_000)] {
            let direct = ln_choose(n, k);
            let via_gamma = ln_gamma(n as f64 + 1.0)
                - ln_gamma(k as f64 + 1.0)
                - ln_gamma((n - k) as f64 + 1.0);
            assert!(
                (direct - via_gamma).abs() / direct.abs().max(1.0) < 1e-9,
                "C({n},{k}): {direct} vs {via_gamma}"
            );
        }
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-11);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-11);
    }

    #[test]
    fn nmax_matches_expanded_form() {
        let (n, k, eps, delta) = (10_000u64, 50u64, 0.1, 1e-4);
        let cap = n as f64 / k as f64;
        let got = nmax(n, k, eps, delta, cap);
        // Nmax = 8(1−1/e)/(2+2ε/3) · Υ(ε, δ/6/C(n,k)) · n/k
        let delta6 = (delta / 6.0).ln() - ln_choose(n, k); // ln of the tiny δ'
        let ups = (2.0 + 2.0 * eps / 3.0) * (-delta6) / (eps * eps);
        let expected = 8.0 * ONE_MINUS_INV_E / (2.0 + 2.0 * eps / 3.0) * ups * cap;
        assert!((got - expected).abs() / expected < 1e-12);
        assert!(got > 0.0);
    }

    #[test]
    fn max_iterations_reasonable() {
        let nm = nmax(10_000, 50, 0.1, 1e-4, 200.0);
        let imax = max_iterations(nm, 0.1, 1e-4);
        // doubling from Υ(ε, δ/3) must reach 2·Nmax within imax steps
        let base = upsilon(0.1, 1e-4 / 3.0);
        assert!(base * 2f64.powi(imax as i32) >= 2.0 * nm);
        assert!(imax < 64);
    }

    #[test]
    fn prior_thresholds_ordering() {
        // The paper's point: IMM's threshold improves on TIM's.
        let t = prior_thresholds(100_000, 100, 0.1, 1e-5, 5_000.0);
        assert!(t.imm < t.tim, "IMM {} should beat TIM {}", t.imm, t.tim);
        // Eq. 14 upper-bounds Eq. 13 (it was derived by relaxation).
        assert!(t.imm_simplified >= t.imm * 0.999);
    }

    #[test]
    fn chernoff_bounds_behave() {
        // more samples -> smaller failure probability
        assert!(chernoff_upper_tail(1000.0, 0.1, 0.1) < chernoff_upper_tail(100.0, 0.1, 0.1));
        assert!(chernoff_lower_tail(1000.0, 0.1, 0.1) < chernoff_lower_tail(100.0, 0.1, 0.1));
        // the Υ bound makes the upper tail at most δ
        let (eps, delta, mu) = (0.2, 0.05, 0.3);
        let t = upsilon(eps, delta) / mu;
        assert!(chernoff_upper_tail(t, mu, eps) <= delta * 1.0000001);
    }
}
