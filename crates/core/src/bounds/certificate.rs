//! The stopping-rule certification engine: one audited code path for
//! every "can we stop yet?" decision SSA and D-SSA make.
//!
//! Each algorithm has its own certificate type, holding exactly the
//! checks that algorithm makes: an [`SsaCertificate`] owns SSA's
//! coverage threshold `Λ₁` (S1) and agreement check (S2); a
//! [`DssaCertificate`] owns D-SSA's `Λ₁` (D1) and the precision
//! composition of Eq. 18 with its D2 anchor. There is exactly one
//! stopping path per algorithm, and it carries the paper's
//! `(1 − 1/e − ε, 1 − δ)` guarantee at the certified constants:
//!
//! * D-SSA's ε₂ is the smallest precision the verify half's coverage
//!   certifies under the stopping-rule count
//!   `Cov_{R^c} ≥ (1+ε₂)·Υ(ε₂, δ′)` (Dagum et al., as re-anchored by the
//!   D-SSA-Fix erratum after Huang et al.'s PVLDB'17 critique), solved
//!   numerically by [`certified_precision`]; ε₃ uses the analogous
//!   gap-adjusted anchor `ε₃ = ε₂·√((1−1/e−ε)/(1+ε₂/3))`.
//! * SSA's split is static, so its thresholds are fixed up front.
//!
//! Coverage mass `c` certifies precision `Θ(√(ln(1/δ′)/c))`, so at the
//! D1 anchor `c = Λ₁` the certified ε₂ is ≈ ε; `docs/DERIVATIONS.md` §4
//! derives why no tighter ε₂ may be claimed there.
//!
//! ```
//! use sns_core::bounds::certificate::certified_precision;
//! use sns_core::bounds::upsilon;
//!
//! // The stopping-rule theorem in one line: coverage mass equal to the
//! // D1 threshold (1+ε)·Υ(ε, δ′) certifies precision ≈ ε, not ε/√Λ.
//! let (eps, delta) = (0.1, 0.01);
//! let cov = (1.0 + eps) * upsilon(eps, delta);
//! let certified = certified_precision(cov, delta);
//! assert!((certified - eps).abs() < 1e-9);
//! ```

use crate::bounds::{upsilon, ONE_MINUS_INV_E};
use crate::params::SsaEpsilons;

/// The stopping rule a run certifies against. It has one variant, and
/// no library code reads it: it survives only because the end-to-end
/// benchmark compiles against [`crate::Params::with_stopping_rule`] and
/// [`Certificate::ssa`]'s first parameter, and is deleted once that
/// benchmark stops naming it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingRule {
    /// The certified D-SSA-Fix anchor — the only rule.
    DssaFix,
}

/// Which check terminated (or was the last obstacle for) a run — the
/// "what was binding at stop" record the certification engine leaves in
/// [`crate::RunResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopCondition {
    /// The coverage threshold (D-SSA's D1 / SSA's S1) fired at the
    /// stopping iteration itself: coverage was the last obstacle, the
    /// precision check passed immediately once enough verify evidence
    /// existed.
    Coverage,
    /// Coverage had already been met at an earlier checkpoint; the
    /// precision composition (D2) or validation agreement (S2) was what
    /// delayed the stop.
    Precision,
    /// The nominal cap `Nmax` (or the iteration budget) terminated the
    /// run before the statistical conditions fired.
    Cap,
    /// No stopping rule was consulted: the algorithm runs a fixed,
    /// precomputed sample schedule (IMM, TIM/TIM+, fixed-pool RIS) or a
    /// non-RIS procedure.
    Schedule,
}

/// One evaluated precision check (condition D2): the dynamic ε-split the
/// certificate derived from the checkpoint's evidence and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionCheck {
    /// `ε₁ = max(0, Î/Î^c − 1)` — the find/verify disagreement, clamped
    /// at 0: a verify half that *over*-estimates must not be allowed to
    /// deflate `ε_t` below what the Eq. 18 composition supports.
    pub e1: f64,
    /// ε₂: the precision the verify coverage certifies
    /// ([`certified_precision`]).
    pub e2: f64,
    /// ε₃: the gap-adjusted anchor `ε₂·√((1−1/e−ε)/(1+ε₂/3))`.
    pub e3: f64,
    /// The realized `ε_t = (ε₁+ε₂+ε₁ε₂)(1−1/e−ε) + (1−1/e)·ε₃`.
    pub eps_t: f64,
    /// The verify-half influence estimate `Î^c = Γ·Cov/|R^c|`.
    pub i_verify: f64,
    /// `ε_t ≤ ε` — condition D2 holds.
    pub satisfied: bool,
}

/// SSA's per-run stopping certificate (Algorithm 1): the static split
/// fixes the coverage threshold `Λ₁ = (1+ε₁)(1+ε₂)·Υ(ε₃, δ′)` of
/// condition S1 and the `(1 + ε₁)` slack of the agreement check S2.
#[derive(Debug, Clone, Copy)]
pub struct SsaCertificate {
    /// Coverage threshold Λ₁ (S1).
    lambda1: f64,
    /// The split's ε₁: the agreement slack of S2.
    e1: f64,
}

impl SsaCertificate {
    /// The certificate for the static `split` at per-checkpoint failure
    /// budget `delta_iter` = δ/(3·tmax).
    pub fn new(split: SsaEpsilons, delta_iter: f64) -> Self {
        SsaCertificate {
            lambda1: (1.0 + split.e1) * (1.0 + split.e2) * upsilon(split.e3, delta_iter),
            e1: split.e1,
        }
    }

    /// The coverage threshold `Λ₁` of condition S1.
    pub fn lambda1(&self) -> f64 {
        self.lambda1
    }

    /// Condition S1: the pool coverage carries enough mass.
    pub fn coverage_met(&self, covered: u64) -> bool {
        covered as f64 >= self.lambda1
    }

    /// Condition S2: the pool estimate agrees with the independent
    /// validation within the static split's `(1 + ε₁)` slack.
    pub fn agreement(&self, i_find: f64, i_verify: f64) -> bool {
        i_find <= (1.0 + self.e1) * i_verify
    }
}

/// D-SSA's per-run stopping certificate (Algorithm 4): target precision,
/// per-checkpoint failure budget, universe mass and the coverage
/// threshold `Λ₁ = 1 + (1+ε)·Υ(ε, δ′)` of condition D1. Constructed once
/// per run and consulted at every checkpoint; the ε-split is derived
/// from each checkpoint's evidence by [`DssaCertificate::dssa_precision`].
#[derive(Debug, Clone, Copy)]
pub struct DssaCertificate {
    /// Target precision ε of the run.
    eps: f64,
    /// Per-checkpoint failure budget δ′ = δ/(3·tmax).
    delta_iter: f64,
    /// Universe mass Γ (`n` for IM, `Σ b(v)` for TVM).
    gamma: f64,
    /// Coverage threshold Λ₁ (D1).
    lambda1: f64,
    /// `1 − 1/e − ε` (> 0 by parameter validation).
    approx_gap: f64,
}

impl DssaCertificate {
    /// The certificate for target precision `eps`, per-checkpoint failure
    /// budget `delta_iter` and universe mass `gamma`.
    pub fn new(eps: f64, delta_iter: f64, gamma: f64) -> Self {
        DssaCertificate {
            eps,
            delta_iter,
            gamma,
            lambda1: 1.0 + (1.0 + eps) * upsilon(eps, delta_iter),
            approx_gap: ONE_MINUS_INV_E - eps,
        }
    }

    /// The coverage threshold `Λ₁` of condition D1.
    pub fn lambda1(&self) -> f64 {
        self.lambda1
    }

    /// Condition D1: the verify coverage carries enough mass.
    pub fn coverage_met(&self, covered: u64) -> bool {
        covered as f64 >= self.lambda1
    }

    /// Condition D2: derives the dynamic `(ε₁, ε₂, ε₃)` from a D-SSA
    /// checkpoint — find-half estimate `i_find`, verify-half coverage
    /// `cov_verify` over `half` sets — and composes them per Eq. 18.
    ///
    /// `half` is both the find-half and verify-half size (`Λ·2^(t−1)`,
    /// possibly clamped by the `Nmax` cap on the final iteration).
    pub fn dssa_precision(&self, i_find: f64, cov_verify: u64, half: u64) -> PrecisionCheck {
        let i_c = self.gamma * cov_verify as f64 / half as f64;
        // Negative disagreement (verify over-estimates) must clamp to 0:
        // Eq. 18's composition assumes ε₁ ≥ 0, and a negative ε₁ would
        // deflate ε_t below what the evidence supports and fire D2 early.
        let e1 = (i_find / i_c - 1.0).max(0.0);
        let e2 = certified_precision(cov_verify as f64, self.delta_iter);
        let e3 = if e2.is_finite() {
            e2 * (self.approx_gap / (1.0 + e2 / 3.0)).sqrt()
        } else {
            f64::INFINITY
        };
        let eps_t = (e1 + e2 + e1 * e2) * self.approx_gap + ONE_MINUS_INV_E * e3;
        PrecisionCheck { e1, e2, e3, eps_t, i_verify: i_c, satisfied: eps_t <= self.eps }
    }
}

/// The constructor the end-to-end benchmark names. Library code builds
/// an [`SsaCertificate`] or a [`DssaCertificate`] directly; this name and
/// its ignored parameters are deleted once that benchmark stops naming
/// them.
#[derive(Debug)]
pub enum Certificate {}

impl Certificate {
    /// [`SsaCertificate::new`] for `split` at `delta_iter`. The
    /// [`StoppingRule`], `eps` and `gamma` are ignored: SSA's thresholds
    /// depend on the split alone.
    pub fn ssa(
        _rule: StoppingRule,
        _eps: f64,
        split: SsaEpsilons,
        delta_iter: f64,
        _gamma: f64,
    ) -> SsaCertificate {
        SsaCertificate::new(split, delta_iter)
    }
}

/// The smallest precision `ε` certified by `cov` units of coverage mass
/// at per-checkpoint confidence `1 − delta_iter`: the boundary of the
/// stopping-rule condition `cov ≥ (1+ε)·Υ(ε, δ′)` (Dagum–Karp–Luby–Ross,
/// as used by the D-SSA-Fix erratum), solved by bisection.
///
/// `(1+ε)·Υ(ε, δ′)` decreases monotonically from `∞` (ε → 0) to
/// `(2/3)·ln(1/δ′)` (ε → ∞), so the solution is unique when it exists.
/// `f64::INFINITY` means "certifies nothing" — the caller's D2 then
/// cannot fire. It is returned for coverage below that floor, for NaN or
/// non-positive coverage, and for a `delta_iter` outside `(0, 1)`.
/// Infinite coverage certifies ε ≈ 0.
pub fn certified_precision(cov: f64, delta_iter: f64) -> f64 {
    if cov.is_nan() || cov <= 0.0 || !(delta_iter > 0.0 && delta_iter < 1.0) {
        return f64::INFINITY;
    }
    let demand = |e: f64| (1.0 + e) * upsilon(e, delta_iter);
    // Bracket the root: demand(lo) ≥ cov ≥ demand(hi).
    let mut lo = 1e-12_f64;
    while demand(lo) < cov {
        lo /= 4.0;
        if lo < 1e-300 {
            return lo; // cov astronomically large: certified ε ≈ 0
        }
    }
    let mut hi = 1.0_f64;
    while demand(hi) > cov {
        hi *= 2.0;
        if hi > 1e15 {
            return f64::INFINITY; // below the (2/3)·ln(1/δ′) floor
        }
    }
    // 200 halvings take |hi − lo| to f64 resolution; the loop is exact
    // and deterministic (no platform-dependent libm in the hot set).
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if demand(mid) > cov {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // hi is on the certified side (demand(hi) ≤ cov).
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 0.1;
    const DELTA_ITER: f64 = 0.003;

    #[test]
    fn certified_precision_inverts_the_demand_curve() {
        for &(eps, delta) in &[(0.05, 0.01), (0.1, 0.003), (0.3, 0.03), (0.5, 0.1), (0.02, 1e-6)] {
            let cov = (1.0 + eps) * upsilon(eps, delta);
            let back = certified_precision(cov, delta);
            assert!((back - eps).abs() < 1e-9, "eps {eps}, delta {delta}: got {back}");
        }
        // more coverage certifies tighter precision
        let a = certified_precision(1_000.0, 0.01);
        let b = certified_precision(4_000.0, 0.01);
        assert!(b < a, "4x coverage must certify tighter: {a} vs {b}");
        // ~1/√cov scaling in the small-ε regime
        assert!((a / b - 2.0).abs() < 0.1, "expected ~2x tightening, got {}", a / b);
    }

    #[test]
    fn certified_precision_edge_cases() {
        // below the (2/3)·ln(1/δ′) floor nothing is certified
        assert_eq!(certified_precision(0.5, 0.01), f64::INFINITY);
        assert_eq!(certified_precision(0.0, 0.01), f64::INFINITY);
        // astronomically large coverage certifies ~0 without looping forever
        let tiny = certified_precision(1e300, 0.01);
        assert!(tiny < 1e-12);
        assert!(certified_precision(f64::INFINITY, 0.01) < 1e-12);
        // garbage certifies nothing and never panics: NaN or negative
        // coverage, and a δ′ outside (0, 1)
        for cov in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert_eq!(certified_precision(cov, 0.01), f64::INFINITY, "cov {cov}");
        }
        for delta in [0.0, 1.0, -0.5, 2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(certified_precision(1_000.0, delta), f64::INFINITY, "delta {delta}");
        }
    }

    #[test]
    fn dssa_certificate_thresholds_match_algorithm_4() {
        let cert = DssaCertificate::new(EPS, DELTA_ITER, 400.0);
        let want = 1.0 + (1.0 + EPS) * upsilon(EPS, DELTA_ITER);
        assert_eq!(cert.lambda1(), want);
        assert!(!cert.coverage_met(want as u64 - 1));
        assert!(cert.coverage_met(want.ceil() as u64));
    }

    #[test]
    fn ssa_certificate_thresholds_match_algorithm_1() {
        let split = SsaEpsilons::recommended(EPS);
        let cert = SsaCertificate::new(split, DELTA_ITER);
        let want = (1.0 + split.e1) * (1.0 + split.e2) * upsilon(split.e3, DELTA_ITER);
        assert_eq!(cert.lambda1(), want);
        let named = Certificate::ssa(StoppingRule::DssaFix, EPS, split, DELTA_ITER, 400.0);
        assert_eq!(named.lambda1(), want);
        // S2: agreement within (1+ε₁)
        assert!(cert.agreement(100.0, 100.0));
        assert!(cert.agreement(100.0 * (1.0 + split.e1) - 1e-9, 100.0));
        assert!(!cert.agreement(100.0 * (1.0 + split.e1) + 1e-6, 100.0));
    }

    #[test]
    fn dssafix_certifies_eps_at_the_d1_anchor_conservative_claims_root_lambda_less() {
        // The §4 settlement in numbers: at Cov = Λ₁ the stopping-rule
        // count supports ε₂ ≈ ε, while the removed find-half closed form
        // ε·√(Γ(1+ε)/(half·Î^c)) claimed ε₂ ≈ ε/√Λ — optimistic by √Λ.
        let gamma = 400.0;
        let lambda = upsilon(EPS, DELTA_ITER); // ≈ Λ
        let cert = DssaCertificate::new(EPS, DELTA_ITER, gamma);
        let cov = cert.lambda1().ceil() as u64; // the D1 anchor
        let half = 2 * lambda.ceil() as u64; // a t = 2 checkpoint
        let i_find = gamma * cov as f64 / half as f64; // ε₁ = 0
        let check = cert.dssa_precision(i_find, cov, half);
        assert!((check.e2 - EPS).abs() / EPS < 0.05, "D1 anchor: e2 = {}", check.e2);
        let closed_form = EPS * (gamma * (1.0 + EPS) / (half as f64 * check.i_verify)).sqrt();
        let claimed_ratio = check.e2 / closed_form;
        assert!(
            (claimed_ratio / lambda.sqrt() - 1.0).abs() < 0.25,
            "the closed form's optimism should be ~√Λ = {:.1}, got {claimed_ratio:.1}",
            lambda.sqrt()
        );
    }

    #[test]
    fn dssafix_eps3_uses_the_gap_adjusted_anchor() {
        let cert = DssaCertificate::new(EPS, DELTA_ITER, 400.0);
        let check = cert.dssa_precision(100.0, 5_000, 10_000);
        assert_eq!(check.e2, certified_precision(5_000.0, DELTA_ITER));
        let gap = ONE_MINUS_INV_E - EPS;
        let want_e3 = check.e2 * (gap / (1.0 + check.e2 / 3.0)).sqrt();
        assert!((check.e3 - want_e3).abs() < 1e-15);
        assert!(check.e3 < check.e2, "the gap shrinks ε₃ below ε₂ for ε < 1 − 1/e");
    }

    #[test]
    fn precision_clamps_negative_disagreement() {
        let cert = DssaCertificate::new(EPS, DELTA_ITER, 400.0);
        // verify half over-estimates: Î < Î^c ⇒ raw ε₁ < 0 ⇒ clamp to 0
        let cov = 5_000_u64;
        let half = 10_000_u64;
        let i_c = 400.0 * cov as f64 / half as f64;
        let check = cert.dssa_precision(0.9 * i_c, cov, half);
        assert_eq!(check.e1, 0.0);
        // and the composition must not dip below the pure ε₂/ε₃ floor
        let gap = ONE_MINUS_INV_E - EPS;
        assert_eq!(check.eps_t, check.e2 * gap + ONE_MINUS_INV_E * check.e3);
    }

    #[test]
    fn no_usable_evidence_never_satisfies_d2() {
        // coverage below the certification floor: D2 must refuse
        let cert = DssaCertificate::new(EPS, DELTA_ITER, 400.0);
        let check = cert.dssa_precision(1.0, 1, 1_000_000);
        assert!(check.e2.is_infinite());
        assert!(!check.satisfied);
    }
}
