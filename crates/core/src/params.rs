//! Algorithm parameters: the `(k, ε, δ)` triple and SSA's precision
//! split `(ε₁, ε₂, ε₃)`.

use crate::bounds::certificate::StoppingRule;
use crate::bounds::ONE_MINUS_INV_E;
use crate::CoreError;

/// The `(k, ε, δ)` configuration shared by every RIS algorithm: find `k`
/// seeds whose influence is within `(1 − 1/e − ε)` of optimal with
/// probability at least `1 − δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Seed-set budget `k ≥ 1`.
    pub k: usize,
    /// Accuracy `ε ∈ (0, 1 − 1/e)` — beyond `1 − 1/e` the guarantee is
    /// vacuous.
    pub epsilon: f64,
    /// Failure probability `δ ∈ (0, 1)`. The paper's experiments use
    /// `δ = 1/n`.
    pub delta: f64,
    /// Always [`StoppingRule::DssaFix`], and read by no library code: it
    /// stays only for the benchmark that names it.
    pub rule: StoppingRule,
}

impl Params {
    /// Validates and constructs a parameter triple.
    pub fn new(k: usize, epsilon: f64, delta: f64) -> Result<Self, CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidParams("k must be >= 1".into()));
        }
        if !(epsilon > 0.0 && epsilon < ONE_MINUS_INV_E) {
            return Err(CoreError::InvalidParams(format!(
                "epsilon must be in (0, 1 - 1/e ≈ 0.632), got {epsilon}"
            )));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CoreError::InvalidParams(format!("delta must be in (0, 1), got {delta}")));
        }
        Ok(Params { k, epsilon, delta, rule: StoppingRule::DssaFix })
    }

    /// The paper's default `δ = 1/n` for a graph with `n` nodes (§7.1).
    pub fn with_paper_delta(k: usize, epsilon: f64, n: u64) -> Result<Self, CoreError> {
        Self::new(k, epsilon, 1.0 / n.max(2) as f64)
    }

    /// Sets [`Params::rule`]; it changes nothing, since the rule has one
    /// variant. Kept only for the benchmark that calls it.
    pub fn with_stopping_rule(mut self, rule: StoppingRule) -> Self {
        self.rule = rule;
        self
    }
}

/// SSA's precision split. Any `ε₁ ∈ (0,∞)`, `ε₂, ε₃ ∈ (0,1)` satisfying
/// Eq. 18,
///
/// ```text
/// (1 − 1/e) · (ε₁ + ε₂ + ε₁ε₂ + ε₃) / ((1+ε₁)(1+ε₂)) ≤ ε,
/// ```
///
/// preserves the approximation guarantee; the split trades pool size
/// against verification cost (§4.2 discusses the regimes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsaEpsilons {
    /// Slack allowed between the pool estimate and the verified estimate
    /// (stopping condition C2).
    pub e1: f64,
    /// Relative error of the Estimate-Inf verification (condition C2).
    pub e2: f64,
    /// Relative error of the optimal-influence estimate through the pool
    /// (condition C1).
    pub e3: f64,
}

impl SsaEpsilons {
    /// The paper's recommended defaults (Eqs. 19–20):
    ///
    /// ```text
    /// ε₂ = ε₃ = ε / (2(1 − 1/e))
    /// ε₁ = (1 + ε/(2(1 − 1/e − ε))) / (1 + ε₂) − 1
    /// ```
    ///
    /// For ε = 0.1 these give ε₁ = 1/78, ε₂ = ε₃ = 2/25 — the worked
    /// example printed in the paper (Eq. 21).
    pub fn recommended(epsilon: f64) -> Self {
        let e2 = epsilon / (2.0 * ONE_MINUS_INV_E);
        let e3 = e2;
        let e1 = (1.0 + epsilon / (2.0 * (ONE_MINUS_INV_E - epsilon))) / (1.0 + e2) - 1.0;
        SsaEpsilons { e1, e2, e3 }
    }

    /// Left-hand side of the Eq. 18 constraint — the overall ε this split
    /// realizes.
    pub fn effective_epsilon(&self) -> f64 {
        ONE_MINUS_INV_E * (self.e1 + self.e2 + self.e1 * self.e2 + self.e3)
            / ((1.0 + self.e1) * (1.0 + self.e2))
    }

    /// Checks domain and the Eq. 18 constraint against the target ε.
    pub fn validate(&self, epsilon: f64) -> Result<(), CoreError> {
        if !(self.e1 > 0.0 && self.e1.is_finite()) {
            return Err(CoreError::InvalidParams(format!(
                "epsilon_1 must be in (0, inf), got {}",
                self.e1
            )));
        }
        for (name, v) in [("epsilon_2", self.e2), ("epsilon_3", self.e3)] {
            if !(v > 0.0 && v < 1.0) {
                return Err(CoreError::InvalidParams(format!("{name} must be in (0, 1), got {v}")));
            }
        }
        let eff = self.effective_epsilon();
        if eff > epsilon * (1.0 + 1e-9) {
            return Err(CoreError::InvalidParams(format!(
                "epsilon split realizes {eff:.6} > target epsilon {epsilon:.6} (Eq. 18 violated)"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(Params::new(0, 0.1, 0.1).is_err());
        assert!(Params::new(1, 0.0, 0.1).is_err());
        assert!(Params::new(1, 0.7, 0.1).is_err()); // beyond 1 - 1/e
        assert!(Params::new(1, 0.1, 0.0).is_err());
        assert!(Params::new(1, 0.1, 1.0).is_err());
        assert!(Params::new(10, 0.1, 0.01).is_ok());
        let p = Params::with_paper_delta(5, 0.1, 1000).unwrap();
        assert!((p.delta - 0.001).abs() < 1e-12);
    }

    #[test]
    fn recommended_matches_paper_worked_example() {
        // ε = 0.1 → ε₁ = 1/78, ε₂ = ε₃ = 2/25 (Eq. 21)
        let e = SsaEpsilons::recommended(0.1);
        assert!((e.e2 - 0.0791).abs() < 1e-3, "e2 = {}", e.e2);
        assert!((e.e3 - e.e2).abs() < 1e-12);
        assert!((e.e1 - 1.0 / 78.0).abs() < 2e-3, "e1 = {}", e.e1);
    }

    #[test]
    fn recommended_satisfies_eq18_across_range() {
        for eps in [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5] {
            let e = SsaEpsilons::recommended(eps);
            e.validate(eps).unwrap_or_else(|err| panic!("eps = {eps}: {err}"));
            // and the split should be nearly tight (not wasting precision)
            assert!(
                e.effective_epsilon() > 0.9 * eps,
                "eps = {eps}: effective {} too loose",
                e.effective_epsilon()
            );
        }
    }

    #[test]
    fn validate_rejects_bad_splits() {
        let bad = SsaEpsilons { e1: -0.1, e2: 0.1, e3: 0.1 };
        assert!(bad.validate(0.1).is_err());
        let bad = SsaEpsilons { e1: 0.1, e2: 1.5, e3: 0.1 };
        assert!(bad.validate(0.1).is_err());
        // violates Eq. 18: everything large
        let bad = SsaEpsilons { e1: 0.5, e2: 0.5, e3: 0.5 };
        assert!(bad.validate(0.1).is_err());
    }
}
