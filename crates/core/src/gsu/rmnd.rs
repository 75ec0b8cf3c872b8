//! `RMNd` — the normal-mode SAN reward model (paper Figure 8).
//!
//! Represents the system behaviour when no safeguard functions run: two
//! active processes exchange messages; a fault manifestation contaminates a
//! process state; a contaminated process's **internal** message contaminates
//! its peer, and a contaminated process's **external** message — undetected,
//! since acceptance tests are not performed in the normal mode — causes
//! system failure.
//!
//! The model is used for three constituent measures (paper §5.2.3), all with
//! the same predicate-rate pair `MARK(failure) == 0 → 1`:
//!
//! * `P(X''_θ ∈ A''1)` with the first component at rate µ_new (unprotected
//!   upgraded system over the full window — yields `E[W₀]`);
//! * `P(X''_{θ−φ} ∈ A''1)` with rate µ_new (upgraded system after a
//!   successful guarded operation);
//! * `∫_φ^θ f(x) dx = 1 − P(X''_{θ−φ} ∈ A''1)` with rate µ_old (the
//!   recovered system, running the old version, failing before the next
//!   upgrade).

use super::lower::{self, Np};
use crate::{GsuParams, Result};

/// Builds `RMNd` with fault-manifestation rate `mu_first` for the first
/// component (µ_new for the upgraded system, µ_old for the recovered one);
/// P2 always runs an old version at `params.mu_old`. This is the
/// paper-shaped lowering [`lower::build_np`] of `ScenarioSpec::from(*params)`.
///
/// # Errors
///
/// Propagates SAN construction failures.
pub fn build(params: &GsuParams, mu_first: f64) -> Result<Np> {
    lower::build_np(&(*params).into(), mu_first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use san::{Analyzer, RewardSpec, StateSpace};

    fn baseline() -> GsuParams {
        GsuParams::paper_baseline()
    }

    #[test]
    fn state_space_is_tiny() {
        let rmnd = build(&baseline(), 1e-4).unwrap();
        let ss = StateSpace::generate(&rmnd.model, &Default::default()).unwrap();
        // (clean,clean), (dirty,clean), (clean,dirty), (dirty,dirty), failure.
        assert_eq!(ss.n_states(), 5);
    }

    #[test]
    fn failure_is_absorbing() {
        let rmnd = build(&baseline(), 1e-4).unwrap();
        let ss = StateSpace::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let fail_states = ss.states_where(|mk| mk.tokens(failure) == 1);
        assert_eq!(fail_states.len(), 1);
        assert_eq!(ss.ctmc().exit_rate(fail_states[0]), 0.0);
    }

    #[test]
    fn survival_close_to_exponential_bound() {
        // With λ·p_ext ≫ µ, failure follows the first fault almost
        // immediately, so P[no failure by t] ≈ exp(−(µ1+µ2)·t); with
        // µ2 ≈ 0 this is exp(−µ1·t).
        let p = baseline();
        let rmnd = build(&p, p.mu_new).unwrap();
        let an = Analyzer::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let surv = an
            .probability_at(p.theta, move |mk| mk.tokens(failure) == 0)
            .unwrap();
        let bound = (-p.mu_new * p.theta).exp();
        assert!(
            surv <= bound + 1e-9,
            "survival {surv} must not exceed {bound}"
        );
        // The lag between manifestation and the failing external message is
        // ~1/(λ·p_ext) = 1/120 h, so the two probabilities are close.
        assert!((surv - bound).abs() < 0.01, "{surv} vs {bound}");
    }

    #[test]
    fn old_version_survival_is_nearly_one() {
        let p = baseline();
        let rmnd = build(&p, p.mu_old).unwrap();
        let an = Analyzer::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let surv = an
            .probability_at(p.theta, move |mk| mk.tokens(failure) == 0)
            .unwrap();
        assert!(surv > 0.999);
    }

    #[test]
    fn survival_decreases_with_horizon() {
        let p = baseline();
        let rmnd = build(&p, p.mu_new).unwrap();
        let an = Analyzer::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(failure) == 0, 1.0);
        let mut last = 1.0;
        for &t in &[100.0, 1000.0, 5000.0, 10_000.0] {
            let s = an.instant_reward(&spec, t).unwrap();
            assert!(s < last);
            last = s;
        }
    }
}
