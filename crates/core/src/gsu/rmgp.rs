//! `RMGp` — the guarded-operation performance-overhead SAN reward model
//! (paper Figure 7).
//!
//! This model computes the steady-state forward-progress fractions `ρ1`
//! (of the active new version `P1new`) and `ρ2` (of `P2`) under the MDCD
//! protocol. Failure behaviour is deliberately omitted and the ideal
//! execution-environment assumptions preserved (paper §5.1): the
//! message-passing events that drive checkpointing and AT are orders of
//! magnitude more frequent than fault manifestations, so the overhead
//! process reaches steady state long before any dependability event
//! (paper §3.3) — which is what licenses treating `ρ_{t,i}` as the
//! steady-state quantities `ρ_i`.
//!
//! The MDCD rules it represents are listed on [`lower::build_gp`]; here
//! both safeguards are exponential, at rates `α` (AT) and `β` (checkpoint).
//!
//! The reward structures are exactly the paper's Table 2 predicate-rate
//! pairs (see [`one_minus_rho1_spec`] and [`one_minus_rho2_spec`]).

use super::lower::{self, Gp, RhoSolution};
use crate::{GsuParams, Result};

pub use super::lower::{one_minus_rho1_spec, one_minus_rho2_spec};

/// Builds `RMGp` for the given parameters: the paper-shaped lowering
/// [`lower::build_gp`] of `ScenarioSpec::from(*params)`.
///
/// # Errors
///
/// Propagates SAN construction failures.
pub fn build(params: &GsuParams) -> Result<Gp> {
    lower::build_gp(&(*params).into())
}

/// Solves the steady-state overhead measures, returning `(ρ1, ρ2)`.
///
/// # Errors
///
/// Propagates SAN generation and steady-state solver failures.
pub fn solve_rho(params: &GsuParams) -> Result<(f64, f64)> {
    lower::solve_rho(&(*params).into())
}

/// [`solve_rho`] with an optional warm-start `hint` — see
/// [`lower::solve_rho_continued`].
///
/// # Errors
///
/// Propagates SAN generation and steady-state solver failures.
pub fn solve_rho_continued(params: &GsuParams, hint: Option<&[f64]>) -> Result<RhoSolution> {
    lower::solve_rho_continued(&(*params).into(), hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use san::StateSpace;

    fn baseline() -> GsuParams {
        GsuParams::paper_baseline()
    }

    #[test]
    fn state_space_is_a_small_unichain() {
        // The chain is a unichain, not irreducible: the initial clean-dirty-
        // bit states are transient (P1oDB is set once and never cleared).
        let rmgp = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgp.model, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 24);
        let pi = markov::steady::steady_state(ss.ctmc(), &Default::default()).unwrap();
        assert!(sparsela::vector::is_stochastic(&pi, 1e-9));
    }

    #[test]
    fn rho_values_match_paper_ballpark_at_baseline() {
        // Paper (§6, Fig. 9/10 captions): α=β=6000 yields ρ1=0.98, ρ2=0.95.
        let (rho1, rho2) = solve_rho(&baseline()).unwrap();
        assert!((rho1 - 0.98).abs() < 0.005, "rho1 = {rho1}");
        assert!((rho2 - 0.95).abs() < 0.02, "rho2 = {rho2}");
    }

    #[test]
    fn rho_drops_with_slower_safeguards() {
        // Paper: α=β=2500 yields ρ1=0.95, ρ2=0.90.
        let p = baseline().with_overhead_rates(2500.0, 2500.0).unwrap();
        let (rho1, rho2) = solve_rho(&p).unwrap();
        assert!((rho1 - 0.95).abs() < 0.01, "rho1 = {rho1}");
        assert!((rho2 - 0.90).abs() < 0.04, "rho2 = {rho2}");
        let (b1, b2) = solve_rho(&baseline()).unwrap();
        assert!(rho1 < b1);
        assert!(rho2 < b2);
    }

    #[test]
    fn rho1_closed_form_cycle() {
        // P1new alternates: send (mean 1/λ), then with prob p_ext an AT of
        // mean 1/α. Renewal-reward: 1−ρ1 = (p_ext/α)/(1/λ + p_ext/α).
        let p = baseline();
        let (rho1, _) = solve_rho(&p).unwrap();
        let want = 1.0 - (p.p_ext / p.alpha) / (1.0 / p.lambda + p.p_ext / p.alpha);
        assert!((rho1 - want).abs() < 1e-9, "{rho1} vs {want}");
    }

    #[test]
    fn instant_safeguards_mean_no_overhead() {
        let p = baseline().with_overhead_rates(1e9, 1e9).unwrap();
        let (rho1, rho2) = solve_rho(&p).unwrap();
        assert!(rho1 > 0.999_99);
        assert!(rho2 > 0.999_99);
    }

    #[test]
    fn overheads_are_probabilities() {
        for (a, b) in [(6000.0, 6000.0), (2500.0, 2500.0), (1000.0, 9000.0)] {
            let p = baseline().with_overhead_rates(a, b).unwrap();
            let (rho1, rho2) = solve_rho(&p).unwrap();
            assert!((0.0..=1.0).contains(&rho1));
            assert!((0.0..=1.0).contains(&rho2));
        }
    }
}
