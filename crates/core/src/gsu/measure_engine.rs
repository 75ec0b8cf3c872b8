//! The reusable guarded-operation measure engine.
//!
//! The Table 1 constituent measures are defined purely in terms of the
//! `A'1 … A'4` state sets of a dependability model — not in terms of the
//! paper's specific `RMGd` net. This module captures that contract as the
//! [`GopStateSets`] trait plus one solver routine, [`gop_measures`], which
//! [`crate::GsuAnalysis`] runs on every lowered `RMGd` — the paper's and
//! the generalized ones (multiple escorts, upgrade waves, aging states)
//! alike.

use san::{Analyzer, Marking, RewardSpec};

use crate::Result;

/// The state-set classification every guarded-operation dependability model
/// must expose (paper §4.2):
///
/// * `A'1` — no error has occurred;
/// * `A'2` — no error has been *detected* (includes undetected failures);
/// * `A'3` — an error was detected and the system is alive;
/// * `A'4 ⊂ A'2` — failed without successful detection;
/// * detected-then-failed — the target set of the `∫∫ h·f` measure.
pub trait GopStateSets {
    /// `A'1`: no error has occurred.
    fn in_a1(&self, mk: &Marking) -> bool;
    /// `A'2`: no error has been detected.
    fn in_a2(&self, mk: &Marking) -> bool;
    /// `A'3`: error detected, system alive.
    fn in_a3(&self, mk: &Marking) -> bool;
    /// `A'4`: failed without successful detection.
    fn in_a4(&self, mk: &Marking) -> bool;
    /// Detected and subsequently failed again.
    fn detected_then_failed(&self, mk: &Marking) -> bool;
    /// An error has been detected (alive or not) — the first-passage target
    /// of the exact truncated detection-time moment.
    fn is_detected(&self, mk: &Marking) -> bool;
}

/// The five G-OP–model constituent measures of Table 1, solved on one
/// dependability model for one φ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GopMeasures {
    /// `P(X'_φ ∈ A'1)` — instant-of-time at φ.
    pub p_a1: f64,
    /// `∫₀^φ h(τ)dτ` — instant-of-time at φ on `A'3`.
    pub i_h: f64,
    /// `∫₀^φ∫_τ^φ h(τ)f(x)dxdτ` — instant-of-time at φ on
    /// detected-then-failed.
    pub i_hf: f64,
    /// `∫₀^φ τ·h(τ)dτ` per the Table 1 reward structure.
    pub i_tau_h: f64,
    /// The exact truncated moment `E[τ_d·1{τ_d ≤ φ}]`.
    pub i_tau_h_exact: f64,
}

/// Solves the five G-OP dependability measures on `analyzer` using the
/// state classification in `sets`.
///
/// At `φ = 0` the G-OP process is degenerate (no error can occur in an
/// empty interval) and the measures are returned in closed form.
///
/// # Errors
///
/// Propagates transient-solver and first-passage failures.
pub fn gop_measures<S: GopStateSets + Clone + Send + Sync + 'static>(
    analyzer: &Analyzer,
    sets: S,
    phi: f64,
) -> Result<GopMeasures> {
    if phi == 0.0 {
        return Ok(GopMeasures {
            p_a1: 1.0,
            i_h: 0.0,
            i_hf: 0.0,
            i_tau_h: 0.0,
            i_tau_h_exact: 0.0,
        });
    }
    // One transient solve serves all three instant-of-time measures: they
    // only differ in which states of π(φ) they sum.
    let pi_phi = analyzer.distribution_at(phi)?;
    let space = analyzer.state_space();
    let p_a1 = space.probability_of(&pi_phi, |mk| sets.in_a1(mk));
    let i_h = space.probability_of(&pi_phi, |mk| sets.in_a3(mk));
    let i_hf = space.probability_of(&pi_phi, |mk| sets.detected_then_failed(mk));
    // Table 1: rate +1 on A'2 (no detection), −1 on A'4 (failed without
    // detection), accumulated over [0, φ].
    let s2 = sets.clone();
    let s4 = sets.clone();
    let spec = RewardSpec::new()
        .rate_when(move |mk| s2.in_a2(mk), 1.0)
        .rate_when(move |mk| s4.in_a4(mk), -1.0);
    let i_tau_h = analyzer.accumulated_reward(&spec, phi)?;
    // The exact truncated moment E[τ·1{τ ≤ φ}] by first-passage analysis
    // into the detected states — see DESIGN.md on the Table-1 censoring.
    let detected_states = space.states_where(|mk| sets.is_detected(mk));
    let i_tau_h_exact = markov::first_passage::truncated_mean_hitting_time(
        space.ctmc(),
        space.initial_distribution(),
        &detected_states,
        phi,
        &Default::default(),
    )?;
    Ok(GopMeasures {
        p_a1,
        i_h,
        i_hf,
        i_tau_h,
        i_tau_h_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsu::rmgd;
    use crate::GsuParams;

    #[test]
    fn engine_matches_direct_measures_on_rmgd() {
        let params = GsuParams::paper_baseline();
        let built = rmgd::build(&params).unwrap();
        let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
        let direct = crate::GsuAnalysis::new(params).unwrap();
        for phi in [0.0, 2500.0, 7000.0] {
            let engine = gop_measures(&analyzer, built.places.clone(), phi).unwrap();
            let m = direct.measures(phi).unwrap();
            assert_eq!(engine.p_a1, m.p_a1_gop, "phi = {phi}");
            assert_eq!(engine.i_h, m.i_h, "phi = {phi}");
            assert_eq!(engine.i_hf, m.i_hf, "phi = {phi}");
            assert_eq!(engine.i_tau_h, m.i_tau_h, "phi = {phi}");
            assert_eq!(engine.i_tau_h_exact, m.i_tau_h_exact, "phi = {phi}");
        }
    }

    #[test]
    fn phi_zero_is_degenerate() {
        let params = GsuParams::paper_baseline();
        let built = rmgd::build(&params).unwrap();
        let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
        let m = gop_measures(&analyzer, built.places, 0.0).unwrap();
        assert_eq!(m.p_a1, 1.0);
        assert_eq!(m.i_h, 0.0);
        assert_eq!(m.i_tau_h_exact, 0.0);
    }
}
