//! `RMGd` — the guarded-operation dependability SAN reward model (paper
//! Figure 6).
//!
//! This model represents the stochastic process `X'` over the pre-designated
//! guarded-operation interval `[0, φ]`: the MDCD protocol escorts the active
//! new version `P1new` while `P1old` shadows it; acceptance tests validate
//! external messages of potentially contaminated processes; error detection
//! triggers recovery back to normal mode with `P1old` and `P2` in mission
//! operation (still inside this model, because the constituent measure
//! `∫₀^φ∫_τ^φ h(τ)f(x) dxdτ` — "detected, then the recovered system fails
//! again by φ" — spans both modes).
//!
//! Following the paper, the model tracks the *actual* contamination of each
//! process (`P1Nctn`, `P1Octn`, `P2ctn`) separately from the *perceived*
//! potential contamination (the dirty bit `P2DB`), which lets it enumerate the
//! three subtle scenarios of §5.1 without extra machinery:
//!
//! 1. a process considered potentially contaminated is actually clean — its
//!    external message passes the AT and resets `dirty_bit`;
//! 2. a process is actually contaminated but the error is not manifested in
//!    the validated message — after the AT passes, the state is *wrongly*
//!    judged non-contaminated (the AT-pass case leaves `P2ctn` set while
//!    clearing `P2DB`);
//! 3. a process considered non-contaminated sends an external message
//!    **without undergoing AT** — if it was actually contaminated the
//!    erroneous message slips out and the system fails.
//!
//! Acceptance tests are represented instantaneously (their duration is
//! orders of magnitude below inter-fault times — paper §5.1); their
//! *duration* matters only for the overhead model `RMGp`.
//!
//! The state sets of the translated measures (paper §4.2) are expressed over
//! the `detected`/`failure` places:
//!
//! * `A'1` — no error occurred: `detected == 0 && failure == 0`;
//! * `A'2` — no error *detected*: `detected == 0`;
//! * `A'3` — error detected, system alive: `detected == 1 && failure == 0`;
//! * `A'4 ⊂ A'2` — failed with no detection: `detected == 0 && failure == 1`.

use super::lower::{self, Gd, GdPlaces};
use crate::{GsuParams, Result};

/// The places of `RMGd` — the dependability model's place handles.
pub type RmgdPlaces = GdPlaces;

/// Builds `RMGd` for the given parameters: the paper-shaped lowering
/// [`lower::build_gd`] of `ScenarioSpec::from(*params)`.
///
/// # Errors
///
/// Propagates SAN construction failures.
pub fn build(params: &GsuParams) -> Result<Gd> {
    lower::build_gd(&(*params).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsu::GopStateSets;
    use san::{Analyzer, StateSpace};

    fn baseline() -> GsuParams {
        GsuParams::paper_baseline()
    }

    #[test]
    fn state_space_is_small() {
        let rmgd = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgd.model, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 22);
    }

    #[test]
    fn a_sets_partition_reachable_states() {
        let rmgd = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgd.model, &Default::default()).unwrap();
        let p = &rmgd.places;
        for i in 0..ss.n_states() {
            let mk = ss.marking(i);
            let cats = [
                p.in_a1(mk),
                p.in_a3(mk),
                p.in_a4(mk),
                p.detected_then_failed(mk),
            ];
            assert_eq!(
                cats.iter().filter(|&&b| b).count(),
                1,
                "state {mk} must be in exactly one category"
            );
            // A'4 ⊂ A'2 (paper: "thus A'4 is a proper subset of A'2").
            if p.in_a4(mk) {
                assert!(p.in_a2(mk));
            }
        }
    }

    #[test]
    fn initial_state_is_all_clean() {
        let rmgd = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgd.model, &Default::default()).unwrap();
        let init: Vec<f64> = ss.initial_distribution().to_vec();
        let idx = init.iter().position(|&p| p == 1.0).unwrap();
        assert!(rmgd.places.in_a1(ss.marking(idx)));
        assert_eq!(ss.marking(idx).total_tokens(), 0);
    }

    #[test]
    fn detection_probability_scales_with_coverage() {
        let phi = 5_000.0;
        let mut last = 0.0;
        for cov in [0.2, 0.5, 0.95] {
            let p = baseline().with_coverage(cov).unwrap();
            let rmgd = build(&p).unwrap();
            let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
            let places = rmgd.places;
            let det = an.probability_at(phi, |mk| places.in_a3(mk)).unwrap();
            assert!(det > last, "coverage {cov}: {det} should exceed {last}");
            last = det;
        }
    }

    #[test]
    fn no_failure_with_perfect_components() {
        // µ_new = µ_old ≈ 0: the system stays in A'1 almost surely.
        let mut p = baseline();
        p.mu_new = 1e-15;
        p.mu_old = 0.0;
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places;
        let a1 = an.probability_at(10_000.0, |mk| places.in_a1(mk)).unwrap();
        assert!(a1 > 1.0 - 1e-9);
    }

    #[test]
    fn survival_and_detection_roughly_exponential() {
        // For µ_new·φ = 0.5 the A'1 probability should be close to
        // exp(−µ_new·φ) (faults are detected or fail within ~1/(λ·p_ext·c)
        // of manifestation, which is negligible at this scale).
        let p = baseline();
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places;
        let phi = 5_000.0;
        let a1 = an.probability_at(phi, |mk| places.in_a1(mk)).unwrap();
        let expect = (-p.mu_new * phi).exp();
        assert!((a1 - expect).abs() < 0.02, "{a1} vs {expect}");
        // Detected fraction tracks c·(1−exp(−µnew·φ)) closely; P2's own
        // (rare, µold-rate) faults add a sliver of extra detection mass, so
        // this is a tight approximation rather than a strict bound.
        let det = an.probability_at(phi, |mk| places.in_a3(mk)).unwrap();
        let approx = p.coverage * (1.0 - expect);
        assert!(det <= approx + 1e-3, "{det} vs {approx}");
        assert!(det > 0.8 * approx, "{det} vs {approx}");
    }

    #[test]
    fn detected_then_failed_needs_long_horizons() {
        // The recovered system runs old software (µ_old = 1e-8): failing
        // again within φ is possible but rare.
        let p = baseline();
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places;
        let hf = an
            .probability_at(10_000.0, |mk| places.detected_then_failed(mk))
            .unwrap();
        assert!(hf > 0.0);
        assert!(hf < 1e-3);
    }

    #[test]
    fn zero_coverage_never_detects() {
        let p = baseline().with_coverage(0.0).unwrap();
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places;
        let det = an
            .probability_at(10_000.0, |mk| mk.tokens(places.detected) == 1)
            .unwrap();
        assert_eq!(det, 0.0);
    }
}
