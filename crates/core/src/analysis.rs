//! The end-to-end analysis pipeline: a [`ScenarioSpec`] lowered to its
//! three SAN reward models → constituent measures → performability index.

use san::{Analyzer, PlaceId};

use crate::gsu::{self, lower, GdPlaces, GopStateSets, ScenarioSpec};
use crate::{assemble, ConstituentMeasures, GammaPolicy, GsuParams, PerfError, Result, SweepPoint};

/// Where the forward-progress fractions `ρ1`, `ρ2` come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OverheadSource {
    /// Solved as steady-state rewards on `RMGp` (the paper's method).
    Computed,
    /// Supplied directly — used to reproduce figures whose captions pin
    /// `(ρ1, ρ2)` rather than `(α, β)`.
    Fixed(f64, f64),
}

/// The complete guarded-operation performability analysis for one model
/// specification: the paper's parameters ([`GsuParams`] lowers to the
/// paper-shaped spec) or a catalog scenario.
///
/// Construction lowers the spec through [`gsu::lower`] and solves
/// everything that does not depend on φ (the `RMGp` steady state and the
/// `RMNd(µnew)` full-window probability); evaluating a φ then costs three
/// transient solutions on the `RMGd` / `RMNd` chains.
///
/// # Example
///
/// ```
/// use performability::{GsuAnalysis, GsuParams};
///
/// # fn main() -> Result<(), performability::PerfError> {
/// let analysis = GsuAnalysis::new(GsuParams::paper_baseline())?;
/// let point = analysis.evaluate(7000.0)?;
/// assert!(point.y > 1.0);
/// # Ok(())
/// # }
/// ```
pub struct GsuAnalysis {
    spec: ScenarioSpec,
    gamma_policy: GammaPolicy,
    rho: (f64, f64),
    /// Stationary vector of the `RMGp` solve (when ρ was computed) — the
    /// warm-start seed for analyses at neighboring parameter points.
    rho_pi: Option<Vec<f64>>,
    rmgd_analyzer: Analyzer,
    rmgd_places: GdPlaces,
    rmnd_new: Analyzer,
    rmnd_new_failure: PlaceId,
    rmnd_old: Analyzer,
    rmnd_old_failure: PlaceId,
    /// `P(X''_θ ∈ A''1)` — φ-independent, solved once.
    p_a1_norm_theta: f64,
}

impl GsuAnalysis {
    /// Lowers `spec` to the three SAN reward models and solves the
    /// φ-independent measures, with `(ρ1, ρ2)` computed from `RMGp`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation, phase-type compilation, and model
    /// generation/solution failures.
    pub fn new(spec: impl Into<ScenarioSpec>) -> Result<Self> {
        Self::build(spec.into(), OverheadSource::Computed, None)
    }

    /// Like [`GsuAnalysis::new`] but warm-starting the `RMGp` steady solve
    /// from a neighboring analysis' stationary vector
    /// ([`GsuAnalysis::rho_steady_vector`]) — parameter continuation for
    /// sweeps and sensitivity fans. The hint affects only the iteration
    /// count, never the result.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GsuAnalysis::new`].
    pub fn new_continued(spec: impl Into<ScenarioSpec>, hint: Option<&[f64]>) -> Result<Self> {
        Self::build(spec.into(), OverheadSource::Computed, hint)
    }

    /// Like [`GsuAnalysis::new`] but with `(ρ1, ρ2)` supplied directly
    /// instead of solved from `RMGp`.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidParameter`] when a fraction is outside
    /// `[0, 1]`, and propagates model-building failures.
    pub fn with_fixed_overhead(
        spec: impl Into<ScenarioSpec>,
        rho1: f64,
        rho2: f64,
    ) -> Result<Self> {
        for (name, v) in [("rho1", rho1), ("rho2", rho2)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(PerfError::InvalidParameter {
                    name,
                    value: v,
                    expected: "within [0, 1]",
                });
            }
        }
        Self::build(spec.into(), OverheadSource::Fixed(rho1, rho2), None)
    }

    fn build(spec: ScenarioSpec, overhead: OverheadSource, hint: Option<&[f64]>) -> Result<Self> {
        let params = spec.params;
        params.validate()?;
        let mut span = telemetry::span("performability.build");

        let (rho, rho_pi) = match overhead {
            OverheadSource::Computed => {
                let s = lower::solve_rho_continued(&spec, hint)?;
                ((s.rho1, s.rho2), Some(s.pi))
            }
            OverheadSource::Fixed(r1, r2) => ((r1, r2), None),
        };

        let rmgd = lower::build_gd(&spec)?;
        let rmgd_analyzer = Analyzer::generate(&rmgd.model, &Default::default())?;

        let new = lower::build_np(&spec, params.mu_new)?;
        let rmnd_new = Analyzer::generate(&new.model, &Default::default())?;
        let old = lower::build_np(&spec, params.mu_old)?;
        let rmnd_old = Analyzer::generate(&old.model, &Default::default())?;

        let failure = new.places.failure;
        let p_a1_norm_theta =
            rmnd_new.probability_at(params.theta, move |mk| mk.tokens(failure) == 0)?;

        if telemetry::enabled() {
            telemetry::gauge("performability.rho1", rho.0);
            telemetry::gauge("performability.rho2", rho.1);
            telemetry::gauge("performability.p_a1_norm_theta", p_a1_norm_theta);
            span.record("rho1", rho.0);
            span.record("rho2", rho.1);
        }

        Ok(GsuAnalysis {
            spec,
            gamma_policy: GammaPolicy::default(),
            rho,
            rho_pi,
            rmgd_analyzer,
            rmgd_places: rmgd.places,
            rmnd_new,
            rmnd_new_failure: new.places.failure,
            rmnd_old,
            rmnd_old_failure: old.places.failure,
            p_a1_norm_theta,
        })
    }

    /// Replaces the γ policy (default: the paper's `γ = 1 − τ̄/θ`).
    pub fn with_gamma_policy(mut self, policy: GammaPolicy) -> Self {
        self.gamma_policy = policy;
        self
    }

    /// The model specification under analysis.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The parameter set under analysis.
    pub fn params(&self) -> &GsuParams {
        &self.spec.params
    }

    /// The forward-progress fractions `(ρ1, ρ2)` in use.
    pub fn rho(&self) -> (f64, f64) {
        self.rho
    }

    /// The stationary vector of the `RMGp` solve, when ρ was computed
    /// rather than fixed — the seed for [`GsuAnalysis::new_continued`] at a
    /// nearby parameter point.
    pub fn rho_steady_vector(&self) -> Option<&[f64]> {
        self.rho_pi.as_deref()
    }

    /// The analyzer of the lowered `RMGd` (for cross-validation probes).
    pub fn gd_analyzer(&self) -> &Analyzer {
        &self.rmgd_analyzer
    }

    /// Solves all nine constituent reward variables for a G-OP duration φ.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::PhiOutOfRange`] for φ outside `[0, θ]` and
    /// propagates solver failures.
    pub fn measures(&self, phi: f64) -> Result<ConstituentMeasures> {
        self.spec.params.validate_phi(phi)?;
        let mut span = telemetry::span("performability.measures");
        span.record("phi", phi);
        let theta = self.spec.params.theta;

        // RMGd measures (Table 1), via the state-set–generic engine.
        let gop = gsu::gop_measures(&self.rmgd_analyzer, self.rmgd_places.clone(), phi)?;
        let (p_a1_gop, i_h, i_hf, i_tau_h, i_tau_h_exact) =
            (gop.p_a1, gop.i_h, gop.i_hf, gop.i_tau_h, gop.i_tau_h_exact);

        // RMNd measures (§5.2.3).
        let remaining = theta - phi;
        let new_failure = self.rmnd_new_failure;
        let p_a1_norm_rem = self
            .rmnd_new
            .probability_at(remaining, move |mk| mk.tokens(new_failure) == 0)?;
        let old_failure = self.rmnd_old_failure;
        let i_f = 1.0
            - self
                .rmnd_old
                .probability_at(remaining, move |mk| mk.tokens(old_failure) == 0)?;

        if telemetry::enabled() {
            span.record("p_a1_gop", p_a1_gop);
            span.record("p_a1_norm_rem", p_a1_norm_rem);
            span.record("i_h", i_h);
            span.record("i_f", i_f);
        }

        Ok(ConstituentMeasures {
            p_a1_gop,
            p_a1_norm_theta: self.p_a1_norm_theta,
            p_a1_norm_rem,
            rho1: self.rho.0,
            rho2: self.rho.1,
            i_h,
            i_tau_h,
            i_tau_h_exact,
            i_hf,
            i_f,
        })
    }

    /// Evaluates the performability index and all intermediate quantities at
    /// one φ.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GsuAnalysis::measures`].
    pub fn evaluate(&self, phi: f64) -> Result<SweepPoint> {
        let mut span = telemetry::span("performability.evaluate");
        span.record("phi", phi);
        let measures = self.measures(phi)?;
        let point = assemble(self.spec.params.theta, phi, &measures, self.gamma_policy)?;
        if telemetry::enabled() {
            telemetry::counter("performability.evaluations", 1);
            span.record("y", point.y);
        }
        Ok(point)
    }

    /// The dropped-self-loop diagnostic of each generated state space, as
    /// `(model name, total dropped rate)` pairs — nonzero values are
    /// surfaced as warnings in reports.
    pub fn dropped_self_loop_rates(&self) -> Vec<(String, f64)> {
        [&self.rmgd_analyzer, &self.rmnd_new, &self.rmnd_old]
            .iter()
            .map(|a| {
                let space = a.state_space();
                (
                    space.model_name().to_string(),
                    space.dropped_self_loop_rate(),
                )
            })
            .collect()
    }

    /// Evaluates a sweep of φ values (e.g. the grid of Figures 9–12).
    ///
    /// The grid must be **ascending** within `[0, θ]` (shared validation
    /// with [`GsuAnalysis::sweep_incremental`]). Points are evaluated in
    /// parallel on the global [`pool::Pool`] (`GSU_THREADS` wide); each φ is
    /// an independent evaluation of the same φ-independent prefix, so the
    /// result is bitwise identical at any thread count.
    ///
    /// # Errors
    ///
    /// Rejects invalid grids up front; otherwise fails with the error of the
    /// lowest-index φ whose evaluation fails.
    pub fn sweep<I: IntoIterator<Item = f64>>(&self, phis: I) -> Result<Vec<SweepPoint>> {
        let phis: Vec<f64> = phis.into_iter().collect();
        self.spec.params.validate_phi_grid(&phis)?;
        let workers = pool::Pool::current();
        let mut span = telemetry::span("performability.sweep");
        span.record("points", phis.len());
        span.record("threads", workers.threads());
        workers.try_map_indexed(phis, |_, phi| self.evaluate(phi))
    }

    /// Evaluates a uniform grid of `n + 1` φ values over `[0, θ]`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn sweep_grid(&self, n: usize) -> Result<Vec<SweepPoint>> {
        let theta = self.spec.params.theta;
        let n = n.max(1);
        self.sweep((0..=n).map(|i| theta * i as f64 / n as f64))
    }

    /// Evaluates the spec's own φ grid — a catalog scenario's golden curve,
    /// or the figures' eleven-point grid for a [`GsuParams`] — pointwise,
    /// exactly like [`GsuAnalysis::sweep`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GsuAnalysis::sweep`].
    pub fn curve(&self) -> Result<Vec<SweepPoint>> {
        self.sweep(self.spec.phi_grid.iter().copied())
    }

    /// Evaluates an **ascending** φ grid in a single incremental pass:
    /// instead of solving every transient measure from `t = 0` for each φ,
    /// the state distributions and accumulated rewards are propagated from
    /// grid point to grid point. Produces the same numbers as
    /// [`GsuAnalysis::sweep`] (asserted by tests) at a fraction of the cost
    /// for dense grids — see the `pipeline` bench.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::PhiOutOfRange`] for any φ outside `[0, θ]`, an
    /// invalid-parameter error when the grid is not ascending, and
    /// propagates solver failures.
    pub fn sweep_incremental(&self, phis: &[f64]) -> Result<Vec<SweepPoint>> {
        let theta = self.spec.params.theta;
        self.spec.params.validate_phi_grid(phis)?;
        if phis.is_empty() {
            return Ok(Vec::new());
        }
        let opts = markov::transient::Options::default();
        let p = &self.rmgd_places;

        // --- RMGd: distributions and accumulated rewards along the grid. --
        let gd_space = self.rmgd_analyzer.state_space();
        let gd = gd_space.ctmc();
        let pi_at = markov::transient::distribution_batch(
            gd,
            gd_space.initial_distribution(),
            phis,
            &opts,
        )?;
        // Accumulated ∫τh: propagate occupancy over each gap.
        let (s2, s4) = (p.clone(), p.clone());
        let tau_spec = san::RewardSpec::new()
            .rate_when(move |mk| s2.in_a2(mk), 1.0)
            .rate_when(move |mk| s4.in_a4(mk), -1.0);
        let tau_structure = tau_spec.to_structure(gd_space);
        // Stopped chain for the exact truncated moment.
        let detected_states = gd_space.states_where(|mk| p.is_detected(mk));
        let mut is_target = vec![false; gd.n_states()];
        for &s in &detected_states {
            is_target[s] = true;
        }
        let stopped = markov::Ctmc::from_transitions(
            gd.n_states(),
            gd.transitions().filter(|&(from, _, _)| !is_target[from]),
        )?;
        let stopped_pi_at = markov::transient::distribution_batch(
            &stopped,
            gd_space.initial_distribution(),
            phis,
            &opts,
        )?;

        // --- RMNd: remaining-window survivals (ascending in θ−φ). ----------
        let remaining: Vec<f64> = phis.iter().rev().map(|&phi| theta - phi).collect();
        let new_space = self.rmnd_new.state_space();
        let new_pi = markov::transient::distribution_batch(
            new_space.ctmc(),
            new_space.initial_distribution(),
            &remaining,
            &opts,
        )?;
        let old_space = self.rmnd_old.state_space();
        let old_pi = markov::transient::distribution_batch(
            old_space.ctmc(),
            old_space.initial_distribution(),
            &remaining,
            &opts,
        )?;
        let new_failure = self.rmnd_new_failure;
        let old_failure = self.rmnd_old_failure;

        let mut out = Vec::with_capacity(phis.len());
        let mut prev_phi = 0.0;
        let mut tau_acc = 0.0;
        let mut exact_acc = 0.0; // ∫₀^φ D(t)dt on the stopped chain
        let mut gd_pi_prev = gd_space.initial_distribution().to_vec();
        let mut stopped_pi_prev = gd_space.initial_distribution().to_vec();

        for (k, &phi) in phis.iter().enumerate() {
            // Advance the accumulated integrals over (prev_phi, phi].
            let gap = phi - prev_phi;
            if gap > 0.0 {
                let occ = markov::transient::occupancy(gd, &gd_pi_prev, gap, &opts)?;
                tau_acc += tau_structure.accumulated(gd, &occ)?;
                let occ_stopped =
                    markov::transient::occupancy(&stopped, &stopped_pi_prev, gap, &opts)?;
                exact_acc += detected_states.iter().map(|&s| occ_stopped[s]).sum::<f64>();
            }
            gd_pi_prev = pi_at[k].clone();
            stopped_pi_prev = stopped_pi_at[k].clone();
            prev_phi = phi;

            let (p_a1_gop, i_h, i_hf, i_tau_h, i_tau_h_exact) = if phi == 0.0 {
                (1.0, 0.0, 0.0, 0.0, 0.0)
            } else {
                let pi = &pi_at[k];
                let d_phi: f64 = detected_states.iter().map(|&s| stopped_pi_at[k][s]).sum();
                (
                    gd_space.probability_of(pi, |mk| p.in_a1(mk)),
                    gd_space.probability_of(pi, |mk| p.in_a3(mk)),
                    gd_space.probability_of(pi, |mk| p.detected_then_failed(mk)),
                    tau_acc,
                    (phi * d_phi - exact_acc).max(0.0),
                )
            };

            // Remaining-window survivals were computed on the reversed grid.
            let rk = phis.len() - 1 - k;
            let p_a1_norm_rem =
                new_space.probability_of(&new_pi[rk], |mk| mk.tokens(new_failure) == 0);
            let i_f = 1.0 - old_space.probability_of(&old_pi[rk], |mk| mk.tokens(old_failure) == 0);

            let measures = ConstituentMeasures {
                p_a1_gop,
                p_a1_norm_theta: self.p_a1_norm_theta,
                p_a1_norm_rem,
                rho1: self.rho.0,
                rho2: self.rho.1,
                i_h,
                i_tau_h,
                i_tau_h_exact,
                i_hf,
                i_f,
            };
            out.push(assemble(theta, phi, &measures, self.gamma_policy)?);
        }
        Ok(out)
    }

    /// Finds the φ maximizing `Y` by coarse grid search followed by
    /// golden-section refinement around the best bracket.
    ///
    /// `grid` is the number of coarse intervals (the paper uses 10);
    /// `refinements` golden-section steps shrink the bracket afterwards
    /// (each step costs one evaluation).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn optimal_phi(&self, grid: usize, refinements: usize) -> Result<SweepPoint> {
        let theta = self.spec.params.theta;
        let grid = grid.max(2);
        let points = self.sweep_grid(grid)?;
        let Some(&first) = points.first() else {
            return Err(PerfError::InvalidParameter {
                name: "grid",
                value: grid as f64,
                expected: "a grid that yields at least one sweep point",
            });
        };
        // `is_ge` keeps the *last* maximum, matching `Iterator::max_by`.
        let mut best = first;
        for p in &points[1..] {
            if p.y.total_cmp(&best.y).is_ge() {
                best = *p;
            }
        }

        // Bracket around the best coarse point.
        let step = theta / grid as f64;
        let mut lo = (best.phi - step).max(0.0);
        let mut hi = (best.phi + step).min(theta);

        // Golden-section search (maximization).
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        let mut x1 = hi - INV_PHI * (hi - lo);
        let mut x2 = lo + INV_PHI * (hi - lo);
        let mut f1 = self.evaluate(x1)?;
        let mut f2 = self.evaluate(x2)?;
        for _ in 0..refinements {
            if f1.y >= f2.y {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - INV_PHI * (hi - lo);
                f1 = self.evaluate(x1)?;
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + INV_PHI * (hi - lo);
                f2 = self.evaluate(x2)?;
            }
            let candidate = if f1.y >= f2.y { f1 } else { f2 };
            if candidate.y > best.y {
                best = candidate;
            }
        }
        Ok(best)
    }
}

impl std::fmt::Debug for GsuAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GsuAnalysis")
            .field("spec", &self.spec.name)
            .field("params", &self.spec.params)
            .field("rho", &self.rho)
            .field("p_a1_norm_theta", &self.p_a1_norm_theta)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis() -> GsuAnalysis {
        GsuAnalysis::new(GsuParams::paper_baseline()).unwrap()
    }

    #[test]
    fn phi_zero_yields_unit_index() {
        let pt = analysis().evaluate(0.0).unwrap();
        assert!((pt.y - 1.0).abs() < 1e-9, "Y(0) = {}", pt.y);
    }

    #[test]
    fn baseline_guarded_operation_pays_off() {
        let an = analysis();
        let pt = an.evaluate(7000.0).unwrap();
        assert!(pt.y > 1.0, "Y(7000) = {}", pt.y);
        assert!(pt.y < 5.0, "Y(7000) = {} looks implausibly large", pt.y);
    }

    #[test]
    fn measures_validate_across_phi_grid() {
        let an = analysis();
        for phi in [0.0, 1000.0, 5000.0, 10_000.0] {
            let m = an.measures(phi).unwrap();
            m.validate(phi).unwrap();
        }
    }

    #[test]
    fn detection_mass_grows_with_phi() {
        let an = analysis();
        let m1 = an.measures(2000.0).unwrap();
        let m2 = an.measures(8000.0).unwrap();
        assert!(m2.i_h > m1.i_h);
        assert!(m2.i_tau_h > m1.i_tau_h);
        assert!(m1.p_a1_gop > m2.p_a1_gop);
        // Remaining-window survival improves with larger φ.
        assert!(m2.p_a1_norm_rem > m1.p_a1_norm_rem);
    }

    #[test]
    fn phi_out_of_range_rejected() {
        let an = analysis();
        assert!(matches!(
            an.evaluate(20_000.0),
            Err(PerfError::PhiOutOfRange { .. })
        ));
        assert!(an.evaluate(-1.0).is_err());
    }

    #[test]
    fn fixed_overhead_is_respected() {
        let an = GsuAnalysis::with_fixed_overhead(GsuParams::paper_baseline(), 0.95, 0.90).unwrap();
        assert_eq!(an.rho(), (0.95, 0.90));
        assert!(GsuAnalysis::with_fixed_overhead(GsuParams::paper_baseline(), 1.5, 0.9).is_err());
    }

    #[test]
    fn computed_rho_close_to_paper() {
        let an = analysis();
        let (r1, r2) = an.rho();
        assert!((r1 - 0.98).abs() < 0.005);
        assert!((r2 - 0.95).abs() < 0.02);
    }

    #[test]
    fn sweep_grid_covers_endpoints() {
        let an = analysis();
        let pts = an.sweep_grid(4).unwrap();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].phi, 0.0);
        assert_eq!(pts[4].phi, 10_000.0);
    }

    #[test]
    fn incremental_sweep_matches_pointwise_sweep() {
        let an = analysis();
        let phis = [0.0, 1500.0, 4000.0, 4000.0, 8500.0, 10_000.0];
        let fast = an.sweep_incremental(&phis).unwrap();
        let slow = an.sweep(phis.iter().copied()).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert!(
                (f.y - s.y).abs() < 1e-6,
                "φ={}: incremental {} vs pointwise {}",
                f.phi,
                f.y,
                s.y
            );
            assert!((f.measures.i_tau_h - s.measures.i_tau_h).abs() < 1e-4);
            assert!((f.measures.i_tau_h_exact - s.measures.i_tau_h_exact).abs() < 1e-4);
            assert!((f.measures.i_h - s.measures.i_h).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_sweep_rejects_descending_grid() {
        let an = analysis();
        assert!(an.sweep_incremental(&[5000.0, 1000.0]).is_err());
        assert!(an.sweep_incremental(&[]).unwrap().is_empty());
        assert!(an.sweep_incremental(&[20_000.0]).is_err());
    }

    #[test]
    fn optimal_phi_is_interior_and_beats_endpoints() {
        let an = analysis();
        let best = an.optimal_phi(10, 12).unwrap();
        let y0 = an.evaluate(0.0).unwrap().y;
        let y_theta = an.evaluate(10_000.0).unwrap().y;
        assert!(best.y >= y0);
        assert!(best.y >= y_theta);
        assert!(best.phi > 0.0);
    }

    #[test]
    fn curve_covers_the_spec_grid_and_starts_at_unity() {
        let curve = analysis().curve().unwrap();
        assert_eq!(curve.len(), 11);
        assert!((curve[0].y - 1.0).abs() < 1e-9);
        assert_eq!(curve[10].phi, 10_000.0);
    }

    #[test]
    fn measures_validate_for_extended_scenarios() {
        let mut spec = ScenarioSpec::from(GsuParams::paper_baseline());
        spec.escorts = 2;
        spec.at = gsu::Dist::Erlang {
            k: 3,
            rate: 3.0 * spec.params.alpha,
        };
        let an = GsuAnalysis::new(spec).unwrap();
        for phi in [0.0, 5000.0, 10_000.0] {
            let m = an.measures(phi).unwrap();
            m.validate(phi).unwrap();
        }
    }
}
