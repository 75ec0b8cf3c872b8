//! Integration tests: the analytic translation pipeline and the MDCD
//! discrete-event simulator agree.

use guarded_upgrade::prelude::*;
use mdcd_sim::estimate_y_matched;

/// Scaled-down scenario where the event-exact engine is cheap.
fn small_params() -> GsuParams {
    GsuParams {
        theta: 50.0,
        lambda: 40.0,
        mu_new: 0.02,
        mu_old: 1e-7,
        coverage: 0.95,
        p_ext: 0.1,
        alpha: 200.0,
        beta: 200.0,
    }
}

#[test]
fn hybrid_and_exact_engines_agree_on_worth() {
    let params = small_params();
    let phi = 30.0;
    let cfg = SimConfig::new(params, phi).unwrap();
    let exact = MonteCarlo::new(cfg)
        .with_engine(EngineKind::Exact)
        .with_replications(2000)
        .with_seed(3)
        .run();
    let hybrid = MonteCarlo::new(cfg)
        .with_engine(EngineKind::Hybrid)
        .with_replications(2000)
        .with_seed(4)
        .run();
    let gap = (exact.mean_worth - hybrid.mean_worth).abs();
    let tol = 2.0 * (exact.worth_half_width_95 + hybrid.worth_half_width_95);
    assert!(
        gap <= tol,
        "worth gap {gap} exceeds tolerance {tol} (exact {}, hybrid {})",
        exact.mean_worth,
        hybrid.mean_worth
    );
    assert!((exact.p_s2 - hybrid.p_s2).abs() < 0.05);
    assert!((exact.p_s3 - hybrid.p_s3).abs() < 0.05);
}

#[test]
fn analytic_matches_simulation_under_matched_gamma() {
    // Mission scale: analytic Y vs hybrid Monte-Carlo with the analytic
    // pipeline's constant γ convention.
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params).unwrap();
    for phi in [3000.0, 7000.0] {
        let a = analysis.evaluate(phi).unwrap();
        let y_sim = estimate_y_matched(params, phi, a.gamma, 4000, 21, EngineKind::Hybrid)
            .unwrap()
            .y;
        assert!(
            (a.y - y_sim).abs() / a.y < 0.06,
            "φ={phi}: analytic {} vs simulated {y_sim}",
            a.y
        );
    }
}

#[test]
fn simulated_path_probabilities_match_constituent_measures() {
    let params = GsuParams::paper_baseline();
    let phi = 6000.0;
    let analysis = GsuAnalysis::new(params).unwrap();
    let m = analysis.measures(phi).unwrap();
    let s = MonteCarlo::new(SimConfig::new(params, phi).unwrap())
        .with_replications(6000)
        .with_seed(77)
        .run();
    // P(S1) = P(X'_φ ∈ A'1)·P(X''_{θ−φ} ∈ A''1).
    let p_s1_analytic = m.p_a1_gop * m.p_a1_norm_rem;
    assert!(
        (s.p_s1 - p_s1_analytic).abs() < 0.03,
        "P(S1): simulated {} vs analytic {p_s1_analytic}",
        s.p_s1
    );
    // P(S2) ≈ ∫h · (1 − ∫f).
    let p_s2_analytic = m.i_h * (1.0 - m.i_f);
    assert!(
        (s.p_s2 - p_s2_analytic).abs() < 0.03,
        "P(S2): simulated {} vs analytic {p_s2_analytic}",
        s.p_s2
    );
}

#[test]
fn simulated_rho_matches_rmgp_solution() {
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params).unwrap();
    let (rho1_analytic, rho2_analytic) = analysis.rho();
    let s = MonteCarlo::new(SimConfig::new(params, 8000.0).unwrap())
        .with_replications(200)
        .with_seed(5)
        .run();
    let (rho1_sim, rho2_sim) = s.mean_rho.expect("guarded paths exist");
    assert!(
        (rho1_sim - rho1_analytic).abs() < 0.01,
        "ρ1: sim {rho1_sim} vs analytic {rho1_analytic}"
    );
    assert!(
        (rho2_sim - rho2_analytic).abs() < 0.02,
        "ρ2: sim {rho2_sim} vs analytic {rho2_analytic}"
    );
}

#[test]
fn estimate_y_confidence_interval_brackets_repeat_runs() {
    let params = small_params();
    let e1 = estimate_y(params, 30.0, 3000, 1).unwrap();
    let e2 = estimate_y(params, 30.0, 3000, 2).unwrap();
    assert!(
        (e1.y - e2.y).abs() <= 2.0 * (e1.half_width_95 + e2.half_width_95),
        "independent estimates too far apart: {} vs {}",
        e1.y,
        e2.y
    );
}
