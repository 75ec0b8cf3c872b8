//! Failure-injection tests: every layer must refuse pathological inputs
//! loudly (typed errors) instead of producing silent garbage — the
//! dependability posture the paper's subject matter demands of its own
//! tooling.

use guarded_upgrade::prelude::*;
use markov::{Ctmc, MarkovError};
use san::{ReachabilityOptions, SanError};

#[test]
fn nan_and_negative_rates_are_rejected_at_every_layer() {
    // Markov layer.
    assert!(matches!(
        Ctmc::from_transitions(2, [(0, 1, f64::NAN)]),
        Err(MarkovError::InvalidModel { .. })
    ));
    assert!(Ctmc::from_transitions(2, [(0, 1, -1.0)]).is_err());
    assert!(Ctmc::from_transitions(2, [(0, 1, f64::INFINITY)]).is_err());

    // SAN layer: the invalid rate surfaces at evaluation time, when the
    // marking context is known.
    let mut m = SanModel::new("nan");
    let p = m.add_place("p", 1);
    m.add_activity(san::Activity::timed_fn("bad", |_| f64::NAN).with_input_arc(p, 1))
        .unwrap();
    assert!(matches!(
        StateSpace::generate(&m, &ReachabilityOptions::default()),
        Err(SanError::InvalidFunction { .. })
    ));

    // Parameter layer.
    let mut params = GsuParams::paper_baseline();
    params.lambda = f64::NAN;
    assert!(params.validate().is_err());
}

#[test]
fn corrupted_distributions_are_rejected() {
    let chain = Ctmc::from_transitions(2, [(0, 1, 1.0)]).unwrap();
    for bad in [
        vec![0.5, 0.6],      // mass > 1
        vec![1.5, -0.5],     // negative
        vec![f64::NAN, 1.0], // NaN
        vec![1.0],           // wrong length
        vec![0.0, 0.0],      // mass 0
    ] {
        assert!(
            markov::transient::distribution(&chain, &bad, 1.0, &Default::default()).is_err(),
            "accepted corrupted distribution {bad:?}"
        );
    }
}

#[test]
fn state_space_explosion_is_contained() {
    // Unbounded counter: the generator must stop at the configured cap
    // rather than exhaust memory.
    let mut m = SanModel::new("unbounded");
    let p = m.add_place("p", 0);
    m.add_activity(san::Activity::timed("grow", 1.0).with_output_arc(p, 1))
        .unwrap();
    let opts = ReachabilityOptions {
        max_states: 1000,
        ..Default::default()
    };
    assert!(matches!(
        StateSpace::generate(&m, &opts),
        Err(SanError::StateSpaceLimit { limit: 1000 })
    ));
}

#[test]
fn solver_budget_exhaustion_is_a_typed_error() {
    // A stiff chain with uniformization forced and a tiny budget.
    let chain = Ctmc::from_transitions(2, [(0, 1, 1e6), (1, 0, 1e6)]).unwrap();
    let opts = markov::transient::Options {
        method: markov::transient::Method::Uniformization,
        max_uniformization_steps: 10,
        ..Default::default()
    };
    assert!(matches!(
        markov::transient::distribution(&chain, &[1.0, 0.0], 1.0, &opts),
        Err(MarkovError::LimitExceeded { .. })
    ));
    // And with the dense engine barred by a zero state limit.
    let opts = markov::transient::Options {
        method: markov::transient::Method::MatrixExponential,
        dense_state_limit: 1,
        ..Default::default()
    };
    assert!(matches!(
        markov::transient::distribution(&chain, &[1.0, 0.0], 1.0, &opts),
        Err(MarkovError::LimitExceeded { .. })
    ));
}

#[test]
fn gsu_pipeline_rejects_corrupt_parameters_without_panicking() {
    let base = GsuParams::paper_baseline();
    type Corruption = Box<dyn Fn(&mut GsuParams)>;
    let corruptions: Vec<Corruption> = vec![
        Box::new(|p| p.theta = -1.0),
        Box::new(|p| p.theta = f64::INFINITY),
        Box::new(|p| p.lambda = 0.0),
        Box::new(|p| p.coverage = 2.0),
        Box::new(|p| p.coverage = -0.1),
        Box::new(|p| p.p_ext = f64::NAN),
        Box::new(|p| p.alpha = 0.0),
        Box::new(|p| p.mu_new = 0.0),
        Box::new(|p| p.mu_old = -1e-9),
    ];
    for corrupt in corruptions {
        let mut params = base;
        corrupt(&mut params);
        assert!(
            GsuAnalysis::new(params).is_err(),
            "pipeline accepted corrupt parameters {params:?}"
        );
    }
}

#[test]
fn extreme_but_valid_parameters_stay_finite() {
    // Boundary-adjacent parameter sets must produce finite, in-range
    // results, not NaNs.
    let cases = [
        GsuParams {
            coverage: 1.0,
            ..GsuParams::paper_baseline()
        },
        GsuParams {
            coverage: 0.0,
            ..GsuParams::paper_baseline()
        },
        GsuParams {
            p_ext: 1.0,
            ..GsuParams::paper_baseline()
        },
        GsuParams {
            mu_old: 0.0,
            ..GsuParams::paper_baseline()
        },
        GsuParams {
            mu_new: 1e-2, // very unreliable upgrade
            ..GsuParams::paper_baseline()
        },
    ];
    for params in cases {
        let analysis = GsuAnalysis::new(params).expect("valid boundary parameters");
        for phi in [0.0, 5000.0, 10_000.0] {
            let pt = analysis
                .evaluate(phi)
                .unwrap_or_else(|e| panic!("evaluation failed for {params:?} at φ={phi}: {e}"));
            assert!(pt.y.is_finite(), "{params:?} gave Y = {}", pt.y);
            assert!(pt.y > 0.0);
            pt.measures.validate(phi).unwrap();
        }
    }
}

#[test]
fn simulator_rejects_invalid_configs_and_seeds_do_not_panic() {
    let params = GsuParams::paper_baseline();
    assert!(SimConfig::new(params, -5.0).is_err());
    assert!(SimConfig::new(params, params.theta + 1.0).is_err());
    let mut bad = params;
    bad.coverage = 1.5;
    assert!(SimConfig::new(bad, 100.0).is_err());

    // Hybrid engine across many seeds, including adversarial ones.
    let cfg = SimConfig::new(params, 7000.0).unwrap();
    let cal = mdcd_sim::Calibration {
        rho1: 0.98,
        rho2: 0.955,
        p2_dirty: 0.9,
    };
    for seed in [0, 1, u64::MAX, u64::MAX / 2, 0xDEAD_BEEF] {
        let mut rng = SimRng::from_seed(seed);
        let out = mdcd_sim::simulate_run_hybrid(&cfg, &cal, &mut rng);
        assert!(out.worth.is_finite());
        assert!(out.worth >= 0.0);
    }
}

#[test]
fn vanishing_loops_in_user_models_are_detected_not_hung() {
    let mut m = SanModel::new("pingpong");
    let a = m.add_place("a", 1);
    let b = m.add_place("b", 0);
    m.add_activity(
        san::Activity::instantaneous("ab")
            .with_input_arc(a, 1)
            .with_output_arc(b, 1),
    )
    .unwrap();
    m.add_activity(
        san::Activity::instantaneous("ba")
            .with_input_arc(b, 1)
            .with_output_arc(a, 1),
    )
    .unwrap();
    // Both the analytic generator and the trajectory simulator must bail.
    assert!(matches!(
        StateSpace::generate(&m, &ReachabilityOptions::default()),
        Err(SanError::VanishingLoop { .. })
    ));
    let spec = RewardSpec::new();
    let mut rng = SimRng::from_seed(1);
    assert!(matches!(
        san::simulate::simulate_trajectory(&m, &spec, 1.0, &Default::default(), &mut rng),
        Err(SanError::VanishingLoop { .. })
    ));
}
