//! Property-based integration tests spanning the whole stack: random
//! parameter sets and random SAN topologies must preserve the structural
//! invariants of the analysis.

use std::path::Path;

use guarded_upgrade::prelude::*;
use proptest::prelude::*;
use san::ReachabilityOptions;

/// Random-but-sane GSU parameter sets (kept in the regime the models are
/// meant for: messages ≫ faults, safeguards faster than messages).
fn arb_params() -> impl Strategy<Value = GsuParams> {
    (
        100.0..2000.0f64, // theta
        20.0..200.0f64,   // lambda
        1e-4..5e-3f64,    // mu_new  (µ·θ within a sensible range)
        0.3..0.99f64,     // coverage
        0.05..0.3f64,     // p_ext
        2.0..20.0f64,     // alpha / lambda ratio
    )
        .prop_map(
            |(theta, lambda, mu_new, coverage, p_ext, ratio)| GsuParams {
                theta,
                lambda,
                mu_new,
                mu_old: mu_new * 1e-4,
                coverage,
                p_ext,
                alpha: lambda * ratio,
                beta: lambda * ratio,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn y_is_positive_and_one_at_zero(params in arb_params()) {
        let analysis = GsuAnalysis::new(params).unwrap();
        let p0 = analysis.evaluate(0.0).unwrap();
        prop_assert!((p0.y - 1.0).abs() < 1e-9);
        for frac in [0.25, 0.5, 0.75, 1.0] {
            let pt = analysis.evaluate(params.theta * frac).unwrap();
            prop_assert!(pt.y.is_finite());
            prop_assert!(pt.y > 0.0);
            prop_assert!(pt.e_w_phi >= 0.0);
            prop_assert!(pt.e_w_phi <= 2.0 * params.theta * (1.0 + 1e-9));
            pt.measures.validate(params.theta * frac).unwrap();
        }
    }

    #[test]
    fn guarded_worth_exceeds_unguarded_at_decent_coverage(params in arb_params()) {
        prop_assume!(params.coverage > 0.7);
        let analysis = GsuAnalysis::new(params).unwrap();
        // Somewhere on the grid, guarding should not be (much) worse than
        // not guarding: the S2 recuperation is worth something.
        let best = analysis
            .sweep_grid(8)
            .unwrap()
            .into_iter()
            .map(|p| p.y)
            .fold(0.0f64, f64::max);
        prop_assert!(best >= 1.0 - 1e-9, "best Y = {best}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random cyclic birth-death-like SANs: generated chains are valid and
    /// solver answers are consistent across engines.
    #[test]
    fn random_san_chain_consistency(
        capacity in 1u32..6,
        up_rate in 0.1..5.0f64,
        down_rate in 0.1..5.0f64,
        t in 0.1..20.0f64,
    ) {
        let mut m = SanModel::new("bd");
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::timed("up", up_rate)
                .with_enabling(move |mk| mk.tokens(q) < capacity)
                .with_output_arc(q, 1),
        ).unwrap();
        m.add_activity(Activity::timed("down", down_rate).with_input_arc(q, 1)).unwrap();

        let space = StateSpace::generate(&m, &ReachabilityOptions::default()).unwrap();
        prop_assert_eq!(space.n_states(), capacity as usize + 1);

        // Generator rows sum to zero.
        for s in space.ctmc().generator().row_sums() {
            prop_assert!(s.abs() < 1e-9);
        }

        // Transient engines agree.
        let analyzer = Analyzer::from_state_space(
            StateSpace::generate(&m, &ReachabilityOptions::default()).unwrap(),
        );
        let spec = RewardSpec::new().rate_fn(|_| true, move |mk| mk.tokens(q) as f64);
        let uni = markov::transient::Options {
            method: markov::transient::Method::Uniformization,
            max_uniformization_steps: 50_000_000,
            ..Default::default()
        };
        let exp = markov::transient::Options {
            method: markov::transient::Method::MatrixExponential,
            ..Default::default()
        };

        let a = Analyzer::from_state_space(
            StateSpace::generate(&m, &ReachabilityOptions::default()).unwrap(),
        ).with_transient_options(uni).instant_reward(&spec, t).unwrap();
        let b = analyzer.with_transient_options(exp).instant_reward(&spec, t).unwrap();
        prop_assert!((a - b).abs() < 1e-7, "uniformization {a} vs expm {b}");
    }

    /// Simulation worth is always within the physical bounds.
    #[test]
    fn simulation_worth_bounds(seed in 0u64..5000, phi_frac in 0.0..1.0f64) {
        let params = GsuParams {
            theta: 60.0,
            lambda: 30.0,
            mu_new: 0.03,
            mu_old: 1e-6,
            coverage: 0.9,
            p_ext: 0.1,
            alpha: 150.0,
            beta: 150.0,
        };
        let phi = params.theta * phi_frac;
        let cfg = SimConfig::new(params, phi).unwrap();
        let mut rng = SimRng::from_seed(seed);
        let out = mdcd_sim::simulate_run(&cfg, &mut rng);
        prop_assert!(out.worth >= 0.0);
        prop_assert!(out.worth <= 2.0 * params.theta + 1e-9);
        match out.class {
            PathClass::S3 => prop_assert_eq!(out.worth, 0.0),
            PathClass::S2 => prop_assert!(out.detection_time.is_some()),
            PathClass::S1 => {
                prop_assert!(out.detection_time.is_none());
                prop_assert!(out.failure_time.is_none());
            }
        }
    }
}

/// Guards hand edits of the committed artifacts: every `results/**/*.json`
/// document and every line of `results/lint-findings.jsonl` must parse
/// under the strict reader the gates use.
#[test]
fn committed_json_artifacts_parse_strictly() {
    let mut dirs = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("results")];
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            let ext = path
                .extension()
                .and_then(|e| e.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                dirs.push(path);
            } else if ext == "json" || ext == "jsonl" {
                let text = std::fs::read_to_string(&path).unwrap();
                let docs = if ext == "json" {
                    vec![text.as_str()]
                } else {
                    text.lines().collect()
                };
                for doc in docs {
                    if let Err(e) = telemetry::json::parse(doc) {
                        panic!("{}: {e}", path.display());
                    }
                }
            }
        }
    }
}
