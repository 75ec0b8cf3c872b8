//! Cross-checking the analytic model-translation pipeline against the MDCD
//! protocol simulator, and inspecting individual sample paths.
//!
//! Run with: `cargo run --release --example simulation_validation`

use guarded_upgrade::prelude::*;
use mdcd_sim::{estimate_y_matched, simulate_run};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = GsuParams::paper_baseline();
    let phi = 7000.0;

    // Analytic side.
    let analysis = GsuAnalysis::new(params)?;
    let analytic = analysis.evaluate(phi)?;
    println!(
        "analytic:  Y({phi}) = {:.4} (γ = {:.3})",
        analytic.y, analytic.gamma
    );

    // Simulation side, using the same (constant) γ convention as the
    // analytic pipeline for a like-for-like comparison.
    let sim = estimate_y_matched(params, phi, analytic.gamma, 4000, 17, EngineKind::Hybrid)?;
    let (guarded, unguarded) = (&sim.guarded, &sim.unguarded);
    println!(
        "simulated: Y({phi}) = {:.4} ± {:.4}  (E[Wφ] = {:.0} ± {:.0}, E[W0] = {:.0} ± {:.0})",
        sim.y,
        sim.half_width_95,
        guarded.mean_worth,
        guarded.worth_half_width_95,
        unguarded.mean_worth,
        unguarded.worth_half_width_95
    );
    println!(
        "sample-path classes: S1 {:.3}, S2 {:.3}, S3 {:.3}",
        guarded.p_s1, guarded.p_s2, guarded.p_s3
    );
    if let Some(tau) = guarded.mean_detection_time {
        println!("mean detection time among S2 paths: {tau:.0} h");
    }

    // A few individual sample paths from the event-exact engine on a
    // scaled-down scenario (the exact engine simulates every message).
    println!("\nindividual sample paths (exact engine, scaled scenario θ=50 h):");
    let small = GsuParams {
        theta: 50.0,
        lambda: 40.0,
        mu_new: 0.02,
        mu_old: 1e-7,
        coverage: 0.95,
        p_ext: 0.1,
        alpha: 200.0,
        beta: 200.0,
    };
    let small_cfg = SimConfig::new(small, 30.0)?;
    for seed in 0..8 {
        let mut rng = SimRng::from_seed(seed);
        let out = simulate_run(&small_cfg, &mut rng);
        println!(
            "  seed {seed}: {:?} worth {:>6.1}  (ATs {:>4}, checkpoints {:>3}{}{})",
            out.class,
            out.worth,
            out.at_count,
            out.checkpoint_count,
            out.detection_time
                .map(|t| format!(", detected at {t:.1} h"))
                .unwrap_or_default(),
            out.failure_time
                .map(|t| format!(", failed at {t:.1} h"))
                .unwrap_or_default(),
        );
    }
    Ok(())
}
