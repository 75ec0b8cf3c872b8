//! Regenerates **Table 1** of the paper: the constituent measures solved in
//! `RMGd` and their SAN reward structures, with the values obtained at the
//! Table 3 baseline.

use performability::gsu::{rmgd, GopStateSets};
use performability::{GsuAnalysis, GsuParams};
use san::{Analyzer, RewardSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _telemetry = gsu_bench::TelemetrySession::new(std::path::Path::new("results"));
    gsu_bench::banner(
        "Table 1",
        "Constituent measures and SAN reward structures in RMGd",
    );
    let params = GsuParams::paper_baseline();
    let model = rmgd::build(&params)?;
    let analyzer = Analyzer::generate(&model.model, &Default::default())?;
    let p = model.places;

    println!(
        "RMGd state space: {} tangible states\n",
        analyzer.state_space().n_states()
    );
    println!(
        "{:<24} {:<34} {:<46} {:>12}",
        "Measure", "Reward type", "Predicate-rate pair", "value@φ=7000"
    );
    println!("{}", "-".repeat(120));

    let phi = 7000.0;

    let i_h = analyzer.probability_at(phi, |mk| p.in_a3(mk))?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.6}",
        "∫₀^φ h(τ)dτ", "instant-of-time at φ", "MARK(detected)==1 && MARK(failure)==0 -> 1", i_h
    );

    let (s2, s4) = (p.clone(), p.clone());
    let spec = RewardSpec::new()
        .rate_when(move |mk| s2.in_a2(mk), 1.0)
        .rate_when(move |mk| s4.in_a4(mk), -1.0);
    let i_tau_h = analyzer.accumulated_reward(&spec, phi)?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.4}",
        "∫₀^φ τh(τ)dτ",
        "accumulated over [0, φ]",
        "MARK(detected)==0 -> 1 ; ... && failure==1 -> -1",
        i_tau_h
    );

    let i_hf = analyzer.probability_at(phi, |mk| p.detected_then_failed(mk))?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.4e}",
        "∫₀^φ∫_τ^φ h·f dx dτ",
        "instant-of-time at φ",
        "MARK(detected)==1 && MARK(failure)==1 -> 1",
        i_hf
    );

    let a1 = analyzer.probability_at(phi, |mk| p.in_a1(mk))?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.6}",
        "P(X'_φ ∈ A'1)", "instant-of-time at φ", "MARK(detected)==0 && MARK(failure)==0 -> 1", a1
    );

    println!("\nFull constituent-measure vector through the pipeline at φ = 7000:");
    let analysis = GsuAnalysis::new(params)?;
    println!("{}", analysis.measures(phi)?);
    Ok(())
}
