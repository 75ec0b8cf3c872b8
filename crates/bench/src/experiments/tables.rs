//! The paper's Tables 1–3.

use std::error::Error;

use performability::gsu::{rmgd, rmgp, GopStateSets};
use performability::{GsuAnalysis, GsuParams};
use san::{Analyzer, RewardSpec};

use super::{banner, ExperimentArgs};

/// **Table 1**: the constituent measures solved in `RMGd` and their SAN
/// reward structures, with the values obtained at the Table 3 baseline.
pub(super) fn table1(_: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
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

/// **Table 2**: the `1 − ρ1` and `1 − ρ2` steady-state reward structures in
/// `RMGp`, solved for both overhead settings used in the evaluation
/// (α = β = 6000 and α = β = 2500).
pub(super) fn table2(_: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Table 2",
        "Constituent measures and SAN reward structures in RMGp",
    );
    println!(
        "{:<10} {:<30} Predicate-rate pair",
        "Measure", "Reward type"
    );
    println!("{}", "-".repeat(110));
    println!(
        "{:<10} {:<30} MARK(P1nExt)==1 -> 1",
        "1 − ρ1", "steady-state instant-of-time"
    );
    println!(
        "{:<10} {:<30} (MARK(P1nInt)==1 && MARK(P2DB)==0) || (MARK(P2Ext)==1 && MARK(P2DB)==1) -> 1",
        "1 − ρ2", "steady-state instant-of-time"
    );

    println!("\nSolved values (paper reports ρ1/ρ2 = 0.98/0.95 and 0.95/0.90):");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "α", "β", "1-ρ1", "1-ρ2", "ρ1", "ρ2"
    );
    for (alpha, beta) in [(6000.0, 6000.0), (2500.0, 2500.0)] {
        let params = GsuParams::paper_baseline().with_overhead_rates(alpha, beta)?;
        let (rho1, rho2) = rmgp::solve_rho(&params)?;
        println!(
            "{alpha:>8} {beta:>8} {:>10.5} {:>10.5} {:>8.4} {:>8.4}",
            1.0 - rho1,
            1.0 - rho2,
            rho1,
            rho2
        );
    }
    Ok(())
}

/// **Table 3**: the parameter value assignment.
pub(super) fn table3(_: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner("Table 3", "Parameter value assignment (times in hours)");
    let p = GsuParams::paper_baseline();
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>6} {:>6} {:>8} {:>8}",
        "θ", "λ", "µnew", "µold", "c", "pext", "α", "β"
    );
    println!(
        "{:>8} {:>8} {:>10.0e} {:>10.0e} {:>6} {:>6} {:>8} {:>8}",
        p.theta, p.lambda, p.mu_new, p.mu_old, p.coverage, p.p_ext, p.alpha, p.beta
    );
    println!();
    println!("Interpretation:");
    println!(
        "  λ = {} per hour  => one message every {:.1} s per process",
        p.lambda,
        3600.0 / p.lambda
    );
    println!(
        "  α = β = {} per hour => AT / checkpoint completion in {:.0} ms",
        p.alpha,
        3.6e6 / p.alpha
    );
    println!(
        "  µnew = {:.0e} per hour => mean time to fault manifestation {:.0} h",
        p.mu_new,
        1.0 / p.mu_new
    );
    Ok(())
}
