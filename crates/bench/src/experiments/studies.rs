//! Studies beyond the paper's tables and figures: the `∫τh`/γ ablation, the
//! sensitivity tornado, the SAN model export, the worth distribution, the
//! markdown report and the simulation cross-check.

use std::error::Error;
use std::fmt::Write as _;

use mdcd_sim::distribution::compare_guarded_unguarded;
use mdcd_sim::{estimate_y, estimate_y_matched, EngineKind, MonteCarlo, SimConfig};
use performability::gsu::{rmgd, rmgp, rmnd};
use performability::report::{markdown, ReportOptions};
use performability::sensitivity::{local_sensitivity, tornado_table};
use performability::{GammaPolicy, GsuAnalysis, GsuParams};
use san::{dot, StateSpace};

use super::{banner, ExperimentArgs};
use crate::{BenchTimer, Curve};

/// Ablation of the `∫τh` reward structure and the γ policy (DESIGN.md
/// "Resolved interpretation points" 1–2).
///
/// The paper's Table 1 computes the "mean time to error detection" with a
/// reward structure that also accumulates over sample paths that never
/// detect (censoring at φ). This experiment compares, across φ:
///
/// * the Table-1 measure vs the exact truncated moment
///   `E[τ·1{τ ≤ φ}]` (first-passage analysis);
/// * `Y(φ)` under the paper's γ policy (Table-1 measure, constant), the
///   exact-conditional-mean γ, and the simulator's per-path γ(τ).
///
/// Headline: only the paper's policy produces the published interior
/// optimum at φ = 7000; the exact variants peak later and higher.
pub(super) fn ablation_tau(_: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "ablation: ∫τh censoring & γ policy",
        "Table-1 reward structure vs exact first-passage moments (θ=10000)",
    );
    let params = GsuParams::paper_baseline();
    let paper = GsuAnalysis::new(params)?;
    let exact =
        GsuAnalysis::new(params)?.with_gamma_policy(GammaPolicy::ExactMeanDetectionFraction);

    println!(
        "{:>8} {:>14} {:>14} {:>10} | {:>10} {:>10} {:>12}",
        "phi", "∫τh (Table1)", "E[τ·1{τ≤φ}]", "excess", "Y paper-γ", "Y exact-γ", "Y sim γ/path"
    );
    for phi in [1000.0, 3000.0, 5000.0, 7000.0, 9000.0, 10_000.0] {
        let m = paper.measures(phi)?;
        let y_paper = paper.evaluate(phi)?.y;
        let y_exact = exact.evaluate(phi)?.y;
        let y_path = estimate_y(params, phi, 3000, 31)?.y;
        println!(
            "{phi:>8} {:>14.1} {:>14.1} {:>10.1} | {y_paper:>10.4} {y_exact:>10.4} {y_path:>12.4}",
            m.i_tau_h,
            m.i_tau_h_exact,
            m.tau_censoring_excess(),
        );
    }

    let best_paper = Curve::sweep("paper", &paper, 20)?;
    let best_exact = Curve::sweep("exact", &exact, 20)?;
    let bp = best_paper.best().expect("swept curve is non-empty");
    let be = best_exact.best().expect("swept curve is non-empty");
    println!(
        "\noptima: paper-γ at φ = {} (Y = {:.4}); exact-γ at φ = {} (Y = {:.4})",
        bp.phi, bp.y, be.phi, be.y
    );
    println!("(the paper's published optimum of 7000 emerges only under its own γ reading)");
    Ok(())
}

/// Parameter-sensitivity tornado for `Y(φ*)` — the systematic version of
/// the paper's one-at-a-time §6 sensitivity studies.
pub(super) fn tornado(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    let _bench = BenchTimer::start("tornado", 10, &args.out_dir);
    banner(
        "Sensitivity tornado",
        "Elasticity of Y at the optimal φ, ±10% parameter perturbations",
    );
    let params = GsuParams::paper_baseline();
    let best = GsuAnalysis::new(params)?.optimal_phi(10, 12)?;
    println!(
        "baseline optimum: φ* = {:.0}, Y = {:.4}\n",
        best.phi, best.y
    );

    let sens = local_sensitivity(params, best.phi, 0.10)?;
    println!("{}", tornado_table(&sens));

    println!("Reading: positive elasticity = increasing the parameter increases Y.");
    println!("The paper's §6 findings appear quantitatively: coverage c and the");
    println!("fault-manifestation rate µnew dominate; µold is irrelevant; the");
    println!("safeguard completion rates matter only through ρ1/ρ2.");
    Ok(())
}

/// Exports the three GSU SAN reward models (paper Figures 6–8) and their
/// tangible state spaces as Graphviz DOT files — the renderable
/// counterparts of the paper's model diagrams.
pub(super) fn export_dot(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Model export",
        "GSU SAN models (Figs. 6-8) and state spaces as Graphviz DOT",
    );
    let params = GsuParams::paper_baseline();
    std::fs::create_dir_all(&args.out_dir)?;

    let rmgd = rmgd::build(&params)?;
    let rmgp = rmgp::build(&params)?;
    let rmnd = rmnd::build(&params, params.mu_new)?;

    for (name, model) in [
        ("rmgd", &rmgd.model),
        ("rmgp", &rmgp.model),
        ("rmnd", &rmnd.model),
    ] {
        let model_path = args.out_dir.join(format!("{name}_model.dot"));
        std::fs::write(&model_path, dot::model_to_dot(model))?;
        let space = StateSpace::generate(model, &Default::default())?;
        let space_path = args.out_dir.join(format!("{name}_states.dot"));
        std::fs::write(&space_path, dot::state_space_to_dot(&space))?;
        println!(
            "{name}: {} places, {} activities, {} tangible states -> {}, {}",
            model.n_places(),
            model.n_activities(),
            space.n_states(),
            model_path.display(),
            space_path.display()
        );
    }
    println!(
        "\nrender with e.g.: dot -Tsvg {} -o rmgd.svg",
        args.out_dir.join("rmgd_model.dot").display()
    );
    Ok(())
}

/// Performability in Meyer's original sense (the paper's ref [4]): the
/// **distribution** of accrued mission worth `W_φ`, estimated from sample
/// paths, for the guarded-vs-unguarded decision at the baseline optimum.
///
/// The expectation `E[W_φ]` that the translated reward variables deliver is
/// one functional of this distribution; the histogram shows what it
/// summarizes — the `S3` atom at zero, the γ-discounted `S2` band, and the
/// `S1` mass just under the ideal `2θ`.
pub(super) fn worth_distribution(_: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Worth distribution",
        "Empirical distribution of W_φ at φ = 7000 vs unguarded (10000 reps)",
    );
    let params = GsuParams::paper_baseline();
    let (guarded, unguarded) = compare_guarded_unguarded(params, 7000.0, 10_000, 7)?;

    println!("unguarded (φ = 0):");
    println!("{}", unguarded.histogram(10));
    println!(
        "  P[W = 0] = {:.3}   median = {:.0}   mean = {:.0}",
        unguarded.zero_mass(),
        unguarded.quantile(0.5),
        unguarded.mean()
    );

    println!("\nguarded (φ = 7000):");
    println!("{}", guarded.histogram(10));
    println!(
        "  P[W = 0] = {:.3}   median = {:.0}   mean = {:.0}",
        guarded.zero_mass(),
        guarded.quantile(0.5),
        guarded.mean()
    );

    println!(
        "\n25th-percentile worth improves from {:.0} to {:.0}: the guard's value is",
        unguarded.quantile(0.25),
        guarded.quantile(0.25)
    );
    println!("exactly the removal of the catastrophic atom at zero, at a small cost");
    println!("to the best-case mass (safeguard overhead + γ discount).");
    Ok(())
}

/// A complete markdown analysis report for one parameter set — the "give me
/// everything" entry point: parameters, derived overhead, constituent
/// measures at the optimum, the full sweep, sensitivity tornado, and a
/// simulation cross-check. Written to `<out>/analysis_report.md`.
pub(super) fn report(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Analysis report",
        "Full markdown report for the Table 3 baseline",
    );
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params)?;
    let best = analysis.optimal_phi(10, 16)?;
    let sens = local_sensitivity(params, best.phi, 0.10)?;
    let sim = estimate_y(params, best.phi, 3000, 1234)?;

    // Core report from the library, then the bench-only appendices
    // (sensitivity + simulation cross-check).
    let mut md = markdown(&analysis, &ReportOptions::default())?;

    let _ = writeln!(md, "\n## Sensitivity (±10%)\n");
    let _ = writeln!(md, "| parameter | base | Y(−) | Y(+) | elasticity |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for s in &sens {
        let _ = writeln!(
            md,
            "| {} | {:.3e} | {:.4} | {:.4} | {:+.3} |",
            s.name, s.base_value, s.y_low, s.y_high, s.elasticity
        );
    }

    let _ = writeln!(md, "\n## Simulation cross-check\n");
    let _ = writeln!(
        md,
        "Monte-Carlo (hybrid engine, {} replications, per-path γ): \
         Y = {:.4} ± {:.4}; sample-path classes S1/S2/S3 = {:.3}/{:.3}/{:.3}.",
        sim.guarded.replications,
        sim.y,
        sim.half_width_95,
        sim.guarded.p_s1,
        sim.guarded.p_s2,
        sim.guarded.p_s3
    );

    let path = args.out_dir.join("analysis_report.md");
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(&path, &md)?;
    println!("{md}");
    println!("wrote {}", path.display());
    Ok(())
}

/// Cross-validates the analytic model-translation pipeline against the MDCD
/// discrete-event simulator (the testbed substitute).
///
/// Two comparisons:
///
/// 1. **Mission scale** (Table 3 parameters): analytic `Y(φ)` versus the
///    hybrid-engine Monte-Carlo estimate with 95% confidence half-widths.
/// 2. **Scaled-down scenario**: the event-exact engine versus the hybrid
///    engine, validating the hybrid's timescale-separation approximations
///    against ground truth.
pub(super) fn validate_sim(_: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Simulation validation",
        "Analytic translation pipeline vs MDCD discrete-event simulation",
    );

    // --- Part 1: mission scale. -------------------------------------------
    // Two γ conventions are compared (see DESIGN.md): the paper applies
    // γ = 1 − τ/θ as a *constant*, with τ the Table-1 "mean time to error
    // detection" measure; the simulator's natural discount is per sample
    // path, γ(τ) = 1 − τ_path/θ, which (Jensen + the uncensored mean being
    // smaller) yields a systematically higher Y. Matching the analytic
    // convention, the two pipelines agree.
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params)?;
    println!("Part 1 — paper baseline, analytic vs hybrid simulation (4000 reps):");
    println!(
        "{:>8} {:>11} {:>17} {:>10} {:>8} {:>14}",
        "phi", "Y analytic", "Y sim(γ=paper)", "95% ±", "agree?", "Y sim(γ/path)"
    );
    let mut worst: f64 = 0.0;
    for phi in [2000.0, 4000.0, 6000.0, 8000.0, 10_000.0] {
        let a = analysis.evaluate(phi)?;
        let s_paper = estimate_y_matched(params, phi, a.gamma, 4000, 42, EngineKind::Hybrid)?;
        let s_path = estimate_y(params, phi, 4000, 42)?;
        let gap = (a.y - s_paper.y).abs();
        worst = worst.max(gap / a.y);
        println!(
            "{phi:>8} {:>11.4} {:>17.4} {:>10.4} {:>8} {:>14.4}",
            a.y,
            s_paper.y,
            s_paper.half_width_95,
            if gap <= s_paper.half_width_95.max(0.04 * a.y) {
                "yes"
            } else {
                "no"
            },
            s_path.y,
        );
    }
    println!(
        "worst relative gap (paper-γ convention): {:.2}%",
        worst * 100.0
    );
    println!("(residual bias: the Table-1 ∫τh reward structure counts censored paths");
    println!(" at weight φ, a documented approximation the simulator does not share)");

    // --- Part 2: exact vs hybrid at scaled parameters. ---------------------
    println!("\nPart 2 — scaled scenario (θ=50, λ=40): exact vs hybrid engine (3000 reps):");
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
    println!(
        "{:>8} {:>9} {:>22} {:>22}",
        "phi", "engine", "E[Wφ] (± 95%)", "P(S1)/P(S2)/P(S3)"
    );
    for phi in [15.0, 30.0, 45.0] {
        let cfg = SimConfig::new(small, phi)?;
        for (engine, name) in [(EngineKind::Exact, "exact"), (EngineKind::Hybrid, "hybrid")] {
            let s = MonteCarlo::new(cfg)
                .with_engine(engine)
                .with_replications(3000)
                .with_seed(7)
                .run();
            println!(
                "{phi:>8} {name:>9} {:>14.2} ± {:>5.2} {:>8.3}/{:.3}/{:.3}",
                s.mean_worth, s.worth_half_width_95, s.p_s1, s.p_s2, s.p_s3
            );
        }
    }
    println!("\n(The hybrid engine is the one used at mission scale, where the exact");
    println!(" engine would need ~2.4e7 events per replication.)");
    Ok(())
}
