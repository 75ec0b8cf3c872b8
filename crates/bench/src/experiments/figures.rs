//! The paper's Y(φ) figures (Figs. 9–12) and the §6 low-coverage study.

use std::error::Error;

use performability::{GsuAnalysis, GsuParams};

use super::{banner, ExperimentArgs};
use crate::{ascii_chart, curve_table, write_csv, BenchTimer, Curve};

/// Prints a figure's table and chart, then each curve's optimum as
/// `<label>: optimal φ = <φ> with <what> = <Y><note>`.
fn show(curves: &[Curve], what: &str, note: &str) {
    println!("{}", curve_table(curves));
    println!("{}", ascii_chart(curves, 18));
    for c in curves {
        let b = c.best().expect("swept curve is non-empty");
        println!(
            "{}: optimal φ = {} with {what} = {:.4}{note}",
            c.label, b.phi, b.y
        );
    }
}

/// Writes `curves` to `<out>/<file>` and says so.
fn save(args: &ExperimentArgs, file: &str, curves: &[Curve]) -> Result<(), Box<dyn Error>> {
    let path = args.out_dir.join(file);
    write_csv(&path, curves)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// **Figure 9**: the effect of the fault-manifestation rate µ_new on the
/// optimal guarded-operation duration (θ = 10000 h).
///
/// Paper result: optimal φ = 7000 for µ_new = 10⁻⁴ and 5000 for
/// µ_new = 0.5·10⁻⁴; maximum Y ≈ 1.47 / ≈ 1.30.
pub(super) fn fig9(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Figure 9",
        "Effect of fault-manifestation rate on optimal G-OP duration (θ=10000)",
    );
    let _bench = BenchTimer::start("fig9", args.steps, &args.out_dir);
    let base = GsuParams::paper_baseline();
    let fast = GsuAnalysis::new(base)?;
    let slow = GsuAnalysis::new(base.with_mu_new(5e-5)?)?;
    let curves = Curve::sweep_many(
        &[("µnew = 0.0001", &fast), ("µnew = 0.00005", &slow)],
        args.steps,
    )?;
    show(&curves, "Y", "  (paper: 7000 / 5000)");
    save(args, "fig9.csv", &curves)
}

/// **Figure 10**: the effect of the performance overhead of safeguard
/// activities on the optimal guarded-operation duration (θ = 10000 h).
///
/// The paper compares α = β = 6000 (AT/checkpoint in 600 ms ⇒ ρ1 = 0.98,
/// ρ2 = 0.95) against α = β = 2500 (1440 ms ⇒ ρ1 = 0.95, ρ2 = 0.90); the
/// optimum moves from 7000 down to 6000 h.
pub(super) fn fig10(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Figure 10",
        "Effect of performance overhead on optimal G-OP duration (θ=10000)",
    );
    let _bench = BenchTimer::start("fig10", args.steps, &args.out_dir);
    let base = GsuParams::paper_baseline();
    let fast = GsuAnalysis::new(base)?;
    let slow = GsuAnalysis::new(base.with_overhead_rates(2500.0, 2500.0)?)?;
    println!(
        "computed overhead fractions: α=β=6000 ⇒ ρ = {:.4}/{:.4};  α=β=2500 ⇒ ρ = {:.4}/{:.4}",
        fast.rho().0,
        fast.rho().1,
        slow.rho().0,
        slow.rho().1
    );
    let curves = Curve::sweep_many(
        &[
            ("ρ1=0.98, ρ2=0.95 (α=β=6000)", &fast),
            ("ρ1=0.95, ρ2=0.90 (α=β=2500)", &slow),
        ],
        args.steps,
    )?;
    show(&curves, "Y", "  (paper: 7000 / 6000)");
    save(args, "fig10.csv", &curves)
}

/// **Figure 11**: the effect of acceptance-test coverage on the optimal
/// guarded-operation duration (θ = 10000 h, α = β = 2500).
///
/// Paper result: the optimal φ stays at 6000 h as c drops from 0.95 to 0.50,
/// while the maximum Y collapses from ≈1.45 to ≈1.15 — the optimum is
/// insensitive to c but the *benefit* is very sensitive to it.
pub(super) fn fig11(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Figure 11",
        "Effect of AT coverage on optimal G-OP duration (θ=10000)",
    );
    let _bench = BenchTimer::start("fig11", args.steps, &args.out_dir);
    let base = GsuParams::paper_baseline().with_overhead_rates(2500.0, 2500.0)?;
    let coverages = [0.95, 0.75, 0.50];
    let mut analyses = Vec::new();
    for c in coverages {
        analyses.push((
            format!("c = {c:.2}"),
            GsuAnalysis::new(base.with_coverage(c)?)?,
        ));
    }
    let entries: Vec<(&str, &GsuAnalysis)> = analyses
        .iter()
        .map(|(label, analysis)| (label.as_str(), analysis))
        .collect();
    let curves = Curve::sweep_many(&entries, args.steps)?;
    show(&curves, "max Y", "");
    println!("(paper: optimum stays at 6000 for all three; max Y ≈ 1.45 → ≈1.15)");
    save(args, "fig11.csv", &curves)
}

/// **Figure 12**: the effect of the fault-manifestation rate on the optimal
/// guarded-operation duration for a shorter mission window (θ = 5000 h).
///
/// Paper result: the optima drop to 2500 h (µ_new = 10⁻⁴) and 2000 h
/// (µ_new = 0.5·10⁻⁴), and Y falls off faster after its maximum than in the
/// θ = 10000 study — a shorter exposure window favours ending the guard
/// earlier.
pub(super) fn fig12(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "Figure 12",
        "Effect of fault-manifestation rate on optimal G-OP duration (θ=5000)",
    );
    let _bench = BenchTimer::start("fig12", args.steps, &args.out_dir);
    let base = GsuParams::paper_baseline().with_theta(5000.0)?;
    let fast = GsuAnalysis::new(base)?;
    let slow = GsuAnalysis::new(base.with_mu_new(5e-5)?)?;
    let curves = Curve::sweep_many(
        &[("µnew = 0.0001", &fast), ("µnew = 0.00005", &slow)],
        args.steps,
    )?;
    show(&curves, "Y", "  (paper: 2500 / 2000)");
    save(args, "fig12.csv", &curves)
}

/// The **§6 low-coverage experiments** described in the text after
/// Figure 11:
///
/// * c = 0.20: the best Y is ≈1.06 (at φ = 4000) — "too insignificant to
///   justify the use of guarded operations of any length";
/// * c = 0.10: Y < 1 for any φ in (0, θ] and decreasing in φ — guarded
///   operation is not worthwhile at all.
pub(super) fn lowcov(args: &ExperimentArgs) -> Result<(), Box<dyn Error>> {
    banner(
        "§6 low-coverage study",
        "Guarded operation under very low AT coverage (θ=10000, α=β=2500)",
    );
    let base = GsuParams::paper_baseline().with_overhead_rates(2500.0, 2500.0)?;
    let mut curves = Vec::new();
    for c in [0.20, 0.10] {
        let analysis = GsuAnalysis::new(base.with_coverage(c)?)?;
        curves.push(Curve::sweep(format!("c = {c:.2}"), &analysis, 20)?);
    }
    println!("{}", curve_table(&curves));

    let b20 = curves[0].best().expect("swept curve is non-empty");
    println!(
        "c = 0.20: max Y = {:.4} at φ = {} (paper: ≈1.06 at 4000 — benefit insignificant)",
        b20.y, b20.phi
    );
    let c10 = &curves[1];
    let b10 = c10.best().expect("swept curve is non-empty");
    let decreasing_tail = c10
        .points
        .windows(2)
        .filter(|w| w[0].phi >= b10.phi)
        .all(|w| w[1].y <= w[0].y + 1e-9);
    let below_one_late = c10
        .points
        .iter()
        .filter(|p| p.phi >= 4000.0)
        .all(|p| p.y < 1.0);
    println!(
        "c = 0.10: max Y = {:.4}; Y < 1 for φ ≥ 4000: {}; decreasing past the max: {}",
        b10.y, below_one_late, decreasing_tail
    );
    println!("(paper: Y < 1 and decreasing — G-OP not worthwhile at c = 0.10)");
    save(args, "lowcov.csv", &curves)
}
