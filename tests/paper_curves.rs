//! Pins the paper's figure curves and the tornado baseline to the committed
//! artifacts: every Figure 9–12 and §6 low-coverage parameter family is
//! rebuilt exactly as its `gsu-bench` experiment builds it, and Y, S1, S2
//! and γ must match `results/fig{9,10,11,12}.csv` and `results/lowcov.csv`
//! to 1e-9 (relative; absolute where the committed value is 0). The baseline
//! optimum and its ±10% local sensitivities are pinned to the numbers the
//! pipeline produced when these curves were committed.

use std::path::Path;

use guarded_upgrade::prelude::*;
use performability::sensitivity::local_sensitivity;

const TOL: f64 = 1e-9;

fn close(got: f64, want: f64) -> bool {
    if want == 0.0 {
        got.abs() <= TOL
    } else {
        ((got - want) / want).abs() <= TOL
    }
}

/// The committed CSV as `(phi, [Y, S1, S2, γ] per curve)` rows.
fn read_csv(name: &str) -> Vec<(f64, Vec<[f64; 4]>)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    text.lines()
        .skip(1)
        .filter(|line| !line.is_empty())
        .map(|line| {
            let cells: Vec<f64> = line
                .split(',')
                .map(|c| c.parse().unwrap_or_else(|e| panic!("{name}: `{c}`: {e}")))
                .collect();
            let curves = cells[1..]
                .chunks(4)
                .map(|c| [c[0], c[1], c[2], c[3]])
                .collect();
            (cells[0], curves)
        })
        .collect()
}

/// Sweeps every parameter set over `sweep_grid(steps)` and compares the
/// curves column by column with the committed CSV.
fn check_figure(name: &str, family: &[GsuParams], steps: usize) {
    let rows = read_csv(name);
    assert_eq!(rows.len(), steps + 1, "{name}: row count");
    let mut checked = 0;
    for (k, params) in family.iter().enumerate() {
        let points = GsuAnalysis::new(*params)
            .unwrap()
            .sweep_grid(steps)
            .unwrap();
        assert_eq!(points.len(), rows.len(), "{name}: curve {k} length");
        for (p, (phi, curves)) in points.iter().zip(&rows) {
            assert_eq!(curves.len(), family.len(), "{name}: curve count");
            assert!(
                close(p.phi, *phi),
                "{name}: curve {k}: φ {} vs {phi}",
                p.phi
            );
            let got = [p.y, p.y_s1, p.y_s2, p.gamma];
            for (col, (g, w)) in ["Y", "S1", "S2", "gamma"]
                .iter()
                .zip(got.iter().zip(&curves[k]))
            {
                assert!(
                    close(*g, *w),
                    "{name}: curve {k} φ = {phi}: {col} {g} vs {w}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4 * family.len() * (steps + 1));
}

#[test]
fn figure9_curves_match_committed_csv() {
    let base = GsuParams::paper_baseline();
    check_figure("fig9.csv", &[base, base.with_mu_new(5e-5).unwrap()], 10);
}

#[test]
fn figure10_curves_match_committed_csv() {
    let base = GsuParams::paper_baseline();
    let slow = base.with_overhead_rates(2500.0, 2500.0).unwrap();
    check_figure("fig10.csv", &[base, slow], 10);
}

#[test]
fn figure11_curves_match_committed_csv() {
    let base = GsuParams::paper_baseline()
        .with_overhead_rates(2500.0, 2500.0)
        .unwrap();
    let family: Vec<GsuParams> = [0.95, 0.75, 0.50]
        .iter()
        .map(|&c| base.with_coverage(c).unwrap())
        .collect();
    check_figure("fig11.csv", &family, 10);
}

#[test]
fn figure12_curves_match_committed_csv() {
    let base = GsuParams::paper_baseline().with_theta(5000.0).unwrap();
    check_figure("fig12.csv", &[base, base.with_mu_new(5e-5).unwrap()], 10);
}

#[test]
fn low_coverage_curves_match_committed_csv() {
    let base = GsuParams::paper_baseline()
        .with_overhead_rates(2500.0, 2500.0)
        .unwrap();
    let family: Vec<GsuParams> = [0.20, 0.10]
        .iter()
        .map(|&c| base.with_coverage(c).unwrap())
        .collect();
    check_figure("lowcov.csv", &family, 20);
}

#[test]
fn tornado_baseline_is_pinned() {
    let base = GsuParams::paper_baseline();
    let best = GsuAnalysis::new(base).unwrap().optimal_phi(10, 12).unwrap();
    assert_eq!(best.phi, 6721.359549995795, "baseline optimum φ");
    assert!(close(best.y, 1.5483267531739677), "Y* = {}", best.y);

    // (name, Y at −10%, Y at +10%) at the optimum.
    let want = [
        ("coverage", 1.4632572280380278, 1.5971985883231001),
        ("mu_new", 1.5064279412384687, 1.5906210672270746),
        ("lambda", 1.5533165677041065, 1.5433994646543368),
        ("p_ext", 1.5529922172118322, 1.5437869546128486),
        ("alpha", 1.5445875443774528, 1.551412104633504),
        ("beta", 1.546579433118315, 1.5497643475878733),
        ("mu_old", 1.5483421277270082, 1.548311378197976),
    ];
    let got = local_sensitivity(base, best.phi, 0.1).unwrap();
    assert_eq!(got.len(), want.len());
    for (s, (name, low, high)) in got.iter().zip(want) {
        assert_eq!(s.name, name, "tornado order");
        assert!(close(s.y_low, low), "{name}: y_low {} vs {low}", s.y_low);
        assert!(
            close(s.y_high, high),
            "{name}: y_high {} vs {high}",
            s.y_high
        );
    }
}
