//! `paper-figures`: the paper pipeline (`GsuAnalysis`). One pass builds
//! the fig9–fig12 parameter families and sweeps each over its 11 φ points
//! (`sweep_incremental`), finds the baseline optimum (`optimal_phi(10, 12)`)
//! and computes `local_sensitivity` there. Y is checked against
//! `results/fig{9..12}.csv`, the optimum and the sensitivities against
//! `perfbench/reference/paper-figures.txt`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use performability::sensitivity::{local_sensitivity, ParamSensitivity};
use performability::{GsuAnalysis, GsuParams, PerfError, SweepPoint};

use crate::calib;
use crate::layers::{self, report_traced_pass, ModelSize, PassWork, Probe};
use crate::stats::{median, ms, proc_status_mb, quantile, Tally};
use crate::trace::Tracer;
use crate::{pool_width, Args, Report, TOLERANCE};

/// Passes made even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;
/// φ intervals of every figure sweep (11 points).
const STEPS: usize = 10;
/// Relative perturbation of the sensitivity fan (as the tornado binary).
const REL_STEP: f64 = 0.10;

/// One figure: its parameter sets and the committed CSV of their curves.
struct Figure {
    csv: &'static str,
    params: Vec<GsuParams>,
    /// Y per curve per φ point, from the CSV.
    ys: Vec<Vec<f64>>,
}

fn figures() -> Result<Vec<Figure>, String> {
    let e = |e: PerfError| e.to_string();
    let base = GsuParams::paper_baseline();
    let slow_guards = base.with_overhead_rates(2500.0, 2500.0).map_err(e)?;
    let short = base.with_theta(5000.0).map_err(e)?;
    let sets = [
        (
            "results/fig9.csv",
            vec![base, base.with_mu_new(5e-5).map_err(e)?],
        ),
        ("results/fig10.csv", vec![base, slow_guards]),
        (
            "results/fig11.csv",
            vec![
                slow_guards.with_coverage(0.95).map_err(e)?,
                slow_guards.with_coverage(0.75).map_err(e)?,
                slow_guards.with_coverage(0.50).map_err(e)?,
            ],
        ),
        (
            "results/fig12.csv",
            vec![short, short.with_mu_new(5e-5).map_err(e)?],
        ),
    ];
    sets.into_iter()
        .map(|(csv, params)| {
            let ys = read_csv(csv, &params)?;
            Ok(Figure { csv, params, ys })
        })
        .collect()
}

/// The φ grid of the figure sweeps.
fn grid(theta: f64) -> Vec<f64> {
    (0..=STEPS)
        .map(|i| theta * i as f64 / STEPS as f64)
        .collect()
}

/// Reads the Y column of every curve of a figure CSV (`phi,Y[..],S1[..],
/// S2[..],gamma[..],...`), checking its φ column against the sweep grid.
fn read_csv(path: &str, params: &[GsuParams]) -> Result<Vec<Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let rows: Vec<Vec<f64>> = text
        .lines()
        .skip(1)
        .map(|line| {
            line.split(',')
                .map(|v| v.parse::<f64>().map_err(|e| format!("{path}: {e}")))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let phis = grid(params[0].theta);
    if rows.len() != phis.len() || rows.iter().zip(&phis).any(|(row, &phi)| row[0] != phi) {
        return Err(format!("{path}: φ column is not the {STEPS}-step grid"));
    }
    (0..params.len())
        .map(|k| {
            rows.iter()
                .map(|row| {
                    row.get(1 + 4 * k)
                        .copied()
                        .ok_or(format!("{path}: missing curve {k}"))
                })
                .collect()
        })
        .collect()
}

/// The committed optimum and sensitivity fan of the baseline.
struct Expected {
    optimum: (f64, f64),
    sensitivity: Vec<(String, f64, f64)>,
}

const REFERENCE: &str = "perfbench/reference/paper-figures.txt";

fn expected() -> Result<Expected, String> {
    let text = std::fs::read_to_string(REFERENCE).map_err(|e| format!("{REFERENCE}: {e}"))?;
    let mut optimum = None;
    let mut sensitivity = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{REFERENCE}: bad line `{line}`"))
        };
        match f[0] {
            "optimum" => optimum = Some((num(1)?, num(2)?)),
            "sensitivity" if f.len() == 4 => sensitivity.push((f[1].to_string(), num(2)?, num(3)?)),
            _ => return Err(format!("{REFERENCE}: bad line `{line}`")),
        }
    }
    Ok(Expected {
        optimum: optimum.ok_or(format!("{REFERENCE}: no optimum line"))?,
        sensitivity,
    })
}

/// Renders the reference file from the program's current answers.
pub fn reference_text() -> Result<String, String> {
    let e = |e: PerfError| e.to_string();
    let base = GsuParams::paper_baseline();
    let opt = GsuAnalysis::new(base)
        .map_err(e)?
        .optimal_phi(10, 12)
        .map_err(e)?;
    let sens = local_sensitivity(base, opt.phi, REL_STEP).map_err(e)?;
    let mut out = String::from(
        "# Baseline optimum (optimal_phi(10, 12)) and local_sensitivity at it (±10%).\n\
         # Regenerate with: cargo run --release --offline --manifest-path \
         perfbench/Cargo.toml -- --print-reference\n",
    );
    out.push_str(&format!("optimum {} {}\n", opt.phi, opt.y));
    for s in &sens {
        out.push_str(&format!(
            "sensitivity {} {} {}\n",
            s.name, s.y_low, s.y_high
        ));
    }
    Ok(out)
}

/// What one pass returned, checked after its clock stops.
struct PassOutput {
    sweeps: Vec<Result<Vec<SweepPoint>, PerfError>>,
    optimum: Result<SweepPoint, PerfError>,
    sensitivity: Result<Vec<ParamSensitivity>, PerfError>,
    analyses: Vec<GsuAnalysis>,
}

/// Per-pass timings.
struct PassTimes {
    pass_ms: f64,
    build_s: f64,
    optimum_ms: f64,
}

/// One pass, timed with `Instant` around public calls only. With a probe,
/// each call also runs under a span charging the SpMV bytes of the model
/// it mainly solves.
fn pass(
    figs: &[Figure],
    sizes: &[Vec<(ModelSize, ModelSize)>],
    mut probe: Option<&mut Probe>,
) -> Result<(PassTimes, PassOutput), String> {
    let base = GsuParams::paper_baseline();
    let e = |e: PerfError| e.to_string();
    let t_pass = Instant::now();
    let mut build = Duration::ZERO;
    let mut sweeps = Vec::new();
    let mut analyses = Vec::new();
    for (fig, sizes) in figs.iter().zip(sizes) {
        for (params, (gp, gd)) in fig.params.iter().zip(sizes) {
            let t = Instant::now();
            let analysis = call(&mut probe, "core.build", gp.spmv_bytes, || {
                GsuAnalysis::new(*params)
            });
            build += t.elapsed();
            let analysis = analysis.map_err(e)?;
            let phis = grid(params.theta);
            sweeps.push(call(&mut probe, "core.sweep", gd.spmv_bytes, || {
                analysis.sweep_incremental(&phis)
            }));
            analyses.push(analysis);
        }
    }
    let (gp, gd) = sizes[0][0];
    let t = Instant::now();
    let analysis = call(&mut probe, "core.build", gp.spmv_bytes, || {
        GsuAnalysis::new(base)
    });
    build += t.elapsed();
    let analysis = analysis.map_err(e)?;
    let optimum = call(&mut probe, "core.optimal_phi", gd.spmv_bytes, || {
        analysis.optimal_phi(10, 12)
    });
    let optimum_ms = ms(t.elapsed());
    let phi = optimum.as_ref().map_or(0.0, |o| o.phi);
    let sensitivity = call(&mut probe, "core.sensitivity", gd.spmv_bytes, || {
        local_sensitivity(base, phi, REL_STEP)
    });
    let times = PassTimes {
        pass_ms: ms(t_pass.elapsed()),
        build_s: build.as_secs_f64(),
        optimum_ms,
    };
    Ok((
        times,
        PassOutput {
            sweeps,
            optimum,
            sensitivity,
            analyses,
        },
    ))
}

/// Runs `f` under a span of `probe`, when there is one.
fn call<T>(
    probe: &mut Option<&mut Probe>,
    name: &'static str,
    bytes_per_spmv: f64,
    f: impl FnOnce() -> T,
) -> T {
    match probe {
        Some(p) => p.call(name, bytes_per_spmv, f),
        None => f(),
    }
}

/// Checks a pass's outputs: every swept Y against the CSVs, the optimum and
/// the sensitivity fan against the reference.
fn check(tally: &mut Tally, figs: &[Figure], want: &Expected, out: &PassOutput) {
    let curves: Vec<(&str, &Vec<f64>)> = figs
        .iter()
        .flat_map(|f| f.ys.iter().map(move |ys| (f.csv, ys)))
        .collect();
    if out.sweeps.len() != curves.len() {
        for (csv, ys) in &curves {
            for _ in ys.iter() {
                tally.record(Err(format!(
                    "{csv}: {} sweeps where {} expected",
                    out.sweeps.len(),
                    curves.len()
                )));
            }
        }
    } else {
        for ((csv, ys), swept) in curves.into_iter().zip(&out.sweeps) {
            match swept {
                Ok(points) if points.len() == ys.len() => {
                    for (p, &y) in points.iter().zip(ys) {
                        tally.close(&format!("{csv} Y({})", p.phi), p.y, y, TOLERANCE);
                    }
                }
                Ok(points) => {
                    for _ in ys {
                        tally.record(Err(format!("{csv}: {} points", points.len())));
                    }
                }
                Err(e) => {
                    for _ in ys {
                        tally.record(Err(format!("{csv}: sweep failed: {e}")));
                    }
                }
            }
        }
    }
    match &out.optimum {
        Ok(o) => {
            tally.close("optimum φ", o.phi, want.optimum.0, TOLERANCE);
            tally.close("optimum Y", o.y, want.optimum.1, TOLERANCE);
        }
        Err(e) => tally.record(Err(format!("optimal_phi failed: {e}"))),
    }
    match &out.sensitivity {
        Ok(sens) if sens.len() == want.sensitivity.len() => {
            for (s, (name, low, high)) in sens.iter().zip(&want.sensitivity) {
                tally.record(if s.name == name {
                    Ok(())
                } else {
                    Err(format!(
                        "sensitivity order: {} where {name} expected",
                        s.name
                    ))
                });
                tally.close(&format!("{name} y_low"), s.y_low, *low, TOLERANCE);
                tally.close(&format!("{name} y_high"), s.y_high, *high, TOLERANCE);
            }
        }
        Ok(sens) => tally.record(Err(format!("{} sensitivities", sens.len()))),
        Err(e) => tally.record(Err(format!("local_sensitivity failed: {e}"))),
    }
}

/// `(RMGp, RMGd)` sizes of every parameter set, for computed SpMV bytes.
fn model_sizes(figs: &[Figure]) -> Result<Vec<Vec<(ModelSize, ModelSize)>>, String> {
    figs.iter()
        .map(|f| {
            f.params
                .iter()
                .map(|p| Ok((ModelSize::of_paper(p)?, ModelSize::of_paper_gd(p)?)))
                .collect()
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let figs = figures()?;
    let want = expected()?;
    if args.trace {
        traced(args, &figs, &want)
    } else {
        timed(args, &figs, &want)
    }
}

fn timed(args: &Args, figs: &[Figure], want: &Expected) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let sizes = model_sizes(figs)?;
    let mut r = Report::new();
    let mut passes = Vec::new();
    let mut evals = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        // Each pass is brought to the reference speed by the kernel times
        // just before and after it: this machine slows for stretches of a
        // few seconds, which the kernel follows, and a run's median alone
        // would leave them in the upper percentiles.
        let before = r.calibration.sample();
        let (times, out) = pass(figs, &sizes, None)?;
        let f = calib::factor_between(before, r.calibration.sample());
        check(&mut r.tally, figs, want, &out);
        passes.push(PassTimes {
            pass_ms: times.pass_ms * f,
            build_s: times.build_s * f,
            optimum_ms: times.optimum_ms * f,
        });
        // The figure points one `evaluate` at a time, for the per-answer
        // latency.
        let curves = figs
            .iter()
            .flat_map(|f| f.ys.iter().map(move |ys| (f.csv, ys)));
        for (analysis, (csv, ys)) in out.analyses.iter().zip(curves) {
            for (phi, &y) in grid(analysis.params().theta).into_iter().zip(ys) {
                let t = Instant::now();
                let got = analysis.evaluate(phi);
                evals.push(ms(t.elapsed()));
                match got {
                    Ok(p) => r.tally.close(&format!("{csv} Y({phi})"), p.y, y, TOLERANCE),
                    Err(e) => r.tally.record(Err(e.to_string())),
                }
            }
        }
    }
    let points: usize = figs.iter().map(|f| f.params.len() * (STEPS + 1)).sum();
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.pass_ms).collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.build_s).collect();
    let optimum: Vec<f64> = passes.iter().map(|p| p.optimum_ms).collect();
    eprintln!(
        "paper-figures: {} passes, {} evaluations, pool width {}",
        passes.len(),
        evals.len(),
        pool_width()
    );
    r.set("setup_s", median(&setup));
    r.set("pass_ms.p50", median(&pass_ms));
    r.set("pass_ms.p90", quantile(&pass_ms, 0.9));
    r.set("optimum_ms.p50", median(&optimum));
    r.set("eval_ms.p50", median(&evals) * r.calibration.factor());
    let pass_s: f64 = pass_ms.iter().sum::<f64>() / 1e3;
    r.set("closed_rps", (points * passes.len()) as f64 / pass_s);
    r.set("rss_mb", proc_status_mb(None, "VmHWM").unwrap_or(f64::NAN));
    Ok(r)
}

fn traced(args: &Args, figs: &[Figure], want: &Expected) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let sizes = model_sizes(figs)?;
    let mut r = Report::new();
    let e = |e: PerfError| e.to_string();

    // The program's own answers, for the bitwise reconstruction check.
    let params: Vec<GsuParams> = figs.iter().flat_map(|f| f.params.iter().copied()).collect();
    let mut reference = Vec::new();
    let mut evaluate_us = Vec::new();
    for p in &params {
        let analysis = GsuAnalysis::new(*p).map_err(e)?;
        let points: Result<Vec<_>, _> = grid(p.theta)
            .into_iter()
            .map(|phi| {
                let t = Instant::now();
                let point = analysis.evaluate(phi);
                evaluate_us.push(ms(t.elapsed()) * 1e3);
                point
            })
            .collect();
        reference.push(points.map_err(e)?);
    }
    let flat_sizes: Vec<(ModelSize, ModelSize)> = sizes.iter().flatten().copied().collect();

    let mut probe = Probe::new(Tracer::new(Instant::now(), 1));
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut first_work = None;
    let mut mismatches = 0usize;
    while traced.len() < 2 || Instant::now() < deadline {
        r.calibration.sample();
        let start = PassWork::start(&probe);
        let root = probe.tracer.begin("bench.pass");
        let (_, out) = pass(figs, &sizes, Some(&mut probe))?;
        probe.tracer.end(root);
        let pass_work = PassWork::since(start, &probe);
        traced.push(probe.tracer.spans()[root].dur_ms());
        check(&mut r.tally, figs, want, &out);

        // The builds and grid evaluations of the pass, layer by layer.
        let breakdown = probe.tracer.begin("bench.breakdown");
        for (i, p) in params.iter().enumerate() {
            let built = layers::build_paper(&mut probe, p, flat_sizes[i].0)?;
            for (k, phi) in grid(p.theta).into_iter().enumerate() {
                let got = built.evaluate(&mut probe, phi)?;
                if !layers::same_bits(&got, &reference[i][k]) {
                    mismatches += 1;
                }
            }
        }
        probe.tracer.end(breakdown);
        // Work counts are the pass's; states are those the breakdown
        // generates (the pass generates inside `GsuAnalysis::new`).
        first_work.get_or_insert(PassWork {
            states: probe.states - start.states,
            ..pass_work
        });

        let t = Instant::now();
        black_box(pass(figs, &sizes, None)?.1.sweeps.len());
        untraced.push(ms(t.elapsed()));
    }

    // Pool: `sweep` (parallel evaluate) against serial evaluate, same grids.
    let (mut serial, mut pooled) = (0.0, 0.0);
    for p in &params {
        let analysis = GsuAnalysis::new(*p).map_err(e)?;
        let phis = grid(p.theta);
        let t = Instant::now();
        black_box(analysis.sweep(phis.iter().copied()).map_err(e)?);
        pooled += ms(t.elapsed());
        for &phi in &phis {
            let t = Instant::now();
            black_box(analysis.evaluate(phi).map_err(e)?);
            serial += ms(t.elapsed());
        }
    }

    let passes = traced.len() as f64;
    let t = &probe.tracer;
    layers::report_layer_times(&mut r, t, passes);
    r.set("core.build_ms", t.total_ms("core.build") / passes);
    r.set("core.sweep_ms", t.total_ms("core.sweep") / passes);
    r.set(
        "core.optimal_phi_ms",
        t.total_ms("core.optimal_phi") / passes,
    );
    r.set(
        "core.sensitivity_ms",
        t.total_ms("core.sensitivity") / passes,
    );
    if let Some(work) = first_work {
        work.report(&mut r);
    }
    r.set("pool.speedup", serial / pooled);
    r.set("core.evaluate_us.p50", median(&evaluate_us));
    let extra = report_traced_pass(&mut r, t, &traced, &untraced, mismatches);
    let table = t.write(&crate::out_dir(), "paper-figures", &extra)?;
    eprintln!("{}{extra}wrote {}", t.self_time_table(), table.display());
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_the_figure_binaries() {
        assert_eq!(grid(10_000.0)[7], 7000.0);
        assert_eq!(grid(5000.0).len(), 11);
    }
}
