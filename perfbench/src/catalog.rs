//! `catalog`: the 14 committed `.gsu` scenarios. Set-up loads the catalog
//! and builds every `ScenarioAnalysis`; each pass then runs `curve()` on
//! all of them (84 φ points), checked against `results/golden/*.json`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use gsu_scenario::{load_dir, read_golden, GoldenCurve, ScenarioAnalysis, ScenarioSpec};
use performability::{PerfError, SweepPoint};

use crate::layers::{self, report_traced_pass, ModelSize, PassWork, Probe};
use crate::stats::{median, ms, proc_status_mb, quantile, Tally};
use crate::trace::Tracer;
use crate::{pool_width, Args, Report, TOLERANCE};

/// Passes made even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;
/// Every `EVAL_EVERY`-th pass is followed by a serial `evaluate` sweep.
const EVAL_EVERY: usize = 3;

/// Loads the catalog and its golden curves.
pub fn load_with_goldens(dir: &Path) -> Result<(Vec<ScenarioSpec>, Vec<GoldenCurve>), String> {
    let specs = load_dir(dir).map_err(|e| e.to_string())?;
    let mut goldens = Vec::new();
    for spec in &specs {
        let path = Path::new("results/golden").join(format!("{}.json", spec.name));
        let golden = read_golden(&path).map_err(|e| e.to_string())?;
        let grid: Vec<f64> = golden.points.iter().map(|p| p.0).collect();
        if grid != spec.phi_grid {
            return Err(format!("{}: golden grid differs from phi_grid", spec.name));
        }
        goldens.push(golden);
    }
    Ok((specs, goldens))
}

/// Checks one curve against its golden, one operation per point.
pub fn check_curve(
    tally: &mut Tally,
    golden: &GoldenCurve,
    curve: &Result<Vec<SweepPoint>, PerfError>,
) {
    let name = &golden.scenario;
    match curve {
        Err(e) => {
            for _ in &golden.points {
                tally.record(Err(format!("{name}: curve failed: {e}")));
            }
        }
        Ok(points) if points.len() != golden.points.len() => {
            for _ in &golden.points {
                tally.record(Err(format!("{name}: {} points", points.len())));
            }
        }
        Ok(points) => {
            for (got, &(phi, y)) in points.iter().zip(&golden.points) {
                tally.close(&format!("{name} Y({phi})"), got.y, y, TOLERANCE);
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

fn timed(args: &Args) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let dir = Path::new("scenarios");
    let (_, goldens) = load_with_goldens(dir)?;
    let mut r = Report::new();

    // Set-up: load plus every build. It is repeated, timed and dropped,
    // after every pass, and so is the planner's query for one scenario
    // (round robin): build, `curve()`, best φ.
    let (setup_time, analyses) = set_up(dir)?;
    let mut setup = vec![setup_time];
    let mut optimum = Vec::new();

    let points: usize = goldens.iter().map(|g| g.points.len()).sum();
    let mut pass = Vec::new();
    let mut evals = Vec::new();
    while pass.len() < MIN_PASSES || Instant::now() < deadline {
        r.calibration.sample();
        let t = Instant::now();
        let curves: Vec<_> = analyses.iter().map(ScenarioAnalysis::curve).collect();
        pass.push(ms(t.elapsed()));
        for (curve, golden) in curves.iter().zip(&goldens) {
            check_curve(&mut r.tally, golden, curve);
        }

        r.calibration.sample();
        setup.push(black_box(set_up(dir)?).0);
        r.calibration.sample();
        let i = pass.len() % analyses.len();
        let t = Instant::now();
        let analysis =
            ScenarioAnalysis::new(analyses[i].spec().clone()).map_err(|e| e.to_string())?;
        let curve = analysis.curve();
        let best = curve
            .as_ref()
            .ok()
            .and_then(|c| c.iter().max_by(|a, b| a.y.total_cmp(&b.y)).map(|p| p.phi));
        black_box(best);
        optimum.push(ms(t.elapsed()));
        check_curve(&mut r.tally, &goldens[i], &curve);

        // Every few passes, the same points one `evaluate` at a time, for
        // the per-answer latency.
        if pass.len() % EVAL_EVERY != 1 {
            continue;
        }
        for (analysis, golden) in analyses.iter().zip(&goldens) {
            for &(phi, y) in &golden.points {
                let t = Instant::now();
                let got = analysis.evaluate(phi);
                evals.push(ms(t.elapsed()));
                match got {
                    Ok(p) => {
                        r.tally
                            .close(&format!("{} Y({phi})", golden.scenario), p.y, y, TOLERANCE)
                    }
                    Err(e) => r.tally.record(Err(e.to_string())),
                }
            }
        }
    }
    eprintln!(
        "catalog: {} set-ups, {} passes of {points} points, {} evaluations, pool width {}",
        setup.len(),
        pass.len(),
        evals.len(),
        pool_width()
    );
    // At the reference speed, by the kernel's median over the run.
    let f = r.calibration.factor();
    r.set("setup_s", median(&setup) * f);
    r.set("pass_ms.p50", median(&pass) * f);
    r.set("pass_ms.p90", quantile(&pass, 0.9) * f);
    r.set("optimum_ms.p50", median(&optimum) * f);
    r.set("eval_ms.p50", median(&evals) * f);
    let pass_s: f64 = pass.iter().sum::<f64>() / 1e3;
    r.set("closed_rps", (points * pass.len()) as f64 / pass_s / f);
    r.set("rss_mb", proc_status_mb(None, "VmHWM").unwrap_or(f64::NAN));
    Ok(r)
}

/// Loads the catalog and builds every analysis; returns the seconds that
/// took and the analyses.
fn set_up(dir: &Path) -> Result<(f64, Vec<ScenarioAnalysis>), String> {
    let t = Instant::now();
    let analyses = load_dir(dir)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|spec| ScenarioAnalysis::new(spec).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((t.elapsed().as_secs_f64(), analyses))
}

fn traced(args: &Args) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (specs, goldens) = load_with_goldens(Path::new("scenarios"))?;
    let mut r = Report::new();
    let mut analyses = Vec::new();
    let mut evaluate_us = Vec::new();
    for (spec, golden) in specs.into_iter().zip(&goldens) {
        let analysis = ScenarioAnalysis::new(spec).map_err(|e| e.to_string())?;
        let points: Result<Vec<_>, _> = golden
            .points
            .iter()
            .map(|p| {
                let t = Instant::now();
                let point = analysis.evaluate(p.0);
                evaluate_us.push(ms(t.elapsed()) * 1e3);
                point
            })
            .collect();
        check_curve(&mut r.tally, golden, &points);
        analyses.push(analysis);
    }
    r.set("core.evaluate_us.p50", median(&evaluate_us));
    let mut probe = Probe::new(Tracer::new(Instant::now(), 1));
    let extra = traced_passes(&mut r, &mut probe, &analyses, deadline)?;
    let table = probe.tracer.write(&crate::out_dir(), "catalog", &extra)?;
    eprintln!(
        "{}{extra}wrote {}",
        probe.tracer.self_time_table(),
        table.display()
    );
    Ok(r)
}

/// Traced passes until `deadline` (at least two). Each parses the catalog
/// and rebuilds the scenarios of `analyses` layer by layer, checked bit for
/// bit against their own `evaluate` on their grids, and is followed by the
/// same work through the program's entry points, untraced. Reports the
/// layer times, the work of one pass, the pool speedup and the tracing
/// overhead; returns the summary lines.
pub fn traced_passes(
    r: &mut Report,
    probe: &mut Probe,
    analyses: &[ScenarioAnalysis],
    deadline: Instant,
) -> Result<String, String> {
    let dir = Path::new("scenarios");
    let mut reference = Vec::new();
    let mut sizes = Vec::new();
    for analysis in analyses {
        let grid = &analysis.spec().phi_grid;
        let points: Result<Vec<_>, _> = grid.iter().map(|&phi| analysis.evaluate(phi)).collect();
        reference.push(points.map_err(|e| e.to_string())?);
        sizes.push(ModelSize::of_scenario(analysis.spec())?);
    }
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut first_work = None;
    let mut mismatches = 0usize;
    while traced.len() < 2 || Instant::now() < deadline {
        r.calibration.sample();
        let start = PassWork::start(probe);
        let root = probe.tracer.begin("bench.pass");
        let parsed = probe
            .tracer
            .time("scenario.parse", || load_dir(dir))
            .map_err(|e| e.to_string())?;
        black_box(parsed);
        for ((analysis, size), want) in analyses.iter().zip(&sizes).zip(&reference) {
            let spec = analysis.spec();
            let built = layers::build_scenario(probe, spec, *size)?;
            for (&phi, want) in spec.phi_grid.iter().zip(want) {
                if !layers::same_bits(&built.evaluate(probe, phi)?, want) {
                    mismatches += 1;
                }
            }
        }
        probe.tracer.end(root);
        first_work.get_or_insert(PassWork::since(start, probe));
        traced.push(probe.tracer.spans()[root].dur_ms());

        let t = Instant::now();
        black_box(load_dir(dir).map_err(|e| e.to_string())?);
        for spec in analyses.iter().map(ScenarioAnalysis::spec) {
            let analysis = ScenarioAnalysis::new(spec.clone()).map_err(|e| e.to_string())?;
            for &phi in &spec.phi_grid {
                black_box(analysis.evaluate(phi).map_err(|e| e.to_string())?);
            }
        }
        untraced.push(ms(t.elapsed()));
    }
    layers::report_layer_times(r, &probe.tracer, traced.len() as f64);
    if let Some(work) = first_work {
        work.report(r);
    }
    r.set("pool.speedup", pool_speedup(analyses)?);
    Ok(report_traced_pass(
        r,
        &probe.tracer,
        &traced,
        &untraced,
        mismatches,
    ))
}

/// Serial `evaluate` time summed over every point, divided by the wall
/// time of `curve()` on the pool, over every analysis.
pub fn pool_speedup(analyses: &[ScenarioAnalysis]) -> Result<f64, String> {
    let (mut serial, mut pooled) = (0.0, 0.0);
    for _ in 0..2 {
        for analysis in analyses {
            let t = Instant::now();
            black_box(analysis.curve().map_err(|e| e.to_string())?);
            pooled += ms(t.elapsed());
            for &phi in &analysis.spec().phi_grid {
                let t = Instant::now();
                black_box(analysis.evaluate(phi).map_err(|e| e.to_string())?);
                serial += ms(t.elapsed());
            }
        }
    }
    Ok(serial / pooled)
}
