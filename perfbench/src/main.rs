//! The GSU workspace benchmark (see `README.md` next to this package).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalog|paper-figures|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). Any error that stops a run exits non-zero without it.

mod calib;
mod catalog;
mod figures;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ms.p50", "ms"),
    ("pass_ms.p90", "ms"),
    ("optimum_ms.p50", "ms"),
    ("eval_ms.p50", "ms"),
    ("closed_rps", "1/s"),
    ("rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// the workload does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.parse_ms", "ms"),
    ("scenario.lower_ms", "ms"),
    ("san.generate_ms", "ms"),
    ("san.states", "count"),
    ("markov.steady_ms", "ms"),
    ("markov.first_passage_ms", "ms"),
    ("markov.distribution_ms", "ms"),
    ("markov.occupancy_ms", "ms"),
    ("markov.normal_mode_ms", "ms"),
    ("core.assemble_us", "us"),
    ("pool.speedup", "ratio"),
    ("sparse.spmv_ops", "count"),
    ("sparse.axpy_ops", "count"),
    ("sparse.spmv_bytes", "B"),
    ("markov.solver_iterations", "count"),
    ("markov.expm_solves", "count"),
    ("core.build_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.optimal_phi_ms", "ms"),
    ("core.sensitivity_ms", "ms"),
    ("core.evaluate_us.p50", "us"),
    ("serve.eval_overhead_ms.p50", "ms"),
    ("serve.eval_ms.p90", "ms"),
    ("serve.eval_ms.p99", "ms"),
    ("serve.healthz_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.scrape_ms.p50", "ms"),
    ("serve.scrape_ms.p90", "ms"),
    ("serve.rss_mb_per_kreq", "MB/kreq"),
    ("telemetry.spans_retained", "count"),
    ("telemetry.scrape_ms_per_kreq", "ms/kreq"),
    ("telemetry.scrape_bytes", "B"),
    ("gen.late_ms.p99", "ms"),
    ("bench.traced_pass_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("bench.kernel_ms", "ms"),
];

/// The relative tolerance of every numeric output check.
pub const TOLERANCE: f64 = 1e-9;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: stats::Tally,
    /// Output checks that are not counted operations (e.g. the traced
    /// run's reconstruction check); any `false` makes the run incorrect.
    pub checks_passed: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Reference-kernel times taken between the measured work; timed runs
    /// report every end-to-end time and rate at the reference speed (see
    /// `calib`).
    pub calibration: calib::Calibration,
}

impl Report {
    pub fn new() -> Self {
        Report {
            checks_passed: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets every per-layer metric not yet set to 0 (layers this workload
    /// does not call).
    pub fn zero_unused_layers(&mut self) {
        for (name, _) in PER_LAYER {
            self.metrics.entry(name).or_insert(0.0);
        }
    }
}

/// The pool width the runs use (the default: every available core).
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where traced runs write their Chrome trace and self-time table.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    // Everything is read relative to the repository root.
    for needed in ["scenarios", "results/golden", "Cargo.toml"] {
        if !std::path::Path::new(needed).exists() {
            return Err(format!("{needed} not found: run from the repository root"));
        }
    }
    // Built on every run, so the first run of a checkout builds it and
    // later runs find it up to date.
    let daemon = serve::build_daemon()?;
    match args.workload.as_str() {
        "catalog" => catalog::run(args),
        "paper-figures" => figures::run(args),
        "serve-mixed" => serve::run(args, &daemon),
        other => Err(format!(
            "unknown workload {other} (catalog, paper-figures, serve-mixed)"
        )),
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--print-reference") {
        return match figures::reference_text() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "calibration: kernel median {} ms over {} samples",
        report.calibration.median_ms(),
        report.calibration.len()
    );
    if args.trace {
        // Per-layer times are as measured; the kernel's median tells how
        // fast the machine ran meanwhile.
        report.set("bench.kernel_ms", report.calibration.median_ms());
        report.zero_unused_layers();
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let Some(value) = report.metrics.get(name) else {
            eprintln!("perfbench: workload did not measure {name}");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &report.tally.notes {
        eprintln!("perfbench: failed: {note}");
    }
    let correct = report.checks_passed && report.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
