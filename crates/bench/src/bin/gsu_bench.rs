//! `gsu-bench`: the paper's experiments and the harness utilities as one
//! CLI:
//!
//! ```text
//! gsu-bench <experiment> [--steps N] [--out DIR]
//! gsu-bench all [--out DIR]
//! gsu-bench regress [--baseline PATH] [--current PATH]
//!                   [--threshold FRACTION] [--no-update] [--allow-missing]
//! gsu-bench profile --trace PATH [--folded | --table]
//! gsu-bench scenarios [--dir PATH] [--golden PATH] [--out PATH]
//!                     [--write-golden | --check]
//! gsu-bench loadgen [--addr HOST:PORT] [--mode open|closed] [--rate RPS]
//!                   [--duration SECONDS] [--connections N] [--seed N]
//!                   [--no-keepalive] [--label NAME] [--slo PATH]
//!                   [--scenarios PATH] [--report PATH] [--bench PATH]
//!                   [--check]
//! ```
//!
//! `<experiment>` runs one table or figure of the paper (`table1`–`table3`,
//! `fig9`–`fig12`, `lowcov`, …; see [`gsu_bench::experiments`]) and writes
//! its files under `--out` (default `results`); `--steps` sets the φ grid
//! of `fig9`–`fig12`. `all` runs every experiment in-process, in table
//! order, and exits 1 naming the ones that failed. Under `GSU_TELEMETRY=1`
//! the run leaves one `telemetry.json` and `trace.json` in `--out`. Bad
//! flags exit 2, like every other subcommand.
//!
//! `regress` compares the current `BENCH_sweep.json` against the committed
//! baseline — wall time *and* deterministic work metrics — and exits 0 on
//! pass, 1 on regression or on a baseline entry missing from the current log
//! (`--allow-missing` downgrades the latter to a note), and 2 on usage or
//! I/O errors. See [`gsu_bench::regress`] for the gate semantics.
//!
//! `profile` rebuilds the span tree of a Chrome trace written by a
//! `GSU_TELEMETRY=1` run (or fetched from `gsu-serve /trace?id=`) and prints
//! folded flamegraph stacks plus a per-span self-time table; see
//! [`gsu_bench::profile`].
//!
//! `scenarios` sweeps the `.gsu` catalog through the analytic pipeline and
//! checks (or regenerates with `--write-golden`) the committed golden Y(φ)
//! curves, leaving per-scenario `BenchRecord`s for the regress gate; see
//! [`gsu_bench::scenarios`].
//!
//! `loadgen` drives a live `gsu-serve` with a seeded workload mix over
//! persistent connections, writes a `gsu-loadgen-v1` latency report plus
//! `serve:*` bench records, and with `--check` gates the run against the
//! committed `results/SLO.json`; see [`gsu_bench::loadgen`].

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use gsu_bench::experiments::{self, ExperimentArgs, EXPERIMENTS};
use gsu_bench::regress::RegressConfig;
use gsu_bench::TelemetrySession;

const USAGE: &str = "usage: gsu-bench <experiment> [--steps N] [--out DIR]\n  \
                     | gsu-bench all [--out DIR]\n  \
                     | gsu-bench regress [--baseline PATH] [--current PATH] \
                     [--threshold FRACTION] [--no-update] [--allow-missing]\n  \
                     | gsu-bench profile --trace PATH [--folded | --table]\n  \
                     | gsu-bench scenarios [--dir PATH] [--golden PATH] [--out PATH] \
                     [--write-golden | --check]\n  \
                     | gsu-bench loadgen [--addr HOST:PORT] [--mode open|closed] \
                     [--rate RPS] [--duration SECONDS] [--connections N] [--seed N] \
                     [--no-keepalive] [--label NAME] [--slo PATH] [--scenarios PATH] \
                     [--report PATH] [--bench PATH] [--check]";

type Args = std::iter::Skip<std::env::Args>;

fn main() -> ExitCode {
    telemetry::init_log_from_env("GSU_LOG");
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        Some("regress") => regress(args),
        Some("profile") => profile(args),
        Some("scenarios") => scenarios(args),
        Some("loadgen") => loadgen(args),
        Some("all") => all(args),
        Some("--help") | Some("-h") | None => Err("pick a subcommand".into()),
        Some(name) => match experiments::find(name) {
            Some(experiment) => run_one(experiment, args),
            None => Err(format!("unknown subcommand {name:?}")),
        },
    };
    outcome.unwrap_or_else(|why| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        eprintln!(
            "gsu-bench: {why}\n{USAGE}\nexperiments: {} (--steps: fig9-fig12 only)",
            names.join(" ")
        );
        ExitCode::from(2)
    })
}

/// The value after a flag, parsed and accepted by `valid`, or the usage
/// error `need`.
fn value<T: FromStr>(args: &mut Args, valid: impl Fn(&T) -> bool, need: &str) -> Result<T, String> {
    args.next()
        .and_then(|raw| raw.parse().ok())
        .filter(valid)
        .ok_or_else(|| need.to_string())
}

/// A path or name argument: anything present is accepted.
fn any<T>(_: &T) -> bool {
    true
}

/// Exit status of a gate subcommand: its rendered report on stdout, then 0
/// on pass, 1 on fail, and 2 when it could not run.
fn gate(name: &str, outcome: Result<(String, bool), impl Display>) -> Result<ExitCode, String> {
    Ok(match outcome {
        Ok((report, passed)) => {
            print!("{report}");
            ExitCode::from(u8::from(!passed))
        }
        Err(e) => {
            eprintln!("gsu-bench {name}: {e}");
            ExitCode::from(2)
        }
    })
}

fn run_one(
    &(name, default_steps, run): &experiments::Experiment,
    args: Args,
) -> Result<ExitCode, String> {
    let args = ExperimentArgs::parse(default_steps, args)?;
    let _telemetry = TelemetrySession::new(&args.out_dir);
    let outcome = run(&args);
    if let Err(e) = &outcome {
        eprintln!("gsu-bench {name}: {e}");
    }
    Ok(ExitCode::from(u8::from(outcome.is_err())))
}

fn all(args: Args) -> Result<ExitCode, String> {
    let out_dir = ExperimentArgs::parse(None, args)?.out_dir;
    let _telemetry = TelemetrySession::new(&out_dir);
    let mut failures = Vec::new();
    for &(name, default_steps, run) in EXPERIMENTS {
        println!();
        let args = ExperimentArgs {
            steps: default_steps.unwrap_or(0),
            out_dir: out_dir.clone(),
        };
        if let Err(e) = run(&args) {
            eprintln!("gsu-bench all: {name} failed: {e}");
            failures.push(name);
        }
    }
    if !failures.is_empty() {
        eprintln!("\nfailed experiments: {failures:?}");
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "\nAll experiments completed; outputs in {}.",
        out_dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn profile(mut args: Args) -> Result<ExitCode, String> {
    let mut trace: Option<PathBuf> = None;
    let mut folded = true;
    let mut table = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = Some(value(&mut args, any, "--trace needs a path")?),
            "--folded" => table = false,
            "--table" => folded = false,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let trace = trace.ok_or("profile needs --trace PATH")?;
    let doc = match std::fs::read_to_string(&trace) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("gsu-bench profile: cannot read {}: {e}", trace.display());
            return Ok(ExitCode::from(2));
        }
    };
    let events = gsu_bench::profile::parse_chrome_trace(&doc);
    if events.is_empty() {
        eprintln!(
            "gsu-bench profile: no span events with trace/span ids in {}",
            trace.display()
        );
        return Ok(ExitCode::FAILURE);
    }
    let profile = gsu_bench::profile::build_profile(&events);
    if folded {
        print!("{}", profile.folded());
    }
    if table {
        if folded {
            println!();
        }
        print!("{}", profile.self_time_table());
    }
    Ok(ExitCode::SUCCESS)
}

fn regress(mut args: Args) -> Result<ExitCode, String> {
    let mut config = RegressConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => config.baseline = value(&mut args, any, "--baseline needs a path")?,
            "--current" => config.current = value(&mut args, any, "--current needs a path")?,
            "--threshold" => {
                config.threshold = value(
                    &mut args,
                    |t: &f64| t.is_finite() && *t >= 0.0,
                    "--threshold needs a non-negative fraction (e.g. 0.10)",
                )?
            }
            "--no-update" => config.update = false,
            "--allow-missing" => config.allow_missing = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let outcome = gsu_bench::regress::run(&config);
    gate("regress", outcome.map(|r| (r.render(), r.passed())))
}

fn scenarios(mut args: Args) -> Result<ExitCode, String> {
    let mut config = gsu_bench::scenarios::ScenariosConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => config.dir = value(&mut args, any, "--dir needs a path")?,
            "--golden" => config.golden = value(&mut args, any, "--golden needs a path")?,
            "--out" => config.out = value(&mut args, any, "--out needs a path")?,
            "--write-golden" => config.write_golden = true,
            "--check" => config.write_golden = false,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let outcome = gsu_bench::scenarios::run(&config);
    gate("scenarios", outcome.map(|r| (r.render(), r.passed())))
}

fn loadgen(mut args: Args) -> Result<ExitCode, String> {
    let mut config = gsu_bench::loadgen::LoadgenConfig::default();
    let positive = |x: &f64| x.is_finite() && *x > 0.0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = value(&mut args, any, "--addr needs a HOST:PORT value")?,
            "--mode" => {
                let raw: String = value(&mut args, any, "--mode needs open|closed")?;
                config.mode = gsu_bench::loadgen::Mode::parse(&raw)?;
            }
            "--rate" => {
                config.rate = Some(value(
                    &mut args,
                    positive,
                    "--rate needs a positive requests/second value",
                )?)
            }
            "--duration" => {
                config.duration_s = value(
                    &mut args,
                    positive,
                    "--duration needs a positive seconds value",
                )?
            }
            "--connections" => {
                config.connections = value(
                    &mut args,
                    |n: &usize| *n >= 1,
                    "--connections needs a count of at least 1",
                )?
            }
            "--seed" => config.seed = value(&mut args, any, "--seed needs a non-negative integer")?,
            "--no-keepalive" => config.keep_alive = false,
            "--label" => config.label = value(&mut args, any, "--label needs a name")?,
            "--slo" => config.slo_path = value(&mut args, any, "--slo needs a path")?,
            "--scenarios" => {
                config.scenarios_dir = value(&mut args, any, "--scenarios needs a path")?
            }
            "--report" => {
                config.report_path = Some(value(&mut args, any, "--report needs a path")?)
            }
            "--bench" => config.bench_path = Some(value(&mut args, any, "--bench needs a path")?),
            "--check" => config.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let outcome = gsu_bench::loadgen::run(&config);
    gate("loadgen", outcome.map(|r| (r.render(), r.passed())))
}
