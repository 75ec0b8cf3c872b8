//! The paper's evaluation as in-process experiments.
//!
//! Every table and figure of the paper (plus the ablations, the sensitivity
//! tornado, the model export, the markdown report and the simulation
//! cross-check) is one plain function over [`ExperimentArgs`], listed in
//! [`EXPERIMENTS`] (see `DESIGN.md` §6 for the experiment index). The
//! `gsu-bench` binary looks a subcommand up in that table:
//!
//! ```text
//! gsu-bench <name> [--steps N] [--out DIR]
//! gsu-bench all [--out DIR]
//! ```
//!
//! Every output file lands under `--out` (default `results`). `--steps` sets
//! the φ grid of the sweep experiments (the entries with a default grid)
//! and is rejected by the others.

use std::error::Error;
use std::path::PathBuf;

mod figures;
mod studies;
mod tables;

/// An experiment body: runs against parsed arguments, printing its table or
/// figure to stdout and writing its files under [`ExperimentArgs::out_dir`].
pub type Run = fn(&ExperimentArgs) -> Result<(), Box<dyn Error>>;

/// One entry of the experiment table: the subcommand name (also the
/// `BENCH_sweep.json` record name of the experiments that log one), the φ
/// grid intervals when `--steps` is not given (`None` for experiments that
/// take no `--steps`), and the body.
pub type Experiment = (&'static str, Option<usize>, Run);

/// Every experiment, in the order `gsu-bench all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    ("table3", None, tables::table3),
    ("table1", None, tables::table1),
    ("table2", None, tables::table2),
    ("fig9", Some(10), figures::fig9),
    ("fig10", Some(10), figures::fig10),
    ("fig11", Some(10), figures::fig11),
    ("fig12", Some(10), figures::fig12),
    ("lowcov", None, figures::lowcov),
    ("ablation_tau", None, studies::ablation_tau),
    ("tornado", None, studies::tornado),
    ("export_dot", None, studies::export_dot),
    ("worth_distribution", None, studies::worth_distribution),
    ("report", None, studies::report),
    ("validate_sim", None, studies::validate_sim),
];

/// Looks an experiment up by subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.0 == name)
}

/// Command-line options shared by the experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentArgs {
    /// Number of φ grid intervals (`--steps N`); the experiment's
    /// `default_steps`, and `0` (unused) for experiments without one.
    pub steps: usize,
    /// Output directory for every file the experiment writes (`--out DIR`;
    /// default `results`).
    pub out_dir: PathBuf,
}

impl ExperimentArgs {
    /// Parses `--steps N` and `--out DIR`. `default_steps` is the
    /// experiment's table entry: `None` rejects `--steps`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for an unknown flag, a flag without a value,
    /// a `--steps` that is not a positive integer, or `--steps` given to an
    /// experiment that takes none.
    pub fn parse(
        default_steps: Option<usize>,
        mut args: impl Iterator<Item = String>,
    ) -> Result<Self, String> {
        let mut parsed = ExperimentArgs {
            steps: default_steps.unwrap_or(0),
            out_dir: PathBuf::from("results"),
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--steps" if default_steps.is_none() => {
                    return Err("--steps is only accepted by the sweep experiments".into())
                }
                "--steps" => match args.next().and_then(|raw| raw.parse::<usize>().ok()) {
                    Some(steps) if steps >= 1 => parsed.steps = steps,
                    _ => return Err("--steps needs a positive integer".into()),
                },
                "--out" => match args.next() {
                    Some(dir) => parsed.out_dir = dir.into(),
                    None => return Err("--out needs a directory".into()),
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }
}

/// Prints the standard header of an experiment.
fn banner(experiment: &str, description: &str) {
    println!("==============================================================");
    println!("{experiment}: {description}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(default_steps: Option<usize>, args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse(default_steps, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_are_applied_and_flags_override_them() {
        let sweep = parse(Some(10), &[]).unwrap();
        assert_eq!((sweep.steps, sweep.out_dir), (10, PathBuf::from("results")));
        let table = parse(None, &[]).unwrap();
        assert_eq!((table.steps, table.out_dir), (0, PathBuf::from("results")));
        let args = parse(Some(10), &["--steps", "4", "--out", "o"]).unwrap();
        assert_eq!((args.steps, args.out_dir), (4, PathBuf::from("o")));
    }

    #[test]
    fn bad_flags_are_rejected() {
        let table3 = find("table3").unwrap().1;
        for (default_steps, args) in [
            (Some(10), &["--stpes", "4"][..]),
            (None, &["extra"]),
            (table3, &["--steps", "4"]),
            (Some(10), &["--steps", "0"]),
            (Some(10), &["--steps", "ten"]),
            (Some(10), &["--steps"]),
            (Some(10), &["--out"]),
        ] {
            assert!(parse(default_steps, args).is_err(), "{args:?} was accepted");
        }
    }

    #[test]
    fn only_the_figures_take_steps() {
        let sweeps: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.1.is_some())
            .map(|e| e.0)
            .collect();
        assert_eq!(sweeps, ["fig9", "fig10", "fig11", "fig12"]);
    }
}
