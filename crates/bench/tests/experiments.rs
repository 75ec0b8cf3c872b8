//! Experiments run through the `gsu-bench` table write every file under
//! their `--out` directory and nothing under `results/`.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use gsu_bench::experiments::{self, ExperimentArgs};

/// Every file directly in `dir` with its modification time (empty when
/// `dir` does not exist).
fn snapshot(dir: &Path) -> Vec<(PathBuf, SystemTime)> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let mut files: Vec<_> = entries
        .filter_map(|e| Some((e.path(), e.metadata().ok()?.modified().ok()?)))
        .collect();
    files.sort();
    files
}

/// Parses `flags` for experiment `name` and runs it through the table.
fn run(name: &str, flags: &[&str]) {
    let &(_, default_steps, body) = experiments::find(name).expect("experiment is listed");
    let args = ExperimentArgs::parse(default_steps, flags.iter().map(|f| f.to_string()))
        .expect("flags parse");
    body(&args).unwrap_or_else(|e| panic!("{name} failed: {e}"));
}

#[test]
fn experiments_write_only_under_out_dir() {
    // The crate's test CWD and the workspace root: where a hard-coded
    // `results/` would land.
    let guarded = [PathBuf::from("results"), PathBuf::from("../../results")];
    let before: Vec<_> = guarded.iter().map(|d| snapshot(d)).collect();

    let out = std::env::temp_dir().join(format!("gsu-experiments-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let out_flag = out.to_str().expect("utf-8 temp dir");
    run("export_dot", &["--out", out_flag]);
    run("fig9", &["--steps", "2", "--out", out_flag]);

    for model in ["rmgd", "rmgp", "rmnd"] {
        for kind in ["model", "states"] {
            let dot = std::fs::read_to_string(out.join(format!("{model}_{kind}.dot")))
                .unwrap_or_else(|e| panic!("{model}_{kind}.dot missing: {e}"));
            assert!(dot.starts_with("digraph"), "{model}_{kind}.dot: {dot:.40}");
        }
    }
    let csv = std::fs::read_to_string(out.join("fig9.csv")).expect("fig9.csv written");
    assert!(csv.starts_with("phi,Y[µnew = 0.0001]"), "{csv:.60}");
    assert_eq!(csv.lines().count(), 4, "header plus 3 grid points");
    let bench = std::fs::read_to_string(out.join("BENCH_sweep.json")).expect("bench record");
    assert!(bench.contains("\"name\": \"fig9\"") && bench.contains("\"grid\": 2"));

    let after: Vec<_> = guarded.iter().map(|d| snapshot(d)).collect();
    assert_eq!(before, after, "an experiment touched results/");
    std::fs::remove_dir_all(&out).ok();
}
