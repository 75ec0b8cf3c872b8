//! Machine-speed calibration.
//!
//! The measuring machine is a shared VM whose speed drifts by tens of per
//! cent over minutes, in CPU time as well as wall time, so a wall-clock
//! median from one run and one from the next can differ by more than any
//! change a later commit would make. A timed run therefore also times a
//! fixed reference kernel, interleaved with the measured work so that both
//! see the same machine, and reports every time at the reference speed:
//! the wall time multiplied by [`REFERENCE_MS`] over the kernel's median
//! time in that run, or, for a pass timed between two kernel samples, over
//! their mean. The kernel is the benchmark's own code and calls nothing in
//! the workspace, so a change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, ms};

/// The kernel's time, in ms, at the reference speed: a round number near
/// its median on the 2-vCPU Xeon VM of the recorded runs.
pub const REFERENCE_MS: f64 = 1.0;

/// Order of the dense part (a small matrix squared repeatedly, as in the
/// scaling-and-squaring of a small model's expm).
const DENSE_N: usize = 24;
const SQUARINGS: usize = 48;
/// Rows, entries per row and products of the sparse part (CSR SpMVs with
/// scattered columns, as in a uniformization power sequence).
const SPARSE_N: usize = 4096;
const SPARSE_NNZ: usize = 6;
const SPMVS: usize = 48;

/// The kernel: fixed work, independent of the program, including the
/// allocation of its buffers. Returns a value that depends on all of it,
/// so none of it can be optimized away.
pub fn kernel() -> f64 {
    let mut a = vec![[0.0f64; DENSE_N]; DENSE_N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            *x = ((i * 7 + j * 3) % 11) as f64 + 1.0;
        }
    }
    let mut b = a.clone();
    for _ in 0..SQUARINGS {
        for (i, out) in b.iter_mut().enumerate() {
            for (j, x) in out.iter_mut().enumerate() {
                *x = (0..DENSE_N).map(|k| a[i][k] * a[k][j]).sum();
            }
        }
        let norm = b.iter().flatten().fold(0.0f64, |m, x| m.max(x.abs()));
        for (row, out) in a.iter_mut().zip(&b) {
            for (x, y) in row.iter_mut().zip(out) {
                *x = y / norm;
            }
        }
    }

    let cols: Vec<u32> = (0..SPARSE_N * SPARSE_NNZ)
        .map(|k| ((k as u64 * 2_654_435_761) % SPARSE_N as u64) as u32)
        .collect();
    let vals: Vec<f64> = (0..SPARSE_N * SPARSE_NNZ)
        .map(|k| 1.0 / (SPARSE_NNZ as f64 + (k % 3) as f64))
        .collect();
    let mut x = vec![1.0f64; SPARSE_N];
    let mut y = vec![0.0f64; SPARSE_N];
    for _ in 0..SPMVS {
        for (r, out) in y.iter_mut().enumerate() {
            let row = r * SPARSE_NNZ..(r + 1) * SPARSE_NNZ;
            *out = cols[row.clone()]
                .iter()
                .zip(&vals[row])
                .map(|(&c, v)| v * x[c as usize])
                .sum();
        }
        std::mem::swap(&mut x, &mut y);
    }
    a[0][0] + x.iter().sum::<f64>()
}

/// Kernel times of one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Times the kernel once; returns the time in ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(kernel());
        let kernel_ms = ms(t.elapsed());
        self.samples.push(kernel_ms);
        kernel_ms
    }

    /// How many times the kernel was timed.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The kernel's median time in this run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// What a wall time of this run is multiplied by to give it at the
    /// reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }
}

/// What a wall time taken between two kernel samples (ms) is multiplied by
/// to give it at the reference speed.
pub fn factor_between(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_MS / (before_ms + after_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_finite() {
        let k = kernel();
        assert!(k.is_finite());
        assert_eq!(k.to_bits(), kernel().to_bits());
    }

    #[test]
    fn a_slow_machine_scales_times_down() {
        let cal = Calibration {
            samples: vec![2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS, 9.0],
        };
        assert_eq!(cal.factor(), 0.5);
        assert_eq!(factor_between(1.5 * REFERENCE_MS, 2.5 * REFERENCE_MS), 0.5);
    }
}
