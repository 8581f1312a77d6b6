//! Reference measurements a traced run takes next to the workload: the
//! text codec on the workload's matrix, the plain in-memory inversion,
//! and ceilings (dense-kernel peaks, memory copy bandwidth).

use std::time::Instant;

use mrinv::inmem::invert_block;
use mrinv_matrix::io::{decode_text, encode_text};
use mrinv_matrix::kernel::{gemm, notrans, trsm, Diag, Side, Uplo};
use mrinv_matrix::random::random_matrix;
use mrinv_matrix::triangular::{invert_lower, tri_inv_flops};
use mrinv_matrix::Matrix;

use crate::env::llc_bytes;
use crate::metrics::Values;
use crate::stats::median;

/// Repeats of each short probe; the median is reported.
const REPEATS: usize = 3;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    median(&xs).expect("repeats > 0")
}

/// `io.*`: the text codec on `a`, for workloads whose own operations do
/// not pass through it.
pub fn text_codec(values: &mut Values, a: &Matrix) -> Result<(), String> {
    let text = encode_text(a);
    let decoded = decode_text(&text).map_err(|e| e.to_string())?;
    if decoded.as_slice() != a.as_slice() {
        return Err("text codec round trip changed the matrix".to_string());
    }
    values.set(
        "io.encode_text_s",
        median_secs(|| timed(|| encode_text(a)).1),
    );
    values.set(
        "io.decode_text_s",
        median_secs(|| timed(|| decode_text(&text)).1),
    );
    values.set("io.text_bytes", text.len() as f64);
    Ok(())
}

/// `inmem.invert_block_s`: the same blocked algorithm without MapReduce.
pub fn inmem(values: &mut Values, a: &Matrix, nb: usize) -> Result<(), String> {
    let (inv, secs) = timed(|| invert_block(a, nb));
    inv.map_err(|e| e.to_string())?;
    values.set("inmem.invert_block_s", secs);
    Ok(())
}

/// Dense-kernel ceilings: packed GEMM at 512², `trsm` at n=1024 with 1024
/// right-hand sides, and `invert_lower` at n=1024.
pub fn ceilings(values: &mut Values, lines: &mut Vec<String>) -> Result<(), String> {
    let err = |e: mrinv_matrix::MatrixError| e.to_string();
    let g = 512;
    let a = random_matrix(g, g, 1);
    let b = random_matrix(g, g, 2);
    let mut c = Matrix::zeros(g, g);
    let gemm_secs = median_secs(|| timed(|| gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut c)).1);
    let gemm_flops = 2.0 * (g * g * g) as f64;
    values.set("kernel.gemm_peak_gflops", gemm_flops / gemm_secs / 1e9);

    let t = 1024;
    // Unit lower triangle with off-diagonals in [-1/t, 1/t): solutions
    // stay well scaled, so no denormals or overflow skew the timing.
    let r = random_matrix(t, t, 3);
    let l = Matrix::from_fn(t, t, |i, j| match j.cmp(&i) {
        std::cmp::Ordering::Less => r[(i, j)] / t as f64,
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => 0.0,
    });
    let rhs = random_matrix(t, t, 4);
    let mut trsm_secs = Vec::new();
    for _ in 0..REPEATS {
        let mut x = rhs.clone();
        let (r, secs) = timed(|| trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, &l, &mut x));
        r.map_err(err)?;
        trsm_secs.push(secs);
    }
    // A triangular solve with m right-hand sides costs n²·m flops.
    let trsm_flops = (t * t * t) as f64;
    values.set(
        "kernel.trsm_gflops",
        trsm_flops / median(&trsm_secs).expect("repeats") / 1e9,
    );

    let (inv, inv_secs) = timed(|| invert_lower(&l));
    inv.map_err(err)?;
    values.set(
        "triangular.invert_lower_gflops",
        tri_inv_flops(t) as f64 / inv_secs / 1e9,
    );
    lines.push(format!(
        "ceilings: gemm {g}^2 {:.2} GFLOP/s, trsm n={t} x{t} {:.2} GFLOP/s, invert_lower n={t} {:.2} GFLOP/s",
        gemm_flops / gemm_secs / 1e9,
        trsm_flops / median(&trsm_secs).expect("repeats") / 1e9,
        tri_inv_flops(t) as f64 / inv_secs / 1e9
    ));
    Ok(())
}

/// Largest copy buffer, to keep the probe's memory small on hosts with a
/// very large shared last-level cache.
const COPY_CAP: usize = 256 << 20;

/// `mem.copy_gbps`: bytes copied per second by `copy_from_slice` over a
/// buffer of four times the last-level cache (capped at [`COPY_CAP`]).
pub fn mem_copy(values: &mut Values, lines: &mut Vec<String>) {
    let llc = llc_bytes();
    let size = llc.map_or(COPY_CAP, |l| (4 * l as usize).min(COPY_CAP));
    let src = vec![1u8; size];
    let mut dst = vec![0u8; size];
    dst.copy_from_slice(&src);
    let secs = median_secs(|| timed(|| dst.copy_from_slice(&src)).1);
    std::hint::black_box(&dst);
    values.set("mem.copy_gbps", size as f64 / secs / 1e9);
    lines.push(format!(
        "mem: copy buffer {} MiB, last-level cache {}",
        size >> 20,
        llc.map_or("unknown".to_string(), |l| format!("{} MiB", l >> 20))
    ));
}
