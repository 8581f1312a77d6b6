//! Host-speed reference: a fixed amount of the benchmark's own work, timed
//! between or around operations, so the end-to-end times can be scaled to
//! one host speed.
//!
//! The benchmark runs on a few vCPUs of a shared host. From one second to
//! the next the same work there takes up to 1.6 times as long, as other
//! tenants come and go on the same cores, and the average over a run
//! drifts by tens of percent over minutes. Medians over a run's many
//! operations smooth the first; the reference, run many times spread over
//! the same run, measures the second, so the ratio of the two is steady
//! where either alone is not. The reference is code of this package only
//! (a small dense multiply on every thread of the program's pool), so a
//! change to the program never changes it: a faster program shows as a
//! smaller ratio.

use std::hint::black_box;
use std::time::Instant;

/// Order of the square multiply each thread repeats (fits in L2).
const ORDER: usize = 96;

/// Multiplies per thread per reference.
const MULTIPLIES: usize = 72;

/// Seconds one reference typically takes on the host the benchmark was
/// defined on (two vCPUs of a shared Intel Xeon host). Scaled times read
/// as seconds on that host at that speed.
pub const NOMINAL_SECS: f64 = 0.023;

/// Time spent on references, as a share of the time spent on operations,
/// when they run between operations. One reference lasts a few tens of
/// milliseconds, within one of the host's fast or slow spells, so a run
/// needs many of them, spread over it, to measure its average speed.
pub const SHARE: f64 = 0.1;

/// Share of the references dropped at each end before averaging them,
/// against one disturbed by something other than the host's speed.
pub const TRIM: f64 = 0.1;

/// References a traced run makes for `host.reference_ms`.
pub const PROBE_RUNS: usize = 12;

fn multiply(a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for i in 0..ORDER {
        for k in 0..ORDER {
            let aik = a[i * ORDER + k];
            let (row, col) = (&mut c[i * ORDER..][..ORDER], &b[k * ORDER..][..ORDER]);
            for (x, y) in row.iter_mut().zip(col) {
                *x += aik * y;
            }
        }
    }
}

fn one_thread() -> f64 {
    let a: Vec<f64> = (0..ORDER * ORDER).map(|i| (i % 7) as f64 * 0.125).collect();
    let b: Vec<f64> = (0..ORDER * ORDER).map(|i| (i % 5) as f64 * 0.25).collect();
    let mut c = vec![0.0; ORDER * ORDER];
    for _ in 0..MULTIPLIES {
        multiply(black_box(&a), black_box(&b), &mut c);
    }
    c[0]
}

/// Seconds the reference takes now, on `threads` threads at once.
pub fn reference_secs(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(one_thread)).collect();
        for h in handles {
            black_box(h.join().expect("reference thread"));
        }
    });
    t.elapsed().as_secs_f64()
}

/// `runs` references one after another, on the program's pool width.
pub fn references(runs: usize) -> Vec<f64> {
    let threads = rayon::current_num_threads();
    (0..runs).map(|_| reference_secs(threads)).collect()
}

/// The factor that scales times measured while the host ran the given
/// references to the nominal speed: [`NOMINAL_SECS`] over their mean,
/// after dropping [`TRIM`] of them at each end. The mean, not the median,
/// because the host alternates between fast and slow spells and the time
/// of an operation follows the average speed over it. `NAN` when empty.
pub fn scale(reference: &[f64]) -> f64 {
    let mut v = reference.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * TRIM) as usize;
    let kept = &v[cut..v.len() - cut];
    NOMINAL_SECS * kept.len() as f64 / kept.iter().sum::<f64>()
}

/// Runs references between operations: at least one, then more until
/// they add up to [`SHARE`] of the `ops_secs` spent on operations so far.
pub fn top_up(reference: &mut Vec<f64>, ops_secs: f64) {
    let threads = rayon::current_num_threads();
    loop {
        reference.push(reference_secs(threads));
        if reference.iter().sum::<f64>() >= SHARE * ops_secs {
            break;
        }
    }
}
