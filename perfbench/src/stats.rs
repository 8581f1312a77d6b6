//! Order statistics for latency samples: the median and the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples above it.

/// How many samples must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A tail percentile with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Integer percentile `p` (nearest-rank).
    pub percentile: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// The highest integer nearest-rank percentile with at least
/// [`TAIL_BEYOND`] samples strictly beyond it; `None` below
/// `TAIL_BEYOND + 1` samples.
///
/// Nearest rank: percentile `p` of `n` samples is the sample of rank
/// `ceil(p·n/100)`, leaving `n − rank` samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(xs);
    let percentile = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    Some(Tail {
        percentile,
        value: v[rank - 1],
        samples: n,
    })
}

/// One line describing a sample set: median, tail (when defined) and count.
pub fn describe(xs: &[f64], scale: f64, unit: &str) -> String {
    match (median(xs), tail(xs)) {
        (None, _) => "no samples".to_string(),
        (Some(m), None) => {
            let all: Vec<String> = xs.iter().map(|x| format!("{:.3}", x * scale)).collect();
            format!(
                "p50 {:.3} {unit}, n={} (no tail below {} samples; all: {})",
                m * scale,
                xs.len(),
                TAIL_BEYOND + 1,
                all.join(" ")
            )
        }
        (Some(m), Some(t)) => format!(
            "p50 {:.3} {unit}, p{} {:.3} {unit}, n={}",
            m * scale,
            t.percentile,
            t.value * scale,
            t.samples
        ),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
