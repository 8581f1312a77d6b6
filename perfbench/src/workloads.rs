//! The workload table and the bookkeeping every workload shares.

use std::time::Instant;

use crate::calib;
use crate::metrics::Values;
use crate::stats::{describe, median};

/// One inversion per operation, on a freshly built cluster each time.
#[derive(Debug, Clone, Copy)]
pub struct InvertSpec {
    pub n: usize,
    pub nb: usize,
    pub nodes: usize,
    /// Read the input from a text file and write the inverse back to one,
    /// as `mrinv invert` does; otherwise the matrix stays in memory.
    pub file_io: bool,
}

/// A service on loopback with one warm (cache-hit solve) and one cold
/// (cache-miss invert) closed-loop client.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub n: usize,
    pub nb: usize,
    pub nodes: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Invert(InvertSpec),
    Serve(ServeSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The serve workload's shape; traced runs of the other workloads probe
/// the cache, service and wire layers at this shape.
pub const SERVE_SHAPE: ServeSpec = ServeSpec {
    n: 512,
    nb: 64,
    nodes: 4,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "invert_1280",
        kind: Kind::Invert(InvertSpec {
            n: 1280,
            nb: 80,
            nodes: 4,
            file_io: true,
        }),
    },
    Workload {
        name: "invert_deep_1024",
        kind: Kind::Invert(InvertSpec {
            n: 1024,
            nb: 32,
            nodes: 8,
            file_io: false,
        }),
    },
    Workload {
        name: "serve_mixed_512",
        kind: Kind::Serve(SERVE_SHAPE),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// One line with the parameters `BENCHMARK.json` records per workload.
    pub fn describe(&self) -> String {
        let (n, nb, nodes, clients, extra) = match self.kind {
            Kind::Invert(s) => (
                s.n,
                s.nb,
                s.nodes,
                1,
                if s.file_io {
                    "text file in/out"
                } else {
                    "in memory"
                },
            ),
            Kind::Serve(s) => (s.n, s.nb, s.nodes, 2, "warm solve + cold invert tenants"),
        };
        format!(
            "{}: n={n} nb={nb} nodes={nodes} jobs/inversion={} depth={} clients={clients} loop=closed ({extra})",
            self.name,
            mrinv::schedule::total_jobs(n, nb),
            mrinv::schedule::recursion_depth(n, nb),
        )
    }
}

/// An untraced run splits its window across this many child processes,
/// run one after another, and pools what they measure. On a shared
/// two-core host one process's inversions run consistently 5–15% faster
/// or slower than the next process's, for the whole life of the process,
/// so a single process gives a median that moves with that luck however
/// long it runs. Each child also sets up once, so `setup_s` is a median
/// over this many set-ups.
pub const PARTS: usize = 5;

/// Largest residual max|I − A·A⁻¹| accepted for any inversion.
pub const RESIDUAL_LIMIT: f64 = 1e-9;

/// Largest relative solve error ‖A·x − b‖∞ / ‖b‖∞ accepted.
pub const SOLVE_LIMIT: f64 = 1e-9;

/// What one untraced child process measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Sample {
    /// Seconds of the process's set-up.
    pub setup: f64,
    /// The process's peak resident set size, MiB.
    pub rss_mb: f64,
    /// Completed operations per second, summed over its clients.
    pub rate: f64,
    /// Seconds per inversion (the cold tenant's, on the serve workload).
    pub invert: Vec<f64>,
    /// Seconds per request of the workload's main client (the warm
    /// tenant's solves on the serve workload, the inversions elsewhere).
    pub request: Vec<f64>,
    /// Seconds of each host-speed reference run between operations; empty
    /// where the times are not scaled (the serve workload).
    pub reference: Vec<f64>,
}

/// First word of the line a child process reports its [`Sample`] on.
pub const PART_TAG: &str = "perfbench-part";

/// What one benchmark run (or one child process of it) produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics of a traced run.
    pub values: Values,
    /// Raw measurements of an untraced child process.
    pub sample: Sample,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one failed, rejected or wrong operation.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        self.lines.push(format!("FAILED: {what}"));
    }

    /// Folds a sub-run's counts and lines into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lines.extend(other.lines);
    }

    /// The line a child process reports its counts and sample on.
    pub fn part_line(&self) -> String {
        let list = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let s = &self.sample;
        format!(
            "{PART_TAG} attempted={} failed={} setup={} rss={} rate={} invert={} request={} reference={}",
            self.attempted,
            self.failed,
            s.setup,
            s.rss_mb,
            s.rate,
            list(&s.invert),
            list(&s.request),
            list(&s.reference)
        )
    }

    /// Parses a [`Outcome::part_line`].
    pub fn parse_part(line: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut words = line.split(' ');
        if words.next() != Some(PART_TAG) {
            return Err(format!("not a part line: {line:?}"));
        }
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{v:?}: {e}"));
        for word in words {
            let (key, v) = word.split_once('=').ok_or(format!("bad field {word:?}"))?;
            let list = || -> Result<Vec<f64>, String> {
                v.split(',').filter(|x| !x.is_empty()).map(num).collect()
            };
            match key {
                "attempted" => out.attempted = v.parse().map_err(|e| format!("{v:?}: {e}"))?,
                "failed" => out.failed = v.parse().map_err(|e| format!("{v:?}: {e}"))?,
                "setup" => out.sample.setup = num(v)?,
                "rss" => out.sample.rss_mb = num(v)?,
                "rate" => out.sample.rate = num(v)?,
                "invert" => out.sample.invert = list()?,
                "request" => out.sample.request = list()?,
                "reference" => out.sample.reference = list()?,
                _ => return Err(format!("unknown field {key:?}")),
            }
        }
        Ok(out)
    }
}

/// Pools the samples of an untraced run's child processes into the
/// end-to-end metrics. Each process's times and rates are first scaled to
/// the nominal host speed by its own references ([`calib::scale`]), which
/// ran in the same seconds (a process that ran none is not scaled); then
/// latency medians are taken over every
/// operation of every process, rates are averaged over the processes, and
/// set-up time and peak memory (not scaled) are medians over the
/// processes. Returns the report lines, which also give the unscaled
/// times.
pub fn pool(samples: &[Sample], values: &mut Values) -> Vec<String> {
    let scales: Vec<f64> = samples
        .iter()
        .map(|s| match s.reference.is_empty() {
            true => 1.0,
            false => calib::scale(&s.reference),
        })
        .collect();
    let all =
        |f: fn(&Sample) -> &[f64]| -> Vec<f64> { samples.iter().flat_map(f).copied().collect() };
    let scaled = |f: fn(&Sample) -> &[f64]| -> Vec<f64> {
        samples
            .iter()
            .zip(&scales)
            .flat_map(|(s, k)| f(s).iter().map(move |x| x * k))
            .collect()
    };
    let each = |f: fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    let rates: Vec<f64> = samples
        .iter()
        .zip(&scales)
        .map(|(s, k)| s.rate / k)
        .collect();
    let (setup, rss) = (each(|s| s.setup), each(|s| s.rss_mb));
    values.set("invert_s", med(&scaled(|s| &s.invert)));
    values.set("request_p50_ms", med(&scaled(|s| &s.request)) * 1e3);
    values.set("ops_per_s", rates.iter().sum::<f64>() / rates.len() as f64);
    values.set("setup_s", med(&setup));
    values.set("peak_rss_mb", med(&rss));
    let references: Vec<f64> = scales.iter().map(|k| calib::NOMINAL_SECS / k).collect();
    vec![
        format!("{} child processes, pooled:", samples.len()),
        format!(
            "  host-speed reference per process (trimmed mean; nominal {:.3} ms): {}",
            calib::NOMINAL_SECS * 1e3,
            describe(&references, 1e3, "ms")
        ),
        format!(
            "  inversions, unscaled: {}",
            describe(&all(|s| &s.invert), 1.0, "s")
        ),
        format!(
            "  requests, unscaled: {}",
            describe(&all(|s| &s.request), 1e3, "ms")
        ),
        format!("  set-up per process: {}", describe(&setup, 1.0, "s")),
        format!("  peak RSS per process: {}", describe(&rss, 1.0, "MB")),
    ]
}

/// Closed-loop pacing: start another operation while the median duration
/// of those so far still fits in the window (always start the first).
pub fn keep_going(start: Instant, secs: f64, durations: &[f64]) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    match median(durations) {
        None => elapsed < secs,
        Some(m) => elapsed + m <= secs,
    }
}

/// Renders any error for an [`Outcome::fail`] message.
pub fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Checks an inversion residual against [`RESIDUAL_LIMIT`].
pub fn check_residual(res: f64) -> Result<(), String> {
    if res.is_finite() && res <= RESIDUAL_LIMIT {
        Ok(())
    } else {
        Err(format!("residual {res:e} exceeds {RESIDUAL_LIMIT:e}"))
    }
}

/// Checks ‖A·x − b‖∞ ≤ [`SOLVE_LIMIT`]·‖b‖∞.
pub fn check_solve(a: &mrinv_matrix::Matrix, x: &[f64], b: &[f64]) -> Result<(), String> {
    let ax = a.mul_vec(x).map_err(|e| e.to_string())?;
    let err = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    let scale = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    if err.is_finite() && err <= SOLVE_LIMIT * scale {
        Ok(())
    } else {
        Err(format!(
            "solve error {err:e} exceeds {SOLVE_LIMIT:e} x {scale:e}"
        ))
    }
}

/// Completed operations per second of a closed-loop client: its count over
/// the time from the window's start to its last completion.
pub fn rate(completed: usize, last_completion_secs: f64) -> f64 {
    if completed == 0 || last_completion_secs <= 0.0 {
        0.0
    } else {
        completed as f64 / last_completion_secs
    }
}
