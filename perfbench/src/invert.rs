//! The inversion workloads: `invert_1280` makes the public calls
//! `mrinv invert` makes (read and decode the text file, invert, verify,
//! encode and write the result) on a freshly built cluster per operation;
//! `invert_deep_1024` times an in-memory `Request::invert` alone.

use std::path::Path;
use std::time::Instant;

use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::{Cluster, RunId};
use mrinv_matrix::io::{decode_text, encode_text};
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::Matrix;

use crate::env::{peak_rss_mb, EnvStamp};
use crate::pipeline::{self, StageCounts, RESIDUAL};
use crate::stats::{describe, median};
use crate::trace::Tracer;
use crate::workloads::{
    check_residual, keep_going, rate, text, InvertSpec, Outcome, Workload, SERVE_SHAPE,
};
use crate::{calib, inputs, probes, serve};

/// The run directory `mrinv invert` uses by default.
const CLI_WORKDIR: &str = "mrinv/cli";

/// Seconds the traced run spends probing the service layers.
const SERVICE_PROBE_SECS: f64 = 3.0;

/// Where an operation's spans go in a traced run.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    tr: Option<(&'a Tracer, u64, u32)>,
}

impl Ctx<'_> {
    fn step<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tr {
            Some((t, op, parent)) => t.span(op, Some(parent), name, |_| f()),
            None => f(),
        }
    }
}

/// Runs `body` under a root span named `name` when traced.
fn rooted<T>(tr: Option<(&Tracer, u64)>, name: &'static str, body: impl FnOnce(Ctx) -> T) -> T {
    match tr {
        Some((t, op)) => t.span(op, None, name, |root| {
            body(Ctx {
                tr: Some((t, op, root)),
            })
        }),
        None => body(Ctx { tr: None }),
    }
}

/// The pipeline itself: the public `Request::invert`, or the same cold
/// path stage by stage when traced. Checks the job count.
fn invert_on(
    cluster: &Cluster,
    a: &Matrix,
    nb: usize,
    run: &RunId,
    ctx: Ctx,
) -> Result<(Matrix, Option<StageCounts>), String> {
    let n = a.rows();
    let want = mrinv::schedule::total_jobs(n, nb);
    let (inverse, jobs, counts) = match ctx.tr {
        Some((tracer, op, parent)) => {
            let (inv, c) =
                pipeline::traced_invert(cluster, a, nb, run, tracer, op, parent).map_err(text)?;
            (inv, c.jobs, Some(c))
        }
        None => {
            let out = Request::invert(a)
                .config(&InversionConfig::with_nb(nb))
                .workdir(run)
                .submit(cluster)
                .map_err(text)?;
            let jobs = out.report.jobs;
            (out.into_inverse(), jobs, None)
        }
    };
    if jobs != want {
        return Err(format!("ran {jobs} jobs, expected {want}"));
    }
    Ok((inverse, counts))
}

/// One operation: returns its timed seconds and, when traced, its counters.
pub(crate) fn one_op(
    spec: &InvertSpec,
    a: &Matrix,
    dir: &Path,
    tr: Option<(&Tracer, u64)>,
) -> Result<(f64, Option<StageCounts>), String> {
    if spec.file_io {
        let t = Instant::now();
        let counts = rooted(tr, "invert", |ctx| {
            let raw = ctx.step("io.read_file", || {
                std::fs::read_to_string(dir.join("input.txt"))
            });
            let raw = raw.map_err(text)?;
            let a = ctx
                .step("io.decode_text", || decode_text(&raw))
                .map_err(text)?;
            drop(raw);
            let cluster = ctx.step("cluster.build", || Cluster::medium(spec.nodes));
            let (inv, counts) = invert_on(&cluster, &a, spec.nb, &RunId::new(CLI_WORKDIR), ctx)?;
            let res = ctx
                .step(RESIDUAL, || inversion_residual(&a, &inv))
                .map_err(text)?;
            let body = ctx.step("io.encode_text", || encode_text(&inv));
            ctx.step("io.write_file", || {
                std::fs::write(dir.join("inverse.txt"), body)
            })
            .map_err(text)?;
            check_residual(res)?;
            Ok::<_, String>(counts)
        })?;
        Ok((t.elapsed().as_secs_f64(), counts))
    } else {
        let cluster = Cluster::medium(spec.nodes);
        let run = RunId::new(format!("mrinv/run-{}", cluster.dfs.file_count()));
        let t = Instant::now();
        let (inv, counts) = rooted(tr, "invert", |ctx| {
            invert_on(&cluster, a, spec.nb, &run, ctx)
        })?;
        let secs = t.elapsed().as_secs_f64();
        let res = rooted(tr, RESIDUAL, |_| inversion_residual(a, &inv)).map_err(text)?;
        check_residual(res)?;
        Ok((secs, counts))
    }
}

pub fn run(
    w: &Workload,
    spec: &InvertSpec,
    seed: u64,
    secs: f64,
    tracer: Option<&Tracer>,
    dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    out.lines.extend(EnvStamp::capture().lines());
    let a = inputs::matrix(spec.n, seed, w.name, 0);
    if spec.file_io {
        if let Err(e) = std::fs::write(dir.join("input.txt"), encode_text(&a)) {
            out.fail(format!("writing the input file: {e}"));
            return out;
        }
    }
    drop(Cluster::medium(spec.nodes));
    out.sample.setup = t.elapsed().as_secs_f64();
    out.lines.push(w.describe());

    // One untimed operation first: the process's first inversion pays for
    // growing the allocator's heap, which every later one reuses. A traced
    // run then alternates untraced and traced operations so both are
    // measured under the same conditions.
    out.attempted += 1;
    if let Err(e) = one_op(spec, &a, dir, None) {
        out.fail(format!("warm-up operation: {e}"));
    }
    let mut plain = Vec::new();
    let mut with_trace = Vec::new();
    let mut all = Vec::new();
    let mut counts = Vec::new();
    let mut last_done = 0.0;
    let mut reference = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while keep_going(start, secs, &all) || (tracer.is_some() && with_trace.is_empty()) {
        op += 1;
        out.attempted += 1;
        let traced_op = tracer.filter(|_| op.is_multiple_of(2)).map(|t| (t, op));
        if tracer.is_none() {
            calib::top_up(&mut reference, all.iter().sum());
        }
        let t = Instant::now();
        match one_op(spec, &a, dir, traced_op) {
            Ok((d, c)) => {
                // The references between operations are not part of
                // the closed loop's time.
                last_done = start.elapsed().as_secs_f64() - reference.iter().sum::<f64>();
                if traced_op.is_some() {
                    with_trace.push(d);
                } else {
                    plain.push(d);
                }
                counts.extend(c);
            }
            Err(e) => out.fail(format!("operation {op}: {e}")),
        }
        all.push(t.elapsed().as_secs_f64());
    }
    out.lines
        .push(format!("invert: {}", describe(&plain, 1.0, "s")));

    let Some(tracer) = tracer else {
        out.sample.rate = rate(plain.len(), last_done);
        out.sample.rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
        calib::top_up(&mut reference, all.iter().sum());
        out.sample.reference = reference;
        out.sample.request = plain.clone();
        out.sample.invert = plain;
        return out;
    };

    out.lines.push(format!(
        "traced invert: {}",
        describe(&with_trace, 1.0, "s")
    ));
    let untraced = median(&plain).unwrap_or(f64::NAN);
    let with = median(&with_trace).unwrap_or(f64::NAN);
    out.values.set("trace.invert_s", with);
    out.values.set("trace.untraced_invert_s", untraced);
    out.values.set("trace.overhead_ratio", with / untraced);
    pipeline::record(&mut out.values, tracer, &counts);
    if spec.file_io {
        let per_op = |name| median(&tracer.per_op(&[name])).unwrap_or(f64::NAN);
        out.values.set("io.decode_text_s", per_op("io.decode_text"));
        out.values.set("io.encode_text_s", per_op("io.encode_text"));
        let len = std::fs::metadata(dir.join("input.txt")).map_or(f64::NAN, |m| m.len() as f64);
        out.values.set("io.text_bytes", len);
    } else if let Err(e) = probes::text_codec(&mut out.values, &a) {
        out.fail(format!("text codec probe: {e}"));
    }
    if let Err(e) = probes::inmem(&mut out.values, &a, spec.nb) {
        out.fail(format!("in-memory inversion probe: {e}"));
    }
    let probe = serve::service_layer(
        &SERVE_SHAPE,
        seed,
        SERVICE_PROBE_SECS,
        tracer,
        &mut out.values,
    );
    out.absorb(probe.outcome);
    out
}
