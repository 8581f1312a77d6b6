//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Human-readable lines first, then one JSON result line on stdout. Exits
//! 1 when any operation failed or produced a wrong result, 2 on bad usage.
//!
//! An untraced run re-runs this binary [`PARTS`] times with `--part` and
//! an equal share of the window, one child after another, and pools the
//! samples each child reports; a traced run measures in this process.

use std::path::PathBuf;
use std::process::{exit, Command, Stdio};

use perfbench::env::EnvStamp;
use perfbench::metrics::{Values, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::workloads::{find, pool, Kind, Outcome, Workload, PARTS, PART_TAG, WORKLOADS};
use perfbench::{calib, invert, probes, serve};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    part: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut part) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--part" => part = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        part,
    })
}

/// Runs the workload in this process.
fn measure(w: &Workload, seed: u64, secs: f64, tracer: Option<&Tracer>) -> Outcome {
    // Scratch files stay inside the working directory.
    let dir = PathBuf::from(".perfbench_run").join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        let mut out = Outcome::default();
        out.fail(format!("cannot create {}: {e}", dir.display()));
        return out;
    }
    let out = match w.kind {
        Kind::Invert(s) => invert::run(w, &s, seed, secs, tracer, &dir),
        Kind::Serve(s) => serve::run(w, &s, seed, secs, tracer, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs the untraced workload as [`PARTS`] child processes and pools them.
fn measure_in_parts(w: &Workload, seed: u64, secs: f64) -> Outcome {
    let mut out = Outcome::default();
    out.lines.extend(EnvStamp::capture().lines());
    out.lines.push(w.describe());
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.fail(format!("cannot locate the benchmark binary: {e}"));
            return out;
        }
    };
    let share = (secs / PARTS as f64).to_string();
    let mut samples = Vec::new();
    for k in 0..PARTS {
        let seed = seed.to_string();
        let args = [
            "--workload",
            w.name,
            "--seed",
            &seed,
            "--seconds",
            &share,
            "--trace",
            "0",
        ];
        // A child's report lines go to stderr; its part line to stdout.
        let child = Command::new(&exe)
            .args(args)
            .args(["--part", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let part = child.map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            let line = text.lines().rev().find(|l| l.starts_with(PART_TAG));
            let part = Outcome::parse_part(line.ok_or("no part line")?)?;
            if !o.status.success() && part.failed == 0 {
                return Err(format!("exited with {}", o.status));
            }
            Ok(part)
        });
        match part {
            Ok(part) => {
                out.attempted += part.attempted;
                out.failed += part.failed;
                samples.push(part.sample);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("part {k}: {e}"));
            }
        }
    }
    if !samples.is_empty() {
        let lines = pool(&samples, &mut out.values);
        out.lines.extend(lines);
    }
    out
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            names.join("|")
        );
        exit(2)
    });
    let Some(w) = find(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        exit(2)
    };
    let (seed, secs) = (args.seed, args.seconds);

    if args.part {
        let out = measure(w, seed, secs, None);
        for line in &out.lines {
            eprintln!("  [part {}] {line}", std::process::id());
        }
        println!("{}", out.part_line());
        exit(if out.failed == 0 { 0 } else { 1 })
    }

    let tracer = args.trace.then(Tracer::default);
    let mut out = match &tracer {
        Some(tracer) => measure(w, seed, secs, Some(tracer)),
        None => measure_in_parts(w, seed, secs),
    };
    if let Some(tracer) = &tracer {
        let reference = calib::NOMINAL_SECS / calib::scale(&calib::references(calib::PROBE_RUNS));
        out.values.set("host.reference_ms", reference * 1e3);
        out.lines.push(format!(
            "host-speed reference: {:.3} ms trimmed mean (nominal {:.3} ms)",
            reference * 1e3,
            calib::NOMINAL_SECS * 1e3
        ));
        if let Err(e) = probes::ceilings(&mut out.values, &mut out.lines) {
            out.fail(format!("ceilings: {e}"));
        }
        probes::mem_copy(&mut out.values, &mut out.lines);
        let mut selfs: Vec<_> = tracer.self_times().into_iter().collect();
        selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, s) in selfs.into_iter().take(12) {
            out.lines.push(format!("self time {name}: {s:.3} s"));
        }
        let path =
            PathBuf::from(".perfbench_run").join(format!("trace-{}-seed{seed}.json", w.name));
        match tracer.write_chrome(&path) {
            Ok(()) => out
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.lines.push(format!("spans not written: {e}")),
        }
    }
    report(&out, &args, w);
}

fn report(out: &Outcome, args: &Args, w: &Workload) {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    for line in &out.lines {
        println!("{line}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let values: &Values = &out.values;
    for d in defs {
        let v = values.get(d.name).unwrap_or(f64::NAN);
        println!(
            "{} = {v} {} ({} is better)",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    println!(
        "failed_frac = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    match values.result_line(defs, out.failed == 0, out.attempted, out.failed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1)
        }
    }
    if out.failed > 0 {
        exit(1)
    }
}
