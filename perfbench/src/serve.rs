//! The service workload: an in-process `ServerHandle` on loopback with two
//! blocking `ServiceClient` connections in a closed loop. Tenant `warm`
//! solves against one matrix primed into the factor cache during set-up
//! (cache hits); tenant `cold` inverts a fresh matrix per request (cache
//! misses through the single pipeline executor).
//!
//! The same loop, shortened, is the service-layer probe of every traced
//! run: it then also sends every other cold request through a counting
//! loopback relay, which measures the wire bytes and the relay's cost.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mrinv::client::ServiceClient;
use mrinv::service::{ServerHandle, ServiceConfig};
use mrinv::{cache_key, CacheStats, CacheStatus, FactorCache, InversionConfig, Request};
use mrinv_mapreduce::Cluster;
use mrinv_matrix::io::binary_size;
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::Matrix;

use crate::env::{peak_rss_mb, EnvStamp};
use crate::metrics::Values;
use crate::pipeline::{self, RESIDUAL};
use crate::stats::{describe, median};
use crate::trace::Tracer;
use crate::workloads::{
    check_residual, check_solve, keep_going, rate, text, InvertSpec, Outcome, ServeSpec, Workload,
};
use crate::{inputs, invert, probes};

/// Repeats of each in-process probe; the median is reported.
const PROBE_REPEATS: usize = 3;

/// A loopback relay for one connection that counts the bytes it forwards.
struct Relay {
    up: Arc<AtomicU64>,
    down: Arc<AtomicU64>,
    pumps: Vec<JoinHandle<()>>,
}

fn pump(mut from: TcpStream, mut to: TcpStream, count: Arc<AtomicU64>) {
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => {
                if to.write_all(&buf[..k]).is_err() {
                    break;
                }
                count.fetch_add(k as u64, Ordering::Relaxed);
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

impl Relay {
    /// Connects a client for `tenant` to `upstream` through a new relay.
    fn connect(upstream: SocketAddr, tenant: &str) -> Result<(ServiceClient, Relay), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(text)?;
        let addr = listener.local_addr().map_err(text)?;
        // The connection completes from the listen backlog, so the accept
        // below never waits on a client that failed to connect.
        let client = ServiceClient::connect(&addr.to_string(), tenant).map_err(text)?;
        let (inbound, _) = listener.accept().map_err(text)?;
        let outbound = TcpStream::connect(upstream).map_err(text)?;
        let _ = outbound.set_nodelay(true);
        let _ = inbound.set_nodelay(true);
        let up = Arc::new(AtomicU64::new(0));
        let down = Arc::new(AtomicU64::new(0));
        let pumps = vec![
            {
                let (f, t, c) = (
                    inbound.try_clone().map_err(text)?,
                    outbound.try_clone().map_err(text)?,
                    up.clone(),
                );
                std::thread::spawn(move || pump(f, t, c))
            },
            {
                let c = down.clone();
                std::thread::spawn(move || pump(outbound, inbound, c))
            },
        ];
        Ok((client, Relay { up, down, pumps }))
    }

    /// Joins the pumps (both ends must be closed) and returns the bytes
    /// forwarded upstream and downstream.
    fn finish(self) -> (u64, u64) {
        for p in self.pumps {
            let _ = p.join();
        }
        (
            self.up.load(Ordering::Relaxed),
            self.down.load(Ordering::Relaxed),
        )
    }
}

/// Starts a server on a fresh cluster and primes the warm matrix into its
/// factor cache with one solve over the wire.
fn start_primed(
    spec: &ServeSpec,
    seed: u64,
    a_warm: &Matrix,
) -> Result<(ServerHandle, ServiceClient), String> {
    let cluster = Arc::new(Cluster::medium(spec.nodes));
    let handle = ServerHandle::start(cluster, ServiceConfig::default()).map_err(text)?;
    let mut warm = ServiceClient::connect(&handle.addr().to_string(), "warm").map_err(text)?;
    let b = inputs::rhs(spec.n, seed, "warm-rhs", 0);
    let reply = warm
        .solve(
            a_warm,
            std::slice::from_ref(&b),
            &InversionConfig::with_nb(spec.nb),
        )
        .map_err(text)?;
    let x = reply
        .solutions
        .first()
        .ok_or("priming solve returned no solution")?;
    check_solve(a_warm, x, &b)?;
    Ok((handle, warm))
}

/// Latencies (seconds) and bookkeeping of one closed-loop window.
#[derive(Default)]
struct LoopResult {
    warm: Vec<f64>,
    cold_direct: Vec<f64>,
    cold_relayed: Vec<f64>,
    rate: f64,
    /// Bytes up and down through the relay, and requests relayed.
    wire: Option<(u64, u64, usize)>,
    cache: CacheStats,
    served: u64,
    outcome: Outcome,
}

/// One client's share of the window.
#[derive(Default)]
struct ClientRun {
    lat: Vec<f64>,
    relayed: Vec<f64>,
    last_done: f64,
    attempted: u64,
    errors: Vec<String>,
}

impl ClientRun {
    fn completed(&self) -> usize {
        self.lat.len() + self.relayed.len()
    }
}

fn warm_loop(
    mut client: ServiceClient,
    spec: &ServeSpec,
    seed: u64,
    a: &Matrix,
    start: Instant,
    secs: f64,
    tracer: Option<&Tracer>,
) -> ClientRun {
    let cfg = InversionConfig::with_nb(spec.nb);
    let mut run = ClientRun::default();
    let mut all = Vec::new();
    let mut i = 0u64;
    while keep_going(start, secs, &all) {
        i += 1;
        run.attempted += 1;
        let b = inputs::rhs(spec.n, seed, "warm-rhs", i);
        let op = 1_000_000 + i;
        let t = Instant::now();
        let reply = match tracer {
            Some(tr) => tr.span(op, None, "client.warm_solve", |_| {
                client.solve(a, std::slice::from_ref(&b), &cfg)
            }),
            None => client.solve(a, std::slice::from_ref(&b), &cfg),
        };
        let d = t.elapsed().as_secs_f64();
        all.push(d);
        let checked = reply.map_err(text).and_then(|r| {
            let x = r.solutions.first().ok_or("no solution returned")?;
            check_solve(a, x, &b)
        });
        match checked {
            Ok(()) => {
                run.lat.push(d);
                run.last_done = start.elapsed().as_secs_f64();
            }
            Err(e) => run.errors.push(format!("warm solve {i}: {e}")),
        }
    }
    run
}

fn cold_loop(
    mut direct: ServiceClient,
    mut relayed: Option<ServiceClient>,
    spec: &ServeSpec,
    seed: u64,
    start: Instant,
    secs: f64,
    tracer: Option<&Tracer>,
) -> ClientRun {
    let cfg = InversionConfig::with_nb(spec.nb);
    let mut run = ClientRun::default();
    let mut all = Vec::new();
    let mut i = 0u64;
    while keep_going(start, secs, &all) {
        i += 1;
        run.attempted += 1;
        let a = inputs::matrix(spec.n, seed, "cold", i);
        let op = 2_000_000 + i;
        let via_relay = relayed.is_some() && i.is_multiple_of(2);
        let client = match (&mut relayed, via_relay) {
            (Some(r), true) => r,
            _ => &mut direct,
        };
        let t = Instant::now();
        let reply = match tracer {
            Some(tr) => {
                let name = if via_relay {
                    "client.cold_invert_relayed"
                } else {
                    "client.cold_invert"
                };
                tr.span(op, None, name, |_| client.invert(&a, &cfg))
            }
            None => client.invert(&a, &cfg),
        };
        let d = t.elapsed().as_secs_f64();
        all.push(d);
        let checked = reply.map_err(text).and_then(|r| {
            let inv = r.inverse.ok_or("no inverse returned")?;
            let res = match tracer {
                Some(tr) => tr.span(op, None, RESIDUAL, |_| inversion_residual(&a, &inv)),
                None => inversion_residual(&a, &inv),
            };
            check_residual(res.map_err(text)?)
        });
        match checked {
            Ok(()) => {
                if via_relay {
                    run.relayed.push(d);
                } else {
                    run.lat.push(d);
                }
                run.last_done = start.elapsed().as_secs_f64();
            }
            Err(e) => run.errors.push(format!("cold invert {i}: {e}")),
        }
    }
    run
}

/// Runs both tenants for `secs`, then shuts the server down. With a tracer,
/// records a span per request and relays every other cold request.
fn closed_loop(
    mut handle: ServerHandle,
    warm: ServiceClient,
    spec: &ServeSpec,
    seed: u64,
    a_warm: &Matrix,
    secs: f64,
    tracer: Option<&Tracer>,
) -> LoopResult {
    let mut res = LoopResult::default();
    let addr = handle.addr();
    let direct = match ServiceClient::connect(&addr.to_string(), "cold") {
        Ok(c) => c,
        Err(e) => {
            res.outcome.fail(format!("connecting the cold client: {e}"));
            return res;
        }
    };
    let (relayed, relay) = match tracer.map(|_| Relay::connect(addr, "cold")) {
        Some(Ok((c, r))) => (Some(c), Some(r)),
        Some(Err(e)) => {
            res.outcome
                .fail(format!("connecting through the relay: {e}"));
            return res;
        }
        None => (None, None),
    };
    let start = Instant::now();
    let (w, c) = std::thread::scope(|s| {
        let w = s.spawn(|| warm_loop(warm, spec, seed, a_warm, start, secs, tracer));
        let c = s.spawn(|| cold_loop(direct, relayed, spec, seed, start, secs, tracer));
        (
            w.join().expect("warm client"),
            c.join().expect("cold client"),
        )
    });
    res.cache = handle.cache_stats();
    res.served = handle.served();
    handle.shutdown();

    res.rate = rate(w.completed(), w.last_done) + rate(c.completed(), c.last_done);
    res.outcome.attempted = w.attempted + c.attempted;
    for e in w.errors.iter().chain(&c.errors) {
        res.outcome.fail(e);
    }
    if let Some(relay) = relay {
        let (up, down) = relay.finish();
        res.wire = Some((up, down, c.relayed.len()));
    }
    res.outcome.lines.push(format!(
        "cache: {} hits, {} misses, {} entries; {} requests served",
        res.cache.hits, res.cache.misses, res.cache.entries, res.served
    ));
    res.warm = w.lat;
    res.cold_direct = c.lat;
    res.cold_relayed = c.relayed;
    res
}

fn median_ms(xs: &[f64]) -> f64 {
    median(xs).map_or(f64::NAN, |m| m * 1e3)
}

/// The matrix the warm tenant solves against.
pub fn warm_matrix(spec: &ServeSpec, seed: u64) -> Matrix {
    inputs::matrix(spec.n, seed, "serve-warm", 0)
}

/// What the service-layer probe of a traced run measured.
pub struct ServiceProbe {
    pub outcome: Outcome,
    pub cold_direct: Vec<f64>,
    pub cold_relayed: Vec<f64>,
}

/// The cache, service and wire layers: a closed-loop window of `secs`
/// through the service, then the same warm and cold requests in process.
pub fn service_layer(
    spec: &ServeSpec,
    seed: u64,
    secs: f64,
    tracer: &Tracer,
    values: &mut Values,
) -> ServiceProbe {
    let a_warm = &warm_matrix(spec, seed);
    let mut probe = ServiceProbe {
        outcome: Outcome::default(),
        cold_direct: Vec::new(),
        cold_relayed: Vec::new(),
    };
    let (handle, warm) = match start_primed(spec, seed, a_warm) {
        Ok(s) => s,
        Err(e) => {
            probe.outcome.fail(format!("service set-up: {e}"));
            return probe;
        }
    };
    let lr = closed_loop(handle, warm, spec, seed, a_warm, secs, Some(tracer));
    values.set("cache.hits", lr.cache.hits as f64);
    values.set("cache.misses", lr.cache.misses as f64);
    values.set("cache.entries", lr.cache.entries as f64);
    values.set("service.served", lr.served as f64);
    probe.outcome.absorb(lr.outcome);
    probe.outcome.lines.push(format!(
        "service warm solve: {}",
        describe(&lr.warm, 1e3, "ms")
    ));
    if let Some((up, down, k)) = lr.wire {
        let k = k.max(1) as f64;
        let (req, resp) = (up as f64 / k, down as f64 / k);
        values.set("wire.request_bytes", req);
        values.set("wire.response_bytes", resp);
        values.set(
            "wire.bytes_per_payload_byte",
            (req + resp) / (2 * binary_size(spec.n, spec.n)) as f64,
        );
    }

    let mut errors = Vec::new();
    let cfg = InversionConfig::with_nb(spec.nb);
    let cluster = Cluster::medium(spec.nodes);
    let key_secs: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cache_key(a_warm, &cfg, &cluster));
            t.elapsed().as_secs_f64()
        })
        .collect();
    values.set("cache.key_ms", median_ms(&key_secs));

    let cache = FactorCache::new();
    let mut hit = Vec::new();
    for i in 0..=PROBE_REPEATS as u64 {
        let b = inputs::rhs(spec.n, seed, "probe-rhs", i);
        let t = Instant::now();
        let out = Request::solve(a_warm)
            .rhs(b.clone())
            .config(&cfg)
            .cache(&cache)
            .submit(&cluster);
        let d = t.elapsed().as_secs_f64();
        let checked = out.map_err(text).and_then(|o| {
            let want = if i == 0 {
                CacheStatus::Miss
            } else {
                CacheStatus::Hit
            };
            if o.cache != want {
                return Err(format!("cache status {:?}, expected {want:?}", o.cache));
            }
            check_solve(a_warm, o.solutions().first().ok_or("no solution")?, &b)
        });
        match checked {
            Ok(()) if i > 0 => hit.push(d),
            Ok(()) => {}
            Err(e) => errors.push(format!("in-process solve {i}: {e}")),
        }
    }
    let hit_ms = median_ms(&hit);
    values.set("cache.hit_solve_ms", hit_ms);
    values.set("service.warm_overhead_ms", median_ms(&lr.warm) - hit_ms);

    let mut cold = Vec::new();
    for i in 0..PROBE_REPEATS as u64 {
        let a = inputs::matrix(spec.n, seed, "probe-cold", i);
        let fresh = Cluster::medium(spec.nodes);
        let t = Instant::now();
        let out = Request::invert(&a).config(&cfg).submit(&fresh);
        let d = t.elapsed().as_secs_f64();
        let checked = out.map_err(text).and_then(|o| {
            check_residual(inversion_residual(&a, o.inverse().ok_or("no inverse")?).map_err(text)?)
        });
        match checked {
            Ok(()) => cold.push(d),
            Err(e) => errors.push(format!("in-process invert {i}: {e}")),
        }
    }
    values.set("service.cold_pipeline_ms", median_ms(&cold));
    probe.outcome.attempted += 2 * PROBE_REPEATS as u64 + 1;
    for e in errors {
        probe.outcome.fail(e);
    }
    probe.cold_direct = lr.cold_direct;
    probe.cold_relayed = lr.cold_relayed;
    probe
}

pub fn run(
    w: &Workload,
    spec: &ServeSpec,
    seed: u64,
    secs: f64,
    tracer: Option<&Tracer>,
    dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    if let Some(tracer) = tracer {
        out.lines.extend(EnvStamp::capture().lines());
        out.lines.push(w.describe());
        let probe = service_layer(spec, seed, secs, tracer, &mut out.values);
        let with = median(&probe.cold_relayed).unwrap_or(f64::NAN);
        let without = median(&probe.cold_direct).unwrap_or(f64::NAN);
        out.lines.push(format!(
            "cold invert direct: {}",
            describe(&probe.cold_direct, 1.0, "s")
        ));
        out.lines.push(format!(
            "cold invert relayed: {}",
            describe(&probe.cold_relayed, 1.0, "s")
        ));
        out.values.set("trace.invert_s", with);
        out.values.set("trace.untraced_invert_s", without);
        out.values.set("trace.overhead_ratio", with / without);
        out.absorb(probe.outcome);

        // The pipeline layers: the executor's cold path, stage by stage.
        let shape = InvertSpec {
            n: spec.n,
            nb: spec.nb,
            nodes: spec.nodes,
            file_io: false,
        };
        let mut counts = Vec::new();
        for i in 0..PROBE_REPEATS as u64 {
            out.attempted += 1;
            let a = inputs::matrix(spec.n, seed, "layer-cold", i);
            match invert::one_op(&shape, &a, dir, Some((tracer, 3_000_000 + i))) {
                Ok((_, c)) => counts.extend(c),
                Err(e) => out.fail(format!("stage-by-stage invert {i}: {e}")),
            }
        }
        pipeline::record(&mut out.values, tracer, &counts);
        let a_warm = warm_matrix(spec, seed);
        if let Err(e) = probes::text_codec(&mut out.values, &a_warm) {
            out.fail(format!("text codec probe: {e}"));
        }
        if let Err(e) = probes::inmem(&mut out.values, &a_warm, spec.nb) {
            out.fail(format!("in-memory inversion probe: {e}"));
        }
        return out;
    }

    let t = Instant::now();
    out.lines.extend(EnvStamp::capture().lines());
    let a_warm = warm_matrix(spec, seed);
    let (handle, warm) = match start_primed(spec, seed, &a_warm) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("service set-up: {e}"));
            return out;
        }
    };
    out.sample.setup = t.elapsed().as_secs_f64();
    out.lines.push(w.describe());
    let lr = closed_loop(handle, warm, spec, seed, &a_warm, secs, None);
    out.absorb(lr.outcome);
    out.lines
        .push(format!("warm solve: {}", describe(&lr.warm, 1e3, "ms")));
    out.lines.push(format!(
        "cold invert: {}",
        describe(&lr.cold_direct, 1.0, "s")
    ));
    out.sample.rate = lr.rate;
    out.sample.rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    out.sample.invert = lr.cold_direct;
    out.sample.request = lr.warm;
    out
}
