//! `mrinv-serve`: the multi-tenant inversion service.
//!
//! A long-running daemon that accepts concurrent [`crate::Request`]-shaped
//! work over TCP — `invert(A)`, `lu(A)`, `solve(A, b…)` — from many
//! tenants against one shared [`Cluster`], backed by one shared
//! [`FactorCache`]. The wire protocol uses the worker backend's frame
//! format ([`mrinv_mapreduce::wire`]: `u32` little-endian length, one tag
//! byte, body) with two tags, `1` for a request (→) and `2` for a
//! response (←). Bodies are laid out by hand, the same way the worker
//! protocol lays out its DFS operations:
//!
//! * scalars are fixed-width little-endian (`u64`, `f64` by bit
//!   pattern), flags one byte each (0 or 1);
//! * a string is a `u64` length, then UTF-8;
//! * a matrix is `u64` rows, `u64` cols, then `rows·cols` raw `f64`s in
//!   row-major order (written straight from the entry slice, read
//!   straight into one vector);
//! * an optional matrix is a presence flag, then the matrix;
//! * a vector is a `u64` count, then the raw values; a list of vectors is
//!   a `u64` count, then each vector.
//!
//! | frame (tag) | body, in order                                              |
//! |-------------|-------------------------------------------------------------|
//! | request (1) | tenant, `id`, op byte (0 invert, 1 lu, 2 solve), `nb`,      |
//! |             | three [`Optimizations`] flags, `a`, right-hand sides        |
//! | response (2)| `id`, `ok` flag, error string, `cache_hit` flag, `jobs`,    |
//! |             | `sim_secs`, optional inverse, optional `L`, optional `U`,   |
//! |             | `perm` (`u64` values), solutions                            |
//!
//! A matrix therefore costs its payload bytes plus 16, and the decoder
//! checks every length against the bytes that remain before allocating,
//! then rejects trailing bytes. Any malformed frame drops the connection.
//!
//! # Threading model
//!
//! One accept thread, one handler thread per connection, and **one**
//! pipeline executor thread. Handler threads serve cache *hits*
//! themselves (hits touch no driver state and use uncounted DFS reads,
//! so any number can run concurrently); everything cold is queued for
//! the executor, which runs pipelines strictly one at a time. That
//! serialization is what keeps [`crate::RunReport`]s correct — the
//! cluster's metrics are delta-based, so two interleaved pipeline runs
//! would corrupt each other's accounting — and it is also the
//! determinism argument: each cold run sees the DFS exactly as a
//! sequential run would, so concurrent clients get bit-identical bytes
//! to back-to-back requests.
//!
//! # Admission control, fairness, batching
//!
//! Each tenant owns a bounded FIFO queue
//! ([`ServiceConfig::max_queue_per_tenant`]); a request arriving at a
//! full queue is rejected immediately rather than admitted and starved.
//! The executor drains queues tenant-round-robin, so one tenant
//! submitting a thousand requests cannot lock out another submitting
//! one. When the executor picks a `solve`, it also drains every other
//! queued `solve` with the same cache key (any tenant) and serves the
//! whole batch from a single factorization + substitution pass.

use std::collections::{BTreeMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mrinv_mapreduce::obs::Labels;
use mrinv_mapreduce::wire::{
    put_f64_vec, put_f64s, put_string, put_u64, read_frame, write_frame, DecodeError, Decoder,
};
use mrinv_mapreduce::Cluster;
use mrinv_matrix::Matrix;

use crate::cache::{cache_key, CacheStats, FactorCache};
use crate::config::{InversionConfig, Optimizations};
use crate::error::{CoreError, Result};
use crate::inverse::fresh_run_id;
use crate::request::{CacheStatus, Op, Outcome, Request};

pub(crate) const TAG_REQUEST: u8 = 1;
pub(crate) const TAG_RESPONSE: u8 = 2;

/// The operation field of a [`WireRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOp {
    /// Full inversion.
    Invert,
    /// LU factorization; the response carries `L`, `U`, and the pivots.
    Lu,
    /// Linear solve of the attached right-hand sides.
    Solve,
}

impl WireOp {
    fn op(self) -> Op {
        match self {
            WireOp::Invert => Op::Invert,
            WireOp::Lu => Op::Lu,
            WireOp::Solve => Op::Solve,
        }
    }

    fn byte(self) -> u8 {
        match self {
            WireOp::Invert => 0,
            WireOp::Lu => 1,
            WireOp::Solve => 2,
        }
    }

    fn from_byte(b: u8) -> std::result::Result<WireOp, DecodeError> {
        match b {
            0 => Ok(WireOp::Invert),
            1 => Ok(WireOp::Lu),
            2 => Ok(WireOp::Solve),
            _ => Err(DecodeError(format!("unknown op byte {b}"))),
        }
    }
}

fn put_bool(buf: &mut Vec<u8>, b: bool) {
    buf.push(b as u8);
}

fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u64(buf, m.rows() as u64);
    put_u64(buf, m.cols() as u64);
    put_f64s(buf, m.as_slice());
}

fn get_matrix(d: &mut Decoder<'_>) -> std::result::Result<Matrix, DecodeError> {
    let (rows, cols) = (d.u64()?, d.u64()?);
    let len = rows
        .checked_mul(cols)
        .and_then(|len| usize::try_from(len).ok())
        .ok_or_else(|| DecodeError(format!("matrix shape {rows}x{cols} overflows")))?;
    let vals = d.f64s(len)?;
    Matrix::from_vec(rows as usize, cols as usize, vals).map_err(|e| DecodeError(e.to_string()))
}

fn put_opt_matrix(buf: &mut Vec<u8>, m: Option<&Matrix>) {
    put_bool(buf, m.is_some());
    if let Some(m) = m {
        put_matrix(buf, m);
    }
}

fn get_opt_matrix(d: &mut Decoder<'_>) -> std::result::Result<Option<Matrix>, DecodeError> {
    d.bool()?.then(|| get_matrix(d)).transpose()
}

fn put_vectors(buf: &mut Vec<u8>, vs: &[Vec<f64>]) {
    put_u64(buf, vs.len() as u64);
    for v in vs {
        put_f64_vec(buf, v);
    }
}

fn get_vectors(d: &mut Decoder<'_>) -> std::result::Result<Vec<Vec<f64>>, DecodeError> {
    // Each vector costs at least its 8-byte count.
    let n = d.count(8)?;
    (0..n).map(|_| d.f64_vec()).collect()
}

/// Encodes a request body from borrowed parts, so a client sends its
/// matrix without copying it into a [`WireRequest`] first.
pub(crate) fn encode_request(
    tenant: &str,
    id: u64,
    op: WireOp,
    a: &Matrix,
    rhs: &[Vec<f64>],
    cfg: &InversionConfig,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 * a.as_slice().len() + 128);
    put_string(&mut buf, tenant);
    put_u64(&mut buf, id);
    buf.push(op.byte());
    put_u64(&mut buf, cfg.nb as u64);
    put_bool(&mut buf, cfg.opts.separate_intermediate_files);
    put_bool(&mut buf, cfg.opts.block_wrap);
    put_bool(&mut buf, cfg.opts.transpose_u);
    put_matrix(&mut buf, a);
    put_vectors(&mut buf, rhs);
    buf
}

/// One request frame. The matrix crosses as its raw `f64`s (bit-exact),
/// the configuration as its unpacked fields.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// Tenant the request is accounted (and admission-controlled) under.
    pub tenant: String,
    /// Client-chosen request id, echoed back in the response.
    pub id: u64,
    /// Which computation to run.
    pub op: WireOp,
    /// The input matrix.
    pub a: Matrix,
    /// Right-hand sides (required for `Solve`, optional otherwise).
    pub rhs: Vec<Vec<f64>>,
    /// Block bound `nb`.
    pub nb: u64,
    /// [`Optimizations::separate_intermediate_files`].
    pub separate_intermediate_files: bool,
    /// [`Optimizations::block_wrap`].
    pub block_wrap: bool,
    /// [`Optimizations::transpose_u`].
    pub transpose_u: bool,
}

impl WireRequest {
    fn opts(&self) -> Optimizations {
        Optimizations {
            separate_intermediate_files: self.separate_intermediate_files,
            block_wrap: self.block_wrap,
            transpose_u: self.transpose_u,
        }
    }

    /// The request's inversion configuration; `None` when `nb` is 0.
    fn config(&self) -> Option<InversionConfig> {
        (self.nb > 0).then(|| InversionConfig {
            nb: self.nb as usize,
            opts: self.opts(),
        })
    }

    /// The frame body (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let cfg = InversionConfig {
            nb: self.nb as usize,
            opts: self.opts(),
        };
        encode_request(&self.tenant, self.id, self.op, &self.a, &self.rhs, &cfg)
    }

    /// Parses a frame body, rejecting truncation, impossible lengths and
    /// trailing bytes.
    pub fn decode(body: &[u8]) -> std::result::Result<WireRequest, DecodeError> {
        let mut d = Decoder::new(body);
        let req = WireRequest {
            tenant: d.string()?,
            id: d.u64()?,
            op: WireOp::from_byte(d.u8()?)?,
            nb: d.u64()?,
            separate_intermediate_files: d.bool()?,
            block_wrap: d.bool()?,
            transpose_u: d.bool()?,
            a: get_matrix(&mut d)?,
            rhs: get_vectors(&mut d)?,
        };
        d.finish()?;
        Ok(req)
    }
}

/// One response frame. `None` stands for a matrix the operation does not
/// return.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Echo of [`WireRequest::id`].
    pub id: u64,
    /// Whether the computation succeeded; on `false` only `error` is
    /// meaningful.
    pub ok: bool,
    /// Error rendering when `ok` is false.
    pub error: String,
    /// Whether the factor cache served this request.
    pub cache_hit: bool,
    /// The inverse (invert requests).
    pub inverse: Option<Matrix>,
    /// `L` (lu requests).
    pub l: Option<Matrix>,
    /// `U` (lu requests).
    pub u: Option<Matrix>,
    /// Pivot sources (lu requests): entry `i` of `P·A` is row `perm[i]`
    /// of `A`. Empty otherwise.
    pub perm: Vec<u64>,
    /// Solutions, one per attached right-hand side.
    pub solutions: Vec<Vec<f64>>,
    /// Pipeline jobs this request ran (0 on a cache hit).
    pub jobs: u64,
    /// Simulated seconds this request cost (0.0 on a cache hit).
    pub sim_secs: f64,
}

impl WireResponse {
    fn err(id: u64, message: impl Into<String>) -> WireResponse {
        WireResponse {
            id,
            ok: false,
            error: message.into(),
            cache_hit: false,
            inverse: None,
            l: None,
            u: None,
            perm: Vec::new(),
            solutions: Vec::new(),
            jobs: 0,
            sim_secs: 0.0,
        }
    }

    /// The response for `out`, carrying `solutions` (the requester's share
    /// of a batched solve).
    fn from_outcome(id: u64, out: &Outcome, solutions: &[Vec<f64>]) -> WireResponse {
        let factors = out.factors();
        WireResponse {
            id,
            ok: true,
            error: String::new(),
            cache_hit: out.cache == CacheStatus::Hit,
            inverse: out.inverse().cloned(),
            l: factors.map(|f| f.l.clone()),
            u: factors.map(|f| f.u.clone()),
            perm: factors.map_or_else(Vec::new, |f| {
                f.perm.as_slice().iter().map(|&s| s as u64).collect()
            }),
            solutions: solutions.to_vec(),
            jobs: out.report.jobs,
            sim_secs: out.report.sim_secs,
        }
    }

    /// The frame body (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let matrices = [&self.inverse, &self.l, &self.u];
        let matrix_bytes: usize = matrices
            .iter()
            .flat_map(|m| m.iter())
            .map(|m| 8 * m.as_slice().len())
            .sum();
        let mut buf = Vec::with_capacity(matrix_bytes + 128);
        put_u64(&mut buf, self.id);
        put_bool(&mut buf, self.ok);
        put_string(&mut buf, &self.error);
        put_bool(&mut buf, self.cache_hit);
        put_u64(&mut buf, self.jobs);
        put_u64(&mut buf, self.sim_secs.to_bits());
        for m in matrices {
            put_opt_matrix(&mut buf, m.as_ref());
        }
        put_u64(&mut buf, self.perm.len() as u64);
        for &p in &self.perm {
            put_u64(&mut buf, p);
        }
        put_vectors(&mut buf, &self.solutions);
        buf
    }

    /// Parses a frame body, rejecting truncation, impossible lengths and
    /// trailing bytes.
    pub fn decode(body: &[u8]) -> std::result::Result<WireResponse, DecodeError> {
        let mut d = Decoder::new(body);
        let resp = WireResponse {
            id: d.u64()?,
            ok: d.bool()?,
            error: d.string()?,
            cache_hit: d.bool()?,
            jobs: d.u64()?,
            sim_secs: d.f64()?,
            inverse: get_opt_matrix(&mut d)?,
            l: get_opt_matrix(&mut d)?,
            u: get_opt_matrix(&mut d)?,
            perm: {
                let n = d.count(8)?;
                (0..n)
                    .map(|_| d.u64())
                    .collect::<std::result::Result<_, _>>()?
            },
            solutions: get_vectors(&mut d)?,
        };
        d.finish()?;
        Ok(resp)
    }
}

/// Tuning knobs for [`ServerHandle::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Admission-control bound: a tenant with this many queued cold
    /// requests has further cold requests rejected until the executor
    /// catches up. Cache hits are never rejected (they consume no
    /// executor capacity).
    pub max_queue_per_tenant: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            max_queue_per_tenant: 64,
        }
    }
}

/// A cold request parked for the executor.
struct QueuedJob {
    tenant: String,
    id: u64,
    op: Op,
    a: Matrix,
    rhs: Vec<Vec<f64>>,
    cfg: InversionConfig,
    key: u64,
    resp: mpsc::Sender<WireResponse>,
}

/// Per-tenant FIFO queues plus the round-robin draining order.
#[derive(Default)]
struct Queues {
    tenants: BTreeMap<String, VecDeque<QueuedJob>>,
    rr: VecDeque<String>,
}

impl Queues {
    fn push(&mut self, job: QueuedJob) {
        let tenant = job.tenant.clone();
        let q = self.tenants.entry(tenant.clone()).or_default();
        q.push_back(job);
        if !self.rr.contains(&tenant) {
            self.rr.push_back(tenant);
        }
    }

    /// Pops the next job in tenant-round-robin order.
    fn pop(&mut self) -> Option<QueuedJob> {
        while let Some(tenant) = self.rr.pop_front() {
            if let Some(q) = self.tenants.get_mut(&tenant) {
                if let Some(job) = q.pop_front() {
                    if !q.is_empty() {
                        self.rr.push_back(tenant);
                    }
                    return Some(job);
                }
            }
        }
        None
    }

    /// Drains every queued solve sharing `key` (any tenant) for batching.
    fn drain_matching_solves(&mut self, key: u64) -> Vec<QueuedJob> {
        let mut batch = Vec::new();
        for q in self.tenants.values_mut() {
            let mut keep = VecDeque::with_capacity(q.len());
            for job in q.drain(..) {
                if job.op == Op::Solve && job.key == key {
                    batch.push(job);
                } else {
                    keep.push_back(job);
                }
            }
            *q = keep;
        }
        batch
    }

    fn pending(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, VecDeque::len)
    }

    fn drain_all(&mut self) -> Vec<QueuedJob> {
        self.rr.clear();
        self.tenants
            .values_mut()
            .flat_map(|q| q.drain(..))
            .collect()
    }
}

struct Shared {
    cluster: Arc<Cluster>,
    cache: FactorCache,
    config: ServiceConfig,
    queues: Mutex<Queues>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Live client sockets, shut down (not just dropped) on server
    /// shutdown so blocked handler reads wake immediately.
    conns: Mutex<Vec<TcpStream>>,
    served: AtomicU64,
}

impl Shared {
    /// Bumps a service counter, labelled by tenant and operation.
    fn count(&self, name: &str, tenant: &str, op: &str) {
        let labels = Labels::new().tenant(tenant).task_kind(op);
        self.cluster.metrics.obs().counter(name, &labels).add(1);
    }

    /// Per-request accounting. Labels stay bounded (tenant and operation):
    /// per-request detail belongs in traces, not in metric series.
    fn note_served(&self, tenant: &str, op: Op, out: &Outcome) {
        self.served.fetch_add(1, Ordering::Relaxed);
        let verdict = match out.cache {
            CacheStatus::Hit => "mrinv_service_cache_hits_total",
            CacheStatus::Miss => "mrinv_service_cache_misses_total",
            CacheStatus::Bypass => return,
        };
        self.count(verdict, tenant, op.name());
    }
}

/// A running service. Dropping the handle shuts the server down: the
/// listener stops accepting, every client socket is shut down, queued
/// jobs are failed with a shutdown error, and all threads are joined —
/// no orphan sockets or wedged accept loops survive the handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// Binds, spawns the accept and executor threads, and returns.
    pub fn start(cluster: Arc<Cluster>, config: ServiceConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| CoreError::Invariant(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CoreError::Invariant(format!("listener address: {e}")))?;
        let shared = Arc::new(Shared {
            cluster,
            cache: FactorCache::new(),
            config,
            queues: Mutex::new(Queues::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let executor = {
            let shared = shared.clone();
            std::thread::spawn(move || executor_loop(&shared))
        };
        let accept = {
            let shared = shared.clone();
            let handlers = handlers.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared, &handlers))
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            executor: Some(executor),
            handlers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the shared factor cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Requests served to completion (success or error response sent).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Stops the service and joins every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Wake blocked handler reads.
        for conn in self.shared.conns.lock().expect("conns lock").iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Wake the executor so it drains and exits.
        self.shared.work.notify_all();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.executor.take() {
            let _ = t.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handlers lock"));
        for t in handlers {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client); close and exit.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push(clone);
        }
        let shared = shared.clone();
        let handle = std::thread::spawn(move || {
            let mut stream = stream;
            // A panicking handler must not leak its socket: catch the
            // unwind and shut the stream down either way, so the client
            // sees EOF instead of a wedged connection, and the listener
            // (a different thread) is never affected.
            let result = catch_unwind(AssertUnwindSafe(|| handle_connection(&mut stream, &shared)));
            let _ = stream.shutdown(Shutdown::Both);
            drop(result);
        });
        handlers.lock().expect("handlers lock").push(handle);
    }
}

/// Serves one client connection: a loop of request frames, each answered
/// with exactly one response frame. Malformed frames drop the connection
/// (the protocol has no way to resynchronize a corrupt stream).
fn handle_connection(stream: &mut TcpStream, shared: &Arc<Shared>) {
    loop {
        let (tag, body) = match read_frame(stream) {
            Ok(f) => f,
            Err(_) => return, // EOF, reset, or shutdown
        };
        if tag != TAG_REQUEST {
            return;
        }
        let req = match WireRequest::decode(&body) {
            Ok(r) => r,
            Err(_) => return,
        };
        drop(body);
        let resp = serve_request(shared, req);
        if write_frame(stream, TAG_RESPONSE, &resp.encode()).is_err() {
            return;
        }
    }
}

/// Serves one decoded request: cache hits inline, cold work through the
/// executor queue. The matrix is hashed once, here; the probe, the queue
/// and the executor's run all reuse that key.
fn serve_request(shared: &Arc<Shared>, req: WireRequest) -> WireResponse {
    let op = req.op.op();
    shared.count("mrinv_service_requests_total", &req.tenant, op.name());
    let Some(cfg) = req.config() else {
        return WireResponse::err(req.id, "bound value nb must be at least 1");
    };
    if let Err(e) = req.a.order() {
        return WireResponse::err(req.id, e.to_string());
    }
    let key = cache_key(&req.a, &cfg, &shared.cluster);

    // Fast path: serve a cache hit right here, concurrently with
    // whatever the executor is doing (hits never touch driver state).
    let probe = build_request(&req.a, op, &req.rhs, &cfg, key).cache(&shared.cache);
    match probe.submit_cached_only(&shared.cluster) {
        Err(e) => return WireResponse::err(req.id, e.to_string()),
        Ok(Some(out)) => {
            shared.note_served(&req.tenant, op, &out);
            return WireResponse::from_outcome(req.id, &out, out.solutions());
        }
        Ok(None) => {}
    }

    // Cold: admission-check, queue for the executor, wait.
    let (tx, rx) = mpsc::channel();
    {
        let mut queues = shared.queues.lock().expect("queues lock");
        if shared.shutdown.load(Ordering::SeqCst) {
            return WireResponse::err(req.id, "server is shutting down");
        }
        if queues.pending(&req.tenant) >= shared.config.max_queue_per_tenant {
            shared.count("mrinv_service_rejected_total", &req.tenant, op.name());
            return WireResponse::err(
                req.id,
                format!(
                    "tenant {} has {} queued requests (admission limit)",
                    req.tenant, shared.config.max_queue_per_tenant
                ),
            );
        }
        queues.push(QueuedJob {
            tenant: req.tenant,
            id: req.id,
            op,
            a: req.a,
            rhs: req.rhs,
            cfg,
            key,
            resp: tx,
        });
    }
    shared.work.notify_one();
    match rx.recv() {
        Ok(resp) => resp,
        Err(_) => WireResponse::err(req.id, "server dropped the request (shutting down)"),
    }
}

fn build_request<'a>(
    a: &'a Matrix,
    op: Op,
    rhs: &[Vec<f64>],
    cfg: &InversionConfig,
    key: u64,
) -> Request<'a> {
    let req = match op {
        Op::Invert => Request::invert(a),
        Op::Lu => Request::lu(a),
        Op::Solve => Request::solve(a),
    };
    req.rhs_all(rhs.iter().cloned()).config(cfg).cache_key(key)
}

/// The single pipeline executor: pops jobs tenant-round-robin, batches
/// same-key solves, runs each cold pipeline alone, answers through the
/// jobs' channels.
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let (job, batch) = {
            let mut queues = shared.queues.lock().expect("queues lock");
            let job = loop {
                if let Some(job) = queues.pop() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queues = shared.work.wait(queues).expect("queues lock");
            };
            let batch = if job.op == Op::Solve {
                queues.drain_matching_solves(job.key)
            } else {
                Vec::new()
            };
            (job, batch)
        };
        execute_batch(shared, job, batch);
        if shared.shutdown.load(Ordering::SeqCst) {
            // Fail whatever is still queued rather than leaving handler
            // threads blocked on their channels.
            let orphans = {
                let mut queues = shared.queues.lock().expect("queues lock");
                queues.drain_all()
            };
            for job in orphans {
                let _ = job
                    .resp
                    .send(WireResponse::err(job.id, "server is shutting down"));
            }
            return;
        }
    }
}

/// Runs `job` (plus any batched same-key solves) through one pipeline /
/// substitution pass and answers every participant.
///
/// A cold run keeps only what the cache references: its run directory is
/// pruned down to the entry's factor forest (the inverse is held in
/// memory), factor files an upgraded entry stopped referencing are
/// deleted, and a failed run's directory is removed whole.
fn execute_batch(shared: &Arc<Shared>, job: QueuedJob, batch: Vec<QueuedJob>) {
    // Merge the batch's right-hand sides behind the leader's, remembering
    // each participant's slice.
    let mut rhs = job.rhs.clone();
    let mut spans = vec![(0usize, job.rhs.len())];
    for follower in &batch {
        spans.push((rhs.len(), follower.rhs.len()));
        rhs.extend(follower.rhs.iter().cloned());
    }

    let dfs = &shared.cluster.dfs;
    let replaced = shared.cache.factor_paths(job.key);
    let run = fresh_run_id(&shared.cluster);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        build_request(&job.a, job.op, &rhs, &job.cfg, job.key)
            .workdir(&run)
            .cache(&shared.cache)
            .submit(&shared.cluster)
    }));
    let outcome = match outcome {
        Ok(result) => result,
        Err(_) => Err(CoreError::Invariant(
            "request panicked in the pipeline executor".to_string(),
        )),
    };

    match outcome {
        Ok(out) => {
            if out.cache == CacheStatus::Miss {
                shared.cache.prune_run(job.key, &replaced, dfs);
            }
            for (member, (start, len)) in std::iter::once(&job).chain(batch.iter()).zip(spans) {
                let resp = WireResponse::from_outcome(
                    member.id,
                    &out,
                    &out.solutions()[start..start + len],
                );
                shared.note_served(&member.tenant, member.op, &out);
                let _ = member.resp.send(resp);
            }
        }
        Err(e) => {
            dfs.delete_dir(run.dir());
            let message = e.to_string();
            for member in std::iter::once(&job).chain(batch.iter()) {
                let _ = member
                    .resp
                    .send(WireResponse::err(member.id, message.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use mrinv_mapreduce::dfs::normalize_path;
    use mrinv_mapreduce::{ClusterConfig, CostModel};
    use mrinv_matrix::random::random_well_conditioned;
    use std::collections::BTreeSet;

    fn job(tenant: &str, id: u64, op: Op, key: u64) -> (QueuedJob, mpsc::Receiver<WireResponse>) {
        let (tx, rx) = mpsc::channel();
        (
            QueuedJob {
                tenant: tenant.to_string(),
                id,
                op,
                a: Matrix::identity(2),
                rhs: Vec::new(),
                cfg: InversionConfig::with_nb(1),
                key,
                resp: tx,
            },
            rx,
        )
    }

    #[test]
    fn queues_drain_round_robin_across_tenants() {
        let mut q = Queues::default();
        for i in 0..3 {
            q.push(job("alice", i, Op::Invert, 0).0);
        }
        q.push(job("bob", 10, Op::Invert, 0).0);
        let order: Vec<(String, u64)> = std::iter::from_fn(|| q.pop())
            .map(|j| (j.tenant, j.id))
            .collect();
        // Bob's single request is served second, not fourth.
        assert_eq!(
            order,
            vec![
                ("alice".to_string(), 0),
                ("bob".to_string(), 10),
                ("alice".to_string(), 1),
                ("alice".to_string(), 2),
            ]
        );
    }

    #[test]
    fn solve_batching_drains_same_key_only() {
        let mut q = Queues::default();
        q.push(job("a", 1, Op::Solve, 42).0);
        q.push(job("b", 2, Op::Solve, 42).0);
        q.push(job("b", 3, Op::Solve, 7).0);
        q.push(job("c", 4, Op::Invert, 42).0);
        let leader = q.pop().unwrap();
        assert_eq!(leader.id, 1);
        let batch = q.drain_matching_solves(42);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 2);
        // The different-key solve and the invert stay queued.
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id).collect();
        assert_eq!(rest.len(), 2);
        assert!(rest.contains(&3) && rest.contains(&4));
    }

    #[test]
    fn wire_structs_round_trip() {
        let req = WireRequest {
            tenant: "t".to_string(),
            id: 9,
            op: WireOp::Solve,
            a: Matrix::identity(3),
            rhs: vec![vec![1.0, 2.0, 3.0]],
            nb: 2,
            separate_intermediate_files: true,
            block_wrap: false,
            transpose_u: true,
        };
        let body = req.encode();
        // Payload plus a fixed header: no per-element framing.
        assert_eq!(
            body.len(),
            8 + 1 + 8 + 1 + 8 + 3 + 16 + 9 * 8 + 8 + 8 + 3 * 8
        );
        let back = WireRequest::decode(&body).unwrap();
        assert_eq!(back.tenant, "t");
        assert_eq!(back.op, WireOp::Solve);
        assert_eq!(back.rhs, req.rhs);
        assert_eq!(back.a, req.a);
        let cfg = back.config().unwrap();
        assert_eq!(cfg.nb, 2);
        assert!(cfg.opts.separate_intermediate_files);
        assert!(!cfg.opts.block_wrap);
        assert!(WireRequest { nb: 0, ..back }.config().is_none());

        let resp = WireResponse::err(9, "nope");
        let back = WireResponse::decode(&resp.encode()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.id, 9);
        assert_eq!(back.error, "nope");
        assert!(back.inverse.is_none() && back.l.is_none() && back.u.is_none());
    }

    /// After cold service requests — invert, lu and solve misses, an
    /// invert that upgrades an lu-primed entry, and a failing request —
    /// the DFS holds exactly the union of the cached entries' factor
    /// files, and every entry still serves correct answers.
    #[test]
    fn cold_runs_leave_exactly_the_cached_factor_files() {
        let mut ccfg = ClusterConfig::medium(4);
        ccfg.cost = CostModel::unit_for_tests();
        let cluster = Arc::new(Cluster::new(ccfg));
        let handle = ServerHandle::start(cluster.clone(), ServiceConfig::default()).unwrap();
        let mut client = ServiceClient::connect(&handle.addr().to_string(), "t").unwrap();
        let cfg = InversionConfig::with_nb(8);
        let mats: Vec<Matrix> = (0..4)
            .map(|i| random_well_conditioned(32, 70 + i))
            .collect();
        let b: Vec<f64> = (0..32).map(|i| i as f64 - 3.0).collect();

        client.invert(&mats[0], &cfg).unwrap();
        client.lu(&mats[1], &cfg).unwrap();
        client
            .solve(&mats[2], std::slice::from_ref(&b), &cfg)
            .unwrap();
        let upgraded = client.invert(&mats[1], &cfg).unwrap();
        assert!(!upgraded.cache_hit, "no inverse cached yet");
        client.invert(&mats[3], &cfg).unwrap();
        let singular = Matrix::zeros(32, 32);
        assert!(client.invert(&singular, &cfg).is_err());

        let want: BTreeSet<String> = mats
            .iter()
            .flat_map(|m| {
                let key = cache_key(m, &cfg, &cluster);
                handle.shared.cache.factor_paths(key)
            })
            .map(|p| normalize_path(&p))
            .collect();
        assert!(!want.is_empty());
        let have: BTreeSet<String> = cluster.dfs.list("").into_iter().collect();
        assert_eq!(have, want);
        assert_eq!(handle.cache_stats().entries, 4);

        for m in &mats {
            let reply = client.solve(m, std::slice::from_ref(&b), &cfg).unwrap();
            assert!(reply.cache_hit);
            let res = m
                .mul_vec(&reply.solutions[0])
                .unwrap()
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(res < 1e-9, "residual {res}");
        }
    }
}
