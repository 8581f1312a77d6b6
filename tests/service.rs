//! Service acceptance: the multi-tenant `mrinv-serve` daemon under
//! concurrent clients must produce bytes bit-identical to sequential
//! in-process runs, serve warmed requests from the factor cache with
//! zero pipeline jobs, enforce per-tenant admission limits, and survive
//! malformed clients without wedging the listener. The wire messages
//! round-trip bit for bit and reject malformed bodies, the cache key sees
//! every bit of the matrix, a run never reuses a live run directory, and
//! a long-lived server mints no metric series per request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use mrinv::client::ServiceClient;
use mrinv::service::{ServerHandle, ServiceConfig, WireOp, WireRequest, WireResponse};
use mrinv::{cache_key, CacheStatus, FactorCache, InversionConfig, Optimizations, Request};
use mrinv_mapreduce::obs::ObsSnapshot;
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, RunId};
use mrinv_matrix::io::encode_binary;
use mrinv_matrix::random::random_well_conditioned;
use mrinv_matrix::Matrix;
use proptest::prelude::*;

fn unit_cluster() -> Cluster {
    let mut cfg = ClusterConfig::medium(4);
    cfg.cost = CostModel::unit_for_tests();
    Cluster::new(cfg)
}

fn start_server(config: ServiceConfig) -> ServerHandle {
    ServerHandle::start(Arc::new(unit_cluster()), config).unwrap()
}

fn rhs_for(i: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| (k as f64) + (i as f64) * 0.5 + 1.0)
        .collect()
}

/// N concurrent clients — mixed invert/solve/lu, shared and distinct
/// matrices — receive bytes bit-identical to sequential single runs on
/// fresh clusters, and every post-warm solve of the shared matrix is a
/// cache hit that runs zero pipeline jobs.
#[test]
fn concurrent_clients_match_sequential_runs_bit_for_bit() {
    const CLIENTS: usize = 5;
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();

    let shared = random_well_conditioned(64, 17);
    let shared_cfg = InversionConfig::with_nb(16);
    let own: Vec<Matrix> = (0..CLIENTS)
        .map(|i| random_well_conditioned(48, 100 + i as u64))
        .collect();
    let own_cfg = InversionConfig::with_nb(12);

    // Sequential references, each on its own fresh cluster: exactly what
    // a pre-service single run produced.
    let ref_inverse = encode_binary(
        Request::invert(&shared)
            .config(&shared_cfg)
            .submit(&unit_cluster())
            .unwrap()
            .inverse()
            .unwrap(),
    )
    .to_vec();
    let ref_solutions: Vec<Vec<f64>> = (0..CLIENTS)
        .map(|i| {
            Request::solve(&shared)
                .rhs(rhs_for(i, 64))
                .config(&shared_cfg)
                .submit(&unit_cluster())
                .unwrap()
                .into_solutions()
                .remove(0)
        })
        .collect();
    let ref_own: Vec<Vec<u8>> = own
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if i % 2 == 0 {
                encode_binary(
                    Request::invert(m)
                        .config(&own_cfg)
                        .submit(&unit_cluster())
                        .unwrap()
                        .inverse()
                        .unwrap(),
                )
                .to_vec()
            } else {
                let f = Request::lu(m)
                    .config(&own_cfg)
                    .submit(&unit_cluster())
                    .unwrap()
                    .into_factors();
                let mut bytes = encode_binary(&f.l).to_vec();
                bytes.extend_from_slice(&encode_binary(&f.u));
                bytes
            }
        })
        .collect();

    struct ClientResult {
        inverse: Vec<u8>,
        solution: Vec<f64>,
        own_bytes: Vec<u8>,
        solve_hit: bool,
        solve_jobs: u64,
        solve_sim_secs: f64,
    }

    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addr.clone();
                let (shared, own) = (&shared, &own);
                let (shared_cfg, own_cfg) = (&shared_cfg, &own_cfg);
                s.spawn(move || {
                    let mut client = ServiceClient::connect(&addr, format!("tenant-{i}")).unwrap();
                    let inv = client.invert(shared, shared_cfg).unwrap();
                    let sol = client.solve(shared, &[rhs_for(i, 64)], shared_cfg).unwrap();
                    let own_bytes = if i % 2 == 0 {
                        let r = client.invert(&own[i], own_cfg).unwrap();
                        encode_binary(r.inverse.as_ref().unwrap()).to_vec()
                    } else {
                        let r = client.lu(&own[i], own_cfg).unwrap();
                        let f = r.factors.as_ref().unwrap();
                        let mut bytes = encode_binary(&f.l).to_vec();
                        bytes.extend_from_slice(&encode_binary(&f.u));
                        bytes
                    };
                    ClientResult {
                        inverse: encode_binary(inv.inverse.as_ref().unwrap()).to_vec(),
                        solution: sol.solutions[0].clone(),
                        own_bytes,
                        solve_hit: sol.cache_hit,
                        solve_jobs: sol.jobs,
                        solve_sim_secs: sol.sim_secs,
                    }
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.inverse, ref_inverse, "client {i}: inverse bytes differ");
        assert_eq!(r.solution, ref_solutions[i], "client {i}: solution differs");
        assert_eq!(
            r.own_bytes, ref_own[i],
            "client {i}: own-matrix bytes differ"
        );
        // The solve follows that client's invert response, so the shared
        // matrix is warm by the time it arrives: hit, zero jobs.
        assert!(r.solve_hit, "client {i}: solve should hit the warmed cache");
        assert_eq!(
            r.solve_jobs, 0,
            "client {i}: cached solve ran pipeline jobs"
        );
        assert_eq!(
            r.solve_sim_secs, 0.0,
            "client {i}: cached solve cost sim time"
        );
    }
    let stats = handle.cache_stats();
    assert!(
        stats.hits >= CLIENTS as u64,
        "every client's solve hits: {stats:?}"
    );
    assert_eq!(handle.served(), (CLIENTS * 3) as u64);
}

/// Over the wire: a warm invert turns the subsequent solve of the same
/// matrix into a pure cache hit, and its answer matches a cold
/// in-process solve bit for bit.
#[test]
fn cached_solve_after_warm_invert_over_the_wire() {
    let handle = start_server(ServiceConfig::default());
    let mut client = ServiceClient::connect(&handle.addr().to_string(), "warm").unwrap();

    let a = random_well_conditioned(32, 23);
    let cfg = InversionConfig::with_nb(8);
    let b = rhs_for(0, 32);

    let inv = client.invert(&a, &cfg).unwrap();
    assert!(!inv.cache_hit);
    assert!(inv.jobs > 0);

    let sol = client.solve(&a, std::slice::from_ref(&b), &cfg).unwrap();
    assert!(
        sol.cache_hit,
        "solve after invert must be served from cache"
    );
    assert_eq!(sol.jobs, 0);
    assert_eq!(sol.sim_secs, 0.0);

    let cold = Request::solve(&a)
        .rhs(b)
        .config(&cfg)
        .submit(&unit_cluster())
        .unwrap()
        .into_solutions();
    assert_eq!(
        sol.solutions, cold,
        "cached and cold solutions must agree exactly"
    );
}

/// A tenant over its admission limit is rejected immediately with a
/// diagnostic, not admitted and starved.
#[test]
fn admission_limit_rejects_excess_cold_requests() {
    let handle = start_server(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        max_queue_per_tenant: 0,
    });
    let mut client = ServiceClient::connect(&handle.addr().to_string(), "greedy").unwrap();
    let a = random_well_conditioned(16, 5);
    let err = client.invert(&a, &InversionConfig::with_nb(4)).unwrap_err();
    assert!(
        err.to_string().contains("admission limit"),
        "expected an admission rejection, got: {err}"
    );
}

/// A malformed frame drops only that connection; the listener keeps
/// accepting and the cache survives.
#[test]
fn malformed_frame_drops_connection_but_not_server() {
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();
    let a = random_well_conditioned(16, 3);
    let cfg = InversionConfig::with_nb(4);

    let mut first = ServiceClient::connect(&addr, "ok").unwrap();
    let warm = first.invert(&a, &cfg).unwrap();

    // A client speaking garbage: bogus tag, junk body.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&5u32.to_le_bytes()).unwrap();
    raw.write_all(&[9, 1, 2, 3, 4]).unwrap();
    let mut buf = [0u8; 16];
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(
        n, 0,
        "the malformed connection must be closed, not answered"
    );

    // The server still accepts and serves — from the warmed cache.
    let mut second = ServiceClient::connect(&addr, "after").unwrap();
    let reply = second.invert(&a, &cfg).unwrap();
    assert!(reply.cache_hit);
    assert_eq!(
        encode_binary(reply.inverse.as_ref().unwrap()),
        encode_binary(warm.inverse.as_ref().unwrap())
    );
}

/// Shutdown closes client sockets, joins every thread, and is
/// idempotent; a connection caught mid-shutdown sees EOF, not a hang.
#[test]
fn shutdown_closes_sockets_and_is_idempotent() {
    let mut handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();
    let mut lingering = TcpStream::connect(&addr).unwrap();
    handle.shutdown();
    let mut buf = [0u8; 4];
    match lingering.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected EOF after shutdown, read {n} bytes"),
    }
    handle.shutdown(); // idempotent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The factor cache hits on an identical (matrix, config)
    /// fingerprint, misses on any perturbation — a 1-ulp matrix nudge, a
    /// different block bound, different optimization flags — and
    /// invalidates (then re-primes) when the factor files vanish from
    /// the DFS.
    #[test]
    fn factor_cache_hit_miss_and_invalidation((seed, perturb) in (0u64..1_000, 0usize..3)) {
        let cluster = unit_cluster();
        let cache = FactorCache::new();
        let a = random_well_conditioned(32, seed);
        let cfg = InversionConfig::with_nb(8);

        let primed = Request::lu(&a).config(&cfg).cache(&cache).submit(&cluster).unwrap();
        prop_assert_eq!(primed.cache, CacheStatus::Miss);

        let hit = Request::lu(&a).config(&cfg).cache(&cache).submit(&cluster).unwrap();
        prop_assert_eq!(hit.cache, CacheStatus::Hit);
        prop_assert_eq!(hit.report.jobs, 0);

        let perturbed = match perturb {
            0 => {
                let mut a2 = a.clone();
                a2[(0, 0)] += 1e-13;
                Request::lu(&a2).config(&cfg).cache(&cache).submit(&cluster).unwrap()
            }
            1 => Request::lu(&a)
                .config(&InversionConfig::with_nb(16))
                .cache(&cache)
                .submit(&cluster)
                .unwrap(),
            _ => {
                let mut cfg2 = InversionConfig::with_nb(8);
                cfg2.opts = Optimizations::none();
                Request::lu(&a).config(&cfg2).cache(&cache).submit(&cluster).unwrap()
            }
        };
        prop_assert_eq!(perturbed.cache, CacheStatus::Miss);

        // Deleting the priming run's DFS files kills the entry: the next
        // identical request is a miss that re-runs the pipeline.
        let removed = cluster.dfs.delete_dir(&primed.report.workdir);
        prop_assert!(removed > 0, "the factor forest lives under the workdir");
        let after = Request::lu(&a).config(&cfg).cache(&cache).submit(&cluster).unwrap();
        prop_assert_eq!(after.cache, CacheStatus::Miss);
        prop_assert!(after.report.jobs > 0);
        prop_assert!(cache.stats().invalidations >= 1);
    }
}

/// Shape and bit patterns of a matrix, for bit-exact comparisons that
/// hold for NaN payloads and signed zeros too.
fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    (
        m.rows(),
        m.cols(),
        m.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

fn vec_bits(vs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    vs.iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// An `f64` drawn from a random word: often one of the awkward values
/// (signed zeros, subnormals, infinities, NaNs with payloads), otherwise
/// the word's own bit pattern.
fn f64_from(w: u64) -> f64 {
    let bits = w >> 3;
    match w & 7 {
        0 => -0.0,
        1 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff), // subnormal or +0
        2 => f64::from_bits(0x7ff0_0000_0000_0000 | bits | 1), // NaN payload
        3 => f64::from_bits(0xfff8_0000_0000_0000 | bits), // negative NaN
        4 => f64::NEG_INFINITY,
        _ => f64::from_bits(w.rotate_left(17)),
    }
}

fn matrix_from(rows: usize, cols: usize, words: &[u64]) -> Matrix {
    let vals = words[..rows * cols].iter().map(|&w| f64_from(w)).collect();
    Matrix::from_vec(rows, cols, vals).unwrap()
}

fn vectors_from(words: &[Vec<u64>]) -> Vec<Vec<f64>> {
    words
        .iter()
        .map(|v| v.iter().map(|&w| f64_from(w)).collect())
        .collect()
}

fn any_matrix() -> impl Strategy<Value = Matrix> {
    (
        0usize..4,
        0usize..4,
        prop::collection::vec(any::<u64>(), 16),
    )
        .prop_map(|(r, c, w)| matrix_from(r, c, &w))
}

fn any_opt_matrix() -> impl Strategy<Value = Option<Matrix>> {
    (any::<bool>(), any_matrix()).prop_map(|(some, m)| some.then_some(m))
}

fn any_vectors() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 0..5), 0..3)
        .prop_map(|w| vectors_from(&w))
}

fn any_request() -> impl Strategy<Value = WireRequest> {
    (
        "[a-zä0-9-]{0,6}",
        any::<u64>(),
        0u8..3,
        any_matrix(),
        any_vectors(),
        any::<u64>(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|(tenant, id, op, a, rhs, nb, flags)| WireRequest {
            tenant,
            id,
            op: [WireOp::Invert, WireOp::Lu, WireOp::Solve][op as usize],
            a,
            rhs,
            nb,
            separate_intermediate_files: flags.0,
            block_wrap: flags.1,
            transpose_u: flags.2,
        })
}

fn any_response() -> impl Strategy<Value = WireResponse> {
    (
        any::<u64>(),
        (any::<bool>(), any::<bool>()),
        "[a-z ]{0,6}",
        any_opt_matrix(),
        any_opt_matrix(),
        any_opt_matrix(),
        prop::collection::vec(any::<u64>(), 0..5),
        any_vectors(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(id, (ok, cache_hit), error, inverse, l, u, perm, solutions, jobs, sim)| {
                WireResponse {
                    id,
                    ok,
                    error,
                    cache_hit,
                    inverse,
                    l,
                    u,
                    perm,
                    solutions,
                    jobs,
                    sim_secs: f64_from(sim),
                }
            },
        )
}

fn sample_request() -> WireRequest {
    WireRequest {
        tenant: "tenant-ä".to_string(),
        id: 77,
        op: WireOp::Lu,
        a: random_well_conditioned(3, 4),
        rhs: vec![vec![1.0, -0.0, 3.5]],
        nb: 2,
        separate_intermediate_files: false,
        block_wrap: true,
        transpose_u: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Requests survive encode → decode bit for bit, NaN payloads and
    /// signed zeros included.
    #[test]
    fn wire_request_round_trips_bit_for_bit(req in any_request()) {
        let back = WireRequest::decode(&req.encode()).unwrap();
        prop_assert_eq!(&back.tenant, &req.tenant);
        prop_assert_eq!(back.id, req.id);
        prop_assert_eq!(back.op, req.op);
        prop_assert_eq!(bits(&back.a), bits(&req.a));
        prop_assert_eq!(vec_bits(&back.rhs), vec_bits(&req.rhs));
        prop_assert_eq!(back.nb, req.nb);
        prop_assert_eq!(
            (back.separate_intermediate_files, back.block_wrap, back.transpose_u),
            (req.separate_intermediate_files, req.block_wrap, req.transpose_u)
        );
    }

    /// Responses survive encode → decode bit for bit.
    #[test]
    fn wire_response_round_trips_bit_for_bit(resp in any_response()) {
        let back = WireResponse::decode(&resp.encode()).unwrap();
        prop_assert_eq!(back.id, resp.id);
        prop_assert_eq!(back.ok, resp.ok);
        prop_assert_eq!(&back.error, &resp.error);
        prop_assert_eq!(back.cache_hit, resp.cache_hit);
        prop_assert_eq!(back.inverse.as_ref().map(bits), resp.inverse.as_ref().map(bits));
        prop_assert_eq!(back.l.as_ref().map(bits), resp.l.as_ref().map(bits));
        prop_assert_eq!(back.u.as_ref().map(bits), resp.u.as_ref().map(bits));
        prop_assert_eq!(&back.perm, &resp.perm);
        prop_assert_eq!(vec_bits(&back.solutions), vec_bits(&resp.solutions));
        prop_assert_eq!(back.jobs, resp.jobs);
        prop_assert_eq!(back.sim_secs.to_bits(), resp.sim_secs.to_bits());
    }
}

/// A request of n=512 crosses the wire in its payload bytes plus a small
/// fixed header: one byte per byte, not a value tree per byte.
#[test]
fn wire_request_costs_its_payload() {
    let a = Matrix::identity(512);
    let req = WireRequest {
        a,
        rhs: Vec::new(),
        ..sample_request()
    };
    let payload = 512 * 512 * 8;
    let body = req.encode().len();
    assert!(body >= payload && body < payload + 128, "{body} bytes");
}

/// Every strict prefix of a valid body (a truncated frame) and the body
/// plus one trailing byte are rejected, for requests and responses.
#[test]
fn truncated_and_padded_bodies_are_rejected() {
    let req = sample_request().encode();
    let resp = WireResponse {
        id: 3,
        ok: true,
        error: String::new(),
        cache_hit: true,
        inverse: Some(random_well_conditioned(3, 9)),
        l: None,
        u: None,
        perm: vec![2, 0, 1],
        solutions: vec![vec![0.5; 3]],
        jobs: 4,
        sim_secs: 1.5,
    }
    .encode();
    assert!(WireRequest::decode(&req).is_ok());
    assert!(WireResponse::decode(&resp).is_ok());
    for cut in 0..req.len() {
        assert!(WireRequest::decode(&req[..cut]).is_err(), "prefix {cut}");
    }
    for cut in 0..resp.len() {
        assert!(WireResponse::decode(&resp[..cut]).is_err(), "prefix {cut}");
    }
    let mut padded = req.clone();
    padded.push(0);
    assert!(WireRequest::decode(&padded).is_err());
    let mut padded = resp.clone();
    padded.push(0);
    assert!(WireResponse::decode(&padded).is_err());
}

/// Lengths the body cannot back — a huge tenant string, a matrix whose
/// `rows·cols` overflows or exceeds the bytes sent, a huge right-hand-side
/// count — are refused before anything of that size is allocated.
#[test]
fn oversized_claimed_lengths_are_rejected_without_allocating() {
    let body = sample_request().encode();
    // Layout: tenant length (8) + tenant, id (8), op (1), nb (8), flags
    // (3), then rows, cols.
    let tenant_len = "tenant-ä".len();
    let shape_at = 8 + tenant_len + 8 + 1 + 8 + 3;
    let with_u64 = |at: usize, v: u64| {
        let mut b = body.clone();
        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        b
    };
    for forged in [
        with_u64(0, u64::MAX),
        with_u64(0, 1 << 40),
        with_u64(shape_at, u64::MAX),
        with_u64(shape_at, 1 << 31),
        with_u64(shape_at + 8, 1 << 40),
    ] {
        assert!(WireRequest::decode(&forged).is_err());
    }
    // The right-hand-side count sits after the 3x3 matrix.
    let rhs_at = shape_at + 16 + 9 * 8;
    assert!(WireRequest::decode(&with_u64(rhs_at, u64::MAX / 2)).is_err());
    assert!(WireRequest::decode(&with_u64(rhs_at + 8, 1 << 50)).is_err());
}

/// A frame header claiming 4 GiB that the client never backs, and a
/// well-framed request whose body is corrupt, each drop only their own
/// connection; the server keeps serving.
#[test]
fn forged_frames_drop_the_connection_but_not_server() {
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();

    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.write_all(&[1, 0, 0, 0]).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(raw.read(&mut buf).unwrap_or(0), 0);

    let mut body = sample_request().encode();
    body.push(7); // trailing byte
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&((body.len() + 1) as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&[1]).unwrap();
    raw.write_all(&body).unwrap();
    assert_eq!(raw.read(&mut buf).unwrap_or(0), 0);

    let mut client = ServiceClient::connect(&addr, "after").unwrap();
    let a = random_well_conditioned(16, 2);
    assert!(client.invert(&a, &InversionConfig::with_nb(4)).is_ok());
    // nb = 0 is answered with an error, not a dropped connection.
    let mut zero = sample_request();
    zero.nb = 0;
    let mut raw = TcpStream::connect(&addr).unwrap();
    let body = zero.encode();
    raw.write_all(&((body.len() + 1) as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&[1]).unwrap();
    raw.write_all(&body).unwrap();
    let mut header = [0u8; 5];
    raw.read_exact(&mut header).unwrap();
    let mut reply = vec![0u8; u32::from_le_bytes(header[..4].try_into().unwrap()) as usize - 1];
    raw.read_exact(&mut reply).unwrap();
    let reply = WireResponse::decode(&reply).unwrap();
    assert!(!reply.ok);
    assert!(reply.error.contains("nb"), "{}", reply.error);
}

/// Flipping any single bit of any entry changes the cache key; equal
/// matrices key equally on different clusters of the same geometry and
/// across run directories.
#[test]
fn cache_key_sees_every_bit_and_no_workdir() {
    let cluster = unit_cluster();
    let cfg = InversionConfig::with_nb(4);
    let a = random_well_conditioned(6, 8);
    let base = cache_key(&a, &cfg, &cluster);
    for idx in 0..a.as_slice().len() {
        for bit in 0..64 {
            let mut b = a.clone();
            let v = &mut b.as_mut_slice()[idx];
            *v = f64::from_bits(v.to_bits() ^ (1 << bit));
            assert_ne!(cache_key(&b, &cfg, &cluster), base, "entry {idx} bit {bit}");
        }
    }
    assert_eq!(cache_key(&a.clone(), &cfg, &unit_cluster()), base);

    let cache = FactorCache::new();
    let pinned = RunId::new("elsewhere/run");
    let primed = Request::lu(&a)
        .config(&cfg)
        .workdir(&pinned)
        .cache(&cache)
        .submit(&cluster)
        .unwrap();
    assert_eq!(primed.cache, CacheStatus::Miss);
    let hit = Request::lu(&a)
        .config(&cfg)
        .cache(&cache)
        .submit(&cluster)
        .unwrap();
    assert_eq!(hit.cache, CacheStatus::Hit);
    assert_eq!(hit.report.workdir, "elsewhere/run");
}

fn max_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    a.mul_vec(x)
        .unwrap()
        .iter()
        .zip(b)
        .map(|(ax, b)| (ax - b).abs())
        .fold(0.0, f64::max)
}

/// After a deletion shrinks the DFS file count, a new run must not land
/// in a live run's directory: it would overwrite that run's factor files,
/// and the cache (which only checks that the files exist) would then
/// serve another matrix's factors.
#[test]
fn deleted_run_does_not_make_the_next_run_reuse_a_live_directory() {
    let cluster = unit_cluster();
    let cache = FactorCache::new();
    let cfg = InversionConfig::with_nb(16);
    let (a, b, c) = (
        random_well_conditioned(64, 1),
        random_well_conditioned(64, 2),
        random_well_conditioned(64, 3),
    );
    let run = |m: &Matrix| {
        Request::invert(m)
            .config(&cfg)
            .cache(&cache)
            .submit(&cluster)
            .unwrap()
            .report
            .workdir
    };
    let dir_a = run(&a);
    let dir_b = run(&b);
    assert_eq!(
        dir_a, "mrinv/run-0",
        "names without deletions are unchanged"
    );
    assert!(cluster.dfs.delete_dir(&dir_a) > 0);
    let dir_c = run(&c);
    assert_ne!(dir_c, dir_b, "the new run reused a live directory");

    let rhs = rhs_for(1, 64);
    let out = Request::solve(&b)
        .rhs(rhs.clone())
        .config(&cfg)
        .cache(&cache)
        .submit(&cluster)
        .unwrap();
    assert_eq!(out.cache, CacheStatus::Hit);
    let res = max_residual(&b, &out.solutions()[0], &rhs);
    assert!(
        res < 1e-9,
        "solve of B served wrong factors: residual {res}"
    );
}

/// Two cached runs pinned to one directory: the second overwrote the
/// first's factor files, so the first's entry must be gone, not served.
#[test]
fn a_run_into_a_cached_directory_evicts_that_entry() {
    let cluster = unit_cluster();
    let cache = FactorCache::new();
    let cfg = InversionConfig::with_nb(8);
    let (a, b) = (
        random_well_conditioned(32, 5),
        random_well_conditioned(32, 6),
    );
    let dir = RunId::new("pinned/run");
    for m in [&a, &b] {
        Request::invert(m)
            .config(&cfg)
            .workdir(&dir)
            .cache(&cache)
            .submit(&cluster)
            .unwrap();
    }
    assert_eq!(cache.stats().entries, 1);
    let rhs = rhs_for(2, 32);
    let out = Request::solve(&a)
        .rhs(rhs.clone())
        .config(&cfg)
        .cache(&cache)
        .submit(&cluster)
        .unwrap();
    assert_eq!(out.cache, CacheStatus::Miss);
    assert!(max_residual(&a, &out.solutions()[0], &rhs) < 1e-9);
}

/// Series counts of a registry snapshot: all of them, and those without a
/// `job` label (the service's own series plus node and master series).
fn series(snap: &ObsSnapshot) -> (usize, usize) {
    let jobless = snap
        .counters
        .iter()
        .filter(|s| s.labels.job.is_none())
        .count()
        + snap
            .gauges
            .iter()
            .filter(|s| s.labels.job.is_none())
            .count()
        + snap
            .histograms
            .iter()
            .filter(|s| s.labels.job.is_none())
            .count();
    let total = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    (total, jobless)
}

/// 200 mixed warm and cold requests with observability on: once every
/// (tenant, operation, verdict) combination has been seen, cache hits
/// mint no series at all, and cold runs mint only their pipeline jobs'
/// series (labelled by job, not by request) — nothing grows per request.
#[test]
fn request_traffic_mints_no_per_request_series() {
    let cluster = Arc::new(unit_cluster());
    cluster.metrics.obs().set_enabled(true);
    let handle = ServerHandle::start(cluster.clone(), ServiceConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut warm = ServiceClient::connect(&addr, "warm").unwrap();
    let mut cold = ServiceClient::connect(&addr, "cold").unwrap();
    let cfg = InversionConfig::with_nb(16);
    let shared = random_well_conditioned(32, 40);
    let b = rhs_for(0, 32);
    let obs = || cluster.metrics.obs().snapshot();

    // Warm-up: prime the shared matrix and hit it once per operation,
    // and run one cold invert.
    assert!(!warm.invert(&shared, &cfg).unwrap().cache_hit);
    assert!(warm.invert(&shared, &cfg).unwrap().cache_hit);
    assert!(
        warm.solve(&shared, std::slice::from_ref(&b), &cfg)
            .unwrap()
            .cache_hit
    );
    assert!(warm.lu(&shared, &cfg).unwrap().cache_hit);
    assert!(
        !cold
            .invert(&random_well_conditioned(32, 1000), &cfg)
            .unwrap()
            .cache_hit
    );
    let (total0, jobless0) = series(&obs());

    // 100 warm requests: not one new series.
    for i in 0..100 {
        let reply = match i % 3 {
            0 => warm.solve(&shared, std::slice::from_ref(&b), &cfg),
            1 => warm.invert(&shared, &cfg),
            _ => warm.lu(&shared, &cfg),
        };
        assert!(reply.unwrap().cache_hit);
    }
    assert_eq!(
        series(&obs()),
        (total0, jobless0),
        "cache hits minted series"
    );

    // 100 mixed requests, every fifth a cold invert of a fresh matrix.
    for i in 0..100u64 {
        if i % 5 == 4 {
            let a = random_well_conditioned(32, 2000 + i);
            assert!(!cold.invert(&a, &cfg).unwrap().cache_hit);
        } else {
            let reply = warm.solve(&shared, &[rhs_for(i as usize, 32)], &cfg);
            assert!(reply.unwrap().cache_hit);
        }
    }
    let snap = obs();
    assert_eq!(
        series(&snap).1,
        jobless0,
        "requests minted series outside the pipeline jobs' own"
    );
    assert_eq!(snap.dropped_series, 0);
    assert_eq!(handle.served(), 205);
}
