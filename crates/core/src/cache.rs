//! The keyed LU-factor cache: factor once, serve many solves.
//!
//! The paper's motivating applications (Section 1) factor a matrix once
//! and then amortize it over many cheap downstream uses. [`FactorCache`]
//! makes that pattern first-class: a successful pipeline run primes the
//! cache with its [`FactorRef`] file forest (plus the inverse, for invert
//! runs), and any later [`crate::Request`] for the *same* matrix under
//! the *same* configuration is served straight from those files — zero
//! MapReduce jobs, zero simulated seconds.
//!
//! # Key semantics
//!
//! The key ([`cache_key`]) fingerprints everything that determines the
//! factor bytes: the full matrix contents (the `f64` bit patterns, hashed
//! in place), the shape, the block bound `nb`, the optimization toggles,
//! and the cluster partition geometry (`m0`, `m_l`, `m_u`, block-wrap
//! grid). It
//! deliberately **excludes** the run directory — unlike the checkpoint
//! manifest's [`crate::run_fingerprint`], which includes `plan.root` so a
//! resume can't restore another run's files, the cache exists precisely
//! to share factors *across* runs. Determinism makes that sound: a
//! pipeline run is a pure function of (matrix, config, geometry), so two
//! runs with equal keys would have produced bit-identical factor files.
//!
//! # Invalidation
//!
//! Entries reference DFS files; they do not own them. Every lookup
//! re-validates that each referenced file still exists
//! ([`FactorRef::paths`]) and drops the entry — a miss, counted as an
//! invalidation — the moment any factor file was deleted. A new entry
//! evicts any other entry primed in the same run directory: that run
//! overwrote the other entry's files, so existence alone would vouch for
//! the wrong factors.
//!
//! # Accounting
//!
//! Cache hits assemble factors through *uncounted* DFS reads
//! ([`mrinv_mapreduce::Dfs::read_uncounted`]): a hit served concurrently
//! with an in-flight pipeline run must not perturb that run's delta-based
//! [`crate::RunReport`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use mrinv_mapreduce::dfs::normalize_path;
use mrinv_mapreduce::{Cluster, Dfs, Fingerprint, MrError};
use mrinv_matrix::{Matrix, Permutation};
use parking_lot::Mutex;

use crate::config::InversionConfig;
use crate::error::{CoreError, Result};
use crate::factors::FactorRef;
use crate::partition::PartitionPlan;
use crate::source::BlockIo;

/// Cache key for a (matrix, config, cluster-geometry) triple.
///
/// Reuses the manifest [`Fingerprint`] machinery but replaces the
/// run-directory component with a digest of the full matrix contents: the
/// key must be identical across run directories and processes, and must
/// change when any matrix entry, `nb`, optimization toggle, or
/// partition-geometry parameter changes.
pub fn cache_key(a: &Matrix, cfg: &InversionConfig, cluster: &Cluster) -> u64 {
    // The plan root does not affect geometry; an empty root keeps the key
    // workdir-independent.
    let plan = PartitionPlan::new(a.rows(), cluster, cfg, "");
    Fingerprint::new()
        .push_u64(matrix_digest(a.as_slice()))
        .push_u64(a.rows() as u64)
        .push_u64(a.cols() as u64)
        .push_u64(plan.n as u64)
        .push_u64(plan.nb as u64)
        .push_u64(plan.m0 as u64)
        .push_u64(plan.m_l as u64)
        .push_u64(plan.m_u as u64)
        .push_u64(plan.grid.0 as u64)
        .push_u64(plan.grid.1 as u64)
        .push_u64(cfg.opts.separate_intermediate_files as u64)
        .push_u64(cfg.opts.block_wrap as u64)
        .push_u64(cfg.opts.transpose_u as u64)
        .finish()
}

/// The xxHash64 primes, used as the digest's odd multipliers.
const PRIME1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One digest step. It is a bijection of the state for a fixed word and
/// of the word for a fixed state, so changing any single word always
/// changes the lane it lands in; the rotation carries high bits (the
/// sign) down into the bits later multiplies spread.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    state
        .wrapping_add(word.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

/// Digest of the entries' `f64` bit patterns, read in place one word at a
/// time. Word `i` feeds lane `i % 4`; the four lanes are independent
/// dependency chains, so the loop runs at memory speed instead of at the
/// latency of one multiply per word.
fn matrix_digest(vals: &[f64]) -> u64 {
    let mut lanes = [PRIME1, PRIME2, !PRIME1, !PRIME2];
    let mut quads = vals.chunks_exact(4);
    for q in &mut quads {
        for (lane, v) in lanes.iter_mut().zip(q) {
            *lane = mix(*lane, v.to_bits());
        }
    }
    for (lane, v) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = mix(*lane, v.to_bits());
    }
    lanes
        .iter()
        .fold(vals.len() as u64, |acc, &lane| mix(acc, lane))
}

/// Factors assembled into dense matrices, memoized per cache entry so a
/// million `solve(b)` calls pay the file-forest assembly once.
#[derive(Debug, Clone)]
pub struct AssembledFactors {
    /// Unit lower-triangular factor.
    pub l: Matrix,
    /// Upper-triangular factor.
    pub u: Matrix,
    /// Pivot permutation with `P·A = L·U`.
    pub perm: Permutation,
}

/// One cached factorization.
#[derive(Debug)]
struct Entry {
    nb: usize,
    factors: FactorRef,
    inverse: Option<Matrix>,
    assembled: Option<Arc<AssembledFactors>>,
    workdir: String,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the pipeline.
    pub misses: u64,
    /// Entries dropped because a referenced DFS file disappeared, or
    /// because a later run reused their run directory.
    pub invalidations: u64,
}

/// A validated view of a cache entry, handed to the request layer.
#[derive(Debug)]
pub(crate) struct CacheEntryView {
    pub(crate) nb: usize,
    /// The inverse, only for lookups that asked for it.
    pub(crate) inverse: Option<Matrix>,
    pub(crate) workdir: String,
}

/// Keyed, thread-safe LU-factor cache (see the module docs).
#[derive(Debug, Default)]
pub struct FactorCache {
    entries: Mutex<BTreeMap<u64, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// DFS access that stays invisible to byte accounting (cache hits must
/// not perturb concurrent runs' delta-based reports).
struct UncountedIo<'a> {
    dfs: &'a Dfs,
}

impl BlockIo for UncountedIo<'_> {
    fn read_bytes(&mut self, path: &str) -> std::result::Result<Bytes, MrError> {
        self.dfs.read_uncounted(path)
    }
    fn write_bytes(&mut self, path: &str, data: Bytes) {
        self.dfs.write_uncounted(path, data);
    }
}

impl FactorCache {
    /// An empty cache.
    pub fn new() -> Self {
        FactorCache::default()
    }

    /// Current counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.lock().len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Validated lookup. `need_inverse` is set for invert requests: an
    /// entry primed by an `lu`/`solve` run holds factors but no inverse,
    /// and serving an invert from it would require master-side triangular
    /// inversion — a different numerical path than the pipeline, so it
    /// counts as a miss and the full pipeline runs (and upgrades the
    /// entry).
    pub(crate) fn lookup(&self, key: u64, need_inverse: bool, dfs: &Dfs) -> Option<CacheEntryView> {
        self.find(key, need_inverse, dfs, true)
    }

    /// Like [`FactorCache::lookup`] but a miss is *not* counted: the
    /// service's handler threads probe the cache before queueing a cold
    /// request for the executor, whose own full lookup counts the verdict.
    pub(crate) fn peek(&self, key: u64, need_inverse: bool, dfs: &Dfs) -> Option<CacheEntryView> {
        self.find(key, need_inverse, dfs, false)
    }

    fn find(
        &self,
        key: u64,
        need_inverse: bool,
        dfs: &Dfs,
        count_miss: bool,
    ) -> Option<CacheEntryView> {
        let mut entries = self.entries.lock();
        let usable = match entries.get(&key) {
            None => false,
            Some(e) => {
                if e.factors.paths().iter().any(|p| !dfs.exists(p)) {
                    // A factor file is gone: the entry is stale, drop it.
                    entries.remove(&key);
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    false
                } else {
                    !need_inverse || e.inverse.is_some()
                }
            }
        };
        if !usable {
            if count_miss {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        let e = entries.get(&key).expect("validated above");
        Some(CacheEntryView {
            nb: e.nb,
            inverse: if need_inverse {
                e.inverse.clone()
            } else {
                None
            },
            workdir: e.workdir.clone(),
        })
    }

    /// Assembled `L`/`U`/`P` for a cached entry, memoized. Assembly runs
    /// outside the entry lock (uncounted reads), so concurrent first hits
    /// may assemble twice; the first stored result wins. A read that fails
    /// because the entry moved to a newer run mid-assembly (the service
    /// prunes the files an upgraded entry stopped referencing) retries
    /// against the new run's files.
    pub(crate) fn assembled(&self, key: u64, dfs: &Dfs) -> Result<Arc<AssembledFactors>> {
        loop {
            let (factors, workdir) = {
                let entries = self.entries.lock();
                let e = entries.get(&key).ok_or_else(|| {
                    CoreError::Invariant("factor cache entry vanished mid-request".to_string())
                })?;
                if let Some(a) = &e.assembled {
                    return Ok(a.clone());
                }
                (e.factors.clone(), e.workdir.clone())
            };
            let mut io = UncountedIo { dfs };
            let built = factors.assemble_l(&mut io).and_then(|l| {
                Ok(AssembledFactors {
                    l,
                    u: factors.assemble_u(&mut io)?,
                    perm: factors.perm(),
                })
            });
            let mut entries = self.entries.lock();
            let assembled = match built {
                Ok(a) => Arc::new(a),
                Err(err) => {
                    if entries.get(&key).is_some_and(|e| e.workdir != workdir) {
                        continue;
                    }
                    return Err(err);
                }
            };
            if let Some(e) = entries.get_mut(&key) {
                match &e.assembled {
                    Some(existing) => return Ok(existing.clone()),
                    None => e.assembled = Some(assembled.clone()),
                }
            }
            return Ok(assembled);
        }
    }

    /// The DFS files the entry for `key` references (empty when there is
    /// no entry).
    pub(crate) fn factor_paths(&self, key: u64) -> Vec<String> {
        self.entries
            .lock()
            .get(&key)
            .map(|e| e.factors.paths())
            .unwrap_or_default()
    }

    /// Deletes what the cold run that primed `key` left behind and the
    /// entry does not reference: every file under the entry's run
    /// directory outside its factor forest, plus those of `replaced` (the
    /// paths the entry named before that run upgraded it) that it no
    /// longer names. Returns how many files were deleted.
    pub(crate) fn prune_run(&self, key: u64, replaced: &[String], dfs: &Dfs) -> usize {
        let (workdir, keep) = {
            let entries = self.entries.lock();
            let Some(e) = entries.get(&key) else {
                return 0;
            };
            let keep: BTreeSet<String> = e
                .factors
                .paths()
                .iter()
                .map(|p| normalize_path(p))
                .collect();
            (e.workdir.clone(), keep)
        };
        let replaced = replaced.iter().map(|p| normalize_path(p));
        dfs.list(&workdir)
            .into_iter()
            .chain(replaced)
            .filter(|p| !keep.contains(p) && dfs.delete(p))
            .count()
    }

    /// Primes (or upgrades) the entry for `key` after a cold run. An
    /// existing entry keeps whatever the new run did not produce: an
    /// invert run adds the inverse to an entry primed by `lu`, and vice
    /// versa. Any *other* entry primed in `workdir` is evicted: this run
    /// overwrote its files.
    pub(crate) fn insert(
        &self,
        key: u64,
        nb: usize,
        factors: FactorRef,
        inverse: Option<Matrix>,
        assembled: Option<Arc<AssembledFactors>>,
        workdir: String,
    ) {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|&k, e| k == key || e.workdir != workdir);
        let evicted = before - entries.len();
        if evicted > 0 {
            self.invalidations
                .fetch_add(evicted as u64, Ordering::Relaxed);
        }
        match entries.get_mut(&key) {
            Some(e) => {
                if inverse.is_some() {
                    e.inverse = inverse;
                }
                if assembled.is_some() {
                    e.assembled = assembled;
                }
                e.factors = factors;
                e.workdir = workdir;
            }
            None => {
                entries.insert(
                    key,
                    Entry {
                        nb,
                        factors,
                        inverse,
                        assembled,
                        workdir,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::io::encode_binary;
    use mrinv_matrix::random::{random_unit_lower, random_upper};

    fn leaf_entry(dfs: &Dfs, n: usize, seed: u64) -> FactorRef {
        let l = random_unit_lower(n, seed);
        let u = random_upper(n, seed + 1);
        dfs.write(&format!("cache-test/{seed}/l"), encode_binary(&l));
        dfs.write(&format!("cache-test/{seed}/u"), encode_binary(&u));
        FactorRef::Leaf {
            n,
            l_path: format!("cache-test/{seed}/l"),
            u_path: format!("cache-test/{seed}/u"),
            perm: Permutation::identity(n),
            transposed_u: false,
        }
    }

    #[test]
    fn lookup_hits_validates_and_invalidates() {
        let dfs = Dfs::default();
        let cache = FactorCache::new();
        let f = leaf_entry(&dfs, 6, 1);
        cache.insert(7, 2, f.clone(), None, None, "run-a".to_string());

        assert!(cache.lookup(8, false, &dfs).is_none(), "unknown key");
        let view = cache.lookup(7, false, &dfs).expect("hit");
        assert_eq!(view.nb, 2);
        assert_eq!(view.workdir, "run-a");
        assert!(view.inverse.is_none());
        // Factors but no inverse: an invert request misses.
        assert!(cache.lookup(7, true, &dfs).is_none());

        // Deleting any factor file invalidates the entry on next lookup.
        assert!(dfs.delete("cache-test/1/u"));
        assert!(cache.lookup(7, false, &dfs).is_none());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn assembly_is_memoized_and_uncounted() {
        let dfs = Dfs::default();
        let cache = FactorCache::new();
        let f = leaf_entry(&dfs, 5, 9);
        cache.insert(1, 5, f.clone(), None, None, "w".to_string());
        let before = dfs.counters();
        let a1 = cache.assembled(1, &dfs).unwrap();
        let a2 = cache.assembled(1, &dfs).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "memoized");
        assert_eq!(dfs.counters(), before, "assembly reads are uncounted");
        assert_eq!(a1.perm, f.perm());
        assert!(cache.assembled(2, &dfs).is_err(), "unknown key");
    }

    #[test]
    fn insert_upgrades_in_place() {
        let dfs = Dfs::default();
        let cache = FactorCache::new();
        let f = leaf_entry(&dfs, 4, 20);
        cache.insert(3, 4, f.clone(), None, None, "w1".to_string());
        let inv = Matrix::identity(4);
        cache.insert(3, 4, f, Some(inv), None, "w2".to_string());
        let view = cache.lookup(3, true, &dfs).expect("inverse now present");
        assert!(view.inverse.is_some());
        assert_eq!(view.workdir, "w2");
        assert_eq!(cache.stats().entries, 1);
    }
}
