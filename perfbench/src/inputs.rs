//! Seeded input generation. Every matrix and right-hand side a run uses is
//! a pure function of (`--seed`, stream name, index), so the same seed
//! gives byte-identical inputs and the program only ever sees the result.

use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::Matrix;

/// Derives an independent generator seed for item `index` of `stream`.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    // FNV-1a over the stream name, then a splitmix64 finalizer.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Diagonally dominant (well-conditioned) `n × n` input matrix.
pub fn matrix(n: usize, seed: u64, stream: &str, index: u64) -> Matrix {
    random_well_conditioned(n, derive(seed, stream, index))
}

/// Right-hand side of length `n`, entries in `[-1, 1)`.
pub fn rhs(n: usize, seed: u64, stream: &str, index: u64) -> Vec<f64> {
    random_matrix(n, 1, derive(seed, stream, index)).into_vec()
}
