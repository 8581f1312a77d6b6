//! Property-based tests on the linear-algebra substrate.

use mrinv_matrix::block::{even_ranges, BlockRange};
use mrinv_matrix::io::{decode_binary, decode_text, encode_binary, encode_text};
use mrinv_matrix::kernel::{
    gemm_with, trsm_with, Blocked, Diag, GemmBackend, Naive, Op, Packed, Side, Strided, Uplo,
};
use mrinv_matrix::lu::lu_decompose;
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::triangular::{invert_lower, invert_upper};
use mrinv_matrix::{Matrix, Permutation};
use proptest::prelude::*;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| random_matrix(r, c, seed))
}

fn arb_perm(max_n: usize) -> impl Strategy<Value = Permutation> {
    (1..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s: Vec<usize> = (0..n).collect();
        s.shuffle(&mut rng);
        Permutation::from_vec(s)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in arb_matrix(24)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn binary_codec_round_trips(m in arb_matrix(24)) {
        prop_assert_eq!(decode_binary(&encode_binary(&m)).unwrap(), m);
    }

    #[test]
    fn text_codec_round_trips(m in arb_matrix(12)) {
        prop_assert_eq!(decode_text(&encode_text(&m)).unwrap(), m);
    }

    #[test]
    fn text_codec_round_trips_every_bit_pattern(
        bits in prop::collection::vec(any::<u64>(), 1..48)
    ) {
        // Raw bit patterns, with a quarter forced subnormal and an eighth
        // forced to a signed zero or infinity. Text spells every NaN the
        // same way, so NaNs are canonicalised before the comparison.
        const SIGN: u64 = 1 << 63;
        const EXP: u64 = 0x7ff0_0000_0000_0000;
        let vals: Vec<f64> = bits
            .iter()
            .map(|&b| match b % 8 {
                0 | 1 => f64::from_bits(b & !EXP),
                2 => f64::from_bits((b & SIGN) | if b & 8 == 0 { 0 } else { EXP }),
                _ => f64::from_bits(b),
            })
            .map(|v| if v.is_nan() { f64::NAN } else { v })
            .collect();
        let m = Matrix::from_vec(1, vals.len(), vals).unwrap();
        let back = decode_text(&encode_text(&m)).unwrap();
        let want: Vec<u64> = m.as_slice().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = back.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn gemm_backends_agree_differentially(
        (m, k, n, s1, s2, s3, ta, tb, alpha, beta) in (
            1usize..48, 1usize..48, 1usize..48,
            any::<u64>(), any::<u64>(), any::<u64>(),
            any::<bool>(), any::<bool>(),
            -2.0f64..2.0, -2.0f64..2.0,
        )
    ) {
        // Storage shape depends on the requested op; logical product is
        // always (m x k) · (k x n).
        let a = random_matrix(if ta { k } else { m }, if ta { m } else { k }, s1);
        let b = random_matrix(if tb { n } else { k }, if tb { k } else { n }, s2);
        let c0 = random_matrix(m, n, s3);
        let op = |t: bool| if t { Op::Trans } else { Op::NoTrans };

        let mut reference = c0.clone();
        gemm_with(&Naive, alpha, op(ta).of(&a), op(tb).of(&b), beta, &mut reference).unwrap();

        // Forward-error bound: each element is a length-k dot (error
        // ~ k·eps per unit of summed magnitude) plus the scaled original.
        // Entries are O(1), so the summed magnitude is O(|alpha|·k + |beta|).
        let tol = 32.0 * f64::EPSILON * (k as f64 + 2.0)
            * (alpha.abs() * k as f64 + beta.abs() + 1.0);

        let backends: [&dyn GemmBackend; 5] = [
            &Strided,
            &Blocked { tile: 5 },
            &Blocked { tile: 64 },
            &Packed { parallel: false },
            &Packed { parallel: true },
        ];
        for backend in backends {
            let mut c = c0.clone();
            gemm_with(backend, alpha, op(ta).of(&a), op(tb).of(&b), beta, &mut c).unwrap();
            for (got, want) in c.as_slice().iter().zip(reference.as_slice()) {
                prop_assert!(
                    (got - want).abs() <= tol,
                    "{} deviates from naive: {got} vs {want} (tol {tol}, m={m} k={k} n={n} \
                     ta={ta} tb={tb} alpha={alpha} beta={beta})",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn trsm_backends_agree_differentially(
        (n, w, seed, left, lower, unit, alpha) in (
            1usize..60, 1usize..24, any::<u64>(), any::<bool>(), any::<bool>(),
            any::<bool>(), -2.0f64..2.0,
        )
    ) {
        // Diagonally dominant triangle keeps the solve well conditioned so
        // the blocked and unblocked paths stay within a tight bound.
        let mut t = random_matrix(n, n, seed);
        for i in 0..n {
            for j in 0..n {
                let keep = if lower { j <= i } else { j >= i };
                if !keep {
                    t[(i, j)] = 0.0;
                }
            }
            t[(i, i)] = 3.0 + t[(i, i)].abs();
        }
        let b = if left {
            random_matrix(n, w, seed ^ 1)
        } else {
            random_matrix(w, n, seed ^ 1)
        };
        let side = if left { Side::Left } else { Side::Right };
        let uplo = if lower { Uplo::Lower } else { Uplo::Upper };
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };

        let mut reference = b.clone();
        trsm_with(&Naive, side, uplo, diag, alpha, &t, &mut reference).unwrap();
        let mut x = b.clone();
        trsm_with(&Packed { parallel: false }, side, uplo, diag, alpha, &t, &mut x).unwrap();

        let tol = 1e-11 * (n as f64) * (alpha.abs() + 1.0);
        prop_assert!(
            x.approx_eq(&reference, tol),
            "blocked trsm deviates: n={n} w={w} left={left} lower={lower} unit={unit}"
        );
    }

    #[test]
    fn matmul_is_associative(
        (n, s1, s2, s3) in (1usize..12, any::<u64>(), any::<u64>(), any::<u64>())
    ) {
        let a = random_matrix(n, n, s1);
        let b = random_matrix(n, n, s2);
        let c = random_matrix(n, n, s3);
        let ab_c = &(&a * &b) * &c;
        let a_bc = &a * &(&b * &c);
        prop_assert!(ab_c.approx_eq(&a_bc, 1e-8));
    }

    #[test]
    fn pa_equals_lu((n, seed) in (1usize..40, any::<u64>())) {
        let a = random_well_conditioned(n, seed);
        let f = lu_decompose(&a).unwrap();
        let pa = f.perm.apply_rows(&a);
        prop_assert!(f.reconstruct().approx_eq(&pa, 1e-7 * n as f64));
    }

    #[test]
    fn full_inverse_via_lu_has_small_residual((n, seed) in (1usize..32, any::<u64>())) {
        let a = random_well_conditioned(n, seed);
        let f = lu_decompose(&a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        let a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
        prop_assert!(inversion_residual(&a, &a_inv).unwrap() < 1e-6);
    }

    #[test]
    fn permutation_inverse_composes_to_identity(p in arb_perm(40)) {
        prop_assert!(p.compose(&p.inverse()).is_identity());
        prop_assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn permutation_array_matches_dense((p, seed) in (arb_perm(16), any::<u64>())) {
        let a = random_matrix(p.len(), p.len(), seed);
        prop_assert_eq!(p.apply_rows(&a), &p.to_matrix() * &a);
        prop_assert_eq!(p.apply_cols(&a), &a * &p.to_matrix());
    }

    #[test]
    fn quadrant_split_round_trips((n, split_frac, seed) in (2usize..24, 0.0f64..1.0, any::<u64>())) {
        let a = random_matrix(n, n, seed);
        let split = ((n as f64 * split_frac) as usize).min(n);
        let q = a.split_quadrants(split).unwrap();
        prop_assert_eq!(Matrix::from_quadrants(&q).unwrap(), a);
    }

    #[test]
    fn block_then_set_block_round_trips(
        (n, r0, r1, c0, c1, seed) in
            (4usize..20, 0usize..20, 0usize..20, 0usize..20, 0usize..20, any::<u64>())
    ) {
        let a = random_matrix(n, n, seed);
        let (r0, r1) = (r0.min(n), r1.min(n));
        let (c0, c1) = (c0.min(n), c1.min(n));
        prop_assume!(r0 <= r1 && c0 <= c1);
        let b = a.block(BlockRange::new((r0, r1), (c0, c1))).unwrap();
        let mut copy = a.clone();
        copy.set_block(r0, c0, &b).unwrap();
        prop_assert_eq!(copy, a);
    }

    #[test]
    fn even_ranges_partition_exactly((n, parts) in (0usize..500, 1usize..40)) {
        let ranges = even_ranges(n, parts);
        prop_assert_eq!(ranges.len(), parts);
        let mut expect_start = 0;
        for &(a, b) in &ranges {
            prop_assert_eq!(a, expect_start);
            prop_assert!(b >= a);
            // Sizes differ by at most one.
            prop_assert!(b - a <= n / parts + 1);
            expect_start = b;
        }
        prop_assert_eq!(expect_start, n);
    }

    #[test]
    fn vstack_of_stripes_rebuilds((n, cut, seed) in (2usize..20, 1usize..19, any::<u64>())) {
        let a = random_matrix(n, n, seed);
        let cut = cut.min(n - 1);
        let parts = [a.row_stripe(0, cut).unwrap(), a.row_stripe(cut, n).unwrap()];
        prop_assert_eq!(Matrix::vstack(&parts).unwrap(), a);
    }
}
