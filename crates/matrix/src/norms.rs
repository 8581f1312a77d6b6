//! Matrix and vector norms, plus the paper's accuracy metric.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use crate::kernel::{self, notrans};

impl Matrix {
    /// Maximum absolute element (`max_{ij} |a_ij|`).
    pub fn max_norm(&self) -> f64 {
        self.as_slice().iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm (`sqrt(sum a_ij^2)`).
    pub fn frobenius_norm(&self) -> f64 {
        self.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        self.row_iter()
            .map(|row| row.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// One norm (maximum absolute column sum).
    pub fn one_norm(&self) -> f64 {
        let mut sums = vec![0.0_f64; self.cols()];
        for row in self.row_iter() {
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v.abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }
}

/// Euclidean norm of a vector.
pub fn vec_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The paper's Section 7.2 accuracy metric: the maximum absolute element of
/// `I_n - M·M_inv`. The paper verifies this is below `1e-5` for its suite.
///
/// One pass over the product computes `δij − (M·M_inv)ij` element by
/// element in row-major order and keeps the running maximum, so the result
/// equals `(&Matrix::identity(n) - &prod).max_norm()` exactly without
/// allocating either n×n matrix.
pub fn inversion_residual(m: &Matrix, m_inv: &Matrix) -> Result<f64> {
    let n = m.order()?;
    if m_inv.shape() != (n, n) {
        return Err(MatrixError::DimensionMismatch {
            op: "inversion_residual",
            lhs: m.shape(),
            rhs: m_inv.shape(),
        });
    }
    let prod = kernel::mul(notrans(m), notrans(m_inv))?;
    Ok(prod.row_iter().enumerate().fold(0.0_f64, |acc, (i, row)| {
        row.iter().enumerate().fold(acc, |acc, (j, &p)| {
            let delta = if i == j { 1.0 } else { 0.0 };
            acc.max((delta - p).abs())
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_decompose;
    use crate::random::random_well_conditioned;
    use crate::triangular::{invert_lower, invert_upper};

    #[test]
    fn norms_on_known_matrix() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]).unwrap();
        assert_eq!(m.max_norm(), 4.0);
        assert_eq!(m.inf_norm(), 7.0);
        assert_eq!(m.one_norm(), 6.0);
        assert!((m.frobenius_norm() - (30.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn norms_on_empty_and_zero() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(z.max_norm(), 0.0);
        assert_eq!(z.frobenius_norm(), 0.0);
        let e = Matrix::zeros(0, 0);
        assert_eq!(e.inf_norm(), 0.0);
        assert_eq!(e.one_norm(), 0.0);
    }

    #[test]
    fn vec_norm_matches_manual() {
        assert_eq!(vec_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(vec_norm(&[]), 0.0);
    }

    #[test]
    fn residual_of_true_inverse_is_tiny() {
        let a = random_well_conditioned(32, 17);
        let f = lu_decompose(&a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        // A^-1 = U^-1 L^-1 P (Section 4.3).
        let a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
        let res = inversion_residual(&a, &a_inv).unwrap();
        assert!(res < crate::PAPER_ACCURACY, "residual {res} too large");
    }

    #[test]
    fn residual_detects_a_wrong_inverse() {
        let a = random_well_conditioned(8, 3);
        let wrong = Matrix::identity(8);
        let res = inversion_residual(&a, &wrong).unwrap();
        assert!(res > 1.0);
    }

    #[test]
    fn residual_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(inversion_residual(&a, &a).is_err());
        let b = Matrix::zeros(3, 2);
        assert!(inversion_residual(&Matrix::identity(3), &b).is_err());
    }

    /// The formula the fused pass replaces.
    fn materialised_residual(m: &Matrix, m_inv: &Matrix) -> Result<f64> {
        let n = m.order()?;
        let prod = kernel::mul(notrans(m), notrans(m_inv))?;
        Ok((&Matrix::identity(n) - &prod).max_norm())
    }

    #[test]
    fn fused_residual_equals_the_materialised_formula() {
        for (n, seed) in [(1, 1), (2, 2), (7, 3), (33, 4), (96, 5)] {
            let a = random_well_conditioned(n, seed);
            let f = lu_decompose(&a).unwrap();
            let l_inv = invert_lower(&f.unit_lower()).unwrap();
            let u_inv = invert_upper(&f.upper()).unwrap();
            let a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
            let wrong = crate::random::random_matrix(n, n, seed + 100);
            for inv in [&a_inv, &wrong, &Matrix::identity(n), &Matrix::zeros(n, n)] {
                let fused = inversion_residual(&a, inv).unwrap();
                let old = materialised_residual(&a, inv).unwrap();
                assert_eq!(fused.to_bits(), old.to_bits(), "n={n}");
            }
        }
        let rect = Matrix::zeros(2, 3);
        assert!(inversion_residual(&rect, &rect).is_err());
        assert!(materialised_residual(&rect, &rect).is_err());
    }
}
