//! [`Vector`]: the closed sum of dense and sparse layouts.

use serde::{Deserialize, Serialize};

use crate::{DenseVector, LinalgError, SparseVector};

/// A feature vector in either dense or sparse layout.
///
/// The SGD trainer and the pipeline components are generic over the layout:
/// the Taxi pipeline emits dense rows, the URL pipeline emits hashed sparse
/// rows, and both flow through the same storage / sampling / training path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Vector {
    /// Dense layout (all coordinates stored).
    Dense(DenseVector),
    /// Sparse layout (non-zeros only).
    Sparse(SparseVector),
}

impl Vector {
    /// The nominal dimension.
    pub fn dim(&self) -> usize {
        match self {
            Vector::Dense(v) => v.dim(),
            Vector::Sparse(v) => v.dim(),
        }
    }

    /// Number of non-zero coordinates.
    pub fn nnz(&self) -> usize {
        match self {
            Vector::Dense(v) => v.dim() - v.count_zeros(),
            Vector::Sparse(v) => v.nnz(),
        }
    }

    /// Value at `index` (`0.0` beyond a sparse vector's stored entries).
    pub fn get(&self, index: usize) -> f64 {
        match self {
            Vector::Dense(v) => v.get(index).unwrap_or(0.0),
            Vector::Sparse(v) => v.get(index),
        }
    }

    /// Dot product with a dense weight vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the weights do not
    /// cover this vector.
    pub fn dot(&self, weights: &DenseVector) -> Result<f64, LinalgError> {
        match self {
            Vector::Dense(v) => {
                if v.dim() > weights.dim() {
                    return Err(LinalgError::DimensionMismatch {
                        left: v.dim(),
                        right: weights.dim(),
                    });
                }
                // Weights may be wider than the row if the feature space grew.
                let w = &weights.as_slice()[..v.dim()];
                Ok(v.as_slice().iter().zip(w).map(|(a, b)| a * b).sum())
            }
            Vector::Sparse(v) => v.dot_dense(weights),
        }
    }

    /// Dot product with a dense weight vector that may be *narrower* than
    /// this vector: uncovered coordinates contribute `0.0`, exactly as if
    /// the weights were zero-padded to this vector's dimension.
    ///
    /// Infallible by construction — the fused transform+gradient pass needs
    /// a margin for rows whose feature space already grew past the model,
    /// and grows the model only after the deterministic gradient reduce.
    pub fn dot_padded(&self, weights: &DenseVector) -> f64 {
        match self {
            Vector::Dense(v) => {
                let n = v.dim().min(weights.dim());
                v.as_slice()[..n]
                    .iter()
                    .zip(&weights.as_slice()[..n])
                    .map(|(a, b)| a * b)
                    .sum()
            }
            Vector::Sparse(v) => v.dot_dense_padded(weights),
        }
    }

    /// `weights += alpha * self`, growing `weights` with zero padding first
    /// when it does not cover this vector.
    pub fn axpy_into_growing(&self, alpha: f64, weights: &mut DenseVector) {
        match self {
            Vector::Dense(v) => {
                weights.grow_to(v.dim());
                let w = &mut weights.as_mut_slice()[..v.dim()];
                for (slot, x) in w.iter_mut().zip(v.as_slice()) {
                    *slot += alpha * x;
                }
            }
            Vector::Sparse(v) => v.axpy_into_growing(alpha, weights),
        }
    }

    /// `weights += alpha * self`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the weights do not
    /// cover this vector.
    pub fn axpy_into(&self, alpha: f64, weights: &mut DenseVector) -> Result<(), LinalgError> {
        match self {
            Vector::Dense(v) => {
                if v.dim() > weights.dim() {
                    return Err(LinalgError::DimensionMismatch {
                        left: v.dim(),
                        right: weights.dim(),
                    });
                }
                let w = &mut weights.as_mut_slice()[..v.dim()];
                for (slot, x) in w.iter_mut().zip(v.as_slice()) {
                    *slot += alpha * x;
                }
                Ok(())
            }
            Vector::Sparse(v) => v.axpy_into(alpha, weights),
        }
    }

    /// Iterates over the non-zero `(index, value)` pairs.
    pub fn iter_nonzero(&self) -> Box<dyn Iterator<Item = (usize, f64)> + '_> {
        match self {
            Vector::Dense(v) => Box::new(v.iter().filter(|(_, x)| *x != 0.0)),
            Vector::Sparse(v) => Box::new(v.iter()),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Vector::Dense(v) => v.dim() * std::mem::size_of::<f64>(),
            Vector::Sparse(v) => v.size_bytes(),
        }
    }

    /// Euclidean norm.
    pub fn norm_l2(&self) -> f64 {
        match self {
            Vector::Dense(v) => v.norm_l2(),
            Vector::Sparse(v) => v.norm_l2(),
        }
    }

    /// True when the layout is sparse.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Vector::Sparse(_))
    }

    /// Converts to a dense vector (copies for sparse layout).
    pub fn to_dense(&self) -> DenseVector {
        match self {
            Vector::Dense(v) => v.clone(),
            Vector::Sparse(v) => v.to_dense(),
        }
    }
}

impl From<DenseVector> for Vector {
    fn from(v: DenseVector) -> Self {
        Vector::Dense(v)
    }
}

impl From<SparseVector> for Vector {
    fn from(v: SparseVector) -> Self {
        Vector::Sparse(v)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector::Dense(DenseVector::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(dim: usize, pairs: &[(u32, f64)]) -> Vector {
        let (idx, val): (Vec<u32>, Vec<f64>) = pairs.iter().copied().unzip();
        Vector::Sparse(SparseVector::new(dim, idx, val).unwrap())
    }

    #[test]
    fn dot_agrees_across_layouts() {
        let w = DenseVector::new(vec![1.0, 2.0, 3.0, 4.0]);
        let d: Vector = vec![0.0, 1.0, 0.0, 2.0].into();
        let s = sparse(4, &[(1, 1.0), (3, 2.0)]);
        assert_eq!(d.dot(&w).unwrap(), s.dot(&w).unwrap());
        assert_eq!(d.dot(&w).unwrap(), 2.0 + 8.0);
    }

    #[test]
    fn axpy_agrees_across_layouts() {
        let mut wd = DenseVector::zeros(4);
        let mut ws = DenseVector::zeros(4);
        let d: Vector = vec![0.0, 1.0, 0.0, 2.0].into();
        let s = sparse(4, &[(1, 1.0), (3, 2.0)]);
        d.axpy_into(1.5, &mut wd).unwrap();
        s.axpy_into(1.5, &mut ws).unwrap();
        assert_eq!(wd, ws);
    }

    #[test]
    fn dense_row_narrower_than_weights_is_ok() {
        let w = DenseVector::new(vec![1.0, 2.0, 3.0]);
        let d: Vector = vec![5.0, 5.0].into();
        assert_eq!(d.dot(&w).unwrap(), 5.0 + 10.0);
    }

    #[test]
    fn dot_padded_matches_dot_when_weights_cover() {
        let w = DenseVector::new(vec![1.0, 2.0, 3.0, 4.0]);
        for v in [
            Vector::from(vec![0.5, 1.0, 0.0, 2.0]),
            sparse(4, &[(1, 1.0), (3, 2.0)]),
        ] {
            assert_eq!(
                v.dot_padded(&w).to_bits(),
                v.dot(&w).unwrap().to_bits(),
                "{v:?}"
            );
        }
    }

    #[test]
    fn dot_padded_treats_missing_weights_as_zero() {
        let w = DenseVector::new(vec![1.0, 2.0]);
        let d: Vector = vec![3.0, 4.0, 5.0].into();
        assert_eq!(d.dot_padded(&w), 3.0 + 8.0);
        let s = sparse(6, &[(0, 2.0), (5, 7.0)]);
        assert_eq!(s.dot_padded(&w), 2.0);
    }

    #[test]
    fn axpy_into_growing_pads_then_accumulates() {
        let mut w = DenseVector::new(vec![1.0]);
        let d: Vector = vec![1.0, 2.0, 3.0].into();
        d.axpy_into_growing(2.0, &mut w);
        assert_eq!(w.as_slice(), &[3.0, 4.0, 6.0]);
        let mut w = DenseVector::new(vec![1.0]);
        let s = sparse(5, &[(3, 2.0)]);
        s.axpy_into_growing(0.5, &mut w);
        assert_eq!(w.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
        // When weights already cover the vector, growing == plain axpy.
        let mut a = DenseVector::zeros(5);
        let mut b = DenseVector::zeros(5);
        s.axpy_into_growing(1.5, &mut a);
        s.axpy_into(1.5, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nnz_counts_dense_zeros() {
        let d: Vector = vec![0.0, 1.0, 0.0].into();
        assert_eq!(d.nnz(), 1);
        let s = sparse(10, &[(2, 3.0), (4, 0.5)]);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let d: Vector = vec![0.0, 7.0, 0.0, 8.0].into();
        let collected: Vec<(usize, f64)> = d.iter_nonzero().collect();
        assert_eq!(collected, vec![(1, 7.0), (3, 8.0)]);
    }

    #[test]
    fn size_bytes_dense_vs_sparse() {
        let d: Vector = vec![0.0; 100].into();
        let s = sparse(100, &[(5, 1.0)]);
        assert_eq!(d.size_bytes(), 800);
        assert_eq!(s.size_bytes(), 12);
    }
}
