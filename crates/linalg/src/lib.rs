//! The one row vector left beside the columnar store: what
//! `Pipeline::transform_query` hands back and `LinearModel::margin_ref`
//! scores, so that a prediction can be checked against a second
//! implementation of its margin.
//!
//! Every shipped path moves rows as `ColumnSlab` runs; weights, moments and
//! gradients are plain `Vec<f64>`. The hashed and one-hot rows stay sparse
//! here too (paper §3.2.1).

#![warn(missing_docs)]

/// A feature vector in either dense or sparse layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Vector {
    /// Dense layout: every coordinate stored.
    Dense(Vec<f64>),
    /// Sparse layout: strictly increasing `indices` below `dim`, each with
    /// its value.
    Sparse {
        /// The nominal dimension.
        dim: usize,
        /// The stored indices.
        indices: Vec<u32>,
        /// The values, parallel to `indices`.
        values: Vec<f64>,
    },
}

impl Vector {
    /// Dot product with weights that may be *narrower* than this vector:
    /// uncovered coordinates contribute `0.0`, exactly as if the weights
    /// were zero-padded to this vector's dimension. Dense coordinates are
    /// summed in ascending order, sparse entries in stored order.
    pub fn dot_padded(&self, weights: &[f64]) -> f64 {
        match self {
            Vector::Dense(v) => {
                let n = v.len().min(weights.len());
                v[..n].iter().zip(&weights[..n]).map(|(a, b)| a * b).sum()
            }
            Vector::Sparse {
                indices, values, ..
            } => indices
                .iter()
                .zip(values)
                .take_while(|(&i, _)| (i as usize) < weights.len())
                .map(|(&i, &v)| v * weights[i as usize])
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_padded_treats_missing_weights_as_zero() {
        let w = [1.0, 2.0];
        let d = Vector::Dense(vec![3.0, 4.0, 5.0]);
        assert_eq!(d.dot_padded(&w), 3.0 + 8.0);
        let s = Vector::Sparse {
            dim: 6,
            indices: vec![0, 5],
            values: vec![2.0, 7.0],
        };
        assert_eq!(s.dot_padded(&w), 2.0);
    }

    #[test]
    fn dot_padded_agrees_across_layouts() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let d = Vector::Dense(vec![0.0, 1.0, 0.0, 2.0]);
        let s = Vector::Sparse {
            dim: 4,
            indices: vec![1, 3],
            values: vec![1.0, 2.0],
        };
        assert_eq!(d.dot_padded(&w), s.dot_padded(&w));
        assert_eq!(d.dot_padded(&w), 2.0 + 8.0);
        // A dense row narrower than the weights uses its own width.
        assert_eq!(
            Vector::Dense(vec![5.0, 5.0]).dot_padded(&w[..3]),
            5.0 + 10.0
        );
    }
}
