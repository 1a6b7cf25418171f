//! Linear models over dense weights.

use serde::{Deserialize, Serialize};

use cdp_linalg::Vector;
use cdp_storage::RowView;

use crate::loss::LossKind;

/// A linear model `f(x) = w·x` (any bias is a constant feature appended by
/// the pipeline, so the weights fully describe the model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    weights: Vec<f64>,
    loss: LossKind,
}

/// Pads `v` with zeros up to `dim` coordinates; never shrinks it.
pub(crate) fn grow_to(v: &mut Vec<f64>, dim: usize) {
    if dim > v.len() {
        v.resize(dim, 0.0);
    }
}

impl LinearModel {
    /// Creates a zero-initialized model of dimension `dim` for `loss`.
    pub fn zeros(dim: usize, loss: LossKind) -> Self {
        Self {
            weights: vec![0.0; dim],
            loss,
        }
    }

    /// Creates a model with given weights.
    pub fn with_weights(weights: Vec<f64>, loss: LossKind) -> Self {
        Self { weights, loss }
    }

    /// The loss the model trains with.
    pub fn loss(&self) -> LossKind {
        self.loss
    }

    /// The weight vector.
    pub fn weights(&self) -> &Vec<f64> {
        &self.weights
    }

    /// Mutable weight vector (the SGD trainer's handle).
    pub fn weights_mut(&mut self) -> &mut Vec<f64> {
        &mut self.weights
    }

    /// Weight dimension.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Grows the weight vector to cover `dim` features.
    pub fn grow_to(&mut self, dim: usize) {
        grow_to(&mut self.weights, dim);
    }

    /// Margin without mutation, by the row vector's own kernel. Total: a row
    /// *wider* than the model multiplies its uncovered coordinates by zero
    /// weights, exactly as if the model had already grown.
    pub fn margin_ref(&self, x: &Vector) -> f64 {
        x.dot_padded(&self.weights)
    }

    /// Raw margin `w·x` for a zero-copy columnar row. Grows the weights when
    /// the row is wider than the model (the URL feature space grows over
    /// time), after which the padded dot product is the exact one.
    pub fn margin_row(&mut self, x: RowView<'_>) -> f64 {
        if x.dim() > self.weights.len() {
            grow_to(&mut self.weights, x.dim());
        }
        x.dot_padded(&self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cdp_storage::{ColumnSlab, CsrBuilder, FeatureChunk, Timestamp};

    #[test]
    fn margin_row_grows_weights_for_wider_rows() {
        let mut m = LinearModel::zeros(2, LossKind::Hinge);
        let wide = ColumnSlab::dense(vec![1.0], vec![vec![1.0]; 4]);
        let chunk = FeatureChunk::from_slab(Timestamp(0), Timestamp(0), Arc::new(wide));
        assert_eq!(m.margin_row(chunk.row(0)), 0.0);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn margin_ref_is_total() {
        let m = LinearModel::with_weights(vec![0.5, -2.0], LossKind::Hinge);
        // Regression: a row wider than the model used to panic.
        let wide = Vector::Dense(vec![2.0, 1.0, 9.0]);
        assert_eq!(m.margin_ref(&wide), 1.0 - 2.0);
    }

    #[test]
    fn margin_ref_is_the_slab_rows_margin_bit_for_bit() {
        // Rows of width 5 in both layouts — a negative zero, a subnormal,
        // products that round, a CSR row ending short of the width and an
        // empty one — against models narrower than, as wide as and wider
        // than the rows.
        let values = [
            [0.1, -0.0, 3.0, 5e-324, -7.25],
            [1.0 / 3.0, 2.0, 0.0, -1e300, 0.7],
        ];
        let cols = (0..5).map(|j| values.iter().map(|row| row[j]).collect());
        let dense = ColumnSlab::dense(vec![1.0, -1.0], cols.collect());
        let mut builder = CsrBuilder::reusing(None, 5, 3, 6);
        builder.push_row(1.0, &mut [(4, 0.3), (0, -1.5), (2, 1.0 / 7.0)]);
        builder.push_row(-1.0, &mut [(1, 2.5), (3, -0.0)]);
        builder.push_row(0.0, &mut []);
        let csr = builder.finish();
        for width in [2, 5, 8] {
            let weights = (0..width).map(|i| 0.9 - 0.37 * i as f64).collect();
            let m = LinearModel::with_weights(weights, LossKind::Hinge);
            for slab in [&dense, &csr] {
                for i in 0..slab.len() {
                    let row = slab.row(i);
                    let point = row.to_point();
                    assert_eq!(
                        m.margin_ref(&point.features).to_bits(),
                        row.dot_padded(m.weights()).to_bits(),
                        "row {i} of {slab:?} against {width} weights"
                    );
                }
            }
        }
    }
}
