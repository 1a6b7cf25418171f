//! Linear models over dense weights.

use serde::{Deserialize, Serialize};

use cdp_linalg::{DenseVector, Vector};
use cdp_storage::RowView;

use crate::loss::LossKind;

/// A linear model `f(x) = w·x` (any bias is a constant feature appended by
/// the pipeline, so the weights fully describe the model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    weights: DenseVector,
    loss: LossKind,
}

impl LinearModel {
    /// Creates a zero-initialized model of dimension `dim` for `loss`.
    pub fn zeros(dim: usize, loss: LossKind) -> Self {
        Self {
            weights: DenseVector::zeros(dim),
            loss,
        }
    }

    /// Creates a model with given weights.
    pub fn with_weights(weights: DenseVector, loss: LossKind) -> Self {
        Self { weights, loss }
    }

    /// The loss the model trains with.
    pub fn loss(&self) -> LossKind {
        self.loss
    }

    /// The weight vector.
    pub fn weights(&self) -> &DenseVector {
        &self.weights
    }

    /// Mutable weight vector (the SGD trainer's handle).
    pub fn weights_mut(&mut self) -> &mut DenseVector {
        &mut self.weights
    }

    /// Weight dimension.
    pub fn dim(&self) -> usize {
        self.weights.dim()
    }

    /// Grows the weight vector to cover `dim` features.
    pub fn grow_to(&mut self, dim: usize) {
        self.weights.grow_to(dim);
    }

    /// Margin without mutation. Total: a row *wider* than the model
    /// multiplies its uncovered coordinates by zero weights, exactly as if
    /// the model had already grown. Rows that fit — every row serving
    /// scores — keep the exact-width kernel.
    pub fn margin_ref(&self, x: &Vector) -> f64 {
        match x.dot(&self.weights) {
            Ok(z) => z,
            Err(_) => x.dot_padded(&self.weights),
        }
    }

    /// Raw margin `w·x` for a zero-copy columnar row. Grows the weights when
    /// the row is wider than the model (the URL feature space grows over
    /// time), after which the padded dot product is the exact one.
    pub fn margin_row(&mut self, x: RowView<'_>) -> f64 {
        if x.dim() > self.weights.dim() {
            self.weights.grow_to(x.dim());
        }
        x.dot_padded(&self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_storage::{FeatureChunk, LabeledPoint, Timestamp};

    #[test]
    fn margin_row_grows_weights_for_wider_rows() {
        let mut m = LinearModel::zeros(2, LossKind::Hinge);
        let wide = LabeledPoint::new(1.0, vec![1.0, 1.0, 1.0, 1.0].into());
        let chunk = FeatureChunk::new(Timestamp(0), Timestamp(0), vec![wide]);
        assert_eq!(m.margin_row(chunk.row(0)), 0.0);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn margin_ref_is_total_and_exact_when_the_row_fits() {
        let m = LinearModel::with_weights(DenseVector::new(vec![0.5, -2.0]), LossKind::Hinge);
        // Regression: a row wider than the model used to panic.
        let wide: Vector = vec![2.0, 1.0, 9.0].into();
        assert_eq!(m.margin_ref(&wide), 1.0 - 2.0);
        let fits: Vector = vec![0.1, 0.3].into();
        assert_eq!(
            m.margin_ref(&fits).to_bits(),
            fits.dot(m.weights()).unwrap().to_bits()
        );
    }
}
