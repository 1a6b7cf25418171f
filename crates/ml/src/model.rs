//! Linear models over dense weights.

use serde::{Deserialize, Serialize};

use cdp_linalg::ops::sigmoid;
use cdp_linalg::{DenseVector, Vector};
use cdp_storage::RowView;

use crate::loss::LossKind;

/// What the model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Task {
    /// Binary classification with labels in {−1, +1}.
    Classification,
    /// Real-valued regression.
    Regression,
}

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

    /// The task implied by the loss.
    pub fn task(&self) -> Task {
        if self.loss.is_classification() {
            Task::Classification
        } else {
            Task::Regression
        }
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

    /// Raw margin `w·x`. Grows the weights when the row is wider than the
    /// model (the URL feature space grows over time), after which the padded
    /// dot product is the exact one.
    pub fn margin(&mut self, x: &Vector) -> f64 {
        if x.dim() > self.weights.dim() {
            self.weights.grow_to(x.dim());
        }
        x.dot_padded(&self.weights)
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
    /// the row is wider than the model, after which the padded dot product is
    /// bit-identical to [`LinearModel::margin`] on the reconstructed vector.
    pub fn margin_row(&mut self, x: RowView<'_>) -> f64 {
        if x.dim() > self.weights.dim() {
            self.weights.grow_to(x.dim());
        }
        x.dot_padded(&self.weights)
    }

    /// Task-appropriate prediction: the class label (±1) for classification,
    /// the raw margin for regression.
    pub fn predict(&mut self, x: &Vector) -> f64 {
        let z = self.margin(x);
        match self.task() {
            Task::Classification => {
                if z >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Task::Regression => z,
        }
    }

    /// For classifiers: `P(y = +1 | x)` via the logistic link. For
    /// regression models this is a monotone squash of the margin and should
    /// not be interpreted as a probability.
    pub fn predict_proba(&mut self, x: &Vector) -> f64 {
        sigmoid(self.margin(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_predicts_sign() {
        let mut m = LinearModel::with_weights(DenseVector::new(vec![1.0, -1.0]), LossKind::Hinge);
        assert_eq!(m.predict(&vec![2.0, 1.0].into()), 1.0);
        assert_eq!(m.predict(&vec![0.0, 1.0].into()), -1.0);
        assert_eq!(m.task(), Task::Classification);
    }

    #[test]
    fn regression_predicts_margin() {
        let mut m = LinearModel::with_weights(DenseVector::new(vec![0.5, 2.0]), LossKind::Squared);
        let x: Vector = vec![2.0, 3.0].into();
        assert_eq!(m.predict(&x), 7.0);
        assert_eq!(m.task(), Task::Regression);
    }

    #[test]
    fn margin_grows_weights_for_wider_rows() {
        let mut m = LinearModel::zeros(2, LossKind::Hinge);
        let wide: Vector = vec![1.0, 1.0, 1.0, 1.0].into();
        assert_eq!(m.margin(&wide), 0.0);
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

    #[test]
    fn proba_is_half_at_zero_margin() {
        let mut m = LinearModel::zeros(3, LossKind::Logistic);
        let x: Vector = vec![1.0, 2.0, 3.0].into();
        assert!((m.predict_proba(&x) - 0.5).abs() < 1e-12);
    }
}
