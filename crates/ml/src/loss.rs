//! Loss functions for linear models.
//!
//! For a linear model the per-example loss is a scalar function of the margin
//! `z = w·x` and the label `y`; the gradient w.r.t. the weights is
//! `dL/dz · x`, so a loss only needs to expose `value(z, y)` and
//! `dloss_dz(z, y)` and the trainer handles the rest with sparse-aware
//! kernels.

use serde::{Deserialize, Serialize};

/// Which loss a model trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// Hinge loss `max(0, 1 − y·z)` with labels in {−1, +1} — the SVM.
    Hinge,
    /// Logistic loss `ln(1 + exp(−y·z))` with labels in {−1, +1}.
    Logistic,
    /// Squared loss `(z − y)² / 2` — linear regression.
    Squared,
}

/// A differentiable per-example loss over the margin `z = w·x`.
pub trait Loss {
    /// Loss value at margin `z` for label `y`.
    fn value(&self, z: f64, y: f64) -> f64;

    /// Derivative of the loss w.r.t. `z`.
    fn dloss_dz(&self, z: f64, y: f64) -> f64;
}

impl Loss for LossKind {
    fn value(&self, z: f64, y: f64) -> f64 {
        match self {
            LossKind::Hinge => (1.0 - y * z).max(0.0),
            LossKind::Logistic => {
                // ln(1 + e^{-yz}) computed stably for large |yz|.
                let m = -y * z;
                if m > 30.0 {
                    m
                } else {
                    m.exp().ln_1p()
                }
            }
            LossKind::Squared => {
                let d = z - y;
                0.5 * d * d
            }
        }
    }

    fn dloss_dz(&self, z: f64, y: f64) -> f64 {
        match self {
            LossKind::Hinge => {
                if y * z < 1.0 {
                    -y
                } else {
                    0.0
                }
            }
            LossKind::Logistic => -y * sigmoid(-y * z),
            LossKind::Squared => z - y,
        }
    }
}

/// Numerically-stable sigmoid.
#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_symmetric_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0).is_finite());
    }

    fn numeric_grad(loss: LossKind, z: f64, y: f64) -> f64 {
        let h = 1e-6;
        (loss.value(z + h, y) - loss.value(z - h, y)) / (2.0 * h)
    }

    #[test]
    fn hinge_zero_beyond_margin() {
        assert_eq!(LossKind::Hinge.value(2.0, 1.0), 0.0);
        assert_eq!(LossKind::Hinge.dloss_dz(2.0, 1.0), 0.0);
        assert_eq!(LossKind::Hinge.value(0.0, 1.0), 1.0);
        assert_eq!(LossKind::Hinge.dloss_dz(0.0, 1.0), -1.0);
        assert_eq!(LossKind::Hinge.value(0.5, -1.0), 1.5);
        assert_eq!(LossKind::Hinge.dloss_dz(0.5, -1.0), 1.0);
    }

    #[test]
    fn logistic_gradient_matches_numeric() {
        for &(z, y) in &[(0.0, 1.0), (2.0, -1.0), (-3.0, 1.0), (0.5, -1.0)] {
            let analytic = LossKind::Logistic.dloss_dz(z, y);
            let numeric = numeric_grad(LossKind::Logistic, z, y);
            assert!(
                (analytic - numeric).abs() < 1e-5,
                "z={z} y={y}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn squared_gradient_matches_numeric() {
        for &(z, y) in &[(0.0, 1.0), (5.0, 2.0), (-1.0, 3.0)] {
            let analytic = LossKind::Squared.dloss_dz(z, y);
            let numeric = numeric_grad(LossKind::Squared, z, y);
            assert!((analytic - numeric).abs() < 1e-5);
        }
    }

    #[test]
    fn logistic_is_stable_at_extremes() {
        assert!(LossKind::Logistic.value(1000.0, -1.0).is_finite());
        assert!(LossKind::Logistic.value(-1000.0, 1.0).is_finite());
        assert!(LossKind::Logistic.dloss_dz(1000.0, -1.0).is_finite());
        // Near-zero loss when confidently correct.
        assert!(LossKind::Logistic.value(1000.0, 1.0) < 1e-10);
    }

    #[test]
    fn losses_are_nonnegative() {
        for loss in [LossKind::Hinge, LossKind::Logistic, LossKind::Squared] {
            for z in [-5.0, -0.5, 0.0, 0.5, 5.0] {
                for y in [-1.0, 1.0, 2.5] {
                    assert!(loss.value(z, y) >= 0.0, "{loss:?} at z={z}, y={y}");
                }
            }
        }
    }
}
