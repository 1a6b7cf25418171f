//! Weight penalties added to the training objective.
//!
//! Experiment 2 of the paper sweeps the regularization parameter over
//! {1e-2, 1e-3, 1e-4} for each learning-rate adaptation technique; this type
//! is that knob.

/// A weight penalty.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Regularizer {
    /// No penalty.
    #[default]
    None,
    /// Ridge penalty `λ/2 · ‖w‖²` — gradient contribution `λ·w`.
    L2(f64),
    /// Lasso penalty `λ · ‖w‖₁` — (sub)gradient contribution `λ·sign(w)`.
    L1(f64),
}

impl Regularizer {
    /// The penalty value for weights `w`.
    pub fn penalty(&self, w: &[f64]) -> f64 {
        match self {
            Regularizer::None => 0.0,
            Regularizer::L2(lambda) => {
                let norm_l2 = w.iter().map(|v| v * v).sum::<f64>().sqrt();
                0.5 * lambda * norm_l2.powi(2)
            }
            Regularizer::L1(lambda) => lambda * w.iter().map(|v| v.abs()).sum::<f64>(),
        }
    }

    /// The regularization strength (`0.0` for [`Regularizer::None`]).
    pub fn lambda(&self) -> f64 {
        match self {
            Regularizer::None => 0.0,
            Regularizer::L2(l) | Regularizer::L1(l) => *l,
        }
    }
}

#[cfg(test)]
impl Regularizer {
    /// Adds the penalty's (sub)gradient to `grad` in place: the pass that
    /// shipped before `OptimizerState::sweep` took the penalty in, kept
    /// verbatim as the reference the differential tests compare the sweep with.
    ///
    /// Total for any pair of dimensions, the same way in every arm: the
    /// coordinates `w` and `grad` share take the penalty and the rest of
    /// `grad` is left alone (a weight that does not exist yet is zero, and
    /// so is its penalty gradient).
    pub(crate) fn reference_add_gradient(&self, w: &[f64], grad: &mut [f64]) {
        let shared = grad.iter_mut().zip(w);
        match self {
            Regularizer::None => {}
            Regularizer::L2(lambda) => {
                for (g, &wi) in shared {
                    *g += lambda * wi;
                }
            }
            Regularizer::L1(lambda) => {
                for (g, &wi) in shared {
                    *g += lambda * wi.signum() * f64::from(wi != 0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{OptimizerKind, OptimizerState, SweepTarget};

    /// `grad` plus the penalty's (sub)gradient at `w`, as the shipped sweep
    /// forms it: with γ = 0 and η = 1 the momentum buffer is the step's
    /// whole gradient.
    fn full_gradient(reg: Regularizer, w: &[f64], grad: &[f64]) -> Vec<f64> {
        let recorder = OptimizerKind::Momentum {
            eta: 1.0,
            gamma: 0.0,
        };
        let mut state = OptimizerState::new(recorder, grad.len());
        let mut grad = grad.to_vec();
        let target = SweepTarget::InPlace(&mut w.to_vec());
        state.sweep(target, &mut grad, None, reg);
        state.to_parts().2.clone()
    }

    #[test]
    fn l2_penalty_and_gradient() {
        let w = [3.0, 4.0];
        let reg = Regularizer::L2(0.1);
        assert!((reg.penalty(&w) - 0.5 * 0.1 * 25.0).abs() < 1e-12);
        let g = full_gradient(reg, &w, &[0.0, 0.0]);
        assert!((g[0] - 0.3).abs() < 1e-12);
        assert!((g[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn l1_penalty_and_subgradient() {
        let w = [-2.0, 0.0, 5.0];
        let reg = Regularizer::L1(0.5);
        assert!((reg.penalty(&w) - 0.5 * 7.0).abs() < 1e-12);
        // Zero weight gets zero subgradient.
        assert_eq!(full_gradient(reg, &w, &[0.0; 3]), [-0.5, 0.0, 0.5]);
    }

    #[test]
    fn the_reference_pass_penalizes_the_shared_prefix() {
        // What the differential cases with a gradient wider or narrower
        // than the model lean on. (Regression: the L2 arm once panicked
        // here while L1 zipped.)
        let w = [2.0, -4.0];
        for (reg, expect) in [
            (Regularizer::L2(0.5), [1.0, -2.0]),
            (Regularizer::L1(0.5), [0.5, -0.5]),
        ] {
            let mut wider = [0.0, 0.0, 7.0];
            reg.reference_add_gradient(&w, &mut wider);
            assert_eq!(wider, [expect[0], expect[1], 7.0]);
            let mut narrower = [0.0];
            reg.reference_add_gradient(&w, &mut narrower);
            assert_eq!(narrower, expect[..1]);
        }
    }

    #[test]
    fn none_is_identity() {
        let w = [1.0, 2.0];
        let reg = Regularizer::None;
        assert_eq!(reg.penalty(&w), 0.0);
        assert_eq!(full_gradient(reg, &w, &[0.7, -0.7]), [0.7, -0.7]);
        assert_eq!(reg.lambda(), 0.0);
    }
}
