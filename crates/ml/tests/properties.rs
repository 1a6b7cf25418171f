//! Property-based tests of the training stack: loss-gradient consistency,
//! optimizer sanity, and the conditional-independence property proactive
//! training rests on.

use cdp_engine::{ExecutionEngine, RunCtx};
use cdp_linalg::{DenseVector, Vector};
use cdp_ml::loss::Loss;
use cdp_ml::optimizer::AdaptiveRate;
use cdp_ml::{
    ConvergenceCriteria, LossKind, OptimizerKind, OptimizerState, Regularizer, SgdConfig,
    SgdTrainer,
};
use cdp_storage::{LabeledPoint, RowView};
use proptest::prelude::*;

const SEQ: ExecutionEngine = ExecutionEngine::Sequential;

/// Row-layout points as the trainer's row views.
fn rows(data: &[LabeledPoint]) -> Vec<RowView<'_>> {
    data.iter().map(RowView::Point).collect()
}

fn any_loss() -> impl Strategy<Value = LossKind> {
    prop_oneof![
        Just(LossKind::Hinge),
        Just(LossKind::Logistic),
        Just(LossKind::Squared)
    ]
}

fn class_label() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), Just(-1.0)]
}

proptest! {
    /// Analytic gradients match central differences for every loss.
    #[test]
    fn gradients_match_numeric(loss in any_loss(), z in -20.0..20.0f64, y in class_label()) {
        // Hinge is non-differentiable exactly at y·z = 1; skip a small band.
        if matches!(loss, LossKind::Hinge) && (y * z - 1.0).abs() < 1e-3 {
            return Ok(());
        }
        let h = 1e-6;
        let numeric = (loss.value(z + h, y) - loss.value(z - h, y)) / (2.0 * h);
        let analytic = loss.dloss_dz(z, y);
        prop_assert!((numeric - analytic).abs() < 1e-4,
            "{loss:?} at z={z}, y={y}: numeric {numeric} vs analytic {analytic}");
    }

    /// Losses are non-negative and zero-gradient points are minima.
    #[test]
    fn losses_nonnegative(loss in any_loss(), z in -50.0..50.0f64, y in class_label()) {
        prop_assert!(loss.value(z, y) >= 0.0);
    }

    /// An optimizer step moves weights opposite to the gradient direction
    /// (per coordinate) for the first step from fresh state.
    #[test]
    fn first_step_descends(grad in prop::collection::vec(-10.0..10.0f64, 1..16)) {
        for kind in [
            OptimizerKind::Constant { eta: 0.1 },
            OptimizerKind::adam(0.1),
            OptimizerKind::rmsprop(0.1),
            OptimizerKind::Momentum { eta: 0.1, gamma: 0.9 },
        ] {
            let dim = grad.len();
            let mut state = OptimizerState::new(kind, dim);
            let mut w = DenseVector::zeros(dim);
            let g = DenseVector::new(grad.clone());
            state.apply(&mut w, &g);
            for i in 0..dim {
                if grad[i].abs() > 1e-9 {
                    prop_assert!(w[i] * grad[i] <= 0.0,
                        "{kind:?} coord {i}: w={} grad={}", w[i], grad[i]);
                } else {
                    prop_assert!(w[i].abs() < 1e-6);
                }
            }
        }
    }

    /// Proactive training's foundation: replaying the same batch sequence
    /// with a pause (state handed across the gap) produces identical
    /// weights — SGD iterations are conditionally independent given
    /// (weights, optimizer state).
    #[test]
    fn conditional_independence(seed in 0u64..500, split in 1usize..7) {
        let config = SgdConfig {
            loss: LossKind::Logistic,
            optimizer: OptimizerKind::adam(0.05),
            regularizer: Regularizer::L2(1e-3),
            batch_size: 8,
            convergence: ConvergenceCriteria::default(),
            shuffle_seed: seed,
        };
        // 8 deterministic batches derived from the seed.
        let batches: Vec<Vec<LabeledPoint>> = (0..8u64)
            .map(|b| {
                (0..4u64)
                    .map(|i| {
                        let x = ((seed ^ (b * 13 + i)) % 100) as f64 / 50.0 - 1.0;
                        let y = if x > 0.0 { 1.0 } else { -1.0 };
                        LabeledPoint::new(y, Vector::from(vec![x, 1.0]))
                    })
                    .collect()
            })
            .collect();

        let mut contiguous = SgdTrainer::new(2, &config);
        for batch in &batches {
            contiguous.step_rows(&rows(batch), SEQ);
        }

        let mut first = SgdTrainer::new(2, &config);
        for batch in &batches[..split] {
            first.step_rows(&rows(batch), SEQ);
        }
        // "Pause": serialize state through a snapshot and resume.
        let mut resumed = SgdTrainer::with_model(
            first.model().clone(),
            first.optimizer().clone(),
            first.regularizer(),
        );
        for batch in &batches[split..] {
            resumed.step_rows(&rows(batch), SEQ);
        }
        prop_assert_eq!(contiguous.model().weights(), resumed.model().weights());
    }

    /// Training on separable data always reduces the objective.
    #[test]
    fn fit_reduces_objective(seed in 0u64..200) {
        let config = SgdConfig {
            loss: LossKind::Hinge,
            optimizer: OptimizerKind::adam(0.05),
            regularizer: Regularizer::None,
            batch_size: 16,
            convergence: ConvergenceCriteria { tolerance: 1e-6, max_epochs: 10 },
            shuffle_seed: seed,
        };
        let data: Vec<LabeledPoint> = (0..64u64)
            .map(|i| {
                let x = ((seed.wrapping_mul(31).wrapping_add(i * 7)) % 200) as f64 / 100.0 - 1.0;
                let y = if x > 0.0 { 1.0 } else { -1.0 };
                LabeledPoint::new(y, Vector::from(vec![x, 0.1]))
            })
            .collect();
        let mut trainer = SgdTrainer::new(2, &config);
        let report = trainer.fit_rows(&rows(&data), &config, SEQ, &RunCtx::default());
        prop_assert!(report.final_loss <= report.initial_loss + 1e-9);
    }

    /// L2 regularization never increases the weight norm obtained by
    /// training relative to the unregularized run.
    #[test]
    fn l2_shrinks_weights(seed in 0u64..100) {
        let base = SgdConfig {
            loss: LossKind::Squared,
            optimizer: OptimizerKind::Constant { eta: 0.05 },
            regularizer: Regularizer::None,
            batch_size: 8,
            convergence: ConvergenceCriteria { tolerance: 1e-9, max_epochs: 20 },
            shuffle_seed: seed,
        };
        let strong = SgdConfig { regularizer: Regularizer::L2(0.5), ..base };
        let data: Vec<LabeledPoint> = (0..32u64)
            .map(|i| {
                let x = (i as f64) / 16.0 - 1.0;
                LabeledPoint::new(3.0 * x, Vector::from(vec![x]))
            })
            .collect();
        let mut a = SgdTrainer::new(1, &base);
        a.fit_rows(&rows(&data), &base, SEQ, &RunCtx::default());
        let mut b = SgdTrainer::new(1, &strong);
        b.fit_rows(&rows(&data), &strong, SEQ, &RunCtx::default());
        prop_assert!(b.model().weights().norm_l2() <= a.model().weights().norm_l2() + 1e-9);
    }
}
