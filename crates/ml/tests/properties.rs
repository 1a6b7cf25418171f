//! Property-based tests of the training stack: loss-gradient consistency,
//! optimizer sanity, and the conditional-independence property proactive
//! training rests on.

use std::sync::Arc;

use cdp_engine::{ExecutionEngine, RunCtx};
use cdp_faults::NoFaults;
use cdp_ml::loss::Loss;
use cdp_ml::optimizer::AdaptiveRate;
use cdp_ml::{
    ConvergenceCriteria, LossKind, OptimizerKind, OptimizerState, Regularizer, SgdConfig,
    SgdTrainer,
};
use cdp_storage::{ColumnSlab, CsrBuilder, FeatureChunk, RowView, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SEQ: ExecutionEngine = ExecutionEngine::Sequential;

/// The chunk of dense rows, each a label and its coordinates at one width,
/// that the trainer's row views borrow.
fn chunk(ts: u64, data: &[(f64, Vec<f64>)]) -> FeatureChunk {
    let labels = data.iter().map(|row| row.0).collect();
    let dim = data.first().map_or(0, |row| row.1.len());
    let cols = (0..dim).map(|j| data.iter().map(|row| row.1[j]).collect());
    let slab = ColumnSlab::dense(labels, cols.collect());
    FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), Arc::new(slab))
}

/// The chunk of sparse rows at dimension `dim`, each a label and its
/// entries in index order.
fn sparse_chunk(ts: u64, dim: usize, data: &[(f64, Vec<(u32, f64)>)]) -> FeatureChunk {
    let mut builder = CsrBuilder::reusing(None, dim, data.len(), 0);
    for (label, entries) in data {
        builder.push_row(*label, &mut entries.clone());
    }
    FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), Arc::new(builder.finish()))
}

fn norm_l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn rows(chunk: &FeatureChunk) -> Vec<RowView<'_>> {
    chunk.rows().collect()
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
            let mut w = vec![0.0; dim];
            state.apply(&mut w, &grad);
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
        let batches: Vec<Vec<(f64, Vec<f64>)>> = (0..8u64)
            .map(|b| {
                (0..4u64)
                    .map(|i| {
                        let x = ((seed ^ (b * 13 + i)) % 100) as f64 / 50.0 - 1.0;
                        let y = if x > 0.0 { 1.0 } else { -1.0 };
                        (y, vec![x, 1.0])
                    })
                    .collect()
            })
            .collect();

        let mut contiguous = SgdTrainer::new(2, &config);
        for batch in &batches {
            contiguous.step_rows(&rows(&chunk(0, batch)), SEQ);
        }

        let mut first = SgdTrainer::new(2, &config);
        for batch in &batches[..split] {
            first.step_rows(&rows(&chunk(0, batch)), SEQ);
        }
        // "Pause": serialize state through a snapshot and resume.
        let mut resumed = SgdTrainer::restore(
            first.model().clone(),
            first.optimizer().clone(),
            first.regularizer(),
            first.points_seen(),
        );
        for batch in &batches[split..] {
            resumed.step_rows(&rows(&chunk(0, batch)), SEQ);
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
        let data: Vec<(f64, Vec<f64>)> = (0..64u64)
            .map(|i| {
                let x = ((seed.wrapping_mul(31).wrapping_add(i * 7)) % 200) as f64 / 100.0 - 1.0;
                let y = if x > 0.0 { 1.0 } else { -1.0 };
                (y, vec![x, 0.1])
            })
            .collect();
        let mut trainer = SgdTrainer::new(2, &config);
        let report = trainer.fit_rows(&rows(&chunk(0, &data)), &config, SEQ, &RunCtx::default());
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
        let data: Vec<(f64, Vec<f64>)> = (0..32u64)
            .map(|i| {
                let x = (i as f64) / 16.0 - 1.0;
                (3.0 * x, vec![x])
            })
            .collect();
        let mut a = SgdTrainer::new(1, &base);
        a.fit_rows(&rows(&chunk(0, &data)), &base, SEQ, &RunCtx::default());
        let mut b = SgdTrainer::new(1, &strong);
        b.fit_rows(&rows(&chunk(0, &data)), &strong, SEQ, &RunCtx::default());
        prop_assert!(norm_l2(b.model().weights()) <= norm_l2(a.model().weights()) + 1e-9);
    }

    /// Algorithm 1, not our own reduce: a proactive step over already
    /// materialized chunks *is* one mini-batch SGD iteration on the union of
    /// their rows. The fused step sums per source and scales once, the plain
    /// step scales per row, so the two agree to rounding (1e-12 relative, in
    /// the weights and in both accumulators), not bitwise — for every
    /// learning-rate technique and penalty.
    #[test]
    fn fused_step_is_an_sgd_step_on_the_concatenated_rows(
        seed in 0u64..u64::MAX,
        loss in any_loss(),
        sparse in prop::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = if sparse { 40 } else { 6 };
        let chunks: Vec<FeatureChunk> = (0..4u64)
            .map(|ts| {
                let n_rows = rng.random_range(0..30);
                let label = |rng: &mut StdRng| if rng.random::<bool>() { 1.0 } else { -1.0 };
                if sparse {
                    let rows: Vec<(f64, Vec<(u32, f64)>)> = (0..n_rows)
                        .map(|_| {
                            let idx: Vec<u32> =
                                (0..dim as u32).filter(|_| rng.random_range(0..8) == 0).collect();
                            let entries = idx.into_iter().map(|i| (i, rng.random_range(-1.0..1.0))).collect();
                            (label(&mut rng), entries)
                        })
                        .collect();
                    return sparse_chunk(ts, dim, &rows);
                }
                let rows: Vec<(f64, Vec<f64>)> = (0..n_rows)
                    .map(|_| {
                        let values = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
                        (label(&mut rng), values)
                    })
                    .collect();
                chunk(ts, &rows)
            })
            .collect();
        let union: Vec<RowView<'_>> = chunks.iter().flat_map(|c| c.rows()).collect();
        if union.is_empty() {
            return Ok(());
        }
        // Relative to the vector's largest coordinate: one that cancels to
        // nearly zero carries the rounding of the terms that made it.
        let largest = |v: &[f64]| v.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        let close = |a: &[f64], b: &[f64]| {
            let gap: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
            a.len() == b.len() && largest(&gap) <= 1e-12 * largest(a)
        };
        for optimizer in [
            OptimizerKind::Constant { eta: 0.1 },
            OptimizerKind::InvScaling { eta0: 0.1, power: 0.5 },
            OptimizerKind::Momentum { eta: 0.1, gamma: 0.9 },
            OptimizerKind::adam(0.05),
            OptimizerKind::rmsprop(0.05),
            OptimizerKind::adadelta(),
        ] {
            for regularizer in [Regularizer::None, Regularizer::L2(1e-2), Regularizer::L1(1e-2)] {
                let config = SgdConfig {
                    optimizer,
                    regularizer,
                    ..SgdConfig::for_loss(loss)
                };
                // One shared earlier step: non-zero weights and accumulators.
                let mut plain = SgdTrainer::new(dim, &config);
                plain.step_rows(&union[..union.len().div_ceil(2)], SEQ);
                let mut fused = plain.clone();

                let plain_loss = plain.step_rows(&union, SEQ).unwrap();
                let outcome = fused
                    .try_step_fused(
                        chunks.len(),
                        |i, sink| sink(chunks[i].slab()),
                        SEQ,
                        &NoFaults,
                        &RunCtx::default(),
                    )
                    .unwrap();

                let what = format!("{} / {regularizer:?}", optimizer.name());
                prop_assert_eq!(outcome.points, union.len() as u64, "{}", what);
                let fused_loss = outcome.loss.unwrap();
                prop_assert!((fused_loss - plain_loss).abs() <= 1e-12 * plain_loss.abs(), "{}", what);
                prop_assert!(close(plain.model().weights(), fused.model().weights()), "{}", what);
                let (_, t_plain, m_plain, v_plain) = plain.optimizer().to_parts();
                let (_, t_fused, m_fused, v_fused) = fused.optimizer().to_parts();
                prop_assert_eq!(t_plain, t_fused);
                prop_assert!(close(m_plain, m_fused) && close(v_plain, v_fused), "{}", what);
                prop_assert_eq!(plain.points_seen(), fused.points_seen());
            }
        }
    }
}
