//! Hyperparameter tuning (Experiment 2, Table 3 and Figure 5).
//!
//! The paper grid-searches the learning-rate adaptation technique
//! (Adam / RMSProp / AdaDelta) against the regularization parameter
//! (1e-2 / 1e-3 / 1e-4) on the *initial* data, and then shows that the best
//! initial configuration is also the best *deployed* configuration — which
//! is what lets the proactive trainer reuse the initial tuning.

use cdp_datagen::{ChunkStream, Truncated};
use cdp_eval::{CostLedger, PrequentialEvaluator};
use cdp_ml::loss::Loss;
use cdp_ml::{OptimizerKind, Regularizer, SgdConfig};
use cdp_sampling::SamplingStrategy;

use crate::deployment::{run_deployment, DeploymentConfig};
use crate::pipeline_manager::PipelineManager;
use crate::presets::DeploymentSpec;

/// One cell of the tuning grid.
#[derive(Debug, Clone)]
pub struct TuningCell {
    /// The adaptation technique.
    pub optimizer: OptimizerKind,
    /// The regularization strength λ (an L2 penalty, as in MLlib).
    pub lambda: f64,
    /// Held-out error after initial training (Table 3).
    pub initial_error: f64,
    /// Held-out mean data loss after initial training. At repository scale
    /// the held-out *error rate* is quantized by the evaluation-set size, so
    /// the loss provides the resolution the paper's millions-of-rows grid
    /// has natively; ranking uses error first, loss as the tiebreaker.
    pub initial_loss: f64,
    /// Prequential error after deploying this configuration on a slice of
    /// the stream (Figure 5); `None` until `deployed_grid` fills it.
    pub deployed_error: Option<f64>,
}

/// `x` as an ordering key under [`f64::total_cmp`]: a NaN of either sign
/// sorts after every number, so a cell whose training diverged ranks last.
pub fn nan_last(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

impl TuningCell {
    /// Ranking order: held-out error, then held-out loss, NaN last.
    fn rank_cmp(&self, other: &TuningCell) -> std::cmp::Ordering {
        let by = |a: f64, b: f64| nan_last(a).total_cmp(&nan_last(b));
        by(self.initial_error, other.initial_error)
            .then_with(|| by(self.initial_loss, other.initial_loss))
    }
}

/// The paper's grid: {Adam, RMSProp, AdaDelta} × {1e-2, 1e-3, 1e-4}.
pub fn paper_grid(base_eta: f64) -> Vec<(OptimizerKind, f64)> {
    let optimizers = [
        OptimizerKind::adam(base_eta),
        OptimizerKind::rmsprop(base_eta),
        OptimizerKind::adadelta(),
    ];
    let lambdas = [1e-2, 1e-3, 1e-4];
    optimizers
        .iter()
        .flat_map(|&o| lambdas.iter().map(move |&l| (o, l)))
        .collect()
}

fn sgd_for(spec: &DeploymentSpec, optimizer: OptimizerKind, lambda: f64) -> SgdConfig {
    SgdConfig {
        optimizer,
        regularizer: Regularizer::L2(lambda),
        ..spec.sgd
    }
}

/// Table 3: for every grid cell, train on ~80% of the initial chunks and
/// measure held-out error on the remaining ~20%.
pub fn initial_grid(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    grid: &[(OptimizerKind, f64)],
) -> Vec<TuningCell> {
    let initial = stream.initial();
    let split = (initial.len() * 4 / 5)
        .max(1)
        .min(initial.len().saturating_sub(1).max(1));
    let (train, eval) = initial.split_at(split);

    grid.iter()
        .map(|&(optimizer, lambda)| {
            let sgd = sgd_for(spec, optimizer, lambda);
            let mut pm = PipelineManager::new(spec.build_pipeline(), &sgd, spec.online_batch);
            let mut ledger = CostLedger::default();
            pm.initial_fit(train, &sgd, &mut ledger);
            let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
            let loss = sgd.loss;
            let mut loss_sum = 0.0;
            let mut examples = 0u64;
            for chunk in eval {
                let fc = pm.rematerialize(chunk, &mut ledger);
                for row in fc.rows() {
                    // Holdout rows come from the deployed pipeline, so they
                    // never exceed the model width and the padded dot is the
                    // exact one.
                    let z = row.dot_padded(pm.trainer().model().weights());
                    evaluator.observe(z, row.label());
                    loss_sum += loss.value(z, row.label());
                    examples += 1;
                }
            }
            TuningCell {
                optimizer,
                lambda,
                initial_error: evaluator.error(),
                initial_loss: if examples > 0 {
                    loss_sum / examples as f64
                } else {
                    0.0
                },
                deployed_error: None,
            }
        })
        .collect()
}

/// Figure 5: deploy each cell's configuration (continuous mode, uniform
/// sampling) over `deploy_fraction` of the deployment stream and record the
/// prequential error.
pub fn deployed_grid<S: ChunkStream + Clone>(
    stream: &S,
    spec: &DeploymentSpec,
    cells: &mut [TuningCell],
    deploy_fraction: f64,
) {
    let deploy_len = stream.total_chunks() - stream.initial_chunks();
    let keep = ((deploy_len as f64 * deploy_fraction) as usize).max(1);
    let truncated = Truncated::new(stream.clone(), stream.initial_chunks() + keep);
    for cell in cells.iter_mut() {
        let tuned = spec.with_sgd(sgd_for(spec, cell.optimizer, cell.lambda));
        let config = DeploymentConfig::continuous(
            tuned.proactive_every,
            tuned.sample_chunks,
            SamplingStrategy::Uniform,
        );
        let result = run_deployment(&truncated, &tuned, &config);
        cell.deployed_error = Some(result.final_error);
    }
}

/// The best cell by held-out error, loss as tiebreaker.
pub fn best_initial(cells: &[TuningCell]) -> Option<&TuningCell> {
    cells.iter().min_by(|a, b| a.rank_cmp(b))
}

/// For each adaptation technique, the cell with the lowest initial error —
/// the subset Figure 5 displays.
pub fn best_per_optimizer(cells: &[TuningCell]) -> Vec<&TuningCell> {
    let mut out: Vec<&TuningCell> = Vec::new();
    for cell in cells {
        match out
            .iter_mut()
            .find(|c| c.optimizer.name() == cell.optimizer.name())
        {
            Some(existing) => {
                if cell.rank_cmp(existing).is_lt() {
                    *existing = cell;
                }
            }
            None => out.push(cell),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{url_spec, SpecScale};

    #[test]
    fn grid_has_nine_cells() {
        assert_eq!(paper_grid(0.01).len(), 9);
    }

    #[test]
    fn initial_grid_produces_finite_errors() {
        let (stream, spec) = url_spec(SpecScale::Tiny);
        let grid = vec![
            (OptimizerKind::adam(0.01), 1e-3),
            (OptimizerKind::adadelta(), 1e-2),
        ];
        let cells = initial_grid(&stream, &spec, &grid);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.initial_error.is_finite());
            assert!((0.0..=1.0).contains(&c.initial_error));
            assert!(c.deployed_error.is_none());
        }
    }

    #[test]
    fn deployed_grid_fills_errors() {
        let (stream, spec) = url_spec(SpecScale::Tiny);
        let grid = vec![(OptimizerKind::adam(0.01), 1e-3)];
        let mut cells = initial_grid(&stream, &spec, &grid);
        deployed_grid(&stream, &spec, &mut cells, 0.5);
        assert!(cells[0].deployed_error.is_some());
    }

    #[test]
    fn best_helpers() {
        let mk = |name_eta: f64, lambda: f64, err: f64| TuningCell {
            optimizer: OptimizerKind::adam(name_eta),
            lambda,
            initial_error: err,
            initial_loss: err,
            deployed_error: None,
        };
        let cells = vec![
            mk(0.01, 1e-2, 0.3),
            mk(0.01, 1e-3, 0.1),
            mk(0.01, 1e-4, 0.2),
        ];
        assert_eq!(best_initial(&cells).unwrap().lambda, 1e-3);
        // Same optimizer everywhere ⇒ one best-per-optimizer entry.
        assert_eq!(best_per_optimizer(&cells).len(), 1);
        assert_eq!(best_per_optimizer(&cells)[0].lambda, 1e-3);
    }

    #[test]
    fn a_diverged_cell_ranks_last_instead_of_aborting_the_grid() {
        let mk = |lambda: f64, err: f64, loss: f64| TuningCell {
            optimizer: OptimizerKind::adam(0.01),
            lambda,
            initial_error: err,
            initial_loss: loss,
            deployed_error: None,
        };
        // Both NaN signs (x86 divides 0 by 0 into the negative one), in the
        // error and in the tie-breaking loss, first and last in the grid.
        for nan in [f64::NAN, -f64::NAN] {
            let cells = vec![
                mk(1e-1, nan, nan),
                mk(1e-2, 0.2, nan),
                mk(1e-3, 0.2, 0.7),
                mk(1e-4, 0.3, 0.1),
                mk(1e-5, nan, 0.0),
            ];
            assert_eq!(best_initial(&cells).unwrap().lambda, 1e-3);
            assert_eq!(best_per_optimizer(&cells)[0].lambda, 1e-3);
            let all_diverged = vec![mk(1e-1, nan, nan), mk(1e-2, nan, 0.5)];
            assert_eq!(best_initial(&all_diverged).unwrap().lambda, 1e-2);
        }
    }
}
