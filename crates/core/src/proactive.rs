//! The proactive trainer (paper §3.3, §4.4): one mini-batch SGD iteration
//! over a sample of the historical data.

use cdp_engine::EngineError;
use cdp_eval::CostLedger;
use cdp_storage::FeatureSource;

use crate::pipeline_manager::PipelineManager;

/// Outcome of one proactive-training instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProactiveOutcome {
    /// Sampled chunks that were materialized (used directly).
    pub materialized_chunks: usize,
    /// Sampled chunks served from the disk spill tier.
    pub spilled_chunks: usize,
    /// Sampled chunks that had to be re-materialized through the pipeline.
    pub rematerialized_chunks: usize,
    /// Training examples in the mini-batch.
    pub points: usize,
    /// Mean pre-update loss of the batch (`None` for an empty sample).
    pub batch_loss: Option<f64>,
    /// Accounted seconds this instance cost (the scheduler's `T`).
    pub accounted_secs: f64,
}

/// Executes proactive-training instances against a [`PipelineManager`].
///
/// Each instance is exactly one iteration of mini-batch SGD (Algorithm 1):
/// because an iteration depends only on the current model and optimizer
/// state — both owned by the pipeline manager's trainer — instances may run
/// at arbitrary times between online updates without breaking convergence
/// (conditional independence, §3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProactiveTrainer {
    /// When `false`, simulate a platform *without* online statistics
    /// computation: every sampled chunk pays a statistics-recomputation
    /// scan and a raw-data disk read (the NoOptimization baseline of
    /// Experiment 3).
    pub online_stats: bool,
}

impl ProactiveTrainer {
    /// A trainer with both paper optimizations enabled.
    pub fn new() -> Self {
        Self { online_stats: true }
    }

    /// A trainer simulating the NoOptimization baseline.
    pub fn without_online_stats() -> Self {
        Self {
            online_stats: false,
        }
    }

    /// Runs one proactive-training instance over `sampled` chunks, surfacing
    /// unrecoverable engine faults during batched re-materialization as
    /// typed errors.
    ///
    /// # Errors
    /// [`EngineError::WorkerPanic`] when a worker dies beyond the restart
    /// budget during re-materialization.
    pub fn try_execute(
        &self,
        pm: &mut PipelineManager,
        sampled: Vec<FeatureSource>,
        ledger: &mut CostLedger,
    ) -> Result<ProactiveOutcome, EngineError> {
        let before = ledger.total();
        let mut materialized = 0usize;
        let mut spilled = 0usize;
        let mut rematerialized = 0usize;
        for chunk in &sampled {
            match chunk {
                FeatureSource::Memory(fc) if self.online_stats => {
                    // Stage 4 fast path: fetch from the in-memory cache.
                    ledger.charge_memory(fc.size_bytes() as u64);
                    materialized += 1;
                }
                FeatureSource::Memory(fc) => {
                    // NoOptimization ignores the cache entirely: read raw
                    // data from disk, rescan for statistics, re-transform.
                    // The stored features are still correct, so reuse their
                    // values after charging the recomputation cost.
                    ledger.charge_disk(fc.size_bytes() as u64);
                    ledger.charge_transforms(fc.len() as u64 * pm.pipeline().stage_counts().1);
                    ledger.charge_encode(fc.len() as u64);
                    pm.charge_statistics_recomputation(fc.len() as u64, ledger);
                    rematerialized += 1;
                }
                FeatureSource::Disk(fc) => {
                    // Evicted from memory but recovered from the disk spill
                    // tier: pay the disk read, skip the re-transformation.
                    ledger.charge_disk(fc.size_bytes() as u64);
                    if !self.online_stats {
                        pm.charge_statistics_recomputation(fc.len() as u64, ledger);
                    }
                    spilled += 1;
                }
                FeatureSource::Raw(raw, _) => {
                    if !self.online_stats {
                        ledger.charge_disk(raw.size_bytes() as u64);
                        pm.charge_statistics_recomputation(raw.len() as u64, ledger);
                    }
                    rematerialized += 1;
                }
            }
        }

        // The union of all sampled chunks, in sample order, is the
        // mini-batch (the paper's context.union before the model update);
        // the fused step consumes it source by source, using stored features
        // directly and re-materializing evicted chunks on the fly — no
        // intermediate feature chunk and no union batch buffer are ever
        // allocated.
        let outcome = pm.try_proactive_step_fused(&sampled, ledger)?;

        Ok(ProactiveOutcome {
            materialized_chunks: materialized,
            spilled_chunks: spilled,
            rematerialized_chunks: rematerialized,
            points: outcome.points as usize,
            batch_loss: outcome.loss,
            accounted_secs: ledger.total() - before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_eval::{CostModel, ErrorMetric, PrequentialEvaluator};
    use cdp_ml::{LossKind, SgdConfig};
    use cdp_pipeline::encode::DenseEncoder;
    use cdp_pipeline::parser::SchemaParser;
    use cdp_pipeline::scale::StandardScaler;
    use cdp_pipeline::{Pipeline, PipelineBuilder};
    use cdp_storage::{FeatureChunk, RawChunk, Record, Schema, Timestamp, Value};
    use std::sync::Arc;

    fn pipeline() -> Pipeline {
        let schema = Schema::new(["y", "x"]);
        PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
            .add(StandardScaler::new())
            .encoder(DenseEncoder::new(1))
            .unwrap()
    }

    fn chunk(ts: u64) -> RawChunk {
        RawChunk::new(
            Timestamp(ts),
            (0..4)
                .map(|i| {
                    let x = (ts * 4 + i) as f64;
                    Record::new(vec![Value::Num(2.0 * x + 1.0), Value::Num(x)])
                })
                .collect(),
        )
    }

    fn warmed_manager() -> (PipelineManager, Vec<Arc<FeatureChunk>>, Vec<RawChunk>) {
        let mut pm = PipelineManager::new(pipeline(), &SgdConfig::for_loss(LossKind::Squared), 8);
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        let mut ledger = CostLedger::default();
        let mut fcs = Vec::new();
        let mut raws = Vec::new();
        for t in 0..4 {
            let raw = chunk(t);
            let fc = pm.process_online_chunk(&raw, &mut ev, &mut ledger);
            fcs.push(Arc::new(fc));
            raws.push(raw);
        }
        (pm, fcs, raws)
    }

    #[test]
    fn executes_one_sgd_step_over_union() {
        let (mut pm, fcs, raws) = warmed_manager();
        let steps_before = pm.trainer().steps();
        let mut ledger = CostLedger::new(CostModel::commodity());
        let sampled = vec![
            FeatureSource::Memory(Arc::clone(&fcs[2])),
            FeatureSource::Raw(raws[0].clone(), None),
        ];
        let outcome = ProactiveTrainer::new()
            .try_execute(&mut pm, sampled, &mut ledger)
            .expect("no faults injected");
        assert_eq!(pm.trainer().steps(), steps_before + 1);
        assert_eq!(outcome.materialized_chunks, 1);
        assert_eq!(outcome.rematerialized_chunks, 1);
        assert_eq!(outcome.points, 8);
        assert!(outcome.batch_loss.is_some());
        assert!(outcome.accounted_secs > 0.0);
    }

    #[test]
    fn empty_sample_is_a_no_op_step() {
        let (mut pm, _, _) = warmed_manager();
        let steps_before = pm.trainer().steps();
        let mut ledger = CostLedger::default();
        let outcome = ProactiveTrainer::new()
            .try_execute(&mut pm, vec![], &mut ledger)
            .expect("no faults injected");
        assert_eq!(outcome.points, 0);
        assert_eq!(outcome.batch_loss, None);
        assert_eq!(pm.trainer().steps(), steps_before);
    }

    #[test]
    fn materialized_chunks_are_cheaper_than_rematerialization() {
        let (mut pm, fcs, raws) = warmed_manager();
        let trainer = ProactiveTrainer::new();

        let mut cheap = CostLedger::default();
        trainer
            .try_execute(
                &mut pm,
                vec![FeatureSource::Memory(Arc::clone(&fcs[1]))],
                &mut cheap,
            )
            .expect("no faults injected");
        let mut costly = CostLedger::default();
        trainer
            .try_execute(
                &mut pm,
                vec![FeatureSource::Raw(raws[1].clone(), None)],
                &mut costly,
            )
            .expect("no faults injected");
        assert!(
            cheap.total() < costly.total(),
            "materialized {} vs rematerialized {}",
            cheap.total(),
            costly.total()
        );
    }

    #[test]
    fn no_optimization_pays_more_even_when_materialized() {
        let (mut pm, fcs, _) = warmed_manager();
        let mut with_opt = CostLedger::default();
        ProactiveTrainer::new()
            .try_execute(
                &mut pm,
                vec![FeatureSource::Memory(Arc::clone(&fcs[3]))],
                &mut with_opt,
            )
            .expect("no faults injected");
        let mut without = CostLedger::default();
        ProactiveTrainer::without_online_stats()
            .try_execute(
                &mut pm,
                vec![FeatureSource::Memory(Arc::clone(&fcs[3]))],
                &mut without,
            )
            .expect("no faults injected");
        assert!(without.total() > with_opt.total());
    }
}
