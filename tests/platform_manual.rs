//! Drives the platform components by hand (data manager + pipeline manager +
//! proactive trainer + scheduler), without the packaged deployment driver —
//! validating that the architecture's pieces compose, and injecting failures
//! the packaged driver never produces (raw-chunk loss mid-deployment).

use cdpipe::core::{DataManager, PipelineManager, ProactiveTrainer, Scheduler, SchedulerContext};
use cdpipe::datagen::ChunkStream;
use cdpipe::eval::{CostLedger, PrequentialEvaluator};
use cdpipe::prelude::*;
use cdpipe::storage::{FeatureSource, Timestamp};

#[test]
fn manual_loop_with_chunk_loss() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let mut dm = DataManager::new(StorageBudget::MaxChunks(4), SamplingStrategy::TimeBased, 99);
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let trainer = ProactiveTrainer::new();
    let scheduler = Scheduler::Static { every_chunks: 2 };
    let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
    let mut ledger = CostLedger::default();

    // Initial phase.
    let initial = stream.initial();
    let (_, fcs) = pm.initial_fit(&initial, &spec.sgd, &mut ledger);
    for (raw, fc) in initial.into_iter().zip(fcs) {
        dm.ingest_raw(raw).expect("unique timestamps");
        dm.store_features(fc).expect("raw chunk present");
    }

    let mut chunks_since = 0usize;
    let mut proactive_runs = 0usize;
    for idx in stream.deployment_range() {
        let raw = stream.chunk(idx);
        dm.ingest_raw(raw.clone()).expect("unique timestamps");
        let fc = pm.process_online_chunk(&raw, &mut evaluator, &mut ledger);
        dm.store_features(fc).expect("raw chunk present");
        chunks_since += 1;

        // Failure injection: every 4th chunk, an *old* raw chunk vanishes
        // from the store (storage failure / retention policy). The sampler
        // must keep working, skipping the lost chunk.
        if idx % 4 == 0 && idx > 4 {
            dm.store_mut().drop_chunk(Timestamp((idx - 4) as u64));
        }

        let ctx = SchedulerContext {
            chunk_period_secs: 60.0,
            last_training_secs: 0.0,
            avg_prediction_latency: 1e-6,
            prediction_rate: 1.0,
            elapsed_secs: chunks_since as f64 * 60.0,
            chunks_since_last: chunks_since,
            drift_level: 0,
        };
        if scheduler.should_fire(&ctx) {
            chunks_since = 0;
            let sampled = dm.sample(6);
            // No sampled chunk may reference lost data.
            for chunk in &sampled {
                let retained = dm.store().sampleable_timestamps();
                assert!(retained.contains(&chunk.timestamp()));
            }
            let outcome = trainer
                .try_execute(&mut pm, sampled, &mut ledger)
                .expect("no faults injected");
            proactive_runs += 1;
            assert!(outcome.points > 0, "sampling must survive chunk loss");
        }
    }

    assert!(proactive_runs >= 5);
    assert!(evaluator.count() > 0);
    assert!(evaluator.error() < 0.5);
    // The budget of 4 materialized chunks was respected throughout.
    assert!(dm.store().materialized_count() <= 4);
    // Chunk loss actually happened.
    assert!(dm.chunk_count() < stream.total_chunks());
}

#[test]
fn drift_adaptive_scheduler_fires_more_under_pressure() {
    let scheduler = Scheduler::DriftAdaptive { every_chunks: 6 };
    let fires = |drift_level: u8| -> usize {
        let mut count = 0;
        let mut since = 0usize;
        for _ in 0..60 {
            since += 1;
            let ctx = SchedulerContext {
                chunk_period_secs: 60.0,
                last_training_secs: 0.1,
                avg_prediction_latency: 1e-6,
                prediction_rate: 1.0,
                elapsed_secs: since as f64 * 60.0,
                chunks_since_last: since,
                drift_level,
            };
            if scheduler.should_fire(&ctx) {
                count += 1;
                since = 0;
            }
        }
        count
    };
    let stable = fires(0);
    let warning = fires(1);
    let drifting = fires(2);
    assert!(stable < warning);
    assert!(warning < drifting);
    assert_eq!(drifting, 60); // every chunk under full drift
}

#[test]
fn rematerialized_sample_feeds_valid_training_step() {
    // Force every sampled chunk through the re-materialization path
    // (budget 0) and verify the SGD step still runs on the union.
    let (stream, spec) = taxi_spec(SpecScale::Tiny);
    let mut dm = DataManager::new(StorageBudget::MaxChunks(0), SamplingStrategy::Uniform, 5);
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
    let mut ledger = CostLedger::default();

    for idx in 0..stream.initial_chunks() + 6 {
        let raw = stream.chunk(idx);
        dm.ingest_raw(raw.clone()).expect("unique timestamps");
        let fc = pm.process_online_chunk(&raw, &mut evaluator, &mut ledger);
        dm.store_features(fc).expect("raw chunk present");
    }
    assert_eq!(dm.store().materialized_count(), 0);
    let sampled = dm.sample(4);
    assert!(sampled
        .iter()
        .all(|s| !matches!(s, FeatureSource::Memory(_))));
    let steps_before = pm.trainer().steps();
    let outcome = ProactiveTrainer::new()
        .try_execute(&mut pm, sampled, &mut ledger)
        .expect("no faults injected");
    assert_eq!(outcome.rematerialized_chunks, 4);
    assert_eq!(outcome.materialized_chunks, 0);
    assert_eq!(pm.trainer().steps(), steps_before + 1);
}
