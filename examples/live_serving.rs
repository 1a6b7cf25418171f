//! Live serving while training: the wall-clock version of the platform.
//!
//! A training thread runs the continuous-deployment loop (online updates +
//! proactive training) and publishes every refreshed model to a
//! [`cdpipe::core::ModelServer`]; query threads keep firing prediction
//! queries against the server the whole time. Model versions advance
//! mid-flight without ever blocking a query — the operational form of the
//! paper's "the platform always performs the online model update and
//! answers the prediction queries using an up-to-date model" (§5.5).
//!
//! ```sh
//! cargo run --release --example live_serving
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cdpipe::core::{DataManager, ModelServer, PipelineManager, ProactiveTrainer};
use cdpipe::datagen::ChunkStream;
use cdpipe::eval::{CostLedger, PrequentialEvaluator};
use cdpipe::prelude::*;
use cdpipe::storage::Record;

fn main() {
    let (stream, spec) = url_spec(SpecScale::Tiny);

    // Initial training, then deploy to the server.
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let mut dm = DataManager::new(StorageBudget::Unbounded, SamplingStrategy::TimeBased, 11);
    let mut ledger = CostLedger::default();
    let initial = stream.initial();
    let (_, fcs) = pm.initial_fit(&initial, &spec.sgd, &mut ledger);
    for (raw, fc) in initial.into_iter().zip(fcs) {
        dm.ingest_raw(raw).expect("unique timestamps");
        dm.store_features(fc).expect("raw chunk present");
    }
    let (pipeline0, trainer0) = pm.snapshot();
    let server = ModelServer::new(pipeline0, trainer0.model().clone());

    let stop = Arc::new(AtomicBool::new(false));

    // Query threads: hammer the server with queries from late chunks.
    let query_threads: Vec<_> = (0..3)
        .map(|t| {
            let server = server.clone();
            let stop = Arc::clone(&stop);
            let chunk = stream.chunk(stream.total_chunks() - 1 - t);
            // A query arrives as an owned record, as from a client.
            let queries: Vec<Record> = chunk.rows().iter().map(|row| row.to_record()).collect();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut versions_seen = std::collections::BTreeSet::new();
                // At least one full pass even if training finishes first
                // (tiny streams train in microseconds).
                loop {
                    for record in &queries {
                        if let Some(p) = server.predict(record) {
                            versions_seen.insert(p.version);
                            served += 1;
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (served, versions_seen.len())
            })
        })
        .collect();

    // Training thread = this thread: run the deployment loop, publishing
    // after every chunk's online update and every proactive training.
    let proactive = ProactiveTrainer::new();
    let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
    let mut since = 0usize;
    let mut publishes = 0u64;
    for idx in stream.deployment_range() {
        let raw = stream.chunk(idx);
        dm.ingest_raw(raw.clone()).expect("unique timestamps");
        let fc = pm.process_online_chunk(&raw, &mut evaluator, &mut ledger);
        dm.store_features(fc).expect("raw chunk present");
        since += 1;
        if since >= spec.proactive_every {
            since = 0;
            let sampled = dm.sample(spec.sample_chunks);
            proactive
                .try_execute(&mut pm, sampled, &mut ledger)
                .expect("no faults injected");
        }
        let (pipeline, trainer) = pm.snapshot();
        server.publish(pipeline, trainer.model().clone());
        publishes += 1;
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_served = 0u64;
    let mut max_versions = 0usize;
    for t in query_threads {
        let (served, versions) = t.join().expect("query thread lives");
        total_served += served;
        max_versions = max_versions.max(versions);
    }

    println!("training thread: published {publishes} model versions");
    println!(
        "query threads: served {total_served} predictions across ≥{max_versions} distinct versions"
    );
    println!("final prequential error: {:.4}", evaluator.error());
    println!(
        "server counters: {} served, {} rejected",
        server.queries_served(),
        server.queries_rejected()
    );
    assert!(total_served > 0);
    assert_eq!(server.version(), publishes + 1);
}
