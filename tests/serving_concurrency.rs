//! Concurrency battery for the sharded serving layer.
//!
//! The claims under test are the ones DESIGN.md §14 makes: readers never
//! observe a torn `(pipeline, model, version)` triple under publish fire,
//! per-reader version observations are monotone, `predict_batch` is
//! bit-identical to per-record `predict`, the accounting invariant
//! (`attempts == served + rejected + batch_failures`) reconciles exactly
//! with the `serving.*` cdp-obs counters, and all of it holds under seeded
//! worker-panic injection (the CI fault matrix sets `CDP_FAULT_SEED`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cdpipe::core::serving::{weights_fingerprint, ModelServer};
use cdpipe::engine::ExecutionEngine;
use cdpipe::faults::{FaultInjector, FaultPlan};
use cdpipe::ml::{LinearModel, LossKind, SgdConfig, SgdTrainer};
use cdpipe::obs::Metrics;
use cdpipe::pipeline::encode::DenseEncoder;
use cdpipe::pipeline::parser::SchemaParser;
use cdpipe::pipeline::scale::StandardScaler;
use cdpipe::pipeline::{Pipeline, PipelineBuilder};
use cdpipe::storage::{ColumnSlab, RawChunk, Record, RowView, Schema, Timestamp, Value};
use proptest::prelude::*;

/// A warmed pipeline over schema `(y, x1, x2)` using the first `features`
/// numeric columns — `features` controls the encoded dimension, so
/// alternating publishes between `narrow_pipeline()` and `wide_pipeline()`
/// exercises dimension changes across versions.
fn warmed(features: usize) -> Pipeline {
    let schema = Schema::new(["y", "x1", "x2"]);
    let nums: Vec<&str> = ["x1", "x2"][..features].to_vec();
    let built = PipelineBuilder::new(SchemaParser::new(schema, "y", &nums, None))
        .add(StandardScaler::new())
        .encoder(DenseEncoder::new(features));
    let mut p = match built {
        Ok(p) => p,
        Err(e) => panic!("components are incremental: {e}"),
    };
    let records = (0..8)
        .map(|i| {
            Record::new(vec![
                Value::Num(i as f64),
                Value::Num(i as f64 * 0.5),
                Value::Num(3.0 - i as f64),
            ])
        })
        .collect();
    p.fit_transform_chunk(&RawChunk::new(Timestamp(0), records));
    p
}

fn record(x1: f64, x2: f64) -> Record {
    Record::new(vec![Value::Num(0.0), Value::Num(x1), Value::Num(x2)])
}

/// A model of dimension `dim` whose every weight is `seed_weight` — each
/// published version gets a distinct, precomputable scoring function.
fn constant_model(dim: usize, seed_weight: f64) -> LinearModel {
    LinearModel::with_weights(vec![seed_weight; dim], LossKind::Squared)
}

/// Satellite 1: N reader threads hammer `predict` while a writer publishes
/// every few milliseconds. Every prediction's value must equal the value
/// its *version's* coherent `(pipeline, model)` pair produces — versions
/// alternate between 2- and 3-dimensional pipelines with distinct constant
/// weights, so any torn pair (new pipeline with old model, or vice versa)
/// yields a value that no version's table entry matches. Versions must be
/// monotone per reader, and total served must reconcile with the counters.
#[test]
fn readers_never_observe_torn_snapshots_under_publish_fire() {
    const PUBLISHES: usize = 30;
    const READERS: usize = 4;

    // Pre-build every version's pair and its expected values on the probes.
    let probes = [record(1.5, -2.0), record(-0.25, 4.0), record(7.0, 0.5)];
    let mut pairs: Vec<(Pipeline, LinearModel)> = Vec::new();
    for v in 1..=(PUBLISHES + 1) {
        let features = if v % 2 == 0 { 2 } else { 1 };
        let pipeline = warmed(features);
        let model = constant_model(pipeline.dim(), v as f64);
        pairs.push((pipeline, model));
    }
    let expected: Vec<Vec<f64>> = pairs
        .iter()
        .map(|(p, m)| {
            let probe_server = ModelServer::new(p.clone(), m.clone());
            probes
                .iter()
                .map(|r| probe_server.predict(r).expect("valid probe").value)
                .collect()
        })
        .collect();

    let (p0, m0) = pairs[0].clone();
    let server = ModelServer::new(p0, m0);
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let s = server.clone();
            let done = Arc::clone(&done);
            let probes = probes.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut served = 0u64;
                let mut i = r; // stagger probe choice across readers
                while !done.load(Ordering::Relaxed) || i < r + 50 {
                    let probe = i % probes.len();
                    let p = s.predict(&probes[probe]).expect("valid probe");
                    // Coherence: the value must be exactly what this
                    // version's (pipeline, model) pair produces.
                    let want = expected[(p.version - 1) as usize][probe];
                    assert_eq!(
                        p.value.to_bits(),
                        want.to_bits(),
                        "version {} served a torn snapshot",
                        p.version
                    );
                    // Monotonicity: versions never move backward per reader.
                    assert!(p.version >= last_version, "version went backward");
                    last_version = p.version;
                    served += 1;
                    i += 1;
                }
                served
            })
        })
        .collect();

    for (pipeline, model) in pairs.into_iter().skip(1) {
        std::thread::sleep(Duration::from_millis(2));
        server.publish(pipeline, model);
    }
    done.store(true, Ordering::Relaxed);

    let reader_total: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert_eq!(server.version(), (PUBLISHES + 1) as u64);
    assert_eq!(server.queries_served(), reader_total);
    assert_eq!(server.queries_rejected(), 0);
    assert_eq!(server.attempts(), reader_total);
}

/// Readers hold snapshots while the publisher trains a real `SgdTrainer`
/// between publishes, so each sweep after the first few writes into a
/// weight buffer an older version retired. Every prediction must equal, bit
/// for bit, the value its version's model gives — the models precomputed by
/// a trainer nothing shares, which sweeps in place — and a snapshot held
/// across a phase of publishes must keep its version's weights and
/// fingerprint.
#[test]
fn readers_hold_snapshots_while_training_recycles_weight_buffers() {
    const PHASES: usize = 5;
    const ROUNDS: usize = 8;
    const READERS: usize = 3;
    let pipeline = warmed(2);
    let dim = pipeline.dim();
    let config = SgdConfig::for_loss(LossKind::Squared);
    let labels = (0..6).map(|i| i as f64 * 0.5 - 1.0).collect();
    let column = |j: usize| (0..6).map(|i| ((3 * i + j) as f64 * 0.37).sin()).collect();
    let slab = ColumnSlab::dense(labels, (0..dim).map(column).collect());
    let rows: Vec<RowView<'_>> = (0..slab.len()).map(|i| slab.row(i)).collect();
    let step = |t: &mut SgdTrainer| t.step_rows(&rows, ExecutionEngine::Sequential);

    // Version v is the model after v steps.
    let mut reference = SgdTrainer::new(dim, &config);
    let versions: Vec<Vec<f64>> = (0..=PHASES * ROUNDS)
        .map(|_| {
            step(&mut reference);
            reference.model().weights().clone()
        })
        .collect();
    let probes = [record(1.5, -2.0), record(-0.25, 4.0), record(7.0, 0.5)];
    let expected: Vec<Vec<u64>> = versions
        .iter()
        .map(|w| {
            let model = LinearModel::with_weights(w.clone(), LossKind::Squared);
            let probe_server = ModelServer::new(pipeline.clone(), model);
            probes
                .iter()
                .map(|r| {
                    probe_server
                        .predict(r)
                        .expect("valid probe")
                        .value
                        .to_bits()
                })
                .collect()
        })
        .collect();
    let bits = |w: &[f64]| -> Vec<u64> { w.iter().map(|x| x.to_bits()).collect() };
    let weight_bits: Vec<Vec<u64>> = versions.iter().map(|w| bits(w)).collect();

    let mut trainer = SgdTrainer::new(dim, &config);
    step(&mut trainer);
    let server = ModelServer::new(pipeline.clone(), trainer.model().clone());
    // Each phase: every reader takes a snapshot between the two waits, then
    // scores while the publisher trains and publishes `ROUNDS` times — more
    // than the ring holds, so the held buffer leaves it and the trainer
    // must recycle around it.
    let phase = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (s, phase) = (server.clone(), Arc::clone(&phase));
            let (probes, expected, weight_bits) =
                (probes.clone(), expected.clone(), weight_bits.clone());
            std::thread::spawn(move || {
                let mut i = r;
                for end in (1..=PHASES).map(|p| (1 + p * ROUNDS) as u64) {
                    phase.wait();
                    let held = s.snapshot();
                    phase.wait();
                    while s.version() < end {
                        let probe = i % probes.len();
                        let p = s.predict(&probes[probe]).expect("valid probe");
                        let want = expected[(p.version - 1) as usize][probe];
                        assert_eq!(p.value.to_bits(), want, "version {}", p.version);
                        i += 1;
                    }
                    assert_eq!(
                        held.version,
                        end - ROUNDS as u64,
                        "held since the phase began"
                    );
                    let v = (held.version - 1) as usize;
                    let now = held.model.weights().iter().map(|x| x.to_bits());
                    assert!(
                        now.eq(weight_bits[v].iter().copied()),
                        "version {v} changed"
                    );
                    let fp = held.model.fingerprint();
                    assert_eq!(fp, weights_fingerprint(held.model.weights()));
                }
            })
        })
        .collect();

    for _ in 0..PHASES {
        phase.wait();
        phase.wait();
        for _ in 0..ROUNDS {
            step(&mut trainer);
            server.publish(pipeline.clone(), trainer.model().clone());
        }
    }
    for reader in readers {
        reader.join().expect("reader lives");
    }
    assert_eq!(server.version(), (PHASES * ROUNDS + 1) as u64);
    assert_eq!(
        bits(trainer.model().weights()),
        weight_bits[PHASES * ROUNDS]
    );
}

proptest! {
    /// `predict_batch` is bit-identical to per-record `predict` for the same
    /// snapshot version, across batch lengths × worker counts {1..8}.
    /// Records include malformed rows, which must reject identically on
    /// both paths.
    #[test]
    fn batched_scoring_is_bit_identical_to_unbatched(
        batch in 1usize..40,
        workers in 1usize..8,
        n in 1usize..30,
    ) {
        let pipeline = warmed(2);
        let model = constant_model(pipeline.dim(), 0.75);
        let server = ModelServer::builder(pipeline, model)
            .engine(ExecutionEngine::Threaded { workers })
            .build();

        let records: Vec<Record> = (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    // Malformed row: rejected on both paths.
                    Record::new(vec![Value::Text("bad".into())])
                } else {
                    record(i as f64 * 0.31 - 2.0, 1.0 - i as f64)
                }
            })
            .collect();

        let unbatched: Vec<_> = records.iter().map(|r| server.predict(r)).collect();
        let batched: Vec<_> = records
            .chunks(batch)
            .flat_map(|chunk| server.predict_batch(chunk))
            .collect();
        prop_assert_eq!(batched.len(), n);

        for (u, b) in unbatched.iter().zip(&batched) {
            match (u, b) {
                (Some(a), Some(c)) => {
                    prop_assert_eq!(a.value.to_bits(), c.value.to_bits());
                    prop_assert_eq!(a.version, c.version);
                }
                (None, None) => {}
                (a, c) => prop_assert!(false, "paths disagree: {:?} vs {:?}", a, c),
            }
        }
        // Both passes are fully accounted.
        prop_assert_eq!(server.attempts(), 2 * n as u64);
        prop_assert_eq!(
            server.attempts(),
            server.queries_served() + server.queries_rejected() + server.batch_failures()
        );
    }
}

/// The fault plan for the battery: the CI fault matrix sets
/// `CDP_FAULT_SEED`; local runs default to a fixed chaos seed so the test
/// is never fault-free.
fn sweep_plan() -> FaultPlan {
    FaultPlan::from_env().unwrap_or_else(|| FaultPlan::chaos(7))
}

/// The battery under seeded worker-panic fire. Batch scoring runs on a
/// threaded engine whose fault hook injects worker panics; recoverable
/// panics must be absorbed (results identical to fault-free), fatal ones
/// must surface as a batch of `None`s counted in `batch_failures` — and the
/// whole ledger must stay exact and deterministic across reruns of the same
/// seed.
#[test]
fn serving_battery_under_seeded_worker_panics() {
    let plan = sweep_plan();

    let drive = |plan: FaultPlan| {
        let pipeline = warmed(2);
        let model = constant_model(pipeline.dim(), 2.5);
        let metrics = Metrics::collecting();
        let server = ModelServer::builder(pipeline, model)
            .engine(ExecutionEngine::Threaded { workers: 3 })
            .fault_hook(Arc::new(FaultInjector::new(plan)))
            .metrics(metrics.clone())
            .build();
        let records: Vec<Record> = (0..120)
            .map(|i| {
                if i % 11 == 5 {
                    Record::new(vec![Value::Text("bad".into())])
                } else {
                    record(i as f64, i as f64 * -0.5)
                }
            })
            .collect();
        let outcomes: Vec<Option<(u64, u64)>> = records
            .chunks(8)
            .flat_map(|batch| server.predict_batch(batch))
            .map(|o| o.map(|p| (p.value.to_bits(), p.version)))
            .collect();

        // The exact accounting invariant holds under fire, and the cdp-obs
        // counters mirror the server's ledger one for one.
        assert_eq!(
            server.attempts(),
            server.queries_served() + server.queries_rejected() + server.batch_failures()
        );
        assert_eq!(server.attempts(), 120);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("serving.served"), server.queries_served());
        assert_eq!(snap.counter("serving.rejected"), server.queries_rejected());
        assert_eq!(
            snap.counter("serving.batch_failures"),
            server.batch_failures()
        );
        (
            outcomes,
            server.queries_served(),
            server.queries_rejected(),
            server.batch_failures(),
        )
    };

    let first = drive(plan);
    let second = drive(plan);
    // Same seed ⇒ identical outcomes, query by query.
    assert_eq!(first, second);

    // Recoverable-or-fatal, every non-failed batch scores exactly like the
    // fault-free server: compare against a no-faults drive.
    let clean = drive(FaultPlan::none());
    assert_eq!(clean.3, 0, "no-faults drive loses nothing");
    for (with_fault, fault_free) in first.0.iter().zip(&clean.0) {
        if with_fault.is_some() {
            assert_eq!(with_fault, fault_free, "absorbed panics must not perturb");
        }
    }
}

/// The audited `rejected` accounting reconciles exactly with the
/// `serving.rejected` counter across both scoring paths, including under
/// concurrent mixed traffic.
#[test]
fn rejected_accounting_reconciles_exactly_with_metrics() {
    let metrics = Metrics::collecting();
    let pipeline = warmed(1);
    let model = constant_model(pipeline.dim(), 1.0);
    let server = ModelServer::builder(pipeline, model)
        .metrics(metrics.clone())
        .build();

    let workers: Vec<_> = (0..3)
        .map(|w| {
            let s = server.clone();
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for i in 0..60 {
                    let malformed = (i + w) % 4 == 0;
                    let r = if malformed {
                        Record::new(vec![Value::Text("bad".into())])
                    } else {
                        record(i as f64, 0.0)
                    };
                    if i % 2 == 0 {
                        let _ = s.predict(&r);
                    } else {
                        batch.push(r);
                        if batch.len() == 4 {
                            let _ = s.predict_batch(&batch);
                            batch.clear();
                        }
                    }
                }
                let _ = s.predict_batch(&batch);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("traffic worker");
    }

    assert_eq!(server.attempts(), 3 * 60);
    assert_eq!(
        server.attempts(),
        server.queries_served() + server.queries_rejected() + server.batch_failures()
    );
    assert!(server.queries_rejected() > 0, "mixed traffic must reject");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serving.served"), server.queries_served());
    assert_eq!(snap.counter("serving.rejected"), server.queries_rejected());
}
