//! Allocation accounting for the read path: a prediction query runs parser →
//! components → encoder → margin in one per-thread scratch, so once a thread
//! is warm `ModelServer::predict` allocates nothing — on either preset,
//! whether the pipeline accepts the record or a cleaning stage rejects it —
//! and `predict_batch` allocates per call, never per record.
//!
//! This file holds exactly one `#[test]` so the counting global allocator
//! sees no interference from sibling tests running on other harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cdpipe::core::pipeline_manager::PipelineManager;
use cdpipe::core::presets::DeploymentSpec;
use cdpipe::core::serving::ModelServer;
use cdpipe::datagen::ChunkStream;
use cdpipe::eval::CostLedger;
use cdpipe::prelude::*;
use cdpipe::storage::{Record, Value};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns (result, allocations).
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed))
}

/// A server on the pair `initial_fit` leaves, and the first 1 000 records
/// of the deployment range.
fn deployed(stream: &dyn ChunkStream, spec: &DeploymentSpec) -> (ModelServer, Vec<Record>) {
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    pm.initial_fit(&stream.initial(), &spec.sgd, &mut CostLedger::default());
    let (pipeline, trainer) = pm.snapshot();
    let queries = stream
        .deployment_range()
        .flat_map(|i| stream.chunk(i).records.to_vec())
        .take(1000)
        .collect();
    (ModelServer::new(pipeline, trainer.model().clone()), queries)
}

#[test]
fn a_warm_prediction_query_does_not_allocate() {
    // URL at the benchmark's shape: 16 numeric fields, a dozen tokens, a
    // 2^18-bucket hasher. The first call sizes the thread's scratch (the
    // longest token bag may grow it once more); from then on, nothing.
    let (urls, spec) = url_spec(SpecScale::Repo);
    let (server, queries) = deployed(&urls, &spec);
    assert_eq!(queries.len(), 1000);
    let (_, cold) = measure(|| server.predict(&queries[0]));
    assert!(cold > 0, "the first query builds the scratch");
    for q in &queries {
        server.predict(q);
    }
    let (served, allocs) = measure(|| queries.iter().filter_map(|q| server.predict(q)).count());
    assert_eq!(served, 1000, "the URL pipeline filters nothing");
    assert_eq!(allocs, 0, "1000 warm URL predictions allocated");

    // One batch call scores every record through the same function, on the
    // calling thread: what it allocates is the result vector, whatever the
    // record count.
    let (_, per_call_8) = measure(|| server.predict_batch(&queries[..8]));
    let (scored, per_call_64) = measure(|| server.predict_batch(&queries[..64]));
    assert_eq!(scored.iter().flatten().count(), 64);
    assert_eq!(
        per_call_64, per_call_8,
        "batch allocations follow the record count"
    );
    assert!(
        per_call_64 <= 1,
        "predict_batch(64) made {per_call_64} allocations"
    );

    // A malformed record is turned away by the parser without allocating.
    let malformed = Record::new(vec![Value::Text("not a label".into())]);
    let (rejected, allocs) = measure(|| server.predict(&malformed));
    assert!(rejected.is_none());
    assert_eq!(allocs, 0, "a malformed URL query allocated");

    // Taxi: seven parsed columns extracted to eleven, filtered, selected to
    // ten, scaled, encoded dense — 22.6 allocations a query before the
    // scratch. The anomaly filter rejects a few percent of the stream; those
    // queries end early and allocate nothing either.
    let (taxi, spec) = taxi_spec(SpecScale::Repo);
    let (server, queries) = deployed(&taxi, &spec);
    for q in &queries {
        server.predict(q);
    }
    let (served, allocs) = measure(|| queries.iter().filter_map(|q| server.predict(q)).count());
    assert!(
        (900..1000).contains(&served),
        "the anomaly filter drops a few percent, served {served}"
    );
    assert_eq!(allocs, 0, "1000 warm Taxi predictions allocated");
    let filtered: Vec<&Record> = queries
        .iter()
        .filter(|q| server.predict(q).is_none())
        .collect();
    let (_, allocs) = measure(|| filtered.iter().filter_map(|q| server.predict(q)).count());
    assert_eq!(
        allocs,
        0,
        "{} filtered Taxi queries allocated",
        filtered.len()
    );
}
