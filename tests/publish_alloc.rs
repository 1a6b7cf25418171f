//! Allocation accounting for the publish path: a publish hands the serving
//! layer the trainer's weight buffer instead of a copy, and the sweep after
//! it writes into a buffer an older snapshot retired. So once the trainer
//! has retired a ring's worth of buffers, a train-and-publish round on a
//! 2^16-weight model makes no allocation the size of the model.
//!
//! This file holds exactly one `#[test]` so the counting global allocator
//! sees no interference from sibling tests running on other harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cdpipe::core::serving::ModelServer;
use cdpipe::engine::ExecutionEngine;
use cdpipe::ml::{LossKind, SgdConfig, SgdTrainer};
use cdpipe::pipeline::encode::DenseEncoder;
use cdpipe::pipeline::parser::SchemaParser;
use cdpipe::pipeline::scale::StandardScaler;
use cdpipe::pipeline::{Pipeline, PipelineBuilder};
use cdpipe::storage::{
    CsrBuilder, FeatureChunk, RawChunk, Record, RowView, Schema, Timestamp, Value,
};

const DIM: usize = 1 << 16;
const MODEL_BYTES: u64 = (DIM * std::mem::size_of::<f64>()) as u64;

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations (or growths) of at least [`MODEL_BYTES`].
static MODEL_SIZED: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size as u64 >= MODEL_BYTES {
            MODEL_SIZED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns (allocations, model-sized ones).
fn measure(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    MODEL_SIZED.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        MODEL_SIZED.load(Ordering::Relaxed),
    )
}

/// A one-feature pipeline: the publish grows no model to it.
fn pipeline() -> Pipeline {
    let schema = Schema::new(["y", "x"]);
    let mut p = PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
        .add(StandardScaler::new())
        .encoder(DenseEncoder::new(1))
        .unwrap();
    let records = (0..8)
        .map(|i| Record::new(vec![Value::Num(i as f64), Value::Num(i as f64)]))
        .collect();
    p.fit_transform_chunk(&RawChunk::new(Timestamp(0), records));
    p
}

/// Sparse hinge rows over the whole model width, as the URL stream's are.
fn chunk() -> FeatureChunk {
    let mut rows = CsrBuilder::reusing(None, DIM, 8, 8 * 28);
    for row in 0..8u64 {
        let mut entries: Vec<(u32, f64)> = (0..28)
            .map(|k| (((row * 37 + k * 2_339) % DIM as u64) as u32, 1.0))
            .collect();
        entries.sort_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        let label = if row % 2 == 0 { 1.0 } else { -1.0 };
        rows.push_row(label, &mut entries);
    }
    FeatureChunk::from_slab(Timestamp(0), Timestamp(0), Arc::new(rows.finish()))
}

#[test]
fn a_warm_train_and_publish_round_allocates_no_model() {
    let pipeline = pipeline();
    let chunk = chunk();
    let rows: Vec<RowView<'_>> = chunk.rows().collect();
    let mut trainer = SgdTrainer::new(DIM, &SgdConfig::for_loss(LossKind::Hinge));
    let server = ModelServer::new(pipeline.clone(), trainer.model().clone());
    let round = |trainer: &mut SgdTrainer| {
        trainer.step_rows(&rows, ExecutionEngine::Sequential);
        let model = trainer.model();
        server.publish(pipeline.clone(), model.clone());
        model.fingerprint()
    };

    // Until the trainer has retired a buffer per ring slot, a sweep finds
    // every retired buffer held by the ring and allocates a fresh one.
    let (_, filling) = measure(|| {
        for _ in 0..8 {
            round(&mut trainer);
        }
    });
    assert!(filling > 0, "the first sweeps after a publish allocate");

    let mut fingerprints = Vec::with_capacity(20);
    let (allocs, model_sized) = measure(|| {
        for _ in 0..20 {
            fingerprints.push(round(&mut trainer));
        }
    });
    assert_eq!(
        model_sized, 0,
        "warm train-and-publish rounds allocated {model_sized} model-sized buffers \
         ({allocs} allocations in all)"
    );
    // Each round published a model of its own.
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 20);
    assert_eq!(server.version(), 29);
}
