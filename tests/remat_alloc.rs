//! Allocation accounting for re-materialization: a raw chunk goes through
//! the pipeline as one column batch, so transforming it costs a handful of
//! allocations per *column*, never one per row or per token — and a fused
//! fire over evicted chunks pays exactly that per source and nothing more.
//!
//! This file holds exactly one `#[test]` so the counting global allocator
//! sees no interference from sibling tests running on other harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cdpipe::core::pipeline_manager::PipelineManager;
use cdpipe::datagen::taxi::{TaxiConfig, TaxiGenerator};
use cdpipe::eval::CostLedger;
use cdpipe::prelude::*;
use cdpipe::storage::{FeatureSource, RawChunk};

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

#[test]
fn rematerialization_allocates_per_column_not_per_row() {
    // Taxi at the benchmark's shape: 1000-row chunks, seven parsed columns
    // extracted to eleven, filtered, selected to ten, scaled, encoded dense.
    let (_, spec) = taxi_spec(SpecScale::Repo);
    let generator = TaxiGenerator::new(TaxiConfig {
        rows_per_chunk: 1000,
        ..TaxiConfig::repo_scale()
    });
    let mut pipeline = spec.build_pipeline();
    for i in 0..4 {
        pipeline.fit_transform_chunk(&generator.chunk(i));
    }
    let raw = generator.chunk(4);
    let (chunk, allocs) = measure(|| pipeline.transform_chunk(&raw));
    assert!(chunk.len() > 900, "the filter drops a few percent");
    assert!(
        allocs <= 64,
        "re-materializing a 1000-row Taxi chunk made {allocs} allocations"
    );

    // URL at the benchmark's shape: 40 rows of 16 numeric fields and a dozen
    // tokens each. The tokens stay `&str` slices of the raw records, so the
    // whole chunk costs fewer allocations than it has rows — not one
    // `String` per token (≈ 480 of them) on top of one vector per row.
    let (urls, spec) = url_spec(SpecScale::Repo);
    let mut pipeline = spec.build_pipeline();
    pipeline.fit_transform_chunk(&urls.chunk(0));
    let raw = urls.chunk(1);
    assert_eq!(raw.len(), 40);
    let (chunk, allocs) = measure(|| pipeline.transform_chunk(&raw));
    assert_eq!(chunk.len(), 40);
    assert!(
        allocs < 40,
        "re-materializing a 40-row URL chunk made {allocs} allocations"
    );

    // A fused fire whose fifteen sources are all evicted: each source is one
    // transient slab through the shared deployed pipeline, with or without
    // the distance and bearing its arrival kept. The first fire also
    // allocates the gradient partials; the later ones find them pooled.
    let (_, spec) = taxi_spec(SpecScale::Repo);
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let mut ledger = CostLedger::default();
    let initial: Vec<RawChunk> = (0..4).map(|i| generator.chunk(i)).collect();
    pm.initial_fit(&initial, &spec.sgd, &mut ledger);
    let mut arrivals = spec.build_pipeline();
    let (plain, kept): (Vec<FeatureSource>, Vec<FeatureSource>) = (4..19)
        .map(|i| {
            let raw = generator.chunk(i);
            let kept = arrivals.fit_transform_chunk(&raw).kept().cloned();
            assert!(kept.is_some());
            (
                FeatureSource::Raw(raw.clone(), None),
                FeatureSource::Raw(raw, kept),
            )
        })
        .unzip();
    let fire = |pm: &mut PipelineManager, ledger: &mut CostLedger, sources: &[FeatureSource]| {
        let (outcome, allocs) = measure(|| pm.try_proactive_step_fused(sources, ledger));
        let outcome = outcome.expect("no faults injected");
        assert!(outcome.points > 13_500, "{} rows survived", outcome.points);
        allocs
    };
    let cold = fire(&mut pm, &mut ledger, &plain);
    let warm = fire(&mut pm, &mut ledger, &plain);
    let warm_kept = fire(&mut pm, &mut ledger, &kept);
    assert!(warm <= cold && warm_kept <= warm);
    // 403 warm, 27 a source: the batch's columns and the slab's; nothing
    // is cloned for a source.
    assert!(
        warm <= 15 * 27,
        "a warm fire over 15 raw 1000-row sources made {warm} allocations"
    );
}
