//! Allocation accounting for arrival: a raw chunk is a shared handle, so
//! pulling one from a stream that keeps its chunks and ingesting it costs a
//! constant number of allocations (the store's map node) — never one per
//! row. The same holds for the WAL-replay arm of arrival on resume and for
//! handing the whole history to a cold retrain.
//!
//! This file holds exactly one `#[test]` so the counting global allocator
//! sees no interference from sibling tests running on other harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cdpipe::core::data_manager::DataManager;
use cdpipe::core::pipeline_manager::PipelineManager;
use cdpipe::datagen::taxi::{TaxiConfig, TaxiGenerator};
use cdpipe::eval::CostLedger;
use cdpipe::faults::NoFaults;
use cdpipe::obs::{Metrics, VirtualClock};
use cdpipe::prelude::*;
use cdpipe::storage::{RawChunk, Schema, WalDir, WalOptions, WalWriter};

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

/// A stream that generated its chunks up front and keeps them — the shape
/// of the benchmark's recorded stream and of any replayable source.
struct Retained {
    schema: Arc<Schema>,
    chunks: Vec<RawChunk>,
    initial: usize,
}

impl Retained {
    fn taxi(rows_per_chunk: usize, total: usize) -> Self {
        let generator = TaxiGenerator::new(TaxiConfig {
            rows_per_chunk,
            ..TaxiConfig::repo_scale()
        });
        Self {
            schema: generator.schema(),
            chunks: (0..total).map(|i| generator.chunk(i)).collect(),
            initial: 4,
        }
    }
}

impl ChunkStream for Retained {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn total_chunks(&self) -> usize {
        self.chunks.len()
    }

    fn initial_chunks(&self) -> usize {
        self.initial
    }

    fn chunk(&self, index: usize) -> RawChunk {
        self.chunks[index].clone()
    }
}

fn manager() -> DataManager {
    DataManager::new(StorageBudget::MaxChunks(8), SamplingStrategy::Uniform, 1)
}

/// What one arrival may allocate: the store's map node and nothing that
/// scales with the chunk. Measured 1 for the insert that opens a B-tree leaf
/// and 0 for the next ten; a copy of the rows would be 1001.
const ARRIVAL_ALLOCS: u64 = 3;

#[test]
fn an_arrival_allocates_nothing_per_row() {
    // Arrival from a retaining stream, at the benchmark's Taxi shape.
    let stream = Retained::taxi(1000, 6);
    let mut dm = manager();
    for index in [4, 5] {
        let ((), allocs) = measure(|| {
            let raw = stream.chunk(index);
            assert_eq!(raw.len(), 1000);
            dm.ingest_raw(raw).expect("unique timestamps");
        });
        assert!(
            allocs <= ARRIVAL_ALLOCS,
            "arrival of 1000-row chunk {index} made {allocs} allocations"
        );
    }

    // The WAL-replay arm of arrival: the recovered suffix hands out handles
    // too, so the store and the recovery share the rows they decoded once.
    let dir = std::env::temp_dir().join(format!("cdp-arrival-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = WalWriter::open(
        &dir,
        WalOptions::default(),
        Arc::new(NoFaults),
        Arc::new(VirtualClock::default()),
        Metrics::disabled(),
        0,
    )
    .expect("temp dir is writable");
    writer.append(0, &stream.chunk(4)).expect("append");
    writer.flush().expect("flush");
    let replay = WalDir::open(&dir)
        .and_then(|d| d.recover())
        .expect("recover");
    let mut resumed = manager();
    let ((), allocs) = measure(|| {
        let raw = replay.chunk(0).expect("seq 0 survived").clone();
        resumed.ingest_raw(raw).expect("unique timestamps");
    });
    assert!(
        allocs <= ARRIVAL_ALLOCS,
        "arrival of a replayed 1000-row chunk made {allocs} allocations"
    );
    assert_eq!(resumed.full_history()[0].0, stream.chunk(4));
    let _ = std::fs::remove_dir_all(&dir);

    // Retrain: the history comes out of the store as fifty handles (with
    // their kept columns), whatever the chunks hold, and a cold retrain
    // hands the raw ones to `initial_fit`.
    let history_allocs = |rows_per_chunk: usize| {
        let stream = Retained::taxi(rows_per_chunk, 50);
        let mut dm = manager();
        for index in 0..50 {
            dm.ingest_raw(stream.chunk(index))
                .expect("unique timestamps");
        }
        let (history, allocs) = measure(|| dm.full_history());
        assert_eq!(history.len(), 50);
        (history, allocs)
    };
    let (small, small_allocs) = history_allocs(10);
    let (large, large_allocs) = history_allocs(1000);
    assert_eq!(large[49].0.len(), 1000);
    assert_eq!(
        small_allocs, large_allocs,
        "the history of 10-row and of 1000-row chunks"
    );
    assert!(
        large_allocs <= 8,
        "a 50-chunk history made {large_allocs} allocations"
    );
    let (_, spec) = taxi_spec(SpecScale::Repo);
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let small: Vec<RawChunk> = small.into_iter().map(|(raw, _)| raw).collect();
    let (report, features) = pm.initial_fit(&small, &spec.sgd, &mut CostLedger::default());
    assert_eq!(features.len(), 50);
    assert!(report.steps > 0);
}
