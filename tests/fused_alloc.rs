//! Allocation accounting for the fused transform+gradient pass: the fused
//! step folds each source's transient slab as soon as it exists and never
//! gathers a union batch, so for the same workload it keeps less memory
//! alive at its peak than the materialize-then-step path it replaced, by at
//! least the slabs it does not retain — and on a warm trainer it allocates
//! no gradient buffer at all, dense or sparse.
//!
//! This file holds exactly one `#[test]` so the counting global allocator
//! sees no interference from sibling tests running on other harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use cdpipe::engine::{ExecutionEngine, RunCtx};
use cdpipe::faults::NoFaults;
use cdpipe::ml::{LossKind, SgdConfig, SgdTrainer};
use cdpipe::pipeline::encode::DenseEncoder;
use cdpipe::pipeline::parser::SchemaParser;
use cdpipe::pipeline::scale::StandardScaler;
use cdpipe::pipeline::{Pipeline, PipelineBuilder};
use cdpipe::storage::{
    ColumnSlab, CsrBuilder, FeatureChunk, RawChunk, Record, RowView, Schema, Timestamp, Value,
};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed since counting was switched on, and the
/// most that ever was.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn track_live(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            track_live(layout.size() as i64);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            track_live(-(layout.size() as i64));
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            track_live(new_size as i64 - layout.size() as i64);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns (result, allocs, bytes).
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// The most bytes live at once during the last [`measure`].
fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

fn pipeline() -> Pipeline {
    let schema = Schema::new(["y", "x"]);
    PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
        .add(StandardScaler::new())
        .encoder(DenseEncoder::new(1))
        .unwrap()
}

fn chunk(ts: u64, rows: u64) -> RawChunk {
    RawChunk::new(
        Timestamp(ts),
        (0..rows)
            .map(|i| {
                let x = (ts * rows + i) as f64;
                Record::new(vec![Value::Num(2.0 * x + 1.0), Value::Num(x)])
            })
            .collect(),
    )
}

#[test]
fn fused_step_allocates_less_than_materialize_then_step() {
    let engine = ExecutionEngine::Sequential;
    let config = SgdConfig::for_loss(LossKind::Squared);
    let raws: Vec<RawChunk> = (0..4).map(|t| chunk(t, 64)).collect();

    // Warm one shared template pipeline (component statistics) outside the
    // measured region, exactly as a deployment would have by proactive time.
    let mut template = pipeline();
    for raw in &raws {
        let _ = template.transform_chunk(raw);
    }

    // Unfused baseline: re-materialize every chunk into a FeatureChunk, then
    // feed the union batch to the sharded step.
    let mut unfused_trainer = SgdTrainer::new(1, &config);
    let ((), unfused_allocs, unfused_bytes) = measure(|| {
        let chunks: Vec<_> = raws
            .iter()
            .map(|raw| {
                let mut local = template.clone();
                local.reset_counters();
                local.transform_chunk(raw)
            })
            .collect();
        let batch: Vec<RowView<'_>> = chunks.iter().flat_map(|c| c.rows()).collect();
        let loss = unfused_trainer.step_rows(&batch, engine);
        assert!(loss.is_some());
    });
    let unfused_peak = peak_bytes();

    // Fused path: same template clones, same rows, but each source's slab
    // rows fold into the gradient inside the source's own task.
    let mut fused_trainer = SgdTrainer::new(1, &config);
    let (outcome, fused_allocs, fused_bytes) = measure(|| {
        fused_trainer
            .try_step_fused(
                raws.len(),
                |i, sink: &mut dyn FnMut(&ColumnSlab)| {
                    let mut local = template.clone();
                    local.reset_counters();
                    sink(local.transform_chunk(&raws[i]).slab());
                },
                engine,
                &NoFaults,
                &RunCtx::default(),
            )
            .expect("fused step")
    });
    let fused_peak = peak_bytes();

    assert!(outcome.loss.is_some());
    assert_eq!(outcome.points, 4 * 64);

    // Both paths build one column slab per source (a handful of column
    // allocations each, none per row), so the bytes allocated in total land
    // close together. The structural difference is what stays alive: the
    // unfused path holds every source's slab (labels, bias and one feature
    // column here) until the union batch of row views has been stepped,
    // while the fused pass drops each slab with its source's task. Its peak
    // must therefore sit below the unfused one by at least the slabs it
    // does not retain (the union batch it also skips pays for its
    // per-source partials and reduce levels).
    let slab_bytes = 64 * 3 * std::mem::size_of::<f64>();
    let retained_floor = ((raws.len() - 1) * slab_bytes) as u64;
    assert!(
        fused_peak + retained_floor <= unfused_peak,
        "fused path must not retain the other sources' slabs: \
         peak fused {fused_peak} + floor {retained_floor} vs unfused {unfused_peak} \
         (bytes: fused {fused_bytes}, unfused {unfused_bytes}; \
         allocs: fused {fused_allocs}, unfused {unfused_allocs})"
    );
    // 64 rows a source, yet nowhere near one allocation per row.
    assert!(
        fused_allocs < raws.len() as u64 * 32,
        "fused step made {fused_allocs} allocations for {} sources",
        raws.len()
    );

    // A second fused step on the warm trainer reuses pooled gradient
    // buffers instead of allocating fresh ones.
    let (_, _, warm_bytes) = measure(|| {
        fused_trainer
            .try_step_fused(
                raws.len(),
                |i, sink: &mut dyn FnMut(&ColumnSlab)| {
                    let mut local = template.clone();
                    local.reset_counters();
                    sink(local.transform_chunk(&raws[i]).slab());
                },
                engine,
                &NoFaults,
                &RunCtx::default(),
            )
            .expect("warm fused step")
    });
    // The cold step's partials outgrew the one-wide model, so none it
    // released could serve it again: four were allocated, one a source. The
    // warm step took all four back out of the pool and allocated none.
    assert_eq!(fused_trainer.scratch_counters(), (4, 4));
    assert!(
        warm_bytes <= fused_bytes,
        "warm scratch pool should not allocate more than the cold one: {warm_bytes} vs {fused_bytes}"
    );

    sparse_fires_allocate_no_gradient_buffer();
}

/// The URL shape: 8 stored chunks of 40 hashed rows (28 non-zeros each) at
/// 2^16 dimensions. The engine folds each source's partial as it is
/// produced, so a cold fire allocates ⌊log₂ 8⌋ + 1 = 4 model-wide buffers,
/// not one per source. A fire on a warm trainer must not allocate — or
/// zero-fill its way through — a single one: what it still allocates (the
/// fold's block stack, a touched list outgrowing the one it recycled) stays
/// far below one of them.
fn sparse_fires_allocate_no_gradient_buffer() {
    const DIM: usize = 1 << 16;
    let chunks: Vec<FeatureChunk> = (0..8u64)
        .map(|ts| {
            let mut rows = CsrBuilder::reusing(None, DIM, 40, 40 * 28);
            for row in 0..40u64 {
                let start = (ts * 40 + row) * 37 % (DIM as u64 - 28 * 61);
                let mut entries: Vec<(u32, f64)> =
                    (0..28).map(|k| ((start + k * 61) as u32, 1.0)).collect();
                let label = if row % 2 == 0 { 1.0 } else { -1.0 };
                rows.push_row(label, &mut entries);
            }
            FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), Arc::new(rows.finish()))
        })
        .collect();
    let mut trainer = SgdTrainer::new(DIM, &SgdConfig::for_loss(LossKind::Hinge));
    let fire = |trainer: &mut SgdTrainer| {
        measure(|| {
            trainer
                .try_step_fused(
                    chunks.len(),
                    |i, sink: &mut dyn FnMut(&ColumnSlab)| sink(chunks[i].slab()),
                    ExecutionEngine::Sequential,
                    &NoFaults,
                    &RunCtx::default(),
                )
                .expect("sparse fused step")
        })
    };
    let one_buffer = (DIM * std::mem::size_of::<f64>()) as u64;
    let (cold, _, cold_bytes) = fire(&mut trainer);
    assert_eq!(cold.points, 8 * 40);
    assert!(
        (4 * one_buffer..5 * one_buffer).contains(&cold_bytes),
        "a cold sparse fire allocated {cold_bytes} bytes"
    );
    assert_eq!(trainer.scratch_counters(), (4, 4));
    for warm in 1..=3 {
        let (_, _, warm_bytes) = fire(&mut trainer);
        assert_eq!(trainer.scratch_counters(), (4 + 8 * warm, 4));
        assert!(
            warm_bytes < one_buffer / 8,
            "warm sparse fire {warm} allocated {warm_bytes} bytes"
        );
    }
}
