//! Shared hot-path workloads for the engine benchmarks and the
//! wall-clock regression gate (`bench_gate`).
//!
//! Two shapes matter after the work-stealing/fusion rework:
//!
//! * **Fused vs unfused** — the re-materializing proactive step either
//!   materializes every sampled chunk into a `FeatureChunk` and feeds the
//!   union batch to the sharded step (old path), or streams each encoded
//!   point straight into the gradient accumulator (fused path). Same rows,
//!   same template pipeline clones; the difference is purely the
//!   intermediate buffers and the extra pass.
//! * **Stealing vs fixed shards** — a skewed per-item cost profile leaves
//!   fixed-shape shards with stragglers; the work-stealing queue
//!   rebalances them.

use cdp_core::serving::ModelServer;
use cdp_engine::{ExecutionEngine, RunCtx};
use cdp_faults::NoFaults;
use cdp_ml::LinearModel;
use cdp_ml::{FusedStepOutcome, LossKind, SgdConfig, SgdTrainer};
use cdp_pipeline::encode::DenseEncoder;
use cdp_pipeline::parser::SchemaParser;
use cdp_pipeline::scale::StandardScaler;
use cdp_pipeline::{Pipeline, PipelineBuilder};
use cdp_storage::{
    ChunkStore, ChunkStoreConfig, FeatureChunk, LabeledPoint, RawChunk, Record, RowView, Schema,
    StorageBudget, Timestamp, Value,
};

/// The proactive re-materialization workload: a warmed template pipeline
/// plus raw chunks that must be transformed before the gradient step.
pub struct FusedWorkload {
    template: Pipeline,
    raws: Vec<RawChunk>,
    config: SgdConfig,
}

fn pipeline() -> Pipeline {
    let schema = Schema::new(["y", "x"]);
    PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
        .add(StandardScaler::new())
        .encoder(DenseEncoder::new(1))
        .expect("static pipeline spec")
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

impl FusedWorkload {
    /// Builds `chunks` raw chunks of `rows` rows each behind a template
    /// pipeline whose component statistics are already warm.
    pub fn new(chunks: u64, rows: u64) -> Self {
        let raws: Vec<RawChunk> = (0..chunks).map(|t| chunk(t, rows)).collect();
        let mut template = pipeline();
        for raw in &raws {
            let _ = template.transform_chunk(raw);
        }
        Self {
            template,
            raws,
            config: SgdConfig::for_loss(LossKind::Squared),
        }
    }

    /// Old path: materialize every chunk, then step on the union batch.
    pub fn run_unfused(&self, engine: ExecutionEngine) -> Option<f64> {
        let mut trainer = SgdTrainer::new(1, &self.config);
        let chunks: Vec<_> = self
            .raws
            .iter()
            .map(|raw| {
                let mut local = self.template.clone();
                local.reset_counters();
                local.transform_chunk(raw)
            })
            .collect();
        let rows: Vec<RowView<'_>> = chunks.iter().flat_map(|c| c.rows()).collect();
        trainer.step_rows(&rows, engine)
    }

    /// Fused path: each source's slab rows fold straight into the gradient.
    pub fn run_fused(&self, engine: ExecutionEngine) -> FusedStepOutcome {
        let mut trainer = SgdTrainer::new(1, &self.config);
        trainer
            .try_step_fused(
                self.raws.len(),
                |i, sink: &mut dyn FnMut(RowView<'_>)| {
                    let mut local = self.template.clone();
                    local.reset_counters();
                    for row in local.transform_chunk(&self.raws[i]).rows() {
                        sink(row);
                    }
                },
                engine,
                &NoFaults,
                &RunCtx::default(),
            )
            .expect("no faults injected")
    }
}

/// Training-over-the-store workload for the regression gate: feature
/// chunks materialized in a (compacting) `ChunkStore`, consumed either
/// through zero-copy `RowView`s straight off the columnar slabs or by
/// materializing each chunk back into `Vec<LabeledPoint>` first — the v1
/// row layout's access pattern. Same rows, same step; the difference is
/// purely the per-point allocation and copy the row path pays.
pub struct StoreWorkload {
    store: ChunkStore,
    timestamps: Vec<Timestamp>,
    config: SgdConfig,
}

impl StoreWorkload {
    /// Stores `chunks` feature chunks of `rows` dense rows each under an
    /// unbounded budget with default compaction thresholds.
    pub fn new(chunks: u64, rows: u64) -> Self {
        let mut store =
            ChunkStore::with_config(StorageBudget::Unbounded, ChunkStoreConfig::default());
        let mut timestamps = Vec::with_capacity(chunks as usize);
        for t in 0..chunks {
            let points: Vec<LabeledPoint> = (0..rows)
                .map(|i| {
                    let x = (t * rows + i) as f64;
                    LabeledPoint::new(
                        2.0 * x + 1.0,
                        cdp_linalg::Vector::from(vec![1.0, x, (x * 0.5).sin()]),
                    )
                })
                .collect();
            store.put_raw(chunk(t, 0)).expect("unique timestamp");
            store
                .put_feature(FeatureChunk::new(Timestamp(t), Timestamp(t), points))
                .expect("raw present");
            timestamps.push(Timestamp(t));
        }
        Self {
            store,
            timestamps,
            config: SgdConfig::for_loss(LossKind::Squared),
        }
    }

    fn chunks(&self) -> Vec<std::sync::Arc<FeatureChunk>> {
        self.timestamps
            .iter()
            .map(|ts| self.store.peek_feature(*ts).expect("unbounded budget"))
            .collect()
    }

    /// Columnar path: every stored row streams into the step as a view.
    pub fn run_columnar(&self, engine: ExecutionEngine) -> Option<f64> {
        let mut trainer = SgdTrainer::new(3, &self.config);
        let chunks = self.chunks();
        let rows: Vec<RowView<'_>> = chunks.iter().flat_map(|c| c.rows()).collect();
        trainer.step_rows(&rows, engine)
    }

    /// Row path: re-materialize every chunk into owned points first.
    pub fn run_row(&self, engine: ExecutionEngine) -> Option<f64> {
        let mut trainer = SgdTrainer::new(3, &self.config);
        let points: Vec<LabeledPoint> = self.chunks().iter().flat_map(|c| c.to_points()).collect();
        let rows: Vec<RowView<'_>> = points.iter().map(RowView::Point).collect();
        trainer.step_rows(&rows, engine)
    }

    /// Compactions the store performed at ingest (sanity for the gate).
    pub fn compactions(&self) -> u64 {
        self.store.stats().compactions
    }
}

/// A deliberately skewed per-item cost: item `i` costs O(i) — the last
/// shard of a fixed partition carries most of the work.
pub fn skewed_item(i: usize) -> f64 {
    let mut acc = 0.0f64;
    for j in 0..(i + 1) * 8 {
        acc += ((i * 31 + j) as f64 * 1e-3).sqrt();
    }
    acc
}

/// Fixed-shape sharding baseline: split `0..n` into one contiguous shard
/// per worker and spawn a scoped thread for each — no rebalancing, the
/// widest shard is the critical path.
pub fn fixed_shard_map(n: usize, workers: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    let shard = n.div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        for (s, slot) in out.chunks_mut(shard).enumerate() {
            scope.spawn(move || {
                for (off, v) in slot.iter_mut().enumerate() {
                    *v = skewed_item(s * shard + off);
                }
            });
        }
    });
    out
}

/// The work-stealing path on the same skewed items.
pub fn stealing_map(engine: ExecutionEngine, n: usize) -> Vec<f64> {
    engine.map_indexed(n, skewed_item)
}

/// Serving hot path for the regression gate: a warmed server plus a fixed
/// query set, driven from one thread so the measurement is deterministic.
/// The interesting ratio is serve-while-publishing over serve-quiet — it
/// gates the cost the snapshot flip protocol imposes on readers.
pub struct ServingWorkload {
    server: ModelServer,
    pipeline: Pipeline,
    queries: Vec<Record>,
}

impl ServingWorkload {
    /// Builds a warmed single-shard server and `queries` well-formed rows.
    pub fn new(queries: usize) -> Self {
        let mut pipeline = pipeline();
        let warm = chunk(0, 64);
        pipeline.fit_transform_chunk(&warm);
        let mut model = LinearModel::zeros(pipeline.dim(), LossKind::Squared);
        for i in 0..pipeline.dim() {
            model.weights_mut().set(i, 1.0 + i as f64).expect("in dim");
        }
        let server = ModelServer::builder(pipeline.clone(), model.clone())
            .shards(1)
            .build();
        let queries = (0..queries)
            .map(|i| Record::new(vec![Value::Num(0.0), Value::Num(i as f64 * 0.17 - 3.0)]))
            .collect();
        Self {
            server,
            pipeline,
            queries,
        }
    }

    /// Serves every query once; no publishes.
    pub fn serve_quiet(&self) -> u64 {
        let mut served = 0;
        for q in &self.queries {
            if self.server.predict(q).is_some() {
                served += 1;
            }
        }
        served
    }

    /// Serves every query once, publishing a fresh `(pipeline, model)` pair
    /// every `every` queries — the deterministic stand-in for a proactive
    /// trainer firing mid-traffic.
    pub fn serve_with_publishes(&self, every: usize) -> u64 {
        let mut served = 0;
        let mut model = LinearModel::zeros(self.pipeline.dim(), LossKind::Squared);
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 && i % every.max(1) == 0 {
                model
                    .weights_mut()
                    .set(0, i as f64)
                    .expect("bias slot in dim");
                self.server.publish(self.pipeline.clone(), model.clone());
            }
            if self.server.predict(q).is_some() {
                served += 1;
            }
        }
        served
    }
}
