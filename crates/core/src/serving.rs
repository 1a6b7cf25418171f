//! Sharded, lock-free model serving: answering prediction queries in real
//! time while the platform keeps training.
//!
//! The deployment drivers in [`crate::deployment`] interleave serving and
//! training on one thread with simulated time; this module is the
//! wall-clock counterpart — the piece that makes the paper's claim
//! operational: because proactive training produces a new model in
//! milliseconds, `publish` is frequent and cheap, and queries never wait on
//! a retraining (§5.5).
//!
//! Two operations (DESIGN.md §14): [`ModelServer::publish`] hands every
//! shard one immutable `Arc<ServingSnapshot>` — a coherent
//! `(pipeline, model, version)` triple — and [`ModelServer::predict`] /
//! [`ModelServer::predict_batch`] score against whichever snapshot the
//! calling thread's shard holds. Each shard's publication cell is a ring of
//! epoch-pinned slots: readers never take a lock (pin a slot with an atomic
//! counter, re-check the current index, clone the `Arc`, unpin), and
//! publishers rotate to the next slot only after its pin count drains, so a
//! slot is never overwritten while a reader is cloning from it. A plain
//! `RwLock<Arc<ServingSnapshot>>` stood trial for the cell and lost on the
//! median `predict` (EXPERIMENTS.md, "The snapshot cell on trial").

use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdp_ml::LinearModel;
use cdp_obs::{Counter, Gauge, Histogram, Metrics};
use cdp_pipeline::{Pipeline, QueryScratch};
use cdp_storage::{Record, RowView};

/// A served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The model's raw margin (classification: sign is the class;
    /// regression: the predicted value).
    pub value: f64,
    /// Version of the `(pipeline, model)` pair that served the query.
    pub version: u64,
}

/// One immutable published `(pipeline, model, version)` triple.
///
/// Snapshots are never mutated after publication — readers share them via
/// `Arc`, so a query scored against a snapshot can never observe the
/// pipeline of one version and the model of another.
#[derive(Debug, Clone)]
pub struct ServingSnapshot {
    /// The transform-only pipeline of this version.
    pub pipeline: Pipeline,
    /// The model of this version, grown to the pipeline's output dimension.
    pub model: LinearModel,
    /// Monotonically increasing publication number (initial deploy = 1).
    pub version: u64,
}

pub use cdp_ml::model::weights_fingerprint;

/// Slots per shard ring. Two is the double buffer; two more absorb a
/// publish storm without the writer ever waiting on a reader that pinned
/// several versions ago.
const SNAPSHOT_SLOTS: usize = 4;

// A trainer's retired weight buffers cover a full ring plus one held
// snapshot, so a publish per step recycles instead of allocating.
const _: () = assert!(cdp_ml::model::RETIRED_BUFFERS == SNAPSHOT_SLOTS + 1);

struct SnapshotSlot {
    /// Readers currently between pin and unpin on this slot.
    pins: AtomicUsize,
    /// The slot's snapshot. Written only by the (externally serialized)
    /// publisher while `pins == 0` and the slot is not current.
    snap: UnsafeCell<Arc<ServingSnapshot>>,
}

/// A lock-free publication cell: a ring of [`SNAPSHOT_SLOTS`] snapshot
/// slots plus the current index.
///
/// **Reader protocol** (`load`): read `current`, pin that slot
/// (`pins += 1`), re-read `current`; if unchanged, clone the slot's `Arc`
/// and unpin, else unpin and retry. Wait-free in practice: a retry needs a
/// concurrent publish between the two reads, and the publisher must lap the
/// whole ring before reusing the observed slot.
///
/// **Writer protocol** (`store`, callers serialized by the server's publish
/// mutex): pick `next = (current + 1) % SLOTS`, spin until
/// `pins(next) == 0`, overwrite the slot, then flip `current`.
///
/// Memory reclamation argument: the slot's old `Arc` is dropped by the
/// overwrite, but the snapshot it points to is freed only when the last
/// reader clone drops — the pin protects the *read of the `Arc` cell
/// itself*, not the snapshot lifetime. A reader holding a pin either saw
/// `current == slot` after pinning (so the publisher — which flips
/// `current` away before the slot can become a write target again, and
/// waits for `pins == 0` before writing) cannot be overwriting it, or it
/// observes the moved `current` on the re-check and retries without
/// touching the cell. All operations are `SeqCst`, so "pin then re-check"
/// and "wait-for-drain then write then flip" cannot reorder.
struct SnapshotCell {
    current: AtomicUsize,
    slots: [SnapshotSlot; SNAPSHOT_SLOTS],
}

// SAFETY: the `UnsafeCell` is only read while its slot is pinned and only
// written by an externally serialized publisher after the pin count drains
// (see the protocol above), so there is never a concurrent read/write of
// the cell contents. `Arc<ServingSnapshot>` itself is Send + Sync.
unsafe impl Send for SnapshotCell {}
// SAFETY: as above — shared access is coordinated by the pin/flip protocol.
unsafe impl Sync for SnapshotCell {}

impl SnapshotCell {
    fn new(initial: &Arc<ServingSnapshot>) -> Self {
        Self {
            current: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| SnapshotSlot {
                pins: AtomicUsize::new(0),
                snap: UnsafeCell::new(Arc::clone(initial)),
            }),
        }
    }

    /// Lock-free coherent read of the current snapshot.
    fn load(&self) -> Arc<ServingSnapshot> {
        loop {
            let i = self.current.load(Ordering::SeqCst);
            self.slots[i].pins.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == i {
                // SAFETY: the slot is pinned and `current` still points at
                // it, so per the writer protocol no publisher is writing
                // this cell until our unpin below is visible.
                let snap = unsafe { (*self.slots[i].snap.get()).clone() };
                self.slots[i].pins.fetch_sub(1, Ordering::SeqCst);
                return snap;
            }
            // A publish moved on while we pinned; retry on the new slot.
            self.slots[i].pins.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publishes a new snapshot. Callers must be serialized (the server
    /// holds its publish mutex); readers are never blocked.
    fn store(&self, snap: Arc<ServingSnapshot>) {
        let cur = self.current.load(Ordering::SeqCst);
        let next = (cur + 1) % SNAPSHOT_SLOTS;
        // Drain stragglers still pinned on the target slot. Pins last for
        // one `Arc` clone, so this wait is nanoseconds; a reader can only
        // still be pinned here if it read `current == next` a full ring
        // rotation ago and has not yet re-checked.
        let mut spins = 0u32;
        while self.slots[next].pins.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: the slot is not `current` (the publisher has not flipped
        // yet and publishers are serialized) and its pin count is zero, so
        // no reader is inside the cell; any reader that pins from now on
        // re-checks `current`, finds it ≠ `next` until the flip below, and
        // retries without reading the cell.
        unsafe {
            *self.slots[next].snap.get() = snap;
        }
        self.current.store(next, Ordering::SeqCst);
    }
}

/// Shards per server. More shards spread reader pins and served/rejected
/// counters; publishes touch every shard.
const SHARDS: usize = 4;

struct Shard {
    cell: SnapshotCell,
    served: AtomicU64,
    rejected: AtomicU64,
}

/// Cached cdp-obs handles: resolved once at construction so the hot path
/// never takes the registry's name-resolution lock.
struct ServerMetrics {
    /// Whether the registry records; latency is timed only if it does.
    enabled: bool,
    served: Counter,
    rejected: Counter,
    publishes: Counter,
    latency: Histogram,
    version: Gauge,
}

impl ServerMetrics {
    fn resolve(metrics: &Metrics) -> Self {
        Self {
            enabled: metrics.is_enabled(),
            served: metrics.counter("serving.served"),
            rejected: metrics.counter("serving.rejected"),
            publishes: metrics.counter("serving.publishes"),
            latency: metrics.histogram("serving.latency_secs"),
            version: metrics.gauge("serving.version"),
        }
    }
}

struct ServerInner {
    shards: [Shard; SHARDS],
    /// Latest published version (readers see per-shard versions via their
    /// snapshots; this is the publisher-side source of truth).
    version: AtomicU64,
    obs: ServerMetrics,
    /// Serializes publishers; readers never touch it.
    publish_mu: Mutex<()>,
    /// Queries handed to scoring (`predict` calls + `predict_batch` entries).
    attempts: AtomicU64,
}

/// A sharded, lock-free serving front over a deployed pipeline + model.
///
/// Cloning the server is cheap (it is an `Arc` handle); clones share the
/// deployed snapshots, so one thread can [`publish`](ModelServer::publish)
/// while others [`predict`](ModelServer::predict). Readers are lock-free:
/// `predict` pins an epoch slot, clones the current snapshot `Arc`, and
/// scores against that immutable triple — a concurrent publish can never
/// tear the `(pipeline, model, version)` a query observes.
///
/// Each calling thread is sticky to one shard (round-robin assignment on
/// first use), so per-thread version observations are monotone and shard
/// counters stay contention-free.
///
/// ### Accounting invariant
///
/// `attempts() == queries_served() + queries_rejected()` — every query
/// handed to scoring is counted exactly once, in exactly one bucket, and
/// the `serving.served` / `serving.rejected` cdp-obs counters mirror the
/// two buckets exactly (when metrics are enabled).
#[derive(Clone)]
pub struct ModelServer {
    inner: Arc<ServerInner>,
}

impl fmt::Debug for ModelServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelServer")
            .field("version", &self.version())
            .field("shards", &SHARDS)
            .finish()
    }
}

/// Scores one record against one snapshot: the single scoring function
/// shared by `predict` and the batched path, so batched results are
/// bit-identical to unbatched ones by construction. `None` = rejected
/// (malformed/filtered record, or — defensively — a feature vector wider
/// than the snapshot's weights, which `publish`'s `grow_to` makes
/// unreachable but which must reject rather than score against weights the
/// snapshot does not have).
///
/// The pipeline runs in the calling thread's [`QueryScratch`] and the margin
/// is taken from the encoded row in place (`dot_padded` on a row the weights
/// cover is `margin_ref` on its point, bit for bit), so a warm thread
/// allocates nothing; thread teardown or re-entry gets a fresh scratch.
fn score_raw(snap: &ServingSnapshot, record: &Record) -> Option<f64> {
    thread_local! {
        static SCRATCH: RefCell<QueryScratch> = RefCell::default();
    }
    let score = |scratch: &mut QueryScratch| {
        let margin = |row: RowView<'_>| {
            (row.dim() <= snap.model.dim()).then(|| row.dot_padded(snap.model.weights()))
        };
        snap.pipeline.query(record, scratch, margin).flatten()
    };
    let kept = SCRATCH.try_with(|cell| cell.try_borrow_mut().ok().map(|mut s| score(&mut s)));
    match kept {
        Ok(Some(scored)) => scored,
        _ => score(&mut QueryScratch::default()),
    }
}

impl ModelServer {
    /// Deploys the initial `(pipeline, model)` pair as version 1, with
    /// metrics disabled.
    pub fn new(pipeline: Pipeline, model: LinearModel) -> Self {
        Self::observed(pipeline, model, Metrics::disabled())
    }

    /// Deploys the initial `(pipeline, model)` pair as version 1, recording
    /// the `serving.*` series into `metrics`.
    pub fn observed(pipeline: Pipeline, mut model: LinearModel, metrics: Metrics) -> Self {
        model.grow_to(pipeline.dim());
        let initial = Arc::new(ServingSnapshot {
            pipeline,
            model,
            version: 1,
        });
        let shards = std::array::from_fn(|_| Shard {
            cell: SnapshotCell::new(&initial),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let obs = ServerMetrics::resolve(&metrics);
        obs.version.set(1.0);
        ModelServer {
            inner: Arc::new(ServerInner {
                shards,
                version: AtomicU64::new(1),
                obs,
                publish_mu: Mutex::new(()),
                attempts: AtomicU64::new(0),
            }),
        }
    }

    /// The calling thread's sticky shard (round-robin on first use).
    fn shard(&self) -> &Shard {
        static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static THREAD_SLOT: std::cell::Cell<usize> =
                const { std::cell::Cell::new(usize::MAX) };
        }
        let slot = THREAD_SLOT.with(|s| {
            let mut v = s.get();
            if v == usize::MAX {
                v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                s.set(v);
            }
            v
        });
        &self.inner.shards[slot % SHARDS]
    }

    /// The calling thread's current snapshot — a coherent immutable
    /// `(pipeline, model, version)` triple, obtained without locking.
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.shard().cell.load()
    }

    /// Answers one prediction query against the current snapshot, without
    /// taking any lock. Returns `None` (and counts a rejection) when the
    /// record is malformed or filtered out by a pipeline cleaning stage.
    pub fn predict(&self, record: &Record) -> Option<Prediction> {
        let shard = self.shard();
        let snap = shard.cell.load();
        self.inner.attempts.fetch_add(1, Ordering::Relaxed);
        self.serve(shard, &snap, record)
    }

    /// Scores a slice of records on the calling thread against one coherent
    /// snapshot. Outcome per record is exactly what
    /// [`ModelServer::predict`] would return under the same snapshot.
    pub fn predict_batch(&self, records: &[Record]) -> Vec<Option<Prediction>> {
        let shard = self.shard();
        let snap = shard.cell.load();
        let n = records.len() as u64;
        self.inner.attempts.fetch_add(n, Ordering::Relaxed);
        records
            .iter()
            .map(|record| self.serve(shard, &snap, record))
            .collect()
    }

    /// Scores one record, times it when metrics are on, and books the
    /// outcome into the serve/reject counters.
    fn serve(&self, shard: &Shard, snap: &ServingSnapshot, record: &Record) -> Option<Prediction> {
        let obs = &self.inner.obs;
        let started = obs.enabled.then(Instant::now);
        match score_raw(snap, record) {
            Some(value) => {
                if let Some(started) = started {
                    obs.latency.observe(started.elapsed().as_secs_f64());
                }
                shard.served.fetch_add(1, Ordering::Relaxed);
                obs.served.inc();
                Some(Prediction {
                    value,
                    version: snap.version,
                })
            }
            None => {
                shard.rejected.fetch_add(1, Ordering::Relaxed);
                obs.rejected.inc();
                None
            }
        }
    }

    /// Atomically publishes an updated `(pipeline, model)` pair (e.g. after
    /// a proactive-training instance) to every shard and returns the new
    /// version number. Readers are never blocked: each shard's snapshot
    /// cell rotates to its next epoch slot. A reader thread observes
    /// versions monotonically (it is sticky to one shard, and each shard's
    /// cell moves only forward).
    pub fn publish(&self, pipeline: Pipeline, mut model: LinearModel) -> u64 {
        model.grow_to(pipeline.dim());
        let guard = self
            .inner
            .publish_mu
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let version = self.inner.version.load(Ordering::Relaxed) + 1;
        let snap = Arc::new(ServingSnapshot {
            pipeline,
            model,
            version,
        });
        for shard in &self.inner.shards {
            shard.cell.store(Arc::clone(&snap));
        }
        self.inner.version.store(version, Ordering::SeqCst);
        drop(guard);
        self.inner.obs.publishes.inc();
        self.inner.obs.version.set(version as f64);
        version
    }

    /// Latest published version.
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::SeqCst)
    }

    /// Queries answered so far (sum over shards).
    pub fn queries_served(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.served.load(Ordering::Relaxed))
            .sum()
    }

    /// Malformed/filtered queries rejected so far (sum over shards).
    pub fn queries_rejected(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.rejected.load(Ordering::Relaxed))
            .sum()
    }

    /// Queries handed to scoring (served + rejected) — the accounting
    /// invariant's left-hand side.
    pub fn attempts(&self) -> u64 {
        self.inner.attempts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use cdp_engine::ExecutionEngine;
    use cdp_ml::{LossKind, SgdConfig, SgdTrainer};
    use cdp_pipeline::encode::DenseEncoder;
    use cdp_pipeline::parser::SchemaParser;
    use cdp_pipeline::scale::StandardScaler;
    use cdp_pipeline::PipelineBuilder;
    use cdp_storage::{ColumnSlab, RawChunk, Schema, Timestamp, Value};

    fn pipeline() -> Pipeline {
        let schema = Schema::new(["y", "x"]);
        let built = PipelineBuilder::new(SchemaParser::new(schema, "y", &["x"], None))
            .add(StandardScaler::new())
            .encoder(DenseEncoder::new(1));
        match built {
            Ok(p) => p,
            Err(e) => panic!("components are incremental: {e}"),
        }
    }

    fn warmed_pipeline() -> Pipeline {
        let mut p = pipeline();
        let records = (0..8)
            .map(|i| Record::new(vec![Value::Num(i as f64), Value::Num(i as f64)]))
            .collect();
        p.fit_transform_chunk(&RawChunk::new(Timestamp(0), records));
        p
    }

    fn record(x: f64) -> Record {
        Record::new(vec![Value::Num(0.0), Value::Num(x)])
    }

    #[test]
    fn serves_predictions_and_counts() {
        let model = LinearModel::zeros(2, LossKind::Squared);
        let server = ModelServer::new(warmed_pipeline(), model);
        let p = server.predict(&record(1.0)).expect("valid query");
        assert_eq!(p.version, 1);
        assert_eq!(server.queries_served(), 1);

        // Malformed query counts as rejected — and the accounting invariant
        // holds exactly: every attempt lands in exactly one bucket.
        assert!(server
            .predict(&Record::new(vec![Value::Text("bad".into())]))
            .is_none());
        assert_eq!(server.queries_rejected(), 1);
        assert_eq!(
            server.attempts(),
            server.queries_served() + server.queries_rejected()
        );
    }

    #[test]
    fn publish_bumps_version_and_changes_predictions() {
        let server = ModelServer::new(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
        let before = server.predict(&record(2.0)).expect("valid");
        assert_eq!(before.value, 0.0);

        let trained = LinearModel::with_weights(vec![1.0, 0.0], LossKind::Squared);
        let v = server.publish(warmed_pipeline(), trained);
        assert_eq!(v, 2);
        let after = server.predict(&record(2.0)).expect("valid");
        assert_eq!(after.version, 2);
        assert_ne!(after.value, before.value);
    }

    #[test]
    fn concurrent_queries_during_publishes() {
        let server = ModelServer::new(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = server.clone();
                std::thread::spawn(move || {
                    let mut last_version = 0;
                    for i in 0..500 {
                        let p = s.predict(&record(i as f64)).expect("valid query");
                        // Versions move forward, never backward.
                        assert!(p.version >= last_version);
                        last_version = p.version;
                    }
                    last_version
                })
            })
            .collect();
        // Publisher thread: keep deploying new versions while readers run.
        let publisher = {
            let s = server.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    s.publish(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
                }
            })
        };
        publisher.join().expect("publisher lives");
        for r in readers {
            let last = r.join().expect("reader lives");
            assert!(last >= 1);
        }
        assert_eq!(server.queries_served(), 4 * 500);
        assert_eq!(server.version(), 51);
    }

    #[test]
    fn snapshot_is_coherent_and_lock_free_reads_see_published_pairs() {
        let server = ModelServer::new(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));
        let snap = server.snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.model.dim(), snap.pipeline.dim());

        let trained = LinearModel::with_weights(vec![3.0, 0.0], LossKind::Squared);
        server.publish(warmed_pipeline(), trained);
        let snap = server.snapshot();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.model.weights().as_slice()[0], 3.0);
    }

    #[test]
    fn batched_scoring_matches_unbatched_bit_for_bit() {
        let trained = LinearModel::with_weights(vec![0.25, -1.5], LossKind::Squared);
        let server = ModelServer::new(warmed_pipeline(), trained);
        let records: Vec<Record> = (0..17).map(|i| record(i as f64 * 0.37 - 3.0)).collect();
        let unbatched: Vec<_> = records.iter().map(|r| server.predict(r)).collect();
        let batched = server.predict_batch(&records);
        for (u, b) in unbatched.iter().zip(&batched) {
            match (u, b) {
                (Some(a), Some(c)) => {
                    assert_eq!(a.value.to_bits(), c.value.to_bits());
                    assert_eq!(a.version, c.version);
                }
                (a, c) => assert_eq!(a.is_none(), c.is_none()),
            }
        }
        assert_eq!(server.attempts(), 2 * records.len() as u64);
    }

    #[test]
    fn serving_metrics_reconcile_with_server_counters() {
        let metrics = Metrics::collecting();
        let server = ModelServer::observed(
            warmed_pipeline(),
            LinearModel::zeros(2, LossKind::Squared),
            metrics.clone(),
        );
        for i in 0..7 {
            let _ = server.predict(&record(i as f64));
        }
        let bad = Record::new(vec![Value::Text("bad".into())]);
        let _ = server.predict(&bad);
        let _ = server.predict_batch(&[record(0.5), bad, record(-1.0)]);
        server.publish(warmed_pipeline(), LinearModel::zeros(2, LossKind::Squared));

        let snap = metrics.snapshot();
        assert_eq!(server.queries_served(), 9);
        assert_eq!(server.queries_rejected(), 2);
        assert_eq!(snap.counter("serving.served"), server.queries_served());
        assert_eq!(snap.counter("serving.rejected"), server.queries_rejected());
        assert_eq!(snap.counter("serving.publishes"), 1);
        assert_eq!(snap.gauge("serving.version"), 2.0);
        let lat = snap.histogram("serving.latency_secs").expect("latencies");
        assert_eq!(lat.count, server.queries_served());
        // Scoring records nothing but the server's own series: a batch runs
        // on the caller's thread, not through an engine map.
        let names: Vec<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .collect();
        assert!(
            names.iter().all(|name| name.starts_with("serving.")),
            "{names:?}"
        );
    }

    #[test]
    fn a_held_snapshot_outlives_publishes_and_is_freed_when_dropped() {
        let weighted = |w: f64| LinearModel::with_weights(vec![0.0, w], LossKind::Squared);
        let server = ModelServer::new(warmed_pipeline(), weighted(7.0));
        let probe = record(2.5);
        let first = server.predict(&probe).expect("valid query");
        let held = server.snapshot();
        let held_weights = held.model.weights().clone();

        // The thread holding `held` is the one publishing: a publish that
        // waited for readers to let go of a snapshot would never return.
        for i in 0..100 {
            server.publish(warmed_pipeline(), weighted(i as f64));
        }
        assert_eq!(server.version(), 101);

        // The held triple is still version 1's, bit for bit.
        assert_eq!(held.version, 1);
        assert_eq!(held.model.weights(), &held_weights);
        let again = score_raw(&held, &probe).expect("valid query");
        assert_eq!(again.to_bits(), first.value.to_bits());
        assert_ne!(server.predict(&probe).expect("valid").value, first.value);

        // No shard refers to version 1 any more: ours is the last reference,
        // and dropping it frees the snapshot.
        assert_eq!(Arc::strong_count(&held), 1);
        let weak = Arc::downgrade(&held);
        drop(held);
        assert!(weak.upgrade().is_none());
        // The current snapshot is referenced once per shard, plus ours.
        let current = server.snapshot();
        assert_eq!(current.version, 101);
        assert_eq!(Arc::strong_count(&current), SHARDS + 1);
    }

    #[test]
    fn a_published_model_never_changes_and_training_cycles_a_bounded_set_of_buffers() {
        let pipeline = warmed_pipeline();
        let config = SgdConfig::for_loss(LossKind::Squared);
        let slab = ColumnSlab::dense(
            vec![1.0, -2.0, 0.5, 3.0],
            vec![vec![1.0; 4], vec![0.5, -1.0, 2.0, 0.25]],
        );
        let rows: Vec<RowView<'_>> = (0..slab.len()).map(|i| slab.row(i)).collect();
        let step = |t: &mut SgdTrainer| t.step_rows(&rows, ExecutionEngine::Sequential);
        let address = |t: &SgdTrainer| t.model().weights().as_ptr();

        // No server: nothing shares the weights, so every sweep is in place.
        let mut alone = SgdTrainer::new(pipeline.dim(), &config);
        let home = address(&alone);
        for _ in 0..20 {
            step(&mut alone);
            assert_eq!(address(&alone), home);
        }

        // Published after every step, with one snapshot held throughout.
        let mut trainer = SgdTrainer::new(pipeline.dim(), &config);
        step(&mut trainer);
        let server = ModelServer::new(pipeline.clone(), trainer.model().clone());
        let held = server.snapshot();
        let held_bits: Vec<u64> = held.model.weights().iter().map(|w| w.to_bits()).collect();
        let held_fp = held.model.fingerprint();
        let mut buffers = BTreeSet::from([address(&trainer)]);
        for round in 0..4 * SNAPSHOT_SLOTS {
            step(&mut trainer);
            assert_eq!(trainer.model(), &alone_after(round + 2, &rows, &config));
            buffers.insert(address(&trainer));
            server.publish(pipeline.clone(), trainer.model().clone());
            let now: Vec<u64> = held.model.weights().iter().map(|w| w.to_bits()).collect();
            assert_eq!(now, held_bits, "round {round}");
            assert_eq!(held.model.fingerprint(), held_fp);
            assert_eq!(weights_fingerprint(held.model.weights()), held_fp);
        }
        // The ring's snapshots and the held one are each some buffer, and
        // the trainer writes into one more: recycled, within the bound.
        let bound = SNAPSHOT_SLOTS + 1..=cdp_ml::model::RETIRED_BUFFERS + 1;
        assert!(bound.contains(&buffers.len()), "{} buffers", buffers.len());
    }

    /// The model after `steps` steps on `rows` of a trainer nothing shares.
    fn alone_after(steps: usize, rows: &[RowView<'_>], config: &SgdConfig) -> LinearModel {
        let mut t = SgdTrainer::new(2, config);
        for _ in 0..steps {
            t.step_rows(rows, ExecutionEngine::Sequential);
        }
        t.model().clone()
    }
}
