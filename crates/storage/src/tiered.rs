//! Two-tier feature storage: in-memory cache over a binary disk tier.
//!
//! The paper's dynamic materialization *recomputes* evicted feature chunks
//! through the pipeline. [`TieredStore`] implements the natural systems
//! alternative — *spill* evicted chunks to disk and read them back — so the
//! two recovery strategies can be compared (the "spill vs recompute"
//! ablation; whether a disk read beats a pipeline re-transformation depends
//! on the pipeline's cost per row and the device bandwidth). Lookups report
//! which tier served the chunk so the cost ledger can charge memory traffic,
//! disk traffic, or a recomputation accordingly.

use std::sync::Arc;

use cdp_faults::{FaultHook, NoFaults, RetryPolicy};
use cdp_obs::{LineageEventKind, Metrics};

use crate::chunk::{FeatureChunk, RawChunk, Timestamp};
use crate::disk::DiskTier;
use crate::store::{ChunkStore, FeatureSource, StorageBudget, StoreStats};
use crate::StorageError;

/// Counters for the tiered store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieredStats {
    /// Lookups served from memory.
    pub memory_hits: u64,
    /// Lookups served from disk.
    pub disk_hits: u64,
    /// Lookups that fell through to recomputation.
    pub recomputes: u64,
    /// Chunks spilled to disk on eviction.
    pub spills: u64,
    /// Lookups whose spilled chunk was unreadable past every retry and fell
    /// through to recomputation instead of erroring.
    pub read_fallbacks: u64,
    /// Evictions whose spill write failed past every retry; the chunk stays
    /// recomputable from its raw data, so the failure is absorbed.
    pub lost_spills: u64,
}

/// An in-memory [`ChunkStore`] whose evictions spill to an optional
/// [`DiskTier`].
///
/// The store never lets a disk failure escape a lookup: an unreadable or
/// corrupt spill (past the tier's retry budget) falls through to
/// [`FeatureSource::Raw`] — the raw chunk is the ground truth, so the
/// pipeline can always re-materialize — and a failed spill write is absorbed
/// the same way. Both are counted in [`TieredStats`] and reported to the
/// [`FaultHook`] so recovery is observable, not silent.
#[derive(Debug)]
pub struct TieredStore {
    memory: ChunkStore,
    disk: Option<DiskTier>,
    hook: Arc<dyn FaultHook>,
    stats: TieredStats,
    metrics: Metrics,
}

impl TieredStore {
    /// Creates a tiered store with the given memory budget, spilling into
    /// `disk_dir`.
    ///
    /// # Errors
    /// I/O errors creating the disk directory.
    pub fn open(
        budget: StorageBudget,
        disk_dir: impl AsRef<std::path::Path>,
    ) -> Result<Self, StorageError> {
        Self::open_with_hook(budget, disk_dir, Arc::new(NoFaults), RetryPolicy::default())
    }

    /// Creates a tiered store whose disk I/O consults `hook` per attempt.
    ///
    /// # Errors
    /// I/O errors creating the disk directory.
    pub fn open_with_hook(
        budget: StorageBudget,
        disk_dir: impl AsRef<std::path::Path>,
        hook: Arc<dyn FaultHook>,
        retry: RetryPolicy,
    ) -> Result<Self, StorageError> {
        Ok(Self {
            memory: ChunkStore::new(budget),
            disk: Some(DiskTier::open_with_hook(
                disk_dir,
                Arc::clone(&hook),
                retry,
            )?),
            hook,
            stats: TieredStats::default(),
            metrics: Metrics::disabled(),
        })
    }

    /// Creates a store with no disk tier: evicted chunks are dropped and
    /// later lookups recompute them — the paper's pure dynamic
    /// materialization (§3.2).
    pub fn memory_only(budget: StorageBudget) -> Self {
        Self {
            memory: ChunkStore::new(budget),
            disk: None,
            hook: Arc::new(NoFaults),
            stats: TieredStats::default(),
            metrics: Metrics::disabled(),
        }
    }

    /// Routes the store's tier counters (`store.*`) — and, when a disk tier
    /// exists, its I/O counters and latency histograms — into `metrics`.
    /// [`TieredStats`] keeps accumulating independently.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        if let Some(disk) = self.disk.as_mut() {
            disk.set_metrics(metrics.clone());
        }
        self.metrics = metrics;
    }

    /// Stores a raw chunk (the memory tier keeps all raw history).
    ///
    /// # Errors
    /// Duplicate timestamps.
    pub fn put_raw(&mut self, chunk: RawChunk) -> Result<(), StorageError> {
        let ts = chunk.timestamp.0;
        self.memory.put_raw(chunk)?;
        self.metrics.lineage(ts, LineageEventKind::Arrival);
        Ok(())
    }

    /// Mirrors the memory tier's GC counter deltas since `before` into the
    /// metrics registry (`store.gc_runs`, `store.gc_evicted_bytes`).
    fn mirror_gc_metrics(&self, before: StoreStats) {
        let after = self.memory.stats();
        let gc_runs = after.gc_runs - before.gc_runs;
        if gc_runs > 0 {
            self.metrics.counter("store.gc_runs").add(gc_runs);
        }
        let gc_bytes = after.bytes_evicted - before.bytes_evicted;
        if gc_bytes > 0 {
            self.metrics.counter("store.gc_evicted_bytes").add(gc_bytes);
        }
    }

    /// Stores features; chunks evicted from memory are spilled to disk when
    /// a disk tier exists (spill failures past the retry budget are absorbed
    /// as lost spills — the raw data still covers the chunk).
    ///
    /// # Errors
    /// Duplicate timestamps or dangling raw references (logic errors, never
    /// absorbed).
    pub fn put_feature(&mut self, chunk: FeatureChunk) -> Result<(), StorageError> {
        let ts = chunk.timestamp.0;
        let before = self.memory.stats();
        let evicted = self.memory.put_feature(chunk)?;
        self.mirror_gc_metrics(before);
        self.metrics.lineage(ts, LineageEventKind::Materialize);
        if let Some(disk) = self.disk.as_mut() {
            for old in evicted {
                self.metrics
                    .lineage(old.timestamp.0, LineageEventKind::Evict);
                match disk.write(&old) {
                    Ok(()) => {
                        self.stats.spills += 1;
                        self.metrics.counter("store.spills").inc();
                        self.metrics
                            .lineage(old.timestamp.0, LineageEventKind::Spill);
                    }
                    Err(_) => {
                        self.stats.lost_spills += 1;
                        self.hook.note_lost_spill();
                        self.metrics.counter("store.lost_spills").inc();
                        self.metrics
                            .event("store.lost_spill", format!("chunk {}", old.timestamp.0));
                        self.metrics
                            .lineage(old.timestamp.0, LineageEventKind::LostSpill);
                    }
                }
            }
        } else {
            for old in evicted {
                self.metrics
                    .lineage(old.timestamp.0, LineageEventKind::Evict);
            }
        }
        Ok(())
    }

    /// Looks features up: memory, then disk, then raw-for-recompute.
    ///
    /// A disk failure that outlives the retry budget is *not* an error: the
    /// lookup degrades to [`FeatureSource::Raw`] (counted as a read
    /// fallback), because the raw chunk can always re-materialize the
    /// features. Only a chunk absent from every tier including raw history
    /// yields `None`.
    pub fn lookup(&mut self, ts: Timestamp) -> Option<FeatureSource> {
        let source = self.memory.lookup_feature(ts)?;
        let FeatureSource::Raw(raw, kept) = source else {
            self.stats.memory_hits += 1;
            self.metrics.counter("store.memory_hits").inc();
            return Some(source);
        };
        Some(match self.disk.as_mut().map(|d| d.read(ts)) {
            Some(Ok(Some(chunk))) => {
                self.stats.disk_hits += 1;
                self.metrics.counter("store.disk_hits").inc();
                self.metrics.lineage(ts.0, LineageEventKind::SpillRead);
                FeatureSource::Disk(Arc::new(chunk))
            }
            Some(Err(_)) => {
                self.stats.read_fallbacks += 1;
                self.hook.note_fallback_rematerialization();
                self.metrics.counter("store.read_fallbacks").inc();
                self.metrics
                    .event("store.read_fallback", format!("chunk {}", ts.0));
                self.metrics
                    .lineage(ts.0, LineageEventKind::SpillReadFallback);
                FeatureSource::Raw(raw, kept)
            }
            Some(Ok(None)) | None => {
                self.stats.recomputes += 1;
                self.metrics.counter("store.recomputes").inc();
                self.metrics.lineage(ts.0, LineageEventKind::Rematerialize);
                FeatureSource::Raw(raw, kept)
            }
        })
    }

    /// The in-memory tier (for budget/statistics inspection).
    pub fn memory(&self) -> &ChunkStore {
        &self.memory
    }

    /// Mutable access to the in-memory tier (budget changes, failure
    /// injection in tests).
    pub fn memory_mut(&mut self) -> &mut ChunkStore {
        &mut self.memory
    }

    /// Bytes written to the disk tier so far (0 without one).
    pub fn disk_bytes_written(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskTier::bytes_written)
    }

    /// Bytes read back from the disk tier so far (0 without one).
    pub fn disk_bytes_read(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskTier::bytes_read)
    }

    /// Tier-level counters.
    pub fn stats(&self) -> TieredStats {
        self.stats
    }

    /// Overwrites the tier counters with checkpointed values (resume path).
    pub fn restore_stats(&mut self, stats: TieredStats) {
        self.stats = stats;
    }

    /// Replaces the fault hook on this store and its disk tier, so a resumed
    /// deployment can swap the throwaway replay hook for the live injector.
    pub fn set_hook(&mut self, hook: Arc<dyn FaultHook>) {
        if let Some(disk) = self.disk.as_mut() {
            disk.set_hook(Arc::clone(&hook));
        }
        self.hook = hook;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, Value};
    use crate::ColumnSlab;
    use cdp_faults::{FaultInjector, FaultPlan};

    /// Result extractor without `unwrap`/`expect`: this module's hot path
    /// must stay free of those tokens end to end.
    fn ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }

    fn raw(ts: u64) -> RawChunk {
        RawChunk::new(
            Timestamp(ts),
            vec![Record::new(vec![Value::Num(ts as f64)])],
        )
    }

    fn feat(ts: u64) -> FeatureChunk {
        let slab = ColumnSlab::dense(vec![1.0], vec![vec![ts as f64], vec![1.0]]);
        FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), std::sync::Arc::new(slab))
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cdp-tiered-{tag}-{}", std::process::id()))
    }

    #[test]
    fn evictions_spill_and_disk_serves_them() {
        let dir = tmp_dir("spill");
        let mut store = ok(TieredStore::open(StorageBudget::MaxChunks(3), &dir));
        for t in 0..10 {
            ok(store.put_raw(raw(t)));
            ok(store.put_feature(feat(t)));
        }
        assert_eq!(store.stats().spills, 7);
        assert!(store.disk_bytes_written() > 0);

        // Newest chunks come from memory…
        assert!(matches!(
            store.lookup(Timestamp(9)),
            Some(FeatureSource::Memory(_))
        ));
        // …older ones from disk, byte-identical.
        match store.lookup(Timestamp(0)) {
            Some(FeatureSource::Disk(chunk)) => assert_eq!(*chunk, feat(0)),
            other => panic!("expected disk hit, got {other:?}"),
        }
        let stats = store.stats();
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.recomputes, 0);
        assert!(store.disk_bytes_read() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_mirror_tier_stats() {
        let dir = tmp_dir("metrics");
        let mut store = ok(TieredStore::open(StorageBudget::MaxChunks(3), &dir));
        let metrics = Metrics::collecting();
        store.set_metrics(metrics.clone());
        for t in 0..10 {
            ok(store.put_raw(raw(t)));
            ok(store.put_feature(feat(t)));
        }
        let _ = store.lookup(Timestamp(9)); // memory
        let _ = store.lookup(Timestamp(0)); // disk
        let snap = metrics.snapshot();
        let stats = store.stats();
        assert_eq!(snap.counter("store.spills"), stats.spills);
        assert_eq!(snap.counter("store.memory_hits"), stats.memory_hits);
        assert_eq!(snap.counter("store.disk_hits"), stats.disk_hits);
        assert_eq!(
            snap.counter("store.disk_bytes_written"),
            store.disk_bytes_written()
        );
        assert_eq!(
            snap.counter("store.disk_bytes_read"),
            store.disk_bytes_read()
        );
        assert!(snap
            .histogram("store.disk_write_secs")
            .is_some_and(|h| h.count == stats.spills));
        assert!(snap
            .histogram("store.disk_read_secs")
            .is_some_and(|h| h.count >= 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lineage_reconciles_with_tier_stats() {
        let dir = tmp_dir("lineage");
        let mut store = ok(TieredStore::open(StorageBudget::MaxChunks(3), &dir));
        let metrics = Metrics::collecting();
        store.set_metrics(metrics.clone());
        for t in 0..10 {
            ok(store.put_raw(raw(t)));
            ok(store.put_feature(feat(t)));
        }
        let _ = store.lookup(Timestamp(9)); // memory
        let _ = store.lookup(Timestamp(0)); // disk
        let snap = metrics.snapshot();
        let stats = store.stats();
        assert_eq!(snap.lineage_count(LineageEventKind::Arrival), 10);
        assert_eq!(snap.lineage_count(LineageEventKind::Materialize), 10);
        assert_eq!(snap.lineage_count(LineageEventKind::Spill), stats.spills);
        assert_eq!(
            snap.lineage_count(LineageEventKind::SpillRead),
            stats.disk_hits
        );
        assert_eq!(
            snap.lineage_count(LineageEventKind::Rematerialize),
            stats.recomputes
        );
        // A spilled-and-reread chunk's history reads in causal order.
        let history: Vec<_> = snap.lineage[&0].iter().map(|e| e.kind).collect();
        assert_eq!(
            history,
            vec![
                LineageEventKind::Arrival,
                LineageEventKind::Materialize,
                LineageEventKind::Evict,
                LineageEventKind::Spill,
                LineageEventKind::SpillRead,
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_spill_log_falls_back_to_recompute_not_error() {
        use std::os::unix::fs::FileExt;
        // A byte-flipped region, then a truncated log: every retry re-reads
        // the same bad bytes, so both lookups degrade to a read fallback.
        let dir = tmp_dir("damaged");
        let mut store = ok(TieredStore::open(StorageBudget::MaxChunks(1), &dir));
        for t in 0..3 {
            ok(store.put_raw(raw(t)));
            ok(store.put_feature(feat(t))); // t = 1, 2 evict + spill t - 1
        }
        let log = ok(std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(crate::disk::LOG_FILE)));
        ok(log.write_all_at(&[0xFF], 30)); // inside chunk 0's region
        ok(log.set_len(store.disk_bytes_written() - 10)); // cuts chunk 1's tail
        for t in 0..2 {
            match store.lookup(Timestamp(t)) {
                Some(FeatureSource::Raw(raw_chunk, _)) => {
                    assert_eq!(raw_chunk.timestamp, Timestamp(t));
                }
                other => panic!("chunk {t}: expected recompute, got {other:?}"),
            }
        }
        let stats = store.stats();
        assert_eq!((stats.read_fallbacks, stats.recomputes), (2, 0));
        assert_eq!(store.disk_bytes_read(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_faults_degrade_to_recompute_with_accounting() {
        let dir = tmp_dir("inject");
        let hook = Arc::new(FaultInjector::new(FaultPlan {
            seed: 21,
            disk_read_error: 0.6,
            ..FaultPlan::none()
        }));
        let retry = RetryPolicy {
            max_retries: 1,
            base_backoff: std::time::Duration::ZERO,
        };
        let mut store = ok(TieredStore::open_with_hook(
            StorageBudget::MaxChunks(1),
            &dir,
            Arc::clone(&hook) as _,
            retry,
        ));
        for t in 0..30 {
            ok(store.put_raw(raw(t)));
            ok(store.put_feature(feat(t)));
        }
        // Every lookup must resolve — disk faults degrade, never propagate.
        for t in 0..29 {
            match store.lookup(Timestamp(t)) {
                Some(FeatureSource::Disk(chunk)) => assert_eq!(chunk.timestamp, Timestamp(t)),
                Some(FeatureSource::Raw(raw_chunk, _)) => {
                    assert_eq!(raw_chunk.timestamp, Timestamp(t));
                }
                other => panic!("chunk {t}: unexpected {other:?}"),
            }
        }
        let stats = store.stats();
        assert!(
            stats.read_fallbacks > 0,
            "p=0.6 with one retry must exhaust some reads: {stats:?}"
        );
        assert!(stats.disk_hits > 0, "and recover others: {stats:?}");
        let snap = hook.snapshot();
        assert_eq!(snap.fallback_rematerializations, stats.read_fallbacks);
        assert!(snap.recovered > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_spill_writes_are_lost_not_fatal() {
        let dir = tmp_dir("lost-spill");
        let hook = Arc::new(FaultInjector::new(FaultPlan {
            seed: 13,
            disk_write_error: 1.0, // every attempt fails ⇒ every spill lost
            ..FaultPlan::none()
        }));
        let retry = RetryPolicy {
            max_retries: 1,
            base_backoff: std::time::Duration::ZERO,
        };
        let mut store = ok(TieredStore::open_with_hook(
            StorageBudget::MaxChunks(1),
            &dir,
            Arc::clone(&hook) as _,
            retry,
        ));
        for t in 0..5 {
            ok(store.put_raw(raw(t)));
            ok(store.put_feature(feat(t))); // never errors despite dead disk
        }
        assert_eq!(store.stats().spills, 0);
        assert_eq!(store.stats().lost_spills, 4);
        assert_eq!(hook.snapshot().lost_spills, 4);
        // Lost chunks remain recomputable: a `ts` the spill index never
        // got is a plain recompute, not a read fallback.
        assert!(matches!(
            store.lookup(Timestamp(0)),
            Some(FeatureSource::Raw(..))
        ));
        let stats = store.stats();
        assert_eq!((stats.recomputes, stats.read_fallbacks), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_only_recomputes_evictions() {
        let mut store = TieredStore::memory_only(StorageBudget::MaxChunks(2));
        let metrics = Metrics::collecting();
        store.set_metrics(metrics.clone());
        for t in 0..5 {
            ok(store.put_raw(raw(t)));
            ok(store.put_feature(feat(t)));
        }
        // An eviction without a disk tier is accounted like any other: the
        // counters move, the registry mirrors them, and the chunk's history
        // ends in `Evict` with no spill.
        let (stats, snap) = (store.memory().stats(), metrics.snapshot());
        assert_eq!(stats.evictions, 3);
        assert_eq!(snap.lineage_count(LineageEventKind::Evict), stats.evictions);
        assert_eq!(snap.counter("store.gc_runs"), stats.gc_runs);
        assert_eq!(snap.counter("store.gc_evicted_bytes"), stats.bytes_evicted);
        let history: Vec<_> = snap.lineage[&0].iter().map(|e| e.kind).collect();
        assert_eq!(
            history,
            vec![
                LineageEventKind::Arrival,
                LineageEventKind::Materialize,
                LineageEventKind::Evict,
            ]
        );
        assert!(matches!(
            store.lookup(Timestamp(0)),
            Some(FeatureSource::Raw(..))
        ));
        assert!(matches!(
            store.lookup(Timestamp(4)),
            Some(FeatureSource::Memory(_))
        ));
        assert_eq!(store.disk_bytes_written(), 0);
        assert_eq!(store.stats().spills, 0);
        assert_eq!(store.stats().recomputes, 1);
    }

    #[test]
    fn unavailable_when_everything_is_gone() {
        let dir = tmp_dir("gone");
        let mut store = ok(TieredStore::open(StorageBudget::Unbounded, &dir));
        assert!(store.lookup(Timestamp(7)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
