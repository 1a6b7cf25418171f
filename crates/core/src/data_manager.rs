//! The data manager (paper §4.2): chunk ingestion, feature storage with
//! dynamic materialization (optionally backed by a disk spill tier), and
//! sampling for proactive training.

use std::sync::Arc;

use cdp_faults::{FaultHook, RetryPolicy};
use cdp_obs::{LineageEventKind, Metrics};
use cdp_sampling::{Sampler, SamplingStrategy};
use cdp_storage::{
    ChunkStore, FeatureChunk, FeatureSource, KeptColumns, RawChunk, StorageBudget, StorageError,
    StoreStats, TieredStats, TieredStore,
};

/// The data manager: tiered storage plus sampling (see module docs).
///
/// When constructed with a spill directory, the manager owns that directory
/// and removes it on drop.
#[derive(Debug)]
pub struct DataManager {
    store: TieredStore,
    sampler: Sampler,
    owned_spill_dir: Option<std::path::PathBuf>,
    metrics: Metrics,
}

impl DataManager {
    /// Creates a memory-only data manager with the given feature-cache
    /// budget and sampling strategy (evictions recompute, the paper's pure
    /// dynamic materialization).
    pub fn new(budget: StorageBudget, strategy: SamplingStrategy, seed: u64) -> Self {
        Self {
            store: TieredStore::memory_only(budget),
            sampler: Sampler::new(strategy, seed),
            owned_spill_dir: None,
            metrics: Metrics::disabled(),
        }
    }

    /// Creates a data manager whose evictions spill into `spill_dir`, with
    /// all disk I/O consulting `hook` per attempt. The directory is owned:
    /// it is deleted when the manager drops.
    ///
    /// # Errors
    /// I/O errors creating the spill directory.
    pub fn with_spill(
        budget: StorageBudget,
        strategy: SamplingStrategy,
        seed: u64,
        spill_dir: impl Into<std::path::PathBuf>,
        hook: Arc<dyn FaultHook>,
        retry: RetryPolicy,
    ) -> Result<Self, StorageError> {
        let spill_dir = spill_dir.into();
        Ok(Self {
            store: TieredStore::open_with_hook(budget, &spill_dir, hook, retry)?,
            sampler: Sampler::new(strategy, seed),
            owned_spill_dir: Some(spill_dir),
            metrics: Metrics::disabled(),
        })
    }

    /// Records storage behaviour (hits, spills, recomputes, disk latency)
    /// into `metrics`. The default handle is disabled and adds no overhead.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.store.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    /// Stores an arriving raw chunk (workflow stage 1). The store keeps the
    /// handle; a caller that still reads the chunk passes a clone, which
    /// shares the rows.
    ///
    /// # Errors
    /// [`StorageError::DuplicateTimestamp`] — the deployment loop assigns
    /// unique timestamps, so a duplicate is a driver bug surfaced as a typed
    /// error rather than a panic.
    pub fn ingest_raw(&mut self, chunk: RawChunk) -> Result<(), StorageError> {
        self.store.put_raw(chunk)
    }

    /// Stores the preprocessed features of a chunk (workflow stage 2),
    /// evicting (and, with a disk tier, spilling) the oldest features if
    /// over budget. Spill-write failures are absorbed by the tiered store —
    /// the chunk stays recomputable — so they are not errors here.
    ///
    /// # Errors
    /// [`StorageError::DuplicateTimestamp`] or
    /// [`StorageError::DanglingRawReference`] (logic errors).
    pub fn store_features(&mut self, chunk: FeatureChunk) -> Result<(), StorageError> {
        self.store.put_feature(chunk)
    }

    /// Samples `sample_chunks` chunks for proactive training (workflow
    /// stage 3), resolving each to features (memory or disk) or a raw chunk
    /// for re-materialization (stage 4 decision).
    pub fn sample(&mut self, sample_chunks: usize) -> Vec<FeatureSource> {
        let available = self.store.memory().sampleable_timestamps();
        let picked = self.sampler.sample(&available, sample_chunks);
        // The sampler picks only stored raw timestamps, so every lookup
        // resolves; skipping a `None` just keeps this function total.
        let sampled: Vec<FeatureSource> = picked
            .into_iter()
            .filter_map(|ts| self.store.lookup(ts))
            .collect();
        for chunk in &sampled {
            self.metrics
                .lineage(chunk.timestamp().0, LineageEventKind::SampledForTraining);
        }
        sampled
    }

    /// All raw chunks, oldest first, each with the columns its arrival
    /// kept beside it — the periodical baseline's retraining input ("the
    /// entire historical data").
    pub fn full_history(&self) -> Vec<(RawChunk, Option<KeptColumns>)> {
        self.store.memory().raw_history()
    }

    /// Number of chunks available for sampling (the paper's `n`).
    pub fn chunk_count(&self) -> usize {
        self.store.memory().raw_count()
    }

    /// Storage behaviour counters (hits/misses/evictions).
    pub fn stats(&self) -> StoreStats {
        self.store.memory().stats()
    }

    /// Tier-level counters (spills, disk hits, recovery fallbacks).
    pub fn tiered_stats(&self) -> TieredStats {
        self.store.stats()
    }

    /// Replaces the fault hook consulted by the disk tier. Resume swaps a
    /// throwaway replay hook for the real injector after rebuilding state.
    pub fn set_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.store.set_hook(hook);
    }

    /// Overwrites the tier-level counters (checkpoint restore).
    pub fn restore_tiered_stats(&mut self, stats: TieredStats) {
        self.store.restore_stats(stats);
    }

    /// The sampler's raw RNG state, for deployment checkpoints.
    pub fn sampler_rng_state(&self) -> u64 {
        self.sampler.rng_state()
    }

    /// Restores a sampler RNG state captured by
    /// [`DataManager::sampler_rng_state`], so resumed sampling draws the
    /// same sequence the uninterrupted run would have drawn.
    pub fn set_sampler_rng_state(&mut self, state: u64) {
        self.sampler.set_rng_state(state);
    }

    /// Direct store access (failure injection and inspection in tests).
    pub fn store_mut(&mut self) -> &mut ChunkStore {
        self.store.memory_mut()
    }

    /// Direct store access (read-only).
    pub fn store(&self) -> &ChunkStore {
        self.store.memory()
    }
}

impl Drop for DataManager {
    fn drop(&mut self) {
        if let Some(dir) = self.owned_spill_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_storage::{ColumnSlab, Record, Timestamp, Value, ValueRef};

    fn raw(ts: u64) -> RawChunk {
        RawChunk::new(
            Timestamp(ts),
            vec![Record::new(vec![Value::Num(ts as f64)])],
        )
    }

    fn feat(ts: u64) -> FeatureChunk {
        let slab = ColumnSlab::dense(vec![1.0], vec![vec![ts as f64]]);
        FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), Arc::new(slab))
    }

    fn manager(n: u64, m: usize, strategy: SamplingStrategy) -> DataManager {
        let mut dm = DataManager::new(StorageBudget::MaxChunks(m), strategy, 9);
        for t in 0..n {
            dm.ingest_raw(raw(t)).expect("unique timestamps");
            dm.store_features(feat(t)).expect("raw chunk present");
        }
        dm
    }

    #[test]
    fn a_shared_chunk_is_stored_without_a_copy() {
        // The chunk loop goes on reading the arrival it has just ingested;
        // the history must hold those rows, not a copy of them.
        let mut dm = DataManager::new(StorageBudget::Unbounded, SamplingStrategy::Uniform, 9);
        let text = Record::new(vec![Value::Text("rows in place".into())]);
        let arrival = RawChunk::new(Timestamp(7), vec![text]);
        dm.ingest_raw(arrival.clone()).expect("unique timestamps");
        let text_at = |chunk: &RawChunk| match chunk.rows().iter().next().and_then(|r| r.get(0)) {
            Some(ValueRef::Text(s)) => s.as_ptr(),
            other => panic!("unexpected value {other:?}"),
        };
        assert_eq!(text_at(&dm.full_history()[0].0), text_at(&arrival));
    }

    #[test]
    fn sample_resolves_materialization_state() {
        let mut dm = manager(20, 5, SamplingStrategy::Uniform);
        let sampled = dm.sample(20); // everything
        assert_eq!(sampled.len(), 20);
        let materialized = sampled
            .iter()
            .filter(|s| matches!(s, FeatureSource::Memory(_)))
            .count();
        assert_eq!(materialized, 5);
        for s in &sampled {
            match s {
                FeatureSource::Memory(fc) => assert!(fc.timestamp.0 >= 15),
                FeatureSource::Raw(r, _) => assert!(r.timestamp.0 < 15),
                FeatureSource::Disk(_) => panic!("memory-only manager cannot spill"),
            }
        }
    }

    #[test]
    fn sample_skips_dropped_chunks() {
        let mut dm = manager(10, 10, SamplingStrategy::Uniform);
        dm.store_mut().drop_chunk(Timestamp(3));
        let sampled = dm.sample(10);
        assert_eq!(sampled.len(), 9);
        assert!(sampled.iter().all(|s| s.timestamp() != Timestamp(3)));
    }

    #[test]
    fn full_history_is_ordered() {
        let dm = manager(8, 2, SamplingStrategy::TimeBased);
        let hist = dm.full_history();
        assert_eq!(hist.len(), 8);
        for (i, (c, _)) in hist.iter().enumerate() {
            assert_eq!(c.timestamp, Timestamp(i as u64));
        }
    }

    #[test]
    fn stats_reflect_sampling_hits() {
        let mut dm = manager(10, 5, SamplingStrategy::Uniform);
        dm.sample(10);
        let stats = dm.stats();
        assert_eq!(stats.feature_hits, 5);
        assert_eq!(stats.feature_misses, 5);
        assert!((stats.utilization_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spill_backed_manager_serves_evictions_from_disk() {
        let dir = std::env::temp_dir().join(format!("cdp-dm-spill-{}", std::process::id()));
        {
            let mut dm = match DataManager::with_spill(
                StorageBudget::MaxChunks(2),
                SamplingStrategy::Uniform,
                9,
                &dir,
                Arc::new(cdp_faults::NoFaults),
                cdp_faults::RetryPolicy::default(),
            ) {
                Ok(dm) => dm,
                Err(e) => panic!("temp dir is writable: {e}"),
            };
            for t in 0..6 {
                dm.ingest_raw(raw(t)).expect("unique timestamps");
                dm.store_features(feat(t)).expect("raw chunk present");
            }
            // Chunks 0..4 were evicted and spilled; they resolve from disk,
            // not recomputation.
            for t in 0..4 {
                match dm.store.lookup(Timestamp(t)) {
                    Some(FeatureSource::Disk(fc)) => assert_eq!(fc.timestamp, Timestamp(t)),
                    other => panic!("chunk {t} must be served from disk, got {other:?}"),
                }
            }
            assert_eq!(dm.tiered_stats().spills, 4);
            assert_eq!(dm.tiered_stats().disk_hits, 4);
            // All four spills share the tier's one log file.
            let files = std::fs::read_dir(&dir).expect("spill dir exists while the manager lives");
            assert_eq!(files.count(), 1);
            assert!(dm.store.lookup(Timestamp(99)).is_none());
        }
        // Dropping the manager removes its owned spill directory, log included.
        assert!(!dir.exists());
    }

    #[test]
    fn window_sampling_stays_in_window() {
        let mut dm = manager(50, 50, SamplingStrategy::WindowBased { window: 10 });
        for s in dm.sample(5) {
            assert!(s.timestamp().0 >= 40);
        }
    }
}
