//! The chunk store: raw history plus a budgeted materialized-feature cache.
//!
//! Implements the paper's dynamic-materialization storage semantics (§3.2):
//!
//! * raw chunks are (normally) always retained and are the ground truth;
//! * feature chunks are cached up to a [`StorageBudget`]; when the budget is
//!   exceeded the *oldest* feature chunks are evicted, leaving only their
//!   identifier and raw reference behind;
//! * looking up an evicted chunk yields the raw chunk so the caller can
//!   re-materialize it through the deployed pipeline, together with the
//!   [`KeptColumns`] its arrival left beside it (outside the budget).
//!
//! Every reclamation runs through one collector (`ChunkStore::collect`).
//! Each collection that frees anything is counted in
//! [`StoreStats::gc_runs`]; every reclaimed chunk is counted in
//! `evictions`/`bytes_evicted` and returned to the caller so the tiered
//! store can spill it and emit the matching lineage event. Eviction order
//! is strictly oldest-timestamp-first, which is what the paper's μ model
//! (Eqs. 4/5) assumes.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use crate::chunk::{FeatureChunk, KeptColumns, RawChunk, Timestamp};
use crate::StorageError;

/// Limit on the materialized feature cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageBudget {
    /// Keep at most this many feature chunks materialized (the paper's `m`).
    MaxChunks(usize),
    /// Keep at most this many bytes of feature data materialized.
    MaxBytes(usize),
    /// Never evict.
    Unbounded,
}

impl StorageBudget {
    /// Whether a cache of `chunks` chunks / `bytes` bytes exceeds the budget.
    fn exceeded(&self, chunks: usize, bytes: usize) -> bool {
        match self {
            StorageBudget::MaxChunks(m) => chunks > *m,
            StorageBudget::MaxBytes(b) => bytes > *b,
            StorageBudget::Unbounded => false,
        }
    }
}

/// Where a sampled chunk's features come from — the data manager's one
/// answer per chunk, carried unchanged from a lookup to the fused proactive
/// step. A lookup of a chunk with no data at all returns `None` instead
/// (paper §3.2: unavailable chunks are ignored).
#[derive(Debug, Clone)]
pub enum FeatureSource {
    /// Materialized in the in-memory cache; use it directly (Figure 2,
    /// scenario 1).
    Memory(Arc<FeatureChunk>),
    /// Evicted, but its spilled copy read back from the disk tier.
    Disk(Arc<FeatureChunk>),
    /// Evicted (and any spill absent or unreadable): re-materialize from
    /// this raw chunk (Figure 2, scenario 2), with the columns kept from its
    /// arrival.
    Raw(RawChunk, Option<KeptColumns>),
}

impl FeatureSource {
    /// The chunk's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        match self {
            FeatureSource::Memory(fc) | FeatureSource::Disk(fc) => fc.timestamp,
            FeatureSource::Raw(raw, _) => raw.timestamp,
        }
    }
}

/// Counters describing the store's behaviour; the basis for the empirical
/// materialization-utilization-rate (μ) measurements of Experiment 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Raw chunks inserted.
    pub raw_puts: u64,
    /// Feature chunks inserted.
    pub feature_puts: u64,
    /// Feature chunks reclaimed by the collector, each counted exactly once.
    pub evictions: u64,
    /// Bytes released by evictions.
    pub bytes_evicted: u64,
    /// Lookups that found materialized features.
    pub feature_hits: u64,
    /// Lookups that required re-materialization.
    pub feature_misses: u64,
    /// Lookups of chunks with no data at all.
    pub unavailable: u64,
    /// Always 0: compaction is gone, but the field is eight bytes of
    /// checkpoint schema v3, so dropping it is a schema bump that belongs
    /// with the fault-seam work (ROADMAP item 3).
    pub compactions: u64,
    /// Collector runs that reclaimed at least one chunk.
    pub gc_runs: u64,
}

impl StoreStats {
    /// Empirical materialization utilization rate: hits / (hits + misses).
    pub fn utilization_rate(&self) -> f64 {
        let total = self.feature_hits + self.feature_misses;
        if total == 0 {
            return 0.0;
        }
        self.feature_hits as f64 / total as f64
    }
}

/// In-memory chunk store (see module docs).
#[derive(Debug)]
pub struct ChunkStore {
    /// Every raw chunk, beside the columns its feature chunk carried in.
    raw: BTreeMap<Timestamp, (RawChunk, Option<KeptColumns>)>,
    features: BTreeMap<Timestamp, Arc<FeatureChunk>>,
    budget: StorageBudget,
    feature_bytes: usize,
    stats: StoreStats,
}

impl ChunkStore {
    /// Creates a store with the given feature-cache budget; the raw history
    /// is unlimited.
    pub fn new(budget: StorageBudget) -> Self {
        Self {
            raw: BTreeMap::new(),
            features: BTreeMap::new(),
            budget,
            feature_bytes: 0,
            stats: StoreStats::default(),
        }
    }

    /// Stores a raw chunk. The store keeps the handle it is given: a caller
    /// that goes on reading the chunk hands over a clone, which shares the
    /// rows.
    ///
    /// # Errors
    /// [`StorageError::DuplicateTimestamp`] when the timestamp is taken.
    pub fn put_raw(&mut self, chunk: RawChunk) -> Result<(), StorageError> {
        let Entry::Vacant(slot) = self.raw.entry(chunk.timestamp) else {
            return Err(StorageError::DuplicateTimestamp(chunk.timestamp));
        };
        slot.insert((chunk, None));
        self.stats.raw_puts += 1;
        Ok(())
    }

    /// Stores a feature chunk, then evicts oldest feature chunks while the
    /// budget is exceeded. Returns the evicted chunks (oldest first) so a
    /// tiered store can spill them to a colder medium. The columns the chunk
    /// carries ([`FeatureChunk::kept`]) stay beside its raw chunk for good,
    /// outside the budget.
    ///
    /// # Errors
    /// * [`StorageError::DanglingRawReference`] when `raw_ref` is unknown —
    ///   evicted features could never be re-materialized.
    /// * [`StorageError::DuplicateTimestamp`] when features for this
    ///   timestamp are already materialized.
    pub fn put_feature(
        &mut self,
        chunk: FeatureChunk,
    ) -> Result<Vec<Arc<FeatureChunk>>, StorageError> {
        let Some((_, kept)) = self.raw.get_mut(&chunk.raw_ref) else {
            return Err(StorageError::DanglingRawReference(chunk.raw_ref));
        };
        let ts = chunk.timestamp;
        if self.features.contains_key(&ts) {
            return Err(StorageError::DuplicateTimestamp(ts));
        }
        if let Some(columns) = chunk.kept() {
            *kept = Some(columns.clone());
        }
        self.feature_bytes += chunk.size_bytes();
        self.features.insert(ts, Arc::new(chunk));
        self.stats.feature_puts += 1;
        Ok(self.collect())
    }

    /// Removes one materialized chunk, balancing the byte count.
    fn remove_feature(&mut self, ts: Timestamp) -> Option<Arc<FeatureChunk>> {
        let removed = self.features.remove(&ts)?;
        self.feature_bytes -= removed.size_bytes();
        Some(removed)
    }

    /// The collector: reclaims oldest-first until the budget holds, counting
    /// every reclaimed chunk in `evictions`/`bytes_evicted` and returning it.
    /// A run that reclaims anything is counted in `gc_runs`.
    fn collect(&mut self) -> Vec<Arc<FeatureChunk>> {
        let mut reclaimed = Vec::new();
        while self
            .budget
            .exceeded(self.features.len(), self.feature_bytes)
        {
            let Some((&oldest, _)) = self.features.iter().next() else {
                break;
            };
            let Some(removed) = self.remove_feature(oldest) else {
                break;
            };
            self.stats.evictions += 1;
            self.stats.bytes_evicted += removed.size_bytes() as u64;
            reclaimed.push(removed);
        }
        if !reclaimed.is_empty() {
            self.stats.gc_runs += 1;
        }
        reclaimed
    }

    /// Looks up the features for `ts`, recording hit/miss statistics:
    /// [`FeatureSource::Memory`] or [`FeatureSource::Raw`], or `None` when
    /// the chunk has no data at all.
    pub fn lookup_feature(&mut self, ts: Timestamp) -> Option<FeatureSource> {
        if let Some(fc) = self.features.get(&ts) {
            self.stats.feature_hits += 1;
            return Some(FeatureSource::Memory(Arc::clone(fc)));
        }
        if let Some((raw, kept)) = self.raw.get(&ts) {
            self.stats.feature_misses += 1;
            return Some(FeatureSource::Raw(raw.clone(), kept.clone()));
        }
        self.stats.unavailable += 1;
        None
    }

    /// Non-recording peek used by analyses that must not skew μ statistics.
    pub fn peek_feature(&self, ts: Timestamp) -> Option<Arc<FeatureChunk>> {
        self.features.get(&ts).cloned()
    }

    /// Every retained raw chunk with the columns its arrival kept, oldest
    /// first.
    pub fn raw_history(&self) -> Vec<(RawChunk, Option<KeptColumns>)> {
        self.raw.values().cloned().collect()
    }

    /// Timestamps of every chunk that can participate in sampling (raw data
    /// present), oldest first.
    pub fn sampleable_timestamps(&self) -> Vec<Timestamp> {
        self.raw.keys().copied().collect()
    }

    /// Timestamps with materialized features, oldest first.
    pub fn materialized_timestamps(&self) -> Vec<Timestamp> {
        self.features.keys().copied().collect()
    }

    /// Number of retained raw chunks (the paper's `n`).
    pub fn raw_count(&self) -> usize {
        self.raw.len()
    }

    /// Number of materialized feature chunks (≤ the paper's `m`).
    pub fn materialized_count(&self) -> usize {
        self.features.len()
    }

    /// Bytes currently used by materialized features.
    pub fn feature_bytes(&self) -> usize {
        self.feature_bytes
    }

    /// The cache budget.
    pub fn budget(&self) -> StorageBudget {
        self.budget
    }

    /// Behaviour counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Resets the behaviour counters (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }

    /// Overwrites the behaviour counters with checkpointed values, so a
    /// resumed deployment's μ statistics continue from where the crashed run
    /// left off instead of restarting from zero.
    pub fn restore_stats(&mut self, stats: StoreStats) {
        self.stats = stats;
    }

    /// Drops a raw chunk and its features — failure injection for the
    /// "raw data unavailable" path. Deliberately bypasses the collector:
    /// injected data loss is not an eviction and must not skew GC counters.
    pub fn drop_chunk(&mut self, ts: Timestamp) {
        self.raw.remove(&ts);
        self.remove_feature(ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnSlab;
    use crate::record::{Record, Value};

    /// Result extractor without `unwrap`/`expect`: this module's hot path
    /// must stay free of those tokens end to end.
    fn ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }

    fn some<T>(o: Option<T>) -> T {
        match o {
            Some(v) => v,
            None => panic!("unexpected None"),
        }
    }

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

    fn store_with(n: u64, budget: StorageBudget) -> ChunkStore {
        let mut s = ChunkStore::new(budget);
        for t in 0..n {
            ok(s.put_raw(raw(t)));
            ok(s.put_feature(feat(t)));
        }
        s
    }

    #[test]
    fn eviction_keeps_newest_m() {
        let s = store_with(10, StorageBudget::MaxChunks(3));
        assert_eq!(s.materialized_count(), 3);
        assert_eq!(
            s.materialized_timestamps(),
            vec![Timestamp(7), Timestamp(8), Timestamp(9)]
        );
        assert_eq!(s.stats().evictions, 7);
        assert_eq!(s.raw_count(), 10);
    }

    #[test]
    fn lookup_records_hits_and_misses() {
        let mut s = store_with(10, StorageBudget::MaxChunks(5));
        assert!(matches!(
            s.lookup_feature(Timestamp(9)),
            Some(FeatureSource::Memory(_))
        ));
        assert!(matches!(
            s.lookup_feature(Timestamp(0)),
            Some(FeatureSource::Raw(_, None))
        ));
        assert!(s.lookup_feature(Timestamp(99)).is_none());
        let stats = s.stats();
        assert_eq!(stats.feature_hits, 1);
        assert_eq!(stats.feature_misses, 1);
        assert_eq!(stats.unavailable, 1);
        assert_eq!(stats.utilization_rate(), 0.5);
    }

    /// The kept columns of one single-row chunk.
    fn kept(x: f64) -> KeptColumns {
        KeptColumns::copy_of([&[x][..], &[-x][..]].into_iter(), 1)
    }

    fn evicted_kept(s: &mut ChunkStore, ts: u64) -> Option<KeptColumns> {
        match s.lookup_feature(Timestamp(ts)) {
            Some(FeatureSource::Raw(_, kept)) => kept,
            other => panic!("chunk {ts} is not evicted: {other:?}"),
        }
    }

    #[test]
    fn kept_columns_stay_beside_the_raw_chunk_outside_the_budget() {
        let mut s = ChunkStore::new(StorageBudget::MaxChunks(1));
        for t in 0..3 {
            ok(s.put_raw(raw(t)));
            let fc = feat(t).with_kept((t != 1).then(|| kept(t as f64)));
            ok(s.put_feature(fc));
        }
        // Features and their bytes are budgeted exactly as without them.
        assert_eq!(s.materialized_count(), 1);
        assert_eq!(s.feature_bytes(), feat(2).size_bytes());
        assert_eq!(evicted_kept(&mut s, 0), Some(kept(0.0)));
        assert_eq!(evicted_kept(&mut s, 1), None);
        // A rejected feature chunk leaves nothing behind.
        assert!(s.put_feature(feat(2).with_kept(Some(kept(9.0)))).is_err());
        ok(s.put_raw(raw(3)));
        ok(s.put_feature(feat(3)));
        assert_eq!(evicted_kept(&mut s, 2), Some(kept(2.0)));
        // Injected loss takes the columns with the raw chunk.
        s.drop_chunk(Timestamp(0));
        assert!(s.lookup_feature(Timestamp(0)).is_none());
    }

    #[test]
    fn a_second_store_over_the_same_raw_handles_finds_nothing_kept() {
        let handles: Vec<RawChunk> = (0..3).map(raw).collect();
        let mut first = ChunkStore::new(StorageBudget::MaxChunks(0));
        let mut second = ChunkStore::new(StorageBudget::MaxChunks(0));
        for handle in &handles {
            let ts = handle.timestamp;
            ok(first.put_raw(handle.clone()));
            ok(first.put_feature(feat(ts.0).with_kept(Some(kept(ts.0 as f64)))));
            ok(second.put_raw(handle.clone()));
        }
        for t in 0..3 {
            assert_eq!(evicted_kept(&mut first, t), Some(kept(t as f64)));
            // The second store shares the rows, not the first one's columns.
            assert_eq!(evicted_kept(&mut second, t), None);
            ok(second.put_feature(feat(t)));
            assert_eq!(evicted_kept(&mut second, t), None);
            let (shared, _) = &second.raw_history()[t as usize];
            assert!(Arc::ptr_eq(&shared.records, &handles[t as usize].records));
        }
    }

    #[test]
    fn byte_budget_evicts_by_size() {
        let mut s = ChunkStore::new(StorageBudget::MaxBytes(40));
        for t in 0..5 {
            ok(s.put_raw(raw(t)));
            ok(s.put_feature(feat(t))); // each point ≈ 16 bytes
        }
        assert!(s.feature_bytes() <= 40);
        assert!(s.materialized_count() < 5);
    }

    #[test]
    fn dangling_raw_reference_rejected() {
        let mut s = ChunkStore::new(StorageBudget::Unbounded);
        assert!(matches!(
            s.put_feature(feat(3)),
            Err(StorageError::DanglingRawReference(Timestamp(3)))
        ));
    }

    #[test]
    fn duplicate_timestamps_rejected() {
        let mut s = ChunkStore::new(StorageBudget::Unbounded);
        ok(s.put_raw(raw(1)));
        assert!(matches!(
            s.put_raw(raw(1)),
            Err(StorageError::DuplicateTimestamp(Timestamp(1)))
        ));
        ok(s.put_feature(feat(1)));
        assert!(matches!(
            s.put_feature(feat(1)),
            Err(StorageError::DuplicateTimestamp(Timestamp(1)))
        ));
    }

    #[test]
    fn drop_chunk_removes_everything() {
        let mut s = store_with(5, StorageBudget::Unbounded);
        s.drop_chunk(Timestamp(2));
        assert!(!s.sampleable_timestamps().contains(&Timestamp(2)));
        assert!(s.lookup_feature(Timestamp(2)).is_none());
        assert_eq!(s.raw_count(), 4);
        // Injected loss is not an eviction: GC counters stay untouched.
        assert_eq!(s.stats().evictions, 0);
        assert_eq!(s.stats().gc_runs, 0);
    }

    #[test]
    fn feature_bytes_accounting_balances() {
        let mut s = ChunkStore::new(StorageBudget::MaxChunks(2));
        for t in 0..6 {
            ok(s.put_raw(raw(t)));
            ok(s.put_feature(feat(t)));
        }
        let expected: usize = s
            .materialized_timestamps()
            .iter()
            .map(|ts| some(s.peek_feature(*ts)).size_bytes())
            .sum();
        assert_eq!(s.feature_bytes(), expected);
    }
}
