//! The chunk store: raw history plus a budgeted materialized-feature cache.
//!
//! Implements the paper's dynamic-materialization storage semantics (§3.2):
//!
//! * raw chunks are (normally) always retained and are the ground truth;
//! * feature chunks are cached up to a [`StorageBudget`]; when the budget is
//!   exceeded the *oldest* feature chunks are evicted, leaving only their
//!   identifier and raw reference behind;
//! * looking up an evicted chunk yields the raw chunk so the caller can
//!   re-materialize it through the deployed pipeline.
//!
//! **Generation-based GC**: every reclamation — feature-budget eviction,
//! raw-budget trimming, budget shrink — runs through one collector
//! ([`ChunkStore::collect`]). Each collection that frees anything advances
//! the store's generation and is counted in [`StoreStats::gc_runs`]; every
//! reclaimed chunk is counted in `evictions`/`bytes_evicted` and returned to
//! the caller so the tiered store can spill it and emit the matching lineage
//! event. Eviction order stays strictly oldest-timestamp-first, so the
//! paper's μ model (Eqs. 4/5) is unchanged. An optional bounded changelog
//! ([`ChunkStoreConfig`]) records every addition and deletion with the
//! generation it happened in.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::chunk::{FeatureChunk, RawChunk, Timestamp};
use crate::StorageError;

/// Limit on the materialized feature cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// The chunk store's changelog switch, separate from the eviction
/// [`StorageBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkStoreConfig {
    /// Record an in-memory changelog of ingestion-path events (additions
    /// and GC deletions). Off by default: the changelog exists for tests
    /// and debugging, not the hot path.
    pub enable_changelog: bool,
    /// Bound on retained changelog events; the oldest are dropped first.
    pub changelog_capacity: usize,
}

impl Default for ChunkStoreConfig {
    /// Changelog off ([`ChunkStore::new`]'s configuration), with room for
    /// 1024 events once switched on.
    fn default() -> Self {
        Self {
            enable_changelog: false,
            changelog_capacity: 1024,
        }
    }
}

/// What a changelog entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkStoreDiffKind {
    /// A feature chunk was materialized into the cache.
    Addition,
    /// The garbage collector reclaimed a feature chunk.
    Deletion,
}

/// One ingestion-path event, recorded when
/// [`ChunkStoreConfig::enable_changelog`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkStoreEvent {
    /// GC generation in which the event happened.
    pub generation: u64,
    /// What happened.
    pub kind: ChunkStoreDiffKind,
    /// The chunk concerned.
    pub timestamp: Timestamp,
    /// Rows of the chunk.
    pub rows: usize,
    /// Bytes of the chunk.
    pub bytes: usize,
}

/// What the store knows about a requested feature chunk.
#[derive(Debug, Clone)]
pub enum FeatureLookup {
    /// The feature chunk is materialized; use it directly (Figure 2,
    /// scenario 1).
    Materialized(Arc<FeatureChunk>),
    /// The feature chunk was evicted; here is the raw chunk to re-materialize
    /// from (Figure 2, scenario 2).
    Evicted(Arc<RawChunk>),
    /// Neither features nor raw data exist — the chunk cannot participate in
    /// sampling (paper §3.2: unavailable chunks are ignored).
    Unavailable,
}

impl FeatureLookup {
    /// True when the lookup found materialized features.
    pub fn is_materialized(&self) -> bool {
        matches!(self, FeatureLookup::Materialized(_))
    }
}

/// What to do with a chunk that was re-materialized on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RematerializationPolicy {
    /// Use the re-materialized features once and discard them. Keeps the
    /// materialized set equal to "the newest `m` chunks", matching the
    /// paper's analytical model of μ.
    #[default]
    Discard,
    /// Re-insert the re-materialized chunk into the cache (it becomes the
    /// oldest materialized chunk and the usual eviction applies).
    Recache,
}

/// Why the garbage collector ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GcCause {
    /// The feature cache exceeded its [`StorageBudget`].
    FeatureBudget,
    /// The raw history exceeded its chunk cap (the paper's `N`).
    RawBudget,
}

/// Counters describing the store's behaviour; the basis for the empirical
/// materialization-utilization-rate (μ) measurements of Experiment 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Raw chunks inserted.
    pub raw_puts: u64,
    /// Feature chunks inserted (including re-cached ones).
    pub feature_puts: u64,
    /// Feature chunks reclaimed by the collector (budget evictions *and*
    /// raw-budget drops — every reclaimed chunk is counted exactly once).
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
    /// with the durable-file work (ROADMAP item 6).
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
    raw: BTreeMap<Timestamp, Arc<RawChunk>>,
    features: BTreeMap<Timestamp, Arc<FeatureChunk>>,
    /// Birth generation of each materialized chunk: the GC generation at
    /// which it entered the cache. Survivor of many generations = old data
    /// the collector has repeatedly declined to reclaim.
    birth_gen: BTreeMap<Timestamp, u64>,
    budget: StorageBudget,
    raw_budget: Option<usize>,
    config: ChunkStoreConfig,
    feature_bytes: usize,
    generation: u64,
    changelog: Vec<ChunkStoreEvent>,
    stats: StoreStats,
}

impl ChunkStore {
    /// Creates a store with the given feature-cache budget, unlimited raw
    /// history, and the changelog off.
    pub fn new(budget: StorageBudget) -> Self {
        Self::with_config(budget, ChunkStoreConfig::default())
    }

    /// Creates a store with an explicit changelog configuration.
    pub fn with_config(budget: StorageBudget, config: ChunkStoreConfig) -> Self {
        Self {
            raw: BTreeMap::new(),
            features: BTreeMap::new(),
            birth_gen: BTreeMap::new(),
            budget,
            raw_budget: None,
            config,
            feature_bytes: 0,
            generation: 0,
            changelog: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// Caps the raw history at `max_chunks` (the paper's `N`): the oldest raw
    /// chunks are dropped entirely, together with their features.
    pub fn with_raw_budget(mut self, max_chunks: usize) -> Self {
        self.raw_budget = Some(max_chunks);
        self
    }

    /// Stores a raw chunk — as it is when the caller hands over an `Arc` it
    /// goes on reading from — then trims the raw history to its budget.
    /// Returns the *still-materialized feature chunks* reclaimed by the trim
    /// (oldest first) so the caller can account for them (lineage `Evict`);
    /// their raw data is gone, so they can never be re-materialized.
    ///
    /// # Errors
    /// [`StorageError::DuplicateTimestamp`] when the timestamp is taken.
    pub fn put_raw(
        &mut self,
        chunk: impl Into<Arc<RawChunk>>,
    ) -> Result<Vec<Arc<FeatureChunk>>, StorageError> {
        let chunk = chunk.into();
        let ts = chunk.timestamp;
        if self.raw.contains_key(&ts) {
            return Err(StorageError::DuplicateTimestamp(ts));
        }
        self.raw.insert(ts, chunk);
        self.stats.raw_puts += 1;
        Ok(self.collect(GcCause::RawBudget))
    }

    /// Stores a feature chunk, then evicts oldest feature chunks while the
    /// budget is exceeded. Returns the evicted chunks (oldest first) so a
    /// tiered store can spill them to a colder medium.
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
        if !self.raw.contains_key(&chunk.raw_ref) {
            return Err(StorageError::DanglingRawReference(chunk.raw_ref));
        }
        let ts = chunk.timestamp;
        if self.features.contains_key(&ts) {
            return Err(StorageError::DuplicateTimestamp(ts));
        }
        self.insert_feature(ts, Arc::new(chunk));
        Ok(self.collect(GcCause::FeatureBudget))
    }

    /// Cache-insertion bookkeeping shared by `put_feature` and
    /// `restore_feature`.
    fn insert_feature(&mut self, ts: Timestamp, chunk: Arc<FeatureChunk>) {
        self.feature_bytes += chunk.size_bytes();
        self.record_event(
            ChunkStoreDiffKind::Addition,
            ts,
            chunk.len(),
            chunk.size_bytes(),
        );
        self.features.insert(ts, chunk);
        self.birth_gen.insert(ts, self.generation);
        self.stats.feature_puts += 1;
    }

    /// Removes one materialized chunk, balancing bytes and birth records.
    fn remove_feature(&mut self, ts: Timestamp) -> Option<Arc<FeatureChunk>> {
        let removed = self.features.remove(&ts)?;
        self.feature_bytes -= removed.size_bytes();
        self.birth_gen.remove(&ts);
        Some(removed)
    }

    /// The unified collector: reclaims oldest-first until the cause's budget
    /// holds, counting every reclaimed chunk in `evictions`/`bytes_evicted`
    /// and returning it. A run that reclaims anything advances the store's
    /// generation and `gc_runs`.
    fn collect(&mut self, cause: GcCause) -> Vec<Arc<FeatureChunk>> {
        let mut reclaimed = Vec::new();
        match cause {
            GcCause::FeatureBudget => {
                while self
                    .budget
                    .exceeded(self.features.len(), self.feature_bytes)
                    && !self.features.is_empty()
                {
                    let Some((&oldest, _)) = self.features.iter().next() else {
                        break;
                    };
                    let Some(removed) = self.remove_feature(oldest) else {
                        break;
                    };
                    reclaimed.push(removed);
                }
            }
            GcCause::RawBudget => {
                if let Some(max) = self.raw_budget {
                    while self.raw.len() > max {
                        let Some((&oldest, _)) = self.raw.iter().next() else {
                            break;
                        };
                        self.raw.remove(&oldest);
                        if let Some(removed) = self.remove_feature(oldest) {
                            reclaimed.push(removed);
                        }
                    }
                }
            }
        }
        if !reclaimed.is_empty() {
            for chunk in &reclaimed {
                let bytes = chunk.size_bytes();
                self.stats.evictions += 1;
                self.stats.bytes_evicted += bytes as u64;
                self.record_event(
                    ChunkStoreDiffKind::Deletion,
                    chunk.timestamp,
                    chunk.len(),
                    bytes,
                );
            }
            self.stats.gc_runs += 1;
            self.generation += 1;
        }
        reclaimed
    }

    /// Appends a changelog event when the changelog is enabled, dropping the
    /// oldest events beyond the configured capacity.
    fn record_event(
        &mut self,
        kind: ChunkStoreDiffKind,
        timestamp: Timestamp,
        rows: usize,
        bytes: usize,
    ) {
        if !self.config.enable_changelog {
            return;
        }
        self.changelog.push(ChunkStoreEvent {
            generation: self.generation,
            kind,
            timestamp,
            rows,
            bytes,
        });
        let cap = self.config.changelog_capacity.max(1);
        if self.changelog.len() > cap {
            let excess = self.changelog.len() - cap;
            self.changelog.drain(..excess);
        }
    }

    /// Looks up the features for `ts`, recording hit/miss statistics.
    pub fn lookup_feature(&mut self, ts: Timestamp) -> FeatureLookup {
        if let Some(fc) = self.features.get(&ts) {
            self.stats.feature_hits += 1;
            return FeatureLookup::Materialized(Arc::clone(fc));
        }
        if let Some(raw) = self.raw.get(&ts) {
            self.stats.feature_misses += 1;
            return FeatureLookup::Evicted(Arc::clone(raw));
        }
        self.stats.unavailable += 1;
        FeatureLookup::Unavailable
    }

    /// Non-recording peek used by analyses that must not skew μ statistics.
    pub fn peek_feature(&self, ts: Timestamp) -> Option<Arc<FeatureChunk>> {
        self.features.get(&ts).cloned()
    }

    /// The raw chunk at `ts`, if retained.
    pub fn raw(&self, ts: Timestamp) -> Option<Arc<RawChunk>> {
        self.raw.get(&ts).cloned()
    }

    /// Re-inserts a chunk that was re-materialized on demand, honouring the
    /// given policy.
    pub fn restore_feature(&mut self, chunk: FeatureChunk, policy: RematerializationPolicy) {
        if policy == RematerializationPolicy::Recache
            && !self.features.contains_key(&chunk.timestamp)
        {
            let ts = chunk.timestamp;
            self.insert_feature(ts, Arc::new(chunk));
            self.collect(GcCause::FeatureBudget);
        }
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

    /// Whether features for `ts` are currently materialized.
    pub fn is_materialized(&self, ts: Timestamp) -> bool {
        self.features.contains_key(&ts)
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

    /// The changelog configuration.
    pub fn config(&self) -> ChunkStoreConfig {
        self.config
    }

    /// The current GC generation (advanced by every collection that
    /// reclaims at least one chunk).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The GC generation in which `ts` entered the cache, if materialized.
    pub fn chunk_generation(&self, ts: Timestamp) -> Option<u64> {
        self.birth_gen.get(&ts).copied()
    }

    /// The retained changelog (empty unless
    /// [`ChunkStoreConfig::enable_changelog`] is set).
    pub fn changelog(&self) -> &[ChunkStoreEvent] {
        &self.changelog
    }

    /// Replaces the cache budget and immediately applies it, returning any
    /// chunks evicted by the shrink.
    pub fn set_budget(&mut self, budget: StorageBudget) -> Vec<Arc<FeatureChunk>> {
        self.budget = budget;
        self.collect(GcCause::FeatureBudget)
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

/// A thread-safe handle to a [`ChunkStore`], shared between the data manager
/// and the execution engine's workers.
pub type SharedChunkStore = Arc<RwLock<ChunkStore>>;

/// Wraps a store for sharing across threads.
pub fn shared(store: ChunkStore) -> SharedChunkStore {
    Arc::new(RwLock::new(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::LabeledPoint;
    use crate::record::{Record, Value};
    use cdp_linalg::DenseVector;

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
        FeatureChunk::new(
            Timestamp(ts),
            Timestamp(ts),
            vec![LabeledPoint::new(
                1.0,
                DenseVector::new(vec![ts as f64]).into(),
            )],
        )
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
        assert!(s.lookup_feature(Timestamp(9)).is_materialized());
        assert!(matches!(
            s.lookup_feature(Timestamp(0)),
            FeatureLookup::Evicted(_)
        ));
        assert!(matches!(
            s.lookup_feature(Timestamp(99)),
            FeatureLookup::Unavailable
        ));
        let stats = s.stats();
        assert_eq!(stats.feature_hits, 1);
        assert_eq!(stats.feature_misses, 1);
        assert_eq!(stats.unavailable, 1);
        assert_eq!(stats.utilization_rate(), 0.5);
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
    fn restore_discard_leaves_cache_untouched() {
        let mut s = store_with(10, StorageBudget::MaxChunks(3));
        s.restore_feature(feat(0), RematerializationPolicy::Discard);
        assert!(!s.is_materialized(Timestamp(0)));
        assert_eq!(s.materialized_count(), 3);
    }

    #[test]
    fn restore_recache_inserts_and_evicts() {
        let mut s = store_with(10, StorageBudget::MaxChunks(3));
        s.restore_feature(feat(0), RematerializationPolicy::Recache);
        // t0 became the oldest materialized chunk and was evicted right away.
        assert!(!s.is_materialized(Timestamp(0)));
        assert_eq!(s.materialized_count(), 3);
        assert_eq!(s.stats().evictions, 8);
    }

    #[test]
    fn raw_budget_drops_oldest_history() {
        let mut s = ChunkStore::new(StorageBudget::Unbounded).with_raw_budget(4);
        let mut dropped_total = 0u64;
        for t in 0..10 {
            dropped_total += ok(s.put_raw(raw(t))).len() as u64;
            ok(s.put_feature(feat(t)));
        }
        assert_eq!(s.raw_count(), 4);
        assert_eq!(
            s.sampleable_timestamps(),
            vec![Timestamp(6), Timestamp(7), Timestamp(8), Timestamp(9)]
        );
        // Features of dropped raw chunks are gone too — and *counted*: a
        // raw-budget drop of a still-materialized chunk is an eviction like
        // any other, returned to the caller for lineage accounting.
        assert_eq!(dropped_total, 6);
        assert_eq!(s.stats().evictions, 6);
        assert!(s.stats().bytes_evicted > 0);
        assert!(s.stats().gc_runs >= 1);
        assert!(matches!(
            s.lookup_feature(Timestamp(0)),
            FeatureLookup::Unavailable
        ));
    }

    #[test]
    fn shrinking_budget_applies_immediately() {
        let mut s = store_with(10, StorageBudget::Unbounded);
        assert_eq!(s.materialized_count(), 10);
        s.set_budget(StorageBudget::MaxChunks(2));
        assert_eq!(s.materialized_count(), 2);
    }

    #[test]
    fn drop_chunk_removes_everything() {
        let mut s = store_with(5, StorageBudget::Unbounded);
        s.drop_chunk(Timestamp(2));
        assert!(s.raw(Timestamp(2)).is_none());
        assert!(matches!(
            s.lookup_feature(Timestamp(2)),
            FeatureLookup::Unavailable
        ));
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

    fn logging_config() -> ChunkStoreConfig {
        ChunkStoreConfig {
            enable_changelog: true,
            changelog_capacity: 64,
        }
    }

    #[test]
    fn changelog_records_ingestion_path() {
        let mut s = ChunkStore::with_config(StorageBudget::MaxChunks(2), logging_config());
        for t in 0..4 {
            ok(s.put_raw(raw(t)));
            ok(s.put_feature(feat(t)));
        }
        let kinds: Vec<ChunkStoreDiffKind> = s.changelog().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ChunkStoreDiffKind::Addition));
        assert!(kinds.contains(&ChunkStoreDiffKind::Deletion));
        // Capacity bounds the log.
        let cap_cfg = ChunkStoreConfig {
            changelog_capacity: 3,
            ..logging_config()
        };
        let mut bounded = ChunkStore::with_config(StorageBudget::Unbounded, cap_cfg);
        for t in 0..10 {
            ok(bounded.put_raw(raw(t)));
            ok(bounded.put_feature(feat(t)));
        }
        assert!(bounded.changelog().len() <= 3);
    }

    #[test]
    fn generations_advance_with_collections() {
        let mut s = ChunkStore::new(StorageBudget::MaxChunks(2));
        for t in 0..3 {
            ok(s.put_raw(raw(t)));
            ok(s.put_feature(feat(t)));
        }
        // One collection ran (the third put evicted t0).
        assert_eq!(s.generation(), 1);
        assert_eq!(s.stats().gc_runs, 1);
        // Survivors' birth generations are from before that collection;
        // newly inserted chunks are born into the current generation.
        assert_eq!(some(s.chunk_generation(Timestamp(1))), 0);
        ok(s.put_raw(raw(3)));
        ok(s.put_feature(feat(3)));
        assert_eq!(some(s.chunk_generation(Timestamp(3))), 1);
        assert_eq!(s.generation(), 2);
    }
}
