//! Deployment-scenario wrappers: drift shapes, arrival rates, reordering.
//!
//! The base generators ([`crate::url::UrlGenerator`],
//! [`crate::taxi::TaxiGenerator`]) model *gradual* drift under a steady
//! arrival rate. Real deployments also see **sudden** concept changes,
//! **recurring** (seasonal) concepts, **bursty** arrival
//! volumes, and chunks that arrive **late and out of order**. Each wrapper
//! here layers exactly one of those phenomena over any inner
//! [`ChunkStream`], stays a pure function of `(seed, index)` (so scenario
//! streams remain reproducible, sliceable, and replayable), and leaves the
//! initial-training prefix untouched — scenarios are deployment-time
//! phenomena.
//!
//! Out-of-order arrival composes with the WAL ingest layer: the WAL stamps
//! each arrival with its *arrival* sequence number, so a crash-and-resume
//! replays the same delayed ordering deterministically.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cdp_storage::{RawChunk, RawRow, Record, Schema, Value};

use crate::{mix_seed, ChunkStream};

/// Flips the sign of the target column (column 0) of every record — the
/// canonical "the concept inverted" transformation.
fn flip_target(chunk: RawChunk) -> RawChunk {
    let records = chunk
        .rows()
        .iter()
        .map(|row| {
            let mut values: Vec<Value> = row.iter().map(Value::from).collect();
            if let Some(Value::Num(y)) = values.first_mut() {
                *y = -*y;
            }
            Record::new(values)
        })
        .collect();
    RawChunk::new(chunk.timestamp, records)
}

/// Deterministically keeps a `keep` fraction of a chunk's records (at least
/// one), modelling a lower arrival volume for that period.
fn thin_chunk(chunk: RawChunk, keep: f64, seed: u64) -> RawChunk {
    let keep = keep.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = chunk.rows();
    let mut records: Vec<Record> = rows
        .iter()
        .filter(|_| rng.random::<f64>() < keep)
        .map(RawRow::to_record)
        .collect();
    if records.is_empty() {
        records.extend(rows.iter().next().map(RawRow::to_record));
    }
    RawChunk::new(chunk.timestamp, records)
}

/// Sudden drift: from `at_chunk` onward the concept inverts — every later
/// chunk's target flips sign. The sharpest possible change, against which
/// drift detectors and proactive schedulers are sized.
#[derive(Debug, Clone)]
pub struct SuddenDrift<S> {
    inner: S,
    at_chunk: usize,
}

impl<S: ChunkStream> SuddenDrift<S> {
    /// Inverts the concept at `at_chunk` (clamped into the deployment
    /// range).
    pub fn new(inner: S, at_chunk: usize) -> Self {
        let at_chunk = at_chunk.max(inner.initial_chunks());
        Self { inner, at_chunk }
    }
}

impl<S: ChunkStream> ChunkStream for SuddenDrift<S> {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn total_chunks(&self) -> usize {
        self.inner.total_chunks()
    }

    fn initial_chunks(&self) -> usize {
        self.inner.initial_chunks()
    }

    fn chunk(&self, index: usize) -> RawChunk {
        let chunk = self.inner.chunk(index);
        if index >= self.at_chunk {
            flip_target(chunk)
        } else {
            chunk
        }
    }
}

/// Recurring drift: the concept alternates between its original and
/// inverted form every `period_chunks`, modelling seasonal concepts that
/// return (so history sampled from a matching season is informative again).
#[derive(Debug, Clone)]
pub struct RecurringDrift<S> {
    inner: S,
    period_chunks: usize,
}

impl<S: ChunkStream> RecurringDrift<S> {
    /// Alternates the concept every `period_chunks` (clamped to at least
    /// 1) past the initial prefix.
    pub fn new(inner: S, period_chunks: usize) -> Self {
        Self {
            inner,
            period_chunks: period_chunks.max(1),
        }
    }
}

impl<S: ChunkStream> ChunkStream for RecurringDrift<S> {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn total_chunks(&self) -> usize {
        self.inner.total_chunks()
    }

    fn initial_chunks(&self) -> usize {
        self.inner.initial_chunks()
    }

    fn chunk(&self, index: usize) -> RawChunk {
        let chunk = self.inner.chunk(index);
        let start = self.inner.initial_chunks();
        if index < start {
            return chunk;
        }
        let phase = (index - start) / self.period_chunks;
        if phase % 2 == 1 {
            flip_target(chunk)
        } else {
            chunk
        }
    }
}

/// Bursty arrivals: a quiet baseline volume (`base_keep` of each chunk's
/// records) punctuated by full-volume bursts every `burst_every` chunks.
/// Exercises group-commit batching in the WAL and chunk-size sensitivity in
/// the evaluator.
#[derive(Debug, Clone)]
pub struct BurstyArrivals<S> {
    inner: S,
    seed: u64,
    burst_every: usize,
    base_keep: f64,
}

impl<S: ChunkStream> BurstyArrivals<S> {
    /// Keeps `base_keep` of each deployment chunk's records, with a
    /// full-size burst every `burst_every` chunks (clamped to at least 1).
    pub fn new(inner: S, seed: u64, burst_every: usize, base_keep: f64) -> Self {
        Self {
            inner,
            seed,
            burst_every: burst_every.max(1),
            base_keep: base_keep.clamp(0.0, 1.0),
        }
    }
}

impl<S: ChunkStream> ChunkStream for BurstyArrivals<S> {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn total_chunks(&self) -> usize {
        self.inner.total_chunks()
    }

    fn initial_chunks(&self) -> usize {
        self.inner.initial_chunks()
    }

    fn chunk(&self, index: usize) -> RawChunk {
        let chunk = self.inner.chunk(index);
        let start = self.inner.initial_chunks();
        if index < start || (index - start).is_multiple_of(self.burst_every) {
            return chunk;
        }
        thin_chunk(
            chunk,
            self.base_keep,
            mix_seed(self.seed ^ 0xB1257, index as u64),
        )
    }
}

/// Late / out-of-order arrivals: within each disjoint window of `window`
/// deployment chunks, arrival order is a seeded permutation of generation
/// order — chunk `i` delivers the data of some nearby chunk, late. Every
/// chunk still arrives exactly once (the permutation is a bijection), so
/// the WAL's arrival-stamped sequence numbers replay the same delayed
/// ordering deterministically after a crash.
#[derive(Debug, Clone)]
pub struct OutOfOrderArrivals<S> {
    inner: S,
    seed: u64,
    window: usize,
}

impl<S: ChunkStream> OutOfOrderArrivals<S> {
    /// Permutes arrival order within disjoint windows of `window` chunks
    /// (clamped to at least 2) past the initial prefix.
    pub fn new(inner: S, seed: u64, window: usize) -> Self {
        Self {
            inner,
            seed,
            window: window.max(2),
        }
    }

    /// The generation-order index delivered at arrival position `index`.
    fn source_index(&self, index: usize) -> usize {
        let start = self.inner.initial_chunks();
        let total = self.inner.total_chunks();
        if index < start {
            return index;
        }
        let window_no = (index - start) / self.window;
        let window_start = start + window_no * self.window;
        let window_len = self.window.min(total - window_start);
        // Seeded Fisher–Yates over this window's indices; pure in
        // (seed, window_no), so any single lookup is O(window).
        let mut perm: Vec<usize> = (window_start..window_start + window_len).collect();
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed ^ 0x0032D, window_no as u64));
        for i in (1..perm.len()).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        perm[index - window_start]
    }
}

impl<S: ChunkStream> ChunkStream for OutOfOrderArrivals<S> {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn total_chunks(&self) -> usize {
        self.inner.total_chunks()
    }

    fn initial_chunks(&self) -> usize {
        self.inner.initial_chunks()
    }

    fn chunk(&self, index: usize) -> RawChunk {
        self.inner.chunk(self.source_index(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::url::{UrlConfig, UrlGenerator};
    use cdp_storage::ValueRef;

    fn base() -> UrlGenerator {
        UrlGenerator::new(UrlConfig {
            days: 4,
            chunks_per_day: 3,
            rows_per_chunk: 20,
            base_vocab: 500,
            vocab_growth_per_day: 50,
            label_noise: 0.0,
            ..UrlConfig::repo_scale()
        })
    }

    fn label(chunk: &RawChunk, row: usize) -> f64 {
        match chunk.rows().iter().nth(row).and_then(|r| r.get(0)) {
            Some(ValueRef::Num(y)) => y,
            other => panic!("unexpected label value {other:?}"),
        }
    }

    #[test]
    fn sudden_drift_flips_labels_from_the_cut() {
        let s = SuddenDrift::new(base(), 6);
        let inner = base();
        for row in 0..5 {
            assert_eq!(label(&s.chunk(5), row), label(&inner.chunk(5), row));
            assert_eq!(label(&s.chunk(6), row), -label(&inner.chunk(6), row));
        }
    }

    #[test]
    fn sudden_drift_never_touches_the_initial_prefix() {
        let s = SuddenDrift::new(base(), 0);
        assert_eq!(s.at_chunk, base().initial_chunks());
        assert_eq!(s.chunk(0), base().chunk(0));
    }

    #[test]
    fn recurring_drift_alternates_by_period() {
        let s = RecurringDrift::new(base(), 2);
        let inner = base();
        // Deployment starts at 3: chunks 3,4 original; 5,6 flipped; 7,8
        // original again.
        assert_eq!(label(&s.chunk(4), 0), label(&inner.chunk(4), 0));
        assert_eq!(label(&s.chunk(5), 0), -label(&inner.chunk(5), 0));
        assert_eq!(label(&s.chunk(7), 0), label(&inner.chunk(7), 0));
    }

    #[test]
    fn bursty_arrivals_thin_quiet_chunks_only() {
        let s = BurstyArrivals::new(base(), 9, 4, 0.3);
        let inner = base();
        // Chunk 3 is a burst (full volume), 4..6 are quiet.
        assert_eq!(s.chunk(3).len(), inner.chunk(3).len());
        assert!(s.chunk(4).len() < inner.chunk(4).len());
        assert!(!s.chunk(4).is_empty());
        // Determinism.
        assert_eq!(s.chunk(4), s.chunk(4));
    }

    #[test]
    fn out_of_order_is_a_bijection_preserving_the_prefix() {
        let s = OutOfOrderArrivals::new(base(), 9, 4);
        let mut sources: Vec<usize> = (0..s.total_chunks()).map(|i| s.source_index(i)).collect();
        for (i, src) in sources.iter().enumerate().take(s.initial_chunks()) {
            assert_eq!(*src, i, "initial prefix must arrive in order");
        }
        sources.sort_unstable();
        assert_eq!(sources, (0..s.total_chunks()).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_actually_reorders() {
        let s = OutOfOrderArrivals::new(base(), 9, 6);
        let moved = (3..s.total_chunks())
            .filter(|&i| s.source_index(i) != i)
            .count();
        assert!(moved > 0, "a seeded permutation must move something");
        // Timestamps identify the delivered chunk, so arrivals are
        // distinguishable and deterministic.
        assert_eq!(s.chunk(5), s.chunk(5));
    }
}
