//! Timestamped raw and feature chunks (paper §3, workflow stages 1–2).
//!
//! Both kinds share their rows: a [`RawChunk`] is a handle on one immutable
//! slice of records, a [`FeatureChunk`] on one [`ColumnSlab`] whose rows
//! consumers read through zero-copy [`RowView`]s ([`FeatureChunk::rows`]).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cdp_linalg::Vector;

use crate::columnar::{ColumnSlab, RowView};
use crate::record::Record;

/// Chunk creation timestamp. Acts as both the unique identifier of a chunk
/// and the indicator of its recency (paper §3, stage 1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The timestamp immediately after this one.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

/// A chunk of raw (unpreprocessed) records: an immutable, shared handle. The
/// rows are allocated once, at creation; `clone()` bumps a reference count,
/// so a stream, the store and a retrain over the history read the same rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawChunk {
    /// Unique identifier and recency indicator.
    pub timestamp: Timestamp,
    /// The raw rows.
    pub records: Arc<[Record]>,
}

impl RawChunk {
    /// Creates a raw chunk.
    pub fn new(timestamp: Timestamp, records: Vec<Record>) -> Self {
        let records = records.into();
        Self { timestamp, records }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The accounted footprint in bytes ([`Record::size_bytes`] per row, the
    /// same for every clone): what the cost ledger charges for moving the
    /// chunk, not what the allocator holds for it.
    pub fn size_bytes(&self) -> usize {
        self.records.iter().map(Record::size_bytes).sum()
    }
}

/// A single preprocessed example as a row: what a prediction query returns.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPoint {
    /// Regression target or classification label (±1 for SVM, 0/1 for
    /// logistic regression).
    pub label: f64,
    /// The transformed feature vector.
    pub features: Vector,
}

/// A chunk of preprocessed features, carrying a reference (`raw_ref`) to the
/// raw chunk it was materialized from so it can be re-created after eviction.
///
/// The chunk holds every row of one shared columnar [`ColumnSlab`]. Two
/// chunks are equal when their timestamps and slabs are, and two empty
/// chunks whatever slabs back them: a dense slab and a CSR one of the same
/// rows are not the same chunk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureChunk {
    /// Same identifier as the originating raw chunk.
    pub timestamp: Timestamp,
    /// Reference to the originating raw chunk (paper stage 2).
    pub raw_ref: Timestamp,
    slab: Arc<ColumnSlab>,
    bytes: usize,
}

impl FeatureChunk {
    /// Creates a feature chunk over all rows of an existing slab.
    pub fn from_slab(timestamp: Timestamp, raw_ref: Timestamp, slab: Arc<ColumnSlab>) -> Self {
        let bytes = (0..slab.len()).map(|i| slab.row_size_bytes(i)).sum();
        Self {
            timestamp,
            raw_ref,
            slab,
            bytes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the chunk has no examples.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Approximate heap footprint in bytes: the sum of
    /// [`ColumnSlab::row_size_bytes`], what the row layout's accounting
    /// reported for the same rows, so budget and eviction decisions are
    /// unchanged.
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Zero-copy view of example `i`.
    ///
    /// # Panics
    /// Panics when `i >= self.len()` (slice-index discipline).
    pub fn row(&self, i: usize) -> RowView<'_> {
        self.slab.row(i)
    }

    /// Iterates the chunk's examples as zero-copy views, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowView<'_>> + '_ {
        (0..self.len()).map(move |i| self.slab.row(i))
    }

    /// The backing slab (the spill codec copies its columns out).
    pub fn slab(&self) -> &Arc<ColumnSlab> {
        &self.slab
    }
}

impl PartialEq for FeatureChunk {
    fn eq(&self, other: &Self) -> bool {
        self.timestamp == other.timestamp
            && self.raw_ref == other.raw_ref
            && (self.slab == other.slab || (self.is_empty() && other.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::CsrBuilder;
    use crate::disk::{decode_chunk, encode_chunk};
    use crate::record::Value;

    #[test]
    fn timestamp_ordering_and_next() {
        let a = Timestamp(3);
        let b = a.next();
        assert!(b > a);
        assert_eq!(b, Timestamp(4));
        assert_eq!(format!("{a}"), "t3");
    }

    /// Three rows in the Taxi layout (seven numeric fields) and two in the
    /// URL layout (label, sixteen numeric fields one of them missing, tokens).
    fn taxi_and_url_shaped() -> (RawChunk, RawChunk) {
        let taxi_row = || Record::new((0..7).map(|i| Value::Num(f64::from(i))).collect());
        let url_row = || {
            let mut values = vec![Value::Num(1.0)];
            values.extend((0..15).map(|i| Value::Num(f64::from(i))));
            values.push(Value::Missing);
            values.push(Value::Text("tok1 tok22 tok333".into()));
            Record::new(values)
        };
        (
            RawChunk::new(Timestamp(1), vec![taxi_row(), taxi_row(), taxi_row()]),
            RawChunk::new(Timestamp(2), vec![url_row(), url_row()]),
        )
    }

    #[test]
    fn a_clone_shares_its_rows_and_equality_is_by_content() {
        let (taxi, url) = taxi_and_url_shaped();
        let handle = taxi.clone();
        assert!(Arc::ptr_eq(&taxi.records, &handle.records));
        assert_eq!(taxi, handle);
        // Built separately: other rows in memory, the same chunk.
        let (again, _) = taxi_and_url_shaped();
        assert!(!Arc::ptr_eq(&taxi.records, &again.records));
        assert_eq!(taxi, again);
        assert_ne!(taxi, url);
        assert_ne!(taxi, RawChunk::new(Timestamp(9), taxi.records.to_vec()));
    }

    #[test]
    fn size_bytes_is_the_ledgers_number_whatever_holds_the_rows() {
        // The literals the `Vec<Record>` representation reported: a 24-byte
        // slot per value plus 8 per number and the text's length.
        let (taxi, url) = taxi_and_url_shaped();
        assert_eq!((taxi.len(), url.len()), (3, 2));
        assert_eq!(taxi.size_bytes(), 3 * 224);
        assert_eq!(url.size_bytes(), 2 * 577);
        assert_eq!(taxi.clone().size_bytes(), 672);
    }

    fn chunk(ts: u64, slab: ColumnSlab) -> FeatureChunk {
        FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), Arc::new(slab))
    }

    #[test]
    fn feature_chunk_tracks_raw_ref() {
        let fc = chunk(9, ColumnSlab::dense(vec![1.0], vec![vec![1.0], vec![2.0]]));
        assert_eq!(fc.raw_ref, fc.timestamp);
        assert_eq!(fc.len(), 1);
    }

    #[test]
    fn feature_chunks_are_equal_when_their_timestamps_and_slabs_are() {
        // The rows [1, 0] and [0, 2] as a dense slab and as a CSR block.
        let cols = vec![vec![1.0, 0.0], vec![0.0, 2.0]];
        let dense = || chunk(3, ColumnSlab::dense(vec![1.0, -1.0], cols.clone()));
        let csr = || {
            let mut builder = CsrBuilder::reusing(None, 2, 2, 2);
            builder.push_row(1.0, &mut [(0, 1.0)]);
            builder.push_row(-1.0, &mut [(1, 2.0)]);
            chunk(3, builder.finish())
        };
        // Built alike, equal; the same rows in the other layout, not.
        assert_eq!(dense(), dense());
        assert_eq!(csr(), csr());
        assert_ne!(dense(), csr());
        // A spill round trip gives back the same chunk, in either layout.
        for fc in [dense(), csr()] {
            assert_eq!(decode_chunk(&encode_chunk(&fc)).ok(), Some(fc));
        }
        // Another timestamp is another chunk; two empty chunks are equal
        // whatever slabs back them.
        let later = FeatureChunk {
            timestamp: Timestamp(4),
            ..dense()
        };
        assert_ne!(dense(), later);
        let empty_dense = chunk(5, ColumnSlab::dense(Vec::new(), vec![Vec::new(); 3]));
        let empty_csr = chunk(5, CsrBuilder::reusing(None, 0, 0, 0).finish());
        assert_eq!(empty_dense, empty_csr);
    }
}
