//! Property-based tests of the storage layer: eviction and budget
//! invariants, and codec round-trips for arbitrary chunks.

use std::collections::BTreeSet;
use std::sync::Arc;

use cdp_storage::disk::{decode_chunk, encode_chunk};
use cdp_storage::{
    ChunkStore, ColumnSlab, CsrBuilder, FeatureChunk, FeatureSource, RawChunk, Record,
    StorageBudget, StorageError, Timestamp, Value,
};
use proptest::prelude::*;

fn raw(ts: u64) -> RawChunk {
    RawChunk::new(
        Timestamp(ts),
        vec![Record::new(vec![Value::Num(ts as f64)])],
    )
}

/// A row as a test writes it: every coordinate of a dense row (label 1),
/// or the raw entries of a sparse row at dimension 64 (label -1), repeats
/// summed when the row is stored.
#[derive(Debug, Clone)]
enum Point {
    Dense(Vec<f64>),
    Sparse(Vec<(u32, f64)>),
}

impl Point {
    fn dim(&self) -> usize {
        match self {
            Point::Dense(v) => v.len(),
            Point::Sparse(_) => 64,
        }
    }

    /// The label and the stored coordinates, as the row layout accounted
    /// them.
    fn size_bytes(&self) -> usize {
        8 + match self {
            Point::Dense(v) => v.len() * 8,
            Point::Sparse(entries) => {
                let stored: BTreeSet<u32> = entries.iter().map(|e| e.0).collect();
                stored.len() * (4 + 8)
            }
        }
    }
}

/// The chunk `points` make: column slabs when all of them are dense at one
/// width, else a CSR block at the widest row's dimension in which a dense
/// row stores every coordinate, zeros too.
fn chunk(ts: u64, raw_ref: u64, points: &[Point]) -> FeatureChunk {
    let dim = points.iter().map(Point::dim).max().unwrap_or(0);
    let labels = points.iter().map(|p| match p {
        Point::Dense(_) => 1.0,
        Point::Sparse(_) => -1.0,
    });
    let uniform: Vec<&Vec<f64>> = points
        .iter()
        .filter_map(|p| match p {
            Point::Dense(v) if v.len() == dim => Some(v),
            _ => None,
        })
        .collect();
    let slab = if !points.is_empty() && uniform.len() == points.len() {
        let column = |j| uniform.iter().map(|v| v[j]).collect();
        ColumnSlab::dense(labels.collect(), (0..dim).map(column).collect())
    } else {
        let mut builder = CsrBuilder::reusing(None, dim, points.len(), 0);
        for (label, point) in labels.zip(points) {
            let mut entries = match point {
                Point::Dense(v) => (0..).zip(v.iter().copied()).collect(),
                Point::Sparse(entries) => entries.clone(),
            };
            builder.push_row(label, &mut entries);
        }
        builder.finish()
    };
    FeatureChunk::from_slab(Timestamp(ts), Timestamp(raw_ref), Arc::new(slab))
}

/// Arbitrary point (dense or sparse) from a compact seed.
fn point_strategy() -> impl Strategy<Value = Point> {
    let dense = prop::collection::vec(-1e3..1e3f64, 0..12).prop_map(Point::Dense);
    let sparse = prop::collection::vec((0usize..64, -1e3..1e3f64), 0..12).prop_map(|entries| {
        Point::Sparse(entries.into_iter().map(|(i, v)| (i as u32, v)).collect())
    });
    prop_oneof![dense, sparse]
}

/// A chunk's points in one layout, as the pipeline's encoders produce them:
/// all dense at one width, or all sparse at dimension 64. (A mix is stored
/// as CSR, which keeps the arithmetic of each row but not its bytes.)
fn uniform_points(rows: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    let wide = prop::collection::vec(-1e3..1e3f64, 12);
    let dense = (0usize..12, prop::collection::vec(wide, rows.clone())).prop_map(|(dim, rows)| {
        let cut = |row: Vec<f64>| Point::Dense(row[..dim].to_vec());
        rows.into_iter().map(cut).collect()
    });
    let sparse = prop::collection::vec(point_strategy(), rows).prop_map(|points| {
        points
            .into_iter()
            .filter(|p| matches!(p, Point::Sparse(_)))
            .collect()
    });
    prop_oneof![dense, sparse]
}

proptest! {
    /// The store's byte accounting always equals the sum over materialized
    /// chunks, no matter the budget or insertion count.
    #[test]
    fn byte_accounting_is_exact(
        budget in 0usize..20,
        chunks in prop::collection::vec(prop::collection::vec(point_strategy(), 0..4), 1..30),
    ) {
        let mut store = ChunkStore::new(StorageBudget::MaxChunks(budget));
        for (t, points) in chunks.into_iter().enumerate() {
            let ts = t as u64;
            store.put_raw(raw(ts)).expect("unique");
            store
                .put_feature(chunk(ts, ts, &points))
                .expect("raw present");
        }
        let expected: usize = store
            .materialized_timestamps()
            .iter()
            .map(|ts| store.peek_feature(*ts).expect("listed").size_bytes())
            .sum();
        prop_assert_eq!(store.feature_bytes(), expected);
        prop_assert!(store.materialized_count() <= budget);
    }

    /// Every lookup lands in exactly one of the three states, and hits +
    /// misses never exceed the lookups performed.
    #[test]
    fn lookup_states_partition(n in 1u64..40, budget in 0usize..40, probes in prop::collection::vec(0u64..60, 1..30)) {
        let mut store = ChunkStore::new(StorageBudget::MaxChunks(budget));
        for t in 0..n {
            store.put_raw(raw(t)).expect("unique");
            store
                .put_feature(FeatureChunk::from_slab(
                    Timestamp(t),
                    Timestamp(t),
                    Arc::new(ColumnSlab::dense(vec![0.0], vec![vec![1.0]])),
                ))
                .expect("raw present");
        }
        for &p in &probes {
            match store.lookup_feature(Timestamp(p)) {
                Some(FeatureSource::Memory(fc)) => prop_assert_eq!(fc.timestamp, Timestamp(p)),
                Some(FeatureSource::Raw(rc, _)) => {
                    prop_assert_eq!(rc.timestamp, Timestamp(p));
                    prop_assert!(p < n);
                }
                Some(FeatureSource::Disk(_)) => prop_assert!(false, "a chunk store has no disk tier"),
                None => prop_assert!(p >= n),
            }
        }
        let stats = store.stats();
        prop_assert_eq!(
            stats.feature_hits + stats.feature_misses + stats.unavailable,
            probes.len() as u64
        );
    }

    /// Columnar accounting matches the row-layout shadow model: a chunk's
    /// `size_bytes` equals the sum of its points' row sizes by construction,
    /// so a `MaxBytes` store makes exactly the eviction decisions a
    /// row-layout store would — same survivors, same byte totals.
    #[test]
    fn columnar_accounting_matches_row_shadow(
        budget_bytes in 0usize..4096,
        chunks in prop::collection::vec(uniform_points(0..4), 1..24),
    ) {
        let mut store = ChunkStore::new(StorageBudget::MaxBytes(budget_bytes));
        let mut shadow: Vec<(u64, usize)> = Vec::new();
        let mut shadow_bytes = 0usize;
        for (t, points) in chunks.into_iter().enumerate() {
            let ts = t as u64;
            let row_bytes: usize = points.iter().map(Point::size_bytes).sum();
            let fc = chunk(ts, ts, &points);
            prop_assert_eq!(fc.size_bytes(), row_bytes);
            store.put_raw(raw(ts)).expect("unique");
            store.put_feature(fc).expect("raw present");
            shadow.push((ts, row_bytes));
            shadow_bytes += row_bytes;
            // Oldest-first eviction until the cache fits the budget again.
            while shadow_bytes > budget_bytes && !shadow.is_empty() {
                shadow_bytes -= shadow.remove(0).1;
            }
        }
        let survivors: Vec<Timestamp> = shadow.iter().map(|&(ts, _)| Timestamp(ts)).collect();
        prop_assert_eq!(store.materialized_timestamps(), survivors);
        prop_assert_eq!(store.feature_bytes(), shadow_bytes);
    }

    /// The collector keeps the newest `m` chunks materialized and falls
    /// through to the original raw chunk for everything it reclaimed — the
    /// `Rematerialize` path always has exact ground truth to rebuild from.
    #[test]
    fn gc_preserves_rematerialize_fallthrough(
        m in 0usize..10,
        chunks in prop::collection::vec(uniform_points(1..4), 1..20),
    ) {
        let mut store = ChunkStore::new(StorageBudget::MaxChunks(m));
        let n = chunks.len();
        for (t, points) in chunks.iter().enumerate() {
            let ts = t as u64;
            store.put_raw(raw(ts)).expect("unique");
            store
                .put_feature(chunk(ts, ts, points))
                .expect("raw present");
        }
        let newest_m: Vec<Timestamp> =
            (n.saturating_sub(m)..n).map(|t| Timestamp(t as u64)).collect();
        prop_assert_eq!(store.materialized_timestamps(), newest_m);
        for (t, original) in chunks.iter().enumerate() {
            let ts = Timestamp(t as u64);
            match store.lookup_feature(ts) {
                Some(FeatureSource::Memory(fc)) => {
                    prop_assert!(t >= n.saturating_sub(m));
                    prop_assert_eq!(&*fc, &chunk(t as u64, t as u64, original));
                }
                Some(FeatureSource::Raw(rc, _)) => {
                    prop_assert!(t < n.saturating_sub(m));
                    prop_assert_eq!(rc.timestamp, ts);
                    prop_assert_eq!(rc, raw(ts.0));
                }
                Some(FeatureSource::Disk(_)) => prop_assert!(false, "a chunk store has no disk tier"),
                None => prop_assert!(false, "chunk {t} lost entirely"),
            }
        }
        let stats = store.stats();
        prop_assert_eq!(stats.evictions as usize, n.saturating_sub(m));
        if m == 0 && n > 0 {
            prop_assert!(stats.gc_runs >= 1);
        }
    }

    /// The binary codec round-trips arbitrary chunks exactly.
    #[test]
    fn codec_round_trip(ts in 0u64..1_000_000, raw_ref in 0u64..1_000_000, points in prop::collection::vec(point_strategy(), 0..10)) {
        let chunk = chunk(ts, raw_ref, &points);
        let encoded = encode_chunk(&chunk);
        let decoded = decode_chunk(&encoded).expect("own encoding is valid");
        prop_assert_eq!(chunk, decoded);
    }

    /// Flipping any single bit of any byte of a valid encoding always yields
    /// a typed [`StorageError::Corrupt`] — never a panic and never a
    /// silently-wrong chunk. This is the guarantee the CRC-32 trailer
    /// (codec v2) exists for: without it, a flip inside an `f64` payload
    /// decodes "successfully" to different numbers.
    #[test]
    fn single_byte_corruption_always_errors(
        points in prop::collection::vec(point_strategy(), 0..6),
        byte_frac in 0.0..1.0f64,
        flip_bit in 0u32..8,
    ) {
        let chunk = chunk(7, 7, &points);
        let mut encoded = encode_chunk(&chunk).to_vec();
        let idx = (((encoded.len() - 1) as f64) * byte_frac) as usize;
        encoded[idx] ^= 1u8 << flip_bit;
        let result = decode_chunk(&encoded);
        prop_assert!(
            matches!(result, Err(StorageError::Corrupt(_))),
            "flip of bit {} at byte {}/{} must be a Corrupt error, got {:?}",
            flip_bit,
            idx,
            encoded.len(),
            result.map(|c| c.timestamp)
        );
    }

    /// Decoding never panics on arbitrary prefixes of valid data (graceful
    /// truncation errors).
    #[test]
    fn codec_truncation_is_graceful(points in prop::collection::vec(point_strategy(), 1..5), cut_frac in 0.0..1.0f64) {
        let chunk = chunk(1, 1, &points);
        let encoded = encode_chunk(&chunk);
        let cut = ((encoded.len() as f64) * cut_frac) as usize;
        if cut < encoded.len() {
            // Must return an error, not panic. (A cut at a chunk boundary
            // with 0 remaining points could decode successfully only if the
            // header said 0 points, which it does not here.)
            prop_assert!(decode_chunk(&encoded[..cut]).is_err());
        }
    }
}
