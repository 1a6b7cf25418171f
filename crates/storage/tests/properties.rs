//! Property-based tests of the storage layer: eviction and budget
//! invariants, and codec round-trips for arbitrary chunks.

use cdp_linalg::{DenseVector, SparseBuilder, Vector};
use cdp_storage::disk::{decode_chunk, encode_chunk};
use cdp_storage::{
    ChunkStore, FeatureChunk, FeatureLookup, LabeledPoint, RawChunk, Record, StorageBudget,
    StorageError, Timestamp, Value,
};
use proptest::prelude::*;

fn raw(ts: u64) -> RawChunk {
    RawChunk::new(
        Timestamp(ts),
        vec![Record::new(vec![Value::Num(ts as f64)])],
    )
}

/// Arbitrary labeled point (dense or sparse) from a compact seed.
fn point_strategy() -> impl Strategy<Value = LabeledPoint> {
    let dense = prop::collection::vec(-1e3..1e3f64, 0..12)
        .prop_map(|v| LabeledPoint::new(1.0, Vector::Dense(DenseVector::new(v))));
    let sparse = prop::collection::vec((0usize..64, -1e3..1e3f64), 0..12).prop_map(|entries| {
        let mut b = SparseBuilder::new();
        for (i, v) in entries {
            b.add(i, v);
        }
        LabeledPoint::new(-1.0, Vector::Sparse(b.build(64).expect("indices < 64")))
    });
    prop_oneof![dense, sparse]
}

/// A chunk's points in one layout, as the pipeline's encoders produce them:
/// all dense at one width, or all sparse at dimension 64. (A mix is stored
/// as CSR, which keeps the arithmetic of each row but not its bytes.)
fn uniform_points(rows: std::ops::Range<usize>) -> impl Strategy<Value = Vec<LabeledPoint>> {
    let wide = prop::collection::vec(-1e3..1e3f64, 12);
    let dense = (0usize..12, prop::collection::vec(wide, rows.clone())).prop_map(|(dim, rows)| {
        let cut = |row: Vec<f64>| Vector::Dense(DenseVector::new(row[..dim].to_vec()));
        rows.into_iter()
            .map(|row| LabeledPoint::new(1.0, cut(row)))
            .collect()
    });
    let sparse = prop::collection::vec(point_strategy(), rows).prop_map(|points| {
        points
            .into_iter()
            .filter(|p| p.features.is_sparse())
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
                .put_feature(FeatureChunk::new(Timestamp(ts), Timestamp(ts), points))
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
                .put_feature(FeatureChunk::new(
                    Timestamp(t),
                    Timestamp(t),
                    vec![LabeledPoint::new(0.0, Vector::from(vec![1.0]))],
                ))
                .expect("raw present");
        }
        for &p in &probes {
            match store.lookup_feature(Timestamp(p)) {
                FeatureLookup::Materialized(fc) => prop_assert_eq!(fc.timestamp, Timestamp(p)),
                FeatureLookup::Evicted(rc) => {
                    prop_assert_eq!(rc.timestamp, Timestamp(p));
                    prop_assert!(p < n);
                }
                FeatureLookup::Unavailable => prop_assert!(p >= n),
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
            let row_bytes: usize = points.iter().map(LabeledPoint::size_bytes).sum();
            let fc = FeatureChunk::new(Timestamp(ts), Timestamp(ts), points);
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
        let originals: Vec<Vec<LabeledPoint>> = chunks.clone();
        for (t, points) in chunks.into_iter().enumerate() {
            let ts = t as u64;
            store.put_raw(raw(ts)).expect("unique");
            store
                .put_feature(FeatureChunk::new(Timestamp(ts), Timestamp(ts), points))
                .expect("raw present");
        }
        let newest_m: Vec<Timestamp> =
            (n.saturating_sub(m)..n).map(|t| Timestamp(t as u64)).collect();
        prop_assert_eq!(store.materialized_timestamps(), newest_m);
        for (t, original) in originals.iter().enumerate() {
            let ts = Timestamp(t as u64);
            match store.lookup_feature(ts) {
                FeatureLookup::Materialized(fc) => {
                    prop_assert!(t >= n.saturating_sub(m));
                    prop_assert_eq!(&fc.to_points(), original);
                }
                FeatureLookup::Evicted(rc) => {
                    prop_assert!(t < n.saturating_sub(m));
                    prop_assert_eq!(rc.timestamp, ts);
                    prop_assert_eq!(rc, raw(ts.0));
                }
                FeatureLookup::Unavailable => prop_assert!(false, "chunk {t} lost entirely"),
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
        let chunk = FeatureChunk::new(Timestamp(ts), Timestamp(raw_ref), points);
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
        let chunk = FeatureChunk::new(Timestamp(7), Timestamp(7), points);
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
        let chunk = FeatureChunk::new(Timestamp(1), Timestamp(1), points);
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
