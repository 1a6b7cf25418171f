//! Final encoders: a transformed batch → the columnar slab to store.
//!
//! Encoders are the last pipeline stage. [`FeatureHasher`] (the URL
//! pipeline) and [`OneHotEncoder`] produce *sparse* rows, a CSR slab — the
//! sparse representation is what keeps materialized feature chunks `O(p)` in
//! the input size (paper §3.2.1). [`DenseEncoder`] (the Taxi pipeline) copies
//! the engineered columns into a dense slab. All encoders put a constant
//! bias feature at index 0, so the linear models need no separate intercept.

use std::collections::HashMap;

use cdp_storage::{ColumnSlab, CsrBuilder, SlabLayout};

use crate::batch::ColumnBatch;
use crate::component::StateDecodeError;

/// Converts a transformed batch into the slab of labeled feature rows.
pub trait Encoder: Send + Sync {
    /// Stable name for reports.
    fn name(&self) -> &str;

    /// Incrementally folds a batch into encoder statistics (e.g. the one-hot
    /// category table). Stateless encoders keep the default no-op.
    fn update(&mut self, _batch: &ColumnBatch<'_>) {}

    /// Encodes a batch with the current statistics: one slab row per batch
    /// row, in order.
    fn encode(&self, mut batch: ColumnBatch<'_>) -> ColumnSlab {
        self.encode_into(&mut batch, None)
    }

    /// [`Encoder::encode`] that leaves the batch's buffers with the caller
    /// and builds the slab in those of `old` where its layout fits: given a
    /// slab this encoder built before, it allocates nothing.
    fn encode_into(&self, batch: &mut ColumnBatch<'_>, old: Option<ColumnSlab>) -> ColumnSlab;

    /// Current output dimension (may grow for stateful encoders).
    fn dim(&self) -> usize;

    /// Whether the encoder keeps statistics.
    fn is_stateful(&self) -> bool {
        false
    }

    /// Serializes the encoder's statistics for a deployment checkpoint.
    /// Stateless encoders keep the default empty payload.
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores statistics captured by [`Encoder::state_bytes`] on an
    /// encoder of the same type. Stateless encoders keep the default no-op.
    /// Malformed bytes must leave the state unchanged and report a typed
    /// [`StateDecodeError`].
    fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), StateDecodeError> {
        Ok(())
    }

    /// Clones the encoder with its statistics (pipeline snapshots).
    fn clone_box(&self) -> Box<dyn Encoder>;
}

impl Clone for Box<dyn Encoder> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// FNV-1a 64-bit hash — small, fast, dependency-free; collisions are part of
/// the hashing-trick contract.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The hashing-trick encoder (the URL pipeline's "feature hasher").
///
/// Layout: index 0 is the bias, indices `1..=numeric_slots` carry the
/// numeric columns, and each token hashes into one of `2^bits` buckets after
/// the reserved region, with a hash-derived ±1 sign (signed hashing keeps
/// collision noise zero-mean). Stateless: the dimension is fixed up front.
#[derive(Debug, Clone)]
pub struct FeatureHasher {
    bits: u32,
    numeric_slots: usize,
}

impl FeatureHasher {
    /// Creates a hasher with `2^bits` token buckets and room for
    /// `numeric_slots` numeric columns.
    pub fn new(bits: u32, numeric_slots: usize) -> Self {
        assert!(bits <= 30, "hash space of 2^{bits} is unreasonably large");
        Self {
            bits,
            numeric_slots,
        }
    }

    /// The first token-bucket index.
    fn token_base(&self) -> usize {
        1 + self.numeric_slots
    }

    /// The bucket and sign for a token.
    pub fn bucket_of(&self, token: &str) -> (usize, f64) {
        let h = fnv1a(token.as_bytes());
        let bucket = (h & ((1u64 << self.bits) - 1)) as usize;
        let sign = if h >> 63 == 0 { 1.0 } else { -1.0 };
        (self.token_base() + bucket, sign)
    }
}

/// The sparse encoders' shared row layout: bias at index 0, the first
/// `numeric_slots` numeric columns at `1..` (exact zeros and `NaN` skipped),
/// then whatever `token_entry` maps each token of the row's bag to.
fn encode_sparse(
    batch: &mut ColumnBatch<'_>,
    old: Option<ColumnSlab>,
    dim: usize,
    numeric_slots: usize,
    token_entry: impl Fn(&str) -> Option<(usize, f64)>,
) -> ColumnSlab {
    let slots = numeric_slots.min(batch.width());
    let (rows, tokens) = (batch.len(), batch.all_tokens().len());
    let mut slab = CsrBuilder::reusing(old, dim, rows, rows * (1 + slots) + tokens);
    let mut entries = std::mem::take(&mut batch.entries);
    entries.clear();
    // Room for an average row; a longer bag grows it once.
    entries.reserve(1 + slots + tokens.div_ceil(rows.max(1)));
    for (i, &label) in batch.labels().iter().enumerate() {
        entries.clear();
        entries.push((0, 1.0)); // bias
        for (slot, col) in batch.columns().take(slots).enumerate() {
            let v = col[i];
            if v != 0.0 && !v.is_nan() {
                entries.push((1 + slot as u32, v));
            }
        }
        let head = entries.len();
        let tokens = batch.tokens(i).iter();
        entries.extend(
            tokens
                .filter_map(|t| token_entry(t))
                .map(|(i, v)| (i as u32, v)),
        );
        // The head is ascending as pushed and below every token index, so
        // ordering the bag alone hands the builder a sorted row, which its
        // own sort only has to walk. Repeats sum +-1.0: exact in any order.
        entries[head..].sort_unstable_by_key(|&(i, _)| i);
        slab.push_row(label, &mut entries);
    }
    batch.entries = entries;
    slab.finish()
}

impl Encoder for FeatureHasher {
    fn name(&self) -> &str {
        "feature-hasher"
    }

    fn encode_into(&self, batch: &mut ColumnBatch<'_>, old: Option<ColumnSlab>) -> ColumnSlab {
        encode_sparse(batch, old, self.dim(), self.numeric_slots, |token| {
            Some(self.bucket_of(token))
        })
    }

    fn dim(&self) -> usize {
        1 + self.numeric_slots + (1usize << self.bits)
    }

    fn clone_box(&self) -> Box<dyn Encoder> {
        Box::new(self.clone())
    }
}

/// Dense encoder for fully-numeric pipelines (the Taxi pipeline): the
/// numeric columns with a leading bias, `NaN`s mapped to `0.0` defensively,
/// each copied into its slab column in one pass.
#[derive(Debug, Clone)]
pub struct DenseEncoder {
    columns: usize,
}

impl DenseEncoder {
    /// Creates an encoder for batches with `columns` numeric columns.
    pub fn new(columns: usize) -> Self {
        Self { columns }
    }
}

impl Encoder for DenseEncoder {
    fn name(&self) -> &str {
        "dense-encoder"
    }

    fn encode_into(&self, batch: &mut ColumnBatch<'_>, old: Option<ColumnSlab>) -> ColumnSlab {
        let rows = batch.len();
        let (mut labels, mut cols) = match old.map(ColumnSlab::into_parts) {
            Some((labels, SlabLayout::Dense { cols, .. })) => (labels, cols),
            _ => Default::default(),
        };
        labels.clear();
        labels.extend_from_slice(batch.labels());
        cols.resize_with(self.columns + 1, Vec::new);
        for (j, col) in cols.iter_mut().enumerate() {
            col.clear();
            // The bias, then the batch's columns: extra ones are ignored,
            // absent ones read as zero.
            match j.checked_sub(1).map(|j| batch.col(j)) {
                None => col.resize(rows, 1.0),
                Some(None) => col.resize(rows, 0.0),
                Some(Some(src)) => {
                    col.extend(src.iter().map(|v| if v.is_nan() { 0.0 } else { *v }))
                }
            }
        }
        ColumnSlab::dense(labels, cols)
    }

    fn dim(&self) -> usize {
        self.columns + 1
    }

    fn clone_box(&self) -> Box<dyn Encoder> {
        Box::new(self.clone())
    }
}

/// One-hot encoding over the token bag with an *incrementally learned*
/// category table (the hash-table statistic the paper names in §3.1).
///
/// `update` assigns fresh indices to unseen categories, so the output
/// dimension grows over the deployment — exercising the platform's support
/// for growing feature spaces. Tokens never seen by `update` are skipped at
/// encode time (their statistic does not exist yet).
#[derive(Debug, Clone, Default)]
pub struct OneHotEncoder {
    categories: HashMap<String, usize>,
    numeric_slots: usize,
}

impl OneHotEncoder {
    /// Creates an encoder with room for `numeric_slots` numeric columns.
    pub fn new(numeric_slots: usize) -> Self {
        Self {
            categories: HashMap::new(),
            numeric_slots,
        }
    }

    fn token_base(&self) -> usize {
        1 + self.numeric_slots
    }
}

impl Encoder for OneHotEncoder {
    fn name(&self) -> &str {
        "one-hot-encoder"
    }

    fn update(&mut self, batch: &ColumnBatch<'_>) {
        for &token in batch.all_tokens() {
            if !self.categories.contains_key(token) {
                let next = self.categories.len();
                self.categories.insert(token.to_owned(), next);
            }
        }
    }

    fn encode_into(&self, batch: &mut ColumnBatch<'_>, old: Option<ColumnSlab>) -> ColumnSlab {
        let base = self.token_base();
        encode_sparse(batch, old, self.dim(), self.numeric_slots, |token| {
            self.categories.get(token).map(|&idx| (base + idx, 1.0))
        })
    }

    fn dim(&self) -> usize {
        self.token_base() + self.categories.len()
    }

    fn is_stateful(&self) -> bool {
        true
    }

    /// `count u32 | per category in index order: len u32, utf8 bytes`
    /// (big-endian). Index order makes the payload deterministic even though
    /// the live table is a `HashMap`.
    fn state_bytes(&self) -> Vec<u8> {
        let mut by_index: Vec<(&str, usize)> = self
            .categories
            .iter()
            .map(|(token, &idx)| (token.as_str(), idx))
            .collect();
        by_index.sort_by_key(|&(_, idx)| idx);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(by_index.len() as u32).to_be_bytes());
        for (token, _) in by_index {
            buf.extend_from_slice(&(token.len() as u32).to_be_bytes());
            buf.extend_from_slice(token.as_bytes());
        }
        buf
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StateDecodeError> {
        let read_u32 = |at: usize| -> Result<u32, StateDecodeError> {
            let b = bytes.get(at..at + 4).ok_or(StateDecodeError::Truncated {
                needed: at + 4,
                found: bytes.len(),
            })?;
            Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        };
        let count = read_u32(0)?;
        let mut categories = HashMap::with_capacity(count as usize);
        let mut at = 4;
        for idx in 0..count as usize {
            let len = read_u32(at)? as usize;
            at += 4;
            let raw = bytes.get(at..at + len).ok_or(StateDecodeError::Truncated {
                needed: at + len,
                found: bytes.len(),
            })?;
            let token = std::str::from_utf8(raw).map_err(|_| StateDecodeError::InvalidUtf8)?;
            at += len;
            categories.insert(token.to_owned(), idx);
        }
        if at != bytes.len() {
            return Err(StateDecodeError::LengthMismatch {
                expected: at,
                found: bytes.len(),
            });
        }
        self.categories = categories;
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Encoder> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-row batch.
    fn row<'a>(label: f64, nums: &[f64], tokens: &[&'a str]) -> ColumnBatch<'a> {
        let mut batch = ColumnBatch::with_capacity(1, nums.len());
        batch.push_row(label, nums, tokens.iter().copied());
        batch
    }

    /// Row 0 of a CSR slab: its stored `(index, value)` entries.
    fn sparse_row0(slab: &ColumnSlab) -> Vec<(u32, f64)> {
        let (indices, values) = slab.row(0).sparse_parts().expect("a CSR row");
        indices
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect()
    }

    /// The value at `index` of sparse `entries`, `0.0` when none is stored.
    fn value_at(entries: &[(u32, f64)], index: usize) -> f64 {
        let stored = entries.iter().find(|e| e.0 as usize == index);
        stored.map_or(0.0, |e| e.1)
    }

    /// Row 0 of a dense slab: every coordinate.
    fn dense_row0(slab: ColumnSlab) -> Vec<f64> {
        match slab.into_parts().1 {
            SlabLayout::Dense { cols, .. } => cols.iter().map(|col| col[0]).collect(),
            SlabLayout::Csr { .. } => panic!("a dense slab"),
        }
    }

    #[test]
    fn hasher_is_deterministic_and_in_range() {
        let h = FeatureHasher::new(8, 2);
        let dim = h.dim();
        assert_eq!(dim, 1 + 2 + 256);
        for token in ["a", "bb", "com", "login", "xn--test"] {
            let (b1, s1) = h.bucket_of(token);
            let (b2, s2) = h.bucket_of(token);
            assert_eq!((b1, s1), (b2, s2));
            assert!(b1 >= 3 && b1 < dim);
            assert!(s1 == 1.0 || s1 == -1.0);
        }
    }

    #[test]
    fn hasher_encodes_bias_nums_tokens() {
        let h = FeatureHasher::new(4, 2);
        let slab = h.encode(row(1.0, &[0.5, 0.0], &["x"]));
        let v = sparse_row0(&slab);
        assert_eq!(value_at(&v, 0), 1.0); // bias
        assert_eq!(value_at(&v, 1), 0.5); // numeric slot 0
        assert_eq!(slab.row(0).nnz(), 3); // exact zero skipped
        let (bucket, sign) = h.bucket_of("x");
        assert_eq!(value_at(&v, bucket), sign);
        assert_eq!(slab.labels(), &[1.0]);
        assert_eq!(slab.row(0).dim(), h.dim());
    }

    #[test]
    fn hasher_colliding_tokens_sum() {
        let h = FeatureHasher::new(1, 0); // 2 buckets: collisions guaranteed
        let slab = h.encode(row(0.0, &[], &["t1", "t2", "t3", "t4"]));
        // All mass lands in buckets 1..3, one stored entry per bucket hit.
        assert!(slab.row(0).nnz() <= 3);
        let total: f64 = sparse_row0(&slab).iter().map(|(_, v)| v.abs()).sum();
        assert!(total <= 1.0 + 4.0);
    }

    #[test]
    fn dense_encoder_prepends_bias() {
        let e = DenseEncoder::new(3);
        let slab = e.encode(row(2.0, &[1.0, f64::NAN, 3.0], &[]));
        assert_eq!(dense_row0(slab), [1.0, 1.0, 0.0, 3.0]);
        assert_eq!(e.dim(), 4);
    }

    #[test]
    fn dense_encoder_pads_narrow_and_cuts_wide_batches() {
        let e = DenseEncoder::new(2);
        let narrow = e.encode(row(0.0, &[5.0], &[]));
        assert_eq!(dense_row0(narrow), [1.0, 5.0, 0.0]);
        let wide = e.encode(row(0.0, &[5.0, 6.0, 7.0], &[]));
        assert_eq!(dense_row0(wide), [1.0, 5.0, 6.0]);
        // An empty batch still has the encoder's shape.
        let empty = e.encode(ColumnBatch::with_capacity(0, 2));
        assert!(empty.is_empty());
    }

    #[test]
    fn one_hot_learns_incrementally() {
        let mut e = OneHotEncoder::new(0);
        assert_eq!(e.dim(), 1);
        e.update(&row(0.0, &[], &["red", "blue"]));
        assert_eq!(e.categories.len(), 2);
        assert_eq!(e.dim(), 3);
        // Unseen token at encode time is skipped.
        let slab = e.encode(row(1.0, &[], &["red", "green"]));
        assert_eq!(slab.row(0).nnz(), 2); // bias + red
                                          // After another update, "green" gets an index.
        e.update(&row(0.0, &[], &["green"]));
        assert_eq!(e.dim(), 4);
        let slab = e.encode(row(1.0, &[], &["green"]));
        assert_eq!(slab.row(0).nnz(), 2);
        assert_eq!(slab.row(0).dim(), 4);
    }

    #[test]
    fn one_hot_repeated_update_is_idempotent() {
        let mut e = OneHotEncoder::new(0);
        let batch = row(0.0, &[], &["a", "a"]);
        e.update(&batch);
        e.update(&batch);
        assert_eq!(e.categories.len(), 1);
        // A token repeated in one bag counts twice in its one coordinate.
        let slab = e.encode(batch);
        assert_eq!(
            (slab.row(0).nnz(), value_at(&sparse_row0(&slab), 1)),
            (2, 2.0)
        );
    }

    #[test]
    fn one_hot_state_round_trips_preserving_indices() {
        let mut e = OneHotEncoder::new(1);
        e.update(&row(0.0, &[], &["red", "blue", "green"]));
        let mut restored = OneHotEncoder::new(1);
        restored
            .restore_state(&e.state_bytes())
            .expect("well-formed state round-trips");
        assert_eq!(restored.categories.len(), 3);
        assert_eq!(restored.dim(), e.dim());
        let a = e.encode(row(1.0, &[0.5], &["blue"]));
        let b = restored.encode(row(1.0, &[0.5], &["blue"]));
        assert_eq!(a, b);
    }

    #[test]
    fn fnv_distinguishes_tokens() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }
}
