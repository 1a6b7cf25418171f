//! Sparse vectors in sorted coordinate (index/value pair) format.
//!
//! Feature-hashed and one-hot encoded rows have a handful of non-zeros in a
//! space of hundreds of thousands of dimensions; the paper (§3.2.1) relies on
//! a sparse representation to keep the storage cost of materialized feature
//! chunks `O(p)` instead of `O(p²)`.

use serde::{Deserialize, Serialize};

use crate::{DenseVector, LinalgError};

/// A sparse vector: strictly increasing indices with their non-zero values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Builds a sparse vector from parallel index/value arrays.
    ///
    /// # Errors
    /// * [`LinalgError::UnsortedIndices`] if indices are not strictly increasing.
    /// * [`LinalgError::IndexOutOfBounds`] if any index `>= dim`.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Result<Self, LinalgError> {
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        for (pos, window) in indices.windows(2).enumerate() {
            if window[0] >= window[1] {
                return Err(LinalgError::UnsortedIndices { position: pos + 1 });
            }
        }
        if let Some(&last) = indices.last() {
            if last as usize >= dim {
                return Err(LinalgError::IndexOutOfBounds {
                    index: last as usize,
                    dim,
                });
            }
        }
        Ok(Self {
            dim,
            indices,
            values,
        })
    }

    /// An empty (all-zero) sparse vector of dimension `dim`.
    pub fn empty(dim: usize) -> Self {
        Self {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The nominal dimension of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The stored indices (strictly increasing).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at `index` (binary search; `0.0` when absent).
    pub fn get(&self, index: usize) -> f64 {
        match self.indices.binary_search(&(index as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over stored `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .zip(self.values.iter())
            .map(|(&i, &v)| (i as usize, v))
    }

    /// Dot product with a dense vector (`O(nnz)`).
    ///
    /// The dense side is allowed to be *larger* than `self.dim` (a weight
    /// vector that has grown for newer features); it must cover every stored
    /// index.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the dense vector does
    /// not cover the sparse indices.
    pub fn dot_dense(&self, dense: &DenseVector) -> Result<f64, LinalgError> {
        if let Some(&last) = self.indices.last() {
            if last as usize >= dense.dim() {
                return Err(LinalgError::DimensionMismatch {
                    left: self.dim,
                    right: dense.dim(),
                });
            }
        }
        let slice = dense.as_slice();
        Ok(self
            .indices
            .iter()
            .zip(self.values.iter())
            .map(|(&i, &v)| v * slice[i as usize])
            .sum())
    }

    /// `dense += alpha * self` (sparse `axpy`, touches only `nnz` slots).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the dense vector does
    /// not cover the sparse indices.
    pub fn axpy_into(&self, alpha: f64, dense: &mut DenseVector) -> Result<(), LinalgError> {
        if let Some(&last) = self.indices.last() {
            if last as usize >= dense.dim() {
                return Err(LinalgError::DimensionMismatch {
                    left: self.dim,
                    right: dense.dim(),
                });
            }
        }
        let slice = dense.as_mut_slice();
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            slice[i as usize] += alpha * v;
        }
        Ok(())
    }

    /// Dot product with a dense vector that may be *narrower* than the
    /// stored indices: coordinates the dense side does not cover contribute
    /// `0.0` (`O(nnz)`), exactly as if the dense vector were zero-padded.
    ///
    /// The fused transform+gradient pass uses this for margins of freshly
    /// re-materialized rows whose one-hot vocabulary grew beyond the current
    /// model — the model is only grown *after* the deterministic reduce.
    pub fn dot_dense_padded(&self, dense: &DenseVector) -> f64 {
        let slice = dense.as_slice();
        self.indices
            .iter()
            .zip(self.values.iter())
            .take_while(|(&i, _)| (i as usize) < slice.len())
            .map(|(&i, &v)| v * slice[i as usize])
            .sum()
    }

    /// `dense += alpha * self`, growing `dense` with zero padding first when
    /// it does not cover the stored indices.
    pub fn axpy_into_growing(&self, alpha: f64, dense: &mut DenseVector) {
        if let Some(&last) = self.indices.last() {
            dense.grow_to(last as usize + 1);
        }
        let slice = dense.as_mut_slice();
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            slice[i as usize] += alpha * v;
        }
    }

    /// Multiplies every stored value by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Euclidean (L2) norm over the stored entries.
    pub fn norm_l2(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Manhattan (L1) norm over the stored entries.
    pub fn norm_l1(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Expands into a dense vector of the same nominal dimension.
    pub fn to_dense(&self) -> DenseVector {
        let mut out = DenseVector::zeros(self.dim);
        let slice = out.as_mut_slice();
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            slice[i as usize] = v;
        }
        out
    }

    /// Approximate heap footprint in bytes (index + value arrays).
    ///
    /// Used by the storage layer's byte-budget accounting.
    pub fn size_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Drops stored entries whose absolute value is below `eps`.
    pub fn prune(&mut self, eps: f64) {
        let mut keep_idx = Vec::with_capacity(self.indices.len());
        let mut keep_val = Vec::with_capacity(self.values.len());
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            if v.abs() >= eps {
                keep_idx.push(i);
                keep_val.push(v);
            }
        }
        self.indices = keep_idx;
        self.values = keep_val;
    }
}

/// Incremental builder that accepts unsorted, possibly duplicated indices and
/// produces a canonical [`SparseVector`] (duplicates are summed — the
/// behaviour feature hashing needs when two tokens collide in one bucket).
#[derive(Debug, Clone, Default)]
pub struct SparseBuilder {
    entries: Vec<(u32, f64)>,
}

impl SparseBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Adds `value` at `index`; contributions to the same index accumulate.
    pub fn add(&mut self, index: usize, value: f64) {
        self.entries.push((index as u32, value));
    }

    /// Number of raw (pre-merge) entries added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalizes into a sparse vector of dimension `dim`.
    ///
    /// # Errors
    /// Returns [`LinalgError::IndexOutOfBounds`] if any added index `>= dim`.
    pub fn build(mut self, dim: usize) -> Result<SparseVector, LinalgError> {
        let mut indices: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        merge_entries(&mut self.entries, &mut indices, &mut values);
        if let Some(&i) = indices.iter().find(|&&i| i as usize >= dim) {
            return Err(LinalgError::IndexOutOfBounds {
                index: i as usize,
                dim,
            });
        }
        SparseVector::new(dim, indices, values)
    }
}

/// Appends the canonical form of one row's raw `entries` to `indices` and
/// `values`: an unstable sort by index, then repeats summed into one slot in
/// sorted order (explicit zeros kept). The one place sparse rows are
/// canonicalized — [`SparseBuilder::build`] and the store's CSR builder both
/// go through it, so their rows are bit-identical.
pub fn merge_entries(entries: &mut [(u32, f64)], indices: &mut Vec<u32>, values: &mut Vec<f64>) {
    entries.sort_unstable_by_key(|&(i, _)| i);
    let row_start = indices.len();
    for &(i, v) in entries.iter() {
        // `indices` and `values` are pushed in lockstep, so a repeated index
        // within this row implies a parallel last value to fold into.
        match values.last_mut() {
            Some(slot) if indices.len() > row_start && indices.last() == Some(&i) => *slot += v,
            _ => {
                indices.push(i);
                values.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(dim: usize, pairs: &[(u32, f64)]) -> SparseVector {
        let (idx, val): (Vec<u32>, Vec<f64>) = pairs.iter().copied().unzip();
        SparseVector::new(dim, idx, val).unwrap()
    }

    #[test]
    fn new_rejects_unsorted() {
        let err = SparseVector::new(10, vec![3, 1], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, LinalgError::UnsortedIndices { position: 1 });
    }

    #[test]
    fn new_rejects_out_of_bounds() {
        let err = SparseVector::new(3, vec![0, 5], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, LinalgError::IndexOutOfBounds { index: 5, dim: 3 });
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let v = sv(8, &[(1, 2.0), (5, -1.0)]);
        assert_eq!(v.get(1), 2.0);
        assert_eq!(v.get(2), 0.0);
        assert_eq!(v.get(5), -1.0);
    }

    #[test]
    fn dot_dense_skips_zeros() {
        let s = sv(6, &[(0, 2.0), (4, 3.0)]);
        let d = DenseVector::new(vec![1.0, 9.0, 9.0, 9.0, 2.0, 9.0]);
        assert_eq!(s.dot_dense(&d).unwrap(), 2.0 + 6.0);
    }

    #[test]
    fn dot_dense_allows_larger_dense() {
        let s = sv(3, &[(2, 1.0)]);
        let d = DenseVector::new(vec![0.0, 0.0, 5.0, 7.0]);
        assert_eq!(s.dot_dense(&d).unwrap(), 5.0);
    }

    #[test]
    fn dot_dense_rejects_smaller_dense() {
        let s = sv(6, &[(4, 3.0)]);
        let d = DenseVector::zeros(3);
        assert!(s.dot_dense(&d).is_err());
    }

    #[test]
    fn axpy_into_updates_only_nnz() {
        let s = sv(4, &[(1, 2.0), (3, -1.0)]);
        let mut d = DenseVector::new(vec![1.0, 1.0, 1.0, 1.0]);
        s.axpy_into(2.0, &mut d).unwrap();
        assert_eq!(d.as_slice(), &[1.0, 5.0, 1.0, -1.0]);
    }

    #[test]
    fn to_dense_round_trips() {
        let s = sv(5, &[(0, 1.5), (4, -2.5)]);
        let d = s.to_dense();
        assert_eq!(d.as_slice(), &[1.5, 0.0, 0.0, 0.0, -2.5]);
        assert_eq!(s.dot_dense(&d).unwrap(), 1.5 * 1.5 + 2.5 * 2.5);
    }

    #[test]
    fn builder_merges_duplicates() {
        let mut b = SparseBuilder::new();
        b.add(7, 1.0);
        b.add(2, 0.5);
        b.add(7, 2.0);
        let v = b.build(10).unwrap();
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(7), 3.0);
        assert_eq!(v.get(2), 0.5);
    }

    #[test]
    fn builder_rejects_out_of_bound_index() {
        let mut b = SparseBuilder::new();
        b.add(10, 1.0);
        assert!(b.build(10).is_err());
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut v = sv(5, &[(0, 1e-12), (2, 1.0)]);
        v.prune(1e-9);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(2), 1.0);
    }

    #[test]
    fn size_bytes_counts_both_arrays() {
        let v = sv(100, &[(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(v.size_bytes(), 3 * 4 + 3 * 8);
    }

    #[test]
    fn empty_vector_behaves() {
        let v = SparseVector::empty(42);
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.norm_l2(), 0.0);
        let d = DenseVector::zeros(42);
        assert_eq!(v.dot_dense(&d).unwrap(), 0.0);
    }
}
