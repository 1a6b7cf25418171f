//! Columnar chunk slabs: the v2 storage representation.
//!
//! A [`ColumnSlab`] stores a chunk's examples column-major — one label
//! column plus either dense column slabs (`Vec<f64>` per feature column) or
//! a CSR-style sparse block — so the pipeline, the trainer, and the fused
//! transform+gradient pass can iterate examples without allocating a
//! `LabeledPoint` per row. A [`FeatureChunk`](crate::FeatureChunk) holds
//! one `Arc<ColumnSlab>` whole.
//!
//! **Bit-identity contract.** Every numeric access through [`RowView`]
//! replicates the exact floating-point operation order of the row layout it
//! replaced ([`Vector::dot_padded`], [`Vector::axpy_into_growing`], …):
//! dense rows are read column-ascending, CSR rows in stored-index order.
//! Per-row byte accounting is preserved by construction (dense row =
//! `8 + dim*8`, CSR row = `8 + nnz*12` — identical to
//! `LabeledPoint::size_bytes`), so budget and eviction decisions cannot
//! drift from the row-layout semantics.

use serde::{Deserialize, Serialize};

use cdp_linalg::{merge_entries, DenseVector, SparseVector, Vector};

use crate::chunk::LabeledPoint;

/// The column-major payload of one slab.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlabLayout {
    /// All rows dense with one shared dimension: `cols[j][i]` is feature
    /// `j` of row `i`.
    Dense {
        /// Shared row dimension.
        dim: usize,
        /// One column slab per feature, each `n_rows` long.
        cols: Vec<Vec<f64>>,
    },
    /// All rows sparse with one shared nominal dimension, in CSR form: row
    /// `i` owns `indices[row_ptr[i]..row_ptr[i+1]]` and the parallel
    /// `values` range, indices strictly increasing within a row.
    Csr {
        /// Shared nominal dimension.
        dim: usize,
        /// `n_rows + 1` offsets into `indices`/`values`.
        row_ptr: Vec<u32>,
        /// Concatenated per-row sorted indices.
        indices: Vec<u32>,
        /// Values parallel to `indices`.
        values: Vec<f64>,
    },
}

/// A column-major chunk of labeled examples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSlab {
    labels: Vec<f64>,
    layout: SlabLayout,
}

impl ColumnSlab {
    /// Builds a slab from row-major points: all-dense one-dimension rows
    /// become column slabs, anything else a CSR block at the widest row's
    /// dimension — a sparse row keeps its stored entries, a dense row among
    /// them stores every coordinate (zeros too) in index order, so a dot
    /// product or an update over the slab row makes the multiply-adds of the
    /// vector it came from, in its order. The pipeline builds its slabs
    /// directly ([`ColumnSlab::dense`], [`CsrBuilder`]); this serves callers
    /// that hold points (tests, hand-made chunks).
    pub fn from_points(points: Vec<LabeledPoint>) -> Self {
        let labels: Vec<f64> = points.iter().map(|p| p.label).collect();
        let dim = points.iter().map(|p| p.features.dim()).max().unwrap_or(0);
        let dense = |p: &LabeledPoint| !p.features.is_sparse() && p.features.dim() == dim;
        if !points.is_empty() && points.iter().all(dense) {
            let column = |j| points.iter().map(|p| p.features.get(j)).collect();
            return Self::dense(labels, (0..dim).map(column).collect());
        }
        let mut row_ptr = vec![0u32];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for p in &points {
            match &p.features {
                Vector::Sparse(s) => {
                    indices.extend_from_slice(s.indices());
                    values.extend_from_slice(s.values());
                }
                Vector::Dense(d) => {
                    indices.extend(0..d.dim() as u32);
                    values.extend_from_slice(d.as_slice());
                }
            }
            row_ptr.push(indices.len() as u32);
        }
        let layout = SlabLayout::Csr {
            dim,
            row_ptr,
            indices,
            values,
        };
        Self { labels, layout }
    }

    /// A dense slab straight from its columns: `cols[j][i]` is feature `j` of
    /// row `i`. A column shorter or longer than `labels` is zero-padded or
    /// cut to its length, so the result is well-formed for any input.
    pub fn dense(labels: Vec<f64>, mut cols: Vec<Vec<f64>>) -> Self {
        for col in &mut cols {
            col.resize(labels.len(), 0.0);
        }
        let layout = SlabLayout::Dense {
            dim: cols.len(),
            cols,
        };
        Self { labels, layout }
    }

    /// Rebuilds a slab from decoded columnar parts (spill codec v3).
    pub(crate) fn from_parts(labels: Vec<f64>, layout: SlabLayout) -> Self {
        Self { labels, layout }
    }

    /// The label column and the payload, by value: a caller that builds a
    /// slab per call (the query path) builds the next one in these buffers.
    pub fn into_parts(self) -> (Vec<f64>, SlabLayout) {
        (self.labels, self.layout)
    }

    /// The layout payload (spill codec v3).
    pub(crate) fn layout(&self) -> &SlabLayout {
        &self.layout
    }

    /// The label column.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the slab has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// A zero-copy view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= self.len()` (slice-index discipline).
    pub fn row(&self, i: usize) -> RowView<'_> {
        assert!(i < self.len(), "row {i} out of {} slab rows", self.len());
        RowView { slab: self, row: i }
    }

    /// Heap bytes attributed to row `i` — identical to what
    /// `LabeledPoint::size_bytes` reports for the same row in row layout.
    pub fn row_size_bytes(&self, i: usize) -> usize {
        let label = std::mem::size_of::<f64>();
        match &self.layout {
            SlabLayout::Dense { dim, .. } => label + dim * std::mem::size_of::<f64>(),
            SlabLayout::Csr { row_ptr, .. } => {
                let nnz = (row_ptr[i + 1] - row_ptr[i]) as usize;
                label + nnz * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
            }
        }
    }
}

/// Builds a CSR slab one row at a time from unsorted, possibly repeated
/// `(index, value)` entries — what the hashing and one-hot encoders emit.
/// Each row is canonicalized by [`cdp_linalg::merge_entries`], as
/// [`cdp_linalg::SparseBuilder::build`] does it, so a slab row is
/// bit-identical to the sparse vector the builder would have produced from
/// the same entries.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    labels: Vec<f64>,
    dim: usize,
    row_ptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// An empty builder for rows of nominal dimension `dim`, with room for
    /// `rows` rows holding `nnz` entries in total — in the buffers of
    /// `recycled` when that is a CSR slab, so rebuilding a slab of the same
    /// shape allocates nothing.
    pub fn reusing(recycled: Option<ColumnSlab>, dim: usize, rows: usize, nnz: usize) -> Self {
        let (mut labels, mut row_ptr, mut indices, mut values) =
            match recycled.map(ColumnSlab::into_parts) {
                Some((
                    labels,
                    SlabLayout::Csr {
                        row_ptr,
                        indices,
                        values,
                        ..
                    },
                )) => (labels, row_ptr, indices, values),
                _ => Default::default(),
            };
        labels.clear();
        labels.reserve(rows);
        row_ptr.clear();
        row_ptr.reserve(rows + 1);
        row_ptr.push(0);
        indices.clear();
        indices.reserve(nnz);
        values.clear();
        values.reserve(nnz);
        Self {
            labels,
            dim,
            row_ptr,
            indices,
            values,
        }
    }

    /// Appends one row. `entries` is sorted in place; entries at or beyond
    /// the slab's dimension are dropped.
    pub fn push_row(&mut self, label: f64, entries: &mut [(u32, f64)]) {
        let row_start = self.indices.len();
        merge_entries(entries, &mut self.indices, &mut self.values);
        let row = &self.indices[row_start..];
        let kept = row_start + row.partition_point(|&i| (i as usize) < self.dim);
        self.indices.truncate(kept);
        self.values.truncate(kept);
        self.row_ptr.push(kept as u32);
        self.labels.push(label);
    }

    /// The finished slab.
    pub fn finish(self) -> ColumnSlab {
        ColumnSlab {
            labels: self.labels,
            layout: SlabLayout::Csr {
                dim: self.dim,
                row_ptr: self.row_ptr,
                indices: self.indices,
                values: self.values,
            },
        }
    }
}

/// A zero-copy view of one labeled example: a row of a [`ColumnSlab`].
/// `Copy`, so the trainer can shard and re-iterate views freely.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    slab: &'a ColumnSlab,
    row: usize,
}

/// The stored `(indices, values)` of row `row` of a CSR block.
fn csr_row<'a>(
    row_ptr: &[u32],
    indices: &'a [u32],
    values: &'a [f64],
    row: usize,
) -> (&'a [u32], &'a [f64]) {
    let (a, b) = (row_ptr[row] as usize, row_ptr[row + 1] as usize);
    (&indices[a..b], &values[a..b])
}

impl<'a> RowView<'a> {
    /// The example's label.
    pub fn label(&self) -> f64 {
        self.slab.labels[self.row]
    }

    /// The feature vector's nominal dimension.
    pub fn dim(&self) -> usize {
        match &self.slab.layout {
            SlabLayout::Dense { dim, .. } | SlabLayout::Csr { dim, .. } => *dim,
        }
    }

    /// Number of non-zero coordinates of a dense row (stored zeros counted
    /// out, exactly like `Vector::nnz`); stored entries of a CSR row.
    pub fn nnz(&self) -> usize {
        match &self.slab.layout {
            SlabLayout::Dense { dim, cols } => {
                let zeros = cols.iter().filter(|c| c[self.row] == 0.0).count();
                *dim - zeros
            }
            SlabLayout::Csr { row_ptr, .. } => (row_ptr[self.row + 1] - row_ptr[self.row]) as usize,
        }
    }

    /// Dot product with a dense weight vector that may be narrower than the
    /// row — bit-identical to `Vector::dot_padded` on the same example:
    /// dense coordinates ascending, CSR entries in stored order with the
    /// same `take_while` cutoff, same accumulation order.
    pub fn dot_padded(&self, weights: &DenseVector) -> f64 {
        match &self.slab.layout {
            SlabLayout::Dense { dim, cols } => {
                let n = (*dim).min(weights.dim());
                let w = &weights.as_slice()[..n];
                let products = cols[..n].iter().zip(w);
                products.map(|(col, b)| col[self.row] * b).sum()
            }
            SlabLayout::Csr {
                row_ptr,
                indices,
                values,
                ..
            } => {
                let (indices, values) = csr_row(row_ptr, indices, values, self.row);
                let slice = weights.as_slice();
                indices
                    .iter()
                    .zip(values.iter())
                    .take_while(|(&i, _)| (i as usize) < slice.len())
                    .map(|(&i, &v)| v * slice[i as usize])
                    .sum()
            }
        }
    }

    /// `weights += alpha * self`, growing `weights` with zero padding first
    /// — bit-identical to `Vector::axpy_into_growing` on the same example.
    pub fn axpy_into_growing(&self, alpha: f64, weights: &mut DenseVector) {
        match &self.slab.layout {
            SlabLayout::Dense { dim, cols } => {
                weights.grow_to(*dim);
                let w = &mut weights.as_mut_slice()[..*dim];
                for (slot, col) in w.iter_mut().zip(cols) {
                    *slot += alpha * col[self.row];
                }
            }
            SlabLayout::Csr {
                row_ptr,
                indices,
                values,
                ..
            } => {
                let (indices, values) = csr_row(row_ptr, indices, values, self.row);
                if let Some(&last) = indices.last() {
                    weights.grow_to(last as usize + 1);
                }
                let slice = weights.as_mut_slice();
                for (&i, &v) in indices.iter().zip(values.iter()) {
                    slice[i as usize] += alpha * v;
                }
            }
        }
    }

    /// The stored `(indices, values)` of a CSR row, in stored (strictly
    /// increasing) index order; `None` for a dense row. Folding
    /// `slot[i] += alpha * v` over the pairs is bit-identical to
    /// [`RowView::axpy_into_growing`] once the target covers the last index,
    /// which lets a caller record the coordinates it touches.
    pub fn sparse_parts(&self) -> Option<(&'a [u32], &'a [f64])> {
        match &self.slab.layout {
            SlabLayout::Dense { .. } => None,
            SlabLayout::Csr {
                row_ptr,
                indices,
                values,
                ..
            } => Some(csr_row(row_ptr, indices, values, self.row)),
        }
    }

    /// Reconstructs the row's feature vector (dense rows come back dense,
    /// CSR rows sparse).
    pub fn to_vector(&self) -> Vector {
        match &self.slab.layout {
            SlabLayout::Dense { cols, .. } => {
                Vector::Dense(DenseVector::new(cols.iter().map(|c| c[self.row]).collect()))
            }
            SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            } => {
                let (indices, values) = csr_row(row_ptr, indices, values, self.row);
                match SparseVector::new(*dim, indices.to_vec(), values.to_vec()) {
                    Ok(v) => Vector::Sparse(v),
                    // Every producer of a CSR block (builder, `from_points`,
                    // decoder) keeps a row's indices sorted and in bounds.
                    Err(e) => unreachable!("CSR row invariant broken: {e}"),
                }
            }
        }
    }

    /// Reconstructs the row as an owned [`LabeledPoint`].
    pub fn to_point(&self) -> LabeledPoint {
        LabeledPoint::new(self.label(), self.to_vector())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(label: f64, values: &[f64]) -> LabeledPoint {
        LabeledPoint::new(label, Vector::Dense(DenseVector::new(values.to_vec())))
    }

    fn sparse(label: f64, dim: usize, pairs: &[(u32, f64)]) -> LabeledPoint {
        let (idx, val): (Vec<u32>, Vec<f64>) = pairs.iter().copied().unzip();
        let v = match SparseVector::new(dim, idx, val) {
            Ok(v) => v,
            Err(e) => panic!("valid test vector: {e}"),
        };
        LabeledPoint::new(label, Vector::Sparse(v))
    }

    #[test]
    fn dense_points_become_column_slabs() {
        let points = vec![dense(1.0, &[1.0, 2.0]), dense(-1.0, &[3.0, 4.0])];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Dense { dim: 2, .. }));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(slab.row(i).to_point(), *p);
            assert_eq!(slab.row_size_bytes(i), p.size_bytes());
            assert_eq!(slab.row(i).nnz(), p.features.nnz());
        }
    }

    #[test]
    fn sparse_points_become_csr() {
        let points = vec![
            sparse(1.0, 16, &[(0, 1.0), (7, -2.0)]),
            sparse(0.0, 16, &[]),
            sparse(-1.0, 16, &[(3, 5.0)]),
        ];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Csr { dim: 16, .. }));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(slab.row(i).to_point(), *p);
            assert_eq!(slab.row_size_bytes(i), p.size_bytes());
            assert_eq!(slab.row(i).nnz(), p.features.nnz());
        }
    }

    #[test]
    fn non_uniform_points_become_csr_with_the_vectors_own_arithmetic() {
        // Dense rows of two widths (stored zeros, a negative zero) among
        // sparse rows of two dimensions, one empty.
        let points = vec![
            dense(1.0, &[0.5, 0.0, -1.5]),
            sparse(0.0, 4, &[(2, 2.0)]),
            dense(-1.0, &[-0.0, 3.25, 7.0, 0.1, -2.0]),
            sparse(1.0, 9, &[(0, -4.0), (8, 0.3)]),
            sparse(0.0, 2, &[]),
        ];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Csr { dim: 9, .. }));
        assert_eq!(
            slab.row(0).sparse_parts().map(|(i, _)| i),
            Some(&[0, 1, 2][..])
        );
        // Weights narrower than, as wide as and wider than each kind of row.
        let weights = (0..12).map(|n| DenseVector::new((0..n).map(|i| 0.7 - i as f64).collect()));
        for w in weights {
            for (i, p) in points.iter().enumerate() {
                assert_eq!(slab.row(i).label(), p.label);
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    p.features.dot_padded(&w).to_bits(),
                    "row {i} against {} weights",
                    w.dim()
                );
                let (mut a, mut b) = (w.clone(), w.clone());
                slab.row(i).axpy_into_growing(-0.3, &mut a);
                p.features.axpy_into_growing(-0.3, &mut b);
                let bits =
                    |v: &DenseVector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "row {i} into {} weights", w.dim());
            }
        }
    }

    #[test]
    fn row_ops_are_bit_identical_to_vector_ops() {
        let points = vec![
            dense(1.0, &[0.5, -1.5, 3.25]),
            dense(-1.0, &[2.0, 0.0, -0.125]),
        ];
        let slab = ColumnSlab::from_points(points.clone());
        // Narrower, covering, and wider weight vectors all agree bitwise.
        for w in [
            DenseVector::new(vec![1.5, -2.5]),
            DenseVector::new(vec![1.5, -2.5, 0.75]),
            DenseVector::new(vec![1.5, -2.5, 0.75, 9.0]),
        ] {
            for (i, p) in points.iter().enumerate() {
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    p.features.dot_padded(&w).to_bits()
                );
                let mut a = w.clone();
                let mut b = w.clone();
                slab.row(i).axpy_into_growing(0.3, &mut a);
                p.features.axpy_into_growing(0.3, &mut b);
                assert_eq!(a, b);
            }
        }
        let sp = vec![
            sparse(1.0, 8, &[(1, 2.0), (6, -1.0)]),
            sparse(0.0, 8, &[(0, 4.0)]),
        ];
        let slab = ColumnSlab::from_points(sp.clone());
        for w in [DenseVector::new(vec![1.0, 2.0]), DenseVector::zeros(8)] {
            for (i, p) in sp.iter().enumerate() {
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    p.features.dot_padded(&w).to_bits()
                );
                let mut a = w.clone();
                let mut b = w.clone();
                slab.row(i).axpy_into_growing(-0.7, &mut a);
                p.features.axpy_into_growing(-0.7, &mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn sparse_parts_follow_the_row_layout() {
        let d = dense(1.0, &[1.0, 2.0]);
        let s = sparse(0.0, 8, &[(1, 2.0), (6, -1.0)]);
        let parts = Some((&[1u32, 6][..], &[2.0, -1.0][..]));
        let csr = ColumnSlab::from_points(vec![sparse(1.0, 8, &[]), s.clone()]);
        assert_eq!(csr.row(0).sparse_parts(), Some((&[][..], &[][..])));
        assert_eq!(csr.row(1).sparse_parts(), parts);
        assert_eq!(
            ColumnSlab::from_points(vec![d.clone()])
                .row(0)
                .sparse_parts(),
            None
        );
    }

    #[test]
    fn csr_builder_rebuilds_a_slab_in_its_own_buffers() {
        let build = |recycled: Option<ColumnSlab>, rows: &[(f64, Vec<(u32, f64)>)]| {
            let mut builder = CsrBuilder::reusing(recycled, 6, rows.len(), 8);
            for (label, entries) in rows {
                builder.push_row(*label, &mut entries.clone());
            }
            builder.finish()
        };
        // Unsorted and repeated entries merge (the explicit zero stays), one
        // beyond the dimension is dropped, an empty row is a row.
        let first = build(
            None,
            &[
                (1.0, vec![(4, 1.0), (0, 1.0), (4, -1.0), (9, 2.0)]),
                (0.0, vec![]),
            ],
        );
        let row = first.row(0).sparse_parts();
        assert_eq!(row, Some((&[0u32, 4][..], &[1.0, 0.0][..])));
        assert_eq!((first.len(), first.row(1).nnz()), (2, 0));
        // Rebuilt from its own buffers the slab is the one a new builder
        // makes: nothing of the rows it held survives, the allocation does.
        let labels = first.labels().as_ptr();
        let rows = [(2.0, vec![(3, 0.5)])];
        let second = build(Some(first), &rows);
        assert_eq!(second, build(None, &rows));
        assert_eq!(second.labels().as_ptr(), labels);
        // A slab of another layout has nothing to offer and is dropped.
        let dense = ColumnSlab::dense(vec![1.0], vec![vec![1.0]]);
        assert_eq!(build(Some(dense), &rows), second);
    }
}
