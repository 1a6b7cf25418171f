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
//! dense rows are read column-ascending, CSR rows in stored-index order,
//! and the heterogeneous [`SlabLayout::Rows`] fallback keeps the original
//! `Vector` per row. Per-row byte accounting is preserved by construction
//! (dense row = `8 + dim*8`, CSR row = `8 + nnz*12`, fallback row =
//! `8 + vector bytes` — identical to `LabeledPoint::size_bytes`), so budget
//! and eviction decisions cannot drift from the row-layout semantics.

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
    /// Heterogeneous fallback (mixed layouts or differing dimensions): the
    /// original vectors, row-major. Guarantees every input chunk has a
    /// columnar home without changing any representation.
    Rows(Vec<Vector>),
}

/// A column-major chunk of labeled examples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSlab {
    labels: Vec<f64>,
    layout: SlabLayout,
}

impl ColumnSlab {
    /// Builds a slab from row-major points, choosing the densest layout the
    /// rows admit: all-dense one-dimension rows become column slabs,
    /// all-sparse one-dimension rows become a CSR block, anything else
    /// keeps its original vectors row-major. The pipeline builds its slabs
    /// directly ([`ColumnSlab::dense`], [`CsrBuilder`]); this serves callers
    /// that hold points (tests, hand-made chunks).
    pub fn from_points(points: Vec<LabeledPoint>) -> Self {
        let labels: Vec<f64> = points.iter().map(|p| p.label).collect();
        let dim = points.first().map_or(0, |p| p.features.dim());
        let uniform = |sparse: bool| {
            let fits =
                |p: &LabeledPoint| p.features.is_sparse() == sparse && p.features.dim() == dim;
            !points.is_empty() && points.iter().all(fits)
        };
        if uniform(false) {
            let column = |j| points.iter().map(|p| p.features.get(j)).collect();
            return Self::dense(labels, (0..dim).map(column).collect());
        }
        let layout = if uniform(true) {
            let mut row_ptr = vec![0u32];
            let (mut indices, mut values) = (Vec::new(), Vec::new());
            for p in &points {
                if let Vector::Sparse(s) = &p.features {
                    indices.extend_from_slice(s.indices());
                    values.extend_from_slice(s.values());
                }
                row_ptr.push(indices.len() as u32);
            }
            SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            }
        } else {
            SlabLayout::Rows(points.into_iter().map(|p| p.features).collect())
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
        RowView::Slab { slab: self, row: i }
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
            SlabLayout::Rows(rows) => label + rows[i].size_bytes(),
        }
    }

    /// The CSR index/value slices of row `i` (`None` for non-CSR layouts).
    fn csr_row(&self, i: usize) -> Option<(&[u32], &[f64], usize)> {
        match &self.layout {
            SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            } => {
                let (a, b) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
                Some((&indices[a..b], &values[a..b], *dim))
            }
            _ => None,
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

/// A zero-copy view of one labeled example, either inside a [`ColumnSlab`]
/// or borrowing a row-layout [`LabeledPoint`]. `Copy`, so the trainer can
/// shard and re-iterate views freely.
#[derive(Debug, Clone, Copy)]
pub enum RowView<'a> {
    /// A row of a columnar slab.
    Slab {
        /// The owning slab.
        slab: &'a ColumnSlab,
        /// Row index within the slab.
        row: usize,
    },
    /// A borrowed row-layout point (compatibility path for streamed points
    /// that never materialize into a slab).
    Point(&'a LabeledPoint),
}

impl<'a> From<&'a LabeledPoint> for RowView<'a> {
    fn from(p: &'a LabeledPoint) -> Self {
        RowView::Point(p)
    }
}

impl<'a> RowView<'a> {
    /// The example's label.
    pub fn label(&self) -> f64 {
        match self {
            RowView::Slab { slab, row } => slab.labels[*row],
            RowView::Point(p) => p.label,
        }
    }

    /// The feature vector's nominal dimension.
    pub fn dim(&self) -> usize {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, .. } => *dim,
                SlabLayout::Csr { dim, .. } => *dim,
                SlabLayout::Rows(rows) => rows[*row].dim(),
            },
            RowView::Point(p) => p.features.dim(),
        }
    }

    /// Number of non-zero coordinates (dense rows count stored zeros out,
    /// exactly like `Vector::nnz`).
    pub fn nnz(&self) -> usize {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, cols } => {
                    let zeros = cols.iter().filter(|c| c[*row] == 0.0).count();
                    *dim - zeros
                }
                SlabLayout::Csr { row_ptr, .. } => (row_ptr[*row + 1] - row_ptr[*row]) as usize,
                SlabLayout::Rows(rows) => rows[*row].nnz(),
            },
            RowView::Point(p) => p.features.nnz(),
        }
    }

    /// Heap bytes the storage layer attributes to this example — identical
    /// to `LabeledPoint::size_bytes` for the same row in row layout.
    pub fn size_bytes(&self) -> usize {
        match self {
            RowView::Slab { slab, row } => slab.row_size_bytes(*row),
            RowView::Point(p) => p.size_bytes(),
        }
    }

    /// Dot product with a dense weight vector that may be narrower than the
    /// row — bit-identical to `Vector::dot_padded` on the same example:
    /// dense coordinates ascending, CSR entries in stored order with the
    /// same `take_while` cutoff, same accumulation order.
    pub fn dot_padded(&self, weights: &DenseVector) -> f64 {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, cols } => {
                    let n = (*dim).min(weights.dim());
                    let w = &weights.as_slice()[..n];
                    cols[..n].iter().zip(w).map(|(col, b)| col[*row] * b).sum()
                }
                SlabLayout::Csr { .. } => {
                    let (indices, values, _) = match slab.csr_row(*row) {
                        Some(parts) => parts,
                        None => unreachable!("layout checked above"),
                    };
                    let slice = weights.as_slice();
                    indices
                        .iter()
                        .zip(values.iter())
                        .take_while(|(&i, _)| (i as usize) < slice.len())
                        .map(|(&i, &v)| v * slice[i as usize])
                        .sum()
                }
                SlabLayout::Rows(rows) => rows[*row].dot_padded(weights),
            },
            RowView::Point(p) => p.features.dot_padded(weights),
        }
    }

    /// `weights += alpha * self`, growing `weights` with zero padding first
    /// — bit-identical to `Vector::axpy_into_growing` on the same example.
    pub fn axpy_into_growing(&self, alpha: f64, weights: &mut DenseVector) {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { dim, cols } => {
                    weights.grow_to(*dim);
                    let w = &mut weights.as_mut_slice()[..*dim];
                    for (slot, col) in w.iter_mut().zip(cols) {
                        *slot += alpha * col[*row];
                    }
                }
                SlabLayout::Csr { .. } => {
                    let (indices, values, _) = match slab.csr_row(*row) {
                        Some(parts) => parts,
                        None => unreachable!("layout checked above"),
                    };
                    if let Some(&last) = indices.last() {
                        weights.grow_to(last as usize + 1);
                    }
                    let slice = weights.as_mut_slice();
                    for (&i, &v) in indices.iter().zip(values.iter()) {
                        slice[i as usize] += alpha * v;
                    }
                }
                SlabLayout::Rows(rows) => rows[*row].axpy_into_growing(alpha, weights),
            },
            RowView::Point(p) => p.features.axpy_into_growing(alpha, weights),
        }
    }

    /// The stored `(indices, values)` of a sparse row — a CSR slab row or a
    /// [`Vector::Sparse`] — in stored (strictly increasing) index order;
    /// `None` for a dense row. Folding `slot[i] += alpha * v` over the pairs
    /// is bit-identical to [`RowView::axpy_into_growing`] once the target
    /// covers the last index, which lets a caller record the coordinates it
    /// touches.
    pub fn sparse_parts(&self) -> Option<(&'a [u32], &'a [f64])> {
        let vector = match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { .. } => return None,
                SlabLayout::Csr { .. } => {
                    return slab.csr_row(*row).map(|(idx, val, _)| (idx, val));
                }
                SlabLayout::Rows(rows) => &rows[*row],
            },
            RowView::Point(p) => &p.features,
        };
        match vector {
            Vector::Dense(_) => None,
            Vector::Sparse(s) => Some((s.indices(), s.values())),
        }
    }

    /// Reconstructs the row's feature vector in its original representation
    /// (dense rows come back dense, CSR rows sparse).
    pub fn to_vector(&self) -> Vector {
        match self {
            RowView::Slab { slab, row } => match &slab.layout {
                SlabLayout::Dense { cols, .. } => {
                    Vector::Dense(DenseVector::new(cols.iter().map(|c| c[*row]).collect()))
                }
                SlabLayout::Csr { .. } => {
                    let (indices, values, dim) = match slab.csr_row(*row) {
                        Some(parts) => parts,
                        None => unreachable!("layout checked above"),
                    };
                    match SparseVector::new(dim, indices.to_vec(), values.to_vec()) {
                        Ok(v) => Vector::Sparse(v),
                        // Slab rows only ever come from valid sparse
                        // vectors, whose indices stay sorted and in bounds.
                        Err(e) => unreachable!("CSR row invariant broken: {e}"),
                    }
                }
                SlabLayout::Rows(rows) => rows[*row].clone(),
            },
            RowView::Point(p) => p.features.clone(),
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
            assert_eq!(slab.row(i).size_bytes(), p.size_bytes());
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
            assert_eq!(slab.row(i).size_bytes(), p.size_bytes());
            assert_eq!(slab.row(i).nnz(), p.features.nnz());
        }
    }

    #[test]
    fn mixed_layouts_fall_back_to_rows() {
        let points = vec![dense(1.0, &[1.0]), sparse(0.0, 4, &[(2, 2.0)])];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Rows(_)));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(slab.row(i).to_point(), *p);
            assert_eq!(slab.row(i).size_bytes(), p.size_bytes());
        }
    }

    #[test]
    fn differing_dense_dims_fall_back_to_rows() {
        let points = vec![dense(1.0, &[1.0]), dense(1.0, &[1.0, 2.0])];
        let slab = ColumnSlab::from_points(points.clone());
        assert!(matches!(slab.layout(), SlabLayout::Rows(_)));
        assert_eq!(slab.row(1).to_point(), points[1]);
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
        // Point views, a CSR slab, a dense slab and the row-major fallback.
        assert_eq!(RowView::Point(&d).sparse_parts(), None);
        assert_eq!(RowView::Point(&s).sparse_parts(), parts);
        let csr = ColumnSlab::from_points(vec![sparse(1.0, 8, &[]), s.clone()]);
        assert_eq!(csr.row(0).sparse_parts(), Some((&[][..], &[][..])));
        assert_eq!(csr.row(1).sparse_parts(), parts);
        assert_eq!(
            ColumnSlab::from_points(vec![d.clone()])
                .row(0)
                .sparse_parts(),
            None
        );
        let mixed = ColumnSlab::from_points(vec![d, s]);
        assert_eq!(mixed.row(0).sparse_parts(), None);
        assert_eq!(mixed.row(1).sparse_parts(), parts);
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
