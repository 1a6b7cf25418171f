//! Columnar chunk slabs: the v2 storage representation.
//!
//! A [`ColumnSlab`] stores a chunk's examples column-major — one label
//! column plus either dense column slabs (`Vec<f64>` per feature column) or
//! a CSR-style sparse block — so the pipeline, the trainer, and the fused
//! transform+gradient pass iterate examples without a row object per
//! example. A [`FeatureChunk`](crate::FeatureChunk) holds one
//! `Arc<ColumnSlab>` whole.
//!
//! **Bit-identity contract.** Every numeric access through [`RowView`]
//! replicates the exact floating-point operation order of the row layout it
//! replaced, which this file's tests keep as their oracle (a dense row's
//! coordinates, a sparse row's sorted entries, and that layout's dot
//! product and update): dense rows are read column-ascending, CSR rows in
//! stored-index order. Per-row byte accounting is the row layout's too
//! (dense row = `8 + dim*8`, CSR row = `8 + nnz*12`), so budget and
//! eviction decisions cannot drift from it. The slab kernels
//! ([`ColumnSlab::dot_rows`], [`ColumnSlab::axpy_rows`]) keep the contract
//! too: they run many rows' chains side by side, each chain in its row op's
//! order.

use std::ops::Range;

use cdp_linalg::Vector;

use crate::chunk::LabeledPoint;

/// The column-major payload of one slab.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSlab {
    labels: Vec<f64>,
    layout: SlabLayout,
}

impl ColumnSlab {
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
    #[inline]
    pub fn row(&self, i: usize) -> RowView<'_> {
        assert!(i < self.len(), "row {i} out of {} slab rows", self.len());
        RowView { slab: self, row: i }
    }

    /// Heap bytes attributed to row `i`: its label and its stored
    /// coordinates, as the row layout accounted them.
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

    /// `out[k]` = [`RowView::dot_padded`] of row `rows.start + k` with
    /// `weights`, bit for bit, for every row of `rows`.
    ///
    /// A dense slab is scored four columns per pass over the run. Each row's
    /// margin is its own chain `x₀w₀ + x₁w₁ + …`, folded as `Iterator::sum`
    /// folds it — from the empty sum, in column order — and a pass advances
    /// every chain of the run by its block's terms, so the chains are
    /// independent and the loop across rows needs no reassociation to
    /// vectorize. A CSR slab is scored row by row.
    pub fn dot_rows(&self, rows: Range<usize>, weights: &[f64], out: &mut Vec<f64>) {
        out.clear();
        match &self.layout {
            SlabLayout::Dense { dim, cols } => {
                let n = (*dim).min(weights.len());
                // Where `Iterator::sum` starts, whichever zero that is.
                let empty: f64 = std::iter::empty::<f64>().sum();
                out.resize(rows.len(), empty);
                let blocks = cols[..n].chunks(LANES).zip(weights.chunks(LANES));
                for (cols, weights) in blocks {
                    let rows = rows.clone();
                    match cols.len() {
                        1 => dot_columns::<1>(out, cols, rows, weights),
                        2 => dot_columns::<2>(out, cols, rows, weights),
                        3 => dot_columns::<3>(out, cols, rows, weights),
                        _ => dot_columns::<LANES>(out, cols, rows, weights),
                    }
                }
            }
            SlabLayout::Csr { .. } => out.extend(rows.map(|i| self.row(i).dot_padded(weights))),
        }
    }

    /// `target += coeffs[k] · row(rows.start + k)` for every `k` whose
    /// coefficient is not zero, in row order: bit for bit
    /// [`RowView::axpy_into_growing`] called row by row, growth included —
    /// a skipped row grows nothing.
    ///
    /// A dense slab folds four columns at a time: each coordinate of `target`
    /// is its own chain over the rows, and a block of columns advances its
    /// chains together in registers. A CSR slab folds row by row.
    pub fn axpy_rows(&self, rows: Range<usize>, coeffs: &[f64], target: &mut Vec<f64>) {
        let Some(first) = coeffs.iter().position(|&c| c != 0.0) else {
            return;
        };
        let (rows, coeffs) = (rows.start + first..rows.end, &coeffs[first..]);
        match &self.layout {
            SlabLayout::Dense { dim, cols } => {
                grow_to(target, *dim);
                let slots = &mut target[..*dim];
                for (slots, cols) in slots.chunks_mut(LANES).zip(cols.chunks(LANES)) {
                    let rows = rows.clone();
                    match slots.len() {
                        1 => fold_columns::<1>(slots, cols, rows, coeffs),
                        2 => fold_columns::<2>(slots, cols, rows, coeffs),
                        3 => fold_columns::<3>(slots, cols, rows, coeffs),
                        _ => fold_columns::<LANES>(slots, cols, rows, coeffs),
                    }
                }
            }
            SlabLayout::Csr { .. } => {
                for (i, &c) in rows.zip(coeffs) {
                    if c != 0.0 {
                        self.row(i).axpy_into_growing(c, target);
                    }
                }
            }
        }
    }
}

/// Pads `v` with zeros up to `dim` coordinates; never shrinks it.
fn grow_to(v: &mut Vec<f64>, dim: usize) {
    if dim > v.len() {
        v.resize(dim, 0.0);
    }
}

/// Columns of a dense slab the slab kernels take together.
const LANES: usize = 4;

/// `out[k] += cols[j][rows.start + k] · weights[j]` for each column `j` of
/// the block in turn: one pass over `out` per `W` columns, every row's chain
/// in column order.
fn dot_columns<const W: usize>(
    out: &mut [f64],
    cols: &[Vec<f64>],
    rows: Range<usize>,
    weights: &[f64],
) {
    let n = out.len();
    let cols: [&[f64]; W] = std::array::from_fn(|j| &cols[j][rows.start..rows.start + n]);
    let weights: [f64; W] = std::array::from_fn(|j| weights[j]);
    for k in 0..n {
        let mut z = out[k];
        for j in 0..W {
            z += cols[j][k] * weights[j];
        }
        out[k] = z;
    }
}

/// `slots[j] += coeffs[k] · cols[j][rows.start + k]` over the rows in order,
/// skipping zero coefficients: `W` independent chains held in registers.
fn fold_columns<const W: usize>(
    slots: &mut [f64],
    cols: &[Vec<f64>],
    rows: Range<usize>,
    coeffs: &[f64],
) {
    let n = coeffs.len();
    let cols: [&[f64]; W] = std::array::from_fn(|j| &cols[j][rows.start..rows.start + n]);
    let mut acc: [f64; W] = std::array::from_fn(|j| slots[j]);
    for k in 0..n {
        let c = coeffs[k];
        if c != 0.0 {
            for j in 0..W {
                acc[j] += c * cols[j][k];
            }
        }
    }
    slots.copy_from_slice(&acc);
}

/// Splits `rows` into its maximal runs of consecutive rows of one slab, in
/// order: the pieces the slab kernels ([`ColumnSlab::dot_rows`],
/// [`ColumnSlab::axpy_rows`]) take whole. A batch cut from one chunk's rows
/// is one run; a shuffled batch is mostly runs of one row.
#[inline]
pub fn slab_runs<'s, 'a>(
    rows: &'s [RowView<'a>],
) -> impl Iterator<Item = (&'a ColumnSlab, Range<usize>)> + 's {
    let mut rest = rows;
    std::iter::from_fn(move || {
        let first = *rest.first()?;
        let mut len = 1;
        // The row index first: in a shuffled batch it almost never follows
        // on, while the slab is the same one as often as chance has it.
        while let Some(r) = rest.get(len) {
            if r.row != first.row + len || !std::ptr::eq(r.slab, first.slab) {
                break;
            }
            len += 1;
        }
        rest = &rest[len..];
        Some((first.slab, first.row..first.row + len))
    })
}

/// Builds a CSR slab one row at a time from unsorted, possibly repeated
/// `(index, value)` entries — what the hashing and one-hot encoders emit.
/// Each row is canonicalized by [`merge_entries`]: an unstable sort by
/// index, then repeats summed in sorted order. The pipeline's row reference
/// (`crates/pipeline/tests/row_reference`) canonicalizes its rows with a
/// sort-and-sum of its own, and the slab rows match it bit for bit.
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

/// Appends the canonical form of one row's raw `entries` to `indices` and
/// `values`: an unstable sort by index, then repeats summed into one slot in
/// sorted order (explicit zeros kept).
fn merge_entries(entries: &mut [(u32, f64)], indices: &mut Vec<u32>, values: &mut Vec<f64>) {
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

    /// Dot product with dense weights that may be narrower than the row:
    /// uncovered coordinates contribute `0.0`. Dense coordinates ascending,
    /// CSR entries in stored order up to the first one the weights do not
    /// cover, summed by `Iterator::sum`.
    pub fn dot_padded(&self, weights: &[f64]) -> f64 {
        match &self.slab.layout {
            SlabLayout::Dense { dim, cols } => {
                let n = (*dim).min(weights.len());
                let w = &weights[..n];
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
                indices
                    .iter()
                    .zip(values.iter())
                    .take_while(|(&i, _)| (i as usize) < weights.len())
                    .map(|(&i, &v)| v * weights[i as usize])
                    .sum()
            }
        }
    }

    /// `weights += alpha * self`, growing `weights` with zero padding first:
    /// dense coordinates ascending, CSR entries in stored order.
    pub fn axpy_into_growing(&self, alpha: f64, weights: &mut Vec<f64>) {
        match &self.slab.layout {
            SlabLayout::Dense { dim, cols } => {
                grow_to(weights, *dim);
                let w = &mut weights[..*dim];
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
                    grow_to(weights, last as usize + 1);
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

    /// The row as an owned [`LabeledPoint`]: a dense row comes back dense,
    /// a CSR row sparse.
    pub fn to_point(&self) -> LabeledPoint {
        let features = match &self.slab.layout {
            SlabLayout::Dense { cols, .. } => {
                Vector::Dense(cols.iter().map(|c| c[self.row]).collect())
            }
            SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            } => {
                let (indices, values) = csr_row(row_ptr, indices, values, self.row);
                let (indices, values) = (indices.to_vec(), values.to_vec());
                Vector::Sparse {
                    dim: *dim,
                    indices,
                    values,
                }
            }
        };
        LabeledPoint {
            label: self.label(),
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row layout the slab replaced, kept as the oracle of the
    /// bit-identity contract: a dense row stores every coordinate, a sparse
    /// row its entries in strictly increasing index order under a nominal
    /// dimension.
    #[derive(Debug, Clone)]
    enum Row {
        Dense(Vec<f64>),
        Sparse(usize, Vec<(u32, f64)>),
    }

    impl Row {
        fn dim(&self) -> usize {
            match self {
                Row::Dense(v) => v.len(),
                Row::Sparse(dim, _) => *dim,
            }
        }

        /// The label and the stored coordinates, as the row layout
        /// accounted them.
        fn size_bytes(&self) -> usize {
            8 + match self {
                Row::Dense(v) => v.len() * 8,
                Row::Sparse(_, entries) => entries.len() * (4 + 8),
            }
        }

        fn to_vector(&self) -> Vector {
            match self {
                Row::Dense(v) => Vector::Dense(v.clone()),
                Row::Sparse(dim, entries) => Vector::Sparse {
                    dim: *dim,
                    indices: entries.iter().map(|e| e.0).collect(),
                    values: entries.iter().map(|e| e.1).collect(),
                },
            }
        }

        /// The row layout's dot product with weights that may be narrower.
        fn dot_padded(&self, w: &[f64]) -> f64 {
            match self {
                Row::Dense(v) => {
                    let n = v.len().min(w.len());
                    v[..n].iter().zip(&w[..n]).map(|(a, b)| a * b).sum()
                }
                Row::Sparse(_, entries) => entries
                    .iter()
                    .take_while(|(i, _)| (*i as usize) < w.len())
                    .map(|&(i, v)| v * w[i as usize])
                    .sum(),
            }
        }

        /// The row layout's `w += alpha * self`, padding `w` first.
        fn axpy_into_growing(&self, alpha: f64, w: &mut Vec<f64>) {
            match self {
                Row::Dense(v) => {
                    grow_to(w, v.len());
                    for (slot, x) in w.iter_mut().zip(v) {
                        *slot += alpha * x;
                    }
                }
                Row::Sparse(_, entries) => {
                    if let Some(&(last, _)) = entries.last() {
                        grow_to(w, last as usize + 1);
                    }
                    for &(i, v) in entries {
                        w[i as usize] += alpha * v;
                    }
                }
            }
        }
    }

    fn dense(label: f64, values: &[f64]) -> (f64, Row) {
        (label, Row::Dense(values.to_vec()))
    }

    fn sparse(label: f64, dim: usize, pairs: &[(u32, f64)]) -> (f64, Row) {
        (label, Row::Sparse(dim, pairs.to_vec()))
    }

    /// The slab `rows` make: column slabs when all of them are dense at one
    /// width, else a CSR block at the widest row's dimension in which a
    /// dense row stores every coordinate, zeros too, in index order.
    fn slab_of(rows: &[(f64, Row)]) -> ColumnSlab {
        let labels: Vec<f64> = rows.iter().map(|(label, _)| *label).collect();
        let dim = rows.iter().map(|(_, r)| r.dim()).max().unwrap_or(0);
        let uniform: Vec<&Vec<f64>> = rows
            .iter()
            .filter_map(|(_, r)| match r {
                Row::Dense(v) if v.len() == dim => Some(v),
                _ => None,
            })
            .collect();
        if !rows.is_empty() && uniform.len() == rows.len() {
            let column = |j| uniform.iter().map(|v| v[j]).collect();
            return ColumnSlab::dense(labels, (0..dim).map(column).collect());
        }
        let mut builder = CsrBuilder::reusing(None, dim, rows.len(), 0);
        for (label, row) in rows {
            let mut entries = match row {
                Row::Dense(v) => (0..).zip(v.iter().copied()).collect(),
                Row::Sparse(_, entries) => entries.clone(),
            };
            builder.push_row(*label, &mut entries);
        }
        builder.finish()
    }

    /// Every row of `slab` reads back as `rows` has it: label, dimension,
    /// accounted bytes and the point a query would return.
    fn check_rows(slab: &ColumnSlab, rows: &[(f64, Row)]) {
        assert_eq!(slab.len(), rows.len());
        for (i, (label, row)) in rows.iter().enumerate() {
            let view = slab.row(i);
            assert_eq!((view.label(), view.dim()), (*label, row.dim()));
            assert_eq!(slab.row_size_bytes(i), row.size_bytes());
            let features = row.to_vector();
            let point = LabeledPoint {
                label: *label,
                features,
            };
            assert_eq!(view.to_point(), point);
        }
    }

    #[test]
    fn dense_rows_become_column_slabs() {
        let rows = [dense(1.0, &[1.0, 2.0]), dense(-1.0, &[3.0, 4.0])];
        let slab = slab_of(&rows);
        assert!(matches!(slab.layout(), SlabLayout::Dense { dim: 2, .. }));
        check_rows(&slab, &rows);
    }

    #[test]
    fn sparse_rows_become_csr() {
        let rows = [
            sparse(1.0, 16, &[(0, 1.0), (7, -2.0)]),
            sparse(0.0, 16, &[]),
            sparse(-1.0, 16, &[(3, 5.0)]),
        ];
        let slab = slab_of(&rows);
        assert!(matches!(slab.layout(), SlabLayout::Csr { dim: 16, .. }));
        check_rows(&slab, &rows);
    }

    #[test]
    fn a_csr_row_storing_every_coordinate_keeps_the_dense_arithmetic() {
        // Dense rows of two widths (stored zeros, a negative zero) among
        // sparse rows of two dimensions, one empty.
        let rows = [
            dense(1.0, &[0.5, 0.0, -1.5]),
            sparse(0.0, 4, &[(2, 2.0)]),
            dense(-1.0, &[-0.0, 3.25, 7.0, 0.1, -2.0]),
            sparse(1.0, 9, &[(0, -4.0), (8, 0.3)]),
            sparse(0.0, 2, &[]),
        ];
        let slab = slab_of(&rows);
        assert!(matches!(slab.layout(), SlabLayout::Csr { dim: 9, .. }));
        assert_eq!(
            slab.row(0).sparse_parts().map(|(i, _)| i),
            Some(&[0, 1, 2][..])
        );
        // Weights narrower than, as wide as and wider than each kind of row.
        let weights = (0..12).map(|n| (0..n).map(|i| 0.7 - i as f64).collect::<Vec<f64>>());
        for w in weights {
            for (i, (label, row)) in rows.iter().enumerate() {
                assert_eq!(slab.row(i).label(), *label);
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    row.dot_padded(&w).to_bits(),
                    "row {i} against {} weights",
                    w.len()
                );
                let (mut a, mut b) = (w.clone(), w.clone());
                slab.row(i).axpy_into_growing(-0.3, &mut a);
                row.axpy_into_growing(-0.3, &mut b);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "row {i} into {} weights", w.len());
            }
        }
    }

    #[test]
    fn row_ops_are_bit_identical_to_the_row_layout() {
        let rows = [
            dense(1.0, &[0.5, -1.5, 3.25]),
            dense(-1.0, &[2.0, 0.0, -0.125]),
        ];
        let slab = slab_of(&rows);
        // Narrower, covering, and wider weight vectors all agree bitwise.
        for w in [
            vec![1.5, -2.5],
            vec![1.5, -2.5, 0.75],
            vec![1.5, -2.5, 0.75, 9.0],
        ] {
            for (i, (_, row)) in rows.iter().enumerate() {
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    row.dot_padded(&w).to_bits()
                );
                let mut a = w.clone();
                let mut b = w.clone();
                slab.row(i).axpy_into_growing(0.3, &mut a);
                row.axpy_into_growing(0.3, &mut b);
                assert_eq!(a, b);
            }
        }
        let sp = [
            sparse(1.0, 8, &[(1, 2.0), (6, -1.0)]),
            sparse(0.0, 8, &[(0, 4.0)]),
        ];
        let slab = slab_of(&sp);
        for w in [vec![1.0, 2.0], vec![0.0; 8]] {
            for (i, (_, row)) in sp.iter().enumerate() {
                assert_eq!(
                    slab.row(i).dot_padded(&w).to_bits(),
                    row.dot_padded(&w).to_bits()
                );
                let mut a = w.clone();
                let mut b = w.clone();
                slab.row(i).axpy_into_growing(-0.7, &mut a);
                row.axpy_into_growing(-0.7, &mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn sparse_parts_follow_the_row_layout() {
        let d = dense(1.0, &[1.0, 2.0]);
        let s = sparse(0.0, 8, &[(1, 2.0), (6, -1.0)]);
        let parts = Some((&[1u32, 6][..], &[2.0, -1.0][..]));
        let csr = slab_of(&[sparse(1.0, 8, &[]), s]);
        assert_eq!(csr.row(0).sparse_parts(), Some((&[][..], &[][..])));
        assert_eq!(csr.row(1).sparse_parts(), parts);
        assert_eq!(slab_of(&[d]).row(0).sparse_parts(), None);
    }

    #[test]
    fn merge_entries_sorts_and_sums_repeats_within_a_row() {
        // Appended after a row ending in index 7: repeats merge within the
        // new row, never into the row before it.
        let (mut indices, mut values) = (vec![7], vec![4.0]);
        let mut entries = [(7, 1.0), (2, 0.5), (7, 2.0)];
        merge_entries(&mut entries, &mut indices, &mut values);
        assert_eq!((indices, values), (vec![7, 2, 7], vec![4.0, 0.5, 3.0]));
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
        let empty: (&[u32], &[f64]) = (&[], &[]);
        assert_eq!((first.len(), first.row(1).sparse_parts()), (2, Some(empty)));
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

    /// Terms the slab kernels must carry as the row ops do: signed zeros,
    /// subnormals, infinities, NaN, products that overflow, plain numbers.
    const SPECIALS: [f64; 9] = [
        0.0,
        -0.0,
        5e-324,
        -1e-310,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e308,
        -0.75,
    ];

    /// xorshift64: the kernel cases draw everything from one seed.
    fn draw(state: &mut u64, bound: usize) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as usize
    }

    /// A special one time in three, else a small value with a short mantissa
    /// or a long one, so some sums round and some cancel exactly.
    fn term(state: &mut u64) -> f64 {
        match draw(state, 6) {
            0 | 1 => SPECIALS[draw(state, SPECIALS.len())],
            2 => (draw(state, 9) as f64 - 4.0) * 0.5,
            _ => (draw(state, 1 << 20) as f64 - (1 << 19) as f64) / 3e5,
        }
    }

    /// A float's bits, every NaN read as one: which payload an operation on
    /// two NaNs keeps is the code generator's choice.
    fn bits(values: &[f64]) -> Vec<u64> {
        let nan = f64::NAN.to_bits();
        let one = |v: &f64| if v.is_nan() { nan } else { v.to_bits() };
        values.iter().map(one).collect()
    }

    /// A dense slab (widths 0 to 9: every block and remainder of the fold) or
    /// a CSR one, of up to eight rows.
    fn kernel_case_slab(state: &mut u64) -> ColumnSlab {
        let (n_rows, dim) = (draw(state, 9), draw(state, 10));
        if draw(state, 2) == 0 {
            let labels = (0..n_rows).map(|_| term(state)).collect();
            let cols = (0..dim)
                .map(|_| (0..n_rows).map(|_| term(state)).collect())
                .collect();
            return ColumnSlab::dense(labels, cols);
        }
        let rows: Vec<(f64, Row)> = (0..n_rows)
            .map(|_| {
                let mut entries = Vec::new();
                for i in 0..dim as u32 {
                    if draw(state, 2) == 0 {
                        entries.push((i, term(state)));
                    }
                }
                sparse(term(state), dim, &entries)
            })
            .collect();
        slab_of(&rows)
    }

    /// One case of [`slab_kernels_are_the_row_ops_bit_for_bit`].
    fn check_slab_kernels(state: &mut u64) {
        let slab = kernel_case_slab(state);
        let start = draw(state, slab.len() + 1);
        let rows = start..start + draw(state, slab.len() - start + 1);
        let (SlabLayout::Dense { dim, .. } | SlabLayout::Csr { dim, .. }) = *slab.layout();
        let width = |state: &mut u64| (dim + draw(state, 4)).saturating_sub(2);
        let weights: Vec<f64> = (0..width(state)).map(|_| term(state)).collect();
        let mut margins = vec![7.0; 3];
        slab.dot_rows(rows.clone(), &weights, &mut margins);
        let expected: Vec<f64> = rows
            .clone()
            .map(|i| slab.row(i).dot_padded(&weights))
            .collect();
        assert_eq!(
            bits(&margins),
            bits(&expected),
            "margins of {rows:?} in {slab:?}"
        );

        let coeffs: Vec<f64> = rows
            .clone()
            .map(|_| match draw(state, 4) {
                0 => [0.0, -0.0][draw(state, 2)],
                _ => term(state),
            })
            .collect();
        let target: Vec<f64> = (0..width(state)).map(|_| term(state)).collect();
        let mut folded = target.clone();
        slab.axpy_rows(rows.clone(), &coeffs, &mut folded);
        let mut expected = target;
        for (i, &c) in rows.clone().zip(&coeffs) {
            if c != 0.0 {
                slab.row(i).axpy_into_growing(c, &mut expected);
            }
        }
        let what = format!("{coeffs:?} over {rows:?} of {slab:?}");
        assert_eq!(bits(&folded), bits(&expected), "{what}");
    }

    proptest::proptest! {
        /// The slab kernels against the row ops they stand for, over every
        /// kind of term, on any sub-range of the slab: `dot_rows` with
        /// weights narrower than, as wide as and wider than the rows;
        /// `axpy_rows` into a target narrower or wider than them that already
        /// holds signed zeros and NaN, with zero coefficients of both signs
        /// among the rest (a zero skips its row, growth included). A seed
        /// runs 256 cases: the telling ones (an empty row, a lone `-0.0`) are
        /// rare.
        #[test]
        fn slab_kernels_are_the_row_ops_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            for _ in 0..256 {
                check_slab_kernels(&mut state);
            }
        }
    }

    #[test]
    fn slab_runs_cut_a_batch_where_rows_stop_following_on() {
        let a = ColumnSlab::dense(vec![0.0; 6], vec![vec![1.0; 6]]);
        let b = a.clone();
        let batch: Vec<RowView<'_>> = [(&a, 0), (&a, 1), (&a, 2), (&b, 3), (&b, 4), (&a, 5)]
            .into_iter()
            .chain([(&a, 4), (&a, 5), (&a, 0)])
            .map(|(slab, i)| slab.row(i))
            .collect();
        let runs: Vec<(bool, Range<usize>)> = slab_runs(&batch)
            .map(|(slab, rows)| (std::ptr::eq(slab, &a), rows))
            .collect();
        let expected = [
            (true, 0..3),
            (false, 3..5),
            (true, 5..6),
            (true, 4..6),
            (true, 0..1),
        ];
        assert_eq!(runs, expected);
        assert_eq!(slab_runs(&[]).count(), 0);
    }
}
