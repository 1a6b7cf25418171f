//! The in-flight representation flowing between pipeline stages.

/// A chunk of parsed examples, column-major: one label column, the numeric
/// columns in one flat buffer, and per-row token bags whose tokens borrow
/// from the raw records. The parser fills it once; every component edits it
/// in place and the encoder turns it into the stored slab.
///
/// * labels — the learning targets (`NaN` for unlabeled prediction queries);
/// * numeric columns — `NaN` marks a missing value, which only the
///   missing-value imputer is expected to remove;
/// * tokens — categorical/text tokens (e.g. tokenized URL parts) consumed by
///   the feature hasher or the one-hot encoder.
///
/// Every column is exactly [`ColumnBatch::len`] long by construction: the
/// width is a property of the batch, checked once per kernel rather than
/// once per row, and a batch costs a handful of allocations however many
/// rows or columns it has — none when it is built from the buffers of an
/// earlier one ([`ColumnBatch::recycle`]) that were large enough.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch<'a> {
    labels: Vec<f64>,
    /// Column `j` is `nums[j * stride..][..labels.len()]`.
    nums: Vec<f64>,
    /// Rows each column has room for.
    stride: usize,
    width: usize,
    pub(crate) tokens: Vec<&'a str>,
    /// `token_end[i]` is where row `i`'s tokens end in `tokens`.
    token_end: Vec<usize>,
    /// The numeric buffer `map_columns` replaced last and fills next; the
    /// schema parser stages its row in it.
    pub(crate) spare: Vec<f64>,
    /// `map_columns`' two column lists, empty between calls.
    col_refs: [Vec<&'static [f64]>; 2],
    /// The anomaly filter's keep mask.
    pub(crate) mask: Vec<bool>,
    /// The sparse encoders' entries of one row.
    pub(crate) entries: Vec<(u32, f64)>,
}

/// An empty vector in `v`'s allocation: collecting a vector's own iterator
/// reuses its buffer when both element types have one layout (`Vec::new()`
/// otherwise), which lets a list of borrows outlive what it borrowed.
fn recycled<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}

impl<'a> ColumnBatch<'a> {
    /// An empty batch of `width` numeric columns with room for `rows` rows.
    pub fn with_capacity(rows: usize, width: usize) -> Self {
        ColumnBatch::default().recycle(rows, width)
    }

    /// [`ColumnBatch::with_capacity`] in this batch's buffers: no row, token
    /// or borrow of it survives. Every parser starts from one (so nothing of
    /// an earlier pass reaches the next, however that pass ended), and a
    /// caller that runs a batch per call keeps `recycle(0, 0)` in between.
    pub fn recycle<'b>(mut self, rows: usize, width: usize) -> ColumnBatch<'b> {
        self.labels.clear();
        self.labels.reserve(rows);
        self.nums.clear();
        self.nums.resize(rows * width, f64::NAN);
        self.token_end.clear();
        self.token_end.reserve(rows);
        ColumnBatch {
            labels: self.labels,
            nums: self.nums,
            stride: rows,
            width,
            tokens: recycled(self.tokens),
            token_end: self.token_end,
            spare: self.spare,
            col_refs: self.col_refs,
            mask: self.mask,
            entries: self.entries,
        }
    }

    /// Appends one row. `nums` is read up to the batch width; a column it
    /// does not reach is missing (`NaN`) in this row.
    pub fn push_row(&mut self, label: f64, nums: &[f64], tokens: impl Iterator<Item = &'a str>) {
        let row = self.labels.len();
        if row == self.stride {
            self.restride((2 * row).max(4));
        }
        for (j, &v) in nums.iter().take(self.width).enumerate() {
            self.nums[j * self.stride + row] = v;
        }
        self.labels.push(label);
        self.tokens.extend(tokens);
        self.token_end.push(self.tokens.len());
    }

    /// Moves the columns into a buffer with room for `stride` rows each.
    fn restride(&mut self, stride: usize) {
        let mut nums = vec![f64::NAN; stride * self.width];
        for (j, col) in self.columns().enumerate() {
            nums[j * stride..][..col.len()].copy_from_slice(col);
        }
        self.nums = nums;
        self.stride = stride;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of numeric columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The label column.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Numeric column `j`, `len()` long; `None` beyond the width.
    pub fn col(&self, j: usize) -> Option<&[f64]> {
        (j < self.width).then(|| &self.nums[j * self.stride..][..self.labels.len()])
    }

    /// The numeric columns in order, each `len()` long.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone {
        (0..self.width).map(|j| &self.nums[j * self.stride..][..self.labels.len()])
    }

    /// The numeric columns as mutable slices, for in-place kernels.
    pub fn columns_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let len = self.labels.len();
        // A batch without room for rows has no values to edit.
        let cols = self.nums.chunks_exact_mut(self.stride.max(1));
        cols.map(move |col| &mut col[..len])
    }

    /// Row `i`'s token bag (empty when `i` is out of range).
    pub fn tokens(&self, i: usize) -> &[&'a str] {
        let Some(&end) = self.token_end.get(i) else {
            return &[];
        };
        let start = if i == 0 { 0 } else { self.token_end[i - 1] };
        self.tokens.get(start..end).unwrap_or(&[])
    }

    /// Every token of the batch, row by row.
    pub fn all_tokens(&self) -> &[&'a str] {
        &self.tokens
    }

    /// Replaces the numeric columns by `width` new ones, which `fill`
    /// computes from the old ones (`fill(old, new)`; every slice is `len()`
    /// long and the new columns start out all-`NaN`). Feature extractors
    /// and column selection rebuild the column set this way.
    pub fn map_columns(&mut self, width: usize, fill: impl FnOnce(&[&[f64]], &mut [&mut [f64]])) {
        let len = self.len();
        let mut nums = std::mem::take(&mut self.spare);
        if nums.capacity() < width * len {
            nums = Vec::new(); // growing the stale buffer would copy it
        }
        nums.clear();
        nums.resize(width * len, f64::NAN);
        let [old, new] = std::mem::take(&mut self.col_refs);
        let (mut old, mut new): (Vec<&[f64]>, Vec<&mut [f64]>) = (old, recycled(new));
        old.extend(self.columns());
        match len {
            0 => new.extend((0..width).map(|_| Default::default())),
            _ => new.extend(nums.chunks_exact_mut(len)),
        }
        fill(&old, &mut new);
        self.col_refs = [recycled(old), recycled(new)];
        self.spare = std::mem::replace(&mut self.nums, nums);
        self.stride = len;
        self.width = width;
    }

    /// Drops every row (the column set stays).
    pub fn clear(&mut self) {
        self.retain(&[]);
    }

    /// Keeps row `i` iff `keep[i]` (rows beyond `keep` are dropped),
    /// compacting the labels, every numeric column and the token bags.
    pub fn retain(&mut self, keep: &[bool]) {
        let len = self.len();
        if keep.len() >= len && keep[..len].iter().all(|&k| k) {
            return;
        }
        // Maximal runs of kept rows: each column moves whole runs.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for i in (0..len.min(keep.len())).filter(|&i| keep[i]) {
            match runs.last_mut() {
                Some((_, end)) if *end == i => *end = i + 1,
                _ => runs.push((i, i + 1)),
            }
        }
        if !self.tokens.is_empty() {
            let mut tokens = Vec::with_capacity(self.tokens.len());
            let mut token_end = Vec::with_capacity(len);
            for i in runs.iter().flat_map(|&(start, end)| start..end) {
                tokens.extend_from_slice(self.tokens(i));
                token_end.push(tokens.len());
            }
            self.tokens = tokens;
            self.token_end = token_end;
        }
        for col in self.columns_mut() {
            compact(col, &runs);
        }
        let kept = compact(&mut self.labels, &runs);
        self.labels.truncate(kept);
        self.token_end.truncate(kept);
    }
}

/// Moves the `runs` (ascending, disjoint, within `v`) to the front of `v`;
/// returns how many values they hold.
fn compact(v: &mut [f64], runs: &[(usize, usize)]) -> usize {
    let mut write = 0;
    for &(start, end) in runs {
        v.copy_within(start..end, write);
        write += end - start;
    }
    write
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test aid shared by the component tests: label-0 rows of numerics.
    pub(crate) fn numeric(rows: &[&[f64]]) -> ColumnBatch<'static> {
        let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut b = ColumnBatch::with_capacity(rows.len(), width);
        for row in rows {
            b.push_row(0.0, row, std::iter::empty());
        }
        b
    }

    /// Test aid: a one-column batch of `values`.
    pub(crate) fn column(values: &[f64]) -> ColumnBatch<'static> {
        let rows: Vec<[f64; 1]> = values.iter().map(|&v| [v]).collect();
        numeric(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>())
    }

    /// Test aid: the numeric columns as owned vectors.
    pub(crate) fn columns(batch: &ColumnBatch<'_>) -> Vec<Vec<f64>> {
        batch.columns().map(<[f64]>::to_vec).collect()
    }

    fn batch() -> ColumnBatch<'static> {
        let mut b = ColumnBatch::with_capacity(4, 2);
        b.push_row(1.0, &[10.0, 11.0], ["a", "b"].into_iter());
        b.push_row(2.0, &[20.0], std::iter::empty());
        b.push_row(3.0, &[30.0, 31.0, 99.0], ["c"].into_iter());
        b.push_row(4.0, &[40.0, 41.0], ["d", "e", "f"].into_iter());
        b
    }

    #[test]
    fn push_row_fills_every_column() {
        let b = batch();
        assert_eq!((b.len(), b.width()), (4, 2));
        assert_eq!(b.labels(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.col(0), Some(&[10.0, 20.0, 30.0, 40.0][..]));
        assert_eq!(b.col(2), None);
        // A short row is missing in the columns it does not reach; values
        // beyond the width are ignored.
        let second = columns(&b).remove(1);
        assert!(second[1].is_nan());
        assert_eq!(second[2], 31.0);
        assert_eq!(b.tokens(0), &["a", "b"]);
        assert!(b.tokens(1).is_empty());
        assert_eq!(b.tokens(3), &["d", "e", "f"]);
        assert!(b.tokens(4).is_empty());
        assert_eq!(b.all_tokens().len(), 6);
    }

    #[test]
    fn rows_beyond_the_capacity_grow_every_column() {
        let mut b = ColumnBatch::with_capacity(0, 2);
        for i in 0..9 {
            b.push_row(i as f64, &[i as f64, -(i as f64)], std::iter::empty());
        }
        let expected: Vec<f64> = (0..9).map(f64::from).collect();
        assert_eq!(b.labels(), expected);
        assert_eq!(b.col(0), Some(&expected[..]));
        assert_eq!(b.col(1).map(|c| c[8]), Some(-8.0));
    }

    #[test]
    fn retain_compacts_every_column_and_the_token_bags() {
        let mut b = batch();
        b.retain(&[true, false, true, true]);
        assert_eq!(b.labels(), &[1.0, 3.0, 4.0]);
        assert_eq!(
            columns(&b),
            vec![vec![10.0, 30.0, 40.0], vec![11.0, 31.0, 41.0]]
        );
        assert_eq!(b.tokens(1), &["c"]);
        assert_eq!(b.tokens(2), &["d", "e", "f"]);
        // All-true is a no-op; a short mask drops the rows it does not cover.
        b.retain(&[true, true, true]);
        assert_eq!(b.labels(), &[1.0, 3.0, 4.0]);
        b.retain(&[false, true]);
        assert_eq!(b.labels(), &[3.0]);
        assert_eq!(columns(&b), vec![vec![30.0], vec![31.0]]);
        assert_eq!(b.tokens(0), &["c"]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.width(), 2);
        assert!(b.all_tokens().is_empty());
        assert!(b.columns_mut().all(|col| col.is_empty()));
    }

    #[test]
    fn a_recycled_batch_keeps_its_buffers_and_nothing_else() {
        let mut b = batch();
        b.map_columns(3, |_, new| new[2].fill(7.0));
        let (labels, nums, tokens) = (b.labels.as_ptr(), b.nums.as_ptr(), b.tokens.as_ptr());
        let spare = b.spare.as_ptr();
        // Same shape again: every buffer is large enough and stays put, no
        // row, token or column value comes along.
        let text = String::from("g h");
        let mut b: ColumnBatch<'_> = b.recycle(4, 2);
        assert_eq!((b.len(), b.width(), b.all_tokens().len()), (0, 2, 0));
        b.push_row(9.0, &[1.0], text.split(' '));
        assert_eq!((b.labels.as_ptr(), b.nums.as_ptr()), (labels, nums));
        assert_eq!(b.tokens.as_ptr(), tokens);
        assert_eq!(b.tokens(0), &["g", "h"]);
        assert!(b.col(1).is_some_and(|col| col[0].is_nan()));
        // The next column set goes into the buffer the last one replaced,
        // all-missing again, and the column lists are reused with it.
        let lists = b.col_refs.each_ref().map(|list| list.capacity());
        b.map_columns(2, |old, new| new[0].copy_from_slice(old[0]));
        assert_eq!(b.nums.as_ptr(), spare);
        assert_eq!(b.col(0), Some(&[1.0][..]));
        assert!(b.col(1).is_some_and(|col| col[0].is_nan()));
        assert_eq!(b.col_refs.each_ref().map(|list| list.capacity()), lists);
        assert!(lists.iter().all(|&capacity| capacity >= 2));
    }

    #[test]
    fn map_columns_rebuilds_the_column_set() {
        let mut b = batch();
        b.map_columns(3, |old, new| {
            assert_eq!((old.len(), new.len()), (2, 3));
            new[0].copy_from_slice(old[1]);
            new[2].fill(7.0);
        });
        assert_eq!(b.width(), 3);
        let cols = columns(&b);
        assert_eq!(cols[0][3], 41.0);
        assert!(cols[1].iter().all(|v| v.is_nan()));
        assert_eq!(cols[2], vec![7.0; 4]);
        // An empty batch keeps its shape through the same call.
        let mut empty = ColumnBatch::with_capacity(0, 2);
        empty.map_columns(5, |old, new| {
            assert_eq!((old.len(), new.len()), (2, 5));
            assert!(new.iter().all(|c| c.is_empty()));
        });
        assert_eq!((empty.len(), empty.width()), (0, 5));
    }
}
