//! Incrementally-computable statistics (paper §3.1).
//!
//! Only statistics with an exact one-pass update rule are provided — that is
//! the platform's admission criterion for stateful pipeline components.

use cdp_storage::durable::{self, put_f64, put_u32, put_u64, Reader};

use crate::batch::ColumnBatch;

/// Welford's online algorithm for mean and variance of one column, with
/// NaN-skipping (missing values must not poison the statistics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates empty moments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in; `NaN` is skipped.
    #[inline]
    pub fn update(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (`0.0` before any observation).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`0.0` with fewer than two observations).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Decomposes into `(count, mean, m2)` for checkpointing.
    pub fn to_parts(&self) -> (u64, f64, f64) {
        (self.count, self.mean, self.m2)
    }

    /// Rebuilds from parts captured with [`RunningMoments::to_parts`].
    pub fn from_parts(count: u64, mean: f64, m2: f64) -> Self {
        Self { count, mean, m2 }
    }
}

/// A fixed-size set of per-column moments that grows with the widest row
/// seen, for components operating over all numeric columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnMoments {
    cols: Vec<RunningMoments>,
}

impl ColumnMoments {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a batch in, growing to its width. Each column's accumulator
    /// sees its column top to bottom — the sequence a row-at-a-time fold
    /// feeds it, so the moments are bit-identical to that fold's. The loop
    /// nest stays row-major on purpose: the per-column Welford chains (one
    /// divide each) then overlap instead of running back to back.
    pub fn update(&mut self, batch: &ColumnBatch<'_>) {
        if batch.is_empty() {
            return;
        }
        if batch.width() > self.cols.len() {
            self.cols.resize_with(batch.width(), RunningMoments::new);
        }
        let columns: Vec<&[f64]> = batch.columns().collect();
        for i in 0..batch.len() {
            for (moments, col) in self.cols.iter_mut().zip(&columns) {
                moments.update(col[i]);
            }
        }
    }

    /// Per-column accumulators.
    pub fn columns(&self) -> &[RunningMoments] {
        &self.cols
    }

    /// Number of tracked columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Moments of column `i` (default moments when the column is unseen).
    pub fn col(&self, i: usize) -> RunningMoments {
        self.cols.get(i).copied().unwrap_or_default()
    }

    /// Serializes the accumulators for a component checkpoint:
    /// `width u32 | per column: count u64, mean f64, m2 f64` (big-endian).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + self.cols.len() * 24);
        put_u32(&mut buf, self.cols.len() as u32);
        for col in &self.cols {
            let (count, mean, m2) = col.to_parts();
            put_u64(&mut buf, count);
            put_f64(&mut buf, mean);
            put_f64(&mut buf, m2);
        }
        buf
    }

    /// Restores accumulators written by [`ColumnMoments::state_bytes`].
    /// Malformed bytes leave the state unchanged and report a typed error —
    /// checkpoint payloads are CRC-protected upstream, so a decode failure
    /// here is a framing logic error that must not be swallowed.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), durable::Error> {
        let mut r = Reader::new(bytes);
        let width = r.count()?;
        let mut cols = Vec::with_capacity(width);
        for _ in 0..width {
            cols.push(RunningMoments::from_parts(r.u64()?, r.f64()?, r.f64()?));
        }
        r.finish()?;
        self.cols = cols;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = RunningMoments::new();
        for &x in &data {
            m.update(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / data.len() as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.count(), 8);
    }

    #[test]
    fn nan_is_skipped() {
        let mut m = RunningMoments::new();
        m.update(1.0);
        m.update(f64::NAN);
        m.update(3.0);
        assert_eq!(m.count(), 2);
        assert!((m.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn column_moments_grow_with_rows() {
        let mut cm = ColumnMoments::new();
        let mut narrow = ColumnBatch::with_capacity(1, 2);
        narrow.push_row(0.0, &[1.0, 2.0], std::iter::empty());
        cm.update(&narrow);
        // An empty batch, however wide, leaves the width alone.
        cm.update(&ColumnBatch::with_capacity(0, 7));
        assert_eq!(cm.width(), 2);
        let mut wide = ColumnBatch::with_capacity(1, 3);
        wide.push_row(0.0, &[3.0, 4.0, 5.0], std::iter::empty());
        cm.update(&wide);
        assert_eq!(cm.width(), 3);
        assert_eq!(cm.col(0).count(), 2);
        assert_eq!(cm.col(2).count(), 1);
        assert_eq!(cm.col(9).count(), 0);
    }

    #[test]
    fn variance_degenerate_cases() {
        let mut m = RunningMoments::new();
        assert_eq!(m.variance(), 0.0);
        m.update(3.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.std_dev(), 0.0);
    }
}
