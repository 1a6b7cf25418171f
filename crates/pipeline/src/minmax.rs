//! Min–max scaling and winsorization — additional stateful components with
//! incrementally-computable statistics (running minima/maxima), rounding
//! out the library beyond the paper's two evaluation pipelines.

use crate::batch::ColumnBatch;
use crate::component::{Component, StateDecodeError};

/// Per-column running minima and maxima (exact one-pass statistics).
#[derive(Debug, Clone, Default)]
struct ColumnRanges {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl ColumnRanges {
    /// Folds a batch in, growing to its width; each column's running
    /// minimum and maximum see its values top to bottom (`NaN` compares
    /// false both ways and is skipped).
    fn update(&mut self, batch: &ColumnBatch<'_>) {
        if batch.is_empty() {
            return;
        }
        if batch.width() > self.mins.len() {
            self.mins.resize(batch.width(), f64::INFINITY);
            self.maxs.resize(batch.width(), f64::NEG_INFINITY);
        }
        let ranges = self.mins.iter_mut().zip(&mut self.maxs);
        for ((lo, hi), col) in ranges.zip(batch.columns()) {
            for &x in col {
                if x < *lo {
                    *lo = x;
                }
                if x > *hi {
                    *hi = x;
                }
            }
        }
    }

    fn range(&self, i: usize) -> Option<(f64, f64)> {
        match (self.mins.get(i), self.maxs.get(i)) {
            (Some(&lo), Some(&hi)) if lo <= hi => Some((lo, hi)),
            _ => None,
        }
    }

    /// Serializes the ranges for a component checkpoint:
    /// `width u32 | per column: min f64, max f64` (big-endian).
    fn state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + self.mins.len() * 16);
        buf.extend_from_slice(&(self.mins.len() as u32).to_be_bytes());
        for (&lo, &hi) in self.mins.iter().zip(&self.maxs) {
            buf.extend_from_slice(&lo.to_be_bytes());
            buf.extend_from_slice(&hi.to_be_bytes());
        }
        buf
    }

    /// Restores ranges written by [`ColumnRanges::state_bytes`]. Malformed
    /// bytes leave the state unchanged and report a typed error (payloads
    /// are CRC-protected upstream, so a failure here is a framing bug).
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StateDecodeError> {
        if bytes.len() < 4 {
            return Err(StateDecodeError::Truncated {
                needed: 4,
                found: bytes.len(),
            });
        }
        let width = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() != 4 + width * 16 {
            return Err(StateDecodeError::LengthMismatch {
                expected: 4 + width * 16,
                found: bytes.len(),
            });
        }
        let read_f64 = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            f64::from_bits(u64::from_be_bytes(b))
        };
        let mut mins = Vec::with_capacity(width);
        let mut maxs = Vec::with_capacity(width);
        for i in 0..width {
            let base = 4 + i * 16;
            mins.push(read_f64(base));
            maxs.push(read_f64(base + 8));
        }
        self.mins = mins;
        self.maxs = maxs;
        Ok(())
    }
}

/// Scales every numeric column into `[0, 1]` using running min/max — the
/// min and max are incrementally computable, so the component qualifies for
/// online statistics computation (paper §3.1). Columns not yet observed
/// pass through unchanged; constant columns map to `0.0`. Each column's
/// range and span are read once per batch; every value still gets the same
/// `(x − lo) / span` on the same operands, so the output is bit-identical
/// to looking the range up afresh for each value.
#[derive(Debug, Clone, Default)]
pub struct MinMaxScaler {
    ranges: ColumnRanges,
}

impl MinMaxScaler {
    /// Creates a scaler with empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current `(min, max)` for column `col`, if observed.
    pub fn range_for(&self, col: usize) -> Option<(f64, f64)> {
        self.ranges.range(col)
    }
}

impl Component for MinMaxScaler {
    fn name(&self) -> &str {
        "min-max-scaler"
    }

    fn update(&mut self, batch: &ColumnBatch<'_>) {
        self.ranges.update(batch);
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        for (i, col) in batch.columns_mut().enumerate() {
            let Some((lo, hi)) = self.ranges.range(i) else {
                continue;
            };
            let span = hi - lo;
            if span > 1e-12 {
                col.iter_mut().for_each(|v| *v = (*v - lo) / span);
            } else {
                col.fill(0.0);
            }
        }
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.ranges.state_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StateDecodeError> {
        self.ranges.restore_state(bytes)
    }

    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }
}

/// Clamps numeric columns into fixed bounds — a stateless data-cleaning
/// transformation (softer than dropping rows like the anomaly filter).
#[derive(Debug, Clone)]
pub struct Winsorizer {
    lo: f64,
    hi: f64,
}

impl Winsorizer {
    /// Creates a winsorizer clamping into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics when `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "winsorizer bounds must be ordered");
        Self { lo, hi }
    }
}

impl Component for Winsorizer {
    fn name(&self) -> &str {
        "winsorizer"
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        for col in batch.columns_mut() {
            for v in col.iter_mut().filter(|v| !v.is_nan()) {
                *v = v.clamp(self.lo, self.hi);
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::{column, columns};

    fn transformed(component: &dyn Component, values: &[f64]) -> Vec<f64> {
        let mut batch = column(values);
        component.transform(&mut batch);
        columns(&batch).remove(0)
    }

    #[test]
    fn minmax_maps_observed_range_to_unit_interval() {
        let mut s = MinMaxScaler::new();
        s.update(&column(&[2.0, 6.0, 10.0]));
        assert_eq!(transformed(&s, &[2.0, 6.0, 10.0]), vec![0.0, 0.5, 1.0]);
        assert_eq!(s.range_for(0), Some((2.0, 10.0)));
    }

    #[test]
    fn minmax_extrapolates_beyond_observed_range() {
        let mut s = MinMaxScaler::new();
        s.update(&column(&[0.0, 10.0]));
        assert_eq!(transformed(&s, &[20.0, -10.0]), vec![2.0, -1.0]);
    }

    #[test]
    fn minmax_constant_column_maps_to_zero() {
        let mut s = MinMaxScaler::new();
        s.update(&column(&[5.0, 5.0]));
        assert_eq!(transformed(&s, &[5.0]), vec![0.0]);
    }

    #[test]
    fn minmax_skips_nan_in_update_and_unseen_columns() {
        let mut s = MinMaxScaler::new();
        s.update(&column(&[f64::NAN]));
        // No observation ⇒ identity transform.
        assert_eq!(transformed(&s, &[7.0]), vec![7.0]);
        assert_eq!(s.range_for(0), None);
    }

    #[test]
    fn minmax_incremental_updates_match_batch() {
        let values = [3.0, -1.0, 8.0, 2.5, 7.0];
        let mut online = MinMaxScaler::new();
        for chunk in values.chunks(2) {
            online.update(&column(chunk));
        }
        let mut batch = MinMaxScaler::new();
        batch.update(&column(&values));
        assert_eq!(online.range_for(0), batch.range_for(0));
    }

    #[test]
    fn state_round_trips_through_bytes() {
        let mut s = MinMaxScaler::new();
        s.update(&column(&[2.0, 6.0, 10.0]));
        let mut restored = MinMaxScaler::new();
        restored
            .restore_state(&s.state_bytes())
            .expect("well-formed state round-trips");
        assert_eq!(restored.range_for(0), s.range_for(0));
        let (a, b) = (transformed(&s, &[3.7]), transformed(&restored, &[3.7]));
        assert_eq!(a[0].to_bits(), b[0].to_bits());
    }

    #[test]
    fn restore_rejects_malformed_bytes_and_keeps_state() {
        let mut trained = MinMaxScaler::new();
        trained.update(&column(&[2.0, 6.0]));
        let good = trained.state_bytes();

        let mut s = MinMaxScaler::new();
        s.update(&column(&[1.0]));
        let before = s.range_for(0);
        assert_eq!(
            s.restore_state(&good[..3]),
            Err(StateDecodeError::Truncated {
                needed: 4,
                found: 3
            })
        );
        assert_eq!(
            s.restore_state(&good[..good.len() - 1]),
            Err(StateDecodeError::LengthMismatch {
                expected: good.len(),
                found: good.len() - 1
            })
        );
        // Failed restores must leave the live statistics untouched.
        assert_eq!(s.range_for(0), before);
    }

    #[test]
    fn winsorizer_clamps_only_out_of_bounds() {
        let w = Winsorizer::new(-1.0, 1.0);
        assert_eq!(transformed(&w, &[-5.0, 0.5, 5.0]), vec![-1.0, 0.5, 1.0]);
        assert!(!w.is_stateful());
    }

    #[test]
    #[should_panic(expected = "bounds must be ordered")]
    fn winsorizer_rejects_inverted_bounds() {
        Winsorizer::new(1.0, -1.0);
    }
}
