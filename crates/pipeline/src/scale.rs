//! Standard scaling with online mean/variance statistics.

use cdp_storage::durable;

use crate::batch::ColumnBatch;
use crate::component::Component;
use crate::stats::ColumnMoments;

/// Standardizes numeric columns to zero mean and unit variance — the paper's
/// flagship example of a component with incrementally-computable statistics
/// (mean and standard deviation, §3.1).
///
/// `update` folds rows into per-column Welford accumulators; `transform`
/// applies `(x − mean) / std`. Columns with (near-)zero variance are only
/// centered, never divided by ~0. The mean and standard deviation are read
/// once per column per batch; every value still gets the same subtraction
/// and the same division by the same operands, so the output is
/// bit-identical to deriving them afresh for each value.
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    moments: ColumnMoments,
}

impl StandardScaler {
    /// Creates a scaler with empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current `(mean, std)` for column `col`.
    fn stats_for(&self, col: usize) -> (f64, f64) {
        let m = self.moments.col(col);
        (m.mean(), m.std_dev())
    }
}

impl Component for StandardScaler {
    fn name(&self) -> &str {
        "standard-scaler"
    }

    fn update(&mut self, batch: &ColumnBatch<'_>) {
        self.moments.update(batch);
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        for (i, col) in batch.columns_mut().enumerate() {
            let (mean, std) = self.stats_for(i);
            if std > 1e-12 {
                col.iter_mut().for_each(|v| *v = (*v - mean) / std);
            } else {
                col.iter_mut().for_each(|v| *v -= mean);
            }
        }
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.moments.state_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), durable::Error> {
        self.moments.restore_state(bytes)
    }

    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::{column, columns};

    fn scaled(scaler: &StandardScaler, values: &[f64]) -> Vec<f64> {
        let mut batch = column(values);
        scaler.transform(&mut batch);
        columns(&batch).remove(0)
    }

    #[test]
    fn state_round_trips_through_bytes() {
        let mut scaler = StandardScaler::new();
        scaler.update(&column(&[2.0, 4.0, 6.0, 8.0]));
        let mut restored = StandardScaler::new();
        restored
            .restore_state(&scaler.state_bytes())
            .expect("well-formed state round-trips");
        // Bit-identical transforms after restore, not just close ones.
        let (a, b) = (scaled(&scaler, &[3.5]), scaled(&restored, &[3.5]));
        assert_eq!(a[0].to_bits(), b[0].to_bits());
    }

    #[test]
    fn standardizes_to_zero_mean_unit_variance() {
        let mut scaler = StandardScaler::new();
        scaler.update(&column(&[2.0, 4.0, 6.0, 8.0]));
        let out = scaled(&scaler, &[2.0, 4.0, 6.0, 8.0]);
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        let var: f64 = out.iter().map(|v| v * v).sum::<f64>() / out.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_is_centered_not_divided() {
        let mut scaler = StandardScaler::new();
        scaler.update(&column(&[5.0, 5.0, 5.0]));
        assert_eq!(scaled(&scaler, &[5.0, 5.0, 5.0]), vec![0.0; 3]);
    }

    #[test]
    fn chunked_updates_match_batch_update() {
        let values: Vec<f64> = (0..20).map(|i| (i as f64).sin() * 10.0).collect();
        let mut online = StandardScaler::new();
        for chunk in values.chunks(4) {
            online.update(&column(chunk));
        }
        let mut batch = StandardScaler::new();
        batch.update(&column(&values));
        assert_eq!(online.stats_for(0), batch.stats_for(0));
    }

    #[test]
    fn transform_before_any_update_is_identity_shift() {
        // mean=0, std=0 => only centering by 0.
        assert_eq!(scaled(&StandardScaler::new(), &[3.0]), vec![3.0]);
    }

    #[test]
    fn scaler_is_stateful_and_incremental() {
        let s = StandardScaler::new();
        assert!(s.is_stateful());
        assert!(s.is_incremental());
    }
}
