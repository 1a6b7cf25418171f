//! Missing-value imputation with online mean statistics.

use cdp_storage::durable;

use crate::batch::ColumnBatch;
use crate::component::Component;
use crate::stats::ColumnMoments;

/// Replaces missing (`NaN`) numeric values with the column's running mean —
/// the URL pipeline's "missing value imputer" (paper §5.1).
///
/// The mean is an incrementally-computable statistic, so the component
/// qualifies for online statistics computation: `update` folds arriving rows
/// into per-column Welford accumulators, and `transform` fills gaps using
/// whatever the accumulators currently hold (`0.0` before any observation),
/// reading each column's mean once per batch.
#[derive(Debug, Clone, Default)]
pub struct MeanImputer {
    moments: ColumnMoments,
}

impl MeanImputer {
    /// Creates an imputer with empty statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Component for MeanImputer {
    fn name(&self) -> &str {
        "mean-imputer"
    }

    fn update(&mut self, batch: &ColumnBatch<'_>) {
        self.moments.update(batch);
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        for (i, col) in batch.columns_mut().enumerate() {
            let mean = self.moments.col(i).mean();
            for v in col.iter_mut().filter(|v| v.is_nan()) {
                *v = mean;
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
    use crate::batch::tests::{column, columns, numeric};

    #[test]
    fn state_round_trips_through_bytes() {
        let mut imp = MeanImputer::new();
        imp.update(&numeric(&[&[1.0, 10.0], &[3.0, f64::NAN]]));
        let mut restored = MeanImputer::new();
        restored
            .restore_state(&imp.state_bytes())
            .expect("well-formed state round-trips");
        assert_eq!(restored.moments, imp.moments);
    }

    #[test]
    fn imputes_with_running_mean() {
        let mut imp = MeanImputer::new();
        imp.update(&numeric(&[&[1.0, 10.0], &[3.0, f64::NAN]]));
        let mut out = numeric(&[&[f64::NAN, f64::NAN]]);
        imp.transform(&mut out);
        // Mean of 1 and 3; the NaN was skipped in the statistics.
        assert_eq!(columns(&out), vec![vec![2.0], vec![10.0]]);
    }

    #[test]
    fn unseen_column_imputes_zero() {
        let mut out = numeric(&[&[f64::NAN]]);
        MeanImputer::new().transform(&mut out);
        assert_eq!(columns(&out), vec![vec![0.0]]);
    }

    #[test]
    fn update_then_transform_is_online_statistics() {
        // Folding chunks one at a time must equal folding them all at once.
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let mut online = MeanImputer::new();
        for chunk in values.chunks(3) {
            online.update(&column(chunk));
        }
        let mut batch = MeanImputer::new();
        batch.update(&column(&values));
        assert_eq!(online.state_bytes(), batch.state_bytes());
    }

    #[test]
    fn complete_rows_pass_through_unchanged() {
        let mut imp = MeanImputer::new();
        imp.update(&numeric(&[&[5.0]]));
        let mut out = numeric(&[&[7.0]]);
        imp.transform(&mut out);
        assert_eq!(columns(&out), vec![vec![7.0]]);
    }
}
