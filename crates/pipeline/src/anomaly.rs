//! Rule-based anomaly filtering (the Taxi pipeline's "anomaly detector").

use crate::batch::ColumnBatch;
use crate::component::Component;

/// A single bound on one numeric column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnBound {
    /// Index of the numeric column the bound applies to.
    pub col: usize,
    /// Keep rows with value strictly greater than this (when set).
    pub min_exclusive: Option<f64>,
    /// Keep rows with value strictly smaller than this (when set).
    pub max_exclusive: Option<f64>,
}

impl ColumnBound {
    fn admits(&self, v: f64) -> bool {
        !v.is_nan()
            && self.min_exclusive.is_none_or(|min| v > min)
            && self.max_exclusive.is_none_or(|max| v < max)
    }
}

/// Drops rows violating any configured bound — a stateless data-cleaning
/// component. The Taxi instance drops trips longer than 22 hours, shorter
/// than 10 seconds, or with zero travelled distance (paper §5.1).
#[derive(Debug, Clone, Default)]
pub struct AnomalyFilter {
    bounds: Vec<ColumnBound>,
    name: String,
}

impl AnomalyFilter {
    /// Creates an empty (admit-everything) filter.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            bounds: Vec::new(),
            name: name.into(),
        }
    }

    /// Adds a bound: keep rows with `min < column[col] < max` (either side
    /// optional). A batch without that column has every row dropped.
    pub fn bound(
        mut self,
        col: usize,
        min_exclusive: Option<f64>,
        max_exclusive: Option<f64>,
    ) -> Self {
        self.bounds.push(ColumnBound {
            col,
            min_exclusive,
            max_exclusive,
        });
        self
    }

    /// The configured bounds.
    pub fn bounds(&self) -> &[ColumnBound] {
        &self.bounds
    }
}

impl Component for AnomalyFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn transform(&self, batch: &mut ColumnBatch<'_>) {
        let mut keep = std::mem::take(&mut batch.mask);
        keep.clear();
        keep.resize(batch.len(), true);
        for bound in &self.bounds {
            let Some(col) = batch.col(bound.col) else {
                keep.fill(false); // missing column: every row is anomalous
                break;
            };
            for (k, &v) in keep.iter_mut().zip(col) {
                *k &= bound.admits(v);
            }
        }
        batch.retain(&keep);
        batch.mask = keep;
    }

    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::{columns, numeric};

    fn filter() -> AnomalyFilter {
        // keep 10 < col0 < 100, col1 > 0
        AnomalyFilter::new("test")
            .bound(0, Some(10.0), Some(100.0))
            .bound(1, Some(0.0), None)
    }

    fn kept(filter: &AnomalyFilter, rows: &[&[f64]]) -> usize {
        let mut batch = numeric(rows);
        filter.transform(&mut batch);
        batch.len()
    }

    #[test]
    fn admits_in_range_rows() {
        assert_eq!(kept(&filter(), &[&[50.0, 1.0]]), 1);
    }

    #[test]
    fn drops_out_of_range_rows() {
        let rows: [&[f64]; 5] = [
            &[5.0, 1.0],   // col0 too small
            &[100.0, 1.0], // col0 at max (exclusive)
            &[50.0, 2.0],  // the one survivor
            &[50.0, 0.0],  // col1 at min (exclusive)
            &[50.0, -3.0], // col1 negative
        ];
        let mut batch = numeric(&rows);
        filter().transform(&mut batch);
        assert_eq!(columns(&batch), vec![vec![50.0], vec![2.0]]);
    }

    #[test]
    fn drops_rows_with_missing_bound_column() {
        assert_eq!(kept(&filter(), &[&[50.0]]), 0); // col1 absent
        assert_eq!(kept(&filter(), &[&[50.0, f64::NAN]]), 0); // col1 NaN
    }

    #[test]
    fn empty_filter_admits_everything() {
        assert_eq!(kept(&AnomalyFilter::new("noop"), &[&[-1e9]]), 1);
    }
}
