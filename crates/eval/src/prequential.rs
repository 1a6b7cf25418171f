//! Cumulative prequential evaluation (test-then-train).

use serde::{Deserialize, Serialize};

/// How prediction error is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorMetric {
    /// Fraction of misclassified examples (labels in {−1, +1}).
    Misclassification,
    /// Root mean squared logarithmic error. Callers supply predictions and
    /// labels already in log1p space (the Taxi pipeline's target), where
    /// RMSLE reduces to RMSE.
    Rmsle,
}

impl ErrorMetric {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorMetric::Misclassification => "error-rate",
            ErrorMetric::Rmsle => "RMSLE",
        }
    }
}

/// Cumulative prequential error over a deployment, with an optional curve of
/// `(examples_seen, cumulative_error)` checkpoints for plotting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrequentialEvaluator {
    metric: ErrorMetric,
    count: u64,
    /// Misclassification: number of errors. RMSLE: sum of squared log error.
    accumulator: f64,
    curve: Vec<(u64, f64)>,
    checkpoint_every: u64,
}

impl PrequentialEvaluator {
    /// Creates an evaluator; a curve point is recorded every
    /// `checkpoint_every` examples (0 disables the curve).
    pub fn new(metric: ErrorMetric, checkpoint_every: u64) -> Self {
        Self {
            metric,
            count: 0,
            accumulator: 0.0,
            curve: Vec::new(),
            checkpoint_every,
        }
    }

    /// Rebuilds an evaluator from checkpointed state so a resumed deployment
    /// continues the same cumulative error trajectory and curve.
    pub fn restore(
        metric: ErrorMetric,
        count: u64,
        accumulator: f64,
        curve: Vec<(u64, f64)>,
        checkpoint_every: u64,
    ) -> Self {
        Self {
            metric,
            count,
            accumulator,
            curve,
            checkpoint_every,
        }
    }

    /// The metric in use.
    pub fn metric(&self) -> ErrorMetric {
        self.metric
    }

    /// Observes one (prediction, label) pair *before* the model trains on
    /// the example.
    pub fn observe(&mut self, prediction: f64, label: f64) {
        match self.metric {
            ErrorMetric::Misclassification => {
                if (prediction >= 0.0) != (label >= 0.0) {
                    self.accumulator += 1.0;
                }
            }
            ErrorMetric::Rmsle => {
                let d = prediction - label;
                self.accumulator += d * d;
            }
        }
        self.count += 1;
        if self.checkpoint_every > 0 && self.count.is_multiple_of(self.checkpoint_every) {
            self.curve.push((self.count, self.error()));
        }
    }

    /// Current cumulative error (0.0 before any observation).
    pub fn error(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        match self.metric {
            ErrorMetric::Misclassification => self.accumulator / self.count as f64,
            ErrorMetric::Rmsle => (self.accumulator / self.count as f64).sqrt(),
        }
    }

    /// Examples observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw error accumulator: number of misclassifications, or the sum
    /// of squared log errors. Differencing this between two points in time
    /// gives the mean error of just that slice — used by the deployment
    /// loop to feed per-chunk errors into the drift monitor.
    pub fn raw_accumulator(&self) -> f64 {
        self.accumulator
    }

    /// The recorded `(examples_seen, cumulative_error)` curve.
    pub fn curve(&self) -> &[(u64, f64)] {
        &self.curve
    }

    /// Forces a checkpoint at the current position (used at chunk
    /// boundaries by the deployment loop).
    pub fn checkpoint(&mut self) {
        if self.count > 0 {
            self.curve.push((self.count, self.error()));
        }
    }
}

/// Mean of the cumulative-error curve — the "average error rate over the
/// deployment" the paper reports when comparing approaches (Figure 8).
pub fn average_of_curve(curve: &[(u64, f64)]) -> f64 {
    if curve.is_empty() {
        return 0.0;
    }
    curve.iter().map(|(_, e)| e).sum::<f64>() / curve.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misclassification_counts_sign_disagreement() {
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Misclassification, 0);
        ev.observe(0.7, 1.0); // correct
        ev.observe(-0.2, 1.0); // wrong
        ev.observe(-3.0, -1.0); // correct
        ev.observe(0.0, -1.0); // prediction >= 0 vs label < 0: wrong
        assert_eq!(ev.error(), 0.5);
        assert_eq!(ev.count(), 4);
    }

    #[test]
    fn rmsle_matches_manual_computation() {
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        ev.observe(1.0, 2.0);
        ev.observe(3.0, 3.0);
        // sqrt((1 + 0) / 2)
        assert!((ev.error() - (0.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn curve_checkpoints_every_k() {
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Misclassification, 2);
        for _ in 0..6 {
            ev.observe(1.0, 1.0);
        }
        assert_eq!(ev.curve().len(), 3);
        assert_eq!(ev.curve()[0], (2, 0.0));
    }

    #[test]
    fn manual_checkpoint_and_average() {
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Misclassification, 0);
        ev.observe(1.0, -1.0);
        ev.checkpoint();
        ev.observe(1.0, 1.0);
        ev.checkpoint();
        assert_eq!(ev.curve(), &[(1, 1.0), (2, 0.5)]);
        assert!((average_of_curve(ev.curve()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluator_reports_zero() {
        let mut ev = PrequentialEvaluator::new(ErrorMetric::Rmsle, 0);
        assert_eq!(ev.error(), 0.0);
        ev.checkpoint(); // no-op before observations
        assert!(ev.curve().is_empty());
        assert_eq!(average_of_curve(&[]), 0.0);
    }
}
