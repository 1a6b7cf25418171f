//! Windowed concept-drift detection.
//!
//! The paper lists native drift detection as future work (§7) and supports
//! it "through components of the machine learning pipeline"; this module
//! provides that component: a windowed error-rate monitor in the spirit of
//! DDM. The continuous platform's dynamic scheduler can subscribe to it to
//! trigger extra proactive-training rounds when the error drifts.

use std::collections::VecDeque;

/// Decision reported after each error observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftStatus {
    /// Not enough data yet.
    Warmup,
    /// Recent error is consistent with the baseline.
    Stable,
    /// Recent error exceeds the warning threshold.
    Warning,
    /// Recent error exceeds the drift threshold — the model should be
    /// refreshed aggressively.
    Drift,
}

/// Windowed-mean drift detector.
///
/// Maintains a long *baseline* window and a short *recent* window of
/// per-example errors (0/1 misclassification or absolute regression error).
/// Signals [`DriftStatus::Warning`] when the recent mean exceeds
/// `baseline_mean + warn_factor·baseline_std`, and [`DriftStatus::Drift`] at
/// `drift_factor` standard deviations.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    baseline: VecDeque<f64>,
    recent: VecDeque<f64>,
    baseline_len: usize,
    recent_len: usize,
    warn_factor: f64,
    drift_factor: f64,
}

impl DriftDetector {
    /// Creates a detector with window sizes and sensitivity factors.
    ///
    /// # Panics
    /// Panics when a window length is zero, a factor is not finite (a NaN
    /// factor would make every threshold comparison false and silently
    /// disable detection), or the factors are not strictly increasing
    /// (`warn_factor < drift_factor`).
    pub fn new(
        baseline_len: usize,
        recent_len: usize,
        warn_factor: f64,
        drift_factor: f64,
    ) -> Self {
        assert!(
            baseline_len > 0 && recent_len > 0,
            "windows must be non-empty"
        );
        assert!(
            warn_factor.is_finite() && drift_factor.is_finite(),
            "sensitivity factors must be finite"
        );
        assert!(
            warn_factor < drift_factor,
            "factors must be strictly increasing (warn < drift)"
        );
        Self {
            baseline: VecDeque::with_capacity(baseline_len),
            recent: VecDeque::with_capacity(recent_len),
            baseline_len,
            recent_len,
            warn_factor,
            drift_factor,
        }
    }

    fn mean_std(window: &VecDeque<f64>) -> (f64, f64) {
        let n = window.len() as f64;
        let mean = window.iter().sum::<f64>() / n;
        let var = window.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// Feeds one error observation and reports the current status.
    pub fn observe(&mut self, error: f64) -> DriftStatus {
        if self.recent.len() == self.recent_len {
            // The oldest recent observation graduates into the baseline.
            if let Some(oldest) = self.recent.pop_front() {
                if self.baseline.len() == self.baseline_len {
                    self.baseline.pop_front();
                }
                self.baseline.push_back(oldest);
            }
        }
        self.recent.push_back(error);

        if self.baseline.len() < self.baseline_len / 2 || self.recent.len() < self.recent_len {
            return DriftStatus::Warmup;
        }
        let (base_mean, base_std) = Self::mean_std(&self.baseline);
        let (recent_mean, _) = Self::mean_std(&self.recent);
        // Standard error of the recent-window mean under the baseline.
        let sem = (base_std / (self.recent_len as f64).sqrt()).max(1e-9);
        let z = (recent_mean - base_mean) / sem;
        if z > self.drift_factor {
            DriftStatus::Drift
        } else if z > self.warn_factor {
            DriftStatus::Warning
        } else {
            DriftStatus::Stable
        }
    }

    /// The `(baseline, recent)` window contents, oldest first — for
    /// deployment checkpoints.
    pub fn window_contents(&self) -> (Vec<f64>, Vec<f64>) {
        (
            self.baseline.iter().copied().collect(),
            self.recent.iter().copied().collect(),
        )
    }

    /// Restores window contents captured by
    /// [`DriftDetector::window_contents`] on a detector with the same
    /// configuration. Entries beyond the configured window lengths are
    /// truncated defensively (keeping the newest).
    pub fn restore_windows(&mut self, baseline: Vec<f64>, recent: Vec<f64>) {
        self.baseline = baseline
            .into_iter()
            .rev()
            .take(self.baseline_len)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        self.recent = recent
            .into_iter()
            .rev()
            .take(self.recent_len)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_until_windows_fill() {
        let mut d = DriftDetector::new(20, 5, 2.0, 3.0);
        for i in 0..5 {
            let status = d.observe(0.1);
            assert_eq!(status, DriftStatus::Warmup, "observation {i}");
        }
    }

    #[test]
    fn stable_on_stationary_errors() {
        let mut d = DriftDetector::new(40, 10, 2.0, 3.0);
        let mut last = DriftStatus::Warmup;
        for i in 0..200 {
            // Alternating 0/1 errors, stationary 0.5 mean.
            last = d.observe(f64::from(i % 2 == 0));
        }
        assert_eq!(last, DriftStatus::Stable);
    }

    #[test]
    fn detects_error_jump() {
        let mut d = DriftDetector::new(40, 10, 2.0, 3.0);
        for i in 0..100 {
            d.observe(f64::from(i % 10 == 0)); // ~10% error
        }
        let mut saw_drift = false;
        for _ in 0..20 {
            if d.observe(1.0) == DriftStatus::Drift {
                saw_drift = true;
                break;
            }
        }
        assert!(saw_drift, "constant total error must trigger drift");
    }

    #[test]
    fn windows_round_trip_through_contents() {
        let mut d = DriftDetector::new(40, 10, 2.0, 3.0);
        for i in 0..100 {
            d.observe(f64::from(i % 4 == 0));
        }
        let (baseline, recent) = d.window_contents();
        let mut restored = DriftDetector::new(40, 10, 2.0, 3.0);
        restored.restore_windows(baseline, recent);
        // Same future decisions, observation for observation.
        for i in 0..30 {
            let err = f64::from(i % 2 == 0);
            assert_eq!(restored.observe(err), d.observe(err), "observation {i}");
        }
    }

    #[test]
    #[should_panic(expected = "windows must be non-empty")]
    fn zero_window_panics() {
        DriftDetector::new(0, 5, 2.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "factors must be finite")]
    fn nan_factor_panics_instead_of_disabling_detection() {
        DriftDetector::new(20, 5, f64::NAN, 3.0);
    }

    #[test]
    #[should_panic(expected = "factors must be finite")]
    fn infinite_factor_panics() {
        DriftDetector::new(20, 5, 2.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn equal_factors_panic_as_documented() {
        DriftDetector::new(20, 5, 3.0, 3.0);
    }
}
