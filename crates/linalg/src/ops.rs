//! Free-standing numeric kernels shared by the trainer and the evaluators.

/// Numerically-stable sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The `t`-th harmonic number `H_t = 1 + 1/2 + … + 1/t` computed exactly.
///
/// Used by the materialization-utilization analysis (paper Eqs. 4 and 5).
pub fn harmonic(t: u64) -> f64 {
    (1..=t).map(|k| 1.0 / k as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_symmetric_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn harmonic_small_values_exact() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }
}
