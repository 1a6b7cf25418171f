//! Materialization-utilization-rate (μ) analysis (paper §3.2.2).
//!
//! Setup: `N` chunks arrive one at a time; after the `n`-th arrival the
//! newest `min(m, n)` chunks are materialized (oldest-first eviction) and a
//! sample of `s` chunks is drawn. `MS`, the number of materialized chunks in
//! the sample, is hypergeometric, so the per-step utilization is
//! `μ_n = E[MS]/s` and the reported μ is the average of `μ_n` over
//! `n = 1..N` (Eq. 3).

use serde::{Deserialize, Serialize};

use crate::strategy::{Sampler, SamplingStrategy};
use cdp_storage::Timestamp;

/// The `t`-th harmonic number `H_t = 1 + 1/2 + … + 1/t`, summed term by term
/// (Eqs. 4 and 5).
fn harmonic(t: u64) -> f64 {
    (1..=t).map(|k| 1.0 / k as f64).sum()
}

/// Theoretical μ for **uniform** sampling (paper Eq. 4):
/// `μ = m(1 + H_N − H_m) / N`.
///
/// # Panics
/// Panics when `m > N` or `m == 0` with `N > 0` handled as a degenerate 0.
pub fn mu_uniform(capacity_m: usize, total_n: usize) -> f64 {
    assert!(capacity_m <= total_n, "m must not exceed N");
    if total_n == 0 {
        return 0.0;
    }
    if capacity_m == 0 {
        return 0.0;
    }
    let m = capacity_m as f64;
    let n = total_n as f64;
    m * (1.0 + harmonic(total_n as u64) - harmonic(capacity_m as u64)) / n
}

/// Theoretical μ for **window-based** sampling with window `w`
/// (paper Eq. 5): `μ = [m + m(H_w − H_m) + (N − w)·m/w] / N` when `m < w`,
/// and `1.0` when `m ≥ w` (every window chunk is always materialized).
///
/// # Panics
/// Panics when `m > N` or `w == 0` or `w > N`.
pub fn mu_window(capacity_m: usize, window_w: usize, total_n: usize) -> f64 {
    assert!(capacity_m <= total_n, "m must not exceed N");
    assert!(
        window_w > 0 && window_w <= total_n,
        "window must be in 1..=N"
    );
    if capacity_m == 0 {
        return 0.0;
    }
    if capacity_m >= window_w {
        return 1.0;
    }
    let m = capacity_m as f64;
    let w = window_w as f64;
    let n = total_n as f64;
    (m + m * (harmonic(window_w as u64) - harmonic(capacity_m as u64)) + (n - w) * m / w) / n
}

/// Closed-form μ for the **time-based** (linear-rank-weighted) strategy —
/// an extension beyond the paper, which only measures this strategy
/// empirically ("there is no direct approach", §3.2.2).
///
/// With weight ∝ recency rank `i` and the newest `m` of `n` chunks
/// materialized, a single weighted draw is materialized with probability
/// `Σ_{i=n−m+1..n} i / Σ_{i=1..n} i = m(2n − m + 1) / (n(n + 1))`, hence
///
/// `μ = [ m + Σ_{n=m+1..N} m(2n − m + 1)/(n(n+1)) ] / N`.
///
/// For samples of size `s > 1` drawn without replacement the per-draw
/// inclusion probabilities deviate slightly, so this is exact for `s = 1`
/// and an excellent approximation otherwise (validated against simulation
/// in the tests and Experiment 3).
pub fn mu_time_based(capacity_m: usize, total_n: usize) -> f64 {
    assert!(capacity_m <= total_n, "m must not exceed N");
    if total_n == 0 || capacity_m == 0 {
        return 0.0;
    }
    let m = capacity_m as f64;
    let tail: f64 = (capacity_m + 1..=total_n)
        .map(|n| {
            let nf = n as f64;
            m * (2.0 * nf - m + 1.0) / (nf * (nf + 1.0))
        })
        .sum();
    (m + tail) / total_n as f64
}

/// Result of an empirical μ simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MuEstimate {
    /// Mean fraction of sampled chunks that were materialized.
    pub mu: f64,
    /// Total chunks sampled across the simulation.
    pub samples_drawn: u64,
    /// Of which materialized.
    pub materialized_hits: u64,
}

/// Empirically estimates μ by simulating the arrival process: after each of
/// the `N` chunk arrivals one sampling operation of size `s` is performed
/// (the paper's simplifying assumption in §3.2.2) against a store whose
/// newest `min(m, n)` chunks are materialized.
///
/// This is a metadata-only simulation — no feature data moves — so it runs
/// at millions of chunks per second and is scale-free: μ depends only on
/// the ratios `m/N` (and `w/N`).
pub fn empirical_mu(
    strategy: SamplingStrategy,
    capacity_m: usize,
    total_n: usize,
    sample_size: usize,
    seed: u64,
) -> MuEstimate {
    let mut sampler = Sampler::new(strategy, seed);
    let mut drawn = 0u64;
    let mut hits = 0u64;
    let mut mu_sum = 0.0;
    let all: Vec<Timestamp> = (0..total_n as u64).map(Timestamp).collect();
    for n in 1..=total_n {
        let available = &all[..n];
        // Materialized = the newest min(m, n) chunks (oldest-first eviction).
        let cutoff = n.saturating_sub(capacity_m);
        let sample = sampler.sample(available, sample_size);
        if sample.is_empty() {
            continue;
        }
        let step_hits = sample.iter().filter(|ts| (ts.0 as usize) >= cutoff).count();
        drawn += sample.len() as u64;
        hits += step_hits as u64;
        mu_sum += step_hits as f64 / sample.len() as f64;
    }
    MuEstimate {
        mu: mu_sum / total_n as f64,
        samples_drawn: drawn,
        materialized_hits: hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const N: usize = 2_000;
    const S: usize = 20;

    #[test]
    fn harmonic_small_values_exact() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    proptest! {
        #[test]
        fn harmonic_is_monotone(t in 1u64..5_000) {
            prop_assert!(harmonic(t + 1) > harmonic(t));
        }

        /// Harmonic numbers satisfy H_{2n} − H_n → ln 2.
        #[test]
        fn harmonic_difference_approaches_ln2(n in 500u64..5_000) {
            let diff = harmonic(2 * n) - harmonic(n);
            prop_assert!((diff - 2f64.ln()).abs() < 1e-3);
        }
    }

    #[test]
    fn uniform_matches_paper_example() {
        // Paper §3.2.2: N = 12000, m = 7200 (rate 0.6) ⇒ μ ≈ 0.91.
        let mu = mu_uniform(7_200, 12_000);
        assert!((mu - 0.91).abs() < 0.005, "μ = {mu}");
        // And rate 0.2 ⇒ μ ≈ 0.52 (paper Table 4).
        let mu = mu_uniform(2_400, 12_000);
        assert!((mu - 0.52).abs() < 0.005, "μ = {mu}");
    }

    #[test]
    fn window_matches_paper_table4() {
        // Table 4: w = 6000 of N = 12000; rate 0.2 ⇒ 0.58, rate 0.6 ⇒ 1.0.
        let mu = mu_window(2_400, 6_000, 12_000);
        assert!((mu - 0.58).abs() < 0.005, "μ = {mu}");
        assert_eq!(mu_window(7_200, 6_000, 12_000), 1.0);
    }

    #[test]
    fn time_based_matches_paper_empirical_values() {
        // Paper Table 4 (empirical): rate 0.2 ⇒ 0.65–0.68, rate 0.6 ⇒ 0.97.
        let mu02 = mu_time_based(2_400, 12_000);
        assert!((0.64..=0.70).contains(&mu02), "μ = {mu02}");
        let mu06 = mu_time_based(7_200, 12_000);
        assert!((0.96..=0.98).contains(&mu06), "μ = {mu06}");
    }

    #[test]
    fn degenerate_rates() {
        assert_eq!(mu_uniform(0, N), 0.0);
        assert_eq!(mu_uniform(N, N), 1.0);
        assert_eq!(mu_time_based(0, N), 0.0);
        assert!((mu_time_based(N, N) - 1.0).abs() < 1e-12);
        assert_eq!(mu_window(0, N / 2, N), 0.0);
    }

    #[test]
    fn empirical_uniform_matches_theory() {
        let est = empirical_mu(SamplingStrategy::Uniform, N / 5, N, S, 11);
        let theory = mu_uniform(N / 5, N);
        assert!((est.mu - theory).abs() < 0.02, "{} vs {theory}", est.mu);
    }

    #[test]
    fn empirical_window_matches_theory() {
        let w = N / 2;
        let est = empirical_mu(SamplingStrategy::WindowBased { window: w }, N / 5, N, S, 12);
        let theory = mu_window(N / 5, w, N);
        assert!((est.mu - theory).abs() < 0.02, "{} vs {theory}", est.mu);
    }

    #[test]
    fn empirical_time_based_matches_closed_form() {
        let est = empirical_mu(SamplingStrategy::TimeBased, N / 5, N, S, 13);
        let theory = mu_time_based(N / 5, N);
        assert!((est.mu - theory).abs() < 0.03, "{} vs {theory}", est.mu);
    }

    #[test]
    fn time_based_beats_uniform_everywhere() {
        for rate in [0.1, 0.2, 0.4, 0.6, 0.8] {
            let m = (N as f64 * rate) as usize;
            assert!(
                mu_time_based(m, N) > mu_uniform(m, N),
                "rate {rate}: time-based must beat uniform"
            );
        }
    }

    #[test]
    fn mu_is_monotone_in_capacity() {
        let mut prev = 0.0;
        for m in (0..=N).step_by(N / 10) {
            let mu = mu_uniform(m, N);
            assert!(mu >= prev - 1e-12);
            prev = mu;
        }
    }

    #[test]
    #[should_panic(expected = "m must not exceed N")]
    fn capacity_above_total_panics() {
        mu_uniform(N + 1, N);
    }
}
