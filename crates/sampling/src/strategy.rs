//! The data manager's sampling strategies (paper §4.2).

use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use cdp_storage::Timestamp;

/// Which chunks a proactive-training round draws from, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Every available chunk has equal probability.
    Uniform,
    /// Uniform over the `window` most recent chunks.
    WindowBased {
        /// Number of most-recent chunks forming the active window.
        window: usize,
    },
    /// Recency-weighted: the `i`-th oldest of `n` chunks has weight
    /// proportional to `i` (linear rank), so recent chunks are sampled more
    /// often — the strategy that adapts the model to drifting data.
    TimeBased,
}

impl SamplingStrategy {
    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingStrategy::Uniform => "Uniform",
            SamplingStrategy::WindowBased { .. } => "Window-based",
            SamplingStrategy::TimeBased => "Time-based",
        }
    }
}

/// A seeded sampler over chunk timestamps (sampling without replacement).
#[derive(Debug)]
pub struct Sampler {
    strategy: SamplingStrategy,
    rng: StdRng,
}

impl Sampler {
    /// Creates a sampler.
    pub fn new(strategy: SamplingStrategy, seed: u64) -> Self {
        Self {
            strategy,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The raw RNG state, so a deployment checkpoint can resume the sampler
    /// mid-stream and draw the exact same future sequence.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restores an RNG state captured by [`Sampler::rng_state`].
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = StdRng::from_state(state);
    }

    /// Draws up to `sample_size` distinct timestamps from `available`
    /// (which must be sorted oldest-first, as returned by the chunk store).
    /// When fewer chunks exist than requested, all of them are returned.
    pub fn sample(&mut self, available: &[Timestamp], sample_size: usize) -> Vec<Timestamp> {
        if available.is_empty() || sample_size == 0 {
            return Vec::new();
        }
        debug_assert!(
            available.windows(2).all(|w| w[0] < w[1]),
            "available timestamps must be sorted and distinct"
        );
        match self.strategy {
            SamplingStrategy::Uniform => self.uniform_from(available, sample_size),
            SamplingStrategy::WindowBased { window } => {
                let start = available.len().saturating_sub(window.max(1));
                self.uniform_from(&available[start..], sample_size)
            }
            SamplingStrategy::TimeBased => self.time_based(available, sample_size),
        }
    }

    fn uniform_from(&mut self, pool: &[Timestamp], sample_size: usize) -> Vec<Timestamp> {
        if sample_size >= pool.len() {
            return pool.to_vec();
        }
        index_sample(&mut self.rng, pool.len(), sample_size)
            .iter()
            .map(|i| pool[i])
            .collect()
    }

    /// Weighted sampling without replacement (Efraimidis–Spirakis): each
    /// chunk gets key `u^(1/w)` with `w` = 1-based recency rank; the
    /// `sample_size` largest keys win.
    fn time_based(&mut self, pool: &[Timestamp], sample_size: usize) -> Vec<Timestamp> {
        if sample_size >= pool.len() {
            return pool.to_vec();
        }
        let mut keyed: Vec<(f64, Timestamp)> = pool
            .iter()
            .enumerate()
            .map(|(i, &ts)| {
                let weight = (i + 1) as f64;
                let u: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
                (u.powf(1.0 / weight), ts)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let mut chosen: Vec<Timestamp> = keyed[..sample_size].iter().map(|(_, ts)| *ts).collect();
        chosen.sort_unstable();
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: u64) -> Vec<Timestamp> {
        (0..n).map(Timestamp).collect()
    }

    fn distinct_sorted(v: &[Timestamp]) -> bool {
        v.windows(2).all(|w| w[0] < w[1])
    }

    #[test]
    fn uniform_draws_requested_count_without_replacement() {
        let pool = ts(100);
        let mut s = Sampler::new(SamplingStrategy::Uniform, 1);
        let mut drawn = s.sample(&pool, 10);
        drawn.sort_unstable();
        assert_eq!(drawn.len(), 10);
        assert!(distinct_sorted(&drawn));
    }

    #[test]
    fn oversampling_returns_everything() {
        let pool = ts(5);
        for strategy in [
            SamplingStrategy::Uniform,
            SamplingStrategy::WindowBased { window: 3 },
            SamplingStrategy::TimeBased,
        ] {
            let mut s = Sampler::new(strategy, 2);
            let drawn = s.sample(&pool, 10);
            // Window-based restricts the pool to its window first.
            let expected = match strategy {
                SamplingStrategy::WindowBased { window } => window.min(5),
                _ => 5,
            };
            assert_eq!(drawn.len(), expected, "{strategy:?}");
        }
    }

    #[test]
    fn window_based_only_samples_the_window() {
        let pool = ts(100);
        let mut s = Sampler::new(SamplingStrategy::WindowBased { window: 10 }, 3);
        for _ in 0..50 {
            for t in s.sample(&pool, 5) {
                assert!(t.0 >= 90, "sampled {t} outside window");
            }
        }
    }

    #[test]
    fn time_based_prefers_recent_chunks() {
        let pool = ts(100);
        let mut s = Sampler::new(SamplingStrategy::TimeBased, 4);
        let mut newest_half = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            for t in s.sample(&pool, 10) {
                total += 1;
                if t.0 >= 50 {
                    newest_half += 1;
                }
            }
        }
        let share = newest_half as f64 / total as f64;
        // Linear-rank weights put 75% of the mass on the newest half.
        assert!((share - 0.75).abs() < 0.05, "share = {share}");
    }

    #[test]
    fn time_based_is_without_replacement() {
        let pool = ts(20);
        let mut s = Sampler::new(SamplingStrategy::TimeBased, 5);
        for _ in 0..20 {
            let drawn = s.sample(&pool, 8);
            assert_eq!(drawn.len(), 8);
            assert!(distinct_sorted(&drawn));
        }
    }

    #[test]
    fn empty_pool_or_zero_sample() {
        let mut s = Sampler::new(SamplingStrategy::Uniform, 6);
        assert!(s.sample(&[], 5).is_empty());
        assert!(s.sample(&ts(5), 0).is_empty());
    }

    #[test]
    fn seeded_samplers_are_reproducible() {
        let pool = ts(50);
        let mut a = Sampler::new(SamplingStrategy::TimeBased, 7);
        let mut b = Sampler::new(SamplingStrategy::TimeBased, 7);
        assert_eq!(a.sample(&pool, 10), b.sample(&pool, 10));
    }

    #[test]
    fn rng_state_round_trip_resumes_the_sequence() {
        let pool = ts(50);
        let mut a = Sampler::new(SamplingStrategy::TimeBased, 11);
        a.sample(&pool, 10); // advance past the seed state
        let state = a.rng_state();
        let mut b = Sampler::new(SamplingStrategy::TimeBased, 999);
        b.set_rng_state(state);
        for round in 0..5 {
            assert_eq!(a.sample(&pool, 10), b.sample(&pool, 10), "round {round}");
        }
    }

    #[test]
    fn uniform_coverage_is_roughly_even() {
        let pool = ts(10);
        let mut s = Sampler::new(SamplingStrategy::Uniform, 8);
        let mut counts = [0usize; 10];
        for _ in 0..1000 {
            for t in s.sample(&pool, 3) {
                counts[t.0 as usize] += 1;
            }
        }
        // Each chunk expected 300 times; allow generous slack.
        for (i, &c) in counts.iter().enumerate() {
            assert!((150..450).contains(&c), "chunk {i} drawn {c} times");
        }
    }
}
