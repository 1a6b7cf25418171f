//! Cross-crate property-based tests of the platform's core invariants.

use cdpipe::datagen::{
    taxi::TaxiConfig, taxi::TaxiGenerator, url::UrlConfig, url::UrlGenerator, ChunkStream,
};
use cdpipe::sampling::{empirical_mu, mu_time_based, mu_uniform, mu_window, SamplingStrategy};
use cdpipe::storage::{
    ChunkStore, ColumnSlab, FeatureChunk, RawChunk, Record, StorageBudget, Timestamp, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

fn raw(ts: u64) -> RawChunk {
    RawChunk::new(
        Timestamp(ts),
        vec![Record::new(vec![Value::Num(ts as f64)])],
    )
}

fn feat(ts: u64) -> FeatureChunk {
    let slab = ColumnSlab::dense(vec![1.0], vec![vec![ts as f64]]);
    FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), Arc::new(slab))
}

proptest! {
    /// The materialized set is always exactly the newest min(m, n) chunks.
    #[test]
    fn store_materializes_newest_m(n in 1usize..80, m in 0usize..80) {
        let mut store = ChunkStore::new(StorageBudget::MaxChunks(m));
        for t in 0..n as u64 {
            store.put_raw(raw(t)).unwrap();
            store.put_feature(feat(t)).unwrap();
        }
        let expect = m.min(n);
        prop_assert_eq!(store.materialized_count(), expect);
        let ts = store.materialized_timestamps();
        for (i, t) in ts.iter().enumerate() {
            prop_assert_eq!(t.0 as usize, n - expect + i);
        }
    }

    /// Eq. 4 equals the direct average of per-step hypergeometric means.
    #[test]
    fn eq4_equals_direct_average(total in 2usize..400, frac in 0.01f64..1.0) {
        let m = ((total as f64 * frac) as usize).clamp(1, total);
        let direct: f64 = (1..=total)
            .map(|n| if n <= m { 1.0 } else { m as f64 / n as f64 })
            .sum::<f64>() / total as f64;
        let closed = mu_uniform(m, total);
        prop_assert!((direct - closed).abs() < 1e-9, "direct {direct} vs closed {closed}");
    }

    /// Eq. 5 equals the direct average in its three-regime form.
    #[test]
    fn eq5_equals_direct_average(total in 4usize..300, mf in 0.01f64..0.9, wf in 0.05f64..1.0) {
        let m = ((total as f64 * mf) as usize).clamp(1, total);
        let w = ((total as f64 * wf) as usize).clamp(1, total);
        let direct: f64 = (1..=total)
            .map(|n| {
                if n <= m { 1.0 }
                else if n <= w { m as f64 / n as f64 }
                else { (m as f64 / w as f64).min(1.0) }
            })
            .sum::<f64>() / total as f64;
        let closed = mu_window(m, w, total);
        prop_assert!((direct - closed).abs() < 1e-9, "direct {direct} vs closed {closed} (m={m}, w={w}, N={total})");
    }

    /// μ orderings hold for every capacity: window(w) ≥ its uniform floor,
    /// and time-based ≥ uniform.
    #[test]
    fn mu_orderings(total in 10usize..300, mf in 0.05f64..0.95) {
        let m = ((total as f64 * mf) as usize).clamp(1, total);
        let uniform = mu_uniform(m, total);
        let time = mu_time_based(m, total);
        prop_assert!(time >= uniform - 1e-12);
        let w = (total / 2).max(1);
        let window = mu_window(m, w, total);
        prop_assert!(window >= uniform - 1e-12);
    }

    /// Harmonic numbers satisfy H_{2n} − H_n → ln 2, read off Eq. 4 at
    /// m = N/2: μ = (1 + H_{2n} − H_n) / 2.
    #[test]
    fn harmonic_difference_approaches_ln2(n in 500u64..5_000) {
        let n = n as usize;
        let diff = 2.0 * mu_uniform(n, 2 * n) - 1.0;
        prop_assert!((diff - 2f64.ln()).abs() < 1e-3);
    }

    /// Generator determinism: any chunk is a pure function of (seed, index).
    #[test]
    fn url_chunks_deterministic(index in 0usize..18, seed in 0u64..1000) {
        let config = UrlConfig {
            seed,
            days: 6,
            chunks_per_day: 3,
            rows_per_chunk: 8,
            base_vocab: 100,
            vocab_growth_per_day: 5,
            tokens_per_row: 4,
            lexical_features: 4,
            ..UrlConfig::repo_scale()
        };
        let a = UrlGenerator::new(config.clone());
        let b = UrlGenerator::new(config);
        prop_assert_eq!(a.chunk(index), b.chunk(index));
    }

    /// Taxi trips always have dropoff ≥ pickup − ε for normal rows, and all
    /// record fields are numeric.
    #[test]
    fn taxi_records_well_formed(index in 0usize..20) {
        let g = TaxiGenerator::new(TaxiConfig {
            hours: 20,
            initial_hours: 2,
            rows_per_chunk: 16,
            ..TaxiConfig::repo_scale()
        });
        let chunk = g.chunk(index);
        for r in chunk.rows().iter() {
            prop_assert_eq!(r.len(), 7);
            for v in r.iter() {
                prop_assert!(v.as_num().is_some());
            }
        }
    }

    /// Empirical μ via simulation is within tolerance of the closed forms
    /// for all three strategies (moderate N keeps the test fast).
    #[test]
    fn empirical_matches_theory(mf in 0.1f64..0.9, seed in 0u64..50) {
        let total = 400;
        let m = ((total as f64 * mf) as usize).max(1);
        let est = empirical_mu(SamplingStrategy::Uniform, m, total, 10, seed);
        prop_assert!((est.mu - mu_uniform(m, total)).abs() < 0.06);
        let est = empirical_mu(SamplingStrategy::TimeBased, m, total, 10, seed);
        prop_assert!((est.mu - mu_time_based(m, total)).abs() < 0.06);
    }
}

#[test]
fn streams_report_consistent_ranges() {
    let url = UrlGenerator::new(UrlConfig {
        days: 5,
        chunks_per_day: 2,
        rows_per_chunk: 4,
        ..UrlConfig::repo_scale()
    });
    assert_eq!(url.total_chunks(), 10);
    assert_eq!(url.deployment_range(), 2..10);
    assert_eq!(url.initial().len(), 2);
}
