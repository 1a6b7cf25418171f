//! Property-based tests of the one vector kernel: a sparse vector and its
//! densified form score the same against any weights.

use std::collections::BTreeMap;

use cdp_linalg::Vector;
use proptest::prelude::*;

/// Strategy: a dense f64 vector with small magnitudes (avoids overflow noise).
fn dense_vec(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, dim)
}

/// Strategy: a sparse vector's entries, indices in `0..dim`, sorted and unique.
fn sparse_entries(dim: u32) -> impl Strategy<Value = BTreeMap<u32, f64>> {
    prop::collection::vec((0..dim, -100.0..100.0f64), 0..16)
        .prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #[test]
    fn dot_padded_is_layout_agnostic(
        entries in sparse_entries(48),
        w in dense_vec(48),
        width in 0usize..=48,
    ) {
        let mut dense = vec![0.0; 48];
        for (&i, &v) in &entries {
            dense[i as usize] = v;
        }
        let sparse = Vector::Sparse {
            dim: 48,
            indices: entries.keys().copied().collect(),
            values: entries.values().copied().collect(),
        };
        // Weights narrower than the vectors leave the tail out of both.
        let weights = &w[..width];
        let ds = sparse.dot_padded(weights);
        let dd = Vector::Dense(dense).dot_padded(weights);
        prop_assert!((ds - dd).abs() < 1e-9 * (1.0 + ds.abs()));
    }
}
