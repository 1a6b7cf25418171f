//! Property-based tests for the vector kernels: sparse and dense layouts must
//! agree on every operation, and the harmonic-number approximation must stay
//! within its theoretical error bound.

use cdp_linalg::ops::harmonic;
use cdp_linalg::{DenseVector, SparseBuilder, Vector};
use proptest::prelude::*;

/// Strategy: a dense f64 vector with small magnitudes (avoids overflow noise).
fn dense_vec(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, dim)
}

/// Strategy: sparse entries as (index, value) pairs within `dim`.
fn sparse_entries(dim: usize) -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop::collection::vec((0..dim, -100.0..100.0f64), 0..dim.min(16))
}

proptest! {
    #[test]
    fn sparse_dot_matches_densified(entries in sparse_entries(64), w in dense_vec(64)) {
        let mut b = SparseBuilder::new();
        for (i, v) in &entries {
            b.add(*i, *v);
        }
        let sv = b.build(64).unwrap();
        let weights = DenseVector::new(w);
        let sparse_dot = sv.dot_dense(&weights).unwrap();
        let dense_dot = sv.to_dense().dot(&weights).unwrap();
        prop_assert!((sparse_dot - dense_dot).abs() < 1e-9 * (1.0 + sparse_dot.abs()));
    }

    #[test]
    fn sparse_axpy_matches_densified(entries in sparse_entries(32), alpha in -5.0..5.0f64) {
        let mut b = SparseBuilder::new();
        for (i, v) in &entries {
            b.add(*i, *v);
        }
        let sv = b.build(32).unwrap();

        let mut w1 = DenseVector::new(vec![1.0; 32]);
        sv.axpy_into(alpha, &mut w1).unwrap();

        let mut w2 = DenseVector::new(vec![1.0; 32]);
        w2.axpy(alpha, &sv.to_dense()).unwrap();

        for i in 0..32 {
            prop_assert!((w1[i] - w2[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn builder_sums_duplicates(index in 0usize..16, vals in prop::collection::vec(-10.0..10.0f64, 1..8)) {
        let mut b = SparseBuilder::new();
        for v in &vals {
            b.add(index, *v);
        }
        let sv = b.build(16).unwrap();
        prop_assert_eq!(sv.nnz(), 1);
        let total: f64 = vals.iter().sum();
        prop_assert!((sv.get(index) - total).abs() < 1e-9);
    }

    #[test]
    fn vector_enum_dot_layout_agnostic(entries in sparse_entries(48), w in dense_vec(48)) {
        let mut b = SparseBuilder::new();
        for (i, v) in &entries {
            b.add(*i, *v);
        }
        let sv = b.build(48).unwrap();
        let weights = DenseVector::new(w);
        let as_sparse = Vector::Sparse(sv.clone());
        let as_dense = Vector::Dense(sv.to_dense());
        let ds = as_sparse.dot(&weights).unwrap();
        let dd = as_dense.dot(&weights).unwrap();
        prop_assert!((ds - dd).abs() < 1e-9 * (1.0 + ds.abs()));
    }

    #[test]
    fn dense_norm_triangle_inequality(a in dense_vec(16), b in dense_vec(16)) {
        let va = DenseVector::new(a.clone());
        let vb = DenseVector::new(b.clone());
        let mut sum = va.clone();
        sum.axpy(1.0, &vb).unwrap();
        prop_assert!(sum.norm_l2() <= va.norm_l2() + vb.norm_l2() + 1e-9);
    }

    #[test]
    fn harmonic_is_monotone(t in 1u64..5_000) {
        prop_assert!(harmonic(t + 1) > harmonic(t));
    }
}
