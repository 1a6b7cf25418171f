//! Micro-benchmarks of the SGD training kernel: one mini-batch step across
//! batch sizes, dimensionalities, layouts (dense vs sparse), and learning-
//! rate adaptation techniques — the per-iteration cost that proactive
//! training pays (paper §3.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cdp_engine::ExecutionEngine;
use cdp_linalg::{SparseBuilder, Vector};
use cdp_ml::{ConvergenceCriteria, LossKind, OptimizerKind, Regularizer, SgdConfig, SgdTrainer};
use cdp_storage::{LabeledPoint, RowView};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn config(loss: LossKind, optimizer: OptimizerKind) -> SgdConfig {
    SgdConfig {
        loss,
        optimizer,
        regularizer: Regularizer::L2(1e-3),
        batch_size: 128,
        convergence: ConvergenceCriteria::default(),
        shuffle_seed: 1,
    }
}

fn dense_points(n: usize, dim: usize, seed: u64) -> Vec<LabeledPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            let y = if x[0] > 0.0 { 1.0 } else { -1.0 };
            LabeledPoint::new(y, Vector::from(x))
        })
        .collect()
}

fn sparse_points(n: usize, dim: usize, nnz: usize, seed: u64) -> Vec<LabeledPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut b = SparseBuilder::with_capacity(nnz);
            for _ in 0..nnz {
                b.add(rng.random_range(0..dim), rng.random_range(-1.0..1.0));
            }
            let v = b.build(dim).expect("indices in range");
            let y = if rng.random::<bool>() { 1.0 } else { -1.0 };
            LabeledPoint::new(y, Vector::Sparse(v))
        })
        .collect()
}

fn bench_batch_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgd_step/dense_batch_size");
    let dim = 64;
    for &batch in &[16usize, 64, 256] {
        let points = dense_points(batch, dim, 7);
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &points, |b, points| {
            let mut trainer =
                SgdTrainer::new(dim, &config(LossKind::Hinge, OptimizerKind::adam(0.01)));
            let rows: Vec<RowView<'_>> = points.iter().map(RowView::Point).collect();
            b.iter(|| black_box(trainer.step_rows(&rows, ExecutionEngine::Sequential)));
        });
    }
    group.finish();
}

fn bench_sparse_dims(c: &mut Criterion) {
    // The URL regime: huge nominal dimension, tiny nnz. Step cost is
    // dominated by the optimizer's per-coordinate pass over `dim`.
    let mut group = c.benchmark_group("sgd_step/sparse_dim");
    for &dim in &[1usize << 12, 1 << 16, 1 << 18] {
        let points = sparse_points(64, dim, 20, 11);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &points, |b, points| {
            let mut trainer =
                SgdTrainer::new(dim, &config(LossKind::Hinge, OptimizerKind::adam(0.01)));
            let rows: Vec<RowView<'_>> = points.iter().map(RowView::Point).collect();
            b.iter(|| black_box(trainer.step_rows(&rows, ExecutionEngine::Sequential)));
        });
    }
    group.finish();
}

fn bench_optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgd_step/optimizer");
    let dim = 4096;
    let points = dense_points(128, dim, 13);
    let optimizers = [
        ("constant", OptimizerKind::Constant { eta: 0.01 }),
        (
            "momentum",
            OptimizerKind::Momentum {
                eta: 0.01,
                gamma: 0.9,
            },
        ),
        ("adam", OptimizerKind::adam(0.01)),
        ("rmsprop", OptimizerKind::rmsprop(0.01)),
        ("adadelta", OptimizerKind::adadelta()),
    ];
    for (name, optimizer) in optimizers {
        group.bench_with_input(BenchmarkId::from_parameter(name), &points, |b, points| {
            let mut trainer = SgdTrainer::new(dim, &config(LossKind::Logistic, optimizer));
            let rows: Vec<RowView<'_>> = points.iter().map(RowView::Point).collect();
            b.iter(|| black_box(trainer.step_rows(&rows, ExecutionEngine::Sequential)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_sizes,
    bench_sparse_dims,
    bench_optimizers
);
criterion_main!(benches);
