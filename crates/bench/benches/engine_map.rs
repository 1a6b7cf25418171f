//! Spawn-per-call threading vs the persistent worker pool on the engine's
//! `map_indexed` contract, across batch sizes. The pool amortizes thread creation:
//! the gap is widest for small batches dispatched often — exactly the shape
//! of the proactive-training hot path (a few chunks per instance, fired
//! every few arrivals).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cdp_engine::ExecutionEngine;

const CHUNK_COUNTS: [usize; 3] = [16, 256, 4096];
const POINTS_PER_CHUNK: usize = 64;
const WORKERS: usize = 4;

fn chunk_work(chunk: &[f64]) -> f64 {
    chunk.iter().fold(0.0, |acc, &x| acc + (x * x + 1.0).sqrt())
}

fn make_items(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..POINTS_PER_CHUNK)
                .map(|j| (i * POINTS_PER_CHUNK + j) as f64 * 1e-3)
                .collect()
        })
        .collect()
}

/// Reference implementation the persistent pool replaces: spawn fresh OS
/// threads on every call, one per contiguous shard.
fn spawn_per_call_map(items: &[Vec<f64>], workers: usize) -> Vec<f64> {
    let mut out = vec![0.0; items.len()];
    let shard = items.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        for (input, output) in items.chunks(shard).zip(out.chunks_mut(shard)) {
            scope.spawn(move || {
                for (slot, chunk) in output.iter_mut().zip(input) {
                    *slot = chunk_work(chunk);
                }
            });
        }
    });
    out
}

fn bench_engine_map(c: &mut Criterion) {
    let pool = ExecutionEngine::Threaded { workers: WORKERS };
    let mut group = c.benchmark_group("engine_map");
    for &n in &CHUNK_COUNTS {
        let items = make_items(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sequential", n), &items, |b, items| {
            b.iter(|| {
                ExecutionEngine::Sequential.map_indexed(items.len(), |i| chunk_work(&items[i]))
            });
        });
        group.bench_with_input(BenchmarkId::new("spawn_per_call", n), &items, |b, items| {
            b.iter(|| spawn_per_call_map(items, WORKERS));
        });
        group.bench_with_input(
            BenchmarkId::new("persistent_pool", n),
            &items,
            |b, items| {
                b.iter(|| pool.map_indexed(items.len(), |i| chunk_work(&items[i])));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_map);
criterion_main!(benches);
