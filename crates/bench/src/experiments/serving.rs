//! Serving under publish fire: sustained prediction throughput and tail
//! latency of the sharded lock-free `ModelServer`, quiet vs under a
//! publish storm (a proactive-training stand-in publishing a fresh
//! `(pipeline, model)` pair every millisecond).
//!
//! The paper's operational claim (§5.5) is that continuous deployment
//! never makes queries wait on training. The epoch-snapshot design makes
//! that claim mechanical — readers never block on a publish — and this
//! experiment quantifies it: reader QPS during the storm over reader QPS
//! quiet, plus p99 latency for both phases and for the micro-batched path.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdp_core::presets::SpecScale;
use cdp_core::report::{fmt_f, Table};
use cdp_core::serving::ModelServer;
use cdp_ml::{LinearModel, LossKind};
use cdp_obs::Metrics;
use cdp_pipeline::encode::DenseEncoder;
use cdp_pipeline::parser::SchemaParser;
use cdp_pipeline::scale::StandardScaler;
use cdp_pipeline::{Pipeline, PipelineBuilder};
use cdp_storage::{RawChunk, Record, Schema, Timestamp, Value};

/// Reader threads hammering `predict` in both phases.
const READERS: usize = 2;
/// The storm publishes a fresh pair this often (the issue's 1 ms storm).
const PUBLISH_EVERY: Duration = Duration::from_millis(1);
/// Repetitions per phase; the reported QPS is the median.
const REPS: usize = 3;

/// Number of cores the host exposes (the reader threads share them).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Geometric latency bucket bounds from 100 ns to ~130 ms: fine enough
/// (~35% per step) that the interpolated p99 tracks the exact-sort value
/// while the readers only touch two relaxed atomics per observation.
fn latency_bounds() -> Vec<f64> {
    (0..48).map(|i| 1e-7 * 1.35f64.powi(i)).collect()
}

/// One measured serving phase.
#[derive(Debug, Clone)]
pub struct ServingPoint {
    /// Phase name (`quiet` / `storm` / `batched`).
    pub phase: String,
    /// Reader threads.
    pub readers: usize,
    /// Sustained predictions per second across all readers.
    pub qps: f64,
    /// 99th-percentile per-query latency in microseconds.
    pub p99_us: f64,
    /// Versions published during the phase (0 for quiet).
    pub publishes: u64,
}

fn warmed_pipeline() -> Pipeline {
    let schema = Schema::new(["y", "x1", "x2"]);
    let built = PipelineBuilder::new(SchemaParser::new(schema, "y", &["x1", "x2"], None))
        .add(StandardScaler::new())
        .encoder(DenseEncoder::new(2));
    let mut p = built.expect("static pipeline spec");
    let records = (0..64)
        .map(|i| {
            Record::new(vec![
                Value::Num(i as f64),
                Value::Num((i as f64) * 0.25),
                Value::Num(8.0 - i as f64 * 0.125),
            ])
        })
        .collect();
    p.fit_transform_chunk(&RawChunk::new(Timestamp(0), records));
    p
}

fn model_for(pipeline: &Pipeline, seed: f64) -> LinearModel {
    let mut m = LinearModel::zeros(pipeline.dim(), LossKind::Squared);
    for i in 0..pipeline.dim() {
        m.weights_mut()
            .set(i, seed + i as f64 * 0.5)
            .expect("within dim");
    }
    m
}

fn query(i: usize) -> Record {
    Record::new(vec![
        Value::Num(0.0),
        Value::Num(i as f64 * 0.37 - 4.0),
        Value::Num(2.0 - i as f64 * 0.11),
    ])
}

/// Drives `READERS` threads against `server` for `duration`; returns
/// (total QPS, p99 latency in µs). When `storm` is set, a publisher thread
/// deploys a fresh pair every [`PUBLISH_EVERY`] until the readers finish,
/// and the publish count is returned.
fn drive(server: &ModelServer, duration: Duration, storm: bool) -> (f64, f64, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let published = Arc::new(AtomicU64::new(0));

    let publisher = storm.then(|| {
        let s = server.clone();
        let stop = Arc::clone(&stop);
        let published = Arc::clone(&published);
        std::thread::spawn(move || {
            let pipeline = warmed_pipeline();
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                v += 1;
                s.publish(pipeline.clone(), model_for(&pipeline, v as f64));
                published.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(PUBLISH_EVERY);
            }
        })
    });

    let metrics = Metrics::collecting();
    let bounds = latency_bounds();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let s = server.clone();
            let queries: Vec<Record> = (0..256).map(|i| query(i * READERS + r)).collect();
            let lat = metrics.histogram_with_bounds("serving.latency_secs", &bounds);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let start = Instant::now();
                let mut i = 0usize;
                while start.elapsed() < duration {
                    let t = Instant::now();
                    let p = s.predict(&queries[i % queries.len()]);
                    lat.observe(t.elapsed().as_secs_f64());
                    assert!(p.is_some(), "bench queries are well-formed");
                    served += 1;
                    i += 1;
                }
                (served, start.elapsed().as_secs_f64())
            })
        })
        .collect();

    let mut total = 0u64;
    let mut elapsed: f64 = 0.0;
    for r in readers {
        let (served, secs) = r.join().expect("reader thread");
        total += served;
        elapsed = elapsed.max(secs);
    }
    stop.store(true, Ordering::Relaxed);
    if let Some(p) = publisher {
        p.join().expect("publisher thread");
    }

    let p99 = metrics
        .histogram_with_bounds("serving.latency_secs", &bounds)
        .quantile(0.99)
        .map_or(0.0, |secs| secs * 1e6);
    (
        total as f64 / elapsed.max(1e-9),
        p99,
        published.load(Ordering::Relaxed),
    )
}

/// Median QPS over [`REPS`] drives of one phase (QPS on a shared host is
/// noisy; the median discards scheduler outliers).
fn phase(server: &ModelServer, name: &str, duration: Duration, storm: bool) -> ServingPoint {
    let mut runs: Vec<(f64, f64, u64)> =
        (0..REPS).map(|_| drive(server, duration, storm)).collect();
    runs.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    let (qps, p99_us, publishes) = runs[runs.len() / 2];
    ServingPoint {
        phase: name.to_owned(),
        readers: READERS,
        qps,
        p99_us,
        publishes,
    }
}

/// Throughput of the micro-batched path: one thread scoring the query set
/// in `predict_batch` passes of 64.
fn batched_phase(server: &ModelServer, duration: Duration) -> ServingPoint {
    let queries: Vec<Record> = (0..64).map(query).collect();
    let bounds = latency_bounds();
    let mut best_qps = 0.0f64;
    let mut p99_us = 0.0;
    for _ in 0..REPS {
        let metrics = Metrics::collecting();
        let batch_lat = metrics.histogram_with_bounds("serving.batch_secs", &bounds);
        let start = Instant::now();
        let mut served = 0u64;
        while start.elapsed() < duration {
            let t = Instant::now();
            let out = server.predict_batch(&queries);
            batch_lat.observe(t.elapsed().as_secs_f64());
            served += out.iter().filter(|p| p.is_some()).count() as u64;
        }
        let qps = served as f64 / start.elapsed().as_secs_f64();
        if qps > best_qps {
            best_qps = qps;
            let per_batch = batch_lat.quantile(0.99).map_or(0.0, |secs| secs * 1e6);
            // Per-query p99 bound: the batch's p99 spread over its size.
            p99_us = per_batch / queries.len() as f64;
        }
    }
    ServingPoint {
        phase: "batched".to_owned(),
        readers: 1,
        qps: best_qps,
        p99_us,
        publishes: 0,
    }
}

fn phase_duration(scale: SpecScale) -> Duration {
    match scale {
        SpecScale::Tiny => Duration::from_millis(100),
        _ => Duration::from_millis(1000),
    }
}

fn write_json(points: &[ServingPoint], ratio: f64, scale: SpecScale, path: &Path) {
    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"phase\": \"{}\", \"readers\": {}, \"qps\": {:.1}, \
             \"p99_us\": {:.3}, \"publishes\": {}}}",
            p.phase, p.readers, p.qps, p.p99_us, p.publishes
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"serving\",\n  \"scale\": \"{:?}\",\n  \
         \"host_parallelism\": {},\n  \"publish_every_ms\": {},\n  \
         \"storm_over_quiet_qps\": {:.4},\n  \"phases\": [\n{}\n  ]\n}}\n",
        scale,
        host_parallelism(),
        PUBLISH_EVERY.as_millis(),
        ratio,
        rows
    );
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(path, json);
}

/// Runs the quiet / storm / batched phases, writing `serving.csv` and
/// `BENCH_serving.json` into `out_dir`.
pub fn run(scale: SpecScale, out_dir: &Path) -> String {
    let pipeline = warmed_pipeline();
    let model = model_for(&pipeline, 1.0);
    let server = ModelServer::builder(pipeline, model)
        .engine(crate::engine())
        .shards(READERS.max(2))
        .build();
    let duration = phase_duration(scale);

    let quiet = phase(&server, "quiet", duration, false);
    let storm = phase(&server, "storm", duration, true);
    let batched = batched_phase(&server, duration);
    let ratio = storm.qps / quiet.qps.max(1e-9);

    let points = vec![quiet, storm, batched];
    let mut table = Table::new(["phase", "readers", "QPS", "p99 µs", "publishes"]);
    for p in &points {
        table.row([
            p.phase.clone(),
            p.readers.to_string(),
            fmt_f(p.qps, 0),
            fmt_f(p.p99_us, 2),
            p.publishes.to_string(),
        ]);
    }
    crate::write_csv(&table, out_dir.join("serving.csv"));
    write_json(&points, ratio, scale, &out_dir.join("BENCH_serving.json"));

    format!(
        "Serving under publish fire: {} reader thread(s), publish storm every \
         {} ms\nhost parallelism: {} core(s)\n\n{}\n\
         storm/quiet reader throughput: {:.3} (1.0 = publishes are free; \
         the acceptance budget is >= 0.95)\n",
        READERS,
        PUBLISH_EVERY.as_millis(),
        host_parallelism(),
        table.render(),
        ratio
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_complete_and_write_artifacts() {
        let dir = std::env::temp_dir().join(format!("cdp-serving-{}", std::process::id()));
        let report = run(SpecScale::Tiny, &dir);
        assert!(report.contains("storm/quiet reader throughput"));
        let json = std::fs::read_to_string(dir.join("BENCH_serving.json")).unwrap();
        assert!(json.contains("\"experiment\": \"serving\""));
        assert!(json.contains("\"storm_over_quiet_qps\""));
        assert!(json.contains("\"phase\": \"quiet\""));
        assert!(json.contains("\"phase\": \"storm\""));
        assert!(json.contains("\"phase\": \"batched\""));
        assert!(dir.join("serving.csv").exists());
        // The storm must not collapse reader throughput: even on a 1-core
        // host the lock-free snapshot keeps readers above half speed (the
        // release-mode acceptance budget is the much tighter 0.95).
        let ratio: f64 = json
            .split("\"storm_over_quiet_qps\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("ratio field");
        assert!(ratio > 0.5, "storm crushed readers: {ratio}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
