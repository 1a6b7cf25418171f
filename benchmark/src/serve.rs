//! `serve_storm`: closed-loop readers on a `ModelServer`, alone (quiet) and
//! beside a publisher that installs a fresh 2^16-dimension pair every
//! millisecond (storm).
//!
//! Closed loop: each of the `max(1, nproc − 1)` readers issues its next
//! `predict` when the previous one returns; there is no queue.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cdp_core::{ModelServer, PipelineManager};
use cdp_datagen::ChunkStream;
use cdp_eval::CostLedger;
use cdp_ml::LinearModel;
use cdp_pipeline::Pipeline;
use cdp_storage::Record;

use crate::report::Report;
use crate::stats::{
    fastest, lower_quartile, median, median_set_up_s, nproc, p50_and, peak_rss_mb, steal_secs,
    timed, TAIL,
};
use crate::workloads::{url_stream, Scale};

/// Quiet/storm phase pairs; `rows_per_s` is the best storm phase.
const PHASE_PAIRS: usize = 10;
/// Queries taken from the deployment range.
const QUERIES: usize = 4096;
/// Interval between publishes during a storm.
const PUBLISH_EVERY: Duration = Duration::from_millis(1);
/// Records per `predict_batch` call in the batched phase.
const BATCH: usize = 64;

/// The server, its queries, and what each query must score.
struct Serving {
    server: ModelServer,
    pipeline: Pipeline,
    model: LinearModel,
    queries: Vec<Record>,
    expected: Vec<Option<f64>>,
}

/// Stream generation, initial fit, server construction, query selection.
fn set_up(seed: u64, scale: Scale) -> Serving {
    let (stream, spec) = url_stream(seed, scale);
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    pm.initial_fit(&stream.initial(), &spec.sgd, &mut CostLedger::default());
    let (pipeline, trainer) = pm.snapshot();
    let mut model = trainer.model().clone();
    model.grow_to(pipeline.dim());
    let queries: Vec<Record> = stream.chunks()[stream.initial_chunks()..]
        .iter()
        .flat_map(|chunk| chunk.records.iter().cloned())
        .take(QUERIES)
        .collect();
    // What a prediction must equal: the published pipeline's transform and
    // the published model's margin, computed without the server.
    let expected = queries
        .iter()
        .map(|q| {
            pipeline
                .transform_query(q)
                .map(|p| model.margin_ref(&p.features))
        })
        .collect();
    Serving {
        server: ModelServer::new(pipeline.clone(), model.clone()),
        pipeline,
        model,
        queries,
        expected,
    }
}

/// One reader's tally of a phase.
#[derive(Default)]
struct ReaderTally {
    calls: u64,
    none: u64,
    wrong: u64,
    version_went_back: u64,
    secs: f64,
    latency_ns: Vec<u32>,
}

/// Calls `predict` in a closed loop until `stop`, timing each call.
fn reader(s: &Serving, offset: usize, stop: &AtomicBool, capacity: usize) -> ReaderTally {
    let mut tally = ReaderTally {
        latency_ns: Vec::with_capacity(capacity),
        ..ReaderTally::default()
    };
    let mut last_version = 0u64;
    let mut i = offset % s.queries.len();
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        let prediction = s.server.predict(&s.queries[i]);
        let ns = t0.elapsed().as_nanos();
        tally.calls += 1;
        match (prediction, s.expected[i]) {
            (Some(p), Some(want)) => {
                tally.wrong += u64::from(p.value.to_bits() != want.to_bits());
                tally.version_went_back += u64::from(p.version < last_version);
                last_version = p.version;
            }
            _ => tally.none += 1,
        }
        if tally.latency_ns.len() < capacity {
            tally.latency_ns.push(ns.min(u128::from(u32::MAX)) as u32);
        }
        i = if i + 1 == s.queries.len() { 0 } else { i + 1 };
    }
    tally.secs = start.elapsed().as_secs_f64();
    tally
}

/// Calls `predict_batch` in a closed loop until `stop`.
fn batch_reader(s: &Serving, offset: usize, stop: &AtomicBool) -> ReaderTally {
    let mut tally = ReaderTally::default();
    let mut i = (offset * BATCH) % s.queries.len();
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let end = (i + BATCH).min(s.queries.len());
        let predictions = s.server.predict_batch(&s.queries[i..end]);
        tally.calls += predictions.len() as u64;
        for (p, want) in predictions.iter().zip(&s.expected[i..end]) {
            match (p, want) {
                (Some(p), Some(want)) => {
                    tally.wrong += u64::from(p.value.to_bits() != want.to_bits());
                }
                _ => tally.none += 1,
            }
        }
        i = if end == s.queries.len() { 0 } else { end };
    }
    tally.secs = start.elapsed().as_secs_f64();
    tally
}

/// Publishes a clone of the pair every `PUBLISH_EVERY` until `stop`;
/// returns each publish's duration in microseconds.
fn publisher(s: &Serving, stop: &AtomicBool) -> Vec<f64> {
    let mut publish_us = Vec::new();
    let mut due = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        s.server.publish(s.pipeline.clone(), s.model.clone());
        publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
        due += PUBLISH_EVERY;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    }
    publish_us
}

/// What one phase measured.
struct Phase {
    qps: f64,
    tallies: Vec<ReaderTally>,
    publish_us: Vec<f64>,
}

#[derive(Clone, Copy)]
enum Load {
    Quiet,
    Storm,
    Batched,
}

fn phase(s: &Serving, load: Load, readers: usize, secs: f64) -> Phase {
    let stop = AtomicBool::new(false);
    // Room for 1 M calls per second and reader; beyond it only the count grows.
    let capacity = (secs * 1e6) as usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let stop = &stop;
                scope.spawn(move || match load {
                    Load::Batched => batch_reader(s, r, stop),
                    Load::Quiet | Load::Storm => {
                        reader(s, r * s.queries.len() / readers, stop, capacity)
                    }
                })
            })
            .collect();
        let storm = matches!(load, Load::Storm).then(|| scope.spawn(|| publisher(s, &stop)));
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        let tallies: Vec<ReaderTally> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let publish_us = storm.map_or_else(Vec::new, |h| h.join().expect("publisher panicked"));
        Phase {
            qps: tallies.iter().map(|t| t.calls as f64 / t.secs).sum(),
            tallies,
            publish_us,
        }
    })
}

/// Runs the workload for `seconds` (both `--trace` modes measure the same
/// phases; the traced one adds the batched phase and reports the per-call
/// and per-publish numbers).
pub fn run(seed: u64, scale: Scale, seconds: f64, report: &mut Report) {
    let (s, first_setup_s) = timed(|| set_up(seed, scale));
    report.op(
        "every query transforms (none is filtered by the pipeline)",
        s.expected.iter().all(Option::is_some),
    );

    let readers = nproc().saturating_sub(1).max(1);
    let phase_secs = match scale {
        Scale::Full => seconds / (2 * PHASE_PAIRS) as f64,
        Scale::Smoke => 0.05,
    };
    // Latency percentiles are taken per storm phase and the best phase's
    // reported (see `stats::fastest`), so a phase disturbed by the host does
    // not own the tail.
    let steal_before = steal_secs();
    let (mut quiet_qps, mut storm_qps) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut p999s) = (Vec::new(), Vec::new(), Vec::new());
    let mut publish_us = Vec::new();
    let tally = |p: &Phase, what: &str, report: &mut Report| {
        let calls: u64 = p.tallies.iter().map(|t| t.calls).sum();
        let bad: u64 = p.tallies.iter().map(|t| t.none + t.wrong).sum();
        let back: u64 = p.tallies.iter().map(|t| t.version_went_back).sum();
        report.ops(
            &format!("{what} predictions were None or differ from transform + margin"),
            calls,
            bad,
        );
        report.op(&format!("{what}: versions monotone per reader"), back == 0);
    };
    for pair in 0..PHASE_PAIRS {
        let quiet = phase(&s, Load::Quiet, readers, phase_secs);
        tally(&quiet, "quiet", report);
        quiet_qps.push(quiet.qps);
        let storm = phase(&s, Load::Storm, readers, phase_secs);
        tally(&storm, "storm", report);
        storm_qps.push(storm.qps);
        publish_us.extend(storm.publish_us);
        let mut call_ms: Vec<f64> = storm
            .tallies
            .iter()
            .flat_map(|t| t.latency_ns.iter().map(|&ns| f64::from(ns) / 1e6))
            .collect();
        // The reported tail is p99, the percentile the platform's own
        // serving SLO is written in. The two or three calls that follow a
        // publish and find the new model cold take 14 to 20 us and are 0.4%
        // of all calls; p99.9 lies at the edge of that cluster (16 to 22 us
        // from phase to phase), and when the host withholds the second core
        // the publisher preempts the reader and it reads 200 us.
        let (p50, p99) = p50_and(TAIL, &mut call_ms);
        let p999 = p50_and(0.999, &mut call_ms).1;
        p50s.push(p50);
        p99s.push(p99);
        p999s.push(p999);
        eprintln!(
            "pair {pair}: quiet {:.0} qps, storm {:.0} qps, call p50 {:.3} us, p99 {:.3} us, p99.9 {:.1} us",
            quiet.qps,
            storm.qps,
            p50 * 1e3,
            p99 * 1e3,
            p999 * 1e3
        );
        if pair == 0 {
            // At a fixed point of the work, not at the end, so that the peak
            // does not depend on how many publishes the phases fit.
            report.set("peak_rss_mb", peak_rss_mb());
        }
    }
    // A phase's p99 lies on the steep stretch between the warm calls and
    // the cold ones and moves by a tenth from phase to phase whatever the
    // host does, so the smallest of ten is an extreme of ten noisy values
    // (spread 7.5% over ten seeds); their lower quartile spreads by 5.7% and
    // still ignores up to six phases the host slowed down.
    let (p50_ms, p99_ms) = (fastest(&p50s), lower_quartile(&p99s));
    let best_qps = |qps: &[f64]| qps.iter().copied().fold(0.0, f64::max);
    report.set("rows_per_s", best_qps(&storm_qps));
    report.set("op_ms_p50", p50_ms);
    report.set("op_ms_tail", p99_ms);

    if report.is_traced() {
        let batched = phase(&s, Load::Batched, readers, 2.0 * phase_secs);
        tally(&batched, "batched", report);
        report.set("serve_batched_qps", batched.qps);
        report.set("serving.predict.us_p50", p50_ms * 1e3);
        report.set("serving.predict.us_p99", p99_ms * 1e3);
        report.set("serving.predict.us_p999", fastest(&p999s) * 1e3);
        report.set("serving.quiet_qps", best_qps(&quiet_qps));
        report.set(
            "serving.storm_over_quiet",
            best_qps(&storm_qps) / best_qps(&quiet_qps),
        );
        report.set(
            "serving.publish.busy_s",
            publish_us.iter().sum::<f64>() / 1e6,
        );
        report.set("serving.publish.us_p50", median(&publish_us));
        report.set("serving.rejected", s.server.queries_rejected() as f64);
    }
    report.op(
        "attempts == served + rejected",
        s.server.attempts() == s.server.queries_served() + s.server.queries_rejected(),
    );
    eprintln!(
        "{readers} reader(s) on {} cores, {} publishes, {:.2} s of host steal",
        nproc(),
        publish_us.len(),
        steal_secs() - steal_before
    );
    drop(s);
    report.set(
        "setup_s",
        median_set_up_s(first_setup_s, || drop(set_up(seed, scale))),
    );
}
