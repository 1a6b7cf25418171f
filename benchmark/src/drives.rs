//! Layer drives: the public functions of the crates below `cdp-core`, timed
//! in isolation on the workload's own chunks.
//!
//! The replay's spans stop at `cdp-core`'s call boundary (`pm.online` is one
//! span). A drive splits such a span further by calling what it calls —
//! `Pipeline::fit_transform_chunk`, `SgdTrainer::online_pass_rows`,
//! `LinearModel::margin_row` — over the same chunks in the same order. Drive
//! times are context for the replay's numbers, not a part of them: caches
//! are warmer than inside the loop.

use std::hint::black_box;

use cdp_datagen::ChunkStream;
use cdp_engine::ExecutionEngine;
use cdp_ml::SgdTrainer;
use cdp_sampling::{Sampler, SamplingStrategy};
use cdp_storage::{FeatureChunk, RowView, Timestamp};

use crate::report::Report;
use crate::stats::{median, timed};
use crate::workloads::{threaded_engine, DeployWorkload};

/// `cdp-pipeline`: every chunk of the stream through `fit_transform_chunk`
/// (statistics updated, as on arrival), then again through `transform_chunk`
/// (as on re-materialization). Returns the fitted feature chunks and the
/// pipeline's output dimension.
fn pipeline_drive(w: &DeployWorkload, report: &mut Report) -> (Vec<FeatureChunk>, usize) {
    let mut pipeline = w.spec.build_pipeline();
    let chunks = w.stream.chunks();
    let (features, fit_s) = timed(|| {
        chunks
            .iter()
            .map(|raw| pipeline.fit_transform_chunk(raw))
            .collect::<Vec<_>>()
    });
    let (rows, transform_s) = timed(|| {
        chunks
            .iter()
            .map(|raw| black_box(pipeline.transform_chunk(raw)).len())
            .sum::<usize>()
    });
    report.set("pipeline.fit_transform.busy_s", fit_s);
    report.set("pipeline.transform.busy_s", transform_s);
    report.set("pipeline.stats_share", 1.0 - transform_s / fit_s);
    report.set(
        "pipeline.us_per_row",
        transform_s * 1e6 / rows.max(1) as f64,
    );
    (features, pipeline.dim())
}

/// `cdp-ml`: the online pass over every deployment chunk, one proactive-size
/// step per scheduled fire, and a prediction per row.
fn ml_drive(w: &DeployWorkload, features: &[FeatureChunk], dim: usize, report: &mut Report) {
    let engine = w.config.engine;
    let mut trainer = SgdTrainer::new(dim, &w.spec.sgd);
    let deployment = &features[w.stream.initial_chunks()..];

    let ((), online_s) = timed(|| {
        for fc in deployment {
            let rows: Vec<RowView<'_>> = fc.rows().collect();
            black_box(trainer.online_pass_rows(&rows, w.spec.online_batch, engine));
        }
    });
    report.set("ml.online_pass.busy_s", online_s);

    let fires = deployment.len() / w.spec.proactive_every.max(1);
    let mut step_ms = Vec::with_capacity(fires);
    for fire in 0..fires {
        // The newest `sample_chunks` chunks at the time of the fire.
        let end = w.stream.initial_chunks() + (fire + 1) * w.spec.proactive_every;
        let start = end.saturating_sub(w.spec.sample_chunks);
        let batch: Vec<RowView<'_>> = features[start..end]
            .iter()
            .flat_map(FeatureChunk::rows)
            .collect();
        let (_, secs) = timed(|| black_box(trainer.step_rows(&batch, engine)));
        step_ms.push(secs * 1e3);
    }
    report.set("ml.step_rows.busy_s", step_ms.iter().sum::<f64>() / 1e3);
    report.set("ml.step_rows.ms_p50", median(&step_ms));

    let (rows, predict_s) = timed(|| {
        let model = trainer.model_mut();
        let mut rows = 0usize;
        for fc in deployment {
            for row in fc.rows() {
                black_box(model.margin_row(row));
                rows += 1;
            }
        }
        rows
    });
    report.set(
        "ml.predict.ns_per_row",
        predict_s * 1e9 / rows.max(1) as f64,
    );
}

/// `cdp-engine`: the fixed cost of one dispatch, a no-op map over 40 items.
fn engine_drive(engine: ExecutionEngine, report: &mut Report) {
    const CALLS: usize = 2000;
    let ((), secs) = timed(|| {
        for _ in 0..CALLS {
            black_box(engine.map_indexed(40, |i| i));
        }
    });
    report.set("engine.map.us_per_call", secs * 1e6 / CALLS as f64);
}

/// `cdp-sampling`: one draw per scheduled fire over a history growing from
/// the initial set to the whole stream, per strategy.
fn sampling_drive(w: &DeployWorkload, report: &mut Report) {
    let all: Vec<Timestamp> = (0..w.stream.total_chunks() as u64).map(Timestamp).collect();
    let strategies = [
        ("sampling.uniform.busy_s", SamplingStrategy::Uniform),
        ("sampling.time_based.busy_s", SamplingStrategy::TimeBased),
        (
            "sampling.window.busy_s",
            SamplingStrategy::WindowBased {
                window: w.capacity_chunks().max(1),
            },
        ),
    ];
    for (name, strategy) in strategies {
        let mut sampler = Sampler::new(strategy, w.config.seed);
        let ((), secs) = timed(|| {
            for n in (w.stream.initial_chunks()..=all.len()).step_by(w.spec.proactive_every) {
                black_box(sampler.sample(&all[..n], w.spec.sample_chunks));
            }
        });
        report.set(name, secs);
    }
}

/// Runs every drive that needs only the workload's stream.
pub fn run_all(w: &DeployWorkload, report: &mut Report) {
    let (features, dim) = pipeline_drive(w, report);
    ml_drive(w, &features, dim, report);
    engine_drive(threaded_engine(), report);
    sampling_drive(w, report);
}
