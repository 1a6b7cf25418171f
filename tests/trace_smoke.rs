//! Causal-tracing smoke tests: a small continuous deployment on the
//! threaded engine must produce a well-formed span tree that crosses the
//! worker pool, export cleanly to chrome://tracing and flamegraph formats,
//! reconcile its chunk lineage with the tiered-store counters, and perturb
//! nothing — results are bit-identical with tracing on and off.

use cdpipe::obs::{validate_chrome_trace, LineageEventKind, SpanRecord};
use cdpipe::prelude::*;

fn traced_config() -> DeploymentConfig {
    let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    // A bounded cache forces engine-parallel re-materialization, so the
    // span tree includes worker-pool fan-out beyond the initial fit.
    config.optimization.budget = StorageBudget::MaxChunks(4);
    config.engine = cdpipe::engine::ExecutionEngine::Threaded { workers: 2 };
    config.collect_metrics = true;
    config.collect_traces = true;
    config
}

#[test]
fn tracing_never_perturbs_the_deployment() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let config = traced_config();
    let traced = run_deployment(&stream, &spec, &config);
    let mut silent = config;
    silent.collect_traces = false;
    let baseline = run_deployment(&stream, &spec, &silent);

    // Bit-identical data fields…
    assert_eq!(baseline.final_weights, traced.final_weights);
    assert_eq!(baseline.error_curve, traced.error_curve);
    assert_eq!(baseline.cost_curve, traced.cost_curve);
    assert_eq!(baseline.final_error.to_bits(), traced.final_error.to_bits());
    assert_eq!(baseline.total_secs.to_bits(), traced.total_secs.to_bits());
    assert_eq!(baseline.proactive_runs, traced.proactive_runs);
    assert_eq!(baseline.tiered_stats, traced.tiered_stats);
    // …including the full metrics snapshot (tracing adds no metric).
    assert_eq!(baseline.metrics.counters, traced.metrics.counters);
    assert_eq!(baseline.metrics.gauges.len(), traced.metrics.gauges.len());
    // Lineage timestamps are wall-clock, so compare the event sequences.
    let kinds = |m: &MetricsSnapshot| -> Vec<(u64, Vec<LineageEventKind>)> {
        m.lineage
            .iter()
            .map(|(ts, entries)| (*ts, entries.iter().map(|e| e.kind).collect()))
            .collect()
    };
    assert_eq!(kinds(&baseline.metrics), kinds(&traced.metrics));
    assert_eq!(baseline.alerts.len(), traced.alerts.len());
    // Only the trace itself differs.
    assert!(baseline.trace.is_empty());
    assert!(!traced.trace.is_empty());
}

#[test]
fn span_tree_is_well_formed_and_crosses_worker_threads() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let result = run_deployment(&stream, &spec, &traced_config());
    let trace = &result.trace;

    assert_eq!(trace.dropped_spans, 0, "tiny run must fit the buffer");
    if let Err(e) = trace.validate() {
        panic!("malformed span tree: {e}");
    }

    // Exactly one root: the deployment itself.
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "roots: {roots:?}");
    assert_eq!(roots[0].name, "deployment.run");
    assert_eq!(trace.span_count("deployment.initial_fit"), 1);
    let deployment_chunks = stream.total_chunks() - stream.initial_chunks();
    assert_eq!(trace.span_count("deployment.chunk"), deployment_chunks);
    assert_eq!(
        trace.span_count("proactive.fire") as u64,
        result.proactive_runs
    );
    assert_eq!(trace.span_count("dm.sample") as u64, result.proactive_runs);

    // Causality: every engine task hangs under an engine map, every map
    // under a trainer span, the initial fit or a stage that dispatches one.
    assert!(trace.span_count("engine.map") > 0);
    assert!(trace.span_count("engine.task") > 0);
    for span in &trace.spans {
        match span.name.as_str() {
            "engine.task" => {
                assert_eq!(trace.parent_name(span), Some("engine.map"), "{span:?}");
            }
            "engine.map" => {
                let parent = trace.parent_name(span);
                assert!(
                    matches!(
                        parent,
                        Some(
                            "trainer.fit"
                                | "trainer.step"
                                | "deployment.initial_fit"
                                | "pm.online"
                                | "deployment.retrain"
                                | "proactive.fire"
                        )
                    ),
                    "engine.map parented under {parent:?}"
                );
            }
            _ => {}
        }
    }

    // The tree genuinely spans the worker pool: engine tasks ran on
    // threads other than the deployment driver's.
    assert!(
        trace.crosses_threads(),
        "span tree must cross worker threads"
    );
}

#[test]
fn exports_are_loadable() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let result = run_deployment(&stream, &spec, &traced_config());

    let chrome = result.trace.to_chrome_trace();
    match validate_chrome_trace(&chrome) {
        // Thread-name metadata + one B and one E per span.
        Ok(events) => assert_eq!(
            events,
            result.trace.threads.len() + 2 * result.trace.spans.len()
        ),
        Err(e) => panic!("invalid chrome trace: {e}"),
    }

    let folded = result.trace.to_folded_stacks();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => panic!("malformed folded line: {line:?}"),
        };
        assert!(stack.starts_with("deployment.run"), "{line:?}");
        if let Err(e) = weight.parse::<u64>() {
            panic!("weight not an integer in {line:?}: {e}");
        }
    }
}

#[test]
fn lineage_reconciles_with_tiered_stats() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let mut config = traced_config();
    config.spill_to_disk = true;
    let result = run_deployment(&stream, &spec, &config);
    let snap = &result.metrics;
    let tiered = result.tiered_stats;

    assert_eq!(snap.dropped_lineage, 0, "tiny run must fit the lineage log");
    // Every chunk that entered the platform has an arrival + materialize.
    let total_chunks = stream.total_chunks() as u64;
    assert_eq!(snap.lineage_count(LineageEventKind::Arrival), total_chunks);
    // Every chunk is preprocessed with statistic updates exactly once:
    // in the initial fit or on the online path.
    assert_eq!(
        snap.lineage_count(LineageEventKind::Transform),
        total_chunks
    );
    assert_eq!(
        snap.lineage_count(LineageEventKind::Materialize),
        total_chunks
    );
    // Tier transitions reconcile exactly with the store's own counters.
    assert!(tiered.spills > 0, "MaxChunks(4) must evict and spill");
    assert_eq!(snap.lineage_count(LineageEventKind::Spill), tiered.spills);
    assert_eq!(
        snap.lineage_count(LineageEventKind::SpillRead),
        tiered.disk_hits
    );
    assert_eq!(
        snap.lineage_count(LineageEventKind::Rematerialize),
        tiered.recomputes
    );
    assert_eq!(
        snap.lineage_count(LineageEventKind::SpillReadFallback),
        tiered.read_fallbacks
    );
    assert_eq!(
        snap.lineage_count(LineageEventKind::LostSpill),
        tiered.lost_spills
    );
    // Proactive training sampled from the history.
    assert!(snap.lineage_count(LineageEventKind::SampledForTraining) > 0);
}

#[test]
fn lost_spills_raise_an_alert_in_result_and_event_log() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let mut config = traced_config();
    config.spill_to_disk = true;
    // Every spill write fails past the retry budget ⇒ lost spills are
    // certain, and the store.lost_spills SLA rule must fire.
    config.faults = FaultPlan {
        seed: 5,
        disk_write_error: 1.0,
        ..FaultPlan::none()
    };
    let result = match try_run_deployment(&stream, &spec, &config) {
        Ok(r) => r,
        Err(e) => panic!("lost spills are absorbed, not fatal: {e}"),
    };
    assert!(result.tiered_stats.lost_spills > 0);
    assert!(
        result.alerts.iter().any(|a| a.rule == "store.lost_spills"),
        "alerts: {:?}",
        result.alerts
    );
    // Every fired alert is also appended to the event log.
    for alert in &result.alerts {
        assert!(
            result
                .metrics
                .events
                .iter()
                .any(|e| e.name == "alert.fired" && e.detail == alert.message()),
            "missing alert.fired event for {alert:?}"
        );
    }

    // A clean run keeps that alert quiet.
    let mut clean = traced_config();
    clean.spill_to_disk = true;
    let clean_result = run_deployment(&stream, &spec, &clean);
    assert!(clean_result
        .alerts
        .iter()
        .all(|a| a.rule != "store.lost_spills"));
}

/// The names of `parent`'s direct children, in the order they opened.
fn children(trace: &TraceSnapshot, parent: &SpanRecord) -> Vec<String> {
    let mut kids: Vec<&SpanRecord> = (trace.spans.iter())
        .filter(|s| s.parent == Some(parent.id))
        .collect();
    kids.sort_by_key(|s| s.id.0);
    kids.iter().map(|s| s.name.clone()).collect()
}

fn spans_named<'t>(trace: &'t TraceSnapshot, name: &str) -> Vec<&'t SpanRecord> {
    trace.spans.iter().filter(|s| s.name == name).collect()
}

/// A scratch directory of its own for one traced run.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cdp-stages-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every layer on and due at every chunk: WAL, serving, a checkpoint per
/// chunk, a telemetry sample and a recorder flush per chunk.
fn with_every_layer(mut config: DeploymentConfig, dir: &std::path::Path) -> DeploymentConfig {
    let (_, spec) = url_spec(SpecScale::Tiny);
    let pipeline = spec.build_pipeline();
    let model = cdpipe::ml::LinearModel::zeros(pipeline.dim(), spec.sgd.loss);
    config.wal = Some(WalConfig::new(dir.join("wal")));
    config.checkpoint = Some(CheckpointConfig::new(dir.join("ckpt")).every(1));
    let recorder = RecorderConfig::new(dir.join("rec")).flush_every(1);
    config.telemetry = Some(TelemetryConfig::new().recorder(recorder));
    config.serving = Some(ModelServer::new(pipeline, model));
    config
}

#[test]
fn every_chunk_is_its_stages_in_order() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let modes = [
        DeploymentConfig::online(),
        DeploymentConfig::periodical(3),
        DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform),
    ];
    for base in modes {
        for layers_on in [false, true] {
            let mode = base.mode.name();
            let dir = scratch_dir(mode);
            let mut config = base.clone();
            config.optimization.budget = StorageBudget::MaxChunks(4);
            config.collect_metrics = true;
            config.collect_traces = true;
            if layers_on {
                config = with_every_layer(config, &dir);
            }
            let result = run_deployment(&stream, &spec, &config);
            let _ = std::fs::remove_dir_all(&dir);
            let trace = &result.trace;
            let label = format!("{mode}, layers on: {layers_on}");
            assert_eq!(trace.dropped_spans, 0, "{label}");
            if let Err(e) = trace.validate() {
                panic!("{label}: malformed span tree: {e}");
            }

            let chunks = spans_named(trace, "deployment.chunk");
            let deployment_chunks = stream.total_chunks() - stream.initial_chunks();
            assert_eq!(chunks.len(), deployment_chunks, "{label}");
            let (mut retrains, mut fires) = (0, 0);
            for chunk in chunks {
                let got = children(trace, chunk);
                let mut want = vec!["stream.arrival"];
                if layers_on {
                    want.push("wal.append");
                }
                want.extend([
                    "dm.ingest_raw",
                    "pm.online",
                    "dm.store_features",
                    "drift.observe",
                ]);
                // A mode is its training stage.
                let has = |name: &str| got.iter().any(|g| g == name);
                let trained = match mode {
                    "Periodical" if has("deployment.retrain") => {
                        retrains += 1;
                        want.push("deployment.retrain");
                        true
                    }
                    "Continuous" => {
                        want.push("schedule");
                        if has("proactive.fire") {
                            fires += 1;
                            want.push("proactive.fire");
                        }
                        has("proactive.fire")
                    }
                    _ => false,
                };
                if layers_on {
                    if trained {
                        want.push("serving.publish");
                    }
                    want.extend([
                        "serving.publish",
                        "checkpoint.encode",
                        "checkpoint.write",
                        "obs.sample",
                        "obs.recorder_flush",
                    ]);
                }
                assert_eq!(got, want, "{label}: a chunk's stages");
            }
            assert_eq!(retrains, result.retrain_runs, "{label}");
            assert_eq!(fires, result.proactive_runs, "{label}");
            for fire in spans_named(trace, "proactive.fire") {
                assert_eq!(children(trace, fire)[0], "dm.sample", "{label}");
            }
            for write in spans_named(trace, "checkpoint.write") {
                let gc = children(trace, write).contains(&"wal.gc".to_owned());
                assert!(
                    gc,
                    "{label}: a durable checkpoint retires the WAL it covers"
                );
            }
        }
    }
}

#[test]
fn a_traced_resume_shows_the_replay_folds_stages() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let dir = scratch_dir("resume");
    let mut config = traced_config();
    config.checkpoint = Some(CheckpointConfig::new(dir.join("ckpt")).every(2));
    config.faults = FaultPlan {
        crash_site: Some(CrashSite::ChunkBoundary),
        crash_at: 4,
        ..FaultPlan::none()
    };
    match try_run_deployment(&stream, &spec, &config) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }
    let resumed = try_resume_deployment(&stream, &spec, &config);
    let _ = std::fs::remove_dir_all(&dir);
    let trace = match resumed {
        Ok(result) => result.trace,
        Err(e) => panic!("resume failed: {e}"),
    };
    assert_eq!(trace.dropped_spans, 0);
    if let Err(e) = trace.validate() {
        panic!("malformed span tree: {e}");
    }

    // The fold runs the loop's store stages, one pair per replayed chunk:
    // the initial chunks and every deployment chunk up to the checkpoint.
    let replays = spans_named(&trace, "deployment.replay");
    assert_eq!(replays.len(), 1);
    let folded = children(&trace, replays[0]);
    assert!(!folded.is_empty());
    for pair in folded.chunks(2) {
        assert_eq!(pair, ["dm.ingest_raw", "dm.store_features"]);
    }
    let replayed = folded.len() / 2;
    let resumed_chunks = trace.span_count("deployment.chunk");
    assert_eq!(replayed + resumed_chunks, stream.total_chunks());
    assert!(replayed > stream.initial_chunks());
}
