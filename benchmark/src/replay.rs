//! The traced replay: the Continuous branch of `cdp_core`'s `run_chunk_loop`
//! re-stated with public calls only, with a span around each call.
//!
//! The program's own loop is private and is measured from outside (see
//! `stream.rs`); to say which layer one chunk's time went to, the benchmark
//! repeats the loop here, statement for statement, against the same public
//! managers the loop uses. The caller asserts that the replay's weights,
//! error curve, accounted cost and checkpoint/WAL byte counts equal those of
//! `try_run_deployment` on the same inputs — that equality is what licenses
//! reading these spans as the program's cost. When the program's loop
//! changes, that assertion fails until this file follows.
//!
//! Left out because no workload reaches them: fault injection (the hook is
//! `NoFaults`), the Online and Periodical modes, the `online_stats = false`
//! baseline, and the program's internal tracer.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cdp_core::deployment::WalConfig;
use cdp_core::{
    DataManager, DeploymentCheckpoint, DeploymentConfig, DeploymentError, DeploymentMode,
    DeploymentSpec, ModelServer, PipelineManager, ProactiveTrainer, Scheduler, SchedulerContext,
    TelemetryConfig,
};
use cdp_datagen::ChunkStream;
use cdp_eval::{CostLedger, Phase, PrequentialEvaluator};
use cdp_faults::{FaultHook, NoFaults, RetryPolicy};
use cdp_ml::TrainReport;
use cdp_obs::{
    Alert, AlertMonitor, Clock, FlightRecorder, Metrics, SloMonitor, TelemetryStore, VirtualClock,
};
use cdp_pipeline::drift::{DriftDetector, DriftStatus};
use cdp_sampling::{mu_uniform, mu_window, SamplingStrategy};
use cdp_storage::{
    CheckpointDir, StorageBudget, StorageError, StoreStats, TieredStats, WalDir, WalOptions,
    WalStats, WalWriter,
};

use crate::trace::{SpanLog, NO_CHUNK};

/// What the replay produced, for comparison with the untraced run, and the
/// spans it recorded.
pub struct ReplayOutcome {
    /// Final model weights.
    pub final_weights: Vec<f64>,
    /// Prequential error curve.
    pub error_curve: Vec<(u64, f64)>,
    /// Total accounted deployment cost.
    pub total_secs: f64,
    /// Accounted seconds per phase, in `Phase::ALL` order.
    pub accounted: [f64; 4],
    /// Chunk-store counters.
    pub store_stats: StoreStats,
    /// Storage-tier counters.
    pub tiered_stats: TieredStats,
    /// Checkpoint files written.
    pub checkpoint_writes: u64,
    /// Checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// WAL counters.
    pub wal_stats: WalStats,
    /// Bytes of every flight-recorder segment written.
    pub recorder_bytes: u64,
    /// Series in the telemetry store at the end.
    pub telemetry_series: usize,
    /// Sampled chunks served from memory, over all fires.
    pub materialized_chunks: u64,
    /// Sampled chunks served from the spill tier.
    pub spilled_chunks: u64,
    /// Sampled chunks re-materialized from raw data.
    pub rematerialized_chunks: u64,
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
    /// Every span recorded.
    pub log: SpanLog,
}

fn io_error(e: std::io::Error) -> DeploymentError {
    DeploymentError::Storage(StorageError::Io(e))
}

/// `cdp_core`'s private `TelemetryRuntime`.
struct Telemetry {
    store: TelemetryStore,
    monitor: AlertMonitor,
    slo: SloMonitor,
    recorder: Option<FlightRecorder>,
    alerts: Vec<Alert>,
    every: usize,
    chunks_since: usize,
    flush_every: usize,
    samples_since_flush: usize,
    recorder_bytes: u64,
}

impl Telemetry {
    fn new(tc: &TelemetryConfig, chunk_period_secs: f64) -> Result<Self, DeploymentError> {
        let recorder = match &tc.recorder {
            Some(rc) => Some(FlightRecorder::open(&rc.dir, rc.keep).map_err(io_error)?),
            None => None,
        };
        Ok(Self {
            store: TelemetryStore::new(tc.capacity)
                .with_exclude_prefixes(tc.exclude_prefixes.clone()),
            monitor: AlertMonitor::deployment_defaults(chunk_period_secs)
                .with_cooldown(tc.cooldown_secs),
            slo: SloMonitor::deployment_defaults(tc.serving_p99_budget_secs)
                .with_cooldown(tc.cooldown_secs),
            recorder,
            alerts: Vec::new(),
            every: tc.every_chunks.max(1),
            chunks_since: 0,
            flush_every: tc
                .recorder
                .as_ref()
                .map_or(usize::MAX, |rc| rc.flush_every_samples.max(1)),
            samples_since_flush: 0,
            recorder_bytes: 0,
        })
    }

    /// One sampling tick (`TelemetryRuntime::sample`), the flush under its
    /// own span.
    fn sample(
        &mut self,
        metrics: &Metrics,
        at_secs: f64,
        log: &mut SpanLog,
    ) -> Result<(), DeploymentError> {
        log.time("obs.sample", || {
            let snap = metrics.snapshot();
            self.store.record(at_secs, &snap);
            let mut fired = self.monitor.observe(&snap, at_secs);
            fired.extend(self.slo.observe(&self.store, at_secs));
            for alert in &fired {
                metrics.event("alert.fired", alert.message());
            }
            self.alerts.extend(fired);
        });
        self.samples_since_flush += 1;
        if self.samples_since_flush >= self.flush_every {
            self.flush(at_secs, log)?;
        }
        Ok(())
    }

    fn flush(&mut self, at_secs: f64, log: &mut SpanLog) -> Result<(), DeploymentError> {
        if let Some(rec) = self.recorder.as_mut() {
            let bytes = log
                .time("obs.recorder_flush", || {
                    rec.flush(&self.store, &self.alerts, at_secs)
                })
                .map_err(io_error)?;
            self.recorder_bytes += bytes;
            self.samples_since_flush = 0;
        }
        Ok(())
    }
}

/// The loop's mutable state (`cdp_core`'s private `LoopState`).
struct State {
    dm: DataManager,
    pm: PipelineManager,
    evaluator: PrequentialEvaluator,
    ledger: CostLedger,
    sim: Arc<VirtualClock>,
    chunks_since_training: usize,
    last_training_secs: f64,
    last_training_at_secs: f64,
    proactive_runs: u64,
    proactive_secs_sum: f64,
    drift_monitor: DriftDetector,
    drift_level: u8,
    prev_acc: f64,
    prev_count: u64,
    initial_report: TrainReport,
    checkpoint_writes: u64,
    checkpoint_bytes: u64,
}

fn open_wal(
    wc: &WalConfig,
    hook: &Arc<dyn FaultHook>,
    clock: &Arc<VirtualClock>,
    metrics: &Metrics,
    start_seq: u64,
) -> Result<WalWriter, DeploymentError> {
    let recovery = WalDir::open(&wc.dir)?.recover()?;
    let clock: Arc<dyn Clock> = Arc::<VirtualClock>::clone(clock);
    let mut writer = WalWriter::open(
        &wc.dir,
        WalOptions {
            fsync_every: wc.fsync_every,
            group_window_secs: wc.group_window_secs,
            segment_bytes: wc.segment_bytes,
            retry: RetryPolicy::default(),
        },
        Arc::clone(hook),
        clock,
        metrics.clone(),
        recovery.next_seq().max(start_seq),
    )?;
    writer.absorb_recovery(&recovery, 0);
    Ok(writer)
}

fn publish(
    server: &ModelServer,
    pm: &PipelineManager,
    metrics: &Metrics,
    source: &str,
    log: &mut SpanLog,
) {
    log.time("serving.publish", || {
        let version = server.publish(pm.pipeline().clone(), pm.trainer().model().clone());
        if metrics.is_enabled() {
            let fp = cdp_core::weights_fingerprint(pm.trainer().model().weights().as_slice());
            metrics.event(
                "serving.publish",
                format!("{source} version {version} fp {fp:016x}"),
            );
        }
    });
}

fn export_mu_gauges(metrics: &Metrics, config: &DeploymentConfig, dm: &DataManager) {
    if !metrics.is_enabled() {
        return;
    }
    metrics
        .gauge("pm.mu_observed")
        .set(dm.stats().utilization_rate());
    let total_n = dm.chunk_count();
    let capacity_m = match config.optimization.budget {
        StorageBudget::MaxChunks(m) => Some(m.min(total_n)),
        StorageBudget::Unbounded => Some(total_n),
        StorageBudget::MaxBytes(_) => None,
    };
    if let Some(m) = capacity_m {
        metrics.gauge("pm.mu_uniform").set(mu_uniform(m, total_n));
        if let DeploymentMode::Continuous {
            strategy: SamplingStrategy::WindowBased { window },
            ..
        } = config.mode
        {
            if total_n > 0 {
                let w = window.clamp(1, total_n);
                metrics.gauge("pm.mu_window").set(mu_window(m, w, total_n));
            }
        }
    }
}

/// `assemble_checkpoint` + `write_checkpoint`, encode and write under
/// separate spans.
fn write_checkpoint(
    dir: &CheckpointDir,
    idx: u64,
    st: &mut State,
    hook: &Arc<dyn FaultHook>,
    metrics: &Metrics,
    log: &mut SpanLog,
) -> Result<(), DeploymentError> {
    let payload = log.time("checkpoint.encode", || {
        let trainer = st.pm.trainer();
        let (_, opt_t, acc1, acc2) = trainer.optimizer().to_parts();
        let (drift_baseline, drift_recent) = st.drift_monitor.window_contents();
        DeploymentCheckpoint {
            chunk_idx: idx,
            now_secs: st.sim.now_secs(),
            weights: trainer.model().weights().as_slice().to_vec(),
            opt_t,
            opt_acc1: acc1.as_slice().to_vec(),
            opt_acc2: acc2.as_slice().to_vec(),
            points_seen: trainer.points_seen(),
            component_states: st.pm.pipeline().component_states(),
            pipeline_counters: st.pm.pipeline().counters(),
            eval_count: st.evaluator.count(),
            eval_acc: st.evaluator.raw_accumulator(),
            eval_curve: st.evaluator.curve().to_vec(),
            accounted: st.ledger.accounted(),
            cost_curve: st.ledger.curve().to_vec(),
            chunks_since_training: st.chunks_since_training as u64,
            last_training_secs: st.last_training_secs,
            last_training_at_secs: st.last_training_at_secs,
            proactive_runs: st.proactive_runs,
            proactive_secs_sum: st.proactive_secs_sum,
            retrain_runs: 0,
            drift_level: st.drift_level,
            drift_baseline,
            drift_recent,
            prev_acc: st.prev_acc,
            prev_count: st.prev_count,
            sampler_rng: st.dm.sampler_rng_state(),
            fault_stats: hook.snapshot(),
            fault_epoch: hook.worker_epoch(),
            store_stats: st.dm.stats(),
            tiered_stats: st.dm.tiered_stats(),
            manifest: st
                .dm
                .store()
                .materialized_timestamps()
                .into_iter()
                .map(|t| t.0)
                .collect(),
            initial_report: st.initial_report,
            ckpt_writes: st.checkpoint_writes,
            ckpt_bytes: st.checkpoint_bytes,
            ckpt_restores: 0,
            metrics: metrics.snapshot(),
        }
        .encode()
    });
    let bytes = log.time("checkpoint.write", || {
        let span = metrics.span("checkpoint.write_secs");
        let bytes = dir.write(idx, &payload)?;
        span.finish();
        metrics.counter("checkpoint.writes").inc();
        metrics.counter("checkpoint.write_bytes").add(bytes);
        dir.pin(idx);
        Ok::<u64, StorageError>(bytes)
    })?;
    st.checkpoint_writes += 1;
    st.checkpoint_bytes += bytes;
    Ok(())
}

/// Replays one Continuous deployment under spans.
///
/// # Errors
/// Whatever the platform's managers return.
///
/// # Panics
/// When `config.mode` is not `Continuous`: every workload is.
pub fn replay(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    spill_dir: PathBuf,
) -> Result<ReplayOutcome, DeploymentError> {
    let DeploymentMode::Continuous {
        scheduler,
        sample_chunks,
        strategy,
    } = config.mode
    else {
        panic!("the replay re-states the Continuous branch only");
    };
    let mut log = SpanLog::with_capacity(stream.total_chunks() * 16);
    let wall = Instant::now();
    log.open("replay.run");
    let metrics = if config.collect_metrics {
        Metrics::collecting()
    } else {
        Metrics::disabled()
    };
    let hook: Arc<dyn FaultHook> = Arc::new(NoFaults);
    let mut dm = if config.spill_to_disk {
        DataManager::with_spill(
            config.optimization.budget,
            strategy,
            config.seed,
            spill_dir,
            Arc::clone(&hook),
            RetryPolicy::default(),
        )?
    } else {
        DataManager::new(config.optimization.budget, strategy, config.seed)
    };
    dm.set_metrics(metrics.clone());
    let mut pm = PipelineManager::new(spec.try_build_pipeline()?, &spec.sgd, spec.online_batch)
        .with_engine(config.engine)
        .with_fault_hook(Arc::clone(&hook))
        .with_metrics(metrics.clone());
    let evaluator = PrequentialEvaluator::new(spec.metric, 0);
    let proactive = ProactiveTrainer::new();

    // ---- Initial training ----
    let mut initial_ledger = CostLedger::new(config.cost_model);
    let initial = stream.initial();
    let (initial_report, feature_chunks) = log.time("pm.initial_fit", || {
        pm.initial_fit(&initial, &spec.sgd, &mut initial_ledger)
    });
    if let Some(server) = &config.serving {
        publish(server, &pm, &metrics, "initial", &mut log);
    }
    for (raw, fc) in initial.into_iter().zip(feature_chunks) {
        log.time("dm.ingest_raw", || dm.ingest_raw(raw))?;
        log.time("dm.store_features", || dm.store_features(fc))?;
    }
    dm.store_mut().reset_stats();

    // ---- Deployment loop ----
    let sim = Arc::new(VirtualClock::new());
    let start_idx = stream.deployment_range().start;
    let mut wal = match &config.wal {
        Some(wc) => Some(open_wal(wc, &hook, &sim, &metrics, start_idx as u64)?),
        None => None,
    };
    let mut st = State {
        dm,
        pm,
        evaluator,
        ledger: CostLedger::new(config.cost_model),
        sim,
        chunks_since_training: 0,
        last_training_secs: 0.0,
        last_training_at_secs: 0.0,
        proactive_runs: 0,
        proactive_secs_sum: 0.0,
        drift_monitor: DriftDetector::new(60, 12, 2.0, 3.0),
        drift_level: 0,
        prev_acc: 0.0,
        prev_count: 0,
        initial_report,
        checkpoint_writes: 0,
        checkpoint_bytes: 0,
    };
    let ckpt_dir = match &config.checkpoint {
        Some(c) => Some(CheckpointDir::open(&c.dir, c.keep)?),
        None => None,
    };
    let ckpt_every = config
        .checkpoint
        .as_ref()
        .map_or(usize::MAX, |c| c.every_chunks.max(1));
    let mut chunks_since_ckpt = 0usize;
    let mut last_processed_idx = None;
    let mut telemetry = match (&config.telemetry, metrics.is_enabled()) {
        (Some(tc), true) => Some(Telemetry::new(tc, config.chunk_period_secs)?),
        _ => None,
    };
    let (mut materialized, mut spilled, mut rematerialized) = (0u64, 0u64, 0u64);

    for idx in start_idx..stream.total_chunks() {
        log.set_chunk(idx as u32);
        log.open("replay.chunk");
        let raw = log.time("stream.arrival", || stream.chunk(idx));
        st.sim.advance_secs(config.chunk_period_secs);
        metrics.counter("deployment.chunks").inc();
        if let Some(w) = wal.as_mut() {
            log.time("wal.append", || w.append(idx as u64, &raw))?;
        }
        log.time("dm.ingest_raw", || st.dm.ingest_raw(raw.clone()))?;
        let fc = log.time("pm.online", || {
            st.pm
                .process_online_chunk(&raw, &mut st.evaluator, &mut st.ledger)
        });
        log.time("dm.store_features", || st.dm.store_features(fc))?;
        st.chunks_since_training += 1;

        let fresh = st.evaluator.count() - st.prev_count;
        if fresh > 0 {
            let chunk_error = (st.evaluator.raw_accumulator() - st.prev_acc) / fresh as f64;
            st.prev_acc = st.evaluator.raw_accumulator();
            st.prev_count = st.evaluator.count();
            let observed = match st.drift_monitor.observe(chunk_error) {
                DriftStatus::Drift => 2,
                DriftStatus::Warning => 1,
                DriftStatus::Stable | DriftStatus::Warmup => 0,
            };
            if observed != st.drift_level {
                metrics.event(
                    "drift.level_change",
                    format!("chunk {idx}: {} -> {observed}", st.drift_level),
                );
            }
            st.drift_level = observed;
            metrics.gauge("drift.level").set(f64::from(st.drift_level));
        }

        let queries = st.evaluator.count().max(1);
        let ctx = SchedulerContext {
            chunk_period_secs: config.chunk_period_secs,
            last_training_secs: st.last_training_secs,
            avg_prediction_latency: st.ledger.phase(Phase::Prediction) / queries as f64,
            prediction_rate: queries as f64 / ((idx + 1) as f64 * config.chunk_period_secs),
            elapsed_secs: st.sim.now_secs() - st.last_training_at_secs,
            chunks_since_last: st.chunks_since_training,
            drift_level: st.drift_level,
        };
        metrics
            .gauge("scheduler.t_secs")
            .set(ctx.last_training_secs);
        metrics.gauge("scheduler.pr").set(ctx.prediction_rate);
        metrics
            .gauge("scheduler.pl")
            .set(ctx.avg_prediction_latency);
        if scheduler.should_fire(&ctx) {
            metrics.counter("scheduler.fires").inc();
            if let Scheduler::Dynamic { slack } = scheduler {
                let interval = Scheduler::dynamic_interval_secs(slack, &ctx);
                if interval.is_finite() {
                    metrics
                        .histogram_with_bounds(
                            "scheduler.fire_margin_secs",
                            &[0.0, 1.0, 10.0, 60.0, 600.0, 3600.0],
                        )
                        .observe(ctx.elapsed_secs - interval);
                }
            }
            st.chunks_since_training = 0;
            st.last_training_at_secs = st.sim.now_secs();
            log.open("proactive.fire");
            let sampled = log.time("dm.sample", || st.dm.sample(sample_chunks));
            let outcome = proactive.try_execute(&mut st.pm, sampled, &mut st.ledger)?;
            log.close();
            materialized += outcome.materialized_chunks as u64;
            spilled += outcome.spilled_chunks as u64;
            rematerialized += outcome.rematerialized_chunks as u64;
            metrics.counter("proactive.runs").inc();
            metrics
                .counter("proactive.materialized_chunks")
                .add(outcome.materialized_chunks as u64);
            metrics
                .counter("proactive.spilled_chunks")
                .add(outcome.spilled_chunks as u64);
            metrics
                .counter("proactive.rematerialized_chunks")
                .add(outcome.rematerialized_chunks as u64);
            metrics
                .counter("proactive.points")
                .add(outcome.points as u64);
            if let Some(loss) = outcome.batch_loss {
                metrics.gauge("proactive.batch_loss").set(loss);
            }
            metrics
                .histogram("proactive.accounted_secs")
                .observe(outcome.accounted_secs);
            st.last_training_secs = outcome.accounted_secs;
            st.proactive_secs_sum += outcome.accounted_secs;
            st.proactive_runs += 1;
            if let Some(server) = &config.serving {
                publish(server, &st.pm, &metrics, "proactive", &mut log);
            }
        } else {
            metrics.counter("scheduler.skips").inc();
        }

        if let Some(server) = &config.serving {
            let source = format!("chunk {idx}");
            publish(server, &st.pm, &metrics, &source, &mut log);
        }
        st.evaluator.checkpoint();
        st.ledger.checkpoint(idx as u64);
        last_processed_idx = Some(idx as u64);

        if let Some(dir) = &ckpt_dir {
            chunks_since_ckpt += 1;
            if chunks_since_ckpt >= ckpt_every {
                write_checkpoint(dir, idx as u64, &mut st, &hook, &metrics, &mut log)?;
                chunks_since_ckpt = 0;
                if let Some(w) = wal.as_mut() {
                    log.time("wal.gc", || w.gc(idx as u64))?;
                }
            }
            metrics
                .gauge("checkpoint.staleness")
                .set(chunks_since_ckpt as f64 / ckpt_every as f64);
        }
        if let Some(tel) = telemetry.as_mut() {
            tel.chunks_since += 1;
            if tel.chunks_since >= tel.every {
                tel.chunks_since = 0;
                export_mu_gauges(&metrics, config, &st.dm);
                tel.sample(&metrics, st.sim.now_secs(), &mut log)?;
            }
        }
        log.close();
    }

    // ---- Clean shutdown ----
    log.set_chunk(NO_CHUNK);
    log.open("replay.shutdown");
    if let Some(w) = wal.as_mut() {
        log.time("wal.append", || w.flush())?;
    }
    if let Some(dir) = &ckpt_dir {
        if chunks_since_ckpt > 0 {
            if let Some(idx) = last_processed_idx {
                write_checkpoint(dir, idx, &mut st, &hook, &metrics, &mut log)?;
                if let Some(w) = wal.as_mut() {
                    log.time("wal.gc", || w.gc(idx))?;
                }
            }
        }
        metrics.gauge("checkpoint.staleness").set(0.0);
    }
    let stats = st.dm.stats();
    if metrics.is_enabled() {
        metrics
            .counter("deployment.queries")
            .add(st.evaluator.count());
    }
    export_mu_gauges(&metrics, config, &st.dm);
    if let Some(tel) = telemetry.as_mut() {
        let at_secs = st.sim.now_secs();
        if tel.chunks_since != 0 {
            tel.chunks_since = 0;
            tel.sample(&metrics, at_secs, &mut log)?;
        }
        if tel.samples_since_flush > 0 {
            tel.flush(at_secs, &mut log)?;
        }
    }
    log.close();
    log.close();
    Ok(ReplayOutcome {
        final_weights: st.pm.trainer().model().weights().as_slice().to_vec(),
        error_curve: st.evaluator.curve().to_vec(),
        total_secs: st.ledger.total(),
        accounted: st.ledger.accounted(),
        store_stats: stats,
        tiered_stats: st.dm.tiered_stats(),
        checkpoint_writes: st.checkpoint_writes,
        checkpoint_bytes: st.checkpoint_bytes,
        wal_stats: wal.as_ref().map(WalWriter::stats).unwrap_or_default(),
        recorder_bytes: telemetry.as_ref().map_or(0, |t| t.recorder_bytes),
        telemetry_series: telemetry.as_ref().map_or(0, |t| t.store.series_count()),
        materialized_chunks: materialized,
        spilled_chunks: spilled,
        rematerialized_chunks: rematerialized,
        wall_s: wall.elapsed().as_secs_f64(),
        log,
    })
}
