//! End-to-end deployment drivers for the three approaches of Experiment 1.
//!
//! All three share one chunk driver — every deployment chunk runs through
//! the same named stages, prequential evaluation and online learning among
//! them — and differ only in their training stage:
//!
//! * **Online**: nothing beyond the per-chunk online SGD pass;
//! * **Periodical**: a full retraining over the entire history every
//!   `retrain_every` chunks, warm-started TFX-style (pipeline statistics,
//!   model weights, and optimizer state are reused) unless configured cold;
//! * **Continuous** (the paper): proactive training — a scheduled single
//!   mini-batch SGD iteration over a sample of the history, served from the
//!   materialized-feature cache when possible.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cdp_datagen::ChunkStream;
use cdp_engine::{EngineError, ExecutionEngine, RunCtx};
use cdp_eval::cost::Stopwatch;
use cdp_eval::prequential::average_of_curve;
use cdp_eval::{CostLedger, CostModel, Phase, PrequentialEvaluator};
use cdp_faults::{
    CrashSite, FaultHook, FaultInjector, FaultPlan, FaultStats, NoFaults, RetryPolicy,
};
use cdp_ml::{LinearModel, OptimizerState, SgdTrainer, TrainReport};
use cdp_obs::durable::{CrashPoint, Killed};
use cdp_obs::{
    Alert, AlertMonitor, Clock, FlightRecorder, Metrics, MetricsSnapshot, SloMonitor, SpanContext,
    TelemetryStore, TraceSnapshot, TraceSpan, Tracer, VirtualClock, DEFAULT_SERIES_CAPACITY,
};
use cdp_pipeline::drift::{DriftDetector, DriftStatus};
use cdp_pipeline::{Pipeline, PipelineError};
use cdp_sampling::{mu_uniform, mu_window, SamplingStrategy};
use cdp_storage::{
    durable_crash_point, CheckpointDir, FeatureChunk, RawChunk, StorageBudget, StorageError,
    StoreStats, TieredStats, WalDir, WalOptions, WalRecovery, WalStats, WalWriter,
};

use crate::checkpoint::DeploymentCheckpoint;
use crate::data_manager::DataManager;
use crate::pipeline_manager::PipelineManager;
use crate::presets::DeploymentSpec;
use crate::proactive::ProactiveTrainer;
use crate::scheduler::{Scheduler, SchedulerContext};
use crate::serving::ModelServer;

/// How the deployed model is kept fresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentMode {
    /// Online learning only.
    Online,
    /// Online learning plus periodical full retraining.
    Periodical {
        /// Chunks between retrainings (URL: every 10 days; Taxi: monthly).
        retrain_every: usize,
        /// Reuse pipeline statistics, weights, and optimizer state
        /// (TFX-style). The paper's baseline always warm-starts; `false` is
        /// the cold-restart ablation.
        warm_start: bool,
    },
    /// Online learning plus proactive training (this paper).
    Continuous {
        /// When proactive training fires.
        scheduler: Scheduler,
        /// Chunks sampled per proactive-training instance.
        sample_chunks: usize,
        /// Sampling strategy over the history.
        strategy: SamplingStrategy,
    },
}

impl DeploymentMode {
    /// Short display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            DeploymentMode::Online => "Online",
            DeploymentMode::Periodical { .. } => "Periodical",
            DeploymentMode::Continuous { .. } => "Continuous",
        }
    }

    /// The strategy the data manager's sampler is built with (only the
    /// continuous mode ever draws from it).
    fn strategy(&self) -> SamplingStrategy {
        match *self {
            DeploymentMode::Continuous { strategy, .. } => strategy,
            _ => SamplingStrategy::Uniform,
        }
    }
}

/// The platform optimizations of Experiment 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizationConfig {
    /// Online statistics computation (§3.1). When disabled, proactive
    /// training pays a statistics-recomputation scan and raw-data disk read
    /// per sampled chunk (the NoOptimization baseline).
    pub online_stats: bool,
    /// Materialized-feature cache budget (§3.2). `MaxChunks(m)` yields a
    /// materialization rate of `m/n`.
    pub budget: StorageBudget,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        Self {
            online_stats: true,
            budget: StorageBudget::Unbounded,
        }
    }
}

/// Crash-consistent checkpointing: a [`DeploymentCheckpoint`] every
/// `every_chunks` chunks and at shutdown, the newest `keep` files kept, for
/// [`try_resume_deployment`] to restart a killed run from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the numbered checkpoint files.
    pub dir: PathBuf,
    /// Chunks between checkpoint writes (clamped to at least 1).
    pub every_chunks: usize,
    /// Checkpoints retained, newest first (clamped to at least 1).
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every 8 chunks, keeping the last 2 files.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_chunks: 8,
            keep: 2,
        }
    }

    /// Sets the write interval (builder style).
    #[must_use]
    pub fn every(mut self, every_chunks: usize) -> Self {
        self.every_chunks = every_chunks;
        self
    }

    /// Sets the retention budget (builder style).
    #[must_use]
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }
}

/// Write-ahead logging of arrivals: every raw chunk is appended (group
/// committed every `fsync_every` records, or once the oldest buffered one
/// ages past `group_window_secs` of simulated time) *before* it is
/// processed, so [`try_resume_deployment`] replays checkpoint + WAL suffix
/// bit-identically even when the crash falls between checkpoints. Segments
/// rotate at `segment_bytes` and retire once a durable checkpoint covers
/// them (DESIGN.md §17).
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// Directory holding the numbered WAL segment files.
    pub dir: PathBuf,
    /// Records per group commit (1 = fsync every append). Clamped to at
    /// least 1.
    pub fsync_every: usize,
    /// Maximum simulated age of the oldest buffered record before a commit
    /// is forced regardless of batch fill (0 disables the window).
    pub group_window_secs: f64,
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// Log into `dir`, group-committing every 8 records or 1 simulated
    /// second, rotating segments at 256 KiB.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync_every: 8,
            group_window_secs: 1.0,
            segment_bytes: 256 * 1024,
        }
    }

    /// Sets the group-commit batch size (builder style).
    #[must_use]
    pub fn fsync_every(mut self, fsync_every: usize) -> Self {
        self.fsync_every = fsync_every;
        self
    }

    /// Sets the group-commit window in simulated seconds (builder style).
    #[must_use]
    pub fn group_window(mut self, group_window_secs: f64) -> Self {
        self.group_window_secs = group_window_secs;
        self
    }

    /// Sets the segment rotation threshold in bytes (builder style).
    #[must_use]
    pub fn segment_bytes(mut self, segment_bytes: u64) -> Self {
        self.segment_bytes = segment_bytes;
        self
    }
}

/// Live telemetry (with metrics collected): every `every_chunks` chunks,
/// every metric is sampled into a ring-buffered [`TelemetryStore`] on the
/// simulated clock and drives the stateful [`AlertMonitor`] and the SLO
/// burn-rate rules ([`SloMonitor`]), deduplicated per rule by the cooldown;
/// a [`RecorderConfig`] persists the store as a crash-surviving segment
/// log. It never feeds back into training (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Chunks between samples (clamped to at least 1).
    pub every_chunks: usize,
    /// Ring-buffer capacity per series (clamped to at least 1).
    pub capacity: usize,
    /// Per-rule alert cooldown in simulated seconds. The default
    /// (`f64::INFINITY`) reports each breaching rule exactly once per run.
    pub cooldown_secs: f64,
    /// Serving p99 latency objective in seconds for the
    /// `slo.serving_p99_burn` rule.
    pub serving_p99_budget_secs: f64,
    /// Metric-name prefixes excluded from sampling. The default excludes
    /// the scheduling-dependent `engine.*`, so telemetry is bit-identical
    /// across worker counts.
    pub exclude_prefixes: Vec<String>,
    /// Optional flight recorder persisting the store across crashes.
    pub recorder: Option<RecorderConfig>,
}

impl TelemetryConfig {
    /// Sample every chunk into 256-point rings, report each breaching rule
    /// once, exclude the scheduling-dependent `engine.*` series, and write
    /// no segments.
    pub fn new() -> Self {
        Self {
            every_chunks: 1,
            capacity: DEFAULT_SERIES_CAPACITY,
            cooldown_secs: f64::INFINITY,
            serving_p99_budget_secs: 0.05,
            exclude_prefixes: vec![String::from("engine.")],
            recorder: None,
        }
    }

    /// Attaches a flight recorder (builder style).
    #[must_use]
    pub fn recorder(mut self, recorder: RecorderConfig) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Flight-recorder persistence for [`TelemetryConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Directory holding the numbered segment files.
    pub dir: PathBuf,
    /// Segments retained, newest first (clamped to at least 1).
    pub keep: usize,
    /// Telemetry samples between durable segment writes (clamped to at
    /// least 1). The loop also flushes at shutdown and on an injected
    /// crash, so the on-disk timeline is at most one flush interval stale.
    pub flush_every_samples: usize,
}

impl RecorderConfig {
    /// Record into `dir`, flushing every 8 samples and keeping 4 segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            keep: 4,
            flush_every_samples: 8,
        }
    }

    /// Sets the flush interval (builder style).
    #[must_use]
    pub fn flush_every(mut self, samples: usize) -> Self {
        self.flush_every_samples = samples;
        self
    }
}

/// Checkpoint activity of one run. Deliberately *outside* the bit-identity
/// contract: a resumed run legitimately writes more checkpoints (and counts
/// its restore) than the uninterrupted run it otherwise reproduces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Durable checkpoint files completed.
    pub writes: u64,
    /// Bytes written across those files (envelope included).
    pub bytes_written: u64,
    /// Restores performed by this run's checkpoint lineage.
    pub restores: u64,
}

/// Everything a deployment run needs besides the pipeline spec.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Freshness mechanism.
    pub mode: DeploymentMode,
    /// Platform optimizations.
    pub optimization: OptimizationConfig,
    /// Simulated chunk arrival period in seconds (URL: 60 s; Taxi: 3600 s).
    pub chunk_period_secs: f64,
    /// Cost-model rates.
    pub cost_model: CostModel,
    /// Seed for the sampler.
    pub seed: u64,
    /// Execution engine for all batch work. Results and accounted cost are
    /// bit-identical across engines; a threaded one only saves wall time.
    pub engine: ExecutionEngine,
    /// Deterministic fault-injection plan, keyed purely by `(seed, site,
    /// key, attempt)`; [`FaultPlan::none`] (the default) injects nothing.
    pub faults: FaultPlan,
    /// Spill evicted feature chunks to a run-private temporary directory
    /// instead of dropping them; a failed spill read re-materializes.
    pub spill_to_disk: bool,
    /// Collect metrics into [`DeploymentResult::metrics`] (for an injected
    /// clock or a shared registry, use [`try_run_deployment_in`]).
    pub collect_metrics: bool,
    /// Collect the span tree into [`DeploymentResult::trace`]; tracing
    /// never perturbs results.
    pub collect_traces: bool,
    /// Crash-consistent checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Write-ahead logging of arriving chunks.
    pub wal: Option<WalConfig>,
    /// Live telemetry (needs metrics collection to record anything).
    pub telemetry: Option<TelemetryConfig>,
    /// A serving front-end to keep fresh: the run publishes clones of its
    /// `(pipeline, model)` pair after the initial fit, every training event
    /// and every chunk, and on resume right after the restore. `None` (the
    /// default), like every `Option` layer here, costs one branch per site.
    pub serving: Option<ModelServer>,
}

impl DeploymentConfig {
    /// An online-only configuration (the baseline's defaults).
    pub fn online() -> Self {
        Self {
            mode: DeploymentMode::Online,
            optimization: OptimizationConfig::default(),
            chunk_period_secs: 60.0,
            cost_model: CostModel::commodity(),
            seed: 17,
            engine: ExecutionEngine::Sequential,
            faults: FaultPlan::none(),
            spill_to_disk: false,
            collect_metrics: false,
            collect_traces: false,
            checkpoint: None,
            wal: None,
            telemetry: None,
            serving: None,
        }
    }

    /// A continuous configuration with static scheduling every
    /// `every_chunks`, sampling `sample_chunks` per instance.
    pub fn continuous(
        every_chunks: usize,
        sample_chunks: usize,
        strategy: SamplingStrategy,
    ) -> Self {
        Self {
            mode: DeploymentMode::Continuous {
                scheduler: Scheduler::Static { every_chunks },
                sample_chunks,
                strategy,
            },
            ..Self::online()
        }
    }

    /// A periodical configuration retraining every `retrain_every` chunks
    /// with warm starting.
    pub fn periodical(retrain_every: usize) -> Self {
        Self {
            mode: DeploymentMode::Periodical {
                retrain_every,
                warm_start: true,
            },
            ..Self::online()
        }
    }
}

/// Everything a deployment run produces.
#[derive(Debug, Clone)]
pub struct DeploymentResult {
    /// Approach name (`Online` / `Periodical` / `Continuous`).
    pub approach: String,
    /// Cumulative prequential error at the end of the deployment.
    pub final_error: f64,
    /// Mean of the cumulative-error curve (Figure 8's quality axis).
    pub average_error: f64,
    /// `(examples_seen, cumulative_error)` per deployment chunk
    /// (Figure 4 a/c).
    pub error_curve: Vec<(u64, f64)>,
    /// `(chunk_index, cumulative_accounted_seconds)` (Figure 4 b/d).
    pub cost_curve: Vec<(u64, f64)>,
    /// Accounted seconds per phase.
    pub preprocessing_secs: f64,
    /// Accounted training seconds.
    pub training_secs: f64,
    /// Accounted prediction seconds.
    pub prediction_secs: f64,
    /// Accounted materialization-I/O seconds.
    pub io_secs: f64,
    /// Total accounted deployment cost in seconds.
    pub total_secs: f64,
    /// Real wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Proactive-training instances executed.
    pub proactive_runs: u64,
    /// Mean accounted seconds per proactive-training instance (the paper
    /// reports 200 ms / 700 ms).
    pub avg_proactive_secs: f64,
    /// Full retrainings executed (periodical only).
    pub retrain_runs: u64,
    /// Chunk-store behaviour counters.
    pub store_stats: StoreStats,
    /// Measured materialization utilization rate μ over the run.
    pub empirical_mu: f64,
    /// Prediction queries answered.
    pub queries_answered: u64,
    /// Initial-training report.
    pub initial_report: TrainReport,
    /// Final model weights (dense). Lets callers verify that two runs —
    /// e.g. sequential vs threaded — produced bit-identical models.
    pub final_weights: Vec<f64>,
    /// Injected-fault and recovery counters (all zero without a fault plan).
    pub fault_stats: FaultStats,
    /// Storage-tier counters: spills, disk hits, read fallbacks.
    pub tiered_stats: TieredStats,
    /// Metrics of every layer (empty unless metrics were collected).
    pub metrics: MetricsSnapshot,
    /// Span tree across the run's stages and worker threads (empty unless
    /// traces were collected); see [`TraceSnapshot::to_chrome_trace`].
    pub trace: TraceSnapshot,
    /// SLA alerts, each also an `alert.fired` event (empty unless metrics
    /// were collected): from the per-sample monitors with telemetry on,
    /// else from the default [`AlertMonitor`] over the final snapshot.
    pub alerts: Vec<Alert>,
    /// Time series over every sampled metric (empty without telemetry).
    pub telemetry: TelemetryStore,
    /// Checkpoint counters (zero without checkpointing); see
    /// [`CheckpointStats`].
    pub checkpoint_stats: CheckpointStats,
    /// WAL counters (zero without a WAL). Outside the bit-identity
    /// contract: a resume commits and replays differently.
    pub wal_stats: WalStats,
}

impl DeploymentResult {
    /// Cost ratio of this run against another (e.g. periodical / continuous).
    pub fn cost_ratio_to(&self, other: &DeploymentResult) -> f64 {
        self.total_secs / other.total_secs.max(1e-12)
    }
}

/// A deployment run failed beyond the platform's recovery budget.
#[derive(Debug)]
pub enum DeploymentError {
    /// A storage-layer failure (duplicate timestamp, unrecoverable I/O).
    Storage(StorageError),
    /// An engine-layer failure (worker dead beyond the restart budget).
    Engine(EngineError),
    /// The spec's pipeline factory failed, or a checkpointed component
    /// state did not restore.
    Pipeline(PipelineError),
    /// Killed by an injected crash point; what is on disk is what a
    /// `kill -9` there leaves, a killed durable operation's tear included.
    Crashed(CrashSite),
    /// Nothing to resume from: no checkpoint configured, or no valid file.
    NoCheckpoint(String),
}

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Storage(e) => write!(f, "storage failure: {e}"),
            Self::Engine(e) => write!(f, "engine failure: {e}"),
            Self::Pipeline(e) => write!(f, "pipeline failure: {e}"),
            Self::Crashed(site) => write!(f, "injected crash at the {} site", site.name()),
            Self::NoCheckpoint(detail) => write!(f, "nothing to resume from: {detail}"),
        }
    }
}

impl std::error::Error for DeploymentError {}

/// A durable operation's [`Killed`] marker is the run's death at the
/// [`CrashSite::Durable`] site; every other storage error stays one.
impl From<StorageError> for DeploymentError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Io(e) if Killed::is(&e) => DeploymentError::Crashed(CrashSite::Durable),
            e => DeploymentError::Storage(e),
        }
    }
}

impl From<EngineError> for DeploymentError {
    fn from(e: EngineError) -> Self {
        DeploymentError::Engine(e)
    }
}

impl From<PipelineError> for DeploymentError {
    fn from(e: PipelineError) -> Self {
        DeploymentError::Pipeline(e)
    }
}

/// Monotonic discriminator for run-private spill directories, so concurrent
/// runs in one process never collide.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn private_spill_dir() -> std::path::PathBuf {
    let seq = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cdp-spill-{}-{seq}", std::process::id()))
}

/// A run's fault hook: an active plan's injector (continuing `restored`
/// statistics and worker epoch on resume), or the no-op hook.
fn hook_for(plan: FaultPlan, restored: Option<(FaultStats, u64)>) -> Arc<dyn FaultHook> {
    match restored {
        _ if !plan.is_active() => Arc::new(NoFaults),
        Some((stats, epoch)) => Arc::new(FaultInjector::with_state(plan, stats, epoch)),
        None => Arc::new(FaultInjector::new(plan)),
    }
}

/// A run's data manager, spilling into a directory of its own when the
/// configuration asks for a disk tier.
fn data_manager(
    config: &DeploymentConfig,
    hook: &Arc<dyn FaultHook>,
) -> Result<DataManager, DeploymentError> {
    let (budget, strategy) = (config.optimization.budget, config.mode.strategy());
    if !config.spill_to_disk {
        return Ok(DataManager::new(budget, strategy, config.seed));
    }
    Ok(DataManager::with_spill(
        budget,
        strategy,
        config.seed,
        private_spill_dir(),
        Arc::clone(hook),
        RetryPolicy::default(),
    )?)
}

/// What a run reads and reports to, but never changes: its inputs, its
/// fault hook and its observers.
struct RunEnv<'a> {
    stream: &'a dyn ChunkStream,
    spec: &'a DeploymentSpec,
    config: &'a DeploymentConfig,
    hook: Arc<dyn FaultHook>,
    metrics: Metrics,
    tracer: Tracer,
    wall: Stopwatch,
    run_span: TraceSpan,
}

impl RunEnv<'_> {
    /// `pm` on this run's engine, fault hook and observers.
    fn manage(&self, pm: PipelineManager) -> PipelineManager {
        pm.with_engine(self.config.engine)
            .with_fault_hook(Arc::clone(&self.hook))
            .with_metrics(self.metrics.clone())
            .with_tracer(self.tracer.clone())
    }

    /// A manager over the spec's pipeline with cold statistics and a zero
    /// model: what initial training and a cold retraining start from.
    fn fresh_manager(&self) -> Result<PipelineManager, DeploymentError> {
        let (pipeline, spec) = (self.spec.try_build_pipeline()?, self.spec);
        Ok(self.manage(PipelineManager::new(pipeline, &spec.sgd, spec.online_batch)))
    }

    /// The stages under `span`.
    fn stages<'s>(&'s self, span: &TraceSpan) -> Stages<'s> {
        Stages(self, span.context())
    }
}

/// Where stages open: the run (`.0`) and the span they nest under (`.1`) —
/// a chunk, the run itself, the resume's replay fold, or an enclosing stage.
#[derive(Clone, Copy)]
struct Stages<'a>(&'a RunEnv<'a>, Option<SpanContext>);

impl<'a> Stages<'a> {
    /// Runs stage `name`: opens its span, points the pipeline manager's
    /// trace scope at it and returns the stage's result; `f` also gets the
    /// stages nested in this one. Untraced, this is one branch.
    fn run<T>(
        self,
        name: &str,
        st: &mut LoopState,
        f: impl FnOnce(&mut LoopState, Self) -> T,
    ) -> T {
        let tracer = &self.0.tracer;
        if !tracer.is_enabled() {
            return f(st, self);
        }
        let span = tracer.child_of(name, self.1);
        st.pm.set_trace_scope(span.context());
        f(st, Stages(self.0, span.context()))
    }

    /// The `serving.publish` stage: the current `(pipeline, model)` pair to
    /// the attached server — a copy of the pipeline, the model's weight
    /// buffer shared — and an event naming `source` and the weights'
    /// fingerprint, cached in that buffer (`source` is formatted only for it).
    fn publish(self, st: &mut LoopState, source: impl std::fmt::Display) {
        let (Some(server), metrics) = (&self.0.config.serving, &self.0.metrics) else {
            return;
        };
        self.run("serving.publish", st, |st, _| {
            let model = st.pm.trainer().model();
            let version = server.publish(st.pm.pipeline().clone(), model.clone());
            if metrics.is_enabled() {
                let fp = model.fingerprint();
                let detail = format!("{source} version {version} fp {fp:016x}");
                metrics.event("serving.publish", detail);
            }
        });
    }
}

/// Runs one deployment end to end: initial training on the stream's initial
/// chunks, then the arrival loop over the deployment range.
///
/// # Panics
/// Panics when the run fails beyond the platform's recovery budget; use
/// [`try_run_deployment`] for a typed error instead.
pub fn run_deployment(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
) -> DeploymentResult {
    match try_run_deployment(stream, spec, config) {
        Ok(result) => result,
        Err(e) => panic!("deployment failed: {e}"),
    }
}

/// [`run_deployment`] with failures surfaced as typed errors.
///
/// Recovery happens below this level — disk retries in the storage tier,
/// fall-through re-materialization for lost spills, worker restarts in the
/// engine — so an `Err` here means the fault budget was genuinely
/// exhausted (or a logic error such as a duplicate timestamp).
///
/// # Errors
/// [`DeploymentError::Storage`] or [`DeploymentError::Engine`].
pub fn try_run_deployment(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
) -> Result<DeploymentResult, DeploymentError> {
    try_run_deployment_in(stream, spec, config, config_ctx(config))
}

/// The observers [`DeploymentConfig::collect_metrics`] and
/// [`DeploymentConfig::collect_traces`] ask for, on the wall clock.
fn config_ctx(config: &DeploymentConfig) -> RunCtx {
    RunCtx {
        metrics: (config.collect_metrics.then(Metrics::collecting)).unwrap_or_default(),
        tracer: (config.collect_traces.then(Tracer::collecting)).unwrap_or_default(),
        parent: None,
    }
}

/// [`try_run_deployment`] recording into explicit handles, which override
/// [`DeploymentConfig::collect_metrics`] and
/// [`DeploymentConfig::collect_traces`]: an injected (e.g. virtual) clock,
/// or shared handles aggregating several runs. The span tree is a
/// `deployment.run` span under `ctx.parent`: the initial fit, one
/// `deployment.chunk` per arrival over the chunk's stages (DESIGN.md §11),
/// then the shutdown's stages. Observers never feed back into results.
///
/// # Errors
/// Same as [`try_run_deployment`].
pub fn try_run_deployment_in(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    ctx: RunCtx,
) -> Result<DeploymentResult, DeploymentError> {
    deploy(stream, spec, config, ctx, None)
}

/// Resumes a killed deployment from its newest valid checkpoint and runs it
/// to completion.
///
/// Resume receives the `stream`, `spec` and `config` the original run used;
/// the newest valid checkpoint wins, torn or corrupt ones fall back to
/// their predecessor. The resumed run is bit-identical to an uninterrupted
/// one in weights, prequential curve, accounted cost, storage and fault
/// counters, metrics and lineage. Alerts and the telemetry store are too,
/// unless [`DeploymentConfig::telemetry`] is set: its ring store, monitor
/// cooldowns and fired alerts are not checkpointed and restart empty. An
/// injected crash site is cleared: the dead process consumed it.
///
/// # Errors
/// [`DeploymentError::NoCheckpoint`] when checkpointing is not configured
/// or no valid checkpoint file exists; [`DeploymentError::Storage`] with
/// [`StorageError::Corrupt`] when the checkpoint does not match the
/// spec/stream (never a panic); otherwise as [`try_run_deployment`].
pub fn try_resume_deployment(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
) -> Result<DeploymentResult, DeploymentError> {
    let Some(ckpt_cfg) = &config.checkpoint else {
        return Err(DeploymentError::NoCheckpoint(
            "DeploymentConfig.checkpoint is not set".into(),
        ));
    };
    let dir = CheckpointDir::open(&ckpt_cfg.dir, ckpt_cfg.keep)?;
    let Some((seq, version, payload)) = dir.latest_valid_versioned()? else {
        return Err(DeploymentError::NoCheckpoint(format!(
            "no valid checkpoint in {}",
            ckpt_cfg.dir.display()
        )));
    };
    let ckpt = DeploymentCheckpoint::decode_versioned(version, &payload)?;
    deploy(stream, spec, config, config_ctx(config), Some((seq, ckpt)))
}

/// The one body of a fresh run and a resume: fault hook, data manager, run
/// environment, the loop's state — from the initial fit, or restored from
/// checkpoint `resume` — the WAL, then the chunk driver and the result.
/// Whatever error leaves the driver, the flight recorder gets one
/// best-effort flush first: a failing run is what it is for.
fn deploy(
    stream: &dyn ChunkStream,
    spec: &DeploymentSpec,
    config: &DeploymentConfig,
    ctx: RunCtx,
    resume: Option<(u64, DeploymentCheckpoint)>,
) -> Result<DeploymentResult, DeploymentError> {
    let wall = Stopwatch::start();
    // A resume continues the checkpointed injector; other faults are pure in
    // (seed, site, key, attempt), so later chunks see the faults they would.
    let mut plan = config.faults;
    plan.crash_site = plan.crash_site.filter(|_| resume.is_none());
    let restored = resume.as_ref().map(|(_, c)| (c.fault_stats, c.fault_epoch));
    let hook = hook_for(plan, restored);
    // Until `attach_store`, the store reports nowhere and consults a
    // throwaway injector: the replay fold repeats faults already counted.
    let dm = data_manager(config, &hook_for(plan, None))?;
    let env = RunEnv {
        stream,
        spec,
        config,
        hook,
        wall,
        run_span: ctx.tracer.child_of("deployment.run", ctx.parent),
        metrics: ctx.metrics,
        tracer: ctx.tracer,
    };
    let (resumed, first) = (resume.is_some(), stream.deployment_range().start);
    let start_idx = (resume.as_ref()).map_or(first, |(_, c)| c.chunk_idx as usize + 1);
    let mut st = match resume {
        None => LoopState::fit_initial(&env, dm)?,
        Some((seq, ckpt)) => LoopState::resume(&env, dm, seq, ckpt)?,
    };
    let wal = open_wal(&env, &st.sim, start_idx as u64, resumed)?;
    if resumed {
        // The restored pair goes out before the loop: a server attached to
        // a resumed run never answers from the crashed process's snapshot.
        env.stages(&env.run_span).publish(&mut st, "restore");
    }
    // The WAL consults the hook's durable-operation countdown itself; the
    // checkpoint directory and the flight recorder get it here.
    let crash = durable_crash_point(&env.hook);
    let ckpt = (config.checkpoint.as_ref()).map(|c| {
        let mut dir = CheckpointDir::open(&c.dir, c.keep)?;
        dir.set_crash_point(crash.clone());
        Ok::<_, StorageError>((dir, c.every_chunks.max(1)))
    });
    let (metrics, period) = (&env.metrics, config.chunk_period_secs);
    let telemetry = config.telemetry.as_ref().filter(|_| metrics.is_enabled());
    let telemetry = telemetry.map(|tc| TelemetryRuntime::new(tc, period, &crash));
    let mut layers = Layers {
        wal,
        ckpt: ckpt.transpose()?,
        chunks_since_ckpt: 0,
        telemetry: telemetry.transpose()?,
    };
    let looped = drive_chunks(&env, &mut st, &mut layers, start_idx);
    let shutdown = env.stages(&env.run_span);
    if let (Err(_), Some(tel)) = (&looped, layers.telemetry.as_mut()) {
        let _ = tel.flush(shutdown, &mut st, 0);
    }
    looped?;
    let (stats, queries) = (st.dm.stats(), st.evaluator.count());
    metrics.counter("deployment.queries").add(queries);
    export_mu_gauges(metrics, config, &st);
    // Telemetry samples the end-of-run state if the cadence missed it; else
    // a fresh default monitor observes the final snapshot once.
    let (alerts, telemetry_store) = match layers.telemetry.take() {
        Some(mut tel) => {
            if tel.chunks_since != 0 {
                tel.tick(shutdown, &mut st)?;
            }
            tel.flush(shutdown, &mut st, 1)?;
            // The last segment's publish, so its error is this run's.
            if let Some(rec) = tel.recorder.as_mut() {
                rec.join().map_err(StorageError::Io)?;
            }
            (tel.alerts, tel.store)
        }
        None if metrics.is_enabled() => {
            let fired = AlertMonitor::deployment_defaults(period)
                .observe(&metrics.snapshot(), st.sim.now_secs());
            for alert in &fired {
                metrics.event("alert.fired", alert.message());
            }
            (fired, TelemetryStore::default())
        }
        None => (Vec::new(), TelemetryStore::default()),
    };
    env.run_span.finish();
    Ok(DeploymentResult {
        approach: config.mode.name().to_owned(),
        final_error: st.evaluator.error(),
        average_error: average_of_curve(st.evaluator.curve()),
        error_curve: st.evaluator.curve().to_vec(),
        cost_curve: st.ledger.curve().to_vec(),
        preprocessing_secs: st.ledger.phase(Phase::Preprocessing),
        training_secs: st.ledger.phase(Phase::Training),
        prediction_secs: st.ledger.phase(Phase::Prediction),
        io_secs: st.ledger.phase(Phase::MaterializationIo),
        total_secs: st.ledger.total(),
        wall_secs: env.wall.elapsed_secs(),
        proactive_runs: st.proactive_runs,
        avg_proactive_secs: st.proactive_secs_sum / st.proactive_runs.max(1) as f64,
        retrain_runs: st.retrain_runs,
        store_stats: stats,
        empirical_mu: stats.utilization_rate(),
        queries_answered: st.evaluator.count(),
        initial_report: st.initial_report,
        final_weights: st.pm.trainer().model().weights().clone(),
        fault_stats: env.hook.snapshot(),
        tiered_stats: st.dm.tiered_stats(),
        metrics: metrics.snapshot(),
        trace: env.tracer.snapshot(),
        alerts,
        telemetry: telemetry_store,
        checkpoint_stats: st.checkpoint_stats,
        wal_stats: layers.wal.map(|w| w.writer.stats()).unwrap_or_default(),
    })
}

/// Every piece of state the chunk loop mutates — what a fresh run
/// initializes from scratch, a checkpoint serializes, and a resume rebuilds.
struct LoopState {
    dm: DataManager,
    pm: PipelineManager,
    evaluator: PrequentialEvaluator,
    proactive: ProactiveTrainer,
    ledger: CostLedger,
    /// Simulated clock: one chunk period per arrival, so scheduling (and the
    /// WAL's group-commit window) stays deterministic.
    sim: Arc<VirtualClock>,
    chunks_since_training: usize,
    last_training_secs: f64,
    last_training_at_secs: f64,
    proactive_runs: u64,
    proactive_secs_sum: f64,
    retrain_runs: u64,
    drift_monitor: DriftDetector,
    drift_level: u8,
    prev_acc: f64,
    prev_count: u64,
    initial_report: TrainReport,
    checkpoint_stats: CheckpointStats,
}

impl LoopState {
    /// A fresh run's first-chunk state, which a resume restores over.
    fn new(env: &RunEnv<'_>, dm: DataManager, pm: PipelineManager, report: TrainReport) -> Self {
        let config = env.config;
        Self {
            dm,
            pm,
            evaluator: PrequentialEvaluator::new(env.spec.metric, 0),
            proactive: if config.optimization.online_stats {
                ProactiveTrainer::new()
            } else {
                ProactiveTrainer::without_online_stats()
            },
            ledger: CostLedger::new(config.cost_model),
            sim: Arc::new(VirtualClock::new()),
            chunks_since_training: 0,
            last_training_secs: 0.0,
            last_training_at_secs: 0.0,
            proactive_runs: 0,
            proactive_secs_sum: 0.0,
            retrain_runs: 0,
            // Chunk-granular windows: ~60 stable chunks vs the last 12.
            drift_monitor: DriftDetector::new(60, 12, 2.0, 3.0),
            drift_level: 0,
            prev_acc: 0.0,
            prev_count: 0,
            initial_report: report,
            checkpoint_stats: CheckpointStats::default(),
        }
    }

    /// Points the store at the run's fault hook and metrics.
    fn attach_store(&mut self, env: &RunEnv<'_>) {
        self.dm.set_hook(Arc::clone(&env.hook));
        self.dm.set_metrics(env.metrics.clone());
    }

    /// A fresh run's start: initial training (outside the deployment's cost,
    /// like Table 2), its publish, and the store seeded with its features.
    fn fit_initial(env: &RunEnv<'_>, dm: DataManager) -> Result<Self, DeploymentError> {
        let (mut pm, initial, run) = (env.fresh_manager()?, env.stream.initial(), &env.run_span);
        let fit_span = env.tracer.child_of("deployment.initial_fit", run.context());
        pm.set_trace_scope(fit_span.context());
        let mut ledger = CostLedger::new(env.config.cost_model);
        let (report, features) = pm.initial_fit(&initial, &env.spec.sgd, &mut ledger);
        fit_span.finish();
        let mut st = Self::new(env, dm, pm, report);
        st.attach_store(env);
        let seed = env.stages(run);
        seed.publish(&mut st, "initial");
        for (raw, fc) in initial.iter().zip(features) {
            st.store_chunk(seed, raw, |_| fc)?;
        }
        st.dm.store_mut().reset_stats();
        Ok(st)
    }

    /// A resume's start: the replay fold re-runs ingest and fit-transform up
    /// to the checkpoint, which holds chunk *references* only (§3.4), and so
    /// rebuilds the store bit for bit; validated against the checkpoint, the
    /// rest of the state is then restored from it.
    fn resume(
        env: &RunEnv<'_>,
        dm: DataManager,
        seq: u64,
        ckpt: DeploymentCheckpoint,
    ) -> Result<Self, DeploymentError> {
        let mut st = Self::new(env, dm, env.fresh_manager()?, ckpt.initial_report);
        let replay_span = env
            .tracer
            .child_of("deployment.replay", env.run_span.context());
        let (replay, stream) = (env.stages(&replay_span), env.stream);
        let mut pipeline = env.spec.try_build_pipeline()?;
        let covered = |idx: &usize| *idx as u64 <= ckpt.chunk_idx;
        let deployed = stream.deployment_range().take_while(covered);
        for raw in stream
            .initial()
            .into_iter()
            .chain(deployed.map(|i| stream.chunk(i)))
        {
            st.store_chunk(replay, &raw, |_| pipeline.fit_transform_chunk(&raw))?;
        }
        replay_span.finish();
        // A checkpoint from another pipeline or stream is a typed Corrupt
        // error, never a panic or a silent restart.
        let (states, manifest) = (pipeline.component_states().len(), st.manifest());
        if ckpt.component_states.len() != states || manifest != ckpt.manifest {
            return Err(StorageError::Corrupt(format!(
                "checkpoint ({} component states, {} materialized chunks) does not match the \
                 spec and stream ({states}, {}) — wrong spec or stream for this checkpoint?",
                ckpt.component_states.len(),
                ckpt.manifest.len(),
                manifest.len()
            ))
            .into());
        }
        let after = ckpt.chunk_idx;
        st.restore(env, ckpt, pipeline)?;
        env.metrics.counter("checkpoint.restores").inc();
        let detail = format!("resumed from checkpoint {seq} after chunk {after}");
        env.metrics.event("checkpoint.restore", detail);
        Ok(st)
    }

    /// The checkpointed state over the replayed one, `pipeline` the fold's:
    /// the inverse of [`LoopState::to_checkpoint`].
    fn restore(
        &mut self,
        env: &RunEnv<'_>,
        ckpt: DeploymentCheckpoint,
        mut pipeline: Pipeline,
    ) -> Result<(), DeploymentError> {
        env.metrics.restore_from(&ckpt.metrics);
        pipeline.restore_component_states(&ckpt.component_states)?;
        pipeline.set_counters(ckpt.pipeline_counters);
        let (sgd, acc1, acc2) = (&env.spec.sgd, ckpt.opt_acc1, ckpt.opt_acc2);
        let trainer = SgdTrainer::restore(
            LinearModel::with_weights(ckpt.weights, sgd.loss),
            OptimizerState::from_parts(sgd.optimizer, ckpt.opt_t, acc1, acc2),
            sgd.regularizer,
            ckpt.points_seen,
        );
        self.attach_store(env);
        self.dm.set_sampler_rng_state(ckpt.sampler_rng);
        self.dm.store_mut().restore_stats(ckpt.store_stats);
        self.dm.restore_tiered_stats(ckpt.tiered_stats);
        let pm = PipelineManager::with_trainer(pipeline, trainer, env.spec.online_batch);
        self.pm = env.manage(pm);
        let (metric, count, acc) = (env.spec.metric, ckpt.eval_count, ckpt.eval_acc);
        self.evaluator = PrequentialEvaluator::restore(metric, count, acc, ckpt.eval_curve, 0);
        let cost_model = env.config.cost_model;
        self.ledger = CostLedger::from_parts(cost_model, ckpt.accounted, ckpt.cost_curve);
        let drift = &mut self.drift_monitor;
        drift.restore_windows(ckpt.drift_baseline, ckpt.drift_recent);
        self.sim.advance_secs(ckpt.now_secs);
        self.chunks_since_training = ckpt.chunks_since_training as usize;
        self.last_training_secs = ckpt.last_training_secs;
        self.last_training_at_secs = ckpt.last_training_at_secs;
        self.proactive_runs = ckpt.proactive_runs;
        self.proactive_secs_sum = ckpt.proactive_secs_sum;
        self.retrain_runs = ckpt.retrain_runs;
        self.drift_level = ckpt.drift_level;
        self.prev_acc = ckpt.prev_acc;
        self.prev_count = ckpt.prev_count;
        self.checkpoint_stats = CheckpointStats {
            writes: ckpt.ckpt_writes,
            bytes_written: ckpt.ckpt_bytes,
            restores: ckpt.ckpt_restores + 1,
        };
        Ok(())
    }

    /// The loop's dynamic state at the boundary after chunk `idx`.
    fn to_checkpoint(&self, idx: u64, env: &RunEnv<'_>) -> DeploymentCheckpoint {
        let trainer = self.pm.trainer();
        let (_, opt_t, acc1, acc2) = trainer.optimizer().to_parts();
        let (drift_baseline, drift_recent) = self.drift_monitor.window_contents();
        DeploymentCheckpoint {
            chunk_idx: idx,
            now_secs: self.sim.now_secs(),
            weights: trainer.model().weights().clone(),
            opt_t,
            opt_acc1: acc1.clone(),
            opt_acc2: acc2.clone(),
            points_seen: trainer.points_seen(),
            component_states: self.pm.pipeline().component_states(),
            pipeline_counters: self.pm.pipeline().counters(),
            eval_count: self.evaluator.count(),
            eval_acc: self.evaluator.raw_accumulator(),
            eval_curve: self.evaluator.curve().to_vec(),
            accounted: self.ledger.accounted(),
            cost_curve: self.ledger.curve().to_vec(),
            chunks_since_training: self.chunks_since_training as u64,
            last_training_secs: self.last_training_secs,
            last_training_at_secs: self.last_training_at_secs,
            proactive_runs: self.proactive_runs,
            proactive_secs_sum: self.proactive_secs_sum,
            retrain_runs: self.retrain_runs,
            drift_level: self.drift_level,
            drift_baseline,
            drift_recent,
            prev_acc: self.prev_acc,
            prev_count: self.prev_count,
            sampler_rng: self.dm.sampler_rng_state(),
            fault_stats: env.hook.snapshot(),
            fault_epoch: env.hook.worker_epoch(),
            store_stats: self.dm.stats(),
            tiered_stats: self.dm.tiered_stats(),
            manifest: self.manifest(),
            initial_report: self.initial_report,
            ckpt_writes: self.checkpoint_stats.writes,
            ckpt_bytes: self.checkpoint_stats.bytes_written,
            ckpt_restores: self.checkpoint_stats.restores,
            metrics: env.metrics.snapshot(),
        }
    }

    /// The timestamps of the materialized feature chunks.
    fn manifest(&self) -> Vec<u64> {
        let materialized = self.dm.store().materialized_timestamps();
        materialized.into_iter().map(|t| t.0).collect()
    }

    /// `dm.ingest_raw`, the transform, `dm.store_features`: the transform is
    /// `pm.online` in the loop, the initial fit's features when seeding, the
    /// bare pipeline in the replay fold. The store shares the chunk's rows.
    fn store_chunk(
        &mut self,
        stages: Stages<'_>,
        raw: &RawChunk,
        transform: impl FnOnce(&mut Self) -> FeatureChunk,
    ) -> Result<(), DeploymentError> {
        stages.run("dm.ingest_raw", self, |st, _| st.dm.ingest_raw(raw.clone()))?;
        let fc = transform(self);
        Ok(stages.run("dm.store_features", self, |st, _| st.dm.store_features(fc))?)
    }

    /// The `drift.observe` stage: the chunk's mean prequential error into
    /// the drift monitor the drift-adaptive scheduler reads.
    fn observe_drift(&mut self, metrics: &Metrics, idx: usize) {
        let fresh = self.evaluator.count() - self.prev_count;
        if fresh == 0 {
            return;
        }
        let chunk_error = (self.evaluator.raw_accumulator() - self.prev_acc) / fresh as f64;
        self.prev_acc = self.evaluator.raw_accumulator();
        self.prev_count = self.evaluator.count();
        let observed = match self.drift_monitor.observe(chunk_error) {
            DriftStatus::Drift => 2,
            DriftStatus::Warning => 1,
            DriftStatus::Stable | DriftStatus::Warmup => 0,
        };
        if observed != self.drift_level {
            let detail = format!("chunk {idx}: {} -> {observed}", self.drift_level);
            metrics.event("drift.level_change", detail);
        }
        self.drift_level = observed;
        metrics.gauge("drift.level").set(f64::from(observed));
    }
}

/// Live WAL state for a run: the append-side writer plus whatever recovery
/// salvaged from the directory at open.
struct WalRuntime {
    writer: WalWriter,
    /// Recovered records a resume reads arrivals from first, which re-orders
    /// late and out-of-order arrivals deterministically. Empty when fresh.
    replay: WalRecovery,
}

/// Opens (recovering first) the configured WAL for a run starting at
/// `start_seq`, past everything durable, so replayed appends are skipped;
/// `keep_replay` feeds recovered records from `start_seq` on to the loop.
fn open_wal(
    env: &RunEnv<'_>,
    clock: &Arc<VirtualClock>,
    start_seq: u64,
    keep_replay: bool,
) -> Result<Option<WalRuntime>, DeploymentError> {
    let Some(wc) = &env.config.wal else {
        return Ok(None);
    };
    let mut replay = WalDir::open(&wc.dir)?.recover()?;
    let clock: Arc<dyn Clock> = Arc::<VirtualClock>::clone(clock);
    let mut writer = WalWriter::open(
        &wc.dir,
        WalOptions {
            fsync_every: wc.fsync_every,
            group_window_secs: wc.group_window_secs,
            segment_bytes: wc.segment_bytes,
            retry: RetryPolicy::default(),
        },
        Arc::clone(&env.hook),
        clock,
        env.metrics.clone(),
        replay.next_seq().max(start_seq),
    )?;
    let keep = |seq: u64| keep_replay && seq >= start_seq;
    replay.chunks.retain(|(seq, _)| keep(*seq));
    let records = replay.chunks.len();
    writer.absorb_recovery(&replay, records as u64);
    if keep_replay {
        let detail = format!("replaying {records} records after chunk {}", start_seq - 1);
        env.metrics.event("wal.recover", detail);
    }
    Ok(Some(WalRuntime { writer, replay }))
}

/// Live telemetry: the ring store, the stateful alert monitors and the
/// optional flight recorder (only with telemetry *and* metrics on).
struct TelemetryRuntime {
    store: TelemetryStore,
    monitor: AlertMonitor,
    slo: SloMonitor,
    recorder: Option<FlightRecorder>,
    alerts: Vec<Alert>,
    every: usize,
    chunks_since: usize,
    flush_every: usize,
    samples_since_flush: usize,
}

impl TelemetryRuntime {
    fn new(
        tc: &TelemetryConfig,
        chunk_period_secs: f64,
        crash: &CrashPoint,
    ) -> Result<Self, DeploymentError> {
        let recorder = (tc.recorder.as_ref())
            .map(|rc| {
                let mut recorder = FlightRecorder::open(&rc.dir, rc.keep)?;
                recorder.set_crash_point(crash.clone());
                Ok(recorder)
            })
            .transpose()
            .map_err(StorageError::Io)?;
        let cooldown = tc.cooldown_secs;
        Ok(Self {
            store: TelemetryStore::new(tc.capacity)
                .with_exclude_prefixes(tc.exclude_prefixes.clone()),
            monitor: AlertMonitor::deployment_defaults(chunk_period_secs).with_cooldown(cooldown),
            slo: SloMonitor::deployment_defaults(tc.serving_p99_budget_secs)
                .with_cooldown(cooldown),
            recorder,
            alerts: Vec::new(),
            every: tc.every_chunks.max(1),
            chunks_since: 0,
            flush_every: (tc.recorder.as_ref())
                .map_or(usize::MAX, |rc| rc.flush_every_samples.max(1)),
            samples_since_flush: 0,
        })
    }

    /// The `obs.sample` stage — μ gauges refreshed, every metric but events
    /// and lineage recorded, the monitors run over it — then a segment once
    /// the flush interval elapsed.
    fn tick(&mut self, stages: Stages<'_>, st: &mut LoopState) -> Result<(), DeploymentError> {
        let metrics = &stages.0.metrics;
        stages.run("obs.sample", st, |st, _| {
            export_mu_gauges(metrics, stages.0.config, st);
            let at_secs = st.sim.now_secs();
            self.chunks_since = 0;
            let snap = metrics.snapshot_values();
            self.store.record(at_secs, &snap);
            let mut fired = self.monitor.observe(&snap, at_secs);
            fired.extend(self.slo.observe(&self.store, at_secs));
            for alert in &fired {
                metrics.event("alert.fired", alert.message());
            }
            self.alerts.extend(fired);
            self.samples_since_flush += 1;
        });
        self.flush(stages, st, self.flush_every)
    }

    /// The `obs.recorder_flush` stage, once at least `pending` samples await
    /// a segment: the flush interval after a sample, 1 at a clean shutdown,
    /// 0 on the way out of a failing run.
    fn flush(
        &mut self,
        stages: Stages<'_>,
        st: &mut LoopState,
        pending: usize,
    ) -> Result<(), DeploymentError> {
        let due = self.samples_since_flush >= pending;
        let Some(rec) = self.recorder.as_mut().filter(|_| due) else {
            return Ok(());
        };
        stages.run("obs.recorder_flush", st, |st, _| {
            rec.flush(&self.store, &self.alerts, st.sim.now_secs())
                .map_err(StorageError::Io)?;
            self.samples_since_flush = 0;
            Ok(())
        })
    }
}

/// The layers around the loop that a checkpoint does not capture: the WAL,
/// the checkpoint directory with its cadence, and live telemetry.
struct Layers {
    wal: Option<WalRuntime>,
    ckpt: Option<(CheckpointDir, usize)>,
    chunks_since_ckpt: usize,
    telemetry: Option<TelemetryRuntime>,
}

/// Chunks `start_idx..total`, each a `deployment.chunk` span over its
/// stages, then the clean shutdown's WAL commit and checkpoint.
fn drive_chunks(
    env: &RunEnv<'_>,
    st: &mut LoopState,
    layers: &mut Layers,
    start_idx: usize,
) -> Result<(), DeploymentError> {
    let (stream, config, metrics) = (env.stream, env.config, &env.metrics);
    let run = env.run_span.context();
    for idx in start_idx..stream.total_chunks() {
        let chunk_span = env.tracer.child_of("deployment.chunk", run);
        let stages = env.stages(&chunk_span);
        // On resume the recovered WAL suffix is authoritative; the stream
        // covers anything the WAL lost or never held.
        let raw = stages.run("stream.arrival", st, |st, _| {
            let recovered = layers.wal.as_ref().and_then(|w| w.replay.chunk(idx as u64));
            let raw = recovered.cloned().unwrap_or_else(|| stream.chunk(idx));
            st.sim.advance_secs(config.chunk_period_secs);
            metrics.counter("deployment.chunks").inc();
            raw
        });
        // The arrival is durable (or buffered toward the next group commit)
        // before any processing touches it.
        if let Some(w) = layers.wal.as_mut() {
            stages.run("wal.append", st, |_, _| w.writer.append(idx as u64, &raw))?;
        }
        // Online statistics, prequential evaluation and online learning.
        st.store_chunk(stages, &raw, |st| {
            stages.run("pm.online", st, |st, _| {
                st.pm
                    .process_online_chunk(&raw, &mut st.evaluator, &mut st.ledger)
            })
        })?;
        stages.run("drift.observe", st, |st, _| st.observe_drift(metrics, idx));
        train(stages, st, idx)?;
        // Online SGD moved the weights even without a training event.
        stages.publish(st, format_args!("chunk {idx}"));
        st.evaluator.checkpoint();
        st.ledger.checkpoint(idx as u64);
        if let Some((dir, every)) = &layers.ckpt {
            layers.chunks_since_ckpt += 1;
            if layers.chunks_since_ckpt >= *every {
                commit_checkpoint(stages, st, dir, layers.wal.as_mut(), idx as u64)?;
                layers.chunks_since_ckpt = 0;
            }
            // Age in checkpoint intervals; above 2.0 it fires an alert.
            let staleness = layers.chunks_since_ckpt as f64 / *every as f64;
            metrics.gauge("checkpoint.staleness").set(staleness);
        }
        // After the checkpoint (so staleness is current), before the crash
        // below (so a crashed run's last flushed sample covers this chunk).
        if let Some(tel) = layers.telemetry.as_mut() {
            tel.chunks_since += 1;
            if tel.chunks_since >= tel.every {
                tel.tick(stages, st)?;
            }
        }
        // Killed at the chunk boundary, after any due checkpoint write.
        if env.hook.crash_now(CrashSite::ChunkBoundary) {
            return Err(DeploymentError::Crashed(CrashSite::ChunkBoundary));
        }
    }
    // Clean shutdown: every arrival durable, and the final state unless the
    // last periodic checkpoint covered it (or nothing was processed).
    let shutdown = env.stages(&env.run_span);
    if let Some(w) = layers.wal.as_mut() {
        shutdown.run("wal.append", st, |_, _| w.writer.flush())?;
    }
    if let Some((dir, _)) = &layers.ckpt {
        if layers.chunks_since_ckpt > 0 {
            let last = stream.total_chunks() as u64 - 1;
            commit_checkpoint(shutdown, st, dir, layers.wal.as_mut(), last)?;
        }
        metrics.gauge("checkpoint.staleness").set(0.0);
    }
    Ok(())
}

/// The mode's training stage — a mode *is* its training stage. Online has
/// none; Periodical retrains every `retrain_every` chunks
/// (`deployment.retrain`); Continuous asks its scheduler (`schedule`) and
/// on a fire trains proactively (`proactive.fire` ⊃ `dm.sample`). A training
/// event publishes its model at once.
fn train(stages: Stages<'_>, st: &mut LoopState, idx: usize) -> Result<(), DeploymentError> {
    let env = stages.0;
    let (spec, metrics) = (env.spec, &env.metrics);
    st.chunks_since_training += 1;
    match env.config.mode {
        DeploymentMode::Online => {}
        DeploymentMode::Periodical {
            retrain_every,
            warm_start,
        } => {
            if st.chunks_since_training < retrain_every.max(1) {
                return Ok(());
            }
            stages.run("deployment.retrain", st, |st, retrain| {
                st.chunks_since_training = 0;
                st.last_training_at_secs = st.sim.now_secs();
                st.retrain_runs += 1;
                metrics.counter("deployment.retrains").inc();
                let _timer = metrics.span("deployment.retrain_secs");
                let history = st.dm.full_history();
                if warm_start {
                    st.pm.retrain_warm(&history, &spec.sgd, &mut st.ledger);
                } else {
                    // Cold restart: fresh pipeline statistics and model,
                    // fitted on the raw chunks alone.
                    st.pm = env.fresh_manager()?;
                    st.pm.set_trace_scope(retrain.1);
                    let raws: Vec<RawChunk> = history.into_iter().map(|(raw, _)| raw).collect();
                    st.pm.initial_fit(&raws, &spec.sgd, &mut st.ledger);
                }
                Ok::<_, DeploymentError>(())
            })?;
            stages.publish(st, "retrain");
        }
        DeploymentMode::Continuous {
            scheduler,
            sample_chunks,
            ..
        } => {
            if !stages.run("schedule", st, |st, _| schedule(env, scheduler, st, idx)) {
                return Ok(());
            }
            stages.run("proactive.fire", st, |st, fire| {
                let sampled = fire.run("dm.sample", st, |st, _| st.dm.sample(sample_chunks));
                st.pm.set_trace_scope(fire.1);
                let outcome = st
                    .proactive
                    .try_execute(&mut st.pm, sampled, &mut st.ledger)?;
                let remat = outcome.rematerialized_chunks;
                for (name, count) in [
                    ("proactive.runs", 1),
                    ("proactive.materialized_chunks", outcome.materialized_chunks),
                    ("proactive.spilled_chunks", outcome.spilled_chunks),
                    ("proactive.rematerialized_chunks", remat),
                    ("proactive.points", outcome.points),
                ] {
                    metrics.counter(name).add(count as u64);
                }
                if let Some(loss) = outcome.batch_loss {
                    metrics.gauge("proactive.batch_loss").set(loss);
                }
                let secs = outcome.accounted_secs;
                metrics.histogram("proactive.accounted_secs").observe(secs);
                st.last_training_secs = secs;
                st.proactive_secs_sum += secs;
                st.proactive_runs += 1;
                Ok::<_, DeploymentError>(())
            })?;
            // The paper's operational point: proactive training hands a new
            // model to the serving layer within the same chunk.
            stages.publish(st, "proactive");
        }
    }
    Ok(())
}

/// The `schedule` stage: Eq. 6's live inputs as gauges, then whether
/// `scheduler` fires on chunk `idx` — restarting the cadence if it does.
fn schedule(env: &RunEnv<'_>, scheduler: Scheduler, st: &mut LoopState, idx: usize) -> bool {
    let (period, metrics) = (env.config.chunk_period_secs, &env.metrics);
    let queries = st.evaluator.count().max(1);
    let ctx = SchedulerContext {
        chunk_period_secs: period,
        last_training_secs: st.last_training_secs,
        avg_prediction_latency: st.ledger.phase(Phase::Prediction) / queries as f64,
        prediction_rate: queries as f64 / ((idx + 1) as f64 * period),
        elapsed_secs: st.sim.now_secs() - st.last_training_at_secs,
        chunks_since_last: st.chunks_since_training,
        drift_level: st.drift_level,
    };
    let gauge = |name, value| metrics.gauge(name).set(value);
    gauge("scheduler.t_secs", ctx.last_training_secs);
    gauge("scheduler.pr", ctx.prediction_rate);
    gauge("scheduler.pl", ctx.avg_prediction_latency);
    if !scheduler.should_fire(&ctx) {
        metrics.counter("scheduler.skips").inc();
        return false;
    }
    metrics.counter("scheduler.fires").inc();
    // How long past the Eq. 6 interval the platform waited before firing
    // (0 = fired exactly on schedule).
    if let Scheduler::Dynamic { slack } = scheduler {
        let interval = Scheduler::dynamic_interval_secs(slack, &ctx);
        if interval.is_finite() {
            let bounds = [0.0, 1.0, 10.0, 60.0, 600.0, 3600.0];
            let margin = metrics.histogram_with_bounds("scheduler.fire_margin_secs", &bounds);
            margin.observe(ctx.elapsed_secs - interval);
        }
    }
    st.chunks_since_training = 0;
    st.last_training_at_secs = st.sim.now_secs();
    true
}

/// The observed materialization utilization μ and its Eq. 4/5 predictions
/// (chunk-count budgets only) as gauges, at every telemetry sample, so
/// `slo.mu_divergence_burn` watches a live signal, and at the run's end.
fn export_mu_gauges(metrics: &Metrics, config: &DeploymentConfig, st: &LoopState) {
    if !metrics.is_enabled() {
        return;
    }
    let observed = st.dm.stats().utilization_rate();
    metrics.gauge("pm.mu_observed").set(observed);
    let total_n = st.dm.chunk_count();
    let capacity_m = match config.optimization.budget {
        StorageBudget::MaxChunks(m) => Some(m.min(total_n)),
        StorageBudget::Unbounded => Some(total_n),
        StorageBudget::MaxBytes(_) => None,
    };
    if let Some(m) = capacity_m {
        metrics.gauge("pm.mu_uniform").set(mu_uniform(m, total_n));
        if let SamplingStrategy::WindowBased { window } = config.mode.strategy() {
            if total_n > 0 {
                let w = window.clamp(1, total_n);
                metrics.gauge("pm.mu_window").set(mu_window(m, w, total_n));
            }
        }
    }
}

/// The `checkpoint.encode` and `checkpoint.write` ⊃ `wal.gc` stages after
/// chunk `idx`: the file, pinned against pruning, owns every arrival up to
/// `idx`, and the WAL segments it covers retire. Its metrics snapshot
/// predates this write's own `checkpoint.*` accounting.
fn commit_checkpoint(
    stages: Stages<'_>,
    st: &mut LoopState,
    dir: &CheckpointDir,
    wal: Option<&mut WalRuntime>,
    idx: u64,
) -> Result<(), DeploymentError> {
    let (env, metrics) = (stages.0, &stages.0.metrics);
    let payload = stages.run("checkpoint.encode", st, |st, _| {
        st.to_checkpoint(idx, env).encode()
    });
    stages.run("checkpoint.write", st, |st, write| {
        let span = metrics.span("checkpoint.write_secs");
        let bytes = dir.write(idx, &payload)?;
        span.finish();
        metrics.counter("checkpoint.writes").inc();
        metrics.counter("checkpoint.write_bytes").add(bytes);
        st.checkpoint_stats.writes += 1;
        st.checkpoint_stats.bytes_written += bytes;
        dir.pin(idx);
        if let Some(w) = wal {
            write.run("wal.gc", st, |_, _| w.writer.gc(idx))?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{taxi_spec, url_spec, SpecScale};

    fn tiny_url() -> (cdp_datagen::url::UrlGenerator, DeploymentSpec) {
        url_spec(SpecScale::Tiny)
    }

    fn tiny_taxi() -> (cdp_datagen::taxi::TaxiGenerator, DeploymentSpec) {
        taxi_spec(SpecScale::Tiny)
    }

    #[test]
    fn online_deployment_runs_and_learns() {
        let (stream, spec) = tiny_url();
        let result = run_deployment(&stream, &spec, &DeploymentConfig::online());
        assert_eq!(result.approach, "Online");
        assert!(result.queries_answered > 0);
        assert!(result.final_error < 0.5, "error {}", result.final_error);
        assert_eq!(result.proactive_runs, 0);
        assert_eq!(result.retrain_runs, 0);
        assert!(result.total_secs > 0.0);
        assert_eq!(result.error_curve.len(), result.cost_curve.len());
    }

    #[test]
    fn continuous_runs_proactive_training() {
        let (stream, spec) = tiny_url();
        let config = DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased);
        let result = run_deployment(&stream, &spec, &config);
        assert!(result.proactive_runs > 0);
        assert!(result.avg_proactive_secs > 0.0);
        assert!(result.empirical_mu > 0.9, "unbounded budget ⇒ μ ≈ 1");
    }

    #[test]
    fn periodical_retrains_and_costs_more_than_continuous() {
        let (stream, spec) = tiny_url();
        let periodical = run_deployment(&stream, &spec, &DeploymentConfig::periodical(5));
        assert!(periodical.retrain_runs > 0);
        let continuous = run_deployment(
            &stream,
            &spec,
            &DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased),
        );
        assert!(
            periodical.total_secs > continuous.total_secs,
            "periodical {} must exceed continuous {}",
            periodical.total_secs,
            continuous.total_secs
        );
        let online = run_deployment(&stream, &spec, &DeploymentConfig::online());
        assert!(continuous.total_secs > online.total_secs);
    }

    #[test]
    fn limited_budget_lowers_mu() {
        let (stream, spec) = tiny_url();
        let mut config = DeploymentConfig::continuous(2, 4, SamplingStrategy::Uniform);
        config.optimization.budget = StorageBudget::MaxChunks(5);
        let result = run_deployment(&stream, &spec, &config);
        assert!(result.empirical_mu < 1.0);
        assert!(result.store_stats.feature_misses > 0);
    }

    #[test]
    fn no_optimization_costs_more() {
        let (stream, spec) = tiny_url();
        let base = DeploymentConfig::continuous(2, 4, SamplingStrategy::TimeBased);
        let with_opt = run_deployment(&stream, &spec, &base);
        let mut no_opt_cfg = base;
        no_opt_cfg.optimization.online_stats = false;
        let without = run_deployment(&stream, &spec, &no_opt_cfg);
        assert!(
            without.total_secs > with_opt.total_secs,
            "NoOptimization {} must exceed optimized {}",
            without.total_secs,
            with_opt.total_secs
        );
    }

    #[test]
    fn taxi_deployment_regression_error_reasonable() {
        let (stream, spec) = tiny_taxi();
        let result = run_deployment(
            &stream,
            &spec,
            &DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform),
        );
        // RMSLE on log1p(duration): the constant predictor sits around 6.5;
        // anything below 1.0 means the model learned structure.
        assert!(result.final_error < 1.0, "RMSLE = {}", result.final_error);
    }

    #[test]
    fn deterministic_given_seed() {
        let (stream, spec) = tiny_url();
        let config = DeploymentConfig::continuous(3, 2, SamplingStrategy::Uniform);
        let a = run_deployment(&stream, &spec, &config);
        let b = run_deployment(&stream, &spec, &config);
        assert_eq!(a.final_error, b.final_error);
        assert_eq!(a.total_secs, b.total_secs);
        assert_eq!(a.proactive_runs, b.proactive_runs);
    }

    #[test]
    fn drift_adaptive_mode_runs_end_to_end() {
        let (stream, spec) = tiny_url();
        let mut config = DeploymentConfig::online();
        config.mode = DeploymentMode::Continuous {
            scheduler: Scheduler::DriftAdaptive { every_chunks: 4 },
            sample_chunks: 3,
            strategy: SamplingStrategy::TimeBased,
        };
        let result = run_deployment(&stream, &spec, &config);
        assert!(result.proactive_runs > 0);
        assert!(result.final_error < 0.5);
        // Never more than one training per chunk.
        assert!(result.proactive_runs <= (stream.total_chunks() - stream.initial_chunks()) as u64);
    }

    #[test]
    fn threaded_engine_reproduces_sequential_deployment() {
        // All three deployment modes must be bit-identical across engines:
        // same prequential error curve, same model weights, same accounted
        // cost. Parallelism only changes wall-clock time.
        let (stream, spec) = tiny_url();
        let mut limited_continuous = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
        // A bounded cache forces re-materialization through the engine.
        limited_continuous.optimization.budget = StorageBudget::MaxChunks(5);
        let configs = [
            DeploymentConfig::online(),
            DeploymentConfig::periodical(5),
            DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased),
            limited_continuous,
        ];
        for base in configs {
            let sequential = run_deployment(&stream, &spec, &base);
            let mut threaded_cfg = base.clone();
            threaded_cfg.engine = ExecutionEngine::Threaded { workers: 4 };
            let threaded = run_deployment(&stream, &spec, &threaded_cfg);
            let mode = base.mode.name();
            assert_eq!(
                sequential.final_error.to_bits(),
                threaded.final_error.to_bits(),
                "{mode}: final error"
            );
            assert_eq!(
                sequential.error_curve, threaded.error_curve,
                "{mode}: error curve"
            );
            assert_eq!(
                sequential.final_weights, threaded.final_weights,
                "{mode}: model weights"
            );
            assert_eq!(
                sequential.total_secs.to_bits(),
                threaded.total_secs.to_bits(),
                "{mode}: accounted cost"
            );
            assert_eq!(sequential.retrain_runs, threaded.retrain_runs);
            assert_eq!(sequential.proactive_runs, threaded.proactive_runs);
        }
    }

    #[test]
    fn cold_restart_differs_from_warm() {
        let (stream, spec) = tiny_url();
        let warm = run_deployment(&stream, &spec, &DeploymentConfig::periodical(5));
        let mut cold_cfg = DeploymentConfig::periodical(5);
        cold_cfg.mode = DeploymentMode::Periodical {
            retrain_every: 5,
            warm_start: false,
        };
        let cold = run_deployment(&stream, &spec, &cold_cfg);
        assert_eq!(warm.retrain_runs, cold.retrain_runs);
        // Cold restarts refit statistics (update passes) — strictly more work.
        assert!(cold.preprocessing_secs > warm.preprocessing_secs);
    }

    /// A stream that delivers its `repeat_at`-th chunk a second time: the
    /// store refuses the duplicate timestamp, an error no crash site makes.
    struct Stutter<S> {
        inner: S,
        repeat_at: usize,
    }

    impl<S: ChunkStream> ChunkStream for Stutter<S> {
        fn schema(&self) -> Arc<cdp_storage::Schema> {
            self.inner.schema()
        }

        fn total_chunks(&self) -> usize {
            self.inner.total_chunks()
        }

        fn initial_chunks(&self) -> usize {
            self.inner.initial_chunks()
        }

        fn chunk(&self, index: usize) -> cdp_storage::RawChunk {
            let repeat = index == self.repeat_at + 1;
            self.inner.chunk(index - usize::from(repeat))
        }
    }

    #[test]
    fn any_error_leaving_the_loop_flushes_the_recorder_first() {
        let (inner, spec) = tiny_url();
        let repeat_at = inner.initial_chunks() + 4;
        let stream = Stutter { inner, repeat_at };
        let dir = std::env::temp_dir().join(format!("cdp-any-error-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A flush interval the run never reaches: whatever lands on disk was
        // written on the way out.
        let recorder = RecorderConfig::new(&dir).flush_every(1_000);
        let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
        config.collect_metrics = true;
        config.telemetry = Some(TelemetryConfig::new().recorder(recorder));
        let failed = try_run_deployment(&stream, &spec, &config);
        assert!(matches!(
            failed,
            Err(DeploymentError::Storage(StorageError::DuplicateTimestamp(
                _
            )))
        ));
        let scan = cdp_obs::load_segments(&dir, 1).expect("readable recorder directory");
        let segment = scan
            .segments
            .first()
            .expect("a segment the failing run flushed");
        assert_eq!(
            segment.samples, 5,
            "one sample per chunk before the duplicate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
