//! End-to-end integration tests spanning all crates: the paper's headline
//! claims at test scale.

use std::sync::{Arc, Mutex};

use cdpipe::core::presets::url_spec_from;
use cdpipe::core::{DataManager, PipelineManager, ProactiveTrainer};
use cdpipe::datagen::url::UrlConfig;
use cdpipe::engine::ExecutionEngine;
use cdpipe::eval::{CostLedger, PrequentialEvaluator};
use cdpipe::obs::durable::Format;
use cdpipe::prelude::*;
use cdpipe::storage::{
    CheckpointDir, FeatureSource, RawChunk, Record, Schema, Value, ValueRef, CHECKPOINT_SCHEMA,
};

/// A mid-size URL run used by several tests (larger than `Tiny`, much
/// smaller than `Repo`).
fn small_url() -> (cdpipe::datagen::url::UrlGenerator, DeploymentSpec) {
    let config = UrlConfig {
        days: 12,
        chunks_per_day: 4,
        rows_per_chunk: 30,
        base_vocab: 1_000,
        vocab_growth_per_day: 40,
        tokens_per_row: 10,
        lexical_features: 8,
        drift_per_day: 0.05,
        ..UrlConfig::repo_scale()
    };
    url_spec_from(config, 10, SpecScale::Tiny)
}

#[test]
fn headline_continuous_cheaper_than_periodical_same_quality() {
    let (stream, spec) = small_url();
    let continuous = run_deployment(
        &stream,
        &spec,
        &DeploymentConfig::continuous(3, 4, SamplingStrategy::TimeBased),
    );
    let periodical = run_deployment(&stream, &spec, &DeploymentConfig::periodical(8));
    let online = run_deployment(&stream, &spec, &DeploymentConfig::online());

    // The paper's Figure 4 shape: cost(periodical) ≫ cost(continuous) ≳
    // cost(online).
    assert!(
        periodical.total_secs / continuous.total_secs > 2.0,
        "periodical {:.4}s vs continuous {:.4}s",
        periodical.total_secs,
        continuous.total_secs
    );
    assert!(continuous.total_secs >= online.total_secs);

    // Quality: continuous must be comparable to periodical (within 2% abs)
    // and at least as good as online.
    assert!(
        continuous.final_error <= periodical.final_error + 0.02,
        "continuous {:.4} vs periodical {:.4}",
        continuous.final_error,
        periodical.final_error
    );
    assert!(
        continuous.final_error <= online.final_error + 1e-9,
        "continuous {:.4} vs online {:.4}",
        continuous.final_error,
        online.final_error
    );
}

#[test]
fn proactive_training_is_subsecond() {
    // Paper §5.5: average proactive-training time is ~200 ms (URL) — the
    // platform never blocks queries for long. Accounted time per instance
    // at this scale must stay well below one simulated second.
    let (stream, spec) = small_url();
    let result = run_deployment(
        &stream,
        &spec,
        &DeploymentConfig::continuous(3, 4, SamplingStrategy::TimeBased),
    );
    assert!(result.proactive_runs >= 10);
    assert!(
        result.avg_proactive_secs < 1.0,
        "avg proactive {:.4}s",
        result.avg_proactive_secs
    );
}

#[test]
fn materialization_budget_trades_cost_for_memory() {
    let (stream, spec) = small_url();
    let base = DeploymentConfig::continuous(2, 6, SamplingStrategy::Uniform);

    let mut zero = base.clone();
    zero.optimization.budget = StorageBudget::MaxChunks(0);
    let rate_0 = run_deployment(&stream, &spec, &zero);

    let mut partial = base.clone();
    partial.optimization.budget = StorageBudget::MaxChunks(stream.total_chunks() / 5);
    let rate_02 = run_deployment(&stream, &spec, &partial);

    let full = run_deployment(&stream, &spec, &base);

    // Figure 7 shape: cost decreases monotonically with materialization.
    assert!(rate_0.total_secs > rate_02.total_secs);
    assert!(rate_02.total_secs > full.total_secs);
    // μ follows: 0 at rate 0, 1 at rate 1, in between otherwise.
    assert_eq!(rate_0.empirical_mu, 0.0);
    assert!(rate_02.empirical_mu > 0.0 && rate_02.empirical_mu < 1.0);
    assert!(full.empirical_mu > 0.999);
    // Quality is essentially unaffected by materialization: it is a cost
    // optimization. (Not bit-identical — a re-materialized chunk is
    // transformed with the *current* component statistics, while a cached
    // feature chunk froze the statistics of its storage time. The paper's
    // Spark-cache prototype has the same property.)
    assert!(
        (rate_0.final_error - full.final_error).abs() < 0.03,
        "rate-0 error {:.4} vs fully-materialized error {:.4}",
        rate_0.final_error,
        full.final_error
    );
}

#[test]
fn online_statistics_computation_saves_cost_not_quality() {
    let (stream, spec) = small_url();
    let base = DeploymentConfig::continuous(2, 6, SamplingStrategy::TimeBased);
    let with_opt = run_deployment(&stream, &spec, &base);
    let mut no_opt = base;
    no_opt.optimization.online_stats = false;
    no_opt.optimization.budget = StorageBudget::MaxChunks(0);
    let without = run_deployment(&stream, &spec, &no_opt);
    assert!(without.total_secs > with_opt.total_secs * 1.3);
    assert!((without.final_error - with_opt.final_error).abs() < 0.02);
}

#[test]
fn taxi_pipeline_full_deployment() {
    let (stream, spec) = taxi_spec(SpecScale::Tiny);
    let continuous = run_deployment(
        &stream,
        &spec,
        &DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform),
    );
    let online = run_deployment(&stream, &spec, &DeploymentConfig::online());
    // Regression quality: both beat the constant-zero predictor (RMSLE ≈
    // 6.5) by a wide margin; continuous is at least as good as online.
    assert!(continuous.final_error < 1.0);
    assert!(online.final_error < 1.5);
    assert!(continuous.final_error <= online.final_error + 0.05);
}

#[test]
fn dynamic_scheduler_runs_and_respects_slack() {
    let (stream, spec) = small_url();
    let mode = |slack| DeploymentMode::Continuous {
        scheduler: Scheduler::Dynamic { slack },
        sample_chunks: 4,
        strategy: SamplingStrategy::TimeBased,
    };
    let mut tight = DeploymentConfig::online();
    tight.mode = mode(1.0);
    let mut loose = DeploymentConfig::online();
    loose.mode = mode(1000.0);
    // Make intervals meaningful relative to the chunk period.
    tight.chunk_period_secs = 1e-4;
    loose.chunk_period_secs = 1e-4;

    let tight_result = run_deployment(&stream, &spec, &tight);
    let loose_result = run_deployment(&stream, &spec, &loose);
    assert!(tight_result.proactive_runs >= loose_result.proactive_runs);
    assert!(tight_result.proactive_runs > 0);
}

/// The fault plan the sweep tests run under: the CI fault matrix sets
/// `CDP_FAULT_SEED` (two fixed seeds); local runs default to a fixed chaos
/// seed so the tests are never fault-free.
fn sweep_plan() -> FaultPlan {
    FaultPlan::from_env().unwrap_or_else(|| FaultPlan::chaos(7))
}

/// A continuous deployment that exercises every fault site: a bounded cache
/// forces evictions (engine re-materialization) and the disk spill tier
/// gives injected I/O faults a real surface.
fn faulted_continuous() -> DeploymentConfig {
    let mut config = DeploymentConfig::continuous(2, 4, SamplingStrategy::Uniform);
    config.optimization.budget = StorageBudget::MaxChunks(5);
    config.spill_to_disk = true;
    config.faults = sweep_plan();
    config
}

#[test]
fn fault_sweep_no_mode_panics() {
    // Mode (a): all three deployment modes complete under the fault plan —
    // faults become typed errors or recovered events, never process panics.
    let (stream, spec) = small_url();
    let mut online = DeploymentConfig::online();
    online.faults = sweep_plan();
    let mut periodical = DeploymentConfig::periodical(8);
    periodical.faults = sweep_plan();
    for config in [online, periodical, faulted_continuous()] {
        let result = try_run_deployment(&stream, &spec, &config);
        assert!(
            result.is_ok(),
            "{} under seed {} must recover: {:?}",
            config.mode.name(),
            config.faults.seed,
            result.err()
        );
    }
}

#[test]
fn fault_sweep_is_deterministic_across_reruns() {
    // Mode (b): the same fault seed produces a bit-identical deployment —
    // same weights, same error curve, same injected-fault accounting.
    let (stream, spec) = small_url();
    let config = faulted_continuous();
    let a = try_run_deployment(&stream, &spec, &config).expect("recoverable plan");
    let b = try_run_deployment(&stream, &spec, &config).expect("recoverable plan");
    assert_eq!(a.final_weights, b.final_weights);
    assert_eq!(a.error_curve, b.error_curve);
    assert_eq!(a.final_error.to_bits(), b.final_error.to_bits());
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.tiered_stats, b.tiered_stats);
}

#[test]
fn fault_sweep_injects_and_recovers() {
    // Mode (c): the plan actually fires, and the platform visibly recovers.
    let (stream, spec) = small_url();
    let result =
        try_run_deployment(&stream, &spec, &faulted_continuous()).expect("recoverable plan");
    let stats = result.fault_stats;
    assert!(
        stats.injected_total() > 0,
        "plan must inject faults: {stats}"
    );
    assert!(stats.recovered > 0, "recovery must be observable: {stats}");
    assert!(
        stats.retries > 0,
        "disk faults must trigger retries: {stats}"
    );
    assert_eq!(stats.fatal, 0, "plan must stay within budgets: {stats}");
}

/// FNV-1a: names one byte sequence.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the exact bit patterns: names one float sequence.
fn bits_digest(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv1a(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

#[test]
fn chaos_runs_match_the_commit_before_the_spill_log() {
    // Recorded at the parent of the commit that turned the spill tier into
    // an append-only log and swapped the CRC kernel: same fault decisions at
    // the same (op, ts, attempt) keys, same bytes back from every spill
    // read, so the same model and the same accounting — on either engine.
    // (The float digests were taken on x86-64 Linux; a libm that rounds
    // `exp` differently moves those two, never the integer counters.)
    let recorded = [(7u64, PARENT_SEED_7), (104_729, PARENT_SEED_104729)];
    let (stream, spec) = small_url();
    for (seed, expected) in recorded {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 4 },
        ] {
            let mut config = faulted_continuous();
            config.faults = FaultPlan::chaos(seed);
            config.engine = engine;
            let r = try_run_deployment(&stream, &spec, &config).expect("recoverable plan");
            let got = format!(
                "weights {:016x} curve {:016x} | {:?} | {:?}",
                bits_digest(r.final_weights.iter().copied()),
                bits_digest(r.error_curve.iter().map(|&(_, e)| e)),
                r.fault_stats,
                r.tiered_stats
            );
            assert_eq!(got, expected, "seed {seed} on {engine:?}");
        }
    }
}

const PARENT_SEED_7: &str = "weights 34b8413889d85f04 curve a700bbd76fd5cf26 | \
    FaultStats { injected_disk_read: 12, injected_disk_write: 11, injected_corruption: 7, \
    injected_worker_panics: 0, injected_delays: 1, injected_crashes: 0, retries: 30, \
    recovered: 22, fallback_rematerializations: 0, lost_spills: 0, fatal: 0 } | \
    TieredStats { memory_hits: 26, disk_hits: 62, recomputes: 0, spills: 43, \
    read_fallbacks: 0, lost_spills: 0 }";
const PARENT_SEED_104729: &str = "weights 43d3583a28dad1bc curve a700bbd76fd5cf26 | \
    FaultStats { injected_disk_read: 15, injected_disk_write: 7, injected_corruption: 5, \
    injected_worker_panics: 1, injected_delays: 0, injected_crashes: 0, retries: 27, \
    recovered: 22, fallback_rematerializations: 1, lost_spills: 0, fatal: 0 } | \
    TieredStats { memory_hits: 26, disk_hits: 61, recomputes: 0, spills: 43, \
    read_fallbacks: 1, lost_spills: 0 }";

/// One run's outcome as a line: float sequences as digests, counters whole.
fn run_digest(r: &DeploymentResult) -> String {
    format!(
        "weights {:016x} curve {:016x} cost {:016x} ledger {:016x} | {:?}",
        bits_digest(r.final_weights.iter().copied()),
        bits_digest(r.error_curve.iter().map(|&(_, e)| e)),
        bits_digest(r.cost_curve.iter().map(|&(_, c)| c)),
        bits_digest([
            r.preprocessing_secs,
            r.training_secs,
            r.prediction_secs,
            r.io_secs,
            r.total_secs
        ]),
        r.store_stats
    )
}

#[test]
fn tiny_runs_match_the_commit_before_the_column_pipeline() {
    // Recorded at the parent of the commit that replaced the row-at-a-time
    // pipeline with column kernels: the same features in the same row order
    // reach the same trainer, so weights, error curve, cost ledger and store
    // counters are unchanged — fault-free and under chaos, on either engine.
    // (Float digests taken on x86-64 Linux; see the spill-log pins above.)
    let (url_gen, url) = url_spec(SpecScale::Tiny);
    let (taxi_gen, taxi) = taxi_spec(SpecScale::Tiny);
    let streams: [(&dyn ChunkStream, &DeploymentSpec, [&str; 2]); 2] = [
        (&url_gen, &url, [PARENT_URL_TINY, PARENT_URL_TINY_CHAOS]),
        (&taxi_gen, &taxi, [PARENT_TAXI_TINY, PARENT_TAXI_TINY_CHAOS]),
    ];
    for (stream, spec, [clean, chaos]) in streams {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 4 },
        ] {
            let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
            config.optimization.budget = StorageBudget::MaxChunks(3);
            config.engine = engine;
            let r = try_run_deployment(stream, spec, &config).expect("fault-free run");
            assert_eq!(run_digest(&r), clean, "{} on {engine:?}", spec.name);

            config.spill_to_disk = true;
            config.faults = FaultPlan::chaos(104_729);
            let r = try_run_deployment(stream, spec, &config).expect("recoverable plan");
            let got = format!("{} | {:?}", run_digest(&r), r.tiered_stats);
            assert_eq!(got, chaos, "{} chaos on {engine:?}", spec.name);
        }
    }
}

const PARENT_URL_TINY: &str = "weights 407419cd887dacb7 curve d98c448ed97f9189 cost ccd93344f1c866c8 ledger 9c6ad5061095957f | \
    StoreStats { raw_puts: 15, feature_puts: 15, evictions: 15, \
    bytes_evicted: 66396, feature_hits: 8, feature_misses: 13, unavailable: 0, \
    compactions: 0, gc_runs: 15 }";
const PARENT_URL_TINY_CHAOS: &str = "weights 94d5bb0946a490b7 curve d98c448ed97f9189 cost 36655b0cb1b51d5d ledger 42eb0785fce8e6d7 | \
    StoreStats { raw_puts: 15, feature_puts: 15, evictions: 15, \
    bytes_evicted: 66396, feature_hits: 8, feature_misses: 13, unavailable: 0, \
    compactions: 0, gc_runs: 15 } | \
    TieredStats { memory_hits: 8, disk_hits: 13, recomputes: 0, spills: 15, \
    read_fallbacks: 0, lost_spills: 0 }";
const PARENT_TAXI_TINY: &str = "weights 9433fcdc34dc47b4 curve 0aff37eb329d6686 cost 2bbe001bac5056a4 ledger 9bf249b25f055fbf | \
    StoreStats { raw_puts: 24, feature_puts: 24, evictions: 24, \
    bytes_evicted: 67296, feature_hits: 8, feature_misses: 28, unavailable: 0, \
    compactions: 0, gc_runs: 24 }";
const PARENT_TAXI_TINY_CHAOS: &str = "weights 6177b13f359ee1ff curve 37dad24ae617c169 cost 3d9659b7f16400fb ledger 1680d4b6f67bb31f | \
    StoreStats { raw_puts: 24, feature_puts: 24, evictions: 24, \
    bytes_evicted: 67296, feature_hits: 8, feature_misses: 28, unavailable: 0, \
    compactions: 0, gc_runs: 24 } | \
    TieredStats { memory_hits: 8, disk_hits: 27, recomputes: 0, spills: 27, \
    read_fallbacks: 1, lost_spills: 0 }";

/// A URL stream long enough for the optimizer to pass step 356 halfway
/// through the deployment phase (a step per chunk and one per fire, after at
/// most 15 of the initial fit), at a hash width that keeps it to a second.
fn long_url() -> (cdpipe::datagen::url::UrlGenerator, DeploymentSpec) {
    let config = UrlConfig {
        days: 61,
        chunks_per_day: 6,
        rows_per_chunk: 12,
        base_vocab: 300,
        vocab_growth_per_day: 5,
        tokens_per_row: 6,
        lexical_features: 4,
        drift_per_day: 0.05,
        ..UrlConfig::repo_scale()
    };
    url_spec_from(config, 8, SpecScale::Tiny)
}

#[test]
fn long_url_run_matches_the_commit_before_the_sweep() {
    // Recorded at the parent of the commit that fused the clearing, scaling,
    // penalty and optimizer passes into one sweep. The Tiny specs stop at 37
    // optimizer steps; this run goes on past step 356, from which Adam's
    // first bias correction is exactly 1.0 and the sweep no longer divides
    // by it — online steps and fires on both sides of that step. (The
    // ledger digest takes in `total_secs`.)
    let (stream, spec) = long_url();
    for engine in [
        ExecutionEngine::Sequential,
        ExecutionEngine::Threaded { workers: 4 },
    ] {
        let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::TimeBased);
        config.engine = engine;
        let r = try_run_deployment(&stream, &spec, &config).expect("fault-free run");
        let chunks = stream.deployment_range().len() as u64;
        let fit_steps = r.initial_report.steps;
        assert!(
            fit_steps < 100 && fit_steps + chunks + r.proactive_runs > 500,
            "step 356 must fall inside the deployment phase: \
             {fit_steps} + {chunks} + {}",
            r.proactive_runs
        );
        assert_eq!(run_digest(&r), PARENT_URL_LONG, "on {engine:?}");
    }
}

const PARENT_URL_LONG: &str = "weights 82ae619348251be4 curve 9b903e94a6aa34e7 cost 819449e3342fbb76 ledger 4e87ab8ff49c7f9d | \
    StoreStats { raw_puts: 360, feature_puts: 360, evictions: 0, \
    bytes_evicted: 0, feature_hits: 540, feature_misses: 0, unavailable: 0, \
    compactions: 0, gc_runs: 0 }";

#[test]
fn taxi_checkpoint_bytes_match_the_commit_before_the_column_pipeline() {
    // The newest checkpoint of a Taxi Tiny run, compared whole: component
    // statistics, pipeline counters, stored slabs, model and optimizer state
    // all serialize to the bytes the row pipeline's run wrote.
    let dir = std::env::temp_dir().join(format!("cdp-e2e-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (stream, spec) = taxi_spec(SpecScale::Tiny);
    let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    config.optimization.budget = StorageBudget::MaxChunks(3);
    config.checkpoint = Some(CheckpointConfig::new(&dir).every(5).keep(1));
    try_run_deployment(&stream, &spec, &config).expect("fault-free run");
    let (seq, _, payload) = cdpipe::storage::CheckpointDir::open(&dir, 1)
        .and_then(|d| d.latest_valid_versioned())
        .expect("checkpoint directory reads")
        .expect("the run wrote a checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (seq, payload.len(), fnv1a(payload.iter().copied())),
        PARENT_TAXI_CHECKPOINT,
        "(sequence, bytes, FNV-1a of the payload)"
    );
}

const PARENT_TAXI_CHECKPOINT: (u64, usize, u64) = (29, 2042, 12_716_492_452_756_378_539);

/// `(name, bytes, FNV-1a)` of every file in `dir` whose name `keep` accepts,
/// in name order.
fn file_pins(dir: &std::path::Path, keep: impl Fn(&str) -> bool) -> Vec<(String, usize, u64)> {
    let mut pins: Vec<(String, usize, u64)> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("a file name");
            let bytes = std::fs::read(&path).expect("readable file");
            let name = name.to_string_lossy().into_owned();
            (name, bytes.len(), fnv1a(bytes))
        })
        .filter(|(name, _, _)| keep(name))
        .collect();
    pins.sort();
    pins
}

/// One small run with every durable format on, killed at a chunk boundary
/// well past its newest checkpoint so the WAL keeps the segments that
/// checkpoint does not cover; its files land under a fresh `root` named for
/// `tag`, which the caller removes. Metrics run on a virtual clock, so the
/// checkpoint's embedded snapshot and the recorder's series are pure data.
fn crashed_durable_run(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("cdp-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (stream, spec) = taxi_spec(SpecScale::Tiny);
    let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    config.optimization.budget = StorageBudget::MaxChunks(3);
    config.wal = Some(
        WalConfig::new(root.join("wal"))
            .fsync_every(2)
            .group_window(0.0)
            .segment_bytes(1),
    );
    config.checkpoint = Some(CheckpointConfig::new(root.join("ckpt")).every(6).keep(2));
    let recorder = RecorderConfig {
        keep: 2,
        ..RecorderConfig::new(root.join("rec")).flush_every(4)
    };
    config.telemetry = Some(TelemetryConfig::new().recorder(recorder));
    config.faults = FaultPlan {
        crash_site: Some(CrashSite::ChunkBoundary),
        crash_at: 22,
        ..FaultPlan::none()
    };
    let ctx = cdpipe::engine::RunCtx {
        metrics: Metrics::with_clock(Arc::new(VirtualClock::new())),
        ..cdpipe::engine::RunCtx::default()
    };
    let crashed = try_run_deployment_in(&stream, &spec, &config, ctx);
    assert!(matches!(
        crashed,
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary))
    ));
    root
}

#[test]
fn durable_files_match_the_commit_before_the_durable_layer() {
    // Whole files, envelope and name included: the newest checkpoint file,
    // every WAL segment, the newest recorder segment.
    let root = crashed_durable_run("durable");
    let newest = |mut pins: Vec<(String, usize, u64)>| pins.pop().expect("a file");
    let checkpoint = newest(file_pins(&root.join("ckpt"), |n| n.ends_with(".cdpk")));
    let wal = file_pins(&root.join("wal"), |n| n.ends_with(".cdpw"));
    let recorder = newest(file_pins(&root.join("rec"), |n| n.ends_with(".cdpt")));
    let _ = std::fs::remove_dir_all(&root);
    assert!(wal.len() >= 3, "at least two rotations past the checkpoint");
    let got = format!("{checkpoint:?}\n{wal:?}\n{recorder:?}");
    assert_eq!(got, PARENT_DURABLE_FILES, "(name, bytes, FNV-1a) per file");
}

/// Recorded at 7885dc0, the parent of the commit that moved every durable
/// format onto `cdp_obs::durable`. The checkpoint's tuple was re-recorded
/// when the engine's reduce began to stream: the checkpoint embeds the
/// run's metrics, and the `engine.scratch_*` samples count fewer partials
/// allocated — [`the_checkpoint_differs_from_its_parent_only_in_scratch_samples`]
/// pins everything else in it. The WAL and recorder tuples are 7885dc0's.
const PARENT_DURABLE_FILES: &str = "(\"ckpt-000000000023.cdpk\", 5810, 4385064095960915364)\n\
    [(\"wal-000000000024.cdpw\", 4082, 2706512351326544409), \
    (\"wal-000000000026.cdpw\", 4082, 16742428689938391532), \
    (\"wal-000000000028.cdpw\", 6, 130910471821257432)]\n\
    (\"seg-000000000005.cdpt\", 17349, 11974950545032139178)";

#[test]
fn the_checkpoint_differs_from_its_parent_only_in_scratch_samples() {
    // The newest checkpoint of the same run, decoded, stripped of the two
    // timing-dependent scratch histograms (how many gradient partials were
    // reused or allocated), re-encoded and re-sealed. The commit before the
    // streamed reduce, b6cbc5a, gives the same tuple the same way.
    let root = crashed_durable_run("scratch");
    let dir = CheckpointDir::open(root.join("ckpt"), 2).expect("checkpoint dir");
    let (seq, version, payload) = dir
        .latest_valid_versioned()
        .expect("readable")
        .expect("a checkpoint");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(seq, 23);
    let mut checkpoint =
        DeploymentCheckpoint::decode_versioned(version, &payload).expect("decodes");
    for name in ["engine.scratch_reuse", "engine.scratch_alloc"] {
        assert!(
            checkpoint.metrics.histograms.remove(name).is_some(),
            "{name}"
        );
    }
    let payload = checkpoint.encode();
    let format = Format {
        magic: *b"CDPC",
        version: CHECKPOINT_SCHEMA.0,
    };
    let file = format.seal(payload.len(), |buf| buf.extend_from_slice(&payload));
    assert_eq!(
        (file.len(), fnv1a(file.iter().copied())),
        (5266, 14249442313718091351)
    );
}

#[test]
fn recoverable_only_faults_match_fault_free_model() {
    // Worker panics and latency are recovered by restarting the worker
    // before it consumes any input, so a plan containing only those faults
    // must converge to the exact fault-free model. (Disk faults are excluded
    // here: losing a spilled chunk falls back to re-materialization with
    // *current* pipeline statistics, which is a recovery, not a replay.)
    let (stream, spec) = small_url();
    let mut base = DeploymentConfig::continuous(2, 4, SamplingStrategy::Uniform);
    base.optimization.budget = StorageBudget::MaxChunks(5);
    let clean = run_deployment(&stream, &spec, &base);

    // A panic streak longer than the restart budget is fatal by design, so
    // scan a few seeds (deterministically, starting from the sweep seed)
    // for one whose streaks all stay within budget while still injecting.
    let mut faulted = None;
    for offset in 0..16u64 {
        let mut faulted_cfg = base.clone();
        faulted_cfg.faults = FaultPlan {
            seed: sweep_plan().seed.wrapping_add(offset),
            worker_panic: 0.4,
            slow_chunk_ms: 1,
            ..FaultPlan::none()
        };
        if let Ok(result) = try_run_deployment(&stream, &spec, &faulted_cfg) {
            if result.fault_stats.injected_worker_panics > 0 {
                faulted = Some(result);
                break;
            }
        }
    }
    let faulted = faulted.expect("a nearby seed stays within the restart budget");

    assert!(faulted.fault_stats.injected_worker_panics > 0);
    assert_eq!(faulted.fault_stats.fatal, 0);
    assert_eq!(faulted.fault_stats.fallback_rematerializations, 0);
    assert_eq!(clean.final_weights, faulted.final_weights);
    assert_eq!(clean.final_error.to_bits(), faulted.final_error.to_bits());
    assert_eq!(clean.error_curve, faulted.error_curve);
}

#[test]
fn metrics_snapshot_spans_all_subsystems() {
    // A continuous run with a bounded cache exercises every instrumented
    // layer: engine (re-materialization maps), storage (hits/spills/
    // recomputes), scheduler (fire decisions), trainer (proactive runs).
    let (stream, spec) = small_url();
    let mut config = DeploymentConfig::continuous(2, 6, SamplingStrategy::Uniform);
    config.optimization.budget = StorageBudget::MaxChunks(5);
    config.collect_metrics = true;
    let result = run_deployment(&stream, &spec, &config);
    let snap = &result.metrics;

    assert!(
        snap.metric_count() >= 12,
        "snapshot must span the platform: {} metrics",
        snap.metric_count()
    );
    let deployment_chunks = (stream.total_chunks() - stream.initial_chunks()) as u64;
    // Deployment driver.
    assert_eq!(snap.counter("deployment.chunks"), deployment_chunks);
    assert_eq!(snap.counter("deployment.queries"), result.queries_answered);
    // Engine: the bounded cache forces engine-parallel re-materialization.
    assert!(snap.counter("engine.map_calls") > 0);
    assert!(snap.counter("engine.tasks") > 0);
    assert!(snap.histogram("engine.map_secs").is_some());
    // Storage mirrors the tier counters exactly.
    assert_eq!(
        snap.counter("store.memory_hits"),
        result.tiered_stats.memory_hits
    );
    assert_eq!(
        snap.counter("store.recomputes"),
        result.tiered_stats.recomputes
    );
    assert!(snap.counter("store.recomputes") > 0, "budget 5 must evict");
    // Scheduler: one decision per chunk.
    assert_eq!(
        snap.counter("scheduler.fires") + snap.counter("scheduler.skips"),
        deployment_chunks
    );
    assert_eq!(snap.counter("scheduler.fires"), result.proactive_runs);
    // Trainer.
    assert_eq!(snap.counter("proactive.runs"), result.proactive_runs);
    assert!(snap
        .histogram("proactive.accounted_secs")
        .is_some_and(|h| h.count == result.proactive_runs));
    // μ: observed matches the result, alongside the Eq. 4 prediction.
    assert_eq!(snap.gauge("pm.mu_observed"), result.empirical_mu);
    let predicted = snap.gauge("pm.mu_uniform");
    assert!(predicted > 0.0 && predicted < 1.0);

    // Metrics never feed back into results: identical run without them.
    let mut silent = config;
    silent.collect_metrics = false;
    let baseline = run_deployment(&stream, &spec, &silent);
    assert!(baseline.metrics.is_empty());
    assert_eq!(baseline.final_weights, result.final_weights);
    assert_eq!(baseline.error_curve, result.error_curve);
    assert_eq!(baseline.total_secs.to_bits(), result.total_secs.to_bits());
}

#[test]
fn threaded_run_reconciles_engine_metrics() {
    // Scheduling observables are histograms — queue depths and waits are
    // scheduling noise, never part of the deterministic surface — but their
    // *sample counts* are exact: every threaded map observes its queue depth
    // exactly once (empty maps observe a zero), so it reconciles with
    // `engine.map_calls`. Scratch-pool traffic reconciles the same way:
    // reuse + alloc samples are drained once per proactive/retrain charge.
    // The attached serving front reconciles too: its `serving.*` counters
    // (kept in the server's own registry) mirror the server's atomics
    // exactly, and every publish the run performed is visible both as a
    // version bump and as a `serving.publish` event in the run's log.
    let (stream, spec) = small_url();
    let mut config = DeploymentConfig::continuous(2, 6, SamplingStrategy::Uniform);
    config.optimization.budget = StorageBudget::MaxChunks(5);
    config.engine = ExecutionEngine::Threaded { workers: 4 };
    config.collect_metrics = true;
    let serving_metrics = cdpipe::obs::Metrics::collecting();
    let server = cdpipe::core::serving::ModelServer::observed(
        spec.build_pipeline(),
        cdpipe::ml::LinearModel::zeros(1, spec.sgd.loss),
        serving_metrics.clone(),
    );
    config.serving = Some(server.clone());
    let result = run_deployment(&stream, &spec, &config);
    let snap = &result.metrics;

    // Serve real traffic from the stream through the published model, then
    // reconcile the serving ledger: counter mirrors are exact, and
    // `attempts == served + rejected` holds to the query.
    for record in stream.chunk(0).records.iter() {
        let p = server.predict(record).expect("url record is well-formed");
        assert_eq!(p.version, server.version());
    }
    let serving_snap = serving_metrics.snapshot();
    assert_eq!(
        serving_snap.counter("serving.served"),
        server.queries_served()
    );
    assert_eq!(
        serving_snap.counter("serving.rejected"),
        server.queries_rejected()
    );
    assert_eq!(
        server.attempts(),
        server.queries_served() + server.queries_rejected()
    );
    // Every publish is ledgered twice: counter in the serving registry,
    // event in the deployment log; both reconcile with the version number.
    let publishes = server.version() - 1;
    assert_eq!(serving_snap.counter("serving.publishes"), publishes);
    let publish_events = snap
        .events
        .iter()
        .filter(|e| e.name == "serving.publish")
        .count() as u64;
    assert_eq!(publish_events, publishes);

    let map_calls = snap.counter("engine.map_calls");
    assert!(map_calls > 0, "bounded cache must dispatch engine maps");
    let depth = snap
        .histogram("engine.queue_depth")
        .expect("threaded maps record their unit count");
    assert_eq!(depth.count, map_calls, "one queue-depth sample per map");
    // Units scheduled across all maps equals the task counter.
    assert_eq!(depth.sum as u64, snap.counter("engine.tasks"));

    // The gradient-scratch pool allocates on first use and reuses after:
    // both sides of the pool ledger surface as histogram samples.
    let alloc = snap
        .histogram("engine.scratch_alloc")
        .expect("cold pool must allocate");
    assert!(alloc.sum > 0.0);
    let reuse = snap
        .histogram("engine.scratch_reuse")
        .expect("warm pool must reuse");
    assert!(reuse.sum > 0.0);

    // The threaded, metrics-on, serving-attached run stays bit-identical to
    // the silent sequential baseline: scheduling, scratch pooling, and
    // publishing are observers.
    let mut silent = config;
    silent.engine = ExecutionEngine::Sequential;
    silent.collect_metrics = false;
    silent.serving = None;
    let baseline = run_deployment(&stream, &spec, &silent);
    assert_eq!(baseline.final_weights, result.final_weights);
    assert_eq!(baseline.error_curve, result.error_curve);
    assert_eq!(baseline.total_secs.to_bits(), result.total_secs.to_bits());
}

#[test]
fn dynamic_scheduler_cadence_matches_eq6_under_virtual_clock() {
    // The deployment clock is virtual (it advances by exactly one chunk
    // period per chunk), so Eq. 6 cadence is exactly checkable end to end.
    let (stream, spec) = small_url();
    let deployment_chunks = (stream.total_chunks() - stream.initial_chunks()) as u64;

    // Degenerate cadence: a huge chunk period dwarfs any T·pr·pl interval,
    // so dynamic scheduling fires every chunk (the documented Static{1}
    // degeneration).
    let mut every_chunk = DeploymentConfig::online();
    every_chunk.mode = DeploymentMode::Continuous {
        scheduler: Scheduler::Dynamic { slack: 2.0 },
        sample_chunks: 4,
        strategy: SamplingStrategy::TimeBased,
    };
    every_chunk.chunk_period_secs = 1e6;
    every_chunk.collect_metrics = true;
    let result = run_deployment(&stream, &spec, &every_chunk);
    assert_eq!(result.proactive_runs, deployment_chunks);

    // A meaningful period: trainings must still never fire before the
    // Eq. 6 interval has elapsed — the fire margin (elapsed − T·S·pr·pl at
    // fire time) is non-negative on every firing.
    let mut tight = every_chunk;
    tight.chunk_period_secs = 1e-4;
    tight.mode = DeploymentMode::Continuous {
        scheduler: Scheduler::Dynamic { slack: 1000.0 },
        sample_chunks: 4,
        strategy: SamplingStrategy::TimeBased,
    };
    let tight_result = run_deployment(&stream, &spec, &tight);
    let margin = tight_result
        .metrics
        .histogram("scheduler.fire_margin_secs")
        .expect("dynamic fires record their margin");
    assert_eq!(margin.count, tight_result.proactive_runs);
    assert!(
        margin.min >= 0.0,
        "a training fired before its Eq. 6 interval: min margin {}",
        margin.min
    );
    assert!(
        tight_result.proactive_runs < deployment_chunks,
        "slack 1000 at a 100 µs period must skip some chunks"
    );
}

#[test]
fn fault_injected_run_exposes_recovery_through_metrics() {
    // The observability layer must agree with the fault injector's own
    // accounting: every recovery (worker restart, disk retry, lookup
    // fallback) surfaces in the snapshot.
    let (stream, spec) = small_url();
    let mut config = faulted_continuous();
    config.collect_metrics = true;
    let result = try_run_deployment(&stream, &spec, &config).expect("recoverable plan");
    let snap = &result.metrics;

    assert_eq!(result.fault_stats.fatal, 0);
    assert_eq!(
        snap.counter("engine.worker_restarts") + snap.counter("store.disk_retries"),
        result.fault_stats.retries,
        "metrics retries must match fault accounting: {}",
        result.fault_stats
    );
    assert_eq!(
        snap.counter("store.read_fallbacks"),
        result.tiered_stats.read_fallbacks
    );
    assert_eq!(
        snap.counter("store.lost_spills"),
        result.tiered_stats.lost_spills
    );
    assert_eq!(snap.counter("store.spills"), result.tiered_stats.spills);
    assert!(
        snap.counter("store.disk_retries") > 0,
        "disk faults must retry"
    );
    // With online statistics on, a fire counts each sampled chunk by the
    // tier its lookup resolved to; a read fallback re-materializes.
    assert!(config.optimization.online_stats);
    let tiers = &result.tiered_stats;
    assert_eq!(
        snap.counter("proactive.materialized_chunks"),
        tiers.memory_hits
    );
    assert_eq!(snap.counter("proactive.spilled_chunks"), tiers.disk_hits);
    assert_eq!(
        snap.counter("proactive.rematerialized_chunks"),
        tiers.recomputes + tiers.read_fallbacks
    );
}

#[test]
fn a_result_debug_prints_its_mode_and_its_curves_align() {
    let (stream, spec) = taxi_spec(SpecScale::Tiny);
    let result = run_deployment(&stream, &spec, &DeploymentConfig::online());
    let debug = format!("{result:?}");
    assert!(debug.contains("Online"));
    assert!(result.error_curve.len() == result.cost_curve.len());
}

/// The pair `initial_fit` leaves, served: the first 64 records of the
/// deployment range through `predict`, as bits, `REJECTED` where it is `None`.
/// A Taxi stream that keeps the chunks it generated and hands out handles to
/// them. At every pull it notes how many holders each earlier chunk's rows
/// have, which is how a run that owns its store can be watched from outside.
struct Retained {
    schema: Arc<Schema>,
    chunks: Vec<RawChunk>,
    initial: usize,
    holders: Mutex<Vec<usize>>,
}

impl Retained {
    fn tiny_taxi() -> (Self, DeploymentSpec) {
        let (source, spec) = taxi_spec(SpecScale::Tiny);
        let retained = Self {
            schema: source.schema(),
            chunks: (0..source.total_chunks())
                .map(|i| source.chunk(i))
                .collect(),
            initial: source.initial_chunks(),
            holders: Mutex::new(Vec::new()),
        };
        (retained, spec)
    }
}

impl ChunkStream for Retained {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn total_chunks(&self) -> usize {
        self.chunks.len()
    }

    fn initial_chunks(&self) -> usize {
        self.initial
    }

    fn chunk(&self, index: usize) -> RawChunk {
        let earlier = self.chunks[..index].iter();
        self.holders
            .lock()
            .expect("no holder of this lock panics")
            .extend(earlier.map(|c| Arc::strong_count(&c.records)));
        self.chunks[index].clone()
    }
}

#[test]
fn a_raw_chunk_is_stored_once_between_the_stream_and_the_store() {
    let (stream, spec) = Retained::tiny_taxi();
    let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    config.optimization.budget = StorageBudget::MaxChunks(2);

    // The packaged driver owns its store, so sharing is read off the
    // stream's side: whenever a chunk arrives, the rows of every earlier one
    // have exactly two holders — the stream and the history. A store that
    // copied its arrivals would leave the stream's rows with one.
    let run = run_deployment(&stream, &spec, &config);
    let holders = std::mem::take(&mut *stream.holders.lock().expect("not poisoned"));
    assert!(holders.len() > stream.total_chunks());
    assert!(holders.iter().all(|&n| n == 2), "holders: {holders:?}");
    assert!(stream
        .chunks
        .iter()
        .all(|c| Arc::strong_count(&c.records) == 1));
    let (plain, _) = taxi_spec(SpecScale::Tiny);
    assert_eq!(
        run_digest(&run),
        run_digest(&run_deployment(&plain, &spec, &config))
    );

    // The same loop through the public pieces, where the store can be asked:
    // every raw chunk it returns — sampled for re-materialization or read as
    // history — is the stream's chunk of that timestamp, not an equal copy.
    let shares = |raw: &RawChunk| {
        let ours = &stream.chunks[raw.timestamp.0 as usize];
        assert_eq!(raw, ours);
        Arc::ptr_eq(&raw.records, &ours.records)
    };
    let mut dm = DataManager::new(StorageBudget::MaxChunks(2), SamplingStrategy::Uniform, 7);
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
    let mut ledger = CostLedger::default();
    let initial = stream.initial();
    let (_, fcs) = pm.initial_fit(&initial, &spec.sgd, &mut ledger);
    for (raw, fc) in initial.into_iter().zip(fcs) {
        dm.ingest_raw(raw).expect("unique timestamps");
        dm.store_features(fc).expect("raw chunk present");
    }
    let mut rematerialized = 0;
    for idx in stream.deployment_range() {
        let raw = stream.chunk(idx);
        dm.ingest_raw(raw.clone()).expect("unique timestamps");
        let fc = pm.process_online_chunk(&raw, &mut evaluator, &mut ledger);
        dm.store_features(fc).expect("raw chunk present");
        let sampled = dm.sample(3);
        for chunk in &sampled {
            if let FeatureSource::Raw(raw, _) = chunk {
                assert!(shares(raw), "sampled {}", raw.timestamp);
                rematerialized += 1;
            }
        }
        ProactiveTrainer::new()
            .try_execute(&mut pm, sampled, &mut ledger)
            .expect("no faults injected");
    }
    assert!(rematerialized > stream.total_chunks());
    let history = dm.full_history();
    assert_eq!(history.len(), stream.total_chunks());
    assert!(history.iter().all(|(raw, _)| shares(raw)));
}

fn first_predictions(stream: &dyn ChunkStream, spec: &DeploymentSpec) -> (ModelServer, Vec<u64>) {
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    pm.initial_fit(&stream.initial(), &spec.sgd, &mut CostLedger::default());
    let (pipeline, trainer) = pm.snapshot();
    let server = ModelServer::new(pipeline, trainer.model().clone());
    let bits = stream
        .deployment_range()
        .flat_map(|i| stream.chunk(i).records.to_vec())
        .take(64)
        .map(|r| server.predict(&r).map_or(REJECTED, |p| p.value.to_bits()))
        .collect();
    (server, bits)
}

#[test]
fn predictions_match_the_commit_before_the_query_scratch() {
    // Recorded at the parent of the commit that gave the query path its
    // per-thread scratch and took the margin from the encoded row instead of
    // a reconstructed point: same features, same weights, same order of
    // products, so every prediction keeps its bits — and the records the
    // pipeline turned away are still turned away. (x86-64 Linux, as above.)
    let (urls, spec) = url_spec(SpecScale::Tiny);
    let (server, bits) = first_predictions(&urls, &spec);
    assert_eq!(bits, PARENT_URL_TINY_PREDICTIONS);
    // The URL pipeline filters nothing; what it rejects is malformed.
    let malformed = Record::new(vec![Value::Text("label".into())]);
    assert_eq!(server.predict(&malformed), None);
    assert_eq!(
        (server.queries_served(), server.queries_rejected()),
        (64, 1)
    );

    let (taxi, spec) = taxi_spec(SpecScale::Tiny);
    let (server, bits) = first_predictions(&taxi, &spec);
    assert_eq!(bits, PARENT_TAXI_TINY_PREDICTIONS);
    // Record 12 is a trip the anomaly filter drops, at the parent and here,
    // also when a thread's scratch is warm from the accepted ones before it.
    assert_eq!(bits[12], REJECTED);
    assert_eq!(
        (server.queries_served(), server.queries_rejected()),
        (63, 1)
    );
}

const REJECTED: u64 = u64::MAX;
const PARENT_URL_TINY_PREDICTIONS: [u64; 64] = [
    0x3fee6f9507c9ec74,
    0xbfed859862ce77aa,
    0x3fe583d8ee7e297e,
    0xbff660886726c0a6,
    0xbff2d88f3db63a34,
    0xbfe6b77af7792ef2,
    0x3fd28781baaa6f18,
    0xbff175bdbbf0e250,
    0xbff61e0429ad4937,
    0x3fad7d5343f975a8,
    0xbff3b7ca4af2fadb,
    0xbfed036482c590f3,
    0x3fed971081e7ca13,
    0xbff193b70f5d5b79,
    0xbfb40a22f2c5ebd2,
    0xbff1c245157000ad,
    0x3fe3549b489e739a,
    0xbfbabc01f7dfd04a,
    0xbffad60004f0f4fb,
    0xbff526a66996e7b6,
    0x3fd816e2bed5470a,
    0xbff5629759895c33,
    0xbff4a23fae07960c,
    0xbff3147266023fc4,
    0xbfed144ce3cde926,
    0xbff69a8bf9a89405,
    0xbfe06deedf174f72,
    0x3fe8aa8f6a2c71e9,
    0xbff07b651ae6a904,
    0xbff1beac63c27482,
    0x3ff84614ffe80aaa,
    0xbfa73d37470aea58,
    0xbfe230ac344b0d51,
    0xbfe8b9c11c7451b9,
    0x3feab004d910333b,
    0xbfe9a8509dc3b99e,
    0xbff1f02f4fa1cc24,
    0xbff17d37d0864c37,
    0xbfe396f22631f310,
    0xbfedebdad573a0f2,
    0xbfda7eb0c3cbc36a,
    0xbff2107ee83dbce6,
    0xbff75a266453c064,
    0xbfef58411b95cef0,
    0xbff937887fd731b8,
    0xbfea5282e0a4934f,
    0x3fc63bdddad7c4f7,
    0xbff80d55969cadea,
    0xbff6e96471f94954,
    0xbfea79e3ef19ac17,
    0xbff2bc4761f0b59b,
    0xbff1e20bf6ff3042,
    0xbfeacc2f35bce452,
    0xbff57a3364f9bb98,
    0xbff69860aaeda28a,
    0xbff2d1159288436a,
    0xbffa18cecc50e61a,
    0xbff4528cc438ecb2,
    0xbff4758b3cb8a91a,
    0xbfec12de4e5dc895,
    0x3fb92e95073bc886,
    0xbff0987274f4ef96,
    0xbff5e2d654c1716b,
    0xbff7daca543f9bcf,
];
const PARENT_TAXI_TINY_PREDICTIONS: [u64; 64] = [
    0x401c8c9dec9f6590,
    0x4018f926cfa8d514,
    0x401ab5c30a80da80,
    0x401b8d3d3217d01c,
    0x4018728f4a906f37,
    0x401c4c962ef6c1fa,
    0x401d9c974a06c709,
    0x4019f165b2021aad,
    0x401b633adca103e2,
    0x401c43d767fe18f3,
    0x401bbcc34297dffb,
    0x401a0c30c26dd9af,
    REJECTED,
    0x401c3c53095174d2,
    0x401b288a9efe15d4,
    0x4019afd596a34dbf,
    0x401b6780146eba5e,
    0x401b2637d8d21ad5,
    0x4017d3c985d62fd6,
    0x401b641acd724568,
    0x401a6349f8b3d85f,
    0x401b59ea58d2fc6e,
    0x401a774415613ce1,
    0x40197b0bc68fb9c7,
    0x401bfcc3f0c90b9f,
    0x401fb7ca86c2a4f0,
    0x401ded08b52cf04a,
    0x4019a11144471130,
    0x401c8ca488b8e416,
    0x4018e14d8bf0491a,
    0x40189e82c237a18c,
    0x401851ec449d9428,
    0x40198e0041b25712,
    0x401cd4bdfd70e465,
    0x401aff0a248fe92b,
    0x401a1fbcbf74cba8,
    0x401b29640c85eadb,
    0x40182e3b9e0fcd0c,
    0x401bdee3d93d5cc2,
    0x401c693a3c8f43a5,
    0x401902a59d5ad838,
    0x4019f0c64c68a103,
    0x4019a31b983b25a6,
    0x401c5469fb05746e,
    0x401c859994f3f482,
    0x401bd57b9522a266,
    0x401d26e1b68e53fe,
    0x4019b451fb3f9b77,
    0x4018b867ae21ae10,
    0x401c66046dec13fe,
    0x401e71a8df093425,
    0x401ae930a92c3ead,
    0x4019d776d2faa006,
    0x401d47c28cdda4c0,
    0x401bf6f999d537d1,
    0x401ae948b5ddfa35,
    0x401bc4d6702290da,
    0x401aa28b2c268135,
    0x401aef4b524b3e0f,
    0x401a034c9afba1e4,
    0x4018c63d9cf169da,
    0x401c96102997c5c2,
    0x401dc1046fa55476,
    0x401b8bd7343e1e7f,
];

/// The repo-scale Taxi stream at the benchmark's 1 000 rows a chunk.
fn taxi_stream_1000() -> impl Iterator<Item = RawChunk> {
    use cdpipe::datagen::taxi::{TaxiConfig, TaxiGenerator};
    let stream = TaxiGenerator::new(TaxiConfig {
        rows_per_chunk: 1_000,
        ..TaxiConfig::repo_scale()
    });
    (0..stream.total_chunks()).map(move |i| stream.chunk(i))
}

#[test]
fn taxi_stream_matches_the_commit_before_the_fmod_free_kernels() {
    // Recorded at the parent of the commit that gave the generator the
    // extractor's calendar kernels in place of its own `%` chain: every
    // generated trip keeps its bits. (Float digest taken on x86-64 Linux.)
    let values = taxi_stream_1000().flat_map(|chunk| {
        let nums: Vec<f64> = chunk
            .rows()
            .iter()
            .flat_map(|r| r.iter().filter_map(ValueRef::as_num))
            .collect();
        nums
    });
    assert_eq!(format!("{:016x}", bits_digest(values)), PARENT_TAXI_STREAM);
}

#[test]
fn taxi_features_match_the_commit_before_the_fmod_free_kernels() {
    // Recorded at the parent of the commit that replaced the extractor's
    // `fmod` wraps (hour, weekday, bearing) with exact integer and Sterbenz
    // forms: every label and every feature column keeps its bits.
    use cdpipe::pipeline::extract::TaxiFeatureExtractor;
    use cdpipe::pipeline::parser::{Parser, TaxiParser};
    use cdpipe::pipeline::{ColumnBatch, Component};
    let parser =
        TaxiParser::new(cdpipe::datagen::taxi::TaxiGenerator::new(Default::default()).schema());
    let values = taxi_stream_1000().flat_map(|chunk| {
        let mut batch = parser.parse(chunk.rows(), ColumnBatch::default());
        TaxiFeatureExtractor::new().transform(&mut batch);
        let mut nums = batch.labels().to_vec();
        batch.columns().for_each(|c| nums.extend_from_slice(c));
        nums
    });
    assert_eq!(
        format!("{:016x}", bits_digest(values)),
        PARENT_TAXI_FEATURES
    );
}

const PARENT_TAXI_STREAM: &str = "13fa8b676c564536";
const PARENT_TAXI_FEATURES: &str = "208951754753c3b4";

#[test]
fn taxi_arrivals_and_fires_match_the_commit_before_the_slab_kernels() {
    // Recorded at the parent of the commit that scores and folds whole slabs
    // (margins a column at a time, gradients a block of columns at a time):
    // the repo-scale Taxi stream at 1 000 rows a chunk, fitted on 24 chunks,
    // then 150 arrivals through test-then-train with a fused fire over the
    // last 15 chunks — one in four stored, the rest re-materialized — after
    // every fifth. Every prediction (through the evaluator's accumulator),
    // weight and fire loss keeps its bits. (Float digest taken on x86-64
    // Linux.)
    use cdpipe::storage::FeatureChunk;
    let (_, spec) = taxi_spec(SpecScale::Repo);
    let mut chunks = taxi_stream_1000();
    let initial: Vec<RawChunk> = chunks.by_ref().take(24).collect();
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let mut ledger = CostLedger::default();
    let (report, _) = pm.initial_fit(&initial, &spec.sgd, &mut ledger);
    let mut values = vec![report.initial_loss, report.final_loss];
    let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
    let mut arrived: Vec<(RawChunk, Arc<FeatureChunk>)> = Vec::new();
    for (i, raw) in chunks.take(150).enumerate() {
        let fc = pm.process_online_chunk(&raw, &mut evaluator, &mut ledger);
        values.push(evaluator.raw_accumulator());
        arrived.push((raw, Arc::new(fc)));
        if i % 5 == 4 {
            let sources: Vec<FeatureSource> = (arrived.iter().rev().take(15).enumerate())
                .map(|(k, (raw, fc))| match k % 4 {
                    0 => FeatureSource::Memory(Arc::clone(fc)),
                    _ => FeatureSource::Raw(raw.clone(), fc.kept().cloned()),
                })
                .collect();
            let fire = pm.try_proactive_step_fused(&sources, &mut ledger);
            let fire = fire.expect("no faults injected");
            values.extend([fire.loss.unwrap_or(f64::NAN), fire.points as f64]);
        }
        values.extend_from_slice(pm.trainer().model().weights().as_slice());
    }
    assert_eq!(
        format!("{:016x}", bits_digest(values)),
        PARENT_TAXI_ARRIVALS
    );
}

const PARENT_TAXI_ARRIVALS: &str = "5d4aac00fbb7551b";

#[test]
fn a_warm_retrain_over_kept_columns_matches_the_one_without_them() {
    // The periodical baseline's warm retrain re-materializes the whole
    // history. Handed the distance and bearing each Taxi arrival kept beside
    // its raw chunk in the store, it copies them instead of computing them
    // again; the trainer, the pipeline counters and the ledger it leaves
    // behind keep every bit of the retrain with those columns withheld.
    use cdpipe::datagen::taxi::{TaxiConfig, TaxiGenerator};
    let (_, spec) = taxi_spec(SpecScale::Repo);
    let stream = TaxiGenerator::new(TaxiConfig {
        rows_per_chunk: 200,
        ..TaxiConfig::repo_scale()
    });
    let initial: Vec<RawChunk> = (0..6).map(|i| stream.chunk(i)).collect();
    let mut pm = PipelineManager::new(spec.build_pipeline(), &spec.sgd, spec.online_batch);
    let mut ledger = CostLedger::default();
    pm.initial_fit(&initial, &spec.sgd, &mut ledger);
    let mut dm = DataManager::new(StorageBudget::MaxChunks(4), SamplingStrategy::Uniform, 3);
    let mut evaluator = PrequentialEvaluator::new(spec.metric, 0);
    for i in 6..26 {
        let raw = stream.chunk(i);
        dm.ingest_raw(raw.clone()).expect("unique timestamps");
        let fc = pm.process_online_chunk(&raw, &mut evaluator, &mut ledger);
        dm.store_features(fc).expect("raw chunk present");
    }
    let kept = dm.full_history();
    assert_eq!(kept.len(), 20);
    assert!(kept.iter().all(|(_, columns)| columns.is_some()));
    let withheld: Vec<_> = kept.iter().map(|(raw, _)| (raw.clone(), None)).collect();

    let retrain = |history| {
        let (pipeline, trainer) = pm.snapshot();
        let mut warm = PipelineManager::with_trainer(pipeline, trainer, spec.online_batch);
        let mut ledger = ledger.clone();
        let report = warm.retrain_warm(history, &spec.sgd, &mut ledger);
        (report, warm, ledger)
    };
    let (kept_report, kept_pm, kept_ledger) = retrain(&kept);
    let (plain_report, plain_pm, plain_ledger) = retrain(&withheld);
    assert_eq!(kept_report, plain_report);
    assert_eq!(kept_pm.trainer(), plain_pm.trainer());
    let bits = |pm: &PipelineManager| -> Vec<u64> {
        let weights = pm.trainer().model().weights().as_slice();
        weights.iter().map(|w| w.to_bits()).collect()
    };
    assert_eq!(bits(&kept_pm), bits(&plain_pm));
    assert_eq!(
        kept_pm.pipeline().counters(),
        plain_pm.pipeline().counters()
    );
    let ledger_bits = |ledger: &CostLedger| -> Vec<u64> {
        let curve = ledger.curve().iter().map(|(_, secs)| secs.to_bits());
        ledger
            .accounted()
            .iter()
            .map(|s| s.to_bits())
            .chain(curve)
            .collect()
    };
    assert_eq!(ledger_bits(&kept_ledger), ledger_bits(&plain_ledger));
}
