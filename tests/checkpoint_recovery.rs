//! Kill-and-resume recovery tests: a deployment killed at an injected crash
//! point and resumed from its newest durable checkpoint must be bit-identical
//! to an uninterrupted run — same weights, prequential curve, accounted cost,
//! storage counters, and alerts (DESIGN.md §12).
//!
//! Comparison rules: `checkpoint.*`, `wal.*`, and `engine.scratch_*` metrics
//! and `DeploymentResult::checkpoint_stats` / `wal_stats` are excluded (they
//! legitimately differ between an uninterrupted run and a crash-resume pair —
//! the scratch pool is transient process state), wall-clock histograms are
//! compared by observation count only, and event/lineage timestamps (wall
//! clock under `Metrics::collecting`) are ignored in favour of their
//! deterministic payloads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cdpipe::core::serving::{weights_fingerprint, ModelServer};
use cdpipe::datagen::url::UrlGenerator;
use cdpipe::ml::LinearModel;
use cdpipe::obs::MetricsSnapshot;
use cdpipe::prelude::*;
use cdpipe::storage::CheckpointDir;
use proptest::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A test-private checkpoint directory that never collides across parallel
/// tests or repeated runs of one process.
fn ckpt_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cdp-ckpt-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn tiny_url() -> (UrlGenerator, DeploymentSpec) {
    url_spec(SpecScale::Tiny)
}

/// Histograms fed from the virtual cost model rather than wall time: their
/// full snapshot (buckets, sum, min, max) is part of the identity contract.
const EXACT_HISTOGRAMS: [&str; 2] = ["scheduler.fire_margin_secs", "proactive.accounted_secs"];

fn without_checkpoint_keys<V: Clone>(m: &BTreeMap<String, V>) -> BTreeMap<String, V> {
    // `engine.scratch_*` tracks the trainer's gradient-buffer pool, which is
    // transient process state: a resumed process starts with a cold pool and
    // re-allocates buffers the uninterrupted run reused, so those sample
    // counts legitimately differ across a crash-resume pair (the gradients
    // themselves stay bit-identical — a reset buffer equals a fresh one).
    m.iter()
        .filter(|(k, _)| {
            !k.starts_with("checkpoint.")
                && !k.starts_with("wal.")
                && !k.starts_with("engine.scratch_")
        })
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// `with_alerts = false` leaves `alert.fired` events out of the comparison.
fn check_metrics(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    with_alerts: bool,
) -> Result<(), String> {
    if without_checkpoint_keys(&a.counters) != without_checkpoint_keys(&b.counters) {
        return Err(format!(
            "counters diverge: {:?} vs {:?}",
            without_checkpoint_keys(&a.counters),
            without_checkpoint_keys(&b.counters)
        ));
    }
    let gauge_bits = |m: &BTreeMap<String, f64>| -> BTreeMap<String, u64> {
        without_checkpoint_keys(m)
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect()
    };
    if gauge_bits(&a.gauges) != gauge_bits(&b.gauges) {
        return Err(format!(
            "gauges diverge: {:?} vs {:?}",
            without_checkpoint_keys(&a.gauges),
            without_checkpoint_keys(&b.gauges)
        ));
    }
    let ha = without_checkpoint_keys(&a.histograms);
    let hb = without_checkpoint_keys(&b.histograms);
    if ha.keys().collect::<Vec<_>>() != hb.keys().collect::<Vec<_>>() {
        return Err(format!(
            "histogram keys diverge: {:?} vs {:?}",
            ha.keys().collect::<Vec<_>>(),
            hb.keys().collect::<Vec<_>>()
        ));
    }
    for (name, x) in &ha {
        let y = &hb[name];
        if EXACT_HISTOGRAMS.contains(&name.as_str()) {
            if x != y {
                return Err(format!("histogram {name} diverges: {x:?} vs {y:?}"));
            }
        } else if (x.count, x.dropped) != (y.count, y.dropped) {
            // Wall-clock histograms: the number of observations is
            // deterministic, the observed durations are not.
            return Err(format!(
                "histogram {name} count diverges: {} vs {}",
                x.count, y.count
            ));
        }
    }
    let payloads = |s: &MetricsSnapshot| -> Vec<(String, String)> {
        s.events
            .iter()
            .filter(|e| !e.name.starts_with("checkpoint.") && !e.name.starts_with("wal."))
            .filter(|e| with_alerts || e.name != "alert.fired")
            .map(|e| (e.name.clone(), e.detail.clone()))
            .collect()
    };
    if payloads(a) != payloads(b) {
        return Err(format!(
            "events diverge: {:?} vs {:?}",
            payloads(a),
            payloads(b)
        ));
    }
    let kinds = |s: &MetricsSnapshot| -> BTreeMap<u64, Vec<LineageEventKind>> {
        s.lineage
            .iter()
            .map(|(ts, es)| (*ts, es.iter().map(|e| e.kind).collect()))
            .collect()
    };
    if kinds(a) != kinds(b) {
        return Err("lineage diverges".into());
    }
    if (a.dropped_events, a.dropped_lineage) != (b.dropped_events, b.dropped_lineage) {
        return Err("drop counters diverge".into());
    }
    Ok(())
}

/// The bit-identity contract between an uninterrupted run and a resumed one.
fn check_identical(a: &DeploymentResult, b: &DeploymentResult) -> Result<(), String> {
    if a.alerts != b.alerts {
        return Err(format!("alerts diverge: {:?} vs {:?}", a.alerts, b.alerts));
    }
    check_resumed(a, b, true)
}

/// [`check_identical`], with alerts (and their events) compared only when
/// `with_alerts` is set.
fn check_resumed(
    a: &DeploymentResult,
    b: &DeploymentResult,
    with_alerts: bool,
) -> Result<(), String> {
    if a.final_weights != b.final_weights {
        return Err("final weights diverge".into());
    }
    if a.error_curve != b.error_curve {
        return Err(format!(
            "error curves diverge: {:?} vs {:?}",
            a.error_curve, b.error_curve
        ));
    }
    if a.cost_curve != b.cost_curve {
        return Err("cost curves diverge".into());
    }
    if a.final_error.to_bits() != b.final_error.to_bits()
        || a.average_error.to_bits() != b.average_error.to_bits()
    {
        return Err(format!(
            "errors diverge: {} vs {}",
            a.final_error, b.final_error
        ));
    }
    let accounted = |r: &DeploymentResult| {
        [
            r.preprocessing_secs.to_bits(),
            r.training_secs.to_bits(),
            r.prediction_secs.to_bits(),
            r.io_secs.to_bits(),
            r.total_secs.to_bits(),
        ]
    };
    if accounted(a) != accounted(b) {
        return Err(format!(
            "accounted cost diverges: {} vs {}",
            a.total_secs, b.total_secs
        ));
    }
    if (a.queries_answered, a.proactive_runs, a.retrain_runs)
        != (b.queries_answered, b.proactive_runs, b.retrain_runs)
    {
        return Err("run counters diverge".into());
    }
    if a.avg_proactive_secs.to_bits() != b.avg_proactive_secs.to_bits() {
        return Err("avg proactive secs diverge".into());
    }
    if a.store_stats != b.store_stats {
        return Err(format!(
            "store stats diverge: {:?} vs {:?}",
            a.store_stats, b.store_stats
        ));
    }
    if a.tiered_stats != b.tiered_stats {
        return Err(format!(
            "tiered stats diverge: {:?} vs {:?}",
            a.tiered_stats, b.tiered_stats
        ));
    }
    if a.fault_stats != b.fault_stats {
        return Err(format!(
            "fault stats diverge: {:?} vs {:?}",
            a.fault_stats, b.fault_stats
        ));
    }
    if a.initial_report.final_loss.to_bits() != b.initial_report.final_loss.to_bits() {
        return Err("initial training reports diverge".into());
    }
    check_metrics(&a.metrics, &b.metrics, with_alerts)
}

fn assert_identical(label: &str, a: &DeploymentResult, b: &DeploymentResult) {
    if let Err(e) = check_identical(a, b) {
        panic!("{label}: {e}");
    }
}

fn continuous_cfg() -> DeploymentConfig {
    let mut cfg = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    cfg.optimization.budget = StorageBudget::MaxChunks(5);
    cfg.collect_metrics = true;
    cfg
}

fn crash_plan(site: CrashSite, at: u64) -> FaultPlan {
    FaultPlan {
        crash_site: Some(site),
        crash_at: at,
        ..FaultPlan::none()
    }
}

#[test]
fn chunk_boundary_crash_resumes_bit_identically() {
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let dir = ckpt_dir("chunk-boundary");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(2).keep(2));
    cfg.faults = crash_plan(CrashSite::ChunkBoundary, 7);
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.checkpoint_stats.restores, 1);
    assert!(resumed.checkpoint_stats.writes > 0);
    assert_identical("chunk-boundary crash", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The proactive runs of the newest durable checkpoint in `dir`.
fn checkpointed_fires(dir: &PathBuf) -> u64 {
    let (_, version, payload) = CheckpointDir::open(dir, 3)
        .expect("open checkpoint dir")
        .latest_valid_versioned()
        .expect("list checkpoints")
        .expect("a durable checkpoint exists");
    let ckpt = DeploymentCheckpoint::decode_versioned(version, &payload).expect("decode");
    ckpt.proactive_runs
}

#[test]
fn proactive_fire_crash_resumes_bit_identically() {
    // A kill right after a proactive fire destroys only memory: it leaves
    // the files a kill at that chunk's checkpoint publish, the next durable
    // operation, leaves. With a checkpoint every chunk and nothing else
    // durable, operation k is deployment chunk k's checkpoint publish, and
    // chunk 5 fires the third time (static cadence, every 2nd chunk).
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let fired = ckpt_dir("fire-boundary");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&fired).every(1).keep(3));
    cfg.faults = crash_plan(CrashSite::ChunkBoundary, 5);
    assert!(try_run_deployment(&stream, &spec, &cfg).is_err());
    assert_eq!(
        checkpointed_fires(&fired),
        3,
        "chunk 5 fires the third time"
    );
    let _ = std::fs::remove_dir_all(&fired);

    let dir = ckpt_dir("fire");
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(1).keep(3));
    cfg.faults = crash_plan(CrashSite::Durable, 5);
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::Durable)) => {}
        other => panic!("expected a durable-operation crash, got {other:?}"),
    }
    assert_eq!(
        checkpointed_fires(&dir),
        2,
        "the third fire died with its chunk"
    );

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.checkpoint_stats.restores, 1);
    assert_identical("proactive-fire crash", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_across_the_step_adam_stops_dividing_at_is_bit_identical() {
    // From optimizer step 356 on, Adam's first bias correction is exactly
    // 1.0 and the sweep skips the divide — decided from the step counter
    // alone, which is all a checkpoint carries of it. The Tiny stream ends
    // at step 37, so this one is long: the newest checkpoint at the kill
    // predates step 356, the kill comes after it, and the resumed process
    // crosses it again on its own.
    let config = cdpipe::datagen::url::UrlConfig {
        days: 61,
        chunks_per_day: 6,
        rows_per_chunk: 12,
        base_vocab: 300,
        vocab_growth_per_day: 5,
        tokens_per_row: 6,
        lexical_features: 4,
        drift_per_day: 0.05,
        ..cdpipe::datagen::url::UrlConfig::repo_scale()
    };
    let (stream, spec) = cdpipe::core::presets::url_spec_from(config, 8, SpecScale::Tiny);
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let dir = ckpt_dir("adam-boundary");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(200).keep(2));
    let crash_after_chunks = 300;
    cfg.faults = crash_plan(CrashSite::ChunkBoundary, crash_after_chunks);
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }
    let (_, version, payload) = CheckpointDir::open(&dir, 2)
        .expect("open checkpoint dir")
        .latest_valid_versioned()
        .expect("list checkpoints")
        .expect("a durable checkpoint exists");
    let ckpt =
        DeploymentCheckpoint::decode_versioned(version, &payload).expect("decode checkpoint");
    let chunks_at_ckpt = ckpt.chunk_idx + 1 - stream.initial_chunks() as u64;
    assert!(ckpt.opt_t < 356, "checkpointed at step {}", ckpt.opt_t);
    // A step per chunk at the least, so the kill is past step 356.
    assert!(ckpt.opt_t + (crash_after_chunks - chunks_at_ckpt) > 356);

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.checkpoint_stats.restores, 1);
    assert_identical("kill and resume across step 356", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_write_leaves_temp_file_and_falls_back() {
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let dir = ckpt_dir("torn");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(1).keep(3));
    // With checkpoints the only durable operation, the 6th one is the 6th
    // checkpoint publish: it dies mid-write, after five durable checkpoints
    // already exist.
    cfg.faults = crash_plan(CrashSite::Durable, 5);
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::Durable)) => {}
        other => panic!("expected a durable-operation crash, got {other:?}"),
    }
    // The interrupted write is visible only as a torn temp file.
    let torn = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .count();
    assert_eq!(torn, 1, "expected exactly one torn temp file");

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.checkpoint_stats.restores, 1);
    assert_identical("torn checkpoint write", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_latest_checkpoint_falls_back_to_previous() {
    let (stream, spec) = tiny_url();
    let dir = ckpt_dir("corrupt");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(2).keep(4));
    let completed = run_deployment(&stream, &spec, &cfg);
    assert!(completed.checkpoint_stats.writes >= 2);

    // Flip one payload byte of the newest checkpoint: the CRC trailer must
    // reject it and recovery must fall back to its predecessor, replaying
    // the tail chunks to the same final state.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cdpk"))
        .collect();
    files.sort();
    let newest = files.last().expect("at least one checkpoint");
    let mut bytes = std::fs::read(newest).expect("read checkpoint");
    bytes[8] ^= 0x01;
    std::fs::write(newest, &bytes).expect("corrupt checkpoint");

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_identical("corrupted latest checkpoint", &completed, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_surfaces_corrupt_component_state_as_typed_error() {
    use cdpipe::pipeline::PipelineError;

    let (stream, spec) = tiny_url();
    let dir = ckpt_dir("corrupt-state");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(2).keep(4));
    run_deployment(&stream, &spec, &cfg);

    // Truncate one stateful component's payload inside the newest checkpoint
    // and re-frame it with a valid CRC: the envelope layer accepts the file,
    // so the damage must surface as a typed restore error — not be silently
    // swallowed, leaving a cold component behind a warm-looking pipeline.
    let ckpts = CheckpointDir::open(&dir, 4).expect("open checkpoint dir");
    let (seq, version, payload) = ckpts
        .latest_valid_versioned()
        .expect("read checkpoints")
        .expect("at least one checkpoint");
    let mut ckpt = DeploymentCheckpoint::decode_versioned(version, &payload).expect("decode");
    let stateful = ckpt
        .component_states
        .iter()
        .position(|s| !s.is_empty())
        .expect("a stateful component");
    ckpt.component_states[stateful].pop();
    ckpts
        .write(seq + 1, &ckpt.encode())
        .expect("write doctored checkpoint");

    match try_resume_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Pipeline(PipelineError::CorruptState { .. })) => {}
        other => panic!("expected a CorruptState error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_checkpoint_config_is_a_typed_error() {
    let (stream, spec) = tiny_url();
    let cfg = continuous_cfg();
    match try_resume_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::NoCheckpoint(_)) => {}
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
}

#[test]
fn resume_from_empty_directory_is_a_typed_error() {
    let (stream, spec) = tiny_url();
    let dir = ckpt_dir("empty");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir));
    match try_resume_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::NoCheckpoint(detail)) => {
            assert!(detail.contains("no valid checkpoint"));
        }
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointing_does_not_perturb_the_run() {
    // The no-checkpoint and checkpoint-every-chunk runs must be identical
    // on every deterministic surface: checkpointing observes the loop, it
    // never steers it.
    let (stream, spec) = tiny_url();
    let plain = run_deployment(&stream, &spec, &continuous_cfg());
    let dir = ckpt_dir("perturb");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(1).keep(2));
    let checkpointed = run_deployment(&stream, &spec, &cfg);
    assert_identical("checkpointing perturbation", &plain, &checkpointed);
    let _ = std::fs::remove_dir_all(&dir);
}

fn mode_config(mode_idx: usize) -> DeploymentConfig {
    let mut cfg = match mode_idx {
        0 => DeploymentConfig::online(),
        1 => DeploymentConfig::periodical(3),
        _ => DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform),
    };
    cfg.optimization.budget = StorageBudget::MaxChunks(5);
    cfg.collect_metrics = true;
    cfg
}

const CRASH_SITES: [CrashSite; 2] = [CrashSite::ChunkBoundary, CrashSite::Durable];

proptest! {
    /// Sweeps seeded crash points across the three deployment modes with
    /// spill on and off, WAL off/unbatched/batched: every kill either
    /// resumes to a bit-identical end state, or — when the crash predates
    /// the first durable checkpoint — reports the typed `NoCheckpoint`
    /// fallback-to-scratch condition. (A countdown past the run's last chunk
    /// or durable operation never fires; the run then completes and must
    /// still match the baseline.)
    #[test]
    fn every_seeded_kill_resumes_bit_identically(
        mode_idx in 0usize..3,
        spill in prop::bool::ANY,
        site_idx in 0usize..2,
        crash_at in 0u64..40,
        interval in 1usize..4,
        wal_idx in 0usize..3,
    ) {
        let (stream, spec) = tiny_url();
        let mut baseline_cfg = mode_config(mode_idx);
        baseline_cfg.spill_to_disk = spill;
        let baseline = run_deployment(&stream, &spec, &baseline_cfg);

        let dir = ckpt_dir("sweep");
        let mut cfg = baseline_cfg.clone();
        cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(interval).keep(2));
        if wal_idx > 0 {
            let batch = if wal_idx == 1 { 1 } else { 8 };
            cfg.wal = Some(WalConfig::new(dir.join("wal")).fsync_every(batch));
        }
        cfg.faults = crash_plan(CRASH_SITES[site_idx], crash_at);

        match try_run_deployment(&stream, &spec, &cfg) {
            Ok(completed) => {
                // The crash countdown never fired (e.g. the site is not on
                // this mode's path): the checkpointed run itself must match.
                prop_assert!(
                    check_identical(&baseline, &completed).is_ok(),
                    "completed run diverged: {:?}",
                    check_identical(&baseline, &completed)
                );
            }
            Err(DeploymentError::Crashed(_)) => {
                match try_resume_deployment(&stream, &spec, &cfg) {
                    Ok(resumed) => {
                        prop_assert_eq!(resumed.checkpoint_stats.restores, 1);
                        prop_assert!(
                            check_identical(&baseline, &resumed).is_ok(),
                            "resumed run diverged: {:?}",
                            check_identical(&baseline, &resumed)
                        );
                    }
                    // Killed before the first durable checkpoint: recovery
                    // legitimately reports nothing-to-resume-from.
                    Err(DeploymentError::NoCheckpoint(_)) => {}
                    Err(other) => return Err(format!("resume failed: {other}")),
                }
            }
            Err(other) => return Err(format!("run failed: {other}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `.tmp` files directly in `dir`: publishes a kill left unrenamed.
fn temp_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count()
    })
}

/// Kills a tiny URL Continuous run at every one of its durable operations
/// in turn — k = 0, 1, … until the countdown outlives the run — with
/// checkpoints every 2 chunks, the flight recorder on, and the WAL off or
/// at group sizes 1 and 8 with a 1-byte segment budget (a rotation after
/// every group). Every kill resumes to the uninterrupted run (compared as
/// `telemetry_on_resume_matches_everything_but_alerts_and_telemetry`
/// does), or is `NoCheckpoint` when it predates the first durable
/// checkpoint; and the sweep tears each kind of durable operation at least
/// once.
#[test]
fn every_durable_operation_kill_resumes_bit_identically() {
    let (stream, spec) = tiny_url();
    // Torn WAL tails, orphaned WAL segments, checkpoint and recorder temps.
    let mut torn = [0usize; 4];
    for wal in [None, Some(1), Some(8)] {
        let configure = |dir: &PathBuf| {
            let mut cfg = continuous_cfg();
            cfg.telemetry = Some(
                TelemetryConfig::new()
                    .recorder(RecorderConfig::new(dir.join("recorder")).flush_every(2)),
            );
            cfg.checkpoint = Some(CheckpointConfig::new(dir).every(2).keep(2));
            cfg.wal = wal.map(|batch| {
                WalConfig::new(dir.join("wal"))
                    .fsync_every(batch)
                    .segment_bytes(1)
            });
            cfg
        };
        let clean = ckpt_dir("exhaustive-clean");
        let baseline = run_deployment(&stream, &spec, &configure(&clean));
        let _ = std::fs::remove_dir_all(&clean);
        let mut resumed_kills = 0;
        for k in 0.. {
            let dir = ckpt_dir("exhaustive");
            let mut cfg = configure(&dir);
            cfg.faults = crash_plan(CrashSite::Durable, k);
            let label = format!("WAL {wal:?}, kill {k}");
            match try_run_deployment(&stream, &spec, &cfg) {
                Ok(completed) => {
                    assert!(k > 0, "{label}: the run has durable operations");
                    if let Err(e) = check_resumed(&baseline, &completed, false) {
                        panic!("{label}: the uncrashed run diverged: {e}");
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                    break;
                }
                Err(DeploymentError::Crashed(CrashSite::Durable)) => {}
                Err(other) => panic!("{label}: expected a durable-operation crash, got {other}"),
            }
            torn[1] += temp_files(&dir.join("wal"));
            torn[2] += temp_files(&dir);
            torn[3] += temp_files(&dir.join("recorder"));
            match try_resume_deployment(&stream, &spec, &cfg) {
                Ok(resumed) => {
                    assert_eq!(resumed.checkpoint_stats.restores, 1, "{label}");
                    if let Err(e) = check_resumed(&baseline, &resumed, false) {
                        panic!("{label}: resume diverged: {e}");
                    }
                    torn[0] += resumed.wal_stats.torn as usize;
                    resumed_kills += 1;
                }
                Err(DeploymentError::NoCheckpoint(_)) => {}
                Err(other) => panic!("{label}: resume failed: {other}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(resumed_kills > 0, "WAL {wal:?}: no kill resumed");
    }
    let kinds = ["WAL tail", "WAL segment", "checkpoint", "recorder segment"];
    for (kind, count) in kinds.iter().zip(torn) {
        assert!(count > 0, "the sweep never tore a {kind}: {torn:?}");
    }
}

/// The CI crash-recovery matrix entry point: seed and cadence come from the
/// environment (`CDP_FAULT_SEED`, `CDP_CKPT_INTERVAL`), checkpoints land
/// under `target/ci-checkpoints/` so the workflow can upload them as
/// artifacts when the assertion fails.
#[test]
fn ci_matrix_crash_recovery_smoke() {
    let seed: u64 = std::env::var("CDP_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let interval: usize = std::env::var("CDP_CKPT_INTERVAL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("ci-checkpoints")
        .join(format!("seed-{seed}-every-{interval}"));
    let _ = std::fs::remove_dir_all(&dir);

    let (stream, spec) = tiny_url();
    // Disk faults plus spill exercise the restored FaultInjector state: the
    // resumed run must keep injecting exactly where the uninterrupted run
    // would have.
    let faults = FaultPlan {
        seed,
        disk_read_error: 0.05,
        disk_write_error: 0.05,
        ..FaultPlan::none()
    };
    let mut baseline_cfg = continuous_cfg();
    baseline_cfg.spill_to_disk = true;
    baseline_cfg.faults = faults;
    let baseline = run_deployment(&stream, &spec, &baseline_cfg);

    let mut cfg = baseline_cfg.clone();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(interval).keep(2));
    cfg.faults = FaultPlan {
        crash_site: Some(CrashSite::ChunkBoundary),
        crash_at: 10,
        ..faults
    };
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }
    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.checkpoint_stats.restores, 1);
    assert_identical("ci matrix smoke", &baseline, &resumed);
    // Leave the checkpoint directory in place for artifact upload.
}

/// A serving front attached to a resumed deployment must serve the
/// *restored* version first: the resume path publishes the checkpointed
/// `(pipeline, model)` pair before re-entering the chunk loop, so a server
/// still holding the crashed process's last (stale, post-checkpoint)
/// snapshot is overwritten before any query can be answered from it — and
/// the publish event log proves which weights each publish carried, by
/// fingerprint.
#[test]
fn resumed_deployment_publishes_restored_version_before_serving() {
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let dir = ckpt_dir("serving-resume");
    let mut cfg = continuous_cfg();
    // Checkpoint every 4 chunks, crash on the 7th boundary: the last
    // durable checkpoint predates the crash by several chunks, so the
    // crashed process's serving snapshot is genuinely *ahead* of (stale
    // relative to) the authoritative restored state.
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(4).keep(2));
    cfg.faults = crash_plan(CrashSite::ChunkBoundary, 6);
    let server = ModelServer::new(spec.build_pipeline(), LinearModel::zeros(1, spec.sgd.loss));
    cfg.serving = Some(server.clone());
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }
    let stale = server.snapshot();
    let fp_stale = weights_fingerprint(stale.model.weights().as_slice());

    // Decode the newest durable checkpoint directly: these weights — not
    // the stale ones — must be the first thing published on resume.
    let (_, version, payload) = CheckpointDir::open(&dir, 2)
        .expect("open checkpoint dir")
        .latest_valid_versioned()
        .expect("list checkpoints")
        .expect("a durable checkpoint exists");
    let ckpt =
        DeploymentCheckpoint::decode_versioned(version, &payload).expect("decode checkpoint");
    let fp_restored = weights_fingerprint(&ckpt.weights);
    assert_ne!(
        fp_stale, fp_restored,
        "the crashed server must hold weights newer than the checkpoint"
    );

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");

    // The first publish after the restore event carries exactly the
    // checkpointed weights, tagged as the restore-site publish — and the
    // stale fingerprint never appears again after the restore.
    let events = &resumed.metrics.events;
    let restore_at = events
        .iter()
        .position(|e| e.name == "checkpoint.restore")
        .expect("restore event");
    let mut publishes_after = events[restore_at..]
        .iter()
        .filter(|e| e.name == "serving.publish");
    let first = publishes_after.next().expect("restore-site publish");
    assert!(
        first.detail.starts_with("restore version "),
        "first post-restore publish must come from the restore site: {}",
        first.detail
    );
    assert!(
        first.detail.ends_with(&format!("fp {fp_restored:016x}")),
        "restore publish must carry the checkpointed weights: {}",
        first.detail
    );
    // (The stale fingerprint legitimately *reappears* later: the resumed
    // loop re-processes the crashed chunks bit-identically, so when it
    // reaches the chunk the crashed process had last published, it publishes
    // the same weights — as a fresh, authoritative version. What matters is
    // that nothing was served from the stale snapshot before the restore
    // publish, which the "first post-restore publish" assertions above pin.)

    // After the resumed run completes, the attached server holds the same
    // final weights as the uninterrupted serving-less baseline — attaching
    // a server never perturbs training.
    assert_eq!(resumed.final_weights, baseline.final_weights);
    let final_snap = server.snapshot();
    assert_eq!(
        final_snap.model.weights().as_slice(),
        baseline.final_weights.as_slice()
    );
    // Versions stayed monotone across crash + resume on the shared server.
    assert_eq!(final_snap.version, server.version());
    let _ = std::fs::remove_dir_all(&dir);
}

/// With telemetry on, a resume is bit-identical everywhere `check_identical`
/// looks except alerts: the telemetry runtime — ring store, monitor
/// cooldowns, fired alerts — is not in the checkpoint and restarts empty
/// (DESIGN.md §12), so alerts may be lost or fire a second time and the
/// telemetry store holds only the resumed run's samples.
#[test]
fn telemetry_on_resume_matches_everything_but_alerts_and_telemetry() {
    let (stream, spec) = tiny_url();
    let mut baseline_cfg = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    baseline_cfg.optimization.budget = StorageBudget::MaxChunks(4);
    baseline_cfg.spill_to_disk = true;
    baseline_cfg.collect_metrics = true;
    baseline_cfg.telemetry = Some(TelemetryConfig::new());
    baseline_cfg.faults = FaultPlan {
        disk_write_error: 1.0,
        ..FaultPlan::none()
    };
    let baseline = run_deployment(&stream, &spec, &baseline_cfg);

    let dir = ckpt_dir("telemetry");
    let mut cfg = baseline_cfg.clone();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(2));
    cfg.faults = FaultPlan {
        crash_site: Some(CrashSite::ChunkBoundary),
        crash_at: 9,
        ..baseline_cfg.faults
    };
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }
    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.checkpoint_stats.restores, 1);
    if let Err(e) = check_resumed(&baseline, &resumed, false) {
        panic!("telemetry-on resume: {e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
