//! Telemetry determinism and crash-recovery properties.
//!
//! Under an injected [`VirtualClock`] the telemetry timeline is pure data:
//! rerunning the same deployment — on any worker count — must reproduce the
//! ring-buffer store bit for bit, and turning telemetry on must never
//! perturb the deployment's results. After a seeded crash the flight
//! recorder's on-disk segments must reconstruct a valid timeline up to the
//! last flush, with torn or corrupt tail files skipped rather than fatal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cdpipe::engine::{ExecutionEngine, RunCtx};
use cdpipe::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A test-private segment directory that never collides across parallel
/// tests or repeated runs of one process.
fn seg_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cdp-telemetry-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn telemetry_config() -> DeploymentConfig {
    let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
    // A bounded cache exercises re-materialization (and its counters).
    config.optimization.budget = StorageBudget::MaxChunks(5);
    config.telemetry = Some(TelemetryConfig::new());
    config
}

/// Runs the telemetry workload with metrics stamped against a fresh
/// [`VirtualClock`], so every duration observation is deterministic.
fn run_virtual(config: &DeploymentConfig) -> DeploymentResult {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let ctx = RunCtx {
        metrics: Metrics::with_clock(Arc::new(VirtualClock::new())),
        ..RunCtx::default()
    };
    try_run_deployment_in(&stream, &spec, config, ctx).expect("deployment")
}

#[test]
fn telemetry_timeline_is_bit_identical_across_reruns_and_workers() {
    let baseline = run_virtual(&telemetry_config());
    assert!(
        baseline.telemetry.samples() > 0,
        "telemetry sampled nothing"
    );
    assert!(baseline.telemetry.series_count() > 0);

    // Rerun: same config, fresh virtual clock — the whole store matches,
    // including every export rendering.
    let rerun = run_virtual(&telemetry_config());
    assert_eq!(baseline.telemetry, rerun.telemetry);
    assert_eq!(
        baseline.telemetry.to_csv(),
        rerun.telemetry.to_csv(),
        "CSV export diverged across reruns"
    );

    // Worker count is an implementation detail: scheduling-dependent
    // `engine.*` series are excluded by default, so the sampled timeline
    // is identical on any pool size.
    for workers in [1usize, 4, 8] {
        let mut config = telemetry_config();
        config.engine = ExecutionEngine::Threaded { workers };
        let threaded = run_virtual(&config);
        assert_eq!(
            baseline.telemetry, threaded.telemetry,
            "telemetry diverged with {workers} workers"
        );
        assert_eq!(baseline.telemetry.to_json(), threaded.telemetry.to_json());
        assert_eq!(baseline.alerts, threaded.alerts);
    }
}

#[test]
fn telemetry_never_perturbs_the_deployment() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let mut enabled = telemetry_config();
    enabled.collect_metrics = true;
    let observed = run_deployment(&stream, &spec, &enabled);

    let mut disabled = telemetry_config();
    disabled.telemetry = None;
    let baseline = run_deployment(&stream, &spec, &disabled);

    assert_eq!(baseline.final_weights, observed.final_weights);
    assert_eq!(baseline.error_curve, observed.error_curve);
    assert_eq!(baseline.cost_curve, observed.cost_curve);
    assert_eq!(
        baseline.final_error.to_bits(),
        observed.final_error.to_bits()
    );
    assert_eq!(baseline.total_secs.to_bits(), observed.total_secs.to_bits());
    assert_eq!(baseline.proactive_runs, observed.proactive_runs);
    assert_eq!(baseline.tiered_stats, observed.tiered_stats);
    // Only the telemetry store itself differs.
    assert_eq!(baseline.telemetry.samples(), 0);
    assert!(observed.telemetry.samples() > 0);
}

/// Crashes a seeded deployment with the flight recorder flushing every
/// sample, returning the segment directory.
fn crash_with_recorder(tag: &str) -> PathBuf {
    let dir = seg_dir(tag);
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let mut config = telemetry_config();
    config.collect_metrics = true;
    config.spill_to_disk = true;
    config.optimization.budget = StorageBudget::MaxChunks(4);
    config.faults = FaultPlan {
        seed: 17,
        disk_write_error: 1.0,
        crash_site: Some(CrashSite::ChunkBoundary),
        crash_at: 5,
        ..FaultPlan::none()
    };
    config.telemetry =
        Some(TelemetryConfig::new().recorder(RecorderConfig::new(&dir).flush_every(1)));
    let err = try_run_deployment(&stream, &spec, &config).expect_err("run must crash");
    assert!(
        matches!(err, DeploymentError::Crashed(CrashSite::ChunkBoundary)),
        "unexpected failure: {err}"
    );
    dir
}

#[test]
fn crash_leaves_a_recoverable_timeline() {
    let dir = crash_with_recorder("crash");

    let scan = load_segments(&dir, 16).expect("scan segments");
    assert_eq!(scan.skipped, 0, "clean crash left undecodable segments");
    let newest = scan.segments.first().expect("no segments recovered");
    assert!(newest.samples > 0, "recovered timeline is empty");
    assert!(!newest.counters.is_empty());
    // The crash flush covers the chunks processed before the kill, and the
    // certain spill-write failure fired the lost-spills alert before it.
    assert!(
        newest
            .counters
            .keys()
            .any(|name| name == "deployment.chunks"),
        "timeline lost the chunk counter"
    );
    assert!(
        newest.alerts.iter().any(|a| a.rule == "store.lost_spills"),
        "lost-spills alert missing from the recovered timeline"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_and_corrupt_tails_are_skipped_not_fatal() {
    let dir = crash_with_recorder("torn");
    // `seg-{seq:012}.cdpt`: name order is sequence order.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list segments")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cdpt"))
        .collect();
    files.sort();
    assert!(!files.is_empty());

    // Tear the newest segment mid-write and scribble over the one before
    // it; drop a foreign file in for good measure.
    let newest = files.last().unwrap();
    let bytes = std::fs::read(newest).expect("read newest");
    std::fs::write(newest, &bytes[..bytes.len() / 2]).expect("tear newest");
    if files.len() > 1 {
        let prev = &files[files.len() - 2];
        let mut garbled = std::fs::read(prev).expect("read prev");
        let mid = garbled.len() / 2;
        garbled[mid] ^= 0xFF;
        std::fs::write(prev, garbled).expect("corrupt prev");
    }
    std::fs::write(dir.join("zz-not-a-segment.cdpt"), b"junk").expect("foreign file");
    std::fs::write(dir.join(format!("seg-{:012}.tmp", u64::MAX)), b"torn tmp").expect("tmp file");

    let scan = load_segments(&dir, 16).expect("scan survives corruption");
    assert!(scan.skipped >= 1, "corrupt tail was not detected");
    if files.len() > 2 {
        // Older, untouched segments still decode.
        let newest_valid = scan.segments.first().expect("all segments lost");
        assert!(newest_valid.samples > 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
