//! WAL-backed ingest recovery tests: a deployment killed *between*
//! checkpoints — including at a group write (torn tail) and at a rotation's
//! publish (orphaned temp segment) — must resume to a bit-identical end state by
//! replaying checkpoint + WAL suffix (DESIGN.md §17), and the deployment
//! scenarios (sudden drift, bursty arrivals, out-of-order chunks) must run
//! end-to-end deterministically with the WAL enabled.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cdpipe::datagen::url::UrlGenerator;
use cdpipe::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A test-private directory that never collides across parallel tests.
fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cdp-wal-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn tiny_url() -> (UrlGenerator, DeploymentSpec) {
    url_spec(SpecScale::Tiny)
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

/// Counters with the legitimately-divergent prefixes removed (`checkpoint.*`
/// and `wal.*` describe durability activity, `engine.scratch_*` transient
/// process state — see tests/checkpoint_recovery.rs for the rationale).
fn identity_counters(m: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    m.iter()
        .filter(|(k, _)| {
            !k.starts_with("checkpoint.")
                && !k.starts_with("wal.")
                && !k.starts_with("engine.scratch_")
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// The bit-identity surfaces of the kill-and-resume contract.
fn assert_identical(label: &str, a: &DeploymentResult, b: &DeploymentResult) {
    assert_eq!(a.final_weights, b.final_weights, "{label}: weights");
    assert_eq!(a.error_curve, b.error_curve, "{label}: error curve");
    assert_eq!(a.cost_curve, b.cost_curve, "{label}: cost curve");
    assert_eq!(
        a.total_secs.to_bits(),
        b.total_secs.to_bits(),
        "{label}: accounted cost"
    );
    assert_eq!(a.store_stats, b.store_stats, "{label}: store stats");
    assert_eq!(a.tiered_stats, b.tiered_stats, "{label}: tiered stats");
    assert_eq!(a.fault_stats, b.fault_stats, "{label}: fault stats");
    assert_eq!(a.alerts, b.alerts, "{label}: alerts");
    assert_eq!(
        identity_counters(&a.metrics.counters),
        identity_counters(&b.metrics.counters),
        "{label}: metric counters"
    );
}

/// `.tmp` files in `dir`: publishes a kill left unrenamed.
fn orphan_count(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .expect("directory")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .count()
}

/// Kills `configure`'s run at its k-th durable operation for k = 0, 1, …,
/// each in a fresh directory, and resumes it, until `found` accepts a kill
/// by the crashed WAL directory's orphaned `.tmp` count and the resumed run.
/// Kills before the first durable checkpoint are passed over. Returns the
/// accepted k, its orphan count and resumed run, and the directory to
/// remove.
fn first_kill(
    tag: &str,
    configure: impl Fn(&PathBuf) -> DeploymentConfig,
    found: impl Fn(usize, &DeploymentResult) -> bool,
) -> (u64, usize, DeploymentResult, PathBuf) {
    let (stream, spec) = tiny_url();
    for k in 0.. {
        let dir = test_dir(tag);
        let mut cfg = configure(&dir);
        cfg.faults = crash_plan(CrashSite::Durable, k);
        match try_run_deployment(&stream, &spec, &cfg) {
            Err(DeploymentError::Crashed(CrashSite::Durable)) => {}
            other => panic!("kill {k}: expected a durable-operation crash, got {other:?}"),
        }
        let orphans = orphan_count(&dir.join("wal"));
        match try_resume_deployment(&stream, &spec, &cfg) {
            Ok(resumed) if found(orphans, &resumed) => return (k, orphans, resumed, dir),
            Ok(_) | Err(DeploymentError::NoCheckpoint(_)) => {}
            Err(other) => panic!("kill {k}: resume failed: {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("the countdown is unbounded")
}

fn segment_count(wal_dir: &PathBuf) -> usize {
    std::fs::read_dir(wal_dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "cdpw"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn resume_with_empty_wal_replays_nothing_and_matches() {
    // A crash at a checkpoint boundary leaves nothing in the WAL beyond
    // what the checkpoint covers (fsync_every=1 keeps it fully GC'd):
    // recovery replays zero records and still lands bit-identical.
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let dir = test_dir("empty");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(1).keep(2));
    cfg.wal = Some(WalConfig::new(dir.join("wal")).fsync_every(1));
    cfg.faults = crash_plan(CrashSite::ChunkBoundary, 5);
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.wal_stats.replayed, 0, "checkpoint covered the WAL");
    assert_identical("empty WAL resume", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_between_checkpoints_replays_the_wal_suffix() {
    // Checkpoint every 4 chunks, unbatched fsync, crash on a boundary
    // between checkpoints: the suffix since the last checkpoint exists
    // only in the WAL, and resume must replay it (not just the stream).
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let dir = test_dir("between");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(4).keep(2));
    cfg.wal = Some(WalConfig::new(dir.join("wal")).fsync_every(1));
    cfg.faults = crash_plan(CrashSite::ChunkBoundary, 6);
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert!(
        resumed.wal_stats.replayed > 0,
        "a mid-interval crash must leave a WAL suffix to replay: {:?}",
        resumed.wal_stats
    );
    assert!(
        resumed.wal_stats.skipped >= resumed.wal_stats.replayed,
        "replayed appends must be idempotently skipped: {:?}",
        resumed.wal_stats
    );
    assert_identical("between-checkpoint crash", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_record_is_truncated_and_resume_matches() {
    // A kill at a group write tears it: half the group's bytes land unsynced
    // in the active segment. Recovery must truncate the torn tail, count it,
    // and still resume bit-identically (the stream covers what the torn
    // group lost). The first kill to tear a group is taken.
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let (k, _, resumed, dir) = first_kill(
        "torn",
        |dir| {
            let mut cfg = continuous_cfg();
            cfg.checkpoint = Some(CheckpointConfig::new(dir).every(2).keep(2));
            // Large batch, no window: every append stays buffered until the
            // group is written.
            cfg.wal = Some(
                WalConfig::new(dir.join("wal"))
                    .fsync_every(64)
                    .group_window(0.0),
            );
            cfg
        },
        |_, resumed| resumed.wal_stats.torn >= 1,
    );
    assert!(
        resumed.wal_stats.torn >= 1,
        "kill {k}: the torn tail must be truncated and counted: {:?}",
        resumed.wal_stats
    );
    assert_identical("torn final record", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_rotation_leaves_orphan_tmp_and_resume_matches() {
    // A 1-byte segment budget rotates after every group; the first kill that
    // leaves an orphaned `.tmp` segment and a checkpoint to resume from is
    // taken.
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let (k, orphans, resumed, dir) = first_kill(
        "rotation",
        |dir| {
            let mut cfg = continuous_cfg();
            cfg.checkpoint = Some(CheckpointConfig::new(dir).every(2).keep(2));
            cfg.wal = Some(
                WalConfig::new(dir.join("wal"))
                    .fsync_every(1)
                    .segment_bytes(1),
            );
            cfg
        },
        |orphans, _| orphans > 0,
    );
    assert_eq!(
        orphans, 1,
        "kill {k}: a mid-rotation kill leaves one orphaned .tmp"
    );
    assert!(
        k > 0,
        "the opening segment's kill has no checkpoint to resume"
    );
    assert_identical("crash mid-rotation", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_segments_rotate_and_replay_across_many_segments() {
    // A 1 KiB segment budget forces a rotation nearly every commit: the
    // crashed run leaves a multi-segment WAL whose numeric (not
    // lexicographic-accident) ordering recovery must respect.
    let (stream, spec) = tiny_url();
    let baseline = run_deployment(&stream, &spec, &continuous_cfg());

    let dir = test_dir("segments");
    let wal_dir = dir.join("wal");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(4).keep(2));
    cfg.wal = Some(WalConfig::new(&wal_dir).fsync_every(1).segment_bytes(1024));
    cfg.faults = crash_plan(CrashSite::ChunkBoundary, 6);
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
        other => panic!("expected a chunk-boundary crash, got {other:?}"),
    }
    assert!(
        segment_count(&wal_dir) > 1,
        "a 1 KiB budget must have rotated at least once"
    );

    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert!(resumed.wal_stats.replayed > 0);
    assert_identical("multi-segment replay", &baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_garbage_collect_covered_segments() {
    // A clean run with tiny segments and frequent checkpoints must retire
    // covered segments as it goes — the WAL directory stays bounded instead
    // of accumulating the whole stream.
    let (stream, spec) = tiny_url();
    let dir = test_dir("gc");
    let wal_dir = dir.join("wal");
    let mut cfg = continuous_cfg();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(2).keep(2));
    cfg.wal = Some(WalConfig::new(&wal_dir).fsync_every(1).segment_bytes(1024));
    let result = run_deployment(&stream, &spec, &cfg);
    assert!(result.wal_stats.rotations > 0, "{:?}", result.wal_stats);
    assert!(result.wal_stats.segments_gced > 0, "{:?}", result.wal_stats);
    assert!(
        segment_count(&wal_dir) <= 2,
        "covered segments must be retired, found {}",
        segment_count(&wal_dir)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_does_not_perturb_a_clean_run() {
    // The acceptance bar for `wal: None` compatibility, from the other
    // side: enabling the WAL must not change any deterministic surface of
    // an uninterrupted run.
    let (stream, spec) = tiny_url();
    let plain = run_deployment(&stream, &spec, &continuous_cfg());
    let dir = test_dir("perturb");
    let mut cfg = continuous_cfg();
    cfg.wal = Some(WalConfig::new(dir.join("wal")));
    let walled = run_deployment(&stream, &spec, &cfg);
    assert!(walled.wal_stats.appends > 0);
    assert!(walled.wal_stats.commits > 0);
    assert_identical("WAL perturbation", &plain, &walled);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The three acceptance scenarios, each run end-to-end on the simulated
/// clock with WAL + checkpoints, killed between checkpoints, and resumed
/// bit-identically against its own uninterrupted baseline.
#[test]
fn scenarios_survive_kill_and_resume_with_wal() {
    let (url, spec) = tiny_url();
    let scenarios: [(&str, Box<dyn ChunkStream>); 3] = [
        ("sudden-drift", Box::new(SuddenDrift::new(url.clone(), 12))),
        (
            "bursty-arrivals",
            Box::new(BurstyArrivals::new(url.clone(), 41, 4, 0.3)),
        ),
        (
            "out-of-order",
            Box::new(OutOfOrderArrivals::new(url, 41, 4)),
        ),
    ];
    for (name, stream) in &scenarios {
        // Deterministic under the virtual clock: same stream, same result.
        let baseline = run_deployment(stream.as_ref(), &spec, &continuous_cfg());
        let again = run_deployment(stream.as_ref(), &spec, &continuous_cfg());
        assert_identical(&format!("{name} determinism"), &baseline, &again);

        let dir = test_dir(name);
        let mut cfg = continuous_cfg();
        cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(3).keep(2));
        cfg.wal = Some(WalConfig::new(dir.join("wal")).fsync_every(1));
        cfg.faults = crash_plan(CrashSite::ChunkBoundary, 7);
        match try_run_deployment(stream.as_ref(), &spec, &cfg) {
            Err(DeploymentError::Crashed(CrashSite::ChunkBoundary)) => {}
            other => panic!("{name}: expected a chunk-boundary crash, got {other:?}"),
        }
        let resumed = try_resume_deployment(stream.as_ref(), &spec, &cfg).expect("resume");
        assert_identical(&format!("{name} kill+resume"), &baseline, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The CI wal-chaos matrix entry point: seed, fsync batch, and crash site
/// come from the environment (`CDP_FAULT_SEED`, `CDP_WAL_FSYNC`,
/// `CDP_WAL_CRASH_SITE`); WAL segments land under `target/ci-wal/` so the
/// workflow can upload them as artifacts when the assertion fails.
#[test]
fn ci_matrix_wal_chaos_smoke() {
    let seed: u64 = std::env::var("CDP_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let fsync: usize = std::env::var("CDP_WAL_FSYNC")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let site = std::env::var("CDP_WAL_CRASH_SITE")
        .ok()
        .and_then(|v| CrashSite::parse(&v))
        .unwrap_or(CrashSite::Durable);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("ci-wal")
        .join(format!("seed-{seed}-fsync-{fsync}-{}", site.name()));
    let _ = std::fs::remove_dir_all(&dir);

    let (stream, spec) = tiny_url();
    // Low-rate WAL faults on top of the kill: retries and degraded-to-lost
    // records must not break the bit-identity contract.
    let faults = FaultPlan {
        seed,
        wal_append_error: 0.05,
        wal_fsync_error: 0.05,
        ..FaultPlan::none()
    };
    let mut baseline_cfg = continuous_cfg();
    baseline_cfg.faults = faults;
    let baseline = run_deployment(&stream, &spec, &baseline_cfg);

    let mut cfg = baseline_cfg.clone();
    cfg.checkpoint = Some(CheckpointConfig::new(&dir).every(3).keep(2));
    cfg.wal = Some(WalConfig::new(dir.join("wal")).fsync_every(fsync));
    cfg.faults = FaultPlan {
        crash_site: Some(site),
        crash_at: 6,
        ..faults
    };
    match try_run_deployment(&stream, &spec, &cfg) {
        Err(DeploymentError::Crashed(s)) if s == site => {}
        other => panic!("expected a {} crash, got {other:?}", site.name()),
    }
    let resumed = try_resume_deployment(&stream, &spec, &cfg).expect("resume");
    assert_eq!(resumed.checkpoint_stats.restores, 1);
    assert_identical("ci wal-chaos smoke", &baseline, &resumed);
    // Leave the WAL directory in place for artifact upload.
}
