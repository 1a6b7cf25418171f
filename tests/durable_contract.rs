//! The contract of background durability (DESIGN.md §17): a WAL group commit
//! writes its frames before `append` returns and syncs them on a background
//! job the next durable operation joins; the flight recorder publishes its
//! segments the same way.
//!
//! - a process kill loses what it lost when the sync was inline: a committed
//!   group is in the file before `append` returns;
//! - a power loss may lose at most one group in flight on top of the pending
//!   buffer, so `last_durable_seq` trails the highest sequence by at most
//!   `2·fsync_every − 1` and meets it after `flush`;
//! - a real I/O error in a background job surfaces at the owner's next
//!   operation, and a deployment returns it typed;
//! - fault outcomes are decided on the caller's thread in the order they
//!   always were: `WalStats` and `FaultStats` of seeded chaos runs equal
//!   tuples pinned at the commit before the background syncer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cdpipe::faults::NoFaults;
use cdpipe::obs::{Metrics, VirtualClock};
use cdpipe::prelude::*;
use cdpipe::storage::{RawChunk, Schema, StorageError, WalDir, WalOptions, WalWriter};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A test-private directory that never collides across parallel tests.
fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cdp-durable-contract-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn writer(dir: &Path, fsync_every: usize, segment_bytes: u64) -> WalWriter {
    let options = WalOptions {
        fsync_every,
        group_window_secs: 0.0,
        segment_bytes,
        ..WalOptions::default()
    };
    WalWriter::open(
        dir,
        options,
        Arc::new(NoFaults),
        Arc::new(VirtualClock::default()),
        Metrics::disabled(),
        0,
    )
    .expect("temp dir is writable")
}

/// Any chunk will do: the WAL logs bytes, and the tiny stream is short.
fn chunk(stream: &impl ChunkStream, seq: u64) -> RawChunk {
    stream.chunk(seq as usize % stream.total_chunks())
}

fn recovered_seqs(dir: &Path) -> Vec<u64> {
    let recovery = WalDir::open(dir)
        .and_then(|d| d.recover())
        .expect("recover");
    recovery.chunks.iter().map(|(seq, _)| *seq).collect()
}

#[test]
fn a_committed_group_is_in_the_file_when_append_returns() {
    let (stream, _) = url_spec(SpecScale::Tiny);
    for (fsync_every, segment_bytes) in [(1, 1), (1, 1 << 20), (3, 4096), (8, 1 << 20)] {
        let dir = test_dir("kill");
        let mut w = writer(&dir, fsync_every, segment_bytes);
        let mut committed = 0u64;
        for seq in 0..20u64 {
            w.append(seq, &chunk(&stream, seq)).expect("append");
            if (seq + 1) % fsync_every as u64 == 0 {
                committed = seq + 1;
            }
            // A second reader on the live directory: what a kill right here
            // would leave. Every committed group, nothing buffered.
            let expected: Vec<u64> = (0..committed).collect();
            assert_eq!(
                recovered_seqs(&dir),
                expected,
                "fsync_every {fsync_every}, segment_bytes {segment_bytes}, after seq {seq}"
            );
        }
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn last_durable_seq_trails_by_at_most_one_group_in_flight() {
    let (stream, _) = url_spec(SpecScale::Tiny);
    for fsync_every in [1usize, 2, 3, 8] {
        for segment_bytes in [1, 4096, 1 << 20] {
            let dir = test_dir("durable-seq");
            let mut w = writer(&dir, fsync_every, segment_bytes);
            let slack = 2 * fsync_every as u64 - 1;
            for seq in 0..30u64 {
                w.append(seq, &chunk(&stream, seq)).expect("append");
                // Counts, so "nothing durable yet" is 0.
                let durable = w.last_durable_seq().map_or(0, |s| s + 1);
                assert!(durable <= seq + 1);
                assert!(
                    seq + 1 - durable <= slack,
                    "fsync_every {fsync_every}: {durable} durable after seq {seq}"
                );
            }
            w.flush().expect("flush");
            assert_eq!(w.last_durable_seq(), Some(29), "fsync_every {fsync_every}");
            assert_eq!(recovered_seqs(&dir), (0..30).collect::<Vec<u64>>());
            drop(w);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_background_wal_error_surfaces_at_the_next_operation() {
    let (stream, _) = url_spec(SpecScale::Tiny);
    // `flush` is commit plus join: the failed rotation is its own error.
    let dir = test_dir("wal-flush");
    let mut w = writer(&dir, 8, 1);
    w.append(0, &stream.chunk(0)).expect("append");
    std::fs::remove_dir_all(&dir).expect("remove the WAL directory");
    assert!(matches!(w.flush(), Err(StorageError::Io(_))));
    // The error was returned, not kept: the writer can be dropped.
    drop(w);

    // A committing append hands the rotation off and returns; the next
    // operation joins it and returns its error.
    let dir = test_dir("wal-append");
    let mut w = writer(&dir, 1, 1);
    w.append(0, &stream.chunk(0)).expect("append");
    w.flush().expect("the first rotation joined");
    std::fs::remove_dir_all(&dir).expect("remove the WAL directory");
    w.append(1, &stream.chunk(1))
        .expect("the group lands in the open segment, the rotation fails off the path");
    assert!(matches!(
        w.append(2, &stream.chunk(2)),
        Err(StorageError::Io(_))
    ));
    drop(w);

    // `gc` as the next operation returns an error too.
    let dir = test_dir("wal-gc");
    let mut w = writer(&dir, 1, 1);
    w.append(0, &stream.chunk(0)).expect("append");
    w.flush().expect("the first rotation joined");
    std::fs::remove_dir_all(&dir).expect("remove the WAL directory");
    w.append(1, &stream.chunk(1)).expect("append");
    assert!(matches!(w.gc(0), Err(StorageError::Io(_))));
}

/// A stream that removes `victim` when chunk `at` arrives, between the
/// owner's durable operations.
struct RemoveDirAt<S> {
    inner: S,
    at: usize,
    victim: PathBuf,
    done: AtomicBool,
}

impl<S: ChunkStream> ChunkStream for RemoveDirAt<S> {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn total_chunks(&self) -> usize {
        self.inner.total_chunks()
    }

    fn initial_chunks(&self) -> usize {
        self.inner.initial_chunks()
    }

    fn chunk(&self, index: usize) -> RawChunk {
        if index == self.at && !self.done.swap(true, Ordering::Relaxed) {
            // A background job may be adding a file while the directory
            // goes; it fails either way, and the removal is tried again.
            for _ in 0..100 {
                if std::fs::remove_dir_all(&self.victim).is_ok() || !self.victim.exists() {
                    break;
                }
            }
        }
        self.inner.chunk(index)
    }
}

#[test]
fn a_deployment_returns_a_background_error_typed() {
    for layer in ["wal", "recorder"] {
        let (inner, spec) = url_spec(SpecScale::Tiny);
        let dir = test_dir(layer);
        let victim = dir.join(layer);
        let at = inner.initial_chunks() + 6;
        let stream = RemoveDirAt {
            inner,
            at,
            victim: victim.clone(),
            done: AtomicBool::new(false),
        };
        let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
        config.collect_metrics = true;
        if layer == "wal" {
            // Every commit rotates, so the commit after the removal publishes
            // into a missing directory.
            config.wal = Some(WalConfig::new(&victim).fsync_every(1).segment_bytes(1));
        } else {
            let recorder = RecorderConfig::new(&victim).flush_every(1);
            config.telemetry = Some(TelemetryConfig::new().recorder(recorder));
        }
        let outcome = try_run_deployment(&stream, &spec, &config).err();
        assert!(
            matches!(
                outcome,
                Some(DeploymentError::Storage(StorageError::Io(ref e)))
                    if e.kind() == std::io::ErrorKind::NotFound
            ),
            "{layer}: {outcome:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `WalStats` as a tuple, field order as declared.
fn wal_tuple(s: &WalStats) -> [u64; 12] {
    [
        s.appends,
        s.skipped,
        s.commits,
        s.bytes_committed,
        s.rotations,
        s.segments_gced,
        s.lost_records,
        s.injected_faults,
        s.retries,
        s.replayed,
        s.torn,
        s.corrupt,
    ]
}

/// `FaultStats` as a tuple, field order as declared.
fn fault_tuple(s: &FaultStats) -> [u64; 11] {
    [
        s.injected_disk_read,
        s.injected_disk_write,
        s.injected_corruption,
        s.injected_worker_panics,
        s.injected_delays,
        s.injected_crashes,
        s.retries,
        s.recovered,
        s.fallback_rematerializations,
        s.lost_spills,
        s.fatal,
    ]
}

/// `(fault seed, fsync_every)` → `(WalStats, FaultStats)` of a seeded chaos
/// run, taken at the commit before the background syncer.
type Pin = ((u64, usize), [u64; 12], [u64; 11]);

const PINNED: [Pin; 4] = [
    (
        (7, 1),
        [15, 0, 15, 43838, 7, 7, 0, 13, 13, 0, 0, 0],
        [5, 4, 3, 0, 0, 0, 12, 9, 0, 0, 0],
    ),
    (
        (7, 8),
        [15, 0, 8, 43838, 7, 7, 0, 12, 12, 0, 0, 0],
        [5, 4, 3, 0, 0, 0, 12, 9, 0, 0, 0],
    ),
    (
        (104_729, 1),
        [15, 0, 14, 40922, 7, 7, 1, 20, 19, 0, 0, 0],
        [1, 4, 5, 0, 0, 0, 10, 10, 0, 0, 0],
    ),
    (
        (104_729, 8),
        [15, 0, 8, 43838, 7, 7, 0, 14, 14, 0, 0, 0],
        [1, 4, 5, 0, 0, 0, 10, 10, 0, 0, 0],
    ),
];

#[test]
fn seeded_wal_and_fault_stats_equal_the_commit_before_the_background_syncer() {
    let (stream, spec) = url_spec(SpecScale::Tiny);
    for ((seed, fsync_every), wal, faults) in PINNED {
        let dir = test_dir("pinned");
        let mut config = DeploymentConfig::continuous(2, 3, SamplingStrategy::Uniform);
        config.optimization.budget = StorageBudget::MaxChunks(2);
        config.collect_metrics = true;
        // Every fault kind but the worker panics, which can exhaust the
        // restart budget and end the run before the WAL is exercised.
        // WAL faults often enough that groups and records are lost.
        config.faults = FaultPlan {
            worker_panic: 0.0,
            wal_append_error: 0.3,
            wal_fsync_error: 0.3,
            wal_rotate_error: 0.3,
            ..FaultPlan::chaos(seed)
        };
        config.spill_to_disk = true;
        config.checkpoint = Some(CheckpointConfig::new(dir.join("ckpt")).every(4).keep(2));
        config.wal = Some(
            WalConfig::new(dir.join("wal"))
                .fsync_every(fsync_every)
                .segment_bytes(4096),
        );
        let recorder = RecorderConfig::new(dir.join("rec")).flush_every(2);
        config.telemetry = Some(TelemetryConfig::new().recorder(recorder));
        let result = try_run_deployment(&stream, &spec, &config).expect("chaos run");
        assert_eq!(
            wal_tuple(&result.wal_stats),
            wal,
            "seed {seed}, fsync_every {fsync_every}"
        );
        assert_eq!(
            fault_tuple(&result.fault_stats),
            faults,
            "seed {seed}, fsync_every {fsync_every}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
