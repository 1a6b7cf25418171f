//! Crash-consistent checkpoint files.
//!
//! This module is the durable half of the deployment checkpoint subsystem:
//! it knows how to get an opaque payload onto disk so that **either** the new
//! checkpoint exists in full **or** the previous state is untouched, and how
//! to get the newest *valid* payload back after an arbitrary crash. What goes
//! *into* the payload (model weights, online statistics, scheduler state …)
//! is assembled by `cdp-core`; this layer treats it as bytes.
//!
//! Each checkpoint is a sealed file of the durable-file layer
//! ([`cdp_obs::durable`], DESIGN.md §12) in a numbered directory:
//!
//! ```text
//! ckpt-{seq:012}.cdpk: magic "CDPC" | version u16 | payload | crc32 u32
//! ```
//!
//! A write publishes the file atomically (temp file, fsync, rename,
//! directory fsync), then prunes checkpoints beyond the keep budget, oldest
//! first. A crash between any two steps leaves either a `.tmp` file (ignored
//! by recovery) or a complete checkpoint. Recovery scans newest-first and
//! returns the first file whose magic, CRC and version all check out — a
//! torn, truncated or bit-rotted latest checkpoint therefore falls back to
//! its predecessor instead of failing the resume.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use cdp_obs::durable::{CrashPoint, Format, NumberedDir};

use crate::{SchemaVersion, StorageError};

/// Schema of checkpoint files, and the only one this build reads: a file
/// of any other version (v1 was the original layout; v3, numbered to match
/// the spill codec's columnar release, added the store's compaction/GC
/// counters) is a typed [`StorageError::VersionMismatch`].
pub const CHECKPOINT_SCHEMA: SchemaVersion = SchemaVersion(3);

const CHECKPOINT: Format = Format {
    magic: *b"CDPC",
    version: CHECKPOINT_SCHEMA.0,
};

/// Sentinel for "no generation pinned".
const UNPINNED: u64 = u64::MAX;

/// A directory of numbered checkpoint files with a bounded retention budget.
///
/// A caller whose recovery depends on one specific generation — the WAL
/// keys its suffix replay to the newest *durable* checkpoint — can
/// [`CheckpointDir::pin`] that sequence number: pruning then never deletes
/// the pinned file, even when it falls outside the keep budget, until the
/// pin advances or is released.
#[derive(Debug)]
pub struct CheckpointDir {
    files: NumberedDir,
    keep: usize,
    /// Pinned generation ([`UNPINNED`] = none); interior-mutable so the
    /// write path can stay `&self`.
    pinned: AtomicU64,
    crash: CrashPoint,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory keeping the last
    /// `keep` checkpoints (clamped to at least 1).
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn open(dir: impl AsRef<Path>, keep: usize) -> Result<Self, StorageError> {
        Ok(Self {
            files: NumberedDir::open(dir.as_ref(), "ckpt", "cdpk")?,
            keep: keep.max(1),
            pinned: AtomicU64::new(UNPINNED),
            crash: CrashPoint::default(),
        })
    }

    /// Consults `crash` before every checkpoint publish (the durable layer's
    /// crash seam): a kill leaves only the torn temp file, and recovery falls
    /// back to the previous checkpoint. A directory opened without one never
    /// dies.
    pub fn set_crash_point(&mut self, crash: CrashPoint) {
        self.crash = crash;
    }

    /// Pins generation `seq`: [`CheckpointDir::write`]'s pruning will never
    /// delete it, even beyond the keep budget, until the pin moves. The WAL
    /// layer pins the checkpoint its live suffix replays from.
    pub fn pin(&self, seq: u64) {
        self.pinned.store(seq, Ordering::Relaxed);
    }

    /// The currently pinned generation, if any.
    fn pinned(&self) -> Option<u64> {
        match self.pinned.load(Ordering::Relaxed) {
            UNPINNED => None,
            seq => Some(seq),
        }
    }

    /// Durably writes checkpoint `seq` (temp file + fsync + rename + dir
    /// fsync), prunes past the keep budget, and returns the file size in
    /// bytes.
    ///
    /// # Errors
    /// I/O errors anywhere in the durability protocol, the directory fsync
    /// included: an error means the file may not survive a crash, so the
    /// caller must not pin it or retire the WAL segments it covers. A kill
    /// at the publish is [`cdp_obs::durable::Killed`].
    pub fn write(&self, seq: u64, payload: &[u8]) -> Result<u64, StorageError> {
        let file = CHECKPOINT.seal(payload.len(), |buf| buf.extend_from_slice(payload));
        self.crash.before_publish(&self.files, seq, &file)?;
        self.files.publish(seq, &file)?;
        self.files.prune(self.keep, self.pinned())?;
        Ok(file.len() as u64)
    }

    /// The newest checkpoint that passes validation, as `(seq, version,
    /// payload)`, the version for the payload decoder to check.
    ///
    /// Scans newest-first; corrupt, torn or version-mismatched files are
    /// skipped (falling back to the predecessor) rather than failing the
    /// scan. Returns `Ok(None)` when no valid checkpoint exists.
    ///
    /// # Errors
    /// I/O errors reading the directory (individual unreadable files are
    /// skipped, not fatal).
    pub fn latest_valid_versioned(&self) -> Result<Option<(u64, u16, Vec<u8>)>, StorageError> {
        let (mut newest, _) = self.files.newest_valid(1, |seq, bytes| {
            CHECKPOINT
                .unseal(bytes)
                .map(|payload| (seq, CHECKPOINT.version, payload.to_vec()))
        })?;
        Ok(newest.pop())
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;

    use cdp_obs::crc32;

    use super::*;

    fn ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }

    fn some<T>(o: Option<T>) -> T {
        match o {
            Some(v) => v,
            None => panic!("unexpected None"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cdpk-{tag}-{}", std::process::id()))
    }

    /// The newest valid checkpoint as `(seq, payload)`.
    fn latest(store: &CheckpointDir) -> Option<(u64, Vec<u8>)> {
        let newest = ok(store.latest_valid_versioned());
        newest.map(|(seq, version, payload)| {
            assert_eq!(version, CHECKPOINT_SCHEMA.0);
            (seq, payload)
        })
    }

    /// `CheckpointDir::encode` before the durable-file layer, verbatim: the
    /// byte oracle.
    fn reference_encode(payload: &[u8]) -> Vec<u8> {
        const MAGIC: &[u8; 4] = b"CDPC";
        let mut buf = Vec::with_capacity(payload.len() + 10);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&CHECKPOINT_SCHEMA.0.to_be_bytes());
        buf.extend_from_slice(payload);
        let checksum = crc32(&buf);
        buf.extend_from_slice(&checksum.to_be_bytes());
        buf
    }

    #[test]
    fn files_equal_the_reference_encoder_byte_for_byte() {
        let dir = temp_dir("oracle");
        let store = ok(CheckpointDir::open(&dir, 8));
        let payloads: [&[u8]; 4] = [b"", b"a", &[0xFF; 300], &[7; 70_000]];
        for (seq, payload) in payloads.into_iter().enumerate() {
            let bytes = ok(store.write(seq as u64, payload));
            let file = ok(fs::read(dir.join(format!("ckpt-{seq:012}.cdpk"))));
            assert_eq!(
                file,
                reference_encode(payload),
                "payload of {}",
                payload.len()
            );
            assert_eq!(bytes, file.len() as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_then_latest_round_trips() {
        let dir = temp_dir("rt");
        let store = ok(CheckpointDir::open(&dir, 3));
        let bytes = ok(store.write(0, b"alpha"));
        assert_eq!(bytes, 4 + 2 + 5 + 4);
        ok(store.write(1, b"beta"));
        let (seq, payload) = some(latest(&store));
        assert_eq!(seq, 1);
        assert_eq!(payload, b"beta");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_budget_prunes_oldest() {
        let dir = temp_dir("prune");
        let store = ok(CheckpointDir::open(&dir, 2));
        for seq in 0..5u64 {
            ok(store.write(seq, &seq.to_be_bytes()));
        }
        assert_eq!(ok(store.files.list()), vec![3, 4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_generation_survives_keep_budget_pruning() {
        let dir = temp_dir("pin");
        let store = ok(CheckpointDir::open(&dir, 1));
        ok(store.write(0, b"gen-0"));
        // Pin generation 0 — a live WAL suffix depends on it — then write
        // past the keep budget: everything else ages out, the pin survives.
        store.pin(0);
        assert_eq!(store.pinned(), Some(0));
        for seq in 1..5u64 {
            ok(store.write(seq, &seq.to_be_bytes()));
        }
        assert_eq!(ok(store.files.list()), vec![0, 4]);
        // Advancing the pin releases the old generation on the next write.
        store.pin(4);
        ok(store.write(5, b"gen-5"));
        assert_eq!(ok(store.files.list()), vec![4, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let store = ok(CheckpointDir::open(&dir, 3));
        ok(store.write(0, b"good-old"));
        ok(store.write(1, b"good-new"));
        // Flip a payload byte of the newest file.
        let path = dir.join("ckpt-000000000001.cdpk");
        let mut data = ok(fs::read(&path));
        data[8] ^= 0x01;
        ok(fs::write(&path, &data));
        let (seq, payload) = some(latest(&store));
        assert_eq!(seq, 0);
        assert_eq!(payload, b"good-old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_latest_falls_back_to_previous() {
        let dir = temp_dir("trunc");
        let store = ok(CheckpointDir::open(&dir, 3));
        ok(store.write(0, b"intact"));
        ok(store.write(1, b"will-be-torn-apart"));
        let path = dir.join("ckpt-000000000001.cdpk");
        let data = ok(fs::read(&path));
        ok(fs::write(&path, &data[..data.len() / 2]));
        let (seq, payload) = some(latest(&store));
        assert_eq!(seq, 0);
        assert_eq!(payload, b"intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_no_visible_checkpoint() {
        let dir = temp_dir("torn");
        let mut store = ok(CheckpointDir::open(&dir, 3));
        let writes = std::sync::Arc::new(AtomicU64::new(0));
        let count = std::sync::Arc::clone(&writes);
        store.set_crash_point(CrashPoint::new(move || {
            count.fetch_add(1, Ordering::Relaxed) == 1
        }));
        ok(store.write(0, b"durable"));
        let killed = store.write(1, b"crashed-mid-write");
        assert!(
            matches!(&killed, Err(StorageError::Io(e)) if cdp_obs::durable::Killed::is(e)),
            "{killed:?}"
        );
        // The torn write is a .tmp file only: never listed, never recovered.
        assert_eq!(ok(store.files.list()), vec![0]);
        let torn = ok(fs::read(dir.join("ckpt-000000000001.tmp")));
        let sealed = CHECKPOINT.seal(17, |buf| buf.extend_from_slice(b"crashed-mid-write"));
        assert_eq!(torn, sealed[..sealed.len() / 2]);
        let (seq, payload) = some(latest(&store));
        assert_eq!(seq, 0);
        assert_eq!(payload, b"durable");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = temp_dir("empty");
        let store = ok(CheckpointDir::open(&dir, 3));
        assert!(latest(&store).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_version_is_skipped_and_typed() {
        let dir = temp_dir("ver");
        let store = ok(CheckpointDir::open(&dir, 3));
        ok(store.write(0, b"current"));
        // Hand-craft structurally valid files of the schema before this one
        // and of the one after it.
        for (seq, version) in [(1, 1), (2, CHECKPOINT_SCHEMA.0 + 1)] {
            let mut body = Vec::new();
            body.extend_from_slice(b"CDPC");
            body.extend_from_slice(&version.to_be_bytes());
            body.extend_from_slice(b"from-another-build");
            let checksum = crc32(&body).to_be_bytes();
            body.extend_from_slice(&checksum);
            ok(fs::write(dir.join(format!("ckpt-{seq:012}.cdpk")), &body));
            assert!(matches!(
                CHECKPOINT.unseal(&body).map_err(StorageError::from),
                Err(StorageError::VersionMismatch { found, expected })
                    if found == version && expected == CHECKPOINT_SCHEMA.0
            ));
        }
        // The scan skips both and falls back.
        let (seq, _) = some(latest(&store));
        assert_eq!(seq, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
