//! Crash-consistent checkpoint files.
//!
//! This module is the durable half of the deployment checkpoint subsystem:
//! it knows how to get an opaque payload onto disk so that **either** the new
//! checkpoint exists in full **or** the previous state is untouched, and how
//! to get the newest *valid* payload back after an arbitrary crash. What goes
//! *into* the payload (model weights, online statistics, scheduler state …)
//! is assembled by `cdp-core`; this layer treats it as bytes.
//!
//! File format (same envelope discipline as the spill codec in
//! [`crate::disk`]):
//!
//! ```text
//! magic "CDPC" | version u16 | payload bytes | crc32 u32 over everything before it
//! ```
//!
//! Durability protocol per write:
//!
//! 1. encode into `ckpt-{seq}.tmp` and `fsync` the file,
//! 2. atomically `rename` to `ckpt-{seq:012}.cdpk`,
//! 3. `fsync` the directory so the rename itself is durable,
//! 4. prune checkpoints beyond the keep budget (oldest first).
//!
//! A crash between any two steps leaves either a `.tmp` file (ignored by
//! recovery) or a complete checkpoint. Recovery scans sequence numbers
//! newest-first and returns the first file whose magic, version and CRC all
//! check out — a torn, truncated or bit-rotted latest checkpoint therefore
//! falls back to its predecessor instead of failing the resume.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cdp_obs::crc32;

use crate::{SchemaVersion, StorageError};

const MAGIC: &[u8; 4] = b"CDPC";

/// Schema of checkpoint files, and the only one this build reads: a file
/// of any other version (v1 was the original layout; v3, numbered to match
/// the spill codec's columnar release, added the store's compaction/GC
/// counters) is a typed [`StorageError::VersionMismatch`].
pub const CHECKPOINT_SCHEMA: SchemaVersion = SchemaVersion(3);

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
    dir: PathBuf,
    keep: usize,
    /// Pinned generation ([`UNPINNED`] = none); interior-mutable so the
    /// write path can stay `&self`.
    pinned: AtomicU64,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory keeping the last
    /// `keep` checkpoints (clamped to at least 1).
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn open(dir: impl AsRef<Path>, keep: usize) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            keep: keep.max(1),
            pinned: AtomicU64::new(UNPINNED),
        })
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

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many checkpoints are retained.
    pub fn keep(&self) -> usize {
        self.keep
    }

    fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:012}.cdpk"))
    }

    fn encode(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(payload.len() + 10);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&CHECKPOINT_SCHEMA.0.to_be_bytes());
        buf.extend_from_slice(payload);
        let checksum = crc32(&buf);
        buf.extend_from_slice(&checksum.to_be_bytes());
        buf
    }

    fn decode(data: &[u8]) -> Result<(u16, Vec<u8>), StorageError> {
        if data.len() < 4 + 2 + 4 {
            return Err(StorageError::Corrupt("truncated checkpoint".into()));
        }
        let (body, trailer) = data.split_at(data.len() - 4);
        let stored = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = crc32(body);
        if stored != actual {
            return Err(StorageError::Corrupt(format!(
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        if &body[..4] != MAGIC {
            return Err(StorageError::Corrupt("bad checkpoint magic".into()));
        }
        let version = u16::from_be_bytes([body[4], body[5]]);
        if version != CHECKPOINT_SCHEMA.0 {
            return Err(StorageError::VersionMismatch {
                found: version,
                expected: CHECKPOINT_SCHEMA.0,
            });
        }
        Ok((version, body[6..].to_vec()))
    }

    /// Durably writes checkpoint `seq` (temp file + fsync + rename + dir
    /// fsync), prunes past the keep budget, and returns the file size in
    /// bytes.
    ///
    /// # Errors
    /// I/O errors anywhere in the durability protocol.
    pub fn write(&self, seq: u64, payload: &[u8]) -> Result<u64, StorageError> {
        let encoded = Self::encode(payload);
        let path = self.path_for(seq);
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&encoded)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // Make the rename itself durable: fsync the directory. Some
        // filesystems reject opening a directory for sync — a durability
        // downgrade there, not a correctness failure, so ignore that error.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune()?;
        Ok(encoded.len() as u64)
    }

    /// Simulates a crash *during* a checkpoint write: leaves only the temp
    /// file (never renamed), exactly the on-disk state a real kill at that
    /// point produces. Used by crash-injection tests.
    ///
    /// # Errors
    /// I/O errors writing the temp file.
    pub fn write_torn(&self, seq: u64, payload: &[u8]) -> Result<(), StorageError> {
        let encoded = Self::encode(payload);
        let tmp = self.path_for(seq).with_extension("tmp");
        let mut file = fs::File::create(&tmp)?;
        // Drop half the bytes too: even if a reader looked at the temp file,
        // it must be detectably incomplete.
        file.write_all(&encoded[..encoded.len() / 2])?;
        Ok(())
    }

    fn prune(&self) -> Result<(), StorageError> {
        let pinned = self.pinned();
        let mut seqs = self.list()?;
        let mut i = 0;
        // Oldest-first, but never the pinned generation (a live WAL suffix
        // may depend on exactly that file for resume) and never the newest
        // (recovery's first candidate).
        while seqs.len() > self.keep && i < seqs.len().saturating_sub(1) {
            if Some(seqs[i]) == pinned {
                i += 1;
                continue;
            }
            let victim = seqs.remove(i);
            match fs::remove_file(self.path_for(victim)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Sequence numbers of all checkpoint files present, oldest first
    /// (including ones that would fail validation — this lists, it does not
    /// verify).
    ///
    /// # Errors
    /// I/O errors reading the directory.
    pub fn list(&self) -> Result<Vec<u64>, StorageError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".cdpk"))
            else {
                continue;
            };
            if let Ok(seq) = stem.parse::<u64>() {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// The newest checkpoint that passes validation, as `(seq, payload)`.
    ///
    /// Scans newest-first; corrupt, torn or version-mismatched files are
    /// skipped (falling back to the predecessor) rather than failing the
    /// scan. Returns `Ok(None)` when no valid checkpoint exists.
    ///
    /// # Errors
    /// I/O errors reading the directory (individual unreadable files are
    /// skipped, not fatal).
    pub fn latest_valid(&self) -> Result<Option<(u64, Vec<u8>)>, StorageError> {
        Ok(self
            .latest_valid_versioned()?
            .map(|(seq, _, payload)| (seq, payload)))
    }

    /// [`CheckpointDir::latest_valid`] carrying the file's schema version,
    /// as `(seq, version, payload)`, for the payload decoder to check.
    ///
    /// # Errors
    /// I/O errors reading the directory (individual unreadable files are
    /// skipped, not fatal).
    pub fn latest_valid_versioned(&self) -> Result<Option<(u64, u16, Vec<u8>)>, StorageError> {
        let seqs = self.list()?;
        for &seq in seqs.iter().rev() {
            let Ok(data) = fs::read(self.path_for(seq)) else {
                continue;
            };
            if let Ok((version, payload)) = Self::decode(&data) {
                return Ok(Some((seq, version, payload)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn write_then_latest_round_trips() {
        let dir = temp_dir("rt");
        let store = ok(CheckpointDir::open(&dir, 3));
        let bytes = ok(store.write(0, b"alpha"));
        assert_eq!(bytes, 4 + 2 + 5 + 4);
        ok(store.write(1, b"beta"));
        let (seq, payload) = some(ok(store.latest_valid()));
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
        assert_eq!(ok(store.list()), vec![3, 4]);
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
        assert_eq!(ok(store.list()), vec![0, 4]);
        // Advancing the pin releases the old generation on the next write.
        store.pin(4);
        ok(store.write(5, b"gen-5"));
        assert_eq!(ok(store.list()), vec![4, 5]);
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
        let (seq, payload) = some(ok(store.latest_valid()));
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
        let (seq, payload) = some(ok(store.latest_valid()));
        assert_eq!(seq, 0);
        assert_eq!(payload, b"intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_no_visible_checkpoint() {
        let dir = temp_dir("torn");
        let store = ok(CheckpointDir::open(&dir, 3));
        ok(store.write(0, b"durable"));
        ok(store.write_torn(1, b"crashed-mid-write"));
        // The torn write is a .tmp file only: never listed, never recovered.
        assert_eq!(ok(store.list()), vec![0]);
        let (seq, payload) = some(ok(store.latest_valid()));
        assert_eq!(seq, 0);
        assert_eq!(payload, b"durable");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = temp_dir("empty");
        let store = ok(CheckpointDir::open(&dir, 3));
        assert!(ok(store.latest_valid()).is_none());
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
            body.extend_from_slice(MAGIC);
            body.extend_from_slice(&version.to_be_bytes());
            body.extend_from_slice(b"from-another-build");
            let checksum = crc32(&body).to_be_bytes();
            body.extend_from_slice(&checksum);
            ok(fs::write(dir.join(format!("ckpt-{seq:012}.cdpk")), &body));
            assert!(matches!(
                CheckpointDir::decode(&body),
                Err(StorageError::VersionMismatch { found, expected })
                    if found == version && expected == CHECKPOINT_SCHEMA.0
            ));
        }
        // latest_valid skips both and falls back.
        let (seq, _) = some(ok(store.latest_valid()));
        assert_eq!(seq, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
