//! Write-ahead log for arriving raw chunks.
//!
//! Checkpoints make the *deployment state* crash-consistent, but a chunk
//! that arrives between two checkpoints exists only in memory until the next
//! checkpoint covers it — a crash loses it. The WAL closes that gap: every
//! arriving [`RawChunk`] is appended (and group-commit fsynced) *before* the
//! pipeline processes it, so resume can replay checkpoint + WAL suffix and
//! land bit-identical to an uninterrupted run even when the crash falls
//! between checkpoints.
//!
//! On-disk layout: numbered append-only **segment files**
//! (`wal-{first_seq:012}.cdpw`) in a numbered directory of the durable-file
//! layer ([`cdp_obs::durable`], DESIGN.md §12), each published with its
//! header like any durable file (header into a `.tmp`, fsync, rename,
//! directory fsync) and then extended by appending framed records — the
//! frame, the WAL's own, is defined here:
//!
//! ```text
//! segment header: magic "CDPW" | version u16
//! per record:     len u32 | payload | crc32 u32 over the payload
//! payload:        seq u64 | raw-chunk codec (timestamp, records, values)
//! ```
//!
//! **Group commit**: appends buffer in memory and reach the segment file
//! only at commit points — every `fsync_every` records, or when the oldest
//! buffered record is older than the group-commit window under the
//! injectable [`Clock`]. Buffered-but-uncommitted records are genuinely
//! *absent from disk*, so a simulated kill loses exactly what a real kill
//! would; recovery falls back to the upstream stream for them. A commit writes
//! its group, then leaves the fsync and any rotation to a background
//! [`Syncer`] job the next durable operation joins before it writes.
//!
//! **Rotation + retention**: when the active segment exceeds its byte
//! budget the writer rotates to a fresh segment whose name carries the next
//! sequence number. A segment is garbage-collectable once a durable
//! checkpoint covers every record in it — [`WalWriter::gc`] keyed by the
//! newest checkpointed sequence deletes exactly those.
//!
//! **Recovery** ([`WalDir::recover`]) scans segments in sequence order
//! (regardless of directory iteration order), validates each record's CRC,
//! truncates a torn tail (counted `torn`), skips corrupt records (counted
//! `corrupt`), ignores orphaned `.tmp` segments from a crash mid-rotation,
//! deduplicates by sequence number (idempotent replay), and returns the
//! surviving records sorted by sequence number — which is what re-orders
//! late/out-of-order arrivals deterministically at replay.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cdp_faults::{FaultHook, IoFault, IoOp, RetryPolicy};
use cdp_obs::durable::{
    put_f64, put_str, put_u32, put_u64, CrashPoint, Format, NumberedDir, Reader, Syncer, HEADER_LEN,
};
use cdp_obs::{crc32, Clock, Metrics};

use crate::chunk::{RawChunk, Timestamp};
use crate::record::{Record, Value, ValueRef};
use crate::{durable_crash_point, StorageError};

/// WAL segment files: magic "CDPW", schema 1, header only — the frames
/// carry their own checksums.
const SEGMENT: Format = Format {
    magic: *b"CDPW",
    version: 1,
};
/// Frames larger than this are treated as a torn tail rather than a record
/// (a corrupted length prefix would otherwise send the scanner far past the
/// end of any plausible chunk).
const MAX_FRAME: u32 = 1 << 28;

/// Tuning knobs for the WAL writer (storage-level; the deployment-facing
/// configuration lives in `cdp-core`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalOptions {
    /// Records per group commit: the writer fsyncs after every
    /// `fsync_every` buffered appends (1 = unbatched, every append fsyncs).
    pub fsync_every: usize,
    /// Maximum age in clock-seconds of the oldest buffered record before a
    /// commit is forced regardless of batch fill (0 disables the window).
    pub group_window_secs: f64,
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes.
    pub segment_bytes: u64,
    /// Retry/backoff budget for injected WAL faults.
    pub retry: RetryPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            fsync_every: 8,
            group_window_secs: 1.0,
            segment_bytes: 256 * 1024,
            retry: RetryPolicy::default(),
        }
    }
}

/// Counters describing WAL activity, snapshotted into deployment results.
///
/// Deliberately *outside* the kill-and-resume bit-identity contract (like
/// checkpoint stats): a resumed run commits and recovers differently from an
/// uninterrupted one even though the deployment outcome is identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended into the group-commit buffer.
    pub appends: u64,
    /// Appends skipped because the sequence number was already durable
    /// (idempotent replay duplicates).
    pub skipped: u64,
    /// Group commits performed: groups written, their fsyncs started.
    pub commits: u64,
    /// Bytes written by all commits (durable once their fsyncs are joined).
    pub bytes_committed: u64,
    /// Segment rotations performed.
    pub rotations: u64,
    /// Segments deleted because a checkpoint covered them.
    pub segments_gced: u64,
    /// Records dropped after a WAL fault exhausted its retry budget (the
    /// upstream stream still holds them; replay falls back to it).
    pub lost_records: u64,
    /// Injected WAL faults observed (append + fsync + rotate sites).
    pub injected_faults: u64,
    /// Retries performed against injected WAL faults.
    pub retries: u64,
    /// Records replayed from the WAL on resume.
    pub replayed: u64,
    /// Torn tails truncated during recovery.
    pub torn: u64,
    /// Corrupt records skipped during recovery.
    pub corrupt: u64,
}

/// Everything recovery salvaged from a WAL directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalRecovery {
    /// Surviving records sorted by sequence number, deduplicated (first
    /// occurrence wins).
    pub chunks: Vec<(u64, RawChunk)>,
    /// Highest surviving sequence number.
    pub last_seq: Option<u64>,
    /// Torn tails truncated (at most one per segment).
    pub torn: u64,
    /// Corrupt records skipped.
    pub corrupt: u64,
}

impl WalRecovery {
    /// The sequence number the writer should continue from.
    pub fn next_seq(&self) -> u64 {
        self.last_seq.map_or(0, |s| s + 1)
    }

    /// The chunk recovered for sequence `seq`, if it survived.
    pub fn chunk(&self, seq: u64) -> Option<&RawChunk> {
        self.chunks
            .binary_search_by_key(&seq, |(s, _)| *s)
            .ok()
            .map(|i| &self.chunks[i].1)
    }
}

/// Read-side handle on a WAL directory: recovery, truncation.
#[derive(Debug)]
pub struct WalDir {
    /// Segments by first sequence number; listed in numeric order whatever
    /// the directory iteration order, so out-of-order discovery cannot
    /// reorder replay, and orphaned `.tmp` segments (crash mid-rotation) are
    /// not listed.
    files: NumberedDir,
}

impl WalDir {
    /// Opens (creating if needed) a WAL directory.
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Ok(Self {
            files: NumberedDir::open(dir.as_ref(), "wal", "cdpw")?,
        })
    }

    /// Scans every segment, truncating torn tails and skipping corrupt
    /// records, and returns the surviving records sorted by sequence
    /// number.
    ///
    /// # Errors
    /// I/O errors reading the directory or truncating a torn tail
    /// (individual unreadable segments are counted corrupt, not fatal).
    pub fn recover(&self) -> Result<WalRecovery, StorageError> {
        let mut out = WalRecovery::default();
        for first_seq in self.files.list()? {
            let path = self.files.path(first_seq);
            let Ok(data) = fs::read(&path) else {
                out.corrupt += 1;
                continue;
            };
            self.scan_segment(&path, &data, &mut out)?;
        }
        out.chunks.sort_by_key(|(seq, _)| *seq);
        out.chunks.dedup_by_key(|(seq, _)| *seq);
        out.last_seq = out.chunks.last().map(|(seq, _)| *seq);
        Ok(out)
    }

    /// Walks one segment's frames, truncating the file at the first torn
    /// frame and skipping CRC/parse failures.
    fn scan_segment(
        &self,
        path: &Path,
        data: &[u8],
        out: &mut WalRecovery,
    ) -> Result<(), StorageError> {
        let Ok(mut frames) = SEGMENT.check_header(data) else {
            // Short, foreign or another version's header: the segment never
            // became one of ours.
            out.corrupt += 1;
            return Ok(());
        };
        while !frames.is_empty() {
            let frame = frames.split_first_chunk().and_then(|(len, rest)| {
                let len = u32::from_be_bytes(*len);
                let (payload, rest) = rest.split_at_checked(len as usize)?;
                let (crc, rest) = rest.split_first_chunk()?;
                (len <= MAX_FRAME).then_some((payload, u32::from_be_bytes(*crc), rest))
            });
            let Some((payload, stored, rest)) = frame else {
                // A length prefix cut short, or a frame running past the
                // file: torn tail (possibly a corrupted length prefix —
                // indistinguishable, same cure).
                out.torn += 1;
                Self::truncate(path, (data.len() - frames.len()) as u64)?;
                break;
            };
            frames = rest;
            if stored != crc32(payload) {
                out.corrupt += 1;
                continue;
            }
            match decode_wal_payload(payload) {
                Ok((seq, chunk)) => out.chunks.push((seq, chunk)),
                Err(_) => out.corrupt += 1,
            }
        }
        Ok(())
    }

    fn truncate(path: &Path, len: u64) -> Result<(), StorageError> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()?;
        Ok(())
    }
}

/// Append side of the WAL: group-commit buffering, segment rotation,
/// checkpoint-keyed retention.
#[derive(Debug)]
pub struct WalWriter {
    dir: WalDir,
    options: WalOptions,
    hook: Arc<dyn FaultHook>,
    /// The hook's durable-operation crash countdown.
    crash: CrashPoint,
    clock: Arc<dyn Clock>,
    metrics: Metrics,
    /// Path, append handle and committed size of the active segment. Every
    /// commit writes through the one handle and fsyncs a clone of it; the
    /// rotation job returns the next segment's; `gc` never removes the
    /// active segment, so the handle never outlives its file.
    current: PathBuf,
    current_file: fs::File,
    current_bytes: u64,
    /// Encoded-but-uncommitted frames (group-commit buffer).
    pending: Vec<u8>,
    pending_records: usize,
    pending_first_secs: f64,
    /// Highest sequence number accepted into the buffer or a segment.
    highest_seq: Option<u64>,
    /// Highest sequence number fsynced to disk.
    last_durable_seq: Option<u64>,
    /// The last commit's fsync and rotation.
    syncer: Syncer<Synced>,
    stats: WalStats,
}

/// A commit job's sequence number made durable and next segment, if rotated.
type Synced = (Option<u64>, Option<(PathBuf, fs::File)>);

impl WalWriter {
    /// Opens a writer over `dir`, starting a fresh segment at `first_seq`
    /// (the recovery's [`WalRecovery::next_seq`], or 0 for a new
    /// deployment). A fresh segment per open means a possibly-torn previous
    /// tail is never appended to.
    ///
    /// Every durable operation — this first segment's publish, each group
    /// write, each rotation's publish — consults `hook`'s
    /// [`cdp_faults::CrashSite::Durable`] countdown first, on the caller's
    /// thread ([`CrashPoint`]).
    ///
    /// # Errors
    /// I/O errors creating the directory or the first segment.
    pub fn open(
        dir: impl AsRef<Path>,
        options: WalOptions,
        hook: Arc<dyn FaultHook>,
        clock: Arc<dyn Clock>,
        metrics: Metrics,
        first_seq: u64,
    ) -> Result<Self, StorageError> {
        let dir = WalDir::open(dir)?;
        let crash = durable_crash_point(&hook);
        crash.before_publish(&dir.files, first_seq, &SEGMENT.header())?;
        let (current, current_file) = Self::create_segment(&dir.files, first_seq)?;
        Ok(Self {
            dir,
            options: WalOptions {
                fsync_every: options.fsync_every.max(1),
                ..options
            },
            hook,
            crash,
            clock,
            metrics,
            current,
            current_file,
            current_bytes: HEADER_LEN as u64,
            pending: Vec::new(),
            pending_records: 0,
            pending_first_secs: 0.0,
            highest_seq: first_seq.checked_sub(1),
            last_durable_seq: first_seq.checked_sub(1),
            syncer: Syncer::default(),
            stats: WalStats::default(),
        })
    }

    /// Activity counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Merges recovery-side counters (replayed/torn/corrupt) into this
    /// writer's stats so the deployment result carries both sides.
    pub fn absorb_recovery(&mut self, recovery: &WalRecovery, replayed: u64) {
        self.stats.replayed += replayed;
        self.stats.torn += recovery.torn;
        self.stats.corrupt += recovery.corrupt;
        self.metrics.counter("wal.replayed").add(replayed);
        self.metrics.counter("wal.torn").add(recovery.torn);
        self.metrics.counter("wal.corrupt").add(recovery.corrupt);
    }

    /// Highest sequence number fsynced as of the last joined commit: one
    /// group behind the last one written at most, current after `flush`.
    pub fn last_durable_seq(&self) -> Option<u64> {
        self.last_durable_seq
    }

    /// Appends the record for sequence `seq`, committing the group when the
    /// batch fills or the group-commit window expires. Duplicate sequence
    /// numbers (replay after a checkpoint already covers a prefix) are
    /// skipped — idempotence lives here, not in the caller.
    ///
    /// An injected append fault that exhausts its retries *drops* the
    /// record (counted `lost_records`) instead of failing the deployment:
    /// the upstream stream still holds the chunk and replay falls back to
    /// it.
    ///
    /// # Errors
    /// Real (non-injected) I/O errors from the commit path and its fsyncs.
    pub fn append(&mut self, seq: u64, chunk: &RawChunk) -> Result<(), StorageError> {
        if self.highest_seq.is_some_and(|h| seq <= h) {
            self.stats.skipped += 1;
            self.metrics.counter("wal.skipped").inc();
            return Ok(());
        }
        if !self.consult(IoOp::WalAppend, seq) {
            self.stats.lost_records += 1;
            self.metrics.counter("wal.lost_records").inc();
            return Ok(());
        }
        if self.pending_records == 0 {
            self.pending_first_secs = self.clock.now_secs();
        }
        encode_wal_frame(&mut self.pending, seq, chunk);
        self.pending_records += 1;
        self.highest_seq = Some(seq);
        self.stats.appends += 1;
        self.metrics.counter("wal.appends").inc();
        let window = self.options.group_window_secs;
        if self.pending_records >= self.options.fsync_every
            || (window > 0.0 && self.clock.now_secs() - self.pending_first_secs >= window)
        {
            self.commit()?;
        }
        Ok(())
    }

    /// Commits the pending group and joins its fsync and rotation: every
    /// record written is durable when it returns.
    ///
    /// # Errors
    /// Real I/O errors appending, fsyncing or rotating.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.commit()?;
        self.join()
    }

    /// Waits for the last commit's fsync and rotation.
    fn join(&mut self) -> Result<(), StorageError> {
        if let Some((durable, rotated)) = self.syncer.join()? {
            self.last_durable_seq = durable;
            if let Some(segment) = rotated {
                (self.current, self.current_file) = segment;
            }
        }
        Ok(())
    }

    /// Commits the pending group, if any: joins the previous commit, writes
    /// and counts the frames, then hands off the fsync and any rotation —
    /// the group write and the rotation's publish each a durable operation.
    fn commit(&mut self) -> Result<(), StorageError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.join()?;
        let key = self.highest_seq.unwrap_or(0);
        if !self.consult(IoOp::WalFsync, key) {
            // The whole group is lost; replay falls back to the stream.
            self.stats.lost_records += self.pending_records as u64;
            self.metrics
                .counter("wal.lost_records")
                .add(self.pending_records as u64);
            self.pending.clear();
            self.pending_records = 0;
            return Ok(());
        }
        self.crash
            .before_append(&mut self.current_file, &self.pending)?;
        self.current_file.write_all(&self.pending)?;
        self.current_bytes += self.pending.len() as u64;
        self.stats.commits += 1;
        self.stats.bytes_committed += self.pending.len() as u64;
        self.metrics.counter("wal.commits").inc();
        self.metrics
            .counter("wal.bytes_committed")
            .add(self.pending.len() as u64);
        self.pending.clear();
        self.pending_records = 0;
        // Rotate to a fresh segment named after the next sequence number. An
        // injected rotation fault that exhausts retries keeps appending to
        // the oversized current segment (a capacity degradation, not loss).
        let next = self.highest_seq.map_or(0, |s| s + 1);
        let over = self.current_bytes >= self.options.segment_bytes;
        let rotate = over && self.consult(IoOp::WalRotate, next);
        if rotate {
            self.crash
                .before_publish(&self.dir.files, next, &SEGMENT.header())?;
        }
        let files = rotate.then(|| {
            self.current_bytes = HEADER_LEN as u64;
            self.stats.rotations += 1;
            self.metrics.counter("wal.rotations").inc();
            self.dir.files.clone()
        });
        let (file, durable) = (self.current_file.try_clone()?, self.highest_seq);
        self.syncer.start(move || {
            file.sync_all()?;
            let rotated = files.map(|files| Self::create_segment(&files, next));
            Ok((durable, rotated.transpose()?))
        })?;
        Ok(())
    }

    /// Publishes `wal-{first_seq}.cdpw` holding the header — temp file,
    /// fsync, rename, directory fsync — and returns its path with a handle
    /// opened for append on the final name.
    fn create_segment(files: &NumberedDir, first_seq: u64) -> io::Result<(PathBuf, fs::File)> {
        let path = files.publish(first_seq, &SEGMENT.header())?;
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        Ok((path, file))
    }

    /// Deletes every segment fully covered by the durable checkpoint that
    /// owns sequence numbers `..= covered_seq`: a segment is deletable when
    /// the *next* segment starts at or below `covered_seq + 1` (so every
    /// record it holds is ≤ `covered_seq`). The active segment is never
    /// deleted. Returns how many segments were removed.
    ///
    /// # Errors
    /// I/O errors listing or deleting.
    pub fn gc(&mut self, covered_seq: u64) -> Result<usize, StorageError> {
        self.join()?;
        let files = &self.dir.files;
        let seqs = files.list()?;
        let mut removed = 0usize;
        for pair in seqs.windows(2) {
            let (first, next_first) = (pair[0], pair[1]);
            if next_first <= covered_seq.saturating_add(1)
                && files.path(first) != self.current
                && files.remove(first)?
            {
                removed += 1;
            }
        }
        self.stats.segments_gced += removed as u64;
        self.metrics
            .counter("wal.segments_gced")
            .add(removed as u64);
        Ok(removed)
    }

    /// Retry loop over one WAL fault site; `true` means proceed, `false`
    /// means the operation is abandoned (retries exhausted).
    fn consult(&mut self, op: IoOp, key: u64) -> bool {
        let mut attempt = 0u32;
        loop {
            match self.hook.decide_io(op, key, attempt) {
                IoFault::Fail => {
                    self.stats.injected_faults += 1;
                    self.metrics.counter("wal.injected_faults").inc();
                    if attempt >= self.options.retry.max_retries {
                        return false;
                    }
                    self.stats.retries += 1;
                    self.metrics.counter("wal.retries").inc();
                    self.options.retry.sleep(attempt);
                    attempt += 1;
                }
                IoFault::Delay(d) => {
                    std::thread::sleep(d);
                    return true;
                }
                IoFault::Proceed | IoFault::Corrupt => return true,
            }
        }
    }
}

/// Appends one framed WAL record, `len | payload | crc32(payload)`, to `buf`:
/// the payload is encoded where it will be committed from and the length
/// patched in once it is known, so a record is written once.
fn encode_wal_frame(buf: &mut Vec<u8>, seq: u64, chunk: &RawChunk) {
    let frame = buf.len();
    put_u32(buf, 0); // the length, patched below
    put_u64(buf, seq);
    put_u64(buf, chunk.timestamp.0);
    let rows = chunk.rows();
    put_u32(buf, rows.len() as u32);
    for row in rows.iter() {
        put_u32(buf, row.len() as u32);
        for value in row.iter() {
            match value {
                ValueRef::Num(x) => {
                    buf.push(0);
                    put_f64(buf, x);
                }
                ValueRef::Text(s) => {
                    buf.push(1);
                    put_str(buf, s);
                }
                ValueRef::Missing => buf.push(2),
            }
        }
    }
    let payload = frame + 4;
    let len = (buf.len() - payload) as u32;
    buf[frame..payload].copy_from_slice(&len.to_be_bytes());
    let crc = crc32(&buf[payload..]);
    put_u32(buf, crc);
}

fn decode_wal_payload(payload: &[u8]) -> Result<(u64, RawChunk), StorageError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let timestamp = Timestamp(r.u64()?);
    let n_records = r.count()?;
    let mut records = Vec::with_capacity(n_records.min(1 << 16));
    for _ in 0..n_records {
        let n_values = r.count()?;
        let mut values = Vec::with_capacity(n_values.min(1 << 16));
        for _ in 0..n_values {
            match r.u8()? {
                0 => values.push(Value::Num(r.f64()?)),
                1 => values.push(Value::Text(r.string()?)),
                2 => values.push(Value::Missing),
                tag => {
                    return Err(StorageError::Corrupt(format!(
                        "unknown WAL value tag {tag}"
                    )))
                }
            }
        }
        records.push(Record::new(values));
    }
    r.finish()?;
    Ok((seq, RawChunk::new(timestamp, records)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_faults::{FaultPlan, NoFaults};
    use cdp_obs::VirtualClock;

    fn ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "cdpw-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }

    fn chunk(ts: u64) -> RawChunk {
        RawChunk::new(
            Timestamp(ts),
            vec![
                Record::new(vec![
                    Value::Num(ts as f64),
                    Value::Text(format!("tok-{ts} tok-{}", ts * 7)),
                    Value::Missing,
                ]),
                Record::new(vec![
                    Value::Num(-1.0),
                    Value::Text("x".into()),
                    Value::Num(0.5),
                ]),
            ],
        )
    }

    fn writer(dir: &Path, fsync_every: usize) -> WalWriter {
        let options = WalOptions {
            fsync_every,
            group_window_secs: 0.0,
            ..WalOptions::default()
        };
        ok(WalWriter::open(
            dir,
            options,
            Arc::new(NoFaults),
            Arc::new(VirtualClock::default()),
            Metrics::disabled(),
            0,
        ))
    }

    /// The encoder `append` used before it wrote frames in place, verbatim:
    /// a payload buffer, a copy of it, and a frame around the copy. Kept as
    /// the byte-equality reference.
    fn reference_frame(seq: u64, chunk: &RawChunk) -> Vec<u8> {
        let payload = reference_payload(seq, chunk);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame
    }

    fn reference_payload(seq: u64, chunk: &RawChunk) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + chunk.size_bytes());
        buf.extend_from_slice(&seq.to_be_bytes());
        buf.extend_from_slice(&chunk.timestamp.0.to_be_bytes());
        buf.extend_from_slice(&(chunk.records.len() as u32).to_be_bytes());
        for record in chunk.records.iter() {
            let values = &record.values;
            buf.extend_from_slice(&(values.len() as u32).to_be_bytes());
            for value in values.iter() {
                match value {
                    Value::Num(x) => {
                        buf.push(0);
                        buf.extend_from_slice(&x.to_be_bytes());
                    }
                    Value::Text(s) => {
                        buf.push(1);
                        buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
                        buf.extend_from_slice(s.as_bytes());
                    }
                    Value::Missing => buf.push(2),
                }
            }
        }
        buf
    }

    #[test]
    fn payload_codec_round_trips() {
        let c = chunk(42);
        let mut frame = Vec::new();
        encode_wal_frame(&mut frame, 7, &c);
        let (seq, decoded) = ok(decode_wal_payload(&frame[4..frame.len() - 4]));
        assert_eq!(seq, 7);
        assert_eq!(decoded, c);
    }

    #[test]
    fn in_place_frames_equal_the_reference_encoder_byte_for_byte() {
        let every_value = Record::new(vec![
            Value::Num(f64::MIN_POSITIVE),
            Value::Num(-0.0),
            Value::Num(f64::NAN),
            Value::Text(String::new()),
            Value::Text("día 42 \u{1F600} tab\there".into()),
            Value::Missing,
        ]);
        let chunks = [
            chunk(42),
            RawChunk::new(Timestamp(u64::MAX), Vec::new()),
            RawChunk::new(Timestamp(0), vec![Record::new(Vec::new())]),
            RawChunk::new(Timestamp(9), vec![every_value.clone(), every_value]),
            RawChunk::new(
                Timestamp(10),
                vec![Record::new(vec![Value::Text("x".repeat(70_000))])],
            ),
        ];
        // One record per buffer, then the whole group into one buffer the way
        // `append` fills `pending`: each frame's length is patched at its own
        // offset, not at the buffer's start.
        let (mut group, mut reference_group) = (Vec::new(), Vec::new());
        for (i, c) in chunks.iter().enumerate() {
            let seq = u64::MAX - i as u64;
            let mut alone = Vec::new();
            encode_wal_frame(&mut alone, seq, c);
            assert_eq!(alone, reference_frame(seq, c), "chunk {i}");
            // A clone is the same rows behind another handle: same frame.
            let mut from_clone = Vec::new();
            encode_wal_frame(&mut from_clone, seq, &c.clone());
            assert_eq!(from_clone, alone, "clone of chunk {i}");
            encode_wal_frame(&mut group, seq, c);
            reference_group.extend_from_slice(&reference_frame(seq, c));
        }
        assert_eq!(group, reference_group);
    }

    #[test]
    fn pending_group_on_disk_equals_the_reference_frames() {
        let dir = temp_dir("inplace");
        let mut w = writer(&dir, 3);
        // The whole file: the header `create_segment` wrote before the
        // durable-file layer (`MAGIC`, then `WAL_SCHEMA` big-endian), then
        // the frames.
        let mut expected = b"CDPW".to_vec();
        expected.extend_from_slice(&1u16.to_be_bytes());
        for seq in 0..3u64 {
            ok(w.append(seq, &chunk(seq)));
            expected.extend_from_slice(&reference_frame(seq, &chunk(seq)));
        }
        assert_eq!(w.stats().commits, 1);
        assert_eq!(ok(fs::read(&w.current)), expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_commit_recover_round_trips() {
        let dir = temp_dir("rt");
        let mut w = writer(&dir, 2);
        for seq in 0..5u64 {
            ok(w.append(seq, &chunk(seq)));
        }
        ok(w.flush());
        assert_eq!(w.last_durable_seq(), Some(4));
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!(rec.chunks.len(), 5);
        assert_eq!(rec.last_seq, Some(4));
        assert_eq!(rec.next_seq(), 5);
        for seq in 0..5u64 {
            assert_eq!(rec.chunk(seq), Some(&chunk(seq)));
        }
        assert_eq!(rec.torn + rec.corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_group_is_absent_from_disk() {
        let dir = temp_dir("pending");
        let mut w = writer(&dir, 64);
        ok(w.append(0, &chunk(0)));
        ok(w.append(1, &chunk(1)));
        assert_eq!(w.last_durable_seq(), None);
        // A kill here loses the whole group: recovery sees an empty WAL.
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert!(rec.chunks.is_empty());
        assert_eq!(rec.next_seq(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_window_forces_flush_under_clock() {
        let dir = temp_dir("window");
        let clock = Arc::new(VirtualClock::default());
        let options = WalOptions {
            fsync_every: 1000,
            group_window_secs: 5.0,
            ..WalOptions::default()
        };
        let mut w = ok(WalWriter::open(
            &dir,
            options,
            Arc::new(NoFaults),
            clock.clone(),
            Metrics::disabled(),
            0,
        ));
        ok(w.append(0, &chunk(0)));
        assert_eq!(w.last_durable_seq(), None);
        clock.advance_secs(6.0);
        ok(w.append(1, &chunk(1)));
        // The window forced the commit; its fsync is durable once joined.
        assert_eq!(w.stats().commits, 1);
        ok(w.flush());
        assert_eq!(w.stats().commits, 1, "nothing was left pending");
        assert_eq!(w.last_durable_seq(), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_sequence_numbers_are_skipped() {
        let dir = temp_dir("dup");
        let mut w = writer(&dir, 1);
        ok(w.append(0, &chunk(0)));
        ok(w.append(1, &chunk(1)));
        ok(w.append(0, &chunk(0)));
        ok(w.append(1, &chunk(999)));
        ok(w.flush());
        assert_eq!(w.stats().skipped, 2);
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!(rec.chunks.len(), 2);
        assert_eq!(rec.chunk(1), Some(&chunk(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A writer opened at `first_seq` whose hook kills the run at its
    /// `crash_at`-th durable operation (its own first segment's publish is
    /// operation 0).
    fn dying_writer(
        dir: &Path,
        options: WalOptions,
        first_seq: u64,
        crash_at: u64,
    ) -> Result<WalWriter, StorageError> {
        let plan = FaultPlan {
            crash_site: Some(cdp_faults::CrashSite::Durable),
            crash_at,
            ..FaultPlan::none()
        };
        WalWriter::open(
            dir,
            WalOptions {
                group_window_secs: 0.0,
                ..options
            },
            Arc::new(cdp_faults::FaultInjector::new(plan)),
            Arc::new(VirtualClock::default()),
            Metrics::disabled(),
            first_seq,
        )
    }

    fn killed<T: std::fmt::Debug>(r: Result<T, StorageError>) {
        assert!(
            matches!(&r, Err(StorageError::Io(e)) if cdp_obs::durable::Killed::is(e)),
            "expected a kill, got {r:?}"
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        let mut w = writer(&dir, 1);
        ok(w.append(0, &chunk(0)));
        ok(w.append(1, &chunk(1)));
        // Killed at its first group write (operation 1, after the segment's
        // publish): half a frame lands, no fsync.
        let options = WalOptions {
            fsync_every: 64,
            ..WalOptions::default()
        };
        let mut w2 = ok(dying_writer(&dir, options, 2, 1));
        ok(w2.append(2, &chunk(2)));
        killed(w2.flush());
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!(rec.torn, 1);
        assert_eq!(rec.chunks.len(), 2);
        assert_eq!(rec.last_seq, Some(1));
        // Truncation is persistent: a second recovery is clean.
        let rec2 = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!(rec2.torn, 0);
        assert_eq!(rec2.chunks.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A writer continuing at `first_seq` (resume-style open).
    fn writer_more(dir: &Path, fsync_every: usize, first_seq: u64) -> WalWriter {
        let options = WalOptions {
            fsync_every,
            group_window_secs: 0.0,
            ..WalOptions::default()
        };
        ok(WalWriter::open(
            dir,
            options,
            Arc::new(NoFaults),
            Arc::new(VirtualClock::default()),
            Metrics::disabled(),
            first_seq,
        ))
    }

    #[test]
    fn corrupt_record_is_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        let mut w = writer(&dir, 1);
        for seq in 0..3u64 {
            ok(w.append(seq, &chunk(seq)));
        }
        // Flip one payload byte of the middle record on disk.
        let path = dir.join("wal-000000000000.cdpw");
        let mut data = ok(fs::read(&path));
        let first_frame_len = u32::from_be_bytes([data[6], data[7], data[8], data[9]]) as usize + 8;
        let second_payload_at = 6 + first_frame_len + 4 + 10;
        data[second_payload_at] ^= 0x01;
        ok(fs::write(&path, &data));
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!(rec.corrupt, 1);
        assert_eq!(rec.torn, 0);
        let seqs: Vec<u64> = rec.chunks.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_gc_respects_coverage() {
        let dir = temp_dir("rot");
        let options = WalOptions {
            fsync_every: 1,
            group_window_secs: 0.0,
            segment_bytes: 1, // rotate after every commit
            ..WalOptions::default()
        };
        let mut w = ok(WalWriter::open(
            &dir,
            options,
            Arc::new(NoFaults),
            Arc::new(VirtualClock::default()),
            Metrics::disabled(),
            0,
        ));
        for seq in 0..4u64 {
            ok(w.append(seq, &chunk(seq)));
        }
        assert_eq!(w.stats().rotations, 4);
        // The last rotation publishes in the background; `flush` joins it.
        ok(w.flush());
        let listed = ok(w.dir.files.list());
        assert_eq!(listed, vec![0, 1, 2, 3, 4]);
        // A checkpoint covering seqs 0..=1 frees exactly the segments whose
        // records it covers.
        let removed = ok(w.gc(1));
        assert_eq!(removed, 2);
        assert_eq!(ok(w.dir.files.list()), vec![2, 3, 4]);
        // Nothing newer is coverable; the active segment survives.
        let removed = ok(w.gc(1));
        assert_eq!(removed, 0);
        // Full coverage still keeps the active (empty) segment.
        let removed = ok(w.gc(100));
        assert_eq!(removed, 2);
        assert_eq!(ok(w.dir.files.list()), vec![4]);
        // Recovery after GC sees only the uncovered suffix.
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert!(rec.chunks.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_kill_at_the_opening_publish_leaves_only_a_temp_file() {
        let dir = temp_dir("opencrash");
        killed(dying_writer(&dir, WalOptions::default(), 0, 0));
        assert_eq!(ok(fs::read(dir.join("wal-000000000000.tmp"))), b"CDP");
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!((rec.chunks.len(), rec.torn, rec.corrupt), (0, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_rotation_leaves_ignorable_tmp() {
        let dir = temp_dir("rotcrash");
        // Operations: the segment's publish, the group write, then the
        // rotation's publish, which dies.
        let options = WalOptions {
            fsync_every: 1,
            segment_bytes: 1,
            ..WalOptions::default()
        };
        let mut w = ok(dying_writer(&dir, options, 0, 2));
        killed(w.append(0, &chunk(0)));
        assert!(dir.join("wal-000000000001.tmp").exists());
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!(rec.chunks.len(), 1);
        assert_eq!(rec.torn + rec.corrupt, 0);
        // A resumed writer starts a fresh segment past the orphan.
        let mut w2 = writer_more(&dir, 1, rec.next_seq());
        ok(w2.append(1, &chunk(1)));
        let rec2 = ok(ok(WalDir::open(&dir)).recover());
        assert_eq!(rec2.last_seq, Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_segment_discovery_sorts_by_sequence() {
        let dir = temp_dir("order");
        // Write segments in reverse creation order: 10.. first, then 0..
        let mut late = writer_more(&dir, 1, 10);
        ok(late.append(10, &chunk(10)));
        let mut early = writer_more(&dir, 1, 0);
        ok(early.append(0, &chunk(0)));
        ok(early.append(1, &chunk(1)));
        let rec = ok(ok(WalDir::open(&dir)).recover());
        let seqs: Vec<u64> = rec.chunks.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 10]);
        assert_eq!(rec.last_seq, Some(10));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_wal_recovers_to_nothing() {
        let dir = temp_dir("empty");
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert!(rec.chunks.is_empty());
        assert_eq!(rec.last_seq, None);
        assert_eq!(rec.next_seq(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_faults_degrade_to_lost_records() {
        let dir = temp_dir("faults");
        let mut plan = FaultPlan::none();
        plan.seed = 5;
        plan.wal_append_error = 1.0; // every attempt fails ⇒ every record lost
        let options = WalOptions {
            fsync_every: 1,
            group_window_secs: 0.0,
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: std::time::Duration::ZERO,
            },
            ..WalOptions::default()
        };
        let mut w = ok(WalWriter::open(
            &dir,
            options,
            Arc::new(cdp_faults::FaultInjector::new(plan)),
            Arc::new(VirtualClock::default()),
            Metrics::disabled(),
            0,
        ));
        for seq in 0..3u64 {
            ok(w.append(seq, &chunk(seq)));
        }
        let stats = w.stats();
        assert_eq!(stats.lost_records, 3);
        assert_eq!(stats.appends, 0);
        assert!(stats.injected_faults >= 3);
        assert_eq!(stats.retries, 3);
        let rec = ok(ok(WalDir::open(&dir)).recover());
        assert!(rec.chunks.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
