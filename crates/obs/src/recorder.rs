//! Flight recorder: a bounded on-disk telemetry segment log that survives
//! crashes.
//!
//! A [`FlightRecorder`] periodically persists the full [`TelemetryStore`]
//! (every ring-buffered series) plus the alerts fired so far into numbered
//! segment files (`seg-NNNNNNNNNNNN.cdpt`), using the same durability
//! discipline as the checkpoint directory: encode with a magic/version
//! header and a CRC-32 trailer, write to a temp file, fsync, rename into
//! place, prune the oldest segments beyond the retention budget, then fsync
//! the directory once for the rename and the removals. `cdp-obs` sits below
//! the storage crate in the dependency graph, so the discipline is
//! replicated here, not imported.
//!
//! After a crash, [`load_segments`] scans the directory newest-first and
//! decodes every valid segment, *skipping* torn or corrupt files (a crash
//! mid-write leaves at most a temp file or a torn rename target — never a
//! valid-looking segment with bad data, thanks to the CRC). The `postmortem`
//! binary in `cdp-bench` builds its timeline from exactly this scan.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::alerts::Alert;
use crate::crc::crc32;
use crate::timeseries::{HistogramFrame, SamplePoint, TelemetryStore};

/// Magic prefix of every telemetry segment file.
const SEGMENT_MAGIC: [u8; 4] = *b"CDPT";
/// Current segment schema version.
const SEGMENT_VERSION: u16 = 1;
/// Segment file extension.
pub const SEGMENT_EXT: &str = "cdpt";

/// Why a segment file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// File shorter than the fixed envelope.
    TooShort,
    /// Magic prefix mismatch — not a telemetry segment.
    BadMagic,
    /// Schema version this build does not understand.
    BadVersion(u16),
    /// CRC-32 trailer mismatch — torn or corrupt payload.
    BadChecksum,
    /// Payload ended mid-field.
    Truncated,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::TooShort => write!(f, "segment shorter than its envelope"),
            SegmentError::BadMagic => write!(f, "bad segment magic"),
            SegmentError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
            SegmentError::BadChecksum => write!(f, "segment checksum mismatch (torn write?)"),
            SegmentError::Truncated => write!(f, "segment payload truncated"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// One histogram's series as persisted in a segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentHistogram {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Retained frames, oldest first.
    pub frames: Vec<HistogramFrame>,
}

/// One decoded telemetry segment: a point-in-time copy of the recorder's
/// telemetry store and alert history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySegment {
    /// Segment sequence number (from the file name).
    pub seq: u64,
    /// Clock seconds of the flush that wrote this segment.
    pub at_secs: f64,
    /// Samples the store had recorded at flush time.
    pub samples: u64,
    /// Counter series, name-ordered, oldest sample first.
    pub counters: BTreeMap<String, Vec<SamplePoint>>,
    /// Gauge series, name-ordered, oldest sample first.
    pub gauges: BTreeMap<String, Vec<SamplePoint>>,
    /// Histogram series, name-ordered.
    pub histograms: BTreeMap<String, SegmentHistogram>,
    /// Alerts fired up to the flush, oldest first.
    pub alerts: Vec<Alert>,
}

/// Result of scanning a recorder directory after a crash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentScan {
    /// Valid segments, newest first.
    pub segments: Vec<TelemetrySegment>,
    /// Files that looked like segments but failed to decode (torn writes,
    /// corruption, future versions) — skipped, never fatal.
    pub skipped: usize,
}

/// Writes bounded, checksummed telemetry segments with rotation.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    keep: usize,
    next_seq: u64,
}

impl FlightRecorder {
    /// Opens (creating if needed) a recorder over `dir`, retaining the
    /// newest `keep` segments (clamped ≥ 1). Existing segments are kept;
    /// new flushes continue the sequence after the highest present.
    ///
    /// # Errors
    /// I/O errors creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next_seq = list_segment_files(&dir)?
            .last()
            .map_or(0, |(seq, _)| seq + 1);
        Ok(Self {
            dir,
            keep: keep.max(1),
            next_seq,
        })
    }

    /// The recorder directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next flush will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Durably writes one segment capturing `store` and `alerts` at
    /// `at_secs` and drops the segments beyond the retention budget: rename
    /// the new one into place, remove the oldest, then sync the directory
    /// once for both. A removal only ever names a segment older than `keep`
    /// newer ones, so whichever of the unsynced directory changes a kill
    /// keeps, the newest-first scan still finds the segments that were
    /// durable before — all but possibly the oldest of them. Returns the
    /// bytes written.
    ///
    /// # Errors
    /// I/O errors writing, syncing, or renaming.
    pub fn flush(
        &mut self,
        store: &TelemetryStore,
        alerts: &[Alert],
        at_secs: f64,
    ) -> io::Result<u64> {
        let seq = self.next_seq;
        let payload = encode_segment(store, alerts, at_secs);
        let final_path = self.dir.join(segment_file_name(seq));
        let tmp_path = self.dir.join(format!(".tmp-{}", segment_file_name(seq)));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            f.write_all(&payload)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        self.next_seq += 1;
        let files = list_segment_files(&self.dir)?;
        for (_, path) in &files[..files.len().saturating_sub(self.keep)] {
            let _ = fs::remove_file(path);
        }
        sync_dir(&self.dir)?;
        Ok(payload.len() as u64)
    }
}

/// Stable file name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:012}.{SEGMENT_EXT}")
}

/// Segment files in `dir`, oldest first, with their sequence numbers.
/// Temp files and foreign names are ignored.
///
/// # Errors
/// I/O errors reading the directory.
pub fn list_segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(seq) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(&format!(".{SEGMENT_EXT}")))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        files.push((seq, path));
    }
    files.sort_by_key(|(seq, _)| *seq);
    Ok(files)
}

/// Scans `dir` newest-first and decodes up to `max` valid segments,
/// skipping (and counting) torn or corrupt files. A missing directory
/// yields an empty scan — postmortem analysis over "nothing recorded" is a
/// report, not an error.
///
/// # Errors
/// I/O errors reading the directory or a file (decode failures are not
/// errors; they increment [`SegmentScan::skipped`]).
pub fn load_segments(dir: &Path, max: usize) -> io::Result<SegmentScan> {
    let mut scan = SegmentScan::default();
    if !dir.exists() {
        return Ok(scan);
    }
    for (seq, path) in list_segment_files(dir)?.into_iter().rev() {
        if scan.segments.len() >= max {
            break;
        }
        let bytes = fs::read(&path)?;
        match decode_segment(&bytes) {
            Ok(mut segment) => {
                segment.seq = seq;
                scan.segments.push(segment);
            }
            Err(_) => scan.skipped += 1,
        }
    }
    Ok(scan)
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Windows cannot open a directory handle this way; the rename is still
    // atomic there, only the directory-entry durability differs.
    match File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(_) => Ok(()),
    }
}

// ---- Encoding (big-endian, hand-rolled — no serialization dependency) ----

fn encode_segment(store: &TelemetryStore, alerts: &[Alert], at_secs: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_be_bytes());
    push_f64(&mut out, at_secs);
    push_u64(&mut out, store.samples());

    let counters: Vec<_> = store.counters().collect();
    push_u32(&mut out, counters.len() as u32);
    for (name, series) in counters {
        push_str(&mut out, name);
        push_u32(&mut out, series.len() as u32);
        for p in series.points() {
            push_f64(&mut out, p.at_secs);
            push_f64(&mut out, p.value);
        }
    }
    let gauges: Vec<_> = store.gauges().collect();
    push_u32(&mut out, gauges.len() as u32);
    for (name, series) in gauges {
        push_str(&mut out, name);
        push_u32(&mut out, series.len() as u32);
        for p in series.points() {
            push_f64(&mut out, p.at_secs);
            push_f64(&mut out, p.value);
        }
    }
    let histograms: Vec<_> = store.histograms().collect();
    push_u32(&mut out, histograms.len() as u32);
    for (name, series) in histograms {
        push_str(&mut out, name);
        push_u32(&mut out, series.bounds().len() as u32);
        for b in series.bounds() {
            push_f64(&mut out, *b);
        }
        push_u32(&mut out, series.len() as u32);
        for f in series.frames() {
            push_f64(&mut out, f.at_secs);
            push_u64(&mut out, f.count);
            push_f64(&mut out, f.sum);
            push_u64(&mut out, f.dropped);
            push_u32(&mut out, f.buckets.len() as u32);
            for c in &f.buckets {
                push_u64(&mut out, *c);
            }
        }
    }
    push_u32(&mut out, alerts.len() as u32);
    for a in alerts {
        push_str(&mut out, &a.rule);
        push_f64(&mut out, a.value);
        push_f64(&mut out, a.threshold);
        push_f64(&mut out, a.at_secs);
        push_u64(&mut out, a.fired_count);
    }

    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Decodes one segment file's bytes (sequence number is assigned by the
/// caller from the file name).
///
/// # Errors
/// [`SegmentError`] when the envelope or payload is invalid.
fn decode_segment(bytes: &[u8]) -> Result<TelemetrySegment, SegmentError> {
    if bytes.len() < SEGMENT_MAGIC.len() + 2 + 4 {
        return Err(SegmentError::TooShort);
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let version = u16::from_be_bytes([bytes[4], bytes[5]]);
    if version != SEGMENT_VERSION {
        return Err(SegmentError::BadVersion(version));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(payload) != stored {
        return Err(SegmentError::BadChecksum);
    }

    let mut r = Reader {
        bytes: payload,
        pos: 6,
    };
    let mut segment = TelemetrySegment {
        at_secs: r.f64()?,
        samples: r.u64()?,
        ..TelemetrySegment::default()
    };
    for _ in 0..r.u32()? {
        let name = r.string()?;
        let n = r.u32()? as usize;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(SamplePoint {
                at_secs: r.f64()?,
                value: r.f64()?,
            });
        }
        segment.counters.insert(name, points);
    }
    for _ in 0..r.u32()? {
        let name = r.string()?;
        let n = r.u32()? as usize;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(SamplePoint {
                at_secs: r.f64()?,
                value: r.f64()?,
            });
        }
        segment.gauges.insert(name, points);
    }
    for _ in 0..r.u32()? {
        let name = r.string()?;
        let nb = r.u32()? as usize;
        let mut bounds = Vec::with_capacity(nb);
        for _ in 0..nb {
            bounds.push(r.f64()?);
        }
        let nf = r.u32()? as usize;
        let mut frames = Vec::with_capacity(nf);
        for _ in 0..nf {
            let at_secs = r.f64()?;
            let count = r.u64()?;
            let sum = r.f64()?;
            let dropped = r.u64()?;
            let nbk = r.u32()? as usize;
            let mut buckets = Vec::with_capacity(nbk);
            for _ in 0..nbk {
                buckets.push(r.u64()?);
            }
            frames.push(HistogramFrame {
                at_secs,
                count,
                sum,
                dropped,
                buckets,
            });
        }
        segment
            .histograms
            .insert(name, SegmentHistogram { bounds, frames });
    }
    for _ in 0..r.u32()? {
        segment.alerts.push(Alert {
            rule: r.string()?,
            value: r.f64()?,
            threshold: r.f64()?,
            at_secs: r.f64()?,
            fired_count: r.u64()?,
        });
    }
    Ok(segment)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SegmentError> {
        let end = self.pos.checked_add(n).ok_or(SegmentError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SegmentError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SegmentError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SegmentError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, SegmentError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, SegmentError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SegmentError::Truncated)
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cdp-recorder-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_store(rounds: usize) -> (TelemetryStore, Vec<Alert>) {
        let metrics = Metrics::collecting();
        let mut store = TelemetryStore::new(32);
        for i in 0..rounds {
            metrics.counter("deployment.chunks").inc();
            metrics.gauge("drift.level").set(i as f64);
            metrics
                .histogram_with_bounds("io", &[0.1, 1.0])
                .observe(0.05 * (i + 1) as f64);
            store.record(60.0 * (i + 1) as f64, &metrics.snapshot());
        }
        let alerts = vec![Alert {
            rule: "store.lost_spills".into(),
            value: 2.0,
            threshold: 0.0,
            at_secs: 120.0,
            fired_count: 1,
        }];
        (store, alerts)
    }

    #[test]
    fn segment_round_trips_exactly() {
        let (store, alerts) = sample_store(3);
        let bytes = encode_segment(&store, &alerts, 180.0);
        let seg = decode_segment(&bytes).unwrap();
        assert_eq!(seg.at_secs, 180.0);
        assert_eq!(seg.samples, 3);
        assert_eq!(seg.counters["deployment.chunks"].len(), 3);
        assert_eq!(seg.counters["deployment.chunks"][2].value, 3.0);
        assert_eq!(seg.gauges["drift.level"][1].value, 1.0);
        let h = &seg.histograms["io"];
        assert_eq!(h.bounds, vec![0.1, 1.0]);
        assert_eq!(h.frames.len(), 3);
        assert_eq!(h.frames[2].count, 3);
        assert_eq!(seg.alerts, alerts);
    }

    #[test]
    fn flush_rotates_and_retains_newest() {
        let dir = temp_dir("rotate");
        let mut rec = FlightRecorder::open(&dir, 2).unwrap();
        let (store, alerts) = sample_store(2);
        for i in 0..5 {
            let bytes = rec.flush(&store, &alerts, i as f64).unwrap();
            assert!(bytes > 0);
            assert!(list_segment_files(&dir).unwrap().len() <= 2);
        }
        let files = list_segment_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "retention prunes to keep");
        assert_eq!(files[0].0, 3);
        assert_eq!(files[1].0, 4);
        // Exactly those two decode, newest first, each the flush it was.
        let scan = load_segments(&dir, 8).unwrap();
        assert_eq!(scan.skipped, 0);
        let decoded: Vec<(u64, f64)> = scan.segments.iter().map(|s| (s.seq, s.at_secs)).collect();
        assert_eq!(decoded, vec![(4, 4.0), (3, 3.0)]);
        // Reopening continues the sequence.
        let rec2 = FlightRecorder::open(&dir, 2).unwrap();
        assert_eq!(rec2.next_seq(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_between_rename_and_removal_scans_to_the_same_newest_keep() {
        // The state a kill leaves after the new segment's rename and before
        // the oldest one's removal: `keep + 1` segments, plus the temp file
        // of a flush that never got as far as its rename.
        let dir = temp_dir("mid-flush");
        let keep = 2;
        let mut rec = FlightRecorder::open(&dir, keep).unwrap();
        let (store, alerts) = sample_store(2);
        for i in 0..keep {
            rec.flush(&store, &alerts, i as f64).unwrap();
        }
        let renamed = encode_segment(&store, &alerts, 2.0);
        fs::write(dir.join(segment_file_name(2)), &renamed).unwrap();
        fs::write(dir.join(".tmp-seg-000000000003.cdpt"), &renamed[..40]).unwrap();
        drop(rec);

        let scan = load_segments(&dir, keep).unwrap();
        assert_eq!(scan.skipped, 0, "the temp file is not a segment");
        let seqs: Vec<u64> = scan.segments.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 1], "newest `keep`, the survivor ignored");
        // The next incarnation continues after the renamed segment and its
        // first flush finishes the interrupted removal.
        let mut rec = FlightRecorder::open(&dir, keep).unwrap();
        assert_eq!(rec.next_seq(), 3);
        rec.flush(&store, &alerts, 3.0).unwrap();
        let seqs: Vec<u64> = list_segment_files(&dir)
            .unwrap()
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(load_segments(&dir, 16).unwrap().skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_tails_are_skipped_not_fatal() {
        let dir = temp_dir("torn");
        let mut rec = FlightRecorder::open(&dir, 4).unwrap();
        let (store, alerts) = sample_store(2);
        rec.flush(&store, &alerts, 60.0).unwrap();
        rec.flush(&store, &alerts, 120.0).unwrap();
        // Torn tail: truncate the newest segment mid-payload.
        let newest = dir.join(segment_file_name(1));
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        // Corrupt a fresh third segment by flipping one payload byte.
        rec.flush(&store, &alerts, 180.0).unwrap();
        let corrupt = dir.join(segment_file_name(2));
        let mut bytes = fs::read(&corrupt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&corrupt, bytes).unwrap();

        let scan = load_segments(&dir, 8).unwrap();
        assert_eq!(scan.skipped, 2);
        assert_eq!(scan.segments.len(), 1, "only the intact segment survives");
        assert_eq!(scan.segments[0].seq, 0);
        assert_eq!(scan.segments[0].samples, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_from_missing_or_foreign_dir_is_empty() {
        let dir = temp_dir("missing");
        let scan = load_segments(&dir, 4).unwrap();
        assert!(scan.segments.is_empty());
        assert_eq!(scan.skipped, 0);
        // A directory with only foreign files scans empty too.
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        fs::write(dir.join(".tmp-seg-000000000000.cdpt"), b"partial").unwrap();
        let scan = load_segments(&dir, 4).unwrap();
        assert!(scan.segments.is_empty());
        assert_eq!(scan.skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let (store, alerts) = sample_store(1);
        let mut bytes = encode_segment(&store, &alerts, 60.0);
        assert!(decode_segment(&bytes[..4]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode_segment(&wrong_magic), Err(SegmentError::BadMagic));
        // Bump the version and re-trailer so only the version check fails.
        bytes[5] = 99;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(decode_segment(&bytes), Err(SegmentError::BadVersion(99)));
    }
}
