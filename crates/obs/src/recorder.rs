//! Flight recorder: a bounded on-disk telemetry segment log that survives
//! crashes.
//!
//! A [`FlightRecorder`] periodically persists the full [`TelemetryStore`]
//! (every ring-buffered series) plus the alerts fired so far into numbered
//! segment files (`seg-NNNNNNNNNNNN.cdpt`), each a sealed file of the
//! durable-file layer ([`crate::durable`], DESIGN.md §12): published
//! atomically into a [`NumberedDir`], after which the segments beyond the
//! retention budget are pruned, oldest first — on a background [`Syncer`]
//! job that the next flush, or [`FlightRecorder::join`], joins.
//!
//! After a crash, [`load_segments`] scans the directory newest-first and
//! decodes every valid segment, *skipping* torn or corrupt files (a crash
//! mid-write leaves at most a temp file — never a valid-looking segment with
//! bad data, thanks to the CRC). The `postmortem` binary in `cdp-bench`
//! builds its timeline from exactly this scan.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::alerts::Alert;
use crate::durable::{
    self, put_f64, put_f64_vec, put_str, put_u32, put_u64, put_u64_vec, Format, NumberedDir,
    Reader, Syncer,
};
use crate::timeseries::{HistogramFrame, SamplePoint, TelemetryStore, TimeSeries};

/// Telemetry segment files: magic "CDPT", schema 1.
const SEGMENT: Format = Format {
    magic: *b"CDPT",
    version: 1,
};

/// The recorder's numbered directory: `seg-{seq:012}.cdpt`.
fn segments(dir: impl Into<PathBuf>) -> io::Result<NumberedDir> {
    NumberedDir::open(dir, "seg", "cdpt")
}

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
    files: NumberedDir,
    keep: usize,
    next_seq: u64,
    /// The last flush's publish and prune.
    syncer: Syncer<()>,
}

impl FlightRecorder {
    /// Opens (creating if needed) a recorder over `dir`, retaining the
    /// newest `keep` segments (clamped ≥ 1). Existing segments are kept;
    /// new flushes continue the sequence after the highest present.
    ///
    /// # Errors
    /// I/O errors creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        let files = segments(dir)?;
        let next_seq = files.list()?.last().map_or(0, |seq| seq + 1);
        Ok(Self {
            files,
            keep: keep.max(1),
            next_seq,
            syncer: Syncer::default(),
        })
    }

    /// Encodes one segment capturing `store` and `alerts` at `at_secs`, joins
    /// the previous flush, then hands off the segment's durable write and the
    /// pruning beyond the retention budget. The new segment is published (and
    /// its directory entry synced) before any removal and before the next
    /// segment, and a removal only ever names a segment older than `keep`
    /// newer ones, so a kill anywhere leaves at least the newest `keep`
    /// segments, the new one counted only once its publish returned. Returns
    /// the bytes written.
    ///
    /// # Errors
    /// The previous flush's I/O errors writing, syncing, renaming or removing.
    pub fn flush(
        &mut self,
        store: &TelemetryStore,
        alerts: &[Alert],
        at_secs: f64,
    ) -> io::Result<u64> {
        let segment = encode_segment(store, alerts, at_secs);
        let (files, seq, keep) = (self.files.clone(), self.next_seq, self.keep);
        let bytes = segment.len() as u64;
        self.syncer.start(move || {
            files.publish(seq, &segment)?;
            files.prune(keep, None)
        })?;
        self.next_seq += 1;
        Ok(bytes)
    }

    /// Waits for the last flush's publish and prune, returning their error.
    pub fn join(&mut self) -> io::Result<()> {
        self.syncer.join().map(drop)
    }
}

/// Scans `dir` newest-first and decodes up to `max` valid segments,
/// skipping (and counting) torn, corrupt or unreadable files. A missing
/// directory yields an empty scan — postmortem analysis over "nothing
/// recorded" is a report, not an error.
///
/// # Errors
/// I/O errors reading the directory (decode failures are not errors; they
/// increment [`SegmentScan::skipped`]).
pub fn load_segments(dir: &Path, max: usize) -> io::Result<SegmentScan> {
    if !dir.exists() {
        return Ok(SegmentScan::default());
    }
    let (segments, skipped) = segments(dir)?.newest_valid(max, |seq, bytes| {
        decode_segment(bytes).map(|segment| TelemetrySegment { seq, ..segment })
    })?;
    Ok(SegmentScan { segments, skipped })
}

fn encode_segment(store: &TelemetryStore, alerts: &[Alert], at_secs: f64) -> Vec<u8> {
    // A 4 KiB first buffer, envelope included.
    SEGMENT.seal(4096 - 10, |out| {
        put_f64(out, at_secs);
        put_u64(out, store.samples());
        let counters: Vec<_> = store.counters().collect();
        put_u32(out, counters.len() as u32);
        for (name, series) in counters {
            put_str(out, name);
            put_points(out, series);
        }
        let gauges: Vec<_> = store.gauges().collect();
        put_u32(out, gauges.len() as u32);
        for (name, series) in gauges {
            put_str(out, name);
            put_points(out, series);
        }
        let histograms: Vec<_> = store.histograms().collect();
        put_u32(out, histograms.len() as u32);
        for (name, series) in histograms {
            put_str(out, name);
            put_f64_vec(out, series.bounds());
            put_u32(out, series.len() as u32);
            for f in series.frames() {
                put_f64(out, f.at_secs);
                put_u64(out, f.count);
                put_f64(out, f.sum);
                put_u64(out, f.dropped);
                put_u64_vec(out, &f.buckets);
            }
        }
        put_u32(out, alerts.len() as u32);
        for a in alerts {
            put_str(out, &a.rule);
            put_f64(out, a.value);
            put_f64(out, a.threshold);
            put_f64(out, a.at_secs);
            put_u64(out, a.fired_count);
        }
    })
}

fn put_points(out: &mut Vec<u8>, series: &TimeSeries) {
    put_u32(out, series.len() as u32);
    for p in series.points() {
        put_f64(out, p.at_secs);
        put_f64(out, p.value);
    }
}

/// Decodes one segment file's bytes (sequence number is assigned by the
/// caller from the file name).
///
/// # Errors
/// [`durable::Error`] when the envelope or payload is invalid.
fn decode_segment(bytes: &[u8]) -> Result<TelemetrySegment, durable::Error> {
    let mut r = Reader::new(SEGMENT.unseal(bytes)?);
    let mut segment = TelemetrySegment {
        at_secs: r.f64()?,
        samples: r.u64()?,
        ..TelemetrySegment::default()
    };
    for _ in 0..r.count()? {
        let name = r.string()?;
        segment.counters.insert(name, points(&mut r)?);
    }
    for _ in 0..r.count()? {
        let name = r.string()?;
        segment.gauges.insert(name, points(&mut r)?);
    }
    for _ in 0..r.count()? {
        let name = r.string()?;
        let bounds = r.f64_vec()?;
        let frames = (0..r.count()?)
            .map(|_| {
                Ok(HistogramFrame {
                    at_secs: r.f64()?,
                    count: r.u64()?,
                    sum: r.f64()?,
                    dropped: r.u64()?,
                    buckets: r.u64_vec()?,
                })
            })
            .collect::<Result<_, durable::Error>>()?;
        segment
            .histograms
            .insert(name, SegmentHistogram { bounds, frames });
    }
    for _ in 0..r.count()? {
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

fn points(r: &mut Reader<'_>) -> Result<Vec<SamplePoint>, durable::Error> {
    let at = |r: &mut Reader<'_>| {
        Ok(SamplePoint {
            at_secs: r.f64()?,
            value: r.f64()?,
        })
    };
    (0..r.count()?).map(|_| at(r)).collect()
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::*;
    use crate::crc::crc32;
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

    fn listed(dir: &Path) -> Vec<u64> {
        segments(dir).unwrap().list().unwrap()
    }

    /// The segment encoder before the durable-file layer, verbatim (its
    /// constants and `push_*` helpers with it): the byte oracle.
    fn reference_encode_segment(store: &TelemetryStore, alerts: &[Alert], at_secs: f64) -> Vec<u8> {
        const SEGMENT_MAGIC: [u8; 4] = *b"CDPT";
        const SEGMENT_VERSION: u16 = 1;
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

    #[test]
    fn segments_equal_the_reference_encoder_byte_for_byte() {
        for rounds in [0, 1, 3, 40] {
            let (store, alerts) = sample_store(rounds);
            for (alerts, at) in [(&alerts[..], 180.0), (&[][..], -0.0)] {
                assert_eq!(
                    encode_segment(&store, alerts, at),
                    reference_encode_segment(&store, alerts, at),
                    "{rounds} rounds, {} alerts",
                    alerts.len()
                );
            }
        }
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
            // The publish and the prune run in the background until joined.
            rec.join().unwrap();
            assert!(listed(&dir).len() <= 2);
        }
        assert_eq!(listed(&dir), vec![3, 4], "retention prunes to keep");
        // Exactly those two decode, newest first, each the flush it was.
        let scan = load_segments(&dir, 8).unwrap();
        assert_eq!(scan.skipped, 0);
        let decoded: Vec<(u64, f64)> = scan.segments.iter().map(|s| (s.seq, s.at_secs)).collect();
        assert_eq!(decoded, vec![(4, 4.0), (3, 3.0)]);
        // Reopening continues the sequence.
        let rec2 = FlightRecorder::open(&dir, 2).unwrap();
        assert_eq!(rec2.next_seq, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_between_rename_and_removal_scans_to_the_same_newest_keep() {
        // The state a kill leaves after the new segment's publish and before
        // the oldest one's removal: `keep + 1` segments, plus the temp file
        // of a flush that never got as far as its rename.
        let dir = temp_dir("mid-flush");
        let keep = 2;
        let mut rec = FlightRecorder::open(&dir, keep).unwrap();
        let (store, alerts) = sample_store(2);
        for i in 0..keep {
            rec.flush(&store, &alerts, i as f64).unwrap();
        }
        rec.join().unwrap();
        let files = segments(&dir).unwrap();
        let renamed = encode_segment(&store, &alerts, 2.0);
        files.publish(2, &renamed).unwrap();
        files.publish_torn(3, &renamed).unwrap();
        drop(rec);

        let scan = load_segments(&dir, keep).unwrap();
        assert_eq!(scan.skipped, 0, "the temp file is not a segment");
        let seqs: Vec<u64> = scan.segments.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 1], "newest `keep`, the survivor ignored");
        // The next incarnation continues after the renamed segment and its
        // first flush finishes the interrupted removal.
        let mut rec = FlightRecorder::open(&dir, keep).unwrap();
        assert_eq!(rec.next_seq, 3);
        rec.flush(&store, &alerts, 3.0).unwrap();
        rec.join().unwrap();
        assert_eq!(listed(&dir), vec![2, 3]);
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
        rec.join().unwrap();
        // Torn tail: truncate the newest segment mid-payload.
        let files = segments(&dir).unwrap();
        let newest = files.path(1);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        // Corrupt a fresh third segment by flipping one payload byte.
        rec.flush(&store, &alerts, 180.0).unwrap();
        rec.join().unwrap();
        let corrupt = files.path(2);
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
    fn a_background_publish_error_surfaces_at_the_next_operation() {
        let dir = temp_dir("removed");
        let mut rec = FlightRecorder::open(&dir, 2).unwrap();
        let (store, alerts) = sample_store(2);
        rec.flush(&store, &alerts, 60.0).unwrap();
        rec.join().unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let kind = |r: io::Result<_>| r.map_err(|e| e.kind());
        // Encoded and handed off; the publish fails off the path and the
        // join returns it, once.
        assert!(rec.flush(&store, &alerts, 120.0).unwrap() > 0);
        assert_eq!(kind(rec.join()), Err(io::ErrorKind::NotFound));
        assert_eq!(kind(rec.join()), Ok(()));
        // The next flush joins the one before it.
        assert!(rec.flush(&store, &alerts, 180.0).unwrap() > 0);
        assert_eq!(
            kind(rec.flush(&store, &alerts, 240.0).map(drop)),
            Err(io::ErrorKind::NotFound)
        );
        drop(rec);
        assert!(!dir.exists(), "nothing recreated the directory");
    }

    #[test]
    fn a_segment_with_an_absurd_count_is_skipped_not_allocated() {
        // Well-checksummed segments whose one count — points, bounds, frames
        // or buckets — reads u32::MAX: 68.7 GB of capacity if believed. Each
        // is a truncation found before any buffer is sized, and the scan
        // skips it.
        let head = |out: &mut Vec<u8>, counters: u32| {
            put_f64(out, 60.0);
            put_u64(out, 1);
            put_u32(out, counters);
        };
        let histogram = |out: &mut Vec<u8>| {
            head(out, 0);
            put_u32(out, 0); // gauges
            put_u32(out, 1); // histograms
            put_str(out, "h");
        };
        let points = SEGMENT.seal(64, |out| {
            head(out, 1);
            put_str(out, "c");
            put_u32(out, u32::MAX);
        });
        let bounds = SEGMENT.seal(64, |out| {
            histogram(out);
            put_u32(out, u32::MAX);
        });
        let frames = SEGMENT.seal(64, |out| {
            histogram(out);
            put_u32(out, 0);
            put_u32(out, u32::MAX);
        });
        let buckets = SEGMENT.seal(64, |out| {
            histogram(out);
            put_u32(out, 0);
            put_u32(out, 1);
            put_f64(out, 60.0);
            put_u64(out, 1);
            put_f64(out, 0.5);
            put_u64(out, 0);
            put_u32(out, u32::MAX);
        });
        for (what, bytes) in [
            ("points", points),
            ("bounds", bounds),
            ("frames", frames),
            ("buckets", buckets),
        ] {
            assert_eq!(
                decode_segment(&bytes),
                Err(durable::Error::Truncated),
                "{what}"
            );
            let dir = temp_dir(what);
            segments(&dir).unwrap().publish(0, &bytes).unwrap();
            let scan = load_segments(&dir, 4).unwrap();
            assert_eq!((scan.segments.len(), scan.skipped), (0, 1), "{what}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn load_from_missing_or_foreign_dir_is_empty() {
        let dir = temp_dir("missing");
        let scan = load_segments(&dir, 4).unwrap();
        assert!(scan.segments.is_empty());
        assert_eq!(scan.skipped, 0);
        assert!(!dir.exists(), "a scan creates nothing");
        // A directory with only foreign and temp files scans empty too.
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        fs::write(dir.join(".tmp-seg-000000000000.cdpt"), b"partial").unwrap();
        fs::write(dir.join("seg-000000000001.tmp"), b"partial").unwrap();
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
        assert_eq!(decode_segment(&wrong_magic), Err(durable::Error::BadMagic));
        // Bump the version and re-trailer so only the version check fails.
        bytes[5] = 99;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_segment(&bytes),
            Err(durable::Error::Version {
                found: 99,
                expected: 1
            })
        );
    }
}
