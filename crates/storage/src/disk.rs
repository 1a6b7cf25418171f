//! A binary on-disk tier for feature chunks.
//!
//! Plays the role HDFS played in the paper's prototype: a place where
//! feature chunks can be spilled and read back, with real I/O latency, so the
//! Experiment-3 finding — materialization saves disk round-trips — can be
//! reproduced against an actual device rather than only the cost model.
//!
//! The tier is a **process-private cache**, not a durable format: the
//! deployment spills into a directory named after its pid, removes it on
//! drop, and a resumed run rebuilds its spills by replay. No spill byte is
//! ever read by a process other than the one that wrote it. So [`DiskTier`]
//! is one append-only log file plus an in-memory `ts → (offset, len)` index:
//! a spill is one positioned write, a read is one positioned read, an
//! overwrite is a newer index entry, and there is no temp file, rename or
//! fsync (the durable formats are the WAL, checkpoints and recorder
//! segments).
//!
//! The codec is a small fixed binary layout mirroring the columnar in-memory
//! representation, so a spill is a handful of slice moves instead of a
//! per-point walk. It is written and read with the big-endian writer and
//! bounded [`Reader`] of the durable-file layer ([`cdp_obs::durable`]) and
//! sealed in its envelope, though it is never fsynced:
//!
//! ```text
//! magic "CDPF" | version u16 | timestamp u64 | raw_ref u64
//! layout tag u8:
//!   0 dense: n_rows u32 | dim u32 | n_rows × f64 labels
//!            | dim columns × (n_rows × f64)
//!   1 csr  : n_rows u32 | dim u32 | n_rows × f64 labels
//!            | (n_rows+1) × u32 row_ptr (rebased to start at 0)
//!            | nnz u32 | nnz × u32 indices | nnz × f64 values
//! trailer: crc32 u32 over everything before it
//! ```
//!
//! Without the trailer, a flipped byte inside an `f64` decodes to a
//! structurally valid but numerically wrong chunk. The checksum turns *every*
//! single-byte corruption (and any burst ≤ 32 bits) into a typed
//! [`StorageError::Corrupt`], which the tiered store can then recover from
//! by retrying or re-materializing. A log never outlives its process, so the
//! decoder knows one schema version; any other is a typed
//! [`StorageError::VersionMismatch`].
//!
//! All disk I/O goes through a bounded retry-with-backoff loop and consults
//! a [`FaultHook`] per attempt, so fault-injection tests can exercise the
//! recovery paths deterministically (the default [`NoFaults`] hook makes
//! both checks a no-op).

use std::collections::BTreeMap;
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use cdp_faults::{corrupt_byte_index, FaultHook, IoFault, IoOp, NoFaults, RetryPolicy};
use cdp_obs::durable::{self, put_f64s, put_u32, put_u32s, put_u64, Format, Reader};
use cdp_obs::Metrics;

use crate::chunk::{FeatureChunk, Timestamp};
use crate::columnar::{ColumnSlab, SlabLayout};
use crate::StorageError;

/// Spill chunks: magic "CDPF", [`crate::SPILL_SCHEMA`].
const SPILL: Format = Format {
    magic: *b"CDPF",
    version: crate::SPILL_SCHEMA.0,
};
/// The log file inside the tier's directory.
pub(crate) const LOG_FILE: &str = "spill.log";

/// Encodes a feature chunk into its binary representation (columnar payload
/// moved a slice at a time out of the backing slab, into a buffer sized once).
pub fn encode_chunk(chunk: &FeatureChunk) -> Vec<u8> {
    let capacity = 38 + chunk.size_bytes() + chunk.len() * 16;
    SPILL.seal(capacity, |buf| {
        put_u64(buf, chunk.timestamp.0);
        put_u64(buf, chunk.raw_ref.0);
        let slab = chunk.slab();
        let n = chunk.len() as u32;
        match slab.layout() {
            SlabLayout::Dense { dim, cols } => {
                buf.push(0);
                put_u32(buf, n);
                put_u32(buf, *dim as u32);
                put_f64s(buf, slab.labels());
                for col in cols {
                    put_f64s(buf, col);
                }
            }
            SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            } => {
                buf.push(1);
                put_u32(buf, n);
                put_u32(buf, *dim as u32);
                put_f64s(buf, slab.labels());
                put_u32s(buf, row_ptr);
                put_u32(buf, indices.len() as u32);
                put_u32s(buf, indices);
                put_f64s(buf, values);
            }
        }
    })
}

/// Decodes a feature chunk from its binary representation.
///
/// # Errors
/// [`StorageError::Corrupt`] on bad magic, tag, truncation, or a CRC-32
/// mismatch (any corrupted byte, including inside float payloads);
/// [`StorageError::VersionMismatch`] for a well-checksummed chunk of another
/// schema.
pub fn decode_chunk(data: &[u8]) -> Result<FeatureChunk, StorageError> {
    // The envelope verifies the checksum before a single field is
    // interpreted: a corrupt buffer must never decode, even when the damage
    // lands somewhere structurally silent (a label, a feature value).
    decode_payload(SPILL.unseal(data)?)
}

/// The next `len` bytes (`None`: past `usize`) as a block of their own,
/// taken whole: its size is checked against the bytes left before any of
/// its buffers is sized.
fn take_block<'a>(r: &mut Reader<'a>, len: Option<usize>) -> Result<Reader<'a>, durable::Error> {
    Ok(Reader::new(r.take(len.ok_or(durable::Error::Truncated)?)?))
}

/// Decodes the payload of an unsealed chunk into a slab-backed chunk.
fn decode_payload(data: &[u8]) -> Result<FeatureChunk, StorageError> {
    let mut r = Reader::new(data);
    let timestamp = Timestamp(r.u64()?);
    let raw_ref = Timestamp(r.u64()?);
    let (tag, n) = (r.u8()?, r.u32()? as usize);
    // Tag 2 was the row-major layout no producer emits any more.
    if tag > 1 {
        return Err(StorageError::Corrupt(format!(
            "unknown slab layout tag {tag}"
        )));
    }
    let dim = r.u32()? as usize;
    let labels = r.f64s(n)?;
    let layout = if tag == 0 {
        let mut block = take_block(&mut r, n.checked_mul(dim).and_then(|w| w.checked_mul(8)))?;
        let mut cols = Vec::with_capacity(dim);
        for _ in 0..dim {
            cols.push(block.f64s(n)?);
        }
        SlabLayout::Dense { dim, cols }
    } else {
        let row_ptr = r.u32s(n + 1)?;
        let nnz = r.u32()? as usize;
        // Structural invariants the rest of the crate relies on for
        // panic-free row access: pointers rebased, monotone, covering.
        if row_ptr[0] != 0 || row_ptr.windows(2).any(|w| w[0] > w[1]) || row_ptr[n] as usize != nnz
        {
            return Err(StorageError::Corrupt(
                "inconsistent CSR row pointers".into(),
            ));
        }
        let mut entries = take_block(&mut r, nnz.checked_mul(4 + 8))?;
        let indices = entries.u32s(nnz)?;
        let values = entries.f64s(nnz)?;
        for row in 0..n {
            let (a, b) = (row_ptr[row] as usize, row_ptr[row + 1] as usize);
            let row_indices = &indices[a..b];
            if row_indices.windows(2).any(|w| w[0] >= w[1])
                || row_indices.iter().any(|&i| i as usize >= dim)
            {
                return Err(StorageError::Corrupt(format!(
                    "CSR row {row} has unsorted or out-of-range indices"
                )));
            }
        }
        SlabLayout::Csr {
            dim,
            row_ptr,
            indices,
            values,
        }
    };
    r.finish()?;
    let slab = Arc::new(ColumnSlab::from_parts(labels, layout));
    Ok(FeatureChunk::from_slab(timestamp, raw_ref, slab))
}

/// An append-only log of encoded feature chunks plus the in-memory index
/// that finds them (see the module docs for why nothing here is durable).
///
/// Every read and write runs a bounded retry-with-backoff loop, consulting
/// the configured [`FaultHook`] once per attempt; a transient failure —
/// injected or genuine — therefore costs retries (recorded in the hook's
/// stats) rather than propagating.
#[derive(Debug)]
pub struct DiskTier {
    log: fs::File,
    /// `ts → (offset, len)` of the newest copy of each spilled chunk.
    index: BTreeMap<Timestamp, (u64, usize)>,
    hook: Arc<dyn FaultHook>,
    retry: RetryPolicy,
    /// Observability handle (disabled by default).
    metrics: Metrics,
    /// Bytes appended since creation: the I/O accounting figure and, the log
    /// having started empty, the offset of the next spill. It moves only
    /// when an append succeeds, so a failed append's partial bytes lie past
    /// it and are overwritten by the next one.
    bytes_written: u64,
    /// Bytes read since creation.
    bytes_read: u64,
}

impl DiskTier {
    /// Opens a fresh, empty disk tier in `dir` (created if needed),
    /// fault-free.
    ///
    /// # Errors
    /// I/O errors creating the directory or the log file.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with_hook(dir, Arc::new(NoFaults), RetryPolicy::default())
    }

    /// Opens a disk tier whose every I/O attempt consults `hook`.
    ///
    /// # Errors
    /// I/O errors creating the directory or the log file.
    pub fn open_with_hook(
        dir: impl AsRef<Path>,
        hook: Arc<dyn FaultHook>,
        retry: RetryPolicy,
    ) -> Result<Self, StorageError> {
        fs::create_dir_all(&dir)?;
        // The index starts empty, so whatever an earlier tier left in this
        // directory is unreachable: start the log empty too.
        let log = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.as_ref().join(LOG_FILE))?;
        Ok(Self {
            log,
            index: BTreeMap::new(),
            hook,
            retry,
            metrics: Metrics::disabled(),
            bytes_written: 0,
            bytes_read: 0,
        })
    }

    /// Routes this tier's I/O counters and latency histograms
    /// (`store.disk_*`) into `metrics`.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Replaces the fault hook consulted on every I/O attempt (used when a
    /// resumed deployment swaps its replay hook for the live injector).
    pub fn set_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.hook = hook;
    }

    fn injected_io_error(verb: &str, ts: Timestamp) -> StorageError {
        StorageError::Io(std::io::Error::other(format!(
            "injected disk-{verb} failure for chunk {}",
            ts.0
        )))
    }

    /// Runs `attempt` up to the retry budget, with backoff between tries.
    fn with_retries<T>(
        &self,
        mut attempt: impl FnMut(u32) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut tries = 0u32;
        loop {
            match attempt(tries) {
                Ok(value) => {
                    if tries > 0 {
                        self.hook.note_recovered();
                    }
                    return Ok(value);
                }
                Err(err) => {
                    if tries >= self.retry.max_retries {
                        return Err(err);
                    }
                    self.hook.note_retry();
                    self.metrics.counter("store.disk_retries").inc();
                    self.retry.sleep(tries);
                    tries += 1;
                }
            }
        }
    }

    /// Appends a chunk to the log, superseding any previous version,
    /// retrying transient failures up to the retry budget. A write that
    /// fails for good leaves the index — and so every earlier chunk,
    /// including an older version of this one — as it was.
    ///
    /// # Errors
    /// I/O errors persisting past every retry.
    pub fn write(&mut self, chunk: &FeatureChunk) -> Result<(), StorageError> {
        let encoded = encode_chunk(chunk);
        let ts = chunk.timestamp;
        let span = self.metrics.span("store.disk_write_secs");
        self.with_retries(|attempt| {
            match self.hook.decide_io(IoOp::DiskWrite, ts.0, attempt) {
                IoFault::Fail => return Err(Self::injected_io_error("write", ts)),
                IoFault::Delay(d) => std::thread::sleep(d),
                IoFault::Proceed | IoFault::Corrupt => {}
            }
            Ok(self.log.write_all_at(&encoded, self.bytes_written)?)
        })?;
        self.index.insert(ts, (self.bytes_written, encoded.len()));
        self.bytes_written += encoded.len() as u64;
        self.metrics.counter("store.disk_writes").inc();
        self.metrics
            .counter("store.disk_bytes_written")
            .add(encoded.len() as u64);
        span.finish();
        Ok(())
    }

    /// Reads the chunk stored for `ts`, or `Ok(None)` when absent, retrying
    /// transient failures (I/O errors and corrupt buffers — a torn read or
    /// an injected byte flip re-reads cleanly) up to the retry budget.
    ///
    /// # Errors
    /// I/O or corruption errors persisting past every retry. "Not found" is
    /// never an error and is never retried.
    pub fn read(&mut self, ts: Timestamp) -> Result<Option<FeatureChunk>, StorageError> {
        let span = self.metrics.span("store.disk_read_secs");
        let outcome = self.with_retries(|attempt| self.read_attempt(ts, attempt))?;
        if let Some((_, len)) = &outcome {
            self.bytes_read += *len;
            self.metrics.counter("store.disk_reads").inc();
            self.metrics.counter("store.disk_bytes_read").add(*len);
        }
        span.finish();
        Ok(outcome.map(|(chunk, _)| chunk))
    }

    /// One read attempt: returns the decoded chunk plus the byte count it
    /// cost, `None` when the index has no entry.
    fn read_attempt(
        &self,
        ts: Timestamp,
        attempt: u32,
    ) -> Result<Option<(FeatureChunk, u64)>, StorageError> {
        let mut corrupt = false;
        match self.hook.decide_io(IoOp::DiskRead, ts.0, attempt) {
            IoFault::Fail => return Err(Self::injected_io_error("read", ts)),
            IoFault::Delay(d) => std::thread::sleep(d),
            IoFault::Corrupt => corrupt = true,
            IoFault::Proceed => {}
        }
        let Some(&(offset, len)) = self.index.get(&ts) else {
            return Ok(None);
        };
        let mut data = vec![0u8; len];
        self.log.read_exact_at(&mut data, offset)?;
        if corrupt && !data.is_empty() {
            // Flip one deterministic byte of the in-flight buffer (the log
            // itself is untouched, so a retry re-reads clean bytes) — the
            // checksum must turn this into a typed error, never a
            // silently-wrong chunk.
            let idx = corrupt_byte_index(ts.0, u64::from(attempt), data.len());
            data[idx] ^= 0x40;
        }
        decode_chunk(&data).map(|chunk| Some((chunk, len as u64)))
    }

    /// Total bytes written since the tier was opened.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read since the tier was opened.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{ColumnSlab, CsrBuilder};
    use cdp_faults::{FaultInjector, FaultPlan};
    use cdp_obs::crc32;
    use proptest::prelude::*;

    /// Result extractor without `unwrap`/`expect`: this module's hot path
    /// must stay free of those tokens end to end.
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

    /// A chunk over the CSR slab of `rows`, each a label and its entries.
    fn sparse_rows(ts: u64, dim: usize, rows: &[(f64, &[(u32, f64)])]) -> FeatureChunk {
        let mut builder = CsrBuilder::reusing(None, dim, rows.len(), 0);
        for (label, entries) in rows {
            builder.push_row(*label, &mut entries.to_vec());
        }
        FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), Arc::new(builder.finish()))
    }

    /// A chunk over the dense slab of `labels` and columns `cols`.
    fn dense_cols(ts: u64, labels: Vec<f64>, cols: Vec<Vec<f64>>) -> FeatureChunk {
        let slab = Arc::new(ColumnSlab::dense(labels, cols));
        FeatureChunk::from_slab(Timestamp(ts), Timestamp(ts), slab)
    }

    /// A sparse row and a dense one, stored as a CSR block at the sparse
    /// row's dimension (the dense row lists every coordinate, its zero too).
    fn sample_chunk() -> FeatureChunk {
        let dense_row = [(0, 0.5), (1, 0.25), (2, 0.0)];
        sparse_rows(
            42,
            1024,
            &[(1.0, &[(3, 1.5), (100, -2.0)]), (-1.0, &dense_row)],
        )
    }

    #[test]
    fn codec_round_trips() {
        let chunk = sample_chunk();
        let encoded = encode_chunk(&chunk);
        let decoded = ok(decode_chunk(&encoded));
        assert_eq!(chunk, decoded);
    }

    #[test]
    fn codec_rejects_bad_magic() {
        let mut encoded = encode_chunk(&sample_chunk()).to_vec();
        encoded[0] = b'X';
        assert!(matches!(
            decode_chunk(&encoded),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn codec_rejects_truncation() {
        let encoded = encode_chunk(&sample_chunk());
        for cut in [3, 10, 30, encoded.len() - 1] {
            assert!(
                decode_chunk(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn codec_rejects_every_single_byte_flip() {
        let encoded = encode_chunk(&sample_chunk()).to_vec();
        for i in 0..encoded.len() {
            let mut damaged = encoded.clone();
            damaged[i] ^= 0x01;
            assert!(
                matches!(decode_chunk(&damaged), Err(StorageError::Corrupt(_))),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn current_schema_spill_files_round_trip() {
        // Files are written at the advertised schema version and decode
        // back to an equal chunk.
        let chunk = sample_chunk();
        let encoded = encode_chunk(&chunk);
        assert_eq!(
            u16::from_be_bytes([encoded[4], encoded[5]]),
            crate::SPILL_SCHEMA.0,
            "spill files are written at the advertised schema version"
        );
        assert_eq!(ok(decode_chunk(&encoded)), chunk);
    }

    /// One chunk per slab layout (dense, CSR, CSR from mixed rows, empty).
    fn layout_chunks() -> Vec<FeatureChunk> {
        let dense = dense_cols(1, vec![1.0, -1.0], vec![vec![1.0, 0.5], vec![-2.0, 4.0]]);
        let csr = sparse_rows(2, 8, &[(1.0, &[(2, 1.0)]), (0.0, &[(0, -3.0), (7, 2.5)])]);
        let empty = sparse_rows(3, 0, &[]);
        vec![dense, csr, sample_chunk(), empty]
    }

    #[test]
    fn codec_round_trips_all_layouts() {
        for chunk in layout_chunks() {
            assert_eq!(ok(decode_chunk(&encode_chunk(&chunk))), chunk);
        }
    }

    #[test]
    fn the_retired_rows_tag_is_corrupt_not_a_panic() {
        // A well-checksummed buffer carrying layout tag 2 (byte 22): one
        // row, then what used to be its label and a dense vector.
        let mut bytes = encode_chunk(&layout_chunks()[3]).to_vec();
        bytes.truncate(bytes.len() - 4);
        bytes[22] = 2;
        bytes[23..27].copy_from_slice(&1u32.to_be_bytes());
        bytes.truncate(27);
        bytes.extend_from_slice(&1.0f64.to_be_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0, 1]);
        bytes.extend_from_slice(&0.5f64.to_be_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_be_bytes());
        match decode_chunk(&bytes) {
            Err(StorageError::Corrupt(why)) => assert!(why.contains("layout tag 2"), "{why}"),
            other => panic!("expected a typed corruption, got {other:?}"),
        }
    }

    #[test]
    fn foreign_schema_version_is_a_typed_mismatch() {
        // Re-encode with a bumped version and a fixed-up CRC: structurally
        // intact, wrong schema — must surface as VersionMismatch, not Corrupt.
        let mut encoded = encode_chunk(&sample_chunk()).to_vec();
        let future = (crate::SPILL_SCHEMA.0 + 1).to_be_bytes();
        encoded[4] = future[0];
        encoded[5] = future[1];
        let body_len = encoded.len() - 4;
        let fixed = crc32(&encoded[..body_len]).to_be_bytes();
        encoded[body_len..].copy_from_slice(&fixed);
        assert!(matches!(
            decode_chunk(&encoded),
            Err(StorageError::VersionMismatch {
                found,
                expected,
            }) if found == crate::SPILL_SCHEMA.0 + 1 && expected == crate::SPILL_SCHEMA.0
        ));
    }

    /// The element-at-a-time encoder this codec replaced, kept as the oracle
    /// for the bytes: one `to_be_bytes` write per label, pointer, index and
    /// value.
    fn encode_chunk_reference(chunk: &FeatureChunk) -> Vec<u8> {
        const MAGIC: &[u8; 4] = b"CDPF";
        const VERSION: u16 = crate::SPILL_SCHEMA.0;
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.extend_from_slice(&chunk.timestamp.0.to_be_bytes());
        buf.extend_from_slice(&chunk.raw_ref.0.to_be_bytes());
        let slab = chunk.slab();
        let n = chunk.len() as u32;
        match slab.layout() {
            SlabLayout::Dense { dim, cols } => {
                buf.push(0);
                buf.extend_from_slice(&n.to_be_bytes());
                buf.extend_from_slice(&(*dim as u32).to_be_bytes());
                for &label in slab.labels() {
                    buf.extend_from_slice(&label.to_be_bytes());
                }
                for col in cols {
                    for &x in col {
                        buf.extend_from_slice(&x.to_be_bytes());
                    }
                }
            }
            SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            } => {
                buf.push(1);
                buf.extend_from_slice(&n.to_be_bytes());
                buf.extend_from_slice(&(*dim as u32).to_be_bytes());
                for &label in slab.labels() {
                    buf.extend_from_slice(&label.to_be_bytes());
                }
                for &p in row_ptr {
                    buf.extend_from_slice(&p.to_be_bytes());
                }
                buf.extend_from_slice(&(indices.len() as u32).to_be_bytes());
                for &i in indices {
                    buf.extend_from_slice(&i.to_be_bytes());
                }
                for &x in values {
                    buf.extend_from_slice(&x.to_be_bytes());
                }
            }
        }
        let checksum = crc32(&buf);
        buf.extend_from_slice(&checksum.to_be_bytes());
        buf
    }

    fn chunk_of(labels: Vec<f64>, layout: SlabLayout) -> FeatureChunk {
        let slab = Arc::new(ColumnSlab::from_parts(labels, layout));
        FeatureChunk::from_slab(Timestamp(7), Timestamp(5), slab)
    }

    /// Floats whose bit pattern a careless codec loses: both zeros, quiet and
    /// signalling NaNs with payloads, subnormals, infinities — or any word.
    fn awkward_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::MIN_POSITIVE / 4.0),
            (1u64..1 << 51).prop_map(|p| f64::from_bits(0x7FF8_0000_0000_0000 | p)),
            (1u64..1 << 51).prop_map(|p| f64::from_bits(0xFFF0_0000_0000_0000 | p)),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (0u64..u64::MAX).prop_map(f64::from_bits),
            -1e3..1e3f64,
        ]
    }

    /// A CSR chunk of 0–5 rows (empty ones included) at dim 1, 2, 9 or 2^16.
    fn csr_chunk() -> impl Strategy<Value = FeatureChunk> {
        let dim = prop_oneof![Just(1usize), Just(2usize), Just(9usize), Just(1usize << 16)];
        let row = prop::collection::vec((0u32..=u32::MAX, awkward_f64()), 0..6);
        (dim, prop::collection::vec((awkward_f64(), row), 0..6)).prop_map(|(dim, rows)| {
            let mut labels = Vec::new();
            let (mut row_ptr, mut indices, mut values) = (vec![0u32], Vec::new(), Vec::new());
            for (label, entries) in rows {
                labels.push(label);
                let mut entries: Vec<_> = entries
                    .into_iter()
                    .map(|(i, x)| (i % dim as u32, x))
                    .collect();
                entries.sort_by_key(|e| e.0);
                entries.dedup_by_key(|e| e.0);
                for (i, x) in entries {
                    indices.push(i);
                    values.push(x);
                }
                row_ptr.push(indices.len() as u32);
            }
            let layout = SlabLayout::Csr {
                dim,
                row_ptr,
                indices,
                values,
            };
            chunk_of(labels, layout)
        })
    }

    /// A dense chunk of 0–4 rows by 0–5 columns.
    fn dense_chunk() -> impl Strategy<Value = FeatureChunk> {
        (
            0usize..5,
            0usize..6,
            prop::collection::vec(awkward_f64(), 40),
        )
            .prop_map(|(n, dim, pool)| {
                let cols = (0..dim).map(|j| pool[5 + j * n..][..n].to_vec()).collect();
                chunk_of(pool[..n].to_vec(), SlabLayout::Dense { dim, cols })
            })
    }

    /// Equality on bit patterns: `FeatureChunk`'s own `==` compares floats,
    /// under which a NaN never equals itself and `-0.0` equals `0.0`.
    fn assert_same_bits(a: &FeatureChunk, b: &FeatureChunk) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((a.timestamp, a.raw_ref), (b.timestamp, b.raw_ref));
        assert_eq!(bits(a.slab().labels()), bits(b.slab().labels()));
        match (a.slab().layout(), b.slab().layout()) {
            (SlabLayout::Dense { dim, cols }, SlabLayout::Dense { dim: d, cols: c }) => {
                assert_eq!(dim, d);
                assert_eq!(cols.len(), c.len());
                for (x, y) in cols.iter().zip(c) {
                    assert_eq!(bits(x), bits(y));
                }
            }
            (
                SlabLayout::Csr {
                    dim,
                    row_ptr,
                    indices,
                    values,
                },
                SlabLayout::Csr {
                    dim: d,
                    row_ptr: r,
                    indices: i,
                    values: v,
                },
            ) => {
                assert_eq!((dim, row_ptr, indices), (d, r, i));
                assert_eq!(bits(values), bits(v));
            }
            (x, y) => panic!("layouts differ: {x:?} / {y:?}"),
        }
    }

    /// The whole contract on one chunk: the parent's bytes, a bit-exact
    /// round trip, and a typed error — never a panic, never a chunk — for
    /// the buffer cut at every length or with any one byte changed.
    fn assert_codec_contract(chunk: &FeatureChunk, mask: u8) {
        let encoded = encode_chunk(chunk);
        assert_eq!(&encoded[..], &encode_chunk_reference(chunk)[..]);
        assert_same_bits(&ok(decode_chunk(&encoded)), chunk);
        for cut in 0..encoded.len() {
            assert!(
                matches!(decode_chunk(&encoded[..cut]), Err(StorageError::Corrupt(_))),
                "cut at {cut} of {}",
                encoded.len()
            );
        }
        let mut damaged = encoded.to_vec();
        for i in 0..damaged.len() {
            damaged[i] ^= mask;
            assert!(
                matches!(decode_chunk(&damaged), Err(StorageError::Corrupt(_))),
                "byte {i} ^ {mask:#04x} must be detected"
            );
            damaged[i] ^= mask;
        }
    }

    proptest! {
        #[test]
        fn spill_codec_csr_matches_reference_round_trips_and_rejects_damage(
            chunk in csr_chunk(),
            mask in 1u8..=255,
        ) {
            assert_codec_contract(&chunk, mask);
        }

        #[test]
        fn spill_codec_dense_matches_reference_round_trips_and_rejects_damage(
            chunk in dense_chunk(),
            mask in 1u8..=255,
        ) {
            assert_codec_contract(&chunk, mask);
        }
    }

    #[test]
    fn spill_codec_layout_chunks_match_the_reference_bytes() {
        // Dense, CSR, CSR from mixed rows and the empty chunk.
        for chunk in layout_chunks() {
            assert_eq!(
                &encode_chunk(&chunk)[..],
                &encode_chunk_reference(&chunk)[..]
            );
        }
    }

    #[test]
    fn spill_codec_rejects_a_checksummed_csr_that_breaks_an_invariant() {
        // The checksum vouches for the bytes, not for their meaning: a
        // well-checksummed buffer whose pointers or indices row access would
        // trip over must still be refused. Two rows at dim 4, entries
        // (0, 1.0) and (3, 1.0); the words patched are the three row
        // pointers at byte 47 and the two indices at byte 63.
        let layout = SlabLayout::Csr {
            dim: 4,
            row_ptr: vec![0, 1, 2],
            indices: vec![0, 3],
            values: vec![1.0; 2],
        };
        let good = encode_chunk(&chunk_of(vec![0.0; 2], layout)).to_vec();
        let patched = |row_ptr: [u32; 3], indices: [u32; 2]| {
            let mut bytes = good.clone();
            let body = bytes.len() - 4;
            for (at, word) in (47..).step_by(4).zip(row_ptr) {
                bytes[at..at + 4].copy_from_slice(&word.to_be_bytes());
            }
            for (at, word) in (63..).step_by(4).zip(indices) {
                bytes[at..at + 4].copy_from_slice(&word.to_be_bytes());
            }
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_be_bytes());
            bytes
        };
        assert_eq!(patched([0, 1, 2], [0, 3]), good);
        for (what, bad) in [
            ("not rebased", patched([1, 1, 2], [0, 3])),
            ("not monotone", patched([0, 2, 1], [0, 3])),
            ("not covering", patched([0, 1, 1], [0, 3])),
            ("unsorted row", patched([0, 2, 2], [3, 0])),
            ("repeated index", patched([0, 2, 2], [3, 3])),
            ("index past dim", patched([0, 1, 2], [0, 4])),
        ] {
            assert!(
                matches!(decode_chunk(&bad), Err(StorageError::Corrupt(_))),
                "{what}"
            );
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cdpf-{tag}-{}", std::process::id()))
    }

    fn at(ts: u64) -> FeatureChunk {
        let mut chunk = sample_chunk();
        chunk.timestamp = Timestamp(ts);
        chunk.raw_ref = Timestamp(ts);
        chunk
    }

    const NO_BACKOFF: RetryPolicy = RetryPolicy {
        max_retries: 3,
        base_backoff: std::time::Duration::ZERO,
    };

    #[test]
    fn spill_log_write_read_overwrite_over_all_layouts() {
        let dir = tmp_dir("log");
        let mut tier = ok(DiskTier::open(&dir));
        let chunks = layout_chunks();
        let mut written = 0u64;
        for chunk in &chunks {
            ok(tier.write(chunk));
            written += encode_chunk(chunk).len() as u64;
        }
        assert_eq!(tier.bytes_written(), written);
        // Reads come back in any order, each exactly its own bytes.
        for chunk in chunks.iter().rev() {
            assert_eq!(&some(ok(tier.read(chunk.timestamp))), chunk);
        }
        assert_eq!(tier.bytes_read(), written);
        assert!(ok(tier.read(Timestamp(99))).is_none());
        // An overwrite is a newer index entry: the new version is served,
        // the neighbours are untouched, and the directory holds one file.
        let newer = dense_cols(1, vec![7.0], vec![vec![9.0]; 3]);
        ok(tier.write(&newer));
        assert_eq!(some(ok(tier.read(Timestamp(1)))), newer);
        assert_eq!(some(ok(tier.read(Timestamp(2)))), chunks[1]);
        let names: Vec<_> = ok(std::fs::read_dir(&dir))
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![LOG_FILE.to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_log_reopened_directory_starts_empty() {
        let dir = tmp_dir("reopen");
        let mut first = ok(DiskTier::open(&dir));
        ok(first.write(&sample_chunk()));
        drop(first);
        let mut second = ok(DiskTier::open(&dir));
        assert!(ok(second.read(Timestamp(42))).is_none());
        assert_eq!(ok(std::fs::metadata(dir.join(LOG_FILE))).len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_log_damage_is_a_typed_error_and_spares_the_rest() {
        let dir = tmp_dir("damage");
        let mut tier = ok(DiskTier::open_with_hook(
            &dir,
            Arc::new(NoFaults),
            NO_BACKOFF,
        ));
        for t in 0..3 {
            ok(tier.write(&at(t)));
        }
        let len = encode_chunk(&at(0)).len() as u64;
        let log = ok(std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(LOG_FILE)));
        // Flip one byte inside chunk 1's region: its CRC catches it on
        // every retry, the neighbours still read.
        ok(log.write_all_at(&[0xFF], len + 30));
        assert!(matches!(
            tier.read(Timestamp(1)),
            Err(StorageError::Corrupt(_))
        ));
        assert_eq!(some(ok(tier.read(Timestamp(0)))), at(0));
        assert_eq!(some(ok(tier.read(Timestamp(2)))), at(2));
        // Truncate into chunk 2's region: a short read, not a wrong chunk.
        ok(log.set_len(2 * len + 10));
        assert!(matches!(tier.read(Timestamp(2)), Err(StorageError::Io(_))));
        assert_eq!(some(ok(tier.read(Timestamp(0)))), at(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_log_failed_append_leaves_index_and_earlier_chunks_readable() {
        // Chunk 1 is written twice; the second write fails on every attempt
        // (write faults only start once the hook is swapped in), so the
        // index must keep serving the first version and everything else.
        let dir = tmp_dir("failed-append");
        let mut tier = ok(DiskTier::open_with_hook(
            &dir,
            Arc::new(NoFaults),
            NO_BACKOFF,
        ));
        ok(tier.write(&at(0)));
        ok(tier.write(&at(1)));
        let written = tier.bytes_written();
        let dead = Arc::new(FaultInjector::new(FaultPlan {
            seed: 13,
            disk_write_error: 1.0,
            ..FaultPlan::none()
        }));
        tier.set_hook(Arc::clone(&dead) as _);
        let mut newer = at(1);
        newer.raw_ref = Timestamp(0);
        assert!(matches!(tier.write(&newer), Err(StorageError::Io(_))));
        assert!(tier.write(&at(2)).is_err());
        assert_eq!(tier.bytes_written(), written);
        assert_eq!(
            dead.snapshot().retries,
            2 * u64::from(NO_BACKOFF.max_retries)
        );
        tier.set_hook(Arc::new(NoFaults));
        assert_eq!(some(ok(tier.read(Timestamp(0)))), at(0));
        assert_eq!(some(ok(tier.read(Timestamp(1)))), at(1));
        assert!(ok(tier.read(Timestamp(2))).is_none());
        // The log keeps appending where the last good write ended.
        ok(tier.write(&at(2)));
        assert_eq!(some(ok(tier.read(Timestamp(2)))), at(2));
        assert_eq!(
            ok(std::fs::metadata(dir.join(LOG_FILE))).len(),
            tier.bytes_written()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_faults_are_retried_and_counted() {
        let dir = tmp_dir("retry");
        let hook = Arc::new(FaultInjector::new(FaultPlan {
            seed: 11,
            disk_read_error: 0.4,
            read_corruption: 0.2,
            ..FaultPlan::none()
        }));
        let mut tier = ok(DiskTier::open_with_hook(
            &dir,
            Arc::clone(&hook) as _,
            NO_BACKOFF,
        ));
        for t in 0..40u64 {
            ok(tier.write(&at(t)));
        }
        let mut recovered_reads = 0u64;
        for t in 0..40u64 {
            // p(fail)+p(corrupt)=0.6 per attempt ⇒ a few chunks may exhaust
            // all 4 attempts; that is the fallback-rematerialization case the
            // tiered store handles, so tolerate it here.
            if let Ok(chunk) = tier.read(Timestamp(t)) {
                assert_eq!(some(chunk).timestamp, Timestamp(t));
                recovered_reads += 1;
            }
        }
        assert!(recovered_reads > 0, "most reads must succeed via retry");
        let stats = hook.snapshot();
        assert!(stats.injected_disk_read + stats.injected_corruption > 0);
        assert!(stats.retries > 0);
        assert!(stats.recovered > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_faults_recover_within_budget() {
        let dir = tmp_dir("wretry");
        let hook = Arc::new(FaultInjector::new(FaultPlan {
            seed: 5,
            disk_write_error: 0.3,
            ..FaultPlan::none()
        }));
        let mut tier = ok(DiskTier::open_with_hook(
            &dir,
            Arc::clone(&hook) as _,
            NO_BACKOFF,
        ));
        let mut written = 0u64;
        for t in 0..40u64 {
            if tier.write(&at(t)).is_ok() {
                written += 1;
            }
        }
        assert!(
            written >= 35,
            "p=0.3 needs 4 consecutive hits to lose a write"
        );
        assert!(hook.snapshot().injected_disk_write > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_same_read_outcomes() {
        let run = |dir_tag: &str| -> Vec<bool> {
            let dir = tmp_dir(&format!("det-{dir_tag}"));
            let hook = Arc::new(FaultInjector::new(FaultPlan {
                seed: 77,
                disk_read_error: 0.5,
                ..FaultPlan::none()
            }));
            let no_backoff = RetryPolicy {
                max_retries: 1,
                base_backoff: std::time::Duration::ZERO,
            };
            let mut tier = ok(DiskTier::open_with_hook(&dir, hook as _, no_backoff));
            let mut outcomes = Vec::new();
            for t in 0..30u64 {
                ok(tier.write(&at(t)));
                outcomes.push(tier.read(Timestamp(t)).is_ok());
            }
            let _ = std::fs::remove_dir_all(&dir);
            outcomes
        };
        assert_eq!(run("a"), run("b"));
    }
}
