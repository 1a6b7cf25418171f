//! The one durable-file layer: what checkpoint files, WAL segments, flight
//! recorder segments and spill chunks share, written once (DESIGN.md §12).
//!
//! 1. **The envelope** ([`Format`]): `magic [u8; 4] | version u16 | payload |
//!    crc32 u32 over everything before it`. [`Format::unseal`] checks length
//!    → magic → CRC → version, so a torn or bit-rotted file is never taken
//!    for another version, and an intact file of another version is always
//!    [`Error::Version`]. A WAL segment is the header alone, followed by
//!    frames with their own CRC ([`Format::header`], [`Format::check_header`]).
//! 2. **The numbered directory** ([`NumberedDir`]): files
//!    `{prefix}-{seq:012}.{ext}`, listed ascending, published atomically
//!    (`{prefix}-{seq:012}.tmp` → write → fsync → rename → directory fsync),
//!    pruned oldest first, scanned newest first for valid ones. One
//!    directory-fsync rule: a directory that cannot be opened (no directory
//!    handles on this platform) skips it; a failed fsync is an error, and the
//!    caller must not treat the file as durable.
//! 3. **The big-endian writer and reader** (`put_*`, [`Reader`]): integers
//!    fixed-width, floats as `to_bits`, strings and blobs as `u32` length +
//!    bytes. Every read is bounds-checked, and a count is checked against the
//!    bytes left before anyone sizes a buffer from it: a hostile length field
//!    is an [`Error::Truncated`], never an allocation.
//! 4. **The background syncer** ([`Syncer`]): an owner's one durable job in
//!    flight, joined by its next durable operation, where its error surfaces.
//! 5. **The crash seam** ([`CrashPoint`]): where a run's crash countdown
//!    meets its durable operations, and the one rule for what a kill tears.
//!
//! It lives in `cdp-obs` for the reason [`crate::crc32`] does: the lowest
//! crate the recorder (here) and `cdp-storage` both reach. std only.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use crate::crc::crc32;

/// Bytes of `magic | version` in front of every payload.
pub const HEADER_LEN: usize = 6;

/// Why bytes did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Shorter than the envelope.
    TooShort,
    /// Not this format's magic.
    BadMagic,
    /// The CRC-32 trailer disagrees with the bytes: torn or corrupt.
    Checksum {
        /// Trailer as stored.
        stored: u32,
        /// CRC-32 of the bytes before it.
        computed: u32,
    },
    /// An intact file of a schema version this build does not read.
    Version {
        /// Version in the header.
        found: u16,
        /// The one version this build reads.
        expected: u16,
    },
    /// A field, or the elements a count announces, ran past the end.
    Truncated,
    /// A string field that is not UTF-8.
    NotUtf8,
    /// Bytes left over after the last field.
    Trailing(usize),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TooShort => write!(f, "shorter than its envelope"),
            Error::BadMagic => write!(f, "bad magic"),
            Error::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Error::Version { found, expected } => {
                write!(f, "schema version {found}, this build reads {expected}")
            }
            Error::Truncated => write!(f, "payload truncated"),
            Error::NotUtf8 => write!(f, "string field is not UTF-8"),
            Error::Trailing(n) => write!(f, "{n} trailing payload bytes"),
        }
    }
}

impl std::error::Error for Error {}

/// One durable format: its magic and the one schema version this build
/// writes and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// First four bytes of every file.
    pub magic: [u8; 4],
    /// Schema version, big-endian after the magic.
    pub version: u16,
}

impl Format {
    /// `magic | version`.
    pub fn header(self) -> [u8; HEADER_LEN] {
        let [a, b, c, d] = self.magic;
        let [v0, v1] = self.version.to_be_bytes();
        [a, b, c, d, v0, v1]
    }

    /// The bytes after a valid header, checked length → magic → version.
    ///
    /// # Errors
    /// [`Error::TooShort`], [`Error::BadMagic`] or [`Error::Version`].
    pub fn check_header(self, bytes: &[u8]) -> Result<&[u8], Error> {
        let (header, rest) = bytes.split_first_chunk().ok_or(Error::TooShort)?;
        let [a, b, c, d, v0, v1] = *header;
        if [a, b, c, d] != self.magic {
            return Err(Error::BadMagic);
        }
        match u16::from_be_bytes([v0, v1]) {
            found if found == self.version => Ok(rest),
            found => Err(Error::Version {
                found,
                expected: self.version,
            }),
        }
    }

    /// A sealed file: header, the payload `encode` appends, CRC-32 trailer,
    /// in one buffer sized for a `capacity`-byte payload.
    pub fn seal(self, capacity: usize, encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + capacity + 4);
        buf.extend_from_slice(&self.header());
        encode(&mut buf);
        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf
    }

    /// The payload of a sealed file, checked length → magic → CRC → version.
    ///
    /// # Errors
    /// [`Error::TooShort`], [`Error::BadMagic`], [`Error::Checksum`] or
    /// [`Error::Version`].
    pub fn unseal(self, bytes: &[u8]) -> Result<&[u8], Error> {
        let (body, trailer) = bytes.split_last_chunk::<4>().ok_or(Error::TooShort)?;
        if body.len() < HEADER_LEN {
            return Err(Error::TooShort);
        }
        if body[..4] != self.magic {
            return Err(Error::BadMagic);
        }
        let (stored, computed) = (u32::from_be_bytes(*trailer), crc32(body));
        if stored != computed {
            return Err(Error::Checksum { stored, computed });
        }
        self.check_header(body)
    }
}

/// A directory of numbered files `{prefix}-{seq:012}.{ext}`.
#[derive(Debug, Clone)]
pub struct NumberedDir {
    dir: PathBuf,
    prefix: &'static str,
    ext: &'static str,
}

impl NumberedDir {
    /// Opens (creating if needed) the directory `dir` of `prefix`/`ext` files.
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn open(
        dir: impl Into<PathBuf>,
        prefix: &'static str,
        ext: &'static str,
    ) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, prefix, ext })
    }

    /// Where file `seq` lives.
    pub fn path(&self, seq: u64) -> PathBuf {
        (self.dir).join(format!("{}-{seq:012}.{}", self.prefix, self.ext))
    }

    /// Sequence numbers of the files present, in numeric order whatever the
    /// directory's. Temp files and foreign names are not listed.
    ///
    /// # Errors
    /// I/O errors reading the directory.
    pub fn list(&self) -> io::Result<Vec<u64>> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let seq = name.to_str().and_then(|name| {
                let (stem, ext) = name.strip_prefix(self.prefix)?.rsplit_once('.')?;
                let digits = stem.strip_prefix('-').filter(|_| ext == self.ext)?;
                digits.parse::<u64>().ok()
            });
            seqs.extend(seq);
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Makes `bytes` file `seq` atomically and returns its path. A kill at
    /// any point leaves either the whole file or at most a temp file
    /// [`NumberedDir::list`] does not see.
    ///
    /// # Errors
    /// I/O errors at any step, the directory fsync included.
    pub fn publish(&self, seq: u64, bytes: &[u8]) -> io::Result<PathBuf> {
        let (tmp, path) = (self.tmp_path(seq), self.path(seq));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // The one directory-fsync rule (module docs).
        if let Ok(dir) = File::open(&self.dir) {
            dir.sync_all()?;
        }
        Ok(path)
    }

    fn tmp_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{}-{seq:012}.tmp", self.prefix))
    }

    /// Removes file `seq`, returning whether this call removed it; one
    /// already gone is not an error.
    ///
    /// # Errors
    /// I/O errors other than "not found".
    pub fn remove(&self, seq: u64) -> io::Result<bool> {
        match fs::remove_file(self.path(seq)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Removes files oldest first until `keep` (at least 1) remain, never
    /// the newest (recovery's first candidate) and never `pinned` (a caller's
    /// recovery depends on exactly that one, so it outlives `keep`).
    ///
    /// # Errors
    /// I/O errors listing or removing.
    pub fn prune(&self, keep: usize, pinned: Option<u64>) -> io::Result<()> {
        let mut seqs = self.list()?;
        let mut i = 0;
        while seqs.len() > keep.max(1) && i + 1 < seqs.len() {
            if Some(seqs[i]) == pinned {
                i += 1;
                continue;
            }
            self.remove(seqs.remove(i))?;
        }
        Ok(())
    }

    /// Reads the files newest first and keeps what `decode` accepts, until
    /// `max` are kept. A file that cannot be read or decoded is passed over
    /// and counted in the second value, never fatal: recovery falls back to
    /// its predecessor.
    ///
    /// # Errors
    /// I/O errors listing the directory.
    pub fn newest_valid<T, E>(
        &self,
        max: usize,
        mut decode: impl FnMut(u64, &[u8]) -> Result<T, E>,
    ) -> io::Result<(Vec<T>, usize)> {
        let (mut valid, mut skipped) = (Vec::new(), 0);
        for seq in self.list()?.into_iter().rev() {
            if valid.len() >= max {
                break;
            }
            match fs::read(self.path(seq)).map(|bytes| decode(seq, &bytes)) {
                Ok(Ok(value)) => valid.push(value),
                _ => skipped += 1,
            }
        }
        Ok((valid, skipped))
    }
}

/// A run's crash countdown as the durable layer sees it, asked before each
/// durable operation whether the run dies there; the default never kills.
/// An owner consults it on its own thread, in program order, with no job of
/// its own in flight, before the operation writes a byte or starts a
/// [`Syncer`] job, so the k-th consult is the run's k-th durable operation.
/// The one tear rule: a killed publish leaves a temp file holding the first
/// half of its bytes, never renamed; a killed append writes the first half
/// of its bytes, unsynced; either returns the [`Killed`] marker. (A kill
/// between two operations destroys only memory: it leaves the files a kill
/// at the start of the next one leaves, so it needs no consult.)
#[derive(Clone, Default)]
pub struct CrashPoint(Option<Arc<dyn Fn() -> bool + Send + Sync>>);

impl fmt::Debug for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CrashPoint({})", self.0.is_some())
    }
}

impl CrashPoint {
    /// The countdown `dies`, true at the operation the run dies at.
    pub fn new(dies: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        Self(Some(Arc::new(dies)))
    }

    /// Consults the countdown before `bytes` are appended to `file`.
    ///
    /// # Errors
    /// [`Killed`] after the tear, or the error writing it.
    pub fn before_append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        self.tear(bytes, |half| file.write_all(half))
    }

    /// Consults the countdown before `bytes` are published as file `seq` of
    /// `files`; the tear is the `.tmp` file [`NumberedDir::list`] skips.
    ///
    /// # Errors
    /// [`Killed`] after the tear, or the error writing it.
    pub fn before_publish(&self, files: &NumberedDir, seq: u64, bytes: &[u8]) -> io::Result<()> {
        self.tear(bytes, |half| {
            File::create(files.tmp_path(seq))?.write_all(half)
        })
    }

    fn tear(&self, bytes: &[u8], write: impl FnOnce(&[u8]) -> io::Result<()>) -> io::Result<()> {
        match &self.0 {
            Some(dies) if dies() => {
                write(&bytes[..bytes.len() / 2])?;
                Err(io::Error::other(Killed))
            }
            _ => Ok(()),
        }
    }
}

/// The marker error of an operation [`CrashPoint`] killed.
#[derive(Debug)]
pub struct Killed;

impl Killed {
    /// Whether `e` is a kill's marker rather than an I/O failure.
    pub fn is(e: &io::Error) -> bool {
        e.get_ref().is_some_and(|inner| inner.is::<Killed>())
    }
}

impl fmt::Display for Killed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("killed at a durable operation")
    }
}

impl std::error::Error for Killed {}

/// At most one background durable job of an owner: `start` joins the job
/// before it, `join` returns its value, and dropping joins and discards it. A
/// panicked job is an I/O error; one no thread can be spawned for runs inline.
#[derive(Debug, Default)]
pub struct Syncer<T: Send + 'static> {
    job: Option<Result<JoinHandle<io::Result<T>>, io::Result<T>>>,
}

impl<T: Send + 'static> Syncer<T> {
    /// Joins the job in flight and, unless it failed, starts `job`.
    ///
    /// # Errors
    /// The joined job's error.
    pub fn start<F>(&mut self, job: F) -> io::Result<()>
    where
        F: FnOnce() -> io::Result<T> + Send + 'static,
    {
        self.join()?;
        // Handed over once its thread exists, so a failed spawn runs it here.
        let (send, receive) = mpsc::sync_channel::<F>(1);
        let spawned =
            thread::Builder::new().spawn(move || receive.recv().map_err(io::Error::other)?());
        self.job = Some(match spawned {
            Ok(handle) => send
                .send(job)
                .map(|()| handle)
                .map_err(|mpsc::SendError(job)| job()),
            Err(_) => Err(job()),
        });
        Ok(())
    }

    /// The job in flight's value, once it is done; `None` if there is none.
    ///
    /// # Errors
    /// The job's error, or one standing for its panic.
    pub fn join(&mut self) -> io::Result<Option<T>> {
        let done = match self.job.take() {
            None => return Ok(None),
            Some(Err(inline)) => inline,
            Some(Ok(handle)) => {
                (handle.join()).unwrap_or_else(|_| Err(io::Error::other("durable job panicked")))
            }
        };
        done.map(Some)
    }
}

impl<T: Send + 'static> Drop for Syncer<T> {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// Appends `v` big-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v`'s bit pattern big-endian: a round trip is bit-exact.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends `u32` length + `bytes`.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends `u32` length + UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends `u32` count + each value.
pub fn put_f64_vec(out: &mut Vec<u8>, values: &[f64]) {
    put_u32(out, values.len() as u32);
    values.iter().for_each(|&v| put_f64(out, v));
}

/// Appends `u32` count + each value.
pub fn put_u64_vec(out: &mut Vec<u8>, values: &[u64]) {
    put_u32(out, values.len() as u32);
    values.iter().for_each(|&v| put_u64(out, v));
}

/// A bounds-checked big-endian cursor over a payload. Every read past the
/// end is an [`Error::Truncated`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(Error::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_be_bytes)
    }

    /// An `f64` from its big-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32` element count no larger than the bytes left: every element of
    /// every format takes at least one byte, so a larger count is a
    /// truncation found before anyone sizes a buffer from it.
    #[inline]
    pub fn count(&mut self) -> Result<usize, Error> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(Error::Truncated);
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed byte string, borrowed from the payload.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.count()?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// A `u32`-length-prefixed UTF-8 string; [`Error::NotUtf8`] if it is not.
    #[inline]
    pub fn string(&mut self) -> Result<String, Error> {
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| Error::NotUtf8)
    }

    /// A `u32` count + that many `f64`s.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, Error> {
        let n = self.count()?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// A `u32` count + that many `u64`s.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, Error> {
        let n = self.count()?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Ends the payload; [`Error::Trailing`] when bytes are left.
    pub fn finish(self) -> Result<(), Error> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(Error::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    use proptest::prelude::*;

    use super::*;

    /// The four formats as their owners declare them: checkpoint file,
    /// recorder segment, spill chunk, WAL segment header.
    const FORMATS: [Format; 4] = [
        Format {
            magic: *b"CDPC",
            version: 3,
        },
        Format {
            magic: *b"CDPT",
            version: 1,
        },
        Format {
            magic: *b"CDPF",
            version: 3,
        },
        Format {
            magic: *b"CDPW",
            version: 1,
        },
    ];

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cdp-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The envelope every format built by hand before this module
    /// (`CheckpointDir::encode`'s body, the magic and version made
    /// parameters): the byte oracle.
    fn reference_seal(format: Format, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(payload.len() + 10);
        buf.extend_from_slice(&format.magic);
        buf.extend_from_slice(&format.version.to_be_bytes());
        buf.extend_from_slice(payload);
        let checksum = crc32(&buf);
        buf.extend_from_slice(&checksum.to_be_bytes());
        buf
    }

    fn seal(format: Format, payload: &[u8]) -> Vec<u8> {
        format.seal(payload.len(), |buf| buf.extend_from_slice(payload))
    }

    proptest! {
        #[test]
        fn durable_envelope_round_trips_and_rejects_every_flip_cut_and_foreign_version(
            payload in prop::collection::vec(0u8..=255, 0..300),
            which in 0usize..4,
            mask in 1u8..=255,
        ) {
            let format = FORMATS[which];
            let sealed = seal(format, &payload);
            prop_assert_eq!(&sealed, &reference_seal(format, &payload));
            prop_assert_eq!(format.unseal(&sealed), Ok(&payload[..]));
            for cut in 0..sealed.len() {
                prop_assert!(format.unseal(&sealed[..cut]).is_err(), "cut at {cut}");
            }
            // A flip in the magic is a foreign file; anywhere else, the
            // version bytes included, the checksum catches it.
            let mut damaged = sealed.clone();
            for i in 0..damaged.len() {
                damaged[i] ^= mask;
                let outcome = format.unseal(&damaged);
                let expected = if i < 4 {
                    matches!(outcome, Err(Error::BadMagic))
                } else {
                    matches!(outcome, Err(Error::Checksum { .. }))
                };
                prop_assert!(expected, "byte {i} ^ {mask:#04x}: {outcome:?}");
                damaged[i] ^= mask;
            }
            for other in FORMATS.into_iter().filter(|f| f.magic != format.magic) {
                prop_assert_eq!(other.unseal(&sealed), Err(Error::BadMagic));
            }
            // Structurally intact, checksum valid, another schema: a version
            // error, never corruption.
            for found in [0, format.version + 1, u16::MAX] {
                let foreign = seal(Format { version: found, ..format }, &payload);
                prop_assert_eq!(
                    format.unseal(&foreign),
                    Err(Error::Version { found, expected: format.version })
                );
            }
        }
    }

    #[test]
    fn a_header_is_checked_length_magic_version() {
        let wal = FORMATS[3];
        let mut segment = wal.header().to_vec();
        segment.extend_from_slice(b"frames");
        assert_eq!(wal.check_header(&segment), Ok(&b"frames"[..]));
        assert_eq!(wal.check_header(&segment[..5]), Err(Error::TooShort));
        assert_eq!(FORMATS[0].check_header(&segment), Err(Error::BadMagic));
        segment[5] ^= 0x02;
        assert_eq!(
            wal.check_header(&segment),
            Err(Error::Version {
                found: 3,
                expected: 1
            })
        );
    }

    #[test]
    fn the_reader_reads_what_the_writer_wrote_and_nothing_more() {
        let mut out = Vec::new();
        out.push(7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_f64(&mut out, -0.0);
        put_str(&mut out, "día");
        put_bytes(&mut out, &[]);
        put_f64_vec(&mut out, &[f64::NAN, 1.5]);
        put_u64_vec(&mut out, &[u64::MAX]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.string().as_deref(), Ok("día"));
        assert_eq!(r.bytes(), Ok(&[][..]));
        let floats = r
            .f64_vec()
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        assert_eq!(floats, Ok(vec![f64::NAN.to_bits(), 1.5f64.to_bits()]));
        assert_eq!(r.u64_vec(), Ok(vec![u64::MAX]));
        assert_eq!(r.u8(), Err(Error::Truncated));
        assert_eq!(Reader::new(&out).finish(), Err(Error::Trailing(out.len())));
        assert_eq!(Reader::new(&[]).finish(), Ok(()));
        let mut bad = Vec::new();
        put_bytes(&mut bad, &[0xFF, 0xFE]);
        assert_eq!(Reader::new(&bad).string(), Err(Error::NotUtf8));
    }

    #[test]
    fn a_count_the_bytes_left_cannot_hold_is_a_truncation() {
        // u32::MAX elements in a 12-byte payload: refused before any buffer
        // is sized from it, by every reader that takes a count.
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        put_u64(&mut out, 1);
        assert_eq!(Reader::new(&out).count(), Err(Error::Truncated));
        assert_eq!(Reader::new(&out).f64_vec(), Err(Error::Truncated));
        assert_eq!(Reader::new(&out).u64_vec(), Err(Error::Truncated));
        assert_eq!(Reader::new(&out).bytes(), Err(Error::Truncated));
        // A count equal to the bytes left passes the check; the elements
        // still have to be there.
        let mut exact = Vec::new();
        put_u32(&mut exact, 8);
        put_u64(&mut exact, 1);
        assert_eq!(Reader::new(&exact).count(), Ok(8));
        assert_eq!(Reader::new(&exact).u64_vec(), Err(Error::Truncated));
    }

    /// What [`NumberedDir::prune`] keeps: the pinned file takes a slot of the
    /// budget when it is not the newest, and the newest always stays.
    fn model_prune(files: &BTreeSet<u64>, keep: usize, pinned: Option<u64>) -> BTreeSet<u64> {
        let Some(&newest) = files.last() else {
            return BTreeSet::new();
        };
        if files.len() <= keep {
            return files.clone();
        }
        let pin = pinned.filter(|p| files.contains(p) && *p != newest);
        let room = (keep - usize::from(pin.is_some())).max(1);
        let mut kept: BTreeSet<u64> = files
            .iter()
            .rev()
            .filter(|&&s| Some(s) != pin)
            .take(room)
            .copied()
            .collect();
        kept.extend(pin);
        kept
    }

    proptest! {
        #[test]
        fn durable_directory_publish_prune_scan_and_torn_publish_match_a_model(
            ops in prop::collection::vec((0u8..4, 0u64..10), 1..30),
            keep in 1usize..4,
        ) {
            let format = FORMATS[0];
            let dir = temp_dir("model");
            let files = NumberedDir::open(&dir, "ckpt", "cdpk").map_err(|e| e.to_string())?;
            // seq → whether the file unseals.
            let mut model: std::collections::BTreeMap<u64, bool> = Default::default();
            let mut pinned = None;
            for (op, seq) in ops {
                let sealed = seal(format, &seq.to_be_bytes());
                match op {
                    0 | 1 => {
                        let mut bytes = sealed;
                        if op == 1 {
                            bytes[7] ^= 0x10;
                        }
                        files.publish(seq, &bytes).map_err(|e| e.to_string())?;
                        files.prune(keep, pinned).map_err(|e| e.to_string())?;
                        model.insert(seq, op == 0);
                        let names: BTreeSet<u64> = model.keys().copied().collect();
                        let kept = model_prune(&names, keep, pinned);
                        model.retain(|s, _| kept.contains(s));
                    }
                    // A kill mid-publish: never listed, never scanned.
                    2 => {
                        let killed = CrashPoint::new(|| true).before_publish(&files, seq, &sealed);
                        prop_assert!(killed.is_err_and(|e| Killed::is(&e)));
                    }
                    _ => pinned = Some(seq),
                }
                let listed = files.list().map_err(|e| e.to_string())?;
                prop_assert_eq!(listed, model.keys().copied().collect::<Vec<_>>());
                let (valid, skipped) = files
                    .newest_valid(usize::MAX, |seq, bytes| {
                        format.unseal(bytes).map(|p| (seq, p.to_vec()))
                    })
                    .map_err(|e| e.to_string())?;
                let expected: Vec<(u64, Vec<u8>)> = model
                    .iter()
                    .rev()
                    .filter(|(_, ok)| **ok)
                    .map(|(s, _)| (*s, s.to_be_bytes().to_vec()))
                    .collect();
                prop_assert_eq!(skipped, model.len() - expected.len());
                prop_assert_eq!(valid, expected.clone());
                let (newest, _) = files
                    .newest_valid(1, |seq, bytes| format.unseal(bytes).map(|_| seq))
                    .map_err(|e| e.to_string())?;
                prop_assert_eq!(newest.first(), expected.first().map(|(s, _)| s));
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_syncer_runs_one_job_at_a_time_and_returns_every_outcome_once() {
        let mut syncer = Syncer::<u32>::default();
        let kind = |r: io::Result<Option<u32>>| r.map_err(|e| e.kind());
        assert_eq!(kind(syncer.join()), Ok(None));
        // Each start joins the job before it: the jobs run in order, even
        // when the first is the slowest.
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..4u32 {
            let log = std::sync::Arc::clone(&log);
            let job = move || {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                log.lock()
                    .map_err(|_| io::Error::other("poisoned"))?
                    .push(i);
                Ok(i)
            };
            syncer.start(job).unwrap();
        }
        assert_eq!(kind(syncer.join()), Ok(Some(3)));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(kind(syncer.join()), Ok(None));
        // A failed job's error comes back from the next start, which then
        // starts nothing.
        syncer.start(|| Err(io::Error::other("disk gone"))).unwrap();
        assert!(syncer.start(|| Ok(9)).is_err());
        assert_eq!(kind(syncer.join()), Ok(None));
        // A panicking job is an error, not a panic of the owner.
        syncer.start(|| panic!("job panicked")).unwrap();
        assert_eq!(kind(syncer.join()), Err(io::ErrorKind::Other));
        // Dropping joins a job still in flight.
        let done = std::sync::Arc::new(AtomicU64::new(0));
        let flag = std::sync::Arc::clone(&done);
        syncer
            .start(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                flag.store(1, Ordering::SeqCst);
                Ok(0)
            })
            .unwrap();
        drop(syncer);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn the_crash_seam_kills_at_the_kth_consult_and_tears_by_one_rule() {
        let dir = temp_dir("seam");
        let files = NumberedDir::open(&dir, "wal", "cdpw").unwrap();
        let mut file = File::create(dir.join("active")).unwrap();
        // Unarmed, a consult writes nothing and never kills.
        let none = CrashPoint::default();
        assert!(none.before_append(&mut file, b"group").is_ok());
        assert!(none.before_publish(&files, 0, b"header").is_ok());
        // Armed at k = 2: the third consult dies, whatever its kind.
        let seen = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&seen);
        let crash = CrashPoint::new(move || count.fetch_add(1, Ordering::Relaxed) == 2);
        assert!(crash.before_publish(&files, 1, b"header").is_ok());
        file.write_all(b"first group|").unwrap();
        assert!(crash.before_append(&mut file, b"next group").is_ok());
        let killed = crash.before_append(&mut file, b"torn group").unwrap_err();
        assert!(Killed::is(&killed), "{killed}");
        assert_eq!(fs::read(dir.join("active")).unwrap(), b"first group|torn ");
        // Past its k the countdown never fires again.
        assert!(crash.before_publish(&files, 2, b"header").is_ok());
        // A killed publish: half the bytes in a temp file nothing lists.
        let killed = CrashPoint::new(|| true)
            .before_publish(&files, 3, b"sealed")
            .unwrap_err();
        assert!(Killed::is(&killed));
        assert_eq!(fs::read(dir.join("wal-000000000003.tmp")).unwrap(), b"sea");
        assert_eq!(files.list().unwrap(), Vec::<u64>::new());
        assert_eq!(seen.load(Ordering::Relaxed), 4);
        // Only the marker is a kill.
        assert!(!Killed::is(&io::Error::other("disk gone")));
        assert!(!Killed::is(&io::Error::from(io::ErrorKind::NotFound)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_leaves_the_bytes_under_the_numbered_name_and_no_temp_file() {
        let dir = temp_dir("publish");
        let files = NumberedDir::open(&dir, "seg", "cdpt").unwrap();
        let path = files.publish(3, b"bytes").unwrap();
        assert_eq!(path, dir.join("seg-000000000003.cdpt"));
        assert_eq!(fs::read(&path).unwrap(), b"bytes");
        fs::write(dir.join("seg-000000000004.tmp"), b"half ").unwrap();
        fs::write(dir.join("seg-7.cdpt.bak"), b"").unwrap();
        fs::write(dir.join("ckpt-000000000005.cdpt"), b"").unwrap();
        assert_eq!(files.list().unwrap(), vec![3]);
        assert!(files.remove(3).unwrap());
        assert!(!files.remove(3).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }
}
