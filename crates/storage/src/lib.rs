//! Data model and storage layer — the paper's **data manager** substrate.
//!
//! The platform discretizes the incoming training stream into timestamped
//! **raw data chunks** ([`RawChunk`]), transforms them through the deployed
//! pipeline into **feature chunks** ([`FeatureChunk`]), and stores both in a
//! [`ChunkStore`]. The store enforces a budget on materialized feature chunks
//! (count- or byte-based): when the budget is exceeded it evicts the *oldest*
//! feature chunks, keeping only the reference to the originating raw chunk —
//! exactly the paper's **dynamic materialization** scheme (§3.2). A later
//! lookup of an evicted chunk reports [`FeatureLookup::Evicted`], signalling
//! the pipeline manager to re-materialize it by re-applying the pipeline's
//! `transform` path.
//!
//! The paper stored chunks in HDFS and cached features as Spark RDDs; here an
//! in-memory [`store::ChunkStore`] plus an optional binary [`disk::DiskTier`]
//! play those roles (see DESIGN.md §2 for the substitution argument).
//!
//! The durable formats — deployment checkpoints
//! ([`checkpoint::CheckpointDir`]) and WAL segments ([`wal`]) — are built on
//! the one durable-file layer, `cdp_obs::durable`, which the flight recorder
//! uses too: a `magic | version` header checked by one function, CRC-32
//! checksums, numbered files published atomically (temp file + fsync +
//! rename + directory fsync). Encoded spill chunks are sealed in the same
//! envelope, but the spill tier is a process-private cache that is never
//! fsynced ([`disk`]). All three surface an incompatible version as the
//! typed [`StorageError::VersionMismatch`] instead of a generic decode
//! error (the `From<durable::Error>` below).

#![warn(missing_docs)]

use cdp_obs::durable;

pub mod checkpoint;
pub mod chunk;
pub mod columnar;
pub mod disk;
pub mod record;
pub mod store;
pub mod tiered;
pub mod wal;

pub use checkpoint::{CheckpointDir, CHECKPOINT_SCHEMA};
pub use chunk::{FeatureChunk, LabeledPoint, RawChunk, Timestamp};
pub use columnar::{ColumnSlab, CsrBuilder, RowView, SlabLayout};
pub use record::{Record, Schema, Value};
pub use store::{ChunkStore, FeatureLookup, StorageBudget, StoreStats};
pub use tiered::{TieredLookup, TieredStats, TieredStore};
pub use wal::{WalDir, WalOptions, WalRecovery, WalStats, WalWriter};

/// Version stamp embedded in every on-disk format's header.
///
/// A reader that encounters a file written with a different schema version
/// reports [`StorageError::VersionMismatch`] rather than misinterpreting the
/// payload or burying the incompatibility in a corruption error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SchemaVersion(pub u16);

impl std::fmt::Display for SchemaVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Schema of encoded spill chunks (columnar payload, CRC-32 trailer). A
/// spill log never outlives its process, so readers know this version only.
pub const SPILL_SCHEMA: SchemaVersion = SchemaVersion(3);

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// A chunk with the same timestamp was already stored.
    DuplicateTimestamp(Timestamp),
    /// A feature chunk referenced a raw chunk that is not in the store.
    DanglingRawReference(Timestamp),
    /// An I/O failure in the disk tier.
    Io(std::io::Error),
    /// The disk tier found a corrupt or truncated chunk file.
    Corrupt(String),
    /// No tier holds the chunk: features gone and raw data gone too.
    MissingChunk(Timestamp),
    /// A structurally intact file was written with an incompatible schema
    /// version — not corruption, but data this build cannot interpret.
    VersionMismatch {
        /// Version found in the file header.
        found: u16,
        /// Version this build reads and writes.
        expected: u16,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::DuplicateTimestamp(ts) => {
                write!(f, "duplicate chunk timestamp {}", ts.0)
            }
            StorageError::DanglingRawReference(ts) => {
                write!(f, "feature chunk references missing raw chunk {}", ts.0)
            }
            StorageError::Io(e) => write!(f, "disk tier I/O error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt chunk file: {msg}"),
            StorageError::MissingChunk(ts) => {
                write!(f, "chunk {} is absent from every storage tier", ts.0)
            }
            StorageError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "schema version mismatch: file is v{found}, this build reads v{expected}"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// A foreign schema version stays a typed mismatch; every other decode
/// failure (short, foreign magic, checksum, truncated, …) is corruption.
impl From<durable::Error> for StorageError {
    fn from(e: durable::Error) -> Self {
        match e {
            durable::Error::Version { found, expected } => {
                StorageError::VersionMismatch { found, expected }
            }
            other => StorageError::Corrupt(other.to_string()),
        }
    }
}
