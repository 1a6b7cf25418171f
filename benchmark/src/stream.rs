//! The benchmark-owned input stream.
//!
//! Set-up generates the whole stream once, so the program under test
//! receives only generated inputs and data generation costs nothing inside
//! a timed run. `chunk(idx)` stamps the time of the call: the gap between
//! two consecutive stamps is the time one chunk took through everything
//! the deployment loop does between two arrivals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cdp_datagen::ChunkStream;
use cdp_storage::{RawChunk, Schema};

/// A fully generated stream that records when each deployment chunk was
/// pulled.
pub struct RecordedStream {
    schema: Arc<Schema>,
    chunks: Vec<RawChunk>,
    initial: usize,
    epoch: Instant,
    /// Nanoseconds since `epoch` at which chunk `i` was pulled (0 = never).
    stamps: Vec<AtomicU64>,
}

impl RecordedStream {
    /// Generates every chunk of `source`.
    pub fn generate(source: &dyn ChunkStream) -> Self {
        let total = source.total_chunks();
        Self {
            schema: source.schema(),
            chunks: (0..total).map(|i| source.chunk(i)).collect(),
            initial: source.initial_chunks(),
            epoch: Instant::now(),
            stamps: (0..total).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Rows in the deployment range.
    pub fn deployment_rows(&self) -> usize {
        self.chunks[self.initial..].iter().map(RawChunk::len).sum()
    }

    /// The generated chunks, initial prefix included.
    pub fn chunks(&self) -> &[RawChunk] {
        &self.chunks
    }

    /// Forgets the stamps of the previous run.
    pub fn reset_stamps(&self) {
        for stamp in &self.stamps {
            stamp.store(0, Ordering::Relaxed);
        }
    }

    /// The stamp `chunk` would write now: nanoseconds since `epoch`, plus one.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    /// A run that began at `start_ns` and returned at `end_ns`, cut at the
    /// pulls of its deployment chunks: milliseconds from the start to the
    /// first pull (the initial fit), between consecutive pulls (one chunk
    /// each), and from the last pull to the return (the last chunk and the
    /// shutdown). The parts add up to the run's wall time.
    pub fn segments_ms(&self, start_ns: u64, end_ns: u64) -> Vec<f64> {
        let pulls = self.stamps[self.initial..]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .take_while(|&s| s != 0);
        let marks: Vec<u64> = std::iter::once(start_ns)
            .chain(pulls)
            .chain(std::iter::once(end_ns))
            .collect();
        marks
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }
}

impl ChunkStream for RecordedStream {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn total_chunks(&self) -> usize {
        self.chunks.len()
    }

    fn initial_chunks(&self) -> usize {
        self.initial
    }

    fn chunk(&self, index: usize) -> RawChunk {
        // Relaxed: a statistic read only after the run has returned.
        self.stamps[index].store(self.now_ns(), Ordering::Relaxed);
        self.chunks[index].clone()
    }
}
