//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! Spans live in a `Vec` until the run ends. The recorder is used from one
//! thread, so the span that caused a new one is simply the innermost span
//! still open. A layer's self time is its span's duration minus the time its
//! direct children cover, so the self times of a span tree sum to the root's
//! duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = u32;

/// `chunk_idx` of a span that belongs to no chunk.
pub const NO_CHUNK: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-boundary name, e.g. `wal.append`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Stream index of the chunk being processed, the identifier all spans
    /// of one arrival share ([`NO_CHUNK`] outside the loop).
    pub chunk_idx: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Summed self time and per-call durations of one span name.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    /// Summed self time in seconds.
    pub busy_s: f64,
    /// Per-call durations (children included) in milliseconds.
    pub call_ms: Vec<f64>,
}

/// Append-only span buffer.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans still open, outermost first.
    open: Vec<SpanId>,
    /// Stamped on every span opened from now on.
    chunk_idx: u32,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            chunk_idx: NO_CHUNK,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the chunk index stamped on the spans opened from now on.
    pub fn set_chunk(&mut self, chunk_idx: u32) {
        self.chunk_idx = chunk_idx;
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as SpanId);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.iter().rev().nth(1).copied(),
            chunk_idx: self.chunk_idx,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// When no span is open.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close() without a matching open()");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Self time and call durations per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.busy_s += span.duration_ns().saturating_sub(children) as f64 / 1e9;
            layer.call_ms.push(span.duration_ns() as f64 / 1e6);
        }
        layers
    }

    /// The log as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// one complete (`"ph":"X"`) event per span, microsecond timestamps,
    /// with the parent span and chunk index under `args`.
    pub fn to_chrome_trace(&self, process_name: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for (id, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if span.chunk_idx != NO_CHUNK {
                let _ = write!(out, ",\"chunk\":{}", span.chunk_idx);
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}
