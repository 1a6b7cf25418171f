//! Causal tracing: hierarchical spans with explicit parent/child links.
//!
//! Where [`Metrics::span`](crate::Metrics::span) records *how long* an
//! operation took (into a histogram), a [`Tracer`] records *which* operation
//! caused which: every [`TraceSpan`] carries a [`SpanContext`] that child
//! spans — possibly on other threads of the worker pool — link back to. The
//! result is a forest of span trees ([`TraceSnapshot`]) that can be exported
//! for chrome://tracing or flamegraph rendering (see the `chrome` and
//! `flame` modules).
//!
//! Like `Metrics`, a `Tracer` is **no-op by default**: hot-path code takes
//! one unconditionally and the disabled handle reduces every operation to a
//! single `None` check (guarded by the `trace_overhead` bench). Time comes
//! from the same injectable [`Clock`], so deployment traces are
//! deterministic under a `VirtualClock`.
//!
//! ```
//! use cdp_obs::Tracer;
//!
//! let tracer = Tracer::collecting();
//! let root = tracer.root("deployment.run");
//! let ctx = root.context();
//! {
//!     let _child = tracer.child_of("engine.map", ctx);
//! } // child records on drop, before its parent
//! root.finish();
//!
//! let snap = tracer.snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! snap.validate().unwrap();
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, WallClock};
use crate::registry::lock_ignore_poison;

/// Upper bound on buffered span records; spans finishing past it are
/// counted in [`TraceSnapshot::dropped_spans`] instead of recorded.
const SPAN_BUFFER_CAPACITY: usize = 1 << 16;

/// Identifies one causally-connected tree of spans (the root's span id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span, unique within its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The propagation handle: enough of a span's identity for children —
/// including children on other worker threads — to link back to it.
///
/// `Copy`, so it crosses closure boundaries into pool tasks for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The tree this span belongs to.
    pub trace: TraceId,
    /// The span itself (children use it as their parent id).
    pub span: SpanId,
}

/// One finished span as it appears in a [`TraceSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The tree this span belongs to.
    pub trace: TraceId,
    /// Unique id of this span.
    pub id: SpanId,
    /// Parent span, or `None` for a root.
    pub parent: Option<SpanId>,
    /// Operation name, dot-namespaced like metric names.
    pub name: String,
    /// Clock seconds when the span was opened.
    pub start_secs: f64,
    /// Clock seconds when the span finished (`>= start_secs`).
    pub end_secs: f64,
    /// Process-local id of the thread the span finished on.
    pub thread: u32,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }
}

/// Process-local dense thread ids (0, 1, 2, …) in first-use order, so trace
/// exports stay small and stable-ish instead of leaking OS thread ids.
fn current_tid() -> u32 {
    static NEXT_TID: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[derive(Debug, Default)]
struct SpanLog {
    spans: Vec<SpanRecord>,
    threads: BTreeMap<u32, String>,
}

/// Shared state behind an enabled tracer.
#[derive(Debug)]
struct TraceBuffer {
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
    log: Mutex<SpanLog>,
    dropped: AtomicU64,
}

/// A handle to a span buffer, or a no-op when disabled.
///
/// Clones share the same buffer; the handle is `Send + Sync` so pool tasks
/// can open child spans on worker threads.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<TraceBuffer>>);

impl Tracer {
    /// The disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An enabled tracer timing spans against the process wall clock.
    pub fn collecting() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// An enabled tracer reading time from `clock` (inject a
    /// [`VirtualClock`](crate::VirtualClock) for deterministic traces).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self(Some(Arc::new(TraceBuffer {
            clock,
            next_id: AtomicU64::new(1),
            log: Mutex::new(SpanLog::default()),
            dropped: AtomicU64::new(0),
        })))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a root span (starts a new trace tree).
    pub fn root(&self, name: &str) -> TraceSpan {
        self.start(name, None)
    }

    /// Opens a span as a child of `parent`.
    pub fn child(&self, name: &str, parent: SpanContext) -> TraceSpan {
        self.start(name, Some(parent))
    }

    /// Opens a child of `parent` when present, a fresh root otherwise.
    ///
    /// This is the propagation workhorse: callers pass along whatever
    /// context they were given ([`TraceSpan::context`] of a disabled span is
    /// `None`, so disabled tracers compose transparently).
    pub fn child_of(&self, name: &str, parent: Option<SpanContext>) -> TraceSpan {
        self.start(name, parent)
    }

    fn start(&self, name: &str, parent: Option<SpanContext>) -> TraceSpan {
        let Some(buf) = &self.0 else {
            return TraceSpan::default();
        };
        let id = SpanId(buf.next_id.fetch_add(1, Ordering::Relaxed));
        TraceSpan {
            state: Some(ActiveSpan {
                buf: Arc::clone(buf),
                trace: parent.map_or(TraceId(id.0), |p| p.trace),
                id,
                parent: parent.map(|p| p.span),
                name: name.to_string(),
                start_secs: buf.clock.now_secs(),
            }),
        }
    }

    /// A point-in-time copy of every finished span (empty when disabled).
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(buf) = &self.0 else {
            return TraceSnapshot::default();
        };
        let log = lock_ignore_poison(&buf.log);
        TraceSnapshot {
            spans: log.spans.clone(),
            threads: log.threads.clone(),
            dropped_spans: buf.dropped.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct ActiveSpan {
    buf: Arc<TraceBuffer>,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_secs: f64,
}

/// A running span: records itself into the trace buffer when dropped (or
/// explicitly [`finish`](TraceSpan::finish)ed).
///
/// Children therefore record *before* their parents — consumers that need
/// parents-first order (like the exporters) sort by start time.
#[derive(Debug, Default)]
pub struct TraceSpan {
    state: Option<ActiveSpan>,
}

impl TraceSpan {
    /// The context children should link to (`None` for a disabled span).
    pub fn context(&self) -> Option<SpanContext> {
        self.state.as_ref().map(|s| SpanContext {
            trace: s.trace,
            span: s.id,
        })
    }

    /// Ends the span now (dropping it does the same).
    pub fn finish(self) {}

    fn record(&mut self) {
        let Some(s) = self.state.take() else {
            return;
        };
        let end_secs = s.buf.clock.now_secs().max(s.start_secs);
        let tid = current_tid();
        let mut log = lock_ignore_poison(&s.buf.log);
        if log.spans.len() >= SPAN_BUFFER_CAPACITY {
            s.buf.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.threads.entry(tid).or_insert_with(|| {
            std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_owned)
        });
        log.spans.push(SpanRecord {
            trace: s.trace,
            id: s.id,
            parent: s.parent,
            name: s.name,
            start_secs: s.start_secs,
            end_secs,
            thread: tid,
        });
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.record();
    }
}

/// A point-in-time copy of every finished span, in finish order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Finished spans (children precede parents — they finish first).
    pub spans: Vec<SpanRecord>,
    /// Thread display names by process-local thread id.
    pub threads: BTreeMap<u32, String>,
    /// Spans discarded because the buffer was full.
    pub dropped_spans: u64,
}

impl TraceSnapshot {
    /// True when nothing was recorded (e.g. tracing was disabled).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.dropped_spans == 0
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The span with id `id`, if recorded.
    pub fn find(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The recorded parent's name for `span`, if any.
    pub fn parent_name(&self, span: &SpanRecord) -> Option<&str> {
        span.parent
            .and_then(|p| self.find(p))
            .map(|p| p.name.as_str())
    }

    /// True when at least one trace tree has spans on two or more threads —
    /// the signature of work fanned out across the worker pool.
    pub fn crosses_threads(&self) -> bool {
        let mut tids: BTreeMap<TraceId, u32> = BTreeMap::new();
        for s in &self.spans {
            match tids.get(&s.trace) {
                None => {
                    tids.insert(s.trace, s.thread);
                }
                Some(&t) if t != s.thread => return true,
                Some(_) => {}
            }
        }
        false
    }

    /// Structural well-formedness of the span forest.
    ///
    /// Always checked: unique span ids, finite timestamps, `start <= end`.
    /// When no spans were dropped, additionally: every parent id resolves to
    /// a recorded span, the child's trace id matches its parent's, and the
    /// child starts no earlier than its parent (clock reads are causally
    /// ordered through task dispatch). Orphans are only tolerated when the
    /// buffer overflowed, since a dropped parent is then indistinguishable
    /// from a broken link.
    ///
    /// # Errors
    /// A human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
        for s in &self.spans {
            if !s.start_secs.is_finite() || !s.end_secs.is_finite() {
                return Err(format!("span {} '{}' has non-finite times", s.id.0, s.name));
            }
            if s.end_secs < s.start_secs {
                return Err(format!(
                    "span {} '{}' ends before it starts",
                    s.id.0, s.name
                ));
            }
            if by_id.insert(s.id.0, s).is_some() {
                return Err(format!("duplicate span id {}", s.id.0));
            }
        }
        if self.dropped_spans > 0 {
            return Ok(());
        }
        for s in &self.spans {
            let Some(pid) = s.parent else { continue };
            let Some(parent) = by_id.get(&pid.0) else {
                return Err(format!(
                    "span {} '{}' has missing parent {}",
                    s.id.0, s.name, pid.0
                ));
            };
            if parent.trace != s.trace {
                return Err(format!(
                    "span {} '{}' crosses traces ({} vs parent {})",
                    s.id.0, s.name, s.trace.0, parent.trace.0
                ));
            }
            if s.start_secs + 1e-9 < parent.start_secs {
                return Err(format!(
                    "span {} '{}' starts before its parent '{}'",
                    s.id.0, s.name, parent.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let root = tracer.root("r");
        assert!(root.context().is_none());
        let child = tracer.child_of("c", root.context());
        child.finish();
        root.finish();
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn spans_link_parent_to_child_across_threads() {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("deployment.run");
        let ctx = root.context();
        clock.advance_secs(1.0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let _task = tracer.child_of("engine.task", ctx);
                });
            }
        });
        clock.advance_secs(1.0);
        root.finish();

        let snap = tracer.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.spans.len(), 3);
        let roots: Vec<_> = snap.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(snap.span_count("engine.task"), 2);
        assert!(snap.crosses_threads());
        let root_rec = roots[0];
        for task in snap.spans.iter().filter(|s| s.name == "engine.task") {
            assert_eq!(task.parent, Some(root_rec.id));
            assert_eq!(task.trace, root_rec.trace);
            assert_eq!(snap.parent_name(task), Some("deployment.run"));
        }
        assert!((root_rec.duration_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_orphans_unless_buffer_overflowed() {
        let mut snap = TraceSnapshot {
            spans: vec![SpanRecord {
                trace: TraceId(1),
                id: SpanId(2),
                parent: Some(SpanId(1)),
                name: "orphan".into(),
                start_secs: 0.0,
                end_secs: 1.0,
                thread: 0,
            }],
            threads: BTreeMap::new(),
            dropped_spans: 0,
        };
        assert!(snap.validate().is_err());
        snap.dropped_spans = 1;
        assert!(snap.validate().is_ok());
    }

    #[test]
    fn buffer_overflow_drops_newest_and_counts() {
        let tracer = Tracer::collecting();
        for _ in 0..(SPAN_BUFFER_CAPACITY + 5) {
            tracer.root("s").finish();
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), SPAN_BUFFER_CAPACITY);
        assert_eq!(snap.dropped_spans, 5);
        snap.validate().unwrap();
    }

    #[test]
    fn child_of_none_starts_a_new_trace() {
        let tracer = Tracer::collecting();
        tracer.child_of("a", None).finish();
        tracer.child_of("b", None).finish();
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.iter().filter(|s| s.parent.is_none()).count(), 2);
        assert_ne!(snap.spans[0].trace, snap.spans[1].trace);
        assert!(!snap.crosses_threads());
    }
}
