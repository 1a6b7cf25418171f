//! # cdp-obs — zero-dependency observability
//!
//! A lightweight metrics layer for the continuous-deployment platform:
//! named counters, gauges, fixed-bucket histograms, span timers, a bounded
//! structured event log, and an injectable [`Clock`] so every timing-driven
//! decision is deterministically testable with a [`VirtualClock`].
//!
//! The central type is [`Metrics`]: a cheap, cloneable handle that is a
//! **no-op by default** (mirroring `cdp-faults`' `NoFaults` hook). Hot-path
//! code takes a `Metrics` unconditionally; when disabled every operation is
//! a `None` check with no allocation, locking, or clock read, so the
//! instrumented paths cost nothing in production-shaped runs (guarded by the
//! `metrics_noop` bench).
//!
//! ```
//! use cdp_obs::{Metrics, VirtualClock};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(VirtualClock::new());
//! let metrics = Metrics::with_clock(clock.clone());
//!
//! metrics.counter("engine.tasks").add(3);
//! let span = metrics.span("store.disk_read_secs");
//! clock.advance_secs(0.25);
//! span.finish();
//!
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("engine.tasks"), 3);
//! let h = snap.histogram("store.disk_read_secs").unwrap();
//! assert_eq!(h.count, 1);
//! assert!((h.sum - 0.25).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

mod alerts;
mod chrome;
mod clock;
mod crc;
pub mod durable;
mod flame;
mod lineage;
mod recorder;
mod registry;
mod slo;
mod snapshot;
mod timeseries;
mod trace;

pub use alerts::{Alert, AlertMonitor, AlertOp, AlertRule, AlertSignal, Monitor, Rule};
pub use chrome::validate_chrome_trace;
pub use clock::{Clock, VirtualClock, WallClock};
pub use crc::crc32;
pub use lineage::{LineageEntry, LineageEventKind, LINEAGE_CAPACITY};
pub use recorder::{
    load_segments, FlightRecorder, SegmentHistogram, SegmentScan, TelemetrySegment,
};
pub use registry::{Counter, Gauge, Histogram, Span, EVENT_LOG_CAPACITY, LATENCY_BOUNDS};
pub use slo::{BudgetSignal, BurnRule, SloMonitor};
pub use snapshot::{Event, HistogramSnapshot, MetricsSnapshot};
pub use timeseries::{
    HistogramFrame, HistogramSeries, SamplePoint, TelemetryStore, TimeSeries,
    DEFAULT_SERIES_CAPACITY,
};
pub use trace::{SpanContext, SpanId, SpanRecord, TraceId, TraceSnapshot, TraceSpan, Tracer};

use registry::Registry;
use std::sync::Arc;

/// A handle to a metrics registry, or a no-op when disabled.
///
/// Clones share the same registry. All operations are thread-safe; counters
/// and histograms use relaxed atomics, name resolution takes a short lock.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Option<Arc<Registry>>);

impl Metrics {
    /// The disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An enabled handle timing spans against the process wall clock.
    pub fn collecting() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// An enabled handle reading time from `clock` (inject a
    /// [`VirtualClock`] for deterministic tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self(Some(Arc::new(Registry::new(clock))))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The monotonic counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|r| r.counter_cell(name)))
    }

    /// The gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|r| r.gauge_cell(name)))
    }

    /// The histogram named `name` with the default latency bucket bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, LATENCY_BOUNDS)
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (bounds of an existing histogram are not changed).
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram(self.0.as_ref().map(|r| r.histogram_cell(name, bounds)))
    }

    /// Starts a span whose elapsed seconds land in the histogram `name`
    /// when the returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        Span {
            state: self.0.as_ref().map(|r| {
                let cell = r.histogram_cell(name, LATENCY_BOUNDS);
                let clock = Arc::clone(r.clock());
                let started = clock.now_secs();
                (cell, clock, started)
            }),
        }
    }

    /// Appends a structured event (clock-stamped); the log keeps the most
    /// recent [`EVENT_LOG_CAPACITY`] entries and counts evictions in
    /// [`MetricsSnapshot::dropped_events`].
    pub fn event(&self, name: &str, detail: impl Into<String>) {
        if let Some(r) = &self.0 {
            r.push_event(name, detail.into());
        }
    }

    /// Appends a clock-stamped lineage event to chunk `chunk_ts`'s log
    /// (retained up to [`LINEAGE_CAPACITY`] entries across all chunks).
    pub fn lineage(&self, chunk_ts: u64, kind: LineageEventKind) {
        if let Some(r) = &self.0 {
            r.record_lineage(chunk_ts, kind);
        }
    }

    /// A point-in-time copy of every metric (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.0.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    }

    /// [`Metrics::snapshot`] without the event log and the lineage map — what
    /// a per-chunk telemetry sample reads ([`TelemetryStore::record`],
    /// [`AlertMonitor::observe`]). Its cost does not grow with the run's
    /// history; checkpoints and results keep taking the full snapshot.
    pub fn snapshot_values(&self) -> MetricsSnapshot {
        self.0
            .as_ref()
            .map(|r| r.snapshot_values())
            .unwrap_or_default()
    }

    /// Loads every metric from a previously exported snapshot — the inverse
    /// of [`Metrics::snapshot`], used to resume a deployment from a
    /// checkpoint. No-op when disabled. Intended for freshly created
    /// handles: restored histograms replace their cells, so `Histogram`
    /// handles obtained before the restore stop being observed.
    pub fn restore_from(&self, snap: &MetricsSnapshot) {
        if let Some(r) = &self.0 {
            r.restore_from(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_handle_is_inert() {
        let metrics = Metrics::disabled();
        assert!(!metrics.is_enabled());
        metrics.counter("a").inc();
        metrics.gauge("b").set(1.0);
        metrics.histogram("c").observe(0.5);
        metrics.event("d", "detail");
        metrics.span("e").finish();
        let snap = metrics.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.counter("a"), 0);
        assert_eq!(snap.gauge("b"), 0.0);
        assert!(snap.histogram("c").is_none());
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let metrics = Metrics::collecting();
        let c = metrics.counter("engine.tasks");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same cell.
        metrics.counter("engine.tasks").add(5);
        metrics.gauge("scheduler.pr").set(12.5);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("engine.tasks"), 10);
        assert!((snap.gauge("scheduler.pr") - 12.5).abs() < 1e-12);
        assert_eq!(snap.metric_count(), 2);
    }

    #[test]
    fn spans_are_deterministic_under_virtual_clock() {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Metrics::with_clock(clock.clone());

        let span = metrics.span("phase.train_secs");
        clock.advance(Duration::from_millis(200));
        let elapsed = span.finish();
        assert!((elapsed - 0.2).abs() < 1e-12);

        // Dropping a span records it too.
        {
            let _span = metrics.span("phase.train_secs");
            clock.advance(Duration::from_millis(300));
        }

        let snap = metrics.snapshot();
        let h = match snap.histogram("phase.train_secs") {
            Some(h) => h,
            None => panic!("span histogram must exist"),
        };
        assert_eq!(h.count, 2);
        assert!((h.sum - 0.5).abs() < 1e-12);
        assert!((h.min - 0.2).abs() < 1e-12);
        assert!((h.max - 0.3).abs() < 1e-12);
        assert!((h.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_follow_fixed_bounds() {
        let metrics = Metrics::collecting();
        let h = metrics.histogram_with_bounds("latency", &[0.1, 1.0]);
        for v in [0.05, 0.1, 0.5, 2.0, f64::NAN, f64::INFINITY] {
            h.observe(v);
        }
        let snap = metrics.snapshot();
        let hist = match snap.histogram("latency") {
            Some(h) => h,
            None => panic!("histogram must exist"),
        };
        // NaN/Inf counted as dropped; 0.05 and 0.1 (inclusive bound) in
        // bucket 0, 0.5 in bucket 1, 2.0 in the overflow bucket.
        assert_eq!(hist.count, 4);
        assert_eq!(hist.buckets, vec![2, 1, 1]);
        assert_eq!(hist.dropped, 2);
        assert!((hist.min - 0.05).abs() < 1e-12);
        assert!((hist.max - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundary_value_lands_in_exactly_one_bucket() {
        let metrics = Metrics::collecting();
        let h = metrics.histogram_with_bounds("edge", &[0.1, 1.0]);
        h.observe(0.1); // exactly on the first upper bound
        h.observe(1.0); // exactly on the second upper bound
        let snap = metrics.snapshot();
        let hist = snap.histogram("edge").unwrap();
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
        assert_eq!(hist.buckets, vec![1, 1, 0]);
        assert_eq!(hist.dropped, 0);
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let metrics = Metrics::collecting();
        let h = metrics.histogram_with_bounds("lat", &[0.1, 1.0]);
        // 4 observations in bucket 0 (≤0.1), 4 in bucket 1 ((0.1, 1.0]).
        for v in [0.02, 0.04, 0.06, 0.1, 0.2, 0.5, 1.0, 1.0] {
            h.observe(v);
        }
        // p50 target rank 4.0 lands exactly at bucket 0's upper edge.
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 0.1).abs() < 1e-12, "p50 = {p50}");
        // p75 target rank 6.0 = halfway through bucket 1: 0.1 + (2/4)*0.9.
        let p75 = h.quantile(0.75).unwrap();
        assert!((p75 - 0.55).abs() < 1e-12, "p75 = {p75}");
        // q=0 clamps to the recorded min; q=1 to the recorded max.
        assert!((h.quantile(0.0).unwrap() - 0.02).abs() < 1e-12);
        assert!((h.quantile(1.0).unwrap() - 1.0).abs() < 1e-12);
        // Out-of-range q is rejected, not clamped.
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        // The interpolated estimate never exceeds the bucket upper bound.
        let snap = metrics.snapshot();
        let hist = snap.histogram("lat").unwrap();
        assert!(hist.quantile_interp(0.5).unwrap() <= hist.quantile(0.5).unwrap());
    }

    #[test]
    fn histogram_quantile_handles_overflow_and_dropped_samples() {
        let metrics = Metrics::collecting();
        let h = metrics.histogram_with_bounds("tail", &[0.1]);
        // Overflow-bucket observations interpolate between the last bound
        // and the recorded max.
        h.observe(0.05);
        h.observe(2.0);
        h.observe(4.0);
        let p99 = h.quantile(0.99).unwrap();
        assert!((0.1..=4.0).contains(&p99), "p99 = {p99}");
        assert!((h.quantile(1.0).unwrap() - 4.0).abs() < 1e-12);
        // NaN/∞ are dropped, never bucketed: quantiles are unperturbed and
        // the drop is visible in the snapshot.
        let before = h.quantile(0.5);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.quantile(0.5), before);
        let snap = metrics.snapshot();
        let hist = snap.histogram("tail").unwrap();
        assert_eq!(hist.dropped, 3);
        assert_eq!(hist.count, 3);
        // Empty and disabled histograms yield no quantile.
        assert_eq!(metrics.histogram("empty").quantile(0.5), None);
        assert_eq!(Metrics::disabled().histogram("off").quantile(0.5), None);
    }

    #[test]
    fn event_log_is_bounded_and_clock_stamped() {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Metrics::with_clock(clock.clone());
        for i in 0..(EVENT_LOG_CAPACITY + 10) {
            clock.advance(Duration::from_secs(1));
            metrics.event("tick", format!("{i}"));
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.events.len(), EVENT_LOG_CAPACITY);
        // Oldest entries were dropped — visibly, via the counter.
        assert_eq!(snap.dropped_events, 10);
        assert_eq!(snap.events[0].detail, "10");
        let last = &snap.events[EVENT_LOG_CAPACITY - 1];
        assert_eq!(last.detail, format!("{}", EVENT_LOG_CAPACITY + 9));
        assert!((last.at_secs - (EVENT_LOG_CAPACITY + 10) as f64).abs() < 1e-9);
    }

    #[test]
    fn clones_share_one_registry() {
        let metrics = Metrics::collecting();
        let clone = metrics.clone();
        clone.counter("shared").add(7);
        assert_eq!(metrics.snapshot().counter("shared"), 7);
    }

    #[test]
    fn csv_export_lists_every_metric() {
        let metrics = Metrics::collecting();
        metrics.counter("store.spills").add(3);
        metrics.gauge("scheduler.t_secs").set(0.5);
        metrics.histogram_with_bounds("io", &[1.0]).observe(0.25);
        let csv = metrics.snapshot().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("kind,name,count,sum,mean,min,max,dropped")
        );
        assert!(csv.contains("counter,store.spills,3,3,,,,"));
        assert!(csv.contains("gauge,scheduler.t_secs,,0.5,,,,"));
        assert!(csv.contains("histogram,io,1,0.25,0.25,0.25,0.25,0"));
    }

    #[test]
    fn lineage_is_recorded_per_chunk_and_bounded() {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Metrics::with_clock(clock.clone());
        metrics.lineage(5, LineageEventKind::Arrival);
        clock.advance(Duration::from_secs(1));
        metrics.lineage(5, LineageEventKind::Materialize);
        metrics.lineage(9, LineageEventKind::Arrival);

        let snap = metrics.snapshot();
        assert_eq!(snap.lineage[&5].len(), 2);
        assert_eq!(snap.lineage[&5][0].kind, LineageEventKind::Arrival);
        assert_eq!(snap.lineage[&5][1].kind, LineageEventKind::Materialize);
        assert!((snap.lineage[&5][1].at_secs - 1.0).abs() < 1e-9);
        assert_eq!(snap.lineage_count(LineageEventKind::Arrival), 2);
        assert!(!snap.lineage.contains_key(&42));
        assert_eq!(snap.dropped_lineage, 0);
        assert!(!snap.is_empty());

        // Disabled handles record nothing.
        let disabled = Metrics::disabled();
        disabled.lineage(1, LineageEventKind::Spill);
        assert!(disabled.snapshot().lineage.is_empty());
    }

    #[test]
    fn json_export_is_well_formed() {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Metrics::with_clock(clock.clone());
        metrics.counter("a.b").inc();
        metrics.gauge("g").set(f64::NAN); // must encode as null
        metrics.histogram("h").observe(1.5);
        metrics.event("fault", "disk \"retry\"\n#2");
        let json = metrics.snapshot().to_json();
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"g\": null"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("disk \\\"retry\\\"\\n#2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn restore_from_round_trips_a_snapshot_exactly() {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Metrics::with_clock(clock.clone());
        metrics.counter("engine.tasks").add(42);
        metrics.gauge("scheduler.pr").set(-3.25);
        let h = metrics.histogram_with_bounds("lat", &[0.1, 1.0]);
        for v in [0.05, 0.5, 2.0, f64::NAN] {
            h.observe(v);
        }
        clock.advance(Duration::from_secs(3));
        metrics.event("fault", "disk retry");
        metrics.lineage(7, LineageEventKind::Arrival);
        metrics.lineage(7, LineageEventKind::Evict);
        let snap = metrics.snapshot();

        let restored = Metrics::with_clock(Arc::new(VirtualClock::new()));
        restored.restore_from(&snap);
        assert_eq!(restored.snapshot(), snap);

        // Restored cells keep accumulating from the loaded values.
        restored.counter("engine.tasks").add(1);
        restored
            .histogram_with_bounds("lat", &[0.1, 1.0])
            .observe(0.5);
        let after = restored.snapshot();
        assert_eq!(after.counter("engine.tasks"), 43);
        let lat = after.histogram("lat").unwrap();
        assert_eq!(lat.count, 4);
        assert_eq!(lat.buckets, vec![1, 2, 1]);

        // Disabled handles ignore restores.
        let disabled = Metrics::disabled();
        disabled.restore_from(&snap);
        assert!(disabled.snapshot().is_empty());
    }

    #[test]
    fn concurrent_observers_never_lose_counts() {
        let metrics = Metrics::collecting();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = metrics.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        m.counter("hits").inc();
                        m.histogram("lat").observe(0.001);
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("hits"), 4_000);
        assert_eq!(snap.histogram("lat").map(|h| h.count), Some(4_000));
    }
}
