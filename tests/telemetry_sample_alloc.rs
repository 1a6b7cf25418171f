//! Allocation accounting for the per-chunk telemetry sample: what one sample
//! allocates is set by the number of metrics, not by how much history the
//! registry holds. The sample reads `Metrics::snapshot_values()`, which
//! leaves the event log and the lineage map behind; the full
//! `Metrics::snapshot()` clones both.
//!
//! This file holds exactly one `#[test]` so the counting global allocator
//! sees no interference from sibling tests running on other harness threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cdpipe::obs::{
    AlertMonitor, LineageEventKind, Metrics, SloMonitor, TelemetryStore, VirtualClock,
    EVENT_LOG_CAPACITY,
};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns (allocs, bytes).
fn measure(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// The deployment loop's sampler (`TelemetryRuntime::sample`), restated.
struct Sampler {
    store: TelemetryStore,
    monitor: AlertMonitor,
    slo: SloMonitor,
}

impl Sampler {
    fn new() -> Self {
        Self {
            store: TelemetryStore::new(64),
            monitor: AlertMonitor::deployment_defaults(60.0),
            slo: SloMonitor::deployment_defaults(0.01),
        }
    }

    fn sample(&mut self, metrics: &Metrics, at_secs: f64) {
        let snap = metrics.snapshot_values();
        self.store.record(at_secs, &snap);
        let mut fired = self.monitor.observe(&snap, at_secs);
        fired.extend(self.slo.observe(&self.store, at_secs));
        assert!(fired.is_empty(), "quiet metrics must not alert: {fired:?}");
    }
}

/// A registry with a deployment's worth of metric names.
fn registry() -> Metrics {
    let metrics = Metrics::with_clock(Arc::new(VirtualClock::new()));
    for i in 0..20 {
        metrics.counter(&format!("layer{i}.calls")).add(i);
        metrics.gauge(&format!("layer{i}.level")).set(i as f64);
    }
    for i in 0..8 {
        metrics
            .histogram(&format!("layer{i}.secs"))
            .observe(1e-4 * (i + 1) as f64);
    }
    metrics
}

#[test]
fn one_sample_allocates_the_same_whatever_the_history() {
    let quiet = registry();
    let busy = registry();
    for i in 0..EVENT_LOG_CAPACITY {
        busy.event("serving.publish", format!("chunk {i} version {i}"));
    }
    for ts in 0..2000u64 {
        busy.lineage(ts, LineageEventKind::Arrival);
    }
    let history = busy.snapshot();
    assert_eq!(history.events.len(), EVENT_LOG_CAPACITY);
    assert_eq!(history.lineage.len(), 2000);

    // The first sample creates every series; the steady state is what a
    // deployment pays per chunk.
    let (mut on_quiet, mut on_busy) = (Sampler::new(), Sampler::new());
    on_quiet.sample(&quiet, 60.0);
    on_busy.sample(&busy, 60.0);
    let quiet_cost = measure(|| on_quiet.sample(&quiet, 120.0));
    let busy_cost = measure(|| on_busy.sample(&busy, 120.0));
    assert!(quiet_cost.0 > 0, "a sample clones the metric names");
    assert_eq!(
        quiet_cost, busy_cost,
        "(allocations, bytes) of one sample must not depend on events or lineage"
    );

    // The full snapshot is what grows with history — the cost the sampler
    // no longer pays.
    let full_quiet = measure(|| drop(quiet.snapshot()));
    let full_busy = measure(|| drop(busy.snapshot()));
    assert!(
        full_busy.0 >= full_quiet.0 + 2 * EVENT_LOG_CAPACITY as u64 + 2000,
        "full snapshot clones two strings per event and one vector per chunk: \
         {full_busy:?} vs {full_quiet:?}"
    );
}
