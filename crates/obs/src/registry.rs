//! The metrics registry backing an enabled [`Metrics`](crate::Metrics)
//! handle: named counters, gauges, fixed-bound histograms, span timers, and
//! a bounded structured event log.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::Clock;
use crate::lineage::{LineageEntry, LineageEventKind, LINEAGE_CAPACITY};
use crate::snapshot::{Event, HistogramSnapshot, MetricsSnapshot};

/// Upper bound on retained events; older entries are dropped first.
pub const EVENT_LOG_CAPACITY: usize = 1024;

/// Default histogram bucket upper bounds (seconds, log-ish scale) for
/// latency-style observations. An implicit overflow bucket catches the rest.
pub const LATENCY_BOUNDS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Recovers from mutex poisoning: observability locks guard plain counters,
/// so a panicking observer must never take the registry down with it.
pub(crate) fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Lock-free accumulation cell for one histogram.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    bounds: Vec<f64>,
    /// One slot per bound plus a final overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64` bits, CAS-accumulated.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Non-finite observations, counted instead of silently skipped.
    dropped: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            dropped: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: f64) {
        if !value.is_finite() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        Self::update_bits(&self.sum_bits, |sum| sum + value);
        Self::update_bits(&self.min_bits, |min| min.min(value));
        Self::update_bits(&self.max_bits, |max| max.max(value));
    }

    fn update_bits(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
        let mut current = bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(current)).to_bits();
            match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Rebuilds a cell from an exported snapshot (checkpoint restore). An
    /// empty snapshot regenerates the pristine min/max sentinels.
    fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        let mut buckets: Vec<AtomicU64> = snap.buckets.iter().map(|&b| AtomicU64::new(b)).collect();
        while buckets.len() <= snap.bounds.len() {
            buckets.push(AtomicU64::new(0));
        }
        Self {
            bounds: snap.bounds.clone(),
            buckets,
            count: AtomicU64::new(snap.count),
            sum_bits: AtomicU64::new(snap.sum.to_bits()),
            min_bits: AtomicU64::new(if snap.count == 0 {
                f64::INFINITY.to_bits()
            } else {
                snap.min.to_bits()
            }),
            max_bits: AtomicU64::new(if snap.count == 0 {
                f64::NEG_INFINITY.to_bits()
            } else {
                snap.max.to_bits()
            }),
            dropped: AtomicU64::new(snap.dropped),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Bounded per-chunk lineage log (`total` counts entries across all chunks).
#[derive(Debug, Default)]
struct LineageLog {
    entries: BTreeMap<u64, Vec<LineageEntry>>,
    total: usize,
}

/// The shared state behind an enabled metrics handle.
#[derive(Debug)]
pub(crate) struct Registry {
    clock: Arc<dyn Clock>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64` bits.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    events: Mutex<VecDeque<Event>>,
    dropped_events: AtomicU64,
    lineage: Mutex<LineageLog>,
    dropped_lineage: AtomicU64,
}

impl Registry {
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Mutex::new(VecDeque::new()),
            dropped_events: AtomicU64::new(0),
            lineage: Mutex::new(LineageLog::default()),
            dropped_lineage: AtomicU64::new(0),
        }
    }

    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    pub(crate) fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = lock_ignore_poison(&self.counters);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    pub(crate) fn gauge_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = lock_ignore_poison(&self.gauges);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
        )
    }

    pub(crate) fn histogram_cell(&self, name: &str, bounds: &[f64]) -> Arc<HistogramCell> {
        let mut map = lock_ignore_poison(&self.histograms);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramCell::new(bounds))),
        )
    }

    pub(crate) fn push_event(&self, name: &str, detail: String) {
        let at_secs = self.clock.now_secs();
        let mut log = lock_ignore_poison(&self.events);
        if log.len() >= EVENT_LOG_CAPACITY {
            log.pop_front();
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
        log.push_back(Event {
            at_secs,
            name: name.to_string(),
            detail,
        });
    }

    pub(crate) fn record_lineage(&self, chunk_ts: u64, kind: LineageEventKind) {
        let at_secs = self.clock.now_secs();
        let mut log = lock_ignore_poison(&self.lineage);
        if log.total >= LINEAGE_CAPACITY {
            self.dropped_lineage.fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.total += 1;
        log.entries
            .entry(chunk_ts)
            .or_default()
            .push(LineageEntry { at_secs, kind });
    }

    /// Loads every metric from `snap` — the inverse of
    /// [`Registry::snapshot`], used to resume a deployment from a
    /// checkpoint. Intended for freshly created registries: histogram cells
    /// are replaced wholesale, so `Histogram` handles obtained *before* the
    /// restore keep observing into detached cells.
    pub(crate) fn restore_from(&self, snap: &MetricsSnapshot) {
        {
            let mut map = lock_ignore_poison(&self.counters);
            for (name, &value) in &snap.counters {
                map.entry(name.clone())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                    .store(value, Ordering::Relaxed);
            }
        }
        {
            let mut map = lock_ignore_poison(&self.gauges);
            for (name, &value) in &snap.gauges {
                map.entry(name.clone())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())))
                    .store(value.to_bits(), Ordering::Relaxed);
            }
        }
        {
            let mut map = lock_ignore_poison(&self.histograms);
            for (name, h) in &snap.histograms {
                map.insert(name.clone(), Arc::new(HistogramCell::from_snapshot(h)));
            }
        }
        *lock_ignore_poison(&self.events) = snap.events.iter().cloned().collect();
        self.dropped_events
            .store(snap.dropped_events, Ordering::Relaxed);
        {
            let mut log = lock_ignore_poison(&self.lineage);
            log.total = snap.lineage.values().map(Vec::len).sum();
            log.entries = snap.lineage.clone();
        }
        self.dropped_lineage
            .store(snap.dropped_lineage, Ordering::Relaxed);
    }

    /// Counters, gauges and histograms only: events and lineage stay empty,
    /// so the cost is set by the number of metrics, not by the run's history.
    pub(crate) fn snapshot_values(&self) -> MetricsSnapshot {
        let counters = lock_ignore_poison(&self.counters)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock_ignore_poison(&self.gauges)
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = lock_ignore_poison(&self.histograms)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            ..MetricsSnapshot::default()
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events: lock_ignore_poison(&self.events).iter().cloned().collect(),
            dropped_events: self.dropped_events.load(Ordering::Relaxed),
            lineage: lock_ignore_poison(&self.lineage).entries.clone(),
            dropped_lineage: self.dropped_lineage.load(Ordering::Relaxed),
            ..self.snapshot_values()
        }
    }
}

/// A named monotonic counter. Cheap to clone; a disabled handle is inert.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A named last-value-wins gauge holding an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// A named fixed-bucket histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCell>>);

impl Histogram {
    /// Records one observation (non-finite values are dropped).
    pub fn observe(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.observe(value);
        }
    }

    /// Interpolated `q`-quantile estimate from the live bucket counts
    /// (see [`HistogramSnapshot::quantile_interp`]). `None` for a disabled
    /// handle, an empty histogram, or `q` outside `[0, 1]`.
    ///
    /// [`HistogramSnapshot::quantile_interp`]:
    /// crate::HistogramSnapshot::quantile_interp
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0
            .as_ref()
            .and_then(|cell| cell.snapshot().quantile_interp(q))
    }
}

/// A running span: records the elapsed clock time into its histogram when
/// dropped (or explicitly [`finish`](Span::finish)ed).
#[derive(Debug, Default)]
pub struct Span {
    pub(crate) state: Option<(Arc<HistogramCell>, Arc<dyn Clock>, f64)>,
}

impl Span {
    /// Ends the span now, returning the recorded duration in seconds
    /// (`0.0` for a disabled span).
    pub fn finish(mut self) -> f64 {
        self.record()
    }

    fn record(&mut self) -> f64 {
        match self.state.take() {
            Some((cell, clock, started_secs)) => {
                let elapsed = (clock.now_secs() - started_secs).max(0.0);
                cell.observe(elapsed);
                elapsed
            }
            None => 0.0,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}
