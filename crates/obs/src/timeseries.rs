//! Live telemetry: fixed-capacity ring-buffer time series over the metrics
//! a registry already exports.
//!
//! A [`TelemetryStore`] periodically samples a [`MetricsSnapshot`] — one
//! [`TimeSeries`] per counter and gauge, one [`HistogramSeries`] of
//! bucket-count frames per histogram — so a long-running deployment has a
//! *temporal* record of its health, not just a terminal aggregate. Every
//! series is bounded: when a ring is full the oldest sample is evicted and
//! counted, never silently lost.
//!
//! Sampling is driven by the caller (the deployment loop samples once per
//! chunk on its virtual clock), so under an injected [`Clock`](crate::Clock)
//! the recorded series are bit-identical across reruns.
//!
//! Windowed statistics are computed over the last `n` *samples* (not wall
//! seconds): the change of a value series, and threshold fractions over
//! bucket-count deltas for histogram series. The store exports itself as
//! long-format CSV or JSON.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::snapshot::{escape_csv, escape_json, json_num, MetricsSnapshot};
use crate::HistogramSnapshot;

/// Default per-series ring capacity (samples retained).
pub const DEFAULT_SERIES_CAPACITY: usize = 256;

/// One `(time, value)` sample of a counter or gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SamplePoint {
    /// Clock seconds when the sample was taken.
    pub at_secs: f64,
    /// Sampled value (counters are widened to `f64`).
    pub value: f64,
}

/// A fixed-capacity ring buffer of [`SamplePoint`]s, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    points: VecDeque<SamplePoint>,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series retaining up to `capacity` samples (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            points: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Appends a sample, evicting (and counting) the oldest when full.
    pub fn push(&mut self, at_secs: f64, value: f64) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(SamplePoint { at_secs, value });
    }

    /// Retained samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing was sampled yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples evicted because the ring was full (`dropped + len` is the
    /// true sample total).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained samples, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &SamplePoint> {
        self.points.iter()
    }

    /// The last `n` retained samples, oldest first (fewer when the series
    /// is shorter).
    pub fn last_n(&self, n: usize) -> impl Iterator<Item = &SamplePoint> {
        self.points.iter().skip(self.points.len().saturating_sub(n))
    }

    /// Change in value over the last `n` sampling intervals: newest value
    /// minus the value `n` samples back (or the oldest retained sample when
    /// the series is shorter — the window-so-far). `None` when empty.
    fn delta(&self, n: usize) -> Option<f64> {
        let newest = self.points.back()?;
        let start = self.points.len().saturating_sub(n + 1);
        Some(newest.value - self.points[start].value)
    }
}

/// One sampled histogram state: cumulative bucket counts at a point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramFrame {
    /// Clock seconds when the frame was taken.
    pub at_secs: f64,
    /// Total observations at that time.
    pub count: u64,
    /// Sum of observations at that time.
    pub sum: f64,
    /// Non-finite observations counted-and-dropped at that time.
    pub dropped: u64,
    /// Per-bucket counts (final slot is the overflow bucket).
    pub buckets: Vec<u64>,
}

/// A fixed-capacity ring of [`HistogramFrame`]s for one histogram.
///
/// Windowed estimates work on the *delta* between the newest frame and the
/// frame `n` samples back, i.e. over the observations that arrived inside
/// the window. Only bucket counts survive sampling, so a threshold inside a
/// bucket is interpolated within it.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSeries {
    bounds: Vec<f64>,
    capacity: usize,
    frames: VecDeque<HistogramFrame>,
}

impl HistogramSeries {
    /// An empty series for a histogram with `bounds`, retaining up to
    /// `capacity` frames (clamped ≥ 1).
    pub fn new(bounds: Vec<f64>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            bounds,
            capacity,
            frames: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a frame sampled from `h` at `at_secs`.
    fn push_snapshot(&mut self, at_secs: f64, h: &HistogramSnapshot) {
        if self.bounds.is_empty() && !h.bounds.is_empty() {
            self.bounds = h.bounds.clone();
        }
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(HistogramFrame {
            at_secs,
            count: h.count,
            sum: h.sum,
            dropped: h.dropped,
            buckets: h.buckets.clone(),
        });
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Retained frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frame was sampled yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// All retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &HistogramFrame> {
        self.frames.iter()
    }

    /// Observations that arrived within the last `n` sampling intervals:
    /// the newest frame minus the frame `n` back (or minus zero when the
    /// series is shorter). `None` when empty.
    fn window_delta(&self, n: usize) -> Option<HistogramFrame> {
        let newest = self.frames.back()?;
        let base = if n >= self.frames.len() {
            // Window covers the whole retained series: delta from nothing.
            None
        } else {
            Some(&self.frames[self.frames.len() - 1 - n])
        };
        let buckets = match base {
            Some(b) => newest
                .buckets
                .iter()
                .zip(b.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(new, old)| new.saturating_sub(*old))
                .collect(),
            None => newest.buckets.clone(),
        };
        Some(HistogramFrame {
            at_secs: newest.at_secs,
            count: newest.count.saturating_sub(base.map_or(0, |b| b.count)),
            sum: newest.sum - base.map_or(0.0, |b| b.sum),
            dropped: newest.dropped.saturating_sub(base.map_or(0, |b| b.dropped)),
            buckets,
        })
    }

    /// Estimated fraction of window observations strictly above
    /// `threshold`, interpolating within the straddling bucket. Buckets
    /// whose true range is unbounded on the straddled side count fully
    /// (pessimistic toward alerting). `None` when the window is empty.
    pub fn window_fraction_above(&self, n: usize, threshold: f64) -> Option<f64> {
        self.window_fraction(n, threshold, false)
    }

    /// Estimated fraction of window observations strictly below
    /// `threshold`; same conventions as
    /// [`window_fraction_above`](Self::window_fraction_above).
    pub fn window_fraction_below(&self, n: usize, threshold: f64) -> Option<f64> {
        self.window_fraction(n, threshold, true)
    }

    fn window_fraction(&self, n: usize, threshold: f64, below: bool) -> Option<f64> {
        let delta = self.window_delta(n)?;
        if delta.count == 0 {
            return None;
        }
        let mut bad = 0.0;
        for (i, &c) in delta.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = if i == 0 {
                f64::NEG_INFINITY
            } else {
                self.bounds[i - 1]
            };
            let hi = if i < self.bounds.len() {
                self.bounds[i]
            } else {
                f64::INFINITY
            };
            // Bucket range is (lo, hi]. "Above" means strictly greater.
            let fraction = if below {
                if hi <= threshold {
                    1.0
                } else if lo >= threshold {
                    0.0
                } else if lo.is_finite() && hi.is_finite() {
                    (threshold - lo) / (hi - lo)
                } else {
                    1.0
                }
            } else if lo >= threshold {
                1.0
            } else if hi <= threshold {
                0.0
            } else if lo.is_finite() && hi.is_finite() {
                (hi - threshold) / (hi - lo)
            } else {
                1.0
            };
            bad += fraction.clamp(0.0, 1.0) * c as f64;
        }
        Some((bad / delta.count as f64).clamp(0.0, 1.0))
    }
}

/// A bounded store of time series over every metric a registry exports.
///
/// [`record`](Self::record) appends one sample of each counter, gauge, and
/// histogram in a snapshot (metric names matching an excluded prefix are
/// skipped — the default deployment configuration excludes the
/// scheduling-dependent `engine.*` series so recorded telemetry stays
/// bit-identical across worker counts).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryStore {
    capacity: usize,
    exclude_prefixes: Vec<String>,
    counters: BTreeMap<String, TimeSeries>,
    gauges: BTreeMap<String, TimeSeries>,
    histograms: BTreeMap<String, HistogramSeries>,
    samples: u64,
    last_at_secs: f64,
}

impl Default for TelemetryStore {
    fn default() -> Self {
        Self::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl TelemetryStore {
    /// An empty store whose series retain up to `capacity` samples each.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            exclude_prefixes: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            samples: 0,
            last_at_secs: 0.0,
        }
    }

    /// Skips metrics whose name starts with any of `prefixes` (builder
    /// style).
    #[must_use]
    pub fn with_exclude_prefixes(mut self, prefixes: Vec<String>) -> Self {
        self.exclude_prefixes = prefixes;
        self
    }

    fn excluded(&self, name: &str) -> bool {
        self.exclude_prefixes.iter().any(|p| name.starts_with(p))
    }

    /// Appends one sample of every (non-excluded) metric in `snap`,
    /// stamped `at_secs`.
    pub fn record(&mut self, at_secs: f64, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            if self.excluded(name) {
                continue;
            }
            self.counters
                .entry(name.clone())
                .or_insert_with(|| TimeSeries::new(self.capacity))
                .push(at_secs, *v as f64);
        }
        for (name, v) in &snap.gauges {
            if self.excluded(name) {
                continue;
            }
            self.gauges
                .entry(name.clone())
                .or_insert_with(|| TimeSeries::new(self.capacity))
                .push(at_secs, *v);
        }
        for (name, h) in &snap.histograms {
            if self.excluded(name) {
                continue;
            }
            self.histograms
                .entry(name.clone())
                .or_insert_with(|| HistogramSeries::new(h.bounds.clone(), self.capacity))
                .push_snapshot(at_secs, h);
        }
        self.samples += 1;
        self.last_at_secs = at_secs;
    }

    /// Samples recorded so far (monotonic; unaffected by ring eviction).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Per-series ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Distinct series (counters + gauges + histograms).
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// The gauge series named `name`.
    pub fn gauge_series(&self, name: &str) -> Option<&TimeSeries> {
        self.gauges.get(name)
    }

    /// The histogram series named `name`.
    pub fn histogram_series(&self, name: &str) -> Option<&HistogramSeries> {
        self.histograms.get(name)
    }

    /// All counter series, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&String, &TimeSeries)> {
        self.counters.iter()
    }

    /// All gauge series, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&String, &TimeSeries)> {
        self.gauges.iter()
    }

    /// All histogram series, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&String, &HistogramSeries)> {
        self.histograms.iter()
    }

    /// Change of counter `name` over the last `n` sampling intervals.
    pub fn counter_delta(&self, name: &str, n: usize) -> Option<f64> {
        self.counters.get(name).and_then(|s| s.delta(n))
    }

    /// Long-format CSV of every retained sample:
    /// `kind,name,at_secs,value,count,sum` (counters/gauges fill `value`;
    /// histogram frames fill `count` and `sum`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,at_secs,value,count,sum\n");
        for (name, series) in &self.counters {
            for p in series.points() {
                let _ = writeln!(
                    out,
                    "counter,{},{},{},,",
                    escape_csv(name),
                    p.at_secs,
                    p.value
                );
            }
        }
        for (name, series) in &self.gauges {
            for p in series.points() {
                let _ = writeln!(
                    out,
                    "gauge,{},{},{},,",
                    escape_csv(name),
                    p.at_secs,
                    p.value
                );
            }
        }
        for (name, series) in &self.histograms {
            for f in series.frames() {
                let _ = writeln!(
                    out,
                    "histogram,{},{},,{},{}",
                    escape_csv(name),
                    f.at_secs,
                    f.count,
                    f.sum
                );
            }
        }
        out
    }

    /// JSON export of every retained series (hand-rolled — the workspace
    /// has no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"samples\": {},\n  \"last_at_secs\": {},\n  \"counters\": {{",
            self.samples,
            json_num(self.last_at_secs)
        );
        push_series(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_series(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, series)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{\"bounds\": [", escape_json(name));
            for (j, b) in series.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_num(*b));
            }
            out.push_str("], \"frames\": [");
            for (j, f) in series.frames().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"at_secs\": {}, \"count\": {}, \"sum\": {}, \"dropped\": {}}}",
                    json_num(f.at_secs),
                    f.count,
                    json_num(f.sum),
                    f.dropped
                );
            }
            out.push_str("]}");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_series(out: &mut String, map: &BTreeMap<String, TimeSeries>) {
    for (i, (name, series)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": [", escape_json(name));
        for (j, p) in series.points().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {}]", json_num(p.at_secs), json_num(p.value));
        }
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut s = TimeSeries::new(3);
        for i in 0..5 {
            s.push(i as f64, (i * 10) as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let values: Vec<f64> = s.points().map(|p| p.value).collect();
        assert_eq!(values, vec![20.0, 30.0, 40.0]);
        assert_eq!(s.points().last().unwrap().at_secs, 4.0);
    }

    #[test]
    fn delta_is_change_over_the_window() {
        let mut s = TimeSeries::new(8);
        for i in 0..4u32 {
            s.push(i as f64, (i * i) as f64); // 0, 1, 4, 9
        }
        assert!((s.delta(1).unwrap() - 5.0).abs() < 1e-12);
        assert!((s.delta(2).unwrap() - 8.0).abs() < 1e-12);
        // Window longer than the series: delta from the oldest sample.
        assert!((s.delta(100).unwrap() - 9.0).abs() < 1e-12);
        let mut one = TimeSeries::new(2);
        one.push(0.0, 42.0);
        assert_eq!(one.delta(4), Some(0.0));
    }

    fn hist_series(observations: &[&[f64]]) -> HistogramSeries {
        let metrics = Metrics::collecting();
        let h = metrics.histogram_with_bounds("h", &[1.0, 2.0, 4.0]);
        let mut series = HistogramSeries::new(vec![1.0, 2.0, 4.0], 16);
        for (i, batch) in observations.iter().enumerate() {
            for &v in *batch {
                h.observe(v);
            }
            let snap = metrics.snapshot();
            series.push_snapshot(i as f64, snap.histogram("h").unwrap());
        }
        series
    }

    #[test]
    fn window_delta_subtracts_the_frame_n_back() {
        let series = hist_series(&[&[0.5, 1.5], &[3.0], &[0.5, 5.0]]);
        let d = series.window_delta(1).unwrap();
        assert_eq!(d.count, 2);
        assert_eq!(d.buckets, vec![1, 0, 0, 1]);
        assert!((d.sum - 5.5).abs() < 1e-12);
        // Whole-series window equals the newest cumulative frame.
        let all = series.window_delta(10).unwrap();
        assert_eq!(all.count, 5);
        assert_eq!(all.buckets, vec![2, 1, 1, 1]);
    }

    #[test]
    fn window_fractions_count_threshold_breaches() {
        // Bounds [1, 2, 4]; two obs ≤ 1, two in (2, 4].
        let series = hist_series(&[&[0.5, 0.5], &[3.0, 3.5]]);
        // Strictly above 2.0: only the newest frame's two observations.
        let above = series.window_fraction_above(1, 2.0).unwrap();
        assert!((above - 1.0).abs() < 1e-12);
        // Over the whole series: 2 of 4.
        let above_all = series.window_fraction_above(10, 2.0).unwrap();
        assert!((above_all - 0.5).abs() < 1e-12);
        // Straddling threshold interpolates within the bucket: 3.0 splits
        // (2, 4] in half, so half of that bucket's mass counts.
        let above_mid = series.window_fraction_above(10, 3.0).unwrap();
        assert!((above_mid - 0.25).abs() < 1e-12);
        // Below: the first bucket's range is unbounded below, so its mass
        // counts fully below any threshold above its upper bound.
        let below = series.window_fraction_below(10, 1.0).unwrap();
        assert!((below - 0.5).abs() < 1e-12);
        // Empty window reads nothing.
        let quiet = hist_series(&[&[0.5], &[]]);
        assert!(quiet.window_fraction_above(1, 0.0).is_none());
    }

    #[test]
    fn store_records_every_metric_and_honors_exclusions() {
        let metrics = Metrics::collecting();
        metrics.counter("store.spills").add(2);
        metrics.counter("engine.steal").add(9);
        metrics.gauge("drift.level").set(1.0);
        metrics.histogram_with_bounds("io", &[1.0]).observe(0.5);

        let mut store = TelemetryStore::new(8).with_exclude_prefixes(vec![String::from("engine.")]);
        store.record(60.0, &metrics.snapshot());
        metrics.counter("store.spills").add(3);
        store.record(120.0, &metrics.snapshot());

        assert_eq!(store.samples(), 2);
        assert!((store.last_at_secs - 120.0).abs() < 1e-12);
        assert_eq!(store.series_count(), 3);
        assert!(!store.counters.contains_key("engine.steal"));
        assert_eq!(store.counters["store.spills"].len(), 2);
        assert!((store.counter_delta("store.spills", 1).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(store.gauge_series("drift.level").unwrap().len(), 2);
        assert_eq!(store.histogram_series("io").unwrap().len(), 2);
    }

    #[test]
    fn csv_and_json_exports_are_well_formed() {
        let metrics = Metrics::collecting();
        metrics.counter("a").inc();
        metrics.gauge("g").set(2.5);
        metrics.histogram_with_bounds("h", &[1.0]).observe(0.5);
        let mut store = TelemetryStore::new(4);
        store.record(1.0, &metrics.snapshot());
        store.record(2.0, &metrics.snapshot());

        let csv = store.to_csv();
        assert!(csv.starts_with("kind,name,at_secs,value,count,sum\n"));
        assert!(csv.contains("counter,a,1,1,,"));
        assert!(csv.contains("gauge,g,2,2.5,,"));
        assert!(csv.contains("histogram,h,2,,1,0.5"));

        let json = store.to_json();
        assert!(json.contains("\"samples\": 2"));
        assert!(json.contains("\"a\": [[1, 1], [2, 1]]"));
        assert!(json.contains("\"bounds\": [1]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
