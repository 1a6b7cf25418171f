//! SLO burn-rate alerting over recorded telemetry.
//!
//! A [`BurnRule`] watches an error-budget signal — the fraction of "bad"
//! events among recent samples ([`BudgetSignal`]) — and converts it into a
//! *burn rate*: `bad_fraction / error_budget`, where the budget is the
//! fraction of bad events the objective tolerates (a 99% objective has a 1%
//! budget; burn rate 1.0 consumes the budget exactly as fast as allowed).
//! Following the multi-window multi-burn pattern, a rule fires only when
//! **both** a fast window (recent, catches acute breakage) and a slow
//! window (sustained, suppresses blips) burn above their thresholds — so a
//! single bad sample doesn't page, and a slow leak still does.
//!
//! Windows are counted in *samples* of the [`TelemetryStore`], not wall
//! seconds: the deployment loop samples once per chunk on its virtual
//! clock, so burn evaluation is deterministic and engine-independent.
//! Fired alerts reuse the [`Alert`] type and the same cooldown/dedup
//! machinery as [`AlertMonitor`](crate::AlertMonitor), so long runs cannot
//! alert-storm.

use crate::alerts::{Alert, AlertOp, FireState};
use crate::timeseries::TelemetryStore;

/// An error-budget signal: what fraction of recent events were "bad".
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetSignal {
    /// `Δbad / Δtotal` over two counters within the window (no traffic ⇒
    /// no reading — a rate over nothing is not a breach).
    CounterFraction {
        /// Counter of bad events.
        bad: String,
        /// Counter of all events.
        total: String,
    },
    /// Fraction of window samples where a gauge breaches `op threshold`.
    GaugeBreach {
        /// Gauge name.
        name: String,
        /// Breach direction.
        op: AlertOp,
        /// Breach threshold.
        threshold: f64,
    },
    /// Fraction of window samples where `|a - b|` exceeds `threshold`.
    GaugeGapAbove {
        /// First gauge name.
        a: String,
        /// Second gauge name.
        b: String,
        /// Gap threshold.
        threshold: f64,
    },
    /// Fraction of histogram observations inside the window strictly above
    /// `threshold` (interpolated within the straddling bucket).
    HistogramAbove {
        /// Histogram name.
        name: String,
        /// Value threshold.
        threshold: f64,
    },
    /// Fraction of histogram observations inside the window strictly below
    /// `threshold`.
    HistogramBelow {
        /// Histogram name.
        name: String,
        /// Value threshold.
        threshold: f64,
    },
}

impl BudgetSignal {
    /// The bad-event fraction over the last `window` samples of `store`;
    /// `None` when the underlying series are absent or saw no traffic.
    fn bad_fraction(&self, store: &TelemetryStore, window: usize) -> Option<f64> {
        match self {
            BudgetSignal::CounterFraction { bad, total } => {
                let dt = store.counter_delta(total, window)?;
                if dt <= 0.0 {
                    return None;
                }
                let db = store.counter_delta(bad, window).unwrap_or(0.0);
                Some((db / dt).clamp(0.0, 1.0))
            }
            BudgetSignal::GaugeBreach {
                name,
                op,
                threshold,
            } => {
                let series = store.gauge_series(name)?;
                let mut total = 0usize;
                let mut bad = 0usize;
                for p in series.last_n(window) {
                    total += 1;
                    let breached = match op {
                        AlertOp::Above => p.value > *threshold,
                        AlertOp::Below => p.value < *threshold,
                    };
                    if breached {
                        bad += 1;
                    }
                }
                (total > 0).then(|| bad as f64 / total as f64)
            }
            BudgetSignal::GaugeGapAbove { a, b, threshold } => {
                let (sa, sb) = (store.gauge_series(a)?, store.gauge_series(b)?);
                let mut total = 0usize;
                let mut bad = 0usize;
                for (pa, pb) in sa.last_n(window).zip(sb.last_n(window)) {
                    total += 1;
                    if (pa.value - pb.value).abs() > *threshold {
                        bad += 1;
                    }
                }
                (total > 0).then(|| bad as f64 / total as f64)
            }
            BudgetSignal::HistogramAbove { name, threshold } => store
                .histogram_series(name)?
                .window_fraction_above(window, *threshold),
            BudgetSignal::HistogramBelow { name, threshold } => store
                .histogram_series(name)?
                .window_fraction_below(window, *threshold),
        }
    }
}

/// One multi-window burn rule over an error-budget signal.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRule {
    /// Stable rule name, dot-namespaced (becomes the alert's name).
    pub name: String,
    /// What fraction of events is "bad".
    pub signal: BudgetSignal,
    /// Tolerated bad fraction (1 − objective); burn = bad / budget.
    pub error_budget: f64,
    /// Fast window length in samples.
    pub fast_window: usize,
    /// Slow window length in samples.
    pub slow_window: usize,
    /// Fast-window burn threshold (e.g. 2.0 = burning twice the budget).
    pub fast_burn: f64,
    /// Slow-window burn threshold (usually 1.0).
    pub slow_burn: f64,
}

impl BurnRule {
    /// Evaluates the rule against `store`; fires when both windows burn at
    /// or above their thresholds. The alert carries the fast burn rate as
    /// its value and the fast threshold as its threshold.
    pub fn check(&self, store: &TelemetryStore, at_secs: f64) -> Option<Alert> {
        let budget = self.error_budget.max(f64::MIN_POSITIVE);
        let fast = self.signal.bad_fraction(store, self.fast_window)? / budget;
        let slow = self.signal.bad_fraction(store, self.slow_window)? / budget;
        (fast >= self.fast_burn && slow >= self.slow_burn).then(|| Alert {
            rule: self.name.clone(),
            value: fast,
            threshold: self.fast_burn,
            at_secs,
            fired_count: 1,
        })
    }
}

/// A set of burn rules evaluated together, with per-rule cooldown/dedup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloMonitor {
    rules: Vec<BurnRule>,
    cooldown_secs: f64,
    state: Vec<FireState>,
}

impl SloMonitor {
    /// An empty monitor with no cooldown (every evaluation may fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: BurnRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Sets the per-rule refire cooldown in clock seconds (builder style).
    /// `f64::INFINITY` dedups each rule to a single firing per run.
    #[must_use]
    pub fn with_cooldown(mut self, cooldown_secs: f64) -> Self {
        self.cooldown_secs = cooldown_secs.max(0.0);
        self
    }

    /// The configured rules.
    pub fn rules(&self) -> &[BurnRule] {
        &self.rules
    }

    /// Times rule `name` has fired through [`observe`](Self::observe).
    pub fn fired_count(&self, name: &str) -> u64 {
        self.rules
            .iter()
            .zip(self.state.iter())
            .find(|(r, _)| r.name == name)
            .map_or(0, |(_, s)| s.fired_count)
    }

    /// Evaluates every rule against `store`, suppressing rules still in
    /// cooldown; fired alerts in rule order, each stamped with its rule's
    /// cumulative `fired_count`.
    pub fn observe(&mut self, store: &TelemetryStore, at_secs: f64) -> Vec<Alert> {
        self.state.resize_with(self.rules.len(), FireState::default);
        let mut fired = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.state.iter_mut()) {
            let Some(mut alert) = rule.check(store, at_secs) else {
                continue;
            };
            if state.admit(at_secs, self.cooldown_secs) {
                alert.fired_count = state.fired_count;
                fired.push(alert);
            }
        }
        fired
    }

    /// The deployment loop's default burn rules over the platform's SLA
    /// surfaces (windows in chunk-samples; fast must burn ≥ 2×, sustained
    /// ≥ 1×):
    ///
    /// - `slo.fire_margin_burn` — Eq. 6 fire margins going negative: more
    ///   than 5% of recent proactive fires were late.
    /// - `slo.disk_retry_burn` — windowed disk-retry rate above the 20%
    ///   retry budget (the windowed form of `store.disk_retry_rate`, which
    ///   only sees the whole-run average).
    /// - `slo.serving_p99_burn` — more than 1% of served queries inside the
    ///   window exceeded `p99_budget_secs` (the p99 objective itself).
    /// - `slo.mu_divergence_burn` — sampled μ (Eq. 4) diverging from the
    ///   uniform prediction (Eq. 5) by more than 0.25 in over 10% of recent
    ///   samples.
    pub fn deployment_defaults(p99_budget_secs: f64) -> Self {
        Self::new()
            .with_rule(BurnRule {
                name: "slo.fire_margin_burn".into(),
                signal: BudgetSignal::HistogramBelow {
                    name: "scheduler.fire_margin_secs".into(),
                    threshold: 0.0,
                },
                error_budget: 0.05,
                fast_window: 8,
                slow_window: 64,
                fast_burn: 2.0,
                slow_burn: 1.0,
            })
            .with_rule(BurnRule {
                name: "slo.disk_retry_burn".into(),
                signal: BudgetSignal::CounterFraction {
                    bad: "store.disk_retries".into(),
                    total: "store.disk_reads".into(),
                },
                error_budget: 0.2,
                fast_window: 8,
                slow_window: 64,
                fast_burn: 2.0,
                slow_burn: 1.0,
            })
            .with_rule(BurnRule {
                name: "slo.serving_p99_burn".into(),
                signal: BudgetSignal::HistogramAbove {
                    name: "serving.latency_secs".into(),
                    threshold: p99_budget_secs,
                },
                error_budget: 0.01,
                fast_window: 8,
                slow_window: 64,
                fast_burn: 2.0,
                slow_burn: 1.0,
            })
            .with_rule(BurnRule {
                name: "slo.mu_divergence_burn".into(),
                signal: BudgetSignal::GaugeGapAbove {
                    a: "pm.mu_observed".into(),
                    b: "pm.mu_uniform".into(),
                    threshold: 0.25,
                },
                error_budget: 0.1,
                fast_window: 8,
                slow_window: 64,
                fast_burn: 2.0,
                slow_burn: 1.0,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn store_with_retries(rounds: &[(u64, u64)]) -> TelemetryStore {
        let metrics = Metrics::collecting();
        let mut store = TelemetryStore::new(128);
        for (i, (reads, retries)) in rounds.iter().enumerate() {
            metrics.counter("store.disk_reads").add(*reads);
            metrics.counter("store.disk_retries").add(*retries);
            store.record(i as f64, &metrics.snapshot());
        }
        store
    }

    #[test]
    fn counter_fraction_is_windowed_not_cumulative() {
        // 20 healthy rounds, then 4 rounds at 100% retry: the whole-run
        // ratio is diluted, the windowed fraction is not.
        let mut rounds = vec![(10u64, 0u64); 20];
        rounds.extend([(10, 10); 4]);
        let store = store_with_retries(&rounds);
        let signal = BudgetSignal::CounterFraction {
            bad: "store.disk_retries".into(),
            total: "store.disk_reads".into(),
        };
        let fast = signal.bad_fraction(&store, 4).unwrap();
        assert!((fast - 1.0).abs() < 1e-12, "{fast}");
        let slow = signal.bad_fraction(&store, 20).unwrap();
        assert!((slow - 0.2).abs() < 1e-12, "{slow}");
    }

    #[test]
    fn burn_rule_requires_both_windows() {
        let rule = BurnRule {
            name: "slo.disk_retry_burn".into(),
            signal: BudgetSignal::CounterFraction {
                bad: "store.disk_retries".into(),
                total: "store.disk_reads".into(),
            },
            error_budget: 0.2,
            fast_window: 2,
            slow_window: 16,
            fast_burn: 2.0,
            slow_burn: 1.0,
        };
        // One acutely bad round after a long healthy tail: the fast window
        // burns but the slow window does not — no page.
        let mut rounds = vec![(10u64, 0u64); 30];
        rounds.push((10, 10));
        let store = store_with_retries(&rounds);
        assert!(rule.check(&store, 31.0).is_none());
        // A sustained breach burns both windows and fires.
        let mut rounds = vec![(10u64, 0u64); 10];
        rounds.extend([(10, 8); 16]);
        let store = store_with_retries(&rounds);
        let alert = rule.check(&store, 26.0).unwrap();
        assert_eq!(alert.rule, "slo.disk_retry_burn");
        assert!(alert.value >= 2.0);
    }

    #[test]
    fn monitor_cooldown_dedups_persistent_burn() {
        let rule = BurnRule {
            name: "slo.disk_retry_burn".into(),
            signal: BudgetSignal::CounterFraction {
                bad: "store.disk_retries".into(),
                total: "store.disk_reads".into(),
            },
            error_budget: 0.2,
            fast_window: 2,
            slow_window: 8,
            fast_burn: 1.0,
            slow_burn: 1.0,
        };
        let mut monitor = SloMonitor::new()
            .with_rule(rule)
            .with_cooldown(f64::INFINITY);
        let metrics = Metrics::collecting();
        let mut store = TelemetryStore::new(64);
        let mut fired_total = 0usize;
        for i in 0..20u64 {
            metrics.counter("store.disk_reads").add(10);
            metrics.counter("store.disk_retries").add(10);
            store.record(i as f64, &metrics.snapshot());
            fired_total += monitor.observe(&store, i as f64).len();
        }
        assert_eq!(fired_total, 1, "infinite cooldown dedups to one firing");
        assert_eq!(monitor.fired_count("slo.disk_retry_burn"), 1);
    }

    #[test]
    fn mu_divergence_and_fire_margin_signals_read_series() {
        let metrics = Metrics::collecting();
        let mut store = TelemetryStore::new(64);
        for i in 0..10 {
            metrics.gauge("pm.mu_observed").set(0.3);
            metrics.gauge("pm.mu_uniform").set(0.9);
            metrics
                .histogram_with_bounds("scheduler.fire_margin_secs", &[0.0, 1.0, 10.0])
                .observe(-0.5);
            store.record(i as f64, &metrics.snapshot());
        }
        let gap = BudgetSignal::GaugeGapAbove {
            a: "pm.mu_observed".into(),
            b: "pm.mu_uniform".into(),
            threshold: 0.25,
        };
        assert!((gap.bad_fraction(&store, 8).unwrap() - 1.0).abs() < 1e-12);
        let margin = BudgetSignal::HistogramBelow {
            name: "scheduler.fire_margin_secs".into(),
            threshold: 0.0,
        };
        assert!((margin.bad_fraction(&store, 8).unwrap() - 1.0).abs() < 1e-12);
        // A monitor over the defaults fires both corresponding rules.
        let mut monitor = SloMonitor::deployment_defaults(0.05);
        let names: Vec<String> = monitor
            .observe(&store, 10.0)
            .into_iter()
            .map(|a| a.rule)
            .collect();
        assert!(names.contains(&"slo.fire_margin_burn".to_string()));
        assert!(names.contains(&"slo.mu_divergence_burn".to_string()));
    }

    #[test]
    fn signals_over_absent_series_read_nothing() {
        let store = TelemetryStore::default();
        let mut monitor = SloMonitor::deployment_defaults(0.05);
        assert!(monitor.observe(&store, 0.0).is_empty());
        assert_eq!(monitor.fired_count("slo.serving_p99_burn"), 0);
    }
}
