//! Rule-based SLA alerting over a [`MetricsSnapshot`], and the one
//! [`Monitor`] every rule set runs in.
//!
//! An [`AlertMonitor`] holds threshold rules over the metrics the platform
//! already exports — gauges, counters, counter ratios, histogram minima and
//! quantiles — and evaluates them against a snapshot, producing typed
//! [`Alert`]s. The deployment loop appends fired alerts to the structured
//! event log and to `DeploymentResult`, so SLA violations (a negative Eq. 6
//! fire margin, a climbing disk-retry rate, observed utilization μ drifting
//! from the uniform prediction of Eq. 5) surface without log spelunking.
//!
//! Rules over metrics that were never recorded simply do not fire — a rule
//! set is safe to evaluate against any snapshot.

use crate::snapshot::MetricsSnapshot;

/// What a rule measures, read from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertSignal {
    /// A counter's value (absent ⇒ no reading).
    Counter(String),
    /// A gauge's value (absent ⇒ no reading).
    Gauge(String),
    /// The smallest observation of a histogram (empty ⇒ no reading).
    HistogramMin(String),
    /// An upper bound on a histogram quantile (see
    /// [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile)).
    HistogramQuantile {
        /// Histogram name.
        name: String,
        /// Quantile in `[0, 1]`, e.g. `0.99`.
        q: f64,
    },
    /// `numerator / denominator` over two counters (denominator 0 ⇒ no
    /// reading — a rate over nothing is not an SLA violation).
    CounterRatio {
        /// Numerator counter name.
        numerator: String,
        /// Denominator counter name.
        denominator: String,
    },
    /// `|a - b|` over two gauges (either absent ⇒ no reading).
    GaugeGap {
        /// First gauge name.
        a: String,
        /// Second gauge name.
        b: String,
    },
}

impl AlertSignal {
    /// Reads the signal from `snap`; `None` when the underlying metrics are
    /// absent or the signal is undefined.
    pub fn read(&self, snap: &MetricsSnapshot) -> Option<f64> {
        match self {
            AlertSignal::Counter(name) => snap.counters.get(name).map(|v| *v as f64),
            AlertSignal::Gauge(name) => snap.gauges.get(name).copied(),
            AlertSignal::HistogramMin(name) => {
                snap.histogram(name).filter(|h| h.count > 0).map(|h| h.min)
            }
            AlertSignal::HistogramQuantile { name, q } => {
                snap.histogram(name).and_then(|h| h.quantile(*q))
            }
            AlertSignal::CounterRatio {
                numerator,
                denominator,
            } => {
                let den = snap.counters.get(denominator).copied().unwrap_or(0);
                (den > 0).then(|| snap.counter(numerator) as f64 / den as f64)
            }
            AlertSignal::GaugeGap { a, b } => match (snap.gauges.get(a), snap.gauges.get(b)) {
                (Some(x), Some(y)) => Some((x - y).abs()),
                _ => None,
            },
        }
    }
}

/// Direction of a threshold breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertOp {
    /// Fire when the signal is strictly above the threshold.
    Above,
    /// Fire when the signal is strictly below the threshold.
    Below,
}

/// One named threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name, dot-namespaced (becomes the alert's name).
    pub name: String,
    /// What to measure.
    pub signal: AlertSignal,
    /// Breach direction.
    pub op: AlertOp,
    /// Threshold value.
    pub threshold: f64,
}

/// A rule a [`Monitor`] evaluates: it has a name and reads its own input —
/// a [`MetricsSnapshot`] for an [`AlertRule`], a
/// [`TelemetryStore`](crate::TelemetryStore) for a
/// [`BurnRule`](crate::BurnRule).
pub trait Rule {
    /// What the rule reads.
    type Input;

    /// Stable rule name (becomes the alert's name).
    fn name(&self) -> &str;

    /// Evaluates the rule, returning an alert when it fires.
    fn check(&self, input: &Self::Input, at_secs: f64) -> Option<Alert>;
}

impl Rule for AlertRule {
    type Input = MetricsSnapshot;

    fn name(&self) -> &str {
        &self.name
    }

    fn check(&self, snap: &MetricsSnapshot, at_secs: f64) -> Option<Alert> {
        let value = self.signal.read(snap)?;
        let fired = match self.op {
            AlertOp::Above => value > self.threshold,
            AlertOp::Below => value < self.threshold,
        };
        fired.then(|| Alert {
            rule: self.name.clone(),
            value,
            threshold: self.threshold,
            at_secs,
            fired_count: 1,
        })
    }
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: String,
    /// The signal value that breached.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Clock seconds when the evaluation ran.
    pub at_secs: f64,
    /// How many times this rule has fired so far on the
    /// [`Monitor`] that admitted it, including this alert (1 for a
    /// rule's first firing, so always 1 from a fresh monitor's first
    /// [`observe`](Monitor::observe)).
    pub fired_count: u64,
}

impl Alert {
    /// Human-readable one-liner, used as event-log detail.
    pub fn message(&self) -> String {
        format!(
            "{}: value {} breaches threshold {}",
            self.rule, self.value, self.threshold
        )
    }
}

/// Per-rule firing state: when the rule last fired and how many firings
/// were admitted.
#[derive(Debug, Clone, Default, PartialEq)]
struct FireState {
    last_fired_at_secs: Option<f64>,
    fired_count: u64,
}

impl FireState {
    /// Admits a firing at `at_secs` unless the rule is still inside its
    /// cooldown.
    fn admit(&mut self, at_secs: f64, cooldown_secs: f64) -> bool {
        let in_cooldown = self
            .last_fired_at_secs
            .is_some_and(|last| at_secs - last < cooldown_secs);
        if in_cooldown {
            false
        } else {
            self.last_fired_at_secs = Some(at_secs);
            self.fired_count += 1;
            true
        }
    }
}

/// A set of rules evaluated together: [`AlertMonitor`] over threshold
/// rules, [`SloMonitor`](crate::SloMonitor) over burn rules.
///
/// The one evaluation path is [`observe`](Self::observe), which tracks
/// per-rule state: a rule that fired re-fires only after
/// [`with_cooldown`](Self::with_cooldown) clock seconds have passed
/// (`f64::INFINITY`, the telemetry default, dedups to one firing per run),
/// and each admitted alert carries its rule's cumulative
/// [`fired_count`](Alert::fired_count) — so `DeploymentResult::alerts`
/// stays bounded no matter how long the run. A fresh monitor has no state
/// yet, so its first `observe` reports every breaching rule in rule order:
/// that is the end-of-run sweep of a deployment without telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct Monitor<R> {
    rules: Vec<R>,
    cooldown_secs: f64,
    state: Vec<FireState>,
}

/// Threshold rules over a [`MetricsSnapshot`].
pub type AlertMonitor = Monitor<AlertRule>;

impl<R> Default for Monitor<R> {
    fn default() -> Self {
        Self {
            rules: Vec::new(),
            cooldown_secs: 0.0,
            state: Vec::new(),
        }
    }
}

impl<R: Rule> Monitor<R> {
    /// An empty monitor with no cooldown (every evaluation may fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: R) -> Self {
        self.rules.push(rule);
        self
    }

    /// Sets the per-rule refire cooldown in clock seconds (builder style);
    /// `f64::INFINITY` dedups each rule to a single firing.
    #[must_use]
    pub fn with_cooldown(mut self, cooldown_secs: f64) -> Self {
        self.cooldown_secs = cooldown_secs.max(0.0);
        self
    }

    /// The configured rules.
    fn rules(&self) -> &[R] {
        &self.rules
    }

    /// Times rule `name` has fired through [`observe`](Self::observe).
    pub fn fired_count(&self, name: &str) -> u64 {
        self.rules()
            .iter()
            .zip(self.state.iter())
            .find(|(r, _)| r.name() == name)
            .map_or(0, |(_, s)| s.fired_count)
    }

    /// Evaluates every rule against `input`, suppressing rules still
    /// inside their cooldown; admitted alerts in rule order, each stamped
    /// with its rule's cumulative `fired_count`.
    pub fn observe(&mut self, input: &R::Input, at_secs: f64) -> Vec<Alert> {
        self.state.resize_with(self.rules.len(), FireState::default);
        let mut fired = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.state.iter_mut()) {
            let Some(mut alert) = rule.check(input, at_secs) else {
                continue;
            };
            if state.admit(at_secs, self.cooldown_secs) {
                alert.fired_count = state.fired_count;
                fired.push(alert);
            }
        }
        fired
    }
}

impl AlertMonitor {
    /// The deployment loop's default SLA rules over metrics exported since
    /// PR 3:
    ///
    /// - `scheduler.fire_margin_negative` — a proactive fire happened
    ///   *later* than the Eq. 6 interval asked for (margin below zero).
    /// - `store.disk_retry_rate` — more than 20% of disk reads needed
    ///   retries.
    /// - `pm.mu_divergence` — observed materialization utilization μ
    ///   (Eq. 4) diverges from the uniform-assumption prediction (Eq. 5) by
    ///   more than 0.25.
    /// - `store.lost_spills` — any spill was lost past the retry budget.
    /// - `proactive.overrun` — the p99 accounted proactive-training cost
    ///   exceeds the chunk period, i.e. training no longer fits between
    ///   chunk arrivals.
    /// - `checkpoint.staleness` — the last durable checkpoint is more than
    ///   twice the configured interval old (in chunks), so a crash now would
    ///   lose more work than the operator budgeted for. The gauge is only
    ///   exported when checkpointing is enabled; absent ⇒ never fires.
    pub fn deployment_defaults(chunk_period_secs: f64) -> Self {
        Self::new()
            .with_rule(AlertRule {
                name: "scheduler.fire_margin_negative".into(),
                signal: AlertSignal::HistogramMin("scheduler.fire_margin_secs".into()),
                op: AlertOp::Below,
                threshold: 0.0,
            })
            .with_rule(AlertRule {
                name: "store.disk_retry_rate".into(),
                signal: AlertSignal::CounterRatio {
                    numerator: "store.disk_retries".into(),
                    denominator: "store.disk_reads".into(),
                },
                op: AlertOp::Above,
                threshold: 0.2,
            })
            .with_rule(AlertRule {
                name: "pm.mu_divergence".into(),
                signal: AlertSignal::GaugeGap {
                    a: "pm.mu_observed".into(),
                    b: "pm.mu_uniform".into(),
                },
                op: AlertOp::Above,
                threshold: 0.25,
            })
            .with_rule(AlertRule {
                name: "store.lost_spills".into(),
                signal: AlertSignal::Counter("store.lost_spills".into()),
                op: AlertOp::Above,
                threshold: 0.0,
            })
            .with_rule(AlertRule {
                name: "proactive.overrun".into(),
                signal: AlertSignal::HistogramQuantile {
                    name: "proactive.accounted_secs".into(),
                    q: 0.99,
                },
                op: AlertOp::Above,
                threshold: chunk_period_secs,
            })
            .with_rule(AlertRule {
                name: "checkpoint.staleness".into(),
                signal: AlertSignal::Gauge("checkpoint.staleness".into()),
                op: AlertOp::Above,
                threshold: 2.0,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    #[test]
    fn rules_over_absent_metrics_do_not_fire() {
        let mut monitor = AlertMonitor::deployment_defaults(1.0);
        let alerts = monitor.observe(&MetricsSnapshot::default(), 0.0);
        assert!(alerts.is_empty());
    }

    #[test]
    fn each_default_rule_fires_on_a_breaching_snapshot() {
        let metrics = Metrics::collecting();
        metrics
            .histogram_with_bounds("scheduler.fire_margin_secs", &[0.0, 1.0])
            .observe(-0.5);
        metrics.counter("store.disk_reads").add(10);
        metrics.counter("store.disk_retries").add(5);
        metrics.gauge("pm.mu_observed").set(0.4);
        metrics.gauge("pm.mu_uniform").set(0.9);
        metrics.counter("store.lost_spills").inc();
        metrics
            .histogram_with_bounds("proactive.accounted_secs", &[10.0])
            .observe(7.5);
        metrics.gauge("checkpoint.staleness").set(3.5);

        let snap = metrics.snapshot();
        let mut monitor = AlertMonitor::deployment_defaults(1.0);
        let alerts = monitor.observe(&snap, 42.0);
        let names: Vec<&str> = alerts.iter().map(|a| a.rule.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "scheduler.fire_margin_negative",
                "store.disk_retry_rate",
                "pm.mu_divergence",
                "store.lost_spills",
                "proactive.overrun",
                "checkpoint.staleness",
            ]
        );
        for a in &alerts {
            assert!((a.at_secs - 42.0).abs() < 1e-12);
            assert!(a.message().contains(&a.rule));
        }
        // A fresh monitor's first `observe` is the stateless sweep: every
        // breaching rule's own `check`, in rule order, each a first firing.
        let swept: Vec<Alert> = monitor
            .rules()
            .iter()
            .filter_map(|r| r.check(&snap, 42.0))
            .collect();
        assert_eq!(alerts, swept);
        assert!(alerts.iter().all(|a| a.fired_count == 1));
    }

    #[test]
    fn healthy_snapshot_fires_nothing() {
        let metrics = Metrics::collecting();
        metrics
            .histogram_with_bounds("scheduler.fire_margin_secs", &[0.0, 1.0])
            .observe(0.3);
        metrics.counter("store.disk_reads").add(100);
        metrics.counter("store.disk_retries").add(2);
        metrics.gauge("pm.mu_observed").set(0.8);
        metrics.gauge("pm.mu_uniform").set(0.85);
        metrics
            .histogram_with_bounds("proactive.accounted_secs", &[0.5])
            .observe(0.25);

        let mut monitor = AlertMonitor::deployment_defaults(1.0);
        assert!(monitor.observe(&metrics.snapshot(), 0.0).is_empty());
    }

    #[test]
    fn observe_dedups_a_persistently_breaching_gauge() {
        // Regression: without a cooldown the same rule re-fires on every
        // poll while the condition holds, so a long run polling per chunk
        // would grow `DeploymentResult::alerts` without bound.
        let metrics = Metrics::collecting();
        metrics.gauge("checkpoint.staleness").set(5.0);
        let snap = metrics.snapshot();
        let mut uncooled = AlertMonitor::deployment_defaults(1.0);
        let refired: usize = (0..100)
            .map(|t| uncooled.observe(&snap, t as f64).len())
            .sum();
        assert_eq!(refired, 100, "no cooldown re-fires every call");

        // Infinite cooldown: exactly one admitted firing over 100 polls.
        let mut deduped = AlertMonitor::deployment_defaults(1.0).with_cooldown(f64::INFINITY);
        let fired: Vec<Alert> = (0..100)
            .flat_map(|t| deduped.observe(&snap, t as f64))
            .collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "checkpoint.staleness");
        assert_eq!(fired[0].fired_count, 1);
        assert_eq!(deduped.fired_count("checkpoint.staleness"), 1);

        // Finite cooldown: re-fires once per cooldown period, with a
        // cumulative fired_count on each admitted alert.
        let mut cooled = AlertMonitor::deployment_defaults(1.0).with_cooldown(10.0);
        let fired: Vec<Alert> = (0..100)
            .flat_map(|t| cooled.observe(&snap, t as f64))
            .collect();
        assert_eq!(fired.len(), 10);
        assert_eq!(fired.last().unwrap().fired_count, 10);
        assert_eq!(cooled.fired_count("checkpoint.staleness"), 10);

        // A healthy snapshot resets nothing but fires nothing either.
        metrics.gauge("checkpoint.staleness").set(0.0);
        assert!(cooled.observe(&metrics.snapshot(), 1000.0).is_empty());
    }

    #[test]
    fn ratio_with_zero_denominator_reads_nothing() {
        let metrics = Metrics::collecting();
        metrics.counter("store.disk_retries").add(3);
        let signal = AlertSignal::CounterRatio {
            numerator: "store.disk_retries".into(),
            denominator: "store.disk_reads".into(),
        };
        assert_eq!(signal.read(&metrics.snapshot()), None);
    }
}
