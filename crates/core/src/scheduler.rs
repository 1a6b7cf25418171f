//! Proactive-training scheduling (paper §4.1).

/// Runtime observations the dynamic scheduler bases its decision on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerContext {
    /// Arrival period of data chunks in (simulated) seconds.
    pub chunk_period_secs: f64,
    /// `T`: total execution time of the last proactive training, seconds.
    pub last_training_secs: f64,
    /// `pl`: average prediction latency, seconds per query.
    pub avg_prediction_latency: f64,
    /// `pr`: average prediction queries per second.
    pub prediction_rate: f64,
    /// Simulated seconds elapsed since the last proactive training (the
    /// deployment clock, advanced by `chunk_period_secs` per chunk).
    pub elapsed_secs: f64,
    /// Chunks that arrived since the last proactive training.
    pub chunks_since_last: usize,
    /// Concept-drift pressure from the error monitor: `0` stable, `1`
    /// warning, `2` drift. Only [`Scheduler::DriftAdaptive`] reads it.
    pub drift_level: u8,
}

/// When to execute the next proactive training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheduler {
    /// Fire every `every_chunks` arriving chunks — the paper's *static*
    /// scheduling ("executes the proactive training every 5 minutes / every
    /// 5 hours" translates to a fixed chunk count because chunk arrival is
    /// periodic).
    Static {
        /// Chunks between consecutive proactive trainings (≥ 1).
        every_chunks: usize,
    },
    /// The paper's *dynamic* scheduling (Eq. 6): the next training runs
    /// `T' = S · T · pr · pl` seconds after the previous one, guaranteeing
    /// the queries arriving during training (`T·pr`, needing `T·pr·pl`
    /// seconds) are answered first. `S` is the user slack hint:
    /// large (≥ 2) favours query answering, small (1 ≤ S < 2) favours
    /// training.
    Dynamic {
        /// Slack parameter `S ≥ 1`.
        slack: f64,
    },
    /// Static scheduling modulated by the drift monitor — this repository's
    /// implementation of the paper's future work ("native support for
    /// concept drift … and alleviation", §7). Under a drift *warning* the
    /// interval halves; under a full *drift* signal training fires every
    /// chunk until the error stabilizes.
    DriftAdaptive {
        /// Interval (in chunks) while the error stream is stable.
        every_chunks: usize,
    },
}

impl Scheduler {
    /// Decides whether proactive training should run now.
    pub fn should_fire(&self, ctx: &SchedulerContext) -> bool {
        match *self {
            Scheduler::Static { every_chunks } => ctx.chunks_since_last >= every_chunks.max(1),
            Scheduler::Dynamic { slack } => {
                let next_delay = Self::dynamic_interval_secs(slack, ctx);
                // A pathological measurement (NaN or ∞ leaking into T, pr,
                // or pl) must never disable training forever: clamp the
                // interval to zero, i.e. fire at the next opportunity.
                let next_delay = if next_delay.is_finite() {
                    next_delay
                } else {
                    0.0
                };
                // Never fire more than once per chunk; before the first
                // training (T = 0) fire on the first opportunity. When
                // `T·pr·pl` underflows the chunk period — routine in fast
                // synthetic runs with microsecond trainings — Eq. 6
                // degenerates *by design* to firing every chunk
                // (`Static { every_chunks: 1 }`): the training debt is
                // repaid before the next chunk even arrives.
                ctx.chunks_since_last >= 1 && ctx.elapsed_secs >= next_delay
            }
            Scheduler::DriftAdaptive { every_chunks } => {
                let every = match ctx.drift_level {
                    0 => every_chunks.max(1),
                    1 => (every_chunks / 2).max(1),
                    _ => 1,
                };
                ctx.chunks_since_last >= every
            }
        }
    }

    /// The minimum interval (in seconds) Eq. 6 yields for this context —
    /// exposed for tests and reporting.
    pub fn dynamic_interval_secs(slack: f64, ctx: &SchedulerContext) -> f64 {
        slack * ctx.last_training_secs * ctx.prediction_rate * ctx.avg_prediction_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(chunks_since_last: usize) -> SchedulerContext {
        SchedulerContext {
            chunk_period_secs: 60.0,
            last_training_secs: 0.2,
            avg_prediction_latency: 1e-3,
            prediction_rate: 1000.0,
            elapsed_secs: chunks_since_last as f64 * 60.0,
            chunks_since_last,
            drift_level: 0,
        }
    }

    #[test]
    fn static_fires_on_interval() {
        let s = Scheduler::Static { every_chunks: 5 };
        assert!(!s.should_fire(&ctx(4)));
        assert!(s.should_fire(&ctx(5)));
        assert!(s.should_fire(&ctx(9)));
    }

    #[test]
    fn static_interval_zero_is_clamped_to_one() {
        let s = Scheduler::Static { every_chunks: 0 };
        assert!(!s.should_fire(&ctx(0)));
        assert!(s.should_fire(&ctx(1)));
    }

    #[test]
    fn dynamic_eq6_matches_formula() {
        let c = ctx(1);
        // T' = S·T·pr·pl = 2 · 0.2 · 1000 · 1e-3 = 0.4 s
        let interval = Scheduler::dynamic_interval_secs(2.0, &c);
        assert!((interval - 0.4).abs() < 1e-12);
    }

    #[test]
    fn dynamic_fires_once_elapsed_exceeds_interval() {
        // Make the interval larger than one chunk period: S·T·pr·pl =
        // 4·30·10·1 = 1200 s = 20 chunk periods.
        let slow = SchedulerContext {
            chunk_period_secs: 60.0,
            last_training_secs: 30.0,
            avg_prediction_latency: 1.0,
            prediction_rate: 10.0,
            elapsed_secs: 0.0,
            chunks_since_last: 0,
            drift_level: 0,
        };
        let s = Scheduler::Dynamic { slack: 4.0 };
        assert!(!s.should_fire(&SchedulerContext {
            elapsed_secs: 19.0 * 60.0,
            chunks_since_last: 19,
            ..slow
        }));
        assert!(s.should_fire(&SchedulerContext {
            elapsed_secs: 20.0 * 60.0,
            chunks_since_last: 20,
            ..slow
        }));
    }

    #[test]
    fn dynamic_fires_immediately_before_first_training() {
        let fresh = SchedulerContext {
            last_training_secs: 0.0,
            ..ctx(1)
        };
        assert!(Scheduler::Dynamic { slack: 2.0 }.should_fire(&fresh));
        let zero = SchedulerContext {
            elapsed_secs: 0.0,
            chunks_since_last: 0,
            ..fresh
        };
        assert!(!Scheduler::Dynamic { slack: 2.0 }.should_fire(&zero));
    }

    #[test]
    fn dynamic_clamps_non_finite_intervals_to_fire() {
        // A NaN or infinite measurement must degrade to "train at the next
        // opportunity", never to "never train again".
        for bad in [f64::NAN, f64::INFINITY] {
            let c = SchedulerContext {
                last_training_secs: bad,
                ..ctx(1)
            };
            assert!(
                Scheduler::Dynamic { slack: 2.0 }.should_fire(&c),
                "T = {bad} must not disable training"
            );
        }
    }

    #[test]
    fn dynamic_sub_period_interval_degenerates_to_every_chunk() {
        // T·pr·pl far below the chunk period: documented Static{1} behaviour.
        let c = ctx(1); // interval = 2·0.2·1000·1e-3 = 0.4 s ≪ 60 s period
        assert!(Scheduler::Dynamic { slack: 2.0 }.should_fire(&c));
    }

    #[test]
    fn drift_adaptive_tightens_under_pressure() {
        let s = Scheduler::DriftAdaptive { every_chunks: 8 };
        // Stable: fires at the base interval.
        assert!(!s.should_fire(&SchedulerContext {
            drift_level: 0,
            ..ctx(7)
        }));
        assert!(s.should_fire(&SchedulerContext {
            drift_level: 0,
            ..ctx(8)
        }));
        // Warning: interval halves.
        assert!(s.should_fire(&SchedulerContext {
            drift_level: 1,
            ..ctx(4)
        }));
        assert!(!s.should_fire(&SchedulerContext {
            drift_level: 1,
            ..ctx(3)
        }));
        // Drift: every chunk.
        assert!(s.should_fire(&SchedulerContext {
            drift_level: 2,
            ..ctx(1)
        }));
    }

    #[test]
    fn larger_slack_means_less_frequent_training() {
        let base = SchedulerContext {
            chunk_period_secs: 1.0,
            last_training_secs: 2.0,
            avg_prediction_latency: 0.5,
            prediction_rate: 4.0,
            elapsed_secs: 5.0,
            chunks_since_last: 5,
            drift_level: 0,
        };
        // interval(S=1) = 4 s → fires at 5 chunks; interval(S=2) = 8 s → not yet.
        assert!(Scheduler::Dynamic { slack: 1.0 }.should_fire(&base));
        assert!(!Scheduler::Dynamic { slack: 2.0 }.should_fire(&base));
    }
}
