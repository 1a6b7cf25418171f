//! Injectable time sources.
//!
//! Timing-driven code (span durations, scheduler cadence tests, retry
//! backoff) reads time through the [`Clock`] trait so tests can substitute a
//! deterministic [`VirtualClock`] for the process wall clock.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source measured from an arbitrary epoch.
pub trait Clock: Send + Sync + Debug {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// `now()` in seconds, the unit every metric uses.
    fn now_secs(&self) -> f64 {
        self.now().as_secs_f64()
    }
}

/// The process wall clock: monotonic, epoch = construction time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A deterministic clock that only moves when explicitly advanced.
///
/// Share one instance (via `Arc`) between the code under test and the test
/// driver; every reader observes the same, reproducible timeline.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta`.
    pub(crate) fn advance(&self, delta: Duration) {
        let nanos = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Advances the clock by `secs` seconds (negative or non-finite values
    /// are ignored — the clock is monotonic by construction).
    pub fn advance_secs(&self, secs: f64) {
        if secs.is_finite() && secs > 0.0 {
            self.advance(Duration::from_secs_f64(secs));
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_only_moves_on_advance() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        clock.advance_secs(0.75);
        assert!((clock.now_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn virtual_clock_ignores_pathological_advances() {
        let clock = VirtualClock::new();
        clock.advance_secs(-1.0);
        clock.advance_secs(f64::NAN);
        clock.advance_secs(f64::INFINITY);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn virtual_clock_is_shared_through_arc() {
        let clock = Arc::new(VirtualClock::new());
        let dyn_clock: Arc<dyn Clock> = clock.clone();
        clock.advance(Duration::from_secs(3));
        assert_eq!(dyn_clock.now(), Duration::from_secs(3));
    }
}
