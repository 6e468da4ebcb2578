//! Nanosecond clock abstraction spanning virtual and wall-clock time.
//!
//! The simulator (`lmpi-sim`) keeps virtual time as `u64` nanoseconds; the
//! real-thread and real-socket devices keep wall time as an `Instant`
//! offset. Both already surface seconds through `Device::wtime()`, so the
//! bridge into tracing is a single conversion: [`secs_to_ns`]. The trait
//! exists for code that wants to be generic over a time source without
//! dragging a `Device` along (histogram benchmarks, report tooling, tests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond time source.
pub trait Clock {
    /// Nanoseconds since this clock's epoch (construction, or simulation
    /// start). Must be monotonically non-decreasing.
    fn now_ns(&self) -> u64;
}

/// Convert a seconds reading (e.g. `Device::wtime()`) to nanoseconds.
///
/// Values are clamped at zero; NaN maps to zero rather than poisoning
/// timestamps downstream.
#[inline]
pub fn secs_to_ns(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e9).round() as u64
    } else {
        0
    }
}

/// Wall-clock [`Clock`] measuring from its own construction.
#[derive(Clone, Debug)]
pub struct MonotonicClock {
    t0: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonotonicClock { t0: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        let ns = self.t0.elapsed().as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced [`Clock`] for tests and deterministic replay.
///
/// Clones share the same underlying counter.
#[derive(Clone, Debug, Default)]
pub struct ManualClock {
    ns: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock starting at `ns` nanoseconds.
    pub fn at(ns: u64) -> Self {
        ManualClock {
            ns: Arc::new(AtomicU64::new(ns)),
        }
    }

    /// Move the clock forward by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.ns.fetch_add(delta_ns, Ordering::Relaxed);
    }

    /// Jump the clock to an absolute reading. Going backwards is allowed
    /// here (tests construct pathological traces on purpose).
    pub fn set(&self, ns: u64) {
        self.ns.store(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_to_ns_converts_and_clamps() {
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(1.0), 1_000_000_000);
        assert_eq!(secs_to_ns(1.5e-6), 1_500);
        assert_eq!(secs_to_ns(-3.0), 0);
        assert_eq!(secs_to_ns(f64::NAN), 0);
    }

    #[test]
    fn manual_clock_shared_between_clones() {
        let c = ManualClock::at(10);
        let c2 = c.clone();
        c.advance(5);
        assert_eq!(c2.now_ns(), 15);
        c2.set(3);
        assert_eq!(c.now_ns(), 3);
    }

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
