//! Seconds-to-nanoseconds bridge between device clocks and tracing.
//!
//! The simulator (`lmpi-sim`) keeps virtual time as `u64` nanoseconds; the
//! real-thread and real-socket devices keep wall time as an `Instant`
//! offset. Both already surface seconds through `Device::wtime()`, so the
//! bridge into tracing is a single conversion: [`secs_to_ns`].

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
}
