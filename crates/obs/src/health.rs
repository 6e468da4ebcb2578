//! Live thread-health accounting.
//!
//! The paper's method is phase-level time attribution; this module makes
//! the same attribution *continuous* for the runtime's service threads.
//! A [`ThreadHealth`] is a lock-free cell a thread credits its wall time
//! into, classified by [`TimeBucket`] (lock-wait / drain / device-poll /
//! park). Crediting is contiguous — each clock-read segment lands in
//! exactly one bucket — so the buckets sum to the covered wall time by
//! construction, and a duty-cycle read is just four atomic loads.
//!
//! [`AtomicHist`] is the lock-free sibling of
//! [`LatencyHist`](crate::LatencyHist): same 496-slot log-bucketed
//! layout, relaxed-atomic counters, so hot paths (engine-mutex
//! acquisition, wakeup-to-drain) can record without taking any lock.
//!
//! Everything here is clock-agnostic: callers pass `now_ns` values from
//! whatever clock the tracer uses (the device clock), keeping the
//! discipline uniform across post-hoc traces and live health.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::hist::{LatencyHist, PercentileSummary, NBUCKETS};

/// Classification of a service thread's wall time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimeBucket {
    /// Waiting to acquire the engine mutex.
    LockWait = 0,
    /// Holding the engine mutex, handling frames / advancing protocol.
    Drain = 1,
    /// Polling or reading the device outside the lock.
    Poll = 2,
    /// Parked / sleeping / idle backoff.
    Park = 3,
}

impl TimeBucket {
    /// Stable lowercase name, used as a Prometheus label value.
    pub fn name(self) -> &'static str {
        match self {
            TimeBucket::LockWait => "lock_wait",
            TimeBucket::Drain => "drain",
            TimeBucket::Poll => "poll",
            TimeBucket::Park => "park",
        }
    }

    /// All buckets, in label order.
    pub const ALL: [TimeBucket; 4] = [
        TimeBucket::LockWait,
        TimeBucket::Drain,
        TimeBucket::Poll,
        TimeBucket::Park,
    ];
}

/// Lock-free log-bucketed histogram. Same bucket layout as
/// [`LatencyHist`]; recording is a handful of relaxed atomic RMWs, so
/// it is safe to call from any thread without coordination. Snapshots
/// are not atomic across buckets — fine for monitoring, where a sample
/// landing one snapshot late is invisible.
pub struct AtomicHist {
    counts: Box<[AtomicU64; NBUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHist {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array through a Vec.
        let counts: Vec<AtomicU64> = (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; NBUCKETS]> = counts
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("NBUCKETS-length vec fits its own array"));
        AtomicHist {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (relaxed ordering throughout).
    #[inline]
    pub fn record(&self, ns: u64) {
        let idx = crate::hist::bucket_index(ns);
        self.counts[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(ns, Relaxed);
        self.min.fetch_min(ns, Relaxed);
        self.max.fetch_max(ns, Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Copy the current contents into a plain [`LatencyHist`] for
    /// percentile math and merging.
    pub fn snapshot(&self) -> LatencyHist {
        let mut h = LatencyHist::new();
        for (idx, c) in self.counts.iter().enumerate() {
            let n = c.load(Relaxed);
            if n > 0 {
                h.add_bucket(idx, n);
            }
        }
        h.set_stats(
            self.count.load(Relaxed),
            self.sum.load(Relaxed) as u128,
            self.min.load(Relaxed),
            self.max.load(Relaxed),
        );
        h
    }

    /// Percentile roll-up of the current contents.
    pub fn summary(&self) -> PercentileSummary {
        self.snapshot().summary()
    }
}

/// Live wall-time accounting for one service thread (progress loop,
/// mesh reader). The owning thread credits contiguous clock segments
/// via [`credit`](Self::credit); any thread may snapshot concurrently.
#[derive(Default)]
pub struct ThreadHealth {
    buckets: [AtomicU64; 4],
    wakeups: AtomicU64,
    frames: AtomicU64,
    /// First segment start, 0 = not yet started (a real 0 ns start is
    /// indistinguishable and harmless: wall time is measured from it).
    start_ns: AtomicU64,
    last_ns: AtomicU64,
    wakeup_to_drain: AtomicHist,
}

impl ThreadHealth {
    /// A fresh, zeroed accounting cell.
    pub fn new() -> Self {
        Self {
            wakeup_to_drain: AtomicHist::new(),
            ..Default::default()
        }
    }

    /// Credit the wall segment `[from_ns, to_ns)` to `bucket`. Segments
    /// must be contiguous (each `to_ns` is the next call's `from_ns`)
    /// so that the buckets sum to the covered wall time exactly.
    #[inline]
    pub fn credit(&self, bucket: TimeBucket, from_ns: u64, to_ns: u64) {
        self.buckets[bucket as usize].fetch_add(to_ns.saturating_sub(from_ns), Relaxed);
        let _ = self
            .start_ns
            .compare_exchange(0, from_ns.max(1), Relaxed, Relaxed);
        self.last_ns.fetch_max(to_ns, Relaxed);
    }

    /// Count one productive wakeup (a drain burst that handled frames).
    #[inline]
    pub fn add_wakeup(&self) {
        self.wakeups.fetch_add(1, Relaxed);
    }

    /// Count `n` frames handled by this thread.
    #[inline]
    pub fn add_frames(&self, n: u64) {
        self.frames.fetch_add(n, Relaxed);
    }

    /// Record one wakeup-to-drain latency sample: wall time from the
    /// thread noticing work until the first frame was handled.
    #[inline]
    pub fn record_wakeup_to_drain(&self, ns: u64) {
        self.wakeup_to_drain.record(ns);
    }

    /// Nanoseconds credited to `bucket` so far.
    pub fn bucket_ns(&self, bucket: TimeBucket) -> u64 {
        self.buckets[bucket as usize].load(Relaxed)
    }

    /// Point-in-time roll-up.
    pub fn snapshot(&self, name: &str) -> ThreadHealthSnapshot {
        let lock_wait_ns = self.bucket_ns(TimeBucket::LockWait);
        let drain_ns = self.bucket_ns(TimeBucket::Drain);
        let poll_ns = self.bucket_ns(TimeBucket::Poll);
        let park_ns = self.bucket_ns(TimeBucket::Park);
        let start = self.start_ns.load(Relaxed);
        let wall_ns = if start == 0 {
            0
        } else {
            self.last_ns.load(Relaxed).saturating_sub(start)
        };
        let accounted = lock_wait_ns + drain_ns + poll_ns + park_ns;
        let frac = |ns: u64| {
            if wall_ns == 0 {
                0.0
            } else {
                ns as f64 / wall_ns as f64
            }
        };
        ThreadHealthSnapshot {
            name: name.to_string(),
            lock_wait_ns,
            drain_ns,
            poll_ns,
            park_ns,
            wall_ns,
            coverage: frac(accounted),
            duty_cycle: frac(lock_wait_ns + drain_ns + poll_ns),
            wakeups: self.wakeups.load(Relaxed),
            frames: self.frames.load(Relaxed),
            wakeup_to_drain: self.wakeup_to_drain.summary(),
        }
    }
}

crate::json_struct! {
    /// Serializable point-in-time view of one thread's [`ThreadHealth`].
    #[derive(Clone, Debug)]
    pub struct ThreadHealthSnapshot {
        /// Thread role, e.g. `"progress"` or `"tcp-mesh-reader"`.
        pub name: String,
        /// Wall time spent waiting for the engine mutex, ns.
        pub lock_wait_ns: u64,
        /// Wall time spent handling frames under the lock, ns.
        pub drain_ns: u64,
        /// Wall time spent polling/reading the device, ns.
        pub poll_ns: u64,
        /// Wall time spent parked or in idle backoff, ns.
        pub park_ns: u64,
        /// Wall time between the first and latest credited segment, ns.
        pub wall_ns: u64,
        /// Fraction of `wall_ns` the buckets account for (≈ 1.0 by
        /// construction; < 1.0 only for time between credit calls).
        pub coverage: f64,
        /// Fraction of wall time spent *not* parked.
        pub duty_cycle: f64,
        /// Productive wakeups (drain bursts that handled ≥ 1 frame).
        pub wakeups: u64,
        /// Frames handled by this thread.
        pub frames: u64,
        /// Wakeup-to-first-frame-handled latency distribution.
        pub wakeup_to_drain: PercentileSummary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_credits_sum_to_wall_time() {
        let h = ThreadHealth::new();
        // Four contiguous segments covering [100, 1100).
        h.credit(TimeBucket::Poll, 100, 300);
        h.credit(TimeBucket::LockWait, 300, 350);
        h.credit(TimeBucket::Drain, 350, 900);
        h.credit(TimeBucket::Park, 900, 1100);
        let s = h.snapshot("t");
        assert_eq!(s.wall_ns, 1000);
        assert_eq!(
            s.lock_wait_ns + s.drain_ns + s.poll_ns + s.park_ns,
            s.wall_ns
        );
        assert!((s.coverage - 1.0).abs() < 1e-9);
        assert!((s.duty_cycle - 0.8).abs() < 1e-9);
    }

    #[test]
    fn backwards_clock_segment_credits_zero() {
        let h = ThreadHealth::new();
        h.credit(TimeBucket::Drain, 500, 400); // clock step: no negative delta
        assert_eq!(h.bucket_ns(TimeBucket::Drain), 0);
    }

    #[test]
    fn atomic_hist_matches_latency_hist() {
        let a = AtomicHist::new();
        let mut l = LatencyHist::new();
        for v in [1u64, 9, 250, 4_000, 1_000_000, u64::MAX / 3] {
            a.record(v);
            l.record(v);
        }
        assert_eq!(a.summary(), l.summary());
    }

    #[test]
    fn snapshot_serializes() {
        let h = ThreadHealth::new();
        h.credit(TimeBucket::Drain, 0, 100);
        h.add_wakeup();
        h.add_frames(3);
        h.record_wakeup_to_drain(42);
        let json = crate::to_json(&h.snapshot("progress")).unwrap();
        crate::json::validate(&json).unwrap();
        assert!(json.contains(r#""name":"progress""#), "{json}");
        assert!(json.contains(r#""frames":3"#), "{json}");
    }
}
