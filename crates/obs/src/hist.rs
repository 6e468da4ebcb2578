//! Log-bucketed latency histograms.
//!
//! HDR-style layout: values below 2^3 get exact buckets; above that each
//! power-of-two octave is split into 8 sub-buckets, bounding relative
//! quantile error at 12.5% across the full `u64` nanosecond range in a
//! fixed 496-slot table. Recording is O(1) with no allocation, so the
//! histogram itself stays inside the tracing overhead budget.

/// Sub-bucket resolution: 2^3 = 8 slices per octave.
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;
pub(crate) const NBUCKETS: usize =
    ((64 - SUB_BITS as usize) << SUB_BITS as usize) + SUB_COUNT as usize;

pub(crate) fn bucket_index(v: u64) -> usize {
    let v = v.max(1);
    let octave = 63 - v.leading_zeros();
    if octave < SUB_BITS {
        v as usize
    } else {
        let sub = (v >> (octave - SUB_BITS)) & (SUB_COUNT - 1);
        (((octave - SUB_BITS + 1) as usize) << SUB_BITS as usize) + sub as usize
    }
}

/// Upper bound of the value range covered by bucket `idx`.
pub(crate) fn bucket_high(idx: usize) -> u64 {
    if idx < SUB_COUNT as usize {
        idx as u64
    } else {
        let octave = (idx >> SUB_BITS as usize) as u32 + SUB_BITS - 1;
        let sub = (idx as u64) & (SUB_COUNT - 1);
        let width = 1u64 << (octave - SUB_BITS);
        (1u64 << octave) + sub * width + (width - 1)
    }
}

crate::json_struct! {
    /// Percentile roll-up of a [`LatencyHist`]. All durations are
    /// nanoseconds; serializes to JSON via [`crate::to_json`].
    #[derive(Copy, Clone, Debug, Default, PartialEq)]
    pub struct PercentileSummary {
        /// Number of recorded samples.
        pub count: u64,
        /// Exact minimum, ns.
        pub min_ns: u64,
        /// Exact maximum, ns.
        pub max_ns: u64,
        /// Exact mean, ns.
        pub mean_ns: f64,
        /// Median (≤ 12.5% bucket error), ns.
        pub p50_ns: u64,
        /// 90th percentile, ns.
        pub p90_ns: u64,
        /// 99th percentile, ns.
        pub p99_ns: u64,
        /// 99.9th percentile, ns.
        pub p999_ns: u64,
    }
}

/// Fixed-size log-bucketed histogram of nanosecond latencies.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Box<[u64; NBUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: Box::new([0; NBUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Saturates (rather than overflows) once a
    /// bucket or the total count reaches `u64::MAX` — at nanosecond
    /// rates that is centuries of samples, but a merge of many saturated
    /// histograms can get there, and a debug-build panic inside the
    /// tracing hot path is the one failure mode observability must not
    /// have.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(ns as u128);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum recorded, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` (0.0 ..= 1.0), within 12.5% bucket error,
    /// clamped to the exact observed [min, max]. Returns 0 if empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            // Saturating: bucket counts can individually sit at u64::MAX
            // after merging saturated histograms.
            seen = seen.saturating_add(c);
            if seen >= target {
                return bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`. Bucket counts, the total count, and the
    /// sum all saturate instead of overflowing, so merging histograms
    /// whose top buckets are already at `u64::MAX` is safe (the summary
    /// degrades gracefully rather than wrapping to nonsense).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Add `n` samples directly to bucket `idx` (snapshot assembly from
    /// atomic shards; see [`crate::health::AtomicHist`]).
    pub(crate) fn add_bucket(&mut self, idx: usize, n: u64) {
        self.counts[idx] = self.counts[idx].saturating_add(n);
    }

    /// Overwrite the aggregate stats (snapshot assembly from atomic
    /// shards, where count/sum/min/max are tracked separately).
    pub(crate) fn set_stats(&mut self, count: u64, sum: u128, min: u64, max: u64) {
        self.count = count;
        self.sum = sum;
        self.min = min;
        self.max = max;
    }

    /// Roll up count / min / max / mean / p50 / p90 / p99 / p999.
    pub fn summary(&self) -> PercentileSummary {
        PercentileSummary {
            count: self.count,
            min_ns: self.min(),
            max_ns: self.max,
            mean_ns: self.mean(),
            p50_ns: self.percentile(0.50),
            p90_ns: self.percentile(0.90),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
        }
    }
}

/// Sliding-window histogram: a ring of time-bucketed [`LatencyHist`]
/// shards, each covering `bucket_ns` of wall time. A query merges the
/// shards still inside the window, so p50/p99/p999 "over the last N
/// seconds" are available live while recording stays O(1).
///
/// The caller supplies timestamps (same clock discipline as the tracer:
/// the device clock, read once per sample by the caller). Recording into
/// a bucket whose epoch has passed first clears it, so stale data ages
/// out lazily — there is no background sweeper thread.
///
/// A window may also [`count`](Self::count) events that carry no latency
/// sample: the summary's `count` is then every event in the window, and
/// its min/mean/max and percentiles describe the recorded sample alone.
#[derive(Clone, Debug)]
pub struct WindowedHist {
    buckets: Vec<LatencyHist>,
    /// Events per shard, recorded or only counted.
    counts: Vec<u64>,
    /// Epoch (`t_ns / bucket_ns`) each slot currently holds. `u64::MAX`
    /// marks a never-used slot.
    epochs: Vec<u64>,
    bucket_ns: u64,
}

impl WindowedHist {
    /// A window of `nbuckets` shards, each spanning `bucket_ns`
    /// nanoseconds. Total window length is `nbuckets * bucket_ns`.
    /// `bucket_ns` is clamped to ≥ 1, `nbuckets` to ≥ 2 (one live shard
    /// plus at least one historical shard).
    pub fn new(nbuckets: usize, bucket_ns: u64) -> Self {
        let nbuckets = nbuckets.max(2);
        WindowedHist {
            buckets: vec![LatencyHist::new(); nbuckets],
            counts: vec![0; nbuckets],
            epochs: vec![u64::MAX; nbuckets],
            bucket_ns: bucket_ns.max(1),
        }
    }

    /// The slot holding wall time `t_ns`, cleared first if it still holds
    /// an older epoch.
    #[inline]
    fn shard(&mut self, t_ns: u64) -> usize {
        let epoch = t_ns / self.bucket_ns;
        let slot = (epoch % self.buckets.len() as u64) as usize;
        if self.epochs[slot] != epoch {
            self.buckets[slot] = LatencyHist::new();
            self.counts[slot] = 0;
            self.epochs[slot] = epoch;
        }
        slot
    }

    /// Record a sample observed at wall time `t_ns`.
    #[inline]
    pub fn record(&mut self, t_ns: u64, ns: u64) {
        let slot = self.shard(t_ns);
        self.buckets[slot].record(ns);
        self.counts[slot] = self.counts[slot].saturating_add(1);
    }

    /// Count `n` events at wall time `t_ns` that carry no sample: they
    /// raise the summary's `count` and leave its distribution alone.
    #[inline]
    pub fn count(&mut self, t_ns: u64, n: u64) {
        if n > 0 {
            let slot = self.shard(t_ns);
            self.counts[slot] = self.counts[slot].saturating_add(n);
        }
    }

    /// Slots still inside the window ending at `now_ns`. Shards older
    /// than the window (or from a future epoch, after a clock step) are
    /// skipped.
    fn live(&self, now_ns: u64) -> impl Iterator<Item = usize> + '_ {
        let now_epoch = now_ns / self.bucket_ns;
        let span = self.buckets.len() as u64;
        (0..self.buckets.len()).filter(move |&slot| {
            let e = self.epochs[slot];
            e != u64::MAX && e <= now_epoch && now_epoch - e < span
        })
    }

    /// Merge the recorded samples of every shard still inside the window
    /// ending at `now_ns` into one histogram.
    pub fn merged(&self, now_ns: u64) -> LatencyHist {
        let mut out = LatencyHist::new();
        for slot in self.live(now_ns) {
            out.merge(&self.buckets[slot]);
        }
        out
    }

    /// Percentile roll-up of the live window ending at `now_ns`; `count`
    /// includes the events that were only counted.
    pub fn summary(&self, now_ns: u64) -> PercentileSummary {
        let count = self
            .live(now_ns)
            .fold(0u64, |n, slot| n.saturating_add(self.counts[slot]));
        PercentileSummary {
            count,
            ..self.merged(now_ns).summary()
        }
    }
}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        write!(
            f,
            "LatencyHist(n={} min={} p50={} p99={} max={})",
            s.count, s.min_ns, s.p50_ns, s.p99_ns, s.max_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut probes: Vec<u64> = (0..64u32)
            .flat_map(|shift| [0i64, 1, 7].map(|near| (1u64 << shift).saturating_add_signed(near)))
            .collect();
        probes.sort_unstable();
        let mut last = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx < NBUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "not monotone at v={v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_high_bounds_its_values() {
        for v in [1u64, 5, 8, 100, 1_000, 65_536, 1_000_000, u64::MAX / 2] {
            let idx = bucket_index(v);
            let hi = bucket_high(idx);
            assert!(hi >= v, "v={v} hi={hi}");
            // Relative error bounded by one sub-bucket width (12.5%).
            assert!(hi as f64 <= v as f64 * 1.125 + 1.0, "v={v} hi={hi}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHist::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert!(h.percentile(0.0) <= 1); // 0 shares bucket 1 (values clamp to ≥ 1)
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1 µs .. 1 ms
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        let within = |got: u64, want: u64| {
            let lo = (want as f64 * 0.875) as u64;
            let hi = (want as f64 * 1.13) as u64;
            (lo..=hi).contains(&got)
        };
        assert!(within(s.p50_ns, 500_000), "p50={}", s.p50_ns);
        assert!(within(s.p90_ns, 900_000), "p90={}", s.p90_ns);
        assert!(within(s.p99_ns, 990_000), "p99={}", s.p99_ns);
        assert!((s.mean_ns - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut both = LatencyHist::new();
        for v in [3u64, 77, 1_000, 123_456] {
            a.record(v);
            both.record(v);
        }
        for v in [9u64, 5_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), both.summary());
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHist::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.p99_ns, 0);
        assert_eq!(s.mean_ns, 0.0);
    }

    #[test]
    fn percentile_on_empty_histogram_is_zero_for_any_quantile() {
        let h = LatencyHist::new();
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.percentile(q), 0, "q={q}");
        }
    }

    /// A histogram whose top bucket (and total count) already sits at
    /// `u64::MAX`, as if assembled by merging many saturated shards.
    fn saturated_at(v: u64) -> LatencyHist {
        let mut h = LatencyHist::new();
        h.record(v);
        h.counts[bucket_index(v)] = u64::MAX;
        h.count = u64::MAX;
        h.sum = u128::MAX;
        h
    }

    #[test]
    fn merge_of_saturated_buckets_saturates_instead_of_overflowing() {
        let v = u64::MAX / 2; // lands in the top octave
        let mut a = saturated_at(v);
        let b = saturated_at(v);
        a.merge(&b); // would panic (debug) or wrap (release) pre-fix
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.counts[bucket_index(v)], u64::MAX);
        assert_eq!(a.max(), v);
        // Percentile scan must also survive u64::MAX bucket counts.
        assert_eq!(a.percentile(0.99), v);
        // record() on a saturated histogram stays saturated too.
        a.record(v);
        assert_eq!(a.count(), u64::MAX);
    }

    #[test]
    fn windowed_hist_ages_out_old_samples() {
        // 4 buckets × 1 ms = 4 ms window.
        let mut w = WindowedHist::new(4, 1_000_000);
        w.record(500_000, 10); // epoch 0
        w.record(1_500_000, 20); // epoch 1
        assert_eq!(w.merged(1_600_000).count(), 2);
        // At t=4.5ms, epoch 0 has aged out; epoch 1 is still visible.
        assert_eq!(w.merged(4_500_000).count(), 1);
        // At t=5.5ms, both are gone.
        assert_eq!(w.merged(5_500_000).count(), 0);
    }

    #[test]
    fn windowed_hist_reuses_stale_slots() {
        let mut w = WindowedHist::new(2, 1_000);
        w.record(500, 1); // epoch 0 → slot 0
        w.record(2_500, 2); // epoch 2 → slot 0 again: clears epoch 0
        let m = w.merged(2_600);
        assert_eq!(m.count(), 1);
        assert_eq!(m.max(), 2);
    }

    #[test]
    fn windowed_summary_tracks_percentiles_live() {
        let mut w = WindowedHist::new(8, 1_000_000);
        for i in 0..1000u64 {
            w.record(i * 1_000, (i + 1) * 100);
        }
        let s = w.summary(1_000_000);
        assert_eq!(s.count, 1000);
        assert!(s.p999_ns >= s.p99_ns && s.p99_ns >= s.p50_ns);
        assert!(s.p999_ns <= s.max_ns);
    }

    #[test]
    fn counted_events_raise_the_count_and_age_out_with_their_shard() {
        let mut w = WindowedHist::new(4, 1_000_000);
        w.record(500_000, 10); // epoch 0
        w.count(500_000, 63);
        w.count(1_500_000, 64); // epoch 1, no sample
        let s = w.summary(1_600_000);
        assert_eq!(s.count, 128);
        assert_eq!((s.min_ns, s.max_ns, s.p50_ns), (10, 10, 10));
        assert_eq!(s.mean_ns, 10.0, "the mean is over the recorded sample");
        // Epoch 0 ages out with its sample and its counted events.
        assert_eq!(w.summary(4_500_000).count, 64);
        assert_eq!(w.summary(4_500_000).max_ns, 0);
        // A reused slot starts from zero.
        w.count(4_500_000, 2);
        assert_eq!(w.summary(4_500_000).count, 66);
    }

    #[test]
    fn p999_is_monotone_with_p99() {
        let mut h = LatencyHist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert!(s.p999_ns >= s.p99_ns, "p999={} p99={}", s.p999_ns, s.p99_ns);
        assert!(s.p999_ns <= s.max_ns);
    }

    #[test]
    fn summary_round_trips_through_the_json_exporter() {
        let mut h = LatencyHist::new();
        for v in [250u64, 1_000, 40_000] {
            h.record(v);
        }
        let s = h.summary();
        let json = crate::to_json(&s).unwrap();
        crate::json::validate(&json).unwrap();
        // Spot-check the exact fields the exporter must carry.
        assert!(json.contains(r#""count":3"#), "{json}");
        assert!(
            json.contains(&format!(r#""min_ns":{}"#, s.min_ns)),
            "{json}"
        );
        assert!(
            json.contains(&format!(r#""max_ns":{}"#, s.max_ns)),
            "{json}"
        );
        assert!(
            json.contains(&format!(r#""p50_ns":{}"#, s.p50_ns)),
            "{json}"
        );
        assert!(
            json.contains(&format!(r#""p99_ns":{}"#, s.p99_ns)),
            "{json}"
        );
    }
}
