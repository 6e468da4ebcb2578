//! Metrics snapshot export: a point-in-time picture of one rank's
//! protocol counters, transport-stack statistics, and latency-histogram
//! summaries, rendered as JSON (via [`lmpi_obs::to_json`]) or Prometheus
//! text exposition format.
//!
//! A snapshot is built on demand ([`crate::Mpi::metrics_snapshot`]) or
//! for each scrape of [`crate::Mpi::serve_metrics`].
//! The Prometheus rendering labels every sample with the rank so a
//! multi-rank job scrapes into one flat series set.

use lmpi_obs::{PercentileSummary, RankStats};

use crate::device::TransportStats;
use crate::engine::Counters;

lmpi_obs::json_struct! {
    /// A named latency-histogram summary attached to a snapshot (e.g. the
    /// ping-pong half-trip distribution an experiment harness records).
    #[derive(Clone, Debug)]
    pub struct HistEntry {
        /// Metric-friendly name (lowercase, underscores — used verbatim as a
        /// Prometheus label value).
        pub name: String,
        /// The percentile summary. All durations are nanoseconds.
        pub summary: PercentileSummary,
    }
}

lmpi_obs::json_struct! {
    /// One row of the collective dispatch tally: how many times the dispatch
    /// layer selected `algorithm` for `collective` on this rank.
    #[derive(Clone, Debug)]
    pub struct CollDispatchEntry {
        /// Collective name (`"bcast"`, `"allreduce"`, ...).
        pub collective: String,
        /// Selected algorithm name (`"binomial"`, `"ring"`, ...).
        pub algorithm: String,
        /// Number of dispatches.
        pub count: u64,
    }
}

lmpi_obs::json_struct! {
    /// Point-in-time metrics for one rank.
    ///
    /// Counter semantics follow the field docs on [`Counters`] and
    /// [`TransportStats`]; the `_hwm` fields are high-water marks
    /// (gauges), `credit_stall_ns` is cumulative device-clock
    /// nanoseconds, everything else is a cumulative count.
    #[derive(Clone, Debug)]
    pub struct MetricsSnapshot {
        /// Rank the snapshot describes.
        pub rank: u32,
        /// Device-clock timestamp the snapshot was taken at (nanoseconds;
        /// virtual on simulated transports, monotonic wall on real ones).
        pub t_ns: u64,
        /// Protocol-engine counters with matching-engine tallies folded in.
        pub counters: Counters,
        /// Reliability / fault-injection statistics for the device stack.
        pub transport: TransportStats,
        /// Optional named histogram summaries.
        pub hists: Vec<HistEntry>,
        /// Collective dispatch tally (one row per collective/algorithm pair
        /// that was actually selected on this rank).
        pub coll_dispatch: Vec<CollDispatchEntry>,
    }
}

impl MetricsSnapshot {
    /// Build a snapshot with no histogram entries.
    pub fn new(rank: u32, t_ns: u64, counters: Counters, transport: TransportStats) -> Self {
        MetricsSnapshot {
            rank,
            t_ns,
            counters,
            transport,
            hists: Vec::new(),
            coll_dispatch: Vec::new(),
        }
    }

    /// Attach the collective dispatch tally (builder-style).
    pub fn with_coll_dispatch(mut self, entries: Vec<CollDispatchEntry>) -> Self {
        self.coll_dispatch = entries;
        self
    }

    /// Attach a named histogram summary (builder-style).
    pub fn with_hist(mut self, name: &str, summary: PercentileSummary) -> Self {
        self.hists.push(HistEntry {
            name: name.to_string(),
            summary,
        });
        self
    }

    /// This snapshot as a lifetime reading for the diagnostic rules
    /// (`span_ns` is `t_ns`; the progress-thread and collective fields
    /// the snapshot does not carry are zero). Two snapshots of one rank
    /// give the run between them: `end.rank_stats().since(&start.rank_stats())`.
    pub fn rank_stats(&self) -> RankStats {
        let (c, t) = (&self.counters, &self.transport);
        RankStats {
            rank: self.rank,
            span_ns: self.t_ns,
            credit_stall_ns: c.credit_stall_ns,
            matches: c.matches,
            unexpected_hits: c.unexpected_hits,
            unexpected_hwm: c.unexpected_hwm,
            match_bin_depth_hwm: c.match_bin_depth_hwm,
            data_frames_sent: t.data_frames_sent,
            retransmits: t.retransmits,
            peers_dead: t.peers_dead,
            ..RankStats::default()
        }
    }

    /// Render as compact JSON.
    pub fn to_json(&self) -> String {
        lmpi_obs::ToJson::to_json(self)
    }

    /// Render in Prometheus text exposition format. Every sample carries
    /// a `rank` label; histogram summaries additionally carry a `hist`
    /// label naming the distribution.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let r = self.rank;
        // One family per tally field, named from the field and described
        // by the first sentence of its doc comment.
        for (prefix, fields) in [
            ("lmpi_", self.counters.fields()),
            ("lmpi_transport_", self.transport.fields()),
        ] {
            for (field, doc, v) in fields {
                let (name, kind) = if field.ends_with("_hwm") {
                    (format!("{prefix}{field}"), "gauge")
                } else {
                    (format!("{prefix}{field}_total"), "counter")
                };
                push_metric(&mut out, &name, &help(doc), kind, r, None, v as f64);
            }
        }
        let c = &self.counters;
        push_metric(
            &mut out,
            "lmpi_caller_frames_total",
            "Frames handled inline by a caller blocked inside the library.",
            "counter",
            r,
            None,
            c.wires_handled.saturating_sub(c.progress_frames) as f64,
        );
        for h in &self.hists {
            let hist = Some(h.name.as_str());
            let s = &h.summary;
            push_metric(
                &mut out,
                "lmpi_hist_count",
                "Samples recorded in the named histogram.",
                "gauge",
                r,
                hist,
                s.count as f64,
            );
            for (name, v) in [
                ("lmpi_hist_min_ns", s.min_ns),
                ("lmpi_hist_p50_ns", s.p50_ns),
                ("lmpi_hist_p90_ns", s.p90_ns),
                ("lmpi_hist_p99_ns", s.p99_ns),
                ("lmpi_hist_p999_ns", s.p999_ns),
                ("lmpi_hist_max_ns", s.max_ns),
            ] {
                push_metric(
                    &mut out,
                    name,
                    "Named-histogram latency quantile (nanoseconds).",
                    "gauge",
                    r,
                    hist,
                    v as f64,
                );
            }
            push_metric(
                &mut out,
                "lmpi_hist_mean_ns",
                "Named-histogram mean latency (nanoseconds).",
                "gauge",
                r,
                hist,
                s.mean_ns,
            );
        }
        for d in &self.coll_dispatch {
            push_metric_labeled(
                &mut out,
                "lmpi_coll_dispatch_total",
                "Collective dispatches by selected algorithm.",
                "counter",
                r,
                &[
                    ("collective", d.collective.as_str()),
                    ("algorithm", d.algorithm.as_str()),
                ],
                d.count as f64,
            );
        }
        out
    }
}

/// A family's HELP text: the first sentence of a field's doc comment, on
/// one line.
fn help(doc: &str) -> String {
    let line = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    match line.find(". ") {
        Some(end) => line[..=end].to_string(),
        None => line,
    }
}

/// Append one metric: `# HELP` / `# TYPE` header plus a single labelled
/// sample. Headers repeat per snapshot (one rank per snapshot), which
/// Prometheus's text format tolerates when scrapes are per-target.
pub(crate) fn push_metric(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    rank: u32,
    hist: Option<&str>,
    value: f64,
) {
    match hist {
        Some(h) => push_metric_labeled(out, name, help, kind, rank, &[("hist", h)], value),
        None => push_metric_labeled(out, name, help, kind, rank, &[], value),
    }
}

/// As [`push_metric`], with arbitrary extra labels after `rank`.
pub(crate) fn push_metric_labeled(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    rank: u32,
    extra: &[(&str, &str)],
    value: f64,
) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = write!(out, "{name}{{rank=\"{rank}\"");
    for (k, v) in extra {
        let _ = write!(out, ",{k}=\"{v}\"");
    }
    let _ = writeln!(out, "}} {value}");
}

/// Check a string parses as Prometheus text exposition format: every
/// non-empty line is a `# HELP`/`# TYPE` comment or a
/// `name{labels} value` sample with a finite value, and every sample is
/// preceded by a `# TYPE` for its metric name. Returns the number of
/// samples, or a description of the first malformed line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if name.is_empty() || !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                return Err(format!("line {}: malformed TYPE comment: {line}", i + 1));
            }
            typed.insert(name);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line}", i + 1))?;
        let name = series.split('{').next().unwrap_or("");
        if name.is_empty()
            || !name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", i + 1));
        }
        if let Some(labels) = series.strip_prefix(name) {
            let braced = labels.starts_with('{') && labels.ends_with('}');
            if !(labels.is_empty() || braced) {
                return Err(format!("line {}: malformed label set: {labels}", i + 1));
            }
        }
        let v: f64 = value
            .parse()
            .map_err(|_| format!("line {}: unparsable value {value:?}", i + 1))?;
        if !v.is_finite() {
            return Err(format!("line {}: non-finite value {value}", i + 1));
        }
        if !typed.contains(name) {
            return Err(format!("line {}: sample before # TYPE for {name}", i + 1));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpi_obs::LatencyHist;

    fn snapshot() -> MetricsSnapshot {
        let c = Counters {
            eager_sent: 7,
            rndv_chunks_sent: 9,
            credit_stall_ns: 1234,
            unexpected_hwm: 3,
            match_bins_hwm: 2,
            ..Counters::default()
        };
        let t = TransportStats {
            retransmits: 5,
            reassembly_evicted: 4,
            heartbeats_sent: 11,
            peers_dead: 1,
            ..TransportStats::default()
        };
        let mut h = LatencyHist::new();
        for v in [100, 200, 300] {
            h.record(v);
        }
        MetricsSnapshot::new(1, 42_000, c, t)
            .with_hist("pingpong_half_trip", h.summary())
            .with_coll_dispatch(vec![
                CollDispatchEntry {
                    collective: "barrier".into(),
                    algorithm: "dissemination".into(),
                    count: 3,
                },
                CollDispatchEntry {
                    collective: "allreduce".into(),
                    algorithm: "ring".into(),
                    count: 2,
                },
            ])
    }

    #[test]
    fn prometheus_rendering_parses_and_carries_the_hwm_gauges() {
        let prom = snapshot().to_prometheus();
        let samples = validate_prometheus(&prom).expect("snapshot must parse");
        assert!(samples > 20, "expected many samples, got {samples}");
        assert!(prom.contains("lmpi_unexpected_hwm{rank=\"1\"} 3"));
        assert!(prom.contains("lmpi_match_bins_hwm{rank=\"1\"} 2"));
        assert!(prom.contains("lmpi_credit_stall_ns_total{rank=\"1\"} 1234"));
        assert!(prom.contains("lmpi_transport_retransmits_total{rank=\"1\"} 5"));
        assert!(prom.contains("lmpi_rndv_chunks_sent_total{rank=\"1\"} 9"));
        assert!(prom.contains("lmpi_transport_reassembly_evicted_total{rank=\"1\"} 4"));
        assert!(prom.contains("lmpi_transport_heartbeats_sent_total{rank=\"1\"} 11"));
        assert!(prom.contains("lmpi_transport_peers_suspected_total{rank=\"1\"} 0"));
        assert!(prom.contains("lmpi_transport_peers_dead_total{rank=\"1\"} 1"));
        assert!(prom.contains("hist=\"pingpong_half_trip\""));
        assert!(prom.contains(
            "lmpi_coll_dispatch_total{rank=\"1\",collective=\"barrier\",algorithm=\"dissemination\"} 3"
        ));
        assert!(prom.contains(
            "lmpi_coll_dispatch_total{rank=\"1\",collective=\"allreduce\",algorithm=\"ring\"} 2"
        ));
    }

    #[test]
    fn prometheus_rendering_derives_who_drained() {
        let mut snap = snapshot();
        snap.counters.wires_handled = 10;
        snap.counters.progress_frames = 4;
        let prom = snap.to_prometheus();
        validate_prometheus(&prom).expect("snapshot must parse");
        assert!(prom.contains("lmpi_progress_frames_total{rank=\"1\"} 4"));
        assert!(prom.contains("lmpi_caller_frames_total{rank=\"1\"} 6"));
    }

    #[test]
    fn json_rendering_validates_and_round_trips_key_fields() {
        let json = snapshot().to_json();
        lmpi_obs::validate_json(&json).expect("snapshot JSON must validate");
        // Captured from the serde-derive exporter this one replaced: the
        // output is a published format, byte for byte.
        assert_eq!(
            json,
            concat!(
                r#"{"rank":1,"t_ns":42000,"counters":{"eager_sent":7,"rndv_sent":0,"rndv_chunks_sent":9,"se"#,
                r#"nds_queued":0,"acks_sent":0,"credits_sent":0,"bytes_sent":0,"bytes_received":0,"wires_ha"#,
                r#"ndled":0,"rsend_errors":0,"unexpected_hwm":3,"credit_stall_ns":1234,"matches":0,"unexpec"#,
                r#"ted_hits":0,"match_bins_hwm":2,"match_bin_depth_hwm":0,"progress_wakeups":0,"progress_frames":0,"pool_grows":0,"rndv_pulled":0,"pull_byt"#,
                r#"es_helped":0},"#,
                r#""transport":{"data_frames_sent":0,"retransmits":5,"dup_suppressed":0,"ooo_dropped":0,"pu"#,
                r#"re_acks_sent":0,"reassembly_evicted":4,"faults_dropped":0,"faults_duplicated":0,"faults_"#,
                r#"reordered":0,"faults_delayed":0,"heartbeats_sent":11,"peers_suspected":0,"peers_dead":1,"#,
                r#""inbox_parks":0,"inbox_wakes":0}"#,
                r#","hists":[{"name":"pingpong_half_trip","summary":{"count":3,"min_ns":100,"max_ns":300,"m"#,
                r#"ean_ns":200,"p50_ns":207,"p90_ns":300,"p99_ns":300,"p999_ns":300}}],"coll_dispatch":[{"c"#,
                r#"ollective":"barrier","algorithm":"dissemination","count":3},{"collective":"allreduce","a"#,
                r#"lgorithm":"ring","count":2}]}"#
            )
        );
        assert!(json.contains("\"rank\":1"));
        assert!(json.contains("\"eager_sent\":7"));
        assert!(json.contains("\"retransmits\":5"));
        assert!(json.contains("\"pingpong_half_trip\""));
    }

    #[test]
    fn validator_rejects_untyped_and_malformed_samples() {
        assert!(validate_prometheus("lmpi_x{rank=\"0\"} 1").is_err());
        assert!(validate_prometheus("# TYPE lmpi_x counter\nlmpi_x{rank=\"0\"} nope").is_err());
        assert!(
            validate_prometheus("# TYPE lmpi_x counter\nlmpi_x{rank=\"0\"} 1")
                .is_ok_and(|n| n == 1)
        );
    }
}
