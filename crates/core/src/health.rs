//! Live runtime health: thread time accounting, sliding-window tail
//! latency, continuous diagnostics, and the zero-dependency scrape
//! endpoint.
//!
//! The paper's contribution is a *post-hoc* latency accounting (Table 1);
//! this module keeps the same accounting running *live*. Three pieces:
//!
//! * **[`HealthState`]** — per-rank cell hanging off [`Inner`]: the
//!   progress thread's [`ThreadHealth`] duty-cycle buckets, the
//!   engine-mutex contention histogram (sampled only on contended
//!   acquisitions, so the uncontended fast path never reads a clock),
//!   and sliding [`WindowedHist`] rings for send/recv completion and
//!   per-(collective, algorithm) dispatch latency — p50/p99/p999 over
//!   the last ~10 s, queryable while traffic is in flight.
//! * **Continuous diagnostics** — the [`lmpi_obs::diagnose`] rules run
//!   periodically against *rolling counter deltas* (not cumulative
//!   totals), so a retransmit storm or credit stall that starts mid-run
//!   surfaces within one evaluation period; three live-only rules
//!   (progress starvation, window-SLO breach, collective mis-tuning)
//!   ride the same evaluator.
//! * **[`MetricsServer`]** — a `std::net::TcpListener` HTTP responder
//!   (no new dependencies) serving the Prometheus rendering at
//!   `/metrics` and the [`HealthReport`] JSON at `/health`.
//!
//! All timestamps come from the device clock ([`Device::now_ns`]), the
//! same discipline the tracer uses, so live health and post-hoc traces
//! agree on what a nanosecond is.
//!
//! [`Device::now_ns`]: crate::Device::now_ns

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use lmpi_sim::lock::Mutex;

use lmpi_obs::diag::{DiagConfig, DiagKind, Diagnostic, RankStats};
use lmpi_obs::{
    diagnose, AtomicHist, FlightRecord, PercentileSummary, ThreadHealth, ThreadHealthSnapshot,
    TimeBucket, WindowedHist,
};

use crate::device::TransportStats;
use crate::engine::Counters;
use crate::error::{MpiError, MpiResult};
use crate::metrics::push_metric_labeled;
use crate::mpi::Inner;

/// Default diagnostics evaluation period (100 ms of device time).
pub(crate) const DEFAULT_EVAL_PERIOD_NS: u64 = 100_000_000;

/// Sliding-window geometry: 10 one-second shards ≈ "the last 10 s".
const WINDOW_SHARDS: usize = 10;
const WINDOW_SHARD_NS: u64 = 1_000_000_000;

/// Progress-starvation rule: p99 wakeup-to-drain latency above this
/// (with at least [`STARVATION_MIN_SAMPLES`] wakeups observed) means the
/// progress thread is not getting scheduled promptly.
const STARVATION_P99_NS: u64 = 50_000_000;
const STARVATION_MIN_SAMPLES: u64 = 8;

/// Sliding windows for operation-completion latency. One mutex guards
/// all of them; it is taken only on operation *completion* (not per
/// frame), and only when health is enabled.
struct Windows {
    send: WindowedHist,
    recv: WindowedHist,
    /// Per-(collective, algorithm) dispatch-latency windows, first-seen
    /// order. Keys are the `'static` names the dispatch layer already
    /// uses, so lookup is pointer-fast.
    coll: Vec<(&'static str, &'static str, WindowedHist)>,
}

/// Counter values at the previous evaluation, for rolling deltas.
#[derive(Default, Clone, Copy)]
struct PrevTotals {
    credit_stall_ns: u64,
    matches: u64,
    unexpected_hits: u64,
    data_frames_sent: u64,
    retransmits: u64,
    peers_dead: u64,
    mispins: u64,
}

/// Diagnostics evaluator state.
struct DiagState {
    last_eval_ns: u64,
    prev: PrevTotals,
    active: Vec<Diagnostic>,
    evals: u64,
}

/// Per-rank live health accounting (one per [`Inner`]).
pub(crate) struct HealthState {
    /// When false, every hot-path hook is a single branch and no clock
    /// is ever read on behalf of health.
    pub(crate) enabled: bool,
    eval_period_ns: u64,
    diag_cfg: DiagConfig,
    /// Progress-thread duty-cycle buckets (zeroed on ranks without a
    /// progress thread; mostly `Park` while callers block and drain for
    /// themselves).
    pub(crate) progress: ThreadHealth,
    /// Engine-mutex wait-time distribution, sampled at contended
    /// acquisitions in the API hot paths.
    pub(crate) mutex_wait: AtomicHist,
    /// Device-clock time of the next diagnostics evaluation; checked
    /// with one relaxed load per progress-loop wakeup.
    next_eval_ns: AtomicU64,
    windows: Mutex<Windows>,
    diag: Mutex<DiagState>,
}

impl HealthState {
    pub(crate) fn new(enabled: bool, eval_period_ns: u64) -> Self {
        HealthState {
            enabled,
            eval_period_ns: eval_period_ns.max(1),
            diag_cfg: DiagConfig::default(),
            progress: ThreadHealth::new(),
            mutex_wait: AtomicHist::new(),
            next_eval_ns: AtomicU64::new(0),
            windows: Mutex::new(Windows {
                send: WindowedHist::new(WINDOW_SHARDS, WINDOW_SHARD_NS),
                recv: WindowedHist::new(WINDOW_SHARDS, WINDOW_SHARD_NS),
                coll: Vec::new(),
            }),
            diag: Mutex::new(DiagState {
                last_eval_ns: 0,
                prev: PrevTotals::default(),
                active: Vec::new(),
                evals: 0,
            }),
        }
    }

    /// Record one blocking-send completion latency.
    #[inline]
    pub(crate) fn record_send(&self, t_ns: u64, dur_ns: u64) {
        if self.enabled {
            self.windows.lock().send.record(t_ns, dur_ns);
        }
    }

    /// Record one receive completion latency.
    #[inline]
    pub(crate) fn record_recv(&self, t_ns: u64, dur_ns: u64) {
        if self.enabled {
            self.windows.lock().recv.record(t_ns, dur_ns);
        }
    }

    /// Record one collective dispatch duration under its
    /// (collective, algorithm) key.
    pub(crate) fn record_coll(
        &self,
        coll: &'static str,
        algo: &'static str,
        t_ns: u64,
        dur_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut w = self.windows.lock();
        for (c, a, h) in &mut w.coll {
            if *c == coll && *a == algo {
                h.record(t_ns, dur_ns);
                return;
            }
        }
        let mut h = WindowedHist::new(WINDOW_SHARDS, WINDOW_SHARD_NS);
        h.record(t_ns, dur_ns);
        w.coll.push((coll, algo, h));
    }

    /// Record a contended engine-mutex acquisition's wait time.
    #[inline]
    pub(crate) fn record_mutex_wait(&self, ns: u64) {
        self.mutex_wait.record(ns);
    }

    /// Cheap check for the periodic evaluator (one relaxed load).
    #[inline]
    pub(crate) fn eval_due(&self, now_ns: u64) -> bool {
        self.enabled && now_ns >= self.next_eval_ns.load(Ordering::Relaxed)
    }

    /// Run one diagnostics evaluation over the deltas since the last one.
    fn evaluate(
        &self,
        now_ns: u64,
        rank: u32,
        counters: &Counters,
        transport: &TransportStats,
        mispins: &[(&'static str, &'static str, &'static str, u64)],
    ) {
        let mut diag = self.diag.lock();
        if now_ns < self.next_eval_ns.load(Ordering::Relaxed) {
            return; // another thread evaluated while we waited
        }
        self.next_eval_ns.store(
            now_ns.saturating_add(self.eval_period_ns),
            Ordering::Relaxed,
        );
        let prev = diag.prev;
        let span_ns = now_ns.saturating_sub(diag.last_eval_ns).max(1);
        // Rolling deltas for the cumulative counters; the two high-water
        // marks are gauges and pass through as-is.
        let stats = RankStats {
            rank,
            span_ns,
            credit_stall_ns: counters
                .credit_stall_ns
                .saturating_sub(prev.credit_stall_ns),
            matches: counters.matches.saturating_sub(prev.matches),
            unexpected_hits: counters
                .unexpected_hits
                .saturating_sub(prev.unexpected_hits),
            unexpected_hwm: counters.unexpected_hwm,
            match_bins_hwm: counters.match_bins_hwm,
            data_frames_sent: transport
                .data_frames_sent
                .saturating_sub(prev.data_frames_sent),
            retransmits: transport.retransmits.saturating_sub(prev.retransmits),
            peers_dead: transport.peers_dead.saturating_sub(prev.peers_dead),
        };
        let mut found = diagnose(&FlightRecord::default(), &[], &[stats], &self.diag_cfg);

        // Live-only rule: progress-thread starvation. Uses the cumulative
        // wakeup-to-drain distribution — a starved thread keeps pushing
        // its p99 up, so the signal persists while the cause does.
        let wd = self.progress.snapshot("progress").wakeup_to_drain;
        if wd.count >= STARVATION_MIN_SAMPLES && wd.p99_ns >= STARVATION_P99_NS {
            found.push(Diagnostic {
                kind: DiagKind::ProgressStarvation,
                rank,
                summary: format!(
                    "progress thread wakeup-to-drain p99 {} ns over {} wakeups \
                     (threshold {} ns): the thread is not being scheduled promptly",
                    wd.p99_ns, wd.count, STARVATION_P99_NS
                ),
                evidence: Vec::new(),
            });
        }

        // Live-only rule: collective mis-tuning. A pinned algorithm that
        // keeps disagreeing with the decision table's choice is the
        // mis-pinned `coll_tuning.json` cell made visible.
        let total_mispins: u64 = mispins.iter().map(|&(_, _, _, n)| n).sum();
        if total_mispins > prev.mispins {
            let detail: Vec<String> = mispins
                .iter()
                .filter(|&&(_, _, _, n)| n > 0)
                .map(|&(coll, pinned, table, n)| {
                    format!("{coll}: pinned {pinned} vs table {table} ({n}x)")
                })
                .collect();
            found.push(Diagnostic {
                kind: DiagKind::CollMistuned,
                rank,
                summary: format!(
                    "pinned collective algorithm disagrees with the decision table: {}",
                    detail.join("; ")
                ),
                evidence: Vec::new(),
            });
        }

        diag.prev = PrevTotals {
            credit_stall_ns: counters.credit_stall_ns,
            matches: counters.matches,
            unexpected_hits: counters.unexpected_hits,
            data_frames_sent: transport.data_frames_sent,
            retransmits: transport.retransmits,
            peers_dead: transport.peers_dead,
            mispins: total_mispins,
        };
        diag.last_eval_ns = now_ns;
        diag.active = found;
        diag.evals += 1;
    }
}

/// Run the periodic diagnostics evaluation if its period has elapsed.
/// Called from the progress loop's idle edge and from [`crate::Mpi::health`]
/// (so caller-driven ranks evaluate too). Briefly takes the engine lock to
/// fold counters, then evaluates outside it.
pub(crate) fn eval_if_due(inner: &Inner, now_ns: u64) {
    let h = &inner.health;
    if !h.eval_due(now_ns) {
        return;
    }
    let (counters, mispins) = {
        let eng = inner.eng.lock();
        (eng.folded_counters(), eng.coll.mispin_entries())
    };
    let transport = inner.device.transport_stats();
    h.evaluate(
        now_ns,
        inner.device.rank() as u32,
        &counters,
        &transport,
        &mispins,
    );
}

// ---------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------

lmpi_obs::json_struct! {
    /// One (collective, algorithm) sliding-window summary in a
    /// [`HealthReport`].
    #[derive(Clone, Debug)]
    pub struct CollWindow {
        /// Collective name (`"bcast"`, `"barrier"`, ...).
        pub collective: String,
        /// Algorithm the dispatch layer selected.
        pub algorithm: String,
        /// Dispatch-latency distribution over the sliding window.
        pub window: PercentileSummary,
    }
}

lmpi_obs::json_struct! {
    /// A diagnostic finding in a [`HealthReport`] (the serializable face of
    /// [`lmpi_obs::Diagnostic`]).
    #[derive(Clone, Debug)]
    pub struct DiagSummary {
        /// Stable rule name (`"retransmit_storm"`, `"progress_starvation"`, ...).
        pub kind: String,
        /// Rank exhibiting the pathology.
        pub rank: u32,
        /// Human-readable account with the numbers that tripped the rule.
        pub summary: String,
    }
}

lmpi_obs::json_struct! {
    /// Point-in-time live-health picture for one rank: thread duty cycles,
    /// engine-mutex contention, sliding-window tail latency, and the
    /// diagnostics active as of the last evaluation. Serializes to JSON via
    /// [`lmpi_obs::to_json`]; served at `/health` by [`MetricsServer`].
    #[derive(Clone, Debug)]
    pub struct HealthReport {
        /// Rank the report describes.
        pub rank: u32,
        /// Device-clock timestamp of the report, ns.
        pub t_ns: u64,
        /// Whether health accounting is enabled (all-zero report otherwise).
        pub enabled: bool,
        /// Per-service-thread time accounting: the progress thread first,
        /// then any device-owned threads (e.g. the TCP mesh reader).
        pub threads: Vec<ThreadHealthSnapshot>,
        /// Engine-mutex wait-time distribution (contended acquisitions only).
        pub mutex_wait: PercentileSummary,
        /// Blocking-send completion latency over the sliding window.
        pub send_window: PercentileSummary,
        /// Receive completion latency over the sliding window.
        pub recv_window: PercentileSummary,
        /// Per-(collective, algorithm) dispatch latency windows.
        pub coll_windows: Vec<CollWindow>,
        /// Diagnostics active as of the last evaluation.
        pub diagnostics: Vec<DiagSummary>,
        /// Diagnostics evaluations performed so far.
        pub evals: u64,
    }
}

impl HealthReport {
    /// Render as compact JSON.
    pub fn to_json(&self) -> String {
        lmpi_obs::ToJson::to_json(self)
    }
}

/// Build the report. Does not evaluate diagnostics; callers that want
/// fresh findings run [`eval_if_due`] first.
pub(crate) fn build_report(inner: &Inner, now_ns: u64) -> HealthReport {
    let h = &inner.health;
    let mut threads = vec![h.progress.snapshot("progress")];
    for (name, th) in inner.device.thread_health() {
        threads.push(th.snapshot(&name));
    }
    let (send_window, recv_window, coll_windows) = {
        let w = h.windows.lock();
        (
            w.send.summary(now_ns),
            w.recv.summary(now_ns),
            w.coll
                .iter()
                .map(|(c, a, hist)| CollWindow {
                    collective: c.to_string(),
                    algorithm: a.to_string(),
                    window: hist.summary(now_ns),
                })
                .collect::<Vec<_>>(),
        )
    };
    let (diagnostics, evals) = {
        let d = h.diag.lock();
        (
            d.active
                .iter()
                .map(|di| DiagSummary {
                    kind: di.kind.name().to_string(),
                    rank: di.rank,
                    summary: di.summary.clone(),
                })
                .collect::<Vec<_>>(),
            d.evals,
        )
    };
    HealthReport {
        rank: inner.device.rank() as u32,
        t_ns: now_ns,
        enabled: h.enabled,
        threads,
        mutex_wait: h.mutex_wait.summary(),
        send_window,
        recv_window,
        coll_windows,
        diagnostics,
        evals,
    }
}

/// Append the health and window metric families to a Prometheus
/// rendering (each sample carries the rank label like every other
/// family; see [`crate::MetricsSnapshot::to_prometheus`]).
pub(crate) fn render_prometheus(report: &HealthReport, out: &mut String) {
    let r = report.rank;
    for t in &report.threads {
        let th = t.name.as_str();
        for (bucket, ns) in [
            ("lock_wait", t.lock_wait_ns),
            ("drain", t.drain_ns),
            ("poll", t.poll_ns),
            ("park", t.park_ns),
        ] {
            push_metric_labeled(
                out,
                "lmpi_health_thread_time_ns_total",
                "Service-thread wall time by duty-cycle bucket (nanoseconds).",
                "counter",
                r,
                &[("thread", th), ("bucket", bucket)],
                ns as f64,
            );
        }
        push_metric_labeled(
            out,
            "lmpi_health_thread_duty_cycle",
            "Fraction of service-thread wall time spent not parked.",
            "gauge",
            r,
            &[("thread", th)],
            t.duty_cycle,
        );
        push_metric_labeled(
            out,
            "lmpi_health_thread_coverage",
            "Fraction of service-thread wall time the buckets account for.",
            "gauge",
            r,
            &[("thread", th)],
            t.coverage,
        );
        push_metric_labeled(
            out,
            "lmpi_health_thread_wakeups_total",
            "Productive service-thread wakeups.",
            "counter",
            r,
            &[("thread", th)],
            t.wakeups as f64,
        );
        push_metric_labeled(
            out,
            "lmpi_health_thread_frames_total",
            "Frames handled by the service thread.",
            "counter",
            r,
            &[("thread", th)],
            t.frames as f64,
        );
        for (q, v) in quantiles(&t.wakeup_to_drain) {
            push_metric_labeled(
                out,
                "lmpi_health_wakeup_to_drain_ns",
                "Wakeup-to-first-frame-handled latency quantile (nanoseconds).",
                "gauge",
                r,
                &[("thread", th), ("quantile", q)],
                v as f64,
            );
        }
    }
    for (q, v) in quantiles(&report.mutex_wait) {
        push_metric_labeled(
            out,
            "lmpi_health_mutex_wait_ns",
            "Engine-mutex wait-time quantile, contended acquisitions (nanoseconds).",
            "gauge",
            r,
            &[("quantile", q)],
            v as f64,
        );
    }
    push_metric_labeled(
        out,
        "lmpi_health_mutex_waits_total",
        "Contended engine-mutex acquisitions sampled.",
        "counter",
        r,
        &[],
        report.mutex_wait.count as f64,
    );
    push_metric_labeled(
        out,
        "lmpi_health_evals_total",
        "Periodic diagnostics evaluations performed.",
        "counter",
        r,
        &[],
        report.evals as f64,
    );
    push_metric_labeled(
        out,
        "lmpi_health_diagnostics_active",
        "Diagnostics active as of the last evaluation.",
        "gauge",
        r,
        &[],
        report.diagnostics.len() as f64,
    );
    let mut kinds: Vec<(&str, u64)> = Vec::new();
    for d in &report.diagnostics {
        match kinds.iter_mut().find(|(k, _)| *k == d.kind.as_str()) {
            Some(e) => e.1 += 1,
            None => kinds.push((d.kind.as_str(), 1)),
        }
    }
    for (kind, n) in kinds {
        push_metric_labeled(
            out,
            "lmpi_health_diagnostic",
            "Active diagnostics by rule kind.",
            "gauge",
            r,
            &[("kind", kind)],
            n as f64,
        );
    }
    for (op, s) in [("send", &report.send_window), ("recv", &report.recv_window)] {
        push_metric_labeled(
            out,
            "lmpi_window_count",
            "Operation completions in the sliding window.",
            "gauge",
            r,
            &[("op", op)],
            s.count as f64,
        );
        for (q, v) in quantiles(s) {
            push_metric_labeled(
                out,
                "lmpi_window_latency_ns",
                "Operation-completion latency quantile over the sliding window (nanoseconds).",
                "gauge",
                r,
                &[("op", op), ("quantile", q)],
                v as f64,
            );
        }
    }
    for cw in &report.coll_windows {
        push_metric_labeled(
            out,
            "lmpi_window_coll_count",
            "Collective dispatches in the sliding window.",
            "gauge",
            r,
            &[
                ("collective", cw.collective.as_str()),
                ("algorithm", cw.algorithm.as_str()),
            ],
            cw.window.count as f64,
        );
        for (q, v) in quantiles(&cw.window) {
            push_metric_labeled(
                out,
                "lmpi_window_coll_latency_ns",
                "Collective dispatch latency quantile over the sliding window (nanoseconds).",
                "gauge",
                r,
                &[
                    ("collective", cw.collective.as_str()),
                    ("algorithm", cw.algorithm.as_str()),
                    ("quantile", q),
                ],
                v as f64,
            );
        }
    }
}

fn quantiles(s: &PercentileSummary) -> [(&'static str, u64); 3] {
    [("0.5", s.p50_ns), ("0.99", s.p99_ns), ("0.999", s.p999_ns)]
}

// ---------------------------------------------------------------------
// The scrape endpoint
// ---------------------------------------------------------------------

/// Handle to the background HTTP responder spawned by
/// [`crate::Mpi::serve_metrics`]. Serves:
///
/// * `GET /metrics` (or `/`) — the full Prometheus text rendering:
///   every [`crate::MetricsSnapshot`] family plus the `lmpi_health_*`
///   and `lmpi_window_*` families.
/// * `GET /health` — the [`HealthReport`] as JSON.
///
/// The server holds only a [`Weak`] reference to the rank's state, so it
/// never keeps an [`Mpi`](crate::Mpi) alive; once the handle is dropped
/// it answers `503 Service Unavailable` and exits. Dropping the
/// `MetricsServer` shuts the listener down promptly (a self-connection
/// unblocks `accept`) and joins the thread.
pub struct MetricsServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The address the listener is bound to (use this to scrape when
    /// binding to port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The address a local client should connect to: the bind address,
    /// with unspecified (`0.0.0.0` / `::`) mapped to loopback.
    fn wake_addr(&self) -> std::net::SocketAddr {
        let mut a = self.addr;
        if a.ip().is_unspecified() {
            a.set_ip(match a {
                std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        a
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop; a failed connect means the listener
        // is already gone, which is fine.
        let _ = TcpStream::connect_timeout(&self.wake_addr(), Duration::from_millis(200));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Bind `addr` and spawn the responder thread.
pub(crate) fn spawn_metrics_server(inner: &Arc<Inner>, addr: &str) -> MpiResult<MetricsServer> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| MpiError::transport(format!("metrics endpoint bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| MpiError::transport(format!("metrics endpoint local_addr: {e}")))?;
    let weak = Arc::downgrade(inner);
    let shutdown = Arc::new(AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let rank = inner.device.rank();
    let handle = std::thread::Builder::new()
        .name(format!("lmpi-metrics-{rank}"))
        .spawn(move || serve_loop(listener, weak, sd))
        .map_err(|e| MpiError::transport(format!("metrics endpoint thread spawn: {e}")))?;
    Ok(MetricsServer {
        addr: local,
        shutdown,
        handle: Some(handle),
    })
}

fn serve_loop(listener: TcpListener, weak: Weak<Inner>, shutdown: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let Some(path) = read_request_path(&mut stream) else {
            continue;
        };
        let Some(inner) = weak.upgrade() else {
            respond(&mut stream, 503, "text/plain", "rank shut down\n");
            return;
        };
        match path.as_str() {
            "/metrics" | "/" => {
                let now = inner.device.now_ns();
                eval_if_due(&inner, now);
                let mut body = inner
                    .eng
                    .lock()
                    .metrics_snapshot(&*inner.device)
                    .to_prometheus();
                render_prometheus(&build_report(&inner, now), &mut body);
                respond(&mut stream, 200, "text/plain; version=0.0.4", &body);
            }
            "/health" | "/health.json" => {
                let now = inner.device.now_ns();
                eval_if_due(&inner, now);
                let body = build_report(&inner, now).to_json();
                respond(&mut stream, 200, "application/json", &body);
            }
            _ => respond(&mut stream, 404, "text/plain", "not found\n"),
        }
    }
}

/// Parse the request line of a minimal HTTP/1.x GET; `None` on anything
/// unreadable (the connection is just dropped).
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut line = String::new();
    BufReader::new(&mut *stream).read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        respond(stream, 405, "text/plain", "method not allowed\n");
        return None;
    }
    // Strip any query string; the endpoint takes no parameters.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn respond(stream: &mut TcpStream, status: u16, ctype: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Service Unavailable",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

// ---------------------------------------------------------------------
// Progress-loop time accounting helpers
// ---------------------------------------------------------------------

/// Credit the contiguous segment since `*mark` to `bucket` and advance
/// the mark — the progress loop's one-liner for keeping its entire wall
/// time classified. With health disabled, `hp` is `None` and the caller
/// never reads the clock.
#[inline]
pub(crate) fn credit_segment(
    hp: Option<&ThreadHealth>,
    mark: &mut u64,
    now_ns: u64,
    bucket: TimeBucket,
) {
    if let Some(h) = hp {
        h.credit(bucket, *mark, now_ns);
        *mark = now_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_diagnoses_retransmit_storm_from_deltas() {
        let h = HealthState::new(true, 1_000);
        let c = Counters::default();
        // First eval: 100 data frames, no retransmits — clean baseline.
        let mut t = TransportStats {
            data_frames_sent: 100,
            ..Default::default()
        };
        h.evaluate(10_000, 0, &c, &t, &[]);
        assert!(h.diag.lock().active.is_empty());
        // Second eval: only 10 more frames but 8 retransmits — a storm
        // in the delta even though the cumulative ratio is small.
        t.data_frames_sent = 110;
        t.retransmits = 8;
        h.evaluate(20_000, 0, &c, &t, &[]);
        let d = h.diag.lock();
        assert!(
            d.active
                .iter()
                .any(|di| di.kind == DiagKind::RetransmitStorm),
            "{:?}",
            d.active.iter().map(|di| di.kind).collect::<Vec<_>>()
        );
        assert_eq!(d.evals, 2);
    }

    #[test]
    fn evaluate_reports_coll_mistuning_once_per_new_mispins() {
        let h = HealthState::new(true, 1_000);
        let c = Counters::default();
        let t = TransportStats::default();
        h.evaluate(
            10_000,
            0,
            &c,
            &t,
            &[("bcast", "binomial", "scatter_allgather", 3)],
        );
        assert!(h
            .diag
            .lock()
            .active
            .iter()
            .any(|d| d.kind == DiagKind::CollMistuned));
        // No new mispins: the finding clears.
        h.evaluate(
            20_000,
            0,
            &c,
            &t,
            &[("bcast", "binomial", "scatter_allgather", 3)],
        );
        assert!(h.diag.lock().active.is_empty());
    }

    #[test]
    fn disabled_health_records_nothing() {
        let h = HealthState::new(false, 1_000);
        h.record_send(0, 100);
        h.record_recv(0, 100);
        h.record_coll("bcast", "binomial", 0, 100);
        assert_eq!(h.windows.lock().send.summary(0).count, 0);
        assert!(!h.eval_due(u64::MAX));
    }

    #[test]
    fn render_prometheus_emits_validating_health_families() {
        let h = HealthState::new(true, 1_000);
        h.progress.credit(TimeBucket::Drain, 0, 500);
        h.progress.credit(TimeBucket::Park, 500, 1_000);
        h.progress.add_wakeup();
        h.progress.add_frames(2);
        h.record_mutex_wait(700);
        h.record_send(100, 42);
        h.record_coll("barrier", "dissemination", 100, 99);
        h.evaluate(
            10_000,
            3,
            &Counters::default(),
            &TransportStats::default(),
            &[],
        );
        // Build a report without an Inner: assemble by hand from state. One
        // guard for all three reads: the mutex is not re-entrant.
        let w = h.windows.lock();
        let report = HealthReport {
            rank: 3,
            t_ns: 10_000,
            enabled: true,
            threads: vec![h.progress.snapshot("progress")],
            mutex_wait: h.mutex_wait.summary(),
            send_window: w.send.summary(10_000),
            recv_window: w.recv.summary(10_000),
            coll_windows: vec![CollWindow {
                collective: "barrier".into(),
                algorithm: "dissemination".into(),
                window: w.coll[0].2.summary(10_000),
            }],
            diagnostics: vec![DiagSummary {
                kind: "retransmit_storm".into(),
                rank: 3,
                summary: "test".into(),
            }],
            evals: 1,
        };
        let mut out = String::new();
        render_prometheus(&report, &mut out);
        crate::metrics::validate_prometheus(&out).expect("health families must validate");
        assert!(out.contains(
            "lmpi_health_thread_time_ns_total{rank=\"3\",thread=\"progress\",bucket=\"drain\"} 500"
        ));
        assert!(out.contains("lmpi_health_thread_duty_cycle{rank=\"3\",thread=\"progress\"} 0.5"));
        assert!(out.contains("lmpi_window_count{rank=\"3\",op=\"send\"} 1"));
        assert!(out.contains(
            "lmpi_window_coll_latency_ns{rank=\"3\",collective=\"barrier\",algorithm=\"dissemination\",quantile=\"0.99\"}"
        ));
        assert!(out.contains("lmpi_health_diagnostic{rank=\"3\",kind=\"retransmit_storm\"} 1"));
        let json = report.to_json();
        lmpi_obs::validate_json(&json).expect("health report JSON must validate");
        // Captured from the serde-derive exporter this one replaced.
        assert_eq!(
            json,
            concat!(
                r#"{"rank":3,"t_ns":10000,"enabled":true,"threads":[{"name":"progress","lock_wait_ns":0,"dr"#,
                r#"ain_ns":500,"poll_ns":0,"park_ns":500,"wall_ns":999,"coverage":1.001001001001001,"duty_c"#,
                r#"ycle":0.5005005005005005,"wakeups":1,"frames":2,"wakeup_to_drain":{"count":0,"min_ns":0,"#,
                r#""max_ns":0,"mean_ns":0,"p50_ns":0,"p90_ns":0,"p99_ns":0,"p999_ns":0}}],"mutex_wait":{"co"#,
                r#"unt":1,"min_ns":700,"max_ns":700,"mean_ns":700,"p50_ns":700,"p90_ns":700,"p99_ns":700,"p"#,
                r#"999_ns":700},"send_window":{"count":1,"min_ns":42,"max_ns":42,"mean_ns":42,"p50_ns":42,""#,
                r#"p90_ns":42,"p99_ns":42,"p999_ns":42},"recv_window":{"count":0,"min_ns":0,"max_ns":0,"mea"#,
                r#"n_ns":0,"p50_ns":0,"p90_ns":0,"p99_ns":0,"p999_ns":0},"coll_windows":[{"collective":"bar"#,
                r#"rier","algorithm":"dissemination","window":{"count":1,"min_ns":99,"max_ns":99,"mean_ns":"#,
                r#"99,"p50_ns":99,"p90_ns":99,"p99_ns":99,"p999_ns":99}}],"diagnostics":[{"kind":"retransmi"#,
                r#"t_storm","rank":3,"summary":"test"}],"evals":1}"#
            )
        );
    }

    #[test]
    fn credit_segment_advances_the_mark_only_when_enabled() {
        let th = ThreadHealth::new();
        let mut mark = 100u64;
        credit_segment(Some(&th), &mut mark, 400, TimeBucket::Poll);
        assert_eq!(mark, 400);
        assert_eq!(th.bucket_ns(TimeBucket::Poll), 300);
        credit_segment(None, &mut mark, 900, TimeBucket::Drain);
        assert_eq!(mark, 400, "disabled health must not touch the mark");
    }
}
