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
//!   the last ~10 s, queryable while traffic is in flight. A user
//!   point-to-point op is timed one time in [`SAMPLE_EVERY`]; every one
//!   is counted.
//! * **Continuous diagnostics** — every 100 ms of device time the
//!   [`lmpi_obs::diagnose`] rules judge the [`RankStats`] reading since
//!   the previous one (rolling deltas, not cumulative totals), so a
//!   retransmit storm or credit stall that starts mid-run surfaces within
//!   one evaluation period. This module only takes the readings and
//!   keeps the findings; the rules live in `lmpi_obs::diag`.
//! * **[`MetricsServer`]** — a `std::net::TcpListener` HTTP responder
//!   (no new dependencies) serving the [`crate::MetricsSnapshot`] JSON at
//!   `/metrics` and the [`HealthReport`] JSON at `/health`.
//!
//! All timestamps come from the device clock ([`Device::now_ns`]), the
//! same discipline the tracer uses, so live health and post-hoc traces
//! agree on what a nanosecond is.
//!
//! [`Device::now_ns`]: crate::Device::now_ns

use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use lmpi_sim::lock::Mutex;

use lmpi_obs::{
    diagnose, AtomicHist, Diagnostic, FlightRecord, PercentileSummary, RankStats, ThreadHealth,
    ThreadHealthSnapshot, TimeBucket, WindowedHist,
};

use crate::error::{MpiError, MpiResult};
use crate::mpi::Inner;

/// Diagnostics evaluation period (100 ms of device time).
const EVAL_PERIOD_NS: u64 = 100_000_000;

/// Sliding-window geometry: 10 one-second shards ≈ "the last 10 s".
const WINDOW_SHARDS: usize = 10;
const WINDOW_SHARD_NS: u64 = 1_000_000_000;

/// One user point-to-point op in this many is stamped: it reads the
/// clock at its post and at its completion and records the interval under
/// the [`Windows`] lock. Every other op only bumps its window's count.
pub(crate) const SAMPLE_EVERY: u32 = 64;

/// What a user point-to-point op contributes to its send or receive
/// window, decided at its post.
#[derive(Clone, Copy)]
pub(crate) enum Stamp {
    /// Health is off, or the op is a collective's step: nothing.
    Off,
    /// Counted, not timed: no clock read, no lock.
    Count,
    /// Counted and timed from this post time (device clock, ns).
    At(u64),
}

thread_local! {
    /// This thread's xorshift32 state for [`draw`]; never zero.
    static DRAW: Cell<u32> = const { Cell::new(0x9E37_79B9) };
}

/// Whether this thread's next user op is stamped: true one time in
/// [`SAMPLE_EVERY`], at positions a xorshift32 draw picks, so no fixed
/// slot of a periodic message pattern is always or never the sampled one.
#[inline]
pub(crate) fn draw() -> bool {
    DRAW.with(|state| {
        let mut x = state.get();
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        state.set(x);
        x <= u32::MAX / SAMPLE_EVERY
    })
}

/// Sliding windows for operation-completion latency. One mutex guards
/// all of them. A user send or receive takes it only when it is stamped,
/// one op in [`SAMPLE_EVERY`]; a collective takes it once per call; the
/// evaluation tick and a report take it to fold in the unstamped counts.
/// With health disabled nothing takes it.
struct Windows {
    send: WindowedHist,
    recv: WindowedHist,
    /// Per-(collective, algorithm) dispatch-latency windows, first-seen
    /// order. Keys are the `'static` names the dispatch layer already
    /// uses, so lookup is pointer-fast.
    coll: Vec<(&'static str, &'static str, WindowedHist)>,
}

/// Diagnostics evaluator state.
#[derive(Default)]
struct DiagState {
    /// The reading the previous evaluation took.
    prev: RankStats,
    active: Vec<Diagnostic>,
    evals: u64,
}

/// Per-rank live health accounting (one per [`Inner`]). A user send or
/// receive costs it one relaxed add at completion, or, one op in
/// [`SAMPLE_EVERY`], two clock reads and the [`Windows`] lock.
pub(crate) struct HealthState {
    /// When false, every hot-path hook is a single branch and no clock
    /// is ever read on behalf of health.
    pub(crate) enabled: bool,
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
    /// User sends and receives completed unstamped since the last fold
    /// into [`Windows`]: one relaxed add per op, no clock, no lock.
    unstamped_send: AtomicU64,
    unstamped_recv: AtomicU64,
    windows: Mutex<Windows>,
    diag: Mutex<DiagState>,
}

impl HealthState {
    pub(crate) fn new(enabled: bool) -> Self {
        HealthState {
            enabled,
            progress: ThreadHealth::new(),
            mutex_wait: AtomicHist::new(),
            next_eval_ns: AtomicU64::new(0),
            unstamped_send: AtomicU64::new(0),
            unstamped_recv: AtomicU64::new(0),
            windows: Mutex::new(Windows {
                send: WindowedHist::new(WINDOW_SHARDS, WINDOW_SHARD_NS),
                recv: WindowedHist::new(WINDOW_SHARDS, WINDOW_SHARD_NS),
                coll: Vec::new(),
            }),
            diag: Mutex::new(DiagState::default()),
        }
    }

    /// Account one completed user send (`send`) or receive posted with
    /// `stamp`; `now` reads the device clock, and only a stamped op calls
    /// it.
    #[inline]
    pub(crate) fn complete_op(&self, stamp: Stamp, send: bool, now: impl FnOnce() -> u64) {
        match stamp {
            Stamp::Off => {}
            Stamp::Count => {
                let n = if send {
                    &self.unstamped_send
                } else {
                    &self.unstamped_recv
                };
                n.fetch_add(1, Ordering::Relaxed);
            }
            Stamp::At(t0) => {
                let t_ns = now();
                let mut w = self.windows.lock();
                self.fold(&mut w, t_ns);
                let window = if send { &mut w.send } else { &mut w.recv };
                window.record(t_ns, t_ns.saturating_sub(t0));
            }
        }
    }

    /// Move the unstamped counts into the shards current at `t_ns`.
    fn fold(&self, w: &mut Windows, t_ns: u64) {
        w.send
            .count(t_ns, self.unstamped_send.swap(0, Ordering::Relaxed));
        w.recv
            .count(t_ns, self.unstamped_recv.swap(0, Ordering::Relaxed));
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

    /// Run one diagnostics evaluation over what accumulated since the
    /// previous reading. `now` is a lifetime reading; its `span_ns` is the
    /// device clock it was taken at.
    fn evaluate(&self, now: RankStats) {
        let mut diag = self.diag.lock();
        if now.span_ns < self.next_eval_ns.load(Ordering::Relaxed) {
            return; // another thread evaluated while we waited
        }
        self.next_eval_ns.store(
            now.span_ns.saturating_add(EVAL_PERIOD_NS),
            Ordering::Relaxed,
        );
        diag.active = diagnose(&FlightRecord::default(), &[], &[now.since(&diag.prev)]);
        diag.prev = now;
        diag.evals += 1;
    }
}

/// Run the periodic diagnostics evaluation if its period has elapsed.
/// Called from the progress loop's idle edge and from [`crate::Mpi::health`]
/// (so caller-driven ranks evaluate too). Briefly takes the engine lock to
/// snapshot the counters, then evaluates outside it.
pub(crate) fn eval_if_due(inner: &Inner, now_ns: u64) {
    let h = &inner.health;
    if !h.eval_due(now_ns) {
        return;
    }
    h.fold(&mut h.windows.lock(), now_ns);
    let (snapshot, coll_mispins) = {
        let eng = inner.eng.lock();
        (eng.metrics_snapshot(&*inner.device), eng.coll.mispins)
    };
    let wake_to_drain = h.progress.snapshot("progress").wakeup_to_drain;
    h.evaluate(RankStats {
        span_ns: now_ns,
        wake_to_drain_p99_ns: wake_to_drain.p99_ns,
        wake_to_drain_samples: wake_to_drain.count,
        coll_mispins,
        ..snapshot.rank_stats()
    });
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
        /// Per-service-thread time accounting. A rank has one service
        /// thread, `progress`, on every device: real TCP's sockets are read
        /// by the drain-role holder, not a thread of their own. A list, one
        /// entry per service thread.
        pub threads: Vec<ThreadHealthSnapshot>,
        /// Engine-mutex wait-time distribution (contended acquisitions only).
        pub mutex_wait: PercentileSummary,
        /// User send completion latency (post to completion, blocking or
        /// not) over the sliding window; collective steps are not counted.
        /// `count` is every completion; the distribution is a random
        /// 1-in-64 sample of them (`SAMPLE_EVERY`), and is empty until one
        /// op has been sampled.
        pub send_window: PercentileSummary,
        /// User receive completion latency over the sliding window:
        /// exact `count`, 1-in-64 sampled distribution, as `send_window`.
        pub recv_window: PercentileSummary,
        /// Per-(collective, algorithm) dispatch latency windows.
        pub coll_windows: Vec<CollWindow>,
        /// Diagnostics active as of the last evaluation, rendered as
        /// [`lmpi_obs::diagnostics_json`] renders them. The live evaluator
        /// reads no trace, so each `evidence` list is empty.
        pub diagnostics: Vec<Diagnostic>,
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
    let threads = vec![h.progress.snapshot("progress")];
    let (send_window, recv_window, coll_windows) = {
        let mut w = h.windows.lock();
        h.fold(&mut w, now_ns);
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
        (d.active.clone(), d.evals)
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

// ---------------------------------------------------------------------
// The scrape endpoint
// ---------------------------------------------------------------------

/// Handle to the background HTTP responder spawned by
/// [`crate::Mpi::serve_metrics`]. Serves:
///
/// * `GET /metrics` (or `/`) — the [`crate::MetricsSnapshot`] as JSON.
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
                let body = inner.eng.lock().metrics_snapshot(&*inner.device).to_json();
                respond(&mut stream, 200, "application/json", &body);
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
    use lmpi_obs::{diagnostics_json, DiagKind, EventKind, Tracer};

    #[test]
    fn disabled_health_records_nothing() {
        let h = HealthState::new(false);
        h.record_coll("bcast", "binomial", 0, 100);
        assert!(h.windows.lock().coll.is_empty());
        assert!(!h.eval_due(u64::MAX));
    }

    #[test]
    fn health_report_renders_the_published_json() {
        let h = HealthState::new(true);
        h.progress.credit(TimeBucket::Drain, 0, 500);
        h.progress.credit(TimeBucket::Park, 500, 1_000);
        h.progress.add_wakeup();
        h.progress.add_frames(2);
        h.record_mutex_wait(700);
        h.complete_op(Stamp::At(58), true, || 100);
        h.record_coll("barrier", "dissemination", 100, 99);
        h.evaluate(RankStats {
            rank: 3,
            span_ns: 10_000,
            ..RankStats::default()
        });
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
            diagnostics: vec![Diagnostic {
                kind: DiagKind::RetransmitStorm,
                rank: 3,
                summary: "test".into(),
                evidence: Vec::new(),
            }],
            evals: 1,
        };
        let json = report.to_json();
        lmpi_obs::validate_json(&json).expect("health report JSON must validate");
        // The published format, byte for byte.
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
                r#"t_storm","rank":3,"summary":"test","evidence":[]}],"evals":1}"#
            )
        );
    }

    #[test]
    fn a_report_renders_its_findings_as_diagnostics_json_does() {
        let t = Tracer::enabled(2, 16);
        t.emit_at(50_000, EventKind::PeerDead { peer: 1 });
        let stats = RankStats {
            rank: 2,
            peers_dead: 1,
            ..RankStats::default()
        };
        let found = diagnose(&FlightRecord::default(), &[t.snapshot()], &[stats]);
        assert_eq!(found[0].evidence.len(), 1);
        let report = HealthReport {
            rank: 2,
            t_ns: 0,
            enabled: true,
            threads: Vec::new(),
            mutex_wait: PercentileSummary::default(),
            send_window: PercentileSummary::default(),
            recv_window: PercentileSummary::default(),
            coll_windows: Vec::new(),
            diagnostics: found.clone(),
            evals: 1,
        };
        let rendered = format!(",\"diagnostics\":{},", diagnostics_json(&found));
        assert!(report.to_json().contains(&rendered), "{rendered}");
    }

    #[test]
    fn the_draw_stamps_every_window_position_at_one_in_sample_every() {
        const WINDOWS: usize = 1_000;
        let per = SAMPLE_EVERY as usize;
        let mut at = vec![0u32; per];
        for _ in 0..WINDOWS {
            for hits in &mut at {
                *hits += u32::from(draw());
            }
        }
        assert!(
            at.iter().all(|&n| n > 0),
            "a position never stamped: {at:?}"
        );
        let fraction = at.iter().sum::<u32>() as f64 / (WINDOWS * per) as f64;
        let want = 1.0 / SAMPLE_EVERY as f64;
        assert!(
            (fraction - want).abs() <= 0.25 * want,
            "stamped fraction {fraction}, want {want} ± 25 %"
        );
    }

    #[test]
    fn unstamped_ops_are_counted_exactly_and_folded_by_the_next_stamp() {
        let h = HealthState::new(true);
        for _ in 0..99 {
            h.complete_op(Stamp::Count, true, || {
                unreachable!("an unstamped op reads no clock")
            });
        }
        h.complete_op(Stamp::Count, false, || unreachable!());
        assert_eq!(h.windows.lock().send.summary(0).count, 0, "not folded yet");
        h.complete_op(Stamp::At(1_000), true, || 1_500);
        let w = h.windows.lock();
        let send = w.send.summary(1_500);
        assert_eq!((send.count, send.p50_ns, send.max_ns), (100, 500, 500));
        assert_eq!(w.recv.summary(1_500).count, 1);
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
