//! Turns a run's repetitions into the reported metrics: the five end-to-end
//! ones (medians across repetitions) and, for a traced run, the per-layer
//! table (call spans, deltas of the library's own counters over the timed
//! phases, plus everything in `layers.rs`).

use std::collections::BTreeMap;

use crate::trace::{spans_json, Span};
use crate::util::{self, median, median_ns, percentile, spread, Json};
use crate::workloads::{overlap_parts, RepResult, Snap, Workload};
use crate::{layers, Args, Metrics};

/// Per-repetition values, kept raw for the result file.
struct RepRow {
    traced: bool,
    timed_ops: u64,
    p50_us: f64,
    p99_us: f64,
    payload_mbps: f64,
    cpu_us_per_op: f64,
    setup_s: f64,
}

pub struct RunData {
    w: Workload,
    /// Process start to the first repetition (argument parsing, the
    /// discarded warm-up fabric), seconds.
    startup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wedged: bool,
    rows: Vec<RepRow>,
    /// Ops attempted in traced repetitions: the base of every per-op count.
    traced_ops: u64,
    /// Every rank of every traced repetition, before and after its timed phase.
    snaps: Vec<(Snap, Snap)>,
    /// Durations of the harness's call spans by name, ns, traced repetitions.
    call_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Spans of the last traced repetition, for the trace file.
    last_spans: Vec<Span>,
}

impl RunData {
    pub fn new(w: Workload, startup_s: f64) -> RunData {
        RunData {
            w,
            startup_s,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            wedged: false,
            rows: Vec::new(),
            traced_ops: 0,
            snaps: Vec::new(),
            call_ns: BTreeMap::new(),
            last_spans: Vec::new(),
        }
    }

    /// The warm-up fabric's ops are not timed, but a failure there counts.
    pub fn add_discarded(&mut self, res: RepResult) {
        self.failed += res.failed;
        self.errors.extend(res.errors);
        self.wedged |= res.wedged;
    }

    pub fn add(&mut self, res: RepResult, traced: bool) {
        self.attempted += res.attempted;
        self.failed += res.failed;
        self.errors.extend(res.errors);
        self.wedged |= res.wedged;
        let ok_ops = res.op_us.count();
        if ok_ops > 0 && res.span_us > 0.0 {
            // All three describe the median op, so that a stall which hits
            // a few ops (it shows in the p99) does not move them: bytes per
            // op over the median op time (bytes per µs = MB/s), and CPUs
            // busy over the timed phase times the median op time.
            let p50_us = median(res.op_us.values());
            let cpu_us = res.cpu.as_secs_f64() * 1e6;
            self.rows.push(RepRow {
                traced,
                timed_ops: ok_ops,
                p50_us,
                p99_us: percentile(res.op_us.values(), 0.99),
                payload_mbps: res.payload_bytes_per_op as f64 / p50_us,
                cpu_us_per_op: if self.w.virtual_time() {
                    // Op times are virtual there; CPU time is not.
                    cpu_us / res.attempted as f64
                } else {
                    cpu_us / res.span_us * p50_us
                },
                setup_s: res.setup_s,
            });
        }
        if traced {
            self.traced_ops += res.attempted;
            self.snaps.extend(res.snaps);
            for s in &res.spans {
                if s.parent.is_some() {
                    self.call_ns.entry(s.name).or_default().push(s.dur_ns());
                }
            }
            self.last_spans = res.spans;
        }
    }

    fn column(&self, traced: Option<bool>, f: impl Fn(&RepRow) -> f64) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|r| traced.is_none_or(|t| r.traced == t))
            .map(f)
            .collect()
    }

    /// The five end-to-end metrics: medians across the repetitions.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.push("op_p50_us", median(&self.column(None, |r| r.p50_us)), "us");
        m.push(
            "payload_MBps",
            median(&self.column(None, |r| r.payload_mbps)),
            "MB/s",
        );
        m.push(
            "cpu_us_per_op",
            median(&self.column(None, |r| r.cpu_us_per_op)),
            "us",
        );
        m.push("peak_rss_MiB", util::peak_rss_mib(), "MiB");
        m.push(
            "setup_s",
            self.startup_s + median(&self.column(None, |r| r.setup_s)),
            "s",
        );
    }

    /// p99 of the untraced ops and the spread of the repetitions: printed
    /// and filed with every run, gated by none (the p99 moved by half
    /// between identical runs when this benchmark was sized).
    pub fn print_harness(&self) {
        println!(
            "  harness: op_p99_us {:.3} (median of the untraced repetitions' p99); rep_spread {:.4} over {} repetitions; startup_s {:.4}",
            median(&self.column(Some(false), |r| r.p99_us)),
            spread(&self.column(None, |r| r.p50_us)),
            self.rows.len(),
            self.startup_s,
        );
    }

    fn reps_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    Json::obj([
                        ("traced", Json::Bool(r.traced)),
                        ("timed_ops", Json::Num(r.timed_ops as f64)),
                        ("op_p50_us", Json::Num(r.p50_us)),
                        ("op_p99_us", Json::Num(r.p99_us)),
                        ("payload_MBps", Json::Num(r.payload_mbps)),
                        ("cpu_us_per_op", Json::Num(r.cpu_us_per_op)),
                        ("setup_s", Json::Num(r.setup_s)),
                    ])
                })
                .collect(),
        )
    }

    fn header(&self, args: &Args) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::Str(self.w.name().into())),
            ("why", Json::Str(self.w.why().into())),
            ("op", Json::Str(self.w.op().into())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("git_rev", Json::Str(util::git_rev())),
            // The library's five external crates are the std-backed
            // stand-ins under `standins/`, not the published ones.
            ("deps", Json::Str("standins".into())),
            ("machine", util::fingerprint()),
        ]
    }

    /// Everything a reader needs to interpret the numbers: inputs, machine,
    /// raw per-repetition values, and the result line itself.
    pub fn result_file(&self, args: &Args, metrics: &Metrics, result: &Json) -> Json {
        let mut fields = self.header(args);
        fields.extend([
            ("startup_s", Json::Num(self.startup_s)),
            ("repetitions", self.reps_json()),
            (
                "raw",
                Json::obj(
                    metrics
                        .notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::nums(v))),
                ),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("result", result.clone()),
        ]);
        Json::obj(fields)
    }

    /// The last traced repetition's spans and every traced repetition's
    /// library snapshots (the library's own JSON).
    pub fn trace_file(&self, args: &Args) -> Json {
        let snap = |s: &Snap| {
            Json::obj([
                (
                    "counters",
                    Json::Raw(lmpi_obs::to_json(&s.counters).expect("counters serialize")),
                ),
                (
                    "transport",
                    Json::Raw(lmpi_obs::to_json(&s.transport).expect("transport stats serialize")),
                ),
                ("health", Json::Raw(s.health.to_json())),
            ])
        };
        let mut fields = self.header(args);
        fields.extend([
            (
                "span_columns",
                Json::Arr(
                    ["name", "rank", "op", "parent", "start_ns", "end_ns"]
                        .map(|c| Json::Str(c.into()))
                        .to_vec(),
                ),
            ),
            ("spans", spans_json(&self.last_spans)),
            (
                "snapshots",
                Json::Arr(
                    self.snaps
                        .iter()
                        .map(|(b, a)| Json::obj([("before", snap(b)), ("after", snap(a))]))
                        .collect(),
                ),
            ),
        ]);
        Json::obj(fields)
    }

    /// Sum over ranks and traced repetitions of a counter's growth across
    /// the timed phase, per op.
    fn per_op(&self, f: impl Fn(&Snap) -> u64) -> f64 {
        let total: u64 = self
            .snaps
            .iter()
            .map(|(before, after)| f(after).saturating_sub(f(before)))
            .sum();
        total as f64 / self.traced_ops.max(1) as f64
    }

    fn call_p50_ns(&self, names: &[&str]) -> f64 {
        let all: Vec<u64> = names
            .iter()
            .filter_map(|n| self.call_ns.get(n))
            .flatten()
            .copied()
            .collect();
        median_ns(&all)
    }
}

fn progress_thread(s: &Snap) -> Option<&lmpi_obs::ThreadHealthSnapshot> {
    s.health.threads.iter().find(|t| t.name == "progress")
}

/// The per-layer table of a traced run. Every name is emitted for every
/// workload (0 where the workload does not reach the layer), so the set of
/// names never depends on the input.
pub fn layer_metrics(d: &RunData, seed: u64, m: &mut Metrics) {
    let thread_ns = |f: fn(&lmpi_obs::ThreadHealthSnapshot) -> u64| {
        d.per_op(|s| progress_thread(s).map_or(0, f))
    };
    // core.mpi: the harness's spans around each public call, and the
    // progress thread's own accounting.
    m.push(
        "core.mpi.send_call_p50_ns",
        d.call_p50_ns(&["send", "isend"]),
        "ns",
    );
    m.push(
        "core.mpi.recv_call_p50_ns",
        d.call_p50_ns(&["recv", "irecv"]),
        "ns",
    );
    m.push(
        "core.mpi.wait_call_p50_ns",
        d.call_p50_ns(&["wait", "wait_all"]),
        "ns",
    );
    m.push(
        "core.mpi.progress_wakeups_per_op",
        d.per_op(|s| s.counters.progress_wakeups),
        "1/op",
    );
    m.push(
        "core.mpi.progress_frames_per_op",
        d.per_op(|s| s.counters.progress_frames),
        "1/op",
    );
    m.push(
        "core.mpi.progress_lock_wait_ns_per_op",
        thread_ns(|t| t.lock_wait_ns),
        "ns/op",
    );
    m.push(
        "core.mpi.progress_drain_ns_per_op",
        thread_ns(|t| t.drain_ns),
        "ns/op",
    );
    m.push(
        "core.mpi.progress_park_ns_per_op",
        thread_ns(|t| t.park_ns),
        "ns/op",
    );
    m.push(
        "core.mpi.mutex_wait_p99_ns",
        d.snaps
            .iter()
            .map(|(_, after)| after.health.mutex_wait.p99_ns)
            .max()
            .unwrap_or(0) as f64,
        "ns",
    );

    // core.engine: protocol counters, exact on a closed loop.
    let c = |f: fn(&lmpi_core::Counters) -> u64| d.per_op(|s| f(&s.counters));
    m.push("core.engine.wires_per_op", c(|c| c.wires_handled), "1/op");
    m.push("core.engine.eager_per_op", c(|c| c.eager_sent), "1/op");
    m.push("core.engine.rndv_per_op", c(|c| c.rndv_sent), "1/op");
    m.push(
        "core.engine.rndv_chunks_per_op",
        c(|c| c.rndv_chunks_sent),
        "1/op",
    );
    m.push("core.engine.credits_per_op", c(|c| c.credits_sent), "1/op");
    m.push(
        "core.engine.sends_queued_per_op",
        c(|c| c.sends_queued),
        "1/op",
    );
    m.push(
        "core.engine.credit_stall_ns_per_op",
        c(|c| c.credit_stall_ns),
        "ns/op",
    );
    let matches = c(|c| c.matches);
    m.push(
        "core.engine.unexpected_hit_ratio",
        if matches > 0.0 {
            c(|c| c.unexpected_hits) / matches
        } else {
            0.0
        },
        "ratio",
    );
    m.push(
        "core.engine.unexpected_hwm",
        d.snaps
            .iter()
            .map(|(_, after)| after.counters.unexpected_hwm)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    m.push(
        "core.packet.pool_grows_per_kop",
        c(|c| c.pool_grows) * 1e3,
        "1/kop",
    );

    layers::measure_all(seed, m);

    // What MPI adds over the raw floor of the substrate the workload ran on.
    let untraced_p50 = median(&d.column(Some(false), |r| r.p50_us));
    let traced_p50 = median(&d.column(Some(true), |r| r.p50_us));
    let floor = m.value(match d.w {
        Workload::TcpSmall => "devices.sock.raw_rtt_p50_us",
        Workload::ClusterVirtual => "netmodel.rawtcp_atm_rtt_1B_virt_us",
        _ => "devices.shm.raw_rtt_p50_us",
    });
    m.push("core.mpi.mpi_added_us", untraced_p50 - floor, "us");
    // Overlapped op / (compute alone + communication alone): 1 = no
    // overlap, max(a, b) / (a + b) = all of it.
    let mut overlap_ratio = 0.0;
    if d.w == Workload::ShmOverlap {
        match overlap_parts(seed) {
            Ok((comm_only_us, compute_only_us)) => {
                m.note(
                    "core.mpi.overlap_ratio.parts_us",
                    &[comm_only_us, compute_only_us],
                );
                overlap_ratio = untraced_p50 / (comm_only_us + compute_only_us);
            }
            Err(e) => eprintln!("lmpi-benchmark: {e}"),
        }
    }
    m.push("core.mpi.overlap_ratio", overlap_ratio, "ratio");

    m.push(
        "harness.op_p99_us",
        median(&d.column(Some(false), |r| r.p99_us)),
        "us",
    );
    m.push(
        "harness.rep_spread",
        spread(&d.column(Some(true), |r| r.p50_us)),
        "ratio",
    );
    m.push(
        "harness.trace_overhead_ratio",
        if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50
        } else {
            0.0
        },
        "ratio",
    );
}
