//! Live runtime health demo: exercise the health subsystem end to end and
//! *assert* the acceptance bar before writing the artifact.
//!
//! Phase 1 (clean shm run, background progress):
//!
//! * the progress thread's duty-cycle buckets cover ≥ 99% of its wall
//!   time (contiguous-segment accounting);
//! * a deliberately mis-pinned allreduce (`ring` where the decision table
//!   says `recursive_doubling` for tiny payloads) trips the live
//!   `coll_mistuned` diagnostic;
//! * the scrape endpoint, queried over real TCP *while traffic is in
//!   flight*, serves the metrics snapshot at `/metrics` and the health
//!   report at `/health.json`, both valid JSON carrying the counters,
//!   service-thread buckets and windows;
//! * send/recv and per-(collective, algorithm) sliding windows have
//!   samples.
//!
//! Phase 2 (reliable-over-faulty stack with seeded eager drops): the
//! injected retransmit storm is diagnosed from the evaluator's *rolling
//! deltas* — the `retransmit_storm` diagnostic appears live, within one
//! evaluation period of the storm, not just in a post-mortem.
//!
//! The evaluator runs every 100 ms of device time, so each phase keeps
//! its traffic going until every rank's [`lmpi::HealthReport::evals`] has
//! advanced past the evaluation it took at the start: at least one
//! window of the phase has then been judged.
//!
//! Artifact: `target/health_report.json` — rank 0's final
//! [`lmpi::HealthReport`] from phase 1.
//!
//! Run with `cargo run --release --example health_report`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use lmpi::obs::{parse_json, validate_json, DiagKind, Json};
use lmpi::{
    run_devices, AllreduceAlgo, Communicator, FaultConfig, FaultRates, FaultyDevice, HealthReport,
    MpiConfig, ReduceOp, RelConfig, ReliableDevice, ShmDevice,
};

/// Least phase-1 ping-pong + mis-pinned-allreduce iterations (the mid-run
/// scrape happens halfway). Each iteration sleeps [`TICK`].
const ITERS: u32 = 64;
/// Per-iteration pause, letting the progress thread park between bursts
/// (so the duty-cycle report shows park *and* drain time).
const TICK: Duration = Duration::from_millis(1);
/// Least phase-2 burst rounds, and messages per burst.
const ROUNDS: u32 = 40;
const BURST: u32 = 16;
/// Seeded drop rate on phase-2 eager frames: heavy enough that every
/// evaluation window sees retransmissions.
const DROP: f64 = 0.2;

/// Minimal HTTP/1.1 GET against the in-process scrape endpoint; returns
/// (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect to scrape endpoint");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write scrape request");
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).expect("read scrape response");
    let resp = String::from_utf8(resp).expect("scrape response is not UTF-8");
    let (head, body) = resp
        .split_once("\r\n\r\n")
        .expect("malformed HTTP response");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Whether `mine` holds on every rank (a collective: every rank must
/// call it together).
fn everyone(world: &Communicator, mine: bool) -> bool {
    world.allreduce(&[u64::from(mine)], ReduceOp::Min).unwrap()[0] == 1
}

/// Fetch `path` and parse its body as JSON.
fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (status, body) = http_get(addr, path);
    assert!(status.contains("200"), "{path} failed: {status}");
    parse_json(&body).unwrap_or_else(|e| panic!("{path} is malformed: {e}\n{body}"))
}

/// Assert every key in `keys` is present in `obj`.
fn has_keys(what: &str, obj: &Json, keys: &[&str]) {
    for key in keys {
        assert!(obj.get(key).is_some(), "{what} is missing {key}: {obj:?}");
    }
}

/// Scrape `/metrics` and `/health.json` mid-run and assert both are JSON
/// carrying the counters, the service-thread buckets and the windows.
fn scrape_and_check(addr: SocketAddr) {
    let metrics = get_json(addr, "/metrics");
    has_keys(
        "/metrics",
        &metrics,
        &["counters", "transport", "coll_dispatch"],
    );
    let health = get_json(addr, "/health.json");
    let threads = health.get("threads").and_then(Json::as_array);
    let thread = threads
        .and_then(<[Json]>::first)
        .expect("no service thread");
    let buckets = ["lock_wait_ns", "drain_ns", "poll_ns", "park_ns"];
    let derived = ["duty_cycle", "wakeups", "wakeup_to_drain"];
    has_keys(
        "the progress thread",
        thread,
        &[&buckets[..], &derived].concat(),
    );
    has_keys(
        "/health.json",
        &health,
        &["mutex_wait", "evals", "send_window", "recv_window"],
    );
    let coll = health.get("coll_windows").and_then(Json::as_array);
    assert!(coll.is_some_and(|w| !w.is_empty()), "no collective window");
    println!("  live scrape: /metrics and /health.json carry every key");

    let (status, _) = http_get(addr, "/nope");
    assert!(
        status.contains("404"),
        "unknown path must 404, got {status}"
    );
}

/// Phase 1: clean traffic with a deliberately mis-pinned allreduce and a
/// live scrape while messages are in flight.
fn phase1() -> HealthReport {
    let config = MpiConfig::device_defaults()
        // The decision table picks recursive_doubling for an 8-byte
        // allreduce on 2 ranks; pinning ring is the mis-tuned cell the
        // live diagnostic must surface.
        .with_allreduce_algo(AllreduceAlgo::Ring);
    let mut reports = run_devices(ShmDevice::fabric(2), config, |mpi| {
        let world = mpi.world();
        let rank = world.rank();
        let server = (rank == 0).then(|| {
            mpi.serve_metrics("127.0.0.1:0")
                .expect("bind scrape endpoint on loopback")
        });

        let payload: Vec<u32> = (0..16).collect();
        let mut buf = [0u32; 16];
        let evals0 = mpi.health().evals;
        let (mut i, mut evaluated) = (0, false);
        while i < ITERS || !everyone(&world, evaluated) {
            if rank == 0 {
                world.send(&payload, 1, 7).unwrap();
                world.recv(&mut buf, 1, 8).unwrap();
            } else {
                world.recv(&mut buf, 0, 7).unwrap();
                world.send(&payload, 0, 8).unwrap();
            }
            let s = world.allreduce(&[rank as u64 + 1], ReduceOp::Sum).unwrap();
            assert_eq!(s[0], 3, "allreduce corrupted");
            // Mid-run, with rank 1 blocked in its next receive (traffic
            // in flight), scrape the endpoint over real TCP.
            if i == ITERS / 2 {
                if let Some(srv) = &server {
                    scrape_and_check(srv.addr());
                }
            }
            std::thread::sleep(TICK);
            evaluated = mpi.health().evals > evals0;
            i += 1;
        }
        world.barrier().unwrap();
        mpi.health()
    });

    for report in &reports {
        assert!(report.enabled, "health accounting should default on");
        assert!(report.evals >= 1, "continuous diagnostics never ran");
        let progress = report
            .threads
            .iter()
            .find(|t| t.name == "progress")
            .expect("progress thread accounting missing from report");
        assert!(progress.wall_ns > 0, "progress thread never accounted");
        assert!(
            progress.coverage >= 0.99,
            "duty-cycle buckets cover only {:.4} of progress-thread wall \
             time (acceptance bar: ≥ 0.99)",
            progress.coverage
        );
        assert!(progress.wakeups > 0 && progress.frames > 0);
        assert!(
            report.send_window.count > 0 && report.recv_window.count > 0,
            "sliding windows recorded no completions"
        );
        assert!(
            report
                .coll_windows
                .iter()
                .any(|w| w.collective == "allreduce"
                    && w.algorithm == "ring"
                    && w.window.count > 0),
            "per-(collective, algorithm) window missing the pinned ring \
             allreduce: {:?}",
            report
                .coll_windows
                .iter()
                .map(|w| (&w.collective, &w.algorithm, w.window.count))
                .collect::<Vec<_>>()
        );
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == DiagKind::CollMistuned),
            "mis-pinned allreduce was not diagnosed live; active: {:?}",
            report.diagnostics
        );
        println!(
            "  rank {}: progress duty-cycle {:.3} (coverage {:.4}), \
             {} wakeups / {} frames, {} evals, send p99 {} ns (1-in-64 \
             sample) over {} completions",
            report.rank,
            progress.duty_cycle,
            progress.coverage,
            progress.wakeups,
            progress.frames,
            report.evals,
            report.send_window.p99_ns,
            report.send_window.count,
        );
        for d in &report.diagnostics {
            println!(
                "  rank {} diagnostic [{}]: {}",
                report.rank,
                d.kind.name(),
                d.summary
            );
        }
    }
    reports.remove(0)
}

/// Phase 2: seeded eager drops under selective repeat force a retransmit storm;
/// the rolling-delta evaluator must diagnose it *while it happens*.
fn phase2() {
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig {
                seed: 0x4EA1_7B00 + rank as u64,
                control: FaultRates::NONE,
                eager: FaultRates::drop_only(DROP),
                bulk: FaultRates::drop_only(DROP),
                drop_quantum: None,
            };
            ReliableDevice::new(FaultyDevice::new(dev, cfg), RelConfig::default())
        })
        .collect();
    let storm_seen = run_devices(devices, MpiConfig::device_defaults(), |mpi| {
        let world = mpi.world();
        let rank = world.rank();
        let payload: Vec<u32> = (0..4).collect();
        let mut buf = [0u32; 4];
        let mut seen = false;
        let evals0 = mpi.health().evals;
        let (mut round, mut evaluated) = (0, false);
        while round < ROUNDS || !everyone(&world, evaluated) {
            if rank == 0 {
                let reqs: Vec<_> = (0..BURST)
                    .map(|_| world.isend(&payload, 1, 11).unwrap())
                    .collect();
                lmpi::wait_all(reqs).unwrap();
                world.recv(&mut buf, 1, 12).unwrap();
            } else {
                for _ in 0..BURST {
                    world.recv(&mut buf, 0, 11).unwrap();
                }
                world.send(&payload, 0, 12).unwrap();
            }
            // Live check: the diagnostic must appear from rolling deltas
            // while the storm is still blowing, not post-mortem.
            let report = mpi.health();
            seen |= report
                .diagnostics
                .iter()
                .any(|d| d.kind == DiagKind::RetransmitStorm);
            evaluated = report.evals > evals0;
            round += 1;
        }
        world.barrier().unwrap();
        (rank, seen, mpi.transport_stats().retransmits)
    });
    let retransmits: u64 = storm_seen.iter().map(|&(_, _, r)| r).sum();
    assert!(
        retransmits > 0,
        "fault injector never forced a retransmission — nothing was stressed"
    );
    assert!(
        storm_seen.iter().any(|&(_, seen, _)| seen),
        "retransmit storm ({retransmits} retransmits) was never diagnosed \
         live from rolling deltas"
    );
    println!(
        "  retransmit storm: {retransmits} retransmits, diagnosed live on \
         rank(s) {:?}",
        storm_seen
            .iter()
            .filter(|&&(_, seen, _)| seen)
            .map(|&(r, _, _)| r)
            .collect::<Vec<_>>()
    );
}

fn main() {
    println!("phase 1: clean run, mis-pinned allreduce, live scrape");
    let report = phase1();

    println!("phase 2: injected retransmit storm");
    phase2();

    std::fs::create_dir_all("target").expect("create target dir");
    let json = report.to_json();
    validate_json(&json).expect("health report JSON malformed");
    std::fs::write("target/health_report.json", &json).expect("write health report");
    println!("wrote target/health_report.json");
}
