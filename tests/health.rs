//! Live health accounting invariants (ISSUE 9).
//!
//! * Property: under seeded fault schedules in background-progress mode,
//!   the progress thread's duty-cycle accounting stays consistent with
//!   the engine counters — `ThreadHealth` wakeups/frames bracket the
//!   `Counters::progress_*` values, the four buckets sum to (almost
//!   exactly) the credited wall span, and no bucket ever exceeds it.
//! * Round-trip: `Mpi::serve_metrics` serves `validate_prometheus`-clean
//!   text over a real in-process TCP connection, with the health and
//!   window families present, plus a JSON health report — no mocks, no
//!   ignored test.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use lmpi::obs::validate_json;
use lmpi::{
    run_devices, validate_prometheus, Counters, FaultConfig, FaultRates, FaultyDevice,
    HealthReport, Mpi, MpiConfig, RelConfig, ReliableDevice, ShmDevice,
};
use lmpi_sim::for_each_case;

type Stack = ReliableDevice<FaultyDevice<ShmDevice>>;

/// Shm fabric under seeded fault injection plus the reliability layer, so
/// drops stress the progress thread without losing messages.
fn lossy_fabric(nprocs: usize, base_seed: u64, rates: FaultRates) -> Vec<Stack> {
    ShmDevice::fabric(nprocs)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let faulty =
                FaultyDevice::new(dev, FaultConfig::uniform(base_seed + rank as u64, rates));
            ReliableDevice::new(faulty, RelConfig::default())
        })
        .collect()
}

/// Request/reply traffic, then a quiesce pause so the progress thread has
/// parked before the accounting is read. Counter reads bracket the health
/// snapshot: the loop bumps `Counters::progress_*` under the lock *before*
/// the matching `ThreadHealth` add, so `before - 1 ≤ health ≤ after`.
fn traffic_and_snapshot(mpi: &Mpi, lens: &[usize]) -> (Counters, HealthReport, Counters) {
    let world = mpi.world();
    if world.rank() == 0 {
        for (i, &len) in lens.iter().enumerate() {
            let payload = vec![i as u8; len];
            world.send(&payload, 1, i as u32).unwrap();
            let mut ack = [0u32];
            world.recv(&mut ack, 1, 900).unwrap();
        }
    } else {
        for (i, &len) in lens.iter().enumerate() {
            let mut buf = vec![0u8; len];
            world.recv(&mut buf, 0, i as u32).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8), "message {i} corrupted");
            world.send(&[i as u32], 0, 900).unwrap();
        }
    }
    world.barrier().unwrap();
    // Let the wall span dominate any snapshot race and let trailing
    // credits/acks drain, so the coverage bound below is tight.
    std::thread::sleep(Duration::from_millis(20));
    let before = mpi.counters();
    let report = mpi.health();
    let after = mpi.counters();
    (before, report, after)
}

// Each case spawns a 2-rank threaded fabric; keep the count modest.
#[test]
fn progress_accounting_consistent_under_seeded_faults() {
    for_each_case(8, |rng| {
        let seed = rng.next_u64();
        let lens = rng.vec(1..6, |r| r.range(1..600));
        let drop = [0.0, 0.03, 0.08][rng.range(0..3)];
        let rates = FaultRates {
            drop,
            dup: 0.02,
            reorder: 0.03,
            delay: 0.02,
            delay_us: 150,
        };
        let devices = lossy_fabric(2, seed, rates);
        let cfg = MpiConfig::device_defaults();
        let lens2 = lens.clone();
        let results = run_devices(devices, cfg, move |mpi: Mpi| {
            traffic_and_snapshot(&mpi, &lens2)
        });

        for (rank, (before, report, after)) in results.iter().enumerate() {
            assert!(report.enabled, "health must default on");
            let p = report
                .threads
                .iter()
                .find(|t| t.name == "progress")
                .expect("progress thread accounting missing");

            // Wakeup/frame counts bracket the engine counters (the loop
            // bumps the counter, then the health cell — never the other
            // way around, and only one frame is ever mid-flight).
            assert!(
                p.frames + 1 >= before.progress_frames && p.frames <= after.progress_frames,
                "rank {}: health frames {} outside counter bracket [{} - 1, {}]",
                rank,
                p.frames,
                before.progress_frames,
                after.progress_frames
            );
            assert!(
                p.wakeups + 1 >= before.progress_wakeups && p.wakeups <= after.progress_wakeups,
                "rank {}: health wakeups {} outside counter bracket [{} - 1, {}]",
                rank,
                p.wakeups,
                before.progress_wakeups,
                after.progress_wakeups
            );
            // Who handled a frame depends on who held the drain role when
            // it arrived — mostly the blocked caller — so the traffic shows
            // in the engine's count, not necessarily in the thread's.
            assert!(
                after.wires_handled > 0,
                "rank {rank}: traffic ran but no frames accounted"
            );

            // Duty-cycle buckets: contiguous segments, so the sum tracks
            // the credited wall span and nothing is ever negative
            // (u64 + saturating arithmetic) or larger than the span.
            let accounted = p.lock_wait_ns + p.drain_ns + p.poll_ns + p.park_ns;
            assert!(p.wall_ns > 0, "rank {rank}: no wall span credited");
            for (name, ns) in [
                ("lock_wait", p.lock_wait_ns),
                ("drain", p.drain_ns),
                ("poll", p.poll_ns),
                ("park", p.park_ns),
            ] {
                assert!(
                    ns <= accounted,
                    "rank {}: bucket {} = {} exceeds the accounted sum {}",
                    rank,
                    name,
                    ns,
                    accounted
                );
            }
            assert!(
                p.coverage >= 0.95 && p.coverage <= 1.05,
                "rank {}: buckets cover {:.4} of the {} ns wall span \
                 (accounted {} ns) — must stay ≈ 1.0",
                rank,
                p.coverage,
                p.wall_ns,
                accounted
            );
            // Wakeup-to-drain latency: sampled once per productive wakeup.
            assert!(
                p.wakeup_to_drain.count <= p.wakeups,
                "rank {}: {} wakeup-to-drain samples for {} wakeups",
                rank,
                p.wakeup_to_drain.count,
                p.wakeups
            );
            // Ticks the thread spent yielded to a blocked caller are
            // parked time, never a slow wakeup: blocking traffic must not
            // look like `progress_starvation` (p99 >= 50 ms).
            assert!(
                p.wakeup_to_drain.p99_ns < 50_000_000,
                "rank {}: wakeup-to-drain p99 {} ns reads as starvation",
                rank,
                p.wakeup_to_drain.p99_ns
            );
        }
    });
}

/// With health disabled, no accounting happens: the report says so, every
/// counter stays zero, and the windows stay empty.
#[test]
fn disabled_health_reports_empty() {
    let cfg = MpiConfig::device_defaults().with_health(false);
    let reports = run_devices(ShmDevice::fabric(2), cfg, |mpi: Mpi| {
        let world = mpi.world();
        let mut buf = [0u32; 4];
        if world.rank() == 0 {
            world.send(&[1u32, 2, 3, 4], 1, 5).unwrap();
            world.recv(&mut buf, 1, 6).unwrap();
        } else {
            world.recv(&mut buf, 0, 5).unwrap();
            world.send(&[5u32, 6, 7, 8], 0, 6).unwrap();
        }
        world.barrier().unwrap();
        mpi.health()
    });
    for report in &reports {
        assert!(!report.enabled);
        let p = &report.threads[0];
        assert_eq!(p.wall_ns, 0, "disabled health must not read clocks");
        assert_eq!(p.frames + p.wakeups, 0);
        assert_eq!(report.send_window.count + report.recv_window.count, 0);
        assert_eq!(report.evals, 0);
    }
}

/// Satellite 6: the scrape endpoint round-trips over real TCP, in-process.
/// Skips at runtime (with a message) only if loopback binding is
/// impossible in the sandbox — never `#[ignore]`d.
#[test]
fn scrape_endpoint_round_trips_prometheus_and_json() {
    let outcomes = run_devices(
        ShmDevice::fabric(2),
        MpiConfig::device_defaults(),
        |mpi: Mpi| {
            let world = mpi.world();
            // If loopback binding is impossible in this sandbox the rank
            // still runs the traffic (so its peer cannot deadlock) and the
            // test skips at the end.
            let mut skipped = false;
            let server = if world.rank() == 0 {
                match mpi.serve_metrics("127.0.0.1:0") {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("skipping scrape round-trip: bind failed: {e}");
                        skipped = true;
                        None
                    }
                }
            } else {
                None
            };
            // Some traffic so the windows and counters have content.
            let mut buf = [0u32; 8];
            for i in 0..16u32 {
                if world.rank() == 0 {
                    world.send(&[i; 8], 1, 1).unwrap();
                    world.recv(&mut buf, 1, 2).unwrap();
                } else {
                    world.recv(&mut buf, 0, 1).unwrap();
                    world.send(&[i; 8], 0, 2).unwrap();
                }
            }

            if let Some(server) = server {
                let get = |path: &str| -> (String, String) {
                    let mut s =
                        TcpStream::connect(server.addr()).expect("connect to scrape endpoint");
                    write!(
                        s,
                        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                    )
                    .expect("write request");
                    let mut resp = String::new();
                    s.read_to_string(&mut resp).expect("read response");
                    let (head, body) = resp.split_once("\r\n\r\n").expect("malformed response");
                    (head.to_string(), body.to_string())
                };

                let (head, prom) = get("/metrics");
                assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
                assert!(
                    head.contains("text/plain"),
                    "metrics content type missing: {head}"
                );
                let n = validate_prometheus(&prom)
                    .unwrap_or_else(|e| panic!("invalid Prometheus text: {e}\n{prom}"));
                assert!(n > 0, "empty exposition");
                for family in [
                    "lmpi_health_thread_time_ns_total",
                    "lmpi_health_thread_duty_cycle",
                    "lmpi_health_mutex_wait_ns",
                    "lmpi_window_latency_ns",
                    "lmpi_window_count",
                    // The base snapshot families must still be there too.
                    "lmpi_matches_total",
                    "lmpi_caller_frames_total",
                ] {
                    assert!(prom.contains(family), "missing {family}:\n{prom}");
                }

                let (head, json) = get("/health.json");
                assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
                validate_json(&json).expect("health JSON malformed");
                assert!(
                    json.contains("\"threads\""),
                    "report missing threads: {json}"
                );

                let (head, _) = get("/no-such-path");
                assert!(head.starts_with("HTTP/1.1 404"), "bad status: {head}");
                // Dropping the server must shut the responder down and
                // unblock its accept loop (covered by process exit: a
                // leaked thread would hang the test binary).
                drop(server);
            }
            world.barrier().unwrap();
            skipped
        },
    );
    // outcomes[0] is true only when the sandbox offered no loopback; the
    // runtime skip already logged why.
    let _ = outcomes;
}
