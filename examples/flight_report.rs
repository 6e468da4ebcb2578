//! Message flight recorder demo: run a deliberately stressed 2-rank
//! workload over the reliable-over-faulty shared-memory stack, correlate
//! the per-rank trace rings into per-message causal timelines, run the
//! stall diagnostics, and export a metrics snapshot — then *assert* the
//! acceptance bar before writing the artifacts:
//!
//! * every delivered message reconstructs a complete
//!   post → match → wire → deliver timeline;
//! * the causal invariants hold and every `WireTx` is accounted for
//!   (delivered, dropped-with-fault, or retransmit activity — no orphans);
//! * the injected credit starvation is *diagnosed* from the trace alone.
//!
//! Artifacts (all under `target/`):
//!
//! * `flight_timeline.json`    — per-message timelines with phase dwells;
//! * `flight_diagnostics.json` — the typed diagnostics with evidence;
//! * `flight_snapshot.prom`    — Prometheus text exposition of rank 0's
//!   counters, transport stats and the per-message latency histogram;
//! * `flight_snapshot.json`    — the same snapshot as JSON.
//!
//! Run with `cargo run --release --example flight_report`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lmpi::obs::{
    chrome_trace_json, correlate, diagnose, diagnostics_json, flight_json, validate_json,
    DiagConfig, DiagKind, LatencyHist, RankStats, TraceBuffer, Tracer,
};
use lmpi::{
    run_devices, validate_prometheus, FaultConfig, FaultRates, FaultyDevice, MetricsSnapshot,
    MpiConfig, RelConfig, ReliableDevice, ShmDevice,
};

/// Small eager messages rank 0 bursts at rank 1 before any receive is
/// posted (they cross the wire into the unexpected queue, and with only
/// [`ENV_SLOTS`] envelope credits the tail of the burst starves).
const BURST: u32 = 24;
/// Envelope credits per sender: tiny on purpose, so the burst stalls.
const ENV_SLOTS: u32 = 2;
/// How long rank 1 sits on its hands before posting receives. Everything
/// rank 0 managed to send dwells in the unexpected queue for this long,
/// and the credit stall the tail of the burst suffers is at least this
/// visible multiple of the diagnostic threshold.
const RECV_DELAY: std::time::Duration = std::time::Duration::from_millis(5);
/// Rendezvous payload length in `u32`s (160 KiB, well past the 8 KiB
/// eager threshold) so the RTS → CTS → data path shows up too.
const RNDV_WORDS: usize = 40_000;
/// Seeded drop rate on eager and bulk frames: enough loss that go-back-N
/// visibly retransmits, low enough the run stays short.
const DROP: f64 = 0.08;

type Stack = ReliableDevice<FaultyDevice<ShmDevice>>;

/// Shm fabric wrapped in seeded fault injection plus go-back-N, with one
/// flight-recorder tracer per rank installed through the whole stack.
fn build_stack(tracers: &[Tracer]) -> (Vec<Stack>, Vec<Arc<lmpi::FaultStats>>) {
    let mut fault_stats = Vec::new();
    let devices = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig {
                seed: 0xF11_6448 + rank as u64,
                control: FaultRates::NONE,
                eager: FaultRates::drop_only(DROP),
                bulk: FaultRates::drop_only(DROP),
                drop_quantum: None,
            };
            let faulty = FaultyDevice::new(dev, cfg);
            fault_stats.push(faulty.stats_handle());
            let mut rel = ReliableDevice::new(faulty, RelConfig::default());
            // One tracer per rank, shared by every layer of the stack
            // (engine events, fault injections, retransmits, wire tx/rx
            // all land in the same ring so the correlator sees them).
            lmpi::Device::set_tracer(&mut rel, tracers[rank].clone());
            rel
        })
        .collect();
    (devices, fault_stats)
}

/// Per-rank result the closure sends back to `main`.
struct RankOutcome {
    start_ns: u64,
    snapshot: MetricsSnapshot,
    hook_fires: u64,
}

fn workload(mpi: &lmpi::Mpi, tracer: Tracer) -> RankOutcome {
    let world = mpi.world();
    mpi.set_tracer(tracer);

    // Periodic snapshot hook (tentpole feature 4): count its firings so
    // the run proves the hook actually triggers from the progress loop.
    let fires = Arc::new(AtomicU64::new(0));
    let fires_in = Arc::clone(&fires);
    mpi.set_metrics_hook(1_000_000, move |_snap| {
        fires_in.fetch_add(1, Ordering::Relaxed);
    });

    let start_ns = mpi.metrics_snapshot().t_ns;
    if world.rank() == 0 {
        // Burst past the envelope-credit window, then a rendezvous-sized
        // message, then wait for rank 1's completion token.
        for i in 0..BURST {
            let payload: Vec<u32> = (0..16).map(|j| i * 100 + j).collect();
            world.send(&payload, 1, 1).unwrap();
        }
        let big: Vec<u32> = (0..RNDV_WORDS as u32).collect();
        world.send(&big, 1, 2).unwrap();
        let mut token = [0u32];
        world.recv(&mut token, 1, 3).unwrap();
        assert_eq!(token[0], BURST, "completion token corrupted");
    } else {
        // Sit idle first: the burst lands in the unexpected queue and the
        // sender's credit dries up — that stall is what the diagnostics
        // must find from the trace.
        std::thread::sleep(RECV_DELAY);
        let mut payload = [0u32; 16];
        for i in 0..BURST {
            world.recv(&mut payload, 0, 1).unwrap();
            assert_eq!(payload[0], i * 100, "burst message {i} corrupted");
        }
        let mut big = vec![0u32; RNDV_WORDS];
        world.recv(&mut big, 0, 2).unwrap();
        assert!(big.iter().enumerate().all(|(i, &v)| v == i as u32));
        world.send(&[BURST], 0, 3).unwrap();
    }

    // Collective phase: the dispatch engine picks the table algorithms,
    // stamps them on the `CollBegin` trace events, and tallies them into
    // the `lmpi_coll_dispatch_total` metric asserted in `main`.
    world.barrier().unwrap();
    let red = world
        .allreduce(&[world.rank() as u64 + 1], lmpi::ReduceOp::Sum)
        .unwrap();
    assert_eq!(red[0], 3, "allreduce corrupted");
    let mut word = [world.rank() as u32 + 7];
    world.bcast(&mut word, 0).unwrap();
    assert_eq!(word[0], 7, "bcast corrupted");

    RankOutcome {
        start_ns,
        snapshot: mpi.metrics_snapshot(),
        hook_fires: fires.load(Ordering::Relaxed),
    }
}

fn rank_stats(out: &RankOutcome) -> RankStats {
    let c = &out.snapshot.counters;
    let t = &out.snapshot.transport;
    RankStats {
        rank: out.snapshot.rank,
        span_ns: out.snapshot.t_ns.saturating_sub(out.start_ns),
        credit_stall_ns: c.credit_stall_ns,
        matches: c.matches,
        unexpected_hits: c.unexpected_hits,
        unexpected_hwm: c.unexpected_hwm,
        match_bins_hwm: c.match_bins_hwm,
        data_frames_sent: t.data_frames_sent,
        retransmits: t.retransmits,
        peers_dead: t.peers_dead,
    }
}

fn main() {
    let tracers: Vec<Tracer> = (0..2u32).map(|r| Tracer::enabled(r, 1 << 18)).collect();
    let (devices, fault_stats) = build_stack(&tracers);
    let t = tracers.clone();
    let config = MpiConfig::device_defaults().with_env_slots(ENV_SLOTS);
    let outcomes = run_devices(devices, config, move |mpi| {
        let tracer = t[mpi.world().rank()].clone();
        workload(&mpi, tracer)
    });

    let dropped: u64 = fault_stats.iter().map(|s| s.snapshot().1).sum();
    assert!(
        dropped > 0,
        "fault injector never fired — nothing was stressed"
    );
    assert!(
        outcomes.iter().any(|o| o.hook_fires > 0),
        "periodic metrics hook never fired"
    );

    // -- Correlate ---------------------------------------------------------
    let bufs: Vec<TraceBuffer> = tracers.iter().map(|t| t.snapshot()).collect();
    let record = correlate(&bufs);
    assert!(!record.truncated, "trace ring overflowed; enlarge the ring");

    let (complete, delivered) = record.complete_delivered();
    assert!(delivered > 0, "no deliveries observed");
    assert_eq!(
        complete, delivered,
        "acceptance bar: every delivered message must reconstruct a \
         complete post → match → wire → deliver timeline"
    );
    for v in &record.violations {
        eprintln!("violation: {}", v.describe());
    }
    assert!(record.violations.is_empty(), "causal invariants violated");

    let acct = record.account_wire_tx();
    assert!(
        acct.orphans.is_empty(),
        "unaccounted WireTx for messages {:?}",
        acct.orphans
    );

    // -- Diagnose ----------------------------------------------------------
    let stats: Vec<RankStats> = outcomes.iter().map(rank_stats).collect();
    let diags = diagnose(&record, &bufs, &stats, &DiagConfig::default());
    assert!(
        diags.iter().any(|d| d.kind == DiagKind::CreditStarvation),
        "injected credit starvation was not diagnosed; stats: {stats:?}"
    );

    // -- Report ------------------------------------------------------------
    println!(
        "flight record: {} messages, {delivered} delivered ({complete} with \
         complete timelines), {} wire tx delivered / {} fault-dropped / {} \
         in recovery, {dropped} frames dropped by the injector",
        record.timelines.len(),
        acct.delivered,
        acct.dropped_with_fault,
        acct.retransmitted,
    );
    let mut total_hist = LatencyHist::new();
    for tl in &record.timelines {
        if let Some(ns) = tl.total_ns() {
            total_hist.record(ns);
        }
        if tl.unexpected_dwell_ns().unwrap_or(0) > 0 || tl.retransmits > 0 {
            println!(
                "  msg {}:{} queue-wait {:?} unexpected-dwell {:?} wire {:?} \
                 total {:?} retransmits {}",
                tl.msg.src,
                tl.msg.seq,
                tl.send_queue_wait_ns(),
                tl.unexpected_dwell_ns(),
                tl.wire_ns(),
                tl.total_ns(),
                tl.retransmits,
            );
        }
    }
    for d in &diags {
        println!(
            "  diagnostic [{}] rank {}: {} ({} evidence events)",
            d.kind.name(),
            d.rank,
            d.summary,
            d.evidence.len()
        );
    }

    // -- Export ------------------------------------------------------------
    std::fs::create_dir_all("target").expect("create target dir");

    let timeline_json = flight_json(&record);
    validate_json(&timeline_json).expect("timeline JSON malformed");
    std::fs::write("target/flight_timeline.json", &timeline_json).expect("write timeline");

    let diag_json = diagnostics_json(&diags);
    validate_json(&diag_json).expect("diagnostics JSON malformed");
    std::fs::write("target/flight_diagnostics.json", &diag_json).expect("write diagnostics");

    let snap = outcomes
        .into_iter()
        .next()
        .expect("rank 0 outcome")
        .snapshot
        .with_hist("msg_total", total_hist.summary());
    let prom = snap.to_prometheus();
    let samples = validate_prometheus(&prom).expect("snapshot must parse as Prometheus text");
    // Collective dispatch accounting: the 2-rank table picks
    // dissemination / recursive doubling / binomial for the phase above,
    // and each selection must surface as a labelled counter sample.
    for labels in [
        "collective=\"barrier\",algorithm=\"dissemination\"",
        "collective=\"allreduce\",algorithm=\"recursive_doubling\"",
        "collective=\"bcast\",algorithm=\"binomial\"",
    ] {
        let sample = format!("lmpi_coll_dispatch_total{{rank=\"0\",{labels}}}");
        assert!(
            prom.contains(&sample),
            "metrics snapshot is missing {sample}:\n{prom}"
        );
    }
    // And the flight recorder must stamp the chosen algorithm on the
    // collective trace spans.
    let chrome = chrome_trace_json(&bufs);
    validate_json(&chrome).expect("chrome trace JSON malformed");
    for algo in ["dissemination", "recursive_doubling", "binomial"] {
        assert!(
            chrome.contains("\"algo\"") && chrome.contains(algo),
            "chrome trace is missing the {algo} CollBegin annotation"
        );
    }
    let snap_json = snap.to_json();
    validate_json(&snap_json).expect("snapshot JSON malformed");
    std::fs::write("target/flight_snapshot.prom", &prom).expect("write prom snapshot");
    std::fs::write("target/flight_snapshot.json", &snap_json).expect("write json snapshot");

    println!(
        "wrote target/flight_timeline.json, target/flight_diagnostics.json, \
         target/flight_snapshot.prom ({samples} samples), target/flight_snapshot.json"
    );
}
