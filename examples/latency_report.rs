//! Table-1 latency report generator: trace a 1 B → 64 KiB ping-pong over
//! the real shared-memory transport and the simulated TCP/ATM cluster,
//! attribute every nanosecond to API / protocol / wire phases from the
//! flight record, assert that every row attributes all its round trips
//! and sums to within 5 % of the measured RTT, and emit
//!
//! * `target/latency_breakdown.json` — machine-readable per-phase rows
//!   (the generated Table 1), and
//! * `target/latency_trace.json` — a Chrome trace-event file of the 64 KiB
//!   shm run, loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`.
//!
//! Run with `cargo run --release --example latency_report`.

use lmpi::obs::{
    attribute_ping_pong, chrome_trace_json, correlate, table1_json, Table1Row, TraceBuffer, Tracer,
};
use lmpi::{
    run_cluster, run_devices, ClusterNet, ClusterTransport, Device, Mpi, MpiConfig, ShmDevice,
};

const SIZES: &[usize] = &[1, 64, 1024, 8192, 65536];
const WARMUP: usize = 5;
const ROUNDS: usize = 40;

/// Per-rank ping-pong body. Warmup rounds run untraced; the tracer is
/// installed at the warmup/measurement boundary so the trace holds exactly
/// the measured rounds. Returns the measured mean RTT in ns (rank 0 only).
fn pingpong(mpi: &Mpi, tracer: Tracer, nbytes: usize) -> f64 {
    let world = mpi.world();
    let buf = vec![0x5au8; nbytes];
    let mut back = vec![0u8; nbytes];
    if world.rank() == 0 {
        for _ in 0..WARMUP {
            world.send(&buf, 1, 0).unwrap();
            world.recv(&mut back, 1, 0).unwrap();
        }
        mpi.set_tracer(tracer);
        let t0 = mpi.wtime();
        for _ in 0..ROUNDS {
            world.send(&buf, 1, 0).unwrap();
            world.recv(&mut back, 1, 0).unwrap();
        }
        (mpi.wtime() - t0) / ROUNDS as f64 * 1e9
    } else {
        for _ in 0..WARMUP {
            world.recv(&mut back, 0, 0).unwrap();
            world.send(&back, 0, 0).unwrap();
        }
        mpi.set_tracer(tracer);
        for _ in 0..ROUNDS {
            world.recv(&mut back, 0, 0).unwrap();
            world.send(&back, 0, 0).unwrap();
        }
        0.0
    }
}

fn fresh_tracers() -> Vec<Tracer> {
    (0..2u32).map(|r| Tracer::enabled(r, 1 << 18)).collect()
}

fn attribute(
    label: &str,
    nbytes: usize,
    rtt_ns: f64,
    tracers: &[Tracer],
) -> (Table1Row, Vec<TraceBuffer>) {
    let bufs: Vec<TraceBuffer> = tracers.iter().map(|t| t.snapshot()).collect();
    let bd = attribute_ping_pong(&correlate(&bufs), 0);
    let row = Table1Row::from_breakdown(label, nbytes as u64, rtt_ns, &bd)
        .unwrap_or_else(|| panic!("{label}/{nbytes}: no round trips attributed"));
    assert_eq!(
        row.round_trips, ROUNDS as u32,
        "{label}/{nbytes}: attributed {} of {ROUNDS} round trips",
        row.round_trips
    );
    let off = (row.attributed_total_ns() - rtt_ns).abs() / rtt_ns;
    assert!(
        off <= 0.05,
        "{label}/{nbytes}: attributed {:.0} ns is {:.1} % off the measured {rtt_ns:.0} ns",
        row.attributed_total_ns(),
        off * 100.0
    );
    (row, bufs)
}

/// Real shared-memory substrate: engine *and* device events (the devices
/// are built by hand, so the tracer can be installed before they move
/// into `Mpi::new`).
fn shm_row(nbytes: usize) -> (Table1Row, Vec<TraceBuffer>) {
    let tracers = fresh_tracers();
    let mut devices = ShmDevice::fabric(2);
    for (rank, dev) in devices.iter_mut().enumerate() {
        dev.set_tracer(tracers[rank].clone());
    }
    let t = tracers.clone();
    let rtts = run_devices(devices, MpiConfig::device_defaults(), move |mpi| {
        let tracer = t[mpi.world().rank()].clone();
        pingpong(&mpi, tracer, nbytes)
    });
    attribute("shm", nbytes, rtts[0], &tracers)
}

/// Simulated TCP over the ATM switch: engine events on the shared virtual
/// clock reproduce the paper's Table 1 anatomy.
fn sim_tcp_row(nbytes: usize) -> (Table1Row, Vec<TraceBuffer>) {
    let tracers = fresh_tracers();
    let t = tracers.clone();
    let rtts = run_cluster(
        2,
        ClusterNet::Atm,
        ClusterTransport::Tcp,
        MpiConfig::device_defaults(),
        move |mpi| {
            let tracer = t[mpi.world().rank()].clone();
            pingpong(&mpi, tracer, nbytes)
        },
    );
    attribute("sim-tcp-atm", nbytes, rtts[0], &tracers)
}

fn print_row(row: &Table1Row) {
    let us = |ns: f64| ns / 1_000.0;
    let total = row.attributed_total_ns();
    let delta_pct = if row.measured_rtt_ns > 0.0 {
        (total - row.measured_rtt_ns) / row.measured_rtt_ns * 100.0
    } else {
        0.0
    };
    println!(
        "{:<12} {:>7} B  rtt {:>10.2} us | api {:>8.2} proto {:>8.2} wire {:>9.2} | attributed {:>10.2} us ({:+.1}%)",
        row.label,
        row.bytes,
        us(row.measured_rtt_ns),
        us(row.api_ns),
        us(row.proto_ns()),
        us(row.wire_ns),
        us(total),
        delta_pct,
    );
}

fn main() {
    let mut rows = Vec::new();
    let mut trace_bufs: Option<Vec<TraceBuffer>> = None;

    println!("== shm (real time) ==");
    for &n in SIZES {
        let (row, bufs) = shm_row(n);
        print_row(&row);
        if n == 65536 {
            trace_bufs = Some(bufs);
        }
        rows.push(row);
    }

    println!("== sim-tcp-atm (virtual time) ==");
    for &n in SIZES {
        let (row, _) = sim_tcp_row(n);
        print_row(&row);
        rows.push(row);
    }

    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write("target/latency_breakdown.json", table1_json(&rows))
        .expect("write breakdown json");
    let bufs = trace_bufs.expect("shm 64KiB trace captured");
    std::fs::write("target/latency_trace.json", chrome_trace_json(&bufs))
        .expect("write chrome trace");
    println!("wrote target/latency_breakdown.json and target/latency_trace.json");
}
