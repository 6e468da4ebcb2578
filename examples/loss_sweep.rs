//! Bandwidth-vs-loss sweep: single-frame rendezvous vs the pipelined
//! chunked stream, go-back-N vs selective repeat (EXPERIMENTS.md
//! ablation E).
//!
//! Three stack configurations move a stream of 1 MiB messages over
//! `Reliable(Faulty(Shm))` while the injected drop rate sweeps upward:
//!
//! * **single-frame + go-back-N** — the pre-chunking stack: the whole
//!   payload rides one data frame (a chunk size no message reaches);
//! * **chunked + go-back-N** — the pipelined stream with the fallback
//!   retransmission mode;
//! * **chunked + selective-repeat** — the default stack after chunking.
//!
//! Loss is injected per MTU quantum ([`FaultConfig::with_drop_quantum`]):
//! a frame spanning `q` quanta is lost with `1 − (1 − p)^q`, which is how
//! a fragmenting medium actually behaves — any lost fragment destroys the
//! whole frame. That is precisely why the single-frame path collapses: at
//! a 1% quantum rate a 1 MiB frame (117 quanta of 9000 B) is lost with
//! ~69% per attempt and pays the full megabyte plus an RTO backoff per
//! retry, while a 48 KiB chunk is lost with ~6% and costs one chunk. A
//! 1500 B MTU would make the single-frame leg fail outright (every
//! attempt near-certain to lose a fragment); the 9000 B jumbo quantum keeps it
//! *measurably* collapsing instead.
//!
//! The run asserts the acceptance bar — at 1% loss, chunked +
//! selective-repeat bandwidth ≥ 2× the go-back-N single-frame
//! configuration — then writes `target/loss_sweep.json`.
//!
//! Run with `cargo run --release --example loss_sweep`.

use std::time::Duration;

use lmpi::{
    run_devices, FaultConfig, FaultRates, FaultyDevice, MpiConfig, RelConfig, RelMode,
    ReliableDevice, ShmDevice,
};

/// Message size: the acceptance criterion's 1 MiB rendezvous payload.
const MSG: usize = 1 << 20;
/// Messages per measurement point (bandwidth averages over the stream).
const MSGS: usize = 6;
/// Rendezvous chunk for the chunked legs: one UDP datagram's worth, the
/// sockets default.
const CHUNK: usize = 48 << 10;
/// Chunks in flight before the sender waits for a chunk ack.
const WINDOW: u32 = 8;
/// Loss model quantum: a jumbo-frame MTU. See the module docs for why.
const QUANTUM: usize = 9000;
/// Injected per-quantum drop rates swept, ascending.
const RATES: [f64; 4] = [0.0, 0.002, 0.005, 0.01];

/// One stack configuration under test.
struct Leg {
    name: &'static str,
    /// Rendezvous chunk size (a half-usize disables chunking: the whole
    /// payload takes the seed single-frame path).
    chunk: usize,
    mode: RelMode,
}

const LEGS: [Leg; 3] = [
    Leg {
        name: "single-frame + go-back-N",
        chunk: usize::MAX / 2,
        mode: RelMode::GoBackN,
    },
    Leg {
        name: "chunked + go-back-N",
        chunk: CHUNK,
        mode: RelMode::GoBackN,
    },
    Leg {
        name: "chunked + selective-repeat",
        chunk: CHUNK,
        mode: RelMode::SelectiveRepeat,
    },
];

/// Identical tuning for both modes so the sweep isolates the gap-handling
/// strategy. The RTO ceiling is lowered from the 100 ms default to bound
/// the single-frame leg's backoff tail at high loss; the retry budget is
/// the library's fixed 30 (`MAX_RETRIES`).
fn rel(mode: RelMode) -> RelConfig {
    RelConfig {
        window: 32,
        rto: Duration::from_millis(2),
        rto_max: Duration::from_millis(20),
        mode,
        ..RelConfig::default()
    }
}

/// Stream `MSGS` × 1 MiB from rank 0 to rank 1 through the given stack;
/// returns achieved bandwidth in MiB/s.
fn measure(leg: &Leg, drop: f64) -> f64 {
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig::uniform(
                0x10e5_5eed ^ drop.to_bits().rotate_left(17) ^ rank as u64,
                FaultRates::drop_only(drop),
            )
            .with_drop_quantum(QUANTUM);
            ReliableDevice::new(FaultyDevice::new(dev, cfg), rel(leg.mode))
        })
        .collect();
    let config = MpiConfig::device_defaults()
        .with_rndv_chunk(leg.chunk)
        .with_rndv_window(WINDOW);
    let elapsed = run_devices(devices, config, move |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let data = vec![0x5Au8; MSG];
            let t0 = mpi.wtime();
            for _ in 0..MSGS {
                world.send(&data, 1, 1).expect("send through lossy stack");
            }
            // Flush: the clock stops when the receiver has everything.
            let mut done = [0u8];
            world.recv(&mut done, 1, 2).expect("completion ack");
            mpi.wtime() - t0
        } else {
            let mut buf = vec![0u8; MSG];
            for _ in 0..MSGS {
                let st = world
                    .recv(&mut buf, 0, 1)
                    .expect("receive through lossy stack");
                assert_eq!(st.len, MSG, "truncated transfer");
            }
            world.send(&[1u8], 0, 2).expect("completion ack");
            0.0
        }
    })[0];
    (MSGS * MSG) as f64 / (1 << 20) as f64 / elapsed
}

fn main() {
    println!(
        "bandwidth vs loss, {MSGS} x 1 MiB over Reliable(Faulty(Shm)), \
         drop per {QUANTUM} B quantum\n"
    );
    println!(
        "{:<10} {:>28} {:>24} {:>28}",
        "drop", LEGS[0].name, LEGS[1].name, LEGS[2].name
    );

    let mut rows = Vec::new();
    for &drop in &RATES {
        let bw: Vec<f64> = LEGS.iter().map(|leg| measure(leg, drop)).collect();
        println!(
            "{:<10} {:>22.1} MiB/s {:>18.1} MiB/s {:>22.1} MiB/s",
            format!("{:.1}%", drop * 100.0),
            bw[0],
            bw[1],
            bw[2]
        );
        rows.push((drop, bw));
    }

    // Acceptance bar: at 1% loss the chunked selective-repeat stack must
    // deliver at least twice the single-frame go-back-N configuration.
    let at_1pct = rows
        .iter()
        .find(|(d, _)| *d == 0.01)
        .expect("1% point swept");
    let (gbn_single, sr_chunked) = (at_1pct.1[0], at_1pct.1[2]);
    assert!(
        gbn_single.is_finite() && sr_chunked.is_finite() && sr_chunked > 0.0,
        "sweep produced unusable bandwidths: {gbn_single} vs {sr_chunked}"
    );
    assert!(
        sr_chunked >= 2.0 * gbn_single,
        "at 1% loss, chunked selective repeat ({sr_chunked:.1} MiB/s) must be >= 2x \
         the single-frame go-back-N configuration ({gbn_single:.1} MiB/s)"
    );
    println!(
        "\nacceptance: selective repeat {sr_chunked:.1} MiB/s >= 2x single-frame \
         go-back-N {gbn_single:.1} MiB/s at 1% loss"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"message_bytes\": {MSG},\n  \"messages\": {MSGS},\n  \
         \"chunk_bytes\": {CHUNK},\n  \"drop_quantum_bytes\": {QUANTUM},\n  \"rows\": [\n"
    ));
    for (i, (drop, bw)) in rows.iter().enumerate() {
        for (j, leg) in LEGS.iter().enumerate() {
            let sep = if i + 1 == rows.len() && j + 1 == LEGS.len() {
                ""
            } else {
                ","
            };
            json.push_str(&format!(
                "    {{\"drop\": {drop}, \"leg\": \"{}\", \"mib_per_s\": {:.2}}}{sep}\n",
                leg.name, bw[j]
            ));
        }
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/loss_sweep.json", json).expect("write target/loss_sweep.json");
    println!("wrote target/loss_sweep.json");
}
