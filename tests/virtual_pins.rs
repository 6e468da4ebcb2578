//! Exact virtual-time pins (ROADMAP item 1(c)). The simulated substrates
//! are deterministic and machine-independent, so these cells are asserted
//! **equal** to literals, not within a tolerance: a drift of one
//! nanosecond or one frame is a behaviour change — a frame moved, a
//! modelled cost was charged in a different place, an algorithm choice
//! flipped. The literals were captured at commit 31970f9 (PR 14), before
//! the envelope path, the rendezvous data path and the drain step were
//! each folded into one; re-capture them only in a PR that changes the
//! protocol on purpose, and say so there.

use lmpi::apps::particles;
use lmpi::obs::{attribute_ping_pong, correlate, Table1Row};
use lmpi::{
    run_cluster, run_meiko, ClusterNet, ClusterTransport, MeikoVariant, Mpi, MpiConfig, ReduceOp,
    Tracer,
};

/// Virtual nanoseconds of one `nbytes` ping-pong between ranks 0 and 1
/// (after one untimed warm-up round trip), and the frames the two engines
/// handled over the whole job.
fn meiko_round_trip(variant: MeikoVariant, nbytes: usize) -> (u64, u64) {
    let out = run_meiko(2, variant, MpiConfig::device_defaults(), move |mpi: Mpi| {
        let world = mpi.world();
        let buf = vec![0x5au8; nbytes];
        let mut back = vec![0u8; nbytes];
        let mut rtt_ns = 0;
        for _ in 0..2 {
            let t0 = mpi.wtime();
            if world.rank() == 0 {
                world.send(&buf, 1, 0).unwrap();
                world.recv(&mut back, 1, 0).unwrap();
            } else {
                world.recv(&mut back, 0, 0).unwrap();
                world.send(&back, 0, 0).unwrap();
            }
            rtt_ns = ((mpi.wtime() - t0) * 1e9).round() as u64;
        }
        assert_eq!(back, buf);
        (rtt_ns, mpi.counters().wires_handled)
    });
    (out[0].0, out[0].1 + out[1].1)
}

/// 1 B, either side of the 180 B eager/rendezvous crossover, 64 KiB, 1 MiB.
const SIZES: [usize; 5] = [1, 180, 181, 64 << 10, 1 << 20];

#[test]
fn meiko_low_latency_round_trips() {
    let got: Vec<(u64, u64)> = SIZES
        .iter()
        .map(|&n| meiko_round_trip(MeikoVariant::LowLatency, n))
        .collect();
    assert_eq!(
        got,
        [
            (109_320, 7),
            (166_600, 7),
            (166_268, 12),
            (3_512_444, 12),
            (53_844_092, 12)
        ]
    );
}

#[test]
fn meiko_mpich_round_trips() {
    let got: Vec<(u64, u64)> = SIZES
        .iter()
        .map(|&n| meiko_round_trip(MeikoVariant::Mpich, n))
        .collect();
    assert_eq!(
        got,
        [
            (210_062, 4),
            (221_016, 4),
            (221_078, 4),
            (4_220_804, 4),
            (64_382_852, 7)
        ]
    );
}

/// One molecular-dynamics step on 8 simulated ATM/TCP workstations —
/// `forces_ring`, an allreduce of the force checksum, a 4 KiB broadcast —
/// after one untimed warm-up step: rank 0's virtual nanoseconds for the
/// step, and the frames all eight engines handled over the job.
#[test]
fn cluster_md_step() {
    const RANKS: usize = 8;
    let out = run_cluster(
        RANKS,
        ClusterNet::Atm,
        ClusterTransport::Tcp,
        MpiConfig::device_defaults(),
        |mpi: Mpi| {
            let world = mpi.world();
            let ps = particles::generate_particles(128, 7);
            let mut blob = vec![0u8; 4 << 10];
            let mut step_ns = 0;
            for step in 0..2u8 {
                if world.rank() == 0 {
                    blob.fill(step + 1);
                }
                let t0 = mpi.wtime();
                let forces = particles::forces_ring(&world, &ps).unwrap();
                let local: f64 = forces.iter().map(|(fx, fy)| fx.abs() + fy.abs()).sum();
                let total = world.allreduce(&[local], ReduceOp::Sum).unwrap()[0];
                world.bcast(&mut blob, 0).unwrap();
                step_ns = ((mpi.wtime() - t0) * 1e9).round() as u64;
                assert!(total > 0.0);
                assert!(blob.iter().all(|&b| b == step + 1));
            }
            (step_ns, mpi.counters().wires_handled)
        },
    );
    let frames: u64 = out.iter().map(|o| o.1).sum();
    assert_eq!((out[0].0, frames), (12_795_495, 174));
}

/// The generated Table 1 on simulated TCP over ATM, as
/// `examples/latency_report` builds it — 5 untraced warm-up round trips,
/// then 40 traced ones attributed from the flight record: per round trip,
/// the API, send-side protocol, receive-side protocol and wire
/// nanoseconds at 1 B and 64 KiB. Captured at the commit before Table 1
/// was computed from message timelines instead of a walk over raw events.
#[test]
fn sim_tcp_atm_table1_rows() {
    let row = |nbytes: usize| {
        let tracers: Vec<Tracer> = (0..2u32).map(|r| Tracer::enabled(r, 1 << 16)).collect();
        let t = tracers.clone();
        let config = MpiConfig::device_defaults();
        run_cluster(
            2,
            ClusterNet::Atm,
            ClusterTransport::Tcp,
            config,
            move |mpi: Mpi| {
                let world = mpi.world();
                let mut buf = vec![0x5au8; nbytes];
                for round in 0..45 {
                    if round == 5 {
                        mpi.set_tracer(t[world.rank()].clone());
                    }
                    if world.rank() == 0 {
                        world.send(&buf, 1, 0).unwrap();
                        world.recv(&mut buf, 1, 0).unwrap();
                    } else {
                        world.recv(&mut buf, 0, 0).unwrap();
                        world.send(&buf, 0, 0).unwrap();
                    }
                }
            },
        );
        let bufs: Vec<_> = tracers.iter().map(Tracer::snapshot).collect();
        let bd = attribute_ping_pong(&correlate(&bufs), 0);
        let r = Table1Row::from_breakdown("sim-tcp-atm", nbytes as u64, 0.0, &bd).unwrap();
        (
            r.round_trips,
            r.api_ns,
            r.proto_send_ns,
            r.proto_recv_ns,
            r.wire_ns,
        )
    };
    assert_eq!(row(1), (40, 0.0, 0.0, 70_000.0, 1_242_116.0));
    assert_eq!(row(64 << 10), (40, 0.0, 0.0, 5_597_396.0, 18_270_540.0));
}
