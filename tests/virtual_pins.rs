//! Exact virtual-time pins (ROADMAP item 1(c)). The simulated substrates
//! are deterministic and machine-independent, so these cells are asserted
//! **equal** to literals, not within a tolerance: a drift of one
//! nanosecond or one frame is a behaviour change — a frame moved, a
//! modelled cost was charged in a different place, an algorithm choice
//! flipped. The literals were captured at commit 31970f9 (PR 14), before
//! the envelope path, the rendezvous data path and the drain step were
//! each folded into one; re-capture them only in a PR that changes the
//! protocol on purpose, and say so there.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use lmpi::apps::{linsolve, particles};
use lmpi::obs::{attribute_ping_pong, correlate, Table1Row};
use lmpi::sim::atm::AtmFabric;
use lmpi::sim::eth::EthFabric;
use lmpi::sim::ip::{Fabric, SockFabric};
use lmpi::sim::meiko::Tport;
use lmpi::sim::params::{AtmParams, EthParams, MeikoParams, SocketParams};
use lmpi::sim::{Proc, Sim};
use lmpi::{
    run_cluster, run_meiko, ClusterNet, ClusterTransport, Communicator, MeikoVariant, Mpi,
    MpiConfig, ReduceOp, SockDevice, Tracer,
};
use lmpi_core::Wire;
use lmpi_devices::sock::SimTcpChannel;
use lmpi_sim::within;

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
        md_two_steps,
    );
    let frames: u64 = out.iter().map(|o| o.1).sum();
    assert_eq!((out[0].0, frames), (12_795_495, 174));
}

/// One rank of [`cluster_md_step`]: a warm-up step, then the timed one.
fn md_two_steps(mpi: Mpi) -> (u64, u64) {
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
}

/// The simulator's run-token hand-offs for [`cluster_md_step`]'s job. The
/// job is built here as `run_cluster` builds it (same fabric, seed, spawn
/// order and names), so that the test holds the `Sim`; its virtual result
/// must equal `cluster_md_step`'s literal. Hand-offs follow from the event
/// order alone, so the count is exact and the same on every run.
#[test]
fn cluster_md_step_hand_offs() {
    const RANKS: usize = 8;
    let job = || {
        let sim = Sim::new();
        let fabric = Fabric::Atm(AtmFabric::new(&sim, RANKS, AtmParams::default()));
        let sock: SockFabric<Wire> =
            SockFabric::new(&sim, RANKS, fabric, SocketParams::tcp_atm(), 0.0, 12345);
        let out = Arc::new(lmpi_sim::lock::Mutex::new(vec![(0, 0); RANKS]));
        for rank in 0..RANKS {
            let (node, out) = (sock.node(rank), out.clone());
            sim.spawn(format!("rank{rank}"), move |p| {
                let chan = SimTcpChannel::new(node, p.clone());
                let dev = SockDevice::new(chan, rank, RANKS);
                out.lock()[rank] =
                    md_two_steps(Mpi::new(Box::new(dev), MpiConfig::device_defaults()));
            });
        }
        sim.run();
        let out = out.lock();
        let frames: u64 = out.iter().map(|o| o.1).sum();
        (out[0].0, frames, sim.switches())
    };
    let first = within(Duration::from_secs(120), job);
    assert_eq!(first, (12_795_495, 174, 476));
    for _ in 0..19 {
        assert_eq!(within(Duration::from_secs(120), job), first);
    }
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

// ------------------------------------------------ the armed watchdog

/// How long an armed-watchdog job may run on its thread: a hung
/// virtual-time run fails the test instead of hanging the suite.
const BOUND: Duration = Duration::from_secs(60);

/// Rank 0's virtual nanoseconds for 3 `nbytes` round trips after one
/// warm-up, timed as `benchmark/src/layers.rs` times them.
fn rtt3_ns(mpi: Mpi, nbytes: usize) -> u64 {
    let world = mpi.world();
    let ping = vec![0x5au8; nbytes];
    let mut buf = vec![0u8; nbytes];
    let mut t0 = 0.0;
    for i in 0..=3 {
        if i == 1 {
            t0 = mpi.wtime();
        }
        if world.rank() == 0 {
            world.send(&ping, 1, 0).unwrap();
            world.recv(&mut buf, 1, 0).unwrap();
        } else {
            world.recv(&mut buf, 0, 0).unwrap();
            world.send(&buf, 0, 0).unwrap();
        }
    }
    ((mpi.wtime() - t0) * 1e9).round() as u64
}

/// The watchdog is wall-clock only: armed, a virtual-time rank still parks
/// for its next frame, so the run finishes and takes the same virtual time.
#[test]
fn armed_watchdog_meiko_ping_pong() {
    let run = |config| {
        within(BOUND, move || {
            run_meiko(2, MeikoVariant::LowLatency, config, |mpi| rtt3_ns(mpi, 1))[0]
        })
    };
    let unarmed = run(MpiConfig::device_defaults());
    assert_eq!(unarmed, 327_960);
    let armed = run(MpiConfig::device_defaults().with_progress_timeout_us(1_000_000));
    assert_eq!(armed, unarmed);
}

#[test]
fn armed_watchdog_cluster_ping_pong() {
    let run = |config| {
        within(BOUND, move || {
            run_cluster(2, ClusterNet::Atm, ClusterTransport::Tcp, config, |mpi| {
                rtt3_ns(mpi, 1)
            })[0]
        })
    };
    let unarmed = run(MpiConfig::device_defaults());
    let armed = run(MpiConfig::device_defaults().with_progress_timeout_us(1_000_000));
    assert_eq!(armed, unarmed);
}

// ------------------------------- the benchmark's virtual-time cells
//
// Each function below runs what `benchmark/src/layers.rs` runs for a
// cell, and returns integer virtual nanoseconds where the benchmark
// divides and scales them. Captured at commit c48986b.

/// `core.coll.*_8r_*_virt_us` is the slowest rank's time for `CALLS`
/// calls, over `CALLS`, in µs.
fn coll_virt_ns(cfg: MpiConfig, coll: impl Fn(&Communicator) + Send + Sync + 'static) -> u64 {
    const CALLS: usize = 4;
    run_cluster(8, ClusterNet::Atm, ClusterTransport::Tcp, cfg, move |mpi| {
        let world = mpi.world();
        coll(&world);
        world.barrier().unwrap();
        let t0 = mpi.wtime();
        for _ in 0..CALLS {
            coll(&world);
        }
        ((mpi.wtime() - t0) * 1e9).round() as u64
    })
    .into_iter()
    .max()
    .unwrap()
}

#[test]
fn benchmark_collective_cells() {
    let cfg = MpiConfig::device_defaults();
    let mut got = Vec::new();
    for count in [1usize, 8 << 10] {
        got.push(coll_virt_ns(cfg, move |w| {
            w.allreduce(&vec![1.0f64; count], ReduceOp::Sum).unwrap();
        }));
        got.push(coll_virt_ns(cfg, move |w| {
            w.bcast(&mut vec![1.0f64; count], 0).unwrap();
        }));
    }
    got.push(coll_virt_ns(cfg, |w| w.barrier().unwrap()));
    // allreduce 8 B, bcast 8 B, allreduce 64 KiB, bcast 64 KiB, barrier.
    assert_eq!(
        got,
        [7_884_708, 4_460_988, 130_346_041, 97_610_696, 7_870_980]
    );
}

/// `devices.meiko.*_virt_*` are a third of these.
fn meiko_rtt3_ns(cfg: MpiConfig, nbytes: usize) -> u64 {
    run_meiko(2, MeikoVariant::LowLatency, cfg, move |mpi| {
        rtt3_ns(mpi, nbytes)
    })[0]
}

#[test]
fn benchmark_meiko_cells() {
    let cfg = MpiConfig::device_defaults();
    // `devices.meiko.bw_1MiB_virt_MBps` = 2 MiB over a third of this.
    assert_eq!(meiko_rtt3_ns(cfg, 1 << 20), 161_532_276);

    // `devices.meiko.crossover_bytes`: where forced-rendezvous round trips
    // stop being slower than forced-eager ones, interpolated linearly.
    let eager = cfg.with_eager_threshold(1 << 20).with_recv_buf(4 << 20);
    let rndv = cfg.with_eager_threshold(0);
    let mut gaps = Vec::new();
    for n in [96usize, 128, 160, 176, 192, 224, 288] {
        let gap = meiko_rtt3_ns(rndv, n) as i64 - meiko_rtt3_ns(eager, n) as i64;
        gaps.push((n, gap));
        if gap < 0 {
            break;
        }
    }
    assert_eq!(
        gaps,
        [
            (96, 66_588),
            (128, 40_782),
            (160, 14_976),
            (176, 2_076),
            (192, -10_830)
        ]
    );
    let [.., (pn, pgap), (n, gap)] = gaps[..] else {
        unreachable!("the gap changes sign after the first size")
    };
    let crossover = pn as f64 + (n - pn) as f64 * pgap as f64 / (pgap - gap) as f64;
    // 178.574 B, to the thousandth of a byte.
    assert_eq!((crossover * 1e3).round() as u64, 178_574);
}

/// Spawn a client and a server process on `sim`, in that order, and
/// return what the client measured.
fn sim_pair(
    sim: Sim,
    client: impl FnOnce(&Proc) -> u64 + Send + 'static,
    server: impl FnOnce(&Proc) + Send + 'static,
) -> u64 {
    let (tx, rx) = mpsc::channel();
    sim.spawn("client", move |p| tx.send(client(p)).unwrap());
    sim.spawn("server", server);
    sim.run();
    rx.recv().unwrap()
}

/// `netmodel.tport_rtt_1B_virt_us`: 3 raw tport round trips after one
/// warm-up, over 3.
fn tport_rtt3_ns() -> u64 {
    let sim = Sim::new();
    let mut ports = Tport::fabric(&sim, 2, MeikoParams::default());
    let (p1, p0) = (ports.pop().unwrap(), ports.pop().unwrap());
    sim_pair(
        sim,
        move |p| {
            let mut t0 = p.now();
            for i in 0..=3 {
                if i == 1 {
                    t0 = p.now();
                }
                p0.send(p, 1, 0, vec![0u8; 1]);
                p0.recv(p, 1);
            }
            (p.now() - t0).as_ns()
        },
        move |p| {
            for _ in 0..=3 {
                let msg = p1.recv(p, 0);
                p1.send(p, 0, 1, msg.data);
            }
        },
    )
}

/// `netmodel.rawtcp_{atm,eth}_rtt_1B_virt_us`: the same over simulated
/// kernel TCP.
fn raw_tcp_rtt3_ns(net: ClusterNet) -> u64 {
    let sim = Sim::new();
    let (fabric, params) = match net {
        ClusterNet::Ethernet => (
            Fabric::Eth(EthFabric::new(&sim, EthParams::default())),
            SocketParams::tcp_eth(),
        ),
        ClusterNet::Atm => (
            Fabric::Atm(AtmFabric::new(&sim, 2, AtmParams::default())),
            SocketParams::tcp_atm(),
        ),
    };
    let sock: SockFabric<u8> = SockFabric::new(&sim, 2, fabric, params, 0.0, 1);
    let (n0, n1) = (sock.node(0), sock.node(1));
    sim_pair(
        sim,
        move |p| {
            let mut t0 = p.now();
            for i in 0..=3 {
                if i == 1 {
                    t0 = p.now();
                }
                n0.send(p, 1, 0, 1);
                n0.recv(p, 1);
            }
            (p.now() - t0).as_ns()
        },
        move |p| {
            for _ in 0..=3 {
                let (msg, n) = n1.recv(p, 1);
                n1.send(p, 0, msg, n);
            }
        },
    )
}

#[test]
fn benchmark_netmodel_cells() {
    assert_eq!(
        [
            tport_rtt3_ns(),
            raw_tcp_rtt3_ns(ClusterNet::Atm),
            raw_tcp_rtt3_ns(ClusterNet::Ethernet)
        ],
        [156_156, 3_194_898, 2_770_800]
    );
}

/// `apps.linsolve_8r_virt_ms` and `apps.particles_eth_8r_virt_ms`: rank
/// 0's time for one distributed solve on 8 Meiko ranks and one
/// `forces_ring` on 8 Ethernet/TCP workstations.
#[test]
fn benchmark_app_cells() {
    let cfg = MpiConfig::device_defaults();
    let linsolve = run_meiko(8, MeikoVariant::LowLatency, cfg, |mpi| {
        const N: usize = 96;
        let world = mpi.world();
        let (a, b) = linsolve::generate_system(N, 42);
        let t0 = mpi.wtime();
        let x = linsolve::solve_distributed(&world, &a, &b, N).unwrap();
        let ns = ((mpi.wtime() - t0) * 1e9).round() as u64;
        if let Some(x) = x {
            assert!(linsolve::residual(&a, &b, &x, N) < 1e-6);
        }
        ns
    })[0];
    let particles = run_cluster(8, ClusterNet::Ethernet, ClusterTransport::Tcp, cfg, |mpi| {
        let world = mpi.world();
        let ps = particles::generate_particles(128, 42);
        let t0 = mpi.wtime();
        particles::forces_ring(&world, &ps).unwrap();
        ((mpi.wtime() - t0) * 1e9).round() as u64
    })[0];
    assert_eq!((linsolve, particles), (20_777_009, 18_209_000));
}
