//! Per-layer measurements that do not depend on the workload: each module
//! of the library called directly (or through the thinnest public path),
//! the raw device floors under MPI, and the paper's own virtual-time table.
//! Run in the traced run only. Layer = module; names are `<crate>.<module>.`.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lmpi_core::bench_internals::MatchEngine;
use lmpi_core::{
    AllreduceAlgo, BarrierAlgo, BcastAlgo, DataType, Device, Envelope, EventKind, FramePool, Mpi,
    MpiConfig, Packet, ReduceOp, SourceSel, TagSel, Tracer, Wire,
};
use lmpi_devices::codec;
use lmpi_devices::faulty::{FaultConfig, FaultRates, FaultyDevice};
use lmpi_devices::meiko::{run_meiko, MeikoVariant};
use lmpi_devices::reliable::{RelConfig, ReliableDevice};
use lmpi_devices::shm::{run_devices, run_with_config, ShmDevice};
use lmpi_devices::sock::{run_cluster, ClusterNet, ClusterTransport, MsgChannel, RealTcpChannel};
use lmpi_netmodel::atm::AtmFabric;
use lmpi_netmodel::eth::EthFabric;
use lmpi_netmodel::ip::{Fabric, SockFabric};
use lmpi_netmodel::meiko::Tport;
use lmpi_netmodel::params::{AtmParams, EthParams, MeikoParams, SocketParams};
use lmpi_obs::LatencyHist;
use lmpi_sim::{Sim, SimDur};

use crate::util::{bind_to_cpu_slot, median, median_ns, Rng};
use crate::Metrics;

/// Median over 5 batches of the time one call of `f` takes, ns.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Everything in this file, appended to `m`. `seed` drives payload bytes
/// and the fault injector.
pub fn measure_all(seed: u64, m: &mut Metrics) {
    // Everything here runs on one CPU, threads it spawns included, as
    // `shm_small` and `cluster_virtual` do (see the README on CPU binding);
    // only the socket floor moves its second end to another CPU, as
    // `tcp_small` does.
    bind_to_cpu_slot(0);
    matching(m);
    packet(seed, m);
    codec_layer(seed, m);
    obs(m);
    shm_floor(m);
    sock_floor(seed, m);
    health_and_reliable(seed, m);
    collectives(m);
    paper_table(m);
    sim_handoff(m);
}

// ----------------------------------------------------------- core.matching

fn matching(m: &mut Metrics) {
    let env = |src, tag| Envelope {
        src,
        tag,
        context: 0,
        len: 0,
    };
    for depth in [1usize, 64, 1024] {
        // `depth` receives that never match sit posted; each call posts and
        // matches one hot message, leaving the queues as they were.
        let mut eng = MatchEngine::new();
        for i in 0..depth as u32 {
            eng.match_posted(i as u64, SourceSel::Rank(1), TagSel::Tag(1000 + i), 0);
        }
        let ns = ns_per_call(20_000, || {
            eng.match_posted(u64::MAX, SourceSel::Rank(0), TagSel::Tag(7), 0);
            black_box(eng.match_incoming(&env(0, 7)));
        });
        m.push(format!("core.matching.post_match_d{depth}_ns"), ns, "ns");
    }
}

// ------------------------------------------------------------- core.packet

fn packet(seed: u64, m: &mut Metrics) {
    let mut rng = Rng::new(seed);
    let mut src = vec![0u8; 64 << 10];
    rng.fill(&mut src);
    for (name, n, iters) in [("8B", 8usize, 50_000u64), ("64KiB", 64 << 10, 2_000)] {
        let mut pool = FramePool::new();
        let ns = ns_per_call(iters, || {
            black_box(pool.stage_bytes(&src[..n]));
        });
        m.push(format!("core.packet.stage_{name}_ns"), ns, "ns");
    }

    // One 8-byte column of a 32768 x 8 row-major f64 matrix: 256 KiB
    // gathered from 2 MiB of strided memory.
    let rows = 32 << 10;
    let column = DataType::base(8)
        .vector(rows, 1, 8)
        .commit()
        .expect("a strided vector type commits");
    let mut memory = vec![0u8; rows * 64];
    rng.fill(&mut memory);
    let mut pool = FramePool::new();
    let ns = ns_per_call(200, || {
        black_box(pool.stage_gather(column.layout(), &memory));
    });
    m.push(
        "core.dtype.gather_MBps",
        column.packed_size() as f64 / ns * 1e3,
        "MB/s",
    );
}

// ----------------------------------------------------------- devices.codec

fn codec_layer(seed: u64, m: &mut Metrics) {
    let mut rng = Rng::new(seed);
    let mut body = vec![0u8; 64 << 10];
    rng.fill(&mut body);
    let mut header_bytes = 0;
    for (name, n, iters) in [("8B", 8usize, 50_000u64), ("64KiB", 64 << 10, 2_000)] {
        let wire = Wire::bare(
            0,
            Packet::Eager {
                env: Envelope {
                    src: 0,
                    tag: 7,
                    context: 0,
                    len: n,
                },
                send_id: 1,
                needs_ack: false,
                ready: false,
                data: body[..n].to_vec().into(),
            },
        );
        let mut frame = Vec::new();
        let enc = ns_per_call(iters, || codec::encode_into(black_box(&wire), &mut frame));
        header_bytes = frame.len() - n;
        let dec = ns_per_call(iters, || {
            black_box(codec::decode(black_box(&frame)).expect("own encoding decodes"));
        });
        m.push(format!("devices.codec.encode_{name}_ns"), enc, "ns");
        m.push(format!("devices.codec.decode_{name}_ns"), dec, "ns");
    }
    m.push("devices.codec.header_bytes", header_bytes as f64, "count");
}

// --------------------------------------------------------------------- obs

fn obs(m: &mut Metrics) {
    let kind = EventKind::EagerTx { peer: 1, bytes: 8 };
    let off = Tracer::disabled();
    m.push(
        "obs.emit_disabled_ns",
        ns_per_call(200_000, || black_box(&off).emit_at(black_box(1), kind)),
        "ns",
    );
    let on = Tracer::enabled(0, 1 << 16);
    m.push(
        "obs.emit_enabled_ns",
        ns_per_call(200_000, || black_box(&on).emit_at(black_box(1), kind)),
        "ns",
    );
    let mut hist = LatencyHist::new();
    let mut v = 1u64;
    m.push(
        "obs.hist_record_ns",
        ns_per_call(200_000, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(black_box(v >> 40));
        }),
        "ns",
    );
    black_box(hist.count());
}

// ------------------------------------------------------------ device floors

/// Round trips of bare `Packet::Credit` frames between two threads, each
/// owning one end: `send` then block for the reply. The echo thread runs on
/// CPU slot `echo_slot`. Returns the client's per-round-trip times, ns.
fn raw_pingpong<E: Send + 'static>(
    ends: (E, E),
    echo_slot: usize,
    round_trips: usize,
    send: impl Fn(&E, usize) + Send + Sync + Copy + 'static,
    recv: impl Fn(&E) + Send + Sync + Copy + 'static,
) -> Vec<u64> {
    const WARMUP: usize = 200;
    let (e0, e1) = ends;
    let echo = std::thread::spawn(move || {
        bind_to_cpu_slot(echo_slot);
        for _ in 0..WARMUP + round_trips {
            recv(&e1);
            send(&e1, 0);
        }
        e1
    });
    let mut rtts = Vec::with_capacity(round_trips);
    for i in 0..WARMUP + round_trips {
        let t = Instant::now();
        send(&e0, 1);
        recv(&e0);
        if i >= WARMUP {
            rtts.push(t.elapsed().as_nanos() as u64);
        }
    }
    // Keep both ends alive until the echo thread is done with them.
    drop(echo.join().expect("echo thread"));
    rtts
}

fn shm_floor(m: &mut Metrics) {
    // The floor is bistable (the receiver either catches the reply while
    // still spinning or has parked), so several fabrics are measured and
    // every one reported in the result file, not only their median.
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let mut devs = ShmDevice::fabric(2);
            let d1 = devs.pop().expect("two devices");
            let d0 = devs.pop().expect("two devices");
            let rtts = raw_pingpong(
                (d0, d1),
                0,
                5_000,
                |d: &ShmDevice, dst| d.send(dst, Wire::bare(d.rank(), Packet::Credit)),
                |d: &ShmDevice| {
                    d.recv_blocking().expect("peer alive");
                },
            );
            median_ns(&rtts) / 1e3
        })
        .collect();
    m.push("devices.shm.raw_rtt_p50_us", median(&reps), "us");
    m.note("devices.shm.raw_rtt_p50_us.reps", &reps);
}

/// A connected loopback pair; the second end's reader thread is on CPU
/// slot 1.
fn tcp_pair() -> (RealTcpChannel, RealTcpChannel) {
    let rendezvous = Arc::new(RealTcpChannel::rendezvous(2));
    let r = rendezvous.clone();
    let other = std::thread::spawn(move || {
        bind_to_cpu_slot(1);
        RealTcpChannel::connect(1, 2, &r)
    });
    let c0 = RealTcpChannel::connect(0, 2, &rendezvous).expect("loopback mesh");
    let c1 = other
        .join()
        .expect("connect thread")
        .expect("loopback mesh");
    (c0, c1)
}

fn sock_floor(seed: u64, m: &mut Metrics) {
    let send_credit = |c: &RealTcpChannel, dst: usize| {
        c.send(dst, Wire::bare(1 - dst, Packet::Credit), 0);
    };
    let recv_any = |c: &RealTcpChannel| {
        c.recv_blocking().expect("peer alive");
    };
    let rtts = raw_pingpong(tcp_pair(), 1, 5_000, send_credit, recv_any);
    m.push("devices.sock.raw_rtt_p50_us", median_ns(&rtts) / 1e3, "us");

    // One-way stream of 256 KiB frames, closed by a credit frame back.
    const CHUNK: usize = 256 << 10;
    const FRAMES: usize = 400;
    let mut body = vec![0u8; CHUNK];
    Rng::new(seed).fill(&mut body);
    let frame = Packet::RndvData {
        recv_id: 1,
        data: body.into(),
    };
    let (c0, c1) = tcp_pair();
    let sink = std::thread::spawn(move || {
        bind_to_cpu_slot(1);
        for _ in 0..FRAMES {
            c1.recv_blocking().expect("peer alive");
        }
        c1.send(0, Wire::bare(1, Packet::Credit), 0);
        c1
    });
    let t = Instant::now();
    for _ in 0..FRAMES {
        // Cloning a packet shares its payload.
        c0.send(1, Wire::bare(0, frame.clone()), 0);
    }
    c0.recv_blocking().expect("peer alive");
    let secs = t.elapsed().as_secs_f64();
    let c1 = sink.join().expect("sink thread");
    m.push(
        "devices.sock.raw_256KiB_MBps",
        (CHUNK * FRAMES) as f64 / secs / 1e6,
        "MB/s",
    );
    let duty = c1
        .reader_health()
        .map_or(0.0, |h| h.snapshot("tcp-mesh-reader").duty_cycle);
    m.push("devices.sock.reader_duty", duty, "ratio");
}

// --------------------------------------------- core.health, devices.reliable

/// Median round trip, µs, of an 8 B MPI ping-pong run by `runner`, and the
/// transport statistics both ranks saw.
fn mpi_pingpong_us(
    round_trips: usize,
    runner: impl FnOnce(
        Box<dyn Fn(Mpi) -> (Vec<u64>, (u64, u64)) + Send + Sync>,
    ) -> Vec<(Vec<u64>, (u64, u64))>,
) -> (f64, u64, u64) {
    const WARMUP: usize = 200;
    let outs = runner(Box::new(move |mpi: Mpi| {
        let world = mpi.world();
        let ping = [7u8; 8];
        let mut buf = [0u8; 8];
        let mut rtts = Vec::with_capacity(round_trips);
        for i in 0..WARMUP + round_trips {
            if world.rank() == 0 {
                let t = Instant::now();
                world.send(&ping, 1, 0).expect("send");
                world.recv(&mut buf, 1, 0).expect("recv");
                if i >= WARMUP {
                    rtts.push(t.elapsed().as_nanos() as u64);
                }
            } else {
                world.recv(&mut buf, 0, 0).expect("recv");
                world.send(&buf, 0, 0).expect("send");
            }
        }
        let ts = mpi.transport_stats();
        (rtts, (ts.data_frames_sent, ts.retransmits))
    }));
    let frames = outs.iter().map(|o| o.1 .0).sum();
    let retx = outs.iter().map(|o| o.1 .1).sum();
    (median_ns(&outs[0].0) / 1e3, frames, retx)
}

fn health_and_reliable(seed: u64, m: &mut Metrics) {
    const RT: usize = 3_000;
    let plain = |cfg: MpiConfig| mpi_pingpong_us(RT, move |f| run_with_config(2, cfg, f)).0;
    let cfg = MpiConfig::device_defaults();
    // Alternate the sides so drift over the few seconds hits both.
    let on1 = plain(cfg.with_health(true));
    let off1 = plain(cfg.with_health(false));
    let off2 = plain(cfg.with_health(false));
    let on2 = plain(cfg.with_health(true));
    m.push(
        "core.health.overhead_ratio",
        (on1 + on2) / (off1 + off2),
        "ratio",
    );

    let stacked = |rel: RelConfig, drop: f64, round_trips: usize| {
        mpi_pingpong_us(round_trips, move |f| {
            let devices: Vec<_> = ShmDevice::fabric(2)
                .into_iter()
                .enumerate()
                .map(|(rank, dev)| {
                    let faults =
                        FaultConfig::uniform(seed ^ rank as u64, FaultRates::drop_only(drop));
                    ReliableDevice::new(FaultyDevice::new(dev, faults), rel)
                })
                .collect();
            run_devices(devices, cfg, f)
        })
    };
    let (lossless_us, _, _) = stacked(RelConfig::default(), 0.0, RT);
    m.push(
        "devices.reliable.overhead_ratio",
        lossless_us / ((on1 + on2) / 2.0),
        "ratio",
    );
    for (name, rel) in [
        ("sr", RelConfig::default()),
        ("gbn", RelConfig::go_back_n()),
    ] {
        let (_, frames, retx) = stacked(rel, 0.01, 1_000);
        m.push(
            format!("devices.reliable.retx_per_kframe_{name}"),
            retx as f64 * 1e3 / frames.max(1) as f64,
            "1/kframe",
        );
    }
}

// --------------------------------------------------------------- core.coll

/// Virtual µs per call of `coll` on 8 simulated ATM/TCP ranks.
fn coll_virt_us(
    cfg: MpiConfig,
    coll: impl Fn(&lmpi_core::Communicator) + Send + Sync + 'static,
) -> f64 {
    const CALLS: usize = 4;
    run_cluster(8, ClusterNet::Atm, ClusterTransport::Tcp, cfg, move |mpi| {
        let world = mpi.world();
        coll(&world);
        world.barrier().expect("barrier");
        let t0 = mpi.wtime();
        for _ in 0..CALLS {
            coll(&world);
        }
        (mpi.wtime() - t0) * 1e6 / CALLS as f64
    })
    .into_iter()
    .fold(0.0, f64::max)
}

fn collectives(m: &mut Metrics) {
    let cfg = MpiConfig::device_defaults();
    // Worst cell of (best pinned algorithm) / (what the table dispatched).
    let mut efficiency: f64 = 1.0;
    for (name, count) in [("8B", 1usize), ("64KiB", 8 << 10)] {
        let allreduce = move |w: &lmpi_core::Communicator| {
            let v = vec![1.0f64; count];
            black_box(w.allreduce(&v, ReduceOp::Sum).expect("allreduce"));
        };
        let table = coll_virt_us(cfg, allreduce);
        m.push(
            format!("core.coll.allreduce_8r_{name}_virt_us"),
            table,
            "us",
        );
        let best = [
            AllreduceAlgo::ReduceBcast,
            AllreduceAlgo::Ring,
            AllreduceAlgo::RecursiveDoubling,
        ]
        .into_iter()
        .map(|a| coll_virt_us(cfg.with_allreduce_algo(a), allreduce))
        .fold(f64::MAX, f64::min);
        efficiency = efficiency.min(best / table);

        let bcast = move |w: &lmpi_core::Communicator| {
            let mut v = vec![1.0f64; count];
            w.bcast(&mut v, 0).expect("bcast");
        };
        let table = coll_virt_us(cfg, bcast);
        m.push(format!("core.coll.bcast_8r_{name}_virt_us"), table, "us");
        let best = [BcastAlgo::Binomial, BcastAlgo::ScatterAllgather]
            .into_iter()
            .map(|a| coll_virt_us(cfg.with_bcast_algo(a), bcast))
            .fold(f64::MAX, f64::min);
        efficiency = efficiency.min(best / table);
    }
    let barrier = |w: &lmpi_core::Communicator| w.barrier().expect("barrier");
    let table = coll_virt_us(cfg, barrier);
    m.push("core.coll.barrier_8r_virt_us", table, "us");
    let best = [BarrierAlgo::Dissemination, BarrierAlgo::Tree]
        .into_iter()
        .map(|a| coll_virt_us(cfg.with_barrier_algo(a), barrier))
        .fold(f64::MAX, f64::min);
    efficiency = efficiency.min(best / table);
    m.push("core.coll.dispatch_efficiency", efficiency, "ratio");
}

// --------------------------------- devices.meiko, netmodel, apps: the paper

/// Virtual µs per `nbytes` MPI round trip (after one warm-up).
fn virt_rtt_us(
    nbytes: usize,
    runner: impl FnOnce(Box<dyn Fn(Mpi) -> f64 + Send + Sync>) -> Vec<f64>,
) -> f64 {
    const RTS: usize = 3;
    runner(Box::new(move |mpi: Mpi| {
        let world = mpi.world();
        let ping = vec![0x5Au8; nbytes];
        let mut buf = vec![0u8; nbytes];
        let mut t0 = 0.0;
        for i in 0..=RTS {
            if i == 1 {
                t0 = mpi.wtime();
            }
            if world.rank() == 0 {
                world.send(&ping, 1, 0).expect("send");
                world.recv(&mut buf, 1, 0).expect("recv");
            } else {
                world.recv(&mut buf, 0, 0).expect("recv");
                world.send(&buf, 0, 0).expect("send");
            }
        }
        (mpi.wtime() - t0) * 1e6 / RTS as f64
    }))[0]
}

fn meiko_rtt_us(variant: MeikoVariant, cfg: MpiConfig, nbytes: usize) -> f64 {
    virt_rtt_us(nbytes, move |f| run_meiko(2, variant, cfg, f))
}

/// Run a two-process simulation; `client` returns the measured value.
fn sim_pair(
    client: impl FnOnce(&lmpi_sim::Proc) -> f64 + Send + 'static,
    server: impl FnOnce(&lmpi_sim::Proc) + Send + 'static,
    sim: Sim,
) -> f64 {
    let out = Arc::new(Mutex::new(0.0));
    let o = out.clone();
    sim.spawn("client", move |p| {
        *o.lock().expect("result lock") = client(p);
    });
    sim.spawn("server", move |p| server(p));
    sim.run();
    let v = *out.lock().expect("result lock");
    v
}

/// Raw Meiko tport 1 B round trip, virtual µs (the paper's 52 µs floor).
fn tport_rtt_us() -> f64 {
    const RTS: usize = 3;
    let sim = Sim::new();
    let mut ports = Tport::fabric(&sim, 2, MeikoParams::default());
    let p1 = ports.pop().expect("two ports");
    let p0 = ports.pop().expect("two ports");
    sim_pair(
        move |p| {
            let mut t0 = p.now();
            for i in 0..=RTS {
                if i == 1 {
                    t0 = p.now();
                }
                p0.send(p, 1, 0, vec![0u8; 1]);
                let _ = p0.recv(p, 1);
            }
            (p.now() - t0).as_us_f64() / RTS as f64
        },
        move |p| {
            for _ in 0..=RTS {
                let msg = p1.recv(p, 0);
                p1.send(p, 0, 1, msg.data);
            }
        },
        sim,
    )
}

/// Raw kernel-TCP 1 B round trip on the simulated net, virtual µs.
fn raw_tcp_rtt_us(net: ClusterNet) -> f64 {
    const RTS: usize = 3;
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
        move |p| {
            let mut t0 = p.now();
            for i in 0..=RTS {
                if i == 1 {
                    t0 = p.now();
                }
                n0.send(p, 1, 0, 1);
                let _ = n0.recv(p, 1);
            }
            (p.now() - t0).as_us_f64() / RTS as f64
        },
        move |p| {
            for _ in 0..=RTS {
                let (msg, n) = n1.recv(p, 1);
                n1.send(p, 0, msg, n);
            }
        },
        sim,
    )
}

fn paper_table(m: &mut Metrics) {
    let cfg = MpiConfig::device_defaults();
    m.push(
        "devices.meiko.rtt_1B_virt_us",
        meiko_rtt_us(MeikoVariant::LowLatency, cfg, 1),
        "us",
    );
    m.push(
        "devices.meiko.mpich_rtt_1B_virt_us",
        meiko_rtt_us(MeikoVariant::Mpich, cfg, 1),
        "us",
    );
    let mib = 1 << 20;
    m.push(
        "devices.meiko.bw_1MiB_virt_MBps",
        2.0 * mib as f64 / meiko_rtt_us(MeikoVariant::LowLatency, cfg, mib),
        "MB/s",
    );

    // Where forced-eager and forced-rendezvous round trips cross (Fig. 1),
    // interpolated between the bracketing sizes.
    let eager = cfg.with_eager_threshold(1 << 20).with_recv_buf(4 << 20);
    let rndv = cfg.with_eager_threshold(0);
    let mut crossover = 0.0;
    let mut prev: Option<(usize, f64)> = None;
    for n in [96usize, 128, 160, 176, 192, 224, 288] {
        // Positive while the eager path is still faster.
        let gap = meiko_rtt_us(MeikoVariant::LowLatency, rndv, n)
            - meiko_rtt_us(MeikoVariant::LowLatency, eager, n);
        if gap < 0.0 {
            crossover = match prev {
                Some((pn, pgap)) => pn as f64 + (n - pn) as f64 * pgap / (pgap - gap),
                None => n as f64,
            };
            break;
        }
        prev = Some((n, gap));
    }
    m.push("devices.meiko.crossover_bytes", crossover, "B");

    m.push("netmodel.tport_rtt_1B_virt_us", tport_rtt_us(), "us");
    m.push(
        "netmodel.rawtcp_atm_rtt_1B_virt_us",
        raw_tcp_rtt_us(ClusterNet::Atm),
        "us",
    );
    m.push(
        "netmodel.rawtcp_eth_rtt_1B_virt_us",
        raw_tcp_rtt_us(ClusterNet::Ethernet),
        "us",
    );

    let linsolve = run_meiko(8, MeikoVariant::LowLatency, cfg, |mpi| {
        const N: usize = 96;
        let world = mpi.world();
        let (a, b) = lmpi_apps::linsolve::generate_system(N, 42);
        let t0 = mpi.wtime();
        let x = lmpi_apps::linsolve::solve_distributed(&world, &a, &b, N).expect("solve");
        let ms = (mpi.wtime() - t0) * 1e3;
        if let Some(x) = x {
            assert!(lmpi_apps::linsolve::residual(&a, &b, &x, N) < 1e-6);
        }
        ms
    })[0];
    m.push("apps.linsolve_8r_virt_ms", linsolve, "ms");
    let particles = run_cluster(8, ClusterNet::Ethernet, ClusterTransport::Tcp, cfg, |mpi| {
        let world = mpi.world();
        let ps = lmpi_apps::particles::generate_particles(128, 42);
        let t0 = mpi.wtime();
        black_box(lmpi_apps::particles::forces_ring(&world, &ps).expect("forces_ring"));
        (mpi.wtime() - t0) * 1e3
    })[0];
    m.push("apps.particles_eth_8r_virt_ms", particles, "ms");
}

// --------------------------------------------------------------------- sim

fn sim_handoff(m: &mut Metrics) {
    // Two processes advancing in lockstep: every `advance` hands the
    // scheduler token to the other OS thread.
    const STEPS: u64 = 5_000;
    let sim = Sim::new();
    for name in ["a", "b"] {
        sim.spawn(name, |p| {
            for _ in 0..STEPS {
                p.advance(SimDur::from_us_f64(1.0));
            }
        });
    }
    let t = Instant::now();
    sim.run();
    let wall: Duration = t.elapsed();
    m.push(
        "sim.handoff_ns",
        wall.as_nanos() as f64 / (2 * STEPS) as f64,
        "ns",
    );
}
