//! Acceptance tests for the fault-injection + reliability stack: MPI runs
//! *correctly* over a device that drops, duplicates, reorders and delays
//! frames once the go-back-N sublayer is stacked on top — and fails with a
//! *typed error*, never a panic, when it is not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmpi_core::{
    wait_all, Device, DeviceDefaults, Mpi, MpiConfig, MpiError, MpiResult, Packet, Rank, ReduceOp,
    SourceSel, TagSel, TransportStats, Wait, Wire,
};
use lmpi_devices::faulty::{FaultConfig, FaultRates, FaultStats, FaultyDevice};
use lmpi_devices::reliable::{RelConfig, RelStats, ReliableDevice};
use lmpi_devices::shm::{run_devices, ShmDevice};
use lmpi_devices::sock::{SimTcpChannel, SockDevice};
use lmpi_devices::udp::run_real_udp;
use lmpi_netmodel::atm::AtmFabric;
use lmpi_netmodel::ip::{Fabric, SockFabric};
use lmpi_netmodel::params::{AtmParams, SocketParams};
use lmpi_sim::{within, Sim};

/// ≥5% drop plus reordering, duplication and delay on every packet class —
/// well past the acceptance bar.
fn lossy_rates() -> FaultRates {
    FaultRates {
        drop: 0.05,
        dup: 0.03,
        reorder: 0.05,
        delay: 0.03,
        delay_us: 300,
    }
}

type Stack = ReliableDevice<FaultyDevice<ShmDevice>>;

/// Wrap a shm fabric in per-rank seeded fault injection plus reliability,
/// returning the stats handles for post-run assertions.
fn reliable_lossy_fabric(
    nprocs: usize,
    base_seed: u64,
    rates: FaultRates,
) -> (Vec<Stack>, Vec<Arc<FaultStats>>, Vec<Arc<RelStats>>) {
    let mut fault_stats = Vec::new();
    let mut rel_stats = Vec::new();
    let devices = ShmDevice::fabric(nprocs)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let faulty =
                FaultyDevice::new(dev, FaultConfig::uniform(base_seed + rank as u64, rates));
            fault_stats.push(faulty.stats_handle());
            let rel = ReliableDevice::new(faulty, RelConfig::default());
            rel_stats.push(rel.stats_handle());
            rel
        })
        .collect();
    (devices, fault_stats, rel_stats)
}

fn total_dropped(stats: &[Arc<FaultStats>]) -> u64 {
    stats
        .iter()
        .map(|s| TransportStats::from(&**s).faults_dropped)
        .sum()
}

fn total_retransmits(stats: &[Arc<RelStats>]) -> u64 {
    stats
        .iter()
        .map(|s| TransportStats::from(&**s).retransmits)
        .sum()
}

#[test]
fn pingpong_survives_heavy_loss_via_retransmission() {
    let (devices, fault_stats, rel_stats) = reliable_lossy_fabric(2, 0xFA00, lossy_rates());
    let results = run_devices(devices, MpiConfig::device_defaults(), |mpi| {
        let world = mpi.world();
        let mut sum = 0u64;
        if world.rank() == 0 {
            for i in 0..150u32 {
                world.send(&[i, i.wrapping_mul(3)], 1, 7).unwrap();
                let mut back = [0u32];
                world.recv(&mut back, 1, 8).unwrap();
                assert_eq!(back[0], i.wrapping_mul(3) + 1, "round {i} corrupted");
                sum += back[0] as u64;
            }
            // A rendezvous-sized message exercises the bulk path too.
            let big: Vec<u32> = (0..10_000).collect();
            world.send(&big, 1, 9).unwrap();
        } else {
            for i in 0..150u32 {
                let mut buf = [0u32; 2];
                world.recv(&mut buf, 0, 7).unwrap();
                assert_eq!(buf, [i, i.wrapping_mul(3)], "round {i} corrupted");
                world.send(&[buf[1] + 1], 0, 8).unwrap();
            }
            let mut big = vec![0u32; 10_000];
            world.recv(&mut big, 0, 9).unwrap();
            assert!(big.iter().enumerate().all(|(i, &v)| v == i as u32));
            sum = 1;
        }
        sum
    });
    let expected: u64 = (0..150u32).map(|i| (i * 3 + 1) as u64).sum();
    assert_eq!(results[0], expected);
    assert_eq!(results[1], 1);
    assert!(
        total_dropped(&fault_stats) > 0,
        "the fault injector never fired — the test proved nothing"
    );
    assert!(
        total_retransmits(&rel_stats) > 0,
        "losses occurred but nothing was retransmitted"
    );
}

#[test]
fn collectives_survive_loss_and_reordering() {
    let (devices, fault_stats, rel_stats) = reliable_lossy_fabric(4, 0xFB00, lossy_rates());
    let results = run_devices(devices, MpiConfig::device_defaults(), |mpi| {
        let world = mpi.world();
        let me = world.rank() as u64;
        let mut acc = 0u64;
        for round in 0..20u64 {
            let mut buf = [0u64; 64];
            if world.rank() == 0 {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = round * 1000 + i as u64;
                }
            }
            world.bcast(&mut buf, 0).unwrap();
            assert_eq!(buf[63], round * 1000 + 63, "bcast payload corrupted");
            let summed = world.allreduce(&[me + round], ReduceOp::Sum).unwrap();
            // 0+1+2+3 + 4*round
            assert_eq!(summed[0], 6 + 4 * round, "allreduce disagreed");
            acc += summed[0];
        }
        world.barrier().unwrap();
        acc
    });
    assert!(results.iter().all(|&r| r == results[0]));
    assert!(total_dropped(&fault_stats) > 0, "no faults fired");
    assert!(total_retransmits(&rel_stats) > 0, "no retransmissions");
}

/// One-sided traffic: nothing flows back for acks to piggyback on, so the
/// pure-ack path carries the whole reliability load.
#[test]
fn one_sided_stream_relies_on_pure_acks() {
    let (devices, _fault_stats, rel_stats) = reliable_lossy_fabric(2, 0xFC00, lossy_rates());
    let results = run_devices(devices, MpiConfig::device_defaults(), |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            for i in 0..100u32 {
                world.send(&[i, i + 1], 1, 0).unwrap();
            }
            0u64
        } else {
            let mut acc = 0u64;
            let mut buf = [0u32; 2];
            for i in 0..100u32 {
                world.recv(&mut buf, 0, 0).unwrap();
                assert_eq!(buf, [i, i + 1], "stream corrupted at {i}");
                acc += buf[0] as u64;
            }
            acc
        }
    });
    assert_eq!(results[1], (0..100u64).sum::<u64>());
    let acks: u64 = rel_stats
        .iter()
        .map(|s| TransportStats::from(&**s).pure_acks_sent)
        .sum();
    assert!(acks > 0, "one-sided traffic must generate pure acks");
}

/// With reliability *disabled*, sustained loss must surface as a typed
/// [`MpiError::Timeout`] from the progress watchdog — not a hang and not a
/// panic.
#[test]
fn unreliable_loss_yields_typed_timeout() {
    let devices: Vec<FaultyDevice<ShmDevice>> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            // Rank 0's sender drops everything; rank 1's works.
            let rates = if rank == 0 {
                FaultRates::drop_only(1.0)
            } else {
                FaultRates::NONE
            };
            FaultyDevice::new(dev, FaultConfig::uniform(0xFD00 + rank as u64, rates))
        })
        .collect();
    let config = MpiConfig::device_defaults().with_progress_timeout_us(100_000);
    let results: Vec<MpiResult<()>> = run_devices(devices, config, |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            world.send(&[1u32], 1, 0)?; // eager: "completes" locally, frame lost
            let mut buf = [0u32];
            world.recv(&mut buf, 1, 1)?; // reply never comes
        } else {
            let mut buf = [0u32];
            world.recv(&mut buf, 0, 0)?; // frame was dropped on the wire
            world.send(&[2u32], 0, 1)?;
        }
        Ok(())
    });
    for (rank, res) in results.iter().enumerate() {
        match res {
            Err(MpiError::Timeout { .. }) => {}
            other => panic!("rank {rank}: expected a typed Timeout, got {other:?}"),
        }
    }
}

/// With reliability disabled, a *duplicated* control frame must surface as
/// a typed [`MpiError::Transport`] from the protocol engine — the frame is
/// impossible under FIFO delivery and the engine says so instead of
/// panicking.
#[test]
fn unreliable_duplication_yields_typed_transport_error() {
    let devices: Vec<FaultyDevice<ShmDevice>> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            // Rank 1 duplicates every control frame it sends (RndvGo among
            // them); data paths are clean.
            let rates = if rank == 1 {
                FaultRates {
                    dup: 1.0,
                    ..FaultRates::NONE
                }
            } else {
                FaultRates::NONE
            };
            let cfg = FaultConfig {
                seed: 0xFE00 + rank as u64,
                control: rates,
                eager: FaultRates::NONE,
                bulk: FaultRates::NONE,
                drop_quantum: None,
            };
            FaultyDevice::new(dev, cfg)
        })
        .collect();
    let config = MpiConfig::device_defaults().with_progress_timeout_us(2_000_000);
    let results: Vec<MpiResult<()>> = run_devices(devices, config, |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            // Rendezvous-sized: rank 1 answers with RndvGo, duplicated.
            let big = vec![7u32; 50_000];
            world.send(&big, 1, 0)?;
            let mut fin = [0u32];
            world.recv(&mut fin, 1, 1)?;
        } else {
            let mut big = vec![0u32; 50_000];
            world.recv(&mut big, 0, 0)?;
            world.send(&[9u32], 0, 1)?;
        }
        Ok(())
    });
    // Rank 0 sees the duplicate RndvGo for an already-completed send.
    match &results[0] {
        Err(MpiError::Transport { peer: Some(1), .. }) => {}
        // Depending on interleaving the duplicate can instead arrive while
        // nothing is blocking, surfacing on the next call — a Timeout at
        // finalize-less exit is not possible, so anything but Transport is
        // a failure.
        other => panic!("rank 0: expected a typed Transport error, got {other:?}"),
    }
}

/// A shm device that counts the receive calls reaching it.
struct Counting(ShmDevice, Arc<AtomicU64>);

impl Device for Counting {
    fn rank(&self) -> Rank {
        self.0.rank()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn send(&self, dst: Rank, wire: Wire) {
        self.0.send(dst, wire);
    }
    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.recv(wait)
    }
    fn supports_background_progress(&self) -> bool {
        true
    }
    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }
    fn defaults(&self) -> DeviceDefaults {
        self.0.defaults()
    }
}

/// A wait of at most `ms` milliseconds.
fn within_ms(ms: u64) -> Wait {
    Wait::Within(Duration::from_millis(ms))
}

#[test]
fn an_idle_wait_parks_in_the_device_below() {
    // With no timer armed, the wrappers wait in the shm inbox for the
    // whole wait: a poll at each layer and one park, not a poll per sleep
    // slice.
    let calls = Arc::new(AtomicU64::new(0));
    let mut fabric = ShmDevice::fabric(2);
    let shm = Counting(fabric.remove(0), calls.clone());
    let dev = ReliableDevice::new(
        FaultyDevice::new(shm, FaultConfig::lossless(0)),
        RelConfig::default(),
    );
    within(Duration::from_secs(10), move || {
        let start = Instant::now();
        assert!(dev.recv(within_ms(20)).unwrap().is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
    });
    let n = calls.load(Ordering::Relaxed);
    assert!(n <= 5, "{n} inner receive calls in one idle 20 ms wait");
}

#[test]
fn a_peer_declared_dead_ends_the_wait() {
    // Rank 1 never speaks: rank 0's silence threshold (1 ms) passes long
    // before the caller's 2 s deadline, and the verdict must end the wait.
    let mut fabric = ShmDevice::fabric(2).into_iter();
    let us = Duration::from_micros;
    let cfg = RelConfig::default().with_heartbeat(us(100), us(200), us(1_000));
    let d0 = ReliableDevice::new(fabric.next().unwrap(), cfg);
    let _silent = fabric.next().unwrap();
    let (got, elapsed) = within(Duration::from_secs(10), move || {
        let start = Instant::now();
        assert!(d0.recv(within_ms(2_000)).unwrap().is_none());
        (d0.take_failed_peer(), start.elapsed())
    });
    assert!(
        elapsed < Duration::from_millis(200),
        "the wait ran {elapsed:?} past the verdict"
    );
    assert!(
        matches!(got, Some((1, MpiError::PeerFailed { peer: 1, .. }))),
        "{got:?}"
    );
}

#[test]
fn a_parked_sender_fires_its_own_retransmit() {
    // Seed 10 at 50 % drops rank 0's first frame and passes its resend.
    // Nothing else moves: the frame reaches rank 1 only if rank 0, parked
    // in its own receive, wakes for the retransmit timer.
    let mut fabric = ShmDevice::fabric(2).into_iter();
    let lossy = FaultConfig::uniform(10, FaultRates::drop_only(0.5));
    let faulty = FaultyDevice::new(fabric.next().unwrap(), lossy);
    let faults = faulty.stats_handle();
    let d0 = ReliableDevice::new(faulty, RelConfig::default());
    let rel = d0.stats_handle();
    let d1 = ReliableDevice::new(
        FaultyDevice::new(fabric.next().unwrap(), FaultConfig::lossless(1)),
        RelConfig::default(),
    );
    let got = within(Duration::from_secs(10), move || {
        let sender = std::thread::spawn(move || {
            d0.send(1, Wire::bare(0, Packet::EagerAck { send_id: 7 }));
            // Only the ack comes back, and the sublayer consumes it.
            assert!(d0.recv(within_ms(300)).unwrap().is_none());
        });
        let got = d1.recv(within_ms(300)).unwrap();
        let _ = d1.try_recv(); // the ack
        sender.join().unwrap();
        got
    });
    assert!(
        matches!(got.map(|w| w.pkt), Some(Packet::EagerAck { send_id: 7 })),
        "the resend never arrived"
    );
    assert!(
        TransportStats::from(&*faults).faults_dropped >= 1,
        "the first copy was not dropped"
    );
    assert!(
        TransportStats::from(&*rel).retransmits >= 1,
        "no retransmit fired"
    );
}

#[test]
fn window_stalls_beside_self_sends_keep_order() {
    // A two-frame window stalls rank 0's sends on acks while its own
    // self-sends arrive through the same inbox; whichever of rank 0's
    // threads drains must ingest both in the order it took them.
    const N: u32 = 20_000;
    let rel = RelConfig {
        window: 2,
        ..RelConfig::default()
    };
    let devices: Vec<_> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            ReliableDevice::new(
                FaultyDevice::new(dev, FaultConfig::lossless(rank as u64)),
                rel,
            )
        })
        .collect();
    within(Duration::from_secs(60), move || {
        run_devices(devices, MpiConfig::device_defaults(), |mpi| {
            let world = mpi.world();
            let me = world.rank();
            let vals: Vec<u32> = (0..N).collect();
            if me == 0 {
                let mut reqs = Vec::new();
                for v in &vals {
                    reqs.push(world.isend(std::slice::from_ref(v), 1, 0).unwrap());
                    reqs.push(world.isend(std::slice::from_ref(v), 0, 1).unwrap());
                }
                for i in 0..N {
                    let mut v = [u32::MAX];
                    world.recv(&mut v, 0, 1).unwrap();
                    assert_eq!(v[0], i, "self-send {i} out of order");
                }
                wait_all(reqs).unwrap();
            } else {
                // Only the progress thread drains while rank 0 fills the
                // window.
                std::thread::sleep(Duration::from_millis(20));
                for i in 0..N {
                    let mut v = [u32::MAX];
                    world.recv(&mut v, 0, 0).unwrap();
                    assert_eq!(v[0], i, "message {i} from rank 0 out of order");
                }
            }
            world.barrier().unwrap();
            let extra = world.iprobe(SourceSel::Any, TagSel::Any).unwrap();
            assert!(extra.is_none(), "rank {me}: a message arrived twice");
        });
    });
}

#[test]
fn real_udp_self_sends_are_prompt() {
    let elapsed = within(Duration::from_secs(30), || {
        run_real_udp(1, MpiConfig::device_defaults(), |mpi| {
            let world = mpi.world();
            let start = Instant::now();
            for i in 0..1_000u32 {
                world.send(&[i], 0, 0).unwrap();
                let mut v = [u32::MAX];
                world.recv(&mut v, 0, 0).unwrap();
                assert_eq!(v[0], i);
            }
            start.elapsed()
        })
        .expect("udp socket")[0]
    });
    assert!(
        elapsed < Duration::from_secs(1),
        "1 000 round trips took {elapsed:?}"
    );
}

/// The one reliability sublayer in virtual time: two ranks over simulated
/// UDP on ATM losing 30 % of datagrams, as `run_cluster` stacks UDP but
/// built here so that the test holds the `Sim` and the fabric. A two-frame
/// window makes rank 0's sends stall, and its `Drop` linger for the last
/// acks, both parked in the simulated socket. Thirty eager messages and
/// one rendezvous message arrive in order and byte-exact, and the run
/// (rank 0's virtual end time, retransmits, hand-offs) repeats exactly.
#[test]
fn sim_udp_survives_loss_in_virtual_time() {
    const EAGER: u32 = 30;
    const BIG: usize = 100 << 10;
    let payload = |i: u32, len: usize| -> Vec<u8> {
        (0..len)
            .map(|k| (k as u32).wrapping_mul(31) as u8 ^ i as u8)
            .collect()
    };
    let rel = RelConfig {
        window: 2,
        rto: Duration::from_millis(50),
        ..RelConfig::default()
    };
    let job = move || {
        let sim = Sim::new();
        let fabric = Fabric::Atm(AtmFabric::new(&sim, 2, AtmParams::default()));
        let sock: SockFabric<Wire> =
            SockFabric::new(&sim, 2, fabric, SocketParams::udp_atm(), 0.3, 7);
        let out = Arc::new(lmpi_sim::lock::Mutex::new((0u64, 0u64)));
        for rank in 0..2 {
            let (node, out) = (sock.node(rank), out.clone());
            sim.spawn(format!("rank{rank}"), move |p| {
                let chan = SimTcpChannel::new(node, p.clone());
                let dev = ReliableDevice::new(SockDevice::new(chan, rank, 2), rel);
                let stats = dev.stats_handle();
                let mpi = Mpi::new(Box::new(dev), MpiConfig::device_defaults());
                let world = mpi.world();
                if rank == 0 {
                    for i in 0..EAGER {
                        world.send(&payload(i, 64 + i as usize), 1, i).unwrap();
                    }
                    world.send(&payload(EAGER, BIG), 1, EAGER).unwrap();
                } else {
                    for i in 0..=EAGER {
                        let len = if i < EAGER { 64 + i as usize } else { BIG };
                        let mut got = vec![0u8; len];
                        let st = world.recv(&mut got, 0, TagSel::Any).unwrap();
                        assert_eq!((st.tag, st.len), (i, len), "message {i} out of order");
                        assert!(got == payload(i, len), "message {i}: bytes differ");
                    }
                }
                drop((world, mpi));
                let mut out = out.lock();
                out.1 += TransportStats::from(&*stats).retransmits;
                if rank == 0 {
                    out.0 = p.now().as_ns();
                }
            });
        }
        sim.run();
        let (end_ns, retransmits) = *out.lock();
        (end_ns, retransmits, sim.switches(), sock.dropped())
    };
    let first = within(Duration::from_secs(60), job);
    let (_, retransmits, _, dropped) = first;
    assert!(dropped > 0, "no datagram was lost");
    assert!(retransmits > 0, "no retransmit fired");
    for _ in 0..19 {
        assert_eq!(within(Duration::from_secs(60), job), first);
    }
}

/// Resends on a lossless link, counted exactly: `run_cluster`'s simulated
/// UDP (the reliability sublayer over a socket that drops nothing) runs 5
/// round trips at each size on each fabric, and each rank's retransmits
/// and rank 0's virtual elapsed time are pinned. Virtual time makes both
/// exact integers.
///
/// The nonzero 1 MiB counts are a known defect, not a bar: a 48 KiB
/// chunk's retransmit timer starts when the chunk is queued, not when it
/// leaves, so chunks still serialising on the link time out and go again.
/// Timers armed at departure, and one window sized by the receiver, are to
/// drive every count here to 0; each such change updates these literals.
#[test]
fn lossless_sim_udp_resend_census() {
    use lmpi_devices::sock::{run_cluster, ClusterNet, ClusterTransport};
    const ROUND_TRIPS: usize = 5;
    let census = |net: ClusterNet, len: usize| {
        run_cluster(
            2,
            net,
            ClusterTransport::Udp,
            MpiConfig::device_defaults(),
            move |mpi| {
                let world = mpi.world();
                let (me, peer) = (world.rank(), 1 - world.rank());
                let mut buf = vec![me as u8; len];
                let t0 = mpi.wtime();
                for _ in 0..ROUND_TRIPS {
                    if me == 0 {
                        world.send(&buf, peer, 0).unwrap();
                        world.recv(&mut buf, peer, TagSel::Any).unwrap();
                    } else {
                        world.recv(&mut buf, peer, TagSel::Any).unwrap();
                        world.send(&buf, peer, 0).unwrap();
                    }
                }
                let elapsed_ns = ((mpi.wtime() - t0) * 1e9).round() as u64;
                (mpi.transport_stats().retransmits, elapsed_ns)
            },
        )
    };
    for net in [ClusterNet::Ethernet, ClusterNet::Atm] {
        for len in [8, 64 << 10] {
            let got = census(net, len);
            assert!(
                got.iter().all(|&(retx, _)| retx == 0),
                "{net:?}, {len} B: {got:?}"
            );
        }
    }
    let eth = census(ClusterNet::Ethernet, 1 << 20);
    assert_eq!(
        eth.iter().map(|&(retx, _)| retx).collect::<Vec<_>>(),
        [60, 60],
        "Ethernet, 1 MiB: {eth:?}"
    );
    assert_eq!(eth[0].1, 10_642_988_000, "Ethernet, 1 MiB: {eth:?}");
    let atm = census(ClusterNet::Atm, 1 << 20);
    assert_eq!(
        atm.iter().map(|&(retx, _)| retx).collect::<Vec<_>>(),
        [35, 35],
        "ATM, 1 MiB: {atm:?}"
    );
    assert_eq!(atm[0].1, 1_689_535_880, "ATM, 1 MiB: {atm:?}");
}
