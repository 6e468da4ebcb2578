//! Cross-substrate integration: the same MPI programs produce identical
//! results on every transport (real threads, simulated Meiko, simulated
//! Ethernet/ATM cluster over TCP and UDP, real TCP and UDP loopback), and the
//! simulated substrates are exactly deterministic.

use lmpi::obs::{chrome_trace_json, TraceBuffer, Tracer};
use lmpi::{
    run_cluster, run_meiko, run_real_tcp, run_real_udp, run_threads, ClusterNet, ClusterTransport,
    MeikoVariant, Mpi, MpiConfig, ReduceOp, SourceSel, TagSel,
};
use lmpi_sim::within;
use std::time::Duration;

/// A program exercising p2p (all modes), wildcards, nonblocking ops and
/// collectives; returns a per-rank digest that must be identical across
/// substrates.
fn workout(mpi: Mpi) -> Vec<u64> {
    let world = mpi.world();
    let me = world.rank();
    let n = world.size();
    let mut digest = Vec::new();

    // Ring sendrecv.
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mut got = [0u64];
    world
        .sendrecv(&[(me * 3 + 1) as u64], right, 4, &mut got, left, 4)
        .unwrap();
    digest.push(got[0]);

    // Funnel to rank 0 with ANY_SOURCE, redistribute with scatter.
    if me == 0 {
        let mut seen = vec![0u64; n];
        seen[0] = 100;
        for _ in 1..n {
            let mut v = [0u64];
            let st = world.recv(&mut v, SourceSel::Any, TagSel::Tag(9)).unwrap();
            seen[st.source] = v[0];
        }
        let mut mine = [0u64];
        world.scatter(Some(&seen), &mut mine, 0).unwrap();
        digest.push(mine[0]);
    } else {
        world.send(&[(me * 100) as u64], 0, 9).unwrap();
        let mut mine = [0u64];
        world.scatter(None, &mut mine, 0).unwrap();
        digest.push(mine[0]);
    }

    // A large message (rendezvous on most substrates) echoed between
    // neighbours by parity.
    let big: Vec<u64> = (0..4000)
        .map(|i| (i as u64).wrapping_mul(me as u64 + 7))
        .collect();
    if n >= 2 {
        let peer = me ^ 1;
        if peer < n {
            let mut back = vec![0u64; big.len()];
            if me.is_multiple_of(2) {
                world.send(&big, peer, 5).unwrap();
                world.recv(&mut back, peer, 6).unwrap();
            } else {
                world.recv(&mut back, peer, 5).unwrap();
                world.send(&big, peer, 6).unwrap();
            }
            digest.push(back.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
        } else {
            digest.push(0);
        }
    }

    // Collectives.
    digest.push(world.allreduce(&[me as u64 + 1], ReduceOp::Prod).unwrap()[0]);
    let ag = world.allgather(&[me as u64 * 11]).unwrap();
    digest.push(ag.iter().sum());
    let sc = world.scan(&[1u64], ReduceOp::Sum).unwrap();
    digest.push(sc[0]);

    digest
}

#[test]
fn all_substrates_agree() {
    let n = 4;
    let reference = run_threads(n, workout);
    let meiko = run_meiko(
        n,
        MeikoVariant::LowLatency,
        MpiConfig::device_defaults(),
        workout,
    );
    assert_eq!(meiko, reference, "simulated Meiko disagrees with threads");
    let mpich = run_meiko(
        n,
        MeikoVariant::Mpich,
        MpiConfig::device_defaults(),
        workout,
    );
    assert_eq!(mpich, reference, "MPICH baseline disagrees");
    let eth = run_cluster(
        n,
        ClusterNet::Ethernet,
        ClusterTransport::Tcp,
        MpiConfig::device_defaults(),
        workout,
    );
    assert_eq!(eth, reference, "sim Ethernet TCP disagrees");
    let udp = run_cluster(
        n,
        ClusterNet::Atm,
        ClusterTransport::Udp,
        MpiConfig::device_defaults(),
        workout,
    );
    assert_eq!(udp, reference, "sim ATM UDP disagrees");
    let real = run_real_tcp(n, MpiConfig::device_defaults(), workout).expect("real tcp mesh");
    assert_eq!(real, reference, "real TCP disagrees");
    let real = run_real_udp(n, MpiConfig::device_defaults(), workout).expect("real udp mesh");
    assert_eq!(real, reference, "real UDP disagrees");
}

/// Ready-mode sends into pre-posted receives, one past a datagram (100 KiB)
/// and one past every default receive reserve (2 MiB): each arrives intact
/// at the device defaults on every substrate. A ready send larger than a
/// chunk travels as a standard rendezvous send; sent eager, the first
/// would exceed a UDP datagram and the second could never get the credit.
fn large_ready_sends(mpi: Mpi) -> bool {
    let world = mpi.world();
    let sizes = [100 << 10, 2 << 20];
    let fill = |len: usize, k: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + k) as u8).collect() };
    if world.rank() == 1 {
        let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&len| vec![0u8; len]).collect();
        let mut reqs = Vec::new();
        for (tag, buf) in bufs.iter_mut().enumerate() {
            reqs.push(world.irecv(buf, 0, tag as u32).unwrap());
        }
        world.send(&[1u8], 0, 9).unwrap();
        for req in reqs {
            req.wait().unwrap();
        }
        bufs.iter()
            .enumerate()
            .all(|(k, buf)| *buf == fill(buf.len(), k))
    } else {
        world.recv(&mut [0u8], 1, 9).unwrap();
        for (tag, &len) in sizes.iter().enumerate() {
            world.rsend(&fill(len, tag), 1, tag as u32).unwrap();
        }
        true
    }
}

#[test]
fn large_ready_sends_arrive_everywhere() {
    let watched = MpiConfig::device_defaults().with_progress_timeout_us(5_000_000);
    let all = |out: Vec<bool>| out.iter().all(|&ok| ok);
    let limit = Duration::from_secs(60);
    let shm = within(limit, move || {
        lmpi::run_threads_with_config(2, watched, large_ready_sends)
    });
    assert!(all(shm), "threads");
    let meiko = run_meiko(
        2,
        MeikoVariant::LowLatency,
        MpiConfig::device_defaults(),
        large_ready_sends,
    );
    assert!(all(meiko), "simulated Meiko");
    let tcp = within(limit, move || run_real_tcp(2, watched, large_ready_sends));
    assert!(all(tcp.expect("real tcp mesh")), "real TCP");
    let udp = within(limit, move || run_real_udp(2, watched, large_ready_sends));
    assert!(all(udp.expect("real udp mesh")), "real UDP");
}

#[test]
fn simulated_runs_are_bit_reproducible() {
    fn run_once() -> Vec<(Vec<u64>, u64)> {
        run_meiko(
            3,
            MeikoVariant::LowLatency,
            MpiConfig::device_defaults(),
            |mpi| {
                let digest = workout(mpi);
                (digest, 0)
            },
        )
        .into_iter()
        .collect()
    }
    fn run_times() -> Vec<f64> {
        run_cluster(
            3,
            ClusterNet::Ethernet,
            ClusterTransport::Tcp,
            MpiConfig::device_defaults(),
            |mpi| {
                let world = mpi.world();
                let _ = world
                    .allreduce(&[world.rank() as u64 + 3], ReduceOp::Sum)
                    .unwrap();
                world.barrier().unwrap();
                mpi.wtime()
            },
        )
    }
    assert_eq!(run_once(), run_once(), "results must be identical");
    assert_eq!(
        run_times(),
        run_times(),
        "virtual completion times must be bit-identical"
    );
}

/// Simulated ranks are coroutines on the one thread in `Sim::run`, so they
/// share that thread's trace id; the Chrome export still shows each rank
/// as its own process row with one thread row under it.
#[test]
fn simulated_chrome_trace_has_one_row_per_rank() {
    const RANKS: usize = 3;
    let tracers: Vec<Tracer> = (0..RANKS as u32)
        .map(|r| Tracer::enabled(r, 1 << 12))
        .collect();
    let t = tracers.clone();
    run_cluster(
        RANKS,
        ClusterNet::Atm,
        ClusterTransport::Tcp,
        MpiConfig::device_defaults(),
        move |mpi| {
            let world = mpi.world();
            mpi.set_tracer(t[world.rank()].clone());
            world.allreduce(&[1u64], ReduceOp::Sum).unwrap();
            world.barrier().unwrap();
        },
    );
    let bufs: Vec<TraceBuffer> = tracers.iter().map(Tracer::snapshot).collect();
    let json = chrome_trace_json(&bufs);
    for (rank, buf) in bufs.iter().enumerate() {
        assert!(!buf.events.is_empty(), "rank {rank} traced nothing");
        assert!(
            buf.events.iter().all(|ev| ev.tid == buf.events[0].tid),
            "rank {rank}'s events span several thread rows"
        );
        for row in ["process_name", "thread_name"] {
            let record = format!(r#""name":"{row}","pid":{rank},"#);
            assert_eq!(json.matches(&record).count(), 1, "{row} of rank {rank}");
        }
    }
}

#[test]
fn eager_threshold_config_respected_everywhere() {
    for threshold in [0usize, 64, 4096] {
        let counters = run_threads_cfg(threshold);
        // A 512-byte message: eager iff threshold >= 512.
        if threshold >= 512 {
            assert_eq!(counters.0, 1, "thr={threshold}: expected eager");
            assert_eq!(counters.1, 0);
        } else {
            assert_eq!(counters.0, 0, "thr={threshold}: expected rendezvous");
            assert_eq!(counters.1, 1);
        }
    }

    fn run_threads_cfg(threshold: usize) -> (u64, u64) {
        let out = lmpi::run_threads_with_config(
            2,
            MpiConfig::device_defaults().with_eager_threshold(threshold),
            |mpi| {
                let world = mpi.world();
                if world.rank() == 0 {
                    world.send(&[7u8; 512], 1, 0).unwrap();
                    let c = mpi.counters();
                    (c.eager_sent, c.rndv_sent)
                } else {
                    let mut b = [0u8; 512];
                    world.recv(&mut b, 0, 0).unwrap();
                    (0, 0)
                }
            },
        );
        out[0]
    }
}

#[test]
fn many_ranks_stress_collectives() {
    // 16 ranks on threads: a pile of interleaved collectives.
    let n = 16;
    run_threads(n, move |mpi| {
        let world = mpi.world();
        let me = world.rank();
        for round in 0..5u64 {
            let mut v = vec![me as u64 + round; 17];
            world.bcast(&mut v, (round as usize) % n).unwrap();
            assert!(v.iter().all(|&x| x == (round as usize % n) as u64 + round));
            let s = world.allreduce(&[me as u64], ReduceOp::Sum).unwrap()[0];
            assert_eq!(s, (n as u64 * (n as u64 - 1)) / 2);
            world.barrier().unwrap();
        }
    });
}

#[test]
fn communicator_split_traffic_isolated_under_load() {
    let n = 6;
    run_threads(n, move |mpi| {
        let world = mpi.world();
        let me = world.rank();
        let sub = world
            .split(Some((me % 3) as u64), me as u64)
            .unwrap()
            .unwrap();
        // Same tags flying on world and on each color group concurrently.
        let w_sum = world.allreduce(&[1u64], ReduceOp::Sum).unwrap()[0];
        let s_sum = sub.allreduce(&[1u64], ReduceOp::Sum).unwrap()[0];
        assert_eq!(w_sum, n as u64);
        assert_eq!(s_sum, 2);
        // Point-to-point on sub with the same tag as on world.
        if sub.size() == 2 {
            let peer = 1 - sub.rank();
            let mut got = [0u32];
            sub.sendrecv(&[sub.rank() as u32], peer, 3, &mut got, peer, 3)
                .unwrap();
            assert_eq!(got[0] as usize, peer);
        }
        let mut got = [0u32];
        let wpeer = (me + 3) % n;
        world
            .sendrecv(&[me as u32], wpeer, 3, &mut got, wpeer, 3)
            .unwrap();
        assert_eq!(got[0] as usize, wpeer);
    });
}
