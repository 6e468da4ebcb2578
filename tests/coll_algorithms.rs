//! Cross-algorithm identity for the collective engine: every registered
//! algorithm of every collective family must deliver byte-identical
//! results — to each other, to the table-driven dispatch path, and to a
//! locally computed naive reference — on every substrate, at every
//! payload size class (empty, single-element, eager, rendezvous), and
//! under seeded packet loss on the reliability layer.
//!
//! Also regression-tests the reserved per-collective tag window: the
//! 8-bit collective sequence number must isolate back-to-back collectives
//! on one communicator (including across the wrap at 256) and between a
//! communicator and its `dup`.

use lmpi::{
    run_cluster, run_devices, run_meiko, run_threads, run_threads_with_config, AllgatherAlgo,
    AllreduceAlgo, BarrierAlgo, BcastAlgo, ClusterNet, ClusterTransport, Communicator, FaultConfig,
    FaultRates, FaultyDevice, MeikoVariant, Mpi, MpiConfig, ReduceOp, RelConfig, ReliableDevice,
    ShmDevice,
};
use lmpi_sim::for_each_case;

mod common;
use common::pin_sets;

/// Every dispatch of a pinned family went to the pinned algorithm, and
/// there was at least one.
fn assert_pins_took(mpi: &Mpi, cfg: &MpiConfig) {
    let tally = mpi.metrics_snapshot().coll_dispatch;
    let pins = [
        ("barrier", cfg.coll.barrier.map(BarrierAlgo::name)),
        ("bcast", cfg.coll.bcast.map(BcastAlgo::name)),
        ("allreduce", cfg.coll.allreduce.map(AllreduceAlgo::name)),
        ("allgather", cfg.coll.allgather.map(AllgatherAlgo::name)),
    ];
    for (coll, algo) in pins {
        let Some(algo) = algo else { continue };
        let ran: Vec<&str> = tally
            .iter()
            .filter(|e| e.collective == coll)
            .map(|e| e.algorithm.as_str())
            .collect();
        assert_eq!(ran, [algo], "{coll} pinned to {algo}");
    }
}

/// Deterministic per-(rank, index) payload word. Kept to 32 bits so a
/// `Sum` over any realistic communicator cannot overflow u64.
fn pat(rank: usize, i: usize) -> u64 {
    ((rank as u64).wrapping_mul(0x9E37_79B9) ^ (i as u64).wrapping_mul(97) ^ 0xA5) & 0xFFFF_FFFF
}

/// The naive reference for one reduction step.
fn apply(op: ReduceOp, a: u64, b: u64) -> u64 {
    match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Max => a.max(b),
        ReduceOp::Bxor => a ^ b,
        _ => unreachable!("not exercised here"),
    }
}

/// Run every collective family on `world` at each element count, with
/// whatever algorithms the job's configuration pins, and compare against
/// the locally computed reference. Panics (in the rank thread) on any
/// divergence, which fails the harness run.
fn algo_workout(world: &Communicator, sizes: &[usize]) {
    let me = world.rank();
    let n = world.size();
    for (si, &count) in sizes.iter().enumerate() {
        let root = si % n;
        let mine: Vec<u64> = (0..count).map(|i| pat(me, i)).collect();

        let expect: Vec<u64> = (0..count).map(|i| pat(root, i)).collect();
        let mut buf = mine.clone();
        world.bcast(&mut buf, root).unwrap();
        assert_eq!(buf, expect, "bcast diverged (count {count}, root {root})");

        // Exact-in-any-order operators, so float reassociation cannot
        // mask (or fake) a schedule bug.
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Bxor] {
            let expect: Vec<u64> = (0..count)
                .map(|i| (1..n).fold(pat(0, i), |acc, r| apply(op, acc, pat(r, i))))
                .collect();
            let got = world.allreduce(&mine, op).unwrap();
            assert_eq!(got, expect, "allreduce diverged (count {count}, op {op:?})");
        }

        let expect: Vec<u64> = (0..n)
            .flat_map(|r| (0..count).map(move |i| pat(r, i)))
            .collect();
        let got = world.allgather(&mine).unwrap();
        assert_eq!(got, expect, "allgather diverged (count {count})");

        world.barrier().unwrap();
    }
}

/// [`algo_workout`] on the world communicator, then the pin check.
fn world_workout(mpi: &Mpi, cfg: &MpiConfig, sizes: &[usize]) {
    algo_workout(&mpi.world(), sizes);
    assert_pins_took(mpi, cfg);
}

/// Thread substrate: wide rank sweep including non-powers-of-two (the
/// recursive-doubling fold and binomial vrank math bite there) and a
/// rendezvous-sized payload (9000 × 8 B > the 8 KiB shm eager threshold).
#[test]
fn every_algorithm_matches_the_reference_on_threads() {
    for cfg in pin_sets() {
        for n in [2usize, 3, 4, 5, 8] {
            run_threads_with_config(n, cfg, move |mpi| {
                world_workout(&mpi, &cfg, &[0, 1, 17, 300, 9_000])
            });
        }
    }
}

/// Simulated Meiko and ATM-cluster TCP substrates (virtual time, exactly
/// deterministic); 1500 × 8 B crosses the sim-tcp eager threshold.
#[test]
fn every_algorithm_matches_the_reference_on_simulated_substrates() {
    for cfg in pin_sets() {
        for n in [2usize, 3, 5] {
            run_meiko(n, MeikoVariant::LowLatency, cfg, move |mpi| {
                world_workout(&mpi, &cfg, &[0, 1, 17, 300, 1_500])
            });
            run_cluster(n, ClusterNet::Atm, ClusterTransport::Tcp, cfg, move |mpi| {
                world_workout(&mpi, &cfg, &[0, 1, 17, 300, 1_500])
            });
        }
    }
}

/// A communicator whose group is not the identity: ranks 4, 2, 0 of six, in
/// that order, so local rank `r` is global rank `4 - 2r`. An algorithm that
/// confuses local and global ranks addresses a non-member or the wrong
/// member here; on `world` the two coincide and hide it.
fn reversed_subcomm_workout(mpi: &Mpi) {
    let world = mpi.world();
    let group = world.comm_group().incl(&[4, 2, 0]).unwrap();
    if let Some(sub) = world.create(&group).unwrap() {
        assert_eq!(sub.rank(), (4 - world.rank()) / 2);
        algo_workout(&sub, &[0, 1, 17, 300, 1_500]);
    }
}

#[test]
fn every_algorithm_matches_the_reference_on_a_reversed_sub_communicator() {
    for cfg in pin_sets() {
        run_threads_with_config(6, cfg, |mpi| reversed_subcomm_workout(&mpi));
        run_meiko(6, MeikoVariant::LowLatency, cfg, |mpi| {
            reversed_subcomm_workout(&mpi)
        });
        run_cluster(6, ClusterNet::Atm, ClusterTransport::Tcp, cfg, |mpi| {
            reversed_subcomm_workout(&mpi)
        });
    }
}

/// Reserved-tag regression: more than 256 collectives back to back on one
/// communicator (wrapping the 8-bit sequence window), interleaved with
/// collectives on a `dup` of it, with values checked on every round. A
/// cross-matched step between adjacent collectives — or between the two
/// communicators — corrupts a payload and fails the assertion.
#[test]
fn collective_sequence_isolates_back_to_back_and_dup_traffic() {
    let n = 4;
    run_threads(n, move |mpi| {
        let world = mpi.world();
        let twin = world.dup().unwrap();
        let me = world.rank();
        for round in 0..70usize {
            let root = round % n;
            let mut v: Vec<u64> = (0..5).map(|i| pat(me, round * 8 + i)).collect();
            world.bcast(&mut v, root).unwrap();
            let expect: Vec<u64> = (0..5).map(|i| pat(root, round * 8 + i)).collect();
            assert_eq!(v, expect, "round {round}: bcast corrupted");

            let s = twin
                .allreduce(&[me as u64 + round as u64], ReduceOp::Sum)
                .unwrap()[0];
            let rsum = (0..n as u64).sum::<u64>() + (round as u64) * n as u64;
            assert_eq!(s, rsum, "round {round}: dup-comm allreduce corrupted");

            let ag = world.allgather(&[pat(me, round)]).unwrap();
            let ag_expect: Vec<u64> = (0..n).map(|r| pat(r, round)).collect();
            assert_eq!(ag, ag_expect, "round {round}: allgather corrupted");

            let sc = world.scan(&[1u64], ReduceOp::Sum).unwrap()[0];
            assert_eq!(sc, me as u64 + 1, "round {round}: scan corrupted");

            if round % 2 == 0 {
                world.barrier().unwrap();
            } else {
                twin.barrier().unwrap();
            }
        }
    });
}

/// One lossy run: every frame class dropped with probability `drop` under
/// the selective-repeat reliability layer; all algorithms must still
/// deliver the reference bytes.
fn run_lossy(n: usize, drop: f64, seed: u64, sizes: Vec<usize>, cfg: MpiConfig) {
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(n)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig::uniform(seed ^ rank as u64, FaultRates::drop_only(drop));
            ReliableDevice::new(FaultyDevice::new(dev, cfg), RelConfig::default())
        })
        .collect();
    run_devices(devices, cfg, move |mpi: Mpi| {
        world_workout(&mpi, &cfg, &sizes)
    });
}

// Each case spawns n threads and rides real retransmission timers;
// keep the count modest.
#[test]
fn algorithms_agree_under_seeded_packet_loss() {
    for_each_case(6, |rng| {
        let n = rng.range(2..6);
        let drop = 0.02 + rng.next_f64() * 0.18;
        let seed = rng.next_u64();
        let count = rng.range(0..600);
        for cfg in pin_sets() {
            run_lossy(n, drop, seed, vec![count], cfg);
        }
    });
}
