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
    run_cluster, run_devices, run_meiko, run_threads, ClusterNet, ClusterTransport, Communicator,
    FaultConfig, FaultRates, FaultyDevice, MeikoVariant, Mpi, MpiConfig, ReduceOp, RelConfig,
    ReliableDevice, ShmDevice,
};
use lmpi_sim::for_each_case;

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

/// Run every algorithm of every family on `world` at each element count
/// and compare against the locally computed reference. Panics (in the rank
/// thread) on any divergence, which fails the harness run.
fn algo_workout(world: &Communicator, sizes: &[usize]) {
    let me = world.rank();
    let n = world.size();
    for (si, &count) in sizes.iter().enumerate() {
        let root = si % n;
        let mine: Vec<u64> = (0..count).map(|i| pat(me, i)).collect();

        // Broadcast: binomial, scatter-allgather, and table dispatch.
        let expect: Vec<u64> = (0..count).map(|i| pat(root, i)).collect();
        for variant in 0..3 {
            let mut buf = mine.clone();
            match variant {
                0 => world.bcast_binomial(&mut buf, root).unwrap(),
                1 => world.bcast_scatter_allgather(&mut buf, root).unwrap(),
                _ => world.bcast(&mut buf, root).unwrap(),
            }
            assert_eq!(
                buf, expect,
                "bcast variant {variant} diverged (count {count}, root {root})"
            );
        }

        // Allreduce: reduce+bcast, ring, recursive doubling, dispatch —
        // over exact-in-any-order operators so float reassociation cannot
        // mask (or fake) a schedule bug.
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Bxor] {
            let expect: Vec<u64> = (0..count)
                .map(|i| (1..n).fold(pat(0, i), |acc, r| apply(op, acc, pat(r, i))))
                .collect();
            for variant in 0..4 {
                let got = match variant {
                    0 => world.allreduce_reduce_bcast(&mine, op).unwrap(),
                    1 => world.allreduce_ring(&mine, op).unwrap(),
                    2 => world.allreduce_recursive_doubling(&mine, op).unwrap(),
                    _ => world.allreduce(&mine, op).unwrap(),
                };
                assert_eq!(
                    got, expect,
                    "allreduce variant {variant} diverged (count {count}, op {op:?})"
                );
            }
        }

        // Allgather: ring, gather+bcast, dispatch.
        let expect: Vec<u64> = (0..n)
            .flat_map(|r| (0..count).map(move |i| pat(r, i)))
            .collect();
        for variant in 0..3 {
            let got = match variant {
                0 => world.allgather_ring(&mine).unwrap(),
                1 => world.allgather_gather_bcast(&mine).unwrap(),
                _ => world.allgather(&mine).unwrap(),
            };
            assert_eq!(
                got, expect,
                "allgather variant {variant} diverged (count {count})"
            );
        }

        // Both barrier algorithms and the dispatched one must complete.
        world.barrier_dissemination().unwrap();
        world.barrier_tree().unwrap();
        world.barrier().unwrap();
    }
}

/// Thread substrate: wide rank sweep including non-powers-of-two (the
/// recursive-doubling fold and binomial vrank math bite there) and a
/// rendezvous-sized payload (9000 × 8 B > the 8 KiB shm eager threshold).
#[test]
fn every_algorithm_matches_the_reference_on_threads() {
    for n in [2usize, 3, 4, 5, 8] {
        run_threads(n, |mpi| algo_workout(&mpi.world(), &[0, 1, 17, 300, 9_000]));
    }
}

/// Simulated Meiko and ATM-cluster TCP substrates (virtual time, exactly
/// deterministic); 1500 × 8 B crosses the sim-tcp eager threshold.
#[test]
fn every_algorithm_matches_the_reference_on_simulated_substrates() {
    for n in [2usize, 3, 5] {
        run_meiko(
            n,
            MeikoVariant::LowLatency,
            MpiConfig::device_defaults(),
            |mpi| algo_workout(&mpi.world(), &[0, 1, 17, 300, 1_500]),
        );
        run_cluster(
            n,
            ClusterNet::Atm,
            ClusterTransport::Tcp,
            MpiConfig::device_defaults(),
            |mpi| algo_workout(&mpi.world(), &[0, 1, 17, 300, 1_500]),
        );
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
    run_threads(6, |mpi| reversed_subcomm_workout(&mpi));
    run_meiko(
        6,
        MeikoVariant::LowLatency,
        MpiConfig::device_defaults(),
        |mpi| reversed_subcomm_workout(&mpi),
    );
    run_cluster(
        6,
        ClusterNet::Atm,
        ClusterTransport::Tcp,
        MpiConfig::device_defaults(),
        |mpi| reversed_subcomm_workout(&mpi),
    );
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
fn run_lossy(n: usize, drop: f64, seed: u64, sizes: Vec<usize>) {
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(n)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig::uniform(seed ^ rank as u64, FaultRates::drop_only(drop));
            ReliableDevice::new(FaultyDevice::new(dev, cfg), RelConfig::default())
        })
        .collect();
    run_devices(devices, MpiConfig::device_defaults(), move |mpi: Mpi| {
        algo_workout(&mpi.world(), &sizes)
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
        run_lossy(n, drop, seed, vec![count]);
    });
}
