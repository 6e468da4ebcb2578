//! Counter-consistency under seeded fault schedules: the protocol counters
//! and the merged transport statistics must tell one coherent story no
//! matter what the fault injector does to the wire. Go-back-N plus
//! duplicate suppression makes delivery exactly-once, so receiver-side
//! envelope matches must equal sender-side eager + rendezvous sends — net
//! of however many retransmissions and duplicates it took to get there.
//!
//! Also exercises the ISSUE 2 satellite accessor: [`Mpi::transport_stats`]
//! reads the stacked `ReliableDevice<FaultyDevice<ShmDevice>>` statistics
//! *after* the devices have moved into `Mpi::new`, and its merged view must
//! agree with the per-layer stats handles held outside the run.

use std::sync::Arc;

use lmpi::{
    run_devices, Counters, FaultConfig, FaultRates, FaultStats, FaultyDevice, Mpi, MpiConfig,
    RelConfig, RelStats, ReliableDevice, ShmDevice, TransportStats,
};
use lmpi_sim::for_each_case;

type Stack = ReliableDevice<FaultyDevice<ShmDevice>>;

/// Shm fabric wrapped in per-rank seeded fault injection plus go-back-N,
/// with the layer-local stats handles kept for post-run cross-checks.
fn lossy_fabric(
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

/// Per-rank traffic: one request/reply exchange per entry of `lens`
/// (request payload of that many bytes 0 → 1, a 4-byte reply back), with
/// contents verified on both sides. Returns the rank's protocol counters
/// and merged transport stats, both read through `Mpi` after the device
/// stack has been moved out of reach.
fn exchange(mpi: &Mpi, lens: &[usize]) -> (Counters, TransportStats) {
    let world = mpi.world();
    if world.rank() == 0 {
        for (i, &len) in lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|j| (i.wrapping_mul(37) ^ j) as u8).collect();
            world.send(&payload, 1, i as u32).unwrap();
            let mut ack = [0u32];
            world.recv(&mut ack, 1, 1000).unwrap();
            assert_eq!(ack[0], i as u32, "reply {i} corrupted");
        }
    } else {
        for (i, &len) in lens.iter().enumerate() {
            let mut buf = vec![0u8; len];
            world.recv(&mut buf, 0, i as u32).unwrap();
            assert!(
                buf.iter()
                    .enumerate()
                    .all(|(j, &b)| b == (i.wrapping_mul(37) ^ j) as u8),
                "request {i} corrupted"
            );
            world.send(&[i as u32], 0, 1000).unwrap();
        }
    }
    (mpi.counters(), mpi.transport_stats())
}

/// Every field of the in-run merged snapshot must be bounded by the
/// post-run totals from the layer handles (the handles keep counting
/// through teardown acks, so `<=`, not `==`).
fn assert_within_postrun(rank: usize, inside: &TransportStats, rel: &RelStats, fault: &FaultStats) {
    let (data_sent, retransmits, dup_suppressed, ooo_dropped, acks_sent) = rel.snapshot();
    let (_, dropped, duplicated, reordered, delayed) = fault.snapshot();
    let bounds = [
        ("data_frames_sent", inside.data_frames_sent, data_sent),
        ("retransmits", inside.retransmits, retransmits),
        ("dup_suppressed", inside.dup_suppressed, dup_suppressed),
        ("ooo_dropped", inside.ooo_dropped, ooo_dropped),
        ("pure_acks_sent", inside.pure_acks_sent, acks_sent),
        ("faults_dropped", inside.faults_dropped, dropped),
        ("faults_duplicated", inside.faults_duplicated, duplicated),
        ("faults_reordered", inside.faults_reordered, reordered),
        ("faults_delayed", inside.faults_delayed, delayed),
    ];
    for (name, got, max) in bounds {
        assert!(
            got <= max,
            "rank {rank}: merged {name} = {got} exceeds post-run layer total {max}"
        );
    }
}

// Each case spawns a 2-rank fabric with real threads; keep it modest.
/// The core property: for any seeded fault schedule and any mix of
/// eager- and rendezvous-sized messages, receiver matches equal sender
/// eager + rendezvous sends in each direction — retransmits and
/// duplicates never inflate (or deflate) the protocol-level counts.
#[test]
fn matches_equal_net_sends_under_seeded_faults() {
    for_each_case(12, |rng| {
        let seed = rng.next_u64();
        // Small (eager) and large (rendezvous) messages, half and half.
        let lens = rng.vec(1..8, |r| {
            if r.chance(0.5) {
                r.range(1..300)
            } else {
                r.range(2000..6000)
            }
        });
        let drop = [0.0, 0.02, 0.06][rng.range(0..3)];
        let rates = FaultRates {
            drop,
            dup: 0.03,
            reorder: 0.04,
            delay: 0.02,
            delay_us: 200,
        };
        let (devices, fault_stats, rel_stats) = lossy_fabric(2, seed, rates);
        // Pin the threshold so the strategy's small/large split really does
        // exercise both the eager and the rendezvous paths.
        let cfg = MpiConfig::device_defaults().with_eager_threshold(512);
        let lens2 = lens.clone();
        let results = run_devices(devices, cfg, move |mpi: Mpi| exchange(&mpi, &lens2));

        let n = lens.len() as u64;
        let sent_by = |r: usize| results[r].0.eager_sent + results[r].0.rndv_sent;
        // Each direction carried exactly one user message per exchange.
        assert_eq!(sent_by(0), n, "rank 0 sends");
        assert_eq!(sent_by(1), n, "rank 1 replies");
        // Exactly-once: receiver matches == sender sends, per direction.
        assert_eq!(results[1].0.matches, sent_by(0), "0->1 matches vs sends");
        assert_eq!(results[0].0.matches, sent_by(1), "1->0 matches vs sends");
        for (rank, (c, _)) in results.iter().enumerate() {
            assert!(
                c.unexpected_hits <= c.matches,
                "rank {}: unexpected_hits {} > matches {}",
                rank,
                c.unexpected_hits,
                c.matches
            );
            assert!(
                c.unexpected_hwm <= c.matches + 1,
                "rank {}: unexpected HWM {} implausible for {} matches",
                rank,
                c.unexpected_hwm,
                c.matches
            );
        }
        // The merged accessor never reports more than the layers recorded.
        for rank in 0..2 {
            assert_within_postrun(rank, &results[rank].1, &rel_stats[rank], &fault_stats[rank]);
        }
    });
}

/// Deterministic heavy-loss companion (same traffic shape and seed family
/// as the proven `faulty_reliable` acceptance tests): enough frames cross
/// the injector that drops, retransmissions and both stats layers are all
/// guaranteed to show up in the merged [`Mpi::transport_stats`] view.
#[test]
fn merged_transport_stats_see_both_layers_under_heavy_loss() {
    let rates = FaultRates {
        drop: 0.05,
        dup: 0.03,
        reorder: 0.05,
        delay: 0.03,
        delay_us: 300,
    };
    let (devices, fault_stats, rel_stats) = lossy_fabric(2, 0xFA00, rates);
    let lens: Vec<usize> = (0..150).map(|i| 1 + (i % 64)).chain([40_000]).collect();
    let lens2 = lens.clone();
    let results = run_devices(devices, MpiConfig::device_defaults(), move |mpi: Mpi| {
        exchange(&mpi, &lens2)
    });

    let n = lens.len() as u64;
    assert_eq!(results[1].0.matches, n, "0->1 exactly-once");
    assert_eq!(results[0].0.matches, n, "1->0 exactly-once");

    // The injector fired and go-back-N recovered — visible both through the
    // post-run layer handles and through the merged in-run accessor.
    let dropped: u64 = fault_stats.iter().map(|s| s.snapshot().1).sum();
    let retransmits: u64 = rel_stats.iter().map(|s| s.snapshot().1).sum();
    assert!(dropped > 0, "the fault injector never fired");
    assert!(
        retransmits > 0,
        "losses occurred but nothing was retransmitted"
    );
    let merged_frames: u64 = results.iter().map(|(_, t)| t.data_frames_sent).sum();
    let merged_faults: u64 = results
        .iter()
        .map(|(_, t)| {
            t.faults_dropped + t.faults_duplicated + t.faults_reordered + t.faults_delayed
        })
        .sum();
    assert!(
        merged_frames > 0,
        "merged stats lost the reliability layer's counters"
    );
    assert!(
        merged_faults > 0,
        "merged stats lost the fault layer's counters"
    );
    for rank in 0..2 {
        assert_within_postrun(rank, &results[rank].1, &rel_stats[rank], &fault_stats[rank]);
    }
}

/// Every rendezvous send is either pulled out of the sender's lent buffer
/// or streamed as chunks: over a job, `rndv_sent` is `rndv_pulled` plus the
/// streamed ones. Plain shm pulls what can be lent (contiguous
/// plain-old-data, standard or synchronous mode) and streams the rest;
/// under a wrapper device everything streams.
#[test]
fn rendezvous_sends_are_pulled_or_streamed() {
    use lmpi::{DataType, Loc};

    const BIG: usize = 20_000;
    // Rendezvous sends of the workout below: lendable, and not.
    const LENDABLE: u64 = 3;
    const STAGED: u64 = 3;
    let workout = |mpi: Mpi| {
        let world = mpi.world();
        let column = DataType::base(8).vector(BIG / 8, 1, 2).commit().unwrap();
        let bytes = vec![7u8; BIG];
        let words = vec![7u64; BIG / 8];
        let locs = vec![
            Loc {
                value: 0.5f64,
                index: 3
            };
            BIG / 16
        ];
        let strided = vec![7u8; column.extent()];
        if world.rank() == 0 {
            mpi.buffer_attach(BIG);
            world.send(&bytes, 1, 0).unwrap();
            world.ssend(&words, 1, 1).unwrap();
            world.isend(&bytes, 1, 2).unwrap().wait().unwrap();
            world.send(&locs, 1, 3).unwrap();
            world.send_typed(&column, &strided, 1, 4).unwrap();
            world.bsend(&bytes, 1, 5).unwrap();
            world.send(&bytes[..64], 1, 6).unwrap();
            mpi.buffer_detach().unwrap();
        } else {
            let (mut b, mut w, mut l) = (bytes.clone(), words.clone(), locs.clone());
            world.recv(&mut b, 0, 0).unwrap();
            world.recv(&mut w, 0, 1).unwrap();
            world.recv(&mut b, 0, 2).unwrap();
            world.recv(&mut l, 0, 3).unwrap();
            world.recv(&mut b[..column.packed_size()], 0, 4).unwrap();
            world.recv(&mut b, 0, 5).unwrap();
            world.recv(&mut b[..64], 0, 6).unwrap();
        }
        world.barrier().unwrap();
        mpi.counters()
    };
    let totals = |out: Vec<Counters>| {
        let sum = |f: fn(&Counters) -> u64| out.iter().map(f).sum::<u64>();
        (
            sum(|c| c.rndv_sent),
            sum(|c| c.rndv_pulled),
            sum(|c| c.rndv_chunks_sent),
        )
    };

    let cfg = MpiConfig::device_defaults();
    let (sent, pulled, chunks) = totals(run_devices(ShmDevice::fabric(2), cfg, workout));
    assert_eq!((sent, pulled), (LENDABLE + STAGED, LENDABLE), "plain shm");
    assert_eq!(
        chunks, STAGED,
        "one chunk per staged send at shm's chunk size"
    );

    let wrapped = ShmDevice::fabric(2)
        .into_iter()
        .map(|dev| FaultyDevice::new(dev, FaultConfig::lossless(0)))
        .collect();
    let (sent, pulled, chunks) = totals(run_devices(wrapped, cfg, workout));
    assert_eq!((sent, pulled), (LENDABLE + STAGED, 0), "under a wrapper");
    assert_eq!(chunks, LENDABLE + STAGED);
}
