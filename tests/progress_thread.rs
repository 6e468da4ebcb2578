//! Background progress thread: multi-hundred-rank smoke coverage on the
//! real transports, proof that nonblocking transfers complete while the
//! application computes (the overlap the thread exists for), the config
//! override back to caller-driven progress, a seeded-fault concurrency
//! stress asserting the exactly-once counter invariants survive frames
//! being handled off-thread, and the drain-role hand-off between several
//! callers blocked on one rank.

use std::sync::Arc;

use lmpi::{
    run_devices, run_real_tcp, run_threads, FaultConfig, FaultRates, FaultyDevice, Mpi, MpiConfig,
    MpiError, ReduceOp, RelConfig, ReliableDevice, ShmDevice,
};

/// One light round of traffic proving the rank is wired into the mesh:
/// ring sendrecv with both neighbours plus a world allreduce.
fn ring_workout(mpi: &Mpi) -> u64 {
    let world = mpi.world();
    let me = world.rank();
    let n = world.size();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mut got = [0u64];
    world
        .sendrecv(&[me as u64 + 1], right, 3, &mut got, left, 3)
        .unwrap();
    let expect_left = left as u64 + 1;
    assert_eq!(got[0], expect_left, "rank {me} ring neighbour payload");
    world.allreduce(&[1u64], ReduceOp::Sum).unwrap()[0]
}

/// Multi-hundred ranks on shm: 300 OS threads plus 300 progress threads in
/// one process, all parked on condvars rather than spinning.
#[test]
fn shm_three_hundred_ranks_smoke() {
    const N: usize = 300;
    let sums = run_threads(N, |mpi| {
        assert!(
            mpi.has_progress_thread(),
            "shm supports background progress"
        );
        let s = ring_workout(&mpi);
        let c = mpi.counters();
        assert!(
            c.wires_handled > 0,
            "frames must be handled, by the blocked caller or the progress thread"
        );
        s
    });
    assert_eq!(sums, vec![N as u64; N]);
}

/// Multi-hundred ranks over real TCP: a full mesh holds `2 n (n - 1)`
/// descriptors in one process (130 560 at 256 ranks, 1 104 at 24), so back
/// off to smaller meshes when the fd limit is tight (CI raises `ulimit -n`;
/// developer machines may not, and 8 ranks fit the common 1024). A mesh
/// that cannot be set up fails as a whole, with a typed error, and leaves
/// no thread or socket behind to starve the next attempt.
#[test]
fn real_tcp_many_ranks_smoke() {
    let mut last_err: Option<MpiError> = None;
    for &n in &[256usize, 96, 24, 8] {
        match run_real_tcp(n, MpiConfig::device_defaults(), |mpi| {
            assert!(
                mpi.has_progress_thread(),
                "real TCP supports background progress"
            );
            ring_workout(&mpi)
        }) {
            Ok(sums) => {
                assert_eq!(sums, vec![n as u64; n]);
                return;
            }
            // Mesh setup can exhaust fds at large n; try the next size.
            Err(e) => last_err = Some(e),
        }
    }
    panic!("even the smallest TCP mesh failed to set up: {last_err:?}");
}

/// The overlap proof: rank 0 posts a rendezvous-sized `isend` and then
/// only computes — not a single MPI call — while the progress thread
/// streams the chunk pipeline. When it finally looks, the transfer has
/// already finished. Without the thread, zero protocol work could have
/// happened during the compute phase and the first `test` could not
/// observe a completed chunked rendezvous.
#[test]
fn isend_completes_during_pure_compute() {
    run_threads(2, |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let big: Vec<u32> = (0..1 << 20).collect();
            world.barrier().unwrap(); // receiver's irecv is posted
            let mut req = world.isend(&big, 1, 7).unwrap();
            // Pure compute: generous next to shm transfer time, so the
            // background pipeline has long since drained when we look.
            std::thread::sleep(std::time::Duration::from_millis(500));
            let st = req
                .test()
                .unwrap()
                .expect("4 MiB isend should have completed in the background");
            assert_eq!(st.len, (1usize << 20) * 4);
        } else {
            let mut buf = vec![0u32; 1 << 20];
            let req = world.irecv(&mut buf, 0, 7).unwrap();
            world.barrier().unwrap();
            let st = req.wait().unwrap();
            assert_eq!(st.len, (1usize << 20) * 4);
            assert!(
                buf.iter().enumerate().all(|(i, &v)| v == i as u32),
                "rendezvous payload corrupted"
            );
        }
        let c = mpi.counters();
        if world.rank() == 0 {
            // The poster was asleep, so the thread did the work.
            assert!(c.progress_frames > 0, "progress thread handled the frames");
        } else {
            // The receiver never left the library: it may have drained
            // every frame itself.
            assert!(c.wires_handled > 0, "receiver handled the frames");
        }
    });
}

/// Seeded-fault stress with the progress thread enabled: frames now arrive
/// on a different thread from the one posting sends and receives, under
/// drops, duplicates, reordering and delays — and the exactly-once
/// invariant (receiver matches == sender eager + rendezvous sends) must
/// still hold in both directions, with contents intact.
#[test]
fn seeded_faults_with_progress_thread_keep_counters_consistent() {
    let rates = FaultRates {
        drop: 0.04,
        dup: 0.03,
        reorder: 0.05,
        delay: 0.02,
        delay_us: 200,
    };
    let devices: Vec<_> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let faulty = FaultyDevice::new(dev, FaultConfig::uniform(0xBEEF + rank as u64, rates));
            ReliableDevice::new(faulty, RelConfig::default())
        })
        .collect();
    // Pin the threshold so the mix exercises both eager and rendezvous.
    let cfg = MpiConfig::device_defaults().with_eager_threshold(512);
    let lens: Arc<Vec<usize>> = Arc::new((0..60).map(|i| 1 + i * 97 % 4000).collect());
    let lens2 = Arc::clone(&lens);
    let results = run_devices(devices, cfg, move |mpi: Mpi| {
        assert!(
            mpi.has_progress_thread(),
            "reliable+faulty over shm still supports background progress"
        );
        let world = mpi.world();
        if world.rank() == 0 {
            for (i, &len) in lens2.iter().enumerate() {
                let payload: Vec<u8> = (0..len).map(|j| (i.wrapping_mul(31) ^ j) as u8).collect();
                world.send(&payload, 1, i as u32).unwrap();
                let mut ack = [0u32];
                world.recv(&mut ack, 1, 900).unwrap();
                assert_eq!(ack[0], i as u32, "reply {i} corrupted");
            }
        } else {
            for (i, &len) in lens2.iter().enumerate() {
                let mut buf = vec![0u8; len];
                world.recv(&mut buf, 0, i as u32).unwrap();
                assert!(
                    buf.iter()
                        .enumerate()
                        .all(|(j, &b)| b == (i.wrapping_mul(31) ^ j) as u8),
                    "request {i} corrupted"
                );
                world.send(&[i as u32], 0, 900).unwrap();
            }
        }
        mpi.counters()
    });

    let n = lens.len() as u64;
    let sent_by = |r: usize| results[r].eager_sent + results[r].rndv_sent;
    assert_eq!(sent_by(0), n, "rank 0 sends");
    assert_eq!(sent_by(1), n, "rank 1 replies");
    assert_eq!(results[1].matches, sent_by(0), "0->1 exactly-once");
    assert_eq!(results[0].matches, sent_by(1), "1->0 exactly-once");
    for (rank, c) in results.iter().enumerate() {
        assert!(
            c.wires_handled >= c.matches,
            "rank {rank}: every match was delivered by a handled frame \
             ({} frames, {} matches)",
            c.wires_handled,
            c.matches
        );
    }
}

/// Callers per rank in [`many_callers_share_one_rank`].
const CALLERS: u32 = 4;

/// Every caller thread of rank 0 plays tagged ping-pong with its opposite
/// number on rank 1. Whichever caller holds the drain role handles every
/// caller's frames, so each round trip crosses the hand-off (role release,
/// wait-slot wake, role take) on both ranks. Returns per rank the counters
/// and the slowest round trip seen, in microseconds.
fn many_callers_workout<D: lmpi::Device + 'static>(
    devices: Vec<D>,
    round_trips: u32,
) -> Vec<(lmpi::Counters, u128)> {
    run_devices(devices, MpiConfig::device_defaults(), move |mpi: Mpi| {
        let slowest = std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|tag| {
                    let world = mpi.world();
                    s.spawn(move || {
                        let mut slowest = 0;
                        let mut buf = [0u32; 2];
                        for i in 0..round_trips {
                            if world.rank() == 0 {
                                let t0 = std::time::Instant::now();
                                world.send(&[i, tag], 1, tag).unwrap();
                                world.recv(&mut buf, 1, tag).unwrap();
                                slowest = slowest.max(t0.elapsed().as_micros());
                                assert_eq!(buf, [i + 1, tag], "caller {tag} reply {i}");
                            } else {
                                world.recv(&mut buf, 0, tag).unwrap();
                                assert_eq!(buf, [i, tag], "caller {tag} request {i}");
                                world.send(&[i + 1, tag], 0, tag).unwrap();
                            }
                        }
                        slowest
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).max()
        });
        (mpi.counters(), slowest.unwrap_or(0))
    })
}

/// The hand-off nobody else tests: several threads blocked inside one rank
/// at once. One of them drains for all; the others park and must be woken
/// for their own completions and for the role — never by a timeout.
#[test]
fn many_callers_share_one_rank() {
    const ROUND_TRIPS: u32 = 3000;
    let frames = u64::from(CALLERS * ROUND_TRIPS);
    let results = many_callers_workout(ShmDevice::fabric(2), ROUND_TRIPS);
    for (rank, (c, slowest_us)) in results.iter().enumerate() {
        assert_eq!(c.eager_sent, frames, "rank {rank} frames sent");
        assert_eq!(c.wires_handled, frames, "rank {rank} frames handled");
        assert!(
            c.progress_frames < c.wires_handled,
            "rank {rank}: blocked callers must drain ({} of {} frames went to the thread)",
            c.progress_frames,
            c.wires_handled
        );
        // A lost wake-up would show as a round trip of a whole park slice
        // (2 ms); on a loaded machine the scheduler alone can exceed that,
        // so this is reported, not asserted.
        eprintln!("many_callers rank {rank}: slowest round trip {slowest_us} us");
    }

    // The same under drops, duplicates, reordering and delays, so the
    // retransmit/heartbeat pumps run from whichever caller holds the role.
    const LOSSY_ROUND_TRIPS: u32 = 100;
    let rates = FaultRates {
        drop: 0.04,
        dup: 0.03,
        reorder: 0.05,
        delay: 0.02,
        delay_us: 200,
    };
    let devices: Vec<_> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let faulty = FaultyDevice::new(dev, FaultConfig::uniform(0xCA11 + rank as u64, rates));
            ReliableDevice::new(faulty, RelConfig::default())
        })
        .collect();
    let frames = u64::from(CALLERS * LOSSY_ROUND_TRIPS);
    for (rank, (c, _)) in many_callers_workout(devices, LOSSY_ROUND_TRIPS)
        .iter()
        .enumerate()
    {
        assert_eq!(c.eager_sent, frames, "rank {rank} sends under faults");
        assert_eq!(c.matches, frames, "rank {rank} exactly-once under faults");
        assert!(c.wires_handled >= c.matches, "rank {rank} frames handled");
    }
}
