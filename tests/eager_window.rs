//! A window of eager sends stages into recycled blocks: the sender's
//! staging pool keeps as many blocks as it has envelope slots to one peer,
//! so once it has seen a full window in flight, `Counters::pool_grows`
//! stays flat.
//!
//! Two ranks; each window is 64 × 1 KiB `isend`s from rank 0 into 64
//! `irecv`s rank 1 posted before the window started, then a 1-byte ack
//! back. The warm-up window is the one exception to "pre-posted": rank 1
//! waits until all 64 frames are parked as unexpected messages before it
//! posts, so all 64 blocks are held at once and rank 0's pool reaches the
//! full depth in that window, whatever the thread timing. Every later
//! window reuses each block exactly one window after it was staged; the
//! receiver drops an eager payload under its engine lock before the
//! receive completes, so the block is free by then.
//!
//! The same shape runs over `Reliable(Faulty(Shm))` with seeded loss,
//! where a block also stays held in the retransmit buffer until acked.

use lmpi::{
    run_devices, wait_all, Communicator, Counters, Device, FaultConfig, FaultRates, FaultyDevice,
    Mpi, MpiConfig, RelConfig, ReliableDevice, Request, ShmDevice, SourceSel, Tag, TagSel,
    TransportStats,
};

/// Eager frames per window: the shm device's envelope slots per peer.
const SLOTS: usize = 64;
/// Payload of each eager frame; below the shm eager threshold.
const MSG: usize = 1024;
/// Windows after the warm-up one.
const WINDOWS: u64 = 50;
const TAG_ACK: Tag = 1000;

fn body(window: u64, slot: usize, i: usize) -> u8 {
    (window as u8)
        .wrapping_mul(29)
        .wrapping_add((slot as u8).wrapping_mul(7))
        .wrapping_add(i as u8)
}

/// Rank 1's receives for one window, one tag per slot.
fn post<'a>(world: &Communicator, bufs: &'a mut [Vec<u8>]) -> Vec<Request<'a>> {
    bufs.iter_mut()
        .enumerate()
        .map(|(slot, b)| world.irecv(b, 0, slot as Tag))
        .collect::<Result<_, _>>()
        .unwrap()
}

/// One rank's record: its counters after the warm-up window and after
/// each measured window, and its transport statistics at the end.
fn stream(mpi: Mpi) -> (Vec<Counters>, TransportStats) {
    let world = mpi.world();
    assert_eq!(world.size(), 2);
    let mut after = Vec::new();
    if world.rank() == 0 {
        let mut bodies = vec![vec![0u8; MSG]; SLOTS];
        for w in 0..=WINDOWS {
            for (slot, b) in bodies.iter_mut().enumerate() {
                for (i, x) in b.iter_mut().enumerate() {
                    *x = body(w, slot, i);
                }
            }
            let reqs = bodies
                .iter()
                .enumerate()
                .map(|(slot, b)| world.isend(b, 1, slot as Tag))
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            wait_all(reqs).unwrap();
            let mut ack = [0u8];
            world.recv(&mut ack, 1, TAG_ACK).unwrap();
            assert_eq!(ack[0], 1, "window {w}: the receiver saw wrong bytes");
            after.push(mpi.counters());
        }
    } else {
        let mut bufs = vec![vec![0u8; MSG]; SLOTS];
        // Frames from one source arrive in order: once the last tag is
        // parked, the whole warm-up window is.
        world.probe(0, (SLOTS - 1) as Tag).unwrap();
        let mut reqs = post(&world, &mut bufs);
        for w in 0..=WINDOWS {
            wait_all(reqs).unwrap();
            let ok = bufs
                .iter()
                .enumerate()
                .all(|(slot, b)| b.iter().enumerate().all(|(i, &x)| x == body(w, slot, i)));
            assert!(ok, "window {w}: payload corrupted");
            // Post window w + 1 before the ack releases it.
            reqs = if w < WINDOWS {
                post(&world, &mut bufs)
            } else {
                Vec::new()
            };
            world.send(&[1u8], 0, TAG_ACK).unwrap();
            after.push(mpi.counters());
        }
        // Exactly once: nothing is left over for any tag.
        let left = world.iprobe(SourceSel::Any, TagSel::Any).unwrap();
        assert!(left.is_none(), "a message was delivered twice: {left:?}");
    }
    (after, mpi.transport_stats())
}

/// Both ranks' records.
fn run<D: Device + 'static>(devices: Vec<D>) -> Vec<(Vec<Counters>, TransportStats)> {
    let records = run_devices(devices, MpiConfig::device_defaults(), stream);
    let bodies = (WINDOWS + 1) * SLOTS as u64;
    let (sender, sink) = (records[0].0.last().unwrap(), records[1].0.last().unwrap());
    assert_eq!(sender.eager_sent, bodies, "every body went eager");
    assert_eq!(sink.matches, bodies, "every body was delivered once");
    records
}

#[test]
fn a_window_of_eager_sends_allocates_nothing_once_warm() {
    let records = run(ShmDevice::fabric(2));
    let warm = records[0].0[0].pool_grows;
    assert_eq!(
        warm, SLOTS as u64,
        "the warm-up window held every block at once"
    );
    for (rank, (rec, _)) in records.iter().enumerate() {
        let warm = rec[0].pool_grows;
        for (w, c) in rec.iter().enumerate().skip(1) {
            assert_eq!(
                c.pool_grows, warm,
                "rank {rank}, window {w}: staging allocated once warm"
            );
        }
    }
}

#[test]
fn a_lossy_window_recycles_behind_the_retransmit_buffer() {
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig::uniform(0x9001_5EED ^ rank as u64, FaultRates::drop_only(0.02));
            ReliableDevice::new(FaultyDevice::new(dev, cfg), RelConfig::default())
        })
        .collect();
    let records = run(devices);
    let (rec, stats) = &records[0];
    assert!(stats.retransmits > 0, "the seeded loss never struck");
    // A block held past its turn by the retransmit buffer (or by a
    // retransmitted copy still queued at the receiver) costs one grow;
    // all of them together stay within one window's worth.
    let grown = rec[WINDOWS as usize].pool_grows - rec[0].pool_grows;
    assert!(
        grown <= SLOTS as u64,
        "{grown} grows over {WINDOWS} windows after the warm-up"
    );
}
