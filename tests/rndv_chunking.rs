//! Boundary matrix for the pipelined chunked rendezvous path: every size
//! that sits on a protocol edge — empty, single byte, either side of the
//! eager/rendezvous crossover, and either side of an exact chunk multiple —
//! must arrive byte-identical on every substrate, including a lossy UDP
//! mesh under the selective-repeat reliability layer.
//!
//! A seeded property then pins the semantic contract of chunking: a
//! many-chunk stream delivers exactly the bytes a one-chunk stream does,
//! for arbitrary sizes and payloads.
//!
//! Plain shm no longer streams a contiguous payload — the send lends its
//! buffer and the receiver pulls it (`tests/lend.rs`) — so the shm stream
//! cases run over a lossless `FaultyDevice` on the shm fabric: a wrapper
//! does not lend, and the chunk stream under it is the one every other
//! substrate uses.

use lmpi::{
    run_cluster, run_devices, run_meiko, run_real_tcp, run_real_udp, ClusterNet, ClusterTransport,
    FaultConfig, FaultRates, FaultyDevice, MeikoVariant, Mpi, MpiConfig, RelConfig, ReliableDevice,
    ShmDevice, UdpDevice,
};
use lmpi_sim::for_each_case;

/// Forced eager/rendezvous crossover for the matrix (same on every
/// substrate so the boundary sizes mean the same thing everywhere).
const EAGER: usize = 180;
/// Forced chunk size, small enough that the multi-chunk sizes stay cheap
/// even on the lossy leg.
const CHUNK: usize = 1000;
/// Pipeline depth: deliberately smaller than the chunk count of the large
/// sizes so the window actually has to revolve.
const WINDOW: u32 = 3;

fn cfg() -> MpiConfig {
    MpiConfig::device_defaults()
        .with_eager_threshold(EAGER)
        .with_rndv_chunk(CHUNK)
        .with_rndv_window(WINDOW)
}

/// Every protocol-edge size: {0, 1, crossover−1, crossover, crossover+1,
/// exact chunk multiple, chunk multiple+1}.
const SIZES: [usize; 7] = [0, 1, EAGER - 1, EAGER, EAGER + 1, 4 * CHUNK, 4 * CHUNK + 1];

/// Deterministic payload: a function of (size, index) so a misplaced or
/// missing chunk cannot produce the right bytes.
fn pattern(size: usize, i: usize) -> u8 {
    (i as u8)
        .wrapping_mul(31)
        .wrapping_add((size as u8).wrapping_mul(7))
        .wrapping_add((i >> 8) as u8)
}

/// Rank 0 sends each boundary size to rank 1 with a distinct tag; rank 1
/// verifies length, source, tag and every byte, then echoes an ack so the
/// next size cannot overtake. Returns the number of verified transfers.
fn boundary_workout(mpi: Mpi) -> usize {
    let world = mpi.world();
    let mut verified = 0;
    for (tag, &size) in SIZES.iter().enumerate() {
        let tag = tag as u32;
        if world.rank() == 0 {
            let data: Vec<u8> = (0..size).map(|i| pattern(size, i)).collect();
            world.send(&data, 1, tag).unwrap();
            let mut ack = [0u8];
            world.recv(&mut ack, 1, 100 + tag).unwrap();
            assert_eq!(ack[0], 1, "size {size}: receiver failed verification");
        } else {
            let mut buf = vec![0xAAu8; size];
            let st = world.recv(&mut buf, 0, tag).unwrap();
            assert_eq!(st.source, 0, "size {size}");
            assert_eq!(st.tag, tag, "size {size}");
            assert_eq!(st.len, size, "size {size}: truncated or padded");
            let ok = buf.iter().enumerate().all(|(i, &b)| b == pattern(size, i));
            assert!(ok, "size {size}: payload corrupted in flight");
            world.send(&[1u8], 0, 100 + tag).unwrap();
        }
        verified += 1;
    }
    verified
}

/// A 2-rank shm fabric that streams its rendezvous data: each device under
/// a fault injector with every rate at zero.
fn streaming_shm() -> Vec<FaultyDevice<ShmDevice>> {
    ShmDevice::fabric(2)
        .into_iter()
        .map(|dev| FaultyDevice::new(dev, FaultConfig::lossless(0)))
        .collect()
}

#[test]
fn boundary_sizes_on_shm() {
    let out = run_devices(streaming_shm(), cfg(), boundary_workout);
    assert_eq!(out, vec![SIZES.len(); 2]);
}

#[test]
fn boundary_sizes_on_meiko() {
    let out = run_meiko(2, MeikoVariant::LowLatency, cfg(), boundary_workout);
    assert_eq!(out, vec![SIZES.len(); 2]);
}

#[test]
fn boundary_sizes_on_sim_cluster_tcp() {
    let out = run_cluster(
        2,
        ClusterNet::Atm,
        ClusterTransport::Tcp,
        cfg(),
        boundary_workout,
    );
    assert_eq!(out, vec![SIZES.len(); 2]);
}

#[test]
fn boundary_sizes_on_real_tcp() {
    let out = run_real_tcp(2, cfg(), boundary_workout).expect("tcp mesh");
    assert_eq!(out, vec![SIZES.len(); 2]);
}

#[test]
fn boundary_sizes_on_real_udp() {
    let out = run_real_udp(2, cfg(), boundary_workout).expect("udp mesh");
    assert_eq!(out, vec![SIZES.len(); 2]);
}

/// The lossy leg: real UDP loopback with seeded faults injected between
/// the reliability layer and the socket, so selective repeat has real
/// holes to fill while chunks stream.
#[test]
fn boundary_sizes_on_lossy_udp_selective_repeat() {
    let nprocs = 2;
    let rendezvous = std::sync::Arc::new(UdpDevice::rendezvous(nprocs));
    // `connect` blocks on a barrier until every rank has published its
    // address, so each rank must connect from its own thread.
    let handles: Vec<_> = (0..nprocs)
        .map(|rank| {
            let rendezvous = rendezvous.clone();
            std::thread::spawn(move || {
                UdpDevice::connect(rank, nprocs, &rendezvous).expect("bind loopback")
            })
        })
        .collect();
    let rates = FaultRates {
        drop: 0.02,
        dup: 0.01,
        reorder: 0.02,
        delay: 0.0,
        delay_us: 0,
    };
    let devices: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(rank, h)| {
            let udp = h.join().expect("connect thread");
            let faulty =
                FaultyDevice::new(udp, FaultConfig::uniform(0xC0FFEE ^ rank as u64, rates));
            ReliableDevice::new(faulty, RelConfig::default())
        })
        .collect();
    let out = run_devices(devices, cfg(), boundary_workout);
    assert_eq!(out, vec![SIZES.len(); 2]);
}

/// One chunked transfer of `size` bytes over streaming shm; returns the
/// received bytes and the sender's chunk counter.
fn chunked_roundtrip(size: usize, chunk: usize, payload_seed: u8) -> (Vec<u8>, u64) {
    let config = MpiConfig::device_defaults()
        .with_eager_threshold(EAGER)
        .with_rndv_chunk(chunk)
        .with_rndv_window(WINDOW);
    let mut out = run_devices(streaming_shm(), config, move |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let data: Vec<u8> = (0..size)
                .map(|i| pattern(size, i).wrapping_add(payload_seed))
                .collect();
            world.send(&data, 1, 7).unwrap();
            // Sender-side barrier so the counter snapshot is final.
            let mut done = [0u8];
            world.recv(&mut done, 1, 8).unwrap();
            (Vec::new(), mpi.counters().rndv_chunks_sent)
        } else {
            let mut buf = vec![0u8; size];
            let st = world.recv(&mut buf, 0, 7).unwrap();
            assert_eq!(st.len, size);
            world.send(&[1u8], 0, 8).unwrap();
            (buf, 0)
        }
    });
    let (received, _) = out.remove(1);
    let (_, chunks) = out.remove(0);
    (received, chunks)
}

// Each case runs two 2-rank thread fabrics; keep the count modest.
/// A many-chunk stream is byte-identical to a one-chunk stream, and the
/// sender transmits exactly as many data frames as the payload has chunks
/// — one when it fits a single chunk.
#[test]
fn chunked_matches_single_frame() {
    for_each_case(24, |rng| {
        let size = rng.range(EAGER + 1..12_000);
        let chunk = rng.range(64..2_048);
        let payload_seed = rng.next_u64() as u8;
        let (chunked, nchunks) = chunked_roundtrip(size, chunk, payload_seed);
        // A chunk size larger than any message makes a one-chunk stream.
        let (single, nsingle) = chunked_roundtrip(size, usize::MAX / 2, payload_seed);
        assert_eq!(chunked, single, "chunked stream diverged from single-frame");
        assert_eq!(nsingle, 1, "oversized chunk must make one data frame");
        assert_eq!(
            nchunks,
            size.div_ceil(chunk) as u64,
            "wrong chunk count for {}B / {}B",
            size,
            chunk
        );
    });
}
