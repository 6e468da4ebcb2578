//! The typed (derived-datatype) transfer path against the copying
//! pack-then-send reference: `send_typed`/`recv_typed` must deliver
//! byte-identical memory on every substrate — shm threads, the simulated
//! Meiko, the simulated ATM/TCP cluster, and a seeded-loss
//! `Reliable(Faulty(Shm))` stack — for vector, indexed, and nested struct
//! layouts whose packed bytes straddle the rendezvous chunk boundary.
//!
//! Two protocol-level guarantees ride along: the eager typed path stages
//! zero intermediate heap allocations in steady state (`pool_grows` stays
//! flat), and the chunked rendezvous path really does scatter each chunk
//! at-offset (`rndv_chunks_sent` counts the chunks while the bytes land in
//! a non-contiguous layout).

use lmpi::{
    run_cluster, run_devices, run_meiko, run_threads_with_config, ClusterNet, ClusterTransport,
    DataType, FaultConfig, FaultRates, FaultyDevice, MeikoVariant, Mpi, MpiConfig, MpiError,
    RelConfig, ReliableDevice, ShmDevice,
};
use lmpi_sim::{for_each_case, SplitMix64};

/// Forced eager/rendezvous crossover (the paper's 180-byte Meiko figure),
/// identical on every substrate so each layout exercises the same protocol
/// leg everywhere.
const EAGER: usize = 180;
/// Forced chunk size, small enough that the multi-chunk layouts stay cheap
/// on the lossy leg while still splitting runs mid-stream.
const CHUNK: usize = 1000;
/// Pipeline depth smaller than the chunk count of the large layouts, so
/// the window has to revolve while chunks scatter.
const WINDOW: u32 = 3;

fn cfg() -> MpiConfig {
    MpiConfig::device_defaults()
        .with_eager_threshold(EAGER)
        .with_rndv_chunk(CHUNK)
        .with_rndv_window(WINDOW)
}

/// Deterministic memory image: a function of (extent, index) so a chunk
/// scattered at the wrong offset cannot reproduce the right bytes.
fn pattern(extent: usize, i: usize) -> u8 {
    (i as u8)
        .wrapping_mul(37)
        .wrapping_add((extent as u8).wrapping_mul(11))
        .wrapping_add((i >> 8) as u8)
}

/// The layout grid. Every protocol leg is represented: eager (packed size
/// under the crossover), one-chunk rendezvous (between crossover and
/// one chunk), and multi-chunk rendezvous where the 1000-byte chunk
/// boundary lands *inside* a run (vector runs are 16 bytes, 1000 % 16 != 0;
/// the struct element packs 7 bytes, 1000 % 7 != 0), so scatter-at-offset
/// must split runs correctly.
fn layouts() -> Vec<(&'static str, DataType)> {
    vec![
        // 8 blocks of 2 f64-sized elements, stride 3: packed 128 (< EAGER).
        ("vector_eager", DataType::base(8).vector(8, 2, 3)),
        // packed 960: rendezvous, but a one-chunk stream (<= CHUNK).
        ("vector_rndv_single", DataType::base(8).vector(60, 2, 3)),
        // packed 5120 -> 6 chunks; 16-byte runs split mid-run at 1000.
        ("vector_chunked", DataType::base(8).vector(320, 2, 3)),
        // Three ragged blocks, packed 3000 -> 3 chunks with boundaries
        // inside the second and third block.
        (
            "indexed_chunked",
            DataType::Indexed {
                blocks: vec![(0, 125), (130, 250), (400, 375)],
                inner: Box::new(DataType::base(4)),
            },
        ),
        // A struct element (3-byte field, gap, 4-byte field: packs 7,
        // extent 8) swept by a strided vector: packed 3500 -> 4 chunks,
        // and no chunk boundary coincides with an element edge.
        (
            "struct_nested_chunked",
            DataType::Struct {
                fields: vec![(0, DataType::base(3)), (4, DataType::base(4))],
            }
            .vector(500, 1, 2),
        ),
        // Degenerate: a contiguous type flattens to one run and must still
        // round-trip through the typed path.
        ("contiguous", DataType::base(1).contiguous(2500)),
    ]
}

/// What rank 1 should hold after a typed receive into a zeroed buffer:
/// pack the deterministic image, scatter it back into zeros.
fn reference_image(t: &DataType) -> Vec<u8> {
    let extent = t.extent().unwrap();
    let mem: Vec<u8> = (0..extent).map(|i| pattern(extent, i)).collect();
    let packed = t.pack(&mem).unwrap();
    let mut out = vec![0u8; extent];
    t.unpack(&packed, &mut out).unwrap();
    out
}

/// Per layout: its name and the images received typed and packed.
type GridImages = Vec<(String, Vec<u8>, Vec<u8>)>;

/// Rank 0 sends every grid layout twice — once typed (gather-on-pack /
/// scatter-on-chunk) and once through the copying packed reference — and
/// rank 1 returns both received images per layout. An ack per layout keeps
/// the grid ordered. Rank 0 returns an empty vec.
fn grid_workout(mpi: Mpi) -> GridImages {
    let world = mpi.world();
    let mut out = Vec::new();
    for (i, (name, t)) in layouts().into_iter().enumerate() {
        let ct = t.commit().unwrap();
        let extent = ct.extent();
        let packed_size = ct.packed_size();
        let tag = 3 * i as u32;
        if world.rank() == 0 {
            let mem: Vec<u8> = (0..extent).map(|j| pattern(extent, j)).collect();
            world.send_typed(&ct, &mem, 1, tag).unwrap();
            world.send_packed(&t, &mem, 1, tag + 1).unwrap();
            let mut ack = [0u8];
            world.recv(&mut ack, 1, tag + 2).unwrap();
            assert_eq!(ack[0], 1, "{name}: receiver failed verification");
        } else {
            let mut typed = vec![0u8; extent];
            let st = world.recv_typed(&ct, &mut typed, 0, tag).unwrap();
            assert_eq!(st.source, 0, "{name}");
            assert_eq!(st.tag, tag, "{name}");
            assert_eq!(st.len, packed_size, "{name}: wrong packed length");
            let mut packed = vec![0u8; extent];
            let st = world.recv_packed(&t, &mut packed, 0, tag + 1).unwrap();
            assert_eq!(st.len, packed_size, "{name}: reference path length");
            world.send(&[1u8], 0, tag + 2).unwrap();
            out.push((name.to_string(), typed, packed));
        }
    }
    // The chunked layouts must actually have exercised the pipelined
    // rendezvous path: the typed sends stream on every substrate, the
    // packed ones too except over plain shm, which lends them.
    if world.rank() == 0 {
        assert!(
            mpi.counters().rndv_chunks_sent > 0,
            "grid never engaged chunked rendezvous"
        );
    }
    out
}

fn check_grid(results: Vec<GridImages>) {
    let received = &results[1];
    assert_eq!(received.len(), layouts().len());
    for ((name, t), (rname, typed, packed)) in layouts().iter().zip(received) {
        assert_eq!(name, rname);
        assert_eq!(
            typed, packed,
            "{name}: typed receive differs from pack+send/recv+unpack"
        );
        let want = reference_image(t);
        assert_eq!(
            typed, &want,
            "{name}: typed receive differs from local reference"
        );
    }
}

#[test]
fn typed_matches_packed_on_shm() {
    // Plain shm: each typed send streams, its packed reference is pulled
    // out of the sender's buffer in one piece.
    check_grid(run_threads_with_config(2, cfg(), grid_workout));
    // Under a wrapper device nothing is lent: both stream.
    let streaming = ShmDevice::fabric(2)
        .into_iter()
        .map(|dev| FaultyDevice::new(dev, FaultConfig::lossless(0)))
        .collect();
    check_grid(run_devices(streaming, cfg(), grid_workout));
}

#[test]
fn typed_matches_packed_on_meiko() {
    check_grid(run_meiko(2, MeikoVariant::LowLatency, cfg(), grid_workout));
}

#[test]
fn typed_matches_packed_on_sim_cluster_tcp() {
    check_grid(run_cluster(
        2,
        ClusterNet::Atm,
        ClusterTransport::Tcp,
        cfg(),
        grid_workout,
    ));
}

/// Seeded loss under the ack/retransmit layer: chunks get dropped,
/// duplicated, and reordered in flight, and the scatter-at-offset path
/// must still assemble every layout byte-exactly.
#[test]
fn typed_matches_packed_under_seeded_loss() {
    check_grid(run_devices(lossy_stacks(0xC0FFEE), cfg(), grid_workout));
}

type LossyStack = ReliableDevice<FaultyDevice<ShmDevice>>;

fn lossy_stacks(base_seed: u64) -> Vec<LossyStack> {
    let rates = FaultRates {
        drop: 0.02,
        dup: 0.01,
        reorder: 0.02,
        delay: 0.0,
        delay_us: 0,
    };
    ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let faulty =
                FaultyDevice::new(dev, FaultConfig::uniform(base_seed ^ rank as u64, rates));
            ReliableDevice::new(faulty, RelConfig::default())
        })
        .collect()
}

// ----------------------------------------------------------------------
// Nonblocking variants
// ----------------------------------------------------------------------

/// Both ranks post irecv_typed first, then isend_typed, then wait — the
/// classic head-to-head exchange that deadlocks if the nonblocking typed
/// path ever turns synchronous.
#[test]
fn nonblocking_typed_exchange() {
    let t = DataType::base(8).vector(320, 2, 3); // 6 chunks each way
    let extent = t.extent().unwrap();
    let out = run_threads_with_config(2, cfg(), move |mpi| {
        let world = mpi.world();
        let peer = 1 - world.rank();
        let ct = t.commit().unwrap();
        let mem: Vec<u8> = (0..extent).map(|i| pattern(extent, i)).collect();
        let mut got = vec![0u8; extent];
        let r = world.irecv_typed(&ct, &mut got, peer, 7).unwrap();
        let s = world.isend_typed(&ct, &mem, peer, 7).unwrap();
        let st = r.wait().unwrap();
        s.wait().unwrap();
        assert_eq!(st.len, ct.packed_size());
        got
    });
    let t = &layouts()[2].1; // same vector_chunked layout
    let want = reference_image(t);
    assert_eq!(out[0], want);
    assert_eq!(out[1], want);
}

// ----------------------------------------------------------------------
// Zero intermediate staging on the eager typed path
// ----------------------------------------------------------------------

/// The acceptance check for gather-on-pack: after warmup, a steady-state
/// eager typed ping-pong performs **zero** fresh pool allocations — every
/// send reclaims the staging block the previous send used. The ack
/// round-trip guarantees the receiver has dropped its handle on the frame
/// before the next gather, so the pool's buffer is unique again.
#[test]
fn eager_typed_steady_state_allocates_nothing() {
    let t = DataType::base(8).vector(8, 2, 3); // packed 128 < EAGER
    let extent = t.extent().unwrap();
    let grows = run_threads_with_config(2, cfg(), move |mpi| {
        let world = mpi.world();
        let ct = t.commit().unwrap();
        let mem: Vec<u8> = (0..extent).map(|i| pattern(extent, i)).collect();
        let mut got = vec![0u8; extent];
        let mut round = |tag: u32| {
            if world.rank() == 0 {
                world.send_typed(&ct, &mem, 1, tag).unwrap();
                let mut ack = [0u8];
                world.recv(&mut ack, 1, tag).unwrap();
            } else {
                world.recv_typed(&ct, &mut got, 0, tag).unwrap();
                world.send(&[1u8], 0, tag).unwrap();
            }
        };
        for tag in 0..8 {
            round(tag); // warmup: first gathers may grow the pool
        }
        let before = mpi.counters().pool_grows;
        for tag in 8..72 {
            round(tag);
        }
        let after = mpi.counters().pool_grows;
        (before, after)
    });
    for (rank, (before, after)) in grows.iter().enumerate() {
        assert!(*before >= 1, "rank {rank}: pool never allocated at all");
        assert_eq!(
            before, after,
            "rank {rank}: eager typed sends allocated in steady state"
        );
    }
}

// ----------------------------------------------------------------------
// Error surface of the typed path
// ----------------------------------------------------------------------

/// Receiving into a layout whose runs alias the same memory is rejected
/// up front (the scatter result would depend on chunk arrival order);
/// sending from one is legal — it just reads the bytes twice.
#[test]
fn overlapping_layout_rejected_on_recv_allowed_on_send() {
    let overlapping = DataType::Indexed {
        blocks: vec![(0, 4), (2, 4)],
        inner: Box::new(DataType::base(1)),
    };
    let out = run_threads_with_config(2, MpiConfig::device_defaults(), move |mpi| {
        let world = mpi.world();
        let ct = overlapping.commit().unwrap();
        if world.rank() == 0 {
            let mem = *b"abcdef";
            world.send_typed(&ct, &mem, 1, 1).unwrap();
            true
        } else {
            let mut mem = [0u8; 6];
            let err = world.recv_typed(&ct, &mut mem, 0, 1).unwrap_err();
            assert!(matches!(err, MpiError::Unsupported { .. }), "got {err:?}");
            // The message is still deliverable contiguously.
            let mut packed = [0u8; 8];
            let st = world.recv(&mut packed, 0, 1).unwrap();
            st.len == 8 && &packed == b"abcdcdef"
        }
    });
    assert_eq!(out, vec![true, true]);
}

/// A memory slice shorter than the layout's extent is a typed truncation
/// error on both ends, before any traffic moves.
#[test]
fn short_memory_is_truncation_error() {
    let t = DataType::base(8).vector(8, 2, 3);
    let extent = t.extent().unwrap();
    run_threads_with_config(2, MpiConfig::device_defaults(), move |mpi| {
        let world = mpi.world();
        let ct = t.commit().unwrap();
        let mem = vec![0u8; extent - 1];
        let mut mem_mut = vec![0u8; extent - 1];
        let send_err = world
            .send_typed(&ct, &mem, 1 - world.rank(), 1)
            .unwrap_err();
        let recv_err = world
            .recv_typed(&ct, &mut mem_mut, 1 - world.rank(), 1)
            .unwrap_err();
        for err in [send_err, recv_err] {
            assert!(
                matches!(err, MpiError::Truncated { buffer_len, .. } if buffer_len == extent - 1),
                "got {err:?}"
            );
        }
    });
}

/// A contiguous sender longer than the layout's packed size truncates the
/// typed receive exactly like an oversized contiguous receive; a *shorter*
/// sender scatters only the prefix and reports the short length — for both
/// `recv_typed` and the `recv_packed` reference path (the zero-fill bug
/// this PR fixes).
#[test]
fn oversized_truncates_and_short_scatters_prefix() {
    let t = DataType::base(1).vector(3, 2, 5); // runs [0,2) [5,7) [10,12), packs 6
    let out = run_threads_with_config(2, MpiConfig::device_defaults(), move |mpi| {
        let world = mpi.world();
        let ct = t.commit().unwrap();
        if world.rank() == 0 {
            world.send(b"toolongmsg".as_slice(), 1, 1).unwrap(); // 10 > 6
            world.send(b"abc".as_slice(), 1, 2).unwrap(); // 3 < 6
            world.send(b"xyz".as_slice(), 1, 3).unwrap();
            vec![]
        } else {
            let mut mem = [0x55u8; 12];
            let err = world.recv_typed(&ct, &mut mem, 0, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    MpiError::Truncated {
                        message_len: 10,
                        ..
                    }
                ),
                "got {err:?}"
            );
            let mut mem = [0x55u8; 12];
            let st = world.recv_typed(&ct, &mut mem, 0, 2).unwrap();
            assert_eq!(st.len, 3);
            let typed = mem.to_vec();
            let mut mem = [0x55u8; 12];
            let st = world.recv_packed(&t, &mut mem, 0, 3).unwrap();
            assert_eq!(st.len, 3);
            vec![typed, mem.to_vec()]
        }
    });
    // Prefix "abc": 2 bytes into run 0, 1 byte into run 1; everything
    // else — holes *and* the unreached tail runs — stays untouched.
    assert_eq!(
        out[1][0],
        b"ab\x55\x55\x55c\x55\x55\x55\x55\x55\x55".to_vec()
    );
    assert_eq!(
        out[1][1],
        b"xy\x55\x55\x55z\x55\x55\x55\x55\x55\x55".to_vec()
    );
}

// ----------------------------------------------------------------------
// Property: typed == packed for arbitrary strided layouts, everywhere
// ----------------------------------------------------------------------

/// A random-but-valid strided layout family: element size, block count,
/// block length, and hole width all vary, spanning eager, single-frame
/// rendezvous, and multi-chunk packed sizes.
fn gen_layout(rng: &mut SplitMix64) -> DataType {
    let (elem, count) = (rng.range(1..9), rng.range(1..160));
    let (blocklen, hole) = (rng.range(1..5), rng.range(0..4));
    DataType::base(elem).vector(count, blocklen, blocklen + hole)
}

fn typed_vs_packed_once(mpi: Mpi, t: &DataType, seed: u64) -> Option<(Vec<u8>, Vec<u8>)> {
    let world = mpi.world();
    let ct = t.commit().unwrap();
    let extent = ct.extent();
    let fill = |i: usize| pattern(extent, i).wrapping_add(seed as u8);
    if world.rank() == 0 {
        let mem: Vec<u8> = (0..extent).map(fill).collect();
        world.send_typed(&ct, &mem, 1, 1).unwrap();
        world.send_packed(t, &mem, 1, 2).unwrap();
        let mut ack = [0u8];
        world.recv(&mut ack, 1, 3).unwrap();
        None
    } else {
        let mut typed = vec![0u8; extent];
        let st = world.recv_typed(&ct, &mut typed, 0, 1).unwrap();
        assert_eq!(st.len, ct.packed_size());
        let mut packed = vec![0u8; extent];
        world.recv_packed(t, &mut packed, 0, 2).unwrap();
        world.send(&[1u8], 0, 3).unwrap();
        Some((typed, packed))
    }
}

/// The typed path is byte-identical to pack+send/recv+unpack on shm,
/// the simulated Meiko, and the simulated ATM/TCP cluster, for
/// arbitrary strided layouts.
#[test]
fn typed_equals_packed_across_substrates() {
    for_each_case(12, |rng| {
        let t = gen_layout(rng);
        let seed = rng.next_u64();
        let shm = {
            let t = t.clone();
            run_threads_with_config(2, cfg(), move |mpi| typed_vs_packed_once(mpi, &t, seed))
        };
        let meiko = {
            let t = t.clone();
            run_meiko(2, MeikoVariant::LowLatency, cfg(), move |mpi| {
                typed_vs_packed_once(mpi, &t, seed)
            })
        };
        let tcp = {
            let t = t.clone();
            run_cluster(
                2,
                ClusterNet::Atm,
                ClusterTransport::Tcp,
                cfg(),
                move |mpi| typed_vs_packed_once(mpi, &t, seed),
            )
        };
        for (substrate, out) in [("shm", shm), ("meiko", meiko), ("sim-tcp", tcp)] {
            let (typed, packed) = out[1].clone().unwrap();
            assert_eq!(&typed, &packed, "{}: typed != packed", substrate);
        }
    });
}

/// Same contract under seeded drop/dup/reorder beneath the
/// ack/retransmit layer: loss recovery must not corrupt the
/// scatter-at-offset bookkeeping.
#[test]
fn typed_equals_packed_under_loss() {
    for_each_case(6, |rng| {
        let t = gen_layout(rng);
        let seed = rng.next_u64();
        let out = {
            let t = t.clone();
            run_devices(lossy_stacks(0xC0FFEE ^ seed), cfg(), move |mpi| {
                typed_vs_packed_once(mpi, &t, seed)
            })
        };
        let (typed, packed) = out[1].clone().unwrap();
        assert_eq!(&typed, &packed, "lossy: typed != packed");
    });
}
