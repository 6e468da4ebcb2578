//! The lending rendezvous of plain shm: a contiguous send above the eager
//! threshold stages nothing, parks a lease on the caller's buffer, and the
//! receiver copies the payload out once. Two halves:
//!
//! * what it delivers is what the chunk stream delivers (`tests/
//!   rndv_chunking.rs` pins the stream) — sizes on every edge, truncation,
//!   typed scatter, synchronous mode, self-sends, many callers per rank;
//! * the contract that makes it sound — **no call that posted a raw
//!   pointer or lent a buffer returns while the engine or a peer can still
//!   reach that memory** — on the ways out that are not a completion: a
//!   watchdog timeout, the rank's fatal error, a dropped request. Each
//!   test keeps the "dead" buffer alive, pattern-filled, and checks nobody
//!   read or wrote it afterwards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use lmpi::{
    run_devices, run_threads, run_threads_with_config, DataType, Device, DeviceDefaults,
    FaultConfig, FaultyDevice, Mpi, MpiConfig, MpiError, MpiResult, Rank, ShmDevice,
};
use lmpi_core::Wire;
use lmpi_sim::for_each_case;

const EAGER: usize = 180;

fn cfg() -> MpiConfig {
    MpiConfig::device_defaults().with_eager_threshold(EAGER)
}

fn pattern(size: usize, i: usize) -> u8 {
    (i as u8)
        .wrapping_mul(31)
        .wrapping_add((size as u8).wrapping_mul(7))
        .wrapping_add((i >> 8) as u8)
}

fn payload(size: usize) -> Vec<u8> {
    (0..size).map(|i| pattern(size, i)).collect()
}

/// One `size`-byte transfer 0 → 1 over `devices`; returns what rank 1
/// received and the job's (chunks sent, payloads pulled).
fn transfer<D: Device + 'static>(
    devices: Vec<D>,
    config: MpiConfig,
    size: usize,
) -> (Vec<u8>, u64, u64) {
    let out = run_devices(devices, config, move |mpi: Mpi| {
        let world = mpi.world();
        let mut buf = Vec::new();
        if world.rank() == 0 {
            world.send(&payload(size), 1, 7).unwrap();
            // The counters are final once the receiver says so.
            world.recv(&mut [0u8], 1, 8).unwrap();
        } else {
            buf = vec![0u8; size];
            let st = world.recv(&mut buf, 0, 7).unwrap();
            assert_eq!((st.source, st.tag, st.len), (0, 7, size));
            world.send(&[1u8], 0, 8).unwrap();
        }
        let c = mpi.counters();
        (buf, c.rndv_chunks_sent, c.rndv_pulled)
    });
    let chunks = out.iter().map(|o| o.1).sum();
    let pulled = out.iter().map(|o| o.2).sum();
    (out.into_iter().nth(1).unwrap().0, chunks, pulled)
}

/// The stream the pulled bytes are compared with: shm under a lossless
/// wrapper device, which does not lend.
fn streaming_shm() -> Vec<FaultyDevice<ShmDevice>> {
    ShmDevice::fabric(2)
        .into_iter()
        .map(|dev| FaultyDevice::new(dev, FaultConfig::lossless(0)))
        .collect()
}

/// Any rendezvous size over plain shm is pulled — no data frame — and is
/// byte-identical to what the chunk stream delivers.
#[test]
fn pulled_matches_streamed() {
    let check = |size: usize, chunk: usize| {
        let config = cfg().with_rndv_chunk(chunk).with_rndv_window(3);
        let (pulled, chunks, pulls) = transfer(ShmDevice::fabric(2), config, size);
        assert_eq!((chunks, pulls), (0, 1), "{size} B over plain shm");
        let (streamed, chunks, pulls) = transfer(streaming_shm(), config, size);
        assert_eq!((chunks, pulls), (size.div_ceil(chunk) as u64, 0));
        assert_eq!(pulled, payload(size), "{size} B pulled");
        assert_eq!(pulled, streamed, "{size} B: pull and stream differ");
    };
    check(EAGER + 1, 1000);
    check(12_000, 1000);
    for_each_case(12, |rng| {
        check(rng.range(EAGER + 1..12_000), rng.range(64..2_048))
    });
    check(4 << 20, 256 << 10);
}

/// At the threshold and below nothing is lent: the payload is staged and
/// travels with its envelope, as on every substrate.
#[test]
fn eager_sizes_are_not_lent() {
    for size in [0, 1, EAGER - 1, EAGER] {
        let (got, chunks, pulls) = transfer(ShmDevice::fabric(2), cfg(), size);
        assert_eq!((chunks, pulls), (0, 0), "{size} B");
        assert_eq!(got, payload(size));
    }
}

/// A receive buffer shorter than the lent message: typed `Truncated`, the
/// prefix delivered, and the sender completes normally.
#[test]
fn short_receive_buffer_truncates_with_the_prefix() {
    run_threads_with_config(2, cfg(), |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            world.send(&payload(5000), 1, 0).unwrap();
        } else {
            let mut buf = vec![0u8; 1200];
            let err = world.recv(&mut buf, 0, 0).unwrap_err();
            assert_eq!(
                err,
                MpiError::Truncated {
                    message_len: 5000,
                    buffer_len: 1200
                }
            );
            assert_eq!(buf, payload(5000)[..1200]);
        }
    });
}

/// A typed receive scatters straight out of the lent contiguous source:
/// the one copy of the transfer is the scatter.
#[test]
fn typed_receive_scatters_from_a_lent_source() {
    run_threads_with_config(2, cfg(), |mpi| {
        let world = mpi.world();
        // 300 runs of 16 bytes every 24: packed 4800, extent 7192.
        let ty = DataType::base(8).vector(300, 2, 3).commit().unwrap();
        let packed = payload(ty.packed_size());
        if world.rank() == 0 {
            world.send(&packed, 1, 0).unwrap();
        } else {
            let mut mem = vec![0xAAu8; ty.extent()];
            let st = world.recv_typed(&ty, &mut mem, 0, 0).unwrap();
            assert_eq!(st.len, ty.packed_size());
            let mut want = vec![0xAAu8; ty.extent()];
            for (run, src) in packed.chunks(16).enumerate() {
                want[run * 24..run * 24 + 16].copy_from_slice(src);
            }
            assert_eq!(mem, want);
            assert_eq!(mpi.counters().rndv_pulled, 1);
        }
    });
}

/// Synchronous mode keeps its meaning: a lent `issend` is not complete
/// before the receiver matched it (standard mode is no different over a
/// lease — the buffer is not reusable until it was pulled).
#[test]
fn lent_sends_complete_only_after_the_match() {
    run_threads_with_config(2, cfg(), |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let data = payload(9000);
            let mut sync = world.issend(&data, 1, 0).unwrap();
            let mut std = world.isend(&data, 1, 1).unwrap();
            // Rank 1 posts nothing before it has this token.
            for _ in 0..50 {
                assert!(sync.test().unwrap().is_none(), "issend done, unmatched");
                assert!(std.test().unwrap().is_none(), "isend done, unpulled");
            }
            world.send(&[1u8], 1, 2).unwrap();
            assert_eq!(sync.wait().unwrap().len, 9000);
            assert_eq!(std.wait().unwrap().len, 9000);
        } else {
            world.recv(&mut [0u8], 0, 2).unwrap();
            let mut buf = vec![0u8; 9000];
            for tag in [0, 1] {
                world.recv(&mut buf, 0, tag).unwrap();
                assert_eq!(buf, payload(9000));
            }
        }
    });
}

/// A rank lending to itself: request, pull and go-ahead all pass through
/// the one engine, under its one lock.
#[test]
fn self_send_above_the_threshold() {
    run_threads(1, |mpi| {
        let world = mpi.world();
        let data: Vec<u64> = (0..40_000).collect();
        let mut back = vec![0u64; 40_000];
        let recv = world.irecv(&mut back, 0, 3).unwrap();
        world.send(&data, 0, 3).unwrap();
        assert_eq!(recv.wait().unwrap().len, 320_000);
        assert_eq!(back, data);
        // And the other order: the request waits unexpected for its post.
        let send = world.isend(&data, 0, 4).unwrap();
        back.fill(0);
        world.recv(&mut back, 0, 4).unwrap();
        send.wait().unwrap();
        assert_eq!(back, data);
        assert_eq!(mpi.counters().rndv_pulled, 2);
    });
}

/// Several threads of each rank lend and pull at once: whichever caller
/// holds the drain role copies for all of them, each out of a different
/// thread's buffer.
#[test]
fn many_callers_lend_at_once() {
    const CALLERS: u32 = 4;
    const ROUNDS: u32 = 40;
    let out = run_threads(2, |mpi| {
        std::thread::scope(|s| {
            for tag in 0..CALLERS {
                let world = mpi.world();
                s.spawn(move || {
                    let n = 3000 + 1000 * tag as usize;
                    let mut buf = vec![0u32; n];
                    for round in 0..ROUNDS {
                        let want: Vec<u32> =
                            (0..n as u32).map(|i| i ^ round ^ (tag << 20)).collect();
                        if world.rank() == 0 {
                            world.send(&want, 1, tag).unwrap();
                            world.recv(&mut buf, 1, tag).unwrap();
                        } else {
                            world.recv(&mut buf, 0, tag).unwrap();
                            assert_eq!(buf, want, "caller {tag} round {round}");
                            world.send(&buf, 0, tag).unwrap();
                        }
                        assert_eq!(buf, want, "caller {tag} round {round}");
                    }
                });
            }
        });
        mpi.counters()
    });
    for (rank, c) in out.iter().enumerate() {
        let n = u64::from(CALLERS * ROUNDS);
        assert_eq!((c.rndv_sent, c.rndv_pulled), (n, n), "rank {rank}");
        assert_eq!((c.rndv_chunks_sent, c.eager_sent), (0, 0), "rank {rank}");
    }
}

// ----------------------------------------------------------------------
// Ways out that are not a completion
// ----------------------------------------------------------------------

/// The watchdog armed on the rank that gives up; the other rank waits
/// without limit.
const GIVE_UP_US: u64 = 30_000;

/// Run `f` on one thread per rank, rank `impatient` under the watchdog.
fn run_ranks<D: Device + 'static, T: Send>(
    devices: Vec<D>,
    impatient: Rank,
    f: impl Fn(Mpi) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let ranks: Vec<_> = devices
            .into_iter()
            .enumerate()
            .map(|(rank, dev)| {
                let mut config = cfg().with_rndv_chunk(1000).with_rndv_window(3);
                if rank == impatient {
                    config = config.with_progress_timeout_us(GIVE_UP_US);
                }
                let f = &f;
                s.spawn(move || f(Mpi::new(Box::new(dev), config)))
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// A shm device the test can interfere with. It passes frames through
/// untouched, in order, in memory — so it may keep `ShmDevice`'s promise to
/// lend — until told to hold bulk data back, or to break.
struct Rig {
    inner: ShmDevice,
    lends: bool,
    /// While set, rendezvous data frames queue in `held` instead of leaving.
    hold_bulk: Arc<AtomicBool>,
    held: Mutex<Vec<(Rank, Wire)>>,
    /// Once set, receiving fails: the rank's fatal transport error.
    broken: Arc<AtomicBool>,
}

/// The test's handles on a [`Rig`] fabric.
#[derive(Clone)]
struct Controls {
    /// Both ranks hold their bulk frames while this is set.
    hold_bulk: Arc<AtomicBool>,
    /// Setting this breaks rank 0's device.
    break_rank0: Arc<AtomicBool>,
}

impl Rig {
    fn fabric(lends: bool) -> (Vec<Rig>, Controls) {
        let controls = Controls {
            hold_bulk: Arc::new(AtomicBool::new(false)),
            break_rank0: Arc::new(AtomicBool::new(false)),
        };
        let rigs = ShmDevice::fabric(2)
            .into_iter()
            .map(|inner| Rig {
                lends,
                hold_bulk: controls.hold_bulk.clone(),
                held: Mutex::new(Vec::new()),
                broken: match inner.rank() {
                    0 => controls.break_rank0.clone(),
                    _ => Arc::default(),
                },
                inner,
            })
            .collect();
        (rigs, controls)
    }

    /// Before every receive: fail if broken, and let held frames go once
    /// the gate is open — the rank's own progress loop gets here within a
    /// tick.
    fn pump(&self) -> MpiResult<()> {
        if self.broken.load(Ordering::SeqCst) {
            return Err(MpiError::transport("the test broke this device"));
        }
        if !self.hold_bulk.load(Ordering::SeqCst) {
            for (dst, wire) in self.held.lock().unwrap().drain(..) {
                self.inner.send(dst, wire);
            }
        }
        Ok(())
    }
}

impl Device for Rig {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn send(&self, dst: Rank, wire: Wire) {
        let mut held = self.held.lock().unwrap();
        if wire.pkt.is_bulk() && self.hold_bulk.load(Ordering::SeqCst) {
            return held.push((dst, wire));
        }
        // Per-destination FIFO: what was held leaves first.
        for (dst, wire) in held.drain(..) {
            self.inner.send(dst, wire);
        }
        self.inner.send(dst, wire);
    }
    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        self.pump()?;
        self.inner.try_recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> MpiResult<Option<Wire>> {
        self.pump()?;
        self.inner.recv_timeout(timeout)
    }
    fn supports_background_progress(&self) -> bool {
        true
    }
    fn lends_memory(&self) -> bool {
        self.lends
    }
    fn wtime(&self) -> f64 {
        self.inner.wtime()
    }
    fn defaults(&self) -> DeviceDefaults {
        self.inner.defaults()
    }
}

const SENTINEL: u8 = 0x5A;

#[track_caller]
fn assert_timeout(err: MpiError) {
    assert!(matches!(err, MpiError::Timeout { .. }), "{err:?}");
}

/// A receive that timed out unmatched is cancelled: the message that comes
/// late goes to the next receive, not through the old one's pointer.
#[test]
fn timed_out_unmatched_receive_is_cancelled() {
    let sync = Barrier::new(2);
    run_ranks(ShmDevice::fabric(2), 1, |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            sync.wait();
            world.send(&payload(100), 1, 5).unwrap();
        } else {
            let mut gone = vec![SENTINEL; 100];
            assert_timeout(world.recv(&mut gone, 0, 5).unwrap_err());
            sync.wait();
            let mut buf = vec![0u8; 100];
            world.recv(&mut buf, 0, 5).unwrap();
            assert_eq!(buf, payload(100), "the late message found the new receive");
            assert_eq!(gone, vec![SENTINEL; 100], "and not the old one");
        }
    });
}

/// A receive that timed out between the go-ahead and its data: the chunks
/// that come late land nowhere, are still acknowledged (the sender's
/// stream drains), and the rank lives on.
#[test]
fn timed_out_receive_mid_rendezvous_sinks_late_chunks() {
    let (rigs, controls) = Rig::fabric(false);
    controls.hold_bulk.store(true, Ordering::SeqCst);
    let sync = Barrier::new(2);
    run_ranks(rigs, 1, |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let data = payload(10_000);
            let send = world.isend(&data, 1, 5).unwrap();
            sync.wait();
            // Completes only if every chunk but the last was acknowledged.
            send.wait().unwrap();
            sync.wait();
            world.send(&payload(2000), 1, 6).unwrap();
        } else {
            sync.wait();
            let mut gone = vec![SENTINEL; 10_000];
            assert_timeout(world.recv(&mut gone, 0, 5).unwrap_err());
            assert_eq!(
                mpi.counters().matches,
                1,
                "it had matched: the go-ahead went out"
            );
            controls.hold_bulk.store(false, Ordering::SeqCst);
            sync.wait();
            let mut buf = vec![0u8; 2000];
            world.recv(&mut buf, 0, 6).unwrap();
            assert_eq!(buf, payload(2000), "the rank is still in business");
            assert_eq!(gone, vec![SENTINEL; 10_000], "late chunks landed nowhere");
        }
    });
}

/// How rank 0 gives up on a send that lent `data` and was never pulled.
type GiveUp = fn(&Mpi, &Controls, &[u8]);

/// A lent send whose caller returns without the receiver having pulled —
/// blocking call timed out, request waited on or dropped under the
/// watchdog, the rank's device broke — has closed its lease: the receive
/// that matches it afterwards gets a typed error and reads nothing.
#[test]
fn abandoned_lent_send_closes_its_lease() {
    let ways: [(&str, GiveUp); 4] = [
        ("send", |mpi, _, data| {
            assert_timeout(mpi.world().send(data, 1, 5).unwrap_err());
        }),
        ("isend + wait", |mpi, _, data| {
            assert_timeout(mpi.world().isend(data, 1, 5).unwrap().wait().unwrap_err());
        }),
        ("isend + drop", |mpi, _, data| {
            drop(mpi.world().isend(data, 1, 5).unwrap());
        }),
        ("isend + broken device", |mpi, controls, data| {
            let send = mpi.world().isend(data, 1, 5).unwrap();
            controls.break_rank0.store(true, Ordering::SeqCst);
            let err = send.wait().unwrap_err();
            assert!(
                matches!(err, MpiError::Transport { peer: None, .. }),
                "{err:?}"
            );
        }),
    ];
    for (how, give_up) in ways {
        let (rigs, controls) = Rig::fabric(true);
        let sync = Barrier::new(2);
        run_ranks(rigs, 0, |mpi| {
            let world = mpi.world();
            if world.rank() == 0 {
                let mut data = payload(50_000);
                give_up(&mpi, &controls, &data);
                // The borrow is over: the memory is the caller's again.
                data.fill(0xEE);
                sync.wait();
                sync.wait();
            } else {
                sync.wait();
                let mut buf = vec![SENTINEL; 50_000];
                let err = world.recv(&mut buf, 0, 5).unwrap_err();
                assert!(
                    matches!(err, MpiError::Transport { peer: Some(0), .. }),
                    "{how}: {err:?}"
                );
                assert_eq!(buf, vec![SENTINEL; 50_000], "{how}: something was read");
                assert_eq!(mpi.counters().rndv_pulled, 0, "{how}");
                sync.wait();
            }
        });
    }
}

/// `sendrecv` whose send fails has posted its receive already; it takes
/// the receive back before it returns the error.
#[test]
fn failed_sendrecv_takes_its_receive_back() {
    let sync = Barrier::new(2);
    run_ranks(ShmDevice::fabric(2), 0, |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let mut gone = vec![SENTINEL; 100];
            // The lent send is never pulled: rank 1 posts nothing yet.
            let sent = world.sendrecv(&payload(5000), 1, 4, &mut gone, 1, 5);
            assert_timeout(sent.unwrap_err());
            sync.wait();
            let mut buf = vec![0u8; 100];
            world.recv(&mut buf, 1, 5).unwrap();
            assert_eq!(buf, payload(100));
            assert_eq!(gone, vec![SENTINEL; 100], "the old receive was taken back");
        } else {
            sync.wait();
            world.send(&payload(100), 0, 5).unwrap();
        }
    });
}
