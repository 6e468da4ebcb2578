//! Shared-memory device: MPI ranks as OS threads exchanging frames through
//! one inbox per rank.
//!
//! This is the *real* (non-simulated) substrate used for functional testing
//! and for the wall-clock benchmark workloads: every protocol code path —
//! eager, rendezvous, credits, collectives — runs exactly as on the
//! simulated platforms, just with real time instead of a virtual clock.
//!
//! # The inbox
//!
//! A rank's inbox is one lock over its queue of frames and the slot its
//! consumer parks in ([`Sleepers`]). A sender pushes its frame and takes
//! the parked consumer out under the lock, and wakes it after dropping
//! the lock: a wake is issued only on the empty → non-empty edge with the
//! consumer asleep. The consumer pops, or parks, in a loop.
//!
//! A consumer that finds the inbox empty yields its CPU once, with the
//! lock released, and looks again before it parks; a poll never yields.
//! When the sender shares the consumer's CPU, the yield lets it answer
//! first, so the round trip needs no park, no wake and no timer: an 8 B
//! MPI round trip of two ranks on one CPU fell from 6.4 to 4.6 µs, and
//! parks plus wakes per round trip from 2.3 to 0.001 (EXPERIMENTS.md
//! "The shm inbox yields once before it parks"). On an idle CPU the yield
//! returns at once and costs one system call. The inbox never spins: rank
//! threads and their progress threads outnumber the CPUs they run on, so
//! a consumer that spins keeps the CPU from the sender it waits for.
//!
//! At most one thread waits on an inbox: the engine's drain-role holder.
//! A second waiter is a drain-role bug, so a debug build asserts against
//! it.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use lmpi_core::{
    Device, DeviceDefaults, Mpi, MpiConfig, MpiResult, Rank, TransportStats, Wait, Wire,
};
use lmpi_obs::Tracer;
use lmpi_sim::lock::{Mutex, Sleepers};

/// Device connecting `nprocs` ranks within one process.
pub struct ShmDevice {
    rank: Rank,
    /// Every rank's inbox, by rank; this device consumes its own.
    inboxes: Arc<[Inbox]>,
    t0: Instant,
    defaults: DeviceDefaults,
    tracer: Tracer,
}

/// Shared-memory platform defaults: a round trip costs a few microseconds
/// of thread wake-up and no copy on the wire, so a large eager threshold
/// and a generous credit window behave best.
pub const SHM_DEFAULTS: DeviceDefaults = DeviceDefaults {
    eager_threshold: 8192,
    env_slots: 64,
    recv_buf_per_sender: 1 << 20,
    // The window serves only the sends that still stage their payload above
    // the threshold (typed, buffered-mode, `Loc` and `bool` slices, anything
    // under a wrapper device); so does the chunk, as a frame's size. A
    // contiguous send lends its buffer and moves no frame, and the chunk is
    // then the unit a thread claims of the pull: small enough that the
    // sender's blocked caller and the receiver's thread split a large
    // message evenly, large enough that a claim is a rounding error beside
    // its copy. Chunks large enough that per-frame overhead stays
    // negligible on an in-process channel, windowed deep enough to keep the
    // pipe full.
    rndv_chunk: 256 << 10,
    rndv_window: 8,
};

/// One rank's arriving frames (see the module docs).
struct Inbox(Mutex<InboxState>);

#[derive(Default)]
struct InboxState {
    frames: VecDeque<Wire>,
    /// The consumer, while it is parked waiting for a frame.
    consumer: Sleepers,
    /// The owning device was dropped: frames sent here are discarded.
    closed: bool,
    /// [`TransportStats::inbox_parks`].
    parks: u64,
    /// [`TransportStats::inbox_wakes`].
    wakes: u64,
}

impl Inbox {
    /// Queue `wire` and wake the consumer if it is parked. A frame for a
    /// closed inbox is dropped at once (after the guard: locals drop
    /// before arguments).
    fn push(&self, wire: Wire) {
        let mut st = self.0.lock();
        if st.closed {
            return;
        }
        st.frames.push_back(wire);
        if !st.consumer.is_empty() {
            st.wakes += 1;
        }
        let wake = st.consumer.take();
        drop(st);
        wake.wake();
    }

    /// Pop the next frame, parking until one arrives; `None` once `wait`
    /// is over with the queue still empty. A wait that may block yields
    /// the CPU once, with the lock released, before it parks; a timed one
    /// reads the clock once, at its first empty look.
    fn pop_wait(&self, wait: Wait) -> Option<Wire> {
        let mut st = self.0.lock();
        let (mut yielded, mut timed_out) = (false, false);
        let mut deadline = None;
        loop {
            if let Some(wire) = st.frames.pop_front() {
                return Some(wire);
            }
            match wait {
                Wait::Poll => return None,
                Wait::Within(d) => {
                    deadline.get_or_insert_with(|| Instant::now() + d);
                }
                Wait::Forever => {}
            }
            if timed_out {
                return None;
            }
            if !yielded {
                yielded = true;
                self.0.unlocked(&mut st, std::thread::yield_now);
                continue;
            }
            debug_assert!(
                st.consumer.is_empty(),
                "shm inbox: {:?} waits while {:?} is parked on it (one consumer at a time)",
                std::thread::current().id(),
                st.consumer,
            );
            st.parks += 1;
            timed_out = !Sleepers::park(&self.0, &mut st, |s| &mut s.consumer, deadline);
        }
    }
}

impl ShmDevice {
    /// Build one connected device per rank.
    pub fn fabric(nprocs: usize) -> Vec<ShmDevice> {
        let t0 = Instant::now();
        let inboxes: Arc<[Inbox]> = (0..nprocs)
            .map(|_| Inbox(Mutex::new(InboxState::default())))
            .collect();
        (0..nprocs)
            .map(|rank| ShmDevice {
                rank,
                inboxes: inboxes.clone(),
                t0,
                defaults: SHM_DEFAULTS,
                tracer: Tracer::disabled(),
            })
            .collect()
    }

    fn inbox(&self) -> &Inbox {
        &self.inboxes[self.rank]
    }
}

/// Dropping a device closes its inbox: the queued frames are dropped
/// outside the lock, and later ones as they arrive. A peer that already
/// returned from its program has dropped its device; late frames to it
/// (typically trailing credit returns) are harmless, as a real NIC would
/// drop frames for a halted node.
impl Drop for ShmDevice {
    fn drop(&mut self) {
        let mut st = self.inbox().0.lock();
        st.closed = true;
        let queued = std::mem::take(&mut st.frames);
        drop(st);
        drop(queued);
    }
}

impl Device for ShmDevice {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.inboxes.len()
    }

    fn send(&self, dst: Rank, wire: Wire) {
        crate::trace_wire_tx(&self.tracer, || self.now_ns(), dst, &wire);
        self.inboxes[dst].push(wire);
    }

    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>> {
        Ok(self.inbox().pop_wait(wait))
    }

    fn supports_background_progress(&self) -> bool {
        true
    }

    /// Rank threads share one address space and the inbox moves each
    /// `Wire` by value.
    fn lends_memory(&self) -> bool {
        true
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn defaults(&self) -> DeviceDefaults {
        self.defaults
    }

    fn substrate(&self) -> &'static str {
        "shm"
    }

    fn transport_stats(&self) -> TransportStats {
        let st = self.inbox().0.lock();
        TransportStats {
            inbox_parks: st.parks,
            inbox_wakes: st.wakes,
            ..TransportStats::default()
        }
    }
}

/// Run an `nprocs`-rank MPI program on threads, returning each rank's
/// result in rank order. A rank's panic resumes here with its own payload.
pub fn run<T, F>(nprocs: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    run_with_config(nprocs, MpiConfig::device_defaults(), f)
}

/// [`run`] with explicit protocol configuration (e.g. a forced eager
/// threshold for the crossover ablation).
pub fn run_with_config<T, F>(nprocs: usize, config: MpiConfig, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    assert!(nprocs > 0, "need at least one rank");
    run_devices(ShmDevice::fabric(nprocs), config, f)
}

/// Run an MPI program over an arbitrary pre-built set of connected devices,
/// one thread per rank. This is how fault-injection harnesses run: build
/// the [`ShmDevice::fabric`], wrap each device in
/// [`crate::faulty::FaultyDevice`] and/or [`crate::reliable::ReliableDevice`],
/// then hand the stack here.
pub fn run_devices<D, T, F>(devices: Vec<D>, config: MpiConfig, f: F) -> Vec<T>
where
    D: Device + 'static,
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let make = devices
        .into_iter()
        .map(|dev| move || Ok::<_, Infallible>(dev));
    let Ok(results) = crate::launch::run_rank_threads(make, config, f);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpi_core::Packet;
    use lmpi_sim::within;
    use std::thread;
    use std::time::Duration;

    /// Frame number `n` from rank `src`.
    fn numbered(src: Rank, n: u64) -> Wire {
        let mut w = Wire::bare(src, Packet::Credit);
        w.seq = n;
        w
    }

    fn sleeper_registered(d: &ShmDevice) -> bool {
        !d.inbox().0.lock().consumer.is_empty()
    }

    #[test]
    fn each_senders_frames_arrive_in_order() {
        // Matching's non-overtaking rule rests on per-sender FIFO.
        const SENDERS: usize = 4;
        const FRAMES: u64 = 50_000;
        let mut fabric = ShmDevice::fabric(SENDERS + 1).into_iter();
        let consumer = fabric.next().expect("rank 0");
        let senders: Vec<_> = fabric
            .map(|d| {
                thread::spawn(move || {
                    for n in 0..FRAMES {
                        d.send(0, numbered(d.rank(), n));
                    }
                })
            })
            .collect();
        let mut next = [0u64; SENDERS + 1];
        let mut polls = 0u64;
        let total = SENDERS as u64 * FRAMES;
        let mut got = 0;
        while got < total {
            polls += 1;
            let wire = if polls.is_multiple_of(2) {
                consumer.try_recv().unwrap()
            } else {
                consumer
                    .recv(Wait::Within(Duration::from_micros(200)))
                    .unwrap()
            };
            if let Some(w) = wire {
                assert_eq!(w.seq, next[w.src], "frame from rank {} overtook", w.src);
                next[w.src] += 1;
                got += 1;
            }
        }
        for h in senders {
            h.join().unwrap();
        }
        assert!(consumer.try_recv().unwrap().is_none());
    }

    #[test]
    fn a_timed_out_wait_returns_after_its_deadline_and_unregisters() {
        let d = ShmDevice::fabric(1).pop().expect("one device");
        for timeout in [
            Duration::ZERO,
            Duration::from_micros(300),
            Duration::from_millis(5),
        ] {
            let start = Instant::now();
            assert!(d.recv(Wait::Within(timeout)).unwrap().is_none());
            assert!(start.elapsed() >= timeout, "returned early for {timeout:?}");
            assert!(!sleeper_registered(&d), "left a sleeper after {timeout:?}");
        }
    }

    #[test]
    fn stray_unparks_end_no_wait_early() {
        // The consumer alternates timed and untimed waits while a third
        // thread unparks it: a timed wait must return a frame or run to
        // its deadline, an untimed one must return a frame, and a wake-up
        // lost among the stray ones hangs the consumer (the bounded wait
        // turns that into a failure).
        const UNPARKS: usize = 10_000;
        const FRAMES: u64 = 2_000;
        const TIMEOUT: Duration = Duration::from_millis(1);
        within(Duration::from_secs(60), || {
            let mut fabric = ShmDevice::fabric(2).into_iter();
            let (d0, d1) = (fabric.next().unwrap(), fabric.next().unwrap());
            let consumer = thread::spawn(move || {
                let (mut got, mut timed) = (0, false);
                while got < FRAMES {
                    timed = !timed;
                    let start = Instant::now();
                    let wire = if timed {
                        d0.recv(Wait::Within(TIMEOUT)).unwrap()
                    } else {
                        Some(d0.recv_blocking().unwrap())
                    };
                    match wire {
                        Some(w) => {
                            assert_eq!(w.seq, got);
                            got += 1;
                        }
                        None => assert!(start.elapsed() >= TIMEOUT, "a stray unpark ended a wait"),
                    }
                }
                assert!(!sleeper_registered(&d0));
            });
            let target = consumer.thread().clone();
            let unparker = thread::spawn(move || {
                for i in 0..UNPARKS {
                    target.unpark();
                    if i.is_multiple_of(8) {
                        thread::yield_now();
                    }
                }
            });
            for n in 0..FRAMES {
                d1.send(0, numbered(1, n));
                if n.is_multiple_of(64) {
                    thread::sleep(Duration::from_micros(200));
                } else {
                    thread::yield_now();
                }
            }
            unparker.join().unwrap();
            consumer.join().unwrap();
        });
    }

    #[test]
    fn many_blocking_round_trips_lose_no_unpark() {
        // A lost unpark leaves one side parked for good; the bounded wait
        // turns that into a failure.
        const ROUNDS: u64 = 200_000;
        within(Duration::from_secs(60), || {
            let mut fabric = ShmDevice::fabric(2).into_iter();
            let (d0, d1) = (fabric.next().unwrap(), fabric.next().unwrap());
            let echo = thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let w = d1.recv_blocking().unwrap();
                    d1.send(0, numbered(1, w.seq));
                }
            });
            for n in 0..ROUNDS {
                d0.send(1, numbered(0, n));
                assert_eq!(d0.recv_blocking().unwrap().seq, n);
            }
            echo.join().unwrap();
        });
    }

    #[test]
    fn parks_and_wakes_count_each_park_and_each_wake() {
        let counts = |d: &ShmDevice| {
            let t = d.transport_stats();
            (t.inbox_parks, t.inbox_wakes)
        };
        // A frame already queued is popped with no park and no wake.
        let d = ShmDevice::fabric(1).pop().expect("one device");
        d.send(0, numbered(0, 1));
        assert_eq!(d.recv_blocking().unwrap().seq, 1);
        assert_eq!(counts(&d), (0, 0));
        // A wait that runs out parks once and is woken by no one.
        assert!(d
            .recv(Wait::Within(Duration::from_millis(1)))
            .unwrap()
            .is_none());
        assert_eq!(counts(&d), (1, 0));
        // A send to a parked consumer wakes it, once.
        let mut fabric = ShmDevice::fabric(2).into_iter();
        let (d0, d1) = (fabric.next().unwrap(), fabric.next().unwrap());
        let got = within(Duration::from_secs(10), move || {
            thread::scope(|s| {
                let waiter = s.spawn(|| d0.recv_blocking().unwrap().seq);
                while !sleeper_registered(&d0) {
                    thread::yield_now();
                }
                d1.send(0, numbered(1, 7));
                (waiter.join().unwrap(), counts(&d0))
            })
        });
        assert_eq!(got, (7, (1, 1)));
    }

    #[test]
    fn late_frames_to_a_dropped_rank_are_discarded() {
        let mut fabric = ShmDevice::fabric(2).into_iter();
        let (d0, d1) = (fabric.next().unwrap(), fabric.next().unwrap());
        let queued = || d0.inboxes[1].0.lock().frames.len();
        d0.send(1, numbered(0, 1));
        assert_eq!(queued(), 1);
        drop(d1);
        assert_eq!(queued(), 0, "the dropped rank's queue was kept");
        d0.send(1, numbered(0, 2));
        assert_eq!(queued(), 0, "a late frame was queued");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "one consumer at a time")]
    fn a_second_waiting_thread_is_caught() {
        let d = ShmDevice::fabric(1).pop().expect("one device");
        thread::scope(|s| {
            s.spawn(|| d.recv(Wait::Within(Duration::from_millis(500))));
            while !sleeper_registered(&d) {
                thread::yield_now();
            }
            let _ = d.recv(Wait::Within(Duration::from_millis(1)));
        });
    }

    #[test]
    fn two_rank_pingpong() {
        let results = run(2, |mpi| {
            let world = mpi.world();
            if world.rank() == 0 {
                world.send(&[42u32, 7], 1, 0).unwrap();
                let mut back = [0u32; 2];
                world.recv(&mut back, 1, 1).unwrap();
                back[0] + back[1]
            } else {
                let mut buf = [0u32; 2];
                let st = world.recv(&mut buf, 0, 0).unwrap();
                assert_eq!(st.source, 0);
                world.send(&[buf[0] * 2, buf[1] * 2], 0, 1).unwrap();
                0
            }
        });
        assert_eq!(results[0], 98);
    }

    #[test]
    fn wtime_advances() {
        let results = run(1, |mpi| {
            let a = mpi.wtime();
            std::thread::sleep(std::time::Duration::from_millis(5));
            mpi.wtime() - a
        });
        assert!(results[0] >= 0.004);
    }
}
