//! The abstract device interface (ADI) separating MPI protocol logic from
//! transport mechanism — the same split MPICH's device layer makes, which
//! the paper builds on for the Meiko and re-targets to TCP.
//!
//! One `Device` instance exists per rank. Devices deliver frames in FIFO
//! order per (sender, receiver) pair, which the MPI non-overtaking
//! guarantee relies on. Devices are `Send + Sync`: on real transports one
//! thread receives (a caller blocked inside the library, or the
//! background progress thread while no caller is) while others post sends
//! concurrently, so every method takes `&self` and interior state must be
//! lock- or atomic-protected. Exactly one thread pulls frames out of a
//! device at a time — the holder of the engine's drain role; concurrent
//! `recv` from two threads would let handling race and break FIFO.

use std::time::Duration;

use crate::error::MpiResult;
use crate::packet::Wire;
use crate::types::Rank;
use lmpi_obs::Tracer;

/// Modelled local costs the protocol engine reports to the device. Simulated
/// devices convert these into virtual time (this is where the paper's 35 µs
/// matching cost and the receiver-side buffering copy of Fig. 1 live); real
/// devices ignore them — their costs are real.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Cost {
    /// One send↔receive matching operation at the receiver.
    Match,
    /// Copying `n` bytes out of the receiver-side bounce buffer into the
    /// user buffer, for an eager message that arrived *before* its receive
    /// was posted (unavoidable buffering on every transport).
    BufferedCopy(usize),
    /// Copying `n` bytes for an eager message whose receive was already
    /// posted when it arrived. The paper's design still pays this (data
    /// lands in the per-sender slot and is copied after the SPARC matches);
    /// the tport/MPICH baseline does not (the Elan matches in the
    /// background and deposits directly).
    PostedCopy(usize),
    /// Application compute, in floating-point operations (apps call
    /// [`crate::mpi::Communicator::compute_flops`]).
    Flops(u64),
}

/// Per-device protocol defaults; the paper tunes these per platform
/// (180-byte eager threshold and a single envelope slot on the Meiko;
/// a multi-kilobyte credit window over TCP).
#[derive(Copy, Clone, Debug)]
pub struct DeviceDefaults {
    /// Largest payload sent eagerly (optimistically); larger messages use
    /// rendezvous. The Meiko crossover is 180 bytes (Fig. 1).
    pub eager_threshold: usize,
    /// Outstanding envelopes allowed per destination before the sender must
    /// wait for envelope credit (1 on the Meiko).
    pub env_slots: u32,
    /// Receiver bounce-buffer bytes reserved per sender.
    pub recv_buf_per_sender: u64,
    /// Largest rendezvous data segment sent as one device frame. Messages
    /// up to this size move as a single `RndvChunk` frame (the paper's one
    /// DMA); larger ones stream as segments of this size so a lost frame
    /// costs one chunk instead of the whole transfer.
    pub rndv_chunk: usize,
    /// Rendezvous pipeline window: how many chunks the sender keeps in
    /// flight before waiting for a chunk acknowledgment.
    pub rndv_window: u32,
}

lmpi_obs::counter_struct! {
    /// Cumulative reliability and fault-injection statistics surfaced by a
    /// device stack. Layered devices (`ReliableDevice` over `FaultyDevice`
    /// over a base transport) merge their own tallies with their inner
    /// device's (`merged`), so [`crate::Mpi::transport_stats`] sees the
    /// whole stack. All fields are cumulative counts (of frames, peers or
    /// waits, as each says); the metrics snapshot carries each under
    /// `transport.<field>`.
    #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
    pub struct TransportStats {
        /// Data frames accepted for (first) transmission by a reliability layer.
        pub data_frames_sent: u64,
        /// Frames resent by the reliability layer's retransmission.
        pub retransmits: u64,
        /// Duplicate arrivals suppressed by sequence checking.
        pub dup_suppressed: u64,
        /// Out-of-order arrivals dropped because the receiver's reorder
        /// buffer could not hold them: every one under go-back-N (a buffer
        /// of 0 frames), only those past `window.min(64)` frames or the
        /// ack bitmap's horizon under selective repeat (the default).
        pub ooo_dropped: u64,
        /// Pure (non-piggybacked) acknowledgement frames sent for an owed
        /// ack; keepalives are counted in `heartbeats_sent` instead.
        pub pure_acks_sent: u64,
        /// Frames deliberately dropped by fault injection.
        pub faults_dropped: u64,
        /// Frames deliberately duplicated by fault injection.
        pub faults_duplicated: u64,
        /// Frames deliberately reordered by fault injection.
        pub faults_reordered: u64,
        /// Frames deliberately delayed by fault injection.
        pub faults_delayed: u64,
        /// Liveness keepalives sent on idle peer links. Each is a pure ack
        /// on the wire; it is counted here, not in `pure_acks_sent`.
        pub heartbeats_sent: u64,
        /// Peers the liveness state machine has moved from Alive to Suspect
        /// (cumulative; a peer that recovers and is re-suspected counts again).
        pub peers_suspected: u64,
        /// Peers declared dead (terminal; each peer counts at most once).
        pub peers_dead: u64,
        /// Times this rank's consumer parked on its empty shm inbox.
        pub inbox_parks: u64,
        /// Times a send found this rank's shm inbox consumer parked and
        /// woke it.
        pub inbox_wakes: u64,
    }
}

/// How long [`Device::recv`] may wait for a frame. A timed wait is a
/// length, not an instant: the device measures it from the call on its own
/// clock (the wall clock on a real transport, virtual time on a simulated
/// one), so a caller reads no clock to make one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Wait {
    /// Not at all.
    Poll,
    /// For this long at most, from the call.
    Within(Duration),
    /// Until a frame or a failure arrives.
    Forever,
}

impl Wait {
    /// The device-clock nanosecond that never comes: where
    /// [`Wait::ends_at`] puts a `Forever` wait, and what a wrapper's
    /// next-timer computation gives with no timer armed.
    pub const NEVER: u64 = u64::MAX;

    /// The nanosecond, on a device clock that `now` reads, at which this
    /// wait ends: 0 for `Poll`, [`Wait::NEVER`] for `Forever`; only
    /// `Within` reads the clock. A wrapper pins its caller's wait so once,
    /// and waits below for [`Wait::left`] of the earlier of it and its own
    /// next timer, so that frames which deliver nothing do not stretch the
    /// caller's wait, and a timer ends the wait exactly when it is due.
    pub fn ends_at(self, now: impl FnOnce() -> u64) -> u64 {
        match self {
            Wait::Poll => 0,
            Wait::Within(d) => now().saturating_add(d.as_nanos().try_into().unwrap_or(Wait::NEVER)),
            Wait::Forever => Wait::NEVER,
        }
    }

    /// What is left at `now` of a wait that ends at `end` (both in the
    /// device's nanoseconds, see [`Wait::ends_at`]): `Poll` once it is due.
    pub fn left(end: u64, now: u64) -> Wait {
        if end <= now {
            Wait::Poll
        } else if end == Wait::NEVER {
            Wait::Forever
        } else {
            Wait::Within(Duration::from_nanos(end - now))
        }
    }
}

/// Transport for one rank.
pub trait Device: Send + Sync {
    /// This rank's global rank.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn nprocs(&self) -> usize;

    /// Transmit a frame to `dst`. Must preserve FIFO order per destination.
    /// Bulk packets (`Wire::pkt.is_bulk()`) may use a DMA/bandwidth path.
    fn send(&self, dst: Rank, wire: Wire);

    /// The next received frame, waiting as `wait` says; `Ok(None)` when the
    /// wait ends empty (a `Forever` wait may too). The one receive a
    /// transport writes, and every one measures a `Within` wait on its own
    /// clock: a wall-clock device turns it into an `Instant` once, when it
    /// is about to park (or back off to short sleeps), a virtual-time
    /// device parks its simulated process for that much virtual time, and
    /// a wrapper pins the caller's deadline once on its inner device's
    /// clock and parks in that device until the earlier of the deadline
    /// and its own next timer. `Err` is a failed transport (peer
    /// disconnect mid-frame, corrupt framing), surfaced as a typed
    /// [`crate::MpiError`].
    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>>;

    /// `recv(Wait::Poll)`.
    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        self.recv(Wait::Poll)
    }

    /// The next frame, however long it takes, or a transport failure.
    fn recv_blocking(&self) -> MpiResult<Wire> {
        loop {
            if let Some(w) = self.recv(Wait::Forever)? {
                return Ok(w);
            }
        }
    }

    /// Whether a background progress thread may drive this device. True
    /// only for real wall-clock transports whose frames arrive
    /// asynchronously (shm channels, real sockets). Virtual-time substrates
    /// must answer false: their cooperative scheduler interleaves rank
    /// processes deterministically and a foreign thread would deadlock or
    /// skew the clock. Wrapper devices forward to the wrapped transport.
    fn supports_background_progress(&self) -> bool {
        false
    }

    /// Whether every rank of the job lives in this process's address space
    /// and `send` hands frames over in memory, untouched. There the engine
    /// does not stage a large contiguous payload: the rendezvous request
    /// carries a [`crate::Lease`] on the caller's buffer and the receiver
    /// copies it out once — the paper's "single DMA directly into the user
    /// buffer". A device that encodes, duplicates, delays or drops frames
    /// must answer false, and a wrapper does **not** forward this to the
    /// transport it wraps: whatever sits between two engines has to keep
    /// the promise itself. Must answer identically on every rank of a job.
    fn lends_memory(&self) -> bool {
        false
    }

    /// Account a modelled local cost (no-op on real transports).
    fn charge(&self, _cost: Cost) {}

    /// Whether this transport has a hardware broadcast (Meiko CS/2 does).
    /// Must answer identically on every rank of a job.
    fn has_hw_bcast(&self) -> bool {
        false
    }

    /// Stable substrate name used as the first key of the collective
    /// decision table ("shm", "meiko", "sim-tcp", ...). Wrapper devices
    /// forward to the wrapped transport. Must answer identically on every
    /// rank of a job.
    fn substrate(&self) -> &'static str {
        "generic"
    }

    /// Broadcast `wire` to every rank in `group` except this one using the
    /// hardware broadcast. Only called when [`Device::has_hw_bcast`] is
    /// true; the collective layer falls back to point-to-point otherwise.
    /// The default reports a typed [`MpiError::Unsupported`] so a device
    /// that wrongly claims `has_hw_bcast` surfaces an error instead of
    /// panicking.
    ///
    /// [`MpiError::Unsupported`]: crate::MpiError::Unsupported
    fn hw_bcast(&self, _group: &[Rank], _wire: Wire) -> MpiResult<()> {
        Err(crate::error::MpiError::Unsupported {
            what: "device has no hardware broadcast".into(),
        })
    }

    /// The device's one clock: nanoseconds since it started, virtual on
    /// simulated transports and wall-clock on real ones. Tracing, health,
    /// the wrappers' timers and [`Wait::Within`] all read it;
    /// [`crate::Mpi::wtime`] turns it into `MPI_Wtime`'s seconds. A
    /// wrapper forwards its inner device's.
    fn now_ns(&self) -> u64;

    /// Install a tracer for *device-level* events (wire tx, retransmits,
    /// injected faults). Called before the device is moved into
    /// [`crate::Mpi::new`]; the default discards the tracer, so transports
    /// without device-level emission need no code. Engine-level events are
    /// installed separately via [`crate::Mpi::set_tracer`].
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Cumulative reliability, fault-injection and inbox statistics for
    /// this device stack (zero in every field no layer of it counts).
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Drain one pending peer-failure notification, if any. A reliability
    /// layer queues `(peer, error)` when its liveness state machine
    /// declares a peer dead; the engine drains the queue on every
    /// progress poll and fails the affected requests. Each failure is
    /// reported exactly once. The default (transports without failure
    /// detection) never reports.
    fn take_failed_peer(&self) -> Option<(Rank, crate::error::MpiError)> {
        None
    }

    /// Protocol parameter defaults for this transport.
    fn defaults(&self) -> DeviceDefaults;
}

#[cfg(test)]
pub(crate) mod loopback {
    //! A trivial single-rank loopback device for engine unit tests.

    use std::collections::VecDeque;
    use std::sync::Mutex;

    use super::*;

    /// Frames sent to self are immediately receivable; frames to other
    /// ranks are recorded for inspection.
    pub struct Loopback {
        pub rank: Rank,
        pub nprocs: usize,
        pub inbox: Mutex<VecDeque<Wire>>,
        pub sent: Mutex<Vec<(Rank, Wire)>>,
        pub charges: Mutex<Vec<Cost>>,
        pub defaults: DeviceDefaults,
        /// What [`Device::lends_memory`] answers.
        pub lends: bool,
    }

    impl Loopback {
        pub fn new(rank: Rank, nprocs: usize) -> Self {
            Loopback {
                rank,
                nprocs,
                inbox: Mutex::new(VecDeque::new()),
                sent: Mutex::new(Vec::new()),
                charges: Mutex::new(Vec::new()),
                defaults: DeviceDefaults {
                    eager_threshold: 180,
                    env_slots: 4,
                    recv_buf_per_sender: 1 << 16,
                    rndv_chunk: 256,
                    rndv_window: 2,
                },
                lends: false,
            }
        }

        /// A loopback whose frames keep their leases, like `ShmDevice`.
        pub fn lending(rank: Rank, nprocs: usize) -> Self {
            Loopback {
                lends: true,
                ..Loopback::new(rank, nprocs)
            }
        }

        /// Inject a frame as if it arrived from the network.
        #[allow(dead_code)] // for ad-hoc engine experiments in tests
        pub fn inject(&self, wire: Wire) {
            self.inbox.lock().unwrap().push_back(wire);
        }
    }

    impl Device for Loopback {
        fn rank(&self) -> Rank {
            self.rank
        }
        fn nprocs(&self) -> usize {
            self.nprocs
        }
        fn send(&self, dst: Rank, wire: Wire) {
            if dst == self.rank {
                self.inbox.lock().unwrap().push_back(wire);
            } else {
                self.sent.lock().unwrap().push((dst, wire));
            }
        }
        fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>> {
            let wire = self.inbox.lock().unwrap().pop_front();
            assert!(
                wire.is_some() || wait != Wait::Forever,
                "loopback recv_blocking would deadlock: inbox empty"
            );
            Ok(wire)
        }
        fn lends_memory(&self) -> bool {
            self.lends
        }
        fn charge(&self, cost: Cost) {
            self.charges.lock().unwrap().push(cost);
        }
        fn now_ns(&self) -> u64 {
            0
        }
        fn defaults(&self) -> DeviceDefaults {
            self.defaults
        }
    }
}

#[cfg(test)]
mod tests {
    use super::loopback::Loopback;
    use super::*;
    use crate::error::MpiError;
    use crate::packet::Packet;

    #[test]
    fn a_wait_is_cut_to_the_shorter_and_pinned_once() {
        let within = |ms| Wait::Within(Duration::from_millis(ms));
        let ms = |n: u64| n * 1_000_000;
        // Cut by a timer at 0.25 s, a wait pinned at 0 ends at the earlier.
        let cut = |wait: Wait, timer: u64| Wait::left(wait.ends_at(|| 0).min(timer), 0);
        assert_eq!(cut(within(500), ms(250)), within(250));
        assert_eq!(cut(within(250), ms(500)), within(250));
        assert_eq!(cut(Wait::Forever, ms(250)), within(250));
        assert_eq!(cut(Wait::Forever, Wait::NEVER), Wait::Forever);
        assert_eq!(cut(Wait::Poll, ms(250)), Wait::Poll);
        // Pinned at 0.5 s, a 0.25 s wait has 0.125 s left at 0.625 s.
        let end = within(250).ends_at(|| ms(500));
        assert_eq!(Wait::left(end, ms(625)), within(125));
        assert_eq!(Wait::left(end, ms(750)), Wait::Poll);
        let never = || -> u64 { panic!("only a timed wait reads the clock") };
        assert_eq!(Wait::left(Wait::Poll.ends_at(never), 0), Wait::Poll);
        assert_eq!(Wait::left(Wait::Forever.ends_at(never), 0), Wait::Forever);
    }

    /// A device without hardware broadcast reports a typed error from the
    /// default `hw_bcast` instead of panicking.
    #[test]
    fn default_hw_bcast_is_a_typed_error() {
        let dev = Loopback::new(0, 2);
        assert!(!dev.has_hw_bcast());
        let res = dev.hw_bcast(&[1], Wire::bare(0, Packet::Credit));
        assert!(matches!(res, Err(MpiError::Unsupported { .. })), "{res:?}");
    }
}
