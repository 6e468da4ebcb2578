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
//! `try_recv` from two threads would let handling race and break FIFO.

use crate::error::MpiResult;
use crate::packet::Wire;
use crate::types::Rank;
use lmpi_obs::{secs_to_ns, Tracer};

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

lmpi_obs::json_struct! {
    /// Cumulative reliability and fault-injection statistics surfaced by a
    /// device stack. Layered devices (`ReliableDevice` over `FaultyDevice`
    /// over a base transport) merge their own tallies with their inner
    /// device's, so [`crate::Mpi::transport_stats`] sees the whole stack.
    /// All fields are cumulative frame counts; serializes to JSON via
    /// [`lmpi_obs::to_json`] for the metrics snapshot exporter.
    #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
    pub struct TransportStats {
        /// Data frames accepted for (first) transmission by a reliability layer.
        pub data_frames_sent: u64,
        /// Frames resent by the reliability layer's retransmission.
        pub retransmits: u64,
        /// Duplicate arrivals suppressed by sequence checking.
        pub dup_suppressed: u64,
        /// Out-of-order arrivals dropped: everything past the next expected
        /// frame under go-back-N, only frames beyond the reorder window
        /// under selective repeat (the default), which buffers the rest.
        pub ooo_dropped: u64,
        /// Pure (non-piggybacked) acknowledgement frames sent.
        pub pure_acks_sent: u64,
        /// Partial frames evicted from a fragment-reassembly buffer to bound
        /// per-peer memory (UDP transport).
        pub reassembly_evicted: u64,
        /// Frames deliberately dropped by fault injection.
        pub faults_dropped: u64,
        /// Frames deliberately duplicated by fault injection.
        pub faults_duplicated: u64,
        /// Frames deliberately reordered by fault injection.
        pub faults_reordered: u64,
        /// Frames deliberately delayed by fault injection.
        pub faults_delayed: u64,
        /// Liveness keepalive frames sent on idle peer links.
        pub heartbeats_sent: u64,
        /// Peers the liveness state machine has moved from Alive to Suspect
        /// (cumulative; a peer that recovers and is re-suspected counts again).
        pub peers_suspected: u64,
        /// Peers declared dead (terminal; each peer counts at most once).
        pub peers_dead: u64,
    }
}

impl TransportStats {
    /// Sum of this layer's tallies and `inner`'s, field by field.
    pub fn merged(self, inner: TransportStats) -> TransportStats {
        TransportStats {
            data_frames_sent: self.data_frames_sent + inner.data_frames_sent,
            retransmits: self.retransmits + inner.retransmits,
            dup_suppressed: self.dup_suppressed + inner.dup_suppressed,
            ooo_dropped: self.ooo_dropped + inner.ooo_dropped,
            pure_acks_sent: self.pure_acks_sent + inner.pure_acks_sent,
            reassembly_evicted: self.reassembly_evicted + inner.reassembly_evicted,
            faults_dropped: self.faults_dropped + inner.faults_dropped,
            faults_duplicated: self.faults_duplicated + inner.faults_duplicated,
            faults_reordered: self.faults_reordered + inner.faults_reordered,
            faults_delayed: self.faults_delayed + inner.faults_delayed,
            heartbeats_sent: self.heartbeats_sent + inner.heartbeats_sent,
            peers_suspected: self.peers_suspected + inner.peers_suspected,
            peers_dead: self.peers_dead + inner.peers_dead,
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

    /// Non-blocking poll for the next received frame. `Err` means the
    /// transport itself failed (peer disconnect mid-frame, corrupt framing,
    /// retransmission exhausted) and the rank should surface a typed
    /// [`crate::MpiError`] instead of panicking.
    fn try_recv(&self) -> MpiResult<Option<Wire>>;

    /// Block until a frame arrives and return it, or report a transport
    /// failure. The default polls [`Device::try_recv`] and yields between
    /// polls, which also keeps a wrapper's pumps (retransmit timers,
    /// delayed-fault flushes) running; transports that can park override
    /// it.
    fn recv_blocking(&self) -> MpiResult<Wire> {
        loop {
            if let Some(w) = self.try_recv()? {
                return Ok(w);
            }
            std::thread::yield_now();
        }
    }

    /// Wait up to `timeout` for the next frame; `Ok(None)` on timeout.
    /// This is where a draining caller and the idle background progress
    /// thread wait on a real transport: it must park the calling thread
    /// (or at worst sleep in short slices) rather than spin, and it must
    /// keep any reliability-sublayer pumps (retransmit timers, heartbeats,
    /// delayed-fault flushes) running. The default does both for devices
    /// that pump from `try_recv` or poll a nonblocking socket: a
    /// sleep-sliced `try_recv` loop. No virtual-time device reaches it
    /// ([`Device::supports_background_progress`] is false there).
    fn recv_timeout(&self, timeout: std::time::Duration) -> MpiResult<Option<Wire>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(w) = self.try_recv()? {
                return Ok(Some(w));
            }
            if std::time::Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
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

    /// Elapsed time in seconds (virtual on simulated transports, wall-clock
    /// on real ones) — `MPI_Wtime`.
    fn wtime(&self) -> f64;

    /// Elapsed nanoseconds on the same clock as [`Device::wtime`]. This is
    /// the timestamp source for protocol tracing; the default derives it
    /// from `wtime()`, which every device already implements for both
    /// virtual and wall-clock time.
    fn now_ns(&self) -> u64 {
        secs_to_ns(self.wtime())
    }

    /// Install a tracer for *device-level* events (wire tx, retransmits,
    /// injected faults). Called before the device is moved into
    /// [`crate::Mpi::new`]; the default discards the tracer, so transports
    /// without device-level emission need no code. Engine-level events are
    /// installed separately via [`crate::Mpi::set_tracer`].
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Cumulative reliability / fault-injection statistics for this device
    /// stack (zeroes for transports with neither layer).
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Live wall-time accounting cells for any service threads this
    /// device stack owns (e.g. the real-TCP mesh-reader thread), as
    /// `(thread role, health)` pairs. Wrapper devices forward to the
    /// wrapped transport. The default — no service threads — returns
    /// nothing. Surfaced through [`crate::Mpi::health`] next to the
    /// engine's progress-thread accounting.
    fn thread_health(&self) -> Vec<(String, std::sync::Arc<lmpi_obs::ThreadHealth>)> {
        Vec::new()
    }

    /// Whether this device stack can declare peers dead (a reliability
    /// layer with retransmission limits or heartbeats). When true, the
    /// engine's blocking progress loop polls [`Device::take_failed_peer`]
    /// instead of parking in `recv_blocking`, so a peer death completes
    /// pending requests promptly.
    fn detects_failures(&self) -> bool {
        false
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
        fn try_recv(&self) -> MpiResult<Option<Wire>> {
            Ok(self.inbox.lock().unwrap().pop_front())
        }
        fn recv_blocking(&self) -> MpiResult<Wire> {
            Ok(self
                .try_recv()?
                .expect("loopback recv_blocking would deadlock: inbox empty"))
        }
        fn lends_memory(&self) -> bool {
            self.lends
        }
        fn charge(&self, cost: Cost) {
            self.charges.lock().unwrap().push(cost);
        }
        fn wtime(&self) -> f64 {
            0.0
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
