//! The protocol engine: one per rank, driving the hybrid eager/rendezvous
//! protocol of the paper over an abstract [`Device`].
//!
//! * messages at or below the eager threshold travel **with** their envelope
//!   (optimistic transfer, buffered at the receiver — low latency, extra
//!   copy);
//! * larger messages send the envelope first, wait for the receiver to match
//!   it, then move the data directly into the user buffer (high bandwidth,
//!   two extra network crossings);
//! * ready-mode sends always go eagerly, since the user asserts the receive
//!   is posted;
//! * flow control gates every envelope and every eagerly-sent byte, with
//!   credits returned piggybacked on reverse traffic.
//!
//! This module holds the state, the counters and the frame dispatcher
//! ([`Engine::handle_wire`]); `send`, `recv` and `failure` hold the rest,
//! each with its tests.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::bytes::Bytes;
use lmpi_sim::lock::Mutex;

use lmpi_obs::{EventKind, MsgId, Tracer};

use crate::datatype::MpiData;
use crate::device::{Cost, Device};
use crate::error::{MpiError, MpiResult};
use crate::flow::FlowControl;
use crate::matching::{MatchEngine, UnexpectedBody, UnexpectedMsg};
use crate::packet::{ContextId, Envelope, FramePool, Packet, Wire};
use crate::request::{Lease, RecvDest, ReqState, RequestTable};
use crate::types::{Rank, SendMode, SourceSel, Status, TagSel};

mod failure;
mod recv;
mod send;

lmpi_obs::json_struct! {
    /// Protocol event counters, used by the Table-1 experiment, the metrics
    /// snapshot exporter, and tests. Serializes to JSON via
    /// [`lmpi_obs::to_json`] (all fields are plain `u64`s; time-valued
    /// fields state their unit in the name and doc).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Eager (optimistic) messages transmitted.
        pub eager_sent: u64,
        /// Rendezvous envelopes transmitted.
        pub rndv_sent: u64,
        /// Rendezvous data frames transmitted (one per chunk; a payload
        /// within one chunk is one frame).
        pub rndv_chunks_sent: u64,
        /// Sends that had to queue behind flow control.
        pub sends_queued: u64,
        /// Synchronous-mode acknowledgments transmitted.
        pub acks_sent: u64,
        /// Explicit credit packets transmitted.
        pub credits_sent: u64,
        /// Payload bytes transmitted (all packet kinds).
        pub bytes_sent: u64,
        /// Payload bytes received.
        pub bytes_received: u64,
        /// Frames handled.
        pub wires_handled: u64,
        /// Ready-mode sends that found no posted receive (erroneous programs).
        pub rsend_errors: u64,
        /// High-water mark of the unexpected-message queue depth. Unit:
        /// messages (a gauge-style maximum, not a cumulative count).
        pub unexpected_hwm: u64,
        /// Cumulative time sends spent queued waiting for credit. Unit:
        /// nanoseconds on the device clock (virtual ns on simulated
        /// platforms, monotonic wall ns on real ones).
        pub credit_stall_ns: u64,
        /// Envelopes matched at this receiver, posted or unexpected. Filled in
        /// by [`crate::Mpi::counters`] from the matching engine.
        pub matches: u64,
        /// Matches satisfied from the unexpected queue. Filled in by
        /// [`crate::Mpi::counters`] from the matching engine.
        pub unexpected_hits: u64,
        /// High-water mark of simultaneously occupied matching bins (posted +
        /// unexpected hash bins; wildcard queue excluded). Unit: bins. Filled
        /// in by [`crate::Mpi::counters`] from the matching engine.
        pub match_bins_hwm: u64,
        /// Times the background progress thread woke up and advanced protocol
        /// state (handled at least one frame or peer-failure verdict). Zero
        /// on substrates without the thread, and near zero while callers
        /// block: a caller inside the library drains for itself.
        pub progress_wakeups: u64,
        /// Frames handled by the background progress thread (a subset of
        /// `wires_handled`; the rest were handled inline by blocked
        /// callers). Zero on substrates without the thread, near zero while
        /// callers block.
        pub progress_frames: u64,
        /// Times the payload staging pool grew a fresh allocation instead of
        /// reclaiming its pooled block (first stage, frames staged while older
        /// handles were alive, or a larger payload than ever before). A
        /// steady-state send loop — contiguous or typed gather-on-pack —
        /// holds this constant; the typed-transfer tests assert on it to
        /// prove the eager path performs zero intermediate heap staging.
        pub pool_grows: u64,
        /// Rendezvous payloads this rank, as receiver, copied straight out
        /// of the sender's lent buffer (one copy, no data frame). Over a
        /// job, `rndv_sent` summed is this summed plus the rendezvous
        /// sends that streamed chunks.
        pub rndv_pulled: u64,
    }
}

struct PendingSend {
    req_id: u64,
    /// Flight-recorder sequence number minted at `post_send`.
    msg_seq: u32,
    env: Envelope,
    mode: SendMode,
    needs_ack: bool,
    /// The staged payload; empty when `lease` stands for it.
    data: Bytes,
    /// The caller's buffer, lent instead of staged (rendezvous only). It
    /// has not left this engine while the send sits in `pending_out`.
    lease: Option<Arc<Lease>>,
}

struct RndvPayload {
    /// The staged payload; empty for a send that lent its buffer (the
    /// lease is in the request's [`ReqState::SendRndvWait`]).
    data: Bytes,
    /// Message length, staged or lent.
    len: usize,
    buffered: bool,
    /// Flight-recorder sequence number of the owning message.
    msg_seq: u32,
    /// Envelope tag, reported in the sender's completion status.
    tag: u32,
    /// Destination rank — the peer-failure sweep must find payloads
    /// parked waiting on a go-ahead that will never come.
    dst: Rank,
}

/// Sender-side state of an in-flight chunked rendezvous transfer: the
/// remainder of the payload still streaming to the receiver, window
/// permitting. Keyed by send request id in [`Engine::chunk_streams`].
struct ChunkStream {
    data: Bytes,
    /// Flight-recorder sequence number of the owning message.
    msg_seq: u32,
    /// First byte of the payload not yet transmitted.
    next_offset: usize,
    /// Receiver request id, echoed in every chunk.
    recv_id: u64,
    /// Receiving rank.
    dst: Rank,
    /// Completion status reported when the final chunk departs.
    status: Status,
}

/// Per-rank protocol state. All methods take `&mut self` plus the rank's
/// device; the device must never re-enter the engine.
pub(crate) struct Engine {
    my_rank: Rank,
    eager_threshold: usize,
    /// Largest rendezvous data segment per frame; a payload streams as
    /// `RndvChunk` segments of at most this size.
    rndv_chunk: usize,
    /// Chunks kept in flight before the sender waits for a chunk ack.
    rndv_window: u32,
    pub(crate) match_eng: MatchEngine,
    pub(crate) reqs: RequestTable,
    pub(crate) flow: FlowControl,
    /// Payloads awaiting a rendezvous go-ahead, keyed by send request id.
    /// `buffered` marks buffered-mode sends whose pool bytes are released
    /// only once the data actually leaves.
    rndv_store: HashMap<u64, RndvPayload>,
    /// Chunked rendezvous transfers mid-stream (go-ahead served, final
    /// chunk not yet transmitted), keyed by send request id.
    chunk_streams: HashMap<u64, ChunkStream>,
    /// Sends queued behind flow control, FIFO per destination.
    pending_out: Vec<VecDeque<PendingSend>>,
    /// Hardware-broadcast payloads not yet consumed: (context, seq, data).
    coll_bcasts: VecDeque<(ContextId, u64, Bytes)>,
    /// Next broadcast sequence number per collective context.
    bcast_seq: HashMap<ContextId, u64>,
    /// Next context id available for communicator creation.
    pub(crate) next_context: ContextId,
    /// Buffered-send pool state: (capacity, in_use); `None` = not attached.
    buffer_pool: Option<(usize, usize)>,
    /// Reusable staging pool for outgoing payload bytes (see [`FramePool`]).
    payload_pool: FramePool,
    /// Scratch buffer reused by `explicit_credit_returns` each tick.
    credit_scratch: Vec<Rank>,
    pub(crate) counters: Counters,
    /// Protocol-event tracer; disabled (a single-branch no-op) unless the
    /// user installs one via [`crate::Mpi::set_tracer`].
    pub(crate) tracer: Tracer,
    /// First ready-mode delivery error, surfaced by the next API call.
    pub(crate) pending_error: Option<MpiError>,
    /// Fatal transport error recorded by whichever thread was draining
    /// the device when it struck (a blocked caller, a polling call, or the
    /// background progress thread). Once set, every wait on this rank
    /// returns a clone: the thread that hit the error need not be the
    /// thread blocked on the result, so the error must be parked where
    /// waiters will find it. Stays `None` on virtual-time ranks, where
    /// transport errors surface directly from the blocking call.
    pub(crate) fatal: Option<MpiError>,
    /// Per-rank failure flags: `failed_ranks[r]` means rank `r` has been
    /// declared dead (transport liveness or agreement gossip). Failure is
    /// per-peer state — a dead rank never poisons healthy-peer traffic.
    failed_ranks: Vec<bool>,
    /// Revoked communicator contexts (both halves of each revoked pair).
    revoked: std::collections::HashSet<ContextId>,
    /// Next flight-recorder message number to mint (per-sender
    /// monotonic, starts at 1 — 0 is the "no message" sentinel).
    next_msg_seq: u32,
    /// Periodic metrics snapshot hook: `(interval_ns, next_due_ns,
    /// callback)`. Checked only on frame handling, so an unset hook
    /// costs one `Option` branch. The callback lives behind an
    /// `Arc<Mutex<_>>` so the driver can *snapshot under the engine
    /// lock but invoke after releasing it* — the hook may therefore
    /// call back into the owning `Mpi` handle.
    metrics_hook: Option<(u64, u64, Arc<Mutex<MetricsHookFn>>)>,
    /// Collective dispatch state: config pins, the decision table, and the
    /// per-(collective, algorithm) dispatch tally behind
    /// `lmpi_coll_dispatch_total`.
    pub(crate) coll: crate::coll::CollState,
}

/// Callback type for [`crate::Mpi::set_metrics_hook`].
pub(crate) type MetricsHookFn = Box<dyn FnMut(&crate::metrics::MetricsSnapshot) + Send>;

impl Engine {
    pub(crate) fn new(
        my_rank: Rank,
        nprocs: usize,
        eager_threshold: usize,
        env_slots: u32,
        recv_buf_per_sender: u64,
        rndv_chunk: usize,
        rndv_window: u32,
    ) -> Self {
        Engine {
            my_rank,
            eager_threshold,
            rndv_chunk: rndv_chunk.max(1),
            rndv_window: rndv_window.max(1),
            match_eng: MatchEngine::new(),
            reqs: RequestTable::new(),
            flow: FlowControl::new(nprocs, env_slots, recv_buf_per_sender),
            rndv_store: HashMap::new(),
            chunk_streams: HashMap::new(),
            pending_out: (0..nprocs).map(|_| VecDeque::new()).collect(),
            coll_bcasts: VecDeque::new(),
            bcast_seq: HashMap::new(),
            // 0 = world point-to-point, 1 = world collectives.
            next_context: 2,
            buffer_pool: None,
            payload_pool: FramePool::new(),
            credit_scratch: Vec::new(),
            counters: Counters::default(),
            tracer: Tracer::disabled(),
            pending_error: None,
            fatal: None,
            failed_ranks: vec![false; nprocs],
            revoked: std::collections::HashSet::new(),
            next_msg_seq: 1,
            metrics_hook: None,
            coll: Default::default(),
        }
    }

    /// The flight-recorder identity of a message this rank sourced.
    fn my_msg(&self, seq: u32) -> MsgId {
        MsgId {
            src: self.my_rank as u32,
            seq,
        }
    }

    /// Counters with the matching-engine tallies folded in — the full
    /// per-rank picture the snapshot exporter and [`crate::Mpi::counters`]
    /// both report.
    pub(crate) fn folded_counters(&self) -> Counters {
        let mut c = self.counters.clone();
        c.matches = self.match_eng.matches;
        c.unexpected_hits = self.match_eng.unexpected_hits;
        c.match_bins_hwm = self.match_eng.bins_hwm;
        c.pool_grows = self.payload_pool.grows();
        c
    }

    /// Install (or replace) the periodic snapshot hook: `cb` fires from
    /// frame handling whenever at least `every_ns` device-clock
    /// nanoseconds have passed since the previous firing.
    pub(crate) fn set_metrics_hook(&mut self, dev: &dyn Device, every_ns: u64, cb: MetricsHookFn) {
        let every_ns = every_ns.max(1);
        self.metrics_hook = Some((
            every_ns,
            dev.now_ns().saturating_add(every_ns),
            Arc::new(Mutex::new(cb)),
        ));
    }

    /// Build a point-in-time metrics snapshot.
    pub(crate) fn metrics_snapshot(&self, dev: &dyn Device) -> crate::metrics::MetricsSnapshot {
        crate::metrics::MetricsSnapshot::new(
            self.my_rank as u32,
            dev.now_ns(),
            self.folded_counters(),
            dev.transport_stats(),
        )
        .with_coll_dispatch(self.coll.dispatch_entries())
    }

    /// If the metrics hook is due, build its snapshot *now* (under the
    /// caller's engine lock, so the numbers are coherent) and hand back
    /// the callback for the caller to invoke **after releasing the
    /// lock**. An unset or not-yet-due hook costs one branch. The due
    /// time advances here, so concurrent callers fire at most one hook
    /// per interval.
    pub(crate) fn pending_snapshot(
        &mut self,
        dev: &dyn Device,
    ) -> Option<(crate::metrics::MetricsSnapshot, Arc<Mutex<MetricsHookFn>>)> {
        let (every_ns, next_due_ns, _) = self.metrics_hook.as_ref()?;
        let now = dev.now_ns();
        if now < *next_due_ns {
            return None;
        }
        let every_ns = *every_ns;
        let snap = self.metrics_snapshot(dev);
        let (_, next_due, cb) = self
            .metrics_hook
            .as_mut()
            .expect("checked Some above; no intervening mutation");
        *next_due = now.saturating_add(every_ns);
        Some((snap, Arc::clone(cb)))
    }

    pub(crate) fn eager_threshold(&self) -> usize {
        self.eager_threshold
    }

    /// Encode a typed payload into the engine's reusable staging pool.
    /// Steady state (previous payload delivered and dropped) is
    /// allocation-free; see [`FramePool`].
    pub(crate) fn stage_payload<T: MpiData>(&mut self, buf: &[T]) -> Bytes {
        self.payload_pool.stage(buf)
    }

    /// Gather a flattened datatype's runs out of `memory` straight into
    /// the reusable staging pool — the typed send path's packing step:
    /// no intermediate `Vec`, allocation-free once warm. The caller must
    /// have validated `flat.fits(memory.len())`.
    pub(crate) fn stage_gather(&mut self, flat: &crate::dtype::FlatLayout, memory: &[u8]) -> Bytes {
        self.payload_pool.stage_gather(flat, memory)
    }

    /// Attach piggybacked credit returns and hand the frame to the device.
    ///
    /// `msg_seq` is the flight-recorder sequence of the message this frame
    /// serves (0 for frames that belong to no message, e.g. explicit
    /// credit returns). For reply packets (`RndvGo`, `EagerAck`) it names
    /// the *destination's* message — see [`Wire::msg_id`].
    fn transmit(&mut self, dev: &dyn Device, dst: Rank, pkt: Packet, msg_seq: u32) {
        let (env_credit, data_credit) = self.flow.take_owed(dst);
        dev.send(
            dst,
            Wire {
                src: self.my_rank,
                seq: 0, // sequenced (if at all) by the reliability sublayer
                ack: 0,
                ack_bits: 0,
                env_credit,
                data_credit,
                msg_seq,
                pkt,
            },
        );
    }

    /// Process one received frame.
    ///
    /// `Err` means the frame is impossible under the FIFO-ordered,
    /// loss-free delivery the engine assumes of its device — evidence the
    /// transport dropped, duplicated or reordered frames with no
    /// reliability sublayer underneath. The error is typed
    /// ([`MpiError::Transport`]) so the rank fails instead of panicking.
    pub(crate) fn handle_wire(&mut self, dev: &dyn Device, wire: Wire) -> MpiResult<()> {
        // Validate the wire-supplied source rank before it indexes any
        // per-peer table (flow ledger, pending queues): a corrupt or
        // malicious frame must be a typed error, not a panic.
        let nprocs = self.pending_out.len();
        if wire.src >= nprocs {
            return Err(MpiError::transport(format!(
                "frame claims source rank {} but the job has {nprocs} ranks (corrupt frame?)",
                wire.src
            )));
        }
        // Zombie frames — buffered in the fabric before the source was
        // declared dead — are dropped whole, so a failed rank can never
        // re-enter matching structures or the flow ledger.
        if self.failed_ranks[wire.src] {
            return Ok(());
        }
        self.counters.wires_handled += 1;
        // Resolve the frame's flight-recorder identity before `wire.pkt`
        // is moved below: reply packets name *our* message, forward
        // packets the sender's (see `Wire::msg_id`).
        let wmsg = wire.msg_id(self.my_rank);
        self.tracer.emit_msg_with(
            wmsg,
            || dev.now_ns(),
            EventKind::WireRx {
                peer: wire.src as u32,
                kind: wire.pkt.obs_kind(),
            },
        );
        self.flow
            .receive_return(wire.src, wire.env_credit, wire.data_credit);
        match wire.pkt {
            Packet::Eager {
                env,
                send_id,
                needs_ack,
                ready,
                data,
            } => {
                let body = UnexpectedBody::Eager {
                    data,
                    send_id,
                    needs_ack,
                };
                let msg = UnexpectedMsg {
                    env,
                    msg_seq: wire.msg_seq,
                    body,
                };
                self.handle_envelope(dev, wire.src, msg, ready)?;
            }
            Packet::RndvReq {
                env,
                send_id,
                lease,
            } => {
                let msg = UnexpectedMsg {
                    env,
                    msg_seq: wire.msg_seq,
                    body: UnexpectedBody::Rndv { send_id, lease },
                };
                self.handle_envelope(dev, wire.src, msg, false)?;
            }
            Packet::RndvGo { send_id, recv_id } => {
                self.handle_go(dev, wire.src, send_id, recv_id)?
            }
            // Wire vocabulary only — no sender in this library builds it —
            // but a peer that does means one complete chunk.
            Packet::RndvData { recv_id, data } => {
                let total = data.len();
                self.handle_chunk(dev, wire.src, wmsg, recv_id, 0, total, data)?;
            }
            Packet::RndvChunk {
                recv_id,
                offset,
                total,
                data,
            } => {
                self.handle_chunk(dev, wire.src, wmsg, recv_id, offset, total, data)?;
            }
            Packet::RndvChunkAck { send_id } => {
                // Unknown ids are expected, not an error: the final chunk
                // is never acked, so the last few acks of a stream always
                // arrive after the sender already completed and forgot it.
                if let Some(stream) = self.chunk_streams.remove(&send_id) {
                    self.pump_stream(dev, send_id, stream, 1);
                }
            }
            Packet::EagerAck { send_id } => {
                self.tracer.emit_msg_with(
                    wmsg,
                    || dev.now_ns(),
                    EventKind::AckRx {
                        peer: wire.src as u32,
                    },
                );
                // Idempotent: a duplicated frame (lossy device, reliability
                // off) can re-deliver the ack after the send completed —
                // only complete a send that is actually waiting, and report
                // the real envelope fields stashed at transmission.
                if let Some(ReqState::SendAckWait { status }) = self.reqs.get(send_id) {
                    let status = *status;
                    self.reqs.complete(send_id, Ok(status));
                }
            }
            Packet::Credit => {
                // Credits were applied above; nothing else to do.
            }
            Packet::Heartbeat => {
                // Keepalives are consumed by the reliability sublayer; one
                // reaching the engine (reliability disabled, hand-crafted
                // frame) carries nothing beyond the credits applied above.
            }
            Packet::Revoke { context } => {
                self.tracer.emit_with(
                    || dev.now_ns(),
                    EventKind::RevokeRx {
                        peer: wire.src as u32,
                    },
                );
                self.mark_revoked(context);
            }
            Packet::HwBcast {
                context, seq, data, ..
            } => {
                self.coll_bcasts.push_back((context, seq, data));
            }
        }
        self.flush_pending(dev)?;
        self.explicit_credit_returns(dev);
        // The metrics hook is NOT fired here: `handle_wire` always runs
        // under the engine lock, and the hook must be invoked outside it
        // (see `pending_snapshot`). The drivers in `mpi.rs` check after
        // they release the lock.
        Ok(())
    }

    /// Send explicit credit packets to peers owed above threshold. Runs on
    /// every progress tick, so the rank list goes through a reused scratch
    /// buffer instead of a fresh allocation.
    fn explicit_credit_returns(&mut self, dev: &dyn Device) {
        let mut scratch = std::mem::take(&mut self.credit_scratch);
        self.flow.peers_needing_explicit_return(&mut scratch);
        for &peer in &scratch {
            self.counters.credits_sent += 1;
            self.tracer
                .emit_with(|| dev.now_ns(), EventKind::CreditTx { peer: peer as u32 });
            self.transmit(dev, peer, Packet::Credit, 0);
        }
        self.credit_scratch = scratch;
    }

    /// Allocate the next broadcast sequence number on `context`.
    pub(crate) fn next_bcast_seq(&mut self, context: ContextId) -> u64 {
        let seq = self.bcast_seq.entry(context).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    /// Take a received hardware-broadcast payload for `(context, seq)`.
    pub(crate) fn take_coll_bcast(&mut self, context: ContextId, seq: u64) -> Option<Bytes> {
        let idx = self
            .coll_bcasts
            .iter()
            .position(|(c, s, _)| *c == context && *s == seq)?;
        self.coll_bcasts.remove(idx).map(|(_, _, d)| d)
    }
}

#[cfg(test)]
mod testkit {
    //! What the unit tests of every engine module share.

    use super::*;
    pub(super) use crate::device::loopback::Loopback;

    /// Defaults matching [`Loopback`]: 180-byte threshold, 256-byte chunks,
    /// 2-chunk pipeline window — small enough that unit tests exercise the
    /// chunked path with kilobyte payloads.
    pub(super) fn engine(rank: Rank, n: usize) -> Engine {
        Engine::new(rank, n, 180, 4, 1 << 16, 256, 2)
    }

    pub(super) fn dest(buf: &mut [u8]) -> RecvDest {
        RecvDest::contiguous(buf.as_mut_ptr(), buf.len())
    }

    /// [`Engine::post_send_slice`] for tests, made safe by the payload's
    /// lifetime (`Vec::leak` gives a test one).
    pub(super) fn post_slice<T: MpiData>(
        e: &mut Engine,
        dev: &Loopback,
        tag: u32,
        buf: &'static [T],
        mode: SendMode,
    ) -> u64 {
        // SAFETY: `'static`: the bytes outlive every lease on them.
        unsafe { e.post_send_slice(dev, 1, tag, 0, buf, mode) }.unwrap()
    }

    /// Move every frame rank-`a` sent to rank-`b`'s engine, and vice versa,
    /// until quiescent.
    pub(super) fn pump(a: &mut Engine, da: &Loopback, b: &mut Engine, db: &Loopback) {
        pump_kinds(a, da, b, db);
    }

    /// [`pump`], returning the packet kinds each side sent, in order.
    pub(super) fn pump_kinds(
        a: &mut Engine,
        da: &Loopback,
        b: &mut Engine,
        db: &Loopback,
    ) -> (Vec<&'static str>, Vec<&'static str>) {
        let (mut from_a, mut from_b) = (Vec::new(), Vec::new());
        loop {
            let out_a: Vec<_> = da.sent.lock().unwrap().drain(..).collect();
            let out_b: Vec<_> = db.sent.lock().unwrap().drain(..).collect();
            if out_a.is_empty() && out_b.is_empty() {
                return (from_a, from_b);
            }
            for (dst, wire) in out_a {
                assert_eq!(dst, b.my_rank);
                from_a.push(wire.pkt.kind_name());
                b.handle_wire(db, wire).unwrap();
            }
            for (dst, wire) in out_b {
                assert_eq!(dst, a.my_rank);
                from_b.push(wire.pkt.kind_name());
                a.handle_wire(da, wire).unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

    #[test]
    fn tracer_records_protocol_events_in_order() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        e0.tracer = Tracer::enabled(0, 64);
        e1.tracer = Tracer::enabled(1, 64);

        let mut buf = [0u8; 2];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(&d0, 1, 7, 0, Bytes::from_static(b"hi"), SendMode::Standard)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);

        let sender: Vec<&str> = e0
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(sender, vec!["SendPosted", "EagerTx"]);
        let receiver: Vec<&str> = e1
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            receiver,
            vec!["RecvPosted", "WireRx", "EnvelopeMatched", "Delivered"]
        );
    }

    #[test]
    fn rendezvous_trace_covers_all_three_legs() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        e0.tracer = Tracer::enabled(0, 64);
        e1.tracer = Tracer::enabled(1, 64);

        // 200 bytes: above the 180-byte threshold, within one 256-byte
        // chunk — a one-chunk stream (the seed protocol's single frame).
        let mut buf = vec![0u8; 200];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from(vec![5u8; 200]),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);

        let sender: Vec<&str> = e0
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            sender,
            vec!["SendPosted", "RndvReqTx", "WireRx", "RndvGoRx", "DmaStart"]
        );
        let receiver: Vec<&str> = e1
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            receiver,
            vec![
                "RecvPosted",
                "WireRx",
                "EnvelopeMatched",
                "RndvGoTx",
                "WireRx",
                "DmaEnd",
                "Delivered"
            ]
        );
    }

    #[test]
    fn credit_piggybacks_on_reverse_traffic() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        // 0 -> 1 eager; 1 posts recv; 1 then sends to 0 — that frame must
        // carry the envelope + data credit back.
        let mut buf = [0u8; 4];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from_static(b"data"),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let before_env = e0.flow.env_available(1);

        e1.post_send(&d1, 0, 0, 0, Bytes::from_static(b"r"), SendMode::Standard)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(
            e0.flow.env_available(1) > before_env,
            "reverse traffic must return credit"
        );
    }

    #[test]
    fn bcast_seq_and_store() {
        let mut e = engine(0, 2);
        assert_eq!(e.next_bcast_seq(1), 0);
        assert_eq!(e.next_bcast_seq(1), 1);
        assert_eq!(e.next_bcast_seq(3), 0);
        let d = Loopback::new(0, 2);
        e.handle_wire(
            &d,
            Wire::bare(
                1,
                Packet::HwBcast {
                    context: 1,
                    root: 1,
                    seq: 1,
                    data: Bytes::from_static(b"zz"),
                },
            ),
        )
        .unwrap();
        assert!(e.take_coll_bcast(1, 0).is_none());
        assert_eq!(e.take_coll_bcast(1, 1).unwrap().as_ref(), b"zz");
        assert!(e.take_coll_bcast(1, 1).is_none(), "consumed");
    }

    /// Fuzz-style sweep of wire-supplied ranks: every out-of-range source
    /// must surface as a typed transport error before it can index any
    /// per-peer table — no panic, in debug *or* release (release matters:
    /// slice indexing is the only guard the flow ledger used to have).
    #[test]
    fn out_of_range_wire_src_is_a_typed_error() {
        let d = Loopback::new(0, 2);
        let mut e = engine(0, 2);
        for src in [2usize, 3, 64, 1 << 20, usize::MAX] {
            let err = e
                .handle_wire(&d, Wire::bare(src, Packet::Credit))
                .expect_err("out-of-range rank must be rejected");
            assert!(
                matches!(err, MpiError::Transport { .. }),
                "expected Transport, got {err:?}"
            );
        }
        // In-range frames still work afterwards.
        e.handle_wire(&d, Wire::bare(1, Packet::Credit)).unwrap();
        assert_eq!(e.counters.wires_handled, 1, "rejected frames not counted");
    }
}
