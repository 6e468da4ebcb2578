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
use crate::request::{RecvDest, ReqState, RequestTable};
use crate::types::{Rank, SendMode, SourceSel, Status, TagSel};

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
        /// Pipelined rendezvous data chunks transmitted (zero when every
        /// rendezvous payload fit a single `RndvData` frame).
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
    }
}

struct PendingSend {
    req_id: u64,
    /// Flight-recorder sequence number minted at `post_send`.
    msg_seq: u32,
    env: Envelope,
    mode: SendMode,
    needs_ack: bool,
    data: Bytes,
}

struct RndvPayload {
    data: Bytes,
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
    /// Largest rendezvous data segment per frame; payloads above this
    /// stream as pipelined `RndvChunk` segments.
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

/// Reject payloads whose length cannot ride the wire. Envelope lengths and
/// rendezvous chunk offsets are transmitted as `u32`, so a payload of
/// `u32::MAX` bytes or more would silently truncate its chunk offsets on
/// the receiver; such sends fail at post time with a typed error instead.
/// (Checked here rather than at the chunking site so the whole protocol —
/// eager, single-frame rendezvous, chunked streams — shares one bound.)
pub(crate) fn validate_send_len(len: usize) -> MpiResult<()> {
    if len as u64 >= u32::MAX as u64 {
        Err(MpiError::Unsupported {
            what: format!(
                "message of {len} bytes: payload lengths and chunk offsets \
                 ride the wire as u32, so sends are limited to {} bytes",
                u32::MAX - 1
            ),
        })
    } else {
        Ok(())
    }
}

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

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Post a send of `data` to global rank `dst`. Returns the request id.
    /// Standard, buffered and ready sends complete immediately (the payload
    /// is copied); synchronous sends complete when matched.
    ///
    /// Payloads whose length does not fit `u32` are rejected with a typed
    /// [`MpiError::Unsupported`] (see [`validate_send_len`]).
    pub(crate) fn post_send(
        &mut self,
        dev: &dyn Device,
        dst: Rank,
        tag: u32,
        context: ContextId,
        data: Bytes,
        mode: SendMode,
    ) -> MpiResult<u64> {
        if self.is_failed(dst) {
            return Err(MpiError::peer_failed(
                dst,
                "send posted to a rank already declared dead",
            ));
        }
        validate_send_len(data.len())?;
        if mode == SendMode::Buffered {
            self.buffer_reserve(data.len())?;
        }
        let env = Envelope {
            src: self.my_rank,
            tag,
            context,
            len: data.len(),
        };
        let needs_ack = mode == SendMode::Synchronous;
        // Buffered sends complete at post (the attached buffer now owns the
        // payload); every other mode completes no earlier than the moment
        // the message is actually handed to the device, so a blocking send
        // cannot return — and the program cannot exit — with the message
        // still queued behind flow control.
        let req_id = self.reqs.alloc(if mode == SendMode::Buffered {
            ReqState::Done(Ok(Status {
                source: dst,
                tag,
                len: data.len(),
            }))
        } else {
            ReqState::SendQueued
        });
        // Mint the flight-recorder identity: per-sender monotonic,
        // starting at 1 (0 is the "no message" sentinel, skipped on the
        // astronomically distant wrap).
        let msg_seq = self.next_msg_seq;
        self.next_msg_seq = self.next_msg_seq.wrapping_add(1).max(1);
        self.tracer.emit_msg_with(
            self.my_msg(msg_seq),
            || dev.now_ns(),
            EventKind::SendPosted {
                peer: dst as u32,
                bytes: env.len as u32,
                tag,
            },
        );
        let pending = PendingSend {
            req_id,
            msg_seq,
            env,
            mode,
            needs_ack,
            data,
        };
        if self.pending_out[dst].is_empty() && self.can_transmit(dst, &pending) {
            self.transmit_send(dev, dst, pending)?;
        } else {
            self.counters.sends_queued += 1;
            self.flow.stalls += 1;
            self.flow.stall_started(dst, dev.now_ns());
            self.tracer.emit_msg_with(
                self.my_msg(msg_seq),
                || dev.now_ns(),
                EventKind::CreditStall { peer: dst as u32 },
            );
            self.pending_out[dst].push_back(pending);
        }
        Ok(req_id)
    }

    fn is_eager(&self, p: &PendingSend) -> bool {
        p.mode == SendMode::Ready || p.env.len <= self.eager_threshold
    }

    fn can_transmit(&self, dst: Rank, p: &PendingSend) -> bool {
        if self.is_eager(p) {
            self.flow.can_eager(dst, p.env.len)
        } else {
            self.flow.can_rndv(dst)
        }
    }

    /// `Err` only on a flow-accounting invariant violation
    /// ([`MpiError::Internal`]): callers check `can_*` before calling.
    fn transmit_send(&mut self, dev: &dyn Device, dst: Rank, p: PendingSend) -> MpiResult<()> {
        let PendingSend {
            req_id,
            msg_seq,
            env,
            mode,
            needs_ack,
            data,
        } = p;
        let len = env.len;
        let tag = env.tag;
        if mode == SendMode::Ready || len <= self.eager_threshold {
            self.flow.spend_eager(dst, len)?;
            self.counters.eager_sent += 1;
            self.counters.bytes_sent += len as u64;
            match mode {
                SendMode::Synchronous => self.reqs.set(
                    req_id,
                    ReqState::SendAckWait {
                        status: Status {
                            source: dst,
                            tag,
                            len,
                        },
                    },
                ),
                SendMode::Buffered => {} // completed at post
                SendMode::Standard | SendMode::Ready => self.reqs.complete(
                    req_id,
                    Ok(Status {
                        source: dst,
                        tag,
                        len,
                    }),
                ),
            }
            self.tracer.emit_msg_with(
                self.my_msg(msg_seq),
                || dev.now_ns(),
                EventKind::EagerTx {
                    peer: dst as u32,
                    bytes: len as u32,
                },
            );
            let pkt = Packet::Eager {
                env,
                send_id: req_id,
                needs_ack,
                ready: mode == SendMode::Ready,
                data,
            };
            self.transmit(dev, dst, pkt, msg_seq);
        } else {
            self.flow.spend_rndv(dst)?;
            self.counters.rndv_sent += 1;
            self.rndv_store.insert(
                req_id,
                RndvPayload {
                    data,
                    msg_seq,
                    buffered: mode == SendMode::Buffered,
                    tag,
                    dst,
                },
            );
            // Every non-buffered rendezvous send — standard included —
            // completes only once the receiver's go-ahead has been served:
            // the sender must stay in the library to push the data.
            if mode != SendMode::Buffered {
                self.reqs.set(req_id, ReqState::SendRndvWait);
            }
            self.tracer.emit_msg_with(
                self.my_msg(msg_seq),
                || dev.now_ns(),
                EventKind::RndvReqTx {
                    peer: dst as u32,
                    bytes: len as u32,
                },
            );
            let pkt = Packet::RndvReq {
                env,
                send_id: req_id,
            };
            self.transmit(dev, dst, pkt, msg_seq);
        }
        if mode == SendMode::Buffered && len <= self.eager_threshold {
            // Eager transmission: the payload has left; release pool bytes.
            // (Rendezvous buffered sends release in the RndvGo handler.)
            self.buffer_release(len);
        }
        Ok(())
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

    /// Transmit the next chunk of an in-flight rendezvous stream. Returns
    /// `true` when that was the final chunk (the stream is exhausted).
    /// Chunks spend no flow-control credit: the whole message was charged
    /// once, at envelope time.
    fn send_next_chunk(&mut self, dev: &dyn Device, stream: &mut ChunkStream) -> bool {
        let total = stream.data.len();
        let offset = stream.next_offset;
        let end = offset.saturating_add(self.rndv_chunk).min(total);
        let chunk = stream.data.slice(offset..end);
        stream.next_offset = end;
        self.counters.rndv_chunks_sent += 1;
        self.transmit(
            dev,
            stream.dst,
            Packet::RndvChunk {
                recv_id: stream.recv_id,
                offset,
                total,
                data: chunk,
            },
            stream.msg_seq,
        );
        end == total
    }

    /// Complete a rendezvous send whose data has fully left, reporting the
    /// real envelope status. Buffered-mode sends already completed at post
    /// and are left alone.
    fn complete_rndv_send(&mut self, send_id: u64, status: Status) {
        if matches!(self.reqs.get(send_id), Some(ReqState::SendRndvWait)) {
            self.reqs.complete(send_id, Ok(status));
        }
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Post a receive into `dst`. `src` uses global ranks. Returns the
    /// request id; the request may complete immediately if a matching
    /// message already arrived.
    pub(crate) fn post_recv(
        &mut self,
        dev: &dyn Device,
        dst: RecvDest,
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    ) -> u64 {
        // A receive naming a dead source can never be satisfied: allocate
        // the request and complete it immediately with the typed failure
        // (`ANY_SOURCE` receives stay live — another rank may satisfy them).
        if let SourceSel::Rank(s) = src {
            if self.is_failed(s) {
                return self.reqs.alloc(ReqState::Done(Err(MpiError::peer_failed(
                    s,
                    "receive posted naming a rank already declared dead",
                ))));
            }
        }
        let req_id = self.reqs.alloc(ReqState::RecvPosted { dst: dst.clone() });
        self.tracer.emit_with(
            || dev.now_ns(),
            EventKind::RecvPosted {
                tag: match tag {
                    TagSel::Tag(t) => t,
                    TagSel::Any => u32::MAX,
                },
            },
        );
        if let Some(msg) = self.match_eng.match_posted(req_id, src, tag, context) {
            self.tracer.emit_msg_with(
                MsgId {
                    src: msg.env.src as u32,
                    seq: msg.msg_seq,
                },
                || dev.now_ns(),
                EventKind::EnvelopeMatched {
                    peer: msg.env.src as u32,
                    bytes: msg.env.len as u32,
                    unexpected: true,
                },
            );
            self.consume_match(dev, req_id, dst, msg);
            // The bounce bytes this freed may be exactly what the sender
            // is stalled on; then no frame will arrive from it to carry the
            // return, so it must go out from here.
            self.explicit_credit_returns(dev);
        }
        req_id
    }

    /// A matched unexpected message: finish the eager delivery or launch the
    /// rendezvous reply.
    fn consume_match(&mut self, dev: &dyn Device, req_id: u64, dst: RecvDest, msg: UnexpectedMsg) {
        dev.charge(Cost::Match);
        let env = msg.env;
        let wmsg = MsgId {
            src: env.src as u32,
            seq: msg.msg_seq,
        };
        match msg.body {
            UnexpectedBody::Eager {
                data,
                send_id,
                needs_ack,
            } => {
                dev.charge(Cost::BufferedCopy(data.len()));
                // SAFETY: `dst` upholds the RecvDest contract (buffer borrow
                // held by the owning Request; single-threaded engine).
                let delivered = unsafe { dst.deliver(&data) };
                self.counters.bytes_received += data.len() as u64;
                self.flow.owe_data(env.src, data.len());
                let result = delivered.map(|n| Status {
                    source: env.src,
                    tag: env.tag,
                    len: n,
                });
                self.reqs.complete(req_id, result);
                self.tracer.emit_msg_with(
                    wmsg,
                    || dev.now_ns(),
                    EventKind::Delivered {
                        peer: env.src as u32,
                        bytes: env.len as u32,
                    },
                );
                if needs_ack {
                    self.transmit(dev, env.src, Packet::EagerAck { send_id }, msg.msg_seq);
                    self.counters.acks_sent += 1;
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::AckTx {
                            peer: env.src as u32,
                        },
                    );
                }
            }
            UnexpectedBody::Rndv { send_id } => {
                let status = Status {
                    source: env.src,
                    tag: env.tag,
                    len: env.len,
                };
                self.reqs.set(
                    req_id,
                    ReqState::RecvRndvWait {
                        dst,
                        status,
                        send_id,
                        received: 0,
                    },
                );
                self.tracer.emit_msg_with(
                    wmsg,
                    || dev.now_ns(),
                    EventKind::RndvGoTx {
                        peer: env.src as u32,
                    },
                );
                self.transmit(
                    dev,
                    env.src,
                    Packet::RndvGo {
                        send_id,
                        recv_id: req_id,
                    },
                    msg.msg_seq,
                );
            }
        }
    }

    /// Probe the unexpected queue (non-consuming).
    pub(crate) fn probe(&self, src: SourceSel, tag: TagSel, context: ContextId) -> Option<Status> {
        self.match_eng.probe(src, tag, context).map(|u| Status {
            source: u.env.src,
            tag: u.env.tag,
            len: u.env.len,
        })
    }

    // ------------------------------------------------------------------
    // Incoming frames
    // ------------------------------------------------------------------

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
                // The envelope source must also be in range (it normally
                // equals `wire.src`, but hand-crafted frames may disagree).
                if env.src >= nprocs {
                    return Err(MpiError::transport_peer(
                        wire.src,
                        format!(
                            "eager envelope claims source rank {} of {nprocs} (corrupt frame?)",
                            env.src
                        ),
                    ));
                }
                // The envelope slot is freed as soon as the envelope is
                // copied into matching structures — i.e. now.
                self.flow.owe_env(env.src);
                if let Some(posted) = self.match_eng.match_incoming(&env) {
                    dev.charge(Cost::Match);
                    dev.charge(Cost::PostedCopy(data.len()));
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::EnvelopeMatched {
                            peer: env.src as u32,
                            bytes: env.len as u32,
                            unexpected: false,
                        },
                    );
                    let dst = match self.reqs.get(posted.recv_id) {
                        Some(ReqState::RecvPosted { dst }) => dst.clone(),
                        other => {
                            return Err(MpiError::transport_peer(
                                env.src,
                                format!(
                                    "eager frame matched recv {} in state {other:?} \
                                     (duplicated or reordered frame?)",
                                    posted.recv_id
                                ),
                            ));
                        }
                    };
                    // SAFETY: RecvDest contract (see `consume_match`).
                    let delivered = unsafe { dst.deliver(&data) };
                    self.counters.bytes_received += data.len() as u64;
                    self.flow.owe_data(env.src, data.len());
                    let result = delivered.map(|n| Status {
                        source: env.src,
                        tag: env.tag,
                        len: n,
                    });
                    self.reqs.complete(posted.recv_id, result);
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::Delivered {
                            peer: env.src as u32,
                            bytes: env.len as u32,
                        },
                    );
                    if needs_ack {
                        self.transmit(dev, env.src, Packet::EagerAck { send_id }, wire.msg_seq);
                        self.counters.acks_sent += 1;
                        self.tracer.emit_msg_with(
                            wmsg,
                            || dev.now_ns(),
                            EventKind::AckTx {
                                peer: env.src as u32,
                            },
                        );
                    }
                } else if ready {
                    // Ready-mode send with no posted receive: erroneous.
                    // Report, drop the payload, return its buffer space.
                    self.counters.rsend_errors += 1;
                    self.flow.owe_data(env.src, data.len());
                    if self.pending_error.is_none() {
                        self.pending_error = Some(MpiError::ReadyModeNoReceive {
                            src: env.src,
                            tag: env.tag,
                        });
                    }
                } else {
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::UnexpectedBuffered {
                            peer: env.src as u32,
                            bytes: env.len as u32,
                        },
                    );
                    self.match_eng.add_unexpected(UnexpectedMsg {
                        env,
                        msg_seq: wire.msg_seq,
                        body: UnexpectedBody::Eager {
                            data,
                            send_id,
                            needs_ack,
                        },
                    });
                    self.note_unexpected_depth();
                    // Data credit stays consumed until a receive matches.
                }
            }
            Packet::RndvReq { env, send_id } => {
                if env.src >= nprocs {
                    return Err(MpiError::transport_peer(
                        wire.src,
                        format!(
                            "rendezvous envelope claims source rank {} of {nprocs} \
                             (corrupt frame?)",
                            env.src
                        ),
                    ));
                }
                self.flow.owe_env(env.src);
                if let Some(posted) = self.match_eng.match_incoming(&env) {
                    dev.charge(Cost::Match);
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::EnvelopeMatched {
                            peer: env.src as u32,
                            bytes: env.len as u32,
                            unexpected: false,
                        },
                    );
                    let dst = match self.reqs.get(posted.recv_id) {
                        Some(ReqState::RecvPosted { dst }) => dst.clone(),
                        other => {
                            return Err(MpiError::transport_peer(
                                env.src,
                                format!(
                                    "rendezvous envelope matched recv {} in state {other:?} \
                                     (duplicated or reordered frame?)",
                                    posted.recv_id
                                ),
                            ));
                        }
                    };
                    let status = Status {
                        source: env.src,
                        tag: env.tag,
                        len: env.len,
                    };
                    self.reqs.set(
                        posted.recv_id,
                        ReqState::RecvRndvWait {
                            dst,
                            status,
                            send_id,
                            received: 0,
                        },
                    );
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::RndvGoTx {
                            peer: env.src as u32,
                        },
                    );
                    self.transmit(
                        dev,
                        env.src,
                        Packet::RndvGo {
                            send_id,
                            recv_id: posted.recv_id,
                        },
                        wire.msg_seq,
                    );
                } else {
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::UnexpectedBuffered {
                            peer: env.src as u32,
                            bytes: env.len as u32,
                        },
                    );
                    self.match_eng.add_unexpected(UnexpectedMsg {
                        env,
                        msg_seq: wire.msg_seq,
                        body: UnexpectedBody::Rndv { send_id },
                    });
                    self.note_unexpected_depth();
                }
            }
            Packet::RndvGo { send_id, recv_id } => {
                let Some(RndvPayload {
                    data,
                    msg_seq,
                    buffered,
                    tag,
                    dst: _,
                }) = self.rndv_store.remove(&send_id)
                else {
                    return Err(MpiError::transport_peer(
                        wire.src,
                        format!(
                            "rendezvous go-ahead for unknown send {send_id} \
                             (duplicated or corrupted frame?)"
                        ),
                    ));
                };
                // The stashed sequence is authoritative: it identifies our
                // outbound message even if the go-ahead frame was minted by
                // an engine that did not echo it.
                let gmsg = self.my_msg(msg_seq);
                let len = data.len();
                self.counters.bytes_sent += len as u64;
                self.tracer.emit_msg_with(
                    gmsg,
                    || dev.now_ns(),
                    EventKind::RndvGoRx {
                        peer: wire.src as u32,
                    },
                );
                self.tracer.emit_msg_with(
                    gmsg,
                    || dev.now_ns(),
                    EventKind::DmaStart {
                        peer: wire.src as u32,
                        bytes: len as u32,
                    },
                );
                if buffered {
                    self.buffer_release(len);
                }
                // The real envelope fields, reported when the send
                // completes — never fabricated zeros.
                let status = Status {
                    source: wire.src,
                    tag,
                    len,
                };
                // Payloads that fit one chunk go as a single frame — the
                // seed protocol, and the paper's one-DMA transfer. (Chunk
                // offsets ride the wire as u32; `validate_send_len` rejects
                // u32-overflowing payloads at post time, so the second arm
                // is a defensive remnant, not a truncation path.)
                if len <= self.rndv_chunk || len > u32::MAX as usize {
                    self.transmit(dev, wire.src, Packet::RndvData { recv_id, data }, msg_seq);
                    self.complete_rndv_send(send_id, status);
                } else {
                    let mut stream = ChunkStream {
                        data,
                        msg_seq,
                        next_offset: 0,
                        recv_id,
                        dst: wire.src,
                        status,
                    };
                    // Open the pipeline: burst up to a window of chunks;
                    // each returning chunk ack releases one more.
                    let mut exhausted = false;
                    for _ in 0..self.rndv_window {
                        if self.send_next_chunk(dev, &mut stream) {
                            exhausted = true;
                            break;
                        }
                    }
                    if exhausted {
                        self.complete_rndv_send(send_id, stream.status);
                    } else {
                        self.chunk_streams.insert(send_id, stream);
                    }
                }
            }
            Packet::RndvData { recv_id, data } => {
                let (dst, status) = match self.reqs.get(recv_id) {
                    Some(ReqState::RecvRndvWait { dst, status, .. }) => (dst.clone(), *status),
                    other => {
                        return Err(MpiError::transport_peer(
                            wire.src,
                            format!(
                                "rendezvous data for recv {recv_id} in state {other:?} \
                                 (duplicated or reordered frame?)"
                            ),
                        ));
                    }
                };
                // SAFETY: RecvDest contract (see `consume_match`).
                let delivered = unsafe { dst.deliver(&data) };
                self.counters.bytes_received += data.len() as u64;
                let result = delivered.map(|n| Status {
                    source: status.source,
                    tag: status.tag,
                    len: n,
                });
                self.reqs.complete(recv_id, result);
                self.tracer.emit_msg_with(
                    wmsg,
                    || dev.now_ns(),
                    EventKind::DmaEnd {
                        peer: wire.src as u32,
                        bytes: data.len() as u32,
                    },
                );
                self.tracer.emit_msg_with(
                    wmsg,
                    || dev.now_ns(),
                    EventKind::Delivered {
                        peer: wire.src as u32,
                        bytes: data.len() as u32,
                    },
                );
            }
            Packet::RndvChunk {
                recv_id,
                offset,
                total,
                data,
            } => {
                let (dst, status, send_id, received) = match self.reqs.get(recv_id) {
                    Some(ReqState::RecvRndvWait {
                        dst,
                        status,
                        send_id,
                        received,
                    }) => (dst.clone(), *status, *send_id, *received),
                    other => {
                        return Err(MpiError::transport_peer(
                            wire.src,
                            format!(
                                "rendezvous chunk for recv {recv_id} in state {other:?} \
                                 (duplicated or reordered frame?)"
                            ),
                        ));
                    }
                };
                // Each chunk lands at its offset directly in the posted
                // user buffer — no intermediate staging. `deliver_at`
                // clamps to capacity; whether the message truncated is
                // decided once, from `total`, at completion.
                // SAFETY: RecvDest contract (see `consume_match`).
                unsafe { dst.deliver_at(offset, &data) };
                self.counters.bytes_received += data.len() as u64;
                let received = received + data.len();
                if received >= total {
                    let result = if total > dst.cap {
                        Err(MpiError::Truncated {
                            message_len: total,
                            buffer_len: dst.cap,
                        })
                    } else {
                        Ok(Status {
                            source: status.source,
                            tag: status.tag,
                            len: total,
                        })
                    };
                    self.reqs.complete(recv_id, result);
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::DmaEnd {
                            peer: wire.src as u32,
                            bytes: total as u32,
                        },
                    );
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::Delivered {
                            peer: wire.src as u32,
                            bytes: total as u32,
                        },
                    );
                } else {
                    self.reqs.set(
                        recv_id,
                        ReqState::RecvRndvWait {
                            dst,
                            status,
                            send_id,
                            received,
                        },
                    );
                    // Ack every chunk except the completing one: each ack
                    // releases one more chunk from the sender's window.
                    self.transmit(
                        dev,
                        wire.src,
                        Packet::RndvChunkAck { send_id },
                        wire.msg_seq,
                    );
                }
            }
            Packet::RndvChunkAck { send_id } => {
                // Unknown ids are expected, not an error: the final chunk
                // is never acked, so the last few acks of a stream always
                // arrive after the sender already completed and forgot it.
                if let Some(mut stream) = self.chunk_streams.remove(&send_id) {
                    if self.send_next_chunk(dev, &mut stream) {
                        self.complete_rndv_send(send_id, stream.status);
                    } else {
                        self.chunk_streams.insert(send_id, stream);
                    }
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

    /// Drain per-destination queues in FIFO order as credit allows.
    fn flush_pending(&mut self, dev: &dyn Device) -> MpiResult<()> {
        for dst in 0..self.pending_out.len() {
            let mut drained_any = false;
            loop {
                let sendable = match self.pending_out[dst].front() {
                    None => break,
                    Some(p) => {
                        if self.is_eager(p) {
                            self.flow.can_eager(dst, p.env.len)
                        } else {
                            self.flow.can_rndv(dst)
                        }
                    }
                };
                if !sendable {
                    break;
                }
                let Some(p) = self.pending_out[dst].pop_front() else {
                    // Unreachable while the loop holds `&mut self`, but a
                    // typed error beats a panic if a refactor ever lets the
                    // queue drain between the peek and the pop.
                    return Err(MpiError::internal(format!(
                        "pending queue for rank {dst} emptied between peek and pop"
                    )));
                };
                self.transmit_send(dev, dst, p)?;
                drained_any = true;
            }
            if drained_any && self.pending_out[dst].is_empty() {
                // The credit stall against this peer is over; close the
                // interval the queueing opened in `post_send`.
                let stalled_ns = self.flow.stall_ended(dst, dev.now_ns());
                self.counters.credit_stall_ns += stalled_ns;
                if stalled_ns > 0 {
                    self.tracer.emit_with(
                        || dev.now_ns(),
                        EventKind::CreditResume {
                            peer: dst as u32,
                            stalled_ns,
                        },
                    );
                }
            }
        }
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

    /// Record a new unexpected-queue depth into the high-water mark.
    fn note_unexpected_depth(&mut self) {
        let depth = self.match_eng.depths().1 as u64;
        if depth > self.counters.unexpected_hwm {
            self.counters.unexpected_hwm = depth;
        }
    }

    /// Whether any sends are still queued behind flow control.
    pub(crate) fn has_pending_sends(&self) -> bool {
        self.pending_out.iter().any(|q| !q.is_empty())
    }

    // ------------------------------------------------------------------
    // Hardware broadcast plumbing
    // ------------------------------------------------------------------

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

    // ------------------------------------------------------------------
    // Buffered-mode pool
    // ------------------------------------------------------------------

    /// Attach `capacity` bytes of buffered-send space.
    pub(crate) fn buffer_attach(&mut self, capacity: usize) {
        assert!(
            self.buffer_pool.is_none(),
            "buffer already attached; detach first"
        );
        self.buffer_pool = Some((capacity, 0));
    }

    /// Detach the buffered-send space; errors if still in use.
    pub(crate) fn buffer_detach(&mut self) -> MpiResult<usize> {
        match self.buffer_pool {
            None => Err(MpiError::NoBufferAttached),
            Some((_, used)) if used > 0 => Err(MpiError::BufferInUse),
            Some((cap, _)) => {
                self.buffer_pool = None;
                Ok(cap)
            }
        }
    }

    fn buffer_reserve(&mut self, len: usize) -> MpiResult<()> {
        match &mut self.buffer_pool {
            None => Err(MpiError::NoBufferAttached),
            Some((cap, used)) => {
                if *used + len > *cap {
                    Err(MpiError::BufferOverflow {
                        needed: len,
                        available: *cap - *used,
                    })
                } else {
                    *used += len;
                    Ok(())
                }
            }
        }
    }

    fn buffer_release(&mut self, len: usize) {
        if let Some((_, used)) = &mut self.buffer_pool {
            *used = used.saturating_sub(len);
        }
    }

    /// Bytes of attached buffer space still owned by queued buffered sends.
    pub(crate) fn buffered_in_use(&self) -> usize {
        self.buffer_pool.map_or(0, |(_, used)| used)
    }

    /// Cancel a request. Posted-but-unmatched receives and still-queued
    /// sends can be cancelled; anything already in flight cannot.
    pub(crate) fn cancel(&mut self, req_id: u64) -> bool {
        if self.match_eng.cancel_posted(req_id) {
            self.reqs.remove(req_id);
            return true;
        }
        for dst in 0..self.pending_out.len() {
            if let Some(idx) = self.pending_out[dst]
                .iter()
                .position(|p| p.req_id == req_id)
            {
                self.pending_out[dst].remove(idx);
                if self.pending_out[dst].is_empty() {
                    // Cancellation, not credit, emptied the queue: drop the
                    // open stall interval rather than accumulating it.
                    self.flow.stall_abandoned(dst);
                }
                self.reqs.remove(req_id);
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Failure propagation (tentpole: per-peer isolation)
    // ------------------------------------------------------------------

    /// Whether `rank` has been declared dead.
    pub(crate) fn is_failed(&self, rank: Rank) -> bool {
        self.failed_ranks.get(rank).copied().unwrap_or(false)
    }

    /// Whether `context` belongs to a revoked communicator.
    pub(crate) fn is_revoked(&self, context: ContextId) -> bool {
        self.revoked.contains(&context)
    }

    /// Declare `peer` dead and complete, with `err`, every operation that
    /// can only finish through it: flow-stalled queued sends, rendezvous
    /// payloads awaiting its go-ahead, chunk streams mid-flight to it,
    /// sends awaiting its ack, receives awaiting its data, and posted
    /// receives naming it as source. Unexpected messages it sent are
    /// dropped. `ANY_SOURCE` receives stay posted — a surviving rank may
    /// still satisfy them (documented ULFM-style limitation: a wildcard
    /// receive that only the dead rank would have satisfied blocks until
    /// the communicator is revoked). Idempotent.
    pub(crate) fn fail_peer(&mut self, dev: &dyn Device, peer: Rank, err: MpiError) {
        if peer >= self.failed_ranks.len() || self.failed_ranks[peer] {
            return;
        }
        self.failed_ranks[peer] = true;
        self.tracer
            .emit_with(|| dev.now_ns(), EventKind::PeerDead { peer: peer as u32 });

        // Sends queued behind flow control: credit from a dead peer never
        // returns, so the queue can only drain through failure.
        let queued = std::mem::take(&mut self.pending_out[peer]);
        if !queued.is_empty() {
            self.flow.stall_abandoned(peer);
        }
        for p in queued {
            if p.mode == SendMode::Buffered {
                // Completed at post; the pool bytes still need releasing.
                self.buffer_release(p.data.len());
            }
            self.reqs.fail_if_active(p.req_id, err.clone());
        }

        // Rendezvous payloads parked on a go-ahead from the dead peer.
        let parked: Vec<u64> = self
            .rndv_store
            .iter()
            .filter(|(_, p)| p.dst == peer)
            .map(|(&id, _)| id)
            .collect();
        for id in parked {
            if let Some(p) = self.rndv_store.remove(&id) {
                if p.buffered {
                    self.buffer_release(p.data.len());
                }
                self.reqs.fail_if_active(id, err.clone());
            }
        }

        // Chunk streams whose remaining acks will never arrive.
        let streams: Vec<u64> = self
            .chunk_streams
            .iter()
            .filter(|(_, s)| s.dst == peer)
            .map(|(&id, _)| id)
            .collect();
        for id in streams {
            self.chunk_streams.remove(&id);
            self.reqs.fail_if_active(id, err.clone());
        }

        // Requests parked on a reply from the dead peer: synchronous sends
        // awaiting its match ack, receives awaiting its rendezvous data.
        // (Both states stash the peer in `status.source`.)
        let waiting: Vec<u64> = self
            .reqs
            .iter()
            .filter_map(|(id, s)| match s {
                ReqState::SendAckWait { status } if status.source == peer => Some(id),
                ReqState::RecvRndvWait { status, .. } if status.source == peer => Some(id),
                _ => None,
            })
            .collect();
        for id in waiting {
            self.reqs.fail_if_active(id, err.clone());
        }

        // Matching structures: posted receives naming the peer fail; its
        // unexpected messages are dropped (their data credit died with it).
        let (recv_ids, _msgs) = self.match_eng.purge_peer(peer);
        for id in recv_ids {
            self.reqs.fail_if_active(id, err.clone());
        }
    }

    /// Mark `context` (and its collective twin `context + 1`) revoked:
    /// purge both from the matcher, fail the purged receives and every
    /// queued send bound to them with [`MpiError::Revoked`]. Transfers
    /// already matched (rendezvous data in flight) complete normally —
    /// revocation guarantees no *new* matches, mirroring ULFM. Returns
    /// whether this call newly revoked the context (idempotent).
    pub(crate) fn mark_revoked(&mut self, context: ContextId) -> bool {
        if !self.revoked.insert(context) {
            return false;
        }
        let coll = context.wrapping_add(1);
        self.revoked.insert(coll);
        for ctx in [context, coll] {
            let (recv_ids, _msgs) = self.match_eng.purge_context(ctx);
            for id in recv_ids {
                self.reqs.fail_if_active(id, MpiError::Revoked { context });
            }
        }
        for dst in 0..self.pending_out.len() {
            let q = std::mem::take(&mut self.pending_out[dst]);
            let had_any = !q.is_empty();
            let mut kept = VecDeque::new();
            for p in q {
                if p.env.context == context || p.env.context == coll {
                    if p.mode == SendMode::Buffered {
                        self.buffer_release(p.data.len());
                    }
                    self.reqs
                        .fail_if_active(p.req_id, MpiError::Revoked { context });
                } else {
                    kept.push_back(p);
                }
            }
            if had_any && kept.is_empty() {
                self.flow.stall_abandoned(dst);
            }
            self.pending_out[dst] = kept;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::loopback::Loopback;

    /// Defaults matching [`Loopback`]: 180-byte threshold, 256-byte chunks,
    /// 2-chunk pipeline window — small enough that unit tests exercise the
    /// chunked path with kilobyte payloads.
    fn engine(rank: Rank, n: usize) -> Engine {
        Engine::new(rank, n, 180, 4, 1 << 16, 256, 2)
    }

    fn dest(buf: &mut [u8]) -> RecvDest {
        RecvDest::contiguous(buf.as_mut_ptr(), buf.len())
    }

    /// Move every frame rank-`a` sent to rank-`b`'s engine, and vice versa,
    /// until quiescent.
    fn pump(a: &mut Engine, da: &Loopback, b: &mut Engine, db: &Loopback) {
        loop {
            let mut moved = false;
            for (dst, wire) in da.sent.lock().unwrap().drain(..) {
                assert_eq!(dst, b.my_rank);
                b.handle_wire(db, wire).unwrap();
                moved = true;
            }
            for (dst, wire) in db.sent.lock().unwrap().drain(..) {
                assert_eq!(dst, a.my_rank);
                a.handle_wire(da, wire).unwrap();
                moved = true;
            }
            if !moved {
                break;
            }
        }
    }

    /// Boundary check for the u32 wire limit: chunk offsets and envelope
    /// lengths are transmitted as `u32`, so `u32::MAX`-byte-and-larger
    /// payloads must be rejected at post time (validated directly — no
    /// 4 GiB allocation).
    #[test]
    fn send_len_validated_against_u32_wire_limit() {
        assert!(validate_send_len(0).is_ok());
        assert!(validate_send_len(u32::MAX as usize - 1).is_ok());
        let at_limit = validate_send_len(u32::MAX as usize);
        assert!(
            matches!(at_limit, Err(MpiError::Unsupported { .. })),
            "u32::MAX bytes must be a typed rejection, got {at_limit:?}"
        );
        #[cfg(target_pointer_width = "64")]
        {
            let over = validate_send_len(u32::MAX as usize + 1);
            assert!(
                matches!(over, Err(MpiError::Unsupported { .. })),
                "a >4 GiB payload would truncate its chunk offsets, got {over:?}"
            );
        }
    }

    #[test]
    fn eager_send_completes_immediately_and_delivers() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let sid = e0
            .post_send(&d0, 1, 7, 0, Bytes::from_static(b"hi"), SendMode::Standard)
            .unwrap();
        assert!(
            e0.reqs.take_if_done(sid).unwrap().is_ok(),
            "standard eager done at post"
        );

        let mut buf = [0u8; 8];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Rank(0), TagSel::Tag(7), 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!(st.source, 0);
        assert_eq!(st.tag, 7);
        assert_eq!(st.len, 2);
        assert_eq!(&buf[..2], b"hi");
        assert_eq!(e0.counters.eager_sent, 1);
        assert_eq!(e0.counters.rndv_sent, 0);
    }

    #[test]
    fn large_message_goes_rendezvous() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let payload = vec![0xAB; 1000]; // > 180-byte threshold
        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let _sid = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from(payload.clone()),
                SendMode::Standard,
            )
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!(st.len, 1000);
        assert_eq!(buf, payload);
        assert_eq!(e0.counters.rndv_sent, 1);
        // 1000 bytes over 256-byte chunks: a pipelined stream of 4.
        assert_eq!(e0.counters.rndv_chunks_sent, 4);
        // Rendezvous path must not charge the receiver-side buffered copy.
        let copies = d1
            .charges
            .lock()
            .unwrap()
            .iter()
            .filter(|c| matches!(c, Cost::BufferedCopy(_)))
            .count();
        assert_eq!(
            copies, 0,
            "direct delivery must avoid the bounce-buffer copy"
        );
    }

    #[test]
    fn unexpected_eager_buffered_then_matched() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(
            &d0,
            1,
            3,
            0,
            Bytes::from_static(b"early"),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(e1.match_eng.depths().1, 1, "message waits unexpected");

        let mut buf = [0u8; 5];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Rank(0), TagSel::Tag(3), 0);
        let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!(st.len, 5);
        assert_eq!(&buf, b"early");
        assert_eq!(e1.match_eng.unexpected_hits, 1);
    }

    #[test]
    fn synchronous_eager_waits_for_ack() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let sid = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"x"),
                SendMode::Synchronous,
            )
            .unwrap();
        assert!(
            e0.reqs.take_if_done(sid).is_none(),
            "ssend not done before match"
        );
        let mut buf = [0u8; 1];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(
            e0.reqs.take_if_done(sid).unwrap().is_ok(),
            "ack completes ssend"
        );
        assert_eq!(e1.counters.acks_sent, 1);
    }

    #[test]
    fn synchronous_rendezvous_completes_on_go() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let big = Bytes::from(vec![1u8; 500]);
        let sid = e0
            .post_send(&d0, 1, 0, 0, big, SendMode::Synchronous)
            .unwrap();
        assert!(e0.reqs.take_if_done(sid).is_none());
        let mut buf = vec![0u8; 500];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e0.reqs.take_if_done(sid).unwrap().is_ok());
        assert!(e1.reqs.take_if_done(rid).unwrap().is_ok());
    }

    #[test]
    fn truncation_reported_with_prefix_delivered() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let mut small = [0u8; 2];
        let rid = e1.post_recv(&d1, dest(&mut small), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from_static(b"toolong"),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let err = e1.reqs.take_if_done(rid).unwrap().unwrap_err();
        assert_eq!(
            err,
            MpiError::Truncated {
                message_len: 7,
                buffer_len: 2
            }
        );
        assert_eq!(&small, b"to");
    }

    #[test]
    fn flow_control_queues_and_drains() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        // Single envelope slot (Meiko policy).
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut e1 = Engine::new(1, 2, 180, 1, 1 << 16, 256, 2);

        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"a"), SendMode::Standard)
            .unwrap();
        e0.post_send(&d0, 1, 1, 0, Bytes::from_static(b"b"), SendMode::Standard)
            .unwrap();
        assert!(
            e0.has_pending_sends(),
            "second send must queue on single slot"
        );
        assert_eq!(e0.counters.sends_queued, 1);

        let mut b0 = [0u8; 1];
        let mut b1 = [0u8; 1];
        let r0 = e1.post_recv(&d1, dest(&mut b0), SourceSel::Any, TagSel::Tag(0), 0);
        let r1 = e1.post_recv(&d1, dest(&mut b1), SourceSel::Any, TagSel::Tag(1), 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(!e0.has_pending_sends());
        assert!(e1.reqs.take_if_done(r0).unwrap().is_ok());
        assert!(e1.reqs.take_if_done(r1).unwrap().is_ok());
        assert_eq!(&b0, b"a");
        assert_eq!(&b1, b"b");
    }

    /// A sender stalled on bounce-buffer credit sends nothing, so the
    /// receiver cannot wait for a frame to carry the credit back: draining
    /// the unexpected queue through `post_recv` must return it.
    #[test]
    fn draining_the_unexpected_queue_unblocks_a_data_stalled_sender() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        // Room for two 4-byte payloads per sender.
        let mut e0 = Engine::new(0, 2, 180, 4, 8, 256, 2);
        let mut e1 = Engine::new(1, 2, 180, 4, 8, 256, 2);
        for tag in 0..3 {
            e0.post_send(
                &d0,
                1,
                tag,
                0,
                Bytes::from_static(b"data"),
                SendMode::Standard,
            )
            .unwrap();
        }
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e0.has_pending_sends(), "third payload exceeds the reserve");

        let mut bufs = [[0u8; 4]; 3];
        let reqs: Vec<u64> = bufs
            .iter_mut()
            .zip(0..)
            .map(|(b, tag)| e1.post_recv(&d1, dest(b), SourceSel::Rank(0), TagSel::Tag(tag), 0))
            .collect();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(
            !e0.has_pending_sends(),
            "freed bytes never reached the sender"
        );
        for id in reqs {
            assert!(e1.reqs.take_if_done(id).unwrap().is_ok());
        }
        assert_eq!(bufs, [*b"data"; 3]);
    }

    #[test]
    fn non_overtaking_same_tag() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(&d0, 1, 5, 0, Bytes::from_static(b"1"), SendMode::Standard)
            .unwrap();
        e0.post_send(&d0, 1, 5, 0, Bytes::from_static(b"2"), SendMode::Standard)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let mut b0 = [0u8; 1];
        let mut b1 = [0u8; 1];
        let r0 = e1.post_recv(&d1, dest(&mut b0), SourceSel::Rank(0), TagSel::Tag(5), 0);
        let r1 = e1.post_recv(&d1, dest(&mut b1), SourceSel::Rank(0), TagSel::Tag(5), 0);
        e1.reqs.take_if_done(r0).unwrap().unwrap();
        e1.reqs.take_if_done(r1).unwrap().unwrap();
        assert_eq!(
            (&b0, &b1),
            (b"1", b"2"),
            "messages must match in send order"
        );
    }

    #[test]
    fn ready_send_without_receive_is_error() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"oops"), SendMode::Ready)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(e1.counters.rsend_errors, 1);
        assert!(matches!(
            e1.pending_error,
            Some(MpiError::ReadyModeNoReceive { src: 0, .. })
        ));
    }

    #[test]
    fn ready_send_skips_rendezvous_even_when_large() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let mut buf = vec![0u8; 4096];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(&d0, 1, 0, 0, Bytes::from(vec![9u8; 4096]), SendMode::Ready)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e1.reqs.take_if_done(rid).unwrap().is_ok());
        assert_eq!(e0.counters.eager_sent, 1, "ready mode is always optimistic");
        assert_eq!(e0.counters.rndv_sent, 0);
    }

    #[test]
    fn buffered_send_requires_attach_and_detects_overflow() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .post_send(&d0, 1, 0, 0, Bytes::from_static(b"x"), SendMode::Buffered)
            .unwrap_err();
        assert_eq!(err, MpiError::NoBufferAttached);

        e0.buffer_attach(4);
        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"abc"), SendMode::Buffered)
            .unwrap();
        // Eager send released the space immediately; a 5-byte send still
        // cannot fit the 4-byte pool.
        let err = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"12345"),
                SendMode::Buffered,
            )
            .unwrap_err();
        assert!(matches!(err, MpiError::BufferOverflow { needed: 5, .. }));
        assert_eq!(e0.buffer_detach().unwrap(), 4);
        assert_eq!(e0.buffer_detach().unwrap_err(), MpiError::NoBufferAttached);
    }

    #[test]
    fn probe_sees_unexpected_without_consuming() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(&d0, 1, 9, 0, Bytes::from_static(b"abc"), SendMode::Standard)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e1.probe(SourceSel::Any, TagSel::Any, 0).expect("probe hit");
        assert_eq!((st.source, st.tag, st.len), (0, 9, 3));
        // Still there.
        assert!(e1.probe(SourceSel::Any, TagSel::Any, 0).is_some());
    }

    #[test]
    fn cancel_posted_recv_and_queued_send() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut buf = [0u8; 1];
        let rid = e0.post_recv(&d0, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        assert!(e0.cancel(rid));
        assert!(!e0.cancel(rid), "already cancelled");

        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"a"), SendMode::Standard)
            .unwrap();
        let sid2 = e0
            .post_send(&d0, 1, 0, 0, Bytes::from_static(b"b"), SendMode::Standard)
            .unwrap();
        assert!(e0.has_pending_sends());
        assert!(e0.cancel(sid2));
        assert!(!e0.has_pending_sends());
    }

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
        // chunk — the single-frame rendezvous path (the seed protocol).
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
    fn unexpected_hwm_tracks_peak_queue_depth() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        for tag in 0..3 {
            e0.post_send(&d0, 1, tag, 0, Bytes::from_static(b"x"), SendMode::Standard)
                .unwrap();
        }
        pump(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(e1.counters.unexpected_hwm, 3);

        // Draining the queue must not lower the high-water mark.
        for tag in 0..3 {
            let mut buf = [0u8; 1];
            let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Tag(tag), 0);
            e1.reqs.take_if_done(rid).unwrap().unwrap();
        }
        assert_eq!(e1.match_eng.depths().1, 0);
        assert_eq!(e1.counters.unexpected_hwm, 3);
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
    fn duplicate_eager_ack_is_ignored() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let sid = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"x"),
                SendMode::Synchronous,
            )
            .unwrap();
        let mut buf = [0u8; 1];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e0.reqs.take_if_done(sid).unwrap().is_ok());
        // A lossy device re-delivers the ack after the send is gone; the
        // engine must shrug, not panic or complete a recycled request.
        e0.handle_wire(&d0, Wire::bare(1, Packet::EagerAck { send_id: sid }))
            .unwrap();
    }

    #[test]
    fn stray_rndv_go_is_typed_transport_error() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .handle_wire(
                &d0,
                Wire::bare(
                    1,
                    Packet::RndvGo {
                        send_id: 99,
                        recv_id: 7,
                    },
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn stray_rndv_data_is_typed_transport_error() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .handle_wire(
                &d0,
                Wire::bare(
                    1,
                    Packet::RndvData {
                        recv_id: 42,
                        data: Bytes::from_static(b"late"),
                    },
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "got {err:?}"
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

    /// A frame whose outer source is valid but whose *envelope* claims an
    /// out-of-range rank (impossible from our own encoder, possible from a
    /// corrupt or hostile peer) is also a typed error.
    #[test]
    fn out_of_range_envelope_src_is_a_typed_error() {
        let d = Loopback::new(0, 2);
        let mut e = engine(0, 2);
        for (mk, name) in [
            (
                (|env| Packet::Eager {
                    env,
                    send_id: 1,
                    needs_ack: false,
                    ready: false,
                    data: Bytes::from_static(b"x"),
                }) as fn(Envelope) -> Packet,
                "eager",
            ),
            (
                (|env| Packet::RndvReq { env, send_id: 1 }) as fn(Envelope) -> Packet,
                "rndv-req",
            ),
        ] {
            let env = Envelope {
                src: 9,
                tag: 0,
                context: 0,
                len: 1,
            };
            let err = e
                .handle_wire(&d, Wire::bare(1, mk(env)))
                .expect_err("envelope rank out of range must be rejected");
            assert!(
                matches!(err, MpiError::Transport { .. }),
                "{name}: expected Transport, got {err:?}"
            );
        }
    }

    /// The chunked path delivers byte-identical data, brackets the stream
    /// with one DmaStart/DmaEnd pair, and acks every chunk but the last.
    #[test]
    fn chunked_rendezvous_pipelines_and_delivers() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        e0.tracer = Tracer::enabled(0, 128);
        e1.tracer = Tracer::enabled(1, 128);

        // 1000 bytes / 256-byte chunks = 4 chunks, window 2.
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let sid = e0
            .post_send(
                &d0,
                1,
                3,
                0,
                Bytes::from(payload.clone()),
                SendMode::Synchronous,
            )
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);

        assert_eq!(buf, payload, "chunks reassemble byte-identically");
        let rst = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!((rst.source, rst.tag, rst.len), (0, 3, 1000));
        let sst = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!(
            (sst.source, sst.tag, sst.len),
            (1, 3, 1000),
            "sender status carries the real envelope, not zeros"
        );
        assert_eq!(e0.counters.rndv_chunks_sent, 4);
        assert!(e0.chunk_streams.is_empty(), "stream state reclaimed");

        let sender: Vec<&str> = e0
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            sender.iter().filter(|n| **n == "DmaStart").count(),
            1,
            "one DmaStart brackets the whole stream: {sender:?}"
        );
        let receiver: Vec<&str> = e1
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(receiver.iter().filter(|n| **n == "DmaEnd").count(), 1);
        assert_eq!(receiver.iter().filter(|n| **n == "Delivered").count(), 1);
        assert_eq!(
            receiver.last(),
            Some(&"Delivered"),
            "stream ends with delivery: {receiver:?}"
        );
    }

    /// Chunks spend no flow-control credit beyond the envelope's: a
    /// message needing 4 chunks moves through a single rendezvous slot.
    #[test]
    fn chunks_spend_no_extra_credit() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        // Single envelope slot: if chunks charged credit, the stream
        // would starve itself and this test would hang or error.
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut e1 = Engine::new(1, 2, 180, 1, 1 << 16, 256, 2);

        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from(vec![9u8; 1000]),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e1.reqs.take_if_done(rid).unwrap().is_ok());
        assert_eq!(e0.counters.rndv_chunks_sent, 4);
        assert_eq!(e0.counters.sends_queued, 0, "never stalled on credit");
    }

    /// A chunked message longer than the posted buffer truncates exactly
    /// like the single-frame path: prefix delivered, typed error, and the
    /// receiver keeps acking so the sender's stream still drains.
    #[test]
    fn chunked_rendezvous_truncates_with_prefix() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut small = vec![0u8; 300];
        let rid = e1.post_recv(&d1, dest(&mut small), SourceSel::Any, TagSel::Any, 0);
        let sid = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from(payload.clone()),
                SendMode::Standard,
            )
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let err = e1.reqs.take_if_done(rid).unwrap().unwrap_err();
        assert_eq!(
            err,
            MpiError::Truncated {
                message_len: 1000,
                buffer_len: 300
            }
        );
        assert_eq!(&small[..], &payload[..300], "prefix delivered");
        assert!(
            e0.reqs.take_if_done(sid).unwrap().is_ok(),
            "sender side completed: the stream fully drained"
        );
        assert!(e0.chunk_streams.is_empty());
    }

    /// Synchronous-mode regression for the fabricated-status bug: both the
    /// eager and the rendezvous ack paths must report the real envelope.
    #[test]
    fn ssend_completion_reports_real_tag_and_len() {
        // Eager ssend (below threshold): status arrives with the ack.
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        let sid = e0
            .post_send(
                &d0,
                1,
                42,
                0,
                Bytes::from_static(b"hello"),
                SendMode::Synchronous,
            )
            .unwrap();
        let mut buf = [0u8; 5];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!((st.source, st.tag, st.len), (1, 42, 5));

        // Rendezvous ssend (single-frame): status arrives with the go.
        let sid = e0
            .post_send(
                &d0,
                1,
                77,
                0,
                Bytes::from(vec![1u8; 200]),
                SendMode::Synchronous,
            )
            .unwrap();
        let mut big = vec![0u8; 200];
        e1.post_recv(&d1, dest(&mut big), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!((st.source, st.tag, st.len), (1, 77, 200));
    }

    #[test]
    fn stray_rndv_chunk_is_typed_transport_error() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .handle_wire(
                &d0,
                Wire::bare(
                    1,
                    Packet::RndvChunk {
                        recv_id: 42,
                        offset: 0,
                        total: 8,
                        data: Bytes::from_static(b"late"),
                    },
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "got {err:?}"
        );
    }

    /// Late chunk acks (the final chunk is never acked, so trailing acks
    /// always outlive the stream) are silently ignored, not an error.
    #[test]
    fn late_chunk_ack_is_ignored() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.handle_wire(&d0, Wire::bare(1, Packet::RndvChunkAck { send_id: 999 }))
            .unwrap();
    }

    fn dead(peer: Rank) -> MpiError {
        MpiError::peer_failed(peer, "test kill")
    }

    /// The heart of per-peer isolation: killing peer 1 fails every request
    /// parked on it — the queued send, the rendezvous payload awaiting its
    /// go-ahead, the synchronous send awaiting its ack, the posted receive
    /// naming it — while traffic with peer 2 keeps flowing untouched.
    #[test]
    fn fail_peer_completes_everything_parked_on_it_and_spares_the_rest() {
        let d0 = Loopback::new(0, 3);
        let d2 = Loopback::new(2, 3);
        // Single envelope slot so a second send to rank 1 queues.
        let mut e0 = Engine::new(0, 3, 180, 1, 1 << 16, 256, 2);
        let mut e2 = Engine::new(2, 3, 180, 1, 1 << 16, 256, 2);

        let s_sync = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"x"),
                SendMode::Synchronous,
            )
            .unwrap();
        let s_queued = e0
            .post_send(&d0, 1, 1, 0, Bytes::from_static(b"y"), SendMode::Standard)
            .unwrap();
        let s_rndv = e0
            .post_send(
                &d0,
                2,
                0,
                0,
                Bytes::from(vec![7u8; 500]),
                SendMode::Standard,
            )
            .unwrap();
        let mut buf = [0u8; 4];
        let r_named = e0.post_recv(&d0, dest(&mut buf), SourceSel::Rank(1), TagSel::Any, 0);
        let mut wild_buf = [0u8; 4];
        let r_wild = e0.post_recv(&d0, dest(&mut wild_buf), SourceSel::Any, TagSel::Any, 0);
        assert!(e0.has_pending_sends());

        e0.fail_peer(&d0, 1, dead(1));
        assert!(e0.is_failed(1));
        assert!(!e0.is_failed(0) && !e0.is_failed(2), "only rank 1 died");

        for id in [s_sync, s_queued, r_named] {
            match e0.reqs.take_if_done(id) {
                Some(Err(MpiError::PeerFailed { peer: 1, .. })) => {}
                other => panic!("request {id} should fail with PeerFailed, got {other:?}"),
            }
        }
        assert!(!e0.has_pending_sends(), "dead peer's queue drained");
        assert!(
            e0.reqs.take_if_done(r_wild).is_none(),
            "ANY_SOURCE receive survives: a live rank may satisfy it"
        );

        // Rank 2 was untouched: the rendezvous to it still completes, and
        // the surviving wildcard receive matches rank 2's message.
        e2.post_send(&d2, 0, 9, 0, Bytes::from_static(b"ok"), SendMode::Standard)
            .unwrap();
        let mut buf2 = vec![0u8; 500];
        let r2 = e2.post_recv(&d2, dest(&mut buf2), SourceSel::Rank(0), TagSel::Any, 0);
        // Drain the fabric by hand: frames addressed to the dead rank 1
        // vanish (its process is gone); 0↔2 traffic delivers normally.
        loop {
            let mut moved = false;
            for (dst, wire) in d0.sent.lock().unwrap().drain(..) {
                if dst == 2 {
                    e2.handle_wire(&d2, wire).unwrap();
                    moved = true;
                }
            }
            for (dst, wire) in d2.sent.lock().unwrap().drain(..) {
                assert_eq!(dst, 0);
                e0.handle_wire(&d0, wire).unwrap();
                moved = true;
            }
            if !moved {
                break;
            }
        }
        assert!(e0.reqs.take_if_done(s_rndv).unwrap().is_ok());
        assert!(e2.reqs.take_if_done(r2).unwrap().is_ok());
        assert!(e0.reqs.take_if_done(r_wild).unwrap().is_ok());
        assert_eq!(&wild_buf[..2], b"ok");

        // Idempotent: a second declaration is a no-op.
        e0.fail_peer(&d0, 1, dead(1));
        assert!(e0.is_failed(1) && !e0.is_failed(0) && !e0.is_failed(2));
    }

    #[test]
    fn posts_against_a_dead_peer_fail_fast() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.fail_peer(&d0, 1, dead(1));

        let err = e0
            .post_send(&d0, 1, 0, 0, Bytes::from_static(b"x"), SendMode::Standard)
            .unwrap_err();
        assert!(matches!(err, MpiError::PeerFailed { peer: 1, .. }));

        let mut buf = [0u8; 1];
        let rid = e0.post_recv(&d0, dest(&mut buf), SourceSel::Rank(1), TagSel::Any, 0);
        match e0.reqs.take_if_done(rid) {
            Some(Err(MpiError::PeerFailed { peer: 1, .. })) => {}
            other => panic!("expected immediate PeerFailed completion, got {other:?}"),
        }
    }

    #[test]
    fn zombie_frames_from_a_dead_peer_are_dropped() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.fail_peer(&d0, 1, dead(1));
        e0.handle_wire(
            &d0,
            Wire::bare(
                1,
                Packet::Eager {
                    env: Envelope {
                        src: 1,
                        tag: 0,
                        context: 0,
                        len: 1,
                    },
                    send_id: 5,
                    needs_ack: false,
                    ready: false,
                    data: Bytes::from_static(b"z"),
                },
            ),
        )
        .unwrap();
        assert_eq!(e0.counters.wires_handled, 0, "zombie frame not processed");
        assert_eq!(e0.match_eng.depths().1, 0, "nothing buffered unexpected");
    }

    #[test]
    fn buffered_sends_release_pool_bytes_when_the_peer_dies() {
        let d0 = Loopback::new(0, 2);
        // Single envelope slot: the second buffered send queues.
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        e0.buffer_attach(1 << 12);
        // Rendezvous-sized buffered send: pool bytes held until the data
        // leaves — which it never will.
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from(vec![1u8; 500]),
            SendMode::Buffered,
        )
        .unwrap();
        // Queued eager buffered send behind the spent envelope slot.
        e0.post_send(&d0, 1, 1, 0, Bytes::from(vec![2u8; 8]), SendMode::Buffered)
            .unwrap();
        assert_eq!(e0.buffered_in_use(), 508);
        e0.fail_peer(&d0, 1, dead(1));
        assert_eq!(
            e0.buffered_in_use(),
            0,
            "failure must return pool bytes or buffer_detach wedges forever"
        );
    }

    #[test]
    fn revoke_fails_context_bound_work_and_is_idempotent() {
        let d0 = Loopback::new(0, 2);
        // Single envelope slot so the second send queues on context 0.
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut buf = [0u8; 4];
        let r_ctx0 = e0.post_recv(&d0, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let mut buf9 = [0u8; 4];
        let r_ctx9 = e0.post_recv(&d0, dest(&mut buf9), SourceSel::Any, TagSel::Any, 9);
        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"a"), SendMode::Standard)
            .unwrap();
        let s_queued = e0
            .post_send(&d0, 1, 1, 0, Bytes::from_static(b"b"), SendMode::Standard)
            .unwrap();

        assert!(e0.mark_revoked(0));
        assert!(!e0.mark_revoked(0), "second revoke is a no-op");
        assert!(e0.is_revoked(0) && e0.is_revoked(1), "both context halves");
        assert!(!e0.is_revoked(9));

        match e0.reqs.take_if_done(r_ctx0) {
            Some(Err(MpiError::Revoked { context: 0 })) => {}
            other => panic!("revoked recv should fail typed, got {other:?}"),
        }
        match e0.reqs.take_if_done(s_queued) {
            Some(Err(MpiError::Revoked { context: 0 })) => {}
            other => panic!("revoked queued send should fail typed, got {other:?}"),
        }
        assert!(!e0.has_pending_sends());
        assert!(
            e0.reqs.take_if_done(r_ctx9).is_none(),
            "other communicators keep working"
        );
    }

    #[test]
    fn revoke_frame_marks_the_context_and_traces() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.tracer = Tracer::enabled(0, 16);
        e0.handle_wire(&d0, Wire::bare(1, Packet::Revoke { context: 4 }))
            .unwrap();
        assert!(e0.is_revoked(4) && e0.is_revoked(5));
        let names: Vec<&str> = e0
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"RevokeRx"), "got {names:?}");
        // Heartbeats reaching the engine are inert.
        e0.handle_wire(&d0, Wire::bare(1, Packet::Heartbeat))
            .unwrap();
    }
}
