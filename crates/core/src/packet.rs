//! The wire protocol between ranks: envelopes and protocol packets.
//!
//! This is the layer the paper's §4.1 describes: a message is an *envelope*
//! (source, tag, communicator context, length) plus data, and the protocol
//! decides whether data travels **with** the envelope (eager/optimistic,
//! buffered at the receiver) or **after** matching (rendezvous, delivered
//! straight into the user buffer).
//!
//! Devices transport [`Wire`] frames; the `env_credit` / `data_credit`
//! fields piggyback flow-control returns exactly like the 4-byte
//! "reserved space freed" field of the paper's 25-byte TCP header.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::bytes::Bytes;
use crate::datatype::MpiData;
use crate::request::Lease;
use crate::types::{Rank, Tag};

/// Communicator context id; disambiguates messages of different
/// communicators (and the point-to-point vs collective planes of one
/// communicator).
pub type ContextId = u32;

/// A message envelope: everything the receiver needs to match a send to a
/// posted receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sender's *global* rank.
    pub src: Rank,
    /// User tag.
    pub tag: Tag,
    /// Communicator context.
    pub context: ContextId,
    /// Payload length in bytes.
    pub len: usize,
}

/// Serialized size of an envelope in the sockets framing, matching the
/// paper's accounting: 20 bytes of "envelope and DMA request information".
pub const ENVELOPE_WIRE_BYTES: usize = 20;

/// Protocol packets. `send_id` / `recv_id` are request identifiers local to
/// the sending / receiving rank, echoed back by the peer.
#[derive(Clone, Debug)]
pub enum Packet {
    /// Optimistic transfer: envelope and data together. The receiver buffers
    /// the data if no receive is posted yet (costing a copy — this is the
    /// "Buffering" line of Fig. 1).
    Eager {
        /// Envelope for matching.
        env: Envelope,
        /// Sender request id, echoed in [`Packet::EagerAck`] when
        /// `needs_ack` (synchronous mode).
        send_id: u64,
        /// Whether the sender requires a match acknowledgment (`Ssend`).
        needs_ack: bool,
        /// `Rsend`: the sender asserts a receive is already posted; if not,
        /// the receiver reports an error instead of buffering.
        ready: bool,
        /// The payload.
        data: Bytes,
    },
    /// Rendezvous step 1: envelope only; data stays at the sender.
    RndvReq {
        /// Envelope for matching.
        env: Envelope,
        /// Sender request id.
        send_id: u64,
        /// The sender's buffer, lent to the receiver: set only over a
        /// device that [lends memory](crate::Device::lends_memory), where
        /// the receiver copies the payload out itself and its
        /// [`Packet::RndvGo`] reports the copy done. Never encoded: a
        /// frame that crosses a codec arrives with `None` and the data
        /// follows as [`Packet::RndvChunk`]s.
        lease: Option<Arc<Lease>>,
    },
    /// Rendezvous step 2 (receiver → sender): matched; send the data — or,
    /// for a request that carried a lease, the data has been pulled.
    RndvGo {
        /// Echo of the sender request id.
        send_id: u64,
        /// Receiver request id to route the data.
        recv_id: u64,
    },
    /// Rendezvous step 3 as the seed protocol framed it: the whole bulk
    /// data in one frame. Wire vocabulary only — this library's sender
    /// always streams [`Packet::RndvChunk`]s — but a receiver accepts one
    /// as a complete one-chunk stream.
    RndvData {
        /// Echo of the receiver request id.
        recv_id: u64,
        /// The payload.
        data: Bytes,
    },
    /// Rendezvous step 3: one segment of the bulk data, written at
    /// `offset` directly into the posted user buffer (the "No buffering"
    /// line of Fig. 1). A message within the platform's
    /// [`crate::DeviceDefaults::rndv_chunk`] is one of these; a larger one
    /// streams as a window of them so a single lost frame costs one chunk,
    /// not the whole transfer.
    RndvChunk {
        /// Echo of the receiver request id.
        recv_id: u64,
        /// Byte offset of this segment within the message.
        offset: usize,
        /// Total message length in bytes (same in every chunk).
        total: usize,
        /// This segment's payload.
        data: Bytes,
    },
    /// Receiver → sender: a chunk landed; release the next chunk of the
    /// pipeline window. Not sent for the chunk that completes a message.
    RndvChunkAck {
        /// Echo of the sender request id.
        send_id: u64,
    },
    /// Match acknowledgment for synchronous-mode eager sends.
    EagerAck {
        /// Echo of the sender request id.
        send_id: u64,
    },
    /// Explicit flow-control credit return (piggyback fields in [`Wire`]
    /// are preferred; this flushes owed credit when traffic is one-sided).
    Credit,
    /// Broadcast payload delivered by a device's hardware broadcast
    /// (Meiko CS/2); software broadcasts use plain point-to-point packets.
    HwBcast {
        /// Communicator context (collective plane).
        context: ContextId,
        /// Root's global rank.
        root: Rank,
        /// Per-context broadcast sequence number.
        seq: u64,
        /// The payload.
        data: Bytes,
    },
    /// ULFM communicator revocation: a survivor that observed a rank
    /// failure floods this to every other member so pending and future
    /// operations on the communicator abort with
    /// [`MpiError::Revoked`](crate::MpiError::Revoked) even on ranks that
    /// never talk to the dead peer directly. Idempotent; sequenced and
    /// retransmitted like any control frame.
    Revoke {
        /// Point-to-point context id of the revoked communicator (its
        /// collective plane `context + 1` is revoked implicitly).
        context: ContextId,
    },
}

impl Packet {
    /// Short name for tracing and counters.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Packet::Eager { .. } => "eager",
            Packet::RndvReq { .. } => "rndv_req",
            Packet::RndvGo { .. } => "rndv_go",
            Packet::RndvData { .. } => "rndv_data",
            Packet::RndvChunk { .. } => "rndv_chunk",
            Packet::RndvChunkAck { .. } => "rndv_chunk_ack",
            Packet::EagerAck { .. } => "eager_ack",
            Packet::Credit => "credit",
            Packet::HwBcast { .. } => "hw_bcast",
            Packet::Revoke { .. } => "revoke",
        }
    }

    /// Payload bytes carried (for bandwidth accounting).
    pub fn payload_len(&self) -> usize {
        match self {
            Packet::Eager { data, .. }
            | Packet::RndvData { data, .. }
            | Packet::RndvChunk { data, .. }
            | Packet::HwBcast { data, .. } => data.len(),
            _ => 0,
        }
    }

    /// Whether this packet is a bulk data transfer (device may use its DMA
    /// path) as opposed to a small control transaction.
    pub fn is_bulk(&self) -> bool {
        matches!(self, Packet::RndvData { .. } | Packet::RndvChunk { .. })
    }

    /// The observability packet classification for trace events.
    pub fn obs_kind(&self) -> lmpi_obs::PacketKind {
        use lmpi_obs::PacketKind as K;
        match self {
            Packet::Eager { .. } => K::Eager,
            Packet::RndvReq { .. } => K::RndvReq,
            Packet::RndvGo { .. } => K::RndvGo,
            Packet::RndvData { .. } => K::RndvData,
            Packet::RndvChunk { .. } => K::RndvChunk,
            Packet::RndvChunkAck { .. } => K::RndvChunkAck,
            Packet::EagerAck { .. } => K::EagerAck,
            Packet::Credit => K::Credit,
            Packet::HwBcast { .. } => K::HwBcast,
            Packet::Revoke { .. } => K::Revoke,
        }
    }
}

/// A framed protocol message: the packet plus piggybacked credit returns
/// and the reliability sublayer's sequence/ack numbers.
#[derive(Clone, Debug)]
pub struct Wire {
    /// Global rank of the sender of this frame.
    pub src: Rank,
    /// Reliability sequence number on the (sender → receiver) channel,
    /// assigned by the ack/retransmit sublayer (the paper's "reliable UDP"
    /// transport). `0` means *unsequenced*: reliability is disabled, or the
    /// frame is a sublayer-internal pure acknowledgment.
    pub seq: u64,
    /// Cumulative acknowledgment piggybacked next to the credit fields:
    /// highest sequence number received in order from the frame's
    /// destination. `0` means nothing acknowledged yet.
    pub ack: u64,
    /// Selective acknowledgment bitmap piggybacked beside the cumulative
    /// ack: bit `k` set means sequence `ack + 2 + k` from the frame's
    /// destination has been received out of order (`ack + 1` is by
    /// definition the first hole). `0` under go-back-N, which never
    /// accepts out of order.
    pub ack_bits: u64,
    /// Envelope slots being returned to the receiver of this frame.
    pub env_credit: u32,
    /// Buffer bytes being returned to the receiver of this frame.
    pub data_credit: u64,
    /// Flight-recorder message identity: the per-sender monotonic
    /// sequence number (starting at 1) of the user message this frame
    /// belongs to, assigned at `post_send`. Combined with the message's
    /// *source* rank it forms the stable cross-rank `MsgId`. `0` means
    /// the frame serves no single message (credit returns, pure acks).
    /// Note the owning message's source is not always [`Wire::src`]:
    /// reply packets (`RndvGo`, `EagerAck`, `RndvChunkAck`) travel from
    /// the receiver back to the message's sender.
    pub msg_seq: u32,
    /// The protocol packet.
    pub pkt: Packet,
}

impl Wire {
    /// A frame with no piggybacked credit, no sequencing, and no message
    /// attribution.
    pub fn bare(src: Rank, pkt: Packet) -> Self {
        Wire {
            src,
            seq: 0,
            ack: 0,
            ack_bits: 0,
            env_credit: 0,
            data_credit: 0,
            msg_seq: 0,
            pkt,
        }
    }

    /// The flight-recorder identity of the message this frame serves.
    /// `dst` is the frame's *destination* rank (the transmitting device
    /// passes its send target; the receiving engine passes its own
    /// rank). Forward packets (eager data, rendezvous request/data/chunks,
    /// broadcast) belong to a message sourced at the frame's sender;
    /// reply packets (`RndvGo`, `EagerAck`, `RndvChunkAck`) belong to a
    /// message sourced at the frame's destination. Returns [`lmpi_obs::MsgId::NONE`]
    /// for unattributed frames (`msg_seq == 0`, credit returns).
    pub fn msg_id(&self, dst: Rank) -> lmpi_obs::MsgId {
        if self.msg_seq == 0 {
            return lmpi_obs::MsgId::NONE;
        }
        let src = match self.pkt {
            Packet::RndvGo { .. } | Packet::EagerAck { .. } | Packet::RndvChunkAck { .. } => dst,
            _ => self.src,
        };
        lmpi_obs::MsgId {
            src: src as u32,
            seq: self.msg_seq,
        }
    }
}

/// A reusable set of staging blocks for outgoing payloads: a window of
/// eager frames in flight costs no allocator call once the pool has seen
/// that window.
///
/// Ownership rule: the pool keeps the blocks it staged in a FIFO, oldest
/// first; every `stage_*` call fills a block and hands out an immutable
/// [`Bytes`] over it that travels inside a [`Packet`]. Staging looks at
/// the oldest block only. If no handle on it is alive (the frame was
/// delivered and copied out, and any retransmit copy acknowledged) and it
/// is large enough, staging refills it and moves it to the back.
/// Otherwise staging allocates a block of exactly the payload's size and
/// counts a [`grow`](Self::grows). A still-held oldest block goes to the
/// back while the pool has room, so the free blocks behind it come up
/// next, and is forgotten at the cap (its last holder frees it). The pool
/// therefore settles at the depth of the traffic in flight, at most
/// `max_blocks` blocks of at most `max_block` bytes each. Correctness
/// never depends on reuse: a reused block has no other handle, which
/// `Arc::get_mut` proves with the Acquire that pairs with the releasing
/// drop on whichever thread let the last handle go.
#[derive(Debug)]
pub struct FramePool {
    /// Blocks this pool staged, oldest first; some may still be held.
    blocks: VecDeque<Arc<Vec<u8>>>,
    /// Most blocks kept (at least 1).
    max_blocks: usize,
    /// Largest block kept, in bytes; a larger payload's block is staged
    /// once and left to its holder.
    max_block: usize,
    /// Times staging allocated instead of reusing the oldest block: a pool
    /// shallower than the frames in flight, a block still held when it
    /// came round, or a payload larger than the block. Traffic the pool
    /// has already seen — a ping-pong, a window of eager sends, typed
    /// gather-on-pack sends — holds this constant; tests assert on the
    /// exported counter to prove the hot path does no heap staging.
    grows: u64,
}

impl Default for FramePool {
    fn default() -> Self {
        Self::new()
    }
}

impl FramePool {
    /// An empty pool that keeps one block of any size: the depth-1 case,
    /// for a caller that drops each payload before staging the next.
    pub fn new() -> Self {
        Self::bounded(1, usize::MAX)
    }

    /// An empty pool that keeps at most `max_blocks` blocks (at least
    /// one) of at most `max_block` bytes each. The engine passes its
    /// envelope slots and eager threshold: the most eager frames flow
    /// control lets it have in flight to one peer, and the largest of
    /// them.
    pub(crate) fn bounded(max_blocks: usize, max_block: usize) -> Self {
        FramePool {
            blocks: VecDeque::new(),
            max_blocks: max_blocks.max(1),
            max_block,
            grows: 0,
        }
    }

    /// Cumulative fresh-allocation count (see the field doc).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// The oldest block if no handle on it is alive and it holds `n`
    /// bytes, else a fresh one. A payload above `max_block` leaves the
    /// pool alone.
    fn take(&mut self, n: usize) -> Arc<Vec<u8>> {
        if n <= self.max_block {
            if let Some(mut oldest) = self.blocks.pop_front() {
                match Arc::get_mut(&mut oldest) {
                    Some(b) if b.capacity() >= n => return oldest,
                    // Room for it and the fresh block: to the back.
                    None if self.blocks.len() + 1 < self.max_blocks => {
                        self.blocks.push_back(oldest)
                    }
                    // Too small (the fresh block replaces it), or held at
                    // the cap: let it go.
                    _ => {}
                }
            }
        }
        self.grows += 1;
        Arc::new(Vec::with_capacity(n))
    }

    /// Let `fill` append `n` bytes to a block from [`take`](Self::take)
    /// and keep the block unless it is above `max_block`.
    fn stage_with(&mut self, n: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let n = n.max(1);
        let mut block = self.take(n);
        let buf = Arc::get_mut(&mut block).expect("reused or fresh: no other handle");
        buf.clear();
        fill(buf);
        if n <= self.max_block {
            self.blocks.push_back(Arc::clone(&block));
        }
        Bytes::from_block(block)
    }

    /// Encode a typed slice into pooled storage and freeze it as `Bytes`.
    pub fn stage<T: MpiData>(&mut self, slice: &[T]) -> Bytes {
        self.stage_with(T::byte_len(slice.len()), |b| T::write_to(b, slice))
    }

    /// Copy raw bytes into pooled storage and freeze them as `Bytes`.
    pub fn stage_bytes(&mut self, bytes: &[u8]) -> Bytes {
        self.stage_with(bytes.len(), |b| b.extend_from_slice(bytes))
    }

    /// Gather a flattened datatype's runs out of `memory` straight into
    /// pooled storage and freeze them as `Bytes` — the typed eager path's
    /// staging: no intermediate `Vec`, and (steady state) no allocation,
    /// exactly like the contiguous [`stage`](Self::stage).
    ///
    /// The caller must have validated `flat.fits(memory.len())`.
    pub fn stage_gather(&mut self, flat: &crate::dtype::FlatLayout, memory: &[u8]) -> Bytes {
        self.stage_with(flat.packed_size(), |b| {
            for r in flat.runs() {
                b.extend_from_slice(&memory[r.mem_off..r.mem_off + r.len]);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Envelope {
        Envelope {
            src: 1,
            tag: 9,
            context: 0,
            len: 4,
        }
    }

    #[test]
    fn kind_names_and_bulk() {
        let e = Packet::Eager {
            env: env(),
            send_id: 0,
            needs_ack: false,
            ready: false,
            data: Bytes::from_static(b"abcd"),
        };
        assert_eq!(e.kind_name(), "eager");
        assert!(!e.is_bulk());
        assert_eq!(e.payload_len(), 4);

        let d = Packet::RndvData {
            recv_id: 3,
            data: Bytes::from_static(b"xy"),
        };
        assert!(d.is_bulk());
        assert_eq!(d.payload_len(), 2);
        assert_eq!(Packet::Credit.payload_len(), 0);

        let c = Packet::RndvChunk {
            recv_id: 3,
            offset: 8,
            total: 11,
            data: Bytes::from_static(b"xyz"),
        };
        assert_eq!(c.kind_name(), "rndv_chunk");
        assert!(c.is_bulk());
        assert_eq!(c.payload_len(), 3);
        let a = Packet::RndvChunkAck { send_id: 4 };
        assert!(!a.is_bulk());
        assert_eq!(a.payload_len(), 0);

        let r = Packet::Revoke { context: 4 };
        assert_eq!(r.kind_name(), "revoke");
        assert!(!r.is_bulk());
        assert_eq!(r.payload_len(), 0);
    }

    #[test]
    fn bare_wire_has_no_credit_and_no_sequencing() {
        let w = Wire::bare(2, Packet::Credit);
        assert_eq!(w.src, 2);
        assert_eq!(w.env_credit, 0);
        assert_eq!(w.data_credit, 0);
        assert_eq!(w.seq, 0);
        assert_eq!(w.ack, 0);
        assert_eq!(w.ack_bits, 0);
        assert_eq!(w.msg_seq, 0);
        assert_eq!(w.msg_id(7), lmpi_obs::MsgId::NONE);
    }

    #[test]
    fn msg_id_points_at_the_message_source_for_forward_and_reply_packets() {
        // Forward: eager data from rank 2 to rank 5 — message source 2.
        let mut fwd = Wire::bare(
            2,
            Packet::Eager {
                env: env(),
                send_id: 0,
                needs_ack: false,
                ready: false,
                data: Bytes::from_static(b"abcd"),
            },
        );
        fwd.msg_seq = 9;
        assert_eq!(fwd.msg_id(5), lmpi_obs::MsgId { src: 2, seq: 9 });

        // Reply: RndvGo from receiver 5 back to sender 2 — the message
        // it serves is sourced at the frame's destination.
        let mut rep = Wire::bare(
            5,
            Packet::RndvGo {
                send_id: 1,
                recv_id: 2,
            },
        );
        rep.msg_seq = 9;
        assert_eq!(rep.msg_id(2), lmpi_obs::MsgId { src: 2, seq: 9 });

        // Chunk data is a forward packet; the chunk ack is a reply.
        let mut chunk = Wire::bare(
            2,
            Packet::RndvChunk {
                recv_id: 2,
                offset: 0,
                total: 8,
                data: Bytes::from_static(b"abcd"),
            },
        );
        chunk.msg_seq = 9;
        assert_eq!(chunk.msg_id(5), lmpi_obs::MsgId { src: 2, seq: 9 });
        let mut cack = Wire::bare(5, Packet::RndvChunkAck { send_id: 1 });
        cack.msg_seq = 9;
        assert_eq!(cack.msg_id(2), lmpi_obs::MsgId { src: 2, seq: 9 });
    }

    #[test]
    fn frame_pool_stages_correct_bytes() {
        let mut pool = FramePool::new();
        let a = pool.stage(&[1u16, 2, 3]);
        assert_eq!(&a[..], &[1, 0, 2, 0, 3, 0]);
        let b = pool.stage_bytes(b"hello");
        assert_eq!(&b[..], b"hello");
        // The earlier handle is unaffected by later staging.
        assert_eq!(&a[..], &[1, 0, 2, 0, 3, 0]);
    }

    #[test]
    fn frame_pool_reclaims_storage_once_handles_drop() {
        let mut pool = FramePool::new();
        let a = pool.stage_bytes(&[7u8; 64]);
        let ptr = a.as_ptr();
        drop(a);
        // All handles dropped: the next stage refills the same allocation,
        // so the steady-state ping-pong is allocation-free.
        let b = pool.stage_bytes(&[9u8; 64]);
        assert_eq!(b.as_ptr(), ptr);
    }

    /// Envelope slots of the shm device: the window the engine's pool keeps.
    const SLOTS: usize = 64;

    /// Stage one window of `SLOTS` live payloads, each byte naming its slot.
    fn stage_window(pool: &mut FramePool, round: u8) -> Vec<Bytes> {
        (0..SLOTS)
            .map(|i| pool.stage_bytes(&[round ^ i as u8; 1024]))
            .collect()
    }

    fn assert_window_intact(window: &[Bytes], round: u8) {
        for (i, b) in window.iter().enumerate() {
            assert!(
                b.iter().all(|&x| x == round ^ i as u8),
                "slot {i} clobbered"
            );
        }
    }

    #[test]
    fn frame_pool_grows_while_old_handles_live() {
        // The first window: every block is still held when the next is
        // staged, so each stage allocates and none overwrites another.
        let mut pool = FramePool::bounded(SLOTS, 8192);
        let window = stage_window(&mut pool, 1);
        assert_eq!(pool.grows(), SLOTS as u64);
        assert_eq!(pool.blocks.len(), SLOTS);
        assert_window_intact(&window, 1);
    }

    #[test]
    fn frame_pool_recycles_a_window_dropped_in_order() {
        let mut pool = FramePool::bounded(SLOTS, 8192);
        drop(stage_window(&mut pool, 0));
        for round in 1..=20 {
            let window = stage_window(&mut pool, round);
            assert_window_intact(&window, round);
            drop(window);
        }
        assert_eq!(pool.grows(), SLOTS as u64, "the first window only");
    }

    #[test]
    fn frame_pool_recycles_a_window_dropped_out_of_order() {
        let mut pool = FramePool::bounded(SLOTS, 8192);
        for round in 0..=20 {
            let mut window: Vec<Option<Bytes>> = stage_window(&mut pool, round)
                .into_iter()
                .map(Some)
                .collect();
            // 37 is coprime with 64: a full permutation of the slots.
            for k in 0..SLOTS {
                let slot = (k * 37 + round as usize) % SLOTS;
                let b = window[slot].take().expect("each slot dropped once");
                assert!(b.iter().all(|&x| x == round ^ slot as u8));
            }
        }
        assert_eq!(pool.grows(), SLOTS as u64, "the first window only");
    }

    #[test]
    fn frame_pool_recycles_behind_a_block_held_forever() {
        for held_slot in [0, 10, SLOTS - 1] {
            let mut pool = FramePool::bounded(SLOTS, 8192);
            let mut first = stage_window(&mut pool, 0);
            let held = first.swap_remove(held_slot);
            drop(first);
            for round in 1..=20 {
                drop(stage_window(&mut pool, round));
            }
            // The held block came round once, at the cap: forgotten, and
            // one fresh block took its place for good.
            assert_eq!(pool.grows(), SLOTS as u64 + 1, "held slot {held_slot}");
            assert!(held.iter().all(|&x| x == held_slot as u8));
        }

        // Below the cap the held block goes to the back, costing one grow
        // each time round until the pool reaches the cap.
        let mut pool = FramePool::bounded(SLOTS, 8192);
        let held = pool.stage_bytes(&[0xEE; 8]);
        for i in 0..10_000u32 {
            drop(pool.stage_bytes(&i.to_le_bytes()));
        }
        let behind = pool.grows() - 1;
        assert!(
            behind <= SLOTS as u64,
            "grew {behind} behind the held block"
        );
        assert!(pool.blocks.len() <= SLOTS);
        assert_eq!(&held[..], &[0xEE; 8]);
    }

    #[test]
    fn frame_pool_retention_is_bounded_by_slots_and_block_size() {
        let mut pool = FramePool::bounded(4, 100);
        let live: Vec<Bytes> = (0..10u8).map(|i| pool.stage_bytes(&[i; 100])).collect();
        assert_eq!(pool.grows(), 10);
        assert!(pool.blocks.len() <= 4, "kept {}", pool.blocks.len());
        drop(live);

        // A block above the size bound is staged and left to its holder.
        let kept = pool.blocks.len();
        for _ in 0..3 {
            drop(pool.stage_bytes(&[7u8; 101]));
            assert_eq!(pool.blocks.len(), kept);
        }
        assert_eq!(pool.grows(), 13, "an oversized payload is never reused");
        assert!(pool.blocks.iter().all(|b| b.capacity() <= 100));
    }

    #[test]
    fn frame_pool_growth_counter_stays_flat_in_steady_state() {
        let mut pool = FramePool::new();
        drop(pool.stage_bytes(&[3u8; 256]));
        let warm = pool.grows();
        assert!(warm >= 1, "first stage allocates");
        // Drop-before-restage, fixed size: every iteration refills the
        // same kept block.
        for i in 0..50u8 {
            drop(pool.stage_bytes(&[i; 256]));
        }
        assert_eq!(
            pool.grows(),
            warm,
            "steady-state staging must not touch the allocator"
        );
    }

    #[test]
    fn frame_pool_gathers_runs_without_intermediate_vec() {
        use crate::dtype::DataType;
        let flat = DataType::base(1).vector(3, 2, 5).flatten().expect("small");
        let mem: Vec<u8> = (0..12).collect();
        let mut pool = FramePool::new();
        let packed = pool.stage_gather(&flat, &mem);
        assert_eq!(&packed[..], &[0, 1, 5, 6, 10, 11]);
        drop(packed);
        let warm = pool.grows();
        for _ in 0..20 {
            drop(pool.stage_gather(&flat, &mem));
        }
        assert_eq!(pool.grows(), warm, "typed gather stages allocation-free");
    }
}
