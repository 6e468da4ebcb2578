//! Typed protocol events.
//!
//! One flat `Copy` enum covers every layer that emits: the protocol engine
//! (posting, matching, rendezvous, credit flow), the collectives, and the
//! device stack (wire tx/rx, retransmission, fault injection). Keeping the
//! schema in one place is what makes cross-layer timelines line up in the
//! Chrome export and lets the report walker pair events across ranks.

/// Stable cross-rank identity of one user message.
///
/// The engine stamps every posted send with a per-sender monotonic
/// sequence number (starting at 1) and threads it through the wire
/// headers, so events emitted on *both* sides of a transfer — and in
/// every device layer in between — carry the same `(src, seq)` pair.
/// This is what lets `correlate` stitch per-rank rings into one
/// per-message timeline.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId {
    /// Rank that posted the send.
    pub src: u32,
    /// Per-sender monotonic message number, starting at 1. `0` is the
    /// [`MsgId::NONE`] sentinel: the event is not tied to one message
    /// (credit returns, collectives, pure acks).
    pub seq: u32,
}

impl MsgId {
    /// "No message": events outside any message's flight path.
    pub const NONE: MsgId = MsgId { src: 0, seq: 0 };

    /// Whether this is a real message identity (seq ≥ 1).
    #[inline]
    pub fn is_some(self) -> bool {
        self.seq != 0
    }
}

/// A single traced occurrence: a timestamp plus a typed payload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds on the emitting rank's clock (virtual or monotonic).
    pub t_ns: u64,
    /// Process-local id of the emitting thread (see
    /// [`current_tid`](crate::current_tid)), so multi-threaded ranks
    /// (callers + progress thread) separate into distinct
    /// rows in the Chrome export instead of interleaving on one.
    pub tid: u32,
    /// Which message this event belongs to ([`MsgId::NONE`] when the
    /// event is not attributable to one message).
    pub msg: MsgId,
    /// What happened.
    pub kind: EventKind,
}

/// Which wire packet a [`EventKind::WireTx`] / [`EventKind::WireRx`]
/// refers to. Mirrors `lmpi-core`'s `Packet` variants without depending
/// on that crate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// Eager data packet (envelope + payload in one frame).
    Eager,
    /// Rendezvous request (envelope only).
    RndvReq,
    /// Rendezvous go-ahead from the receiver.
    RndvGo,
    /// Rendezvous bulk data.
    RndvData,
    /// One pipelined chunk of rendezvous bulk data.
    RndvChunk,
    /// Window-advance acknowledgement for a rendezvous chunk.
    RndvChunkAck,
    /// Acknowledgement of a synchronous-mode eager send.
    EagerAck,
    /// Explicit credit return.
    Credit,
    /// Hardware broadcast frame.
    HwBcast,
    /// ULFM communicator-revocation flood.
    Revoke,
}

impl PacketKind {
    /// Stable short name, used by the Chrome exporter.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::Eager => "Eager",
            PacketKind::RndvReq => "RndvReq",
            PacketKind::RndvGo => "RndvGo",
            PacketKind::RndvData => "RndvData",
            PacketKind::RndvChunk => "RndvChunk",
            PacketKind::RndvChunkAck => "RndvChunkAck",
            PacketKind::EagerAck => "EagerAck",
            PacketKind::Credit => "Credit",
            PacketKind::HwBcast => "HwBcast",
            PacketKind::Revoke => "Revoke",
        }
    }
}

/// Which fault a `FaultyDevice` injected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Frame silently discarded.
    Drop,
    /// Frame delivered twice.
    Duplicate,
    /// Frame held back behind its successor.
    Reorder,
    /// Frame delayed by the configured interval.
    Delay,
}

impl FaultKind {
    /// Stable short name, used by the Chrome exporter.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Delay => "delay",
        }
    }
}

/// Which collective operation a [`EventKind::CollBegin`] /
/// [`EventKind::CollEnd`] pair brackets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CollOp {
    /// Dissemination barrier.
    Barrier,
    /// Broadcast (hardware or binomial tree).
    Bcast,
    /// Reduce to root.
    Reduce,
    /// Allreduce.
    Allreduce,
    /// Gather to root.
    Gather,
    /// Ring allgather.
    Allgather,
    /// Scatter from root.
    Scatter,
    /// All-to-all exchange.
    Alltoall,
    /// Inclusive scan.
    Scan,
}

impl CollOp {
    /// Stable short name, used by the Chrome exporter.
    pub fn name(self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Bcast => "bcast",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
            CollOp::Gather => "gather",
            CollOp::Allgather => "allgather",
            CollOp::Scatter => "scatter",
            CollOp::Alltoall => "alltoall",
            CollOp::Scan => "scan",
        }
    }
}

/// Which algorithm a collective dispatch selected for a
/// [`EventKind::CollBegin`] span. `Direct` covers single-algorithm
/// collectives (gather, scatter, alltoall, scan, reduce) and naive
/// reference paths.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CollAlgo {
    /// The collective's single direct implementation.
    Direct,
    /// Hardware-assisted broadcast (Meiko CS/2 NIC bcast).
    Hw,
    /// Binomial tree.
    Binomial,
    /// Scatter + ring-allgather broadcast (large-message bcast).
    ScatterAllgather,
    /// Binomial reduce to root followed by a broadcast.
    ReduceBcast,
    /// Ring (reduce-scatter + allgather, or plain ring exchange).
    Ring,
    /// Recursive doubling.
    RecursiveDoubling,
    /// Dissemination exchange.
    Dissemination,
    /// Binomial gather-up / release-down tree.
    Tree,
    /// Gather to a root followed by a broadcast.
    GatherBcast,
}

impl CollAlgo {
    /// Stable short name, used by the Chrome exporter and the reports.
    pub fn name(self) -> &'static str {
        match self {
            CollAlgo::Direct => "direct",
            CollAlgo::Hw => "hw",
            CollAlgo::Binomial => "binomial",
            CollAlgo::ScatterAllgather => "scatter_allgather",
            CollAlgo::ReduceBcast => "reduce_bcast",
            CollAlgo::Ring => "ring",
            CollAlgo::RecursiveDoubling => "recursive_doubling",
            CollAlgo::Dissemination => "dissemination",
            CollAlgo::Tree => "tree",
            CollAlgo::GatherBcast => "gather_bcast",
        }
    }
}

/// The traced protocol event taxonomy.
///
/// `peer` is always the *other* rank (destination for tx-side events,
/// source for rx-side events); `bytes` is the user payload length.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A send entered the engine (`post_send`). Start of the send-side
    /// protocol phase.
    SendPosted {
        /// Destination rank.
        peer: u32,
        /// Payload bytes.
        bytes: u32,
        /// Message tag.
        tag: u32,
    },
    /// An eager data packet left the engine for the device.
    EagerTx {
        /// Destination rank.
        peer: u32,
        /// Payload bytes.
        bytes: u32,
    },
    /// A rendezvous request left the engine.
    RndvReqTx {
        /// Destination rank.
        peer: u32,
        /// Payload bytes (of the eventual bulk transfer).
        bytes: u32,
    },
    /// The receiver sent the rendezvous go-ahead.
    RndvGoTx {
        /// Sender rank being released.
        peer: u32,
    },
    /// The sender received the go-ahead (bulk transfer can start).
    RndvGoRx {
        /// Receiver rank that released us.
        peer: u32,
    },
    /// Bulk data transfer started (sender side).
    DmaStart {
        /// Destination rank.
        peer: u32,
        /// Payload bytes.
        bytes: u32,
    },
    /// Bulk data fully delivered into the posted buffer (receiver side).
    DmaEnd {
        /// Source rank.
        peer: u32,
        /// Payload bytes.
        bytes: u32,
    },
    /// An incoming envelope matched a posted receive (`unexpected ==
    /// false`), or a posted receive matched a buffered unexpected message
    /// (`unexpected == true`).
    EnvelopeMatched {
        /// Source rank of the message.
        peer: u32,
        /// Payload bytes.
        bytes: u32,
        /// Whether the match came off the unexpected queue.
        unexpected: bool,
    },
    /// An incoming message found no posted receive and was buffered.
    UnexpectedBuffered {
        /// Source rank.
        peer: u32,
        /// Payload bytes.
        bytes: u32,
    },
    /// Payload landed in the user's receive buffer; receive complete.
    Delivered {
        /// Source rank.
        peer: u32,
        /// Payload bytes.
        bytes: u32,
    },
    /// A receive was posted (`post_recv`).
    RecvPosted {
        /// Tag selected (wildcard encoded as `u32::MAX`).
        tag: u32,
    },
    /// Eager-synchronous acknowledgement sent (receiver side).
    AckTx {
        /// Rank being acknowledged.
        peer: u32,
    },
    /// Eager-synchronous acknowledgement received (sender side).
    AckRx {
        /// Acknowledging rank.
        peer: u32,
    },
    /// A send could not transmit for lack of credit and was queued.
    CreditStall {
        /// Destination rank we are stalled against.
        peer: u32,
    },
    /// The queued sends for a peer fully drained after a stall.
    CreditResume {
        /// Destination rank.
        peer: u32,
        /// How long the queue was non-empty, in nanoseconds.
        stalled_ns: u64,
    },
    /// An explicit credit-return packet was sent.
    CreditTx {
        /// Rank being refilled.
        peer: u32,
    },
    /// The engine began processing an incoming wire frame.
    WireRx {
        /// Source rank.
        peer: u32,
        /// Packet type carried.
        kind: PacketKind,
    },
    /// A device accepted a wire frame for transmission.
    WireTx {
        /// Destination rank.
        peer: u32,
        /// Packet type carried.
        kind: PacketKind,
        /// Payload bytes carried (0 for control packets).
        bytes: u32,
    },
    /// The reliability layer retransmitted a frame.
    Retransmit {
        /// Destination rank.
        peer: u32,
        /// Sequence number resent.
        seq: u32,
    },
    /// The reliability layer suppressed a duplicate arrival.
    DupSuppressed {
        /// Source rank.
        peer: u32,
        /// Duplicate sequence number.
        seq: u32,
    },
    /// The reliability layer sent a pure (non-piggybacked) acknowledgement.
    PureAckTx {
        /// Destination rank.
        peer: u32,
    },
    /// A `FaultyDevice` injected a fault into an outgoing frame.
    FaultInjected {
        /// Destination rank of the afflicted frame.
        peer: u32,
        /// Which fault.
        fault: FaultKind,
    },
    /// A collective operation began on this rank.
    CollBegin {
        /// Which collective.
        op: CollOp,
        /// Which algorithm the dispatch layer selected.
        algo: CollAlgo,
    },
    /// A collective operation completed on this rank.
    CollEnd {
        /// Which collective.
        op: CollOp,
    },
    /// The liveness state machine moved a peer from Alive to Suspect: no
    /// frame (data, ack or keepalive) heard for the suspect threshold.
    PeerSuspect {
        /// The peer now suspected.
        peer: u32,
    },
    /// The liveness state machine declared a peer dead — the dead
    /// threshold elapsed with silence, or retransmission to it exhausted.
    /// Terminal: a dead peer never comes back.
    PeerDead {
        /// The peer declared dead.
        peer: u32,
    },
    /// A communicator-revocation frame was received from a survivor.
    RevokeRx {
        /// The rank that flooded the revocation.
        peer: u32,
    },
}

impl EventKind {
    /// Stable display name for timeline rendering.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SendPosted { .. } => "SendPosted",
            EventKind::EagerTx { .. } => "EagerTx",
            EventKind::RndvReqTx { .. } => "RndvReqTx",
            EventKind::RndvGoTx { .. } => "RndvGoTx",
            EventKind::RndvGoRx { .. } => "RndvGoRx",
            EventKind::DmaStart { .. } => "DmaStart",
            EventKind::DmaEnd { .. } => "DmaEnd",
            EventKind::EnvelopeMatched { .. } => "EnvelopeMatched",
            EventKind::UnexpectedBuffered { .. } => "UnexpectedBuffered",
            EventKind::Delivered { .. } => "Delivered",
            EventKind::RecvPosted { .. } => "RecvPosted",
            EventKind::AckTx { .. } => "AckTx",
            EventKind::AckRx { .. } => "AckRx",
            EventKind::CreditStall { .. } => "CreditStall",
            EventKind::CreditResume { .. } => "CreditResume",
            EventKind::CreditTx { .. } => "CreditTx",
            EventKind::WireRx { .. } => "WireRx",
            EventKind::WireTx { .. } => "WireTx",
            EventKind::Retransmit { .. } => "Retransmit",
            EventKind::DupSuppressed { .. } => "DupSuppressed",
            EventKind::PureAckTx { .. } => "PureAckTx",
            EventKind::FaultInjected { .. } => "FaultInjected",
            EventKind::CollBegin { .. } => "CollBegin",
            EventKind::CollEnd { .. } => "CollEnd",
            EventKind::PeerSuspect { .. } => "PeerSuspect",
            EventKind::PeerDead { .. } => "PeerDead",
            EventKind::RevokeRx { .. } => "RevokeRx",
        }
    }
}
