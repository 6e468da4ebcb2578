//! Cross-rank message correlation: stitch per-rank [`TraceBuffer`]s into
//! per-message causal timelines.
//!
//! Every event that belongs to one user message carries the same
//! [`MsgId`] (`src` rank + per-sender monotonic sequence number), stamped
//! by the engine at `post_send` and threaded through the wire headers so
//! receiver-side and device-layer events agree on identity. This module
//! groups events by that ID across all ranks and reduces each group to a
//! [`MessageTimeline`]: the post → (match | buffer) → wire → deliver
//! phase timestamps, the per-phase dwell times the paper's Table 1
//! decomposes, and the retransmit/fault history from the device stack.
//!
//! Timestamps are comparable across ranks on every substrate this repo
//! ships: the shm fabric shares one `Instant` origin and the simulated
//! platforms share the virtual clock. On substrates without a common
//! clock the per-rank phases are still correct; only cross-rank gaps
//! (e.g. wire time) lose meaning.
//!
//! Besides stitching, [`correlate`] verifies causal invariants — every
//! delivery has a matching transmission, rendezvous data never precedes
//! the CTS, phases never run backwards — and reports breaches as typed
//! [`Violation`]s. When any ring overwrote events ([`TraceBuffer::
//! dropped`] > 0) the record is marked [`FlightRecord::truncated`] and
//! invariant checking is suppressed: an absent event is then evidence of
//! a full ring, not of a protocol bug.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind, MsgId, PacketKind};
use crate::json::{array, Obj};
use crate::tracer::TraceBuffer;

/// One wire-level transmission or arrival attributed to a message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WireRecord {
    /// Rank the event was recorded on.
    pub rank: u32,
    /// Timestamp, ns.
    pub t_ns: u64,
    /// The other rank.
    pub peer: u32,
    /// Packet type carried.
    pub kind: PacketKind,
    /// Payload bytes (0 for control frames).
    pub bytes: u32,
}

/// The reconstructed flight of one message through the protocol.
///
/// Phase timestamps are `None` when the corresponding event was not
/// observed (not traced on that rank, overwritten in the ring, or the
/// phase genuinely never happened — e.g. `unexpected_ns` for a message
/// that matched a posted receive directly).
#[derive(Clone, Debug, Default)]
pub struct MessageTimeline {
    /// Message identity (also gives the sending rank as `msg.src`).
    pub msg: MsgId,
    /// Destination rank, if any event revealed it.
    pub dst: Option<u32>,
    /// User payload bytes.
    pub bytes: u32,
    /// Message tag, if the send-side post was observed.
    pub tag: Option<u32>,
    /// Whether the message took the rendezvous path.
    pub rendezvous: bool,
    /// `post_send` entered the engine (sender).
    pub posted_ns: Option<u64>,
    /// First protocol transmission left the engine (sender): eager data
    /// or the rendezvous request.
    pub first_tx_ns: Option<u64>,
    /// Message was buffered on the unexpected queue (receiver).
    pub unexpected_ns: Option<u64>,
    /// Envelope matched a posted receive (receiver).
    pub matched_ns: Option<u64>,
    /// CTS (rendezvous go-ahead) left the receiver.
    pub rndv_go_tx_ns: Option<u64>,
    /// CTS arrived at the sender.
    pub rndv_go_rx_ns: Option<u64>,
    /// Bulk transfer started: on the sender for a streamed rendezvous, on
    /// the receiver when it pulls the payload itself
    /// ([`MessageTimeline::pulled`]).
    pub dma_start_ns: Option<u64>,
    /// Bulk transfer landed (receiver).
    pub dma_end_ns: Option<u64>,
    /// Payload reached the user buffer (receiver); flight complete.
    pub delivered_ns: Option<u64>,
    /// Device-layer transmissions carrying this message.
    pub wire_tx: Vec<WireRecord>,
    /// Engine-level arrivals of frames carrying this message.
    pub wire_rx: Vec<WireRecord>,
    /// Reliability-layer retransmissions of frames carrying this message.
    pub retransmits: u32,
    /// Duplicate deliveries suppressed.
    pub dups_suppressed: u32,
    /// Faults injected into this message's frames.
    pub faults: u32,
    /// The message stalled at least once waiting for send credit.
    pub credit_stalled: bool,
    /// Every event attributed to this message, as `(rank, event)`,
    /// sorted by timestamp.
    pub evidence: Vec<(u32, Event)>,
}

impl MessageTimeline {
    /// Post → first transmission: time spent queued in the engine
    /// (credit wait) before anything hit the device. `None` unless both
    /// endpoints of the interval were observed.
    pub fn send_queue_wait_ns(&self) -> Option<u64> {
        Some(self.first_tx_ns?.saturating_sub(self.posted_ns?))
    }

    /// Unexpected-buffer dwell: arrival-without-receiver → match.
    pub fn unexpected_dwell_ns(&self) -> Option<u64> {
        Some(self.matched_ns?.saturating_sub(self.unexpected_ns?))
    }

    /// RTS → CTS gap on the sender's clock: rendezvous request out to
    /// go-ahead back, covering the receiver's match wait plus two wire
    /// crossings.
    pub fn rts_cts_gap_ns(&self) -> Option<u64> {
        Some(self.rndv_go_rx_ns?.saturating_sub(self.first_tx_ns?))
    }

    /// The receiver copied the payload straight out of the sender's lent
    /// buffer: a rendezvous with a DMA bracket and no data frame. Its
    /// `DmaStart`/`DmaEnd` were recorded on the receiver and *precede* the
    /// go-ahead, which reports the copy done instead of asking for data.
    pub fn pulled(&self) -> bool {
        let data_frame =
            |w: &WireRecord| matches!(w.kind, PacketKind::RndvData | PacketKind::RndvChunk);
        self.rendezvous
            && self.dma_start_ns.is_some()
            && !self.wire_tx.iter().chain(&self.wire_rx).any(data_frame)
    }

    /// Wire time: first device transmission to last engine arrival of
    /// this message's frames (requires a shared clock to be meaningful).
    pub fn wire_ns(&self) -> Option<u64> {
        let first_tx = self.wire_tx.iter().map(|w| w.t_ns).min()?;
        let last_rx = self.wire_rx.iter().map(|w| w.t_ns).max()?;
        Some(last_rx.saturating_sub(first_tx))
    }

    /// End-to-end: post on the sender to delivery on the receiver.
    pub fn total_ns(&self) -> Option<u64> {
        Some(self.delivered_ns?.saturating_sub(self.posted_ns?))
    }

    /// A complete post → match → wire → deliver reconstruction: all four
    /// canonical phases were observed.
    pub fn is_complete(&self) -> bool {
        self.posted_ns.is_some()
            && self.matched_ns.is_some()
            && !self.wire_tx.is_empty()
            && self.delivered_ns.is_some()
    }
}

/// A causal-invariant breach found while correlating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A delivery was observed with no transmission anywhere in the
    /// record — the message materialized out of nothing.
    DeliveredWithoutTx {
        /// The impossible message.
        msg: MsgId,
    },
    /// Rendezvous bulk data moved before the receiver's go-ahead.
    DataBeforeCts {
        /// The offending message.
        msg: MsgId,
        /// When data first moved, ns.
        data_ns: u64,
        /// When the CTS left the receiver, ns.
        cts_ns: u64,
    },
    /// Two phases of one message ran in impossible order.
    PhaseInversion {
        /// The offending message.
        msg: MsgId,
        /// Which pair inverted, e.g. `"posted>delivered"`.
        what: &'static str,
    },
}

impl Violation {
    /// Human-readable one-liner.
    pub fn describe(&self) -> String {
        match self {
            Violation::DeliveredWithoutTx { msg } => format!(
                "message {}:{} was delivered but never transmitted",
                msg.src, msg.seq
            ),
            Violation::DataBeforeCts {
                msg,
                data_ns,
                cts_ns,
            } => format!(
                "message {}:{} moved rendezvous data at {} ns before CTS at {} ns",
                msg.src, msg.seq, data_ns, cts_ns
            ),
            Violation::PhaseInversion { msg, what } => {
                format!("message {}:{} phases inverted: {}", msg.src, msg.seq, what)
            }
        }
    }
}

/// How one message's wire transmissions are accounted for (see
/// [`FlightRecord::account_wire_tx`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxAccounting {
    /// Transmissions of messages that were ultimately delivered.
    pub delivered: usize,
    /// Transmissions of undelivered messages explained by an injected
    /// fault (e.g. a dropped frame with no reliability layer).
    pub dropped_with_fault: usize,
    /// Transmissions of undelivered messages explained by reliability-layer
    /// recovery activity (retransmit or duplicate suppression) still in
    /// flight when the trace ended.
    pub retransmitted: usize,
    /// Transmissions with no explanation at all — each one is a
    /// correlation bug or a lost event.
    pub orphans: Vec<MsgId>,
}

/// The full correlated record of a run.
#[derive(Clone, Debug, Default)]
pub struct FlightRecord {
    /// One timeline per observed message, ordered by `(src, seq)`.
    pub timelines: Vec<MessageTimeline>,
    /// Invariant breaches (empty when `truncated` — see module docs).
    pub violations: Vec<Violation>,
    /// At least one input ring overwrote events; absence of an event is
    /// not evidence and invariant checking was suppressed.
    pub truncated: bool,
}

impl FlightRecord {
    /// Timeline for `msg`, if observed.
    pub fn timeline(&self, msg: MsgId) -> Option<&MessageTimeline> {
        self.timelines
            .binary_search_by_key(&msg, |t| t.msg)
            .ok()
            .map(|i| &self.timelines[i])
    }

    /// Fraction bookkeeping for the acceptance bar: how many delivered
    /// messages have a complete post → match → wire → deliver timeline.
    pub fn complete_delivered(&self) -> (usize, usize) {
        let delivered = self
            .timelines
            .iter()
            .filter(|t| t.delivered_ns.is_some())
            .count();
        let complete = self
            .timelines
            .iter()
            .filter(|t| t.delivered_ns.is_some() && t.is_complete())
            .count();
        (complete, delivered)
    }

    /// Account for every message-carrying `WireTx` in the record: its
    /// message was delivered, or its loss is explained by an injected
    /// fault, or reliability-layer recovery was still working on it. Anything
    /// else is an orphan (deduplicated per message).
    pub fn account_wire_tx(&self) -> TxAccounting {
        let mut acc = TxAccounting::default();
        for t in &self.timelines {
            let ntx = t.wire_tx.len();
            if ntx == 0 {
                continue;
            }
            if t.delivered_ns.is_some() {
                acc.delivered += ntx;
            } else if t.faults > 0 {
                acc.dropped_with_fault += ntx;
            } else if t.retransmits > 0 || t.dups_suppressed > 0 {
                acc.retransmitted += ntx;
            } else {
                acc.orphans.push(t.msg);
            }
        }
        acc
    }
}

/// Stitch per-rank trace buffers into per-message timelines and check
/// causal invariants. See the module docs for the contract.
pub fn correlate(bufs: &[TraceBuffer]) -> FlightRecord {
    let truncated = bufs.iter().any(|b| b.dropped > 0);
    let mut map: BTreeMap<MsgId, MessageTimeline> = BTreeMap::new();

    for buf in bufs {
        for ev in &buf.events {
            if !ev.msg.is_some() {
                continue;
            }
            let t = map.entry(ev.msg).or_insert_with(|| MessageTimeline {
                msg: ev.msg,
                ..MessageTimeline::default()
            });
            absorb(t, buf.rank, ev);
        }
    }

    let mut timelines: Vec<MessageTimeline> = map.into_values().collect();
    for t in &mut timelines {
        t.evidence.sort_by_key(|(_, e)| e.t_ns);
    }

    let mut violations = Vec::new();
    if !truncated {
        for t in &timelines {
            check_invariants(t, &mut violations);
        }
    }

    FlightRecord {
        timelines,
        violations,
        truncated,
    }
}

/// Fold one event into the timeline it belongs to. `first`/`min`/`max`
/// folds keep the result independent of buffer iteration order.
fn absorb(t: &mut MessageTimeline, rank: u32, ev: &Event) {
    let min_opt = |slot: &mut Option<u64>, v: u64| {
        *slot = Some(slot.map_or(v, |cur| cur.min(v)));
    };
    match ev.kind {
        EventKind::SendPosted { peer, bytes, tag } => {
            min_opt(&mut t.posted_ns, ev.t_ns);
            t.dst = Some(peer);
            t.bytes = t.bytes.max(bytes);
            t.tag = Some(tag);
        }
        EventKind::EagerTx { bytes, .. } => {
            min_opt(&mut t.first_tx_ns, ev.t_ns);
            t.bytes = t.bytes.max(bytes);
        }
        EventKind::RndvReqTx { bytes, .. } => {
            min_opt(&mut t.first_tx_ns, ev.t_ns);
            t.rendezvous = true;
            t.bytes = t.bytes.max(bytes);
        }
        EventKind::RndvGoTx { .. } => {
            t.rendezvous = true;
            min_opt(&mut t.rndv_go_tx_ns, ev.t_ns);
        }
        EventKind::RndvGoRx { .. } => {
            t.rendezvous = true;
            min_opt(&mut t.rndv_go_rx_ns, ev.t_ns);
        }
        EventKind::DmaStart { bytes, .. } => {
            min_opt(&mut t.dma_start_ns, ev.t_ns);
            t.bytes = t.bytes.max(bytes);
        }
        EventKind::DmaEnd { bytes, .. } => {
            t.dma_end_ns = Some(t.dma_end_ns.map_or(ev.t_ns, |c| c.max(ev.t_ns)));
            t.bytes = t.bytes.max(bytes);
        }
        EventKind::UnexpectedBuffered { bytes, .. } => {
            min_opt(&mut t.unexpected_ns, ev.t_ns);
            t.bytes = t.bytes.max(bytes);
        }
        EventKind::EnvelopeMatched { bytes, .. } => {
            // Matched on the receiver: the recording rank is the dst.
            min_opt(&mut t.matched_ns, ev.t_ns);
            t.bytes = t.bytes.max(bytes);
            t.dst.get_or_insert(rank);
        }
        EventKind::Delivered { bytes, .. } => {
            t.delivered_ns = Some(t.delivered_ns.map_or(ev.t_ns, |c| c.max(ev.t_ns)));
            t.bytes = t.bytes.max(bytes);
            t.dst.get_or_insert(rank);
        }
        EventKind::WireTx { peer, kind, bytes } => {
            t.wire_tx.push(WireRecord {
                rank,
                t_ns: ev.t_ns,
                peer,
                kind,
                bytes,
            });
        }
        EventKind::WireRx { peer, kind } => {
            t.wire_rx.push(WireRecord {
                rank,
                t_ns: ev.t_ns,
                peer,
                kind,
                bytes: 0,
            });
        }
        EventKind::Retransmit { .. } => t.retransmits += 1,
        EventKind::DupSuppressed { .. } => t.dups_suppressed += 1,
        EventKind::FaultInjected { .. } => t.faults += 1,
        EventKind::CreditStall { .. } => t.credit_stalled = true,
        _ => {}
    }
    t.evidence.push((rank, *ev));
}

fn check_invariants(t: &MessageTimeline, out: &mut Vec<Violation>) {
    // Every delivery has a matching transmission somewhere.
    if t.delivered_ns.is_some() && t.wire_tx.is_empty() && t.first_tx_ns.is_none() {
        out.push(Violation::DeliveredWithoutTx { msg: t.msg });
    }
    // Streamed rendezvous data never precedes the CTS. (A pulled payload
    // always does: there the CTS is the receipt.)
    if let Some(cts_ns) = t.rndv_go_tx_ns.filter(|_| !t.pulled()) {
        let data_ns = t
            .wire_tx
            .iter()
            .filter(|w| matches!(w.kind, PacketKind::RndvData | PacketKind::RndvChunk))
            .map(|w| w.t_ns)
            .min()
            .into_iter()
            .chain(t.dma_start_ns)
            .min();
        if let Some(data_ns) = data_ns {
            if data_ns < cts_ns {
                out.push(Violation::DataBeforeCts {
                    msg: t.msg,
                    data_ns,
                    cts_ns,
                });
            }
        }
    }
    // Phase monotonicity (shared-clock substrates).
    let pairs: [(&'static str, Option<u64>, Option<u64>); 3] = [
        ("posted>first_tx", t.posted_ns, t.first_tx_ns),
        ("posted>delivered", t.posted_ns, t.delivered_ns),
        ("unexpected>matched", t.unexpected_ns, t.matched_ns),
    ];
    for (what, a, b) in pairs {
        if let (Some(a), Some(b)) = (a, b) {
            if a > b {
                out.push(Violation::PhaseInversion { msg: t.msg, what });
            }
        }
    }
}

/// Render a [`FlightRecord`] as a JSON document:
/// `{"truncated":…,"timelines":[…],"violations":[…]}` with one row per
/// message carrying the phase timestamps and derived dwell times (all
/// nanoseconds).
pub fn flight_json(record: &FlightRecord) -> String {
    let opt = |o: Obj, k: &str, v: Option<u64>| match v {
        Some(v) => o.u64(k, v),
        None => o.raw(k, "null"),
    };
    let rows: Vec<String> = record
        .timelines
        .iter()
        .map(|t| {
            let mut o = Obj::new()
                .u64("src", t.msg.src as u64)
                .u64("seq", t.msg.seq as u64);
            o = match t.dst {
                Some(d) => o.u64("dst", d as u64),
                None => o.raw("dst", "null"),
            };
            o = o.u64("bytes", t.bytes as u64);
            o = match t.tag {
                Some(tag) => o.u64("tag", tag as u64),
                None => o.raw("tag", "null"),
            };
            o = o
                .bool("rendezvous", t.rendezvous)
                .bool("pulled", t.pulled());
            o = opt(o, "posted_ns", t.posted_ns);
            o = opt(o, "first_tx_ns", t.first_tx_ns);
            o = opt(o, "unexpected_ns", t.unexpected_ns);
            o = opt(o, "matched_ns", t.matched_ns);
            o = opt(o, "rndv_go_tx_ns", t.rndv_go_tx_ns);
            o = opt(o, "rndv_go_rx_ns", t.rndv_go_rx_ns);
            o = opt(o, "dma_start_ns", t.dma_start_ns);
            o = opt(o, "dma_end_ns", t.dma_end_ns);
            o = opt(o, "delivered_ns", t.delivered_ns);
            o = opt(o, "send_queue_wait_ns", t.send_queue_wait_ns());
            o = opt(o, "unexpected_dwell_ns", t.unexpected_dwell_ns());
            o = opt(o, "rts_cts_gap_ns", t.rts_cts_gap_ns());
            o = opt(o, "wire_ns", t.wire_ns());
            o = opt(o, "total_ns", t.total_ns());
            o.u64("wire_tx", t.wire_tx.len() as u64)
                .u64("wire_rx", t.wire_rx.len() as u64)
                .u64("retransmits", t.retransmits as u64)
                .u64("dups_suppressed", t.dups_suppressed as u64)
                .u64("faults", t.faults as u64)
                .bool("credit_stalled", t.credit_stalled)
                .bool("complete", t.is_complete())
                .finish()
        })
        .collect();
    let violations: Vec<String> = record
        .violations
        .iter()
        .map(|v| format!("\"{}\"", crate::json::escape(&v.describe())))
        .collect();
    Obj::new()
        .bool("truncated", record.truncated)
        .raw("timelines", &array(&rows))
        .raw("violations", &array(&violations))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::tracer::Tracer;

    fn msg(src: u32, seq: u32) -> MsgId {
        MsgId { src, seq }
    }

    /// Hand-build the canonical two-rank eager exchange and check every
    /// phase and dwell falls out.
    #[test]
    fn eager_flight_reconstructs_all_phases() {
        let m = msg(0, 1);
        let t0 = Tracer::enabled(0, 64);
        let t1 = Tracer::enabled(1, 64);
        t0.emit_msg_at(
            100,
            m,
            EventKind::SendPosted {
                peer: 1,
                bytes: 64,
                tag: 7,
            },
        );
        t0.emit_msg_at(150, m, EventKind::EagerTx { peer: 1, bytes: 64 });
        t0.emit_msg_at(
            160,
            m,
            EventKind::WireTx {
                peer: 1,
                kind: PacketKind::Eager,
                bytes: 64,
            },
        );
        t1.emit_msg_at(
            400,
            m,
            EventKind::WireRx {
                peer: 0,
                kind: PacketKind::Eager,
            },
        );
        t1.emit_msg_at(
            420,
            m,
            EventKind::EnvelopeMatched {
                peer: 0,
                bytes: 64,
                unexpected: false,
            },
        );
        t1.emit_msg_at(450, m, EventKind::Delivered { peer: 0, bytes: 64 });
        let rec = correlate(&[t0.snapshot(), t1.snapshot()]);
        assert!(!rec.truncated);
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.timelines.len(), 1);
        let t = rec.timeline(m).unwrap();
        assert!(t.is_complete());
        assert!(!t.rendezvous);
        assert_eq!(t.dst, Some(1));
        assert_eq!(t.bytes, 64);
        assert_eq!(t.tag, Some(7));
        assert_eq!(t.send_queue_wait_ns(), Some(50));
        assert_eq!(t.wire_ns(), Some(240));
        assert_eq!(t.total_ns(), Some(350));
        assert_eq!(t.unexpected_dwell_ns(), None);
        assert_eq!(rec.complete_delivered(), (1, 1));
        let acc = rec.account_wire_tx();
        assert_eq!(acc.delivered, 1);
        assert!(acc.orphans.is_empty());
        let json = flight_json(&rec);
        validate(&json).unwrap();
        assert!(json.contains(r#""complete":true"#));
    }

    #[test]
    fn rendezvous_flight_tracks_rts_cts_and_unexpected_dwell() {
        let m = msg(1, 3);
        let t0 = Tracer::enabled(0, 64); // receiver
        let t1 = Tracer::enabled(1, 64); // sender
        t1.emit_msg_at(
            10,
            m,
            EventKind::SendPosted {
                peer: 0,
                bytes: 100_000,
                tag: 0,
            },
        );
        t1.emit_msg_at(
            20,
            m,
            EventKind::RndvReqTx {
                peer: 0,
                bytes: 100_000,
            },
        );
        t1.emit_msg_at(
            25,
            m,
            EventKind::WireTx {
                peer: 0,
                kind: PacketKind::RndvReq,
                bytes: 0,
            },
        );
        t0.emit_msg_at(
            40,
            m,
            EventKind::WireRx {
                peer: 1,
                kind: PacketKind::RndvReq,
            },
        );
        t0.emit_msg_at(
            45,
            m,
            EventKind::UnexpectedBuffered {
                peer: 1,
                bytes: 100_000,
            },
        );
        t0.emit_msg_at(
            200,
            m,
            EventKind::EnvelopeMatched {
                peer: 1,
                bytes: 100_000,
                unexpected: true,
            },
        );
        t0.emit_msg_at(210, m, EventKind::RndvGoTx { peer: 1 });
        t0.emit_msg_at(
            215,
            m,
            EventKind::WireTx {
                peer: 1,
                kind: PacketKind::RndvGo,
                bytes: 0,
            },
        );
        t1.emit_msg_at(240, m, EventKind::RndvGoRx { peer: 0 });
        t1.emit_msg_at(
            250,
            m,
            EventKind::DmaStart {
                peer: 0,
                bytes: 100_000,
            },
        );
        t1.emit_msg_at(
            255,
            m,
            EventKind::WireTx {
                peer: 0,
                kind: PacketKind::RndvData,
                bytes: 100_000,
            },
        );
        t0.emit_msg_at(
            400,
            m,
            EventKind::WireRx {
                peer: 1,
                kind: PacketKind::RndvData,
            },
        );
        t0.emit_msg_at(
            410,
            m,
            EventKind::DmaEnd {
                peer: 1,
                bytes: 100_000,
            },
        );
        t0.emit_msg_at(
            415,
            m,
            EventKind::Delivered {
                peer: 1,
                bytes: 100_000,
            },
        );
        let rec = correlate(&[t0.snapshot(), t1.snapshot()]);
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        let t = rec.timeline(m).unwrap();
        assert!(t.rendezvous);
        assert!(t.is_complete());
        assert_eq!(t.unexpected_dwell_ns(), Some(155));
        assert_eq!(t.rts_cts_gap_ns(), Some(220));
        assert_eq!(t.dst, Some(0));
    }

    /// A pulled rendezvous: the DMA bracket is the receiver's and comes
    /// before the go-ahead, with no data frame anywhere. Complete, and no
    /// `DataBeforeCts`.
    #[test]
    fn pulled_rendezvous_has_its_dma_on_the_receiver_before_the_cts() {
        let m = msg(1, 5);
        let (n, peer) = (100_000, 1);
        let t0 = Tracer::enabled(0, 64); // receiver
        let t1 = Tracer::enabled(1, 64); // sender
        let req = PacketKind::RndvReq;
        let go = PacketKind::RndvGo;
        t1.emit_msg_at(
            10,
            m,
            EventKind::SendPosted {
                peer: 0,
                bytes: n,
                tag: 0,
            },
        );
        t1.emit_msg_at(20, m, EventKind::RndvReqTx { peer: 0, bytes: n });
        t1.emit_msg_at(
            25,
            m,
            EventKind::WireTx {
                peer: 0,
                kind: req,
                bytes: 0,
            },
        );
        t0.emit_msg_at(40, m, EventKind::WireRx { peer, kind: req });
        t0.emit_msg_at(
            50,
            m,
            EventKind::EnvelopeMatched {
                peer,
                bytes: n,
                unexpected: false,
            },
        );
        t0.emit_msg_at(55, m, EventKind::DmaStart { peer, bytes: n });
        t0.emit_msg_at(400, m, EventKind::DmaEnd { peer, bytes: n });
        t0.emit_msg_at(405, m, EventKind::Delivered { peer, bytes: n });
        t0.emit_msg_at(410, m, EventKind::RndvGoTx { peer });
        t1.emit_msg_at(440, m, EventKind::WireRx { peer: 0, kind: go });
        t1.emit_msg_at(445, m, EventKind::RndvGoRx { peer: 0 });
        let rec = correlate(&[t0.snapshot(), t1.snapshot()]);
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        let t = rec.timeline(m).unwrap();
        assert!(t.rendezvous && t.pulled() && t.is_complete());
        assert_eq!((t.dma_start_ns, t.dma_end_ns), (Some(55), Some(400)));
        assert_eq!(t.rts_cts_gap_ns(), Some(425));
        assert_eq!(t.total_ns(), Some(395));
        assert!(flight_json(&rec).contains(r#""pulled":true"#));
    }

    #[test]
    fn delivery_without_tx_is_a_violation() {
        let m = msg(0, 2);
        let t1 = Tracer::enabled(1, 8);
        t1.emit_msg_at(50, m, EventKind::Delivered { peer: 0, bytes: 8 });
        let rec = correlate(&[t1.snapshot()]);
        assert_eq!(
            rec.violations,
            vec![Violation::DeliveredWithoutTx { msg: m }]
        );
    }

    #[test]
    fn data_before_cts_is_a_violation() {
        let m = msg(0, 1);
        let t0 = Tracer::enabled(0, 8);
        let t1 = Tracer::enabled(1, 8);
        t1.emit_msg_at(100, m, EventKind::RndvGoTx { peer: 0 });
        t0.emit_msg_at(
            60,
            m,
            EventKind::WireTx {
                peer: 1,
                kind: PacketKind::RndvData,
                bytes: 512,
            },
        );
        let rec = correlate(&[t0.snapshot(), t1.snapshot()]);
        assert!(rec.violations.iter().any(|v| matches!(
            v,
            Violation::DataBeforeCts {
                data_ns: 60,
                cts_ns: 100,
                ..
            }
        )));
    }

    #[test]
    fn chunked_data_before_cts_is_a_violation() {
        let m = msg(0, 4);
        let t0 = Tracer::enabled(0, 8);
        let t1 = Tracer::enabled(1, 8);
        t1.emit_msg_at(100, m, EventKind::RndvGoTx { peer: 0 });
        t0.emit_msg_at(
            60,
            m,
            EventKind::WireTx {
                peer: 1,
                kind: PacketKind::RndvChunk,
                bytes: 256,
            },
        );
        let rec = correlate(&[t0.snapshot(), t1.snapshot()]);
        assert!(rec.violations.iter().any(|v| matches!(
            v,
            Violation::DataBeforeCts {
                data_ns: 60,
                cts_ns: 100,
                ..
            }
        )));
    }

    #[test]
    fn truncated_rings_suppress_invariant_checks() {
        let m = msg(0, 2);
        let t1 = Tracer::enabled(1, 1);
        // Capacity 1: the second emit overwrites, setting dropped > 0.
        t1.emit_msg_at(10, m, EventKind::RecvPosted { tag: 0 });
        t1.emit_msg_at(50, m, EventKind::Delivered { peer: 0, bytes: 8 });
        let rec = correlate(&[t1.snapshot()]);
        assert!(rec.truncated);
        assert!(rec.violations.is_empty());
    }

    #[test]
    fn undelivered_tx_with_fault_and_retransmit_are_accounted() {
        let dropped = msg(0, 1);
        let retried = msg(0, 2);
        let orphan = msg(0, 3);
        let t0 = Tracer::enabled(0, 16);
        for (m, t) in [(dropped, 10u64), (retried, 20), (orphan, 30)] {
            t0.emit_msg_at(
                t,
                m,
                EventKind::WireTx {
                    peer: 1,
                    kind: PacketKind::Eager,
                    bytes: 8,
                },
            );
        }
        t0.emit_msg_at(
            11,
            dropped,
            EventKind::FaultInjected {
                peer: 1,
                fault: crate::event::FaultKind::Drop,
            },
        );
        t0.emit_msg_at(21, retried, EventKind::Retransmit { peer: 1, seq: 9 });
        let acc = correlate(&[t0.snapshot()]).account_wire_tx();
        assert_eq!(acc.delivered, 0);
        assert_eq!(acc.dropped_with_fault, 1);
        assert_eq!(acc.retransmitted, 1);
        assert_eq!(acc.orphans, vec![orphan]);
    }
}
