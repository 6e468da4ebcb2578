//! Phase-level latency attribution — the Table 1 generator.
//!
//! The paper decomposes a TCP round trip into API, protocol-engine, and
//! wire components (Table 1). This module reproduces that decomposition
//! from the flight record: given the [`MessageTimeline`]s of a two-rank
//! ping-pong (built by [`crate::correlate()`], the one reader that maps
//! events to a message's phases), [`attribute_ping_pong`] walks message
//! half-trips and charges each gap between phase timestamps to exactly
//! one phase:
//!
//! * **proto (send)** — `SendPosted → EagerTx | RndvReqTx`, plus the
//!   sender-side `RndvGo received → DmaStart` turnaround of a streamed
//!   rendezvous;
//! * **wire** — every tx timestamp to the matching `WireRx` on the peer
//!   (valid across ranks because both substrates share one clock epoch:
//!   `ShmDevice::fabric` shares a single `Instant`, the simulator a
//!   single virtual clock);
//! * **proto (recv)** — `WireRx` to `Delivered` (eager) or to `RndvGoTx`
//!   / `Delivered` (rendezvous legs). A rendezvous pulled out of the
//!   sender's lent buffer has its `DmaStart` on the receiver, before the
//!   go-ahead: its one wire leg is the request, the copy is receive-side
//!   time up to `Delivered` (whether or not the sender copied chunks of it
//!   too, bracketed on its own rank), and the go-ahead travels off the
//!   ball's path;
//! * **api** — `Delivered` to the *next* `SendPosted` on the same rank,
//!   i.e. the application turnaround between receiving the ball and
//!   throwing it back.
//!
//! Because consecutive phases share their boundary events, the sum
//! telescopes to the span from the first `SendPosted` to the last
//! `Delivered` — which is why the breakdown is required to sum to within
//! 5% of the independently measured round-trip time.

use crate::correlate::{FlightRecord, MessageTimeline};
use crate::event::PacketKind;
use crate::json::{array, Obj};

/// Accumulated per-phase time over some number of half-trips.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Application turnaround: `Delivered → next SendPosted`.
    pub api_ns: u64,
    /// Send-side protocol engine time.
    pub proto_send_ns: u64,
    /// Receive-side protocol engine time (matching, copies, rndv go).
    pub proto_recv_ns: u64,
    /// Time on the wire (or in the device/network stack) per leg.
    pub wire_ns: u64,
    /// Completed message half-trips attributed.
    pub half_trips: u32,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total_ns(&self) -> u64 {
        self.api_ns + self.proto_send_ns + self.proto_recv_ns + self.wire_ns
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.api_ns += other.api_ns;
        self.proto_send_ns += other.proto_send_ns;
        self.proto_recv_ns += other.proto_recv_ns;
        self.wire_ns += other.wire_ns;
        self.half_trips += other.half_trips;
    }
}

/// Attribute a two-rank ping-pong to phases from its flight record.
///
/// `first` is the rank that sends first. Each rank's sends are taken in
/// post order, alternating direction every half-trip, and the walk stops
/// at the first message whose flight is incomplete (e.g. truncated by ring
/// overwrite) after charging the phases it did observe, so a partially
/// captured trace yields a partial but still-consistent breakdown.
pub fn attribute_ping_pong(record: &FlightRecord, first: u32) -> PhaseBreakdown {
    let sent = |rank: u32| -> Vec<&MessageTimeline> {
        let mine = |t: &&MessageTimeline| t.msg.src == rank && t.posted_ns.is_some();
        record.timelines.iter().filter(mine).collect()
    };
    let mut out = PhaseBreakdown::default();
    let from_first = sent(first);
    let Some(second) = from_first.first().and_then(|t| t.dst) else {
        return out;
    };
    let sends = [from_first, sent(second)];
    let mut last_delivered = [None, None];
    // Half-trip k is the (k / 2)-th send of rank k % 2 (0 = `first`).
    for k in 0.. {
        let (sender, receiver) = (k % 2, 1 - k % 2);
        let Some(t) = sends[sender].get(k / 2) else {
            break;
        };
        if let (Some(d), Some(posted)) = (last_delivered[sender], t.posted_ns) {
            out.api_ns += posted.saturating_sub(d);
        }
        let Some(delivered) = charge_half_trip(t, &mut out) else {
            break;
        };
        last_delivered[receiver] = Some(delivered);
        out.half_trips += 1;
    }
    out
}

/// Charge one message's flight to `out`, phase by phase in the order the
/// ball travels, and return when it was delivered; `None` at the first
/// phase whose closing event was not observed.
fn charge_half_trip(t: &MessageTimeline, out: &mut PhaseBreakdown) -> Option<u64> {
    let (src, dst) = (t.msg.src, t.dst?);
    // First engine arrival on `rank` of a frame of one of `kinds`.
    let rx = |rank: u32, kinds: &[PacketKind]| {
        t.wire_rx
            .iter()
            .filter(|w| w.rank == rank && kinds.contains(&w.kind))
            .map(|w| w.t_ns)
            .min()
    };
    let tx = t.first_tx_ns?;
    out.proto_send_ns += tx.saturating_sub(t.posted_ns?);
    // Where receive-side time starts: the eager frame, the request of a
    // pull (the copy ran there, ahead of the go-ahead), or the first data
    // frame of a stream (the rest of it lands before `Delivered`).
    let recv_from = if !t.rendezvous {
        let rx_eager = rx(dst, &[PacketKind::Eager])?;
        out.wire_ns += rx_eager.saturating_sub(tx);
        rx_eager
    } else {
        let rx_req = rx(dst, &[PacketKind::RndvReq])?;
        out.wire_ns += rx_req.saturating_sub(tx);
        if t.pulled() {
            rx_req
        } else {
            let go_tx = t.rndv_go_tx_ns?;
            out.proto_recv_ns += go_tx.saturating_sub(rx_req);
            let rx_go = rx(src, &[PacketKind::RndvGo])?;
            out.wire_ns += rx_go.saturating_sub(go_tx);
            let dma = t.dma_start_ns?;
            out.proto_send_ns += dma.saturating_sub(rx_go);
            let rx_data = rx(dst, &[PacketKind::RndvData, PacketKind::RndvChunk])?;
            out.wire_ns += rx_data.saturating_sub(dma);
            rx_data
        }
    };
    let delivered = t.delivered_ns?;
    out.proto_recv_ns += delivered.saturating_sub(recv_from);
    Some(delivered)
}

/// One row of the generated Table 1: per-round-trip phase averages for a
/// (substrate, message size) cell, alongside the independently measured
/// round-trip time.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Substrate label, e.g. `"shm"` or `"sim-tcp-atm"`.
    pub label: String,
    /// Message payload size in bytes.
    pub bytes: u64,
    /// Round trips attributed.
    pub round_trips: u32,
    /// Measured mean round-trip time (wall or virtual), ns.
    pub measured_rtt_ns: f64,
    /// Mean API phase per round trip, ns.
    pub api_ns: f64,
    /// Mean send-side protocol phase per round trip, ns.
    pub proto_send_ns: f64,
    /// Mean receive-side protocol phase per round trip, ns.
    pub proto_recv_ns: f64,
    /// Mean wire phase per round trip, ns.
    pub wire_ns: f64,
}

impl Table1Row {
    /// Build a row from an attribution over `breakdown.half_trips / 2`
    /// round trips. Returns `None` if no full round trip was attributed.
    pub fn from_breakdown(
        label: &str,
        bytes: u64,
        measured_rtt_ns: f64,
        breakdown: &PhaseBreakdown,
    ) -> Option<Table1Row> {
        let round_trips = breakdown.half_trips / 2;
        if round_trips == 0 {
            return None;
        }
        let per = |ns: u64| ns as f64 / round_trips as f64;
        Some(Table1Row {
            label: label.to_string(),
            bytes,
            round_trips,
            measured_rtt_ns,
            api_ns: per(breakdown.api_ns),
            proto_send_ns: per(breakdown.proto_send_ns),
            proto_recv_ns: per(breakdown.proto_recv_ns),
            wire_ns: per(breakdown.wire_ns),
        })
    }

    /// Combined protocol-engine time per round trip, ns.
    pub fn proto_ns(&self) -> f64 {
        self.proto_send_ns + self.proto_recv_ns
    }

    /// Sum of all attributed phases per round trip, ns — the value the
    /// acceptance criterion compares against `measured_rtt_ns`.
    pub fn attributed_total_ns(&self) -> f64 {
        self.api_ns + self.proto_send_ns + self.proto_recv_ns + self.wire_ns
    }
}

/// Render rows as the machine-readable breakdown report (a JSON array of
/// objects, times in nanoseconds).
pub fn table1_json(rows: &[Table1Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            Obj::new()
                .str("label", &r.label)
                .u64("bytes", r.bytes)
                .u64("round_trips", r.round_trips as u64)
                .f64("measured_rtt_ns", r.measured_rtt_ns)
                .f64("api_ns", r.api_ns)
                .f64("proto_send_ns", r.proto_send_ns)
                .f64("proto_recv_ns", r.proto_recv_ns)
                .f64("wire_ns", r.wire_ns)
                .f64("attributed_total_ns", r.attributed_total_ns())
                .finish()
        })
        .collect();
    array(&items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::correlate;
    use crate::event::{EventKind::*, MsgId};
    use crate::tracer::Tracer;

    fn msg(src: u32, seq: u32) -> MsgId {
        MsgId { src, seq }
    }

    /// Correlate two ranks' rings and attribute them, rank 0 first.
    fn attribute(t0: &Tracer, t1: &Tracer) -> PhaseBreakdown {
        attribute_ping_pong(&correlate(&[t0.snapshot(), t1.snapshot()]), 0)
    }

    /// Build a deterministic synthetic eager ping-pong: each phase has a
    /// known width, so attribution must recover the exact totals.
    #[test]
    fn eager_ping_pong_attributes_exactly() {
        let t0 = Tracer::enabled(0, 256);
        let t1 = Tracer::enabled(1, 256);
        let mut t = 1_000u64;
        let rounds = 3u64;
        for seq in 1..=rounds as u32 {
            // rank 0 sends: proto_send 10, wire 100, proto_recv 20
            let m = msg(0, seq);
            let (posted, rx) = (
                SendPosted {
                    peer: 1,
                    bytes: 8,
                    tag: 0,
                },
                WireRx {
                    peer: 0,
                    kind: PacketKind::Eager,
                },
            );
            t0.emit_msg_at(t, m, posted);
            t0.emit_msg_at(t + 10, m, EagerTx { peer: 1, bytes: 8 });
            t1.emit_msg_at(t + 110, m, rx);
            t1.emit_msg_at(t + 130, m, Delivered { peer: 0, bytes: 8 });
            // rank 1 turns it around after 5 (api), same widths back
            let (m, u) = (msg(1, seq), t + 135);
            let (posted, rx) = (
                SendPosted {
                    peer: 0,
                    bytes: 8,
                    tag: 0,
                },
                WireRx {
                    peer: 1,
                    kind: PacketKind::Eager,
                },
            );
            t1.emit_msg_at(u, m, posted);
            t1.emit_msg_at(u + 10, m, EagerTx { peer: 0, bytes: 8 });
            t0.emit_msg_at(u + 110, m, rx);
            t0.emit_msg_at(u + 130, m, Delivered { peer: 1, bytes: 8 });
            // rank 0 api gap of 7 before the next round
            t = u + 137;
        }
        let bd = attribute(&t0, &t1);
        assert_eq!(bd.half_trips, 2 * rounds as u32);
        assert_eq!(bd.proto_send_ns, 10 * 2 * rounds);
        assert_eq!(bd.wire_ns, 100 * 2 * rounds);
        assert_eq!(bd.proto_recv_ns, 20 * 2 * rounds);
        // api: 5 per rank-1 turnaround every round, 7 per rank-0
        // turnaround between rounds (rounds - 1 of them).
        assert_eq!(bd.api_ns, 5 * rounds + 7 * (rounds - 1));
    }

    #[test]
    fn rendezvous_legs_are_charged_to_the_right_phases() {
        for data_kind in [PacketKind::RndvData, PacketKind::RndvChunk] {
            let t0 = Tracer::enabled(0, 64);
            let t1 = Tracer::enabled(1, 64);
            let (m, n) = (msg(0, 1), 65_536u32);
            let rx = |kind| WireRx { peer: 0, kind };
            t0.emit_msg_at(
                0,
                m,
                SendPosted {
                    peer: 1,
                    bytes: n,
                    tag: 0,
                },
            );
            t0.emit_msg_at(10, m, RndvReqTx { peer: 1, bytes: n });
            t1.emit_msg_at(60, m, rx(PacketKind::RndvReq));
            t1.emit_msg_at(75, m, RndvGoTx { peer: 0 });
            t0.emit_msg_at(
                125,
                m,
                WireRx {
                    peer: 1,
                    kind: PacketKind::RndvGo,
                },
            );
            t0.emit_msg_at(130, m, DmaStart { peer: 1, bytes: n });
            t1.emit_msg_at(1_130, m, rx(data_kind));
            // A later chunk of the same stream changes nothing: the wire
            // leg ends at the first, the rest is receive-side time.
            t1.emit_msg_at(1_140, m, rx(data_kind));
            t1.emit_msg_at(1_150, m, Delivered { peer: 0, bytes: n });
            let bd = attribute(&t0, &t1);
            assert_eq!(bd.half_trips, 1);
            assert_eq!(bd.proto_send_ns, 10 + 5); // post→req_tx, go_rx→dma
            assert_eq!(bd.wire_ns, 50 + 50 + 1_000); // req, go, data legs
            assert_eq!(bd.proto_recv_ns, 15 + 20); // req_rx→go_tx, data_rx→deliver
            assert_eq!(bd.api_ns, 0);
            assert_eq!(bd.total_ns(), 1_150);
        }
    }

    /// A pulled rendezvous: the receiver stamps `DmaStart` and sends the
    /// go-ahead as the pull begins, and the half-trip ends at `Delivered`
    /// there. Whether the sender copied half of it beside the receiver —
    /// a DMA bracket of its own after the go-ahead — changes nothing: the
    /// copy is receive-side time up to `Delivered`, off the sender's path.
    #[test]
    fn pulled_rendezvous_charges_the_copy_to_the_receiver() {
        for helped in [false, true] {
            let t0 = Tracer::enabled(0, 64);
            let t1 = Tracer::enabled(1, 64);
            let n = 65_536u32;
            let posted = |peer| SendPosted {
                peer,
                bytes: n,
                tag: 0,
            };
            let rx = |peer, kind| WireRx { peer, kind };
            let (a, b) = (msg(0, 1), msg(1, 1));
            t0.emit_msg_at(0, a, posted(1));
            t0.emit_msg_at(10, a, RndvReqTx { peer: 1, bytes: n });
            t1.emit_msg_at(60, a, rx(0, PacketKind::RndvReq));
            t1.emit_msg_at(70, a, DmaStart { peer: 0, bytes: n });
            t1.emit_msg_at(75, a, RndvGoTx { peer: 0 });
            t0.emit_msg_at(125, a, rx(1, PacketKind::RndvGo));
            if helped {
                t0.emit_msg_at(130, a, DmaStart { peer: 1, bytes: n });
                t0.emit_msg_at(1_060, a, DmaEnd { peer: 1, bytes: n });
            }
            t1.emit_msg_at(1_070, a, DmaEnd { peer: 0, bytes: n });
            t1.emit_msg_at(1_075, a, Delivered { peer: 0, bytes: n });
            // The ball comes back the same way, 10 ns of turnaround later.
            t1.emit_msg_at(1_085, b, posted(0));
            t1.emit_msg_at(1_095, b, RndvReqTx { peer: 0, bytes: n });
            t0.emit_msg_at(1_145, b, rx(1, PacketKind::RndvReq));
            t0.emit_msg_at(1_155, b, DmaStart { peer: 1, bytes: n });
            t0.emit_msg_at(1_160, b, RndvGoTx { peer: 1 });
            t0.emit_msg_at(2_160, b, Delivered { peer: 1, bytes: n });
            let rec = correlate(&[t0.snapshot(), t1.snapshot()]);
            assert!(rec.violations.is_empty(), "{helped}: {:?}", rec.violations);
            let bd = attribute_ping_pong(&rec, 0);
            assert_eq!(bd.half_trips, 2, "{helped}");
            assert_eq!(bd.proto_send_ns, 10 + 10);
            assert_eq!(bd.wire_ns, 50 + 50);
            assert_eq!(bd.proto_recv_ns, 1_015 + 1_015);
            assert_eq!(bd.api_ns, 10);
            assert_eq!(bd.total_ns(), 2_160);
        }
    }

    #[test]
    fn truncated_trace_stops_cleanly() {
        let t0 = Tracer::enabled(0, 64);
        let t1 = Tracer::enabled(1, 64);
        let m = msg(0, 1);
        t0.emit_msg_at(
            0,
            m,
            SendPosted {
                peer: 1,
                bytes: 4,
                tag: 0,
            },
        );
        t0.emit_msg_at(5, m, EagerTx { peer: 1, bytes: 4 });
        // Receiver trace lost (e.g. overwritten): no WireRx/Delivered.
        let bd = attribute(&t0, &t1);
        assert_eq!(bd.half_trips, 0);
        assert_eq!(bd.proto_send_ns, 5);
        assert_eq!(bd.wire_ns, 0);
    }

    #[test]
    fn table1_row_and_json_roundtrip() {
        let bd = PhaseBreakdown {
            api_ns: 100,
            proto_send_ns: 200,
            proto_recv_ns: 300,
            wire_ns: 400,
            half_trips: 4,
        };
        let row = Table1Row::from_breakdown("shm", 64, 520.0, &bd).unwrap();
        assert_eq!(row.round_trips, 2);
        assert_eq!(row.api_ns, 50.0);
        assert_eq!(row.attributed_total_ns(), 500.0);
        assert_eq!(row.proto_ns(), 250.0);
        let json = table1_json(&[row]);
        crate::json::validate(&json).unwrap();
        assert!(json.contains(r#""label":"shm""#));
        assert!(json.contains(r#""attributed_total_ns":500"#));

        let empty = PhaseBreakdown {
            half_trips: 1,
            ..Default::default()
        };
        assert!(Table1Row::from_breakdown("x", 1, 0.0, &empty).is_none());
    }
}
