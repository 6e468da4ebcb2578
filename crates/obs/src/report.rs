//! Phase-level latency attribution — the Table 1 generator.
//!
//! The paper decomposes a TCP round trip into API, protocol-engine, and
//! wire components (Table 1). This module reproduces that decomposition
//! from traces: given the event streams of the two ranks of a ping-pong,
//! [`attribute_ping_pong`] walks message half-trips and charges each
//! inter-event gap to exactly one phase:
//!
//! * **proto (send)** — `SendPosted → EagerTx | RndvReqTx`, plus the
//!   sender-side `RndvGo received → DmaStart` turnaround of a streamed
//!   rendezvous;
//! * **wire** — every tx timestamp to the matching `WireRx` on the peer
//!   (valid across ranks because both substrates share one clock epoch:
//!   `ShmDevice::fabric` shares a single `Instant`, the simulator a
//!   single virtual clock);
//! * **proto (recv)** — `WireRx` to `Delivered` (eager) or to `RndvGoTx`
//!   / `Delivered` (rendezvous legs). A rendezvous whose receiver pulled
//!   the payload out of the sender's lent buffer has its `DmaStart` on
//!   the receiver, before the go-ahead: its one wire leg is the request,
//!   the copy is receive-side time up to `Delivered`, and the go-ahead
//!   travels off the ball's path;
//! * **api** — `Delivered` to the *next* `SendPosted` on the same rank,
//!   i.e. the application turnaround between receiving the ball and
//!   throwing it back.
//!
//! Because consecutive phases share their boundary events, the sum
//! telescopes to the span from the first `SendPosted` to the last
//! `Delivered` — which is why the breakdown is required to sum to within
//! 5% of the independently measured round-trip time.

use crate::event::{Event, EventKind, PacketKind};
use crate::json::{array, Obj};
use crate::tracer::TraceBuffer;

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

/// Forward-only scan over one rank's events.
struct Cursor<'a> {
    evs: &'a [Event],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn new(evs: &'a [Event]) -> Self {
        Cursor { evs, i: 0 }
    }

    fn next_where(&mut self, pred: impl Fn(&EventKind) -> bool) -> Option<Event> {
        while self.i < self.evs.len() {
            let ev = self.evs[self.i];
            self.i += 1;
            if pred(&ev.kind) {
                return Some(ev);
            }
        }
        None
    }
}

fn is_wire_rx(kind: &EventKind, want: PacketKind) -> bool {
    matches!(kind, EventKind::WireRx { kind, .. } if *kind == want)
}

/// Attribute a two-rank ping-pong trace to phases.
///
/// `a` must be the rank that sends first. The walker alternates direction
/// each half-trip and stops at the first half-trip whose events are
/// incomplete (e.g. truncated by ring overwrite), so a partially captured
/// trace yields a partial but still-consistent breakdown. Events that are
/// not part of the point-to-point critical path (credits, acks, wire tx
/// records) are skipped.
pub fn attribute_ping_pong(a: &TraceBuffer, b: &TraceBuffer) -> PhaseBreakdown {
    let mut cur = [Cursor::new(&a.events), Cursor::new(&b.events)];
    let mut last_delivered: [Option<u64>; 2] = [None, None];
    let mut out = PhaseBreakdown::default();
    let mut sender = 0usize;

    loop {
        let receiver = 1 - sender;
        let Some(posted) = cur[sender].next_where(|k| matches!(k, EventKind::SendPosted { .. }))
        else {
            break;
        };
        if let Some(d) = last_delivered[sender] {
            out.api_ns += posted.t_ns.saturating_sub(d);
        }
        let Some(tx) = cur[sender]
            .next_where(|k| matches!(k, EventKind::EagerTx { .. } | EventKind::RndvReqTx { .. }))
        else {
            break;
        };
        out.proto_send_ns += tx.t_ns.saturating_sub(posted.t_ns);

        let delivered = if matches!(tx.kind, EventKind::EagerTx { .. }) {
            let Some(rx) = cur[receiver].next_where(|k| is_wire_rx(k, PacketKind::Eager)) else {
                break;
            };
            out.wire_ns += rx.t_ns.saturating_sub(tx.t_ns);
            let Some(del) = cur[receiver].next_where(|k| matches!(k, EventKind::Delivered { .. }))
            else {
                break;
            };
            out.proto_recv_ns += del.t_ns.saturating_sub(rx.t_ns);
            del
        } else {
            // Rendezvous: req → go → data, three wire legs — or the request
            // leg alone, when the receiver pulls the data itself.
            let Some(rx_req) = cur[receiver].next_where(|k| is_wire_rx(k, PacketKind::RndvReq))
            else {
                break;
            };
            out.wire_ns += rx_req.t_ns.saturating_sub(tx.t_ns);
            let Some(next) = cur[receiver].next_where(|k| {
                matches!(k, EventKind::RndvGoTx { .. } | EventKind::DmaStart { .. })
            }) else {
                break;
            };
            // Where receive-side time resumes: at the request for a pull
            // (the data phase ran here, ahead of the go-ahead), at the
            // first data frame for a stream.
            let recv_from = if matches!(next.kind, EventKind::DmaStart { .. }) {
                rx_req
            } else {
                let go_tx = next;
                out.proto_recv_ns += go_tx.t_ns.saturating_sub(rx_req.t_ns);
                let Some(rx_go) = cur[sender].next_where(|k| is_wire_rx(k, PacketKind::RndvGo))
                else {
                    break;
                };
                out.wire_ns += rx_go.t_ns.saturating_sub(go_tx.t_ns);
                let Some(dma) = cur[sender].next_where(|k| matches!(k, EventKind::DmaStart { .. }))
                else {
                    break;
                };
                out.proto_send_ns += dma.t_ns.saturating_sub(rx_go.t_ns);
                // One `RndvData` frame, or the first `RndvChunk` of a
                // pipelined stream: the rest of the stream lands before
                // `Delivered` and is charged to the receive side with it.
                let Some(rx_data) = cur[receiver].next_where(|k| {
                    is_wire_rx(k, PacketKind::RndvData) || is_wire_rx(k, PacketKind::RndvChunk)
                }) else {
                    break;
                };
                out.wire_ns += rx_data.t_ns.saturating_sub(dma.t_ns);
                rx_data
            };
            let Some(del) = cur[receiver].next_where(|k| matches!(k, EventKind::Delivered { .. }))
            else {
                break;
            };
            out.proto_recv_ns += del.t_ns.saturating_sub(recv_from.t_ns);
            del
        };

        last_delivered[receiver] = Some(delivered.t_ns);
        out.half_trips += 1;
        sender = receiver;
    }
    out
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
    use crate::tracer::Tracer;
    use EventKind::*;

    /// Build a deterministic synthetic eager ping-pong: each phase has a
    /// known width, so attribution must recover the exact totals.
    #[test]
    fn eager_ping_pong_attributes_exactly() {
        let t0 = Tracer::enabled(0, 256);
        let t1 = Tracer::enabled(1, 256);
        let mut t = 1_000u64;
        let rounds = 3u64;
        for _ in 0..rounds {
            // rank 0 sends: proto_send 10, wire 100, proto_recv 20
            t0.emit_at(
                t,
                SendPosted {
                    peer: 1,
                    bytes: 8,
                    tag: 0,
                },
            );
            t0.emit_at(t + 10, EagerTx { peer: 1, bytes: 8 });
            t1.emit_at(
                t + 110,
                WireRx {
                    peer: 0,
                    kind: PacketKind::Eager,
                },
            );
            t1.emit_at(t + 130, Delivered { peer: 0, bytes: 8 });
            // rank 1 turns it around after 5 (api), same widths back
            let u = t + 135;
            t1.emit_at(
                u,
                SendPosted {
                    peer: 0,
                    bytes: 8,
                    tag: 0,
                },
            );
            t1.emit_at(u + 10, EagerTx { peer: 0, bytes: 8 });
            t0.emit_at(
                u + 110,
                WireRx {
                    peer: 1,
                    kind: PacketKind::Eager,
                },
            );
            t0.emit_at(u + 130, Delivered { peer: 1, bytes: 8 });
            // rank 0 api gap of 7 before the next round
            t = u + 137;
        }
        let bd = attribute_ping_pong(&t0.snapshot(), &t1.snapshot());
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
            let n = 65_536u32;
            t0.emit_at(
                0,
                SendPosted {
                    peer: 1,
                    bytes: n,
                    tag: 0,
                },
            );
            t0.emit_at(10, RndvReqTx { peer: 1, bytes: n });
            t1.emit_at(
                60,
                WireRx {
                    peer: 0,
                    kind: PacketKind::RndvReq,
                },
            );
            t1.emit_at(75, RndvGoTx { peer: 0 });
            t0.emit_at(
                125,
                WireRx {
                    peer: 1,
                    kind: PacketKind::RndvGo,
                },
            );
            t0.emit_at(130, DmaStart { peer: 1, bytes: n });
            t1.emit_at(
                1_130,
                WireRx {
                    peer: 0,
                    kind: data_kind,
                },
            );
            // A later chunk of the same stream changes nothing: the wire
            // leg ends at the first, the rest is receive-side time.
            t1.emit_at(
                1_140,
                WireRx {
                    peer: 0,
                    kind: data_kind,
                },
            );
            t1.emit_at(1_150, Delivered { peer: 0, bytes: n });
            let bd = attribute_ping_pong(&t0.snapshot(), &t1.snapshot());
            assert_eq!(bd.half_trips, 1);
            assert_eq!(bd.proto_send_ns, 10 + 5); // post→req_tx, go_rx→dma
            assert_eq!(bd.wire_ns, 50 + 50 + 1_000); // req, go, data legs
            assert_eq!(bd.proto_recv_ns, 15 + 20); // req_rx→go_tx, data_rx→deliver
            assert_eq!(bd.api_ns, 0);
            assert_eq!(bd.total_ns(), 1_150);
        }
    }

    /// A pulled rendezvous: the DMA bracket sits on the receiver ahead of
    /// the go-ahead, and the half-trip ends at `Delivered` there.
    #[test]
    fn pulled_rendezvous_charges_the_copy_to_the_receiver() {
        let t0 = Tracer::enabled(0, 64);
        let t1 = Tracer::enabled(1, 64);
        let n = 65_536u32;
        let (posted, rx_req) = (
            SendPosted {
                peer: 1,
                bytes: n,
                tag: 0,
            },
            WireRx {
                peer: 0,
                kind: PacketKind::RndvReq,
            },
        );
        t0.emit_at(0, posted);
        t0.emit_at(10, RndvReqTx { peer: 1, bytes: n });
        t1.emit_at(60, rx_req);
        t1.emit_at(70, DmaStart { peer: 0, bytes: n });
        t1.emit_at(1_070, DmaEnd { peer: 0, bytes: n });
        t1.emit_at(1_075, Delivered { peer: 0, bytes: n });
        t1.emit_at(1_080, RndvGoTx { peer: 0 });
        t0.emit_at(
            1_130,
            WireRx {
                peer: 1,
                kind: PacketKind::RndvGo,
            },
        );
        // The ball comes back the same way, 5 ns of turnaround later.
        t1.emit_at(1_085, posted);
        t1.emit_at(1_095, RndvReqTx { peer: 0, bytes: n });
        t0.emit_at(1_145, rx_req);
        t0.emit_at(1_155, DmaStart { peer: 1, bytes: n });
        t0.emit_at(2_160, Delivered { peer: 1, bytes: n });
        let bd = attribute_ping_pong(&t0.snapshot(), &t1.snapshot());
        assert_eq!(bd.half_trips, 2);
        assert_eq!(bd.proto_send_ns, 10 + 10);
        assert_eq!(bd.wire_ns, 50 + 50);
        assert_eq!(bd.proto_recv_ns, 1_015 + 1_015);
        assert_eq!(bd.api_ns, 10);
        assert_eq!(bd.total_ns(), 2_160);
    }

    #[test]
    fn truncated_trace_stops_cleanly() {
        let t0 = Tracer::enabled(0, 64);
        let t1 = Tracer::enabled(1, 64);
        t0.emit_at(
            0,
            SendPosted {
                peer: 1,
                bytes: 4,
                tag: 0,
            },
        );
        t0.emit_at(5, EagerTx { peer: 1, bytes: 4 });
        // Receiver trace lost (e.g. overwritten): no WireRx/Delivered.
        let bd = attribute_ping_pong(&t0.snapshot(), &t1.snapshot());
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
