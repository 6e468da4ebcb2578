//! Meiko CS/2 network model: Elan transactions, the DMA engine, hardware
//! broadcast, and the tport (tagged message port) widget.
//!
//! The model is generic over the payload type `T` — the device layer in
//! `lmpi-devices` ships MPI protocol frames through it; the tport model and
//! the raw benchmarks ship their own small structs.
//!
//! Timing behaviour (parameters in [`MeikoParams`]):
//!
//! * **Transaction** — the sender's SPARC spends `txn_issue`; the payload
//!   arrives `txn_wire + n·txn_per_byte` later. Used for envelopes, eager
//!   data, rendezvous control, credits.
//! * **DMA** — the sender's SPARC spends `dma_setup` issuing the descriptor;
//!   the node's single DMA engine serializes transfers at `dma_per_byte`
//!   (39 MB/s); delivery completes `dma_notify` after the last byte.
//! * **Hardware broadcast** — one fixed `bcast_base + n·bcast_per_byte`
//!   latency to *all* destinations (the CS/2 network broadcasts in the
//!   fabric, not as repeated point-to-point sends).

use std::sync::Arc;

use lmpi_sim::lock::Mutex;
use lmpi_sim::{Proc, Sim, SimDur, SimQueue, SimTime};

use crate::params::MeikoParams;

struct Node<T> {
    inbox: SimQueue<T>,
    /// The node's DMA engine is a single resource: outgoing bulk transfers
    /// serialize through it.
    dma_busy_until: Mutex<SimTime>,
}

struct Inner<T> {
    sim: Sim,
    params: MeikoParams,
    nodes: Vec<Node<T>>,
}

/// A simulated Meiko CS/2 fabric connecting `nprocs` nodes.
pub struct MeikoNet<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for MeikoNet<T> {
    fn clone(&self) -> Self {
        MeikoNet {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> MeikoNet<T> {
    /// Build a fabric of `nprocs` nodes on `sim`.
    pub fn new(sim: &Sim, nprocs: usize, params: MeikoParams) -> Self {
        MeikoNet {
            inner: Arc::new(Inner {
                sim: sim.clone(),
                params,
                nodes: (0..nprocs)
                    .map(|_| Node {
                        inbox: SimQueue::new(sim),
                        dma_busy_until: Mutex::new(SimTime::ZERO),
                    })
                    .collect(),
            }),
        }
    }

    /// Number of nodes.
    pub fn nprocs(&self) -> usize {
        self.inner.nodes.len()
    }

    /// The model parameters in effect.
    pub fn params(&self) -> &MeikoParams {
        &self.inner.params
    }

    /// The simulation this fabric runs on.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// This node's receive queue (the device layer's inbox).
    pub fn inbox(&self, node: usize) -> SimQueue<T> {
        self.inner.nodes[node].inbox.clone()
    }

    /// Issue a control transaction of `nbytes` payload from the calling
    /// process (which must be running on `src`'s node) to `dst`.
    ///
    /// Charges the caller `txn_issue`; the payload lands in `dst`'s inbox
    /// after the wire time.
    pub fn txn(&self, proc: &Proc, dst: usize, payload: T, nbytes: usize) {
        let p = &self.inner.params;
        proc.advance(SimDur::from_us_f64(p.txn_issue_us));
        let wire = SimDur::from_us_f64(p.txn_wire_us + nbytes as f64 * p.txn_per_byte_us);
        let inbox = self.inner.nodes[dst].inbox.clone();
        self.inner.sim.after(wire, move |_| inbox.push(payload));
    }

    /// Issue a DMA of `nbytes` from the calling process's node `src` to
    /// `dst`. Charges the caller `dma_setup`; the transfer then serializes
    /// through `src`'s DMA engine at the DMA byte rate and lands in `dst`'s
    /// inbox `dma_notify` after the last byte.
    pub fn dma(&self, proc: &Proc, src: usize, dst: usize, payload: T, nbytes: usize) {
        let p = &self.inner.params;
        proc.advance(SimDur::from_us_f64(p.dma_setup_us));
        let now = proc.now();
        let xfer = SimDur::from_us_f64(nbytes as f64 * p.dma_per_byte_us);
        let done = {
            let mut busy = self.inner.nodes[src].dma_busy_until.lock();
            let start = (*busy).max(now);
            *busy = start + xfer;
            *busy
        };
        let deliver_at = done + SimDur::from_us_f64(p.dma_notify_us);
        let inbox = self.inner.nodes[dst].inbox.clone();
        self.inner
            .sim
            .after(deliver_at - now, move |_| inbox.push(payload));
    }
}

impl<T: Clone + Send + 'static> MeikoNet<T> {
    /// Hardware broadcast: deliver `payload` to every node in `dsts`
    /// simultaneously, `bcast_base + n·bcast_per_byte` after the sender's
    /// `txn_issue`.
    pub fn hw_bcast(&self, proc: &Proc, dsts: &[usize], payload: T, nbytes: usize) {
        let p = &self.inner.params;
        proc.advance(SimDur::from_us_f64(p.txn_issue_us));
        let wire = SimDur::from_us_f64(p.bcast_base_us + nbytes as f64 * p.bcast_per_byte_us);
        let inboxes: Vec<SimQueue<T>> = dsts
            .iter()
            .map(|&d| self.inner.nodes[d].inbox.clone())
            .collect();
        self.inner.sim.after(wire, move |_| {
            for inbox in inboxes {
                inbox.push(payload.clone());
            }
        });
    }
}

/// The Meiko tport widget: simplified tagged message passing directly on
/// the Elan, with matching performed by the co-processor. This is Fig. 2's
/// lowest curve (52 µs round trip at 1 byte, no MPI overheads) and the
/// substrate the MPICH baseline builds on.
pub struct Tport {
    net: MeikoNet<TportMsg>,
    node: usize,
}

/// A tagged tport message.
#[derive(Clone, Debug)]
pub struct TportMsg {
    /// Sender node.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

impl Tport {
    /// Create the tport endpoints for every node of a fabric.
    pub fn fabric(sim: &Sim, nprocs: usize, params: MeikoParams) -> Vec<Tport> {
        let net = MeikoNet::new(sim, nprocs, params);
        (0..nprocs)
            .map(|node| Tport {
                net: net.clone(),
                node,
            })
            .collect()
    }

    /// `tport_send`: one-way time is `tport_base + n·tport_per_byte`
    /// (matching on the Elan is part of the base).
    pub fn send(&self, proc: &Proc, dst: usize, tag: u32, data: Vec<u8>) {
        let p = *self.net.params();
        let nbytes = data.len();
        // The tport hands off quickly; the SPARC is busy only briefly.
        proc.advance(SimDur::from_us_f64(p.txn_issue_us * 0.4));
        let wire = SimDur::from_us_f64(
            (p.tport_base_us - p.txn_issue_us * 0.4) + nbytes as f64 * p.tport_per_byte_us,
        );
        let inbox = self.net.inbox(dst);
        let msg = TportMsg {
            src: self.node,
            tag,
            data,
        };
        self.net.inner.sim.after(wire, move |_| inbox.push(msg));
    }

    /// `tport_recv`: block until a message with `tag` arrives (the Elan has
    /// already matched by tag; out-of-tag messages are queued aside).
    pub fn recv(&self, proc: &Proc, tag: u32) -> TportMsg {
        // Simple model: tags arrive in order per benchmark usage; scan the
        // inbox for the tag, requeueing others.
        let inbox = self.net.inbox(self.node);
        loop {
            let msg = inbox.pop(proc);
            if msg.tag == tag {
                return msg;
            }
            inbox.push(msg);
            proc.yield_now();
        }
    }

    /// This endpoint's node id.
    pub fn node(&self) -> usize {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpi_sim::Sim;
    use std::sync::Arc as StdArc;

    fn rtt_us(result: StdArc<Mutex<f64>>) -> f64 {
        *result.lock()
    }

    #[test]
    fn txn_one_way_time_matches_model() {
        let sim = Sim::new();
        let net: MeikoNet<u32> = MeikoNet::new(&sim, 2, MeikoParams::default());
        let n2 = net.clone();
        let t = StdArc::new(Mutex::new(0.0));
        let t2 = t.clone();
        sim.spawn("recv", move |p| {
            let _ = n2.inbox(1).pop(p);
            *t2.lock() = p.now().as_us_f64();
        });
        let n3 = net.clone();
        sim.spawn("send", move |p| {
            n3.txn(p, 1, 7, 1);
        });
        sim.run();
        let p = MeikoParams::default();
        let expect = p.txn_issue_us + p.txn_wire_us + p.txn_per_byte_us;
        assert!((rtt_us(t) - expect).abs() < 0.01);
    }

    #[test]
    fn dma_serializes_per_node() {
        let sim = Sim::new();
        let net: MeikoNet<u32> = MeikoNet::new(&sim, 2, MeikoParams::default());
        let n2 = net.clone();
        let times = StdArc::new(Mutex::new(Vec::new()));
        let t2 = times.clone();
        sim.spawn("recv", move |p| {
            for _ in 0..2 {
                let _ = n2.inbox(1).pop(p);
                t2.lock().push(p.now().as_us_f64());
            }
        });
        let n3 = net.clone();
        sim.spawn("send", move |p| {
            n3.dma(p, 0, 1, 1, 39_000); // 1 ms of DMA at 39 MB/s
            n3.dma(p, 0, 1, 2, 39_000);
        });
        sim.run();
        let t = times.lock();
        // Second transfer must wait for the first: gap >= transfer time.
        assert!(
            t[1] - t[0] >= 39_000.0 * 0.0256 - 1.0,
            "DMA engine must serialize: {:?}",
            *t
        );
    }

    #[test]
    fn hw_bcast_reaches_all_at_same_instant() {
        let sim = Sim::new();
        let net: MeikoNet<u8> = MeikoNet::new(&sim, 4, MeikoParams::default());
        let times = StdArc::new(Mutex::new(Vec::new()));
        for node in 1..4 {
            let n = net.clone();
            let t = times.clone();
            sim.spawn(format!("r{node}"), move |p| {
                let _ = n.inbox(node).pop(p);
                t.lock().push(p.now().as_ns());
            });
        }
        let n = net.clone();
        sim.spawn("root", move |p| {
            n.hw_bcast(p, &[1, 2, 3], 9, 100);
        });
        sim.run();
        let t = times.lock();
        assert_eq!(t.len(), 3);
        assert!(
            t.iter().all(|&x| x == t[0]),
            "simultaneous delivery: {:?}",
            *t
        );
    }

    #[test]
    fn tport_round_trip_is_52_us_at_1_byte() {
        let sim = Sim::new();
        let mut ports = Tport::fabric(&sim, 2, MeikoParams::default());
        let p1 = ports.pop().unwrap();
        let p0 = ports.pop().unwrap();
        let rtt = StdArc::new(Mutex::new(0.0));
        let r2 = rtt.clone();
        sim.spawn("p0", move |p| {
            let t0 = p.now();
            p0.send(p, 1, 0, vec![0u8]);
            let _ = p0.recv(p, 1);
            *r2.lock() = (p.now() - t0).as_us_f64();
        });
        sim.spawn("p1", move |p| {
            let m = p1.recv(p, 0);
            p1.send(p, 0, 1, m.data);
        });
        sim.run();
        let v = rtt_us(rtt);
        assert!((v - 52.05).abs() < 0.5, "tport 1-byte RTT {v} != 52us");
    }
}
