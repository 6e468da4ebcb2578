//! Kernel socket models: the latency anatomy of Table 1.
//!
//! A simulated socket send costs `send_fixed` (syscall entry, protocol
//! processing, driver) plus a synchronous per-byte copy into kernel
//! buffers; the bytes then pipeline onto the fabric (segments transmit as
//! they are copied). Delivery costs `recv_fixed` of kernel-side processing
//! before the message becomes readable; each `read()` the application then
//! issues costs `read_fixed` — this is how the paper's MPI pays 65/85 µs
//! twice more than raw TCP ("read for msg type", "read for envelope").
//!
//! TCP is modelled as reliable and ordered (the fabrics are lossless);
//! UDP adds optional datagram loss, and [`ReliableDgram`] layers
//! acknowledgments and retransmission on top — the paper's "additional
//! measures taken to make the UDP communication reliable".

use std::sync::Arc;

use lmpi_sim::lock::Mutex;
use lmpi_sim::{Proc, Sim, SimDur, SimQueue, SplitMix64};

use crate::atm::AtmFabric;
use crate::eth::EthFabric;
use crate::params::SocketParams;

/// The link layer a socket runs over.
#[derive(Clone)]
pub enum Fabric {
    /// Shared 10 Mbit/s Ethernet.
    Eth(EthFabric),
    /// 155 Mbit/s ATM switch.
    Atm(AtmFabric),
}

impl Fabric {
    fn transmit(
        &self,
        src: usize,
        dst: usize,
        t0: lmpi_sim::SimTime,
        nbytes: usize,
        copy: f64,
    ) -> lmpi_sim::SimTime {
        match self {
            Fabric::Eth(f) => f.transmit(t0, nbytes, copy),
            Fabric::Atm(f) => f.transmit(src, dst, t0, nbytes, copy),
        }
    }
}

struct SockInner<T> {
    sim: Sim,
    fabric: Fabric,
    params: SocketParams,
    inboxes: Vec<SimQueue<(T, usize)>>,
    /// Datagram loss probability (0.0 for stream sockets).
    loss: f64,
    rng: Mutex<SplitMix64>,
    /// Datagrams dropped so far (diagnostics).
    dropped: Mutex<u64>,
}

/// A simulated socket fabric: one endpoint per node, message-oriented for
/// modelling purposes (the MPI device frames its own 25-byte headers; the
/// byte count passed to [`SockNode::send`] is what travels).
pub struct SockFabric<T> {
    inner: Arc<SockInner<T>>,
}

impl<T> Clone for SockFabric<T> {
    fn clone(&self) -> Self {
        SockFabric {
            inner: self.inner.clone(),
        }
    }
}

/// One node's socket endpoint.
pub struct SockNode<T> {
    fabric: SockFabric<T>,
    node: usize,
}

impl<T: Send + 'static> SockFabric<T> {
    /// Build a socket fabric for `nodes` hosts over `fabric` with `params`
    /// (pick the matching `SocketParams::tcp_eth()` etc.). `loss` is the
    /// per-datagram drop probability (use 0.0 for TCP semantics).
    pub fn new(
        sim: &Sim,
        nodes: usize,
        fabric: Fabric,
        params: SocketParams,
        loss: f64,
        seed: u64,
    ) -> Self {
        SockFabric {
            inner: Arc::new(SockInner {
                sim: sim.clone(),
                fabric,
                params,
                inboxes: (0..nodes).map(|_| SimQueue::new(sim)).collect(),
                loss,
                rng: Mutex::new(SplitMix64::new(seed)),
                dropped: Mutex::new(0),
            }),
        }
    }

    /// The endpoint for `node`.
    pub fn node(&self, node: usize) -> SockNode<T> {
        assert!(node < self.inner.inboxes.len());
        SockNode {
            fabric: self.clone(),
            node,
        }
    }

    /// Cost parameters in effect.
    pub fn params(&self) -> SocketParams {
        self.inner.params
    }

    /// Datagrams dropped by loss injection.
    pub fn dropped(&self) -> u64 {
        *self.inner.dropped.lock()
    }
}

impl<T: Send + 'static> SockNode<T> {
    /// This endpoint's node id.
    pub fn id(&self) -> usize {
        self.node
    }

    /// The owning fabric.
    pub fn fabric(&self) -> &SockFabric<T> {
        &self.fabric
    }

    /// Blocking `write()` of a message of `nbytes`: charges the kernel send
    /// path and the synchronous copy, then pipelines segments onto the
    /// fabric. The message lands in `dst`'s inbox `recv_fixed` after its
    /// last byte arrives.
    pub fn send(&self, proc: &Proc, dst: usize, msg: T, nbytes: usize) {
        let inner = &self.fabric.inner;
        let p = inner.params;
        proc.advance(SimDur::from_us_f64(p.send_fixed_us));
        let t0 = proc.now();
        proc.advance(SimDur::from_us_f64(nbytes as f64 * p.copy_per_byte_us));
        let arrival = inner
            .fabric
            .transmit(self.node, dst, t0, nbytes, p.copy_per_byte_us);
        if inner.loss > 0.0 && inner.rng.lock().chance(inner.loss) {
            *inner.dropped.lock() += 1;
            return;
        }
        let readable = arrival + SimDur::from_us_f64(p.recv_fixed_us);
        let now = proc.now();
        let delay = if readable > now {
            readable - now
        } else {
            SimDur::ZERO
        };
        let inbox = inner.inboxes[dst].clone();
        inner.sim.after(delay, move |_| inbox.push((msg, nbytes)));
    }

    /// Blocking receive issuing `reads` read syscalls (1 for raw sockets;
    /// the paper's MPI framing reads type, envelope, then data = 3).
    /// Returns the message and its size.
    pub fn recv(&self, proc: &Proc, reads: u32) -> (T, usize) {
        let inner = &self.fabric.inner;
        let msg = inner.inboxes[self.node].pop(proc);
        proc.advance(SimDur::from_us_f64(
            inner.params.read_fixed_us * reads as f64,
        ));
        msg
    }

    /// Blocking receive that gives up after `timeout` of virtual time
    /// (select-with-timeout). Charges read costs only on success.
    pub fn recv_timeout(&self, proc: &Proc, reads: u32, timeout: SimDur) -> Option<(T, usize)> {
        let inner = &self.fabric.inner;
        let msg = inner.inboxes[self.node].pop_timeout(proc, timeout)?;
        proc.advance(SimDur::from_us_f64(
            inner.params.read_fixed_us * reads as f64,
        ));
        Some(msg)
    }

    /// Non-blocking receive; charges the read cost only on success.
    pub fn try_recv(&self, proc: &Proc, reads: u32) -> Option<(T, usize)> {
        let inner = &self.fabric.inner;
        let msg = inner.inboxes[self.node].try_pop()?;
        proc.advance(SimDur::from_us_f64(
            inner.params.read_fixed_us * reads as f64,
        ));
        Some(msg)
    }

    /// Whether data is waiting (a `select()` that costs nothing — used by
    /// progress loops before committing to read costs).
    pub fn readable(&self) -> bool {
        !self.fabric.inner.inboxes[self.node].is_empty()
    }
}

/// Reliable datagram layer over a lossy [`SockFabric`]: sequence numbers,
/// cumulative acknowledgments, and timeout retransmission. The payload is
/// buffered until acknowledged.
pub struct ReliableDgram<T: Clone> {
    sock: SockNode<Env<T>>,
    state: Mutex<RelState<T>>,
    /// Retransmission timeout.
    pub rto: SimDur,
}

/// Reliable-datagram wire envelope (public only because it appears in
/// [`ReliableDgram::new`]'s endpoint type).
#[derive(Clone)]
pub enum Env<T> {
    /// A sequenced payload.
    Data {
        /// Per-(src,dst) sequence number.
        seq: u64,
        /// Sending node.
        src: usize,
        /// The payload.
        msg: T,
    },
    /// Cumulative acknowledgment: everything below `seq` received.
    Ack {
        /// Next expected sequence number.
        seq: u64,
        /// Acknowledging node.
        src: usize,
    },
}

struct RelState<T> {
    next_send_seq: Vec<u64>,
    next_recv_seq: Vec<u64>,
    /// Unacknowledged messages per destination: (seq, msg, nbytes).
    unacked: Vec<Vec<(u64, T, usize)>>,
    /// Out-of-order arrivals parked per source.
    parked: Vec<Vec<(u64, T, usize)>>,
    /// In-order messages ready for the application.
    ready: std::collections::VecDeque<(T, usize)>,
    acks_sent: u64,
    retransmits: u64,
}

impl<T: Clone + Send + 'static> ReliableDgram<T> {
    /// Wrap a datagram endpoint. `nodes` must match the fabric size.
    pub fn new(sock: SockNode<Env<T>>, nodes: usize, rto: SimDur) -> Self {
        ReliableDgram {
            sock,
            state: Mutex::new(RelState {
                next_send_seq: vec![0; nodes],
                next_recv_seq: vec![0; nodes],
                unacked: (0..nodes).map(|_| Vec::new()).collect(),
                parked: (0..nodes).map(|_| Vec::new()).collect(),
                ready: std::collections::VecDeque::new(),
                acks_sent: 0,
                retransmits: 0,
            }),
            rto,
        }
    }

    /// Construct endpoints for every node of a fresh lossy fabric.
    pub fn fabric(
        sim: &Sim,
        nodes: usize,
        fabric: Fabric,
        params: SocketParams,
        loss: f64,
        seed: u64,
        rto: SimDur,
    ) -> Vec<ReliableDgram<T>> {
        let sock: SockFabric<Env<T>> = SockFabric::new(sim, nodes, fabric, params, loss, seed);
        (0..nodes)
            .map(|n| ReliableDgram::new(sock.node(n), nodes, rto))
            .collect()
    }

    /// Send reliably: transmit, record as unacked.
    pub fn send(&self, proc: &Proc, dst: usize, msg: T, nbytes: usize) {
        let seq = {
            let mut st = self.state.lock();
            let seq = st.next_send_seq[dst];
            st.next_send_seq[dst] += 1;
            st.unacked[dst].push((seq, msg.clone(), nbytes));
            seq
        };
        self.sock.send(
            proc,
            dst,
            Env::Data {
                seq,
                src: self.sock.id(),
                msg,
            },
            nbytes,
        );
    }

    /// Receive the next in-order message, driving acknowledgments and
    /// retransmissions. `reads` as in [`SockNode::recv`].
    pub fn recv(&self, proc: &Proc, reads: u32) -> (T, usize) {
        loop {
            if let Some(m) = self.state.lock().ready.pop_front() {
                return m;
            }
            // Wait up to one RTO for traffic, then retransmit unacked.
            match self.poll_wire(proc, reads) {
                true => continue,
                false => self.retransmit_all(proc),
            }
        }
    }

    /// Non-blocking receive: drain arrived wire traffic, then return the
    /// next in-order message if any.
    pub fn try_recv(&self, proc: &Proc, reads: u32) -> Option<(T, usize)> {
        while let Some((env, nbytes)) = self.sock.try_recv(proc, reads) {
            self.handle(proc, env, nbytes);
        }
        self.state.lock().ready.pop_front()
    }

    fn poll_wire(&self, proc: &Proc, reads: u32) -> bool {
        match self.sock.recv_timeout(proc, reads, self.rto) {
            Some((env, nbytes)) => {
                self.handle(proc, env, nbytes);
                true
            }
            None => false,
        }
    }

    fn handle(&self, proc: &Proc, env: Env<T>, nbytes: usize) {
        match env {
            Env::Data { seq, src, msg } => {
                {
                    let mut st = self.state.lock();
                    let expected = st.next_recv_seq[src];
                    if seq < expected {
                        // Duplicate of something already delivered: re-ack.
                    } else if seq == expected {
                        st.next_recv_seq[src] = seq + 1;
                        st.ready.push_back((msg, nbytes));
                        // Drain consecutively parked followers.
                        loop {
                            let next = st.next_recv_seq[src];
                            let Some(pos) = st.parked[src].iter().position(|(s, _, _)| *s == next)
                            else {
                                break;
                            };
                            let (_, m, n) = st.parked[src].remove(pos);
                            st.ready.push_back((m, n));
                            st.next_recv_seq[src] = next + 1;
                        }
                    } else {
                        // Out of order: park unless duplicate.
                        if !st.parked[src].iter().any(|(s, _, _)| *s == seq) {
                            st.parked[src].push((seq, msg, nbytes));
                        }
                    }
                    st.acks_sent += 1;
                }
                // Cumulative ack of everything below next_recv_seq.
                let ack_seq = self.state.lock().next_recv_seq[src];
                self.sock.send(
                    proc,
                    src,
                    Env::Ack {
                        seq: ack_seq,
                        src: self.sock.id(),
                    },
                    8,
                );
            }
            Env::Ack { seq, src } => {
                let mut st = self.state.lock();
                st.unacked[src].retain(|(s, _, _)| *s >= seq);
            }
        }
    }

    fn retransmit_all(&self, proc: &Proc) {
        let pending: Vec<(usize, u64, T, usize)> = {
            let mut st = self.state.lock();
            st.retransmits += st.unacked.iter().map(|v| v.len() as u64).sum::<u64>();
            st.unacked
                .iter()
                .enumerate()
                .flat_map(|(dst, v)| {
                    v.iter()
                        .map(move |(s, m, n)| (dst, *s, m.clone(), *n))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        for (dst, seq, msg, nbytes) in pending {
            self.sock.send(
                proc,
                dst,
                Env::Data {
                    seq,
                    src: self.sock.id(),
                    msg,
                },
                nbytes,
            );
        }
    }

    /// `(acks sent, retransmissions)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.acks_sent, st.retransmits)
    }

    /// Whether any messages await acknowledgment.
    pub fn has_unacked(&self) -> bool {
        self.state.lock().unacked.iter().any(|v| !v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{AtmParams, EthParams};
    use std::sync::Arc as StdArc;

    fn eth_fabric(sim: &Sim) -> Fabric {
        Fabric::Eth(EthFabric::new(sim, EthParams::default()))
    }

    #[test]
    fn tcp_eth_round_trip_is_925_us() {
        let sim = Sim::new();
        let sock: SockFabric<u8> =
            SockFabric::new(&sim, 2, eth_fabric(&sim), SocketParams::tcp_eth(), 0.0, 1);
        let n0 = sock.node(0);
        let n1 = sock.node(1);
        let rtt = StdArc::new(Mutex::new(0.0));
        let r = rtt.clone();
        sim.spawn("client", move |p| {
            let t0 = p.now();
            n0.send(p, 1, 42, 1);
            let _ = n0.recv(p, 1);
            *r.lock() = (p.now() - t0).as_us_f64();
        });
        sim.spawn("server", move |p| {
            let (m, n) = n1.recv(p, 1);
            n1.send(p, 0, m, n);
        });
        sim.run();
        let v = *rtt.lock();
        assert!(
            (v - 925.0).abs() < 15.0,
            "Ethernet TCP 1-byte RTT {v} != 925us (Table 1)"
        );
    }

    #[test]
    fn tcp_atm_round_trip_is_1065_us() {
        let sim = Sim::new();
        let fabric = Fabric::Atm(AtmFabric::new(&sim, 2, AtmParams::default()));
        let sock: SockFabric<u8> =
            SockFabric::new(&sim, 2, fabric, SocketParams::tcp_atm(), 0.0, 1);
        let n0 = sock.node(0);
        let n1 = sock.node(1);
        let rtt = StdArc::new(Mutex::new(0.0));
        let r = rtt.clone();
        sim.spawn("client", move |p| {
            let t0 = p.now();
            n0.send(p, 1, 42, 1);
            let _ = n0.recv(p, 1);
            *r.lock() = (p.now() - t0).as_us_f64();
        });
        sim.spawn("server", move |p| {
            let (m, n) = n1.recv(p, 1);
            n1.send(p, 0, m, n);
        });
        sim.run();
        let v = *rtt.lock();
        assert!(
            (v - 1065.0).abs() < 15.0,
            "ATM TCP 1-byte RTT {v} != 1065us (Table 1)"
        );
    }

    #[test]
    fn extra_reads_cost_the_table_1_overheads() {
        let sim = Sim::new();
        let sock: SockFabric<u8> =
            SockFabric::new(&sim, 2, eth_fabric(&sim), SocketParams::tcp_eth(), 0.0, 1);
        let n1 = sock.node(1);
        let n0 = sock.node(0);
        let t = StdArc::new(Mutex::new((0.0, 0.0)));
        let t2 = t.clone();
        sim.spawn("recv", move |p| {
            let before = p.now();
            let _ = n1.recv(p, 3); // type + envelope + data
            t2.lock().0 = (p.now() - before).as_us_f64();
        });
        sim.spawn("send", move |p| {
            n0.send(p, 1, 1, 1);
        });
        sim.run();
        // 3 reads at 65us each = 195us of receiver CPU beyond delivery.
        // (The recv blocked from t=0, so measure only the read cost bound.)
        assert!(t.lock().0 > 195.0);
    }

    #[test]
    fn udp_loss_drops_datagrams() {
        let sim = Sim::new();
        let sock: SockFabric<u32> =
            SockFabric::new(&sim, 2, eth_fabric(&sim), SocketParams::udp_eth(), 0.5, 7);
        let n0 = sock.node(0);
        let got = StdArc::new(Mutex::new(0u32));
        let g = got.clone();
        let s2 = sock.clone();
        sim.spawn("send", move |p| {
            for i in 0..100 {
                n0.send(p, 1, i, 4);
            }
        });
        let n1 = sock.node(1);
        sim.spawn("recv", move |p| {
            // Receive until the sim would otherwise deadlock: poll with a
            // generous horizon instead.
            loop {
                if n1.try_recv(p, 1).is_some() {
                    *g.lock() += 1;
                }
                if p.now().as_secs_f64() > 1.0 {
                    break;
                }
                p.advance(SimDur::from_us(500));
            }
        });
        sim.run();
        let received = *got.lock();
        assert!(received < 100, "some datagrams must drop");
        assert!(received > 10, "not all datagrams should drop");
        assert_eq!(s2.dropped() + received as u64, 100);
    }

    #[test]
    fn reliable_dgram_delivers_in_order_despite_loss() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sim = Sim::new();
        let fabric = eth_fabric(&sim);
        let mut eps: Vec<ReliableDgram<u32>> = ReliableDgram::fabric(
            &sim,
            2,
            fabric,
            SocketParams::udp_eth(),
            0.3,
            99,
            SimDur::from_ms(20),
        );
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let got = StdArc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let all_acked = StdArc::new(AtomicBool::new(false));
        let acked2 = all_acked.clone();
        sim.spawn("send", move |p| {
            for i in 0..30u32 {
                e0.send(p, 1, i, 4);
            }
            // Serve retransmissions until everything is acked.
            while e0.has_unacked() {
                let _ = e0.poll_wire(p, 1) || {
                    e0.retransmit_all(p);
                    true
                };
            }
            acked2.store(true, Ordering::SeqCst);
        });
        sim.spawn("recv", move |p| {
            for _ in 0..30 {
                let (v, _) = e1.recv(p, 1);
                g.lock().push(v);
            }
            // Keep re-acknowledging retransmitted duplicates (whose acks
            // may themselves be lost) until the sender reports all-acked.
            while !all_acked.load(Ordering::SeqCst) {
                if e1.try_recv(p, 1).is_none() {
                    p.advance(SimDur::from_ms(5));
                }
            }
        });
        sim.run();
        assert_eq!(*got.lock(), (0..30).collect::<Vec<u32>>());
    }
}
