//! Real `std::net::UdpSocket` datagram device — the paper's raw-UDP
//! endpoint, made reliable by stacking [`crate::reliable::ReliableDevice`]
//! on top.
//!
//! §5 of the paper argues the way past kernel TCP is raw, lossy datagrams
//! with reliability folded into the MPI library. [`UdpDevice`] is that
//! datagram substrate as a real transport: a full mesh of loopback UDP
//! sockets carrying [`codec`]-encoded frames. The device itself is
//! deliberately *lossy* — datagrams the kernel drops, truncates or
//! reorders are simply not delivered — so it must always run under the
//! go-back-N sublayer, exactly like the simulated UDP channel:
//!
//! ```no_run
//! # use lmpi_devices::{reliable::{ReliableDevice, RelConfig}, udp::UdpDevice};
//! # let rendezvous = UdpDevice::rendezvous(2);
//! let udp = UdpDevice::connect(0, 2, &rendezvous).unwrap();
//! let dev = ReliableDevice::new(udp, RelConfig::default());
//! ```
//!
//! Frames larger than one datagram are fragmented with a 16-byte header
//! (frame id, fragment index, fragment count) and reassembled on receive.
//! A lost fragment loses the whole frame; the reliability layer's
//! retransmission recovers it, and stale partial frames are evicted so a
//! retransmitted copy can reassemble from scratch.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use lmpi_core::{
    Device, DeviceDefaults, Mpi, MpiConfig, MpiError, MpiResult, Rank, TransportStats, Wire,
};
use lmpi_obs::Tracer;
use lmpi_sim::lock::Mutex;

use crate::codec;
use crate::reliable::{RelConfig, ReliableDevice};
use crate::sock::SOCK_DEFAULTS;

/// Fragment payload size: with the 16-byte fragment header the datagram
/// stays under the 65,507-byte UDP maximum.
const FRAG_PAYLOAD: usize = 60_000;

/// Fragment header: 8-byte frame id, 4-byte fragment index, 4-byte count.
const FRAG_HEADER: usize = 16;

/// In-progress reassemblies kept per device before the oldest is evicted.
/// Eviction only discards frames that will be retransmitted anyway.
const MAX_PARTIAL: usize = 64;

/// Hard cap on fragments per frame: bounds the slot table a forged header
/// can demand before any payload arrives (a `count` of `u32::MAX` would
/// otherwise allocate gigabytes on the first fragment).
const MAX_FRAGS: u32 = 1 << 12;

/// Per-peer cap on buffered reassembly payload bytes. Once a peer's
/// partial frames exceed it, its oldest partials are evicted (counted in
/// [`TransportStats::reassembly_evicted`]); a fragment that still does
/// not fit is dropped outright. Legitimate traffic never gets near this:
/// the shipped rendezvous chunking keeps frames to one datagram each.
const REASSEMBLY_BUDGET_PER_PEER: usize = 8 << 20;

/// Shared connection-setup state for one job: every rank binds an
/// ephemeral loopback port, publishes it, and waits at the barrier.
pub struct UdpRendezvous {
    addrs: Mutex<Vec<Option<SocketAddr>>>,
    barrier: Barrier,
    t0: Instant,
}

fn frag_header(frame_id: u64, idx: u32, count: u32) -> [u8; FRAG_HEADER] {
    let mut h = [0u8; FRAG_HEADER];
    h[0..8].copy_from_slice(&frame_id.to_le_bytes());
    h[8..12].copy_from_slice(&idx.to_le_bytes());
    h[12..16].copy_from_slice(&count.to_le_bytes());
    h
}

fn parse_frag_header(buf: &[u8]) -> Option<(u64, u32, u32)> {
    if buf.len() < FRAG_HEADER {
        return None;
    }
    let mut id = [0u8; 8];
    id.copy_from_slice(&buf[0..8]);
    let mut idx = [0u8; 4];
    idx.copy_from_slice(&buf[8..12]);
    let mut count = [0u8; 4];
    count.copy_from_slice(&buf[12..16]);
    Some((
        u64::from_le_bytes(id),
        u32::from_le_bytes(idx),
        u32::from_le_bytes(count),
    ))
}

struct Partial {
    frags: Vec<Option<Vec<u8>>>,
    have: usize,
    /// Payload bytes buffered so far (the per-peer budget's unit).
    bytes: usize,
}

struct RecvState {
    partial: HashMap<u64, Partial>,
    /// Insertion order of `partial` keys, for oldest-first eviction.
    order: VecDeque<u64>,
    /// Buffered payload bytes per sending peer (top 16 bits of the frame
    /// id), enforcing [`REASSEMBLY_BUDGET_PER_PEER`].
    peer_bytes: HashMap<u64, usize>,
    /// Fully reassembled, decoded frames awaiting delivery.
    ready: VecDeque<Wire>,
}

/// Lossy datagram device over real UDP loopback sockets. Always stack
/// [`ReliableDevice`] on top; see the module docs.
pub struct UdpDevice {
    sock: UdpSocket,
    peers: Vec<SocketAddr>,
    rank: Rank,
    nprocs: usize,
    t0: Instant,
    next_frame: AtomicU64,
    state: Mutex<RecvState>,
    /// Partial frames evicted to stay inside the reassembly budget.
    evicted: AtomicU64,
    /// Reusable send-path scratch (frame encode + datagram assembly), so
    /// steady-state sends stop allocating once the buffers reach their
    /// high-water marks.
    tx_scratch: Mutex<TxScratch>,
    tracer: Tracer,
}

#[derive(Default)]
struct TxScratch {
    frame: Vec<u8>,
    dgram: Vec<u8>,
}

impl UdpDevice {
    /// Shared rendezvous state for `nprocs` ranks of one job.
    pub fn rendezvous(nprocs: usize) -> UdpRendezvous {
        UdpRendezvous {
            addrs: Mutex::new(vec![None; nprocs]),
            barrier: Barrier::new(nprocs),
            t0: Instant::now(),
        }
    }

    /// Bind this rank's socket, publish its address and collect the full
    /// mesh. Call once per rank, concurrently, with a shared rendezvous.
    pub fn connect(rank: Rank, nprocs: usize, rendezvous: &UdpRendezvous) -> std::io::Result<Self> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_nonblocking(true)?;
        {
            let mut addrs = rendezvous.addrs.lock();
            addrs[rank] = Some(sock.local_addr()?);
        }
        rendezvous.barrier.wait();
        let peers = {
            let addrs = rendezvous.addrs.lock();
            addrs
                .iter()
                .map(|a| {
                    a.ok_or_else(|| {
                        std::io::Error::other("peer address missing after rendezvous barrier")
                    })
                })
                .collect::<std::io::Result<Vec<SocketAddr>>>()?
        };
        Ok(UdpDevice {
            sock,
            peers,
            rank,
            nprocs,
            t0: rendezvous.t0,
            next_frame: AtomicU64::new(1),
            state: Mutex::new(RecvState {
                partial: HashMap::new(),
                order: VecDeque::new(),
                peer_bytes: HashMap::new(),
                ready: VecDeque::new(),
            }),
            evicted: AtomicU64::new(0),
            tx_scratch: Mutex::new(TxScratch::default()),
            tracer: Tracer::disabled(),
        })
    }

    /// Remove one partial frame and return its accounting to the peer's
    /// budget. Used for eviction, corruption, and (without the eviction
    /// counter) normal completion.
    fn drop_partial(st: &mut RecvState, frame_id: u64) -> Option<Partial> {
        let old = st.partial.remove(&frame_id)?;
        st.order.retain(|&id| id != frame_id);
        if let Some(b) = st.peer_bytes.get_mut(&(frame_id >> 48)) {
            *b = b.saturating_sub(old.bytes);
        }
        Some(old)
    }

    /// Feed one received datagram into reassembly. Malformed datagrams are
    /// silently discarded — on a lossy medium that is indistinguishable
    /// from a drop, and the reliability layer retransmits.
    fn ingest(&self, st: &mut RecvState, buf: &[u8]) {
        let Some((frame_id, idx, count)) = parse_frag_header(buf) else {
            return;
        };
        if count == 0 || idx >= count || count > MAX_FRAGS {
            return;
        }
        let payload = &buf[FRAG_HEADER..];
        // Sender invariant: every fragment but the last is exactly
        // FRAG_PAYLOAD bytes. Anything else is corrupt or forged, and
        // believing its header would poison the byte accounting.
        if payload.len() > FRAG_PAYLOAD || (idx + 1 < count && payload.len() != FRAG_PAYLOAD) {
            return;
        }
        if count == 1 {
            if let Ok((wire, _)) = codec::decode(payload) {
                st.ready.push_back(wire);
            }
            return;
        }
        if let Some(p) = st.partial.get(&frame_id) {
            if p.frags.len() != count as usize {
                // Header disagreement across fragments: corrupt; drop the
                // frame.
                Self::drop_partial(st, frame_id);
                return;
            }
            if p.frags[idx as usize].is_some() {
                return; // duplicate fragment
            }
        }
        // Enforce the per-peer byte budget before buffering: evict the
        // peer's oldest other partials until this fragment fits, and drop
        // it outright if it still cannot.
        let peer = frame_id >> 48;
        let need = payload.len();
        let mut used = st.peer_bytes.get(&peer).copied().unwrap_or(0);
        if used + need > REASSEMBLY_BUDGET_PER_PEER {
            let victims: Vec<u64> = st
                .order
                .iter()
                .copied()
                .filter(|&id| id >> 48 == peer && id != frame_id)
                .collect();
            for id in victims {
                if used + need <= REASSEMBLY_BUDGET_PER_PEER {
                    break;
                }
                if let Some(old) = Self::drop_partial(st, id) {
                    used = used.saturating_sub(old.bytes);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
            if used + need > REASSEMBLY_BUDGET_PER_PEER {
                return;
            }
        }
        if !st.partial.contains_key(&frame_id) {
            st.order.push_back(frame_id);
            st.partial.insert(
                frame_id,
                Partial {
                    frags: (0..count as usize).map(|_| None).collect(),
                    have: 0,
                    bytes: 0,
                },
            );
        }
        let Some(p) = st.partial.get_mut(&frame_id) else {
            return;
        };
        p.frags[idx as usize] = Some(payload.to_vec());
        p.have += 1;
        p.bytes += need;
        *st.peer_bytes.entry(peer).or_insert(0) += need;
        if p.have == count as usize {
            let Some(done) = Self::drop_partial(st, frame_id) else {
                return;
            };
            let mut whole = Vec::with_capacity(done.bytes);
            for frag in done.frags.into_iter().flatten() {
                whole.extend_from_slice(&frag);
            }
            if let Ok((wire, _)) = codec::decode(&whole) {
                st.ready.push_back(wire);
            }
        } else {
            // Bound the frame count too: evict the oldest in-progress
            // frame once too many accumulate (its retransmitted copy
            // reassembles fresh).
            while st.order.len() > MAX_PARTIAL {
                let Some(old) = st.order.pop_front() else {
                    break;
                };
                if let Some(p) = st.partial.remove(&old) {
                    if let Some(b) = st.peer_bytes.get_mut(&(old >> 48)) {
                        *b = b.saturating_sub(p.bytes);
                    }
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Pull everything currently queued in the kernel into reassembly.
    fn drain_socket(&self, st: &mut RecvState) -> MpiResult<()> {
        let mut buf = [0u8; FRAG_HEADER + FRAG_PAYLOAD];
        loop {
            match self.sock.recv_from(&mut buf) {
                Ok((n, _)) => self.ingest(st, &buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                // A peer that exited has its port closed; the kernel may
                // surface that as a connection-refused/reset on the next
                // receive. On a lossy medium that's just a drop.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
                    ) => {}
                Err(e) => {
                    return Err(MpiError::transport(format!(
                        "udp socket receive failed: {e}"
                    )))
                }
            }
        }
    }
}

impl Device for UdpDevice {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn send(&self, dst: Rank, wire: Wire) {
        crate::trace_wire_tx(&self.tracer, || self.now_ns(), dst, &wire);
        if dst == self.rank {
            // Self-delivery never crosses the lossy socket (and must not:
            // the reliability layer does not sequence self-sends).
            self.state.lock().ready.push_back(wire);
            return;
        }
        let mut tx = self.tx_scratch.lock();
        let TxScratch { frame, dgram } = &mut *tx;
        codec::encode_into(&wire, frame);
        let frame_id = ((self.rank as u64) << 48) | self.next_frame.fetch_add(1, Ordering::Relaxed);
        let count = frame.len().div_ceil(FRAG_PAYLOAD).max(1) as u32;
        for (idx, chunk) in frame.chunks(FRAG_PAYLOAD).enumerate() {
            dgram.clear();
            dgram.reserve(FRAG_HEADER + chunk.len());
            dgram.extend_from_slice(&frag_header(frame_id, idx as u32, count));
            dgram.extend_from_slice(chunk);
            // Send errors (full kernel buffer, dead peer) are drops on a
            // lossy medium; the reliability layer above recovers.
            let _ = self.sock.send_to(dgram, self.peers[dst]);
        }
    }

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        let mut st = self.state.lock();
        self.drain_socket(&mut st)?;
        Ok(st.ready.pop_front())
    }

    // `recv_blocking` and `recv_timeout` stay the trait's polling defaults:
    // the socket is nonblocking (eviction scans must run between
    // datagrams), so there is no kernel wait to park in.

    fn supports_background_progress(&self) -> bool {
        true
    }

    fn wtime(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            reassembly_evicted: self.evicted.load(Ordering::Relaxed),
            ..TransportStats::default()
        }
    }

    fn defaults(&self) -> DeviceDefaults {
        SOCK_DEFAULTS
    }

    fn substrate(&self) -> &'static str {
        "real-udp"
    }
}

/// Run an `nprocs`-rank MPI program over real UDP loopback sockets with
/// the go-back-N reliability layer stacked on each rank, one OS thread per
/// rank. Returns per-rank results in rank order, or the first socket-setup
/// failure as a typed [`MpiError::Transport`].
pub fn run_real_udp<T, F>(nprocs: usize, config: MpiConfig, f: F) -> MpiResult<Vec<T>>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let rendezvous = Arc::new(UdpDevice::rendezvous(nprocs));
    let f = Arc::new(f);
    let handles: Vec<_> = (0..nprocs)
        .map(|rank| {
            let rendezvous = rendezvous.clone();
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("udp-rank-{rank}"))
                .spawn(move || -> MpiResult<T> {
                    let udp = UdpDevice::connect(rank, nprocs, &rendezvous).map_err(|e| {
                        MpiError::transport(format!("udp mesh setup failed for rank {rank}: {e}"))
                    })?;
                    let dev = ReliableDevice::new(udp, RelConfig::default());
                    Ok(f(Mpi::new(Box::new(dev), config)))
                })
                .expect("spawn rank thread")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(res) => res,
            Err(p) => std::panic::resume_unwind(p),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpi_core::Packet;

    #[test]
    fn frag_header_roundtrip() {
        let h = frag_header(0x0123_4567_89ab_cdef, 7, 12);
        assert_eq!(parse_frag_header(&h), Some((0x0123_4567_89ab_cdef, 7, 12)));
        assert_eq!(parse_frag_header(&h[..FRAG_HEADER - 1]), None);
    }

    #[test]
    fn single_datagram_frame_reassembles() {
        let rendezvous = UdpDevice::rendezvous(1);
        let d = UdpDevice::connect(0, 1, &rendezvous).expect("bind loopback");
        let mut st = d.state.lock();
        let enc = codec::encode(&Wire::bare(0, Packet::Credit));
        let mut dgram = frag_header(42, 0, 1).to_vec();
        dgram.extend_from_slice(&enc);
        d.ingest(&mut st, &dgram);
        let got = st.ready.pop_front().expect("frame delivered");
        assert!(matches!(got.pkt, Packet::Credit));
    }

    #[test]
    fn multi_fragment_frame_reassembles_out_of_order() {
        let rendezvous = UdpDevice::rendezvous(1);
        let d = UdpDevice::connect(0, 1, &rendezvous).expect("bind loopback");
        let payload = vec![7u8; FRAG_PAYLOAD + 100]; // forces 2+ fragments
        let wire = Wire::bare(
            0,
            Packet::RndvData {
                recv_id: 3,
                data: lmpi_core::Bytes::from(payload.clone()),
            },
        );
        let enc = codec::encode(&wire);
        let chunks: Vec<&[u8]> = enc.chunks(FRAG_PAYLOAD).collect();
        assert!(chunks.len() >= 2);
        let count = chunks.len() as u32;
        let mut st = d.state.lock();
        // Deliver the last fragment first: reassembly must not care.
        for (idx, chunk) in chunks.iter().enumerate().rev() {
            let mut dgram = frag_header(9, idx as u32, count).to_vec();
            dgram.extend_from_slice(chunk);
            d.ingest(&mut st, &dgram);
        }
        let got = st.ready.pop_front().expect("frame delivered");
        match got.pkt {
            Packet::RndvData { data, .. } => assert_eq!(data.as_ref(), &payload[..]),
            other => panic!("wrong packet {other:?}"),
        }
        assert!(st.partial.is_empty(), "reassembly state cleaned up");
    }

    /// A valid first-of-`count` fragment datagram (non-final fragments
    /// must be exactly `FRAG_PAYLOAD` bytes to pass validation).
    fn head_frag(frame_id: u64, idx: u32, count: u32, fill: u8) -> Vec<u8> {
        let mut dgram = frag_header(frame_id, idx, count).to_vec();
        dgram.extend_from_slice(&vec![fill; FRAG_PAYLOAD]);
        dgram
    }

    #[test]
    fn lost_fragment_never_delivers_and_gets_evicted() {
        let rendezvous = UdpDevice::rendezvous(1);
        let d = UdpDevice::connect(0, 1, &rendezvous).expect("bind loopback");
        let mut st = d.state.lock();
        // First fragment of a 2-fragment frame, second never arrives.
        d.ingest(&mut st, &head_frag(1, 0, 2, 0));
        assert!(st.ready.is_empty());
        assert_eq!(st.partial.len(), 1);
        // Enough unrelated partial frames push the stale one out.
        for id in 2..(MAX_PARTIAL as u64 + 3) {
            d.ingest(&mut st, &head_frag(id, 0, 2, 1));
        }
        assert!(!st.partial.contains_key(&1), "oldest partial evicted");
        assert!(st.partial.len() <= MAX_PARTIAL + 1);
        assert!(
            d.evicted.load(Ordering::Relaxed) > 0,
            "count-cap evictions are counted"
        );
    }

    #[test]
    fn forged_fragment_count_cannot_balloon_allocation() {
        let rendezvous = UdpDevice::rendezvous(1);
        let d = UdpDevice::connect(0, 1, &rendezvous).expect("bind loopback");
        let mut st = d.state.lock();
        // A single forged header claiming u32::MAX fragments used to
        // allocate a slot table of that many entries up front.
        d.ingest(&mut st, &head_frag(1, 0, u32::MAX, 0));
        d.ingest(&mut st, &head_frag(2, 0, MAX_FRAGS + 1, 0));
        assert!(st.partial.is_empty(), "oversized counts are rejected");
        // The largest permitted count is still accepted.
        d.ingest(&mut st, &head_frag(3, 0, MAX_FRAGS, 0));
        assert_eq!(st.partial.len(), 1);
    }

    #[test]
    fn short_non_final_fragment_is_rejected() {
        let rendezvous = UdpDevice::rendezvous(1);
        let d = UdpDevice::connect(0, 1, &rendezvous).expect("bind loopback");
        let mut st = d.state.lock();
        // Non-final fragment shorter than FRAG_PAYLOAD: forged header.
        let mut dgram = frag_header(1, 0, 3).to_vec();
        dgram.extend_from_slice(&[0u8; 100]);
        d.ingest(&mut st, &dgram);
        assert!(st.partial.is_empty());
        // Final fragment may be short — that one buffers.
        let mut dgram = frag_header(1, 2, 3).to_vec();
        dgram.extend_from_slice(&[0u8; 100]);
        d.ingest(&mut st, &dgram);
        assert_eq!(st.partial.len(), 1);
    }

    #[test]
    fn per_peer_budget_evicts_oldest_and_reports_stats() {
        let rendezvous = UdpDevice::rendezvous(1);
        let d = UdpDevice::connect(0, 1, &rendezvous).expect("bind loopback");
        let mut st = d.state.lock();
        // A partial from a different peer must survive peer 0's storm.
        let other = (1u64 << 48) | 1;
        d.ingest(&mut st, &head_frag(other, 0, 2, 9));
        // Peer 0 accumulates 3-of-4 fragments per frame (3 * FRAG_PAYLOAD
        // buffered each) until the byte budget forces evictions — well
        // before the frame-count cap at these sizes.
        let frames = REASSEMBLY_BUDGET_PER_PEER / (3 * FRAG_PAYLOAD) + 8;
        for id in 0..frames as u64 {
            for idx in 0..3 {
                d.ingest(&mut st, &head_frag(id, idx, 4, 7));
            }
        }
        let evicted = d.evicted.load(Ordering::Relaxed);
        assert!(evicted > 0, "budget pressure must evict");
        assert!(
            st.peer_bytes.get(&0).copied().unwrap_or(0) <= REASSEMBLY_BUDGET_PER_PEER,
            "peer 0 stays inside its budget"
        );
        assert!(
            st.partial.contains_key(&other),
            "other peers' partials are not collateral damage"
        );
        drop(st);
        assert_eq!(d.transport_stats().reassembly_evicted, evicted);
    }

    #[test]
    fn fuzzed_datagrams_never_panic_and_memory_stays_bounded() {
        use lmpi_sim::SplitMix64;
        let rendezvous = UdpDevice::rendezvous(1);
        let d = UdpDevice::connect(0, 1, &rendezvous).expect("bind loopback");
        let mut st = d.state.lock();
        let mut rng = SplitMix64::new(0xF00D);
        for _ in 0..4000 {
            let peer = rng.next_below(2);
            let frame_id = (peer << 48) | rng.next_below(200);
            let count = rng.next_u64() as u32; // mostly absurd, sometimes sane
            let idx = rng.next_below(8) as u32;
            let len = match rng.next_below(3) {
                0 => FRAG_PAYLOAD,
                1 => rng.next_below(FRAG_PAYLOAD as u64 + 64) as usize,
                _ => rng.next_below(64) as usize,
            };
            let mut dgram = frag_header(frame_id, idx, count % 7).to_vec();
            dgram.extend_from_slice(&vec![0xAB; len]);
            d.ingest(&mut st, &dgram);
        }
        assert!(st.order.len() <= MAX_PARTIAL);
        let buffered: usize = st.partial.values().map(|p| p.bytes).sum();
        let accounted: usize = st.peer_bytes.values().sum();
        assert_eq!(buffered, accounted, "byte accounting stays consistent");
        assert!(
            st.peer_bytes
                .values()
                .all(|&b| b <= REASSEMBLY_BUDGET_PER_PEER),
            "every peer stays inside its budget"
        );
    }

    /// Real-socket smoke test: ping-pong and a collective over loopback
    /// UDP under the reliability layer. Ignored by default — CI sandboxes
    /// may forbid binding sockets. Opt in by setting
    /// `LMPI_REAL_UDP_LOOPBACK=1` and running `cargo test -- --ignored`
    /// (the test also skips itself without the variable, so a bare
    /// `--ignored` sweep stays green in sandboxes that cannot bind).
    #[test]
    #[ignore = "needs real loopback sockets; set LMPI_REAL_UDP_LOOPBACK=1 and run with --ignored"]
    fn loopback_pingpong_over_reliable_udp() {
        if std::env::var_os("LMPI_REAL_UDP_LOOPBACK").is_none_or(|v| v != "1") {
            eprintln!("skipping: LMPI_REAL_UDP_LOOPBACK=1 not set");
            return;
        }
        let results = run_real_udp(2, MpiConfig::device_defaults(), |mpi| {
            let world = mpi.world();
            if world.rank() == 0 {
                world.send(&[5u32, 6], 1, 0).unwrap();
                let mut back = [0u32; 2];
                world.recv(&mut back, 1, 1).unwrap();
                let big: Vec<u32> = (0..100_000).collect();
                world.send(&big, 1, 2).unwrap();
                back[0] + back[1]
            } else {
                let mut buf = [0u32; 2];
                world.recv(&mut buf, 0, 0).unwrap();
                world.send(&[buf[0] * 2, buf[1] * 2], 0, 1).unwrap();
                let mut big = vec![0u32; 100_000];
                world.recv(&mut big, 0, 2).unwrap();
                assert!(big.iter().enumerate().all(|(i, &v)| v == i as u32));
                0
            }
        })
        .unwrap();
        assert_eq!(results[0], 22);
    }
}
