//! Sockets device: the paper's §5 — MPI over TCP (or reliable UDP) on a
//! cluster, with envelopes piggybacked on data and credit-based flow
//! control.
//!
//! The device is written against a small [`MsgChannel`] abstraction with
//! three implementations:
//!
//! * [`SimTcpChannel`] — a simulated kernel socket over a simulated
//!   Ethernet segment or ATM switch (`lmpi-netmodel`), reproducing the
//!   paper's latency anatomy (Table 1). With TCP's costs it is the TCP
//!   cluster; with UDP's, under [`ReliableDevice`], it is the paper's
//!   reliable-UDP variant;
//! * [`RealTcpChannel`] — actual `std::net` TCP over loopback, proving the
//!   same device code is a working transport. It runs no thread: the
//!   rank's drain-role holder sweeps the sockets itself;
//! * [`RealUdpChannel`](crate::udp::RealUdpChannel) — actual `std::net`
//!   UDP over loopback, one datagram per frame, under the same
//!   [`ReliableDevice`] as simulated UDP.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lmpi_core::{
    Cost, Device, DeviceDefaults, Mpi, MpiConfig, MpiError, MpiResult, Rank, Wait, Wire,
};
use lmpi_netmodel::ip::{Fabric, SockFabric, SockNode};
use lmpi_netmodel::params::{AtmParams, CpuParams, EthParams, SocketParams};
use lmpi_obs::{ThreadHealth, Tracer};
use lmpi_sim::lock::Mutex;
use lmpi_sim::{Proc, Sim, SimDur};

use crate::codec;
use crate::launch::{peer_setup_failed, MeshSetup};
use crate::reliable::{RelConfig, ReliableDevice};

/// Reads the paper's MPI performs per incoming message: one for the type
/// byte, one for the envelope together with the (small) data. Raw sockets
/// perform one.
pub const MPI_READS_PER_MSG: u32 = 2;

/// Matching cost on the cluster nodes, µs (Table 1: "Overheads for
/// matching").
pub const MATCH_US: f64 = 35.0;

/// Message transport abstraction under the sockets device.
pub trait MsgChannel: Send + Sync {
    /// Transmit `wire`, whose on-the-wire size is `nbytes`.
    fn send(&self, dst: Rank, wire: Wire, nbytes: usize);
    /// The next frame, waiting as `wait` says ([`Device::recv`]); `Err`
    /// reports a broken transport (peer disconnect mid-frame, corrupt
    /// framing).
    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>>;
    /// The next frame, however long it takes, or a transport failure.
    fn recv_blocking(&self) -> MpiResult<Wire> {
        loop {
            if let Some(w) = self.recv(Wait::Forever)? {
                return Ok(w);
            }
        }
    }
    /// Whether a background progress thread may own this channel's receive
    /// side (real transports only; simulated channels advance a virtual
    /// clock owned by the calling rank's cooperative scheduler).
    fn supports_background_progress(&self) -> bool {
        false
    }
    /// Charge `us` microseconds of local CPU (no-op on real transports).
    fn charge_us(&self, _us: f64) {}
    /// Nanoseconds since the channel started: virtual on a simulated
    /// channel, wall-clock on a real one. [`SockDevice`]'s clock.
    fn now_ns(&self) -> u64;
    /// Substrate name for the collective decision table.
    fn substrate(&self) -> &'static str {
        "sock"
    }
    /// Duty-cycle accounting for a reader thread owned by this channel.
    /// No channel runs one (real TCP's drain-role holder reads the sockets
    /// itself); the method stays only because the frozen benchmark's
    /// `layers.rs::sock_floor` calls it, and reads `None`.
    fn reader_health(&self) -> Option<Arc<ThreadHealth>> {
        None
    }
}

/// The sockets MPI device: frames protocol packets with the paper's
/// 25-byte header and maps protocol costs onto the channel.
pub struct SockDevice<C> {
    chan: C,
    rank: Rank,
    nprocs: usize,
    cpu: CpuParams,
    defaults: DeviceDefaults,
    tracer: Tracer,
}

/// Cluster platform defaults: with ~1 ms round trips, piggybacking matters
/// more than on the Meiko ("piggybacking data is more important than in
/// the Meiko implementation"), so the eager threshold is large and the
/// credit window generous.
pub const SOCK_DEFAULTS: DeviceDefaults = DeviceDefaults {
    eager_threshold: 8 << 10,
    env_slots: 32,
    recv_buf_per_sender: 256 << 10,
    // Every frame, eager (a ready-mode one: at most a chunk) or chunk,
    // with its 57-byte head fits one 65 507-byte UDP datagram (real UDP
    // sends one per frame and refuses a larger one); the window covers
    // the cluster's bandwidth-delay product at Table-1 round-trip times.
    rndv_chunk: 48 << 10,
    rndv_window: 8,
};

impl<C: MsgChannel> SockDevice<C> {
    /// Wrap `chan` as the device for `rank` of `nprocs`.
    pub fn new(chan: C, rank: Rank, nprocs: usize) -> Self {
        SockDevice {
            chan,
            rank,
            nprocs,
            cpu: CpuParams::sgi_indy(),
            defaults: SOCK_DEFAULTS,
            tracer: Tracer::disabled(),
        }
    }
}

impl<C: MsgChannel> Device for SockDevice<C> {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn send(&self, dst: Rank, wire: Wire) {
        crate::trace_wire_tx(&self.tracer, || self.now_ns(), dst, &wire);
        let nbytes = codec::wire_bytes(&wire);
        self.chan.send(dst, wire, nbytes);
    }

    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>> {
        self.chan.recv(wait)
    }

    fn supports_background_progress(&self) -> bool {
        self.chan.supports_background_progress()
    }

    fn charge(&self, cost: Cost) {
        let us = match cost {
            Cost::Match => MATCH_US,
            // Workstation memcpy is cheap next to the kernel path; the
            // bounce-buffer copy is folded into the kernel copy rate and
            // only truly unexpected data pays again.
            Cost::BufferedCopy(n) => n as f64 * 0.05,
            Cost::PostedCopy(_) => 0.0,
            Cost::Flops(n) => n as f64 * self.cpu.us_per_flop,
        };
        if us > 0.0 {
            self.chan.charge_us(us);
        }
    }

    fn now_ns(&self) -> u64 {
        self.chan.now_ns()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn defaults(&self) -> DeviceDefaults {
        self.defaults
    }

    fn substrate(&self) -> &'static str {
        self.chan.substrate()
    }
}

// ----------------------------------------------------------------------
// Simulated sockets
// ----------------------------------------------------------------------

/// A simulated kernel socket channel: TCP's or UDP's, as the
/// [`SockFabric`]'s costs and loss say. A timed wait parks the simulated
/// process for that much virtual time.
pub struct SimTcpChannel {
    node: SockNode<Wire>,
    proc: Proc,
}

impl SimTcpChannel {
    /// Wrap a socket endpoint driven by simulated process `proc`.
    pub fn new(node: SockNode<Wire>, proc: Proc) -> Self {
        SimTcpChannel { node, proc }
    }
}

impl MsgChannel for SimTcpChannel {
    fn send(&self, dst: Rank, wire: Wire, nbytes: usize) {
        self.node.send(&self.proc, dst, wire, nbytes);
    }

    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>> {
        let (node, proc) = (&self.node, &self.proc);
        Ok(match wait {
            Wait::Forever => Some(node.recv(proc, MPI_READS_PER_MSG).0),
            Wait::Within(d) if !d.is_zero() => node
                .recv_timeout(proc, MPI_READS_PER_MSG, SimDur::from(d))
                .map(|(w, _)| w),
            _ => node.try_recv(proc, MPI_READS_PER_MSG).map(|(w, _)| w),
        })
    }

    fn charge_us(&self, us: f64) {
        self.proc.charge(SimDur::from_us_f64(us));
    }

    fn now_ns(&self) -> u64 {
        self.proc.now().as_ns()
    }

    fn substrate(&self) -> &'static str {
        "sim-tcp"
    }
}

// ----------------------------------------------------------------------
// Simulated-cluster launcher
// ----------------------------------------------------------------------

/// Which link layer the simulated cluster uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClusterNet {
    /// Shared 10 Mbit/s Ethernet.
    Ethernet,
    /// 155 Mbit/s ATM switch.
    Atm,
}

/// Which transport protocol runs over it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClusterTransport {
    /// Kernel TCP (reliable stream).
    Tcp,
    /// Kernel UDP plus the user-level reliability layer
    /// ([`ReliableDevice`]).
    Udp,
}

/// Socket cost parameters for a (net, transport) pair.
pub fn socket_params(net: ClusterNet, transport: ClusterTransport) -> SocketParams {
    match (net, transport) {
        (ClusterNet::Ethernet, ClusterTransport::Tcp) => SocketParams::tcp_eth(),
        (ClusterNet::Ethernet, ClusterTransport::Udp) => SocketParams::udp_eth(),
        (ClusterNet::Atm, ClusterTransport::Tcp) => SocketParams::tcp_atm(),
        (ClusterNet::Atm, ClusterTransport::Udp) => SocketParams::udp_atm(),
    }
}

fn make_fabric(sim: &Sim, net: ClusterNet, nprocs: usize) -> Fabric {
    match net {
        ClusterNet::Ethernet => Fabric::Eth(lmpi_netmodel::eth::EthFabric::new(
            sim,
            EthParams::default(),
        )),
        ClusterNet::Atm => Fabric::Atm(lmpi_netmodel::atm::AtmFabric::new(
            sim,
            nprocs,
            AtmParams::default(),
        )),
    }
}

/// Run an `nprocs`-rank MPI program on the simulated workstation cluster.
/// Deterministic; returns per-rank results in rank order.
pub fn run_cluster<T, F>(
    nprocs: usize,
    net: ClusterNet,
    transport: ClusterTransport,
    config: MpiConfig,
    f: F,
) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let sim = Sim::new();
    let fabric = make_fabric(&sim, net, nprocs);
    let params = socket_params(net, transport);
    let sock: SockFabric<Wire> = SockFabric::new(&sim, nprocs, fabric, params, 0.0, 12345);
    let socket = move |rank: Rank, p: &Proc| {
        SockDevice::new(SimTcpChannel::new(sock.node(rank), p.clone()), rank, nprocs)
    };
    match transport {
        ClusterTransport::Tcp => {
            let make = (0..nprocs).map(|rank| {
                let socket = socket.clone();
                move |p: &Proc| socket(rank, p)
            });
            crate::launch::run_sim_ranks(&sim, make, config, f)
        }
        ClusterTransport::Udp => {
            // The default 2 ms RTO is shorter than one 48 KiB rendezvous
            // chunk takes to serialise on 10 Mbit/s Ethernet (about 39 ms),
            // so every chunk would be resent.
            let rel = RelConfig {
                rto: Duration::from_millis(50),
                ..RelConfig::default()
            };
            let make = (0..nprocs).map(|rank| {
                let socket = socket.clone();
                move |p: &Proc| ReliableDevice::new(socket(rank, p), rel)
            });
            crate::launch::run_sim_ranks(&sim, make, config, f)
        }
    }
}

// ----------------------------------------------------------------------
// Real TCP over loopback
// ----------------------------------------------------------------------

/// How long mesh setup keeps retrying a refused connection (or waiting for
/// a straggler peer to dial in) before giving up.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// First retry delay of the capped exponential connect backoff.
const CONNECT_BACKOFF_START: Duration = Duration::from_millis(1);

/// Backoff cap: retries never sleep longer than this.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// `TcpStream::connect` with capped exponential backoff: retry a refused
/// connection (the listener may not be accepting yet) until `timeout`
/// elapses or `abort` is raised. Any other error — descriptor exhaustion
/// above all — is final at once. Returns the last error.
pub fn connect_with_backoff(
    addr: SocketAddr,
    timeout: Duration,
    abort: &OnceLock<String>,
) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let mut delay = CONNECT_BACKOFF_START;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let retry = e.kind() == std::io::ErrorKind::ConnectionRefused
                    && Instant::now() < deadline
                    && abort.get().is_none();
                if !retry {
                    return Err(e);
                }
                std::thread::sleep(delay.min(deadline.saturating_duration_since(Instant::now())));
                delay = (delay * 2).min(CONNECT_BACKOFF_CAP);
            }
        }
    }
}

/// Retry a step on a nonblocking setup socket while it reads
/// `WouldBlock`, once a millisecond, until it is done, another rank's
/// setup fails or [`CONNECT_TIMEOUT`] passes: a peer that died before
/// dialing in, or before announcing its rank, must not hang mesh setup.
fn poll_setup<X>(
    abort: &OnceLock<String>,
    mut step: impl FnMut() -> std::io::Result<X>,
) -> std::io::Result<X> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match step() {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            done => return done,
        }
        if let Some(cause) = abort.get() {
            return Err(peer_setup_failed(cause));
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "timed out waiting for a peer",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Write `wire` to `stream` as one length-delimited frame: the 4-byte
/// length word, the codec's head and the payload go to the kernel together
/// in one `write_vectored`, so a small frame leaves as one loopback
/// segment and the payload is never copied. A short write resumes where
/// it stopped. Streams are nonblocking (the read half in the inbox shares
/// the fd's flag), so a full send buffer reads `WouldBlock`, and
/// `on_full` runs before each retry: the channel sweeps its own sockets
/// there, so two ranks writing large frames to each other cannot
/// deadlock, whoever holds their drain roles.
fn write_frame<W: IoWrite>(
    stream: &mut W,
    wire: &Wire,
    mut on_full: impl FnMut(),
) -> std::io::Result<()> {
    let (head, payload) = codec::encode_head(wire);
    let len = ((head.len() + payload.len()) as u32).to_le_bytes();
    let mut iov = [
        IoSlice::new(&len),
        IoSlice::new(&head),
        IoSlice::new(payload),
    ];
    let mut bufs = &mut iov[..];
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "wrote zero bytes to peer socket",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => on_full(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Real `std::net` TCP channel: a full mesh of nonblocking loopback
/// connections and no thread of its own. Whoever holds the rank's drain
/// role — a blocked caller, or the progress thread while nobody is
/// inside — sweeps every peer's socket itself, reassembling partial frames
/// per peer, so a peer stalled mid-frame parks bytes in its own buffer
/// without blocking anyone else's traffic. Transport failures (disconnect
/// mid-frame, corrupt framing) come out of `recv` as typed errors,
/// after the failing peer's earlier frames.
pub struct RealTcpChannel {
    writers: Vec<Option<Mutex<TcpStream>>>,
    inbox: Mutex<Inbox>,
    t0: Instant,
}

/// Per-peer write halves (`None` at the rank's own index) and read halves.
type MeshHalves = (Vec<Option<Mutex<TcpStream>>>, Vec<PeerConn>);

impl RealTcpChannel {
    /// Establish the full mesh for `nprocs` ranks. Call once per rank,
    /// concurrently, with a shared `rendezvous` created by
    /// [`RealTcpChannel::rendezvous`]. Connections are retried with capped
    /// exponential backoff up to [`CONNECT_TIMEOUT`].
    ///
    /// Setup is all or nothing: if any rank fails (typically on descriptor
    /// exhaustion — a full mesh in one process holds `2 n (n - 1)`
    /// sockets), every rank's call returns an error, promptly, and no rank
    /// is left running on a partial mesh or holding its descriptors.
    pub fn connect(rank: Rank, nprocs: usize, rendezvous: &MeshSetup) -> std::io::Result<Self> {
        let (writers, conns) = rendezvous.agree(rank, Self::dial_mesh(rank, nprocs, rendezvous))?;
        Ok(Self::from_mesh(writers, conns, rendezvous.t0))
    }

    fn from_mesh(
        writers: Vec<Option<Mutex<TcpStream>>>,
        conns: Vec<PeerConn>,
        t0: Instant,
    ) -> Self {
        RealTcpChannel {
            writers,
            inbox: Mutex::new(Inbox {
                conns,
                ready: VecDeque::new(),
                idle: 0,
            }),
            t0,
        }
    }

    /// This rank's sockets: the write half per peer and the read half for
    /// the inbox. Reaches the address exchange even when it fails.
    fn dial_mesh(rank: Rank, nprocs: usize, rendezvous: &MeshSetup) -> std::io::Result<MeshHalves> {
        let abort = &rendezvous.failed;
        let bound = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr().map(|a| (l, a)));
        let (listener, addrs) = rendezvous.exchange(rank, bound)?;

        let mut writers: Vec<Option<Mutex<TcpStream>>> = (0..nprocs).map(|_| None).collect();
        let mut conns: Vec<PeerConn> = Vec::with_capacity(nprocs - 1);

        // Deterministic handshake: connect to every lower rank, accept from
        // every higher rank. Each connector announces its rank first, while
        // its stream is still blocking; every stream then goes nonblocking
        // for the sweep (the writer half shares the fd, hence
        // `write_frame`'s `WouldBlock` retry on the send path).
        for (peer, (writer, &addr)) in writers.iter_mut().zip(&addrs).enumerate().take(rank) {
            let mut stream = connect_with_backoff(addr, CONNECT_TIMEOUT, abort)?;
            stream.set_nodelay(true)?;
            stream.write_all(&(rank as u32).to_le_bytes())?;
            stream.set_nonblocking(true)?;
            conns.push(PeerConn::new(peer, stream.try_clone()?));
            *writer = Some(Mutex::new(stream));
        }
        // An accepted stream does not inherit the listener's flag, and is
        // left nonblocking: a blocking one is exactly the bug that let one
        // peer stalled mid-frame wedge every other peer's traffic.
        listener.set_nonblocking(true)?;
        for _ in rank + 1..nprocs {
            let (mut stream, _) = poll_setup(abort, || listener.accept())?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            let (mut id, mut filled) = ([0u8; 4], 0);
            poll_setup(abort, || loop {
                match stream.read(&mut id[filled..])? {
                    0 => return Err(ErrorKind::UnexpectedEof.into()),
                    n if filled + n == id.len() => return Ok(()),
                    n => filled += n,
                }
            })?;
            let peer = u32::from_le_bytes(id) as usize;
            conns.push(PeerConn::new(peer, stream.try_clone()?));
            writers[peer] = Some(Mutex::new(stream));
        }
        Ok((writers, conns))
    }

    /// Shared connection-setup state for one job.
    pub fn rendezvous(nprocs: usize) -> MeshSetup {
        MeshSetup::new(nprocs)
    }
}

/// Sanity bound on incoming frame length words: anything larger is corrupt
/// framing, not a real message.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// One peer's read half: its nonblocking stream plus the bytes of a frame
/// still arriving. Buffers are strictly per-peer, so a slow or stalled
/// peer parks its partial frame here while every other peer's frames keep
/// flowing.
struct PeerConn {
    peer: Rank,
    stream: TcpStream,
    /// Received, not yet decoded: at most one partial frame plus its
    /// 4-byte length prefix (complete frames decode at once). Bytes are
    /// read straight into it, and it grows only as far as the largest
    /// burst this peer has sent.
    buf: Vec<u8>,
}

impl PeerConn {
    fn new(peer: Rank, stream: TcpStream) -> Self {
        PeerConn {
            peer,
            stream,
            buf: Vec::new(),
        }
    }

    /// Read everything the socket has ready and queue every complete frame
    /// on `ready`; the number of bytes read. `None` once the connection is
    /// finished: a clean EOF or reset at a frame boundary (benign, ranks
    /// exit at different times), or a failure — mid-frame disconnect,
    /// corrupt framing — queued as a transport error behind this peer's
    /// earlier frames.
    fn sweep(&mut self, ready: &mut VecDeque<MpiResult<Wire>>) -> Option<usize> {
        // On a nonblocking socket this ends in `WouldBlock` (or EOF, or
        // an error) with every byte read so far appended.
        let before = self.buf.len();
        let read = self.stream.read_to_end(&mut self.buf);
        let got = self.buf.len() - before;
        let failure = match (self.decode_frames(ready), read) {
            (Err(e), _) => Some(e),
            (Ok(()), Err(e)) if e.kind() == std::io::ErrorKind::WouldBlock => return Some(got),
            (Ok(()), Ok(_)) => (!self.buf.is_empty()).then(|| {
                format!(
                    "disconnected mid-frame with {} bytes buffered",
                    self.buf.len()
                )
            }),
            (Ok(()), Err(e)) => {
                (!self.buf.is_empty()).then(|| format!("disconnected mid-frame: {e}"))
            }
        };
        if let Some(e) = failure {
            ready.push_back(Err(MpiError::transport_peer(self.peer, e)));
        }
        None
    }

    /// Queue every complete frame in `buf`, leaving the partial tail.
    /// `Err` is corrupt framing.
    fn decode_frames(&mut self, ready: &mut VecDeque<MpiResult<Wire>>) -> Result<(), String> {
        let mut at = 0;
        let result = loop {
            let rest = &self.buf[at..];
            let Some(word) = rest.first_chunk::<4>() else {
                break Ok(());
            };
            let n = u32::from_le_bytes(*word) as usize;
            if n > MAX_FRAME_BYTES {
                break Err(format!("corrupt framing: {n}-byte length word"));
            }
            let Some(body) = rest.get(4..4 + n) else {
                break Ok(());
            };
            match codec::decode(body) {
                Ok((wire, used)) if used == n => ready.push_back(Ok(wire)),
                Ok((_, used)) => {
                    break Err(format!(
                        "corrupt framing: {n}-byte length word around a {used}-byte frame"
                    ))
                }
                Err(e) => break Err(format!("corrupt frame: {}", e.0)),
            }
            at += 4 + n;
        };
        self.buf.drain(..at);
        result
    }
}

/// A rank's receive side, behind one lock: every peer's read half, the
/// frames and failures swept off them and not yet taken, and the
/// consecutive polls that found nothing. Whoever receives sweeps — the
/// drain-role holder — and so does a writer waiting for buffer space.
struct Inbox {
    conns: Vec<PeerConn>,
    ready: VecDeque<MpiResult<Wire>>,
    /// Polls since the last one that found a frame or a byte: the wait
    /// backoff's step. It outlives each wait, so a waiter that times out
    /// and comes back (the progress thread, every tick) resumes sleeping
    /// instead of spinning, and a large frame still arriving keeps it at 0.
    idle: u32,
}

impl Inbox {
    /// Read every peer's socket dry; a finished connection leaves. The
    /// number of bytes read.
    fn sweep(&mut self) -> usize {
        let (ready, mut got) = (&mut self.ready, 0);
        self.conns
            .retain_mut(|conn| conn.sweep(ready).inspect(|n| got += n).is_some());
        got
    }

    /// The next frame or failure, sweeping when none is queued.
    fn poll(&mut self) -> Option<MpiResult<Wire>> {
        let got = if self.ready.is_empty() {
            self.sweep()
        } else {
            0
        };
        let next = self.ready.pop_front();
        self.idle = if next.is_some() || got > 0 {
            0
        } else {
            self.idle.saturating_add(1)
        };
        next
    }
}

/// The wait of a nonblocking socket transport (real TCP and UDP): poll,
/// and between empty polls spin, then yield, then sleep up to 200 µs at a
/// time, by the count of empty polls in a row `poll` returns. The transport
/// keeps that count across waits, so a waiter that comes back every tick
/// (the progress thread) resumes sleeping instead of spinning. A timed
/// wait reads the clock first at its first empty poll.
pub(crate) fn socket_wait(
    wait: Wait,
    mut poll: impl FnMut() -> MpiResult<(Option<Wire>, u32)>,
) -> MpiResult<Option<Wire>> {
    let mut deadline = None;
    loop {
        let (next, idle) = poll()?;
        let left = match wait {
            _ if next.is_some() => return Ok(next),
            Wait::Poll => return Ok(None),
            Wait::Within(d) => {
                let now = Instant::now();
                deadline
                    .get_or_insert(now + d)
                    .saturating_duration_since(now)
            }
            Wait::Forever => Duration::MAX,
        };
        if left.is_zero() {
            return Ok(None);
        } else if idle < 64 {
            std::hint::spin_loop();
        } else if idle < 256 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(left.min(Duration::from_micros(200)));
        }
    }
}

impl MsgChannel for RealTcpChannel {
    fn send(&self, dst: Rank, wire: Wire, _nbytes: usize) {
        match &self.writers[dst] {
            Some(stream) => {
                // Peer teardown while trailing credits are in flight is
                // benign, as in the shm device; a genuinely dead peer is
                // detected on the receive path (or by the watchdog). While
                // the send buffer is full, sweep: `try_lock`, because a
                // holder of the inbox is sweeping already.
                let _ = write_frame(&mut *stream.lock(), &wire, || {
                    if let Some(mut inbox) = self.inbox.try_lock() {
                        inbox.sweep();
                    }
                    std::thread::yield_now();
                });
            }
            None => self.inbox.lock().ready.push_back(Ok(wire)),
        }
    }

    /// Polls, backing off by `Inbox::idle` between empty polls; the
    /// inbox lock is never held across the backoff.
    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>> {
        socket_wait(wait, || {
            let mut inbox = self.inbox.lock();
            Ok((inbox.poll().transpose()?, inbox.idle))
        })
    }

    fn supports_background_progress(&self) -> bool {
        true
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn substrate(&self) -> &'static str {
        "real-tcp"
    }
}

/// Run an `nprocs`-rank MPI program over real TCP loopback connections,
/// one OS thread per rank. Returns per-rank results in rank order, or the
/// first mesh-setup failure as a typed [`MpiError::Transport`]. Panics in
/// rank closures still propagate.
pub fn run_real_tcp<T, F>(nprocs: usize, config: MpiConfig, f: F) -> MpiResult<Vec<T>>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let rendezvous = Arc::new(RealTcpChannel::rendezvous(nprocs));
    let make = (0..nprocs).map(|rank| {
        let rendezvous = rendezvous.clone();
        move || match RealTcpChannel::connect(rank, nprocs, &rendezvous) {
            Ok(chan) => Ok(SockDevice::new(chan, rank, nprocs)),
            Err(e) => Err(MpiError::transport(format!(
                "tcp mesh setup failed for rank {rank}: {e}"
            ))),
        }
    });
    crate::launch::run_rank_threads(make, config, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmpi_core::{Envelope, Packet};

    fn pingpong_rtt_us(net: ClusterNet, transport: ClusterTransport, nbytes: usize) -> f64 {
        run_cluster(
            2,
            net,
            transport,
            MpiConfig::device_defaults(),
            move |mpi| {
                let world = mpi.world();
                let buf = vec![7u8; nbytes];
                let mut back = vec![0u8; nbytes];
                if world.rank() == 0 {
                    world.send(&buf, 1, 0).unwrap();
                    world.recv(&mut back, 1, 0).unwrap();
                    let t0 = mpi.wtime();
                    for _ in 0..2 {
                        world.send(&buf, 1, 0).unwrap();
                        world.recv(&mut back, 1, 0).unwrap();
                    }
                    (mpi.wtime() - t0) / 2.0 * 1e6
                } else {
                    for _ in 0..3 {
                        world.recv(&mut back, 0, 0).unwrap();
                        world.send(&back, 0, 0).unwrap();
                    }
                    0.0
                }
            },
        )[0]
    }

    #[test]
    fn mpi_tcp_eth_adds_per_message_overheads() {
        let rtt = pingpong_rtt_us(ClusterNet::Ethernet, ClusterTransport::Tcp, 1);
        // Raw TCP RTT is 925us; MPI adds the 25-byte header, the extra
        // read, and matching each way: ~290us total.
        assert!(
            (1150.0..1350.0).contains(&rtt),
            "MPI/TCP/Ethernet 1-byte RTT {rtt:.0}us (expect ~1215us)"
        );
    }

    #[test]
    fn mpi_tcp_atm_slightly_higher_fixed_cost() {
        let eth = pingpong_rtt_us(ClusterNet::Ethernet, ClusterTransport::Tcp, 1);
        let atm = pingpong_rtt_us(ClusterNet::Atm, ClusterTransport::Tcp, 1);
        assert!(
            atm > eth,
            "at 1 byte ATM ({atm:.0}us) has the higher fixed cost (paper Fig. 5)"
        );
    }

    #[test]
    fn atm_wins_at_large_sizes() {
        let eth = pingpong_rtt_us(ClusterNet::Ethernet, ClusterTransport::Tcp, 64 << 10);
        let atm = pingpong_rtt_us(ClusterNet::Atm, ClusterTransport::Tcp, 64 << 10);
        assert!(
            atm * 3.0 < eth,
            "64KiB: ATM ({atm:.0}us) should be several times faster than Ethernet ({eth:.0}us)"
        );
    }

    #[test]
    fn udp_transport_delivers_and_performs_like_tcp() {
        let tcp = pingpong_rtt_us(ClusterNet::Ethernet, ClusterTransport::Tcp, 100);
        let udp = pingpong_rtt_us(ClusterNet::Ethernet, ClusterTransport::Udp, 100);
        // Paper: "the performance of the UDP implementation was very
        // similar to that of TCP".
        let ratio = udp / tcp;
        assert!(
            (0.7..1.5).contains(&ratio),
            "UDP/TCP ratio {ratio:.2} (tcp {tcp:.0}us, udp {udp:.0}us)"
        );
    }

    /// What rank 1's `recv(wait)` on a simulated socket returns, and the
    /// virtual time it returns at, when rank 0 sends one frame at `send_at`
    /// (none if `None`). The kernel paths are free, so a frame is readable
    /// the moment its last cell lands.
    fn timed_recv(send_at: Option<SimDur>, wait: Wait) -> (Option<Wire>, SimDur) {
        let sim = Sim::new();
        let fabric = Fabric::Atm(lmpi_netmodel::atm::AtmFabric::new(
            &sim,
            2,
            AtmParams::default(),
        ));
        let free = SocketParams {
            send_fixed_us: 0.0,
            copy_per_byte_us: 0.0,
            recv_fixed_us: 0.0,
            read_fixed_us: 0.0,
        };
        let sock: SockFabric<Wire> = SockFabric::new(&sim, 2, fabric, free, 0.0, 1);
        let out = Arc::new(Mutex::new((None, SimDur::ZERO)));
        if let Some(at) = send_at {
            let node = sock.node(0);
            sim.spawn("sender", move |p| {
                p.advance(at);
                node.send(p, 1, Wire::bare(0, Packet::Credit), 1);
            });
        }
        let (node, got) = (sock.node(1), out.clone());
        sim.spawn("waiter", move |p| {
            let wire = SimTcpChannel::new(node, p.clone()).recv(wait).unwrap();
            *got.lock() = (wire, p.now() - lmpi_sim::SimTime::ZERO);
        });
        sim.run();
        let out = out.lock().clone();
        out
    }

    #[test]
    fn a_timed_wait_runs_in_virtual_time() {
        let ms = |f: f64| SimDur::from_secs_f64(f * 1e-3);
        let within_1ms = Wait::Within(Duration::from_millis(1));
        let (wire, at) = timed_recv(None, within_1ms);
        assert!(wire.is_none());
        assert_eq!(at, ms(1.0), "an empty wait ends when it is over");
        let (wire, land) = timed_recv(Some(SimDur::ZERO), Wait::Forever);
        assert!(wire.is_some() && land < ms(0.5));
        let (wire, at) = timed_recv(Some(ms(0.5) - land), within_1ms);
        assert!(wire.is_some(), "the frame landed inside the wait");
        assert_eq!(at, ms(0.5), "a frame ends the wait when it lands");
    }

    #[test]
    fn real_tcp_roundtrip_works() {
        let results = run_real_tcp(3, MpiConfig::device_defaults(), |mpi| {
            let world = mpi.world();
            let me = world.rank();
            // Ring exchange + a collective for good measure.
            let right = (me + 1) % 3;
            let left = (me + 2) % 3;
            let mut got = [0u64];
            world
                .sendrecv(&[me as u64 * 10], right, 0, &mut got, left, 0)
                .unwrap();
            world
                .allreduce(&[got[0]], lmpi_core::ReduceOp::Sum)
                .unwrap()[0]
        })
        .unwrap();
        assert_eq!(results, vec![30, 30, 30]);
    }

    #[test]
    fn real_tcp_large_rendezvous_message() {
        let results = run_real_tcp(2, MpiConfig::device_defaults(), |mpi| {
            let world = mpi.world();
            if world.rank() == 0 {
                let big: Vec<u32> = (0..200_000).collect();
                world.send(&big, 1, 1).unwrap();
                0
            } else {
                let mut buf = vec![0u32; 200_000];
                world.recv(&mut buf, 0, 1).unwrap();
                assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u32));
                1
            }
        })
        .unwrap();
        assert_eq!(results, vec![0, 1]);
    }

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = l.accept().unwrap();
        (client, server)
    }

    /// Rank 0's channel reading from two hand-driven peers, ranks 1 and 2;
    /// returns the peers' writing ends. No write halves: these tests only
    /// receive.
    fn two_peer_channel() -> (RealTcpChannel, TcpStream, TcpStream) {
        let (a_send, a_read) = tcp_pair();
        let (b_send, b_read) = tcp_pair();
        a_read.set_nonblocking(true).unwrap();
        b_read.set_nonblocking(true).unwrap();
        let conns = vec![PeerConn::new(1, a_read), PeerConn::new(2, b_read)];
        let chan = RealTcpChannel::from_mesh(vec![None, None, None], conns, Instant::now());
        (chan, a_send, b_send)
    }

    /// `wire` as it crosses the wire: length word, then the encoded frame.
    fn framed(wire: &Wire) -> Vec<u8> {
        let body = codec::encode(wire);
        [&(body.len() as u32).to_le_bytes()[..], &body].concat()
    }

    /// A credit frame from `src` as it crosses the wire.
    fn credit_frame(src: Rank) -> Vec<u8> {
        framed(&Wire::bare(src, Packet::Credit))
    }

    /// The channel's next frame or failure; the test fails after 5 s of
    /// silence.
    fn next(chan: &RealTcpChannel) -> MpiResult<Wire> {
        chan.recv(Wait::Within(Duration::from_secs(5)))
            .map(|w| w.expect("nothing arrived within 5 s"))
    }

    /// The satellite bug: accepted streams flipped back to blocking meant
    /// one peer stalling mid-frame wedged the reader for everyone. The
    /// sweep must keep delivering other peers' frames while one peer sits
    /// on a half-sent frame, then deliver the stalled frame once its tail
    /// finally arrives.
    #[test]
    fn stalled_peer_does_not_wedge_other_peers() {
        let (chan, mut a, mut b) = two_peer_channel();
        // Peer A sends the length word and part of the body, then goes
        // silent mid-frame.
        let frame_a = credit_frame(1);
        a.write_all(&frame_a[..frame_a.len() / 2]).unwrap();
        // Peer B keeps sending complete frames; every one must arrive
        // while A is stalled.
        for _ in 0..8 {
            b.write_all(&credit_frame(2)).unwrap();
        }
        for k in 0..8 {
            let wire = next(&chan).unwrap_or_else(|e| panic!("frame {k}: {e}"));
            assert_eq!(wire.src, 2, "only B's frames can arrive while A stalls");
        }
        // A wakes up and sends the rest: its own buffer completes the
        // parked frame.
        a.write_all(&frame_a[frame_a.len() / 2..]).unwrap();
        assert_eq!(next(&chan).unwrap().src, 1);
        assert!(chan.recv(Wait::Poll).unwrap().is_none());
    }

    /// Peer A (rank 1) sends two good frames and then `tail`, closing its
    /// end if `hang_up`. The failure must come out of the channel as a
    /// typed transport error naming A, after A's good frames, and peer B's
    /// frames must keep arriving. Returns the error's text.
    fn failure_after_good_frames(tail: &[u8], hang_up: bool) -> String {
        let (chan, mut a, mut b) = two_peer_channel();
        let mut bytes = [credit_frame(1), credit_frame(1)].concat();
        bytes.extend_from_slice(tail);
        a.write_all(&bytes).unwrap();
        if hang_up {
            drop(a);
        }
        for _ in 0..2 {
            assert_eq!(next(&chan).unwrap().src, 1, "A's good frames come first");
        }
        let err = next(&chan).expect_err("A's failure must surface");
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "expected a transport error naming peer 1, got {err:?}"
        );
        for _ in 0..3 {
            b.write_all(&credit_frame(2)).unwrap();
            assert_eq!(next(&chan).unwrap().src, 2, "B's frames keep arriving");
        }
        err.to_string()
    }

    #[test]
    fn eof_mid_frame_is_a_typed_error() {
        let half = credit_frame(1);
        let err = failure_after_good_frames(&half[..half.len() / 2], true);
        assert!(err.contains("mid-frame"), "{err}");
    }

    #[test]
    fn oversized_length_word_is_a_typed_error() {
        let word = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let err = failure_after_good_frames(&word, false);
        assert!(err.contains("length word"), "{err}");
    }

    #[test]
    fn undecodable_body_is_a_typed_error() {
        // A well-framed body whose type byte names no message.
        let mut frame = credit_frame(1);
        frame[4] = 0xff;
        let err = failure_after_good_frames(&frame, false);
        assert!(err.contains("unknown message type"), "{err}");
    }

    #[test]
    fn frame_longer_than_its_encoding_is_a_typed_error() {
        // A credit frame with one stray byte inside its length word.
        let mut frame = credit_frame(1);
        frame.push(0);
        let n = frame.len() as u32 - 4;
        frame[..4].copy_from_slice(&n.to_le_bytes());
        let err = failure_after_good_frames(&frame, false);
        assert!(err.contains("length word"), "{err}");
    }

    /// A writer whose `write_vectored` takes at most `cap(call)` bytes,
    /// counting calls from 1, or finds the buffer full (`WouldBlock`)
    /// where `cap` says `None`.
    struct Scripted<F> {
        out: Vec<u8>,
        calls: usize,
        cap: F,
    }

    fn scripted<F: FnMut(usize) -> Option<usize>>(cap: F) -> Scripted<F> {
        Scripted {
            out: Vec::new(),
            calls: 0,
            cap,
        }
    }

    impl<F: FnMut(usize) -> Option<usize>> IoWrite for Scripted<F> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut left = (self.cap)(self.calls).ok_or(std::io::ErrorKind::WouldBlock)?;
            let before = self.out.len();
            for buf in bufs {
                let take = left.min(buf.len());
                self.out.extend_from_slice(&buf[..take]);
                left -= take;
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A header-only frame, an 8 B eager frame and a 1 MiB chunk.
    fn frames_to_write() -> [Wire; 3] {
        let env = Envelope {
            src: 1,
            tag: 7,
            context: 0,
            len: 8,
        };
        let mib: Vec<u8> = (0..1u32 << 20).map(|i| i as u8).collect();
        [
            Wire::bare(1, Packet::Credit),
            Wire::bare(
                1,
                Packet::Eager {
                    env,
                    send_id: 3,
                    needs_ack: false,
                    ready: false,
                    data: vec![0xa5; 8].into(),
                },
            ),
            Wire::bare(
                1,
                Packet::RndvChunk {
                    recv_id: 2,
                    offset: 0,
                    total: mib.len(),
                    data: mib.into(),
                },
            ),
        ]
    }

    #[test]
    fn a_frame_is_one_vectored_write() {
        for wire in frames_to_write() {
            let mut w = scripted(|_| Some(usize::MAX));
            write_frame(&mut w, &wire, || panic!("a writer with room never refuses")).unwrap();
            let kind = wire.pkt.kind_name();
            assert_eq!(w.calls, 1, "{kind}");
            assert!(w.out == framed(&wire), "{kind}: bytes differ");
        }
    }

    #[test]
    fn short_and_refused_writes_resume_byte_for_byte() {
        for wire in frames_to_write() {
            for k in [1, 7, 64, 4099] {
                // Odd calls find the buffer full, even ones take 1..=k bytes.
                let mut w = scripted(move |call| (call % 2 == 0).then_some(1 + call / 2 % k));
                let mut full = 0;
                write_frame(&mut w, &wire, || full += 1).unwrap();
                let what = format!("{} at k = {k}", wire.pkt.kind_name());
                assert!(w.out == framed(&wire), "{what}: bytes differ");
                assert_eq!(full, w.calls / 2, "{what}: one retry per WouldBlock");
            }
        }
    }

    #[test]
    fn a_short_write_may_end_at_the_head_payload_boundary() {
        for wire in frames_to_write() {
            let head = 4 + codec::PAYLOAD_OFF;
            let mut w = scripted(|call| Some(if call == 1 { head } else { usize::MAX }));
            write_frame(&mut w, &wire, || panic!("a writer with room never refuses")).unwrap();
            let kind = wire.pkt.kind_name();
            let calls = if wire.pkt.payload_len() == 0 { 1 } else { 2 };
            assert_eq!(w.calls, calls, "{kind}");
            assert!(w.out == framed(&wire), "{kind}: bytes differ");
        }
    }

    /// Two ranks `send` 8 MiB to each other at the same moment, eagerly,
    /// so both write one frame far larger than the socket buffers while
    /// neither has entered `recv`. Each writer must sweep its own sockets
    /// while it waits for room, or both wait for ever. Three rounds, every
    /// byte checked, under a wall-clock deadline so a regression fails
    /// instead of hanging.
    #[test]
    fn crossing_large_sends_do_not_deadlock() {
        const LEN: usize = 8 << 20;
        let cfg = MpiConfig::device_defaults()
            .with_eager_threshold(2 * LEN)
            .with_recv_buf(4 * LEN as u64);
        let fill = |rank: usize, round: u32| -> Vec<u8> {
            (0..LEN)
                .map(|i| (i as u32 ^ round.wrapping_mul(0x9e37) ^ (rank as u32 * 131)) as u8)
                .collect()
        };
        let job = std::thread::spawn(move || {
            run_real_tcp(2, cfg, move |mpi| {
                let world = mpi.world();
                let (me, peer) = (world.rank(), 1 - world.rank());
                let mut got = vec![0u8; LEN];
                for round in 0..3 {
                    world.barrier().unwrap();
                    world.send(&fill(me, round), peer, round).unwrap();
                    world.recv(&mut got, peer, round).unwrap();
                    assert!(got == fill(peer, round), "round {round}: bytes differ");
                }
            })
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !job.is_finished() {
            assert!(Instant::now() < deadline, "crossing 8 MiB sends deadlocked");
            std::thread::sleep(Duration::from_millis(10));
        }
        job.join().unwrap().expect("tcp mesh");
    }

    #[test]
    fn connect_backoff_gives_up_after_timeout() {
        // Nothing listens here: bind a port, learn the addr, drop the
        // listener so connections are refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t0 = Instant::now();
        let res = connect_with_backoff(addr, Duration::from_millis(30), &OnceLock::new());
        assert!(res.is_err(), "connect to a dead port must fail");
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "should have kept retrying until the deadline"
        );
    }

    #[test]
    fn connect_backoff_survives_late_listener() {
        // The listener appears only after a delay; plain connect would have
        // been refused, the backoff loop must win through.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let a = l.local_addr().unwrap();
            drop(l);
            a
        };
        let accepter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let l = TcpListener::bind(addr).expect("rebind");
            let _ = l.accept();
        });
        let res = connect_with_backoff(addr, Duration::from_secs(5), &OnceLock::new());
        assert!(res.is_ok(), "backoff should outlast the late listener");
        accepter.join().unwrap();
    }
}
