//! Sockets device: the paper's §5 — MPI over TCP (or reliable UDP) on a
//! cluster, with envelopes piggybacked on data and credit-based flow
//! control.
//!
//! The device is written against a small [`MsgChannel`] abstraction with
//! three implementations:
//!
//! * [`SimTcpChannel`] — the simulated kernel TCP socket over a simulated
//!   Ethernet segment or ATM switch (`lmpi-netmodel`), reproducing the
//!   paper's latency anatomy (Table 1);
//! * [`SimUdpChannel`] — the simulated UDP socket under the reliability
//!   layer (acks + retransmission), the paper's UDP variant;
//! * [`RealTcpChannel`] — actual `std::net` TCP over loopback, proving the
//!   same device code is a working transport.

use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use lmpi_core::{Cost, Device, DeviceDefaults, Mpi, MpiConfig, MpiError, MpiResult, Rank, Wire};
use lmpi_netmodel::ip::{Fabric, ReliableDgram, SockFabric, SockNode};
use lmpi_netmodel::params::{AtmParams, CpuParams, EthParams, SocketParams};
use lmpi_obs::{ThreadHealth, TimeBucket, Tracer};
use lmpi_sim::lock::Mutex;
use lmpi_sim::{Proc, Sim, SimDur};

use crate::codec;

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
    /// Non-blocking receive; `Err` reports a broken transport (peer
    /// disconnect mid-frame, corrupt framing).
    fn try_recv(&self) -> MpiResult<Option<Wire>>;
    /// Blocking receive, or a transport failure.
    fn recv_blocking(&self) -> MpiResult<Wire>;
    /// Receive with a bounded wait; `Ok(None)` on timeout. Only called on
    /// channels that support a background progress thread, and those
    /// override it with a wait that parks; the default — one poll — serves
    /// the simulated channels, which are never asked.
    fn recv_timeout(&self, _timeout: Duration) -> MpiResult<Option<Wire>> {
        self.try_recv()
    }
    /// Whether a background progress thread may own this channel's receive
    /// side (real transports only; simulated channels advance a virtual
    /// clock owned by the calling rank's cooperative scheduler).
    fn supports_background_progress(&self) -> bool {
        false
    }
    /// Charge `us` microseconds of local CPU (no-op on real transports).
    fn charge_us(&self, _us: f64) {}
    /// Elapsed seconds.
    fn wtime(&self) -> f64;
    /// Substrate name for the collective decision table.
    fn substrate(&self) -> &'static str {
        "sock"
    }
    /// Duty-cycle accounting for a background reader thread owned by this
    /// channel, if it runs one (real transports only).
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
    // Chunks stay under the UDP fragmenter's 60_000-byte fragment payload
    // so each chunk is one datagram; the window covers the cluster's
    // bandwidth-delay product at Table-1 round-trip times.
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

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        self.chan.try_recv()
    }

    fn recv_blocking(&self) -> MpiResult<Wire> {
        self.chan.recv_blocking()
    }

    fn recv_timeout(&self, timeout: Duration) -> MpiResult<Option<Wire>> {
        self.chan.recv_timeout(timeout)
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

    fn wtime(&self) -> f64 {
        self.chan.wtime()
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

    fn thread_health(&self) -> Vec<(String, Arc<ThreadHealth>)> {
        match self.chan.reader_health() {
            Some(h) => vec![("tcp-mesh-reader".to_string(), h)],
            None => Vec::new(),
        }
    }
}

// ----------------------------------------------------------------------
// Simulated TCP
// ----------------------------------------------------------------------

/// Simulated kernel TCP socket channel.
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

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        Ok(self
            .node
            .try_recv(&self.proc, MPI_READS_PER_MSG)
            .map(|(w, _)| w))
    }

    fn recv_blocking(&self) -> MpiResult<Wire> {
        Ok(self.node.recv(&self.proc, MPI_READS_PER_MSG).0)
    }

    fn charge_us(&self, us: f64) {
        self.proc.advance(SimDur::from_us_f64(us));
    }

    fn wtime(&self) -> f64 {
        self.proc.now().as_secs_f64()
    }

    fn substrate(&self) -> &'static str {
        "sim-tcp"
    }
}

// ----------------------------------------------------------------------
// Simulated reliable UDP
// ----------------------------------------------------------------------

/// Simulated UDP channel under the ack/retransmit reliability layer.
pub struct SimUdpChannel {
    rel: Arc<ReliableDgram<Wire>>,
    proc: Proc,
}

impl SimUdpChannel {
    /// Wrap a reliable-datagram endpoint driven by `proc`.
    pub fn new(rel: Arc<ReliableDgram<Wire>>, proc: Proc) -> Self {
        SimUdpChannel { rel, proc }
    }
}

impl MsgChannel for SimUdpChannel {
    fn send(&self, dst: Rank, wire: Wire, nbytes: usize) {
        self.rel.send(&self.proc, dst, wire, nbytes);
    }

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        Ok(self
            .rel
            .try_recv(&self.proc, MPI_READS_PER_MSG)
            .map(|(w, _)| w))
    }

    fn recv_blocking(&self) -> MpiResult<Wire> {
        Ok(self.rel.recv(&self.proc, MPI_READS_PER_MSG).0)
    }

    fn charge_us(&self, us: f64) {
        self.proc.advance(SimDur::from_us_f64(us));
    }

    fn wtime(&self) -> f64 {
        self.proc.now().as_secs_f64()
    }

    fn substrate(&self) -> &'static str {
        "sim-udp"
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
    /// Kernel UDP plus the user-level reliability layer.
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
    let results: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..nprocs).map(|_| None).collect()));
    let f = Arc::new(f);

    match transport {
        ClusterTransport::Tcp => {
            let sock: SockFabric<Wire> = SockFabric::new(&sim, nprocs, fabric, params, 0.0, 12345);
            for rank in 0..nprocs {
                let node = sock.node(rank);
                let f = f.clone();
                let results = results.clone();
                sim.spawn(format!("rank{rank}"), move |p| {
                    let dev = SockDevice::new(SimTcpChannel::new(node, p.clone()), rank, nprocs);
                    let out = f(Mpi::new(Box::new(dev), config));
                    results.lock()[rank] = Some(out);
                });
            }
        }
        ClusterTransport::Udp => {
            let eps: Vec<ReliableDgram<Wire>> = ReliableDgram::fabric(
                &sim,
                nprocs,
                fabric,
                params,
                0.0,
                12345,
                SimDur::from_ms(50),
            );
            for (rank, rel) in eps.into_iter().enumerate() {
                let f = f.clone();
                let results = results.clone();
                let rel = Arc::new(rel);
                sim.spawn(format!("rank{rank}"), move |p| {
                    let dev = SockDevice::new(SimUdpChannel::new(rel, p.clone()), rank, nprocs);
                    let out = f(Mpi::new(Box::new(dev), config));
                    results.lock()[rank] = Some(out);
                });
            }
        }
    }
    sim.run();
    Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("results still shared"))
        .into_inner()
        .into_iter()
        .map(|o| o.expect("rank produced no result"))
        .collect()
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

fn peer_setup_failed(cause: &str) -> std::io::Error {
    std::io::Error::other(format!("mesh setup failed at {cause}"))
}

/// Accept with a deadline: a peer that died before dialing in must not
/// hang mesh setup forever. The accepted stream is left **nonblocking**:
/// accepted sockets don't inherit the listener's flag, and flipping them
/// back to blocking is exactly the bug that let one peer stalled mid-frame
/// wedge every other peer's reader.
fn accept_with_deadline(
    listener: &TcpListener,
    timeout: Duration,
    abort: &OnceLock<String>,
) -> std::io::Result<(TcpStream, SocketAddr)> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + timeout;
    loop {
        match listener.accept() {
            Ok((stream, addr)) => {
                stream.set_nonblocking(true)?;
                return Ok((stream, addr));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Some(cause) = abort.get() {
                    return Err(peer_setup_failed(cause));
                }
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for a peer to connect",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

/// `read_exact` against a nonblocking stream, polling until `timeout`:
/// used for the tiny handshake id, before the stream joins the mesh
/// reader.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    timeout: Duration,
) -> std::io::Result<()> {
    let deadline = Instant::now() + timeout;
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed during handshake",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out reading handshake id",
                    ));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `write_all` against a nonblocking stream (the reader half shares the
/// fd's nonblocking flag): retry `WouldBlock` until the kernel buffer
/// drains. The remote's mesh reader always drains its socket, so a full
/// buffer is transient backpressure, not deadlock.
fn write_all_nonblocking(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "wrote zero bytes to peer socket",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Real `std::net` TCP channel: a full mesh of loopback connections with
/// **one readiness-loop reader thread per rank** sweeping every peer's
/// nonblocking socket and reassembling partial frames per peer, feeding
/// one frame queue. A peer stalled mid-frame parks bytes in its own
/// reassembly buffer without blocking anyone else's traffic. The reader
/// reports transport failures (disconnect mid-frame, corrupt framing)
/// through the queue so the rank fails with a typed error instead of
/// panicking.
pub struct RealTcpChannel {
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// Behind a lock because `Receiver` is not `Sync` and `MsgChannel`
    /// must be; uncontended under the engine's single-consumer rule.
    rx: Mutex<Receiver<MpiResult<Wire>>>,
    loopback_tx: Sender<MpiResult<Wire>>,
    t0: Instant,
    /// Reusable encode buffer: frames are serialized into this scratch and
    /// written out under the same lock, so the send path stops allocating a
    /// fresh `Vec` per frame once the high-water mark is reached.
    encode_scratch: Mutex<Vec<u8>>,
    /// Duty-cycle accounting shared with the mesh-reader thread.
    reader_health: Arc<ThreadHealth>,
}

/// Per-peer write halves (`None` at the rank's own index) and the read
/// halves handed to the mesh reader.
type MeshHalves = (Vec<Option<Mutex<TcpStream>>>, Vec<(Rank, TcpStream)>);

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
    pub fn connect(rank: Rank, nprocs: usize, rendezvous: &TcpRendezvous) -> std::io::Result<Self> {
        let mesh = Self::dial_mesh(rank, nprocs, rendezvous);
        if let Err(e) = &mesh {
            // First failure wins: it is the cause, later ones its echoes.
            let _ = rendezvous.failed.set(format!("rank {rank}: {e}"));
        }
        rendezvous.barrier.wait();
        let (writers, reader_halves) = mesh?;
        if let Some(cause) = rendezvous.failed.get() {
            return Err(peer_setup_failed(cause));
        }
        let (tx, rx) = channel();
        let reader_health = Arc::new(ThreadHealth::new());
        spawn_mesh_reader(
            rank,
            reader_halves,
            tx.clone(),
            Arc::clone(&reader_health),
            rendezvous.t0,
        );
        Ok(RealTcpChannel {
            writers,
            loopback_tx: tx,
            rx: Mutex::new(rx),
            t0: rendezvous.t0,
            encode_scratch: Mutex::new(Vec::new()),
            reader_health,
        })
    }

    /// This rank's sockets: the write half per peer and the read halves for
    /// the mesh reader. Reaches the address barrier even when it fails.
    fn dial_mesh(
        rank: Rank,
        nprocs: usize,
        rendezvous: &TcpRendezvous,
    ) -> std::io::Result<MeshHalves> {
        let abort = &rendezvous.failed;
        let bound = TcpListener::bind("127.0.0.1:0").and_then(|l| Ok((l.local_addr()?, l)));
        if let Ok((addr, _)) = &bound {
            rendezvous.addrs.lock()[rank] = Some(*addr);
        }
        rendezvous.barrier.wait();
        let (_, listener) = bound?;

        let mut writers: Vec<Option<Mutex<TcpStream>>> = (0..nprocs).map(|_| None).collect();
        let mut reader_halves: Vec<(Rank, TcpStream)> = Vec::with_capacity(nprocs - 1);

        // Deterministic handshake: connect to every lower rank, accept from
        // every higher rank. Each connector announces its rank first, while
        // its stream is still blocking; every stream then goes nonblocking
        // for the rank's single readiness-loop reader (the writer half
        // shares the fd, hence `write_all_nonblocking` on the send path).
        for (peer, writer) in writers.iter_mut().enumerate().take(rank) {
            let addr = rendezvous.addrs.lock()[peer].ok_or_else(|| {
                std::io::Error::other(format!("rank {peer} published no listener address"))
            })?;
            let mut stream = connect_with_backoff(addr, CONNECT_TIMEOUT, abort)?;
            stream.set_nodelay(true)?;
            stream.write_all(&(rank as u32).to_le_bytes())?;
            stream.set_nonblocking(true)?;
            reader_halves.push((peer, stream.try_clone()?));
            *writer = Some(Mutex::new(stream));
        }
        for _ in rank + 1..nprocs {
            let (mut stream, _) = accept_with_deadline(&listener, CONNECT_TIMEOUT, abort)?;
            stream.set_nodelay(true)?;
            let mut id = [0u8; 4];
            read_exact_deadline(&mut stream, &mut id, CONNECT_TIMEOUT)?;
            let peer = u32::from_le_bytes(id) as usize;
            reader_halves.push((peer, stream.try_clone()?));
            writers[peer] = Some(Mutex::new(stream));
        }
        Ok((writers, reader_halves))
    }

    /// Shared connection-setup state for one job.
    pub fn rendezvous(nprocs: usize) -> TcpRendezvous {
        TcpRendezvous {
            addrs: Mutex::new(vec![None; nprocs]),
            barrier: Barrier::new(nprocs),
            failed: OnceLock::new(),
            t0: Instant::now(),
        }
    }
}

/// Shared state for establishing the mesh (addresses + barrier).
pub struct TcpRendezvous {
    addrs: Mutex<Vec<Option<SocketAddr>>>,
    barrier: Barrier,
    /// Set by the first rank whose setup fails, to what went wrong; see
    /// [`RealTcpChannel::connect`].
    failed: OnceLock<String>,
    t0: Instant,
}

/// Sanity bound on incoming frame length words: anything larger is corrupt
/// framing, not a real message.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// One peer's slot in the mesh reader: its nonblocking stream plus the
/// reassembly buffer holding bytes of a frame still arriving. Buffers are
/// strictly per-peer, so a slow or stalled peer parks its partial frame
/// here while every other peer's frames keep flowing.
struct PeerConn {
    peer: Rank,
    stream: TcpStream,
    /// Received-but-unparsed bytes: zero or more complete frames' worth is
    /// never retained (they decode immediately), so this holds at most one
    /// partial frame plus its 4-byte length prefix.
    buf: Vec<u8>,
}

/// What one sweep of a peer's socket produced.
enum SweepOutcome {
    /// Bytes arrived (frames may have been delivered).
    Progress,
    /// Nothing readable right now.
    Idle,
    /// Connection finished (clean EOF) or failed (error already queued);
    /// drop the slot either way.
    Closed,
}

/// Spawn the rank's single mesh-reader thread: a readiness loop sweeping
/// every peer's nonblocking socket, decoding complete frames into `tx` and
/// leaving partial frames in per-peer reassembly buffers. Replaces the
/// thread-per-peer blocking readers: one thread serves the whole mesh, and
/// no peer's stall can wedge another's traffic.
fn spawn_mesh_reader(
    rank: Rank,
    conns: Vec<(Rank, TcpStream)>,
    tx: Sender<MpiResult<Wire>>,
    health: Arc<ThreadHealth>,
    t0: Instant,
) {
    let conns: Vec<PeerConn> = conns
        .into_iter()
        .map(|(peer, stream)| PeerConn {
            peer,
            stream,
            buf: Vec::new(),
        })
        .collect();
    std::thread::Builder::new()
        .name(format!("tcp-mesh-reader-{rank}"))
        .spawn(move || run_mesh_reader(conns, tx, health, t0))
        .expect("failed to spawn mesh reader thread");
}

fn run_mesh_reader(
    mut conns: Vec<PeerConn>,
    tx: Sender<MpiResult<Wire>>,
    health: Arc<ThreadHealth>,
    t0: Instant,
) {
    let mut scratch = vec![0u8; 64 << 10];
    let mut idle_rounds: u32 = 0;
    // Contiguous-segment accounting, same discipline as the progress
    // thread: every instant between `mark` and now lands in exactly one
    // bucket, so the buckets sum to the thread's wall time by construction.
    let mut mark = t0.elapsed().as_nanos() as u64;
    while !conns.is_empty() {
        let mut progressed = false;
        let mut frames = 0u64;
        let mut i = 0;
        while i < conns.len() {
            match sweep_peer(&mut conns[i], &mut scratch, &tx, &mut frames) {
                SweepOutcome::Progress => {
                    progressed = true;
                    i += 1;
                }
                SweepOutcome::Idle => i += 1,
                SweepOutcome::Closed => {
                    conns.swap_remove(i);
                }
            }
        }
        let now = t0.elapsed().as_nanos() as u64;
        if progressed {
            // One accounting clock read per sweep round, not per peer: the
            // whole productive round is one Drain segment.
            idle_rounds = 0;
            health.add_wakeup();
            health.add_frames(frames);
            health.record_wakeup_to_drain(now.saturating_sub(mark));
            health.credit(TimeBucket::Drain, mark, now);
            mark = now;
        } else {
            health.credit(TimeBucket::Poll, mark, now);
            mark = now;
            idle_rounds = idle_rounds.saturating_add(1);
            idle_backoff(idle_rounds);
            let after = t0.elapsed().as_nanos() as u64;
            health.credit(TimeBucket::Park, mark, after);
            mark = after;
        }
    }
}

/// Adaptive idle backoff for the readiness loop: spin briefly (frames often
/// arrive back-to-back), then yield, then sleep — bursty traffic stays at
/// spin latency while a quiet mesh costs ~no CPU.
fn idle_backoff(idle_rounds: u32) {
    if idle_rounds < 64 {
        std::hint::spin_loop();
    } else if idle_rounds < 256 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Read whatever `conn`'s socket has ready and deliver every complete
/// frame. Transport failures (mid-frame disconnect, corrupt framing) are
/// reported through `tx`; a clean EOF at a frame boundary is benign, as
/// ranks exit at different times.
fn sweep_peer(
    conn: &mut PeerConn,
    scratch: &mut [u8],
    tx: &Sender<MpiResult<Wire>>,
    frames: &mut u64,
) -> SweepOutcome {
    match conn.stream.read(scratch) {
        Ok(0) => {
            if conn.buf.is_empty() {
                SweepOutcome::Closed
            } else {
                let _ = tx.send(Err(MpiError::transport(format!(
                    "peer {} disconnected mid-frame with {} bytes buffered",
                    conn.peer,
                    conn.buf.len()
                ))));
                SweepOutcome::Closed
            }
        }
        Ok(n) => {
            conn.buf.extend_from_slice(&scratch[..n]);
            if drain_frames(conn, tx, frames) {
                SweepOutcome::Progress
            } else {
                SweepOutcome::Closed
            }
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::Interrupted =>
        {
            SweepOutcome::Idle
        }
        Err(e) => {
            // A reset at a frame boundary is the nonblocking shape of the
            // benign close; mid-frame it is a real failure.
            if !conn.buf.is_empty() {
                let _ = tx.send(Err(MpiError::transport(format!(
                    "peer {} disconnected mid-frame: {e}",
                    conn.peer
                ))));
            }
            SweepOutcome::Closed
        }
    }
}

/// Decode every complete frame in `conn.buf`, leaving any trailing partial
/// frame for the next sweep. Returns `false` when the stream is corrupt
/// (error already queued) and the connection should be dropped.
fn drain_frames(conn: &mut PeerConn, tx: &Sender<MpiResult<Wire>>, frames: &mut u64) -> bool {
    let mut consumed = 0;
    loop {
        let rest = &conn.buf[consumed..];
        if rest.len() < 4 {
            break;
        }
        let n = u32::from_le_bytes(rest[..4].try_into().expect("4-byte slice")) as usize;
        if n > MAX_FRAME_BYTES {
            let _ = tx.send(Err(MpiError::transport(format!(
                "corrupt framing from peer {}: {n}-byte length word",
                conn.peer
            ))));
            return false;
        }
        if rest.len() < 4 + n {
            break;
        }
        match codec::decode(&rest[4..4 + n]) {
            Ok((wire, _)) => {
                if tx.send(Ok(wire)).is_err() {
                    return false;
                }
                *frames += 1;
            }
            Err(e) => {
                let _ = tx.send(Err(MpiError::transport(format!(
                    "corrupt frame on real TCP channel from peer {}: {}",
                    conn.peer, e.0
                ))));
                return false;
            }
        }
        consumed += 4 + n;
    }
    if consumed > 0 {
        conn.buf.drain(..consumed);
    }
    true
}

impl MsgChannel for RealTcpChannel {
    fn send(&self, dst: Rank, wire: Wire, _nbytes: usize) {
        match &self.writers[dst] {
            Some(stream) => {
                let mut buf = self.encode_scratch.lock();
                codec::encode_into(&wire, &mut buf);
                let mut s = stream.lock();
                let len = (buf.len() as u32).to_le_bytes();
                // Peer teardown while trailing credits are in flight is
                // benign, as in the shm device; a genuinely dead peer is
                // detected on the receive path (or by the watchdog).
                let _ = write_all_nonblocking(&mut s, &len)
                    .and_then(|_| write_all_nonblocking(&mut s, &buf));
            }
            None => {
                // Self-send: short-circuit into our own frame queue.
                let _ = self.loopback_tx.send(Ok(wire));
            }
        }
    }

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        match self.rx.lock().try_recv() {
            Ok(res) => res.map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(MpiError::transport("frame queue closed: all readers gone"))
            }
        }
    }

    fn reader_health(&self) -> Option<Arc<ThreadHealth>> {
        Some(Arc::clone(&self.reader_health))
    }

    fn recv_blocking(&self) -> MpiResult<Wire> {
        self.rx
            .lock()
            .recv()
            .map_err(|_| MpiError::transport("frame queue closed: all readers gone"))?
    }

    fn recv_timeout(&self, timeout: Duration) -> MpiResult<Option<Wire>> {
        match self.rx.lock().recv_timeout(timeout) {
            Ok(res) => res.map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(MpiError::transport("frame queue closed: all readers gone"))
            }
        }
    }

    fn supports_background_progress(&self) -> bool {
        true
    }

    fn wtime(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
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
    let f = Arc::new(f);
    let handles: Vec<_> = (0..nprocs)
        .map(|rank| {
            let rendezvous = rendezvous.clone();
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("tcp-rank-{rank}"))
                .spawn(move || -> MpiResult<T> {
                    let chan = RealTcpChannel::connect(rank, nprocs, &rendezvous).map_err(|e| {
                        MpiError::transport(format!("tcp mesh setup failed for rank {rank}: {e}"))
                    })?;
                    Ok(f(Mpi::new(
                        Box::new(SockDevice::new(chan, rank, nprocs)),
                        config,
                    )))
                })
                .expect("spawn rank thread")
        })
        .collect();
    // Join every rank before reporting: a failed run must not leave rank
    // threads (and their sockets) behind.
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    joined
        .into_iter()
        .map(|res| res.unwrap_or_else(|p| std::panic::resume_unwind(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The satellite bug: accepted streams flipped back to blocking meant
    /// one peer stalling mid-frame wedged the reader for everyone. The
    /// mesh reader must keep delivering other peers' frames while one
    /// peer sits on a half-sent frame, then deliver the stalled frame once
    /// its tail finally arrives.
    #[test]
    fn stalled_peer_does_not_wedge_other_peers() {
        let (mut a_send, a_read) = tcp_pair();
        let (mut b_send, b_read) = tcp_pair();
        a_read.set_nonblocking(true).unwrap();
        b_read.set_nonblocking(true).unwrap();
        let (tx, rx) = channel();
        let health = Arc::new(ThreadHealth::new());
        spawn_mesh_reader(
            0,
            vec![(1, a_read), (2, b_read)],
            tx,
            Arc::clone(&health),
            Instant::now(),
        );

        // Peer A sends the length word and only half the frame body, then
        // goes silent mid-frame.
        let frame_a = codec::encode(&Wire::bare(1, lmpi_core::Packet::Credit));
        a_send
            .write_all(&(frame_a.len() as u32).to_le_bytes())
            .unwrap();
        a_send.write_all(&frame_a[..frame_a.len() / 2]).unwrap();

        // Peer B keeps sending complete frames; every one must arrive
        // while A is stalled.
        let frame_b = codec::encode(&Wire::bare(2, lmpi_core::Packet::Credit));
        for _ in 0..8 {
            b_send
                .write_all(&(frame_b.len() as u32).to_le_bytes())
                .unwrap();
            b_send.write_all(&frame_b).unwrap();
        }
        for k in 0..8 {
            let wire = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("frame {k} from the live peer never arrived"))
                .unwrap();
            assert_eq!(wire.src, 2, "only B's frames can arrive while A stalls");
        }

        // A wakes up and sends the rest: per-peer reassembly finishes the
        // parked frame.
        a_send.write_all(&frame_a[frame_a.len() / 2..]).unwrap();
        let wire = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("stalled frame should complete once its tail arrives")
            .unwrap();
        assert_eq!(wire.src, 1);

        // The reader's duty-cycle accounting sees every delivered frame. It
        // credits a sweep after queueing the sweep's frames, so the count
        // may trail the last `recv` by a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut snap = health.snapshot("tcp-mesh-reader");
        while snap.frames < 9 && Instant::now() < deadline {
            std::thread::yield_now();
            snap = health.snapshot("tcp-mesh-reader");
        }
        assert!(snap.frames >= 9, "reader accounted {} frames", snap.frames);
        assert!(snap.wakeups >= 1);
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
