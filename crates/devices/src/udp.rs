//! Real `std::net::UdpSocket` channel — the paper's raw-UDP endpoint, a
//! third [`MsgChannel`] under the one sockets device, made reliable by
//! stacking [`crate::reliable::ReliableDevice`] on top.
//!
//! §5 of the paper argues the way past kernel TCP is raw, lossy datagrams
//! with reliability folded into the MPI library. [`RealUdpChannel`] is that
//! datagram substrate as a real transport: a full mesh of loopback UDP
//! sockets, each frame [`codec`]-encoded into exactly one datagram. The
//! channel is deliberately *lossy* — a datagram the kernel drops, or one
//! that does not decode to exactly its own length, is simply not
//! delivered — so it always runs under the reliability sublayer, exactly
//! like the simulated UDP stack:
//!
//! ```no_run
//! # use lmpi_devices::{reliable::{ReliableDevice, RelConfig}, sock::SockDevice, udp::RealUdpChannel};
//! # let rendezvous = RealUdpChannel::rendezvous(2);
//! let chan = RealUdpChannel::connect(0, 2, &rendezvous).unwrap();
//! let dev = ReliableDevice::new(SockDevice::new(chan, 0, 2), RelConfig::default());
//! ```
//!
//! The engine's rendezvous chunking is the only frame splitter: at the
//! defaults ([`SOCK_DEFAULTS`](crate::sock::SOCK_DEFAULTS)) every frame
//! fits one datagram, ready-mode sends included (one travels eager only
//! up to one chunk). A frame that does not — reachable only by raising
//! the eager threshold or the chunk size past about 64 KiB — is refused:
//! the channel queues a typed transport error naming its size on the
//! sender's own inbox, and the rank's next receive fails with it instead
//! of retransmitting a frame that can never arrive.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Instant;

use lmpi_core::{Mpi, MpiConfig, MpiError, MpiResult, Rank, Wait, Wire};
use lmpi_sim::lock::Mutex;

use crate::codec;
use crate::launch::MeshSetup;
use crate::reliable::{RelConfig, ReliableDevice};
use crate::sock::{socket_wait, MsgChannel, SockDevice};

/// Largest UDP payload over IPv4: 65 535 bytes less the 8-byte UDP and
/// 20-byte IP headers. One frame, one datagram, at most this long.
const MAX_DATAGRAM: usize = 65_507;

/// Lossy datagram channel over real UDP loopback sockets. Always stack
/// [`ReliableDevice`] on top; see the module docs.
pub struct RealUdpChannel {
    sock: UdpSocket,
    peers: Vec<SocketAddr>,
    rank: Rank,
    t0: Instant,
    /// Reusable encode buffer: steady-state sends do not allocate.
    scratch: Mutex<Vec<u8>>,
    inbox: Mutex<Inbox>,
}

/// A rank's receive side: frames (and refused sends) not yet taken, the
/// empty polls in a row for [`socket_wait`]'s backoff, and the receive
/// buffer, allocated once.
struct Inbox {
    ready: VecDeque<MpiResult<Wire>>,
    idle: u32,
    buf: Vec<u8>,
}

impl Inbox {
    /// The next frame or failure, draining the socket when none is queued.
    fn poll(&mut self, sock: &UdpSocket) -> MpiResult<Option<MpiResult<Wire>>> {
        let got = self.ready.is_empty() && self.drain(sock)?;
        let next = self.ready.pop_front();
        self.idle = if next.is_some() || got {
            0
        } else {
            self.idle.saturating_add(1)
        };
        Ok(next)
    }

    /// Queue every datagram the kernel holds that decodes to exactly its
    /// own length; whether any datagram arrived. The rest are discarded:
    /// on a lossy medium a malformed datagram is a drop.
    fn drain(&mut self, sock: &UdpSocket) -> MpiResult<bool> {
        let mut got = false;
        loop {
            match sock.recv_from(&mut self.buf) {
                Ok((n, _)) => {
                    got = true;
                    let whole = codec::decode(&self.buf[..n])
                        .ok()
                        .filter(|&(_, used)| used == n);
                    self.ready.extend(whole.map(|(wire, _)| Ok(wire)));
                }
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => return Ok(got),
                    // A peer that exited has its port closed; the kernel may
                    // surface that on the next receive. That is a drop too.
                    ErrorKind::ConnectionRefused | ErrorKind::ConnectionReset => {}
                    _ => return Err(MpiError::transport(format!("udp receive failed: {e}"))),
                },
            }
        }
    }
}

impl RealUdpChannel {
    /// Shared rendezvous state for `nprocs` ranks of one job.
    pub fn rendezvous(nprocs: usize) -> MeshSetup {
        MeshSetup::new(nprocs)
    }

    /// Bind this rank's socket, publish its address and collect the full
    /// mesh. Call once per rank, concurrently, with a shared rendezvous.
    /// Setup is all or nothing, as for [`crate::sock::RealTcpChannel::connect`].
    pub fn connect(rank: Rank, nprocs: usize, rendezvous: &MeshSetup) -> std::io::Result<Self> {
        let bound = UdpSocket::bind("127.0.0.1:0").and_then(|s| {
            s.set_nonblocking(true)?;
            s.local_addr().map(|a| (s, a))
        });
        let (sock, peers) = rendezvous.exchange(rank, bound)?;
        debug_assert_eq!(peers.len(), nprocs);
        Ok(RealUdpChannel {
            sock,
            peers,
            rank,
            t0: rendezvous.t0,
            scratch: Mutex::new(Vec::new()),
            inbox: Mutex::new(Inbox {
                ready: VecDeque::new(),
                idle: 0,
                buf: vec![0; MAX_DATAGRAM],
            }),
        })
    }
}

impl MsgChannel for RealUdpChannel {
    fn send(&self, dst: Rank, wire: Wire, _nbytes: usize) {
        if dst == self.rank {
            // Self-delivery never crosses the lossy socket (and must not:
            // the reliability layer does not sequence self-sends).
            self.inbox.lock().ready.push_back(Ok(wire));
            return;
        }
        let len = codec::PAYLOAD_OFF + wire.pkt.payload_len();
        if len > MAX_DATAGRAM {
            let refused = format!("{len}-byte frame over the {MAX_DATAGRAM}-byte datagram limit");
            let refused = MpiError::transport_peer(dst, refused);
            self.inbox.lock().ready.push_back(Err(refused));
            return;
        }
        let mut frame = self.scratch.lock();
        codec::encode_into(&wire, &mut frame);
        // Send errors (full kernel buffer, dead peer) are drops on a lossy
        // medium; the reliability layer above recovers.
        let _ = self.sock.send_to(&frame, self.peers[dst]);
    }

    /// Polls, backing off by `Inbox::idle` between empty polls; the inbox
    /// lock is never held across the backoff.
    fn recv(&self, wait: Wait) -> MpiResult<Option<Wire>> {
        socket_wait(wait, || {
            let mut inbox = self.inbox.lock();
            Ok((inbox.poll(&self.sock)?.transpose()?, inbox.idle))
        })
    }

    fn supports_background_progress(&self) -> bool {
        true
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn substrate(&self) -> &'static str {
        "real-udp"
    }
}

/// Run an `nprocs`-rank MPI program over real UDP loopback sockets with
/// the reliability layer (`RelConfig::default()`: selective repeat)
/// stacked on each rank, one OS thread per rank. Returns per-rank results
/// in rank order, or the first socket-setup failure as a typed
/// [`MpiError::Transport`].
pub fn run_real_udp<T, F>(nprocs: usize, config: MpiConfig, f: F) -> MpiResult<Vec<T>>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let rendezvous = Arc::new(RealUdpChannel::rendezvous(nprocs));
    let make = (0..nprocs).map(|rank| {
        let rendezvous = rendezvous.clone();
        move || match RealUdpChannel::connect(rank, nprocs, &rendezvous) {
            Ok(chan) => Ok(ReliableDevice::new(
                SockDevice::new(chan, rank, nprocs),
                RelConfig::default(),
            )),
            Err(e) => Err(MpiError::transport(format!(
                "udp mesh setup failed for rank {rank}: {e}"
            ))),
        }
    });
    crate::launch::run_rank_threads(make, config, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::SOCK_DEFAULTS;
    use lmpi_core::{Bytes, Envelope, Packet};
    use lmpi_sim::{within, SplitMix64};
    use std::time::Duration;

    fn eager(len: usize, fill: u8) -> Wire {
        let mut wire = Wire::bare(
            0,
            Packet::Eager {
                env: Envelope {
                    src: 0,
                    tag: 9,
                    context: 1,
                    len,
                },
                send_id: 4,
                needs_ack: false,
                ready: false,
                data: vec![fill; len].into(),
            },
        );
        (wire.seq, wire.ack, wire.ack_bits) = (u64::MAX - 1, u64::MAX - 2, u64::MAX);
        wire
    }

    #[test]
    fn frames_at_the_defaults_fit_one_datagram() {
        let mut chunk = Wire::bare(
            0,
            Packet::RndvChunk {
                recv_id: u32::MAX as u64,
                offset: 1 << 30,
                total: 1 << 31,
                data: Bytes::from(vec![7u8; SOCK_DEFAULTS.rndv_chunk]),
            },
        );
        (chunk.seq, chunk.ack, chunk.ack_bits) = (u64::MAX - 1, u64::MAX - 2, u64::MAX);
        for wire in [eager(SOCK_DEFAULTS.eager_threshold, 3), chunk] {
            let n = codec::encode(&wire).len();
            assert!(n <= MAX_DATAGRAM, "{n}-byte frame at the defaults");
        }
    }

    /// Seeded garbage straight at a channel's socket: empty datagrams,
    /// random bytes, a valid frame cut at every length and valid frames
    /// with bytes trailing. None panics or is delivered; a good frame
    /// after them arrives.
    #[test]
    fn malformed_datagrams_are_dropped() {
        let chan =
            RealUdpChannel::connect(0, 1, &RealUdpChannel::rendezvous(1)).expect("bind loopback");
        let to = chan.sock.local_addr().expect("channel address");
        let from = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
        let mut rng = SplitMix64::new(0xF00D);
        let whole = codec::encode(&eager(200, 1));
        let feed = |dgram: &[u8]| {
            from.send_to(dgram, to).expect("send datagram");
            let got = chan.recv(Wait::Poll).expect("a bad datagram is a drop");
            assert!(got.is_none(), "delivered {dgram:?} as {got:?}");
        };
        for cut in 0..whole.len() {
            feed(&whole[..cut]);
        }
        for _ in whole.len()..4_000 {
            let frame = codec::encode(&eager(rng.range(0..300), rng.next_u64() as u8));
            let dgram: Vec<u8> = match rng.next_below(3) {
                0 => (0..rng.range(0..400))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
                1 => frame[..rng.range(0..frame.len())].to_vec(),
                _ => {
                    let tail = rng.range(1..64);
                    frame
                        .into_iter()
                        .chain((0..tail).map(|_| rng.next_u64() as u8))
                        .collect()
                }
            };
            feed(&dgram);
        }
        from.send_to(&whole, to).expect("send frame");
        let got = within(Duration::from_secs(5), move || {
            chan.recv(Wait::Within(Duration::from_secs(2)))
        });
        let got = got.expect("receive").expect("the good frame arrives");
        assert_eq!(codec::encode(&got), whole);
    }

    /// Real-socket smoke test: a small and a large message each way over
    /// loopback UDP under the reliability layer.
    #[test]
    fn loopback_pingpong_over_reliable_udp() {
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

    /// A frame too large for one datagram fails its sender with a typed
    /// transport error naming the limit, at once and without a resend,
    /// and the job still ends.
    #[test]
    fn a_frame_past_one_datagram_fails_the_sender() {
        let config = MpiConfig::device_defaults()
            .with_eager_threshold(128 << 10)
            .with_progress_timeout_us(1_000_000);
        let out = within(Duration::from_secs(10), move || {
            run_real_udp(2, config, |mpi| {
                let world = mpi.world();
                let mut big = vec![1u8; 100 << 10];
                let res = if world.rank() == 0 {
                    let mut ack = [0u8];
                    world
                        .send(&big, 1, 0)
                        .and_then(|()| world.recv(&mut ack, 1, 1).map(|_| ()))
                } else {
                    world.recv(&mut big, 0, 0).map(|_| ())
                };
                (res, mpi.transport_stats().retransmits)
            })
        });
        let mut out = out.expect("udp mesh").into_iter();
        let (sender, retransmits) = out.next().expect("rank 0");
        match sender {
            Err(MpiError::Transport { peer, detail }) => {
                assert_eq!(peer, Some(1));
                assert!(detail.contains("65507"), "{detail}");
            }
            other => panic!("rank 0 ended {other:?}"),
        }
        assert_eq!(retransmits, 0, "the refused frame was resent");
        let (receiver, _) = out.next().expect("rank 1");
        assert!(receiver.is_err(), "rank 1 received a refused frame");
    }
}
