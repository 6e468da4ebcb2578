//! # lmpi-devices — transport layers for the lmpi MPI library
//!
//! Three [`lmpi_core::Device`] implementations, mirroring the paper's two
//! platforms plus a real in-process substrate:
//!
//! | module  | transport | time | role in the paper |
//! |---------|-----------|------|-------------------|
//! | `meiko` | simulated Meiko CS/2 Elan (transactions, DMA, hardware broadcast) | virtual | §4: the low-latency implementation (SPARC matching) and the MPICH/tport baseline (Elan matching) |
//! | `sock`  | one sockets device over three channels: simulated kernel TCP/UDP over shared Ethernet or an ATM switch, real `std::net` TCP, and real UDP (`udp`) | virtual / real | §5: the cluster implementation with credit flow control |
//! | `shm`   | in-process channels between rank threads | real | functional testing and wall-clock benchmarks |
//!
//! Two composable wrappers complete the fault-tolerance story of the
//! paper's "reliable UDP" variant:
//!
//! * [`faulty`] — deterministic, seeded drop/duplicate/reorder/delay fault
//!   injection over any device;
//! * [`reliable`] — an ack/retransmit sublayer (selective repeat, or
//!   go-back-N) that upgrades a lossy datagram device back to reliable
//!   FIFO delivery.

#![warn(missing_docs)]
// Transport code must fail the rank with a typed error, never panic: no
// bare `unwrap` outside tests (the CI clippy gate enforces this).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

/// The [`lmpi_core::Device`] methods a wrapper device (`self.inner`) passes
/// straight through to the transport it wraps; expands inside the wrapper's
/// `impl Device` block.
macro_rules! forward_to_inner {
    () => {
        fn rank(&self) -> Rank {
            self.inner.rank()
        }
        fn nprocs(&self) -> usize {
            self.inner.nprocs()
        }
        fn supports_background_progress(&self) -> bool {
            self.inner.supports_background_progress()
        }
        fn charge(&self, cost: Cost) {
            self.inner.charge(cost);
        }
        fn has_hw_bcast(&self) -> bool {
            self.inner.has_hw_bcast()
        }
        // Hardware broadcast is a separate medium (the Meiko's network
        // does it in switches); the wrappers model the datagram path only.
        fn hw_bcast(&self, group: &[Rank], wire: Wire) -> MpiResult<()> {
            self.inner.hw_bcast(group, wire)
        }
        fn now_ns(&self) -> u64 {
            self.inner.now_ns()
        }
        fn substrate(&self) -> &'static str {
            self.inner.substrate()
        }
        fn defaults(&self) -> DeviceDefaults {
            self.inner.defaults()
        }
    };
}

pub mod codec;
pub mod faulty;
pub mod launch;
pub mod meiko;
pub mod reliable;
pub mod shm;
pub mod sock;
pub mod udp;

/// Emit the [`lmpi_obs::EventKind::WireTx`] trace event every device sends
/// from its `Device::send` entry point — one definition so the event's
/// field conventions (peer = destination, bytes = payload only) cannot
/// drift between transports. `now` is only evaluated when tracing is on.
pub(crate) fn trace_wire_tx(
    tracer: &lmpi_obs::Tracer,
    now: impl FnOnce() -> u64,
    dst: lmpi_core::Rank,
    wire: &lmpi_core::Wire,
) {
    tracer.emit_msg_with(
        wire.msg_id(dst),
        now,
        lmpi_obs::EventKind::WireTx {
            peer: dst as u32,
            kind: wire.pkt.obs_kind(),
            bytes: wire.pkt.payload_len() as u32,
        },
    );
}
