//! # lmpi — Low Latency MPI for (simulated) Meiko CS/2 and ATM clusters
//!
//! A Rust reproduction of *Low Latency MPI for Meiko CS/2 and ATM
//! Clusters* (Jones, Singh & Agrawal, IPPS 1997): an MPI-1 point-to-point
//! and collective library built around a hybrid eager/rendezvous protocol,
//! running over
//!
//! * a **simulated Meiko CS/2** (Elan transactions, 39 MB/s DMA, hardware
//!   broadcast) — [`run_meiko`];
//! * a **simulated workstation cluster** (kernel TCP or reliable UDP over
//!   shared 10 Mbit/s Ethernet or a 155 Mbit/s ATM switch) —
//!   [`run_cluster`];
//! * **real threads** ([`run_threads`]), **real TCP loopback**
//!   ([`run_real_tcp`]) and **real UDP loopback under selective repeat**
//!   ([`run_real_udp`]) — one sockets device ([`SockDevice`]) over a TCP
//!   or a UDP channel ([`RealUdpChannel`]: one datagram per frame); both
//!   socket launchers return `MpiResult`, as mesh setup can fail — for
//!   functional use and wall-clock benchmarking.
//!
//! For fault-tolerance work, [`FaultyDevice`] injects deterministic seeded
//! drop/duplicate/reorder/delay faults over any device (and can kill a
//! rank outright with `kill_after`) and [`ReliableDevice`] layers
//! ack/retransmit plus heartbeat failure detection on top (the paper's
//! "reliable UDP"); [`run_devices`] runs a hand-built device stack. When a
//! peer dies, operations touching it fail with [`MpiError::PeerFailed`]
//! while healthy-peer traffic continues, and the ULFM-style surface
//! ([`Communicator::failed_ranks`] / [`Communicator::revoke`] /
//! [`Communicator::shrink`] / [`Communicator::agree`]) lets survivors
//! rebuild a working communicator.
//!
//! ```
//! use lmpi::{run_threads, ReduceOp};
//!
//! let sums = run_threads(4, |mpi| {
//!     let world = mpi.world();
//!     world.allreduce(&[world.rank() as u64], ReduceOp::Sum).unwrap()[0]
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every figure and table.

#![warn(missing_docs)]

pub use lmpi_core::{
    dims_create, from_bytes, start_all, test_all, to_bytes, wait_all, wait_any, AllgatherAlgo,
    AllreduceAlgo, BarrierAlgo, BcastAlgo, CartComm, CollDispatchEntry, CollPins, CollTable,
    CollWindow, CommittedType, Communicator, Cost, Counters, DataType, Device, DeviceDefaults,
    FlatLayout, Group, HealthReport, HistEntry, IovRun, Loc, MetricsServer, MetricsSnapshot, Mpi,
    MpiConfig, MpiData, MpiError, MpiResult, PersistentRecv, PersistentSend, Rank, ReduceOp,
    Reducible, Request, SendMode, SourceSel, Status, TableEntry, Tag, TagSel, TransportStats, Wait,
    TAG_UB,
};

/// Protocol observability: tracing, histograms, trace export, Table-1
/// report generation, and the message flight recorder (re-exported from
/// `lmpi-obs`).
pub use lmpi_core::obs;
pub use lmpi_core::{CollAlgo, CollOp, EventKind, MsgId, TraceBuffer, Tracer};

pub use lmpi_devices::faulty::{FaultConfig, FaultRates, FaultStats, FaultyDevice, PacketClass};
pub use lmpi_devices::launch::MeshSetup;
pub use lmpi_devices::meiko::{run_meiko, MeikoDevice, MeikoVariant};
pub use lmpi_devices::reliable::{Liveness, RelConfig, RelMode, RelStats, ReliableDevice};
pub use lmpi_devices::shm::{
    run as run_threads, run_devices, run_with_config as run_threads_with_config, ShmDevice,
};
pub use lmpi_devices::sock::{run_cluster, run_real_tcp, ClusterNet, ClusterTransport, SockDevice};
pub use lmpi_devices::udp::{run_real_udp, RealUdpChannel};

/// The paper's application kernels (re-exported from `lmpi-apps`).
pub mod apps {
    pub use lmpi_apps::{heat, linsolve, matmul, particles};
}

/// Simulation kernel and network models, for building new platform models.
pub mod sim {
    pub use lmpi_netmodel::{atm, eth, ip, meiko, params};
    pub use lmpi_sim::{Proc, Sim, SimDur, SimQueue, SimTime};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_runs_all_substrates_smoke() {
        let f = |mpi: Mpi| {
            let world = mpi.world();
            world.allreduce(&[1u32], ReduceOp::Sum).unwrap()[0]
        };
        assert_eq!(run_threads(3, f), vec![3, 3, 3]);
        assert_eq!(
            run_meiko(3, MeikoVariant::LowLatency, MpiConfig::device_defaults(), f),
            vec![3, 3, 3]
        );
        assert_eq!(
            run_cluster(
                3,
                ClusterNet::Atm,
                ClusterTransport::Tcp,
                MpiConfig::device_defaults(),
                f
            ),
            vec![3, 3, 3]
        );
    }
}
