//! # lmpi-core — the MPI library of *Low Latency MPI for Meiko CS/2 and
//! ATM Clusters* (Jones, Singh & Agrawal, IPPS 1997)
//!
//! An MPI-1 point-to-point and collective implementation built around the
//! paper's central idea: a **hybrid transfer protocol**. Messages at or
//! below a platform-tuned threshold are transferred *optimistically*,
//! overlapped with envelope matching and buffered at the receiver when
//! necessary; larger messages match envelopes first and then move data
//! directly into the user buffer with no intermediate copy. On the Meiko
//! the crossover is 180 bytes (Fig. 1 of the paper).
//!
//! The protocol engine is transport-independent; platforms plug in through
//! the [`Device`] trait (see `lmpi-devices` for the Meiko CS/2 model, the
//! simulated and real sockets transports, and the shared-memory transport).
//!
//! ```
//! # use lmpi_core::{Mpi, MpiConfig};
//! # fn run_rank(device: Box<dyn lmpi_core::Device>) -> lmpi_core::MpiResult<()> {
//! let mpi = Mpi::new(device, MpiConfig::device_defaults());
//! let world = mpi.world();
//! if world.rank() == 0 {
//!     world.send(&[1.0f64, 2.0], 1, 42)?;
//! } else if world.rank() == 1 {
//!     let mut buf = [0.0f64; 2];
//!     let status = world.recv(&mut buf, 0, 42)?;
//!     assert_eq!(status.count::<f64>(), 2);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bytes;
mod coll;
mod collectives;
mod config;
mod datatype;
mod device;
mod dtype;
mod engine;
mod error;
mod flow;
mod group;
mod health;
mod matching;
mod metrics;
mod mpi;
mod packet;
mod persistent;
mod reduce_op;
mod request;
mod topology;
mod types;
mod ulfm;

/// Internal matching-engine types, exposed for the benchmark harness and
/// the differential matching test only.
#[doc(hidden)]
pub mod bench_internals {
    pub use crate::matching::{MatchEngine, PostedRecv, UnexpectedBody, UnexpectedMsg};
}

/// The observability crate (tracing, histograms, Table-1 reports),
/// re-exported so applications need not depend on `lmpi-obs` directly.
pub use lmpi_obs as obs;

pub use bytes::Bytes;
pub use coll::{
    AllgatherAlgo, AllreduceAlgo, BarrierAlgo, BcastAlgo, CollPins, CollTable, TableEntry,
};
pub use config::MpiConfig;
pub use datatype::{from_bytes, to_bytes, Loc, MpiData};
pub use device::{Cost, Device, DeviceDefaults, TransportStats, Wait};
pub use dtype::{CommittedType, DataType, FlatLayout, IovRun};
pub use engine::Counters;
pub use error::{MpiError, MpiResult};
pub use group::Group;
pub use health::{CollWindow, HealthReport, MetricsServer};
pub use lmpi_obs::{CollAlgo, CollOp, EventKind, MsgId, TraceBuffer, Tracer};
pub use metrics::{CollDispatchEntry, HistEntry, MetricsSnapshot};
pub use mpi::{test_all, wait_all, wait_any, Communicator, Mpi, Request};
pub use packet::{ContextId, Envelope, FramePool, Packet, Wire, ENVELOPE_WIRE_BYTES};
pub use persistent::{start_all, PersistentRecv, PersistentSend};
pub use reduce_op::{ReduceOp, Reducible};
pub use request::Lease;
pub use topology::{dims_create, CartComm};
pub use types::{Rank, SendMode, SourceSel, Status, Tag, TagSel, TAG_UB};
