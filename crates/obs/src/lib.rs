//! # lmpi-obs — observability for the MPI protocol stack
//!
//! The paper's central contribution is a *latency accounting*: Table 1
//! decomposes the TCP round trip into API, protocol-engine, and wire
//! components, and Fig. 2 shows where the Meiko 104 µs vs 210 µs gap comes
//! from. This crate supplies the machinery to reproduce that accounting on
//! the reimplementation:
//!
//! * [`Tracer`] — a cloneable handle onto a per-rank overwriting ring
//!   buffer of typed protocol [`Event`]s. A disabled tracer (the default)
//!   reduces every emission to a single branch on an `Option`, so
//!   instrumented hot paths stay within the overhead budget;
//! * [`LatencyHist`] — log-bucketed (HDR-style octave + sub-bucket)
//!   latency histograms with percentile summaries;
//! * exporters — [`chrome_trace_json`] renders multi-rank timelines
//!   loadable in Perfetto / `chrome://tracing`, and [`report`] reads a
//!   ping-pong's message timelines to attribute each half-trip to
//!   API / protocol / wire phases, reproducing Table 1;
//! * the **flight recorder** — every event can carry a [`MsgId`]
//!   (source rank + per-sender sequence number) threaded through the
//!   engine and wire headers, [`correlate()`] stitches the per-rank rings
//!   into per-message causal timelines with phase dwell times and
//!   invariant checks, and [`diag`] is the one rule engine (credit
//!   starvation, retransmit storms, unexpected-queue growth, matcher-bin
//!   skew, dead peers, progress starvation, collective mis-tuning) over
//!   per-rank readings, a whole run's or a live window's;
//! * [`ToJson`] / [`to_json`] — compact JSON for snapshot structs, whose
//!   [`json_struct!`] (or, for `u64` tallies, [`counter_struct!`])
//!   declaration is also their exporters' field list.
//!
//! The crate depends only on `lmpi-sim` (for the workspace's lock type and
//! seeded generator): it sits *below* `lmpi-core` in the crate graph so the engine
//! and every device can emit events without cycles. Timestamps are raw
//! `u64` nanoseconds; the tracer never owns a clock — callers pass time
//! in, which is what lets one event schema span virtual and wall-clock
//! substrates.

#![warn(missing_docs)]

mod chrome;
pub mod correlate;
pub mod diag;
mod event;
pub mod health;
mod hist;
mod json;
pub mod report;
mod tracer;

pub use chrome::chrome_trace_json;
pub use correlate::{correlate, flight_json, FlightRecord, MessageTimeline, Violation};
pub use diag::{diagnose, diagnostics_json, DiagKind, Diagnostic, RankStats};
pub use event::{CollAlgo, CollOp, Event, EventKind, FaultKind, MsgId, PacketKind};
pub use health::{AtomicHist, ThreadHealth, ThreadHealthSnapshot, TimeBucket};
pub use hist::{LatencyHist, PercentileSummary, WindowedHist};
pub use json::{
    object as json_object, parse as parse_json, to_json, validate as validate_json, Json, ToJson,
};
pub use report::{attribute_ping_pong, table1_json, PhaseBreakdown, Table1Row};
pub use tracer::{current_tid, thread_names, TraceBuffer, Tracer};
