//! # lmpi-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the Meiko CS/2 and Ethernet/ATM cluster models in
//! `lmpi-netmodel`. Simulated processes are stackful coroutines scheduled
//! *cooperatively* on the thread that calls [`Sim::run`]: each has a stack
//! of its own, and exactly one runs at any moment, the holder of a run
//! token. There is no scheduler: the process that gives the token up runs
//! the event loop and switches straight to the next process in user space,
//! so every run is exactly reproducible and free of data races by
//! construction.
//! Blocking process code (each MPI rank) reads like ordinary sequential code;
//! cost models charge CPU time with [`Proc::charge`] (the process runs ahead
//! and settles at its next simulator call) or [`Proc::advance`], and
//! schedule timer callbacks with [`Sim::after`].
//!
//! ```
//! use lmpi_sim::{Sim, SimDur, SimQueue};
//!
//! let sim = Sim::new();
//! let q: SimQueue<&str> = SimQueue::new(&sim);
//! let q2 = q.clone();
//! sim.spawn("receiver", move |p| {
//!     assert_eq!(q2.pop(p), "hello");
//!     assert_eq!(p.now().as_us_f64(), 26.0); // one-way wire time
//! });
//! sim.spawn("sender", move |p| {
//!     p.advance(SimDur::from_us(26)); // model the transfer
//!     q.push("hello");
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

mod fiber;
pub mod lock;
mod rng;
mod sched;
mod sync;
mod time;

pub use lock::within;
pub use rng::{for_each_case, SplitMix64};
pub use sched::{Proc, ProcId, Sim};
pub use sync::SimQueue;
pub use time::{SimDur, SimTime};
