//! # lmpi-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the Meiko CS/2 and Ethernet/ATM cluster models in
//! `lmpi-netmodel`. Simulated processes are OS threads scheduled
//! *cooperatively*: exactly one entity (the scheduler or one process) runs at
//! any moment, handing off through a run token, so every run is exactly
//! reproducible and free of data races by construction. Blocking process code
//! (each MPI rank) reads like ordinary sequential code; cost models advance
//! the virtual clock via [`Proc::advance`] and scheduler callbacks via
//! [`Sim::after`].
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

pub mod lock;
mod rng;
mod sched;
mod stats;
mod sync;
mod time;

pub use rng::{for_each_case, SplitMix64};
pub use sched::{Proc, ProcId, Sim};
pub use stats::{Histogram, Summary};
pub use sync::{Latch, Notify, SimQueue};
pub use time::{SimDur, SimTime};
