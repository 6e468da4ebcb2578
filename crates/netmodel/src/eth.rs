//! Shared 10 Mbit/s Ethernet: a single medium all hosts contend for.
//!
//! The model is a serialized-resource ledger: every frame anyone sends
//! occupies the medium for its transmission time plus the inter-frame gap.
//! This is what makes the ring application stop scaling on Ethernet in the
//! paper's Fig. 9 — neighbours' simultaneous exchanges queue behind each
//! other — while the switched ATM fabric keeps disjoint pairs independent.

use std::sync::Arc;

use lmpi_sim::lock::Mutex;
use lmpi_sim::{Sim, SimDur, SimTime};

use crate::params::EthParams;

struct Inner {
    sim: Sim,
    params: EthParams,
    /// When the shared medium becomes free.
    busy_until: Mutex<SimTime>,
    /// Total frames carried (diagnostics).
    frames: Mutex<u64>,
}

/// A shared Ethernet segment.
#[derive(Clone)]
pub struct EthFabric {
    inner: Arc<Inner>,
}

impl EthFabric {
    /// A fresh segment. The fabric keeps no events of its own, only
    /// virtual timestamps; `sim` is kept to check that bookings are settled.
    pub fn new(sim: &Sim, params: EthParams) -> Self {
        EthFabric {
            inner: Arc::new(Inner {
                sim: sim.clone(),
                params,
                busy_until: Mutex::new(SimTime::ZERO),
                frames: Mutex::new(0),
            }),
        }
    }

    /// Parameters in effect.
    pub fn params(&self) -> EthParams {
        self.inner.params
    }

    /// Book the wire time for an `nbytes` message whose bytes become ready
    /// for transmission starting at `t0`, trickling in at `copy_rate_us`
    /// µs/B (the sender's kernel copy). Returns the arrival time of the
    /// last byte at the destination.
    ///
    /// Segment `i` is ready once its bytes are copied; it then waits for
    /// the shared medium. Callers invoke this *after* modelling the copy
    /// (so `t0 + nbytes·copy_rate ≤ now`), which keeps the ledger
    /// consistent: bookings are made in nondecreasing virtual-time order.
    /// The medium is shared between hosts: the calling process must have
    /// settled its charges.
    pub fn transmit(&self, t0: SimTime, nbytes: usize, copy_rate_us: f64) -> SimTime {
        debug_assert!(
            self.inner.sim.settled(),
            "Ethernet booked ahead of the clock"
        );
        let p = &self.inner.params;
        let mut busy = self.inner.busy_until.lock();
        let mut frames = self.inner.frames.lock();
        let mut copied = 0usize;
        let mut arrival;
        loop {
            let seg = (nbytes - copied).min(p.mtu);
            copied += seg;
            let ready = t0 + SimDur::from_us_f64(copied as f64 * copy_rate_us);
            let start = ready.max(*busy);
            let tx = SimDur::from_us_f64(seg.max(1) as f64 * p.wire_per_byte_us);
            *busy = start + tx + SimDur::from_us_f64(p.ifg_us);
            *frames += 1;
            arrival = start + tx + SimDur::from_us_f64(p.prop_us);
            if copied >= nbytes {
                return arrival;
            }
        }
    }

    /// Frames carried so far.
    pub fn frame_count(&self) -> u64 {
        *self.inner.frames.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> EthFabric {
        EthFabric::new(&Sim::new(), EthParams::default())
    }

    #[test]
    fn single_small_frame_time() {
        let f = fabric();
        let p = f.params();
        let arrive = f.transmit(SimTime::ZERO, 100, 0.0);
        // 100 bytes at 0.8us/B + propagation.
        let expect = 100.0 * p.wire_per_byte_us + p.prop_us;
        assert!((arrive.as_us_f64() - expect).abs() < 0.01);
        assert_eq!(f.frame_count(), 1);
    }

    #[test]
    fn large_message_segments_and_copy_bound() {
        let f = fabric();
        let n = 10_000;
        let copy = 1.0; // slower than the 0.8us/B wire: copy-bound
        let arrive = f.transmit(SimTime::ZERO, n, copy);
        // Last segment ready at n*copy; its wire time follows.
        let last_seg = n % f.params().mtu;
        let expect = n as f64 * copy + last_seg as f64 * 0.8 + f.params().prop_us;
        assert!(
            (arrive.as_us_f64() - expect).abs() < 1.0,
            "{} vs {}",
            arrive.as_us_f64(),
            expect
        );
        assert_eq!(f.frame_count(), (n / 1460 + 1) as u64);
    }

    #[test]
    fn contention_serializes_senders() {
        let f = fabric();
        // Two 1000-byte messages, both ready at t=0, instant copies.
        let a = f.transmit(SimTime::ZERO, 1000, 0.0);
        let b = f.transmit(SimTime::ZERO, 1000, 0.0);
        // Second waits for the first plus inter-frame gap.
        assert!(b.as_us_f64() >= a.as_us_f64() + 1000.0 * 0.8);
    }

    #[test]
    fn zero_byte_message_still_occupies_medium() {
        let f = fabric();
        let arrive = f.transmit(SimTime::ZERO, 0, 1.0);
        assert!(arrive.as_us_f64() > 0.0);
        assert_eq!(f.frame_count(), 1);
    }
}
