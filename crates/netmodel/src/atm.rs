//! Fore ASX-200 ATM switch model: 155 Mbit/s host links into an
//! output-queued switch, with the 53/48-byte cell tax.
//!
//! Unlike the shared Ethernet, disjoint (sender, receiver) pairs do not
//! contend: each host has its own link into the switch and each output
//! port serializes independently. That is the property behind the paper's
//! Fig. 9 observation that the ring application scales on ATM "primarily
//! because there is no network contention".

use std::sync::Arc;

use lmpi_sim::lock::Mutex;
use lmpi_sim::{Sim, SimDur, SimTime};

use crate::params::AtmParams;

struct Inner {
    sim: Sim,
    params: AtmParams,
    /// Per-host input link (host → switch) busy time.
    in_link: Vec<Mutex<SimTime>>,
    /// Per-host output port (switch → host) busy time.
    out_port: Vec<Mutex<SimTime>>,
    cells: Mutex<u64>,
}

/// An ATM switch with one port per host.
#[derive(Clone)]
pub struct AtmFabric {
    inner: Arc<Inner>,
}

impl AtmFabric {
    /// A switch with `ports` host ports.
    pub fn new(sim: &Sim, ports: usize, params: AtmParams) -> Self {
        AtmFabric {
            inner: Arc::new(Inner {
                sim: sim.clone(),
                params,
                in_link: (0..ports).map(|_| Mutex::new(SimTime::ZERO)).collect(),
                out_port: (0..ports).map(|_| Mutex::new(SimTime::ZERO)).collect(),
                cells: Mutex::new(0),
            }),
        }
    }

    /// Parameters in effect.
    pub fn params(&self) -> AtmParams {
        self.inner.params
    }

    /// Cells needed for `nbytes` of payload (AAL5 SAR).
    pub fn cells_for(&self, nbytes: usize) -> u64 {
        let per = self.inner.params.cell_payload;
        (nbytes.max(1)).div_ceil(per) as u64
    }

    /// Book the fabric time for an `nbytes` message from `src` to `dst`,
    /// bytes ready from `t0` at `copy_rate_us` µs/B. Returns last-byte
    /// arrival at `dst`'s adapter. The ports are shared between hosts: the
    /// calling process must have settled its charges.
    pub fn transmit(
        &self,
        src: usize,
        dst: usize,
        t0: SimTime,
        nbytes: usize,
        copy_rate_us: f64,
    ) -> SimTime {
        debug_assert!(
            self.inner.sim.settled(),
            "ATM ports booked ahead of the clock"
        );
        let p = &self.inner.params;
        let mut in_busy = self.inner.in_link[src].lock();
        let mut out_busy = self.inner.out_port[dst].lock();
        let mut copied = 0usize;
        let mut arrival;
        loop {
            let seg = (nbytes - copied).min(p.mtu);
            copied += seg;
            let ready = t0 + SimDur::from_us_f64(copied as f64 * copy_rate_us);
            let cells = (seg.div_ceil(p.cell_payload)).max(1) as u64;
            let tx = SimDur::from_us_f64(cells as f64 * p.cell_time_us);
            // The segment crosses the input link, then the output port; both
            // are serialized resources at the same line rate, so the output
            // port (shared by all senders to `dst`) is the bottleneck.
            let start = ready.max(*in_busy).max(*out_busy);
            *in_busy = start + tx;
            *out_busy = start + tx;
            *self.inner.cells.lock() += cells;
            arrival = start + tx + SimDur::from_us_f64(p.switch_us);
            if copied >= nbytes {
                return arrival;
            }
        }
    }

    /// Total cells switched (diagnostics).
    pub fn cell_count(&self) -> u64 {
        *self.inner.cells.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(ports: usize) -> AtmFabric {
        AtmFabric::new(&Sim::new(), ports, AtmParams::default())
    }

    #[test]
    fn one_byte_takes_one_cell() {
        let f = fabric(2);
        let arrive = f.transmit(0, 1, SimTime::ZERO, 1, 0.0);
        let p = f.params();
        assert!((arrive.as_us_f64() - (p.cell_time_us + p.switch_us)).abs() < 0.01);
        assert_eq!(f.cell_count(), 1);
    }

    #[test]
    fn cell_tax_rounds_up() {
        let f = fabric(2);
        assert_eq!(f.cells_for(1), 1);
        assert_eq!(f.cells_for(48), 1);
        assert_eq!(f.cells_for(49), 2);
        assert_eq!(f.cells_for(0), 1);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let f = fabric(4);
        let a = f.transmit(0, 1, SimTime::ZERO, 9000, 0.0);
        let b = f.transmit(2, 3, SimTime::ZERO, 9000, 0.0);
        // Same size, same start, different ports: identical arrival.
        assert_eq!(a, b, "switched fabric must not serialize disjoint pairs");
    }

    #[test]
    fn same_output_port_contends() {
        let f = fabric(4);
        let a = f.transmit(0, 1, SimTime::ZERO, 9000, 0.0);
        let b = f.transmit(2, 1, SimTime::ZERO, 9000, 0.0);
        assert!(b > a, "two senders into one port must queue");
    }

    #[test]
    fn same_input_link_serializes() {
        let f = fabric(4);
        let a = f.transmit(0, 1, SimTime::ZERO, 9000, 0.0);
        let b = f.transmit(0, 2, SimTime::ZERO, 9000, 0.0);
        assert!(b > a, "one host's link carries one cell stream at a time");
    }
}
