//! Synchronization for simulated processes: [`SimQueue`], a blocking FIFO
//! of messages (a NIC inbox).
//!
//! It is a *virtual-time* primitive: waiting consumes no host CPU, it
//! parks the process, which runs the event loop until it hands the run
//! token to the next process. Waking is always mediated by the event
//! queue, so wake order is deterministic (FIFO among waiters, at the
//! virtual instant of the wake). Every call settles the calling process's
//! charges first ([`Proc::charge`]), so it acts at the time the same
//! process would have reached with `advance`.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::lock::Mutex;

use crate::sched::{Proc, Sim, WakeToken};
use crate::time::SimDur;

struct QueueInner<T> {
    items: VecDeque<T>,
    waiters: VecDeque<WakeToken>,
}

/// An unbounded blocking FIFO carrying messages between model components and
/// processes (e.g. a NIC delivering packets to a rank's device layer).
pub struct SimQueue<T> {
    sim: Sim,
    inner: Arc<Mutex<QueueInner<T>>>,
}

impl<T> Clone for SimQueue<T> {
    fn clone(&self) -> Self {
        SimQueue {
            sim: self.sim.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> SimQueue<T> {
    /// Create an empty queue bound to `sim`.
    pub fn new(sim: &Sim) -> Self {
        SimQueue {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(QueueInner {
                items: VecDeque::new(),
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Append an item, waking the longest-waiting consumer if any.
    pub fn push(&self, item: T) {
        self.sim.settle();
        let waiter = {
            let mut inner = self.inner.lock();
            inner.items.push_back(item);
            inner.waiters.pop_front()
        };
        if let Some(token) = waiter {
            self.sim.wake_now(token);
        }
    }

    /// Remove the head item without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.sim.settle();
        self.inner.lock().items.pop_front()
    }

    /// Remove the head item, parking the process until one is available.
    pub fn pop(&self, p: &Proc) -> T {
        loop {
            if let Some(item) = self.try_pop() {
                return item;
            }
            let token = p.prepare_park();
            self.inner.lock().waiters.push_back(token);
            p.park();
        }
    }

    /// Like [`SimQueue::pop`], but gives up after `timeout` of virtual
    /// time, returning `None`. Used for retransmission timers.
    pub fn pop_timeout(&self, p: &Proc, timeout: SimDur) -> Option<T> {
        if let Some(item) = self.try_pop() {
            return Some(item);
        }
        let token = p.prepare_park();
        self.inner.lock().waiters.push_back(token);
        p.schedule_timeout(token, timeout);
        p.park();
        let item = self.try_pop();
        if item.is_none() {
            // Timed out: withdraw our stale waiter entry so a later push
            // doesn't spend its wake on it and strand the next consumer.
            self.inner.lock().waiters.retain(|t| *t != token);
        }
        item
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.sim.settle();
        self.inner.lock().items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_delivers_in_fifo_order() {
        let sim = Sim::new();
        let q: SimQueue<u32> = SimQueue::new(&sim);
        let q2 = q.clone();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        sim.spawn("consumer", move |p| {
            for _ in 0..3 {
                g.lock().push(q2.pop(p));
            }
        });
        for (i, d) in [(1u32, 5u64), (2, 10), (3, 15)] {
            let q3 = q.clone();
            sim.after(SimDur::from_us(d), move |_| q3.push(i));
        }
        sim.run();
        assert_eq!(*got.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn queue_try_pop_nonblocking() {
        let sim = Sim::new();
        let q: SimQueue<u8> = SimQueue::new(&sim);
        assert!(q.try_pop().is_none());
        q.push(7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.try_pop(), Some(7));
        assert!(q.is_empty());
    }

    #[test]
    fn queue_wakes_waiters_fifo() {
        let sim = Sim::new();
        let q: SimQueue<u8> = SimQueue::new(&sim);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let q2 = q.clone();
            let o = order.clone();
            sim.spawn(format!("c{i}"), move |p| {
                let v = q2.pop(p);
                o.lock().push((i, v));
            });
        }
        let q3 = q.clone();
        sim.after(SimDur::from_us(1), move |_| {
            q3.push(10);
            q3.push(20);
        });
        sim.run();
        // First-spawned consumer parked first, gets the first item.
        assert_eq!(*order.lock(), vec![(0, 10), (1, 20)]);
    }
}
