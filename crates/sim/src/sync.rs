//! Synchronization primitives for simulated processes.
//!
//! All of these are *virtual-time* primitives: waiting consumes no host CPU,
//! it parks the process thread and hands the run token back to the scheduler.
//! Waking is always mediated by the event queue, so wake order is
//! deterministic (FIFO among waiters, at the virtual instant of the wake).
//!
//! The three primitives mirror what the network device layers need:
//!
//! * [`Latch`] — one-shot completion flag (a DMA finished, a connection is
//!   established).
//! * [`Notify`] — "something happened, re-check your condition" pulse used by
//!   MPI progress engines.
//! * [`SimQueue`] — blocking FIFO of messages (a NIC inbox).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::lock::Mutex;

use crate::sched::{Proc, Sim, WakeToken};
use crate::time::SimDur;

struct LatchInner {
    set: bool,
    waiters: VecDeque<WakeToken>,
}

/// A one-shot event flag. Once [`Latch::set`] has been called, all current
/// and future waits return immediately.
#[derive(Clone)]
pub struct Latch {
    sim: Sim,
    inner: Arc<Mutex<LatchInner>>,
}

impl Latch {
    /// Create an unset latch bound to `sim`.
    pub fn new(sim: &Sim) -> Self {
        Latch {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(LatchInner {
                set: false,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Whether the latch has been set.
    pub fn is_set(&self) -> bool {
        self.inner.lock().set
    }

    /// Set the latch, waking all waiters at the current virtual instant.
    /// May be called from a process or a scheduler callback.
    pub fn set(&self) {
        let mut inner = self.inner.lock();
        if inner.set {
            return;
        }
        inner.set = true;
        let waiters = std::mem::take(&mut inner.waiters);
        drop(inner);
        for token in waiters {
            self.sim.core().wake_now(token);
        }
    }

    /// Block the calling process until the latch is set.
    pub fn wait(&self, p: &Proc) {
        {
            let inner = self.inner.lock();
            if inner.set {
                return;
            }
        }
        let token = p.prepare_park();
        {
            let mut inner = self.inner.lock();
            if inner.set {
                // Raced with set() between the check and the park; since only
                // token holders run sim code this cannot actually happen, but
                // handle it defensively by self-waking.
                drop(inner);
                self.sim.core().wake_now(token);
            } else {
                inner.waiters.push_back(token);
            }
        }
        p.park();
    }
}

struct NotifyInner {
    waiters: VecDeque<WakeToken>,
    generation: u64,
}

/// An auto-reset notification: [`Notify::notify_all`] wakes every process
/// currently waiting, and is otherwise lost (no permit is stored).
///
/// Because exactly one simulation entity runs at a time, the classic
/// check-then-wait pattern is race-free: no notification can slip between a
/// process checking its condition and calling [`Notify::wait`].
#[derive(Clone)]
pub struct Notify {
    sim: Sim,
    inner: Arc<Mutex<NotifyInner>>,
}

impl Notify {
    /// Create a notifier bound to `sim`.
    pub fn new(sim: &Sim) -> Self {
        Notify {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(NotifyInner {
                waiters: VecDeque::new(),
                generation: 0,
            })),
        }
    }

    /// Wake every process currently waiting.
    pub fn notify_all(&self) {
        let waiters = {
            let mut inner = self.inner.lock();
            inner.generation += 1;
            std::mem::take(&mut inner.waiters)
        };
        for token in waiters {
            self.sim.core().wake_now(token);
        }
    }

    /// Block until the next `notify_all` after this call.
    pub fn wait(&self, p: &Proc) {
        let token = p.prepare_park();
        self.inner.lock().waiters.push_back(token);
        p.park();
    }

    /// Block until the next `notify_all` or until `timeout` elapses,
    /// whichever comes first. Returns `true` if notified, `false` on timeout.
    pub fn wait_timeout(&self, p: &Proc, timeout: SimDur) -> bool {
        let gen_before = {
            let inner = self.inner.lock();
            inner.generation
        };
        let token = p.prepare_park();
        self.inner.lock().waiters.push_back(token);
        p.schedule_timeout(token, timeout);
        p.park();
        // If the generation advanced past our registration, a notify fired.
        // (On timeout, our stale entry may still sit in `waiters`; it is
        // harmless — waking it later is suppressed by the epoch check.)
        let inner = self.inner.lock();
        inner.generation > gen_before
    }
}

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
        let waiter = {
            let mut inner = self.inner.lock();
            inner.items.push_back(item);
            inner.waiters.pop_front()
        };
        if let Some(token) = waiter {
            self.sim.core().wake_now(token);
        }
    }

    /// Remove the head item without blocking.
    pub fn try_pop(&self) -> Option<T> {
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
    use crate::time::SimTime;

    #[test]
    fn latch_releases_waiter_at_set_time() {
        let sim = Sim::new();
        let latch = Latch::new(&sim);
        let l2 = latch.clone();
        let done = Arc::new(Mutex::new(SimTime::ZERO));
        let d = done.clone();
        sim.spawn("waiter", move |p| {
            l2.wait(p);
            *d.lock() = p.now();
        });
        sim.after(SimDur::from_us(42), move |_| latch.set());
        sim.run();
        assert_eq!(done.lock().as_ns(), 42_000);
    }

    #[test]
    fn latch_set_before_wait_is_immediate() {
        let sim = Sim::new();
        let latch = Latch::new(&sim);
        latch.set();
        assert!(latch.is_set());
        let l = latch.clone();
        let t = Arc::new(Mutex::new(None));
        let t2 = t.clone();
        sim.spawn("w", move |p| {
            l.wait(p);
            *t2.lock() = Some(p.now());
        });
        sim.run();
        assert_eq!(t.lock().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn notify_wakes_all_current_waiters() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        let count = Arc::new(Mutex::new(0));
        for i in 0..3 {
            let n2 = n.clone();
            let c = count.clone();
            sim.spawn(format!("w{i}"), move |p| {
                n2.wait(p);
                *c.lock() += 1;
            });
        }
        let n3 = n.clone();
        sim.after(SimDur::from_us(10), move |_| n3.notify_all());
        sim.run();
        assert_eq!(*count.lock(), 3);
    }

    #[test]
    fn notify_timeout_fires_when_no_notification() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        let result = Arc::new(Mutex::new(None));
        let r = result.clone();
        sim.spawn("w", move |p| {
            let notified = n.wait_timeout(p, SimDur::from_us(100));
            *r.lock() = Some((notified, p.now().as_ns()));
        });
        sim.run();
        assert_eq!(result.lock().unwrap(), (false, 100_000));
    }

    #[test]
    fn notify_timeout_reports_notification() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        let n2 = n.clone();
        let result = Arc::new(Mutex::new(None));
        let r = result.clone();
        sim.spawn("w", move |p| {
            let notified = n2.wait_timeout(p, SimDur::from_us(100));
            *r.lock() = Some((notified, p.now().as_ns()));
        });
        sim.after(SimDur::from_us(30), move |_| n.notify_all());
        sim.run();
        assert_eq!(result.lock().unwrap(), (true, 30_000));
    }

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
