//! The discrete-event scheduler and cooperative process model.
//!
//! A [`Sim`] owns a virtual clock and an event queue. Simulated processes are
//! real OS threads, but **exactly one entity runs at a time** — either the
//! scheduler (which also executes timer callbacks) or a single process thread
//! holding the run token. This gives the programming convenience of blocking
//! code (each MPI rank is written as straight-line blocking code) with the
//! determinism of a sequential discrete-event simulation: runs are exactly
//! reproducible, and there are no data races by construction.
//!
//! Events are ordered by `(time, sequence-number)`, the sequence number being
//! assigned at scheduling time, so simultaneous events fire in the order they
//! were scheduled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::lock::{Condvar, Mutex};

use crate::time::{SimDur, SimTime};

/// Identifier of a simulated process within one [`Sim`].
pub type ProcId = usize;

/// A wake-up permit: which park epoch of which process a wake event targets.
///
/// Stale wake events (whose epoch no longer matches the process's current
/// park epoch) are dropped, so a process can never receive a spurious wake
/// from a primitive it is no longer waiting on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct WakeToken {
    pid: ProcId,
    epoch: u64,
}

enum EventKind {
    Wake(WakeToken),
    Call(Box<dyn FnOnce(&Sim) + Send>),
}

struct QueuedEvent {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ProcStatus {
    /// Has a wake event in the queue (or is currently running).
    Runnable,
    /// Parked, waiting for some primitive to wake it.
    Parked,
    /// Closure returned.
    Finished,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Token {
    Scheduler,
    Proc(ProcId),
}

struct ProcSlot {
    name: String,
    status: ProcStatus,
    /// Incremented on every park; used to invalidate stale wake events.
    epoch: u64,
    cv: Arc<Condvar>,
    join: Option<JoinHandle<()>>,
}

struct SchedState {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    procs: Vec<ProcSlot>,
    token: Token,
    live: usize,
    /// First panic payload message captured from a process.
    panicked: Option<String>,
    /// Set when tearing down after a panic: parked processes unwind instead
    /// of waiting forever for a token that will never come.
    poisoned: bool,
}

pub(crate) struct Core {
    state: Mutex<SchedState>,
    sched_cv: Condvar,
}

impl Core {
    fn schedule_wake_locked(&self, st: &mut SchedState, at: SimTime, token: WakeToken) {
        debug_assert!(at >= st.now, "cannot schedule in the past");
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(QueuedEvent {
            at,
            seq,
            kind: EventKind::Wake(token),
        }));
    }

    /// Wake `pid` at the current virtual time if it is parked at `epoch`.
    pub(crate) fn wake_now(&self, token: WakeToken) {
        let mut st = self.state.lock();
        if let Some(slot) = st.procs.get(token.pid) {
            if slot.status == ProcStatus::Parked && slot.epoch == token.epoch {
                let now = st.now;
                // Mark runnable so duplicate wakes are not queued.
                st.procs[token.pid].status = ProcStatus::Runnable;
                self.schedule_wake_locked(&mut st, now, token);
            }
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.state.lock().now
    }
}

/// Handle to a simulation. Cheap to clone; all clones refer to the same run.
#[derive(Clone)]
pub struct Sim {
    core: Arc<Core>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            core: Arc::new(Core {
                state: Mutex::new(SchedState {
                    now: SimTime::ZERO,
                    seq: 0,
                    queue: BinaryHeap::new(),
                    procs: Vec::new(),
                    token: Token::Scheduler,
                    live: 0,
                    panicked: None,
                    poisoned: false,
                }),
                sched_cv: Condvar::new(),
            }),
        }
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Run `f` on the scheduler after `delay` of virtual time.
    ///
    /// Callbacks execute with the run token held by the scheduler and may
    /// schedule further events, wake processes via sync primitives, or spawn
    /// new processes. They must not block.
    pub fn after(&self, delay: SimDur, f: impl FnOnce(&Sim) + Send + 'static) {
        let mut st = self.core.state.lock();
        let at = st.now + delay;
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(QueuedEvent {
            at,
            seq,
            kind: EventKind::Call(Box::new(f)),
        }));
    }

    /// Spawn a simulated process. Its closure starts executing at the current
    /// virtual time, once the scheduler reaches its start event.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&Proc) + Send + 'static,
        // Closures receive `&Proc`; call `Proc::clone` to store an owned
        // handle in longer-lived structures (e.g. device layers).
    {
        let name = name.into();
        let cv = Arc::new(Condvar::new());
        let pid;
        {
            let mut st = self.core.state.lock();
            pid = st.procs.len();
            st.procs.push(ProcSlot {
                name: name.clone(),
                status: ProcStatus::Runnable,
                epoch: 0,
                cv: cv.clone(),
                join: None,
            });
            st.live += 1;
            let now = st.now;
            self.core
                .schedule_wake_locked(&mut st, now, WakeToken { pid, epoch: 0 });
        }
        let sim = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                let proc = Proc {
                    sim: sim.clone(),
                    pid,
                    cv,
                };
                // Wait until the scheduler hands us the token for the first time.
                {
                    let mut st = proc.sim.core.state.lock();
                    while st.token != Token::Proc(pid) {
                        proc.cv.wait(&mut st);
                    }
                }
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(&proc)));
                let mut st = proc.sim.core.state.lock();
                st.procs[pid].status = ProcStatus::Finished;
                // Bump the epoch so any in-flight wake events for us are stale.
                st.procs[pid].epoch += 1;
                st.live -= 1;
                if let Err(payload) = result {
                    let msg = payload_to_string(payload.as_ref());
                    if st.panicked.is_none() {
                        st.panicked = Some(format!(
                            "process '{}' panicked: {msg}",
                            proc.name_locked(&st)
                        ));
                    }
                }
                st.token = Token::Scheduler;
                proc.sim.core.sched_cv.notify_one();
            })
            .expect("failed to spawn simulation thread");
        self.core.state.lock().procs[pid].join = Some(handle);
        pid
    }

    /// Drive the simulation until every process has finished and the event
    /// queue is empty.
    ///
    /// # Panics
    /// Panics if a process panicked (propagating its message), or if the
    /// event queue drains while processes are still parked (deadlock), in
    /// which case the panic message names the stuck processes.
    pub fn run(&self) {
        loop {
            let mut st = self.core.state.lock();
            if let Some(msg) = st.panicked.take() {
                // Poison the run so parked processes unwind rather than wait
                // forever, then join everything and propagate.
                st.poisoned = true;
                for p in &st.procs {
                    p.cv.notify_one();
                }
                drop(st);
                self.join_all();
                panic!("{msg}");
            }
            let Some(Reverse(ev)) = st.queue.pop() else {
                if st.live == 0 {
                    drop(st);
                    self.join_all();
                    return;
                }
                let stuck: Vec<String> = st
                    .procs
                    .iter()
                    .filter(|p| p.status == ProcStatus::Parked)
                    .map(|p| p.name.clone())
                    .collect();
                panic!(
                    "simulation deadlock at {}: {} live process(es), none runnable; parked: [{}]",
                    st.now,
                    st.live,
                    stuck.join(", ")
                );
            };
            debug_assert!(ev.at >= st.now, "event queue went backwards");
            st.now = ev.at;
            match ev.kind {
                EventKind::Wake(token) => {
                    let slot = &st.procs[token.pid];
                    // Drop stale wakes (process moved on or finished).
                    if slot.status == ProcStatus::Finished || slot.epoch != token.epoch {
                        continue;
                    }
                    st.procs[token.pid].status = ProcStatus::Runnable;
                    st.token = Token::Proc(token.pid);
                    st.procs[token.pid].cv.notify_one();
                    while st.token != Token::Scheduler {
                        self.core.sched_cv.wait(&mut st);
                    }
                }
                EventKind::Call(f) => {
                    drop(st);
                    f(self);
                }
            }
        }
    }

    fn join_all(&self) {
        let handles: Vec<JoinHandle<()>> = {
            let mut st = self.core.state.lock();
            st.procs.iter_mut().filter_map(|p| p.join.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Number of processes ever spawned.
    pub fn proc_count(&self) -> usize {
        self.core.state.lock().procs.len()
    }
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Per-process handle passed to each spawned closure.
///
/// All blocking operations (`advance`, and the waits on the primitives in
/// [`crate::sync`]) must be called only from the owning process thread.
#[derive(Clone)]
pub struct Proc {
    sim: Sim,
    pid: ProcId,
    cv: Arc<Condvar>,
}

impl Proc {
    /// The simulation this process belongs to.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn name_locked(&self, st: &SchedState) -> String {
        st.procs[self.pid].name.clone()
    }

    /// This process's name.
    pub fn name(&self) -> String {
        let st = self.sim.core.state.lock();
        self.name_locked(&st)
    }

    /// Advance the virtual clock by `d`, modelling local computation or a
    /// fixed processing overhead. Other events fire in the meantime.
    pub fn advance(&self, d: SimDur) {
        let mut st = self.sim.core.state.lock();
        debug_assert_eq!(st.token, Token::Proc(self.pid), "advance from wrong thread");
        st.procs[self.pid].epoch += 1;
        let epoch = st.procs[self.pid].epoch;
        let at = st.now + d;
        self.sim.core.schedule_wake_locked(
            &mut st,
            at,
            WakeToken {
                pid: self.pid,
                epoch,
            },
        );
        // Stay Runnable: the wake is already queued.
        self.yield_token(st);
    }

    /// Let all other events scheduled for the current instant run first.
    pub fn yield_now(&self) {
        self.advance(SimDur::ZERO);
    }

    /// Park this process and return a token with which sync primitives can
    /// wake it. Internal to the sync module.
    pub(crate) fn prepare_park(&self) -> WakeToken {
        let mut st = self.sim.core.state.lock();
        debug_assert_eq!(st.token, Token::Proc(self.pid), "park from wrong thread");
        st.procs[self.pid].epoch += 1;
        let epoch = st.procs[self.pid].epoch;
        st.procs[self.pid].status = ProcStatus::Parked;
        WakeToken {
            pid: self.pid,
            epoch,
        }
    }

    /// Complete a park started with [`prepare_park`]: hand the token to the
    /// scheduler and block until woken.
    pub(crate) fn park(&self) {
        let st = self.sim.core.state.lock();
        debug_assert_eq!(st.token, Token::Proc(self.pid));
        self.yield_token(st);
    }

    /// Schedule a wake for ourselves at `now + d` under the current park
    /// epoch (used for timed waits). Must be called between `prepare_park`
    /// and `park`.
    pub(crate) fn schedule_timeout(&self, token: WakeToken, d: SimDur) {
        let mut st = self.sim.core.state.lock();
        let at = st.now + d;
        // A timeout wake must mark the proc Runnable when it fires; wake
        // events for Parked procs do that in the scheduler loop, but we must
        // not enqueue a *second* wake if something else already woke us —
        // the epoch check in the scheduler handles that, and waking an
        // already-Runnable proc is prevented by the status check there too.
        self.sim.core.schedule_wake_locked(&mut st, at, token);
    }

    fn yield_token(&self, mut st: crate::lock::MutexGuard<'_, SchedState>) {
        st.token = Token::Scheduler;
        self.sim.core.sched_cv.notify_one();
        while st.token != Token::Proc(self.pid) && !st.poisoned {
            self.cv.wait(&mut st);
        }
        if st.poisoned {
            // Another process panicked and the run is being torn down; unwind
            // this thread too so `run()` can finish joining.
            drop(st);
            panic!("simulation aborted due to another process's panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        sim.spawn("p", move |p| {
            assert_eq!(p.now(), SimTime::ZERO);
            p.advance(SimDur::from_us(10));
            l.lock().push(p.now().as_ns());
            p.advance(SimDur::from_us(5));
            l.lock().push(p.now().as_ns());
        });
        sim.run();
        assert_eq!(*log.lock(), vec![10_000, 15_000]);
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, delay) in [(0, 30u64), (1, 10), (2, 20), (3, 10)] {
            let l = log.clone();
            sim.after(SimDur::from_us(delay), move |_| l.lock().push(i));
        }
        sim.run();
        // 10us ties: index 1 scheduled before index 3.
        assert_eq!(*log.lock(), vec![1, 3, 2, 0]);
    }

    #[test]
    fn two_procs_interleave_deterministically() {
        let run = || {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for id in 0..2 {
                let l = log.clone();
                sim.spawn(format!("p{id}"), move |p| {
                    for step in 0..3 {
                        p.advance(SimDur::from_us(10 * (id as u64 + 1)));
                        l.lock().push((id, step, p.now().as_ns()));
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulation must be deterministic");
        // p0 ticks at 10,20,30; p1 at 20,40,60. At t=20 the tie goes to p1:
        // its wake was scheduled at t=0, before p0's (scheduled at t=10).
        assert_eq!(a[0], (0, 0, 10_000));
        assert_eq!(a[1], (1, 0, 20_000));
        assert_eq!(a[2], (0, 1, 20_000));
    }

    #[test]
    fn callbacks_can_spawn_processes() {
        let sim = Sim::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        sim.after(SimDur::from_us(5), move |s| {
            let c2 = c.clone();
            s.spawn("late", move |p| {
                assert_eq!(p.now().as_ns(), 5_000);
                c2.fetch_add(1, Ordering::SeqCst);
            });
        });
        sim.run();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        sim.spawn("stuck", |p| {
            // Park forever with nothing to wake us.
            p.prepare_park();
            p.park();
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panic_propagates() {
        let sim = Sim::new();
        sim.spawn("bad", |_p| panic!("boom"));
        sim.run();
    }

    #[test]
    fn yield_now_lets_same_time_events_run() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        sim.spawn("a", move |p| {
            l1.lock().push("a-before");
            p.yield_now();
            l1.lock().push("a-after");
        });
        sim.spawn("b", move |_p| {
            l2.lock().push("b");
        });
        sim.run();
        assert_eq!(*log.lock(), vec!["a-before", "b", "a-after"]);
    }
}
