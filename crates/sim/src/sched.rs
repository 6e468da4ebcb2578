//! The discrete-event scheduler and cooperative process model.
//!
//! A [`Sim`] owns a virtual clock and an event queue. Simulated processes are
//! stackful coroutines (the `fiber` module), each on a stack of its own,
//! all run by the thread that calls [`Sim::run`]; **exactly one runs at a
//! time**: the one holding the run token. There is no scheduler thread or
//! coroutine. A process that gives the token up (it advances the clock,
//! parks, or finishes) runs the event loop itself: it fires timer callbacks
//! inline and stops at the first live wake. A wake for itself returns at
//! once with no switch; a wake for another process hands the token straight
//! to that process's stack. [`Sim::run`] starts the loop and gets the token
//! back only when the queue is empty or a panic is recorded. This gives the
//! programming convenience of blocking code (each MPI rank is written as
//! straight-line blocking code) with the determinism of a sequential
//! discrete-event simulation: runs are exactly reproducible, and there are
//! no data races by construction.
//!
//! Events are ordered by `(time, sequence-number)`, the sequence number being
//! assigned at scheduling time, so simultaneous events fire in the order they
//! were scheduled.
//!
//! # The hand-off
//!
//! The token lives in the state mutex. A hand-off sets it under the lock,
//! drops the lock, then saves the giver's registers and resumes the new
//! holder's with one `swapcontext`: a user-space switch on one OS thread,
//! with no futex wait and no kernel scheduler between the two processes.
//! The resumed process re-locks and finds the token its own. A lockstep
//! hand-off costs about 0.4 µs of CPU on the 2-vCPU reference box, against
//! 1.4-1.9 µs for an `unpark` and a futex wait when every process was an
//! OS thread (EXPERIMENTS.md). No lock is held across a switch, so the
//! process that resumes can take any lock the one that yielded could.
//!
//! Thread-local state is the run thread's, shared by every process, and
//! `std::thread::current()` names that thread in each of them.
//!
//! # Running ahead
//!
//! [`Proc::charge`] records CPU time without giving the token up: the
//! process keeps running, and its clock ([`Proc::now`], [`Sim::now`]) reads
//! the settled time plus the charges not yet settled. Every call into the
//! simulator settles first: [`Sim::after`], [`Sim::spawn`], every
//! [`SimQueue`](crate::SimQueue) call, a park, [`Proc::advance`] and
//! [`Proc::yield_now`], the process's exit (a panicking one included, so
//! the first panic is still chosen in virtual-time order), and
//! [`Proc::settle`]. A settle queues the first charge as its own
//! `advance` would have and gives the token up; when that wake fires, the
//! event loop queues the next charge itself, with a fresh sequence number
//! under a new epoch, and hands no token over. So each charge ends at the
//! same `(time, seq)` as separate `advance`s would have given it, with one
//! hand-off for the whole chain instead of one per charge.
//!
//! `charge` promises exactly that equivalence, and no more: the process
//! runs ahead of every other process. State it shares with other processes
//! *outside* the simulator (a network model's port ledger, a shared random
//! stream) is read and written at the settled time only if the process
//! calls [`Proc::settle`] (or `advance`) before touching it; such accessors
//! `debug_assert!` [`Sim::settled`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::fiber::{self, Context, Fiber};
use crate::lock::{Mutex, MutexGuard};

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

/// Who holds the run token.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Token {
    /// The thread in [`Sim::run`], on its own stack: before the run
    /// starts, and once nothing is queued or a panic is recorded.
    Run,
    Proc(ProcId),
}

struct ProcSlot {
    name: String,
    status: ProcStatus,
    /// Incremented on every park; used to invalidate stale wake events.
    epoch: u64,
    /// The process's stack and saved context, resumed when the token is
    /// handed to it; dropped (unmapped) by the `run` it finished in.
    fiber: Option<Fiber>,
    /// Settled charges still to replay after the wake in the queue, oldest
    /// first: `dispatch` queues each one when the wake before it fires.
    chain: VecDeque<SimDur>,
}

type StateGuard<'a> = MutexGuard<'a, SchedState>;

struct SchedState {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    procs: Vec<ProcSlot>,
    token: Token,
    live: usize,
    /// First panic message captured from a process or a timer callback.
    panicked: Option<String>,
    /// Set when tearing down after a panic or a deadlock: a process
    /// resumed from then on unwinds instead of running on, no process or
    /// callback dispatches another event, and the run cannot be restarted.
    poisoned: bool,
    /// Hand-offs of the run token from one stack to another.
    switches: u64,
    /// Where the thread in [`Sim::run`] saves itself while a process runs;
    /// present while `run` is.
    run_ctx: Option<Box<Context>>,
    /// [`thread_tag`] of the thread in [`Sim::run`]: the one thread that
    /// may switch between this run's stacks.
    run_thread: usize,
    /// Charges the token holder has run ahead through ([`Proc::charge`]),
    /// oldest first. Empty whenever the event loop runs.
    ahead: Vec<SimDur>,
    /// Their sum: the holder's clock reads `now + ahead_sum`.
    ahead_sum: SimDur,
}

impl SchedState {
    /// Queue `kind` at `at`, behind everything queued before it for `at`.
    fn push(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { at, seq, kind }));
    }

    /// Queue `pid`'s wake `d` from now under a new epoch: one advance.
    fn advance(&mut self, pid: ProcId, d: SimDur) {
        let slot = &mut self.procs[pid];
        slot.epoch += 1;
        let token = WakeToken {
            pid,
            epoch: slot.epoch,
        };
        self.push(self.now + d, EventKind::Wake(token));
    }

    /// The save area of `who`: `run`'s, or the process's fiber.
    fn context(&mut self, who: Token) -> *mut Context {
        match who {
            Token::Run => self.run_ctx.as_deref_mut().expect("a switch outside run"),
            Token::Proc(pid) => self.procs[pid]
                .fiber
                .as_ref()
                .expect("a switch to a released process")
                .context(),
        }
    }
}

struct Core {
    state: Mutex<SchedState>,
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
                    token: Token::Run,
                    live: 0,
                    panicked: None,
                    poisoned: false,
                    switches: 0,
                    run_ctx: None,
                    run_thread: 0,
                    ahead: Vec::new(),
                    ahead_sum: SimDur::ZERO,
                }),
            }),
        }
    }

    /// Current virtual time: the running process's settled time plus the
    /// charges it has run ahead through.
    pub fn now(&self) -> SimTime {
        let st = self.core.state.lock();
        st.now + st.ahead_sum
    }

    /// Whether the running process has no charge left to settle: what
    /// model state shared between processes asserts before it is touched.
    pub fn settled(&self) -> bool {
        self.core.state.lock().ahead.is_empty()
    }

    /// Hand-offs of the run token from one stack to another so far (a
    /// process's, or that of the thread in [`Sim::run`]). Each is a
    /// user-space context switch: the simulator's cost per event. A
    /// deterministic program makes the same number on every run.
    pub fn switches(&self) -> u64 {
        self.core.state.lock().switches
    }

    /// Settle the running process's charges (see the module docs); a
    /// no-op when nothing is ahead, as always in a timer callback.
    pub(crate) fn settle(&self) {
        drop(self.lock_settled());
    }

    /// The state lock, taken once the token holder's charges are settled:
    /// the first is queued as an advance, the token is given up, and the
    /// lock comes back when the last charge has elapsed.
    fn lock_settled(&self) -> StateGuard<'_> {
        let mut st = self.core.state.lock();
        if st.ahead.is_empty() {
            return st;
        }
        let Token::Proc(pid) = st.token else {
            unreachable!("charges recorded outside a process")
        };
        let mut ahead = std::mem::take(&mut st.ahead);
        st.ahead_sum = SimDur::ZERO;
        let mut charges = ahead.drain(..);
        let first = charges.next().expect("ahead is not empty");
        st.procs[pid].chain.extend(charges);
        st.ahead = ahead;
        st.advance(pid, first);
        self.dispatch(st, Token::Proc(pid))
    }

    /// Wake `pid` at the current virtual time if it is parked at `epoch`.
    pub(crate) fn wake_now(&self, token: WakeToken) {
        let mut st = self.lock_settled();
        if let Some(slot) = st.procs.get_mut(token.pid) {
            if slot.status == ProcStatus::Parked && slot.epoch == token.epoch {
                // Mark runnable so duplicate wakes are not queued.
                slot.status = ProcStatus::Runnable;
                let now = st.now;
                st.push(now, EventKind::Wake(token));
            }
        }
    }

    /// Run `f` after `delay` of virtual time.
    ///
    /// Callbacks execute while no process runs, on the stack of whichever
    /// process (or `run`) is dispatching events, and may schedule further
    /// events, wake processes via sync primitives, or spawn new processes.
    /// They must not block. A callback that panics fails the run:
    /// [`Sim::run`] panics with its message.
    pub fn after(&self, delay: SimDur, f: impl FnOnce(&Sim) + Send + 'static) {
        let mut st = self.lock_settled();
        let at = st.now + delay;
        st.push(at, EventKind::Call(Box::new(f)));
    }

    /// Spawn a simulated process. Its closure starts executing at the current
    /// virtual time, once the event loop reaches its start event.
    ///
    /// # Panics
    /// If the process's stack cannot be mapped.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&Proc) + Send + 'static,
        // Closures receive `&Proc`; call `Proc::clone` to store an owned
        // handle in longer-lived structures (e.g. device layers).
    {
        let name = name.into();
        let mut st = self.lock_settled();
        let pid = st.procs.len();
        let sim = self.clone();
        let fiber = Fiber::new(&name, move || {
            let proc = Proc { sim, pid };
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                drop(proc.sim.resumed(Token::Proc(pid)));
                f(&proc)
            }));
            proc.finish(result)
        });
        st.procs.push(ProcSlot {
            name,
            status: ProcStatus::Runnable,
            epoch: 0,
            fiber: Some(fiber),
            chain: VecDeque::new(),
        });
        st.live += 1;
        let now = st.now;
        st.push(now, EventKind::Wake(WakeToken { pid, epoch: 0 }));
        pid
    }

    /// Drive the simulation until every process has finished and the event
    /// queue is empty. Every process runs on the calling thread.
    ///
    /// # Panics
    /// Panics if a process or a timer callback panicked (propagating its
    /// message, once every unfinished process has been resumed to unwind),
    /// or if the event queue drains while processes are still parked
    /// (deadlock), in which case the panic message names the stuck
    /// processes. Either way the run is over: calling `run` again panics.
    pub fn run(&self) {
        let mut st = self.core.state.lock();
        assert!(!st.poisoned, "Sim::run after the run failed");
        assert!(st.run_ctx.is_none(), "Sim::run while the run is running");
        st.run_ctx = Some(Box::new(Context::empty()));
        st.run_thread = thread_tag();
        fiber::catch_overflows();
        let mut st = self.dispatch(st, Token::Run);
        if let Some(msg) = st.panicked.take() {
            // Poison the run and resume every unfinished process once:
            // each unwinds from where it stopped (or before its closure
            // starts) and exits back here.
            st.poisoned = true;
            let unfinished: Vec<ProcId> = (0..st.procs.len())
                .filter(|&pid| st.procs[pid].status != ProcStatus::Finished)
                .collect();
            for pid in unfinished {
                st.token = Token::Proc(pid);
                st = self.switch_to_holder(st, Token::Run);
            }
            release_finished(st);
            panic!("{msg}");
        }
        debug_assert!(st.queue.is_empty(), "token returned with events queued");
        if st.live == 0 {
            release_finished(st);
            return;
        }
        // The parked processes stay suspended, stacks and all, and are
        // never resumed.
        st.poisoned = true;
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
    }

    /// The event loop, run on the stack of `me`, who gives up the run
    /// token. Pops events in `(time, seq)` order, running callbacks inline
    /// and replaying settled charge chains, until the first live wake, and
    /// gives the token to that process; to `run` once the queue is empty or
    /// a panic is recorded. Switches to the new holder unless it is `me`,
    /// and returns the lock once `me` holds the token again.
    ///
    /// # Panics
    /// Unless `me` holds the token and this is the thread in `run`: a
    /// process's call through another process's handle, or from a thread
    /// of its own, must not save itself into a context it does not own.
    fn dispatch<'a>(&'a self, mut st: StateGuard<'a>, me: Token) -> StateGuard<'a> {
        assert!(
            st.token == me && st.run_thread == thread_tag(),
            "a simulator call from outside the running process"
        );
        if self.next_holder(&mut st) == me {
            return st;
        }
        st.switches += 1;
        self.switch_to_holder(st, me)
    }

    /// The event loop proper: sets and returns the token's next holder.
    fn next_holder<'a>(&'a self, st: &mut StateGuard<'a>) -> Token {
        debug_assert!(st.ahead.is_empty(), "event loop ran with charges unsettled");
        let next = loop {
            if st.panicked.is_some() || st.poisoned {
                break Token::Run;
            }
            let Some(Reverse(ev)) = st.queue.pop() else {
                break Token::Run;
            };
            debug_assert!(ev.at >= st.now, "event queue went backwards");
            st.now = ev.at;
            match ev.kind {
                EventKind::Wake(token) => {
                    let slot = &mut st.procs[token.pid];
                    // Drop stale wakes (process moved on or finished).
                    if slot.status == ProcStatus::Finished || slot.epoch != token.epoch {
                        continue;
                    }
                    if let Some(d) = slot.chain.pop_front() {
                        // The process's next advance, made at this instant
                        // as its own call would have made it.
                        st.advance(token.pid, d);
                        continue;
                    }
                    slot.status = ProcStatus::Runnable;
                    break Token::Proc(token.pid);
                }
                EventKind::Call(f) => {
                    let result = self
                        .core
                        .state
                        .unlocked(st, || panic::catch_unwind(AssertUnwindSafe(|| f(self))));
                    if let Err(payload) = result {
                        let msg = payload_to_string(payload.as_ref());
                        st.panicked
                            .get_or_insert_with(|| format!("timer callback panicked: {msg}"));
                    }
                }
            }
        };
        st.token = next;
        next
    }

    /// Save `me` and resume the token's holder, with the lock released so
    /// that the holder can take it; returns the lock once `me` is resumed.
    fn switch_to_holder<'a>(&'a self, mut st: StateGuard<'a>, me: Token) -> StateGuard<'a> {
        let holder = st.token;
        let (from, to) = (st.context(me), st.context(holder));
        drop(st);
        // SAFETY: `from` is `me`'s save area, which outlives its suspension
        // (`run`'s is dropped only when `run` returns; a process's fiber
        // only once it finished); `to` belongs to the holder, which is
        // suspended (it gave the token up in a switch, or never ran), and
        // only the token holder resumes anyone.
        unsafe { fiber::switch(from, to) };
        self.resumed(me)
    }

    /// The lock, for `me` just resumed with the token. A process resumed
    /// in a poisoned run unwinds instead, so that `run` can finish.
    fn resumed(&self, me: Token) -> StateGuard<'_> {
        let st = self.core.state.lock();
        if st.poisoned && me != Token::Run {
            drop(st);
            panic!("simulation aborted after a panic elsewhere in the run");
        }
        debug_assert_eq!(st.token, me, "resumed without the run token");
        st
    }
}

/// A number no other live thread shares: the address of a thread-local.
fn thread_tag() -> usize {
    thread_local!(static TAG: u8 = const { 0 });
    TAG.with(|tag| tag as *const u8 as usize)
}

/// Unmap the stacks of the finished processes and drop `run`'s save area;
/// the state lock is released first, so nothing dropped runs under it.
fn release_finished(mut st: StateGuard<'_>) {
    let fibers: Vec<Fiber> = st
        .procs
        .iter_mut()
        .filter(|p| p.status == ProcStatus::Finished)
        .filter_map(|p| p.fiber.take())
        .collect();
    let run_ctx = st.run_ctx.take();
    drop(st);
    drop((fibers, run_ctx));
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
/// Its clock operations (`charge`, `settle`, `advance`) and the waits on a
/// [`SimQueue`](crate::SimQueue) must be called only from the owning
/// process.
#[derive(Clone)]
pub struct Proc {
    sim: Sim,
    pid: ProcId,
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

    /// Current virtual time, charges not yet settled included.
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
        self.charge(d);
        self.settle();
    }

    /// Charge `d` of CPU time and keep running: [`Proc::advance`] without
    /// giving the token up until the next call into the simulator settles
    /// it ("Running ahead" in the module docs).
    pub fn charge(&self, d: SimDur) {
        let mut st = self.sim.core.state.lock();
        debug_assert_eq!(
            st.token,
            Token::Proc(self.pid),
            "charge off the token holder"
        );
        st.ahead.push(d);
        st.ahead_sum += d;
    }

    /// Let every charge made so far elapse, exactly as the same sequence of
    /// [`Proc::advance`]s would. Call it before touching model state shared
    /// with other processes outside the simulator.
    pub fn settle(&self) {
        self.sim.settle();
    }

    /// Let all other events scheduled for the current instant run first.
    pub fn yield_now(&self) {
        self.advance(SimDur::ZERO);
    }

    /// Park this process and return a token with which sync primitives can
    /// wake it. Internal to the sync module.
    pub(crate) fn prepare_park(&self) -> WakeToken {
        let mut st = self.sim.lock_settled();
        debug_assert_eq!(st.token, Token::Proc(self.pid), "park off the token holder");
        st.procs[self.pid].epoch += 1;
        let epoch = st.procs[self.pid].epoch;
        st.procs[self.pid].status = ProcStatus::Parked;
        WakeToken {
            pid: self.pid,
            epoch,
        }
    }

    /// Complete a park started with [`prepare_park`]: give up the token and
    /// block until woken.
    pub(crate) fn park(&self) {
        let st = self.sim.core.state.lock();
        debug_assert_eq!(st.token, Token::Proc(self.pid));
        debug_assert!(st.ahead.is_empty(), "charged between prepare_park and park");
        drop(self.sim.dispatch(st, Token::Proc(self.pid)));
    }

    /// Schedule a wake for ourselves at `now + d` under the current park
    /// epoch (used for timed waits). Must be called between `prepare_park`
    /// and `park`.
    pub(crate) fn schedule_timeout(&self, token: WakeToken, d: SimDur) {
        let mut st = self.sim.core.state.lock();
        debug_assert!(st.ahead.is_empty(), "charged between prepare_park and park");
        let at = st.now + d;
        // A timeout wake must mark the proc Runnable when it fires; wake
        // events for Parked procs do that in the event loop, but we must
        // not enqueue a *second* wake if something else already woke us —
        // the epoch check in the event loop handles that, and waking an
        // already-Runnable proc is prevented by the status check there too.
        st.push(at, EventKind::Wake(token));
    }

    /// The exit path of a process: settle, record a panic, then run the
    /// event loop once more to pick the next holder, whose context the
    /// fiber switches to once this frame is gone. A finished process's
    /// wakes are all stale, so the token never comes back to it.
    fn finish(&self, result: std::thread::Result<()>) -> *const Context {
        // The exit, and a panic's claim to be the run's first, happen when
        // the last charge has elapsed. A settle that unwinds met a poisoned
        // run, which already carries its message.
        let settled = panic::catch_unwind(AssertUnwindSafe(|| self.settle()));
        let result = result.and(settled);
        let mut st = self.sim.core.state.lock();
        st.procs[self.pid].status = ProcStatus::Finished;
        // Bump the epoch so any in-flight wake events for us are stale.
        st.procs[self.pid].epoch += 1;
        st.live -= 1;
        if let Err(payload) = result {
            // Once poisoned, the run already carries the first message.
            if !st.poisoned && st.panicked.is_none() {
                let msg = payload_to_string(payload.as_ref());
                st.panicked = Some(format!(
                    "process '{}' panicked: {msg}",
                    self.name_locked(&st)
                ));
            }
        }
        let next = self.sim.next_holder(&mut st);
        debug_assert_ne!(next, Token::Proc(self.pid), "a finished process was woken");
        st.switches += 1;
        st.context(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    use crate::{within, SimQueue, SplitMix64};

    fn switches(sim: &Sim) -> u64 {
        sim.core.state.lock().switches
    }

    /// Sends on a channel when dropped: proof that a process unwound.
    struct DropSignal(mpsc::Sender<()>);

    impl Drop for DropSignal {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

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
    fn a_panic_after_charges_is_recorded_when_they_end() {
        // a's panic comes first in real time but at 10 µs of virtual time,
        // after b's at 5 µs: the exit path settles before it records.
        let sim = Sim::new();
        sim.spawn("a", |p| {
            p.charge(SimDur::from_us(10));
            panic!("a boom");
        });
        sim.spawn("b", |p| {
            p.advance(SimDur::from_us(5));
            panic!("b boom");
        });
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must fail");
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("process 'b' panicked: b boom"), "{msg}");
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

    #[test]
    fn panicking_callback_unwinds_every_parked_process() {
        let (tx, rx) = mpsc::channel();
        let sim = Sim::new();
        let q: SimQueue<()> = SimQueue::new(&sim);
        sim.spawn("waiter", move |p| {
            let _signal = DropSignal(tx);
            q.pop(p);
        });
        sim.after(SimDur::from_us(1), |_| panic!("cb boom"));
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must fail");
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("cb boom"), "{msg}");
        rx.recv_timeout(Duration::from_secs(2))
            .expect("waiter still parked");
    }

    #[test]
    fn poisoned_run_dispatches_nothing_more() {
        let (tx, rx) = mpsc::channel();
        let sim = Sim::new();
        let q: SimQueue<()> = SimQueue::new(&sim);
        let tx_b = tx.clone();
        sim.spawn("b", move |p| {
            let _signal = DropSignal(tx_b);
            q.pop(p);
        });
        sim.spawn("a", move |p| {
            let _signal = DropSignal(tx);
            p.advance(SimDur::from_us(1));
            panic!("a boom");
        });
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        sim.after(SimDur::from_us(2), move |_| r.store(true, Ordering::SeqCst));
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must fail");
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("process 'a' panicked: a boom"), "{msg}");
        assert!(!ran.load(Ordering::SeqCst), "a poisoned run ran a callback");
        // `run` resumed b to unwind before it panicked.
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn a_lone_process_advances_without_a_switch() {
        const STEPS: u64 = 10_000;
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new((0, 0)));
        let s = seen.clone();
        sim.spawn("lone", move |p| {
            let before = switches(p.sim());
            for _ in 0..STEPS {
                p.advance(SimDur::from_ns(1));
            }
            *s.lock() = (before, switches(p.sim()));
        });
        sim.run();
        // One switch in (`run` hands the token to the start wake), none per
        // `advance` (each pops the process's own wake), one out (the exit
        // path finds the queue empty and hands the token to `run`). A
        // dedicated scheduler thread did two per `advance`: 20 002 here.
        assert_eq!(*seen.lock(), (1, 1));
        assert_eq!(switches(&sim), 2);
    }

    #[test]
    fn lockstep_processes_switch_once_per_advance() {
        // Two processes advancing in lockstep: each `advance` queues its
        // wake behind the other's, so the token goes straight across.
        const STEPS: u64 = 1_000;
        let sim = Sim::new();
        for name in ["a", "b"] {
            sim.spawn(name, |p| {
                for _ in 0..STEPS {
                    p.advance(SimDur::from_us(1));
                }
            });
        }
        sim.run();
        // `run` -> a (1), then one switch per `advance` (2 STEPS: the last,
        // b's, hands the token to a for its exit), a's exit -> b (1), b's
        // exit -> `run` (1). A dedicated scheduler thread did two per
        // `advance` plus four: 4 004 here.
        assert_eq!(switches(&sim), 2 * STEPS + 3);
    }

    #[test]
    fn mixed_scenario_keeps_the_event_order() {
        type Log = Arc<Mutex<Vec<(u64, &'static str)>>>;
        fn note(log: &Log, sim: &Sim, what: &'static str) {
            log.lock().push((sim.now().as_ns(), what));
        }
        let sim = Sim::new();
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let q: SimQueue<&'static str> = SimQueue::new(&sim);

        let (l, qa) = (log.clone(), q.clone());
        sim.spawn("a", move |p| {
            p.advance(SimDur::from_us(10));
            note(&l, p.sim(), "a advanced");
            p.yield_now();
            note(&l, p.sim(), "a yielded");
            note(&l, p.sim(), qa.pop(p));
            assert!(qa.pop_timeout(p, SimDur::from_us(1)).is_none());
            note(&l, p.sim(), "a timed out");
            let item = qa.pop_timeout(p, SimDur::from_us(100));
            note(&l, p.sim(), item.expect("pushed before the timeout"));
            note(&l, p.sim(), qa.pop(p));
        });
        let (l, qb) = (log.clone(), q.clone());
        sim.spawn("b", move |p| {
            p.advance(SimDur::from_us(10));
            note(&l, p.sim(), "b advanced");
            qb.push("pushed by b");
            p.advance(SimDur::from_us(20));
            note(&l, p.sim(), "b finished");
        });
        let l = log.clone();
        sim.after(SimDur::from_us(10), move |s| note(&l, s, "callback at 10"));
        let qc = q.clone();
        sim.after(SimDur::from_us(12), move |_| qc.push("pushed by callback"));
        let l = log.clone();
        sim.after(SimDur::from_us(15), move |s| {
            s.spawn("c", move |p| {
                note(&l, p.sim(), "c started");
                p.advance(SimDur::from_us(30));
                q.push("pushed by c");
                note(&l, p.sim(), "c finished");
            });
        });
        sim.run();

        // Captured from the kernel with a dedicated scheduler thread; the
        // event loop must pick the same order whichever stack runs it.
        // At 10 µs the callback (queued first) runs before both wakes; a's
        // stale 100 µs timeout is dropped; c's push wakes a after c exits.
        let expected: Vec<(u64, &str)> = vec![
            (10_000, "callback at 10"),
            (10_000, "a advanced"),
            (10_000, "b advanced"),
            (10_000, "a yielded"),
            (10_000, "pushed by b"),
            (11_000, "a timed out"),
            (12_000, "pushed by callback"),
            (15_000, "c started"),
            (30_000, "b finished"),
            (45_000, "c finished"),
            (45_000, "pushed by c"),
        ];
        assert_eq!(*log.lock(), expected);
    }

    #[test]
    fn seeded_ring_repeats_its_log_and_switches() {
        type Log = Arc<Mutex<Vec<(u64, ProcId, u32)>>>;
        const PROCS: usize = 16;
        const ROUNDS: u32 = 40;
        fn note(log: &Log, p: &Proc, step: u32) {
            log.lock().push((p.now().as_ns(), p.id(), step));
        }
        let run = || {
            let sim = Sim::new();
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            let ring: Vec<SimQueue<u32>> = (0..PROCS).map(|_| SimQueue::new(&sim)).collect();
            for i in 0..PROCS {
                let (l, ring) = (log.clone(), ring.clone());
                let mut rng = SplitMix64::new(0x5EED + i as u64);
                sim.spawn(format!("p{i}"), move |p| {
                    for round in 0..ROUNDS {
                        p.advance(SimDur::from_ns(rng.next_below(5_000)));
                        note(&l, p, 3 * round);
                        ring[(i + 1) % PROCS].push(round);
                        let wait = SimDur::from_ns(1 + rng.next_below(20_000));
                        if let Some(got) = ring[i].pop_timeout(p, wait) {
                            note(&l, p, 3 * got + 1);
                        } else {
                            note(&l, p, 3 * round + 2);
                        }
                    }
                });
            }
            let (l, ring) = (log.clone(), ring.clone());
            sim.after(SimDur::from_us(7), move |s| {
                s.spawn("late", move |p| {
                    for round in 0..ROUNDS {
                        p.advance(SimDur::from_ns(700 + 13 * round as u64));
                        ring[round as usize % PROCS].push(round);
                        note(&l, p, round);
                    }
                });
            });
            sim.run();
            let v = log.lock().clone();
            (v, switches(&sim))
        };
        let first = within(Duration::from_secs(60), run);
        assert_eq!(first.0.len(), PROCS * 2 * ROUNDS as usize + ROUNDS as usize);
        for _ in 0..2 {
            assert_eq!(within(Duration::from_secs(60), run), first);
        }
    }

    #[test]
    fn a_panic_unwinds_queued_parked_and_advancing_processes() {
        const PARKED: usize = 8;
        let (tx, rx) = mpsc::channel();
        let sim = Sim::new();
        for i in 0..PARKED {
            let q: SimQueue<()> = SimQueue::new(&sim);
            let signal = DropSignal(tx.clone());
            sim.spawn(format!("parked{i}"), move |p| {
                let _signal = signal;
                q.pop(p);
            });
        }
        let signal = DropSignal(tx);
        sim.spawn("advancing", move |p| {
            let _signal = signal;
            p.advance(SimDur::from_us(1_000));
        });
        sim.spawn("bad", |p| {
            p.advance(SimDur::from_us(1));
            panic!("bad boom");
        });
        let runner = std::thread::spawn(move || {
            let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run()));
            payload_to_string(err.expect_err("run must fail").as_ref())
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        for n in 0..=PARKED {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            rx.recv_timeout(left)
                .unwrap_or_else(|_| panic!("only {n} of {} processes unwound", PARKED + 1));
        }
        let msg = runner.join().expect("run panics once, caught");
        assert!(msg.contains("process 'bad' panicked: bad boom"), "{msg}");
    }

    #[test]
    fn run_may_be_called_from_another_thread() {
        const STEPS: u64 = 100;
        let sim = Sim::new();
        let ticks = Arc::new(AtomicUsize::new(0));
        for name in ["a", "b"] {
            let t = ticks.clone();
            sim.spawn(name, move |p| {
                for _ in 0..STEPS {
                    p.advance(SimDur::from_us(1));
                    t.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let s = sim.clone();
        within(Duration::from_secs(60), move || s.run());
        assert_eq!(ticks.load(Ordering::SeqCst), 2 * STEPS as usize);
        assert_eq!(sim.now().as_ns(), STEPS * 1_000);
        assert_eq!(switches(&sim), 2 * STEPS + 3);
    }

    #[test]
    fn many_lockstep_hand_offs_count_exactly() {
        // 200 000 switches between two stacks, each saving and restoring
        // a context: every one is counted, and the run ends in bounded
        // time.
        const STEPS: u64 = 100_000;
        let sim = Sim::new();
        for name in ["a", "b"] {
            sim.spawn(name, |p| {
                for _ in 0..STEPS {
                    p.advance(SimDur::from_ns(1));
                }
            });
        }
        let s = sim.clone();
        within(Duration::from_secs(120), move || s.run());
        assert_eq!(switches(&sim), 2 * STEPS + 3);
    }

    #[test]
    fn every_process_runs_on_the_thread_in_run() {
        // 64 processes pass a baton round a ring: each observes the thread
        // `run` was called on, before and after each of its parks. None
        // has an OS thread of its own.
        const PROCS: usize = 64;
        const ROUNDS: u32 = 3;
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let ring: Vec<SimQueue<u32>> = (0..PROCS).map(|_| SimQueue::new(&sim)).collect();
        ring[0].push(0);
        for i in 0..PROCS {
            let (seen, ring) = (seen.clone(), ring.clone());
            sim.spawn(format!("p{i}"), move |p| {
                for _ in 0..ROUNDS {
                    seen.lock().push(std::thread::current().id());
                    let baton = ring[i].pop(p);
                    seen.lock().push(std::thread::current().id());
                    p.advance(SimDur::from_us(1));
                    ring[(i + 1) % PROCS].push(baton + 1);
                }
            });
        }
        let s = sim.clone();
        let runner = within(Duration::from_secs(60), move || {
            s.run();
            std::thread::current().id()
        });
        let seen = seen.lock();
        assert_eq!(seen.len(), 2 * PROCS * ROUNDS as usize);
        assert!(
            seen.iter().all(|&id| id == runner),
            "a process ran off the run thread"
        );
        assert_ne!(runner, std::thread::current().id());
        assert_eq!(ring[0].try_pop(), Some(PROCS as u32 * ROUNDS));
    }

    #[test]
    fn a_park_through_another_process_handle_fails_the_run() {
        // b parks with a's handle while a is parked: b must not save itself
        // into a's context.
        let sim = Sim::new();
        let q: SimQueue<()> = SimQueue::new(&sim);
        let (tx, rx) = mpsc::channel::<Proc>();
        let qa = q.clone();
        sim.spawn("a", move |p| {
            tx.send(p.clone()).unwrap();
            qa.pop(p);
        });
        sim.spawn("b", move |_p| {
            let a = rx.recv().unwrap();
            q.pop(&a);
        });
        let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must fail");
        let msg = payload_to_string(err.as_ref());
        assert!(msg.contains("process 'b' panicked"), "{msg}");
    }

    #[test]
    fn a_simulator_call_from_a_thread_of_a_process_panics_there() {
        let sim = Sim::new();
        let outcome = Arc::new(Mutex::new(String::new()));
        let o = outcome.clone();
        sim.spawn("p", move |p| {
            let helper = p.clone();
            let err = std::thread::spawn(move || helper.advance(SimDur::from_us(1)))
                .join()
                .expect_err("an advance off the run thread must panic");
            *o.lock() = payload_to_string(err.as_ref());
        });
        within(Duration::from_secs(60), move || sim.run());
        let msg = outcome.lock().clone();
        assert!(msg.contains("outside the running process"), "{msg}");
    }

    #[test]
    fn a_process_may_use_a_mebibyte_of_stack() {
        // 256 nested frames of 4 KiB each, parking in the deepest one so
        // that the deep stack is switched away from and back to.
        fn descend(p: &Proc, q: &SimQueue<()>, depth: u32, top: usize) -> usize {
            let mut frame = [0u8; 4096];
            frame[depth as usize % 4096] = 1;
            let here = std::hint::black_box(&mut frame).as_ptr() as usize;
            let span = if depth == 0 {
                q.pop(p);
                top.abs_diff(here)
            } else {
                descend(p, q, depth - 1, top)
            };
            std::hint::black_box(&frame);
            span
        }
        let sim = Sim::new();
        let q: SimQueue<()> = SimQueue::new(&sim);
        let used = Arc::new(AtomicUsize::new(0));
        let (u, qd) = (used.clone(), q.clone());
        sim.spawn("deep", move |p| {
            let top = std::hint::black_box(&0u8) as *const u8 as usize;
            u.store(descend(p, &qd, 256, top), Ordering::SeqCst);
        });
        sim.spawn("waker", move |p| {
            p.advance(SimDur::from_us(1));
            q.push(());
        });
        within(Duration::from_secs(60), move || sim.run());
        assert!(
            used.load(Ordering::SeqCst) >= 1 << 20,
            "{} bytes",
            used.load(Ordering::SeqCst)
        );
    }
}
