//! The public MPI API: [`Mpi`] (one per rank), [`Communicator`], and
//! [`Request`].
//!
//! The engine state is `Send` and lives behind a mutex ([`Inner`]), so a
//! rank is not bound to a single thread. One thread at a time consumes the
//! device's receive side, and one token — the **drain role**
//! (`Inner::drain`) — says which. A caller blocked inside the library
//! (`recv`, `wait`, a collective, ...) takes the role and matches incoming
//! frames inline, on its own CPU, where the paper found matching cheapest.
//! On real transports (shm, real TCP/UDP) each rank also runs a
//! **background progress thread** that holds the role only while no caller
//! is inside, so nonblocking operations, retransmit timers and heartbeats
//! advance while the application computes. A blocked caller that finds the
//! role taken parks in the engine's wait slot until its request may have
//! completed or the role comes free. Virtual-time substrates (the simulated
//! Meiko and cluster models) have no progress thread — their cooperative
//! scheduler cannot tolerate a foreign thread — so there the role is the
//! caller's.
//!
//! Every point-to-point call is one post and one wait, as in MPICH's
//! layering. `Communicator::post_send` (contiguous or typed, any mode) and
//! `Communicator::post_recv` make the checks and the engine call once and
//! return a `Posted` operation, which holds the buffer's borrow until the
//! request is collected. A blocking call waits on it at once; a
//! nonblocking call wraps it in a [`Request`]; `sendrecv` and every
//! exchange step of the collectives post a receive, then a send, and wait
//! on both. `Posted::wait` is where a call waits, records its health
//! window and maps the status to communicator-local ranks.

use std::borrow::Borrow;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmpi_obs::Tracer;
use lmpi_sim::lock::{Mutex, MutexGuard, Sleepers, Wake};

use crate::config::MpiConfig;
use crate::datatype::MpiData;
use crate::device::{Cost, Device, TransportStats, Wait};
use crate::dtype::CommittedType;
use crate::engine::{Counters, Engine};
use crate::error::{MpiError, MpiResult};
use crate::health::Stamp;
use crate::metrics::MetricsSnapshot;
use crate::packet::{ContextId, Wire};
use crate::request::{RecvDest, ReqState};
use crate::types::{Rank, SendMode, SourceSel, Status, Tag, TagSel, TAG_UB};

/// How long the progress thread sleeps per iteration: in
/// [`Device::recv`] while it holds the drain role on an idle wire, in its
/// engine wait slot while callers hold it. Bounds shutdown latency while
/// the thread waits in the device. Wrapper devices wake for their own
/// timers; a timer another thread arms meanwhile is seen when this wait
/// (or a caller's [`PARK_SLICE`]) ends.
const PROGRESS_TICK: Duration = Duration::from_micros(500);

/// The watchdog slice: how long a blocked caller sleeps — in the device
/// when it holds the drain role, in the engine's wait slot when it does
/// not — before it looks at its idle clock. No wake-up depends on it
/// expiring (see [`Inner::wake_waiters`]).
const PARK_SLICE: Duration = Duration::from_millis(2);

pub(crate) struct Inner {
    pub(crate) device: Box<dyn Device>,
    pub(crate) eng: Mutex<Engine>,
    /// Progress watchdog deadline (microseconds of device time); `None`
    /// blocks indefinitely.
    watchdog_us: Option<u64>,
    /// The drain role: whoever holds this guard is the device's single
    /// consumer (two would race frame handling and break per-peer FIFO).
    /// Lock order is role → engine; nobody ever blocks on the role.
    drain: Mutex<()>,
    /// Callers currently blocked in [`Inner::progress_until`]. The
    /// progress thread takes the role only while this is zero.
    inside: AtomicU32,
    /// Tells the progress thread to exit (set by [`Mpi`]'s drop).
    shutdown: AtomicBool,
    /// Bumped by whoever drains for every frame or failure verdict it
    /// handled; parked waiters reset their watchdog when it moves.
    epoch: AtomicU64,
    /// Collective sequence counter shared by every [`Mpi::world`] handle
    /// (each call constructs a fresh `Communicator`, but they are all the
    /// same communicator and must share one tag sequence).
    world_coll_seq: Arc<AtomicU32>,
    /// Live health accounting: progress-thread duty cycle, engine-mutex
    /// contention, sliding-window tail latency, continuous diagnostics.
    pub(crate) health: crate::health::HealthState,
}

impl Inner {
    /// `MPI_Wtime`: the device clock in seconds, the one place its
    /// nanoseconds become a float.
    fn wtime(&self) -> f64 {
        self.device.now_ns() as f64 / 1e9
    }

    /// The one drain step, run by whoever holds the drain role: handle
    /// `wire` if there is one, run the pull it began or met with the
    /// engine lock dropped ([`run_pulls`](Self::run_pulls); `copies` says
    /// whether this thread is a caller blocked in
    /// [`block_until`](Self::block_until)), move every peer-death
    /// verdict the transport's liveness machine has queued into the engine
    /// (idempotent per peer), and add what advanced to `epoch`. Returns
    /// that count, frames plus verdicts. `Err` is a frame that is
    /// impossible under loss-free FIFO delivery.
    // Inlined into its four callers: out of line, every frame paid a copy
    // of the ~15-word `Wire` into the argument (45 ns of `shm_small`'s
    // 5 µs round trip, ten of ten pairs).
    #[inline]
    fn drain_step<'a>(
        &'a self,
        eng: &mut MutexGuard<'a, Engine>,
        wire: Option<Wire>,
        copies: bool,
    ) -> MpiResult<u64> {
        let mut advanced = 0;
        if let Some(wire) = wire {
            let handled = eng.handle_wire(&*self.device, wire);
            if eng.has_pulls() {
                self.run_pulls(eng, copies);
            }
            handled?;
            advanced += 1;
        }
        while let Some((peer, err)) = self.device.take_failed_peer() {
            eng.fail_peer(&*self.device, peer, err);
            advanced += 1;
        }
        if advanced > 0 {
            self.epoch.fetch_add(advanced, Ordering::AcqRel);
        }
        Ok(advanced)
    }

    /// Run the pulls the last engine call handed out: drop the engine
    /// lock, take part in each copy (the receiver's side always, the
    /// sender's only if `copies`), wait until its last byte has landed,
    /// retake the lock and complete the request. No copy of a lent payload
    /// runs under an engine lock.
    #[cold]
    #[inline(never)]
    fn run_pulls<'a>(&'a self, eng: &mut MutexGuard<'a, Engine>, copies: bool) {
        while let Some(pull) = eng.take_pull() {
            let t0 = eng.tracer.is_enabled().then(|| self.device.now_ns());
            let mine = self.eng.unlocked(eng, || pull.run(copies));
            eng.finish_pull(&*self.device, pull, mine, t0);
        }
    }

    /// Post a receive into `dst`: the one engine call behind every
    /// receive post, under one engine lock. `admit` runs first under that
    /// lock and names the source, or refuses the post. A match on a lent
    /// payload makes the poster the receiver's copier.
    #[inline]
    pub(crate) fn post_recv(
        &self,
        dst: RecvDest,
        tag: TagSel,
        ctx: ContextId,
        admit: impl FnOnce(&mut Engine) -> MpiResult<SourceSel>,
    ) -> MpiResult<u64> {
        let mut eng = self.lock_eng();
        let src = admit(&mut eng)?;
        let id = eng.post_recv(&*self.device, dst, src, tag, ctx);
        if eng.has_pulls() {
            self.run_pulls(&mut eng, true);
        }
        Ok(id)
    }

    /// Handle every frame already queued at the device, without blocking.
    /// The caller holds the drain role. `Err` is a transport failure
    /// (device broke, or [`drain_step`](Self::drain_step) refused a frame).
    fn drain_queued(&self) -> MpiResult<()> {
        loop {
            let wire = self.device.try_recv()?;
            let last = wire.is_none();
            self.drain_step(&mut self.eng.lock(), wire, false)?;
            if last {
                return Ok(());
            }
        }
    }

    /// Nonblocking progress: if the drain role is free, take it and handle
    /// what is queued; either way report the rank's fatal error, if any.
    pub(crate) fn poll(&self) -> MpiResult<()> {
        let Some(role) = self.drain.try_lock() else {
            return self.eng.lock().fatal.clone().map_or(Ok(()), Err);
        };
        let drained = self.drain_queued();
        let mut eng = self.eng.lock();
        if let Err(e) = drained {
            eng.fatal.get_or_insert(e);
        }
        let fatal = eng.fatal.clone();
        drop(role);
        self.wake_waiters(eng);
        fatal.map_or(Ok(()), Err)
    }

    /// Wake the callers parked behind the role holder: take them out of
    /// `Engine::waiters` under the engine lock, unpark them after dropping
    /// it. Whoever gives the drain role up drops it, then calls this. A
    /// waiter decides "the role is taken" and registers under the engine
    /// lock, so it either locks the engine after the release and finds the
    /// role free, or is registered when the slot is taken: a release is
    /// never slept through.
    fn wake_waiters(&self, mut eng: MutexGuard<'_, Engine>) {
        let wake = eng.waiters.take();
        drop(eng);
        wake.wake();
    }

    /// Make progress until `done` returns `Some`: take the drain role and
    /// handle frames inline, blocking in the device between them, or park
    /// in `Engine::waiters` while another thread holds it. Either way the
    /// watchdog, if armed, bounds the wait on a wall-clock transport.
    pub(crate) fn progress_until<T>(
        &self,
        mut done: impl FnMut(&mut Engine) -> Option<T>,
    ) -> MpiResult<T> {
        if !self.device.supports_background_progress() {
            // Virtual time: one thread per rank, so the role is free, and
            // the order of device calls below is part of the timing model.
            let _role = self.drain.try_lock();
            loop {
                self.drain_queued()?;
                if let Some(v) = done(&mut self.eng.lock()) {
                    return Ok(v);
                }
                // Loop, so `done` re-evaluates against what that frame
                // completed.
                self.step_blocking()?;
            }
        }
        let mut eng = self.eng.lock();
        if let Some(v) = done(&mut eng) {
            return Ok(v);
        }
        self.inside.fetch_add(1, Ordering::AcqRel);
        let out = self.block_until(eng, &mut done);
        self.inside.fetch_sub(1, Ordering::AcqRel);
        out
    }

    /// The blocking half of [`progress_until`](Self::progress_until) on a
    /// wall-clock transport. `eng` is held and `done` has just said `None`.
    fn block_until<'a, T>(
        &'a self,
        mut eng: MutexGuard<'a, Engine>,
        done: &mut impl FnMut(&mut Engine) -> Option<T>,
    ) -> MpiResult<T> {
        let mut timer = None;
        let role = loop {
            if let Some(e) = eng.fatal.clone() {
                return Err(e);
            }
            if let Some(role) = self.drain.try_lock() {
                break role;
            }
            let slice = Instant::now() + PARK_SLICE;
            Sleepers::park(&self.eng, &mut eng, |e| &mut e.waiters, Some(slice));
            self.idle_check(&mut timer)?;
            if let Some(v) = done(&mut eng) {
                return Ok(v);
            }
        };
        drop(eng);
        // This thread is the device's single consumer until it lets go. It
        // parks in the device, holding no engine lock, one watchdog slice
        // at a time. A device or protocol error becomes the rank's fatal
        // error; an idle timeout is this caller's alone.
        loop {
            let wire = self.device.recv(Wait::Within(PARK_SLICE));
            let mut eng = self.eng.lock();
            let step = match wire.and_then(|w| self.drain_step(&mut eng, w, true)) {
                Ok(0) => self.idle_check(&mut timer),
                Ok(_) => Ok(()),
                Err(e) => Err(eng.fatal.get_or_insert(e).clone()),
            };
            if let Err(e) = step {
                drop(role);
                self.wake_waiters(eng);
                return Err(e);
            }
            if let Some(v) = done(&mut eng) {
                drop(role);
                self.wake_waiters(eng);
                return Ok(v);
            }
            // The frame may have completed another caller's request.
            self.wake_waiters(eng);
        }
    }

    /// Update a blocked caller's watchdog — the last progress epoch it saw
    /// and when (device clock) — after a slice that brought it nothing:
    /// progress by anyone restarts the idle clock; a silent wire past the
    /// armed deadline becomes a typed [`MpiError::Timeout`].
    fn idle_check(&self, timer: &mut Option<(u64, u64)>) -> MpiResult<()> {
        let Some(limit_us) = self.watchdog_us else {
            return Ok(());
        };
        let (epoch, now) = (self.epoch.load(Ordering::Acquire), self.device.now_ns());
        match *timer {
            Some((last_epoch, idle_since)) if last_epoch == epoch => {
                let waited_ns = now.saturating_sub(idle_since);
                if waited_ns >= limit_us.saturating_mul(1_000) {
                    return Err(MpiError::Timeout {
                        waited_us: waited_ns / 1_000,
                        context: "no incoming frame while a caller waited".into(),
                    });
                }
            }
            _ => *timer = Some((epoch, now)),
        }
        Ok(())
    }

    /// Early resume: a nonblocking send still incomplete when its post
    /// returns (rendezvous) needs the progress thread now, not a tick or
    /// two later. Takes the yielding thread out of its slot under the
    /// post's engine lock; the poster wakes it after dropping that lock.
    fn resume_progress(&self, eng: &mut Engine, id: u64) -> Wake {
        if eng.reqs.get(id).is_some_and(ReqState::is_done) {
            return Wake::default();
        }
        eng.progress.take()
    }

    /// Block until one frame arrives and handle it (virtual-time ranks
    /// only). The device parks the process, which lets the simulated clock
    /// run to the next arrival; the watchdog does not apply here, as a
    /// wait that can never end is the simulator's deadlock panic.
    fn step_blocking(&self) -> MpiResult<()> {
        let wire = self.device.recv_blocking()?;
        self.drain_step(&mut self.eng.lock(), Some(wire), false)?;
        Ok(())
    }

    /// Block until request `id` completes and return its result. When the
    /// wait itself fails (watchdog timeout, the rank's fatal error) the
    /// request is still live and may point into its caller's buffer, so
    /// it is [abandoned](Engine::abandon) before the error goes up: no
    /// caller gets control back while the engine or a peer can still reach
    /// its buffer.
    pub(crate) fn wait_request(&self, id: u64) -> MpiResult<Status> {
        match self.progress_until(|eng| eng.reqs.take_if_done(id)) {
            Ok(result) => result,
            Err(e) => {
                self.eng.lock().abandon(id);
                Err(e)
            }
        }
    }

    /// Acquire the engine lock, sampling the wait time into the health
    /// mutex-contention histogram when the acquisition is contended. The
    /// uncontended fast path (and all of it, with health disabled) reads
    /// no clock.
    pub(crate) fn lock_eng(&self) -> MutexGuard<'_, Engine> {
        if let Some(g) = self.eng.try_lock() {
            return g;
        }
        if self.health.enabled {
            let t0 = self.device.now_ns();
            let g = self.eng.lock();
            self.health
                .record_mutex_wait(self.device.now_ns().saturating_sub(t0));
            g
        } else {
            self.eng.lock()
        }
    }
}

/// Record `err` as the rank's fatal transport error (first error wins) and
/// wake every parked waiter to observe it. Waiters look at `fatal` before
/// they look at the role, so a holder that fails needs no hand-over.
fn record_fatal(inner: &Inner, mut eng: MutexGuard<'_, Engine>, err: MpiError) {
    if eng.fatal.is_none() {
        eng.fatal = Some(err);
    }
    inner.epoch.fetch_add(1, Ordering::AcqRel);
    inner.wake_waiters(eng);
}

/// The background progress loop: the device's consumer while no caller is
/// inside the library. Each iteration first settles who drains. With a
/// caller inside it gives the role up ([`Inner::wake_waiters`]) and parks
/// in `Engine::progress` for a tick; it takes the role back once
/// nobody is inside and either nobody drained during the last tick
/// (`epoch` stood still — so a tick landing between a caller's `send`
/// returning and its `recv` entering does not steal that round trip) or a
/// poster woke it ([`Inner::resume_progress`]; the park reports it).
/// Holding the role it drains queued frames and peer-failure verdicts and
/// parks in [`Device::recv`] while idle. Transport errors are
/// parked in [`Engine::fatal`] for waiters — this thread has nowhere else
/// to report them — and end the loop.
///
/// With live health enabled, the loop classifies its entire wall time
/// into the four [`lmpi_obs::TimeBucket`]s via contiguous clock segments
/// (`mark` is the end of the previously credited segment, so the buckets
/// sum to the covered wall time by construction): device polling →
/// `Poll`, contended engine-lock acquisition → `LockWait`, frame handling
/// → `Drain`, the idle `recv` tick and every yielded tick (the
/// park in `Engine::progress`, and the engine lock taken around it) →
/// `Park`. Yielded time moves `mark`, so it never enters the
/// wakeup-to-drain samples (work noticed → first frame handled). The
/// periodic diagnostics run on idle and yielded ticks. With health
/// disabled, every accounting line is one branch and no clock is read.
fn progress_loop(inner: &Inner) {
    use lmpi_obs::TimeBucket::{Drain, LockWait, Park, Poll};

    use crate::health::credit_segment;

    let hp = inner.health.enabled.then_some(&inner.health.progress);
    let mut mark = hp.map(|_| inner.device.now_ns()).unwrap_or(0);
    // Credit the time since `mark` to `bucket` (no clock read when off).
    let credit = |mark: &mut u64, bucket| {
        if hp.is_some() {
            credit_segment(hp, mark, inner.device.now_ns(), bucket);
        }
    };
    // One drain step over `wire`: what it advanced, or `None` once a fatal
    // error was recorded. `wake` anchors a wakeup-to-drain sample when this
    // frame starts a burst.
    let handle = |wire, mark: &mut u64, wake: Option<u64>| {
        let mut eng = inner.eng.try_lock().unwrap_or_else(|| {
            let g = inner.eng.lock();
            credit(mark, LockWait);
            g
        });
        eng.counters.progress_frames += 1;
        let advanced = match inner.drain_step(&mut eng, Some(wire), false) {
            Ok(n) => n,
            Err(e) => {
                record_fatal(inner, eng, e);
                return None;
            }
        };
        drop(eng);
        if let Some(h) = hp {
            let now = inner.device.now_ns();
            if let Some(wake) = wake {
                h.record_wakeup_to_drain(now.saturating_sub(wake));
            }
            credit_segment(hp, mark, now, Drain);
            h.add_frames(1);
        }
        Some(advanced)
    };
    let mut role = None;
    // `epoch` when the thread last yielded, and whether that yield was
    // cut short by a poster.
    let (mut seen, mut asked) = (inner.epoch.load(Ordering::Acquire), false);
    while !inner.shutdown.load(Ordering::Acquire) {
        if inner.inside.load(Ordering::Acquire) > 0 {
            if role.is_some() {
                role = None;
                inner.wake_waiters(inner.eng.lock());
            }
        } else if role.is_none() && (asked || seen == inner.epoch.load(Ordering::Acquire)) {
            role = inner.drain.try_lock();
        }
        if role.is_none() {
            seen = inner.epoch.load(Ordering::Acquire);
            let mut eng = inner.eng.lock();
            // Checked under the lock `Mpi::drop` takes the slot under.
            asked = !inner.shutdown.load(Ordering::Acquire) && {
                let tick = Instant::now() + PROGRESS_TICK;
                Sleepers::park(&inner.eng, &mut eng, |e| &mut e.progress, Some(tick))
            };
            drop(eng);
            if inner.health.enabled {
                credit(&mut mark, Park);
                crate::health::eval_if_due(inner, mark);
                credit(&mut mark, Poll);
            }
            continue;
        }
        let mut handled: u64 = 0;
        // Wakeup-to-drain anchor: when this drain pass began.
        let burst_start = mark;
        // Drain what is queued, one frame per lock acquisition so posting
        // threads interleave, until a caller shows up to take over.
        while inner.inside.load(Ordering::Acquire) == 0 {
            match inner.device.try_recv() {
                Ok(Some(wire)) => {
                    credit(&mut mark, Poll);
                    let wake = (handled == 0).then_some(burst_start);
                    let Some(advanced) = handle(wire, &mut mark, wake) else {
                        return;
                    };
                    handled += advanced;
                }
                Ok(None) => break,
                Err(e) => {
                    record_fatal(inner, inner.eng.lock(), e);
                    return;
                }
            }
        }
        // Failure verdicts alone: without a frame the step cannot fail.
        handled += inner
            .drain_step(&mut inner.eng.lock(), None, false)
            .unwrap_or_default();
        // The final empty poll and the failure drain.
        credit(&mut mark, Poll);
        if handled == 0 && inner.inside.load(Ordering::Acquire) == 0 {
            // Idle edge: run the periodic diagnostics evaluation here,
            // where it can never add latency to frame handling.
            if inner.health.enabled {
                crate::health::eval_if_due(inner, inner.device.now_ns());
                credit(&mut mark, Poll);
            }
            // Wait for the next frame with a bounded tick, so shutdown is
            // prompt.
            match inner.device.recv(Wait::Within(PROGRESS_TICK)) {
                Ok(wire) => {
                    // The blocking wait counts as parked even when a
                    // frame ended it; the wakeup starts here.
                    credit(&mut mark, Park);
                    if let Some(wire) = wire {
                        let wake = mark;
                        let Some(advanced) = handle(wire, &mut mark, Some(wake)) else {
                            return;
                        };
                        handled = advanced;
                    }
                }
                Err(e) => {
                    record_fatal(inner, inner.eng.lock(), e);
                    return;
                }
            }
        }
        if handled > 0 {
            inner.eng.lock().counters.progress_wakeups += 1;
            if let Some(h) = hp {
                h.add_wakeup();
            }
        }
    }
}

/// Per-rank MPI instance. Create one per process (or thread, on the
/// shared-memory substrate) from a [`Device`], then use [`Mpi::world`].
pub struct Mpi {
    inner: Arc<Inner>,
    /// The rank's background progress thread, when the device supports one
    /// (see [`Device::supports_background_progress`]); joined on drop.
    progress: Option<std::thread::JoinHandle<()>>,
}

impl Mpi {
    /// Initialize MPI over `device` with `config` (unset fields take the
    /// device's platform defaults).
    pub fn new(device: Box<dyn Device>, config: MpiConfig) -> Mpi {
        let d = device.defaults();
        let mut eng = Engine::new(
            device.rank(),
            device.nprocs(),
            config.eager_threshold.unwrap_or(d.eager_threshold),
            config.env_slots.unwrap_or(d.env_slots),
            config.recv_buf_per_sender.unwrap_or(d.recv_buf_per_sender),
            config.rndv_chunk.unwrap_or(d.rndv_chunk),
            config.rndv_window.unwrap_or(d.rndv_window),
        );
        eng.coll.pins = config.coll;
        let background = device.supports_background_progress();
        let rank = device.rank();
        let health = crate::health::HealthState::new(config.health.unwrap_or(true));
        let inner = Arc::new(Inner {
            device,
            eng: Mutex::new(eng),
            watchdog_us: config.progress_timeout_us,
            drain: Mutex::new(()),
            inside: AtomicU32::new(0),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            world_coll_seq: Arc::new(AtomicU32::new(0)),
            health,
        });
        let progress = background.then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("mpi-progress-{rank}"))
                .spawn(move || progress_loop(&inner))
                .expect("failed to spawn progress thread")
        });
        Mpi { inner, progress }
    }

    /// Whether this rank runs a background progress thread (real
    /// transports) for the time no caller is inside the library, or
    /// progresses only inside its calls (virtual-time substrates).
    pub fn has_progress_thread(&self) -> bool {
        self.progress.is_some()
    }

    /// `MPI_COMM_WORLD`: all ranks.
    pub fn world(&self) -> Communicator {
        let n = self.inner.device.nprocs();
        Communicator {
            inner: self.inner.clone(),
            ctx: 0,
            coll_ctx: 1,
            group: Arc::new((0..n).collect()),
            my_local: self.inner.device.rank(),
            coll_seq: self.inner.world_coll_seq.clone(),
        }
    }

    /// This rank's world rank.
    pub fn rank(&self) -> Rank {
        self.inner.device.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.inner.device.nprocs()
    }

    /// `MPI_Wtime`: elapsed seconds (virtual on simulated transports).
    pub fn wtime(&self) -> f64 {
        self.inner.wtime()
    }

    /// Attach `capacity` bytes for buffered-mode (`bsend`) sends.
    pub fn buffer_attach(&self, capacity: usize) {
        self.inner.eng.lock().buffer_attach(capacity);
    }

    /// Detach the buffered-send space, returning its capacity. As in MPI,
    /// blocks until every buffered message has been transmitted.
    pub fn buffer_detach(&self) -> MpiResult<usize> {
        self.inner.progress_until(|eng| {
            if eng.buffered_in_use() == 0 {
                Some(())
            } else {
                None
            }
        })?;
        self.inner.eng.lock().buffer_detach()
    }

    /// Protocol counters accumulated so far (Table-1 instrumentation).
    /// Matching-engine tallies (`matches`, `unexpected_hits`,
    /// `match_bins_hwm`, `match_bin_depth_hwm`) are folded in here so callers see one coherent
    /// snapshot.
    pub fn counters(&self) -> Counters {
        self.inner.eng.lock().folded_counters()
    }

    /// Build a point-in-time [`MetricsSnapshot`]: folded counters plus the
    /// device stack's [`TransportStats`], stamped with the device clock.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.eng.lock().metrics_snapshot(&*self.inner.device)
    }

    /// Install a protocol-event tracer on this rank's engine. Clones of an
    /// enabled tracer share one ring, so keep a clone to snapshot after the
    /// run. Pass [`Tracer::disabled`] to turn tracing back off.
    ///
    /// Engine-level events only; for device-level events (wire tx,
    /// retransmits, injected faults) call [`Device::set_tracer`] on the
    /// device *before* moving it into [`Mpi::new`].
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.eng.lock().tracer = tracer;
    }

    /// Cumulative reliability, fault-injection and inbox statistics from
    /// the device stack under this rank (zero in every field no layer of
    /// it counts).
    pub fn transport_stats(&self) -> TransportStats {
        self.inner.device.transport_stats()
    }

    /// Live health report: service-thread duty cycles, engine-mutex
    /// contention, sliding-window p50/p99/p999 completion latency, and
    /// the diagnostics active as of the last evaluation. Runs the
    /// periodic evaluation first if it is due, so caller-driven ranks
    /// (no progress thread) get fresh findings too. All-zero when
    /// health was disabled via [`MpiConfig::with_health`].
    ///
    /// [`MpiConfig::with_health`]: crate::MpiConfig::with_health
    pub fn health(&self) -> crate::health::HealthReport {
        let now = self.inner.device.now_ns();
        crate::health::eval_if_due(&self.inner, now);
        crate::health::build_report(&self.inner, now)
    }

    /// Spawn the zero-dependency HTTP scrape endpoint on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port — read it back from
    /// [`MetricsServer::addr`]). Serves the [`MetricsSnapshot`] JSON at
    /// `/metrics` and the [`HealthReport`] JSON at `/health`, both
    /// `application/json`. The server holds only a weak
    /// reference to this rank and answers 503 once the rank is dropped;
    /// drop the returned handle to shut it down promptly.
    ///
    /// [`MetricsServer::addr`]: crate::health::MetricsServer::addr
    /// [`MetricsSnapshot`]: crate::MetricsSnapshot
    /// [`HealthReport`]: crate::health::HealthReport
    pub fn serve_metrics(&self, addr: &str) -> MpiResult<crate::health::MetricsServer> {
        crate::health::spawn_metrics_server(&self.inner, addr)
    }

    /// The eager/rendezvous crossover in effect.
    pub fn eager_threshold(&self) -> usize {
        self.inner.eng.lock().eager_threshold()
    }

    /// Drain queued sends and synchronize with all ranks. Call once per
    /// rank before dropping the handle; collective.
    pub fn finalize(&self) -> MpiResult<()> {
        self.inner.progress_until(|eng| {
            if eng.has_pending_sends() {
                None
            } else {
                Some(())
            }
        })?;
        self.world().barrier()
    }
}

impl Drop for Mpi {
    fn drop(&mut self) {
        if let Some(handle) = self.progress.take() {
            self.inner.shutdown.store(true, Ordering::Release);
            let wake = self.inner.eng.lock().progress.take();
            wake.wake();
            let _ = handle.join();
            // Surviving Communicator/Request handles drain for themselves;
            // wake any that saw the thread holding the role.
            self.inner.wake_waiters(self.inner.eng.lock());
        }
    }
}

/// A communicator: an isolated message-passing context over an ordered
/// group of ranks. All send/receive operations take *communicator-local*
/// ranks.
#[derive(Clone)]
pub struct Communicator {
    inner: Arc<Inner>,
    ctx: ContextId,
    coll_ctx: ContextId,
    /// Local rank -> global rank, sorted by local rank.
    group: Arc<Vec<Rank>>,
    my_local: Rank,
    /// Per-communicator collective sequence number, shared by clones.
    /// Every collective call bumps it on every member, so the (op, seq)
    /// pair in each wire tag advances in lockstep across the group and
    /// back-to-back collectives can never cross-match (see
    /// [`crate::coll::coll_tag`]).
    coll_seq: Arc<AtomicU32>,
}

impl Communicator {
    /// This rank's rank within the communicator.
    pub fn rank(&self) -> Rank {
        self.my_local
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// `MPI_Wtime` convenience.
    pub fn wtime(&self) -> f64 {
        self.inner.wtime()
    }

    /// Charge `flops` floating-point operations of application compute to
    /// the platform cost model (no-op on real transports). Applications use
    /// this so simulated runs reflect 1996-era CPU speeds.
    pub fn compute_flops(&self, flops: u64) {
        self.inner.device.charge(Cost::Flops(flops));
    }

    pub(crate) fn global(&self, local: Rank) -> MpiResult<Rank> {
        self.group
            .get(local)
            .copied()
            .ok_or(MpiError::RankOutOfRange {
                rank: local,
                size: self.group.len(),
            })
    }

    pub(crate) fn check_tag(tag: TagSel) -> MpiResult<()> {
        match tag {
            TagSel::Tag(t) if t > TAG_UB => Err(MpiError::InvalidTag(t as i32)),
            _ => Ok(()),
        }
    }

    fn src_sel(&self, src: SourceSel) -> MpiResult<SourceSel> {
        Ok(match src {
            SourceSel::Any => SourceSel::Any,
            SourceSel::Rank(local) => SourceSel::Rank(self.global(local)?),
        })
    }

    /// Fail fast on a revoked communicator: every normal operation on it
    /// returns [`MpiError::Revoked`]. Only the fault-tolerant ULFM
    /// operations (`shrink`, `agree`) bypass this, by construction.
    pub(crate) fn check_not_revoked(&self) -> MpiResult<()> {
        if self.inner.eng.lock().is_revoked(self.ctx) {
            Err(MpiError::Revoked { context: self.ctx })
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // The two posts
    // ------------------------------------------------------------------

    /// The revocation and parked-error checks of a point-to-point post,
    /// made under the one engine lock the post then posts under. A post
    /// checks, in this order: its tag (no lock), revocation, a ready-mode
    /// error parked for this rank, then its rank range (and a typed send's
    /// layout), which it computes before the lock and returns only after
    /// these two. A parked error is returned by exactly one post, which
    /// posts nothing.
    // Inlined, as are the other small helpers of the two posts and the
    // waits and conversions of `Posted` and `Request`: their callers are
    // generic entry points compiled in the caller's crate, where a plain
    // function of this one stays a call. Out of line, a blocking send cost
    // ≈ 30 ns more (six of six runs) and a receive ≈ 20 ns more (five of
    // six) in a one-rank self-send loop, and the two waits of an
    // `isend`/`irecv` pair ≈ 20 ns.
    #[inline]
    fn check_locked(&self, eng: &mut Engine) -> MpiResult<()> {
        if eng.is_revoked(self.ctx) {
            return Err(MpiError::Revoked { context: self.ctx });
        }
        eng.pending_error.take().map_or(Ok(()), Err)
    }

    /// Post a send of `data` to local rank `dst` on context `ctx`: the one
    /// send post behind every send call, blocking or not, contiguous or
    /// typed. A nonblocking send (`resume`) that leaves the library
    /// incomplete, a rendezvous, needs the progress thread now, not a tick
    /// or two later; a blocking one is about to drain for itself.
    pub(crate) fn post_send<'b, T: MpiData>(
        &self,
        data: SendBuf<'b, '_, T>,
        dst: Rank,
        tag: Tag,
        mode: SendMode,
        ctx: ContextId,
        resume: bool,
    ) -> MpiResult<Posted<'b, &Self>> {
        Self::check_tag(TagSel::Tag(tag))?;
        let fits = match data {
            SendBuf::Typed(ty, memory) => ty.layout().fits(memory.len()),
            SendBuf::Slice(_) => Ok(()),
        };
        let dst = self.global(dst);
        let stamp = self.stamp(ctx);
        let dev = &*self.inner.device;
        let mut eng = self.inner.lock_eng();
        self.check_locked(&mut eng)?;
        fits?;
        let dst = dst?;
        let id = match data {
            // SAFETY: the `Posted<'b>` returned below holds `buf`'s borrow,
            // and each way out of it — `wait`, a `Request`'s `test`,
            // `cancel` or drop, its own drop — collects, cancels or
            // abandons the request first.
            SendBuf::Slice(buf) => unsafe { eng.post_send_slice(dev, dst, tag, ctx, buf, mode) },
            SendBuf::Typed(ty, memory) => {
                let data = eng.stage_gather(ty.layout(), memory);
                eng.post_send(dev, dst, tag, ctx, data, mode)
            }
        }?;
        let wake = resume.then(|| self.inner.resume_progress(&mut eng, id));
        drop(eng);
        wake.unwrap_or_default().wake();
        Ok(self.posted(id, true, stamp))
    }

    /// Post a receive into `dst`, memory the caller has borrowed for
    /// `'b`, on context `ctx`: the one receive post behind every receive
    /// call.
    #[inline]
    pub(crate) fn post_recv<'b>(
        &self,
        dst: RecvDest,
        src: SourceSel,
        tag: TagSel,
        ctx: ContextId,
    ) -> MpiResult<Posted<'b, &Self>> {
        Self::check_tag(tag)?;
        let src = self.src_sel(src);
        let stamp = self.stamp(ctx);
        let id = self.inner.post_recv(dst, tag, ctx, |eng| {
            self.check_locked(eng)?;
            src
        })?;
        Ok(self.posted(id, false, stamp))
    }

    /// What the post contributes to the send/recv health windows, which
    /// count user operations: nothing when health is off, and nothing on
    /// the collective context, whose steps feed their collective's window.
    /// One user op in [`SAMPLE_EVERY`](crate::health::SAMPLE_EVERY) reads
    /// the clock here, ahead of the engine lock, so its interval includes
    /// the lock wait.
    #[inline]
    fn stamp(&self, ctx: ContextId) -> Stamp {
        if !self.inner.health.enabled || ctx != self.ctx {
            Stamp::Off
        } else if crate::health::draw() {
            Stamp::At(self.inner.device.now_ns())
        } else {
            Stamp::Count
        }
    }

    #[inline]
    fn posted<'b>(&self, id: u64, send: bool, stamp: Stamp) -> Posted<'b, &Self> {
        Posted {
            comm: self,
            id,
            live: true,
            send,
            stamp,
            _buf: PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Blocking point-to-point: a post and a wait
    // ------------------------------------------------------------------

    /// The blocking send behind `send`, its three other modes,
    /// `send_typed`, the send half of `sendrecv` and a collective's send.
    pub(crate) fn send_mode<T: MpiData>(
        &self,
        data: SendBuf<'_, '_, T>,
        dst: Rank,
        tag: Tag,
        mode: SendMode,
        ctx: ContextId,
    ) -> MpiResult<()> {
        self.post_send(data, dst, tag, mode, ctx, false)?.wait()?;
        Ok(())
    }

    /// `MPI_Send`: standard mode. Eager below the threshold (optimistic,
    /// buffered at the receiver), rendezvous above.
    pub fn send<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(SendBuf::Slice(buf), dst, tag, SendMode::Standard, self.ctx)
    }

    /// `MPI_Bsend`: buffered mode; fails with `BufferOverflow` when the
    /// attached buffer can't hold the message.
    pub fn bsend<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(SendBuf::Slice(buf), dst, tag, SendMode::Buffered, self.ctx)
    }

    /// `MPI_Ssend`: synchronous mode; returns only after the receive
    /// matched.
    pub fn ssend<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        let data = SendBuf::Slice(buf);
        self.send_mode(data, dst, tag, SendMode::Synchronous, self.ctx)
    }

    /// `MPI_Rsend`: ready mode; the caller asserts the receive is already
    /// posted, so data up to one chunk travels with the envelope.
    pub fn rsend<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(SendBuf::Slice(buf), dst, tag, SendMode::Ready, self.ctx)
    }

    /// `MPI_Recv`: blocking receive into `buf`. Accepts `usize` ranks /
    /// `u32` tags or the wildcard selectors.
    pub fn recv<T: MpiData>(
        &self,
        buf: &mut [T],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<Status> {
        self.post_recv(contiguous(buf), src.into(), tag.into(), self.ctx)?
            .wait()
    }

    /// Probe-then-receive convenience: returns a freshly-allocated vector
    /// sized to the incoming message.
    pub fn recv_vec<T: MpiData + Default>(
        &self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<(Vec<T>, Status)> {
        let src = src.into();
        let tag = tag.into();
        let st = self.probe_sel(src, tag)?;
        let mut out = vec![T::default(); st.count::<T>()];
        // Receive exactly the probed message (narrow to its source and tag).
        let st = self.recv(&mut out, st.source, st.tag)?;
        Ok((out, st))
    }

    /// `MPI_Sendrecv`: simultaneous send and receive, deadlock-free.
    pub fn sendrecv<T: MpiData, U: MpiData>(
        &self,
        sendbuf: &[T],
        dst: Rank,
        send_tag: Tag,
        recvbuf: &mut [U],
        src: impl Into<SourceSel>,
        recv_tag: impl Into<TagSel>,
    ) -> MpiResult<Status> {
        let (src, recv_tag) = (src.into(), recv_tag.into());
        self.sendrecv_in(self.ctx, sendbuf, dst, send_tag, recvbuf, src, recv_tag)
    }

    /// [`sendrecv`](Self::sendrecv) on context `ctx`; every exchange step
    /// of the collectives is one. The receive is posted first, so two
    /// ranks exchanging cannot deadlock, and taken back if the send fails.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sendrecv_in<T: MpiData, U: MpiData>(
        &self,
        ctx: ContextId,
        sendbuf: &[T],
        dst: Rank,
        send_tag: Tag,
        recvbuf: &mut [U],
        src: SourceSel,
        recv_tag: TagSel,
    ) -> MpiResult<Status> {
        let mut recv = self.post_recv(contiguous(recvbuf), src, recv_tag, ctx)?;
        let send = SendBuf::Slice(sendbuf);
        self.send_mode(send, dst, send_tag, SendMode::Standard, ctx)?;
        recv.wait()
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point: a post wrapped in a `Request`
    // ------------------------------------------------------------------

    /// The nonblocking send behind `isend`, its three other modes,
    /// `isend_typed` and a persistent send's `start`.
    pub(crate) fn isend_mode<'a, T: MpiData>(
        &self,
        data: SendBuf<'a, '_, T>,
        dst: Rank,
        tag: Tag,
        mode: SendMode,
    ) -> MpiResult<Request<'a>> {
        let posted = self.post_send(data, dst, tag, mode, self.ctx, true)?;
        Ok(Request::new(posted))
    }

    /// `MPI_Isend`.
    pub fn isend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(SendBuf::Slice(buf), dst, tag, SendMode::Standard)
    }

    /// `MPI_Ibsend`.
    pub fn ibsend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(SendBuf::Slice(buf), dst, tag, SendMode::Buffered)
    }

    /// `MPI_Issend`.
    pub fn issend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(SendBuf::Slice(buf), dst, tag, SendMode::Synchronous)
    }

    /// `MPI_Irsend`.
    pub fn irsend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(SendBuf::Slice(buf), dst, tag, SendMode::Ready)
    }

    /// `MPI_Irecv`: nonblocking receive. The returned request borrows `buf`
    /// until waited on (or dropped, which waits).
    pub fn irecv<'a, T: MpiData>(
        &self,
        buf: &'a mut [T],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<Request<'a>> {
        self.post_recv(contiguous(buf), src.into(), tag.into(), self.ctx)
            .map(Request::new)
    }

    // ------------------------------------------------------------------
    // Typed point-to-point: zero-copy derived-datatype transfers
    // ------------------------------------------------------------------

    /// `MPI_Send` over a committed datatype: transmit the bytes `ty`
    /// selects out of `memory` without packing through an intermediate
    /// buffer. Eager payloads gather run-by-run directly into the
    /// transmit staging pool; rendezvous payloads stream as chunks the
    /// receiver scatters straight into its own layout. `memory` must
    /// cover the type's full extent.
    pub fn send_typed(
        &self,
        ty: &CommittedType,
        memory: &[u8],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<()> {
        let data = SendBuf::<u8>::Typed(ty, memory);
        self.send_mode(data, dst, tag, SendMode::Standard, self.ctx)
    }

    /// `MPI_Isend` over a committed datatype (see
    /// [`send_typed`](Self::send_typed)).
    pub fn isend_typed<'a>(
        &self,
        ty: &CommittedType,
        memory: &'a [u8],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        let data = SendBuf::<u8>::Typed(ty, memory);
        self.isend_mode(data, dst, tag, SendMode::Standard)
    }

    /// `MPI_Recv` over a committed datatype: fill the bytes `ty` selects
    /// in `memory`, leaving holes untouched. The returned
    /// [`Status::len`] counts *message* (packed) bytes; a shorter
    /// message scatters only its prefix, a longer one fails with the
    /// usual typed truncation error. Types whose runs overlap in memory
    /// are rejected with [`MpiError::Unsupported`].
    pub fn recv_typed(
        &self,
        ty: &CommittedType,
        memory: &mut [u8],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<Status> {
        self.post_recv(typed(ty, memory)?, src.into(), tag.into(), self.ctx)?
            .wait()
    }

    /// `MPI_Irecv` over a committed datatype (see
    /// [`recv_typed`](Self::recv_typed)).
    pub fn irecv_typed<'a>(
        &self,
        ty: &CommittedType,
        memory: &'a mut [u8],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<Request<'a>> {
        self.post_recv(typed(ty, memory)?, src.into(), tag.into(), self.ctx)
            .map(Request::new)
    }

    // ------------------------------------------------------------------
    // Probing
    // ------------------------------------------------------------------

    pub(crate) fn probe_sel(&self, src: SourceSel, tag: TagSel) -> MpiResult<Status> {
        let src_g = self.src_sel(src)?;
        let ctx = self.ctx;
        let st = self
            .inner
            .progress_until(|eng| eng.probe(src_g, tag, ctx))?;
        localize(&self.group, st)
    }

    /// `MPI_Probe`: block until a matching message is available, without
    /// receiving it.
    pub fn probe(&self, src: impl Into<SourceSel>, tag: impl Into<TagSel>) -> MpiResult<Status> {
        self.probe_sel(src.into(), tag.into())
    }

    /// `MPI_Iprobe`: non-blocking probe.
    pub fn iprobe(
        &self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<Option<Status>> {
        let src_g = self.src_sel(src.into())?;
        let tag = tag.into();
        self.inner.poll()?;
        let st = self.inner.eng.lock().probe(src_g, tag, self.ctx);
        st.map(|s| localize(&self.group, s)).transpose()
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    pub(crate) fn inner(&self) -> &Arc<Inner> {
        &self.inner
    }

    pub(crate) fn ctx(&self) -> ContextId {
        self.ctx
    }

    pub(crate) fn coll_ctx(&self) -> ContextId {
        self.coll_ctx
    }

    pub(crate) fn group(&self) -> &Arc<Vec<Rank>> {
        &self.group
    }

    pub(crate) fn make(
        inner: Arc<Inner>,
        ctx: ContextId,
        coll_ctx: ContextId,
        group: Arc<Vec<Rank>>,
        my_local: Rank,
    ) -> Communicator {
        Communicator {
            inner,
            ctx,
            coll_ctx,
            group,
            my_local,
            // A fresh communicator starts its collective sequence at zero on
            // every member (dup/split/shrink are collective, so all members
            // construct it together).
            coll_seq: Arc::new(AtomicU32::new(0)),
        }
    }

    /// Bump and return the collective sequence number for the next
    /// collective on this communicator.
    pub(crate) fn next_coll_seq(&self) -> u32 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The global (world) ranks of this communicator's group, in local-rank
    /// order.
    pub fn group_ranks(&self) -> &[Rank] {
        &self.group
    }
}

/// The destination of a receive into a contiguous buffer.
pub(crate) fn contiguous<T: MpiData>(buf: &mut [T]) -> RecvDest {
    RecvDest::contiguous(buf.as_mut_ptr().cast(), std::mem::size_of_val(buf))
}

/// The destination of a receive through `ty`'s layout: the committed
/// layout rides inside the request, so eager payloads scatter on delivery
/// and every rendezvous chunk scatters at its offset straight into the
/// non-contiguous buffer. The layout must fit `memory` and must not
/// overlap itself (the scatter result would be ill-defined).
fn typed(ty: &CommittedType, memory: &mut [u8]) -> MpiResult<RecvDest> {
    let flat = ty.layout();
    flat.fits(memory.len())?;
    if flat.overlapping() {
        return Err(MpiError::Unsupported {
            what: "receiving into a datatype whose runs overlap in memory \
                   (the scatter result would be ill-defined)"
                .to_string(),
        });
    }
    Ok(RecvDest::typed(memory.as_mut_ptr(), ty.shared()))
}

/// Map a status's global source rank to its rank in `group`. The engine
/// checks only that a frame's source exists, so a frame on this group's
/// context from a rank outside it is a transport error here.
#[inline]
fn localize(group: &[Rank], st: Status) -> MpiResult<Status> {
    let source = group.iter().position(|&g| g == st.source).ok_or_else(|| {
        MpiError::transport_peer(
            st.source,
            "message from a rank outside the communicator's group",
        )
    })?;
    Ok(Status { source, ..st })
}

/// What a send posts: a contiguous buffer, or the bytes a committed
/// datatype selects out of `memory`, gathered into the staging pool.
/// `'b` is the buffer's borrow; the type is only read at the post.
#[derive(Clone, Copy)]
pub(crate) enum SendBuf<'b, 't, T> {
    Slice(&'b [T]),
    Typed(&'t CommittedType, &'b [u8]),
}

/// One posted point-to-point operation, from its post to its completion.
/// `'buf` is the borrow of the caller's buffer, which the engine may write
/// (a receive) or a peer may read (a lent send) until the request is
/// collected. This is the one holder of that borrow: [`wait`](Self::wait)
/// collects the result or, when the wait itself fails, abandons the
/// request, and dropping a live one abandons it ([`Engine::abandon`]) — a
/// call that leaves early, say because the send beside its receive
/// failed, leaves no pointer into its buffer behind. A blocking call
/// borrows its communicator (`C = &Communicator`); a [`Request`] owns a
/// clone.
pub(crate) struct Posted<'buf, C: Borrow<Communicator>> {
    comm: C,
    id: u64,
    /// Not yet collected, cancelled or abandoned.
    live: bool,
    send: bool,
    /// What the op contributes to the send/recv health window.
    stamp: Stamp,
    _buf: PhantomData<&'buf mut [u8]>,
}

impl<C: Borrow<Communicator>> Posted<'_, C> {
    #[inline]
    fn inner(&self) -> &Inner {
        &self.comm.borrow().inner
    }

    /// Block until the operation completes: the one place a point-to-point
    /// call waits. The wait drains the device itself, or parks if another
    /// thread of the rank already does.
    #[inline]
    pub(crate) fn wait(&mut self) -> MpiResult<Status> {
        if !self.live {
            return Err(MpiError::RequestConsumed);
        }
        self.live = false;
        let st = self.inner().wait_request(self.id)?;
        self.complete(st)
    }

    /// A collected success: record the health window, localize the status.
    #[inline]
    fn complete(&self, st: Status) -> MpiResult<Status> {
        let inner = self.inner();
        inner
            .health
            .complete_op(self.stamp, self.send, || inner.device.now_ns());
        localize(&self.comm.borrow().group, st)
    }

    fn is_done(&self, eng: &Engine) -> bool {
        self.live && eng.reqs.get(self.id).is_some_and(ReqState::is_done)
    }
}

impl<C: Borrow<Communicator>> Drop for Posted<'_, C> {
    fn drop(&mut self) {
        if self.live {
            self.inner().eng.lock().abandon(self.id);
        }
    }
}

/// An in-flight nonblocking operation (`MPI_Request`). The lifetime ties it
/// to the buffer it reads from or writes into; dropping a request without
/// waiting blocks until it completes (receives must not dangle).
pub struct Request<'buf> {
    posted: Posted<'buf, Communicator>,
}

impl<'buf> Request<'buf> {
    /// Hand a posted operation over to a request, which outlives the call.
    #[inline]
    fn new(posted: Posted<'buf, &Communicator>) -> Self {
        let posted = std::mem::ManuallyDrop::new(posted);
        Request {
            posted: Posted {
                comm: Communicator::clone(posted.comm),
                id: posted.id,
                live: posted.live,
                send: posted.send,
                stamp: posted.stamp,
                _buf: PhantomData,
            },
        }
    }

    /// Cancel the operation if it is still local (an unmatched receive or
    /// a queued send).
    fn try_cancel(&mut self) -> bool {
        let cancelled = self.posted.inner().eng.lock().cancel(self.posted.id);
        self.posted.live &= !cancelled;
        cancelled
    }

    /// `MPI_Wait`: block until complete, consuming the request. If it is
    /// not complete yet, this thread drains the device itself (or parks,
    /// if another thread of the rank already does) — no polling.
    #[inline]
    pub fn wait(mut self) -> MpiResult<Status> {
        self.posted.wait()
    }

    /// `MPI_Test`: if complete, return the status (consuming the
    /// completion); otherwise `None`. Never blocks; handles what is queued
    /// at the device first, unless another thread is draining it.
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        if !self.posted.live {
            return Err(MpiError::RequestConsumed);
        }
        let inner = self.posted.inner();
        inner.poll()?;
        let taken = inner.eng.lock().reqs.take_if_done(self.posted.id);
        let Some(result) = taken else {
            return Ok(None);
        };
        self.posted.live = false;
        self.posted.complete(result?).map(Some)
    }

    /// `MPI_Cancel` + `MPI_Wait`: cancel if still local (unmatched receive
    /// or queued send). Returns `true` if cancelled; otherwise the request
    /// completes normally and `false` is returned.
    pub fn cancel(mut self) -> MpiResult<bool> {
        if !self.posted.live {
            return Err(MpiError::RequestConsumed);
        }
        if self.try_cancel() {
            return Ok(true);
        }
        self.posted.wait().map(|_| false)
    }

    /// Whether the request has already been consumed by `wait`/`test`.
    pub fn is_consumed(&self) -> bool {
        !self.posted.live
    }
}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        // A receive must complete (or be cancelled) before its buffer
        // borrow ends, or the engine would hold a dangling pointer; a send
        // may have lent its buffer. The wait abandons what it cannot
        // complete.
        if self.posted.live && !self.try_cancel() {
            let _ = self.posted.wait();
        }
    }
}

/// `MPI_Waitall`: wait for every request, preserving order.
pub fn wait_all(reqs: Vec<Request<'_>>) -> MpiResult<Vec<Status>> {
    reqs.into_iter().map(|r| r.wait()).collect()
}

/// `MPI_Waitany`: block until some request completes; returns its index and
/// status, removing it from the vector. An empty list is an error: nothing
/// could ever complete.
pub fn wait_any(reqs: &mut Vec<Request<'_>>) -> MpiResult<(usize, Status)> {
    let Some(first) = reqs.first() else {
        return Err(MpiError::Unsupported {
            what: "wait_any on an empty request list".into(),
        });
    };
    let inner = Arc::clone(&first.posted.comm.inner);
    // Find a completed request under the lock, then consume it through its
    // own handle so the consume path is shared with `test`.
    let i = inner.progress_until(|eng| reqs.iter().position(|r| r.posted.is_done(eng)))?;
    let st = reqs[i].test()?.expect("found complete under the lock");
    let _ = reqs.remove(i);
    Ok((i, st))
}

/// `MPI_Testall`: test every request; `Some` statuses only if *all* are
/// complete (none are consumed otherwise).
pub fn test_all(reqs: &mut [Request<'_>]) -> MpiResult<Option<Vec<Status>>> {
    let Some(first) = reqs.first() else {
        return Ok(Some(Vec::new()));
    };
    first.posted.inner().poll()?;
    let all_done = {
        let eng = first.posted.inner().eng.lock();
        reqs.iter().all(|r| r.posted.is_done(&eng))
    };
    if !all_done {
        return Ok(None);
    }
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs.iter_mut() {
        match r.test()? {
            Some(st) => out.push(st),
            None => unreachable!("checked done above"),
        }
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::device::loopback::Loopback;
    use crate::packet::{Envelope, Packet};

    /// The engine only checks that a frame's source rank exists, so a frame
    /// on a sub-communicator's context can come from a rank outside its
    /// group. The wildcard receive that matches it fails typed, naming the
    /// sender, instead of panicking in the status mapping.
    #[test]
    fn a_message_from_outside_the_group_is_a_typed_error() {
        let (ctx, tag) = (2, 7);
        let dev = Loopback::new(0, 3);
        dev.inject(Wire::bare(
            2,
            Packet::Eager {
                env: Envelope {
                    src: 2,
                    tag,
                    context: ctx,
                    len: 1,
                },
                send_id: 0,
                needs_ack: false,
                ready: false,
                data: Bytes::from_static(b"x"),
            },
        ));
        let mpi = Mpi::new(Box::new(dev), MpiConfig::device_defaults());
        let members = Arc::new(vec![0, 1]);
        let sub = Communicator::make(Arc::clone(&mpi.inner), ctx, ctx + 1, members, 0);
        let mut buf = [0u8];
        match sub.recv(&mut buf, SourceSel::Any, tag) {
            Err(MpiError::Transport { peer: Some(2), .. }) => {}
            other => panic!("expected a typed transport error from rank 2, got {other:?}"),
        }
    }
}
