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
//! role taken parks on a condvar until its request may have completed or
//! the role comes free. Virtual-time substrates (the simulated Meiko and
//! cluster models) have no progress thread — their cooperative scheduler
//! cannot tolerate a foreign thread — so there the role is the caller's.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use lmpi_obs::Tracer;
use lmpi_sim::lock::{Condvar, Mutex, MutexGuard};

use crate::config::MpiConfig;
use crate::datatype::MpiData;
use crate::device::{Cost, Device, TransportStats};
use crate::dtype::CommittedType;
use crate::engine::{Counters, Engine};
use crate::error::{MpiError, MpiResult};
use crate::metrics::MetricsSnapshot;
use crate::packet::{ContextId, Wire};
use crate::request::{RecvDest, ReqState};
use crate::types::{Rank, SendMode, SourceSel, Status, Tag, TagSel, TAG_UB};

/// How long the progress thread sleeps per iteration: in
/// [`Device::recv_timeout`] while it holds the drain role on an idle wire,
/// in `thread::park_timeout` while callers hold it. Bounds shutdown
/// latency and keeps the reliability sublayer's retransmit/heartbeat
/// pumps ticking on a silent wire.
const PROGRESS_TICK: Duration = Duration::from_micros(500);

/// The watchdog slice: how long a blocked caller sleeps — in the device
/// when it holds the drain role, on the condvar when it does not — before
/// it looks at its idle clock. No wake-up depends on it expiring (see
/// [`Inner::release`]).
const PARK_SLICE: Duration = Duration::from_millis(2);

pub(crate) struct Inner {
    pub(crate) device: Box<dyn Device>,
    pub(crate) eng: Mutex<Engine>,
    /// Signalled when protocol state advanced or the drain role came free
    /// while a caller was parked.
    done: Condvar,
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
    /// The progress thread, for [`Inner::resume_progress`] and shutdown.
    progress: OnceLock<std::thread::Thread>,
    /// Set while the progress thread is parked without the role. Whoever
    /// clears it owes the thread an `unpark`, which the thread reads as
    /// "resume now".
    yielded: AtomicBool,
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
    /// The one drain step, run by whoever holds the drain role: handle
    /// `wire` if there is one, move every peer-death verdict the
    /// transport's liveness machine has queued into the engine (idempotent
    /// per peer), and add what advanced to `epoch`. Returns that count,
    /// frames plus verdicts. `Err` is a frame that is impossible under
    /// loss-free FIFO delivery.
    // Inlined into its four callers: out of line, every frame paid a copy
    // of the ~15-word `Wire` into the argument (45 ns of `shm_small`'s
    // 5 µs round trip, ten of ten pairs).
    #[inline]
    fn drain_step(&self, eng: &mut Engine, wire: Option<Wire>) -> MpiResult<u64> {
        let mut advanced = 0;
        if let Some(wire) = wire {
            eng.handle_wire(&*self.device, wire)?;
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

    /// Handle every frame already queued at the device, without blocking.
    /// The caller holds the drain role. `Err` is a transport failure
    /// (device broke, or [`drain_step`](Self::drain_step) refused a frame).
    fn drain_queued(&self) -> MpiResult<()> {
        let mut handled = 0;
        loop {
            let wire = self.device.try_recv()?;
            let last = wire.is_none();
            handled += self.drain_step(&mut self.eng.lock(), wire)?;
            if last {
                break;
            }
        }
        if handled > 0 {
            self.run_metrics_hook();
        }
        Ok(())
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
        self.release(role, eng, 0);
        fatal.map_or(Ok(()), Err)
    }

    /// Give the drain role up, under the engine lock; `own` is 1 when the
    /// caller is itself counted in `inside`. A waiter decides "the role is
    /// taken" while it holds the engine lock, and its condvar wait releases
    /// that lock atomically, so every waiter either locks the engine after
    /// this drop and finds the role free, or is already waiting when the
    /// notification goes out: a release is never slept through.
    fn release(&self, role: MutexGuard<'_, ()>, eng: MutexGuard<'_, Engine>, own: u32) {
        drop(role);
        drop(eng);
        if self.inside.load(Ordering::Acquire) > own {
            self.done.notify_all();
        }
    }

    /// Make progress until `done` returns `Some`: take the drain role and
    /// handle frames inline, blocking in the device between them, or park
    /// on the condvar while another thread holds it. Either way the
    /// watchdog, if armed, bounds the wait.
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
                // A frame, or a peer declared dead instead: either way
                // loop, so `done` re-evaluates against what that completed.
                self.step_blocking()?;
                self.run_metrics_hook();
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
    fn block_until<T>(
        &self,
        mut eng: MutexGuard<'_, Engine>,
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
            self.done.wait_for(&mut eng, PARK_SLICE);
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
            let wire = self.device.recv_timeout(PARK_SLICE);
            let mut eng = self.eng.lock();
            let step = match wire.and_then(|w| self.drain_step(&mut eng, w)) {
                Ok(0) => self.idle_check(&mut timer),
                Ok(_) => Ok(()),
                Err(e) => Err(eng.fatal.get_or_insert(e).clone()),
            };
            if let Err(e) = step {
                self.release(role, eng, 1);
                return Err(e);
            }
            // A due metrics hook fires once the lock is released.
            let hook = eng.pending_snapshot(&*self.device);
            if let Some(v) = done(&mut eng) {
                self.release(role, eng, 1);
                if let Some((snap, cb)) = hook {
                    (cb.lock())(&snap);
                }
                return Ok(v);
            }
            drop(eng);
            // The frame may have completed another caller's request.
            if self.inside.load(Ordering::Acquire) > 1 {
                self.done.notify_all();
            }
            if let Some((snap, cb)) = hook {
                (cb.lock())(&snap);
            }
        }
    }

    /// Update a blocked caller's watchdog — the last progress epoch it saw
    /// and when (device clock) — after a slice that brought it nothing:
    /// progress by anyone restarts the idle clock; a silent wire past the
    /// armed deadline becomes a typed [`MpiError::Timeout`].
    fn idle_check(&self, timer: &mut Option<(u64, f64)>) -> MpiResult<()> {
        let Some(limit_us) = self.watchdog_us else {
            return Ok(());
        };
        let (epoch, now) = (self.epoch.load(Ordering::Acquire), self.device.wtime());
        match *timer {
            Some((last_epoch, idle_since)) if last_epoch == epoch => {
                let waited_us = (now - idle_since) * 1e6;
                if waited_us >= limit_us as f64 {
                    return Err(MpiError::Timeout {
                        waited_us: waited_us as u64,
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
    /// two later. One flag load per post; a syscall only if it is parked.
    fn resume_progress(&self, eng: &Engine, id: u64) {
        if self.yielded.load(Ordering::Acquire)
            && !eng.reqs.get(id).is_some_and(ReqState::is_done)
            && self.yielded.swap(false, Ordering::AcqRel)
        {
            if let Some(thread) = self.progress.get() {
                thread.unpark();
            }
        }
    }

    /// Block until one drain step advances: a frame was handled, or the
    /// transport reported a peer death and the engine has been told
    /// (virtual-time ranks only). With the watchdog armed, a silent wire
    /// becomes a typed [`MpiError::Timeout`] instead of an eternal hang.
    /// Both the watchdog and failure detection poll rather than park (the
    /// reliability sublayer's retransmit/heartbeat pump runs from
    /// `try_recv`), but through a bounded spin-then-yield backoff rather
    /// than a hot loop; the parked fast path is kept only for devices that
    /// do neither.
    fn step_blocking(&self) -> MpiResult<()> {
        if self.watchdog_us.is_none() && !self.device.detects_failures() {
            let wire = self.device.recv_blocking()?;
            self.drain_step(&mut self.eng.lock(), Some(wire))?;
            return Ok(());
        }
        let t0 = self.device.wtime();
        let mut spins: u32 = 0;
        loop {
            let wire = self.device.try_recv()?;
            if self.drain_step(&mut self.eng.lock(), wire)? > 0 {
                return Ok(());
            }
            if let Some(limit_us) = self.watchdog_us {
                let waited_us = (self.device.wtime() - t0) * 1e6;
                if waited_us >= limit_us as f64 {
                    return Err(MpiError::Timeout {
                        waited_us: waited_us as u64,
                        context: "progress loop saw no incoming frame".into(),
                    });
                }
            }
            poll_backoff(&mut spins);
        }
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

    /// Fire the periodic metrics hook if due. Must be called while the
    /// engine lock is **not** held: the snapshot is taken under a short
    /// lock, the callback runs after release — so the hook may call back
    /// into this rank's API.
    pub(crate) fn run_metrics_hook(&self) {
        let pending = self.eng.lock().pending_snapshot(&*self.device);
        if let Some((snap, cb)) = pending {
            (cb.lock())(&snap);
        }
    }
}

/// Bounded spin-then-yield backoff for caller-driven polling loops: a
/// short burst of pause hints covers the common sub-microsecond arrival
/// gap, then every further iteration yields the core. No real-time sleeps
/// — on virtual-time substrates they would stall the cooperative
/// scheduler's wall-clock progress without advancing the virtual clock.
fn poll_backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        for _ in 0..*spins {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

/// Record `err` as the rank's fatal transport error (first error wins) and
/// wake every parked waiter to observe it. Waiters look at `fatal` before
/// they look at the role, so a holder that fails needs no hand-over.
fn record_fatal(inner: &Inner, mut eng: MutexGuard<'_, Engine>, err: MpiError) {
    if eng.fatal.is_none() {
        eng.fatal = Some(err);
    }
    drop(eng);
    inner.epoch.fetch_add(1, Ordering::AcqRel);
    inner.done.notify_all();
}

/// The background progress loop: the device's consumer while no caller is
/// inside the library. Each iteration first settles who drains. With a
/// caller inside it gives the role up ([`Inner::release`]) and parks for a
/// tick; it takes the role back once nobody is inside and either nobody
/// drained during the last tick (`epoch` stood still — so a tick landing
/// between a caller's `send` returning and its `recv` entering does not
/// steal that round trip) or a poster asked ([`Inner::resume_progress`]).
/// Holding the role it drains queued frames and peer-failure verdicts and
/// parks in [`Device::recv_timeout`] while idle. Transport errors are
/// parked in [`Engine::fatal`] for waiters — this thread has nowhere else
/// to report them — and end the loop.
///
/// With live health enabled, the loop classifies its entire wall time
/// into the four [`lmpi_obs::TimeBucket`]s via contiguous clock segments
/// (`mark` is the end of the previously credited segment, so the buckets
/// sum to the covered wall time by construction): device polling →
/// `Poll`, contended engine-lock acquisition → `LockWait`, frame handling
/// → `Drain`, the idle `recv_timeout` tick and every yielded tick →
/// `Park`. Yielded time moves `mark`, so it never enters the
/// wakeup-to-drain samples (work noticed → first frame handled). The
/// periodic diagnostics run on idle and yielded ticks. With health
/// disabled, every accounting line is one branch and no clock is read.
fn progress_loop(inner: &Inner) {
    use lmpi_obs::TimeBucket::{Drain, LockWait, Park, Poll};

    use crate::health::credit_segment;

    let _ = inner.progress.set(std::thread::current());
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
        let advanced = match inner.drain_step(&mut eng, Some(wire)) {
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
            if let Some(role) = role.take() {
                inner.release(role, inner.eng.lock(), 0);
            }
        } else if role.is_none() && (asked || seen == inner.epoch.load(Ordering::Acquire)) {
            role = inner.drain.try_lock();
        }
        if role.is_none() {
            seen = inner.epoch.load(Ordering::Acquire);
            inner.yielded.store(true, Ordering::Release);
            std::thread::park_timeout(PROGRESS_TICK);
            asked = !inner.yielded.swap(false, Ordering::AcqRel);
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
            .drain_step(&mut inner.eng.lock(), None)
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
            // prompt and wrapper-device pumps (retransmits, heartbeats)
            // keep running off the `try_recv` path above.
            match inner.device.recv_timeout(PROGRESS_TICK) {
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
            inner.run_metrics_hook();
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
        let health = crate::health::HealthState::new(
            config.health.unwrap_or(true),
            config
                .health_eval_period_us
                .map(|us| us.saturating_mul(1_000))
                .unwrap_or(crate::health::DEFAULT_EVAL_PERIOD_NS),
        );
        let inner = Arc::new(Inner {
            device,
            eng: Mutex::new(eng),
            done: Condvar::new(),
            watchdog_us: config.progress_timeout_us,
            drain: Mutex::new(()),
            inside: AtomicU32::new(0),
            progress: OnceLock::new(),
            yielded: AtomicBool::new(false),
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
        self.inner.device.wtime()
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
    /// `match_bins_hwm`) are folded in here so callers see one coherent
    /// snapshot.
    pub fn counters(&self) -> Counters {
        self.inner.eng.lock().folded_counters()
    }

    /// Build a point-in-time [`MetricsSnapshot`]: folded counters plus the
    /// device stack's [`TransportStats`], stamped with the device clock.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.eng.lock().metrics_snapshot(&*self.inner.device)
    }

    /// Install a periodic metrics hook: `cb` fires from frame handling
    /// whenever at least `every_ns` device-clock nanoseconds have passed
    /// since the previous firing. One hook per rank; installing again
    /// replaces it. The hook fires on whichever thread handled the frame:
    /// a blocked caller, or the background progress thread.
    ///
    /// The snapshot is taken under the engine lock but the hook is
    /// invoked **after the lock is released**, so the callback may call
    /// back into this rank's API (e.g. [`Mpi::counters`] or
    /// [`Mpi::health`]) to enrich what it exports. It should still not
    /// block on MPI *completion* calls — it runs on whichever thread
    /// drives progress, and waiting there would stall that progress.
    pub fn set_metrics_hook(
        &self,
        every_ns: u64,
        cb: impl FnMut(&MetricsSnapshot) + Send + 'static,
    ) {
        self.inner
            .eng
            .lock()
            .set_metrics_hook(&*self.inner.device, every_ns, Box::new(cb));
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

    /// Cumulative reliability / fault-injection statistics from the device
    /// stack under this rank (zeroes for plain transports).
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
    /// [`MetricsServer::addr`]). Serves the Prometheus text rendering at
    /// `/metrics` (all [`MetricsSnapshot`] families plus the
    /// `lmpi_health_*` / `lmpi_window_*` families) and the
    /// [`HealthReport`] JSON at `/health`. The server holds only a weak
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
            handle.thread().unpark();
            let _ = handle.join();
            // Surviving Communicator/Request handles drain for themselves;
            // wake any that saw the thread holding the role (engine-lock
            // barrier as in `Inner::release`).
            drop(self.inner.eng.lock());
            self.inner.done.notify_all();
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
        self.inner.device.wtime()
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

    pub(crate) fn local(&self, global: Rank) -> Rank {
        self.group
            .iter()
            .position(|&g| g == global)
            .expect("message from rank outside communicator group")
    }

    fn check_tag(tag: Tag) -> MpiResult<()> {
        if tag > TAG_UB {
            Err(MpiError::InvalidTag(tag as i32))
        } else {
            Ok(())
        }
    }

    pub(crate) fn localize(&self, st: Status) -> Status {
        Status {
            source: self.local(st.source),
            ..st
        }
    }

    fn src_sel(&self, src: SourceSel) -> MpiResult<SourceSel> {
        Ok(match src {
            SourceSel::Any => SourceSel::Any,
            SourceSel::Rank(local) => SourceSel::Rank(self.global(local)?),
        })
    }

    fn take_pending_error(&self) -> MpiResult<()> {
        match self.inner.eng.lock().pending_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
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
    // Blocking point-to-point
    // ------------------------------------------------------------------

    pub(crate) fn send_mode<T: MpiData>(
        &self,
        buf: &[T],
        dst: Rank,
        tag: Tag,
        mode: SendMode,
        ctx: ContextId,
    ) -> MpiResult<()> {
        Self::check_tag(tag)?;
        self.check_not_revoked()?;
        self.take_pending_error()?;
        let dst_g = self.global(dst)?;
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let mut eng = self.inner.lock_eng();
        // SAFETY: `wait_request` below hands the request's result back or
        // abandons it, and `buf` is borrowed until this function returns.
        let id = unsafe { eng.post_send_slice(&*self.inner.device, dst_g, tag, ctx, buf, mode) }?;
        drop(eng);
        self.inner.wait_request(id)?;
        if let Some(t0) = t0 {
            let now = self.inner.device.now_ns();
            self.inner.health.record_send(now, now.saturating_sub(t0));
        }
        Ok(())
    }

    /// `MPI_Send`: standard mode. Eager below the threshold (optimistic,
    /// buffered at the receiver), rendezvous above.
    pub fn send<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(buf, dst, tag, SendMode::Standard, self.ctx)
    }

    /// `MPI_Bsend`: buffered mode; fails with `BufferOverflow` when the
    /// attached buffer can't hold the message.
    pub fn bsend<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(buf, dst, tag, SendMode::Buffered, self.ctx)
    }

    /// `MPI_Ssend`: synchronous mode; returns only after the receive
    /// matched.
    pub fn ssend<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(buf, dst, tag, SendMode::Synchronous, self.ctx)
    }

    /// `MPI_Rsend`: ready mode; the caller asserts the receive is already
    /// posted, so data always travels with the envelope.
    pub fn rsend<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(buf, dst, tag, SendMode::Ready, self.ctx)
    }

    /// `MPI_Recv`: blocking receive into `buf`. Accepts `usize` ranks /
    /// `u32` tags or the wildcard selectors.
    pub fn recv<T: MpiData>(
        &self,
        buf: &mut [T],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<Status> {
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let st = self
            .post_recv_raw(buf, src.into(), tag.into(), self.ctx)?
            .wait()?;
        if let Some(t0) = t0 {
            let now = self.inner.device.now_ns();
            self.inner.health.record_recv(now, now.saturating_sub(t0));
        }
        Ok(self.localize(st))
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

    pub(crate) fn post_recv_raw<T: MpiData>(
        &self,
        buf: &mut [T],
        src: SourceSel,
        tag: TagSel,
        ctx: ContextId,
    ) -> MpiResult<PostedRecv<'_>> {
        if let TagSel::Tag(t) = tag {
            Self::check_tag(t)?;
        }
        self.check_not_revoked()?;
        self.take_pending_error()?;
        let src = self.src_sel(src)?;
        let dst = RecvDest::contiguous(buf.as_mut_ptr() as *mut u8, std::mem::size_of_val(buf));
        let id = self
            .inner
            .lock_eng()
            .post_recv(&*self.inner.device, dst, src, tag, ctx);
        Ok(PostedRecv {
            inner: &self.inner,
            id,
        })
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
        let posted = self.post_recv_raw(recvbuf, src.into(), recv_tag.into(), self.ctx)?;
        self.send(sendbuf, dst, send_tag)?;
        Ok(self.localize(posted.wait()?))
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point
    // ------------------------------------------------------------------

    fn isend_mode<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
        mode: SendMode,
    ) -> MpiResult<Request<'a>> {
        Self::check_tag(tag)?;
        self.check_not_revoked()?;
        self.take_pending_error()?;
        let dst_g = self.global(dst)?;
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let mut eng = self.inner.lock_eng();
        // SAFETY: the `Request<'a>` returned below holds `buf`'s borrow,
        // and each way out of it — `wait`, `test`, `cancel`, drop —
        // collects, cancels or abandons the request first.
        let id =
            unsafe { eng.post_send_slice(&*self.inner.device, dst_g, tag, self.ctx, buf, mode) }?;
        self.inner.resume_progress(&eng, id);
        drop(eng);
        Ok(self.request(id, t0.map(|t| (WinKind::Send, t))))
    }

    /// `MPI_Isend`.
    pub fn isend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(buf, dst, tag, SendMode::Standard)
    }

    /// `MPI_Ibsend`.
    pub fn ibsend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(buf, dst, tag, SendMode::Buffered)
    }

    /// `MPI_Issend`.
    pub fn issend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(buf, dst, tag, SendMode::Synchronous)
    }

    /// `MPI_Irsend`.
    pub fn irsend<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<Request<'a>> {
        self.isend_mode(buf, dst, tag, SendMode::Ready)
    }

    /// `MPI_Irecv`: nonblocking receive. The returned request borrows `buf`
    /// until waited on (or dropped, which waits).
    pub fn irecv<'a, T: MpiData>(
        &self,
        buf: &'a mut [T],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<Request<'a>> {
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let id = self
            .post_recv_raw(buf, src.into(), tag.into(), self.ctx)?
            .into_id();
        Ok(self.request(id, t0.map(|t| (WinKind::Recv, t))))
    }

    // ------------------------------------------------------------------
    // Typed point-to-point: zero-copy derived-datatype transfers
    // ------------------------------------------------------------------

    /// Post the typed send under the engine lock: gather the layout's
    /// runs straight into the reusable staging pool (no intermediate
    /// `Vec` — the typed analogue of `stage_payload`) and hand the frozen
    /// bytes to the protocol.
    fn post_send_typed(
        &self,
        ty: &CommittedType,
        memory: &[u8],
        dst: Rank,
        tag: Tag,
        mode: SendMode,
    ) -> MpiResult<u64> {
        Self::check_tag(tag)?;
        self.check_not_revoked()?;
        self.take_pending_error()?;
        ty.layout().fits(memory.len())?;
        let dst_g = self.global(dst)?;
        let mut eng = self.inner.lock_eng();
        let data = eng.stage_gather(ty.layout(), memory);
        eng.post_send(&*self.inner.device, dst_g, tag, self.ctx, data, mode)
    }

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
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let id = self.post_send_typed(ty, memory, dst, tag, SendMode::Standard)?;
        self.inner.wait_request(id)?;
        if let Some(t0) = t0 {
            let now = self.inner.device.now_ns();
            self.inner.health.record_send(now, now.saturating_sub(t0));
        }
        Ok(())
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
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let id = self.post_send_typed(ty, memory, dst, tag, SendMode::Standard)?;
        self.inner.resume_progress(&self.inner.eng.lock(), id);
        Ok(self.request(id, t0.map(|t| (WinKind::Send, t))))
    }

    /// Post the typed receive: the committed layout rides inside the
    /// request's destination, so eager payloads scatter on delivery and
    /// every rendezvous chunk scatters at its offset directly into the
    /// non-contiguous buffer — no contiguous staging on this end either.
    fn post_recv_typed(
        &self,
        ty: &CommittedType,
        memory: &mut [u8],
        src: SourceSel,
        tag: TagSel,
    ) -> MpiResult<u64> {
        if let TagSel::Tag(t) = tag {
            Self::check_tag(t)?;
        }
        self.check_not_revoked()?;
        self.take_pending_error()?;
        let flat = ty.layout();
        flat.fits(memory.len())?;
        if flat.overlapping() {
            return Err(MpiError::Unsupported {
                what: "receiving into a datatype whose runs overlap in memory \
                       (the scatter result would be ill-defined)"
                    .to_string(),
            });
        }
        let src = self.src_sel(src)?;
        let dst = RecvDest::typed(memory.as_mut_ptr(), ty.shared());
        Ok(self
            .inner
            .lock_eng()
            .post_recv(&*self.inner.device, dst, src, tag, self.ctx))
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
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let id = self.post_recv_typed(ty, memory, src.into(), tag.into())?;
        let st = self.inner.wait_request(id)?;
        if let Some(t0) = t0 {
            let now = self.inner.device.now_ns();
            self.inner.health.record_recv(now, now.saturating_sub(t0));
        }
        Ok(self.localize(st))
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
        let t0 = self
            .inner
            .health
            .enabled
            .then(|| self.inner.device.now_ns());
        let id = self.post_recv_typed(ty, memory, src.into(), tag.into())?;
        Ok(self.request(id, t0.map(|t| (WinKind::Recv, t))))
    }

    fn request<'a>(&self, id: u64, win: Option<(WinKind, u64)>) -> Request<'a> {
        Request {
            state: ReqHandle::Active(id),
            inner: self.inner.clone(),
            group: self.group.clone(),
            win,
            _buf: PhantomData,
        }
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
        Ok(self.localize(st))
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
        Ok(st.map(|s| self.localize(s)))
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

/// A receive posted on a raw pointer by a call that waits for it before it
/// returns. If the call leaves early instead — the send beside it failed —
/// dropping this [abandons](Engine::abandon) the receive, so the engine
/// never keeps a pointer into a buffer whose borrow has ended.
pub(crate) struct PostedRecv<'c> {
    inner: &'c Inner,
    id: u64,
}

impl PostedRecv<'_> {
    /// Block until the receive completes.
    pub(crate) fn wait(self) -> MpiResult<Status> {
        self.inner.wait_request(self.into_id())
    }

    /// Hand the request over to an owner that waits or abandons itself.
    fn into_id(self) -> u64 {
        std::mem::ManuallyDrop::new(self).id
    }
}

impl Drop for PostedRecv<'_> {
    fn drop(&mut self) {
        self.inner.eng.lock().abandon(self.id);
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ReqHandle {
    Active(u64),
    Consumed,
}

/// Which sliding-window histogram a completed request feeds.
#[derive(Copy, Clone, Debug)]
pub(crate) enum WinKind {
    Send,
    Recv,
}

/// An in-flight nonblocking operation (`MPI_Request`). The lifetime ties it
/// to the buffer it reads from or writes into; dropping a request without
/// waiting blocks until it completes (receives must not dangle).
pub struct Request<'buf> {
    state: ReqHandle,
    inner: Arc<Inner>,
    group: Arc<Vec<Rank>>,
    /// Post timestamp for sliding-window completion latency; `None` when
    /// health accounting is disabled. Credited on `wait`/`test` success
    /// only — a cancelled or dropped request never completes a transfer.
    win: Option<(WinKind, u64)>,
    _buf: PhantomData<&'buf mut [u8]>,
}

impl Request<'_> {
    fn record_window(&self) {
        if let Some((kind, t0)) = self.win {
            let now = self.inner.device.now_ns();
            let dur = now.saturating_sub(t0);
            match kind {
                WinKind::Send => self.inner.health.record_send(now, dur),
                WinKind::Recv => self.inner.health.record_recv(now, dur),
            }
        }
    }
    fn localize(&self, st: Status) -> Status {
        // Send-request statuses carry no meaningful source; map receives.
        match self.group.iter().position(|&g| g == st.source) {
            Some(local) => Status {
                source: local,
                ..st
            },
            None => st,
        }
    }

    /// `MPI_Wait`: block until complete, consuming the request. If it is
    /// not complete yet, this thread drains the device itself (or parks,
    /// if another thread of the rank already does) — no polling.
    pub fn wait(mut self) -> MpiResult<Status> {
        match std::mem::replace(&mut self.state, ReqHandle::Consumed) {
            ReqHandle::Active(id) => {
                let st = self.inner.wait_request(id)?;
                self.record_window();
                Ok(self.localize(st))
            }
            ReqHandle::Consumed => Err(MpiError::RequestConsumed),
        }
    }

    /// `MPI_Test`: if complete, return the status (consuming the
    /// completion); otherwise `None`. Never blocks; handles what is queued
    /// at the device first, unless another thread is draining it.
    pub fn test(&mut self) -> MpiResult<Option<Status>> {
        let ReqHandle::Active(id) = self.state else {
            return Err(MpiError::RequestConsumed);
        };
        self.inner.poll()?;
        match self.inner.eng.lock().reqs.take_if_done(id) {
            Some(result) => {
                self.state = ReqHandle::Consumed;
                if result.is_ok() {
                    self.record_window();
                }
                result.map(|st| Some(self.localize(st)))
            }
            None => Ok(None),
        }
    }

    /// `MPI_Cancel` + `MPI_Wait`: cancel if still local (unmatched receive
    /// or queued send). Returns `true` if cancelled; otherwise the request
    /// completes normally and `false` is returned.
    pub fn cancel(mut self) -> MpiResult<bool> {
        match std::mem::replace(&mut self.state, ReqHandle::Consumed) {
            ReqHandle::Active(id) => {
                if self.inner.eng.lock().cancel(id) {
                    Ok(true)
                } else {
                    self.inner.wait_request(id)?;
                    Ok(false)
                }
            }
            ReqHandle::Consumed => Err(MpiError::RequestConsumed),
        }
    }

    /// Whether the request has already been consumed by `wait`/`test`.
    pub fn is_consumed(&self) -> bool {
        self.state == ReqHandle::Consumed
    }
}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        if let ReqHandle::Active(id) = self.state {
            // A receive must complete (or be cancelled) before its buffer
            // borrow ends, or the engine would hold a dangling pointer; a
            // send may have lent its buffer. `wait_request` abandons what
            // it cannot complete.
            if !self.inner.eng.lock().cancel(id) {
                let _ = self.inner.wait_request(id);
            }
        }
    }
}

/// `MPI_Waitall`: wait for every request, preserving order.
pub fn wait_all(reqs: Vec<Request<'_>>) -> MpiResult<Vec<Status>> {
    reqs.into_iter().map(|r| r.wait()).collect()
}

/// `MPI_Waitany`: block until some request completes; returns its index and
/// status, removing it from the vector.
pub fn wait_any(reqs: &mut Vec<Request<'_>>) -> MpiResult<(usize, Status)> {
    assert!(!reqs.is_empty(), "wait_any on empty request list");
    let inner = reqs[0].inner.clone();
    // Find a completed request under the lock, then consume it through its
    // own handle so the consume path is shared with `test`.
    let i = inner.progress_until(|eng| {
        reqs.iter().position(|r| match r.state {
            ReqHandle::Active(id) => eng.reqs.get(id).is_some_and(ReqState::is_done),
            ReqHandle::Consumed => false,
        })
    })?;
    let st = reqs[i].test()?.expect("found complete under the lock");
    let _ = reqs.remove(i);
    Ok((i, st))
}

/// `MPI_Testall`: test every request; `Some` statuses only if *all* are
/// complete (none are consumed otherwise).
pub fn test_all(reqs: &mut [Request<'_>]) -> MpiResult<Option<Vec<Status>>> {
    if reqs.is_empty() {
        return Ok(Some(Vec::new()));
    }
    reqs[0].inner.poll()?;
    {
        let eng = reqs[0].inner.eng.lock();
        let all_done = reqs.iter().all(|r| match r.state {
            ReqHandle::Active(id) => eng.reqs.get(id).is_some_and(ReqState::is_done),
            ReqHandle::Consumed => false,
        });
        if !all_done {
            return Ok(None);
        }
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
