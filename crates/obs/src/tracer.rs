//! The `Tracer` handle and its per-rank event ring.
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled must be (almost) free.** Every emission site sits on the
//!    protocol hot path, and the acceptance bar is ≤ 3% overhead with
//!    tracing off. A disabled `Tracer` is `Tracer(None)`: emission is one
//!    branch, and — crucially — the *timestamp is never taken*, because
//!    [`Tracer::emit_with`] receives the clock reading as a closure.
//! 2. **Bounded memory.** The ring overwrites its oldest entry when full
//!    and counts what it dropped, so a forgotten tracer can never OOM a
//!    long run; the drop count makes truncation visible instead of silent.
//! 3. **Cloneable.** Devices are moved into `Mpi::new`, so the caller
//!    installs a clone and keeps one to snapshot after the run. Clones
//!    share the ring via `Arc`.

use lmpi_sim::lock::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

use crate::event::{Event, EventKind, MsgId};

/// Next process-local thread id to hand out (0 is "unassigned").
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Registry of (tid, thread name) pairs, appended once per thread on its
/// first [`current_tid`] call. The Chrome exporter reads it to emit
/// `thread_name` metadata records.
static THREAD_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Small process-local id of the calling thread, assigned densely in
/// first-use order (starting at 1). The first call on each thread also
/// registers the thread's name (or `thread-{tid}` for unnamed threads)
/// for [`thread_names`]. Subsequent calls are a thread-local read.
#[inline]
pub fn current_tid() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        let id = NEXT_TID.fetch_add(1, Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{id}"));
        THREAD_NAMES.lock().push((id, name));
        c.set(id);
        id
    })
}

/// All (tid, name) pairs registered so far, in first-use order.
pub fn thread_names() -> Vec<(u32, String)> {
    THREAD_NAMES.lock().clone()
}

/// Overwriting ring of events. `head` points at the oldest entry once the
/// ring has wrapped.
struct Ring {
    buf: Vec<Event>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events oldest-first.
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

struct Shared {
    rank: u32,
    ring: Mutex<Ring>,
}

/// A cloneable handle for emitting protocol events into a per-rank ring.
///
/// The default ([`Tracer::disabled`]) records nothing and costs one branch
/// per emission. [`Tracer::enabled`] allocates a ring of the given
/// capacity; all clones share it.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Shared>>);

/// A snapshot of one rank's event stream, oldest-first.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    /// Rank the events were recorded on.
    pub rank: u32,
    /// Events in emission order.
    pub events: Vec<Event>,
    /// How many older events were overwritten because the ring was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A recording tracer for `rank` with room for `capacity` events
    /// (oldest overwritten beyond that). Capacity is clamped to ≥ 1.
    pub fn enabled(rank: u32, capacity: usize) -> Self {
        Tracer(Some(Arc::new(Shared {
            rank,
            ring: Mutex::new(Ring::new(capacity.max(1))),
        })))
    }

    /// Whether emissions are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Rank this tracer records for, if enabled.
    pub fn rank(&self) -> Option<u32> {
        self.0.as_ref().map(|s| s.rank)
    }

    /// Emit `kind`, reading the clock only if recording. This is the hot
    /// path form: `now` is typically `|| dev.now_ns()`.
    #[inline]
    pub fn emit_with(&self, now: impl FnOnce() -> u64, kind: EventKind) {
        self.emit_msg_with(MsgId::NONE, now, kind);
    }

    /// Emit `kind` with an already-taken timestamp.
    #[inline]
    pub fn emit_at(&self, t_ns: u64, kind: EventKind) {
        self.emit_msg_at(t_ns, MsgId::NONE, kind);
    }

    /// [`Tracer::emit_with`] tagged with the message the event belongs to.
    #[inline]
    pub fn emit_msg_with(&self, msg: MsgId, now: impl FnOnce() -> u64, kind: EventKind) {
        if let Some(shared) = &self.0 {
            let t_ns = now();
            let tid = current_tid();
            shared.ring.lock().push(Event {
                t_ns,
                tid,
                msg,
                kind,
            });
        }
    }

    /// [`Tracer::emit_at`] tagged with the message the event belongs to.
    #[inline]
    pub fn emit_msg_at(&self, t_ns: u64, msg: MsgId, kind: EventKind) {
        if let Some(shared) = &self.0 {
            let tid = current_tid();
            shared.ring.lock().push(Event {
                t_ns,
                tid,
                msg,
                kind,
            });
        }
    }

    /// Copy out the recorded events, oldest-first. Returns an empty
    /// buffer (rank 0, no events) for a disabled tracer.
    pub fn snapshot(&self) -> TraceBuffer {
        match &self.0 {
            Some(shared) => {
                let ring = shared.ring.lock();
                TraceBuffer {
                    rank: shared.rank,
                    events: ring.ordered(),
                    dropped: ring.dropped,
                }
            }
            None => TraceBuffer {
                rank: 0,
                events: Vec::new(),
                dropped: 0,
            },
        }
    }

    /// Discard all recorded events (the drop counter resets too).
    pub fn clear(&self) {
        if let Some(shared) = &self.0 {
            let mut ring = shared.ring.lock();
            let cap = ring.cap;
            *ring = Ring::new(cap);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(s) => write!(f, "Tracer(rank {}, enabled)", s.rank),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketKind;

    fn ev(peer: u32) -> EventKind {
        EventKind::WireTx {
            peer,
            kind: PacketKind::Eager,
            bytes: 1,
        }
    }

    #[test]
    fn disabled_tracer_never_reads_clock() {
        let t = Tracer::disabled();
        t.emit_with(|| panic!("clock read on disabled tracer"), ev(0));
        assert!(!t.is_enabled());
        assert!(t.snapshot().events.is_empty());
    }

    #[test]
    fn records_in_order_and_shares_between_clones() {
        let t = Tracer::enabled(3, 16);
        let t2 = t.clone();
        t.emit_at(10, ev(1));
        t2.emit_at(20, ev(2));
        let snap = t.snapshot();
        assert_eq!(snap.rank, 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].t_ns, 10);
        assert_eq!(snap.events[1].t_ns, 20);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::enabled(0, 4);
        for i in 0..7u64 {
            t.emit_at(i, ev(i as u32));
        }
        let snap = t.snapshot();
        assert_eq!(snap.dropped, 3);
        let ts: Vec<u64> = snap.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![3, 4, 5, 6]);
    }

    #[test]
    fn clear_resets_ring_and_drop_count() {
        let t = Tracer::enabled(0, 2);
        for i in 0..5u64 {
            t.emit_at(i, ev(0));
        }
        t.clear();
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
        t.emit_at(99, ev(0));
        assert_eq!(t.snapshot().events.len(), 1);
    }

    #[test]
    fn emit_with_reads_clock_when_enabled() {
        let t = Tracer::enabled(0, 4);
        t.emit_with(|| 42, ev(0));
        assert_eq!(t.snapshot().events[0].t_ns, 42);
    }

    #[test]
    fn events_carry_the_emitting_thread_id() {
        let t = Tracer::enabled(0, 8);
        t.emit_at(1, ev(0));
        let here = current_tid();
        let t2 = t.clone();
        let other = std::thread::Builder::new()
            .name("tracer-test-helper".into())
            .spawn(move || {
                t2.emit_at(2, ev(0));
                current_tid()
            })
            .unwrap()
            .join()
            .unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.events[0].tid, here);
        assert_eq!(snap.events[1].tid, other);
        assert_ne!(here, other);
        let names = thread_names();
        assert!(names.iter().any(|(id, _)| *id == here));
        assert!(names
            .iter()
            .any(|(id, n)| *id == other && n == "tracer-test-helper"));
    }

    #[test]
    fn msg_tag_is_recorded_and_untagged_events_carry_none() {
        let t = Tracer::enabled(0, 4);
        t.emit_at(1, ev(0));
        t.emit_msg_at(2, MsgId { src: 3, seq: 7 }, ev(0));
        t.emit_msg_with(MsgId { src: 1, seq: 2 }, || 3, ev(0));
        let snap = t.snapshot();
        assert_eq!(snap.events[0].msg, MsgId::NONE);
        assert!(!snap.events[0].msg.is_some());
        assert_eq!(snap.events[1].msg, MsgId { src: 3, seq: 7 });
        assert!(snap.events[1].msg.is_some());
        assert_eq!(snap.events[2].msg, MsgId { src: 1, seq: 2 });
    }
}
