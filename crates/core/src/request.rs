//! Request table: the state machine of every in-flight nonblocking
//! operation.
//!
//! Blocking calls are nonblocking calls plus an immediate wait, exactly as
//! in MPICH's layering, so everything funnels through here: each
//! point-to-point call posts one request (`Communicator::post_send` or
//! `post_recv`) and waits on it through the one `Posted` operation in
//! `mpi.rs`, which holds the caller's buffer borrow for as long as the
//! engine may reach the buffer through a [`RecvDest`] or a [`Lease`].

use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{AcqRel, Relaxed};
use std::sync::Arc;

use lmpi_sim::lock::{Mutex, MutexGuard, Sleepers};

use crate::dtype::FlatLayout;
use crate::error::{MpiError, MpiResult};
use crate::types::Status;

/// Where a receive delivers its payload: a contiguous buffer, or a
/// non-contiguous layout scattered through a committed datatype's iovec
/// runs (the typed zero-copy path — each arriving chunk lands at its
/// offset in the posted layout, never in a staging buffer).
///
/// # Safety contract
/// The pointer originates from a `&mut [u8]` whose borrow is held for the
/// lifetime of the owning `Posted` operation in `mpi.rs` (enforced by its
/// lifetime parameter, which a public `Request` carries, by its drop
/// abandoning the request, and by `Request::drop` blocking until
/// completion). The engine writes through it before marking the request
/// done — at most once per byte range (a chunked rendezvous writes each
/// disjoint chunk once; typed receives reject overlapping layouts at post
/// time) — while holding the rank's engine mutex, or, for a payload
/// pulled out of a [`Lease`], as one claimed chunk each by the threads
/// that copy it, while the request waits in `RecvPulling` for the lease to
/// be pulled. The application thread never touches the buffer between
/// posting the receive and observing completion (the borrow forbids it),
/// so moving the pointer to another thread creates no aliasing: all
/// writes happen-before the completion the waiter reads under the engine
/// mutex (a pulled chunk through the lease's counter and lock). The
/// poster guarantees the buffer is writable for `cap` bytes
/// (contiguous) or the layout's `mem_span()` bytes (typed — validated
/// against the buffer length via `FlatLayout::fits` before posting).
#[derive(Debug, Clone)]
pub(crate) struct RecvDest {
    pub ptr: *mut u8,
    /// Capacity in *message* (packed) bytes: the buffer length for a
    /// contiguous destination, the layout's packed size for a typed one.
    /// The engine's truncation verdicts compare message totals against
    /// this, identically for both shapes.
    pub cap: usize,
    /// Scatter layout for a typed destination; `None` = contiguous.
    pub layout: Option<Arc<FlatLayout>>,
}

// SAFETY: see the type-level contract — the engine (behind `Mutex<Engine>`)
// or the claimers of a pull are the only writers, the buffer's `&mut`
// borrow outlives the request, and completion is published under the
// engine mutex after every write.
unsafe impl Send for RecvDest {}

impl RecvDest {
    /// A destination filling a contiguous buffer of `cap` bytes.
    pub(crate) fn contiguous(ptr: *mut u8, cap: usize) -> Self {
        RecvDest {
            ptr,
            cap,
            layout: None,
        }
    }

    /// A destination scattering through `layout`'s runs. The poster must
    /// have validated that the buffer at `ptr` covers the layout
    /// (`FlatLayout::fits`) and that the layout does not overlap itself.
    pub(crate) fn typed(ptr: *mut u8, layout: Arc<FlatLayout>) -> Self {
        RecvDest {
            ptr,
            cap: layout.packed_size(),
            layout: Some(layout),
        }
    }

    /// Copy `data` into the destination, clamping to capacity. Returns the
    /// per-request result: `Ok` with delivered length, or `Truncated`.
    ///
    /// # Safety
    /// See the type-level contract: the destination region must be
    /// writable and unaliased for the duration of the call.
    pub(crate) unsafe fn deliver(&self, data: &[u8]) -> MpiResult<usize> {
        // SAFETY: contract forwarded to `deliver_at`.
        let n = unsafe { self.deliver_at(0, data) };
        if data.len() > self.cap {
            Err(MpiError::Truncated {
                message_len: data.len(),
                buffer_len: self.cap,
            })
        } else {
            Ok(n)
        }
    }

    /// Copy `data` into the destination starting at *message* byte
    /// `offset`, clamping to capacity (bytes past `cap` are silently
    /// dropped — the caller decides whether the whole message truncated).
    /// Returns the number of bytes written. Chunked rendezvous writes each
    /// segment at its offset, so the posted buffer — contiguous or a
    /// datatype's scattered runs — fills in place with no intermediate
    /// staging.
    ///
    /// # Safety
    /// See the type-level contract: the destination region must be
    /// writable and unaliased for the duration of the call.
    pub(crate) unsafe fn deliver_at(&self, offset: usize, data: &[u8]) -> usize {
        if let Some(layout) = &self.layout {
            // SAFETY: the poster validated the buffer covers
            // `layout.mem_span()` bytes; the scatter writes only within
            // the layout's runs (and drops bytes past the packed size).
            return unsafe { layout.scatter_raw(offset, data, self.ptr) };
        }
        if offset >= self.cap {
            return 0;
        }
        let n = data.len().min(self.cap - offset);
        // SAFETY: caller upholds the type-level contract; `offset + n <= cap`.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(offset), n);
        }
        n
    }

    /// A destination with no capacity, standing in for the buffer of a
    /// receive its caller gave up on ([`crate::engine::Engine::abandon`]):
    /// late rendezvous chunks land nowhere, and are still acknowledged.
    pub(crate) fn sink() -> Self {
        RecvDest::contiguous(std::ptr::NonNull::dangling().as_ptr(), 0)
    }
}

/// A rendezvous send's loan of its caller's buffer to the receiver, on a
/// substrate whose ranks share an address space
/// ([`crate::Device::lends_memory`]). The send stages nothing: the lease
/// rides inside the `RndvReq` frame and the receiver, once it has matched
/// the envelope, turns it into a copy job straight out of the sender's
/// memory into its own receive buffer — the one copy of the transfer.
/// Whoever takes part copies claimed chunks of it (`Lease::help`) with
/// no engine lock held: the receiver's thread that matched, and the
/// sender's thread that took the go-ahead if it is a caller blocked in
/// the library.
///
/// States: `Open → Pulling → Pulled`, or `Open → Withdrawn`.
///
/// # Safety contract
/// The send side of the `RecvDest` contract. The window originates from
/// a `&[T]` whose borrow the owning `Posted` operation holds,
/// and **a send that lent its buffer does not complete — `Ok` or `Err`,
/// waited, cancelled, dropped, timed out or failed — until its lease is
/// closed**: pulled, or withdrawn by the sender's engine
/// (`Lease::close`) before the receiver began. A close waits out a pull
/// in progress, and a receiver that comes after a withdrawal finds no
/// window and reads nothing. The receiver's side is symmetric: **a
/// receive whose lease is `Pulling` does not complete, and is not given
/// up, before the lease is `Pulled`**. A pull ends only when every byte
/// of it has landed, so neither buffer is let go under a copy. Other
/// ranks' engines and devices hold clones of the `Arc`, possibly for
/// ever; none of them can reach the memory except through
/// `Lease::copy_chunks`. Lock order is engine → lease, on
/// either rank; nothing is acquired under the lease lock, and no copy
/// runs under it.
pub struct Lease {
    lent: Mutex<Lent>,
    /// The next message byte to claim, while `Pulling`.
    cursor: AtomicUsize,
    /// Message bytes landed in the destination, while `Pulling`.
    copied: AtomicUsize,
}

/// What the lease lock guards.
struct Lent {
    state: LeaseState,
    /// Threads waiting for a pull to end.
    landed: Sleepers,
}

enum LeaseState {
    /// The sender's bytes, readable until the state changes.
    Open { ptr: *const u8, len: usize },
    /// The receiver matched: `n` bytes go from `src` to `dst`, claimed
    /// `chunk` at a time.
    Pulling {
        src: *const u8,
        dst: RecvDest,
        n: usize,
        chunk: usize,
    },
    /// Every byte of the pull has landed.
    Pulled,
    /// The sender withdrew the buffer before anyone pulled it.
    Withdrawn,
}

// SAFETY: the pointers are read only while the state is `Open` or
// `Pulling` — which, per the type-level contract, implies both borrows are
// alive — and dereferenced only for claimed chunks, which keep the state
// `Pulling` until they are counted. Shared reads of initialized bytes from
// another thread alias nothing mutable; each destination byte is written
// by the one claimer of its chunk.
unsafe impl Send for LeaseState {}

impl Lease {
    /// Lend `bytes`.
    ///
    /// # Safety
    /// The lease must be closed — pulled, or [`close`](Self::close)d —
    /// before the borrow behind `bytes` ends (the type-level contract).
    pub(crate) unsafe fn open(bytes: &[u8]) -> Arc<Lease> {
        Arc::new(Lease {
            lent: Mutex::new(Lent {
                state: LeaseState::Open {
                    ptr: bytes.as_ptr(),
                    len: bytes.len(),
                },
                landed: Sleepers::default(),
            }),
            cursor: AtomicUsize::new(0),
            copied: AtomicUsize::new(0),
        })
    }

    /// The receiver's half of the match: the lent bytes are to land in
    /// `dst`, claimed `chunk` bytes at a time. The receive `dst` belongs to
    /// must then stay incomplete until the lease is pulled. `false` if the
    /// lease is no longer open: the sender withdrew it.
    pub(crate) fn begin_pull(&self, dst: RecvDest, chunk: usize) -> bool {
        let mut lent = self.lent.lock();
        let LeaseState::Open { ptr, len } = lent.state else {
            return false;
        };
        let n = len.min(dst.cap);
        lent.state = if n == 0 {
            LeaseState::Pulled
        } else {
            LeaseState::Pulling {
                src: ptr,
                dst,
                n,
                chunk: chunk.max(1),
            }
        };
        true
    }

    /// Copy claimed chunks of a pull in progress into the destination
    /// until none is left to claim. Returns the bytes this call copied;
    /// nothing, on a lease that is not being pulled.
    pub(crate) fn help(&self) -> usize {
        // SAFETY: `RecvDest` contract — the receive stays incomplete while
        // its lease is `Pulling`; `deliver_at` clamps to capacity.
        self.copy_chunks(|dst, at, bytes| unsafe {
            dst.deliver_at(at, bytes);
        })
    }

    /// [`help`](Self::help) with the copy given: each claimed chunk goes
    /// to `copy(dst, offset, bytes)` once, and the call that counts the
    /// last byte marks the lease pulled.
    pub(crate) fn copy_chunks(&self, mut copy: impl FnMut(&RecvDest, usize, &[u8])) -> usize {
        let (src, dst, n, chunk) = match &self.lent.lock().state {
            LeaseState::Pulling { src, dst, n, chunk } => (*src, dst.clone(), *n, *chunk),
            _ => return 0,
        };
        let claim = |at: usize| (at < n).then(|| at + chunk.min(n - at));
        let mut mine = 0;
        while let Ok(at) = self.cursor.fetch_update(Relaxed, Relaxed, claim) {
            let len = chunk.min(n - at);
            // SAFETY: `at..at + len` lies within the first `n` lent bytes
            // and is this call's claim alone; the lease stays `Pulling`, so
            // the sender's borrow stays alive, until these bytes are counted.
            copy(&dst, at, unsafe {
                std::slice::from_raw_parts(src.add(at), len)
            });
            mine += len;
            if self.copied.fetch_add(len, AcqRel) + len == n {
                let mut lent = self.lent.lock();
                lent.state = LeaseState::Pulled;
                let wake = lent.landed.take();
                drop(lent);
                wake.wake();
            }
        }
        mine
    }

    /// Block until no pull is in progress; returns the lease lock.
    fn settled(&self) -> MutexGuard<'_, Lent> {
        let mut lent = self.lent.lock();
        while matches!(lent.state, LeaseState::Pulling { .. }) {
            Sleepers::park(&self.lent, &mut lent, |l| &mut l.landed, None);
        }
        lent
    }

    /// Block until the last byte of a pull in progress has landed.
    pub(crate) fn wait_pulled(&self) {
        drop(self.settled());
    }

    /// The sender takes its buffer back: wait out a pull in progress, then
    /// shut the window if it is still open. Returns whether that withdrew
    /// the buffer unpulled — then no go-ahead will ever come for it.
    pub(crate) fn close(&self) -> bool {
        let mut lent = self.settled();
        let withdrawn = matches!(lent.state, LeaseState::Open { .. });
        if withdrawn {
            lent.state = LeaseState::Withdrawn;
        }
        withdrawn
    }

    /// Whether no receiver has begun to pull the bytes, nor the sender
    /// withdrawn them.
    pub(crate) fn is_open(&self) -> bool {
        matches!(self.lent.lock().state, LeaseState::Open { .. })
    }

    /// Whether every byte of the pull has landed.
    pub(crate) fn pulled(&self) -> bool {
        matches!(self.lent.lock().state, LeaseState::Pulled)
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.lent.lock().state {
            LeaseState::Open { .. } => "Lease(open)",
            LeaseState::Pulling { .. } => "Lease(pulling)",
            LeaseState::Pulled => "Lease(pulled)",
            LeaseState::Withdrawn => "Lease(withdrawn)",
        })
    }
}

/// States of an in-flight request.
#[derive(Debug)]
pub(crate) enum ReqState {
    /// Send queued behind flow control (or just posted); payload lives in
    /// the pending queue. Standard and ready sends complete when actually
    /// transmitted; buffered sends complete at post; synchronous sends move
    /// on to an ack-wait state at transmission.
    SendQueued,
    /// Rendezvous envelope sent; waiting for the receiver's go-ahead. A
    /// staged payload is parked in the engine's rendezvous store keyed by
    /// request id; a lent one is still the caller's buffer, behind `lease`.
    SendRndvWait {
        /// The loan of the caller's buffer, which [`RequestTable::set`]
        /// closes before this request may become `Done`.
        lease: Option<Arc<Lease>>,
    },
    /// Eager synchronous send delivered; waiting for the match ack.
    SendAckWait {
        /// The real (destination, tag, length) to report when the ack
        /// arrives — never fabricated zeros.
        status: Status,
    },
    /// Receive posted, not yet matched.
    RecvPosted { dst: RecvDest },
    /// Receive matched a rendezvous envelope; waiting for the bulk data
    /// (a stream of `RndvChunk`s, one or many).
    RecvRndvWait {
        dst: RecvDest,
        /// Matched envelope's (source, tag, length) for the final status.
        status: Status,
        /// Sender request id, echoed in chunk acknowledgments.
        send_id: u64,
        /// Payload bytes received so far (chunked path).
        received: usize,
    },
    /// Receive matched a rendezvous envelope that lent its buffer: the
    /// payload is being copied out of `lease` by threads of either rank,
    /// with no engine lock held. Complete once the lease is pulled.
    RecvPulling { lease: Arc<Lease> },
    /// Finished, result not yet collected by `wait`/`test`.
    Done(MpiResult<Status>),
}

impl ReqState {
    pub(crate) fn is_done(&self) -> bool {
        matches!(self, ReqState::Done(_))
    }
}

/// Allocator and store for request states. Ids are never reused, so a stale
/// protocol packet referencing a completed request is detectable.
#[derive(Debug, Default)]
pub(crate) struct RequestTable {
    slots: HashMap<u64, ReqState>,
    next_id: u64,
    /// Live requests whose caller gave up ([`RequestTable::orphan`]); a
    /// handful at most.
    orphans: Vec<u64>,
}

impl RequestTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert a new request, returning its id.
    pub(crate) fn alloc(&mut self, state: ReqState) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.insert(id, state);
        id
    }

    pub(crate) fn get(&self, id: u64) -> Option<&ReqState> {
        self.slots.get(&id)
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut ReqState> {
        self.slots.get_mut(&id)
    }

    /// Replace the state of an existing request. Every completion —
    /// success, peer failure, revocation — comes through here, which makes
    /// this the one gate of the [`Lease`] contract: a send that lent its
    /// buffer gets the buffer back (waiting out a pull in progress) before
    /// it turns `Done`.
    // Inlined with `complete`: out of line, the four completions of an
    // 8 B shm round trip cost it ≈ 40 ns of 5.1 µs (a call and a copy of
    // the state each).
    #[inline]
    pub(crate) fn set(&mut self, id: u64, state: ReqState) {
        let slot = self.slots.get_mut(&id).expect("set on unknown request");
        if state.is_done() {
            if let ReqState::SendRndvWait { lease: Some(lease) } = slot {
                lease.close();
            }
            if let Some(at) = self.orphans.iter().position(|&o| o == id) {
                self.orphans.swap_remove(at);
                self.slots.remove(&id);
                return;
            }
        }
        *slot = state;
    }

    /// Nobody will collect request `id`'s result — its caller returned on
    /// a timeout or the rank's fatal error: drop the result now if it is
    /// in, else when it comes.
    pub(crate) fn orphan(&mut self, id: u64) {
        if self.take_if_done(id).is_none() && self.slots.contains_key(&id) {
            self.orphans.push(id);
        }
    }

    /// Mark a request complete.
    #[inline]
    pub(crate) fn complete(&mut self, id: u64, result: MpiResult<Status>) {
        self.set(id, ReqState::Done(result));
    }

    /// If done, remove and return the result.
    pub(crate) fn take_if_done(&mut self, id: u64) -> Option<MpiResult<Status>> {
        if self.slots.get(&id)?.is_done() {
            match self.slots.remove(&id) {
                Some(ReqState::Done(r)) => Some(r),
                _ => unreachable!("checked is_done"),
            }
        } else {
            None
        }
    }

    /// Remove a request outright (cancel path).
    pub(crate) fn remove(&mut self, id: u64) -> Option<ReqState> {
        self.slots.remove(&id)
    }

    /// Fail a request if it is still live (present and not yet `Done`).
    /// Returns whether the state changed — the failure-propagation paths
    /// call this from several sweeps (pending queue, rendezvous store,
    /// matcher purge, ack-wait scan) and a request may appear in more than
    /// one, so the first sweep wins and the rest are no-ops.
    pub(crate) fn fail_if_active(&mut self, id: u64, err: MpiError) -> bool {
        match self.slots.get(&id) {
            Some(slot) if !slot.is_done() => {
                self.set(id, ReqState::Done(Err(err)));
                true
            }
            _ => false,
        }
    }

    /// Iterate over every live request `(id, state)` — the peer-failure
    /// sweep scans for states parked on a given peer.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &ReqState)> {
        self.slots.iter().map(|(&id, s)| (id, s))
    }

    /// Number of live requests (diagnostics).
    #[allow(dead_code)] // exercised by unit tests
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_monotonic_and_unique() {
        let mut t = RequestTable::new();
        let a = t.alloc(ReqState::SendQueued);
        let b = t.alloc(ReqState::SendRndvWait { lease: None });
        assert_ne!(a, b);
        assert!(b > a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn take_if_done_only_when_done() {
        let mut t = RequestTable::new();
        let id = t.alloc(ReqState::SendQueued);
        assert!(t.take_if_done(id).is_none());
        t.complete(
            id,
            Ok(Status {
                source: 0,
                tag: 0,
                len: 0,
            }),
        );
        let r = t.take_if_done(id).expect("now done");
        assert!(r.is_ok());
        assert!(t.take_if_done(id).is_none(), "slot removed after take");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn fail_if_active_spares_done_and_unknown_slots() {
        let mut t = RequestTable::new();
        let live = t.alloc(ReqState::SendQueued);
        let done = t.alloc(ReqState::SendQueued);
        t.complete(
            done,
            Ok(Status {
                source: 1,
                tag: 2,
                len: 3,
            }),
        );
        assert!(t.fail_if_active(live, MpiError::peer_failed(3, "test")));
        assert!(
            !t.fail_if_active(live, MpiError::peer_failed(4, "second sweep")),
            "already failed: later sweeps are no-ops"
        );
        assert!(!t.fail_if_active(done, MpiError::peer_failed(3, "test")));
        assert!(!t.fail_if_active(999, MpiError::peer_failed(3, "test")));
        match t.take_if_done(live) {
            Some(Err(MpiError::PeerFailed { peer: 3, .. })) => {}
            other => panic!("expected the first failure to stick, got {other:?}"),
        }
        assert!(t.take_if_done(done).expect("still done").is_ok());
    }

    #[test]
    fn deliver_copies_and_detects_truncation() {
        let mut buf = [0u8; 4];
        let dst = RecvDest::contiguous(buf.as_mut_ptr(), buf.len());
        // SAFETY: `buf` outlives the calls and is unaliased.
        let ok = unsafe { dst.deliver(b"ab") };
        assert_eq!(ok, Ok(2));
        assert_eq!(&buf[..2], b"ab");

        let trunc = unsafe { dst.deliver(b"123456") };
        assert_eq!(
            trunc,
            Err(MpiError::Truncated {
                message_len: 6,
                buffer_len: 4
            })
        );
        assert_eq!(&buf, b"1234", "prefix delivered on truncation");
    }

    #[test]
    fn deliver_at_writes_offsets_and_clamps() {
        let mut buf = [0u8; 6];
        let dst = RecvDest::contiguous(buf.as_mut_ptr(), buf.len());
        // SAFETY: `buf` outlives the calls and is unaliased.
        unsafe {
            assert_eq!(dst.deliver_at(4, b"ef"), 2);
            assert_eq!(dst.deliver_at(0, b"abcd"), 4);
        }
        assert_eq!(&buf, b"abcdef", "chunks land at their offsets");
        unsafe {
            assert_eq!(dst.deliver_at(5, b"xyz"), 1, "tail clamped to cap");
            assert_eq!(dst.deliver_at(6, b"zz"), 0, "past-cap chunk dropped");
            assert_eq!(dst.deliver_at(usize::MAX, b"zz"), 0);
        }
        assert_eq!(&buf, b"abcdex");
    }

    #[test]
    fn typed_dest_scatters_chunks_through_layout_runs() {
        // Layout runs [0..2), [5..7), [10..12): packed capacity 6.
        let flat = Arc::new(
            crate::dtype::DataType::base(1)
                .vector(3, 2, 5)
                .flatten()
                .expect("small layout"),
        );
        let mut buf = [0u8; 12];
        let dst = RecvDest::typed(buf.as_mut_ptr(), Arc::clone(&flat));
        assert_eq!(dst.cap, 6, "typed cap is the packed size");
        // SAFETY: `buf` covers the layout's mem_span and is unaliased.
        unsafe {
            // Two "chunks" at message offsets, like a rendezvous stream.
            assert_eq!(dst.deliver_at(0, b"abcd"), 4);
            assert_eq!(dst.deliver_at(4, b"ef"), 2);
        }
        assert_eq!(&buf, b"ab\0\0\0cd\0\0\0ef");
        // Oversized eager payload: prefix scattered, typed truncation.
        let mut buf2 = [0u8; 12];
        let dst2 = RecvDest::typed(buf2.as_mut_ptr(), flat);
        let trunc = unsafe { dst2.deliver(b"ABCDEFGH") };
        assert_eq!(
            trunc,
            Err(MpiError::Truncated {
                message_len: 8,
                buffer_len: 6
            })
        );
        assert_eq!(&buf2, b"AB\0\0\0CD\0\0\0EF");
    }
}
