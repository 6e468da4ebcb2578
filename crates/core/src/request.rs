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
use std::sync::Arc;

use lmpi_sim::lock::Mutex;

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
/// time) — and always while holding the rank's engine mutex. The
/// application thread never touches the buffer between posting the
/// receive and observing completion (the borrow forbids it), so moving
/// the pointer to the background progress thread creates no aliasing: all
/// writes happen-before the completion the waiter reads under the same
/// mutex. The poster guarantees the buffer is writable for `cap` bytes
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
// is the only writer, the buffer's `&mut` borrow outlives the request, and
// completion is published under the same mutex the writes happened under.
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
/// the envelope, copies straight out of the sender's memory into its own
/// receive buffer (`Lease::pull`) — the one copy of the transfer.
///
/// # Safety contract
/// The send side of the `RecvDest` contract. The window originates from
/// a `&[T]` whose borrow the owning `Posted` operation holds,
/// and **a send that lent its buffer does not complete — `Ok` or `Err`,
/// waited, cancelled, dropped, timed out or failed — until its lease is
/// closed**: either the receiver pulled it (the lease closes itself, then
/// the `RndvGo` completes the send) or the sender's engine called
/// `Lease::close` first. Both take the lease's own lock, so a close
/// waits out a pull in progress and a pull that comes later finds no
/// window and reads nothing. Other ranks' engines and devices hold clones
/// of the `Arc`, possibly for ever; none of them can reach the memory
/// except through `pull`. Lock order is engine → lease, on either rank;
/// nothing is acquired under the lease lock.
pub struct Lease(Mutex<LeaseState>);

enum LeaseState {
    /// The sender's bytes, readable until the state changes.
    Open { ptr: *const u8, len: usize },
    /// The receiver copied the bytes out.
    Pulled,
    /// The sender withdrew the buffer before anyone pulled it.
    Withdrawn,
}

// SAFETY: the pointer is only ever read, under the lease lock, while the
// state is `Open` — which, per the type-level contract, implies the
// sender's shared borrow of the bytes is still alive. Shared reads of
// initialized bytes from another thread alias nothing mutable.
unsafe impl Send for LeaseState {}

impl Lease {
    /// Lend `bytes`.
    ///
    /// # Safety
    /// The lease must be closed — pulled, or [`close`](Self::close)d —
    /// before the borrow behind `bytes` ends (the type-level contract).
    pub(crate) unsafe fn open(bytes: &[u8]) -> Arc<Lease> {
        Arc::new(Lease(Mutex::new(LeaseState::Open {
            ptr: bytes.as_ptr(),
            len: bytes.len(),
        })))
    }

    /// Hand the lent bytes to `copy`, once: the receiver's data phase. The
    /// lease lock is held for the duration, so the sender cannot complete
    /// under the copy. `None` if the lease is no longer open.
    pub(crate) fn pull<R>(&self, copy: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let mut state = self.0.lock();
        let LeaseState::Open { ptr, len } = *state else {
            return None;
        };
        // SAFETY: the state is `Open`, so the sender's borrow of these
        // `len` initialized bytes is alive (type-level contract), and it
        // stays alive until this guard drops: `close` takes the same lock.
        let out = copy(unsafe { std::slice::from_raw_parts(ptr, len) });
        *state = LeaseState::Pulled;
        Some(out)
    }

    /// The sender takes its buffer back: wait out a pull in progress, then
    /// shut the window if it is still open. Returns whether that withdrew
    /// the buffer unpulled — then no go-ahead will ever come for it.
    pub(crate) fn close(&self) -> bool {
        let mut state = self.0.lock();
        let withdrawn = matches!(*state, LeaseState::Open { .. });
        if withdrawn {
            *state = LeaseState::Withdrawn;
        }
        withdrawn
    }

    /// Whether the receiver has copied the bytes out.
    pub(crate) fn pulled(&self) -> bool {
        matches!(*self.0.lock(), LeaseState::Pulled)
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match *self.0.lock() {
            LeaseState::Open { .. } => "Lease(open)",
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
