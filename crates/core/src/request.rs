//! Request table: the state machine of every in-flight nonblocking
//! operation.
//!
//! Blocking calls are nonblocking calls plus an immediate wait, exactly as
//! in MPICH's layering, so everything funnels through here.

use std::collections::HashMap;
use std::sync::Arc;

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
/// lifetime of the owning `Request` (enforced by the lifetime parameter on
/// the public `Request` type, and by `Request::drop` blocking until
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
}

/// States of an in-flight request.
#[derive(Debug)]
pub(crate) enum ReqState {
    /// Send queued behind flow control (or just posted); payload lives in
    /// the pending queue. Standard and ready sends complete when actually
    /// transmitted; buffered sends complete at post; synchronous sends move
    /// on to an ack-wait state at transmission.
    SendQueued,
    /// Rendezvous envelope sent; waiting for the receiver's go-ahead. The
    /// payload itself is parked in the engine's rendezvous store keyed by
    /// request id, so standard-mode sends can complete (buffer reusable)
    /// while the data still awaits the go-ahead.
    SendRndvWait,
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

    /// Replace the state of an existing request.
    pub(crate) fn set(&mut self, id: u64, state: ReqState) {
        let slot = self.slots.get_mut(&id).expect("set on unknown request");
        *slot = state;
    }

    /// Mark a request complete.
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
        match self.slots.get_mut(&id) {
            Some(slot) if !slot.is_done() => {
                *slot = ReqState::Done(Err(err));
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
        let b = t.alloc(ReqState::SendRndvWait);
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
