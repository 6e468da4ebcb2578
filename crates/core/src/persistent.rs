//! Persistent communication requests (`MPI_Send_init` / `MPI_Recv_init` /
//! `MPI_Start`).
//!
//! For fixed communication patterns executed repeatedly (the paper's ring
//! application re-sends the same-shaped partition every phase), MPI lets
//! the argument validation and setup be done once; each `start` then posts
//! the operation. Here the lifetime of the prepared object pins the buffer
//! for the pattern's whole lifetime, so every `start` is borrow-checked
//! for free.

use crate::datatype::MpiData;
use crate::error::MpiResult;
use crate::mpi::{Communicator, Request, SendBuf};
use crate::types::{Rank, SendMode, SourceSel, Tag, TagSel};

/// A prepared send: `comm`, buffer, destination, tag and mode validated
/// once.
pub struct PersistentSend<'buf, T: MpiData> {
    comm: Communicator,
    buf: &'buf [T],
    dst: Rank,
    tag: Tag,
    mode: SendMode,
}

impl<'buf, T: MpiData> PersistentSend<'buf, T> {
    /// `MPI_Start`: post one instance of the send; the buffer's *current*
    /// contents travel.
    pub fn start(&self) -> MpiResult<Request<'buf>> {
        // The nonblocking send post, so mode semantics (acks, buffer
        // accounting) are identical to ad-hoc sends.
        let data = SendBuf::Slice(self.buf);
        self.comm.isend_mode(data, self.dst, self.tag, self.mode)
    }

    /// Destination rank.
    pub fn dst(&self) -> Rank {
        self.dst
    }

    /// Message tag.
    pub fn tag(&self) -> Tag {
        self.tag
    }
}

/// A prepared receive. `start` takes `&mut self` so only one instance can
/// be in flight at a time (MPI's rule: a persistent request must complete
/// before it is started again).
pub struct PersistentRecv<'buf, T: MpiData> {
    comm: Communicator,
    buf: &'buf mut [T],
    src: SourceSel,
    tag: TagSel,
}

impl<T: MpiData> PersistentRecv<'_, T> {
    /// `MPI_Start`: post one instance of the receive.
    pub fn start(&mut self) -> MpiResult<Request<'_>> {
        self.comm.irecv(&mut *self.buf, self.src, self.tag)
    }

    /// Read access to the buffer between instances.
    pub fn buffer(&self) -> &[T] {
        self.buf
    }
}

impl Communicator {
    /// `MPI_Send_init` (standard mode).
    pub fn send_init<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<PersistentSend<'a, T>> {
        self.persistent_send(buf, dst, tag, SendMode::Standard)
    }

    /// `MPI_Bsend_init`.
    pub fn bsend_init<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<PersistentSend<'a, T>> {
        self.persistent_send(buf, dst, tag, SendMode::Buffered)
    }

    /// `MPI_Ssend_init`.
    pub fn ssend_init<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<PersistentSend<'a, T>> {
        self.persistent_send(buf, dst, tag, SendMode::Synchronous)
    }

    /// `MPI_Rsend_init`.
    pub fn rsend_init<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
    ) -> MpiResult<PersistentSend<'a, T>> {
        self.persistent_send(buf, dst, tag, SendMode::Ready)
    }

    fn persistent_send<'a, T: MpiData>(
        &self,
        buf: &'a [T],
        dst: Rank,
        tag: Tag,
        mode: SendMode,
    ) -> MpiResult<PersistentSend<'a, T>> {
        // Validate destination and tag once, at init time.
        self.global(dst)?;
        Self::check_tag(TagSel::Tag(tag))?;
        Ok(PersistentSend {
            comm: self.clone(),
            buf,
            dst,
            tag,
            mode,
        })
    }

    /// `MPI_Recv_init`.
    pub fn recv_init<'a, T: MpiData>(
        &self,
        buf: &'a mut [T],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> MpiResult<PersistentRecv<'a, T>> {
        let src = src.into();
        if let SourceSel::Rank(r) = src {
            self.global(r)?;
        }
        let tag = tag.into();
        Self::check_tag(tag)?;
        Ok(PersistentRecv {
            comm: self.clone(),
            buf,
            src,
            tag,
        })
    }
}

/// `MPI_Startall` for a set of prepared sends.
pub fn start_all<'buf, T: MpiData>(
    sends: &[PersistentSend<'buf, T>],
) -> MpiResult<Vec<Request<'buf>>> {
    sends.iter().map(|s| s.start()).collect()
}
