//! Collective operations: the dispatch front-end.
//!
//! All collectives run on the communicator's *collective context*, so they
//! can never interfere with user point-to-point traffic (the MPICH context
//! trick), and every operation derives its wire tags from the scheme in
//! [`crate::coll`] — an *(op window, per-communicator sequence, algorithm,
//! step)* encoding that keeps concurrent and composed collectives on one
//! communicator from ever cross-matching.
//!
//! The multi-algorithm collectives (`barrier`, `bcast`, `allreduce`,
//! `allgather`) pick their schedule per call through the decision table /
//! config pins in [`crate::coll`]; broadcast additionally uses the
//! device's hardware broadcast when available — on the Meiko that is the
//! paper's own design ("the implementation of broadcast on Meiko uses the
//! underlying hardware broadcast mechanism, whereas on the ATM network it
//! uses a succession of point-to-point messages"). Ablations, tuning sweeps
//! and cross-algorithm identity tests pin an algorithm through
//! [`crate::MpiConfig`]'s `with_*_algo`.

use std::sync::Arc;

use lmpi_obs::{CollAlgo, CollOp, EventKind};

use crate::coll::{
    coll_tag, AllgatherAlgo, AllreduceAlgo, BarrierAlgo, BcastAlgo, ALG_DIRECT, OP_ALLTOALL,
    OP_GATHER, OP_REDUCE, OP_SCAN, OP_SCATTER,
};
use crate::datatype::MpiData;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Communicator;
use crate::packet::{Packet, Wire};
use crate::reduce_op::{ReduceOp, Reducible};
use crate::types::{Rank, SendMode, SourceSel, Status, Tag, TagSel};

/// Fault-tolerant agreement rounds (see `ulfm.rs`); phase 2 uses
/// `T_AGREE + (1 << 4)`. These predate the [`crate::coll::coll_tag`]
/// scheme and deliberately stay below `1 << 24`: agreement must keep
/// working on communicators whose collective sequence counters have
/// diverged after a failure.
pub(crate) const T_AGREE: Tag = 9;

impl Communicator {
    pub(crate) fn coll_send<T: MpiData>(&self, buf: &[T], dst: Rank, tag: Tag) -> MpiResult<()> {
        self.send_mode(buf, dst, tag, SendMode::Standard, self.coll_ctx())
    }

    pub(crate) fn coll_recv<T: MpiData>(
        &self,
        buf: &mut [T],
        src: Rank,
        tag: Tag,
    ) -> MpiResult<Status> {
        let id =
            self.post_recv_raw(buf, SourceSel::Rank(src), TagSel::Tag(tag), self.coll_ctx())?;
        let st = id.wait()?;
        Ok(self.localize(st))
    }

    /// Collectives fail fast: a revoked communicator or a known-dead group
    /// member turns the whole operation into a typed error up front,
    /// instead of a hang (or a confusing transport error) halfway through
    /// the algorithm's message schedule. The reported rank is
    /// communicator-local, matching every other local-rank API surface.
    pub(crate) fn check_coll_ready(&self) -> MpiResult<()> {
        self.check_not_revoked()?;
        let eng = self.inner().eng.lock();
        for (local, &g) in self.group_ranks().iter().enumerate() {
            if eng.is_failed(g) {
                return Err(MpiError::peer_failed(
                    local,
                    "collective on a communicator with a dead member \
                     (revoke and shrink to continue)",
                ));
            }
        }
        Ok(())
    }

    /// Run `f` bracketed by `CollBegin`/`CollEnd` trace events (the begin
    /// event names the selected algorithm) and count the dispatch in the
    /// metrics tally. A no-op branch when tracing is disabled; the end
    /// event is emitted even when `f` errors so trace spans always close.
    /// With live health enabled, the dispatch duration also lands in the
    /// per-(collective, algorithm) sliding latency window, so one
    /// mis-tuned algorithm choice shows up as a live tail-latency
    /// outlier rather than only in post-hoc traces.
    fn traced<R>(
        &self,
        op: CollOp,
        algo: CollAlgo,
        f: impl FnOnce() -> MpiResult<R>,
    ) -> MpiResult<R> {
        self.check_coll_ready()?;
        let inner = self.inner();
        {
            let mut eng = inner.eng.lock();
            eng.coll.record(op.name(), algo.name());
            eng.tracer
                .emit_with(|| inner.device.now_ns(), EventKind::CollBegin { op, algo });
        }
        let t0 = inner.health.enabled.then(|| inner.device.now_ns());
        let r = f();
        inner
            .eng
            .lock()
            .tracer
            .emit_with(|| inner.device.now_ns(), EventKind::CollEnd { op });
        if let Some(t0) = t0 {
            let now = inner.device.now_ns();
            inner
                .health
                .record_coll(op.name(), algo.name(), now, now.saturating_sub(t0));
        }
        r
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// `MPI_Barrier`: algorithm chosen by the dispatch layer
    /// (dissemination or tree; see [`crate::coll`]).
    pub fn barrier(&self) -> MpiResult<()> {
        let algo = self.select_barrier();
        let seq = self.next_coll_seq();
        self.traced(CollOp::Barrier, algo.as_obs(), || match algo {
            BarrierAlgo::Dissemination => self.barrier_dissemination_seq(seq),
            BarrierAlgo::Tree => self.barrier_tree_seq(seq),
        })
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// `MPI_Bcast`: root's `buf` is copied into everyone's `buf`.
    ///
    /// Uses the hardware broadcast on devices that have one (Meiko CS/2),
    /// otherwise the algorithm the decision table picks for this
    /// substrate, communicator size and payload (binomial tree below the
    /// bandwidth crossover, scatter-allgather above it).
    pub fn bcast<T: MpiData>(&self, buf: &mut [T], root: Rank) -> MpiResult<()> {
        self.global(root)?;
        let algo = self.select_bcast(T::byte_len(buf.len()) as u64);
        let seq = self.next_coll_seq();
        self.traced(CollOp::Bcast, algo.as_obs(), || {
            if self.size() == 1 {
                return Ok(());
            }
            match algo {
                BcastAlgo::Hw => {
                    if !self.inner().device.has_hw_bcast() {
                        return Err(MpiError::Unsupported {
                            what: "broadcast pinned to the hardware algorithm on a device \
                                   without a hardware broadcast"
                                .into(),
                        });
                    }
                    self.bcast_hw(buf, root)
                }
                BcastAlgo::Binomial => self.bcast_binomial_seq(buf, root, seq),
                BcastAlgo::ScatterAllgather => self.bcast_scatter_allgather_seq(buf, root, seq),
            }
        })
    }

    pub(crate) fn bcast_hw<T: MpiData>(&self, buf: &mut [T], root: Rank) -> MpiResult<()> {
        let seq = self.inner().eng.lock().next_bcast_seq(self.coll_ctx());
        let me = self.rank();
        if me == root {
            let data = self.inner().eng.lock().stage_payload(buf);
            let my_global = self.global(me)?;
            let others: Vec<Rank> = self
                .group_ranks()
                .iter()
                .copied()
                .filter(|&g| g != my_global)
                .collect();
            self.inner().device.hw_bcast(
                &others,
                Wire::bare(
                    my_global,
                    Packet::HwBcast {
                        context: self.coll_ctx(),
                        root: my_global,
                        seq,
                        data,
                    },
                ),
            )
        } else {
            let ctx = self.coll_ctx();
            let data = self
                .inner()
                .progress_until(|eng| eng.take_coll_bcast(ctx, seq))?;
            if data.len() != T::byte_len(buf.len()) {
                return Err(MpiError::CollectiveMismatch(format!(
                    "bcast: root sent {} bytes, local buffer holds {}",
                    data.len(),
                    T::byte_len(buf.len())
                )));
            }
            T::read_from(&data, buf);
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Gather / scatter
    // ------------------------------------------------------------------

    /// `MPI_Gather` with equal contribution sizes: returns `Some(all)` at
    /// `root` (concatenated in rank order) and `None` elsewhere.
    pub fn gather<T: MpiData + Default>(
        &self,
        send: &[T],
        root: Rank,
    ) -> MpiResult<Option<Vec<T>>> {
        let seq = self.next_coll_seq();
        self.traced(CollOp::Gather, CollAlgo::Direct, || {
            self.gather_untraced(send, root, seq)
        })
    }

    fn gather_untraced<T: MpiData + Default>(
        &self,
        send: &[T],
        root: Rank,
        seq: u32,
    ) -> MpiResult<Option<Vec<T>>> {
        let n = self.size();
        let me = self.rank();
        self.global(root)?;
        let tag = coll_tag(OP_GATHER, seq, ALG_DIRECT, 0);
        if me != root {
            self.coll_send(send, root, tag)?;
            return Ok(None);
        }
        let count = send.len();
        let mut out = vec![T::default(); count * n];
        out[me * count..(me + 1) * count].copy_from_slice(send);
        for src in 0..n {
            if src == me {
                continue;
            }
            let st = self.coll_recv(&mut out[src * count..(src + 1) * count], src, tag)?;
            if st.len != T::byte_len(count) {
                return Err(MpiError::CollectiveMismatch(format!(
                    "gather: rank {src} sent {} bytes, expected {}",
                    st.len,
                    T::byte_len(count)
                )));
            }
        }
        Ok(Some(out))
    }

    /// `MPI_Gatherv`: contributions may differ in length; the root gets one
    /// vector per rank.
    pub fn gatherv<T: MpiData + Default>(
        &self,
        send: &[T],
        root: Rank,
    ) -> MpiResult<Option<Vec<Vec<T>>>> {
        self.check_coll_ready()?;
        let seq = self.next_coll_seq();
        let tag = coll_tag(OP_GATHER, seq, ALG_DIRECT, 0);
        let n = self.size();
        let me = self.rank();
        self.global(root)?;
        if me != root {
            self.coll_send(send, root, tag)?;
            return Ok(None);
        }
        let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        out[me] = send.to_vec();
        for (src, slot) in out.iter_mut().enumerate() {
            if src == me {
                continue;
            }
            // Probe on the collective context for the size.
            let src_g = SourceSel::Rank(src);
            let st = {
                let sel = self.src_sel_pub(src_g)?;
                let ctx = self.coll_ctx();
                self.inner()
                    .progress_until(|eng| eng.probe(sel, TagSel::Tag(tag), ctx))?
            };
            let mut buf = vec![T::default(); st.len / T::byte_len(1)];
            self.coll_recv(&mut buf, src, tag)?;
            *slot = buf;
        }
        Ok(Some(out))
    }

    fn src_sel_pub(&self, src: SourceSel) -> MpiResult<SourceSel> {
        Ok(match src {
            SourceSel::Any => SourceSel::Any,
            SourceSel::Rank(local) => SourceSel::Rank(self.global(local)?),
        })
    }

    /// `MPI_Scatter`: root's `send` (length `n * recv.len()`) is split into
    /// equal blocks, one per rank, in rank order.
    pub fn scatter<T: MpiData>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        root: Rank,
    ) -> MpiResult<()> {
        let seq = self.next_coll_seq();
        self.traced(CollOp::Scatter, CollAlgo::Direct, || {
            self.scatter_untraced(send, recv, root, seq)
        })
    }

    fn scatter_untraced<T: MpiData>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        root: Rank,
        seq: u32,
    ) -> MpiResult<()> {
        let n = self.size();
        let me = self.rank();
        self.global(root)?;
        let count = recv.len();
        let tag = coll_tag(OP_SCATTER, seq, ALG_DIRECT, 0);
        if me == root {
            let send = send.ok_or_else(|| {
                MpiError::CollectiveMismatch("scatter: root must supply a send buffer".into())
            })?;
            if send.len() != count * n {
                return Err(MpiError::CollectiveMismatch(format!(
                    "scatter: send length {} != {} ranks x {} elements",
                    send.len(),
                    n,
                    count
                )));
            }
            for dst in 0..n {
                if dst == me {
                    recv.copy_from_slice(&send[dst * count..(dst + 1) * count]);
                } else {
                    self.coll_send(&send[dst * count..(dst + 1) * count], dst, tag)?;
                }
            }
            Ok(())
        } else {
            self.coll_recv(recv, root, tag)?;
            Ok(())
        }
    }

    /// `MPI_Scatterv`: root supplies one (possibly differently sized)
    /// vector per rank; each rank gets its own back.
    pub fn scatterv<T: MpiData + Default>(
        &self,
        send: Option<&[Vec<T>]>,
        root: Rank,
    ) -> MpiResult<Vec<T>> {
        self.check_coll_ready()?;
        let seq = self.next_coll_seq();
        let tag = coll_tag(OP_SCATTER, seq, ALG_DIRECT, 0);
        let n = self.size();
        let me = self.rank();
        self.global(root)?;
        if me == root {
            let send = send.ok_or_else(|| {
                MpiError::CollectiveMismatch("scatterv: root must supply send vectors".into())
            })?;
            if send.len() != n {
                return Err(MpiError::CollectiveMismatch(format!(
                    "scatterv: {} vectors for {} ranks",
                    send.len(),
                    n
                )));
            }
            for (dst, part) in send.iter().enumerate() {
                if dst != me {
                    self.coll_send(part, dst, tag)?;
                }
            }
            Ok(send[me].clone())
        } else {
            // Probe for the size on the collective context.
            let src_g = SourceSel::Rank(self.global(root)?);
            let ctx = self.coll_ctx();
            let st = self
                .inner()
                .progress_until(|eng| eng.probe(src_g, TagSel::Tag(tag), ctx))?;
            let mut buf = vec![T::default(); st.len / T::byte_len(1)];
            self.coll_recv(&mut buf, root, tag)?;
            Ok(buf)
        }
    }

    // ------------------------------------------------------------------
    // Allgather / alltoall
    // ------------------------------------------------------------------

    /// `MPI_Allgather`: algorithm chosen by the dispatch layer (ring or
    /// gather+bcast). Returns all contributions concatenated in rank
    /// order.
    pub fn allgather<T: MpiData + Default>(&self, send: &[T]) -> MpiResult<Vec<T>> {
        let algo = self.select_allgather(T::byte_len(send.len()) as u64);
        let seq = self.next_coll_seq();
        self.traced(CollOp::Allgather, algo.as_obs(), || match algo {
            AllgatherAlgo::Ring => self.allgather_ring_seq(send, seq),
            AllgatherAlgo::GatherBcast => self.allgather_gather_bcast_seq(send, seq),
        })
    }

    /// `MPI_Alltoall`: `send` holds `n` equal blocks in destination order;
    /// the result holds `n` blocks in source order.
    pub fn alltoall<T: MpiData + Default>(&self, send: &[T]) -> MpiResult<Vec<T>> {
        let seq = self.next_coll_seq();
        self.traced(CollOp::Alltoall, CollAlgo::Direct, || {
            self.alltoall_untraced(send, seq)
        })
    }

    fn alltoall_untraced<T: MpiData + Default>(&self, send: &[T], seq: u32) -> MpiResult<Vec<T>> {
        let n = self.size();
        let me = self.rank();
        if !send.len().is_multiple_of(n) {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoall: send length {} not divisible by {} ranks",
                send.len(),
                n
            )));
        }
        let count = send.len() / n;
        let mut out = vec![T::default(); send.len()];
        out[me * count..(me + 1) * count].copy_from_slice(&send[me * count..(me + 1) * count]);
        for step in 1..n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            let tag = coll_tag(OP_ALLTOALL, seq, ALG_DIRECT, step);
            let rid = self.post_recv_raw(
                &mut out[src * count..(src + 1) * count],
                SourceSel::Rank(src),
                TagSel::Tag(tag),
                self.coll_ctx(),
            )?;
            self.coll_send(&send[dst * count..(dst + 1) * count], dst, tag)?;
            rid.wait()?;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// `MPI_Reduce`: elementwise reduction to `root` (binomial tree).
    /// Returns `Some(result)` at the root, `None` elsewhere.
    pub fn reduce<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
        root: Rank,
    ) -> MpiResult<Option<Vec<T>>> {
        let seq = self.next_coll_seq();
        self.traced(CollOp::Reduce, CollAlgo::Direct, || {
            self.reduce_tagged(send, op, root, coll_tag(OP_REDUCE, seq, ALG_DIRECT, 0))
        })
    }

    /// Binomial-tree reduce on an explicit wire tag; the reduce phase of
    /// compound collectives supplies a tag in its own window.
    pub(crate) fn reduce_tagged<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
        root: Rank,
        tag: Tag,
    ) -> MpiResult<Option<Vec<T>>> {
        let n = self.size();
        let me = self.rank();
        self.global(root)?;
        let vrank = (me + n - root) % n;
        let mut acc = send.to_vec();
        let mut tmp = vec![T::default(); send.len()];
        let mut mask = 1;
        while mask < n {
            if vrank & mask == 0 {
                let peer_v = vrank | mask;
                if peer_v < n {
                    let peer = (peer_v + root) % n;
                    let st = self.coll_recv(&mut tmp, peer, tag)?;
                    if st.len != T::byte_len(send.len()) {
                        return Err(MpiError::CollectiveMismatch(format!(
                            "reduce: rank {peer} sent {} bytes, expected {}",
                            st.len,
                            T::byte_len(send.len())
                        )));
                    }
                    T::accumulate(op, &mut acc, &tmp);
                }
            } else {
                let peer = ((vrank - mask) + root) % n;
                self.coll_send(&acc, peer, tag)?;
                break;
            }
            mask <<= 1;
        }
        Ok((me == root).then_some(acc))
    }

    /// `MPI_Allreduce`: algorithm chosen by the dispatch layer —
    /// reduce+bcast (the paper's design, hardware broadcast where
    /// available), ring, or recursive doubling.
    pub fn allreduce<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
    ) -> MpiResult<Vec<T>> {
        let algo = self.select_allreduce(T::byte_len(send.len()) as u64);
        let seq = self.next_coll_seq();
        self.traced(CollOp::Allreduce, algo.as_obs(), || match algo {
            AllreduceAlgo::ReduceBcast => self.allreduce_reduce_bcast_seq(send, op, seq),
            AllreduceAlgo::Ring => self.allreduce_ring_seq(send, op, seq),
            AllreduceAlgo::RecursiveDoubling => {
                self.allreduce_recursive_doubling_seq(send, op, seq)
            }
        })
    }

    /// `MPI_Reduce_scatter_block`: reduce `n` equal blocks, rank `i` gets
    /// block `i` of the result.
    pub fn reduce_scatter_block<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        if !send.len().is_multiple_of(n) {
            return Err(MpiError::CollectiveMismatch(format!(
                "reduce_scatter_block: send length {} not divisible by {} ranks",
                send.len(),
                n
            )));
        }
        let count = send.len() / n;
        let full = self.reduce(send, op, 0)?;
        let mut mine = vec![T::default(); count];
        self.scatter(full.as_deref(), &mut mine, 0)?;
        Ok(mine)
    }

    /// `MPI_Scan`: inclusive prefix reduction; rank `i` gets the reduction
    /// of ranks `0..=i`.
    pub fn scan<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
    ) -> MpiResult<Vec<T>> {
        let seq = self.next_coll_seq();
        self.traced(CollOp::Scan, CollAlgo::Direct, || {
            self.scan_untraced(send, op, seq)
        })
    }

    fn scan_untraced<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
        seq: u32,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        let me = self.rank();
        let tag = coll_tag(OP_SCAN, seq, ALG_DIRECT, 0);
        let mut acc = send.to_vec();
        if me > 0 {
            let mut prev = vec![T::default(); send.len()];
            self.coll_recv(&mut prev, me - 1, tag)?;
            // acc = prev op mine, preserving operand order (all predefined
            // ops are commutative, but keep prefix order for clarity).
            let mine = std::mem::replace(&mut acc, prev);
            T::accumulate(op, &mut acc, &mine);
        }
        if me + 1 < n {
            self.coll_send(&acc, me + 1, tag)?;
        }
        Ok(acc)
    }

    // ------------------------------------------------------------------
    // Communicator construction (collective)
    // ------------------------------------------------------------------

    /// Agree on a fresh context-id pair across the communicator.
    fn agree_context(&self) -> MpiResult<u32> {
        let mine = self.inner().eng.lock().next_context as u64;
        let agreed = self.allreduce(&[mine], ReduceOp::Max)?[0] as u32;
        self.inner().eng.lock().next_context = agreed + 2;
        Ok(agreed)
    }

    /// `MPI_Comm_dup`: same group, fresh communication contexts.
    pub fn dup(&self) -> MpiResult<Communicator> {
        let base = self.agree_context()?;
        Ok(Communicator::make(
            self.inner().clone(),
            base,
            base + 1,
            self.group().clone(),
            self.rank(),
        ))
    }

    /// `MPI_Comm_split`: ranks supplying the same `color` form a new
    /// communicator, ordered by `(key, old rank)`. `None` color
    /// (`MPI_UNDEFINED`) participates but gets no communicator.
    pub fn split(&self, color: Option<u64>, key: u64) -> MpiResult<Option<Communicator>> {
        let me_global = self.global(self.rank())? as u64;
        // Encode color so `None` sorts out; allgather (color+1, key, global).
        let triple = [color.map_or(0, |c| c + 1), key, me_global];
        let all = self.allgather(&triple)?;
        let base = self.agree_context()?;
        let Some(my_color) = color else {
            return Ok(None);
        };
        let mut members: Vec<(u64, u64)> = all
            .chunks_exact(3)
            .filter(|t| t[0] == my_color + 1)
            .map(|t| (t[1], t[2]))
            .collect();
        members.sort_unstable();
        let group: Arc<Vec<Rank>> = Arc::new(members.iter().map(|&(_, g)| g as Rank).collect());
        let my_local = group
            .iter()
            .position(|&g| g == me_global as Rank)
            .expect("own rank in split group");
        Ok(Some(Communicator::make(
            self.inner().clone(),
            base,
            base + 1,
            group,
            my_local,
        )))
    }
}
