//! Allreduce algorithm family: reduce+bcast (the paper's design), ring
//! reduce-scatter/allgather, and recursive doubling.
//!
//! All predefined [`crate::ReduceOp`]s are associative and commutative
//! (see `reduce_op.rs`), so every schedule computes the same value; the
//! integer ops are exact, which is what the cross-algorithm byte-identity
//! tests rely on. Floating-point results may differ across algorithms in
//! the last ulp because association order differs.

use crate::coll::{coll_tag, ALG_RECURSIVE_DOUBLING, ALG_REDUCE_BCAST, ALG_RING, OP_ALLREDUCE};
use crate::datatype::MpiData;
use crate::error::MpiResult;
use crate::mpi::Communicator;
use crate::reduce_op::{ReduceOp, Reducible};

impl Communicator {
    /// Binomial reduce to local rank 0, then broadcast the result — the
    /// paper's own allreduce, whose broadcast phase rides the Meiko
    /// hardware broadcast where available.
    pub(crate) fn allreduce_reduce_bcast_seq<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
        seq: u32,
    ) -> MpiResult<Vec<T>> {
        let reduced = self.reduce_tagged(
            send,
            op,
            0,
            coll_tag(OP_ALLREDUCE, seq, ALG_REDUCE_BCAST, 0),
        )?;
        let mut buf = reduced.unwrap_or_else(|| vec![T::default(); send.len()]);
        self.bcast_compound_phase(
            &mut buf,
            0,
            coll_tag(OP_ALLREDUCE, seq, ALG_REDUCE_BCAST, 1),
        )?;
        Ok(buf)
    }

    /// Ring allreduce: a reduce-scatter ring (`n - 1` steps, after which
    /// rank `r` owns the fully reduced block `(r + 1) % n`), then a ring
    /// allgather of the reduced blocks (`n - 1` more steps). Each rank
    /// moves `~2 (n-1)/n` of the vector — bandwidth-optimal.
    pub(crate) fn allreduce_ring_seq<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
        seq: u32,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        let me = self.rank();
        let count = send.len();
        let mut out = send.to_vec();
        if n == 1 {
            return Ok(out);
        }
        // Block `i` spans `start(i)..start(i + 1)` (near-equal blocks;
        // empty when `count < n`).
        let start = |i: usize| (i * count) / n;
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut tmp = vec![T::default(); count.div_ceil(n)];

        // Reduce-scatter: at step `s` send the partial of block
        // `(me + n - s) % n`, fold the incoming partial into block
        // `(me + n - s - 1) % n`.
        for step in 0..n - 1 {
            let send_block = (me + n - step) % n;
            let recv_block = (me + n - step - 1) % n;
            let rb = start(recv_block)..start(recv_block + 1);
            let rb_len = rb.len();
            let tag = coll_tag(OP_ALLREDUCE, seq, ALG_RING, step);
            let send = &out[start(send_block)..start(send_block + 1)];
            self.coll_sendrecv(send, right, &mut tmp[..rb_len], left, tag)?;
            T::accumulate(op, &mut out[rb], &tmp[..rb_len]);
        }

        // Allgather: rank `r` starts owning block `(r + 1) % n` and
        // forwards what it received the step before.
        for step in 0..n - 1 {
            let send_block = (me + 1 + n - step) % n;
            let recv_block = (me + n - step) % n;
            let tmp = out[start(send_block)..start(send_block + 1)].to_vec();
            let tag = coll_tag(OP_ALLREDUCE, seq, ALG_RING, (n - 1) + step);
            let recv = &mut out[start(recv_block)..start(recv_block + 1)];
            self.coll_sendrecv(&tmp, right, recv, left, tag)?;
        }
        Ok(out)
    }

    /// Recursive-doubling allreduce with the MPICH non-power-of-two fold:
    /// the first `2 * (n - pof2)` ranks pair up (odd folds into even and
    /// sits out), the surviving `pof2` ranks exchange full vectors across
    /// `log2 pof2` rounds, and folded ranks get the result back at the
    /// end. Latency-optimal for short vectors.
    pub(crate) fn allreduce_recursive_doubling_seq<T: MpiData + Reducible + Default>(
        &self,
        send: &[T],
        op: ReduceOp,
        seq: u32,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        let me = self.rank();
        let mut out = send.to_vec();
        if n == 1 {
            return Ok(out);
        }
        let pof2 = usize::BITS - 1 - n.leading_zeros();
        let pof2 = 1usize << pof2;
        let rem = n - pof2;
        let mut tmp = vec![T::default(); out.len()];

        // Fold phase: odd ranks below 2*rem contribute to their even
        // neighbour and sit the doubling rounds out.
        let fold_tag = coll_tag(OP_ALLREDUCE, seq, ALG_RECURSIVE_DOUBLING, 0);
        let newrank: Option<usize> = if me < 2 * rem {
            if me % 2 == 1 {
                self.coll_send(&out, me - 1, fold_tag)?;
                None
            } else {
                self.coll_recv(&mut tmp, me + 1, fold_tag)?;
                T::accumulate(op, &mut out, &tmp);
                Some(me / 2)
            }
        } else {
            Some(me - rem)
        };

        // Doubling rounds among the surviving power-of-two set.
        if let Some(nr) = newrank {
            let real = |pnr: usize| if pnr < rem { pnr * 2 } else { pnr + rem };
            let mut mask = 1;
            let mut round = 1;
            while mask < pof2 {
                let peer = real(nr ^ mask);
                let tag = coll_tag(OP_ALLREDUCE, seq, ALG_RECURSIVE_DOUBLING, round);
                self.coll_sendrecv(&out, peer, &mut tmp, peer, tag)?;
                T::accumulate(op, &mut out, &tmp);
                mask <<= 1;
                round += 1;
            }
        }

        // Unfold: even ranks hand the result back to their folded
        // neighbour. A distinct step keeps it clear of every round tag.
        if me < 2 * rem {
            let tag = coll_tag(OP_ALLREDUCE, seq, ALG_RECURSIVE_DOUBLING, 0xFFF);
            if me % 2 == 1 {
                self.coll_recv(&mut out, me - 1, tag)?;
            } else {
                self.coll_send(&out, me + 1, tag)?;
            }
        }
        Ok(out)
    }
}
