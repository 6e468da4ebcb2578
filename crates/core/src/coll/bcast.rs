//! Broadcast algorithm family: binomial tree and scatter-allgather.

use crate::coll::{coll_tag, ALG_BINOMIAL, ALG_SCATTER_ALLGATHER, OP_BCAST};
use crate::datatype::MpiData;
use crate::error::MpiResult;
use crate::mpi::Communicator;
use crate::types::{Rank, SourceSel, Tag, TagSel};

impl Communicator {
    /// Binomial-tree broadcast over explicit wire tag `tag`. Shared by the
    /// standalone broadcast, the scatter-allgather reassembly fallback,
    /// and the compound collectives (allgather gather+bcast, allreduce
    /// reduce+bcast), each of which supplies a tag in its own window.
    pub(crate) fn bcast_binomial_tagged<T: MpiData>(
        &self,
        buf: &mut [T],
        root: Rank,
        tag: Tag,
    ) -> MpiResult<()> {
        let n = self.size();
        let me = self.rank();
        let vrank = (me + n - root) % n;
        // Receive from the parent (the rank that differs in our lowest set
        // bit), unless we are the root.
        let mut mask = 1;
        while mask < n {
            if vrank & mask != 0 {
                let parent = ((vrank - mask) + root) % n;
                self.coll_recv(buf, parent, tag)?;
                break;
            }
            mask <<= 1;
        }
        // Forward to children.
        mask >>= 1;
        while mask > 0 {
            if vrank & mask == 0 && vrank + mask < n {
                let child = (vrank + mask + root) % n;
                self.coll_send(buf, child, tag)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Binomial broadcast at sequence `seq` (the dispatch target).
    pub(crate) fn bcast_binomial_seq<T: MpiData>(
        &self,
        buf: &mut [T],
        root: Rank,
        seq: u32,
    ) -> MpiResult<()> {
        self.bcast_binomial_tagged(buf, root, coll_tag(OP_BCAST, seq, ALG_BINOMIAL, 0))
    }

    /// Broadcast phase of a compound collective: the hardware broadcast
    /// where the device has one (the paper's Meiko design), else a
    /// binomial tree on `tag`.
    pub(crate) fn bcast_compound_phase<T: MpiData>(
        &self,
        buf: &mut [T],
        root: Rank,
        tag: Tag,
    ) -> MpiResult<()> {
        if self.size() > 1 && self.inner().device.has_hw_bcast() {
            self.bcast_hw(buf, root)
        } else {
            self.bcast_binomial_tagged(buf, root, tag)
        }
    }

    /// Scatter-allgather broadcast (van de Geijn): the root scatters `n`
    /// near-equal blocks directly to their owners, then a ring allgather
    /// over virtual ranks reassembles the full vector everywhere. Moves
    /// `~2 (n-1)/n` of the payload per rank instead of the binomial
    /// tree's `log2 n` root serializations, so it wins once bandwidth
    /// dominates. Correct (if pointless) for payloads smaller than `n`
    /// elements: trailing blocks are empty.
    pub(crate) fn bcast_scatter_allgather_seq<T: MpiData>(
        &self,
        buf: &mut [T],
        root: Rank,
        seq: u32,
    ) -> MpiResult<()> {
        let n = self.size();
        let me = self.rank();
        if n == 1 {
            return Ok(());
        }
        let count = buf.len();
        let vrank = (me + n - root) % n;
        // Block `v` (virtual-rank indexed) spans `start(v)..start(v + 1)`.
        let start = |v: usize| (v * count) / n;

        // Phase 1: the root sends each virtual rank its block directly.
        let tag = coll_tag(OP_BCAST, seq, ALG_SCATTER_ALLGATHER, 0);
        if vrank == 0 {
            for v in 1..n {
                let dst = (v + root) % n;
                self.coll_send(&buf[start(v)..start(v + 1)], dst, tag)?;
            }
        } else {
            self.coll_recv(&mut buf[start(vrank)..start(vrank + 1)], root, tag)?;
        }

        // Phase 2: ring allgather of the blocks over virtual ranks;
        // step `s` forwards the block received at step `s - 1`.
        let right = ((vrank + 1) % n + root) % n;
        let left = ((vrank + n - 1) % n + root) % n;
        for step in 0..n - 1 {
            let send_block = (vrank + n - step) % n;
            let recv_block = (vrank + n - step - 1) % n;
            let tmp = buf[start(send_block)..start(send_block + 1)].to_vec();
            let tag = coll_tag(OP_BCAST, seq, ALG_SCATTER_ALLGATHER, 1 + step);
            let rid = self.post_recv_raw(
                &mut buf[start(recv_block)..start(recv_block + 1)],
                SourceSel::Rank(left),
                TagSel::Tag(tag),
                self.coll_ctx(),
            )?;
            self.coll_send(&tmp, right, tag)?;
            rid.wait()?;
        }
        Ok(())
    }
}
