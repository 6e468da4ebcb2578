//! Barrier algorithm family: dissemination and binomial tree.

use crate::coll::{coll_tag, ALG_DISSEMINATION, ALG_TREE, OP_BARRIER};
use crate::error::MpiResult;
use crate::mpi::Communicator;
use crate::types::{SourceSel, TagSel};

impl Communicator {
    /// Dissemination barrier: `ceil(log2 n)` rounds; in round `r` rank
    /// `me` signals `me + 2^r` and waits on `me - 2^r` (mod `n`).
    pub(crate) fn barrier_dissemination_seq(&self, seq: u32) -> MpiResult<()> {
        let n = self.size();
        let me = self.rank();
        let mut dist = 1;
        let mut round = 0usize;
        while dist < n {
            let dst = (me + dist) % n;
            let src = (me + n - dist) % n;
            let tag = coll_tag(OP_BARRIER, seq, ALG_DISSEMINATION, round);
            let mut empty = [0u8; 0];
            let rid = self.post_recv_raw(
                &mut empty,
                SourceSel::Rank(src),
                TagSel::Tag(tag),
                self.coll_ctx(),
            )?;
            self.coll_send::<u8>(&[], dst, tag)?;
            rid.wait()?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Tree barrier: binomial gather-up to rank 0 (each rank collects its
    /// subtree before signalling its parent), then a binomial release
    /// broadcast down. Twice the depth of dissemination but half the
    /// total messages per round.
    pub(crate) fn barrier_tree_seq(&self, seq: u32) -> MpiResult<()> {
        let n = self.size();
        let me = self.rank();
        let tag_up = coll_tag(OP_BARRIER, seq, ALG_TREE, 0);
        let tag_down = coll_tag(OP_BARRIER, seq, ALG_TREE, 1);
        let mut empty = [0u8; 0];
        let mut mask = 1;
        while mask < n {
            if me & mask != 0 {
                self.coll_send::<u8>(&[], me - mask, tag_up)?;
                break;
            }
            let child = me + mask;
            if child < n {
                self.coll_recv(&mut empty, child, tag_up)?;
            }
            mask <<= 1;
        }
        self.bcast_binomial_tagged::<u8>(&mut empty, 0, tag_down)
    }
}
