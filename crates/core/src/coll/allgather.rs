//! Allgather algorithm family: ring and gather+bcast.

use crate::coll::{coll_tag, ALG_GATHER_BCAST, ALG_RING, OP_ALLGATHER};
use crate::datatype::MpiData;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Communicator;
use crate::types::{SourceSel, TagSel};

impl Communicator {
    /// Ring allgather: `n - 1` steps, each forwarding the block received
    /// the step before to the right-hand neighbour.
    pub(crate) fn allgather_ring_seq<T: MpiData + Default>(
        &self,
        send: &[T],
        seq: u32,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        let me = self.rank();
        let count = send.len();
        let mut out = vec![T::default(); count * n];
        out[me * count..(me + 1) * count].copy_from_slice(send);
        if n == 1 {
            return Ok(out);
        }
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        for step in 0..n - 1 {
            let send_block = (me + n - step) % n;
            let recv_block = (me + n - step - 1) % n;
            let tmp = out[send_block * count..(send_block + 1) * count].to_vec();
            let tag = coll_tag(OP_ALLGATHER, seq, ALG_RING, step);
            let rid = self.post_recv_raw(
                &mut out[recv_block * count..(recv_block + 1) * count],
                SourceSel::Rank(left),
                TagSel::Tag(tag),
                self.coll_ctx(),
            )?;
            self.coll_send(&tmp, right, tag)?;
            rid.wait()?;
        }
        Ok(out)
    }

    /// Gather+bcast allgather: every rank sends its contribution to local
    /// rank 0, which broadcasts the concatenation (the broadcast phase
    /// rides the hardware broadcast where the device has one).
    pub(crate) fn allgather_gather_bcast_seq<T: MpiData + Default>(
        &self,
        send: &[T],
        seq: u32,
    ) -> MpiResult<Vec<T>> {
        let n = self.size();
        let me = self.rank();
        let count = send.len();
        let mut out = vec![T::default(); count * n];
        let tag_gather = coll_tag(OP_ALLGATHER, seq, ALG_GATHER_BCAST, 0);
        let tag_bcast = coll_tag(OP_ALLGATHER, seq, ALG_GATHER_BCAST, 1);
        if me == 0 {
            out[..count].copy_from_slice(send);
            for src in 1..n {
                let st =
                    self.coll_recv(&mut out[src * count..(src + 1) * count], src, tag_gather)?;
                if st.len != T::byte_len(count) {
                    return Err(MpiError::CollectiveMismatch(format!(
                        "allgather: rank {src} sent {} bytes, expected {}",
                        st.len,
                        T::byte_len(count)
                    )));
                }
            }
        } else {
            self.coll_send(send, 0, tag_gather)?;
        }
        self.bcast_compound_phase(&mut out, 0, tag_bcast)?;
        Ok(out)
    }
}
