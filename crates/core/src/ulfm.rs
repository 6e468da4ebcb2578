//! ULFM-style fault-tolerance surface: `failed_ranks`, `revoke`, `agree`,
//! and `shrink` on [`Communicator`].
//!
//! The design follows the User-Level Failure Mitigation proposal in
//! miniature. Failure *detection* lives in the transport (the reliable
//! device's heartbeat machine); this module is the *recovery* layer an
//! application drives once a [`MpiError::PeerFailed`] surfaces:
//!
//! 1. `revoke()` the communicator so every surviving member's pending and
//!    future operations on it fail fast instead of deadlocking,
//! 2. `agree()` / `shrink()` to reach a consistent view of who is dead and
//!    build a replacement communicator from the survivors.
//!
//! # Agreement protocol
//!
//! `agree` and `shrink` share one fault-tolerant round (`ft_round`): a
//! two-phase coordinator scheme over the communicator's collective
//! context. The coordinator is the lowest-numbered local rank not locally
//! known to be dead. Phase 1 gathers `[flags, failed-mask, next-context]`
//! triples from every member; the coordinator folds them (AND over flags,
//! OR over failure masks, max over context counters) and phase 2 fans the
//! verdict back out. A member that loses its coordinator mid-round simply
//! retries with the next live candidate — the dead coordinator's rank is
//! in the retry's failure mask, so all survivors converge on the same
//! replacement. Coordinator retries are bounded by the group size.
//!
//! Masks are per-*local*-rank bits in a `u64`, which caps fault-tolerant
//! agreement at 64-rank communicators; larger groups get a typed
//! [`MpiError::Unsupported`] rather than silently dropping ranks.
//!
//! # Limits
//!
//! * Progress during agreement relies on the transport detecting failures
//!   (heartbeats enabled). On a transport with no failure detection a
//!   dead coordinator stalls the round exactly as it would stall any
//!   blocking receive.
//! * The agreement decides on *observed* failures; a rank that dies after
//!   phase 2 is simply material for the next round.

use std::sync::Arc;

use crate::collectives::T_AGREE;
use crate::error::{MpiError, MpiResult};
use crate::mpi::Communicator;
use crate::packet::{Packet, Wire};
use crate::request::RecvDest;
use crate::types::{Rank, SendMode, SourceSel, Tag, TagSel};

/// Phase-2 (coordinator → members) verdict tag, per the collective
/// round-shift convention.
const T_AGREE_VERDICT: Tag = T_AGREE + (1 << 4);

/// One agreement payload: `[flags, failed-mask, next-context]`.
type Triple = [u64; 3];
const TRIPLE_BYTES: usize = std::mem::size_of::<Triple>();

impl Communicator {
    /// Local ranks of this communicator currently known (locally) to have
    /// failed, ascending. Drains the transport first so a freshly expired
    /// heartbeat is reflected without waiting for the next blocking call.
    ///
    /// This is a *local* view — two ranks may briefly disagree until an
    /// [`agree`](Self::agree) or [`shrink`](Self::shrink) synchronizes
    /// them.
    pub fn failed_ranks(&self) -> MpiResult<Vec<Rank>> {
        self.inner().poll()?;
        let eng = self.inner().eng.lock();
        Ok(self
            .group_ranks()
            .iter()
            .enumerate()
            .filter(|&(_, &g)| eng.is_failed(g))
            .map(|(local, _)| local)
            .collect())
    }

    /// Revoke this communicator: every pending and future operation on it
    /// (point-to-point and collective) completes with
    /// [`MpiError::Revoked`], here and — once the flooded revoke frame
    /// lands — on every other live member. Idempotent; matched transfers
    /// already in flight still finish.
    ///
    /// Call this from the first rank that observes a
    /// [`MpiError::PeerFailed`] so the whole group fails fast instead of
    /// some members blocking on the dead rank.
    pub fn revoke(&self) -> MpiResult<()> {
        let inner = self.inner();
        inner.poll()?;
        if !inner.eng.lock().mark_revoked(self.ctx()) {
            return Ok(()); // already revoked: nothing to flood
        }
        let me = self.global(self.rank())?;
        let targets: Vec<Rank> = {
            let eng = inner.eng.lock();
            self.group_ranks()
                .iter()
                .copied()
                .filter(|&g| g != me && !eng.is_failed(g))
                .collect()
        };
        for dst in targets {
            inner.device.send(
                dst,
                Wire::bare(
                    me,
                    Packet::Revoke {
                        context: self.ctx(),
                    },
                ),
            );
        }
        Ok(())
    }

    /// Fault-tolerant agreement: returns the bitwise AND of every
    /// surviving member's `flags`, with bit positions carrying whatever
    /// per-rank meaning the caller assigns. All survivors return the same
    /// value and the same (unioned) knowledge of which ranks are dead,
    /// even if ranks fail mid-call. Works on a revoked communicator —
    /// this is the tool that lets survivors coordinate *after* a revoke.
    pub fn agree(&self, flags: u64) -> MpiResult<u64> {
        let (agreed, mask, next) = self.ft_round(flags)?;
        self.apply_failures(mask)?;
        self.bump_next_context(next);
        Ok(agreed)
    }

    /// Build a new communicator from this one's survivors. Runs a
    /// fault-tolerant agreement so every survivor derives the identical
    /// group and fresh context ids, then maps this rank into it. Errors
    /// with [`MpiError::PeerFailed`] naming the local rank if the
    /// agreement concluded *this* rank dead (a partition artifact — the
    /// caller should stop).
    pub fn shrink(&self) -> MpiResult<Communicator> {
        let (_, mask, next) = self.ft_round(u64::MAX)?;
        self.apply_failures(mask)?;
        if mask & (1u64 << self.rank()) != 0 {
            return Err(MpiError::peer_failed(
                self.rank(),
                "agreement declared this rank dead; it cannot join the shrunken communicator",
            ));
        }
        let me = self.global(self.rank())?;
        let survivors: Vec<Rank> = self
            .group_ranks()
            .iter()
            .enumerate()
            .filter(|&(local, _)| mask & (1u64 << local) == 0)
            .map(|(_, &g)| g)
            .collect();
        let my_local = survivors
            .iter()
            .position(|&g| g == me)
            .ok_or_else(|| MpiError::internal("surviving rank missing from survivor group"))?;
        // The agreed counter is the max over all members, so `base` and
        // `base + 1` are fresh everywhere; advance past them in lockstep.
        let base = next as u32;
        self.inner().eng.lock().next_context = base.wrapping_add(2);
        Ok(Communicator::make(
            Arc::clone(self.inner()),
            base,
            base.wrapping_add(1),
            Arc::new(survivors),
            my_local,
        ))
    }

    // ------------------------------------------------------------------
    // Agreement internals
    // ------------------------------------------------------------------

    /// Local failure knowledge as a per-local-rank bitmask.
    fn local_failed_mask(&self) -> u64 {
        let eng = self.inner().eng.lock();
        let mut mask = 0u64;
        for (local, &g) in self.group_ranks().iter().enumerate() {
            if eng.is_failed(g) {
                mask |= 1u64 << local;
            }
        }
        mask
    }

    /// Record deaths learned through agreement (idempotent per rank), so
    /// local state — pending operations, matcher bins — converges with
    /// the group's verdict.
    fn apply_failures(&self, mask: u64) -> MpiResult<()> {
        let inner = self.inner();
        for (local, &g) in self.group_ranks().iter().enumerate() {
            if mask & (1u64 << local) != 0 && !inner.eng.lock().is_failed(g) {
                inner.eng.lock().fail_peer(
                    &*inner.device,
                    g,
                    MpiError::peer_failed(g, "failure learned through fault-tolerant agreement"),
                );
            }
        }
        Ok(())
    }

    /// Advance the context allocator to the agreed watermark so the next
    /// communicator-creating call picks ids fresh on every member.
    fn bump_next_context(&self, next: u64) {
        let mut eng = self.inner().eng.lock();
        eng.next_context = eng.next_context.max(next as u32);
    }

    /// One fault-tolerant agreement round. Returns `(flags, mask, next)`:
    /// AND of survivor flags, OR of survivor failure masks, max of
    /// survivor `next_context` counters — identical on every survivor.
    fn ft_round(&self, my_flags: u64) -> MpiResult<(u64, u64, u64)> {
        let n = self.size();
        if n > 64 {
            return Err(MpiError::Unsupported {
                what: "fault-tolerant agreement on communicators larger than 64 ranks \
                       (failure mask is a u64 of local-rank bits)"
                    .into(),
            });
        }
        let me = self.rank();
        // Bounded by group size: each retry needs a *new* dead coordinator.
        for _attempt in 0..n {
            self.inner().poll()?;
            let known = self.local_failed_mask();
            let Some(coord) = (0..n).find(|&r| known & (1u64 << r) == 0) else {
                return Err(MpiError::internal(
                    "every rank in the communicator is marked failed, including this one",
                ));
            };
            let my_next = u64::from(self.inner().eng.lock().next_context);
            if me == coord {
                return self.ft_coordinate([my_flags, known, my_next]);
            }
            match self
                .ft_send(&[my_flags, known, my_next], coord, T_AGREE)
                .and_then(|()| self.ft_recv(coord, T_AGREE_VERDICT))
            {
                Ok([flags, mask, next]) => {
                    return Ok((flags, mask | self.local_failed_mask(), next));
                }
                Err(MpiError::PeerFailed { .. })
                    if self.inner().eng.lock().is_failed(self.global(coord)?) =>
                {
                    continue; // coordinator died: rerun with the next candidate
                }
                Err(e) => return Err(e),
            }
        }
        Err(MpiError::internal(
            "fault-tolerant agreement exhausted every coordinator candidate",
        ))
    }

    /// Coordinator side of one round: gather triples, fold, fan out.
    fn ft_coordinate(&self, mine: Triple) -> MpiResult<(u64, u64, u64)> {
        let n = self.size();
        let me = self.rank();
        let [mut flags, mut mask, mut next] = mine;
        for r in 0..n {
            if r == me || mask & (1u64 << r) != 0 {
                continue;
            }
            match self.ft_recv(r, T_AGREE) {
                Ok([f, m, nx]) => {
                    flags &= f;
                    mask |= m;
                    next = next.max(nx);
                }
                // A member that dies mid-gather joins the verdict's mask.
                Err(MpiError::PeerFailed { .. }) => mask |= 1u64 << r,
                Err(e) => return Err(e),
            }
        }
        mask |= self.local_failed_mask();
        for r in 0..n {
            if r == me || mask & (1u64 << r) != 0 {
                continue;
            }
            match self.ft_send(&[flags, mask, next], r, T_AGREE_VERDICT) {
                Ok(()) => {}
                // Died between gather and verdict: the *next* round's
                // problem; this round's survivors already agree.
                Err(MpiError::PeerFailed { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((flags, mask | self.local_failed_mask(), next))
    }

    /// Point-to-point send that bypasses the revoked-communicator check —
    /// agreement must run on revoked communicators.
    fn ft_send(&self, triple: &Triple, dst_local: Rank, tag: Tag) -> MpiResult<()> {
        let dst = self.global(dst_local)?;
        let inner = self.inner();
        let id = {
            let mut eng = inner.eng.lock();
            let data = eng.stage_payload(triple.as_slice());
            eng.post_send(
                &*inner.device,
                dst,
                tag,
                self.coll_ctx(),
                data,
                SendMode::Standard,
            )?
        };
        inner.wait_request(id).map(|_| ())
    }

    /// Matching receive; see [`ft_send`](Self::ft_send).
    fn ft_recv(&self, src_local: Rank, tag: Tag) -> MpiResult<Triple> {
        let src = self.global(src_local)?;
        let inner = self.inner();
        let mut triple: Triple = [0; 3];
        let dst = RecvDest::contiguous(triple.as_mut_ptr().cast::<u8>(), TRIPLE_BYTES);
        let id = inner.eng.lock().post_recv(
            &*inner.device,
            dst,
            SourceSel::Rank(src),
            TagSel::Tag(tag),
            self.coll_ctx(),
        );
        match inner.wait_request(id) {
            Ok(st) if st.len == TRIPLE_BYTES => Ok(triple),
            Ok(st) => Err(MpiError::internal(format!(
                "agreement frame from rank {src} carried {} bytes, expected {TRIPLE_BYTES}",
                st.len
            ))),
            // `wait_request` abandoned the request if it was still live,
            // so nothing points at `triple` any more.
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use crate::device::loopback::Loopback;
    use crate::mpi::Mpi;
    use crate::packet::ContextId;

    fn mpi(rank: Rank, nprocs: usize) -> Mpi {
        Mpi::new(
            Box::new(Loopback::new(rank, nprocs)),
            MpiConfig::device_defaults(),
        )
    }

    /// Declare `peer` dead on this rank, as the liveness layer would.
    fn kill(world: &Communicator, peer: Rank) {
        let inner = world.inner();
        inner.eng.lock().fail_peer(
            &*inner.device,
            peer,
            MpiError::peer_failed(peer, "test kill"),
        );
    }

    #[test]
    fn single_rank_agreement_is_its_own_input() {
        let m = mpi(0, 1);
        let world = m.world();
        assert_eq!(world.agree(0xdead_beef).unwrap(), 0xdead_beef);
        assert_eq!(world.failed_ranks().unwrap(), Vec::<Rank>::new());
    }

    #[test]
    fn shrink_mints_fresh_contexts_and_keeps_survivors() {
        let m = mpi(1, 2);
        let world = m.world();
        kill(&world, 0);
        // Local rank 1 is the only live candidate: it coordinates alone.
        let shrunk = world.shrink().expect("survivor can shrink");
        assert_eq!(shrunk.size(), 1);
        assert_eq!(shrunk.rank(), 0, "survivor renumbered from the bottom");
        assert_eq!(shrunk.group_ranks(), &[1], "global identity preserved");
        assert_ne!(shrunk.ctx(), world.ctx());
        assert_eq!(shrunk.coll_ctx(), shrunk.ctx() + 1);
        let next = world.inner().eng.lock().next_context;
        assert!(
            next > shrunk.coll_ctx(),
            "context allocator advanced past the new communicator"
        );
        // The shrunken communicator works where the old one is poisoned.
        assert_eq!(shrunk.failed_ranks().unwrap(), Vec::<Rank>::new());
        assert_eq!(world.failed_ranks().unwrap(), vec![0]);
    }

    #[test]
    fn agreement_folds_local_failure_knowledge_into_the_mask() {
        let m = mpi(2, 3);
        let world = m.world();
        kill(&world, 0);
        kill(&world, 1);
        // Both lower ranks are dead, so this rank coordinates by itself and
        // the agreed mask is exactly its local knowledge.
        assert_eq!(world.agree(u64::MAX).unwrap(), u64::MAX);
        assert_eq!(world.failed_ranks().unwrap(), vec![0, 1]);
    }

    #[test]
    fn oversized_communicators_get_a_typed_unsupported_error() {
        let m = mpi(0, 65);
        let world = m.world();
        assert!(matches!(world.agree(0), Err(MpiError::Unsupported { .. })));
        assert!(matches!(world.shrink(), Err(MpiError::Unsupported { .. })));
    }

    /// Forwarding device that shares the underlying [`Loopback`] with the
    /// test, so frames recorded in `sent` stay inspectable after the
    /// device moves into [`Mpi::new`].
    struct Shared(std::sync::Arc<Loopback>);

    impl crate::device::Device for Shared {
        fn rank(&self) -> Rank {
            self.0.rank()
        }
        fn nprocs(&self) -> usize {
            self.0.nprocs()
        }
        fn send(&self, dst: Rank, wire: Wire) {
            self.0.send(dst, wire);
        }
        fn try_recv(&self) -> MpiResult<Option<Wire>> {
            self.0.try_recv()
        }
        fn recv_blocking(&self) -> MpiResult<Wire> {
            self.0.recv_blocking()
        }
        fn charge(&self, cost: crate::device::Cost) {
            self.0.charge(cost);
        }
        fn wtime(&self) -> f64 {
            self.0.wtime()
        }
        fn defaults(&self) -> crate::device::DeviceDefaults {
            self.0.defaults()
        }
    }

    #[test]
    fn revoke_floods_live_members_once_and_skips_the_dead() {
        let fabric = std::sync::Arc::new(Loopback::new(0, 3));
        let m = Mpi::new(
            Box::new(Shared(std::sync::Arc::clone(&fabric))),
            MpiConfig::device_defaults(),
        );
        let world = m.world();
        kill(&world, 2);
        world.revoke().unwrap();
        {
            let eng = world.inner().eng.lock();
            assert!(eng.is_revoked(world.ctx()));
            assert!(eng.is_revoked(world.coll_ctx()));
        }
        world.revoke().unwrap(); // idempotent: no second flood, no error
        let sends: Vec<(Rank, ContextId)> = fabric
            .sent
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(dst, wire)| match wire.pkt {
                Packet::Revoke { context } => Some((*dst, context)),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            vec![(1, world.ctx())],
            "one revoke frame, to the one live peer"
        );
    }
}
