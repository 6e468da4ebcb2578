//! The send↔receive matching engine.
//!
//! MPI requires the *receiver* to match, because `MPI_ANY_SOURCE` means only
//! the receiver knows the candidate set (paper §4.1). Two structures per
//! rank:
//!
//! * **posted** — receives waiting for a message;
//! * **unexpected** — envelopes (with eager data, or a rendezvous token)
//!   that arrived before a matching receive was posted.
//!
//! The paper's Fig. 2 result is that matching cost *is* the product: moving
//! it onto the fast CPU halves 1-byte latency. To keep that cost flat at
//! depth, both structures are **hashed matching bins** (the shape of MPICH
//! CH4's posted-receive queues and Open MPI's matched-probe design): a
//! `HashMap<(context, src, tag), VecDeque<_>>` fast path for fully-specific
//! receives and for arrivals (which are always concrete), plus a separate
//! FIFO queue for wildcard receives (`MPI_ANY_SOURCE` and/or `MPI_ANY_TAG`).
//!
//! Ordering argument: every insertion — posted or unexpected, specific or
//! wildcard — is stamped with a single global monotonic sequence number.
//! Within one bin entries are FIFO, so the bin front is that bin's oldest;
//! a match compares the specific-bin front against the oldest matching
//! wildcard entry (or, for wildcard receives, the fronts of all candidate
//! bins) and takes the smallest stamp. The selected candidate is therefore
//! the globally oldest matchable one — exactly what the linear scan chose —
//! which combined with per-pair FIFO transport preserves the MPI
//! non-overtaking guarantee. The original scan lives on beside the
//! differential property test (`tests/prop_matching.rs`) as the executable
//! specification; the test drives both with random schedules.
//!
//! Empty bins are deliberately *retained* in the maps so their `VecDeque`
//! capacity is reused: a steady-state ping-pong posts and matches the same
//! `(context, src, tag)` forever without touching the allocator. Wildcard
//! lookups skip empty bins.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::bytes::Bytes;

use crate::packet::{ContextId, Envelope};
use crate::types::{Rank, SourceSel, Tag, TagSel};

/// Multiply-rotate hasher (the FxHash scheme) for the small fixed-width
/// bin keys. SipHash's per-lookup cost would dominate the depth-1 match —
/// the very case the paper's latency argument lives on — and matching keys
/// come from ranks/tags/contexts of a job, not attacker-shaped input, so
/// HashDoS resistance buys nothing here.
#[derive(Default)]
struct BinHasher(u64);

impl BinHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for BinHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type BinMap<V> = HashMap<BinKey, V, BuildHasherDefault<BinHasher>>;

/// A receive waiting to be matched. `dst` describes where the payload goes;
/// see `request::RecvDest` for the safety contract.
#[derive(Debug)]
pub struct PostedRecv {
    /// Receiver request id (slot in the request table).
    pub recv_id: u64,
    /// Source selector (global ranks; `Any` restricted by group membership
    /// at a higher level).
    pub src: SourceSel,
    /// Tag selector.
    pub tag: TagSel,
    /// Communicator context.
    pub context: ContextId,
}

/// What arrived early: an eager payload or a rendezvous announcement.
#[derive(Debug)]
pub enum UnexpectedBody {
    /// Eager data held in the bounce buffer (data credit stays consumed
    /// until this is matched and copied out).
    Eager {
        /// The buffered payload.
        data: Bytes,
        /// Sender request id (for the synchronous-mode ack).
        send_id: u64,
        /// Whether the sender awaits a match acknowledgment.
        needs_ack: bool,
    },
    /// A rendezvous request; data is still at the sender.
    Rndv {
        /// Sender request id to echo in `RndvGo`.
        send_id: u64,
        /// The sender's lent buffer, when the request carried one (see
        /// [`crate::Packet::RndvReq`]).
        lease: Option<std::sync::Arc<crate::request::Lease>>,
    },
}

/// An envelope that arrived before its receive was posted.
#[derive(Debug)]
pub struct UnexpectedMsg {
    /// The envelope as received.
    pub env: Envelope,
    /// Flight-recorder sequence from the carrying frame (0 = untagged),
    /// preserved across the unexpected-queue dwell so the eventual match
    /// and delivery events can name the message.
    pub msg_seq: u32,
    /// Eager payload or rendezvous token.
    pub body: UnexpectedBody,
}

/// Key of a fully-specific matching bin.
type BinKey = (ContextId, Rank, Tag);

#[derive(Debug)]
struct PostedEntry {
    /// Global insertion stamp (shared counter with unexpected entries).
    seq: u64,
    recv: PostedRecv,
}

#[derive(Debug)]
struct UnexpectedEntry {
    /// Global insertion stamp (shared counter with posted entries).
    seq: u64,
    msg: UnexpectedMsg,
}

/// Per-rank matching state with hashed bins (see module docs).
#[derive(Debug, Default)]
pub struct MatchEngine {
    /// Fully-specific posted receives, binned by `(context, src, tag)`.
    posted_bins: BinMap<VecDeque<PostedEntry>>,
    /// Posted receives with `ANY_SOURCE` and/or `ANY_TAG`, in post order.
    posted_wild: VecDeque<PostedEntry>,
    /// Early arrivals, binned by their (always concrete) envelope key.
    unexpected_bins: BinMap<VecDeque<UnexpectedEntry>>,
    /// Next global insertion stamp.
    seq_counter: u64,
    /// Total posted receives queued (all bins plus the wildcard queue).
    posted_len: usize,
    /// Total unexpected messages queued.
    unexpected_len: usize,
    /// Currently non-empty bins (posted and unexpected maps combined).
    occupied_bins: usize,
    /// High-water mark of simultaneously occupied bins (Table 1
    /// instrumentation; wildcard queue excluded): breadth, not depth.
    pub bins_hwm: u64,
    /// High-water mark of the receives queued in one posted bin: how far
    /// a lookup may have to walk past one key.
    pub bin_depth_hwm: u64,
    /// Total successful matches (Table 1 instrumentation).
    pub matches: u64,
    /// Matches that hit the unexpected queue (message beat the receive).
    pub unexpected_hits: u64,
}

impl MatchEngine {
    /// Fresh, empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.seq_counter;
        self.seq_counter += 1;
        s
    }

    /// An envelope arrived: take the *oldest* matching posted receive, if
    /// any, comparing the specific bin's front against the wildcard queue.
    pub fn match_incoming(&mut self, env: &Envelope) -> Option<PostedRecv> {
        // The wildcard queue is in post order, so the first match is the
        // oldest matching wildcard receive.
        let wild = self
            .posted_wild
            .iter()
            .enumerate()
            .find(|(_, e)| {
                e.recv.context == env.context
                    && e.recv.src.matches(env.src)
                    && e.recv.tag.matches(env.tag)
            })
            .map(|(i, e)| (i, e.seq));

        // Single mutable bin lookup: peek the front stamp and pop in place
        // when the specific candidate wins (stamps are unique, so strict
        // comparison decides).
        let mut recv = None;
        if let Some(q) = self.posted_bins.get_mut(&(env.context, env.src, env.tag)) {
            let specific_wins = match (q.front(), wild) {
                (Some(_), None) => true,
                (Some(front), Some((_, w))) => front.seq < w,
                (None, _) => false,
            };
            if specific_wins {
                recv = q.pop_front().map(|e| e.recv);
                if q.is_empty() {
                    self.occupied_bins -= 1;
                }
            }
        }
        if recv.is_none() {
            if let Some((i, _)) = wild {
                recv = self.posted_wild.remove(i).map(|e| e.recv);
            }
        }
        if recv.is_some() {
            self.matches += 1;
            self.posted_len -= 1;
        }
        recv
    }

    /// A receive was posted: take the oldest matching unexpected message,
    /// if any; otherwise enqueue the receive (specific bin or wildcard
    /// queue).
    pub fn match_posted(
        &mut self,
        recv_id: u64,
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    ) -> Option<UnexpectedMsg> {
        if let Some(msg) = self.take_unexpected(src, tag, context) {
            self.matches += 1;
            self.unexpected_hits += 1;
            return Some(msg);
        }
        let seq = self.alloc_seq();
        let recv = PostedRecv {
            recv_id,
            src,
            tag,
            context,
        };
        self.posted_len += 1;
        match (src, tag) {
            (SourceSel::Rank(s), TagSel::Tag(t)) => {
                let q = self.posted_bins.entry((context, s, t)).or_default();
                let newly_occupied = q.is_empty();
                q.push_back(PostedEntry { seq, recv });
                self.bin_depth_hwm = self.bin_depth_hwm.max(q.len() as u64);
                if newly_occupied {
                    self.note_bin_occupied();
                }
            }
            _ => self.posted_wild.push_back(PostedEntry { seq, recv }),
        }
        None
    }

    /// Probe: peek at the oldest matching unexpected message without
    /// consuming it.
    pub fn probe(&self, src: SourceSel, tag: TagSel, context: ContextId) -> Option<&UnexpectedMsg> {
        let key = self.oldest_unexpected_key(src, tag, context)?;
        self.unexpected_bins
            .get(&key)
            .and_then(|q| q.front())
            .map(|e| &e.msg)
    }

    /// Take the oldest unexpected message matching the selectors.
    fn take_unexpected(
        &mut self,
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    ) -> Option<UnexpectedMsg> {
        if self.unexpected_len == 0 {
            return None;
        }
        // Fully-specific selectors pop their bin with one mutable lookup;
        // wildcards locate the oldest bin front first, then pop it.
        let e = if let (SourceSel::Rank(s), TagSel::Tag(t)) = (src, tag) {
            let q = self.unexpected_bins.get_mut(&(context, s, t))?;
            let e = q.pop_front()?;
            if q.is_empty() {
                self.occupied_bins -= 1;
            }
            e
        } else {
            let key = self.oldest_unexpected_key(src, tag, context)?;
            let q = self.unexpected_bins.get_mut(&key)?;
            let e = q.pop_front()?;
            if q.is_empty() {
                self.occupied_bins -= 1;
            }
            e
        };
        self.unexpected_len -= 1;
        Some(e.msg)
    }

    /// Key of the bin whose front is the oldest arrival matching the
    /// selectors, or `None` if nothing matches. Arrivals are always
    /// concrete, so a fully-specific receive is a single bin lookup; a
    /// wildcard receive compares the fronts of all candidate bins.
    fn oldest_unexpected_key(
        &self,
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    ) -> Option<BinKey> {
        if let (SourceSel::Rank(s), TagSel::Tag(t)) = (src, tag) {
            let key = (context, s, t);
            return self
                .unexpected_bins
                .get(&key)
                .and_then(|q| q.front())
                .map(|_| key);
        }
        // Wildcard: compare bin fronts (each front is its bin's oldest, and
        // all entries in a bin share the key, so fronts suffice). Retained
        // empty bins are skipped.
        let mut best: Option<(u64, BinKey)> = None;
        for (key, q) in &self.unexpected_bins {
            let Some(front) = q.front() else { continue };
            if key.0 != context || !src.matches(key.1) || !tag.matches(key.2) {
                continue;
            }
            let better = match best {
                None => true,
                Some((best_seq, _)) => front.seq < best_seq,
            };
            if better {
                best = Some((front.seq, *key));
            }
        }
        best.map(|(_, k)| k)
    }

    /// Store an early arrival in its envelope's bin.
    pub fn add_unexpected(&mut self, msg: UnexpectedMsg) {
        let seq = self.alloc_seq();
        let key = (msg.env.context, msg.env.src, msg.env.tag);
        self.unexpected_len += 1;
        let q = self.unexpected_bins.entry(key).or_default();
        let newly_occupied = q.is_empty();
        q.push_back(UnexpectedEntry { seq, msg });
        if newly_occupied {
            self.note_bin_occupied();
        }
    }

    fn note_bin_occupied(&mut self) {
        self.occupied_bins += 1;
        self.bins_hwm = self.bins_hwm.max(self.occupied_bins as u64);
    }

    /// Remove a posted receive (for `cancel`). Returns whether it was found.
    pub fn cancel_posted(&mut self, recv_id: u64) -> bool {
        if let Some(i) = self
            .posted_wild
            .iter()
            .position(|e| e.recv.recv_id == recv_id)
        {
            self.posted_wild.remove(i);
            self.posted_len -= 1;
            return true;
        }
        for q in self.posted_bins.values_mut() {
            if let Some(i) = q.iter().position(|e| e.recv.recv_id == recv_id) {
                q.remove(i);
                if q.is_empty() {
                    self.occupied_bins -= 1;
                }
                self.posted_len -= 1;
                return true;
            }
        }
        false
    }

    /// Generic purge: drop every posted receive and unexpected message
    /// selected by the predicates. `key_hit` selects whole specific bins
    /// (every entry in a bin shares the key, so a key hit empties the bin);
    /// `recv_hit` additionally filters the wildcard queue. Returns the
    /// dropped receives' request ids (so the caller can complete them with
    /// a failure) and the dropped unexpected messages (so eager bounce
    /// buffer space can be released). Emptied bins are retained per the
    /// module-level capacity-reuse policy; `occupied_bins` is kept exact.
    fn purge(
        &mut self,
        key_hit: impl Fn(&BinKey) -> bool,
        recv_hit: impl Fn(&PostedRecv) -> bool,
    ) -> (Vec<u64>, Vec<UnexpectedMsg>) {
        let mut recv_ids = Vec::new();
        let mut msgs = Vec::new();
        for (key, q) in self.posted_bins.iter_mut() {
            if q.is_empty() || !key_hit(key) {
                continue;
            }
            for e in q.drain(..) {
                recv_ids.push(e.recv.recv_id);
            }
            self.occupied_bins -= 1;
        }
        self.posted_wild.retain(|e| {
            if recv_hit(&e.recv) {
                recv_ids.push(e.recv.recv_id);
                false
            } else {
                true
            }
        });
        self.posted_len -= recv_ids.len();
        for (key, q) in self.unexpected_bins.iter_mut() {
            if q.is_empty() || !key_hit(key) {
                continue;
            }
            for e in q.drain(..) {
                msgs.push(e.msg);
            }
            self.occupied_bins -= 1;
        }
        self.unexpected_len -= msgs.len();
        (recv_ids, msgs)
    }

    /// A peer died: drop every fully-specific posted receive naming it as
    /// source and every unexpected message it sent. Wildcard (`ANY_SOURCE`)
    /// receives are deliberately *kept* — another live rank may still
    /// satisfy them (the engine documents this ULFM-style limitation).
    pub fn purge_peer(&mut self, peer: Rank) -> (Vec<u64>, Vec<UnexpectedMsg>) {
        self.purge(
            |key| key.1 == peer,
            |recv| matches!(recv.src, SourceSel::Rank(s) if s == peer),
        )
    }

    /// A communicator was revoked: drop everything bound to its context,
    /// wildcard receives included — no future arrival on a revoked context
    /// may complete normally.
    pub fn purge_context(&mut self, context: ContextId) -> (Vec<u64>, Vec<UnexpectedMsg>) {
        self.purge(|key| key.0 == context, |recv| recv.context == context)
    }

    /// Queue depths `(posted, unexpected)` for diagnostics.
    #[allow(dead_code)] // exercised by unit tests
    pub fn depths(&self) -> (usize, usize) {
        (self.posted_len, self.unexpected_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Rank;

    fn env(src: Rank, tag: u32, context: ContextId) -> Envelope {
        Envelope {
            src,
            tag,
            context,
            len: 0,
        }
    }

    fn rndv(src: Rank, tag: u32, ctx: ContextId, send_id: u64) -> UnexpectedMsg {
        UnexpectedMsg {
            env: env(src, tag, ctx),
            msg_seq: 0,
            body: UnexpectedBody::Rndv {
                send_id,
                lease: None,
            },
        }
    }

    #[test]
    fn posted_then_incoming_matches() {
        let mut m = MatchEngine::new();
        assert!(m
            .match_posted(1, SourceSel::Rank(0), TagSel::Tag(5), 0)
            .is_none());
        let hit = m.match_incoming(&env(0, 5, 0)).expect("should match");
        assert_eq!(hit.recv_id, 1);
        assert_eq!(m.matches, 1);
        assert_eq!(m.unexpected_hits, 0);
    }

    #[test]
    fn incoming_then_posted_matches() {
        let mut m = MatchEngine::new();
        assert!(m.match_incoming(&env(0, 5, 0)).is_none());
        m.add_unexpected(rndv(0, 5, 0, 77));
        let hit = m
            .match_posted(1, SourceSel::Rank(0), TagSel::Tag(5), 0)
            .expect("should match unexpected");
        match hit.body {
            UnexpectedBody::Rndv { send_id, .. } => assert_eq!(send_id, 77),
            other => panic!("wrong body {other:?}"),
        }
        assert_eq!(m.unexpected_hits, 1);
    }

    #[test]
    fn wildcards_match_anything() {
        let mut m = MatchEngine::new();
        m.add_unexpected(rndv(3, 42, 7, 1));
        assert!(m.match_posted(1, SourceSel::Any, TagSel::Any, 7).is_some());
    }

    #[test]
    fn context_separates_communicators() {
        let mut m = MatchEngine::new();
        m.add_unexpected(rndv(0, 5, 1, 1));
        assert!(
            m.match_posted(1, SourceSel::Rank(0), TagSel::Tag(5), 2)
                .is_none(),
            "different context must not match"
        );
        // The receive is now posted on context 2; an incoming on 1 misses it.
        assert!(m.match_incoming(&env(0, 5, 1)).is_none());
        assert!(m.match_incoming(&env(0, 5, 2)).is_some());
    }

    #[test]
    fn fifo_order_among_equally_matchable() {
        let mut m = MatchEngine::new();
        m.add_unexpected(rndv(0, 5, 0, 100));
        m.add_unexpected(rndv(0, 5, 0, 200));
        let first = m.match_posted(1, SourceSel::Any, TagSel::Any, 0).unwrap();
        match first.body {
            UnexpectedBody::Rndv { send_id, .. } => {
                assert_eq!(send_id, 100, "earliest arrival first")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn posted_receives_match_in_post_order() {
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Any, TagSel::Any, 0);
        m.match_posted(2, SourceSel::Any, TagSel::Any, 0);
        assert_eq!(m.match_incoming(&env(0, 9, 0)).unwrap().recv_id, 1);
        assert_eq!(m.match_incoming(&env(0, 9, 0)).unwrap().recv_id, 2);
    }

    #[test]
    fn specific_posted_skipped_for_nonmatching_incoming() {
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Rank(5), TagSel::Any, 0);
        m.match_posted(2, SourceSel::Any, TagSel::Any, 0);
        // Incoming from rank 3 skips the rank-5-specific receive.
        assert_eq!(m.match_incoming(&env(3, 0, 0)).unwrap().recv_id, 2);
        assert_eq!(m.depths().0, 1);
    }

    #[test]
    fn probe_does_not_consume() {
        let mut m = MatchEngine::new();
        m.add_unexpected(rndv(1, 2, 0, 9));
        assert!(m.probe(SourceSel::Any, TagSel::Any, 0).is_some());
        assert!(m.probe(SourceSel::Any, TagSel::Any, 0).is_some());
        assert_eq!(m.depths().1, 1);
    }

    #[test]
    fn cancel_posted_removes() {
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Any, TagSel::Any, 0);
        assert!(m.cancel_posted(1));
        assert!(!m.cancel_posted(1));
        assert!(m.match_incoming(&env(0, 0, 0)).is_none());
    }

    #[test]
    fn cancel_fully_specific_posted_removes_from_bin() {
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Rank(2), TagSel::Tag(7), 0);
        assert!(m.cancel_posted(1));
        assert!(!m.cancel_posted(1));
        assert!(m.match_incoming(&env(2, 7, 0)).is_none());
        assert_eq!(m.depths().0, 0);
    }

    #[test]
    fn older_wildcard_beats_newer_specific_bin() {
        // Non-overtaking across queue classes: the wildcard receive was
        // posted first, so it must win even though the specific bin hits.
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Any, TagSel::Any, 0);
        m.match_posted(2, SourceSel::Rank(0), TagSel::Tag(5), 0);
        assert_eq!(m.match_incoming(&env(0, 5, 0)).unwrap().recv_id, 1);
        assert_eq!(m.match_incoming(&env(0, 5, 0)).unwrap().recv_id, 2);
    }

    #[test]
    fn older_specific_bin_beats_newer_wildcard() {
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Rank(0), TagSel::Tag(5), 0);
        m.match_posted(2, SourceSel::Any, TagSel::Any, 0);
        assert_eq!(m.match_incoming(&env(0, 5, 0)).unwrap().recv_id, 1);
        assert_eq!(m.match_incoming(&env(0, 5, 0)).unwrap().recv_id, 2);
    }

    #[test]
    fn wildcard_receive_takes_oldest_across_bins() {
        let mut m = MatchEngine::new();
        m.add_unexpected(rndv(4, 9, 0, 100)); // oldest, bin (0,4,9)
        m.add_unexpected(rndv(1, 2, 0, 200)); // bin (0,1,2)
        let probe_hit = m.probe(SourceSel::Any, TagSel::Any, 0).unwrap();
        match probe_hit.body {
            UnexpectedBody::Rndv { send_id, .. } => assert_eq!(send_id, 100),
            _ => unreachable!(),
        }
        let hit = m.match_posted(1, SourceSel::Any, TagSel::Any, 0).unwrap();
        match hit.body {
            UnexpectedBody::Rndv { send_id, .. } => {
                assert_eq!(send_id, 100, "oldest bin front wins")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn purge_peer_drops_its_traffic_but_keeps_wildcards() {
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Rank(4), TagSel::Tag(7), 0); // doomed
        m.match_posted(2, SourceSel::Rank(5), TagSel::Tag(7), 0); // other peer
        m.match_posted(3, SourceSel::Any, TagSel::Any, 0); // wildcard survives
        m.add_unexpected(rndv(4, 9, 0, 100)); // doomed
        m.add_unexpected(rndv(5, 9, 0, 200)); // other peer

        let (recv_ids, msgs) = m.purge_peer(4);
        assert_eq!(recv_ids, vec![1]);
        assert_eq!(msgs.len(), 1);
        match msgs[0].body {
            UnexpectedBody::Rndv { send_id, .. } => assert_eq!(send_id, 100),
            _ => unreachable!(),
        }
        assert_eq!(m.depths(), (2, 1));
        // The wildcard still matches a live source (the *engine* drops
        // frames from a dead src before they ever reach the matcher).
        assert_eq!(m.match_incoming(&env(6, 1, 0)).unwrap().recv_id, 3);
        // Surviving entries are untouched.
        assert_eq!(m.match_incoming(&env(5, 7, 0)).unwrap().recv_id, 2);
        assert!(m
            .match_posted(9, SourceSel::Rank(5), TagSel::Tag(9), 0)
            .is_some());
    }

    #[test]
    fn purge_context_drops_wildcards_too() {
        let mut m = MatchEngine::new();
        m.match_posted(1, SourceSel::Rank(0), TagSel::Tag(5), 7);
        m.match_posted(2, SourceSel::Any, TagSel::Any, 7);
        m.match_posted(3, SourceSel::Any, TagSel::Any, 8); // other context
        m.add_unexpected(rndv(0, 5, 7, 1));
        m.add_unexpected(rndv(0, 5, 8, 2));

        let (mut recv_ids, msgs) = m.purge_context(7);
        recv_ids.sort_unstable();
        assert_eq!(recv_ids, vec![1, 2]);
        assert_eq!(msgs.len(), 1);
        assert_eq!(m.depths(), (1, 1));
        assert!(m.match_incoming(&env(0, 5, 7)).is_none());
        assert_eq!(m.match_incoming(&env(0, 5, 8)).unwrap().recv_id, 3);
    }

    #[test]
    fn purged_bins_can_be_reoccupied() {
        // The occupied-bins counter must stay exact across a purge, or the
        // high-water instrumentation drifts when the bin refills.
        let mut m = MatchEngine::new();
        m.add_unexpected(rndv(4, 9, 0, 1));
        assert_eq!(m.bins_hwm, 1);
        m.purge_peer(4);
        m.add_unexpected(rndv(4, 9, 0, 2));
        assert_eq!(m.bins_hwm, 1, "re-occupying a purged bin is not new peak");
        assert!(m
            .match_posted(1, SourceSel::Rank(4), TagSel::Tag(9), 0)
            .is_some());
    }

    #[test]
    fn bins_hwm_tracks_peak_occupancy() {
        let mut m = MatchEngine::new();
        m.add_unexpected(rndv(0, 1, 0, 1));
        m.add_unexpected(rndv(0, 2, 0, 2));
        m.match_posted(9, SourceSel::Rank(3), TagSel::Tag(3), 0); // posted bin
        assert_eq!(m.bins_hwm, 3);
        // Draining bins does not lower the high-water mark.
        m.match_posted(1, SourceSel::Rank(0), TagSel::Tag(1), 0);
        m.match_posted(2, SourceSel::Rank(0), TagSel::Tag(2), 0);
        assert_eq!(m.bins_hwm, 3);
        // Re-occupying a retained bin counts again but stays at the peak.
        m.add_unexpected(rndv(0, 1, 0, 3));
        assert_eq!(m.bins_hwm, 3);
    }
}
