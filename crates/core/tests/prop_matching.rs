//! Differential property test: the hashed-bin [`MatchEngine`] must be
//! observably identical to the linear-scan [`LinearMatchEngine`] it
//! replaced — same match outcomes, same FIFO (non-overtaking) order, same
//! queue depths and counters — under random schedules of posts, arrivals,
//! cancels and probes, including wildcard/specific interleavings.
//!
//! The linear matcher is the executable specification: a plain front-first
//! scan is self-evidently the MPI ordering rule, so any divergence is a bug
//! in the binned fast path (most plausibly in the oldest-candidate
//! selection across bins and the wildcard queue).

use std::collections::VecDeque;

use lmpi_core::bench_internals::{MatchEngine, PostedRecv, UnexpectedBody, UnexpectedMsg};
use lmpi_core::{ContextId, Envelope, Rank, SourceSel, Tag, TagSel};
use lmpi_sim::{for_each_case, SplitMix64};

/// The original O(depth) linear-scan matcher, retained verbatim as the
/// executable specification: the property test below drives random
/// schedules through this and [`MatchEngine`] and asserts identical
/// outcomes.
#[derive(Debug, Default)]
pub struct LinearMatchEngine {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<UnexpectedMsg>,
    /// Total successful matches.
    pub matches: u64,
    /// Matches that hit the unexpected queue.
    pub unexpected_hits: u64,
}

impl LinearMatchEngine {
    /// Fresh, empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// An envelope arrived: take the first matching posted receive, if any.
    pub fn match_incoming(&mut self, env: &Envelope) -> Option<PostedRecv> {
        let idx = self.posted.iter().position(|p| {
            p.context == env.context && p.src.matches(env.src) && p.tag.matches(env.tag)
        })?;
        self.matches += 1;
        self.posted.remove(idx)
    }

    /// A receive was posted: take the first matching unexpected message, if
    /// any; otherwise enqueue the receive.
    pub fn match_posted(
        &mut self,
        recv_id: u64,
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    ) -> Option<UnexpectedMsg> {
        if let Some(idx) = self.find_unexpected(src, tag, context) {
            self.matches += 1;
            self.unexpected_hits += 1;
            return self.unexpected.remove(idx);
        }
        self.posted.push_back(PostedRecv {
            recv_id,
            src,
            tag,
            context,
        });
        None
    }

    /// Probe: peek at the first matching unexpected message without
    /// consuming it.
    pub fn probe(&self, src: SourceSel, tag: TagSel, context: ContextId) -> Option<&UnexpectedMsg> {
        self.find_unexpected(src, tag, context)
            .map(|i| &self.unexpected[i])
    }

    fn find_unexpected(&self, src: SourceSel, tag: TagSel, context: ContextId) -> Option<usize> {
        self.unexpected.iter().position(|u| {
            u.env.context == context && src.matches(u.env.src) && tag.matches(u.env.tag)
        })
    }

    /// Store an early arrival.
    pub fn add_unexpected(&mut self, msg: UnexpectedMsg) {
        self.unexpected.push_back(msg);
    }

    /// Remove a posted receive (for `cancel`). Returns whether it was found.
    pub fn cancel_posted(&mut self, recv_id: u64) -> bool {
        if let Some(idx) = self.posted.iter().position(|p| p.recv_id == recv_id) {
            self.posted.remove(idx);
            true
        } else {
            false
        }
    }

    /// Queue depths `(posted, unexpected)` for diagnostics.
    #[allow(dead_code)] // exercised by tests and benches
    pub fn depths(&self) -> (usize, usize) {
        (self.posted.len(), self.unexpected.len())
    }
}

/// One step of a matching schedule. Small value domains on purpose: the
/// interesting bugs live where keys collide and wildcards straddle bins.
#[derive(Debug, Clone)]
enum Op {
    /// `irecv`: post a receive (engine assigns the next recv_id).
    Post {
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    },
    /// An envelope arrives off the wire (always fully concrete). If no
    /// posted receive matches, it becomes an unexpected message, exactly as
    /// the protocol engine does.
    Arrive {
        src: Rank,
        tag: Tag,
        context: ContextId,
    },
    /// `cancel` of some previously assigned recv_id (possibly already
    /// matched or cancelled — both engines must agree it is gone).
    Cancel { recv_id: u64 },
    /// Non-consuming `probe`.
    Probe {
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    },
}

/// Three specific ranks to one wildcard.
fn gen_source_sel(rng: &mut SplitMix64) -> SourceSel {
    if rng.chance(0.75) {
        SourceSel::Rank(rng.range(0..4))
    } else {
        SourceSel::Any
    }
}

/// Three specific tags to one wildcard.
fn gen_tag_sel(rng: &mut SplitMix64) -> TagSel {
    if rng.chance(0.75) {
        TagSel::Tag(rng.range(0..3) as Tag)
    } else {
        TagSel::Any
    }
}

/// Posts, arrivals, cancels and probes in the ratio 4 : 4 : 1 : 1.
fn gen_op(rng: &mut SplitMix64) -> Op {
    let context = rng.range(0..2) as ContextId;
    match rng.range(0..10) {
        0..4 => Op::Post {
            src: gen_source_sel(rng),
            tag: gen_tag_sel(rng),
            context,
        },
        4..8 => Op::Arrive {
            src: rng.range(0..4),
            tag: rng.range(0..3) as Tag,
            context,
        },
        8 => Op::Cancel {
            recv_id: rng.range(0..40) as u64,
        },
        _ => Op::Probe {
            src: gen_source_sel(rng),
            tag: gen_tag_sel(rng),
            context,
        },
    }
}

/// The observable identity of an unexpected message: its envelope plus the
/// sender-side id we stamped into the body.
fn unexpected_fingerprint(msg: &UnexpectedMsg) -> (usize, Tag, ContextId, usize, u64) {
    let send_id = match msg.body {
        UnexpectedBody::Rndv { send_id, .. } => send_id,
        UnexpectedBody::Eager { send_id, .. } => send_id,
    };
    (
        msg.env.src,
        msg.env.tag,
        msg.env.context,
        msg.env.len,
        send_id,
    )
}

#[test]
fn binned_matcher_is_observably_identical_to_linear() {
    for_each_case(512, |rng| {
        let ops = rng.vec(0..80, gen_op);
        let mut binned = MatchEngine::new();
        let mut linear = LinearMatchEngine::new();
        let mut next_recv_id = 0u64;
        let mut next_send_id = 0u64;

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Post { src, tag, context } => {
                    let id = next_recv_id;
                    next_recv_id += 1;
                    let b = binned.match_posted(id, src, tag, context);
                    let l = linear.match_posted(id, src, tag, context);
                    assert_eq!(
                        b.as_ref().map(unexpected_fingerprint),
                        l.as_ref().map(unexpected_fingerprint),
                        "step {}: post matched different unexpected messages",
                        step
                    );
                }
                Op::Arrive { src, tag, context } => {
                    let env = Envelope {
                        src,
                        tag,
                        context,
                        len: 4,
                    };
                    let b = binned.match_incoming(&env);
                    let l = linear.match_incoming(&env);
                    assert_eq!(
                        b.as_ref().map(|r| r.recv_id),
                        l.as_ref().map(|r| r.recv_id),
                        "step {}: arrival matched different posted receives",
                        step
                    );
                    if b.is_none() {
                        // Unmatched arrival becomes an unexpected message in
                        // both engines, as the protocol engine would do.
                        let send_id = next_send_id;
                        next_send_id += 1;
                        binned.add_unexpected(UnexpectedMsg {
                            env: env.clone(),
                            msg_seq: 0,
                            body: UnexpectedBody::Rndv {
                                send_id,
                                lease: None,
                            },
                        });
                        linear.add_unexpected(UnexpectedMsg {
                            env,
                            msg_seq: 0,
                            body: UnexpectedBody::Rndv {
                                send_id,
                                lease: None,
                            },
                        });
                    }
                }
                Op::Cancel { recv_id } => {
                    assert_eq!(
                        binned.cancel_posted(recv_id),
                        linear.cancel_posted(recv_id),
                        "step {}: cancel outcome diverged",
                        step
                    );
                }
                Op::Probe { src, tag, context } => {
                    assert_eq!(
                        binned.probe(src, tag, context).map(unexpected_fingerprint),
                        linear.probe(src, tag, context).map(unexpected_fingerprint),
                        "step {}: probe saw different messages",
                        step
                    );
                }
            }
            assert_eq!(
                binned.depths(),
                linear.depths(),
                "step {}: depths diverged",
                step
            );
        }

        assert_eq!(binned.matches, linear.matches);
        assert_eq!(binned.unexpected_hits, linear.unexpected_hits);

        // Drain check: wildcard receives must empty both engines in the
        // same order (final FIFO agreement over everything left queued).
        for ctx in 0..2u32 {
            loop {
                let id = next_recv_id;
                next_recv_id += 1;
                let b = binned.match_posted(id, SourceSel::Any, TagSel::Any, ctx);
                let l = linear.match_posted(id, SourceSel::Any, TagSel::Any, ctx);
                assert_eq!(
                    b.as_ref().map(unexpected_fingerprint),
                    l.as_ref().map(unexpected_fingerprint),
                    "drain of context {} diverged",
                    ctx
                );
                if b.is_none() {
                    // The unmatched drain receive is now posted in both;
                    // cancel it so the next context starts clean.
                    assert!(binned.cancel_posted(id));
                    assert!(linear.cancel_posted(id));
                    break;
                }
            }
        }
    });
}
