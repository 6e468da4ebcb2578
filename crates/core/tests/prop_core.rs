//! Property tests on the core data structures: the matching engine against
//! a brute-force reference, derived-datatype pack/unpack, the element codec,
//! and reduction-operator algebra. Cases come from seeded generators
//! (`lmpi_sim::for_each_case`); a failure prints the seed that reproduces it.

use lmpi_core::bench_internals::{MatchEngine, UnexpectedBody, UnexpectedMsg};
use lmpi_core::{
    from_bytes, to_bytes, DataType, Envelope, Loc, ReduceOp, Reducible, SourceSel, TagSel,
};
use lmpi_sim::{for_each_case, SplitMix64};

// ----------------------------------------------------------------------
// Matching engine vs a brute-force reference
// ----------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    /// An envelope arrives from (src, tag).
    Arrive { src: usize, tag: u32 },
    /// A receive is posted with selectors.
    Post {
        src: Option<usize>,
        tag: Option<u32>,
    },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    let (src, tag) = (rng.range(0..4), rng.range(0..3) as u32);
    if rng.chance(0.5) {
        Op::Arrive { src, tag }
    } else {
        Op::Post {
            src: rng.chance(0.5).then_some(src),
            tag: rng.chance(0.5).then_some(tag),
        }
    }
}

/// Reference matcher: linear scans over Vec state, the MPI rules stated
/// directly.
#[derive(Default)]
struct RefMatcher {
    posted: Vec<(u64, Option<usize>, Option<u32>)>,
    unexpected: Vec<(u64, usize, u32)>, // (send id, src, tag)
    log: Vec<(u64, u64)>,               // (recv id, send id) matches
    next_send: u64,
    next_recv: u64,
}

impl RefMatcher {
    fn arrive(&mut self, src: usize, tag: u32) {
        let sid = self.next_send;
        self.next_send += 1;
        if let Some(pos) = self
            .posted
            .iter()
            .position(|(_, s, t)| s.is_none_or(|s| s == src) && t.is_none_or(|t| t == tag))
        {
            let (rid, _, _) = self.posted.remove(pos);
            self.log.push((rid, sid));
        } else {
            self.unexpected.push((sid, src, tag));
        }
    }

    fn post(&mut self, src: Option<usize>, tag: Option<u32>) {
        let rid = self.next_recv;
        self.next_recv += 1;
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|&(_, s, t)| src.is_none_or(|x| x == s) && tag.is_none_or(|x| x == t))
        {
            let (sid, _, _) = self.unexpected.remove(pos);
            self.log.push((rid, sid));
        } else {
            self.posted.push((rid, src, tag));
        }
    }
}

#[test]
fn matching_engine_equals_reference() {
    for_each_case(256, |rng| {
        let ops = rng.vec(0..60, gen_op);
        let mut eng = MatchEngine::new();
        let mut reference = RefMatcher::default();
        let mut eng_log: Vec<(u64, u64)> = Vec::new();
        let mut next_send = 0u64;
        let mut next_recv = 0u64;

        for op in &ops {
            match *op {
                Op::Arrive { src, tag } => {
                    let sid = next_send;
                    next_send += 1;
                    let env = Envelope {
                        src,
                        tag,
                        context: 0,
                        len: 0,
                    };
                    match eng.match_incoming(&env) {
                        Some(posted) => eng_log.push((posted.recv_id, sid)),
                        None => eng.add_unexpected(UnexpectedMsg {
                            env,
                            msg_seq: 0,
                            body: UnexpectedBody::Rndv {
                                send_id: sid,
                                lease: None,
                            },
                        }),
                    }
                    reference.arrive(src, tag);
                }
                Op::Post { src, tag } => {
                    let rid = next_recv;
                    next_recv += 1;
                    let ssel = src.map_or(SourceSel::Any, SourceSel::Rank);
                    let tsel = tag.map_or(TagSel::Any, TagSel::Tag);
                    if let Some(m) = eng.match_posted(rid, ssel, tsel, 0) {
                        let UnexpectedBody::Rndv { send_id, .. } = m.body else {
                            unreachable!()
                        };
                        eng_log.push((rid, send_id));
                    }
                    reference.post(src, tag);
                }
            }
        }
        assert_eq!(eng_log, reference.log);
    });
}

#[test]
fn matching_is_non_overtaking_per_source() {
    for_each_case(256, |rng| {
        let tags = rng.vec(1..30, |r| r.range(0..2) as u32);
        let any_tag = rng.vec(1..30, |r| r.chance(0.5));
        // All messages from one source; receives match them in arrival
        // order whenever their tag selectors allow.
        let mut eng = MatchEngine::new();
        for (sid, &tag) in tags.iter().enumerate() {
            eng.add_unexpected(UnexpectedMsg {
                env: Envelope {
                    src: 0,
                    tag,
                    context: 0,
                    len: 0,
                },
                msg_seq: 0,
                body: UnexpectedBody::Rndv {
                    send_id: sid as u64,
                    lease: None,
                },
            });
        }
        let mut claimed: Vec<u64> = Vec::new();
        for (rid, &any) in any_tag.iter().enumerate() {
            let tsel = if any { TagSel::Any } else { TagSel::Tag(0) };
            if let Some(m) = eng.match_posted(rid as u64, SourceSel::Rank(0), tsel, 0) {
                let UnexpectedBody::Rndv { send_id, .. } = m.body else {
                    unreachable!()
                };
                // Among messages with the same tag, ids must come out in
                // increasing (arrival) order.
                let tag = tags[send_id as usize];
                for &c in &claimed {
                    if tags[c as usize] == tag {
                        assert!(c < send_id, "overtaking within tag {tag}");
                    }
                }
                claimed.push(send_id);
            }
        }
    });
}

// ----------------------------------------------------------------------
// Datatypes
// ----------------------------------------------------------------------

/// A datatype tree nested at most `depth` constructors over a base type.
fn gen_dtype(rng: &mut SplitMix64, depth: u32) -> DataType {
    if depth == 0 || rng.chance(0.25) {
        return DataType::base(rng.range(1..9));
    }
    let t = gen_dtype(rng, depth - 1);
    match rng.range(0..3) {
        0 => t.contiguous(rng.range(1..5)),
        1 => {
            let (c, b, extra) = (rng.range(1..4), rng.range(1..3), rng.range(0..3));
            t.vector(c, b, b + extra)
        }
        _ => {
            let mut blocks = rng.vec(1..4, |r| (r.range(0..6), r.range(1..3)));
            // Make displacements non-overlapping by accumulation.
            let mut at = 0;
            for (disp, len) in blocks.iter_mut() {
                *disp += at;
                at = *disp + *len;
            }
            DataType::Indexed {
                blocks,
                inner: Box::new(t),
            }
        }
    }
}

#[test]
fn pack_unpack_roundtrip() {
    for_each_case(256, |rng| {
        let t = gen_dtype(rng, 3);
        let seed = rng.next_u64();
        let extent = t.extent().unwrap();
        let mem: Vec<u8> = (0..extent)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) >> 3) as u8)
            .collect();
        let packed = t.pack(&mem).unwrap();
        assert_eq!(packed.len(), t.packed_size().unwrap());
        let mut out = vec![0u8; extent];
        t.unpack(&packed, &mut out).unwrap();
        // Repacking the unpacked memory gives the same message bytes.
        assert_eq!(t.pack(&out).unwrap(), packed);
    });
}

#[test]
fn packed_size_never_exceeds_extent() {
    for_each_case(256, |rng| {
        let t = gen_dtype(rng, 3);
        let packed = t.packed_size().unwrap();
        // extent >= packed size for non-overlapping layouts
        assert!(t.extent().unwrap() >= packed);
    });
}

#[test]
fn flatten_agrees_with_pack() {
    for_each_case(256, |rng| {
        let t = gen_dtype(rng, 3);
        let seed = rng.next_u64();
        let flat = t.flatten().unwrap();
        assert_eq!(flat.packed_size(), t.packed_size().unwrap());
        assert_eq!(flat.extent(), t.extent().unwrap());
        assert!(flat.mem_span() <= flat.extent());
        // Runs cover the packed message exactly, in order, coalesced.
        let mut at = 0usize;
        for r in flat.runs() {
            assert_eq!(r.packed_off, at);
            assert!(r.len > 0);
            at += r.len;
        }
        assert_eq!(at, flat.packed_size());
        // Gathering via the runs equals the tree-walk pack.
        let mem: Vec<u8> = (0..flat.extent())
            .map(|i| ((i as u64).wrapping_mul(seed | 1) >> 3) as u8)
            .collect();
        assert_eq!(flat.pack(&mem).unwrap(), t.pack(&mem).unwrap());
    });
}

#[test]
fn element_codec_roundtrip_f64() {
    for_each_case(256, |rng| {
        let xs = rng.vec(0..50, |r| f64::from_bits(r.next_u64()));
        let bytes = to_bytes(&xs);
        let ys: Vec<f64> = from_bytes(&bytes, xs.len());
        for (a, b) in xs.iter().zip(&ys) {
            assert!(a.to_bits() == b.to_bits());
        }
    });
}

#[test]
fn element_codec_roundtrip_loc() {
    for_each_case(256, |rng| {
        let xs = rng.vec(0..40, |r| (r.next_u64() as i64, r.next_u64()));
        let locs: Vec<Loc<i64>> = xs
            .iter()
            .map(|&(v, i)| Loc { value: v, index: i })
            .collect();
        let ys: Vec<Loc<i64>> = from_bytes(&to_bytes(&locs), locs.len());
        assert_eq!(locs, ys);
    });
}

// ----------------------------------------------------------------------
// Reduction algebra
// ----------------------------------------------------------------------

#[test]
fn integer_reduce_ops_are_associative_and_commutative() {
    for_each_case(256, |rng| {
        let a = rng.vec(1..20, |r| r.next_u64() as i64);
        let ops = rng.vec(1..4, |r| r.range(0..7));
        let perm_seed = rng.next_u64();
        use ReduceOp::*;
        let all = [Sum, Prod, Min, Max, Band, Bor, Bxor];
        for &opi in &ops {
            let op = all[opi];
            let b: Vec<i64> = a
                .iter()
                .map(|x| x.rotate_left((perm_seed % 63) as u32))
                .collect();
            let c: Vec<i64> = a.iter().map(|x| x.wrapping_add(perm_seed as i64)).collect();
            // (a op b) op c == a op (b op c)
            let mut left = a.clone();
            i64::accumulate(op, &mut left, &b);
            i64::accumulate(op, &mut left, &c);
            let mut right_tail = b.clone();
            i64::accumulate(op, &mut right_tail, &c);
            let mut right = a.clone();
            i64::accumulate(op, &mut right, &right_tail);
            assert_eq!(&left, &right, "associativity of {:?}", op);
            // a op b == b op a
            let mut ab = a.clone();
            i64::accumulate(op, &mut ab, &b);
            let mut ba = b.clone();
            i64::accumulate(op, &mut ba, &a);
            assert_eq!(ab, ba, "commutativity of {:?}", op);
        }
    });
}

#[test]
fn maxloc_is_a_semilattice() {
    for_each_case(256, |rng| {
        let items = rng.vec(1..16, |r| (r.next_u64() as i32, r.range(0..1000) as u64));
        let locs: Vec<Loc<i32>> = items
            .iter()
            .map(|&(v, i)| Loc { value: v, index: i })
            .collect();
        // Fold in two different orders; result must agree.
        let mut fwd = vec![locs[0]];
        for l in &locs[1..] {
            Loc::accumulate(ReduceOp::MaxLoc, &mut fwd, std::slice::from_ref(l));
        }
        let mut rev = vec![*locs.last().unwrap()];
        for l in locs[..locs.len() - 1].iter().rev() {
            Loc::accumulate(ReduceOp::MaxLoc, &mut rev, std::slice::from_ref(l));
        }
        assert_eq!(fwd[0].value, rev[0].value);
        assert_eq!(fwd[0].index, rev[0].index);
        // And it matches the plain definition.
        let best = items
            .iter()
            .map(|&(v, i)| (v, std::cmp::Reverse(i)))
            .max()
            .unwrap();
        assert_eq!(fwd[0].value, best.0);
        assert_eq!(fwd[0].index, best.1 .0);
    });
}
