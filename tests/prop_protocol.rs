//! Property-based tests of the full protocol stack: random message
//! sequences and collective inputs through real rank threads, checked
//! against reference computations.

use lmpi::{run_threads, run_threads_with_config, MpiConfig, ReduceOp, SourceSel, TagSel};
use lmpi_sim::{for_each_case, SplitMix64};

/// A randomized batch of messages 0 → 1: (tag, length). Receiver posts in
/// a shuffled-but-tag-faithful order; contents must arrive intact and
/// per-tag in order.
#[derive(Clone, Debug)]
struct Msg {
    tag: u32,
    len: usize,
}

fn gen_msgs(rng: &mut SplitMix64) -> Vec<Msg> {
    rng.vec(1..12, |r| Msg {
        tag: r.range(0..3) as u32,
        len: match r.range(0..3) {
            0 => r.range(0..64),
            1 => r.range(100..300),
            _ => r.range(5000..9000),
        },
    })
}

// Thread-spawning cases are expensive; keep the count modest.
#[test]
fn random_traffic_delivered_intact() {
    for_each_case(24, |rng| {
        let msgs = gen_msgs(rng);
        let threshold = [0, 180, 1024, 1 << 20][rng.range(0..4)];
        let msgs2 = msgs.clone();
        let cfg = MpiConfig::device_defaults()
            .with_eager_threshold(threshold)
            .with_recv_buf(4 << 20);
        run_threads_with_config(2, cfg, move |mpi| {
            let world = mpi.world();
            if world.rank() == 0 {
                for (i, m) in msgs2.iter().enumerate() {
                    let payload: Vec<u8> =
                        (0..m.len).map(|j| (i.wrapping_mul(31) ^ j) as u8).collect();
                    world.send(&payload, 1, m.tag).unwrap();
                }
            } else {
                // Post all receives up front (nonblocking) in a shuffled,
                // tag-faithful order: round-robin across tags. Blocking
                // receives in a reordered sequence would be MPI-unsafe
                // against blocking rendezvous sends (the sender is allowed
                // to wait for its match), so pre-posting is the correct
                // pattern — and it exercises the posted queue deeply.
                let mut per_tag: Vec<Vec<usize>> = vec![Vec::new(); 3];
                for (i, m) in msgs2.iter().enumerate() {
                    per_tag[m.tag as usize].push(i);
                }
                let mut order: Vec<usize> = Vec::new(); // message index per posted recv
                let mut cursors = [0usize; 3];
                loop {
                    let mut progressed = false;
                    for tag in 0..3usize {
                        let c = &mut cursors[tag];
                        if *c < per_tag[tag].len() {
                            order.push(per_tag[tag][*c]);
                            *c += 1;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                let mut bufs: Vec<Vec<u8>> =
                    order.iter().map(|&i| vec![0u8; msgs2[i].len]).collect();
                let reqs: Vec<_> = bufs
                    .iter_mut()
                    .zip(&order)
                    .map(|(buf, &i)| world.irecv(buf, 0, msgs2[i].tag).unwrap())
                    .collect();
                let sts = lmpi::wait_all(reqs).unwrap();
                for ((st, buf), &i) in sts.iter().zip(&bufs).zip(&order) {
                    assert_eq!(st.len, msgs2[i].len, "length of msg {i}");
                    for (j, &b) in buf.iter().enumerate() {
                        assert_eq!(b, (i.wrapping_mul(31) ^ j) as u8, "byte {j} of msg {i}");
                    }
                }
            }
        });
    });
}

#[test]
fn collectives_match_reference_on_random_input() {
    for_each_case(24, |rng| {
        let xs = rng.vec(1..8, |r| r.range(0..2000) as i64 - 1000);
        let nprocs = rng.range(2..6);
        let opi = rng.range(0..4);
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Prod][opi];
        let xs2 = xs.clone();
        let results = run_threads(nprocs, move |mpi| {
            let world = mpi.world();
            let me = world.rank();
            // Rank r contributes xs rotated by r.
            let mine: Vec<i64> = (0..xs2.len()).map(|i| xs2[(i + me) % xs2.len()]).collect();
            world.allreduce(&mine, op).unwrap()
        });
        // Serial reference.
        let mut expect: Vec<i64> = (0..xs.len()).map(|i| xs[i % xs.len()]).collect();
        for r in 1..nprocs {
            let contrib: Vec<i64> = (0..xs.len()).map(|i| xs[(i + r) % xs.len()]).collect();
            for (e, c) in expect.iter_mut().zip(&contrib) {
                *e = match op {
                    ReduceOp::Sum => e.wrapping_add(*c),
                    ReduceOp::Min => (*e).min(*c),
                    ReduceOp::Max => (*e).max(*c),
                    ReduceOp::Prod => e.wrapping_mul(*c),
                    _ => unreachable!(),
                };
            }
        }
        for r in results {
            assert_eq!(&r, &expect);
        }
    });
}

#[test]
fn scan_is_prefix_of_allreduce() {
    for_each_case(24, |rng| {
        let seed = rng.next_u64();
        let nprocs = rng.range(2..6);
        let results = run_threads(nprocs, move |mpi| {
            let world = mpi.world();
            let me = world.rank();
            let mine = [(seed % 97).wrapping_add(me as u64 * 3)];
            let scan = world.scan(&mine, ReduceOp::Sum).unwrap()[0];
            (me, scan)
        });
        let contrib = |r: usize| (seed % 97).wrapping_add(r as u64 * 3);
        for (me, scan) in results {
            let expect: u64 = (0..=me).map(contrib).fold(0, u64::wrapping_add);
            assert_eq!(scan, expect, "rank {}", me);
        }
    });
}

#[test]
fn any_source_receives_every_message_exactly_once() {
    for_each_case(24, |rng| {
        let lens = rng.vec(2..6, |r| r.range(1..200));
        let n = lens.len() + 1;
        let lens2 = lens.clone();
        run_threads(n, move |mpi| {
            let world = mpi.world();
            let me = world.rank();
            if me == 0 {
                let mut seen = vec![false; n];
                for _ in 1..n {
                    let (data, st) = world.recv_vec::<u8>(SourceSel::Any, TagSel::Any).unwrap();
                    assert!(!seen[st.source], "duplicate from {}", st.source);
                    seen[st.source] = true;
                    assert_eq!(data.len(), lens2[st.source - 1]);
                    assert!(data.iter().all(|&b| b == st.source as u8));
                }
            } else {
                let payload = vec![me as u8; lens2[me - 1]];
                world.send(&payload, 0, me as u32).unwrap();
            }
        });
    });
}
