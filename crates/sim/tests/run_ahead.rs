//! `Proc::charge` against `Proc::advance`: a process that runs ahead
//! through its charges must leave every observable of the run as it was —
//! the order and virtual time of every simulator call, the final clock, a
//! panic's message — while the run token changes hands less often.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use lmpi_sim::lock::Mutex;
use lmpi_sim::{for_each_case, within, Proc, Sim, SimDur, SimQueue, SplitMix64};

/// One step of a generated process program.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// CPU time: `charge` as written, `advance` in the reference run.
    Charge(u64),
    Advance(u64),
    Yield,
    Push(usize),
    Pop(usize),
    TryPop(usize),
    PopTimeout(usize, u64),
    /// A timer callback after this many ns that logs, and pushes to the
    /// queue if one is named.
    After(u64, Option<usize>),
    Panic,
}

/// `(virtual ns, who, what, value)`: who is a process id, or `usize::MAX`
/// for a callback.
type Log = Arc<Mutex<Vec<(u64, usize, &'static str, u64)>>>;

const QUEUES: usize = 3;

/// A duration in ns, zero one time in four.
fn dur(rng: &mut SplitMix64) -> u64 {
    if rng.chance(0.25) {
        0
    } else {
        1 + rng.next_below(5_000)
    }
}

fn program(rng: &mut SplitMix64) -> Vec<Op> {
    rng.vec(4..40, |rng| match rng.next_below(20) {
        0..=6 => Op::Charge(dur(rng)),
        7 => Op::Advance(dur(rng)),
        8 => Op::Yield,
        9..=11 => Op::Push(rng.range(0..QUEUES)),
        12 => Op::Pop(rng.range(0..QUEUES)),
        13 => Op::TryPop(rng.range(0..QUEUES)),
        14 => Op::PopTimeout(rng.range(0..QUEUES), dur(rng)),
        15..=17 => {
            let push = rng.chance(0.5).then(|| rng.range(0..QUEUES));
            Op::After(dur(rng), push)
        }
        _ if rng.chance(0.02) => Op::Panic,
        _ => Op::Charge(dur(rng)),
    })
}

fn run_program(op: &Op, p: &Proc, queues: &[SimQueue<u64>], log: &Log, run_ahead: bool) {
    let me = p.id();
    let note = |what: &'static str, value: u64| {
        log.lock().push((p.now().as_ns(), me, what, value));
    };
    match *op {
        // A bare charge calls no simulator code, so it is not logged: its
        // entry would land at the wrong place among other processes'.
        Op::Charge(ns) if run_ahead => p.charge(SimDur::from_ns(ns)),
        Op::Charge(ns) => p.advance(SimDur::from_ns(ns)),
        Op::Advance(ns) => {
            p.advance(SimDur::from_ns(ns));
            note("advance", ns);
        }
        Op::Yield => {
            p.yield_now();
            note("yield", 0);
        }
        Op::Push(q) => {
            queues[q].push(me as u64);
            note("push", q as u64);
        }
        Op::Pop(q) => {
            let got = queues[q].pop(p);
            note("pop", got);
        }
        Op::TryPop(q) => {
            let got = queues[q].try_pop();
            note("try_pop", got.map_or(u64::MAX, |v| v));
        }
        Op::PopTimeout(q, ns) => {
            let got = queues[q].pop_timeout(p, SimDur::from_ns(ns));
            note("pop_timeout", got.map_or(u64::MAX, |v| v));
        }
        Op::After(ns, push) => {
            let (log, queues) = (log.clone(), queues.to_vec());
            p.sim().after(SimDur::from_ns(ns), move |s| {
                log.lock()
                    .push((s.now().as_ns(), usize::MAX, "callback", ns));
                if let Some(q) = push {
                    queues[q].push(1_000);
                }
            });
            note("after", ns);
        }
        Op::Panic => panic!("process {me} panicked at its own step"),
    }
}

/// Everything a run shows: its log, its final clock, its panic message,
/// and the token hand-offs it took.
type Outcome = (
    Vec<(u64, usize, &'static str, u64)>,
    u64,
    Option<String>,
    u64,
);

fn run(programs: &[Vec<Op>], run_ahead: bool) -> Outcome {
    let sim = Sim::new();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let queues: Vec<SimQueue<u64>> = (0..QUEUES).map(|_| SimQueue::new(&sim)).collect();
    for (i, ops) in programs.iter().enumerate() {
        let (ops, queues, log) = (ops.clone(), queues.clone(), log.clone());
        sim.spawn(format!("p{i}"), move |p| {
            for op in &ops {
                run_program(op, p, &queues, &log, run_ahead);
            }
        });
    }
    let panicked = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
        .err()
        .map(|e| match e.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e.downcast_ref::<&str>().map_or("?", |s| s).to_string(),
        });
    let entries = std::mem::take(&mut *log.lock());
    (entries, sim.now().as_ns(), panicked, sim.switches())
}

/// Generated programs panic and deadlock on purpose: keep those messages
/// out of the test output, and every other one in.
fn quiet_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            let expected = [
                "at its own step",
                "simulation aborted",
                "simulation deadlock",
            ];
            if !expected.iter().any(|e| msg.contains(e)) {
                prev(info);
            }
        }));
    });
}

#[test]
fn charges_replay_exactly_as_advances() {
    quiet_expected_panics();
    within(Duration::from_secs(120), || {
        for_each_case(300, |rng| {
            let programs = rng.vec(2..9, program);
            let ahead = run(&programs, true);
            let reference = run(&programs, false);
            assert_eq!(ahead.0, reference.0, "logs differ");
            assert_eq!(ahead.1, reference.1, "final clocks differ");
            assert_eq!(ahead.2, reference.2, "panic messages differ");
            assert!(
                ahead.3 <= reference.3,
                "running ahead took more hand-offs: {} > {}",
                ahead.3,
                reference.3
            );
        })
    });
}

/// Eight processes in the shape of one molecular-dynamics step on the
/// simulated cluster, run `STEPS` times: a ring pass with compute per
/// block, a recursive-doubling allreduce and a binomial broadcast. A send
/// charges the kernel path and the copy, then settles (the link is
/// shared); a receive charges two reads and a match. Returns the token
/// hand-offs and the final virtual time.
fn md_shaped_ring(run_ahead: bool) -> (u64, u64) {
    const RANKS: usize = 8;
    const STEPS: usize = 3;
    let sim = Sim::new();
    let inbox: Vec<SimQueue<usize>> = (0..RANKS).map(|_| SimQueue::new(&sim)).collect();
    for me in 0..RANKS {
        let inbox = inbox.clone();
        sim.spawn(format!("rank{me}"), move |p| {
            let cost = |us: u64| {
                if run_ahead {
                    p.charge(SimDur::from_us(us));
                } else {
                    p.advance(SimDur::from_us(us));
                }
            };
            let send = |to: usize, bytes: u64| {
                cost(150);
                cost(bytes / 8);
                p.settle();
                let q = inbox[to].clone();
                p.sim()
                    .after(SimDur::from_us(120 + bytes / 16), move |_| q.push(me));
            };
            let recv = || {
                inbox[me].pop(p);
                cost(65);
                cost(65);
                cost(35);
            };
            for _ in 0..STEPS {
                for _ in 1..RANKS {
                    send((me + 1) % RANKS, 2_048);
                    recv();
                    cost(400);
                }
                let mut mask = 1;
                while mask < RANKS {
                    send(me ^ mask, 8);
                    recv();
                    cost(1);
                    mask <<= 1;
                }
                if me != 0 {
                    recv();
                }
                // Binomial tree from 0: children are `me + 2^k` below
                // `me`'s lowest set bit.
                let low = if me == 0 {
                    RANKS
                } else {
                    1 << me.trailing_zeros()
                };
                let mut mask = low >> 1;
                while mask > 0 {
                    send(me + mask, 4_096);
                    mask >>= 1;
                }
            }
        });
    }
    let s = sim.clone();
    within(Duration::from_secs(60), move || s.run());
    (sim.switches(), sim.now().as_ns())
}

#[test]
fn md_shaped_ring_hand_offs_are_pinned() {
    let ahead = md_shaped_ring(true);
    let reference = md_shaped_ring(false);
    assert_eq!(ahead.1, reference.1, "running ahead moved the final clock");
    // Hand-offs are deterministic: pinned exactly, and the same every run.
    assert_eq!((ahead.0, reference.0), (456, 1529));
    for _ in 0..19 {
        assert_eq!(md_shaped_ring(true), ahead);
        assert_eq!(md_shaped_ring(false), reference);
    }
}
