//! Property test for per-peer failure isolation: killing one rank
//! mid-schedule must not disturb survivor↔survivor traffic, and every
//! request touching the dead rank must resolve to a typed `PeerFailed` —
//! no hangs, no mystery errors, no unaccounted wire transmissions.
//!
//! Each case builds a random transfer schedule over three ranks (always
//! including rendezvous-sized messages into, out of, and around the
//! victim), runs it twice over `Reliable(Faulty(Shm))` with heartbeats
//! enabled — once fault-free, once with rank 2's crash switch armed at a
//! random point among the frames the fault-free run saw it send — and
//! checks:
//!
//! * the fault-free run completes every operation;
//! * in the killed run, survivor↔survivor receives are byte-identical to
//!   the fault-free run;
//! * every other operation either completed before the crash (`Ok`) or
//!   failed with `PeerFailed` — never an untyped error, never a hang
//!   (the victim itself exits through its own symmetric detection);
//! * correlating all trace rings shows no orphan `WireTx` except frames
//!   the crash itself consumed (sent by, or addressed to, the victim).

use std::sync::Arc;

use lmpi::obs::{correlate, EventKind};
use lmpi::{
    run_devices, Device, FaultConfig, FaultRates, FaultyDevice, Mpi, MpiConfig, MpiError,
    MpiResult, RelConfig, ReliableDevice, ShmDevice, Status, Tracer,
};
use lmpi_sim::{for_each_case, SplitMix64};

mod common;

const RANKS: usize = 3;
const VICTIM: usize = 2;
/// Keepalive every 500 µs, Suspect at 2 ms, Dead at 10 ms: fast enough
/// that a case with several dead-peer waits stays well under a second.
const HEARTBEAT: (f64, f64, f64) = (500.0, 2_000.0, 10_000.0);

/// One point-to-point transfer in the schedule; the op's index is its tag,
/// so matching is unambiguous regardless of completion order.
#[derive(Clone, Copy, Debug)]
struct Op {
    src: usize,
    dst: usize,
    len: usize,
}

impl Op {
    fn touches_victim(&self) -> bool {
        self.src == VICTIM || self.dst == VICTIM
    }
}

/// Deterministic payload so both runs move identical bytes.
fn payload(op_idx: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (op_idx.wrapping_mul(37) ^ j.wrapping_mul(11)) as u8)
        .collect()
}

fn gen_ops(rng: &mut SplitMix64) -> Vec<Op> {
    let mut v = rng.vec(3..10, |r| {
        let src = r.range(0..RANKS);
        Op {
            src,
            dst: (src + r.range(1..RANKS)) % RANKS,
            // Small eager messages and chunked rendezvous payloads (the
            // shm eager threshold is 8 KiB).
            len: if r.chance(0.5) {
                r.range(4..64)
            } else {
                r.range(9_000..20_000)
            },
        }
    });
    // Always exercise the interesting corners: rendezvous into the
    // victim, out of the victim, and between the two survivors.
    v.push(Op {
        src: 0,
        dst: VICTIM,
        len: 16_000,
    });
    v.push(Op {
        src: VICTIM,
        dst: 1,
        len: 12_000,
    });
    v.push(Op {
        src: 0,
        dst: 1,
        len: 10_000,
    });
    v
}

/// How one operation ended on the rank that owned it.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    /// Receive delivered these bytes (empty vec for the send side).
    Ok(Vec<u8>),
    PeerFailed,
    Other(String),
}

fn classify(r: MpiResult<Status>, bytes: Vec<u8>) -> Outcome {
    match r {
        Result::Ok(_) => Outcome::Ok(bytes),
        Err(MpiError::PeerFailed { .. }) => Outcome::PeerFailed,
        Err(e) => Outcome::Other(e.to_string()),
    }
}

/// Per-rank result: `(op index, outcome)` for every send and receive the
/// rank owned.
type RankOutcomes = Vec<(usize, Outcome)>;

/// Run the schedule once. `kill_at = None` is the fault-free control.
fn run_schedule(ops: &[Op], kill_at: Option<u64>, tracers: &[Tracer]) -> Vec<RankOutcomes> {
    let rel = RelConfig::default().with_heartbeat(HEARTBEAT.0, HEARTBEAT.1, HEARTBEAT.2);
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(RANKS)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig::uniform(0x150_1a7e ^ rank as u64, FaultRates::drop_only(0.0));
            let mut faulty = FaultyDevice::new(dev, cfg);
            if rank == VICTIM {
                if let Some(frames) = kill_at {
                    faulty = faulty.kill_after(frames);
                }
            }
            let mut reliable = ReliableDevice::new(faulty, rel);
            Device::set_tracer(&mut reliable, tracers[rank].clone());
            reliable
        })
        .collect();

    let ops: Arc<Vec<Op>> = Arc::new(ops.to_vec());
    let trc: Vec<Tracer> = tracers.to_vec();
    run_devices(devices, MpiConfig::device_defaults(), move |mpi: Mpi| {
        let world = mpi.world();
        let me = world.rank();
        mpi.set_tracer(trc[me].clone());

        // Post every receive up front (nonblocking), then every send, so
        // no ordering of completions can deadlock the schedule.
        let recv_idx: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].dst == me).collect();
        let send_idx: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].src == me).collect();
        let mut bufs: Vec<Vec<u8>> = recv_idx.iter().map(|&i| vec![0u8; ops[i].len]).collect();
        let recv_reqs: Vec<_> = bufs
            .iter_mut()
            .zip(&recv_idx)
            .map(|(buf, &i)| {
                world
                    .irecv(buf.as_mut_slice(), ops[i].src, i as u32)
                    .expect("posting a receive cannot fail here")
            })
            .collect();
        let payloads: Vec<Vec<u8>> = send_idx.iter().map(|&i| payload(i, ops[i].len)).collect();
        let send_reqs: Vec<_> = payloads
            .iter()
            .zip(&send_idx)
            .map(|(data, &i)| {
                world
                    .isend(data.as_slice(), ops[i].dst, i as u32)
                    .expect("posting a send cannot fail here")
            })
            .collect();

        let mut out: RankOutcomes = Vec::new();
        let send_status: Vec<MpiResult<Status>> = send_reqs.into_iter().map(|r| r.wait()).collect();
        let recv_status: Vec<MpiResult<Status>> = recv_reqs.into_iter().map(|r| r.wait()).collect();
        for (&i, st) in send_idx.iter().zip(send_status) {
            out.push((i, classify(st, Vec::new())));
        }
        for ((&i, st), buf) in recv_idx.iter().zip(recv_status).zip(bufs) {
            out.push((i, classify(st, buf)));
        }
        out
    })
}

/// Tuned-collective ULFM contract: with one member dead, every algorithm
/// registered in the collective engine must resolve to a typed
/// `PeerFailed`/`Revoked` on the survivors — never a hang, never an
/// untyped error. Survivors first spin on the barrier until detection
/// trips it, then exercise each collective family, which must fail fast
/// at the entry check without touching the wire. One job per pin set, so
/// that every algorithm is the one dispatched in some job.
#[test]
fn tuned_collectives_fail_typed_on_a_dead_member() {
    for cfg in common::pin_sets() {
        collectives_fail_typed_on_a_dead_member(cfg);
    }
}

fn collectives_fail_typed_on_a_dead_member(cfg: MpiConfig) {
    let rel = RelConfig::default().with_heartbeat(HEARTBEAT.0, HEARTBEAT.1, HEARTBEAT.2);
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(RANKS)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig::uniform(0xC011_EC70 ^ rank as u64, FaultRates::drop_only(0.0));
            let mut faulty = FaultyDevice::new(dev, cfg);
            if rank == VICTIM {
                faulty = faulty.kill_after(6);
            }
            ReliableDevice::new(faulty, rel)
        })
        .collect();

    let typed = |e: &MpiError| matches!(e, MpiError::PeerFailed { .. } | MpiError::Revoked { .. });
    run_devices(devices, cfg, move |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == VICTIM {
            // The crash switch arms after a few frames; the victim's own
            // call exits through symmetric detection (any outcome is fine
            // on this side — the contract under test is the survivors').
            let _ = world.barrier();
            return;
        }
        // Spin on the barrier until the dead member surfaces as a typed
        // error (earlier rounds may legitimately complete if they beat
        // the crash).
        let mut detected = None;
        for round in 0..200 {
            match world.barrier() {
                Ok(()) => continue,
                Err(e) if typed(&e) => {
                    detected = Some(round);
                    break;
                }
                Err(e) => panic!("barrier ended with an untyped error: {e}"),
            }
        }
        let detected = detected.expect("the dead member was never detected");

        // Once detected, every family must fail fast and typed under the
        // algorithm this job pins — including the ones the decision table
        // would not pick.
        let mut buf = vec![0u64; 32];
        let outcomes: Vec<(&str, MpiResult<()>)> = vec![
            ("barrier", world.barrier()),
            ("bcast", world.bcast(&mut buf, 0)),
            (
                "allreduce",
                world.allreduce(&buf, lmpi::ReduceOp::Sum).map(|_| ()),
            ),
            ("allgather", world.allgather(&buf).map(|_| ())),
        ];
        for (name, r) in outcomes {
            match r {
                Err(ref e) if typed(e) => {}
                other => panic!(
                    "{name} under {:?} after detection (round {detected}) must fail typed, \
                     got {other:?}",
                    cfg.coll
                ),
            }
        }
    });
}

// Each case spawns 2 × RANKS threads and rides real heartbeat
// timeouts; keep the count modest.
#[test]
fn killing_one_rank_never_poisons_survivor_traffic() {
    let mut peer_failures = 0;
    for_each_case(8, |rng| {
        let ops = gen_ops(rng);
        let mk_tracers = || {
            (0..RANKS as u32)
                .map(|r| Tracer::enabled(r, 1 << 16))
                .collect::<Vec<_>>()
        };

        // Fault-free control: everything must complete.
        let control_tracers = mk_tracers();
        let control = run_schedule(&ops, None, &control_tracers);
        for (rank, outcomes) in control.iter().enumerate() {
            for (i, o) in outcomes {
                assert!(
                    matches!(*o, Outcome::Ok(_)),
                    "control run: rank {rank} op {i} ended {o:?}"
                );
            }
        }

        // Killed run. The crash switch counts frames the victim sends, so
        // arm it somewhere among those the control run saw it send.
        let victim_sent = (control_tracers[VICTIM].snapshot().events.iter())
            .filter(|e| matches!(e.kind, EventKind::WireTx { .. }))
            .count();
        let kill_at = rng.range(1..victim_sent + 1) as u64;
        let tracers = mk_tracers();
        let killed = run_schedule(&ops, Some(kill_at), &tracers);
        for (rank, outcomes) in killed.iter().enumerate() {
            for (i, o) in outcomes {
                let op = ops[*i];
                peer_failures += usize::from(*o == Outcome::PeerFailed);
                if op.touches_victim() || rank == VICTIM {
                    // Completed before the crash, or typed PeerFailed —
                    // anything else is an isolation bug.
                    assert!(
                        matches!(*o, Outcome::Ok(_) | Outcome::PeerFailed),
                        "rank {rank} op {i} ({op:?}) ended {o:?}"
                    );
                } else {
                    // Survivor↔survivor traffic must be untouched:
                    // same success, same bytes as the fault-free run.
                    let reference = control[rank]
                        .iter()
                        .find(|(j, _)| j == i)
                        .map(|(_, o)| o)
                        .expect("same schedule in both runs");
                    assert!(
                        o == reference,
                        "rank {rank} op {i} ({op:?}) diverged from the \
                         fault-free run: {o:?} vs {reference:?}"
                    );
                }
            }
        }

        // Wire accounting: every transmission in the killed run is
        // delivered, explained by recovery, or was eaten by the crash
        // (sent by, or addressed to, the victim). Survivor↔survivor
        // frames must never orphan.
        let bufs: Vec<_> = tracers.iter().map(|t| t.snapshot()).collect();
        let record = correlate(&bufs);
        if !record.truncated {
            for orphan in &record.account_wire_tx().orphans {
                let dst = record.timeline(*orphan).and_then(|t| t.dst);
                assert!(
                    orphan.src == VICTIM as u32 || dst == Some(VICTIM as u32),
                    "orphaned WireTx {orphan:?} (dst {dst:?}) does not touch the victim"
                );
            }
        }
    });
    assert!(
        peer_failures > 0,
        "no case lost its victim mid-schedule: the property was never exercised"
    );
}
