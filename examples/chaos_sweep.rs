//! Chaos harness: kill a rank mid-computation and watch the survivors
//! detect, revoke, shrink, and converge (DESIGN.md §16 acceptance run).
//!
//! Four ranks run a 1-D Jacobi heat chain over `Reliable(Faulty(Shm))`
//! with heartbeats enabled. The faulty layer's crash switch
//! ([`FaultyDevice::kill_after`]) silences rank 3 after a fixed number of
//! network frames — mid-loop, after everyone has completed clean
//! iterations. From there:
//!
//! * rank 2 (the victim's only Jacobi neighbor) blocks on its halo
//!   receive until the heartbeat machine declares rank 3 dead, gets a
//!   typed `PeerFailed`, and **revokes** the world communicator;
//! * ranks 0 and 1 — which never exchange data with the victim — learn
//!   of the failure through the flooded revoke frame (their next halo
//!   operation fails with `Revoked`) and through heartbeat silence;
//! * all survivors **shrink** to a 3-rank communicator and rerun the
//!   whole computation on it, converging to the serial reference;
//! * the victim's own liveness machine symmetrically declares *its*
//!   peers dead (it is unreachable, not stopped), so it exits cleanly
//!   instead of hanging the join.
//!
//! The run asserts the acceptance bar — at least one clean pre-failure
//! iteration everywhere, only typed `PeerFailed`/`Revoked` errors, the
//! shrunken communicator has exactly the three survivors, detection
//! well under two seconds, and the post-shrink solution matches the
//! serial reference — then writes `target/chaos_sweep.json`.
//!
//! Run with `cargo run --release --example chaos_sweep`.

use std::sync::Arc;
use std::time::Duration;

use lmpi::{
    run_devices, Communicator, FaultConfig, FaultRates, FaultyDevice, Mpi, MpiConfig, MpiError,
    MpiResult, RelConfig, RelStats, ReliableDevice, ShmDevice, TransportStats,
};

/// World size before the failure.
const RANKS: usize = 4;
/// The rank the crash switch silences.
const VICTIM: usize = 3;
/// Network frames the victim transmits before going dark: enough for
/// everyone to finish whole Jacobi iterations first, early enough that
/// the pre-failure loop never completes.
const KILL_AFTER_FRAMES: u64 = 120;
/// Keepalive interval on idle links.
const HEARTBEAT: Duration = Duration::from_millis(1);
/// Silence before Suspect.
const SUSPECT: Duration = Duration::from_millis(10);
/// Silence before Dead.
const DEAD: Duration = Duration::from_millis(40);
/// Jacobi cells owned by each rank.
const CELLS: usize = 64;
/// Pre-failure loop bound — never reached; the crash ends the loop.
const MAX_PRE_ITERS: usize = 200_000;
/// Post-shrink iterations, compared against the serial reference.
const POST_ITERS: usize = 200;
/// Detection-latency acceptance bound, seconds from loop start.
const MAX_DETECT_S: f64 = 2.0;

/// One Jacobi halo-exchange sweep over `comm` (a chain, not a ring):
/// fixed 1.0 Dirichlet boundary on the global left, 0.0 on the right.
/// Returns the updated interior or the first communication error.
fn jacobi_step(comm: &Communicator, u: &mut Vec<f64>) -> MpiResult<()> {
    let (me, n) = (comm.rank(), comm.size());
    // Eager 8-byte halos: sends complete optimistically, so everyone can
    // send both edges before posting receives without deadlock.
    if me > 0 {
        comm.send(&[u[0]], me - 1, 1)?;
    }
    if me + 1 < n {
        comm.send(&[u[CELLS - 1]], me + 1, 2)?;
    }
    let mut left = [1.0f64]; // global Dirichlet left
    let mut right = [0.0f64]; // global Dirichlet right
    if me > 0 {
        comm.recv(&mut left, me - 1, 2)?;
    }
    if me + 1 < n {
        comm.recv(&mut right, me + 1, 1)?;
    }
    let mut next = vec![0.0f64; CELLS];
    for i in 0..CELLS {
        let l = if i == 0 { left[0] } else { u[i - 1] };
        let r = if i + 1 == CELLS { right[0] } else { u[i + 1] };
        next[i] = 0.5 * (l + r);
    }
    *u = next;
    Ok(())
}

/// Serial reference: the identical sweep over the whole `ranks * CELLS`
/// domain, same arithmetic in the same order, so the parallel rerun must
/// match it exactly.
fn serial_reference(ranks: usize, iters: usize) -> Vec<f64> {
    let n = ranks * CELLS;
    let mut u = vec![0.0f64; n];
    for _ in 0..iters {
        let mut next = vec![0.0f64; n];
        for i in 0..n {
            let l = if i == 0 { 1.0 } else { u[i - 1] };
            let r = if i + 1 == n { 0.0 } else { u[i + 1] };
            next[i] = 0.5 * (l + r);
        }
        u = next;
    }
    u
}

/// What each rank reports back to the harness.
#[derive(Clone, Debug, Default)]
struct Report {
    rank: usize,
    is_victim: bool,
    /// Clean Jacobi iterations completed before the first error.
    pre_iters: usize,
    /// Seconds from loop start to the first typed failure.
    detect_s: f64,
    /// Display name of the first error ("peer_failed" / "revoked").
    first_error: String,
    /// Survivors: size of the shrunken communicator.
    shrunk_size: usize,
    /// Survivors: max |parallel − serial| after the post-shrink rerun.
    max_err: f64,
    /// Dead peers this rank's liveness machine (or the agreement)
    /// recorded.
    failed_seen: Vec<usize>,
}

/// Classify an expected chaos-path error; anything else is a harness bug.
fn error_name(e: &MpiError) -> String {
    match e {
        MpiError::PeerFailed { .. } => "peer_failed".into(),
        MpiError::Revoked { .. } => "revoked".into(),
        other => panic!("unexpected error class during chaos run: {other}"),
    }
}

/// The victim's epilogue: it is unreachable, not stopped, so it watches
/// its own liveness machine declare every peer dead and exits cleanly.
fn victim_epilogue(mpi: &Mpi, report: &mut Report) {
    let world = mpi.world();
    let t0 = mpi.wtime();
    loop {
        let dead = world.failed_ranks().expect("victim poll");
        if dead.len() == RANKS - 1 {
            report.failed_seen = dead;
            return;
        }
        assert!(
            mpi.wtime() - t0 < 10.0,
            "victim's liveness machine failed to declare its peers dead: {dead:?}"
        );
        std::thread::yield_now();
    }
}

/// A survivor's epilogue: revoke, shrink, rerun, verify.
fn survivor_epilogue(mpi: &Mpi, report: &mut Report) {
    let world = mpi.world();
    // First detector floods the revoke; for everyone else this is a
    // no-op (already marked by the incoming revoke frame).
    world.revoke().expect("revoke");
    let shrunk = world.shrink().expect("survivors can shrink");
    report.failed_seen = world.failed_ranks().expect("post-shrink poll");
    report.shrunk_size = shrunk.size();

    // Rerun the whole computation on the shrunken communicator; identical
    // arithmetic means the answer must match the serial reference.
    let mut u = vec![0.0f64; CELLS];
    for _ in 0..POST_ITERS {
        jacobi_step(&shrunk, &mut u).expect("post-shrink exchange on healthy ranks");
    }
    let reference = serial_reference(shrunk.size(), POST_ITERS);
    let offset = shrunk.rank() * CELLS;
    report.max_err = u
        .iter()
        .zip(&reference[offset..offset + CELLS])
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
}

fn run_rank(mpi: Mpi) -> Report {
    let world = mpi.world();
    let mut report = Report {
        rank: world.rank(),
        is_victim: world.rank() == VICTIM,
        ..Report::default()
    };

    let mut u = vec![0.0f64; CELLS];
    let t0 = mpi.wtime();
    for _ in 0..MAX_PRE_ITERS {
        match jacobi_step(&world, &mut u) {
            Ok(()) => report.pre_iters += 1,
            Err(e) => {
                report.detect_s = mpi.wtime() - t0;
                report.first_error = error_name(&e);
                break;
            }
        }
    }
    assert!(
        !report.first_error.is_empty(),
        "rank {} finished the pre-failure loop without observing the crash",
        report.rank
    );

    if report.is_victim {
        victim_epilogue(&mpi, &mut report);
    } else {
        survivor_epilogue(&mpi, &mut report);
    }
    report
}

fn main() {
    let rel = RelConfig::default().with_heartbeat(HEARTBEAT, SUSPECT, DEAD);
    let mut stats: Vec<Arc<RelStats>> = Vec::new();
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(RANKS)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let cfg = FaultConfig::uniform(0xc405_5eed ^ rank as u64, FaultRates::drop_only(0.0));
            let mut faulty = FaultyDevice::new(dev, cfg);
            if rank == VICTIM {
                faulty = faulty.kill_after(KILL_AFTER_FRAMES);
            }
            let reliable = ReliableDevice::new(faulty, rel);
            stats.push(reliable.stats_handle());
            reliable
        })
        .collect();

    let reports = run_devices(devices, MpiConfig::device_defaults(), run_rank);

    // ---- acceptance ----
    for r in &reports {
        assert!(
            r.pre_iters >= 1,
            "rank {} had no clean pre-failure iteration",
            r.rank
        );
        assert!(
            r.detect_s < MAX_DETECT_S,
            "rank {} took {:.3}s to observe the failure (bound {MAX_DETECT_S}s)",
            r.rank,
            r.detect_s
        );
    }
    for r in reports.iter().filter(|r| !r.is_victim) {
        assert_eq!(r.shrunk_size, RANKS - 1, "rank {} shrunk size", r.rank);
        assert!(
            r.failed_seen.contains(&VICTIM),
            "rank {} never recorded the victim as failed: {:?}",
            r.rank,
            r.failed_seen
        );
        assert!(
            r.max_err < 1e-9,
            "rank {} diverged from the serial reference by {}",
            r.rank,
            r.max_err
        );
    }
    let victim = reports.iter().find(|r| r.is_victim).expect("victim report");
    assert_eq!(
        victim.failed_seen.len(),
        RANKS - 1,
        "victim's symmetric detection incomplete: {:?}",
        victim.failed_seen
    );
    let survivor_heartbeats: u64 = stats
        .iter()
        .enumerate()
        .filter(|&(rank, _)| rank != VICTIM)
        .map(|(_, s)| TransportStats::from(&**s).heartbeats_sent)
        .sum();
    assert!(
        survivor_heartbeats > 0,
        "survivors sent no heartbeats — liveness was never exercised"
    );

    println!(
        "chaos: {} ranks, victim {VICTIM} silenced after {KILL_AFTER_FRAMES} frames",
        RANKS
    );
    for r in &reports {
        println!(
            "  rank {}: {}{} clean iters, first error {:?} at {:.3}s, dead peers seen {:?}",
            r.rank,
            if r.is_victim { "[victim] " } else { "" },
            r.pre_iters,
            r.first_error,
            r.detect_s,
            r.failed_seen
        );
    }
    println!(
        "  survivors shrank to {} ranks and converged (max err {:.2e})",
        RANKS - 1,
        reports
            .iter()
            .filter(|r| !r.is_victim)
            .map(|r| r.max_err)
            .fold(0.0, f64::max)
    );

    // ---- artifact ----
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"ranks\": {RANKS},\n  \"victim\": {VICTIM},\n  \
         \"kill_after_frames\": {KILL_AFTER_FRAMES},\n  \
         \"heartbeat_us\": {},\n  \"suspect_us\": {},\n  \
         \"dead_us\": {},\n  \"post_iters\": {POST_ITERS},\n  \"rows\": [\n",
        HEARTBEAT.as_micros(),
        SUSPECT.as_micros(),
        DEAD.as_micros()
    ));
    for (i, r) in reports.iter().enumerate() {
        let s = TransportStats::from(&*stats[r.rank]);
        let (hb, suspected, dead) = (s.heartbeats_sent, s.peers_suspected, s.peers_dead);
        let sep = if i + 1 == reports.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"rank\": {}, \"victim\": {}, \"pre_iters\": {}, \
             \"first_error\": \"{}\", \"detect_s\": {:.6}, \"shrunk_size\": {}, \
             \"max_err\": {:.3e}, \"heartbeats_sent\": {hb}, \
             \"peers_suspected\": {suspected}, \"peers_dead\": {dead}}}{sep}\n",
            r.rank, r.is_victim, r.pre_iters, r.first_error, r.detect_s, r.shrunk_size, r.max_err
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/chaos_sweep.json", json).expect("write target/chaos_sweep.json");
    println!("wrote target/chaos_sweep.json");
}
