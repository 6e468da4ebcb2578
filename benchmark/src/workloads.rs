//! The six workloads. Each function here runs **one repetition** on a fresh
//! fabric: build, warm up, then time ops in a closed loop (one client, the
//! next op starts when the previous one completed) until the repetition's
//! time budget is spent, verifying every payload.
//!
//! The library is driven only through its public functions.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmpi_apps::particles::{self, Particle};
use lmpi_core::{
    wait_all, Communicator, Counters, Device, HealthReport, Mpi, MpiConfig, MpiResult, ReduceOp,
    Request, Tag, TransportStats,
};
use lmpi_devices::shm::ShmDevice;
use lmpi_devices::sock::{run_cluster, ClusterNet, ClusterTransport, RealTcpChannel, SockDevice};

use crate::trace::{Recorder, Span};
use crate::util::{bind_to_cpu_slot, process_cpu, Rng, Samples};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    ShmSmall,
    ShmLarge,
    ShmStream,
    ShmOverlap,
    TcpSmall,
    ClusterVirtual,
}

pub const ALL: [Workload; 6] = [
    Workload::ShmSmall,
    Workload::ShmLarge,
    Workload::ShmStream,
    Workload::ShmOverlap,
    Workload::TcpSmall,
    Workload::ClusterVirtual,
];

const SMALL: usize = 8;
const LARGE: usize = 4 << 20;
const OVERLAP_BYTES: usize = 8 << 20;
const STREAM_MSGS: usize = 64;
const STREAM_MSG_BYTES: usize = 1 << 10;
const MD_PARTICLES: usize = 128;
const MD_RANKS: usize = 8;
const MD_BLOB: usize = 4 << 10;
/// Timed steps, over all repetitions, per second of `--seconds` on
/// `cluster_virtual`: its results are in virtual time, so its work is a
/// fixed step count, sized to take about `--seconds` of wall time on the
/// reference box (a step costs the simulator 4 ms there).
pub const MD_STEPS_PER_SECOND: f64 = 200.0;

const TAG_PING: Tag = 0;
const TAG_PONG: Tag = 1;
const TAG_ACK: Tag = 100;

/// A rank blocked this long with no incoming frame returns
/// `MpiError::Timeout` instead of hanging (real substrates only: a
/// simulated rank's clock advances only while it blocks).
const PROGRESS_TIMEOUT_US: u64 = 2_000_000;
/// Beyond its time budget, how long a repetition may take before the
/// harness stops waiting for it.
const REP_GRACE: Duration = Duration::from_secs(30);

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShmSmall => "shm_small",
            Workload::ShmLarge => "shm_large",
            Workload::ShmStream => "shm_stream",
            Workload::ShmOverlap => "shm_overlap",
            Workload::TcpSmall => "tcp_small",
            Workload::ClusterVirtual => "cluster_virtual",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; `BENCHMARK.json` and the README carry the
    /// same line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ShmSmall => "8 B ping-pong on shm threads: all thread hand-off (engine mutex, progress-thread wake, condvar), bytes are free",
            Workload::ShmLarge => "4 MiB ping-pong on shm: copy- and chunk-pipeline-bound (256 KiB x 8 rendezvous), the control for shm_small",
            Workload::ShmStream => "64 pre-posted 1 KiB irecvs per window in shuffled tag order: message rate, matching at depth 64, credits",
            Workload::ShmOverlap => "isend 8 MiB, compute for the comm-only time, wait: max(compute, comm) only while the progress thread works",
            Workload::TcpSmall => "8 B ping-pong over real loopback TCP: adds codec, framing, socket syscalls and the reader thread to shm_small",
            Workload::ClusterVirtual => "8 ranks on simulated ATM/TCP, MD step = forces_ring + allreduce + bcast: virtual time, message counts and algorithm choice",
        }
    }

    /// What one op is, for the printed table.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ShmSmall | Workload::TcpSmall => "8 B round trip",
            Workload::ShmLarge => "4 MiB round trip",
            Workload::ShmStream => "window of 64 x 1 KiB + 1 B ack",
            Workload::ShmOverlap => "isend 8 MiB + compute + wait",
            Workload::ClusterVirtual => "MD step, 8 ranks, virtual time",
        }
    }

    /// User payload bytes delivered into user buffers by one op of a
    /// repetition seeded with `seed`.
    pub fn payload_bytes_per_op(self, seed: u64) -> u64 {
        (match self {
            Workload::ShmSmall | Workload::TcpSmall => 2 * SMALL,
            Workload::ShmLarge => 2 * LARGE,
            Workload::ShmStream => STREAM_MSGS * STREAM_MSG_BYTES + 1,
            Workload::ShmOverlap => OVERLAP_BYTES,
            // Ring: each rank receives 7 blocks of 16 particles x 24 B;
            // allreduce delivers one f64 per rank; bcast to 7 ranks.
            Workload::ClusterVirtual => {
                MD_RANKS * (MD_RANKS - 1) * (MD_PARTICLES / MD_RANKS) * 24
                    + MD_RANKS * 8
                    + (MD_RANKS - 1) * md_blob_len(seed)
            }
        }) as u64
    }

    /// Untimed ops at the start of every repetition (fixed, so that
    /// `setup_s` compares between commits).
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::ShmSmall | Workload::TcpSmall => 2_000,
            Workload::ShmLarge => 40,
            Workload::ShmStream => 200,
            Workload::ShmOverlap => 20,
            Workload::ClusterVirtual => 5,
        }
    }

    pub fn virtual_time(self) -> bool {
        self == Workload::ClusterVirtual
    }
}

/// What one repetition is asked to do.
#[derive(Copy, Clone, Debug)]
pub struct RepSpec {
    pub seed: u64,
    /// Length of the timed phase (real substrates).
    pub budget: Duration,
    /// Untimed ops before the timed phase.
    pub warmup_ops: u64,
    /// Timed ops to run even if the budget is spent sooner.
    pub min_ops: u64,
    /// Timed steps (`cluster_virtual`).
    pub steps: u64,
    pub traced: bool,
    /// Compute-block iterations for `shm_overlap`.
    pub compute_iters: u64,
    /// `--check` only: the echo rank flips a byte of this op's reply.
    pub corrupt_op: Option<u64>,
    /// `--check` only: the echo rank stops answering at this op.
    pub mute_op: Option<u64>,
}

/// Library state on one rank at one moment.
#[derive(Clone, Debug)]
pub struct Snap {
    pub counters: Counters,
    pub health: HealthReport,
    pub transport: TransportStats,
}

impl Snap {
    fn take(mpi: &Mpi) -> Snap {
        Snap {
            counters: mpi.counters(),
            health: mpi.health(),
            transport: mpi.transport_stats(),
        }
    }
}

/// What one rank brings back from a repetition.
pub struct RankOut {
    /// Durations of the verified timed ops, µs (client rank only).
    pub op_us: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// When the first timed op started (client rank only).
    pub first_op: Option<Instant>,
    /// Wall length of the timed phase, µs, and process CPU time over it
    /// (client only).
    pub span_us: f64,
    pub cpu: Duration,
    /// Library state before and after the timed phase (traced runs).
    pub snaps: Option<(Snap, Snap)>,
    before: Option<Snap>,
    clock: Option<PhaseClock>,
    pub rec: Recorder,
}

impl RankOut {
    fn new(spec: &RepSpec, rank: usize, epoch: Instant) -> RankOut {
        RankOut {
            op_us: Samples::new(rank == 0),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            first_op: None,
            span_us: 0.0,
            cpu: Duration::ZERO,
            snaps: None,
            before: None,
            clock: None,
            rec: Recorder::new(spec.traced, rank, epoch, 1 << 18),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// Record why something went wrong without counting a failed op.
    fn note(&mut self, why: String) {
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn snap_before(&mut self, spec: &RepSpec, mpi: &Mpi) {
        if spec.traced {
            self.before = Some(Snap::take(mpi));
        }
    }

    fn snap_after(&mut self, mpi: &Mpi) {
        if let Some(before) = self.before.take() {
            self.snaps = Some((before, Snap::take(mpi)));
        }
    }

    /// Client rank, before op number `op`: open the timed phase when the
    /// warm-up is over, and say whether this op is timed and whether it is
    /// the last (the first to start after the budget is spent).
    fn next_op(&mut self, op: u64, spec: &RepSpec, mpi: &Mpi) -> (bool, bool) {
        if op == spec.warmup_ops {
            self.snap_before(spec, mpi);
            self.clock = Some(PhaseClock::start());
        }
        let last = self.clock.as_ref().is_some_and(|c| {
            self.attempted + 1 >= spec.min_ops && c.start.elapsed() >= spec.budget
        });
        (self.clock.is_some(), last)
    }

    /// Client rank, after the last op: close the timed phase.
    fn close_phase(&mut self, mpi: &Mpi) {
        let clock = self.clock.take().expect("the last op is a timed op");
        self.span_us = clock.start.elapsed().as_secs_f64() * 1e6;
        self.cpu = process_cpu() - clock.cpu0;
        self.first_op = Some(clock.start);
        self.snap_after(mpi);
    }

    /// Count one finished op: timed if it verified, failed if it did not.
    fn finish_op(&mut self, timed: bool, ok: bool, dur_us: f64, what: impl FnOnce() -> String) {
        if timed {
            self.attempted += 1;
        }
        if !ok {
            if !timed {
                self.attempted += 1;
            }
            self.fail(what());
        } else if timed {
            self.op_us.push(dur_us);
        }
    }
}

/// Wall and CPU clocks of a timed phase.
struct PhaseClock {
    start: Instant,
    cpu0: Duration,
}

impl PhaseClock {
    fn start() -> PhaseClock {
        PhaseClock {
            cpu0: process_cpu(),
            start: Instant::now(),
        }
    }
}

/// One repetition's merged result.
#[derive(Default)]
pub struct RepResult {
    pub op_us: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Repetition start (fabric build, thread spawn, warm-up) to first
    /// timed op, seconds.
    pub setup_s: f64,
    pub span_us: f64,
    pub cpu: Duration,
    /// User payload bytes one op delivered.
    pub payload_bytes_per_op: u64,
    /// Per rank: library state before and after the timed phase.
    pub snaps: Vec<(Snap, Snap)>,
    pub spans: Vec<Span>,
    /// The repetition did not come back; its threads may still be blocked.
    pub wedged: bool,
}

impl RepResult {
    fn failure(why: String, wedged: bool) -> RepResult {
        RepResult {
            attempted: 1,
            failed: 1,
            errors: vec![why],
            wedged,
            ..RepResult::default()
        }
    }
}

/// Run one repetition of `w` on a fresh fabric, under a deadline: a rank
/// that deadlocks ends the repetition with a failed op and a named error
/// instead of wedging the caller.
pub fn run_rep(w: Workload, spec: RepSpec) -> RepResult {
    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    let worker = std::thread::Builder::new()
        .name(format!("rep-{}", w.name()))
        .spawn(move || {
            // A panicking rank drops `tx`; the receiver reports it.
            let _ = tx.send(run_rep_inner(w, spec, started));
        })
        .expect("spawn repetition thread");
    // The simulator's wall time is not bounded by a budget; allow it the
    // driver's own per-run limit.
    let limit = if w.virtual_time() {
        Duration::from_secs(150)
    } else {
        spec.budget + REP_GRACE
    };
    match rx.recv_timeout(limit) {
        Ok(res) => {
            worker
                .join()
                .expect("repetition thread already sent its result");
            res
        }
        Err(mpsc::RecvTimeoutError::Timeout) => RepResult::failure(
            format!(
                "{}: repetition exceeded its {limit:?} deadline (deadlocked rank?)",
                w.name()
            ),
            true,
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = worker.join();
            RepResult::failure(format!("{}: a rank panicked", w.name()), false)
        }
    }
}

/// The two real substrates.
#[derive(Copy, Clone)]
enum Real {
    Shm,
    Tcp,
}

/// Run `f` on one thread per rank over a fresh 2-rank fabric. This is
/// `shm::run_with_config` / `sock::run_real_tcp` with one addition: each
/// rank thread binds itself to a CPU *before* it builds its `Mpi`, so the
/// service threads the library spawns for that rank (progress thread, TCP
/// mesh reader) inherit the binding. `spread` gives each rank its own CPU;
/// without it both ranks share one.
fn run_real<F>(sub: Real, spread: bool, cfg: MpiConfig, f: F) -> Result<Vec<RankOut>, String>
where
    F: Fn(Mpi) -> RankOut + Send + Sync + 'static,
{
    const RANKS: usize = 2;
    let f = Arc::new(f);
    let rank_thread =
        |rank: usize, device: Box<dyn FnOnce() -> Result<Box<dyn Device>, String> + Send>| {
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("bench-rank-{rank}"))
                .spawn(move || {
                    bind_to_cpu_slot(if spread { rank } else { 0 });
                    Ok(f(Mpi::new(device()?, cfg)))
                })
                .expect("spawn rank thread")
        };
    let handles: Vec<_> = match sub {
        Real::Shm => ShmDevice::fabric(RANKS)
            .into_iter()
            .enumerate()
            .map(|(rank, dev)| {
                rank_thread(rank, Box::new(move || Ok(Box::new(dev) as Box<dyn Device>)))
            })
            .collect(),
        Real::Tcp => {
            let rendezvous = Arc::new(RealTcpChannel::rendezvous(RANKS));
            (0..RANKS)
                .map(|rank| {
                    let rendezvous = rendezvous.clone();
                    rank_thread(
                        rank,
                        Box::new(move || {
                            let chan =
                                RealTcpChannel::connect(rank, RANKS, &rendezvous).map_err(|e| {
                                    format!("tcp mesh setup failed for rank {rank}: {e}")
                                })?;
                            Ok(Box::new(SockDevice::new(chan, rank, RANKS)) as Box<dyn Device>)
                        }),
                    )
                })
                .collect()
        }
    };
    handles
        .into_iter()
        .enumerate()
        .map(|(rank, h)| match h.join() {
            Ok(out) => out,
            Err(_) => Err(format!("rank {rank} panicked")),
        })
        .collect()
}

fn run_rep_inner(w: Workload, spec: RepSpec, started: Instant) -> RepResult {
    let cfg = MpiConfig::device_defaults();
    let real = cfg.with_progress_timeout_us(PROGRESS_TIMEOUT_US);
    let outs = match w {
        // One CPU for both ranks: the op is four thread hand-offs and
        // nothing else. On one CPU a hand-off is a context switch (25 us
        // per round trip, within 2 % run to run); across two it is a
        // wake-up of an idle virtual CPU, which the hypervisor of the
        // reference box takes 40 us +- 15 % over and no library change can
        // move. The other workloads keep the cross-CPU path in view.
        Workload::ShmSmall => run_real(Real::Shm, false, real, move |mpi| {
            pingpong(&mpi, &spec, SMALL, started)
        }),
        Workload::ShmLarge => run_real(Real::Shm, true, real, move |mpi| {
            pingpong(&mpi, &spec, LARGE, started)
        }),
        Workload::ShmStream => run_real(Real::Shm, true, real, move |mpi| {
            stream(&mpi, &spec, started)
        }),
        Workload::ShmOverlap => run_real(Real::Shm, true, real, move |mpi| {
            overlap(&mpi, &spec, started)
        }),
        Workload::TcpSmall => run_real(Real::Tcp, true, real, move |mpi| {
            pingpong(&mpi, &spec, SMALL, started)
        }),
        Workload::ClusterVirtual => {
            let input = Arc::new(MdInput::new(spec.seed));
            // The simulator runs one rank thread at a time: on one CPU a
            // token hand-off is a context switch, not a cross-CPU wake-up.
            bind_to_cpu_slot(0);
            Ok(run_cluster(
                MD_RANKS,
                ClusterNet::Atm,
                ClusterTransport::Tcp,
                cfg,
                move |mpi| md(&mpi, &spec, &input, started),
            ))
        }
    };
    match outs {
        Ok(outs) => merge(outs, w.payload_bytes_per_op(spec.seed), started),
        Err(e) => RepResult::failure(e, false),
    }
}

fn merge(outs: Vec<RankOut>, payload_bytes_per_op: u64, started: Instant) -> RepResult {
    let mut res = RepResult {
        payload_bytes_per_op,
        ..RepResult::default()
    };
    for (rank, out) in outs.into_iter().enumerate() {
        if rank == 0 {
            res.op_us = out.op_us;
            res.attempted = out.attempted;
            res.span_us = out.span_us;
            res.cpu = out.cpu;
            res.setup_s = out
                .first_op
                .map_or(0.0, |t| t.duration_since(started).as_secs_f64());
        }
        res.failed += out.failed;
        res.errors.extend(out.errors);
        res.snaps.extend(out.snaps);
        res.spans.extend(out.rec.spans);
    }
    // Several ranks can flag the same op; an op fails at most once.
    res.attempted = res.attempted.max(1);
    res.failed = res.failed.min(res.attempted);
    res
}

/// Run one rank's part of a repetition; an `Err` from the library ends it
/// as a failed op.
fn on_rank(
    mpi: &Mpi,
    spec: &RepSpec,
    epoch: Instant,
    body: impl FnOnce(&Communicator, &mut RankOut) -> MpiResult<()>,
) -> RankOut {
    let world = mpi.world();
    let me = world.rank();
    let mut out = RankOut::new(spec, me, epoch);
    if let Err(e) = body(&world, &mut out) {
        out.fail(format!("rank {me}: {e}"));
    }
    out
}

// ---------------------------------------------------------------- payloads

/// Write this op's stamp into `buf`: byte 0 the "last op" flag, bytes 1..8
/// from `v`, and (when there is room) `v` again at a `v`-chosen aligned
/// offset, which is returned.
fn stamp(buf: &mut [u8], v: u64, last: bool) -> usize {
    let bytes = v.to_le_bytes();
    buf[0] = last as u8;
    buf[1..8].copy_from_slice(&bytes[1..8]);
    let n = buf.len();
    if n < 24 {
        return 0;
    }
    let pos = 8 + (v as usize % ((n - 16) / 8)) * 8;
    buf[pos..pos + 8].copy_from_slice(&bytes);
    pos
}

/// Whether `got` carries `want`'s bytes: all of them up to 4 KiB; beyond
/// that the header, the stamp at `pos` and a 4 KiB window that rotates with
/// `op`, so a repetition covers the buffer many times over at a cost the
/// timed op does not notice. A full compare closes each repetition.
fn verify(want: &[u8], got: &[u8], pos: usize, op: u64) -> bool {
    const WIN: usize = 4096;
    if want.len() != got.len() {
        return false;
    }
    if want.len() <= WIN {
        return want == got;
    }
    let w = (op as usize % (want.len() / WIN)) * WIN;
    want[..8] == got[..8]
        && want[pos..pos + 8] == got[pos..pos + 8]
        && want[w..w + WIN] == got[w..w + WIN]
}

// --------------------------------------------------------------- ping-pong

fn pingpong(mpi: &Mpi, spec: &RepSpec, n: usize, epoch: Instant) -> RankOut {
    on_rank(mpi, spec, epoch, |world, out| {
        if world.rank() == 0 {
            pingpong_client(mpi, world, spec, n, out)
        } else {
            pingpong_echo(mpi, world, spec, n, out)
        }
    })
}

fn pingpong_client(
    mpi: &Mpi,
    world: &Communicator,
    spec: &RepSpec,
    n: usize,
    out: &mut RankOut,
) -> MpiResult<()> {
    let mut rng = Rng::new(spec.seed);
    let mut ping = vec![0u8; n];
    rng.fill(&mut ping);
    let mut pong = vec![0u8; n];
    let mut op = 0u64;
    loop {
        let (timed, last) = out.next_op(op, spec, mpi);
        let pos = stamp(&mut ping, rng.next_u64(), last);
        let t = Instant::now();
        out.rec.begin_op("round_trip", op);
        out.rec
            .call("send", op, || world.send(&ping, 1, TAG_PING))?;
        out.rec
            .call("recv", op, || world.recv(&mut pong, 1, TAG_PONG))?;
        out.rec.end_op();
        let dur_us = t.elapsed().as_secs_f64() * 1e6;
        let ok = verify(&ping, &pong, pos, op);
        out.finish_op(timed, ok, dur_us, || {
            format!("op {op}: reply differs from what was sent")
        });
        if last {
            break;
        }
        op += 1;
    }
    out.close_phase(mpi);
    if ping != pong {
        out.fail("final full compare: reply buffer differs from what was sent".into());
    }
    Ok(())
}

fn pingpong_echo(
    mpi: &Mpi,
    world: &Communicator,
    spec: &RepSpec,
    n: usize,
    out: &mut RankOut,
) -> MpiResult<()> {
    let mut buf = vec![0u8; n];
    let mut op = 0u64;
    loop {
        if op == spec.warmup_ops {
            out.snap_before(spec, mpi);
        }
        out.rec.begin_op("echo", op);
        out.rec
            .call("recv", op, || world.recv(&mut buf, 0, TAG_PING))?;
        let last = buf[0] == 1;
        if spec.mute_op == Some(op) {
            return Ok(());
        }
        if spec.corrupt_op == Some(op) {
            buf[n - 1] ^= 0xFF;
        }
        out.rec.call("send", op, || world.send(&buf, 0, TAG_PONG))?;
        out.rec.end_op();
        if last {
            break;
        }
        op += 1;
    }
    out.snap_after(mpi);
    Ok(())
}

// ------------------------------------------------------------------ stream

/// The 64 message bodies of a window, the same on both ranks; bytes 0..16
/// of each are overwritten per window by [`stamp_msg`].
fn stream_bodies(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed ^ 0x57AE);
    (0..STREAM_MSGS)
        .map(|_| {
            let mut m = vec![0u8; STREAM_MSG_BYTES];
            rng.fill(&mut m);
            m
        })
        .collect()
}

fn stamp_msg(msg: &mut [u8], window: u64, last: bool) {
    msg[0] = last as u8;
    msg[8..16].copy_from_slice(&window.to_le_bytes());
}

fn stream(mpi: &Mpi, spec: &RepSpec, epoch: Instant) -> RankOut {
    on_rank(mpi, spec, epoch, |world, out| {
        if world.rank() == 0 {
            stream_client(mpi, world, spec, out)
        } else {
            stream_sink(mpi, world, spec, out)
        }
    })
}

fn stream_client(
    mpi: &Mpi,
    world: &Communicator,
    spec: &RepSpec,
    out: &mut RankOut,
) -> MpiResult<()> {
    let mut msgs = stream_bodies(spec.seed);
    let mut ack = [0u8; 1];
    // The sink has posted window 0 once this arrives.
    world.recv(&mut ack, 1, TAG_ACK)?;
    let mut op = 0u64;
    loop {
        let (timed, last) = out.next_op(op, spec, mpi);
        for m in &mut msgs {
            stamp_msg(m, op, last);
        }
        let t = Instant::now();
        out.rec.begin_op("window", op);
        let mut reqs: Vec<Request<'_>> = Vec::with_capacity(STREAM_MSGS);
        for (tag, m) in msgs.iter().enumerate() {
            reqs.push(
                out.rec
                    .call("isend", op, || world.isend(m, 1, tag as Tag))?,
            );
        }
        out.rec.call("wait_all", op, || wait_all(reqs))?;
        out.rec
            .call("recv", op, || world.recv(&mut ack, 1, TAG_ACK))?;
        out.rec.end_op();
        let dur_us = t.elapsed().as_secs_f64() * 1e6;
        // The sink acks 1 for a window whose 64 bodies all verified.
        out.finish_op(timed, ack[0] == 1, dur_us, || {
            format!("window {op}: the receiver saw wrong bytes")
        });
        if last {
            break;
        }
        op += 1;
    }
    out.close_phase(mpi);
    Ok(())
}

fn stream_sink(
    mpi: &Mpi,
    world: &Communicator,
    spec: &RepSpec,
    out: &mut RankOut,
) -> MpiResult<()> {
    let mut want = stream_bodies(spec.seed);
    let mut bufs = vec![vec![0u8; STREAM_MSG_BYTES]; STREAM_MSGS];
    // Receives are posted in this order, sends arrive in tag order.
    let mut order: Vec<usize> = (0..STREAM_MSGS).collect();
    Rng::new(spec.seed ^ 0x7A65).shuffle(&mut order);

    fn post<'a>(
        world: &Communicator,
        rec: &mut Recorder,
        bufs: &'a mut [Vec<u8>],
        order: &[usize],
        op: u64,
    ) -> MpiResult<Vec<Request<'a>>> {
        let mut slots: Vec<Option<&'a mut Vec<u8>>> = bufs.iter_mut().map(Some).collect();
        order
            .iter()
            .map(|&tag| {
                let buf = slots[tag].take().expect("each tag is posted once");
                rec.call("irecv", op, || world.irecv(buf, 0, tag as Tag))
            })
            .collect()
    }

    let mut op = 0u64;
    let mut reqs = post(world, &mut out.rec, &mut bufs, &order, op)?;
    world.send(&[1u8], 0, TAG_ACK)?;
    loop {
        if op == spec.warmup_ops {
            out.snap_before(spec, mpi);
        }
        out.rec.begin_op("sink_window", op);
        out.rec.call("wait_all", op, || wait_all(reqs))?;
        let last = bufs[0][0] == 1;
        for m in &mut want {
            stamp_msg(m, op, last);
        }
        let ok = bufs == want;
        if !ok {
            // The client counts the window as failed when it reads the ack.
            out.note(format!(
                "window {op}: received bytes differ from the seeded bodies"
            ));
        }
        // Post the next window before acking, so it is always pre-posted.
        reqs = if last {
            Vec::new()
        } else {
            post(world, &mut out.rec, &mut bufs, &order, op + 1)?
        };
        out.rec
            .call("send", op, || world.send(&[ok as u8], 0, TAG_ACK))?;
        out.rec.end_op();
        if last {
            break;
        }
        op += 1;
    }
    out.snap_after(mpi);
    Ok(())
}

// ----------------------------------------------------------------- overlap

/// The compute block: a dependent floating-point chain the optimiser cannot
/// shorten, `iters` long.
pub fn compute(iters: u64) -> f64 {
    let mut x = std::hint::black_box(1.000_000_1f64);
    for _ in 0..iters {
        x = x * 1.000_000_01 + 1e-9;
    }
    std::hint::black_box(x)
}

/// Length of `shm_overlap`'s compute block: about the comm-only time of an
/// 8 MiB `isend` + `wait` on the reference box (1.7 ms). Fixed rather than
/// calibrated per process, so that every run and every commit does the same
/// work: a calibrated block moved the op time by +-7 % with the calibration.
pub const OVERLAP_COMPUTE_ITERS: u64 = 900_000;

/// For `core.mpi.overlap_ratio`: the median `isend` + `wait` with no
/// compute block, and the median compute block alone, µs.
pub fn overlap_parts(seed: u64) -> Result<(f64, f64), String> {
    let spec = RepSpec {
        seed,
        budget: Duration::ZERO,
        warmup_ops: Workload::ShmOverlap.warmup_ops(),
        min_ops: 40,
        steps: 0,
        traced: false,
        compute_iters: 0,
        corrupt_op: None,
        mute_op: None,
    };
    let res = run_rep(Workload::ShmOverlap, spec);
    if res.failed > 0 || res.op_us.count() == 0 {
        return Err(format!("comm-only overlap run failed: {:?}", res.errors));
    }
    let blocks: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            compute(OVERLAP_COMPUTE_ITERS);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Ok((
        crate::util::median(res.op_us.values()),
        crate::util::median(&blocks),
    ))
}

fn overlap(mpi: &Mpi, spec: &RepSpec, epoch: Instant) -> RankOut {
    on_rank(mpi, spec, epoch, |world, out| {
        if world.rank() == 0 {
            overlap_client(mpi, world, spec, out)
        } else {
            overlap_sink(mpi, world, spec, out)
        }
    })
}

fn overlap_client(
    mpi: &Mpi,
    world: &Communicator,
    spec: &RepSpec,
    out: &mut RankOut,
) -> MpiResult<()> {
    let mut rng = Rng::new(spec.seed);
    let mut big = vec![0u8; OVERLAP_BYTES];
    rng.fill(&mut big);
    let mut op = 0u64;
    loop {
        let (timed, last) = out.next_op(op, spec, mpi);
        stamp(&mut big, rng.next_u64(), last);
        let t = Instant::now();
        out.rec.begin_op("overlapped_send", op);
        let req = out
            .rec
            .call("isend", op, || world.isend(&big, 1, TAG_PING))?;
        out.rec.call("compute", op, || compute(spec.compute_iters));
        out.rec.call("wait", op, || req.wait())?;
        out.rec.end_op();
        let dur_us = t.elapsed().as_secs_f64() * 1e6;
        // The sink verifies the bytes and reports its own failures.
        out.finish_op(timed, true, dur_us, String::new);
        if last {
            break;
        }
        op += 1;
    }
    out.close_phase(mpi);
    Ok(())
}

fn overlap_sink(
    mpi: &Mpi,
    world: &Communicator,
    spec: &RepSpec,
    out: &mut RankOut,
) -> MpiResult<()> {
    // The same generator as the client, so every op's bytes are known here.
    let mut rng = Rng::new(spec.seed);
    let mut want = vec![0u8; OVERLAP_BYTES];
    rng.fill(&mut want);
    let mut buf = vec![0u8; OVERLAP_BYTES];
    let mut op = 0u64;
    loop {
        if op == spec.warmup_ops {
            out.snap_before(spec, mpi);
        }
        out.rec.begin_op("sink", op);
        out.rec
            .call("recv", op, || world.recv(&mut buf, 0, TAG_PING))?;
        out.rec.end_op();
        let last = buf[0] == 1;
        let pos = stamp(&mut want, rng.next_u64(), last);
        if !verify(&want, &buf, pos, op) {
            out.fail(format!(
                "op {op}: received bytes differ from the seeded payload"
            ));
        }
        if last {
            break;
        }
        op += 1;
    }
    out.snap_after(mpi);
    if want != buf {
        out.fail("final full compare: received buffer differs from the seeded payload".into());
    }
    Ok(())
}

// --------------------------------------------------------- cluster_virtual

/// Bytes the MD step broadcasts: 4 KiB less a seed-chosen 0..248 B, so that
/// the seed reaches the virtual-time results too (by at most 0.3 %) and
/// they are an input-dependent measurement like every other.
fn md_blob_len(seed: u64) -> usize {
    MD_BLOB - 8 * (Rng::new(seed ^ 0xB10B).next_u64() % 32) as usize
}

/// Inputs of the molecular-dynamics step, the same on all ranks.
struct MdInput {
    particles: Vec<Particle>,
    /// Sum over particles of |fx| + |fy| from the serial reference.
    checksum: f64,
    blob: Vec<u8>,
}

impl MdInput {
    fn new(seed: u64) -> MdInput {
        let particles = particles::generate_particles(MD_PARTICLES, seed);
        let checksum = force_checksum(&particles::forces_serial(&particles));
        let mut blob = vec![0u8; md_blob_len(seed)];
        Rng::new(seed ^ 0xB10C).fill(&mut blob);
        MdInput {
            particles,
            checksum,
            blob,
        }
    }
}

fn force_checksum(forces: &[(f64, f64)]) -> f64 {
    forces.iter().map(|(fx, fy)| fx.abs() + fy.abs()).sum()
}

fn md(mpi: &Mpi, spec: &RepSpec, input: &MdInput, epoch: Instant) -> RankOut {
    on_rank(mpi, spec, epoch, |world, out| {
        md_steps(mpi, world, spec, input, out)
    })
}

fn md_steps(
    mpi: &Mpi,
    world: &Communicator,
    spec: &RepSpec,
    input: &MdInput,
    out: &mut RankOut,
) -> MpiResult<()> {
    let me = world.rank();
    let warmup = spec.warmup_ops;
    let mut want = input.blob.clone();
    let mut blob = vec![0u8; want.len()];
    for step in 0..warmup + spec.steps {
        let timed = step >= warmup;
        if step == warmup {
            out.snap_before(spec, mpi);
            out.clock = Some(PhaseClock::start());
        }
        want[..8].copy_from_slice(&step.to_le_bytes());
        if me == 0 {
            blob.copy_from_slice(&want);
        }
        let t0 = mpi.wtime();
        out.rec.begin_op("md_step", step);
        let forces = out.rec.call("forces_ring", step, || {
            particles::forces_ring(world, &input.particles)
        })?;
        let local = force_checksum(&forces);
        let total = out.rec.call("allreduce", step, || {
            world.allreduce(&[local], ReduceOp::Sum)
        })?[0];
        out.rec.call("bcast", step, || world.bcast(&mut blob, 0))?;
        out.rec.end_op();
        let dur_us = (mpi.wtime() - t0) * 1e6;
        let forces_ok = (total - input.checksum).abs() <= 1e-9 * input.checksum.abs();
        let ok = forces_ok && blob == want;
        if me == 0 {
            out.finish_op(timed, ok, dur_us, || {
                format!(
                    "step {step}: force checksum {total} vs serial {}",
                    input.checksum
                )
            });
        } else if !ok {
            out.fail(format!(
                "step {step}: rank {me} saw a wrong checksum or broadcast"
            ));
        }
    }
    out.close_phase(mpi);
    Ok(())
}
