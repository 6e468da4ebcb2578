//! Meiko CS/2 device layers: the paper's §4.
//!
//! Two variants share the simulated Elan fabric:
//!
//! * [`MeikoVariant::LowLatency`] — the paper's implementation. Envelopes
//!   and small payloads travel as Elan transactions; matching runs inline
//!   on the 40 MHz SPARC (fast, but only when the application is inside an
//!   MPI call); bulk data moves by DMA after the match; broadcast uses the
//!   CS/2 hardware broadcast. One envelope slot per sender, 180-byte eager
//!   threshold.
//! * [`MeikoVariant::Mpich`] — the ANL/MSU MPICH baseline over Meiko's
//!   tport widget. Matching runs on the 10 MHz Elan co-processor in the
//!   background (slower per match, plus SPARC↔Elan completion
//!   synchronization), transfers ride the tport's DMA path (so a posted
//!   receive gets its data deposited directly — no bounce copy), and
//!   broadcast is built from point-to-point messages.

use std::sync::Arc;

use lmpi_sim::lock::Mutex;

use lmpi_core::{Cost, Device, DeviceDefaults, Mpi, MpiConfig, MpiResult, Rank, Wire};
use lmpi_netmodel::meiko::MeikoNet;
use lmpi_netmodel::params::{CpuParams, MeikoParams};
use lmpi_obs::Tracer;
use lmpi_sim::{Proc, Sim, SimDur, SimQueue};

/// Which Meiko MPI implementation to model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MeikoVariant {
    /// The paper's low-latency implementation (SPARC matching, hybrid
    /// protocol, hardware broadcast).
    LowLatency,
    /// MPICH over the tport widget (Elan matching, point-to-point
    /// broadcast).
    Mpich,
}

/// Per-rank device over the simulated Elan fabric.
pub struct MeikoDevice {
    net: MeikoNet<Wire>,
    inbox: SimQueue<Wire>,
    proc: Proc,
    rank: Rank,
    variant: MeikoVariant,
    cpu: CpuParams,
    tracer: Tracer,
}

impl MeikoDevice {
    /// Build the device for `rank` on `net`, driven by the simulated
    /// process `proc`.
    pub fn new(net: MeikoNet<Wire>, proc: Proc, rank: Rank, variant: MeikoVariant) -> Self {
        MeikoDevice {
            inbox: net.inbox(rank),
            net,
            proc,
            rank,
            variant,
            cpu: CpuParams::meiko_sparc(),
            tracer: Tracer::disabled(),
        }
    }

    fn params(&self) -> &MeikoParams {
        self.net.params()
    }

    /// Control-message wire size: 1-byte type + 4-byte credit + 20-byte
    /// envelope, plus any piggybacked payload.
    fn ctl_bytes(wire: &Wire) -> usize {
        1 + 4 + lmpi_core::ENVELOPE_WIRE_BYTES + wire.pkt.payload_len()
    }
}

impl Device for MeikoDevice {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.net.nprocs()
    }

    fn send(&self, dst: Rank, wire: Wire) {
        crate::trace_wire_tx(&self.tracer, || self.now_ns(), dst, &wire);
        let p = *self.params();
        match &wire.pkt {
            lmpi_core::Packet::RndvData { data, .. }
            | lmpi_core::Packet::RndvChunk { data, .. } => {
                let nbytes = data.len();
                if self.variant == MeikoVariant::Mpich {
                    self.proc
                        .advance(SimDur::from_us_f64(p.mpich_send_ovh_us * 0.5));
                }
                self.net.dma(&self.proc, self.rank, dst, wire, nbytes);
            }
            lmpi_core::Packet::Credit
            | lmpi_core::Packet::RndvGo { .. }
            | lmpi_core::Packet::RndvChunkAck { .. } => {
                // Elan-level remote writes issued without a separate SPARC
                // send path: the envelope-slot release is autonomous (the
                // paper's single-slot design relies on it being free to the
                // application), and the rendezvous go-ahead is produced as
                // part of the matching operation whose SPARC cost is
                // already charged.
                let inbox = self.net.inbox(dst);
                let delay = SimDur::from_us_f64(p.txn_wire_us);
                self.net.sim().after(delay, move |_| inbox.push(wire));
            }
            lmpi_core::Packet::Eager { data, .. } if self.variant == MeikoVariant::Mpich => {
                // MPICH rides the tport widget: fixed tport latency plus
                // the tport's DMA-backed per-byte rate (with MPICH's own
                // per-byte overhead), after the MPICH send-side overhead on
                // the SPARC. This is why Fig. 2's MPICH curve is a constant
                // offset above the tport curve with no 180-byte bend.
                let nbytes = data.len();
                self.proc.advance(SimDur::from_us_f64(p.mpich_send_ovh_us));
                let delay = SimDur::from_us_f64(
                    p.tport_base_us + nbytes as f64 * (p.tport_per_byte_us + p.mpich_per_byte_us),
                );
                let inbox = self.net.inbox(dst);
                self.net.sim().after(delay, move |_| inbox.push(wire));
            }
            _ => {
                // Envelope-bearing transactions: the MPI send path on the
                // SPARC (issue cost inside `txn`), plus MPICH's extra
                // per-message overhead for the baseline variant.
                if self.variant == MeikoVariant::Mpich {
                    if let lmpi_core::Packet::RndvReq { .. } = &wire.pkt {
                        self.proc.advance(SimDur::from_us_f64(p.mpich_send_ovh_us));
                    }
                }
                let nbytes = Self::ctl_bytes(&wire);
                self.net.txn(&self.proc, dst, wire, nbytes);
            }
        }
    }

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        Ok(self.inbox.try_pop())
    }

    fn recv_blocking(&self) -> MpiResult<Wire> {
        Ok(self.inbox.pop(&self.proc))
    }

    fn charge(&self, cost: Cost) {
        let p = *self.params();
        let us = match (self.variant, cost) {
            (MeikoVariant::LowLatency, Cost::Match) => p.sparc_match_us,
            (MeikoVariant::Mpich, Cost::Match) => p.elan_match_us + p.mpich_recv_ovh_us,
            // The paper's design always copies out of the per-sender slot.
            (MeikoVariant::LowLatency, Cost::PostedCopy(n) | Cost::BufferedCopy(n)) => {
                n as f64 * p.copy_rate_us
            }
            // tport/MPICH: Elan background matching deposits posted
            // receives directly; only truly unexpected data is copied.
            (MeikoVariant::Mpich, Cost::PostedCopy(_)) => 0.0,
            (MeikoVariant::Mpich, Cost::BufferedCopy(n)) => n as f64 * p.copy_rate_us,
            (_, Cost::Flops(n)) => n as f64 * self.cpu.us_per_flop,
        };
        if us > 0.0 {
            self.proc.advance(SimDur::from_us_f64(us));
        }
    }

    fn has_hw_bcast(&self) -> bool {
        // The paper's implementation exposes the hardware broadcast; the
        // MPICH baseline builds broadcast from point-to-point (Fig. 7).
        self.variant == MeikoVariant::LowLatency
    }

    fn hw_bcast(&self, group: &[Rank], wire: Wire) -> MpiResult<()> {
        let nbytes = wire.pkt.payload_len();
        self.net.hw_bcast(&self.proc, group, wire, nbytes);
        Ok(())
    }

    fn wtime(&self) -> f64 {
        self.proc.now().as_secs_f64()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn substrate(&self) -> &'static str {
        "meiko"
    }

    fn defaults(&self) -> DeviceDefaults {
        match self.variant {
            MeikoVariant::LowLatency => DeviceDefaults {
                eager_threshold: 180, // Fig. 1 crossover
                env_slots: 1,         // one envelope slot per sender (§4.1)
                recv_buf_per_sender: 64 << 10,
                // The Elan moves a rendezvous message as one DMA (§4.2):
                // always a one-chunk stream, so simulated timings match
                // the paper.
                rndv_chunk: usize::MAX / 2,
                rndv_window: 1,
            },
            MeikoVariant::Mpich => DeviceDefaults {
                // The tport carries any size through one mechanism; no
                // protocol switch, hence no bend in Fig. 2's MPICH curve.
                eager_threshold: usize::MAX / 2,
                env_slots: 8,
                recv_buf_per_sender: 1 << 20,
                rndv_chunk: usize::MAX / 2,
                rndv_window: 1,
            },
        }
    }
}

/// Run an `nprocs`-rank MPI program on a simulated Meiko CS/2, returning
/// each rank's result in rank order. Deterministic: same inputs, same
/// virtual timings.
pub fn run_meiko<T, F>(nprocs: usize, variant: MeikoVariant, config: MpiConfig, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let sim = Sim::new();
    let net: MeikoNet<Wire> = MeikoNet::new(&sim, nprocs, MeikoParams::default());
    let results: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..nprocs).map(|_| None).collect()));
    let f = Arc::new(f);
    for rank in 0..nprocs {
        let net = net.clone();
        let f = f.clone();
        let results = results.clone();
        sim.spawn(format!("rank{rank}"), move |p| {
            let dev = MeikoDevice::new(net, p.clone(), rank, variant);
            let mpi = Mpi::new(Box::new(dev), config);
            let out = f(mpi);
            results.lock()[rank] = Some(out);
        });
    }
    sim.run();
    Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("results still shared"))
        .into_inner()
        .into_iter()
        .map(|o| o.expect("rank produced no result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-byte ping-pong round-trip time in microseconds.
    fn rtt_us(variant: MeikoVariant, nbytes: usize, reps: usize) -> f64 {
        let times = run_meiko(2, variant, MpiConfig::device_defaults(), move |mpi| {
            let world = mpi.world();
            let buf = vec![0u8; nbytes];
            let mut back = vec![0u8; nbytes];
            if world.rank() == 0 {
                // Warmup round, then measure.
                world.send(&buf, 1, 0).unwrap();
                world.recv(&mut back, 1, 0).unwrap();
                let t0 = mpi.wtime();
                for _ in 0..reps {
                    world.send(&buf, 1, 0).unwrap();
                    world.recv(&mut back, 1, 0).unwrap();
                }
                (mpi.wtime() - t0) / reps as f64 * 1e6
            } else {
                for _ in 0..reps + 1 {
                    world.recv(&mut back, 0, 0).unwrap();
                    world.send(&back, 0, 0).unwrap();
                }
                0.0
            }
        });
        times[0]
    }

    #[test]
    fn low_latency_1_byte_rtt_near_104_us() {
        let rtt = rtt_us(MeikoVariant::LowLatency, 1, 4);
        assert!(
            (rtt - 104.0).abs() < 12.0,
            "low-latency MPI 1-byte RTT {rtt:.1}us, paper: 104us"
        );
    }

    #[test]
    fn mpich_1_byte_rtt_near_210_us() {
        let rtt = rtt_us(MeikoVariant::Mpich, 1, 4);
        assert!(
            (rtt - 210.0).abs() < 20.0,
            "MPICH 1-byte RTT {rtt:.1}us, paper: 210us"
        );
    }

    #[test]
    fn mpich_roughly_twice_low_latency() {
        let ll = rtt_us(MeikoVariant::LowLatency, 1, 4);
        let mp = rtt_us(MeikoVariant::Mpich, 1, 4);
        let ratio = mp / ll;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "MPICH/low-latency ratio {ratio:.2}, paper: ~2.0"
        );
    }

    #[test]
    fn bandwidth_approaches_39_mb_per_s() {
        let n = 1 << 20;
        let rtt = rtt_us(MeikoVariant::LowLatency, n, 2);
        let mb_per_s = 2.0 * n as f64 / rtt; // bytes per us == MB/s
        assert!(
            mb_per_s > 30.0 && mb_per_s <= 39.5,
            "1 MiB bandwidth {mb_per_s:.1} MB/s, paper ceiling: 39 MB/s"
        );
    }

    #[test]
    fn hw_bcast_beats_binomial_tree() {
        let times = |variant| {
            run_meiko(8, variant, MpiConfig::device_defaults(), |mpi| {
                let world = mpi.world();
                let mut buf = [0u8; 64];
                let t0 = mpi.wtime();
                for _ in 0..4 {
                    world.bcast(&mut buf, 0).unwrap();
                    world.barrier().unwrap();
                }
                mpi.wtime() - t0
            })
        };
        let hw = times(MeikoVariant::LowLatency)[0];
        let sw = times(MeikoVariant::Mpich)[0];
        assert!(
            sw > hw,
            "hardware broadcast ({hw:.6}s) must beat point-to-point tree ({sw:.6}s)"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || rtt_us(MeikoVariant::LowLatency, 100, 3);
        assert_eq!(run(), run(), "simulation must be exactly reproducible");
    }
}
