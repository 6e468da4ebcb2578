//! Deterministic fault injection over any [`Device`].
//!
//! [`FaultyDevice`] wraps a working transport and misbehaves on the *send*
//! side according to seeded per-packet-class probabilities: frames may be
//! dropped, duplicated, reordered (held back one frame per destination), or
//! delayed by a fixed interval. All randomness comes from one
//! [`SplitMix64`] stream per device, so a given `(seed, program)` pair
//! replays the exact same fault pattern on every run — failures found by a
//! sweep are reproducible by seed.
//!
//! This models the paper's §5 reality: MPI over raw UDP on the ATM cluster
//! loses and reorders datagrams, and the "reliable UDP" variant
//! ([`crate::reliable::ReliableDevice`]) must win delivery back through
//! acks and retransmission. Stack them as
//! `ReliableDevice::new(FaultyDevice::new(shm, cfg))`.
//!
//! Self-sends (`dst == rank()`) bypass injection entirely: they never cross
//! the lossy medium being modelled, and dropping them would break ranks in
//! unrecoverable ways no real network can cause.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lmpi_core::{Cost, Device, DeviceDefaults, MpiResult, Packet, Rank, TransportStats, Wire};
use lmpi_obs::{EventKind, FaultKind, Tracer};
use lmpi_sim::lock::Mutex;
use lmpi_sim::SplitMix64;

/// Traffic classes faults are configured per. Real networks hurt bulk DMA
/// transfers and tiny control frames differently; so do we.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PacketClass {
    /// Small protocol control frames: rendezvous handshakes, acks, credits.
    Control,
    /// Eager frames (envelope + payload together) and hardware broadcasts.
    Eager,
    /// Bulk rendezvous data.
    Bulk,
}

/// Classify a protocol packet for fault-rate lookup.
pub fn classify(pkt: &Packet) -> PacketClass {
    match pkt {
        Packet::Eager { .. } | Packet::HwBcast { .. } => PacketClass::Eager,
        Packet::RndvData { .. } | Packet::RndvChunk { .. } => PacketClass::Bulk,
        Packet::RndvReq { .. }
        | Packet::RndvGo { .. }
        | Packet::RndvChunkAck { .. }
        | Packet::EagerAck { .. }
        | Packet::Credit
        | Packet::Heartbeat
        | Packet::Revoke { .. } => PacketClass::Control,
    }
}

/// Per-class fault probabilities. Each outgoing frame rolls the dice in the
/// fixed order drop → duplicate → reorder → delay (at most one fault per
/// frame), so rates are directly comparable across runs.
#[derive(Copy, Clone, Debug)]
pub struct FaultRates {
    /// Probability the frame is silently discarded.
    pub drop: f64,
    /// Probability the frame is transmitted twice back-to-back.
    pub dup: f64,
    /// Probability the frame is held back and swaps places with the *next*
    /// frame to the same destination (pairwise reordering, the common case
    /// on multipath networks).
    pub reorder: f64,
    /// Probability the frame is delayed by [`FaultRates::delay_us`] before
    /// transmission.
    pub delay: f64,
    /// Delay applied when the delay fault fires, in microseconds.
    pub delay_us: u64,
}

impl FaultRates {
    /// No faults at all.
    pub const NONE: FaultRates = FaultRates {
        drop: 0.0,
        dup: 0.0,
        reorder: 0.0,
        delay: 0.0,
        delay_us: 0,
    };

    /// Drop-only at probability `p`.
    pub fn drop_only(p: f64) -> FaultRates {
        FaultRates {
            drop: p,
            ..FaultRates::NONE
        }
    }
}

/// Full fault configuration: one RNG seed plus rates per packet class.
#[derive(Copy, Clone, Debug)]
pub struct FaultConfig {
    /// Seed for this device's fault stream. Give each rank a different
    /// seed (e.g. `base + rank`) or every rank misbehaves identically.
    pub seed: u64,
    /// Rates applied to [`PacketClass::Control`] frames.
    pub control: FaultRates,
    /// Rates applied to [`PacketClass::Eager`] frames.
    pub eager: FaultRates,
    /// Rates applied to [`PacketClass::Bulk`] frames.
    pub bulk: FaultRates,
    /// When set, the drop rate is interpreted per this many payload bytes
    /// instead of per frame: a frame spanning `q` quanta is lost with
    /// `1 − (1 − drop)^q`. This models loss on a fragmenting medium
    /// (datagrams on an MTU-limited link, cells on ATM), where a large
    /// frame rides many wire units and any single lost unit destroys the
    /// whole frame — the regime where single-frame rendezvous collapses
    /// and chunking pays. `None` (the default) keeps per-frame semantics.
    pub drop_quantum: Option<usize>,
}

impl FaultConfig {
    /// A fault-free configuration (useful as a sweep baseline).
    pub fn lossless(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            control: FaultRates::NONE,
            eager: FaultRates::NONE,
            bulk: FaultRates::NONE,
            drop_quantum: None,
        }
    }

    /// The same rates for every packet class.
    pub fn uniform(seed: u64, rates: FaultRates) -> FaultConfig {
        FaultConfig {
            seed,
            control: rates,
            eager: rates,
            bulk: rates,
            drop_quantum: None,
        }
    }

    /// Interpret the drop rate per `bytes` of payload (see
    /// [`FaultConfig::drop_quantum`]).
    pub fn with_drop_quantum(mut self, bytes: usize) -> FaultConfig {
        self.drop_quantum = Some(bytes);
        self
    }

    fn rates(&self, class: PacketClass) -> &FaultRates {
        match class {
            PacketClass::Control => &self.control,
            PacketClass::Eager => &self.eager,
            PacketClass::Bulk => &self.bulk,
        }
    }

    /// Effective drop probability for one frame: the class rate, compounded
    /// over the frame's payload quanta when [`Self::drop_quantum`] is set.
    fn drop_prob(&self, rates: &FaultRates, wire: &Wire) -> f64 {
        match self.drop_quantum {
            Some(q) if q > 0 => {
                let quanta = wire.pkt.payload_len().div_ceil(q).max(1);
                1.0 - (1.0 - rates.drop).powi(quanta.min(i32::MAX as usize) as i32)
            }
            _ => rates.drop,
        }
    }
}

/// Counters of injected faults, shared via [`FaultyDevice::stats_handle`]
/// so tests can assert on them after the device moved into an `Mpi`.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Frames offered to the wrapper for transmission.
    pub sent: AtomicU64,
    /// Frames silently discarded.
    pub dropped: AtomicU64,
    /// Frames transmitted twice.
    pub duplicated: AtomicU64,
    /// Frame pairs swapped.
    pub reordered: AtomicU64,
    /// Frames delayed.
    pub delayed: AtomicU64,
}

impl FaultStats {
    /// Snapshot of `(sent, dropped, duplicated, reordered, delayed)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.reordered.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
        )
    }
}

/// How long (seconds) a held-back "reorder" frame waits for a successor to
/// the same destination before being released anyway — without this, a
/// reorder roll on the last frame of a conversation would drop it outright.
const HOLDBACK_MAX_AGE_S: f64 = 0.002;

struct FaultState {
    rng: SplitMix64,
    /// One held-back frame per destination, with the time it was stashed.
    holdback: Vec<Option<(Wire, f64)>>,
    /// Frames waiting out an injected delay: `(due_time, dst, wire)`.
    delayq: VecDeque<(f64, Rank, Wire)>,
    /// Network frames offered so far, for the [`FaultyDevice::kill_after`]
    /// crash switch (self-sends don't count — they never cross the wire).
    offered: u64,
}

/// A [`Device`] wrapper that injects deterministic, seeded faults on the
/// send path. Receive paths are passed through untouched (faulting one
/// direction is enough — each rank wraps its own sender).
pub struct FaultyDevice<D: Device> {
    inner: D,
    cfg: FaultConfig,
    /// Crash switch: after this many network frames leave, the rank goes
    /// permanently silent in both directions. `None` = never.
    kill_after: Option<u64>,
    state: Mutex<FaultState>,
    stats: Arc<FaultStats>,
    tracer: Tracer,
}

impl<D: Device> FaultyDevice<D> {
    /// Wrap `inner` with the given fault configuration.
    pub fn new(inner: D, cfg: FaultConfig) -> Self {
        let nprocs = inner.nprocs();
        FaultyDevice {
            inner,
            cfg,
            kill_after: None,
            state: Mutex::new(FaultState {
                rng: SplitMix64::new(cfg.seed),
                holdback: (0..nprocs).map(|_| None).collect(),
                delayq: VecDeque::new(),
                offered: 0,
            }),
            stats: Arc::new(FaultStats::default()),
            tracer: Tracer::disabled(),
        }
    }

    /// Model a rank crash: the first `frames` network frames transmit
    /// normally, then the device goes permanently silent — every later
    /// outgoing frame vanishes (counted as dropped) and every incoming
    /// frame is discarded unread. Self-sends keep working: the "crashed"
    /// rank's own thread still runs, it is merely unreachable, which is
    /// what lets the chaos harness watch survivors *and* victim converge
    /// on the failure through their liveness machines.
    pub fn kill_after(mut self, frames: u64) -> Self {
        self.kill_after = Some(frames);
        self
    }

    /// Whether the crash switch has flipped.
    fn killed(&self, st: &FaultState) -> bool {
        self.kill_after.is_some_and(|n| st.offered >= n)
    }

    fn trace_fault(&self, dst: Rank, wire: &Wire, fault: FaultKind) {
        self.tracer.emit_msg_with(
            wire.msg_id(dst),
            || self.inner.now_ns(),
            EventKind::FaultInjected {
                peer: dst as u32,
                fault,
            },
        );
    }

    /// Clone a handle to the fault counters. Keep it before the device
    /// moves into `Mpi::new` and assert on it after the run.
    pub fn stats_handle(&self) -> Arc<FaultStats> {
        self.stats.clone()
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Release every queued frame whose time has come: delayed frames past
    /// their due time and held-back frames older than the holdback cap.
    /// Called from every device entry point so queues drain even when the
    /// application goes quiet.
    fn flush_due(&self, st: &mut FaultState) {
        let now = self.inner.wtime();
        while let Some((due, _, _)) = st.delayq.front() {
            if *due > now {
                break;
            }
            let (_, dst, wire) = st.delayq.pop_front().expect("checked front");
            self.inner.send(dst, wire);
        }
        for dst in 0..st.holdback.len() {
            let expired = matches!(&st.holdback[dst],
                                   Some((_, held_at)) if now - held_at > HOLDBACK_MAX_AGE_S);
            if expired {
                if let Some((wire, _)) = st.holdback[dst].take() {
                    self.inner.send(dst, wire);
                }
            }
        }
    }
}

impl<D: Device> Device for FaultyDevice<D> {
    forward_to_inner!();

    fn send(&self, dst: Rank, wire: Wire) {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        if dst == self.inner.rank() {
            // Self-delivery never crosses the modelled network.
            self.inner.send(dst, wire);
            return;
        }
        let mut st = self.state.lock();
        if self.killed(&st) {
            // Crashed: the frame silently vanishes, like the NIC it would
            // have left through.
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        st.offered += 1;
        self.flush_due(&mut st);

        // A frame to `dst` releases any frame held back for `dst` — but
        // *after* this one, completing the swap.
        let held = st.holdback[dst].take().map(|(w, _)| w);

        let rates = *self.cfg.rates(classify(&wire.pkt));
        // Fixed roll order keeps the stream aligned across runs.
        let roll_drop = st.rng.chance(self.cfg.drop_prob(&rates, &wire));
        let roll_dup = st.rng.chance(rates.dup);
        let roll_reorder = st.rng.chance(rates.reorder);
        let roll_delay = st.rng.chance(rates.delay);

        if roll_drop {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            self.trace_fault(dst, &wire, FaultKind::Drop);
        } else if roll_dup {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            self.trace_fault(dst, &wire, FaultKind::Duplicate);
            self.inner.send(dst, wire.clone());
            self.inner.send(dst, wire);
        } else if roll_reorder && held.is_none() {
            // Hold this frame back; the next frame to `dst` goes first.
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            self.trace_fault(dst, &wire, FaultKind::Reorder);
            st.holdback[dst] = Some((wire, self.inner.wtime()));
        } else if roll_delay {
            self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            self.trace_fault(dst, &wire, FaultKind::Delay);
            let due = self.inner.wtime() + rates.delay_us as f64 * 1e-6;
            st.delayq.push_back((due, dst, wire));
        } else {
            self.inner.send(dst, wire);
        }

        if let Some(w) = held {
            self.inner.send(dst, w);
        }
    }

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        {
            let mut st = self.state.lock();
            if self.killed(&st) {
                // Crashed: discard everything the network still delivers
                // (self-sends excepted — they never left the rank).
                drop(st);
                let me = self.inner.rank();
                loop {
                    match self.inner.try_recv()? {
                        Some(w) if w.src == me => return Ok(Some(w)),
                        Some(_) => continue,
                        None => return Ok(None),
                    }
                }
            }
            self.flush_due(&mut st);
        }
        self.inner.try_recv()
    }

    // `recv_blocking` and `recv_timeout` stay the trait's polling defaults:
    // the inner blocking receive would stop the delayed frames we still owe
    // the network from flushing while we wait.

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        self.inner.set_tracer(tracer);
    }

    fn transport_stats(&self) -> TransportStats {
        let (_, dropped, duplicated, reordered, delayed) = self.stats.snapshot();
        TransportStats {
            faults_dropped: dropped,
            faults_duplicated: duplicated,
            faults_reordered: reordered,
            faults_delayed: delayed,
            ..TransportStats::default()
        }
        .merged(self.inner.transport_stats())
    }

    fn detects_failures(&self) -> bool {
        self.inner.detects_failures()
    }

    fn take_failed_peer(&self) -> Option<(Rank, lmpi_core::MpiError)> {
        self.inner.take_failed_peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::ShmDevice;
    use lmpi_core::Packet;

    fn ctl(src: Rank) -> Wire {
        Wire::bare(src, Packet::Credit)
    }

    fn eager(src: Rank, tag: u32) -> Wire {
        Wire::bare(
            src,
            Packet::Eager {
                env: lmpi_core::Envelope {
                    src,
                    tag,
                    context: 0,
                    len: 1,
                },
                send_id: tag as u64,
                needs_ack: false,
                ready: false,
                data: lmpi_core::Bytes::from_static(b"x"),
            },
        )
    }

    fn recv_all(dev: &ShmDevice) -> Vec<Wire> {
        let mut out = Vec::new();
        while let Ok(Some(w)) = dev.try_recv() {
            out.push(w);
        }
        out
    }

    #[test]
    fn classify_covers_all_packets() {
        assert_eq!(classify(&Packet::Credit), PacketClass::Control);
        assert_eq!(
            classify(&Packet::RndvGo {
                send_id: 0,
                recv_id: 0
            }),
            PacketClass::Control
        );
        assert_eq!(
            classify(&Packet::RndvData {
                recv_id: 0,
                data: lmpi_core::Bytes::from_static(b"")
            }),
            PacketClass::Bulk
        );
        assert_eq!(
            classify(&Packet::RndvChunk {
                recv_id: 0,
                offset: 0,
                total: 0,
                data: lmpi_core::Bytes::from_static(b"")
            }),
            PacketClass::Bulk
        );
        assert_eq!(
            classify(&Packet::RndvChunkAck { send_id: 0 }),
            PacketClass::Control
        );
        assert_eq!(classify(&Packet::Heartbeat), PacketClass::Control);
        assert_eq!(
            classify(&Packet::Revoke { context: 2 }),
            PacketClass::Control
        );
        assert_eq!(classify(&eager(0, 1).pkt), PacketClass::Eager);
    }

    #[test]
    fn kill_after_silences_the_rank_in_both_directions() {
        let mut fabric = ShmDevice::fabric(2).into_iter();
        let d0 = FaultyDevice::new(fabric.next().unwrap(), FaultConfig::lossless(1)).kill_after(2);
        let d1 = fabric.next().unwrap();
        // The first two frames make it out; the third vanishes.
        for i in 0..3 {
            d0.send(1, eager(0, i));
        }
        assert_eq!(recv_all(&d1).len(), 2);
        let (_, dropped, ..) = d0.stats_handle().snapshot();
        assert_eq!(dropped, 1, "post-kill frame counted as dropped");
        // Incoming frames are discarded unread after the kill.
        d1.send(0, eager(1, 9));
        assert!(d0.try_recv().unwrap().is_none(), "inbound discarded");
        // Self-delivery still works: the crashed rank's thread lives on.
        d0.send(0, ctl(0));
        assert!(d0.try_recv().unwrap().is_some(), "self-send survives");
    }

    #[test]
    fn drop_quantum_scales_loss_with_frame_size() {
        let mut fabric = ShmDevice::fabric(2).into_iter();
        let cfg = FaultConfig::uniform(9, FaultRates::drop_only(0.01)).with_drop_quantum(1000);
        let d0 = FaultyDevice::new(fabric.next().unwrap(), cfg);
        let d1 = fabric.next().unwrap();
        // 200 quanta per bulk frame: survives with 0.99^200 ≈ 13%.
        let big = lmpi_core::Bytes::from(vec![0u8; 200_000]);
        for _ in 0..40 {
            d0.send(
                1,
                Wire::bare(
                    0,
                    Packet::RndvData {
                        recv_id: 0,
                        data: big.clone(),
                    },
                ),
            );
        }
        // Single-quantum control frames keep the per-frame rate (~1%).
        for _ in 0..40 {
            d0.send(1, ctl(0));
        }
        let got = recv_all(&d1);
        let bulk = got
            .iter()
            .filter(|w| matches!(w.pkt, Packet::RndvData { .. }))
            .count();
        let control = got
            .iter()
            .filter(|w| matches!(w.pkt, Packet::Credit))
            .count();
        assert!(
            bulk < 20,
            "multi-quantum frames must compound the drop rate (got {bulk}/40 through)"
        );
        assert!(
            control > 30,
            "single-quantum frames keep the per-frame rate (got {control}/40 through)"
        );
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let pattern = |seed: u64| -> Vec<u32> {
            let mut fabric = ShmDevice::fabric(2).into_iter();
            let d0 = FaultyDevice::new(
                fabric.next().unwrap(),
                FaultConfig::uniform(seed, FaultRates::drop_only(0.5)),
            );
            let d1 = fabric.next().unwrap();
            for i in 0..64 {
                d0.send(1, eager(0, i));
            }
            recv_all(&d1)
                .into_iter()
                .map(|w| match w.pkt {
                    Packet::Eager { env, .. } => env.tag,
                    _ => unreachable!(),
                })
                .collect()
        };
        let a = pattern(7);
        let b = pattern(7);
        let c = pattern(8);
        assert_eq!(a, b, "same seed must replay the same drops");
        assert!(!a.is_empty() && a.len() < 64, "0.5 drop rate: some survive");
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn class_rates_are_independent() {
        // Drop every eager frame, no control faults: credits all arrive.
        let mut fabric = ShmDevice::fabric(2).into_iter();
        let cfg = FaultConfig {
            seed: 3,
            control: FaultRates::NONE,
            eager: FaultRates::drop_only(1.0),
            bulk: FaultRates::NONE,
            drop_quantum: None,
        };
        let d0 = FaultyDevice::new(fabric.next().unwrap(), cfg);
        let d1 = fabric.next().unwrap();
        for i in 0..8 {
            d0.send(1, eager(0, i));
            d0.send(1, ctl(0));
        }
        let got = recv_all(&d1);
        assert_eq!(got.len(), 8);
        assert!(got.iter().all(|w| matches!(w.pkt, Packet::Credit)));
        let (sent, dropped, ..) = d0.stats_handle().snapshot();
        assert_eq!(sent, 16);
        assert_eq!(dropped, 8);
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        let mut fabric = ShmDevice::fabric(2).into_iter();
        let cfg = FaultConfig {
            seed: 1,
            control: FaultRates::NONE,
            eager: FaultRates {
                reorder: 1.0,
                ..FaultRates::NONE
            },
            bulk: FaultRates::NONE,
            drop_quantum: None,
        };
        let d0 = FaultyDevice::new(fabric.next().unwrap(), cfg);
        let d1 = fabric.next().unwrap();
        d0.send(1, eager(0, 1));
        d0.send(1, eager(0, 2));
        let tags: Vec<u32> = recv_all(&d1)
            .into_iter()
            .map(|w| match w.pkt {
                Packet::Eager { env, .. } => env.tag,
                _ => unreachable!(),
            })
            .collect();
        // Frame 1 was held back; frame 2 (also rolled reorder, but the slot
        // was occupied so it releases the pair) goes first.
        assert_eq!(tags, vec![2, 1]);
    }

    #[test]
    fn delayed_frames_are_released_after_due_time() {
        let mut fabric = ShmDevice::fabric(2).into_iter();
        let cfg = FaultConfig {
            seed: 5,
            control: FaultRates::NONE,
            eager: FaultRates {
                delay: 1.0,
                delay_us: 2_000,
                ..FaultRates::NONE
            },
            bulk: FaultRates::NONE,
            drop_quantum: None,
        };
        let d0 = FaultyDevice::new(fabric.next().unwrap(), cfg);
        let d1 = fabric.next().unwrap();
        d0.send(1, eager(0, 9));
        assert!(recv_all(&d1).is_empty(), "frame still delayed");
        std::thread::sleep(std::time::Duration::from_millis(5));
        // Any device call flushes the due queue.
        let _ = d0.try_recv().unwrap();
        assert_eq!(recv_all(&d1).len(), 1);
        let (_, _, _, _, delayed) = d0.stats_handle().snapshot();
        assert_eq!(delayed, 1);
    }

    #[test]
    fn self_sends_bypass_injection() {
        let mut fabric = ShmDevice::fabric(1).into_iter();
        let d0 = FaultyDevice::new(
            fabric.next().unwrap(),
            FaultConfig::uniform(11, FaultRates::drop_only(1.0)),
        );
        d0.send(0, ctl(0));
        assert!(d0.try_recv().unwrap().is_some(), "self-send must survive");
    }
}
