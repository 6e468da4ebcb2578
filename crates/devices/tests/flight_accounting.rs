//! Property test for the flight recorder's conservation law: under any
//! seeded fault schedule, every message-carrying `WireTx` the stack emits
//! is *accounted for* by the cross-rank correlator — its message was
//! delivered, or its loss is explained by an injected fault, or go-back-N
//! recovery was still working on it. No orphans, no causal-invariant
//! violations, and every delivered message reconstructs a complete
//! post → match → wire → deliver timeline.

use lmpi_core::{MpiConfig, Tracer};
use lmpi_devices::faulty::{FaultConfig, FaultRates, FaultyDevice};
use lmpi_devices::reliable::{RelConfig, ReliableDevice};
use lmpi_devices::shm::{run_devices, ShmDevice};
use lmpi_obs::{correlate, TraceBuffer};
use lmpi_sim::{for_each_case, SplitMix64};

/// Eager messages each way; plus one rendezvous-sized message forward.
const ROUNDS: u32 = 10;

fn gen_rates(rng: &mut SplitMix64) -> FaultRates {
    FaultRates {
        drop: rng.next_f64() * 0.12,
        dup: rng.next_f64() * 0.08,
        reorder: rng.next_f64() * 0.08,
        delay: rng.next_f64() * 0.08,
        delay_us: rng.range(0..150) as u64,
    }
}

/// Run the workload over Reliable(Faulty(Shm)) with per-rank tracers and
/// return the trace buffers.
fn traced_run(seed: u64, rates: FaultRates) -> Vec<TraceBuffer> {
    let tracers: Vec<Tracer> = (0..2u32).map(|r| Tracer::enabled(r, 1 << 16)).collect();
    let devices: Vec<ReliableDevice<FaultyDevice<ShmDevice>>> = ShmDevice::fabric(2)
        .into_iter()
        .enumerate()
        .map(|(rank, dev)| {
            let faulty = FaultyDevice::new(dev, FaultConfig::uniform(seed ^ rank as u64, rates));
            let mut rel = ReliableDevice::new(faulty, RelConfig::default());
            lmpi_core::Device::set_tracer(&mut rel, tracers[rank].clone());
            rel
        })
        .collect();
    let t = tracers.clone();
    run_devices(devices, MpiConfig::device_defaults(), move |mpi| {
        let world = mpi.world();
        mpi.set_tracer(t[world.rank()].clone());
        if world.rank() == 0 {
            for i in 0..ROUNDS {
                world.send(&[i, i + 1], 1, 1).unwrap();
                let mut back = [0u32];
                world.recv(&mut back, 1, 2).unwrap();
                assert_eq!(back[0], i + 1);
            }
            // Rendezvous-sized: the RTS/CTS/data legs must account too.
            let big: Vec<u32> = (0..30_000).collect();
            world.send(&big, 1, 3).unwrap();
        } else {
            for _ in 0..ROUNDS {
                let mut buf = [0u32; 2];
                world.recv(&mut buf, 0, 1).unwrap();
                world.send(&[buf[1]], 0, 2).unwrap();
            }
            let mut big = vec![0u32; 30_000];
            world.recv(&mut big, 0, 3).unwrap();
            assert!(big.iter().enumerate().all(|(i, &v)| v == i as u32));
        }
    });
    tracers.iter().map(|t| t.snapshot()).collect()
}

// Each case spins up a 2-rank thread fabric; keep the count modest.
#[test]
fn every_wire_tx_is_accounted_for() {
    for_each_case(12, |rng| {
        let seed = rng.next_u64();
        let rates = gen_rates(rng);
        let bufs = traced_run(seed, rates);
        let record = correlate(&bufs);

        assert!(!record.truncated, "trace ring overflowed");
        assert!(
            record.violations.is_empty(),
            "causal invariants violated: {:?}",
            record.violations
        );

        // Every message the workload exchanged was received, so every
        // delivered timeline must be complete and nothing may dangle.
        let (complete, delivered) = record.complete_delivered();
        // Forward eagers + echoes + the rendezvous message.
        assert_eq!(delivered, ROUNDS as usize * 2 + 1);
        assert_eq!(complete, delivered, "incomplete delivered timelines");

        let acct = record.account_wire_tx();
        assert!(
            acct.orphans.is_empty(),
            "unaccounted WireTx for messages {:?} (seed {seed:#x}, rates {rates:?})",
            acct.orphans
        );
        assert!(acct.delivered > 0);
    });
}
