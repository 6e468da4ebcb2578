//! Shared-memory device: MPI ranks as OS threads exchanging frames through
//! `std::sync::mpsc` channels.
//!
//! This is the *real* (non-simulated) substrate used for functional testing
//! and for the wall-clock benchmark workloads: every protocol code path —
//! eager, rendezvous, credits, collectives — runs exactly as on the
//! simulated platforms, just with real time instead of a virtual clock.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Instant;

use lmpi_core::{Device, DeviceDefaults, Mpi, MpiConfig, MpiError, MpiResult, Rank, Wire};
use lmpi_obs::Tracer;
use lmpi_sim::lock::Mutex;

/// Device connecting `nprocs` ranks within one process.
pub struct ShmDevice {
    rank: Rank,
    nprocs: usize,
    /// `Receiver` is not `Sync` and `Device` must be; the lock is
    /// uncontended under the engine's single-consumer rule.
    rx: Mutex<Receiver<Wire>>,
    txs: Vec<Sender<Wire>>,
    t0: Instant,
    defaults: DeviceDefaults,
    tracer: Tracer,
}

/// Shared-memory platform defaults: latency is sub-microsecond, so a large
/// eager threshold and a generous credit window behave best.
pub const SHM_DEFAULTS: DeviceDefaults = DeviceDefaults {
    eager_threshold: 8192,
    env_slots: 64,
    recv_buf_per_sender: 1 << 20,
    // Chunk and window serve only the sends that still stage their payload
    // above the threshold (typed, buffered-mode, `Loc` and `bool` slices,
    // anything under a wrapper device): a contiguous send lends its buffer
    // and moves no chunk. Chunks large enough that per-frame overhead stays
    // negligible on an in-process channel, windowed deep enough to keep the
    // pipe full.
    rndv_chunk: 256 << 10,
    rndv_window: 8,
};

impl ShmDevice {
    /// Build one connected device per rank.
    pub fn fabric(nprocs: usize) -> Vec<ShmDevice> {
        let t0 = Instant::now();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| ShmDevice {
                rank,
                nprocs,
                rx: Mutex::new(rx),
                txs: txs.clone(),
                t0,
                defaults: SHM_DEFAULTS,
                tracer: Tracer::disabled(),
            })
            .collect()
    }
}

impl Device for ShmDevice {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn send(&self, dst: Rank, wire: Wire) {
        crate::trace_wire_tx(&self.tracer, || self.now_ns(), dst, &wire);
        // A peer that already returned from its program has dropped its
        // receiver; late frames to it (typically trailing credit returns)
        // are harmless and dropped, as a real NIC would drop frames for a
        // halted node.
        let _ = self.txs[dst].send(wire);
    }

    fn try_recv(&self) -> MpiResult<Option<Wire>> {
        Ok(self.rx.lock().try_recv().ok())
    }

    fn recv_blocking(&self) -> MpiResult<Wire> {
        self.rx
            .lock()
            .recv()
            .map_err(|_| MpiError::transport("shm fabric torn down while receiving"))
    }

    fn recv_timeout(&self, timeout: std::time::Duration) -> MpiResult<Option<Wire>> {
        match self.rx.lock().recv_timeout(timeout) {
            Ok(w) => Ok(Some(w)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(MpiError::transport("shm fabric torn down while receiving"))
            }
        }
    }

    fn supports_background_progress(&self) -> bool {
        true
    }

    /// Rank threads share one address space and the channel moves each
    /// `Wire` by value.
    fn lends_memory(&self) -> bool {
        true
    }

    fn wtime(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn defaults(&self) -> DeviceDefaults {
        self.defaults
    }

    fn substrate(&self) -> &'static str {
        "shm"
    }
}

/// Run an `nprocs`-rank MPI program on threads, returning each rank's
/// result in rank order. Panics in any rank propagate.
pub fn run<T, F>(nprocs: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    run_with_config(nprocs, MpiConfig::device_defaults(), f)
}

/// [`run`] with explicit protocol configuration (e.g. a forced eager
/// threshold for the crossover ablation).
pub fn run_with_config<T, F>(nprocs: usize, config: MpiConfig, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    assert!(nprocs > 0, "need at least one rank");
    run_devices(ShmDevice::fabric(nprocs), config, f)
}

/// Run an MPI program over an arbitrary pre-built set of connected devices,
/// one thread per rank. This is how fault-injection harnesses run: build
/// the [`ShmDevice::fabric`], wrap each device in
/// [`crate::faulty::FaultyDevice`] and/or [`crate::reliable::ReliableDevice`],
/// then hand the stack here.
pub fn run_devices<D, T, F>(devices: Vec<D>, config: MpiConfig, f: F) -> Vec<T>
where
    D: Device + 'static,
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let f = std::sync::Arc::new(f);
    let handles: Vec<_> = devices
        .into_iter()
        .map(|dev| {
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("mpi-rank-{}", dev.rank()))
                .spawn(move || f(Mpi::new(Box::new(dev), config)))
                .expect("failed to spawn rank thread")
        })
        .collect();
    handles
        .into_iter()
        .enumerate()
        .map(|(rank, h)| match h.join() {
            Ok(v) => v,
            Err(e) => {
                std::panic::resume_unwind(Box::new(format!("rank {rank} panicked: {e:?}"))
                    as Box<dyn std::any::Any + Send>)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rank_pingpong() {
        let results = run(2, |mpi| {
            let world = mpi.world();
            if world.rank() == 0 {
                world.send(&[42u32, 7], 1, 0).unwrap();
                let mut back = [0u32; 2];
                world.recv(&mut back, 1, 1).unwrap();
                back[0] + back[1]
            } else {
                let mut buf = [0u32; 2];
                let st = world.recv(&mut buf, 0, 0).unwrap();
                assert_eq!(st.source, 0);
                world.send(&[buf[0] * 2, buf[1] * 2], 0, 1).unwrap();
                0
            }
        });
        assert_eq!(results[0], 98);
    }

    #[test]
    fn wtime_advances() {
        let results = run(1, |mpi| {
            let a = mpi.wtime();
            std::thread::sleep(std::time::Duration::from_millis(5));
            mpi.wtime() - a
        });
        assert!(results[0] >= 0.004);
    }
}
