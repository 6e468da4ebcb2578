//! How a job starts. Every public launcher builds one rank's device and
//! hands it to one of two runners here: a named thread per rank for
//! wall-clock jobs, a simulated process per rank for virtual-time ones.
//! Real TCP and UDP ranks set up their mesh through [`MeshSetup`].

use std::net::SocketAddr;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Instant;

use lmpi_core::{Device, Mpi, MpiConfig, Rank};
use lmpi_sim::lock::Mutex;
use lmpi_sim::{Proc, Sim};

/// Run `f` on one thread per rank, each over the device its constructor
/// (one per rank, in rank order) builds on that rank's own thread. Every
/// thread is joined before anything is reported, so a failed job leaves no
/// rank thread or socket behind. Then the first rank, in rank order, that
/// failed its setup or panicked decides the outcome: its error comes back,
/// or its panic resumes with the rank's own payload.
pub(crate) fn run_rank_threads<D, E, C, T, F>(
    make: impl IntoIterator<Item = C>,
    config: MpiConfig,
    f: F,
) -> Result<Vec<T>, E>
where
    D: Device + 'static,
    E: Send + 'static,
    C: FnOnce() -> Result<D, E> + Send + 'static,
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let handles: Vec<_> = make
        .into_iter()
        .enumerate()
        .map(|(rank, make)| {
            let f = f.clone();
            std::thread::Builder::new()
                .name(format!("mpi-rank-{rank}"))
                .spawn(move || make().map(|dev| f(Mpi::new(Box::new(dev), config))))
                .expect("failed to spawn rank thread")
        })
        .collect();
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    joined
        .into_iter()
        .map(|res| res.unwrap_or_else(|p| std::panic::resume_unwind(p)))
        .collect()
}

/// Run `f` on one simulated process per rank, named `rank{r}` and spawned
/// in rank order, each over the device its constructor builds from the
/// process handle; then run the simulation and return the results in rank
/// order. Deterministic: the spawn order is part of the timing model.
pub(crate) fn run_sim_ranks<D, C, T, F>(
    sim: &Sim,
    make: impl IntoIterator<Item = C>,
    config: MpiConfig,
    f: F,
) -> Vec<T>
where
    D: Device + 'static,
    C: FnOnce(&Proc) -> D + Send + 'static,
    T: Send + 'static,
    F: Fn(Mpi) -> T + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let results = Arc::new(Mutex::new(Vec::new()));
    for (rank, make) in make.into_iter().enumerate() {
        results.lock().push(None);
        let (f, results) = (f.clone(), results.clone());
        sim.spawn(format!("rank{rank}"), move |p| {
            let out = f(Mpi::new(Box::new(make(p)), config));
            results.lock()[rank] = Some(out);
        });
    }
    sim.run();
    let results = std::mem::take(&mut *results.lock());
    results
        .into_iter()
        .map(|o| o.expect("rank produced no result"))
        .collect()
}

/// Shared mesh-setup state for one real-socket job (TCP or UDP): the
/// address every rank published, the barrier they meet at, the first setup
/// failure and the job's clock origin. Create it with
/// [`crate::sock::RealTcpChannel::rendezvous`] or
/// [`crate::udp::RealUdpChannel::rendezvous`] and share it between the ranks'
/// `connect` calls.
///
/// Setup is all or nothing: a rank that fails a step still reaches that
/// step's barrier, and after it every rank returns the first failure.
pub struct MeshSetup {
    addrs: Mutex<Vec<Option<SocketAddr>>>,
    barrier: Barrier,
    /// What the first rank whose setup failed reported; dialing ranks
    /// watch it to give up early.
    pub(crate) failed: OnceLock<String>,
    pub(crate) t0: Instant,
}

impl MeshSetup {
    pub(crate) fn new(nprocs: usize) -> Self {
        MeshSetup {
            addrs: Mutex::new(vec![None; nprocs]),
            barrier: Barrier::new(nprocs),
            failed: OnceLock::new(),
            t0: Instant::now(),
        }
    }

    /// One setup step, agreed: record this rank's failure (the first one
    /// job-wide wins), meet every rank at the barrier, and return the
    /// step's result only if no rank failed, else the first failure.
    pub(crate) fn agree<X>(&self, rank: Rank, step: std::io::Result<X>) -> std::io::Result<X> {
        if let Err(e) = &step {
            let _ = self.failed.set(format!("rank {rank}: {e}"));
        }
        self.barrier.wait();
        match self.failed.get() {
            Some(cause) => Err(peer_setup_failed(cause)),
            None => step,
        }
    }

    /// Publish this rank's bound socket's address (or its failure to bind)
    /// and agree: the socket and every rank's address, by rank.
    pub(crate) fn exchange<S>(
        &self,
        rank: Rank,
        bound: std::io::Result<(S, SocketAddr)>,
    ) -> std::io::Result<(S, Vec<SocketAddr>)> {
        let bound = bound.map(|(sock, addr)| {
            self.addrs.lock()[rank] = Some(addr);
            sock
        });
        let sock = self.agree(rank, bound)?;
        // No rank failed, so every rank published.
        Ok((sock, self.addrs.lock().iter().flatten().copied().collect()))
    }
}

/// The error every rank of a failed mesh setup returns.
pub(crate) fn peer_setup_failed(cause: &str) -> std::io::Error {
    std::io::Error::other(format!("mesh setup failed at {cause}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::{run, ShmDevice};
    use crate::udp::RealUdpChannel;
    use lmpi_core::MpiError;
    use lmpi_sim::within;
    use std::net::UdpSocket;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "rank 1 says boom")]
    fn a_ranks_panic_resumes_with_its_own_message() {
        run(2, |mpi| {
            if mpi.world().rank() == 1 {
                panic!("rank 1 says boom");
            }
        });
    }

    #[test]
    fn one_failed_publish_fails_every_rank() {
        // Rank 1 binds a real UDP socket; rank 0 reports that it could not.
        let outcomes = within(Duration::from_secs(1), || {
            let rendezvous = Arc::new(MeshSetup::new(2));
            let r = rendezvous.clone();
            let rank1 = std::thread::spawn(move || RealUdpChannel::connect(1, 2, &r).map(|_| ()));
            let rank0 = rendezvous
                .exchange::<UdpSocket>(0, Err(std::io::Error::other("no socket")))
                .map(|_| ());
            [rank0, rank1.join().expect("rank 1 thread")]
        });
        for out in outcomes {
            let e = out.expect_err("every rank fails");
            assert!(e.to_string().contains("rank 0: no socket"), "{e}");
        }
    }

    #[test]
    fn a_failed_setup_returns_after_every_rank_thread_ends() {
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        let res = within(Duration::from_secs(5), move || {
            let make = ShmDevice::fabric(2).into_iter().map(move |dev| {
                let flag = flag.clone();
                move || match dev.rank() {
                    0 => Err(MpiError::transport("rank 0 cannot start")),
                    _ => {
                        std::thread::sleep(Duration::from_millis(50));
                        flag.store(true, Ordering::SeqCst);
                        Ok(dev)
                    }
                }
            });
            run_rank_threads(make, MpiConfig::device_defaults(), |_mpi| ())
        });
        assert!(matches!(res, Err(MpiError::Transport { .. })), "{res:?}");
        assert!(done.load(Ordering::SeqCst), "rank 1 still running");
    }
}
