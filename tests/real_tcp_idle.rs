//! What a wall-clock job costs when it is not sending, and that it leaves
//! nothing behind. Nothing reads a rank's transport but its drain-role
//! holder — the progress thread, while callers sleep — and it waits there:
//! real TCP and UDP back off to 200 µs sleeps by a count of empty polls
//! that outlives each wait (restarting that count on every wait spins
//! through each 500 µs progress tick instead, ≈ 0.6 CPUs on the reference
//! box, against ≈ 0.05), and the reliability and fault-injection wrappers
//! park in the device they wrap until their own next timer. Once a job
//! ends, its threads are joined and its sockets closed. Alone in its
//! binary, because it reads the whole process's CPU time, threads and
//! descriptors.

use std::time::{Duration, Instant};

use lmpi::{
    run_devices, run_real_tcp, run_real_udp, FaultConfig, FaultyDevice, Mpi, MpiConfig, RelConfig,
    ReliableDevice, ShmDevice,
};

/// User + system CPU seconds of this process so far: fields 14 and 15 of
/// `/proc/self/stat`, in clock ticks of Linux's fixed 100 Hz `USER_HZ`.
/// `None` where there is no procfs.
fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name, from field 3 on.
    let fields: Vec<&str> = stat
        .get(stat.rfind(')')? + 1..)?
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// This process's live threads and open descriptors.
fn threads_and_fds() -> (usize, usize) {
    let count = |dir| std::fs::read_dir(dir).map_or(0, |d| d.count());
    (count("/proc/self/task"), count("/proc/self/fd"))
}

/// The program every job runs: both ranks sleep through a second of
/// idle; each reports the process's busy CPUs over it.
fn idle_second(mpi: Mpi) -> f64 {
    let world = mpi.world();
    world.barrier().unwrap();
    // Both progress threads settle into their idle waits first.
    std::thread::sleep(Duration::from_millis(200));
    let (cpu0, t0) = (process_cpu_s().unwrap(), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let busy = (process_cpu_s().unwrap() - cpu0) / t0.elapsed().as_secs_f64();
    world.barrier().unwrap();
    busy
}

#[test]
fn quiet_real_tcp_job_stays_cheap_and_leaves_nothing_behind() {
    if process_cpu_s().is_none() {
        eprintln!("skipping: no /proc/self/stat");
        return;
    }
    let cfg = MpiConfig::device_defaults();
    let wrapped = || {
        let devices = ShmDevice::fabric(2)
            .into_iter()
            .enumerate()
            .map(|(rank, dev)| {
                let faulty = FaultyDevice::new(dev, FaultConfig::lossless(rank as u64));
                ReliableDevice::new(faulty, RelConfig::default())
            });
        run_devices(devices.collect(), cfg, idle_second)
    };
    // One job at a time: each reads the whole process's CPU time.
    let jobs: [(&str, &dyn Fn() -> Vec<f64>); 3] = [
        ("real TCP", &|| {
            run_real_tcp(2, cfg, idle_second).expect("tcp mesh")
        }),
        ("Reliable(Faulty(Shm))", &wrapped),
        ("real UDP", &|| {
            run_real_udp(2, cfg, idle_second).expect("udp sockets")
        }),
    ];
    for (name, job) in jobs {
        let before = threads_and_fds();
        let busy = job();
        eprintln!("{name}: process CPUs busy over 1 s of idle, as each rank saw it: {busy:.3?}");
        for (rank, cpus) in busy.iter().enumerate() {
            assert!(
                *cpus < 0.25,
                "{name}, rank {rank}: {cpus:.3} CPUs busy while both callers slept"
            );
        }
        // The runner joins its rank threads, and each rank's `Mpi` joins
        // its progress thread; nothing of the job may outlive it. A joined
        // thread can linger in procfs for a moment after `join` returns.
        let deadline = Instant::now() + Duration::from_secs(1);
        while threads_and_fds() != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            threads_and_fds(),
            before,
            "{name}: (threads, fds) after the job, against before it"
        );
    }
}
