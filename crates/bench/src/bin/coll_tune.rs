//! Collective auto-tuner: sweep every registered algorithm over the
//! dispatch grid and persist the winners as the decision table.
//!
//! ```text
//! cargo run --release -p lmpi-bench --bin coll_tune              # sweep + report
//! cargo run --release -p lmpi-bench --bin coll_tune -- --quick   # fewer reps (CI)
//! cargo run --release -p lmpi-bench --bin coll_tune -- --check   # validate committed table
//! cargo run --release -p lmpi-bench --bin coll_tune -- --record  # sweep + rewrite table
//! ```
//!
//! The sweep covers {64 B, 4 KiB, 64 KiB, 1 MiB} x {2, 4, 8} ranks on three
//! substrates: simulated ATM TCP (`sim-tcp`) and the Meiko CS/2 model
//! (`meiko`), both on deterministic virtual time, plus the shared-memory
//! transport (`shm`), which is wall-clock and therefore reported but never
//! gated. Per cell it times every fixed algorithm of the family (pinned via
//! `MpiConfig`) and the unpinned table dispatch, and writes all medians to
//! `target/coll_sweep.json` in flat `"sub/coll/ranks/bytes/algo": ns` form.
//! Whether the table's choice keeps up with the best fixed algorithm is
//! gated by the benchmark's `core.coll.dispatch_efficiency`.
//!
//! `--record` rewrites `crates/bench/baselines/coll_tuning.json` — one row
//! per swept cell plus unbounded fallbacks — which is embedded into
//! `lmpi-core` at the next build. `--check` validates the committed table
//! (parse, known names, full grid coverage) without running the sweep.

use std::path::Path;
use std::process::ExitCode;

use lmpi_core::{
    AllgatherAlgo, AllreduceAlgo, BarrierAlgo, BcastAlgo, CollTable, Mpi, MpiConfig, ReduceOp,
};
use lmpi_devices::meiko::{run_meiko, MeikoVariant};
use lmpi_devices::shm::run_with_config;
use lmpi_devices::sock::{run_cluster, ClusterNet, ClusterTransport};

/// Payload sizes swept per collective (bytes).
const SIZES: [usize; 4] = [64, 4096, 65536, 1 << 20];
/// Communicator sizes swept.
const RANKS: [usize; 3] = [2, 4, 8];
/// Substrates swept.
const SUBSTRATES: [Substrate; 3] = [Substrate::SimTcp, Substrate::Meiko, Substrate::Shm];

#[derive(Copy, Clone, PartialEq, Eq)]
enum Substrate {
    Shm,
    SimTcp,
    Meiko,
}

impl Substrate {
    fn name(self) -> &'static str {
        match self {
            Substrate::Shm => "shm",
            Substrate::SimTcp => "sim-tcp",
            Substrate::Meiko => "meiko",
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let record = args.iter().any(|a| a == "--record");
    if args.iter().any(|a| a == "--check") {
        return check_table();
    }

    let entries = sweep(quick);

    let sweep_path = Path::new("target/coll_sweep.json");
    if let Err(e) = write_sweep(sweep_path, &entries) {
        eprintln!("coll_tune: cannot write {}: {e}", sweep_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "\nwrote {} measurements to {}",
        entries.len(),
        sweep_path.display()
    );

    if record {
        let table_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/coll_tuning.json");
        match write_table(&table_path, &entries) {
            Ok(rows) => println!("recorded {rows} table rows to {}", table_path.display()),
            Err(e) => {
                eprintln!("coll_tune: cannot write {}: {e}", table_path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Iterations per measurement, scaled down for large payloads (virtual
/// time makes more reps cost simulation wall-clock, not fidelity).
fn reps(bytes: usize, quick: bool) -> usize {
    let base = match bytes {
        0..=1024 => 40,
        1025..=16384 => 20,
        16385..=262144 => 8,
        _ => 3,
    };
    if quick {
        (base / 4).max(2)
    } else {
        base
    }
}

/// Fixed broadcast algorithms competing in one cell (the hardware wire
/// only exists on the Meiko model; pinning it elsewhere is a typed error).
fn bcast_algos(sub: Substrate) -> Vec<BcastAlgo> {
    let mut v = vec![BcastAlgo::Binomial, BcastAlgo::ScatterAllgather];
    if sub == Substrate::Meiko {
        v.push(BcastAlgo::Hw);
    }
    v
}

fn sweep(quick: bool) -> Vec<(String, f64)> {
    let mut entries: Vec<(String, f64)> = Vec::new();
    for sub in SUBSTRATES {
        for &n in &RANKS {
            // Barrier: one cell per rank count (no payload axis).
            {
                let iters = reps(64, quick);
                let mut cell: Vec<(&str, f64)> = Vec::new();
                for algo in [BarrierAlgo::Dissemination, BarrierAlgo::Tree] {
                    let cfg = MpiConfig::device_defaults().with_barrier_algo(algo);
                    cell.push((algo.name(), time_barrier(sub, n, cfg, iters)));
                }
                cell.push((
                    "dispatch",
                    time_barrier(sub, n, MpiConfig::device_defaults(), iters),
                ));
                report_cell(&mut entries, sub, "barrier", n, 0, &cell);
            }
            for &bytes in &SIZES {
                let iters = reps(bytes, quick);

                let mut cell: Vec<(&str, f64)> = Vec::new();
                for algo in bcast_algos(sub) {
                    let cfg = MpiConfig::device_defaults().with_bcast_algo(algo);
                    cell.push((algo.name(), time_bcast(sub, n, cfg, bytes, iters)));
                }
                cell.push((
                    "dispatch",
                    time_bcast(sub, n, MpiConfig::device_defaults(), bytes, iters),
                ));
                report_cell(&mut entries, sub, "bcast", n, bytes, &cell);

                let mut cell: Vec<(&str, f64)> = Vec::new();
                for algo in [
                    AllreduceAlgo::ReduceBcast,
                    AllreduceAlgo::Ring,
                    AllreduceAlgo::RecursiveDoubling,
                ] {
                    let cfg = MpiConfig::device_defaults().with_allreduce_algo(algo);
                    cell.push((algo.name(), time_allreduce(sub, n, cfg, bytes, iters)));
                }
                cell.push((
                    "dispatch",
                    time_allreduce(sub, n, MpiConfig::device_defaults(), bytes, iters),
                ));
                report_cell(&mut entries, sub, "allreduce", n, bytes, &cell);

                let mut cell: Vec<(&str, f64)> = Vec::new();
                for algo in [AllgatherAlgo::Ring, AllgatherAlgo::GatherBcast] {
                    let cfg = MpiConfig::device_defaults().with_allgather_algo(algo);
                    cell.push((algo.name(), time_allgather(sub, n, cfg, bytes, iters)));
                }
                cell.push((
                    "dispatch",
                    time_allgather(sub, n, MpiConfig::device_defaults(), bytes, iters),
                ));
                report_cell(&mut entries, sub, "allgather", n, bytes, &cell);
            }
        }
    }
    entries
}

/// Record one cell's measurements and print the winner-vs-dispatch line.
fn report_cell(
    entries: &mut Vec<(String, f64)>,
    sub: Substrate,
    coll: &str,
    n: usize,
    bytes: usize,
    cell: &[(&str, f64)],
) {
    let mut best: Option<(&str, f64)> = None;
    let mut dispatch = f64::NAN;
    for &(name, ns) in cell {
        entries.push((format!("{}/{coll}/{n}/{bytes}/{name}", sub.name()), ns));
        if name == "dispatch" {
            dispatch = ns;
        } else if best.is_none_or(|(_, b)| ns < b) {
            best = Some((name, ns));
        }
    }
    let (wname, wns) = best.expect("cell has at least one fixed algorithm");
    println!(
        "{:7} {:9} n={n} {:>7}B  best {wname:18} {:>12.0} ns  dispatch {:>12.0} ns ({:.2}x best)",
        sub.name(),
        coll,
        bytes,
        wns,
        dispatch,
        dispatch / wns,
    );
}

fn run_on(
    sub: Substrate,
    n: usize,
    cfg: MpiConfig,
    f: impl Fn(Mpi) -> f64 + Send + Sync + 'static,
) -> f64 {
    match sub {
        Substrate::Shm => run_with_config(n, cfg, f)[0],
        Substrate::SimTcp => run_cluster(n, ClusterNet::Atm, ClusterTransport::Tcp, cfg, f)[0],
        Substrate::Meiko => run_meiko(n, MeikoVariant::LowLatency, cfg, f)[0],
    }
}

/// Nanoseconds per barrier.
fn time_barrier(sub: Substrate, n: usize, cfg: MpiConfig, iters: usize) -> f64 {
    run_on(sub, n, cfg, move |mpi| {
        let world = mpi.world();
        world.barrier().unwrap();
        let t0 = mpi.wtime();
        for _ in 0..iters {
            world.barrier().unwrap();
        }
        (mpi.wtime() - t0) / iters as f64 * 1e9
    })
}

/// Nanoseconds per broadcast. Iterations are barrier-separated so root
/// run-ahead cannot pipeline consecutive broadcasts and hide per-call
/// latency; the barrier algorithm is the table's and identical for every
/// variant in a cell, so it cancels in the comparison.
fn time_bcast(sub: Substrate, n: usize, cfg: MpiConfig, bytes: usize, iters: usize) -> f64 {
    run_on(sub, n, cfg, move |mpi| {
        let world = mpi.world();
        let mut buf = vec![0u8; bytes];
        world.bcast(&mut buf, 0).unwrap();
        world.barrier().unwrap();
        let t0 = mpi.wtime();
        for _ in 0..iters {
            world.bcast(&mut buf, 0).unwrap();
            world.barrier().unwrap();
        }
        (mpi.wtime() - t0) / iters as f64 * 1e9
    })
}

/// Nanoseconds per allreduce of a `bytes`-byte u64 vector (self-
/// synchronizing, no separating barrier needed).
fn time_allreduce(sub: Substrate, n: usize, cfg: MpiConfig, bytes: usize, iters: usize) -> f64 {
    run_on(sub, n, cfg, move |mpi| {
        let world = mpi.world();
        let send = vec![1u64; (bytes / 8).max(1)];
        world.allreduce(&send, ReduceOp::Sum).unwrap();
        world.barrier().unwrap();
        let t0 = mpi.wtime();
        for _ in 0..iters {
            world.allreduce(&send, ReduceOp::Sum).unwrap();
        }
        (mpi.wtime() - t0) / iters as f64 * 1e9
    })
}

/// Nanoseconds per allgather of a `bytes`-byte per-rank contribution.
fn time_allgather(sub: Substrate, n: usize, cfg: MpiConfig, bytes: usize, iters: usize) -> f64 {
    run_on(sub, n, cfg, move |mpi| {
        let world = mpi.world();
        let send = vec![0u8; bytes];
        world.allgather(&send).unwrap();
        world.barrier().unwrap();
        let t0 = mpi.wtime();
        for _ in 0..iters {
            world.allgather(&send).unwrap();
        }
        (mpi.wtime() - t0) / iters as f64 * 1e9
    })
}

/// Write the sweep as flat `"sub/coll/ranks/bytes/algo": ns` JSON.
fn write_sweep(path: &Path, entries: &[(String, f64)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("{\n  \"version\": 1,\n  \"unit\": \"ns\",\n  \"median_ns\": {\n");
    for (i, (key, ns)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("    \"{key}\": {ns:.1}{sep}\n"));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

/// Rewrite the committed decision table from the sweep's per-cell fixed
/// winners: one exact-substrate row per swept cell (bounds = the cell's
/// coordinates, so lookup interpolates by tightest-bound), one unbounded
/// fallback per (substrate, collective) from the largest cell, and the
/// analytic `"any"` rows as a catch-all for unswept substrates.
fn write_table(path: &Path, entries: &[(String, f64)]) -> std::io::Result<usize> {
    let ns_of =
        |key: &str| -> Option<f64> { entries.iter().find(|(k, _)| k == key).map(|&(_, ns)| ns) };
    let winner = |sub: Substrate, coll: &str, n: usize, bytes: usize, algos: &[&str]| -> String {
        algos
            .iter()
            .filter_map(|a| {
                ns_of(&format!("{}/{coll}/{n}/{bytes}/{a}", sub.name())).map(|ns| (*a, ns))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(a, _)| a.to_string())
            .expect("swept cell present")
    };
    let mut rows: Vec<(String, String, usize, u64, String)> = Vec::new();
    for sub in SUBSTRATES {
        for &n in &RANKS {
            rows.push((
                sub.name().into(),
                "barrier".into(),
                n,
                0,
                winner(sub, "barrier", n, 0, &["dissemination", "tree"]),
            ));
            for &bytes in &SIZES {
                let bcast: Vec<&str> = bcast_algos(sub).iter().map(|a| a.name()).collect();
                for (coll, algos) in [
                    ("bcast", bcast.clone()),
                    (
                        "allreduce",
                        vec!["reduce_bcast", "ring", "recursive_doubling"],
                    ),
                    ("allgather", vec!["ring", "gather_bcast"]),
                ] {
                    // The largest swept size doubles as the unbounded row.
                    let bound = if bytes == SIZES[SIZES.len() - 1] {
                        0
                    } else {
                        bytes as u64
                    };
                    rows.push((
                        sub.name().into(),
                        coll.into(),
                        n,
                        bound,
                        winner(sub, coll, n, bytes, &algos),
                    ));
                }
            }
        }
    }
    // Unbounded-rank fallbacks: reuse the largest swept communicator.
    let max_n = RANKS[RANKS.len() - 1];
    let bounded: Vec<_> = rows
        .iter()
        .filter(|r| r.2 == max_n)
        .map(|r| (r.0.clone(), r.1.clone(), 0usize, r.3, r.4.clone()))
        .collect();
    rows.extend(bounded);
    // Analytic catch-alls for substrates the sweep never visits.
    for (coll, max_bytes, algo) in [
        ("barrier", 0u64, "dissemination"),
        ("bcast", 4096, "binomial"),
        ("bcast", 0, "scatter_allgather"),
        ("allreduce", 4096, "recursive_doubling"),
        ("allreduce", 0, "ring"),
        ("allgather", 0, "ring"),
    ] {
        rows.push(("any".into(), coll.into(), 0, max_bytes, algo.into()));
    }

    let mut out = String::from(
        "{\n  \"version\": 1,\n  \"calibrated\": true,\n  \"note\": \"measured winners; \
         regenerate with: cargo run --release -p lmpi-bench --bin coll_tune -- --record\",\n  \
         \"entries\": [\n",
    );
    for (i, (sub, coll, max_ranks, max_bytes, algo)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"substrate\": \"{sub}\", \"collective\": \"{coll}\", \
             \"max_ranks\": {max_ranks}, \"max_bytes\": {max_bytes}, \
             \"algorithm\": \"{algo}\"}}{sep}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)?;
    Ok(rows.len())
}

/// `--check`: validate the committed decision table without sweeping.
fn check_table() -> ExitCode {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/coll_tuning.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("coll_tune --check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let table = match CollTable::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("coll_tune --check: {} does not parse: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let known_substrates = [
        "any", "generic", "shm", "meiko", "sim-tcp", "sim-udp", "real-tcp", "real-udp", "sock",
    ];
    let mut failures = Vec::new();
    for (i, e) in table.entries().iter().enumerate() {
        if !known_substrates.contains(&e.substrate.as_str()) {
            failures.push(format!("row {i}: unknown substrate {:?}", e.substrate));
        }
        let algo_ok = match e.collective.as_str() {
            "bcast" => BcastAlgo::from_name(&e.algorithm).is_some(),
            "allreduce" => AllreduceAlgo::from_name(&e.algorithm).is_some(),
            "barrier" => BarrierAlgo::from_name(&e.algorithm).is_some(),
            "allgather" => AllgatherAlgo::from_name(&e.algorithm).is_some(),
            other => {
                failures.push(format!("row {i}: unknown collective {other:?}"));
                continue;
            }
        };
        if !algo_ok {
            failures.push(format!(
                "row {i}: algorithm {:?} is not registered for {:?}",
                e.algorithm, e.collective
            ));
        }
    }
    // Every dispatch-grid point (and a margin beyond it) must resolve.
    for coll in ["barrier", "bcast", "allreduce", "allgather"] {
        for sub in [
            "shm", "meiko", "sim-tcp", "sim-udp", "real-tcp", "real-udp", "generic",
        ] {
            for n in [2usize, 3, 4, 8, 64] {
                for bytes in [0u64, 64, 4096, 65536, 1 << 20, 1 << 26] {
                    if table.lookup(sub, coll, n, bytes).is_none() {
                        failures.push(format!("no row covers ({sub}, {coll}, {n}, {bytes})"));
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        println!(
            "coll_tune --check: {} rows OK, full grid coverage",
            table.entries().len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("coll_tune --check: FAILED:");
        for f in failures.iter().take(20) {
            eprintln!("  {f}");
        }
        if failures.len() > 20 {
            eprintln!("  ... and {} more", failures.len() - 20);
        }
        ExitCode::FAILURE
    }
}
