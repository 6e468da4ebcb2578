//! `lmpi-benchmark`: the repository's benchmark. See `../README.md` for the
//! workloads, the metrics, which metric each layer is expected to move, and
//! the contract with `BENCHMARK.json`.
//!
//! ```text
//! lmpi-benchmark --all [--seed N] [--seconds S] [--trace]
//! lmpi-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! lmpi-benchmark --check
//! ```
//!
//! One workload runs per process (`--all` re-executes this binary once per
//! workload) so that peak RSS, CPU time and set-up belong to that workload.
//! The last line of a `--workload` run's standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! without `--trace`, the per-layer metrics with it.

mod layers;
mod report;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{layer_metrics, RunData};
use util::{median, Json};
use workloads::{run_rep, RepSpec, Workload, ALL, OVERLAP_COMPUTE_ITERS};

/// Repetitions per run, each on a fresh fabric; reported values are medians
/// across them.
const REPS: usize = 10;

/// Named values with units, in the order they were measured.
#[derive(Default)]
pub struct Metrics {
    pub rows: Vec<(String, f64, &'static str)>,
    /// Raw per-repetition values behind a row, for the result file.
    pub notes: Vec<(String, Vec<f64>)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    pub fn note(&mut self, name: &str, values: &[f64]) {
        self.notes.push((name.into(), values.to_vec()));
    }

    /// The value pushed under `name`; 0 if there is none.
    pub fn value(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    fn print(&self) {
        for (name, value, unit) in &self.rows {
            println!("  {name:<48} {value:>16.4} {unit}");
        }
    }

    fn json(&self) -> Json {
        Json::obj(self.rows.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).into())),
                ]),
            )
        }))
    }
}

struct Args {
    all: bool,
    check: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        all: false,
        check: false,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--all" => args.all = true,
            "--check" => args.check = true,
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    util::fix_allocator();
    util::allowed_cpus();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lmpi-benchmark: {e}");
            eprintln!("usage: lmpi-benchmark (--all | --workload NAME | --check) [--seed N] [--seconds S] [--trace [0|1]]");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return check();
    }
    if let Some(name) = &args.workload {
        let Some(w) = Workload::from_name(name) else {
            let names: Vec<_> = ALL.iter().map(|w| w.name()).collect();
            eprintln!("lmpi-benchmark: unknown workload {name}; one of {names:?}");
            return ExitCode::from(2);
        };
        return run_workload(w, &args, started);
    }
    if args.all {
        return run_all(&args);
    }
    eprintln!("lmpi-benchmark: one of --all, --workload NAME, --check is required");
    ExitCode::from(2)
}

/// `--all`: one child process per workload (and a second, traced one with
/// `--trace`), so each has its own peak RSS and set-up.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut bad = Vec::new();
    for w in ALL {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let status = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => bad.push(format!("{} (trace {}): {s}", w.name(), trace as u8)),
                Err(e) => bad.push(format!("{}: cannot run {}: {e}", w.name(), exe.display())),
            }
        }
    }
    if bad.is_empty() {
        println!(
            "all {} workloads: ops_failed == 0, outputs verified",
            ALL.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {bad:?}");
        ExitCode::FAILURE
    }
}

fn rep_spec(w: Workload, seed: u64, rep: usize, seconds: f64, traced: bool) -> RepSpec {
    RepSpec {
        // Every repetition gets its own payload bytes, tag order and
        // particle set, all fixed by `--seed`.
        seed: seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(rep as u64),
        budget: Duration::from_secs_f64(seconds / REPS as f64),
        warmup_ops: w.warmup_ops(),
        min_ops: 20,
        steps: ((seconds * workloads::MD_STEPS_PER_SECOND / REPS as f64).round() as u64).max(5),
        traced,
        compute_iters: if w == Workload::ShmOverlap {
            OVERLAP_COMPUTE_ITERS
        } else {
            0
        },
        corrupt_op: None,
        mute_op: None,
    }
}

fn run_workload(w: Workload, args: &Args, started: Instant) -> ExitCode {
    println!(
        "== {} [{}] seed {} seconds {} trace {} ==",
        w.name(),
        w.op(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("   {}", w.why());
    match w {
        Workload::ShmLarge | Workload::ShmOverlap => println!(
            "   buffers are cache-resident on the reference box (L2 4 MiB, shared L3 260 MiB): a copy benchmark, not a DRAM one"
        ),
        Workload::TcpSmall => println!("   host loopback, no link crossed"),
        Workload::ClusterVirtual => println!(
            "   op_p50_us and payload_MBps are in virtual time and repeat exactly; cpu_us_per_op is the simulator's real CPU"
        ),
        _ => {}
    }

    // The first fabric a process builds is slower than every later one
    // (tcp_small: 81 us per round trip against 46 us, however long it
    // runs), so one is built, warmed up and thrown away. It is set-up.
    let mut discard = rep_spec(w, args.seed, REPS, args.seconds, false);
    discard.budget = Duration::ZERO;
    discard.warmup_ops = discard.warmup_ops.min(100);
    discard.steps = 5;
    let first = run_rep(w, discard);
    // Once-per-process set-up ends here; each repetition adds its own.
    let startup_s = started.elapsed().as_secs_f64();

    let mut data = RunData::new(w, startup_s);
    data.add_discarded(first);
    for rep in 0..REPS {
        // In a traced run every other repetition records spans and
        // snapshots; the rest give the untraced time the tracing overhead is
        // measured against.
        let traced = args.trace && rep % 2 == 0;
        let res = run_rep(w, rep_spec(w, args.seed, rep, args.seconds, traced));
        let wedged = res.wedged;
        data.add(res, traced);
        if wedged {
            // Its rank threads may never return; report and leave.
            break;
        }
    }

    let mut metrics = Metrics::default();
    if args.trace {
        layer_metrics(&data, args.seed, &mut metrics);
    } else {
        data.end_to_end(&mut metrics);
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        data.attempted, data.failed
    );
    for e in data.errors.iter().take(8) {
        println!("  error: {e}");
    }
    metrics.print();
    data.print_harness();

    let correct = data.failed == 0 && !data.wedged;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(data.attempted as f64)),
        ("failed", Json::Num(data.failed as f64)),
        ("metrics", metrics.json()),
    ]);
    let mode = if args.trace { "trace" } else { "e2e" };
    write_out(
        &format!("result_{}_{mode}.json", w.name()),
        &data.result_file(args, &metrics, &result),
    );
    if args.trace {
        write_out(&format!("trace_{}.json", w.name()), &data.trace_file(args));
    }
    println!("{}", result.render());
    if data.wedged {
        // Blocked rank threads would keep a normal return from exiting.
        std::process::exit(1);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where result and trace files go: `out/` in the benchmark's directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, value: &Json) {
    let dir = out_dir();
    let path = dir.join(name);
    let res = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, value.render()));
    match res {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("lmpi-benchmark: cannot write {}: {e}", path.display()),
    }
}

/// `--check`: every workload at a hundredth of the default length, plus the
/// harness's own failure paths. Under ten seconds.
fn check() -> ExitCode {
    let mut bad: Vec<String> = Vec::new();
    let mut expect = |ok: bool, what: String| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            bad.push(what);
        }
    };
    let seconds = 0.1;
    let virt = |res: &workloads::RepResult| {
        let p50_us = median(res.op_us.values());
        (p50_us, res.payload_bytes_per_op as f64 / p50_us)
    };
    for w in ALL {
        let res = run_rep(w, rep_spec(w, 1, 0, seconds, false));
        expect(
            res.failed == 0 && res.op_us.count() > 0,
            format!(
                "{}: {} ops verified, {} failed {:?}",
                w.name(),
                res.op_us.count(),
                res.failed,
                res.errors
            ),
        );
        if w == Workload::ClusterVirtual {
            let again = run_rep(w, rep_spec(w, 1, 0, seconds, false));
            let (a, b) = (virt(&res), virt(&again));
            expect(
                a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits(),
                format!("cluster_virtual: two in-process runs agree bit for bit ({a:?} vs {b:?})"),
            );
        }
    }

    let w = Workload::ShmSmall;
    let mut spec = rep_spec(w, 1, 0, seconds, false);
    spec.corrupt_op = Some(2_003);
    let res = run_rep(w, spec);
    expect(
        res.failed == 1 && res.op_us.count() == res.attempted - 1,
        format!(
            "a corrupted reply is a failed op, not a timed one (failed {}, timed {} of {})",
            res.failed,
            res.op_us.count(),
            res.attempted
        ),
    );

    let t = Instant::now();
    spec.corrupt_op = None;
    spec.mute_op = Some(2_003);
    let res = run_rep(w, spec);
    expect(
        res.failed >= 1 && !res.wedged && res.errors.iter().any(|e| e.contains("timeout")),
        format!(
            "a rank that stops answering ends the repetition after {:.1} s with a named error: {:?}",
            t.elapsed().as_secs_f64(),
            res.errors
        ),
    );

    if bad.is_empty() {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        println!("check FAILED: {bad:?}");
        ExitCode::FAILURE
    }
}
