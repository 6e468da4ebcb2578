//! A simulated process that overflows its stack faults on its guard page;
//! the program must then name that process on stderr and abort, as Rust
//! does for a thread, instead of dying of a bare `SIGSEGV`. The fault ends
//! the whole program, so the test runs itself again as a child process
//! that overflows and reads the child's stderr.

use std::os::unix::process::ExitStatusExt;
use std::process::Command;

use lmpi_sim::Sim;

/// Set in the child's environment: that run overflows.
const CHILD: &str = "LMPI_SIM_OVERFLOW_CHILD";

/// Recurse with a 4 KiB frame until the stack runs out (`limit` is never
/// reached; it keeps the recursion conditional).
fn recurse(depth: u64, limit: u64) -> u64 {
    let frame = std::hint::black_box([depth as u8; 4096]);
    if depth == limit {
        return frame[0] as u64;
    }
    recurse(depth + 1, limit) + frame[depth as usize % 4096] as u64
}

#[test]
fn a_stack_overflow_names_the_process() {
    if std::env::var_os(CHILD).is_some() {
        let sim = Sim::new();
        sim.spawn("deep-recursion", |_| {
            std::hint::black_box(recurse(0, std::hint::black_box(u64::MAX)));
        });
        sim.run();
        unreachable!("the process recursed without end and returned");
    }
    let exe = std::env::current_exe().expect("test binary path");
    // Through `sh`, to switch core dumps off for the aborting child.
    let out = Command::new("sh")
        .args(["-c", "ulimit -c 0; exec \"$0\" \"$@\""])
        .arg(exe)
        .args([
            "--exact",
            "a_stack_overflow_names_the_process",
            "--nocapture",
        ])
        .env(CHILD, "1")
        .output()
        .expect("run the test binary again");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("simulated process 'deep-recursion' has overflowed its stack"),
        "{:?}; stderr:\n{stderr}",
        out.status
    );
    assert_eq!(out.status.signal(), Some(6), "the child did not abort");
}
