//! ddtbench-style derived-datatype transfer benchmark: the zero-copy
//! typed path (`send_typed`/`recv_typed`, gather-on-pack at the sender,
//! scatter-on-chunk at the receiver) against the copying
//! pack-then-send/recv-then-unpack reference, on the shared-memory
//! substrate where the two differ only by the intermediate staging copies.
//!
//! ```text
//! cargo run --release -p lmpi-bench --bin ddtbench            # full sweep
//! cargo run --release -p lmpi-bench --bin ddtbench -- --quick # fewer reps (CI)
//! ```
//!
//! Two kernels, both classic ddtbench shapes:
//!
//! * **transpose** — a column block of a 256x256 f64 matrix
//!   (`vector(256, bw, 256)` over 8-byte elements): the strided access a
//!   matrix transpose sends, swept over block widths so the packed size
//!   crosses 16 KiB → 256 KiB.
//! * **face** — the x = const face of an n^3 f64 grid in C order
//!   (`vector(n*n, 1, n)`): worst-case 8-byte runs with n-element holes,
//!   the halo a 3D stencil exchanges.
//!
//! Per cell it times a ping-pong of the typed path and of the packed
//! reference, and writes all medians to `target/ddtbench.json` in flat
//! `"shm/kernel/bytes/path": ns` form. The gather rate itself is the
//! benchmark's `core.dtype.gather_MBps`.

use std::path::Path;
use std::process::ExitCode;

use lmpi_core::{DataType, MpiConfig};
use lmpi_devices::shm::run_with_config;

/// Matrix dimension for the transpose kernel (f64 elements).
const MATRIX_N: usize = 256;
/// Column-block widths swept for the transpose kernel; packed size is
/// `MATRIX_N * bw * 8` = {16 KiB, 64 KiB, 256 KiB}.
const TRANSPOSE_WIDTHS: [usize; 3] = [8, 32, 128];
/// Grid dimensions for the 3D face-exchange kernel; packed size is
/// `n * n * 8` = {2 KiB, 8 KiB, 32 KiB}.
const FACE_DIMS: [usize; 3] = [16, 32, 64];

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut entries: Vec<(String, f64)> = Vec::new();

    for bw in TRANSPOSE_WIDTHS {
        // A width-`bw` column block of an N x N row-major f64 matrix:
        // N blocks of bw contiguous elements, one matrix row apart.
        let t = DataType::base(8).vector(MATRIX_N, bw, MATRIX_N);
        sweep_cell(&mut entries, "transpose", &t, quick);
    }
    for n in FACE_DIMS {
        // The x = x0 face of an n^3 grid in C (z, y, x) order: n*n single
        // elements, each one x-row (n elements) apart.
        let t = DataType::base(8).vector(n * n, 1, n);
        sweep_cell(&mut entries, "face", &t, quick);
    }

    let out_path = Path::new("target/ddtbench.json");
    if let Err(e) = write_json(out_path, &entries) {
        eprintln!("ddtbench: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "\nwrote {} measurements to {}",
        entries.len(),
        out_path.display()
    );
    ExitCode::SUCCESS
}

/// Time both paths for one layout and record + report the cell.
fn sweep_cell(entries: &mut Vec<(String, f64)>, kernel: &str, t: &DataType, quick: bool) {
    let bytes = t.packed_size().expect("bench layout fits in usize");
    let typed_ns = time_pingpong(t, true, quick);
    let packed_ns = time_pingpong(t, false, quick);
    entries.push((format!("shm/{kernel}/{bytes}/typed"), typed_ns));
    entries.push((format!("shm/{kernel}/{bytes}/packed"), packed_ns));
    println!(
        "{kernel:9} {bytes:>7}B  typed {typed_ns:>10.0} ns  packed {packed_ns:>10.0} ns  \
         ({:.2}x)",
        packed_ns / typed_ns
    );
}

/// Median-of-samples nanoseconds per ping-pong round (one data transfer
/// plus a 1-byte ack) over a 2-rank shm fabric. Both paths pay the same
/// ack, so the typed/packed ratio isolates the staging copies.
fn time_pingpong(t: &DataType, typed: bool, quick: bool) -> f64 {
    let bytes = t.packed_size().expect("bench layout fits in usize");
    let samples = if quick { 3 } else { 7 };
    let iters = (if quick { 1 << 21 } else { 1 << 23 } / bytes.max(1)).clamp(8, 512);
    let t = t.clone();
    run_with_config(2, MpiConfig::device_defaults(), move |mpi| {
        let world = mpi.world();
        let ct = t.commit().unwrap();
        let extent = ct.extent();
        let mem: Vec<u8> = (0..extent).map(|i| i as u8).collect();
        let mut dst = vec![0u8; extent];
        let mut round = |tag: u32| {
            if world.rank() == 0 {
                if typed {
                    world.send_typed(&ct, &mem, 1, tag).unwrap();
                } else {
                    world.send_packed(&t, &mem, 1, tag).unwrap();
                }
                let mut ack = [0u8];
                world.recv(&mut ack, 1, tag).unwrap();
            } else {
                if typed {
                    world.recv_typed(&ct, &mut dst, 0, tag).unwrap();
                } else {
                    world.recv_packed(&t, &mut dst, 0, tag).unwrap();
                }
                world.send(&[1u8], 0, tag).unwrap();
            }
        };
        for i in 0..iters.min(32) {
            round(i as u32); // warmup
        }
        let mut medians: Vec<f64> = (0..samples)
            .map(|s| {
                let t0 = mpi.wtime();
                for i in 0..iters {
                    round((s * iters + i) as u32 % 1000);
                }
                (mpi.wtime() - t0) / iters as f64 * 1e9
            })
            .collect();
        medians.sort_by(f64::total_cmp);
        medians[samples / 2]
    })[0]
}

/// Write the sweep as flat `"shm/kernel/bytes/path": ns` JSON.
fn write_json(path: &Path, entries: &[(String, f64)]) -> std::io::Result<()> {
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
