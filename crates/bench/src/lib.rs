//! # lmpi-bench — the paper's evaluation, regenerated
//!
//! One function per figure/table of *Low Latency MPI for Meiko CS/2 and
//! ATM Clusters* (IPPS 1997), in [`figures`], each returning a [`report::Report`]
//! with measured rows, the paper's reference values, and PASS/FAIL shape
//! checks. The `figures` binary prints one by id, or `all` of them — the
//! whole evaluation section.
//!
//! All measurements here are deterministic (virtual time) or reports
//! (`coll_tune`, `ddtbench`). Wall-clock measurement of the real substrates
//! is the job of the repository's one benchmark, `benchmark/` (see its
//! README); each criterion bench this crate used to carry is a workload or
//! per-layer metric there:
//!
//! | was (`benches/`) | is (`benchmark/`) |
//! |---|---|
//! | `latency_shm` | `shm_small` |
//! | `latency_real_tcp` | `tcp_small` |
//! | `bandwidth_shm` | `shm_large` |
//! | `overlap` | `shm_overlap`, `core.mpi.overlap_ratio` |
//! | `matching_engine` | `core.matching.post_match_d{1,64,1024}_ns` |
//! | `tracer_overhead` | `obs.emit_{disabled,enabled}_ns` |
//! | `health_overhead` | `core.health.overhead_ratio` |
//! | `heartbeat_overhead`, `latency_faulty` | `devices.reliable.{overhead_ratio,retx_per_kframe_*}` |
//! | `collectives_shm`, the dispatch gate | `core.coll.*`, `core.coll.dispatch_efficiency` |
//! | the ddtbench gate | `core.dtype.gather_MBps` |

#![warn(missing_docs)]

pub mod figures;
pub mod measure;
pub mod report;

use report::Report;

/// An experiment generator; the flag is `--quick`.
pub type Experiment = fn(bool) -> Report;

/// Every experiment in paper order: `(id, generator)`.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("fig1", figures::fig1 as Experiment),
        ("fig2", figures::fig2),
        ("fig3", figures::fig3),
        ("fig4", figures::fig4),
        ("fig5", figures::fig5),
        ("fig6", figures::fig6),
        ("table1", figures::table1),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
        ("ablation_threshold", figures::ablation_threshold),
        ("ablation_bcast", figures::ablation_bcast),
        ("ablation_credit", figures::ablation_credit),
    ]
}
