//! Shared by the integration tests that must reach every registered
//! collective algorithm.

use lmpi::{AllgatherAlgo, AllreduceAlgo, BarrierAlgo, BcastAlgo, MpiConfig};

/// Four configurations that between them pin every registered algorithm
/// of every family; the first leaves each choice to the decision table.
pub fn pin_sets() -> [MpiConfig; 4] {
    let table = MpiConfig::device_defaults();
    [
        table,
        table
            .with_barrier_algo(BarrierAlgo::Dissemination)
            .with_bcast_algo(BcastAlgo::Binomial)
            .with_allreduce_algo(AllreduceAlgo::ReduceBcast)
            .with_allgather_algo(AllgatherAlgo::Ring),
        table
            .with_barrier_algo(BarrierAlgo::Tree)
            .with_bcast_algo(BcastAlgo::ScatterAllgather)
            .with_allreduce_algo(AllreduceAlgo::Ring)
            .with_allgather_algo(AllgatherAlgo::GatherBcast),
        table.with_allreduce_algo(AllreduceAlgo::RecursiveDoubling),
    ]
}
