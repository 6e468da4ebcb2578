//! Library configuration: protocol knobs the paper tunes per platform.

use crate::coll::{AllgatherAlgo, AllreduceAlgo, BarrierAlgo, BcastAlgo, CollPins};

/// Tunable protocol parameters. `None` fields fall back to the device's
/// platform defaults ([`crate::device::DeviceDefaults`]): the Meiko device
/// defaults to a 180-byte eager threshold and one envelope slot per sender,
/// the sockets device to a larger threshold and a credit window.
#[derive(Copy, Clone, Debug, Default)]
pub struct MpiConfig {
    /// Largest payload sent eagerly (optimistically). Messages above this
    /// use the rendezvous (match-first, then direct transfer) path.
    pub eager_threshold: Option<usize>,
    /// Outstanding envelopes allowed per destination.
    pub env_slots: Option<u32>,
    /// Receiver bounce-buffer bytes reserved per sender.
    pub recv_buf_per_sender: Option<u64>,
    /// Progress watchdog, wall-clock transports only: if a blocking MPI
    /// call waits longer than this for any frame to arrive, it returns
    /// [`crate::MpiError::Timeout`] instead of hanging forever. `None` (the
    /// default) blocks indefinitely. Set it on real transports when frames
    /// can be lost. Virtual-time devices ignore it: a rank waits for its
    /// next frame by parking, which lets the clock run, and a wait that can
    /// never end is [`lmpi_sim::Sim::run`]'s deadlock panic, which names
    /// the parked processes.
    pub progress_timeout_us: Option<u64>,
    /// Largest rendezvous data segment per device frame; larger messages
    /// stream as several pipelined `RndvChunk` segments. Every rank of a
    /// job must use the same value.
    pub rndv_chunk: Option<usize>,
    /// Rendezvous pipeline window (chunks in flight before the sender
    /// waits for a chunk acknowledgment).
    pub rndv_window: Option<u32>,
    /// Collective algorithm pins. An unset member lets the dispatch layer
    /// consult the decision table; a set member forces that algorithm for
    /// every call of that collective. Every rank of a job must pin
    /// identically.
    pub coll: CollPins,
    /// Live health accounting (thread duty cycles, sliding-window tail
    /// latency, continuous diagnostics — see [`crate::Mpi::health`]).
    /// `None` defaults to enabled; the instrumentation budget is a few
    /// clock reads per blocking operation. Set `Some(false)` to reduce
    /// every health hook to a single branch.
    pub health: Option<bool>,
}

impl MpiConfig {
    /// Configuration that takes every device default.
    pub fn device_defaults() -> Self {
        Self::default()
    }

    /// Set the eager/rendezvous crossover.
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = Some(bytes);
        self
    }

    /// Set the per-destination envelope slot count.
    pub fn with_env_slots(mut self, slots: u32) -> Self {
        self.env_slots = Some(slots);
        self
    }

    /// Set the per-sender receive bounce buffer size.
    pub fn with_recv_buf(mut self, bytes: u64) -> Self {
        self.recv_buf_per_sender = Some(bytes);
        self
    }

    /// Set the rendezvous chunk size (bytes per bulk-data frame).
    pub fn with_rndv_chunk(mut self, bytes: usize) -> Self {
        self.rndv_chunk = Some(bytes);
        self
    }

    /// Set the rendezvous pipeline window (chunks in flight).
    pub fn with_rndv_window(mut self, chunks: u32) -> Self {
        self.rndv_window = Some(chunks);
        self
    }

    /// Arm the progress watchdog: on a wall-clock transport, blocking calls
    /// give up with [`crate::MpiError::Timeout`] after waiting `us`
    /// microseconds with no incoming frame. Virtual-time devices ignore it
    /// (see [`MpiConfig::progress_timeout_us`]).
    pub fn with_progress_timeout_us(mut self, us: u64) -> Self {
        self.progress_timeout_us = Some(us);
        self
    }

    /// Pin every broadcast to `algo`, bypassing the decision table.
    pub fn with_bcast_algo(mut self, algo: BcastAlgo) -> Self {
        self.coll.bcast = Some(algo);
        self
    }

    /// Pin every allreduce to `algo`, bypassing the decision table.
    pub fn with_allreduce_algo(mut self, algo: AllreduceAlgo) -> Self {
        self.coll.allreduce = Some(algo);
        self
    }

    /// Pin every barrier to `algo`, bypassing the decision table.
    pub fn with_barrier_algo(mut self, algo: BarrierAlgo) -> Self {
        self.coll.barrier = Some(algo);
        self
    }

    /// Pin every allgather to `algo`, bypassing the decision table.
    pub fn with_allgather_algo(mut self, algo: AllgatherAlgo) -> Self {
        self.coll.allgather = Some(algo);
        self
    }

    /// Enable or disable live health accounting (default: enabled).
    pub fn with_health(mut self, enabled: bool) -> Self {
        self.health = Some(enabled);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let c = MpiConfig::device_defaults()
            .with_eager_threshold(180)
            .with_env_slots(1)
            .with_recv_buf(4096)
            .with_progress_timeout_us(500_000)
            .with_rndv_chunk(8 << 10)
            .with_rndv_window(4)
            .with_bcast_algo(BcastAlgo::ScatterAllgather)
            .with_allreduce_algo(AllreduceAlgo::Ring)
            .with_barrier_algo(BarrierAlgo::Tree)
            .with_allgather_algo(AllgatherAlgo::GatherBcast)
            .with_health(true);
        assert_eq!(c.eager_threshold, Some(180));
        assert_eq!(c.env_slots, Some(1));
        assert_eq!(c.recv_buf_per_sender, Some(4096));
        assert_eq!(c.progress_timeout_us, Some(500_000));
        assert_eq!(c.rndv_chunk, Some(8 << 10));
        assert_eq!(c.rndv_window, Some(4));
        assert_eq!(c.coll.bcast, Some(BcastAlgo::ScatterAllgather));
        assert_eq!(c.coll.allreduce, Some(AllreduceAlgo::Ring));
        assert_eq!(c.coll.barrier, Some(BarrierAlgo::Tree));
        assert_eq!(c.coll.allgather, Some(AllgatherAlgo::GatherBcast));
        assert_eq!(c.health, Some(true));
        assert_eq!(MpiConfig::default().coll, CollPins::default());
        assert_eq!(MpiConfig::default().health, None);
        assert_eq!(MpiConfig::default().eager_threshold, None);
        assert_eq!(MpiConfig::default().progress_timeout_us, None);
        assert_eq!(MpiConfig::default().rndv_chunk, None);
    }
}
