//! Collective algorithm engine: per-collective algorithm families, a
//! persisted decision table, and the tag scheme that isolates them.
//!
//! Every collective with more than one useful schedule (`bcast`,
//! `allreduce`, `barrier`, `allgather`) has its implementations registered
//! here as an algorithm family. A dispatch layer keyed on *(substrate,
//! communicator size, payload bytes)* consults a decision table — loaded
//! from `baselines/coll_tuning.json` at init, with a built-in fallback —
//! and [`crate::MpiConfig`] pins override the table for ablations and
//! tests. All algorithms are expressed over the existing nonblocking
//! point-to-point engine, so hybrid eager/rendezvous transfer, chunked
//! rendezvous pipelining, ULFM fail-fast and flight-recorder correlation
//! apply to every schedule for free.
//!
//! # Tag scheme
//!
//! Collectives run on the communicator's collective context, which
//! isolates them from user traffic but not from *each other*: a composed
//! collective (or two ranks disagreeing about which algorithm is running)
//! must never cross-match another operation's messages. Every collective
//! therefore derives its wire tags from [`coll_tag`]:
//!
//! ```text
//! bits 24..28  op window     (1 = barrier .. 10 = allreduce)
//! bits 16..24  sequence      (per-communicator collective counter, mod 256)
//! bits 12..16  algorithm     (nibble, see ALG_*)
//! bits  0..12  step / round
//! ```
//!
//! The fault-tolerant agreement tags (`T_AGREE` = 9, 25) predate this
//! scheme and stay below `1 << 24`, so they are disjoint by construction —
//! agreement must keep working on communicators whose collective counters
//! have diverged after a failure.

mod allgather;
mod allreduce;
mod barrier;
mod bcast;
pub(crate) mod table;

pub use table::{CollTable, TableEntry};

use lmpi_obs::CollAlgo;

use crate::metrics::CollDispatchEntry;
use crate::mpi::Communicator;
use crate::types::Tag;

// ---------------------------------------------------------------------
// Tag scheme
// ---------------------------------------------------------------------

pub(crate) const OP_BARRIER: Tag = 1;
pub(crate) const OP_BCAST: Tag = 2;
pub(crate) const OP_GATHER: Tag = 3;
pub(crate) const OP_SCATTER: Tag = 4;
pub(crate) const OP_REDUCE: Tag = 5;
pub(crate) const OP_ALLGATHER: Tag = 6;
pub(crate) const OP_ALLTOALL: Tag = 7;
pub(crate) const OP_SCAN: Tag = 8;
// 9 is the legacy fault-tolerant agreement window (`T_AGREE`, low tags).
pub(crate) const OP_ALLREDUCE: Tag = 10;

pub(crate) const ALG_DIRECT: Tag = 0;
pub(crate) const ALG_BINOMIAL: Tag = 1;
pub(crate) const ALG_SCATTER_ALLGATHER: Tag = 2;
pub(crate) const ALG_RING: Tag = 3;
pub(crate) const ALG_RECURSIVE_DOUBLING: Tag = 4;
pub(crate) const ALG_DISSEMINATION: Tag = 5;
pub(crate) const ALG_TREE: Tag = 6;
pub(crate) const ALG_GATHER_BCAST: Tag = 7;
pub(crate) const ALG_REDUCE_BCAST: Tag = 8;

/// Compose a collective wire tag. The result is always below
/// [`crate::TAG_UB`] (maximum `0xAFF_FFFF` < `0xFFF_FFFF`) and never
/// collides across distinct `(op, seq mod 256, algo, step)` tuples.
pub(crate) fn coll_tag(op: Tag, seq: u32, algo: Tag, step: usize) -> Tag {
    debug_assert!((1..=10).contains(&op));
    debug_assert!(algo <= 0xF);
    debug_assert!(step <= 0xFFF, "collective step overflows the tag field");
    (op << 24) | ((seq & 0xFF) << 16) | ((algo & 0xF) << 12) | ((step as Tag) & 0xFFF)
}

// ---------------------------------------------------------------------
// Algorithm families
// ---------------------------------------------------------------------

/// Declare an algorithm family: a subset of [`CollAlgo`]'s variants, whose
/// names (the decision-table format) are [`CollAlgo::name`]'s.
macro_rules! algo_family {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident,)* }) => {
        $(#[$meta])*
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Stable short name, matching the decision-table format.
            pub fn name(self) -> &'static str {
                self.as_obs().name()
            }

            /// Parse a decision-table algorithm name.
            pub fn from_name(name: &str) -> Option<Self> {
                [$($name::$variant),*].into_iter().find(|a| a.name() == name)
            }

            pub(crate) fn as_obs(self) -> CollAlgo {
                match self {
                    $($name::$variant => CollAlgo::$variant,)*
                }
            }
        }
    };
}

algo_family! {
    /// Broadcast algorithm family.
    BcastAlgo {
        /// Binomial tree of point-to-point messages (latency-optimal).
        Binomial,
        /// Root scatters equal blocks, then a ring allgather reassembles them
        /// (van de Geijn; bandwidth-optimal for large payloads).
        ScatterAllgather,
        /// The device's hardware broadcast (Meiko CS/2). Pinning this on a
        /// device without one yields a typed `Unsupported` error.
        Hw,
    }
}

algo_family! {
    /// Allreduce algorithm family.
    AllreduceAlgo {
        /// Binomial reduce to rank 0, then broadcast (the paper's design —
        /// the broadcast phase rides the hardware broadcast where available).
        ReduceBcast,
        /// Ring reduce-scatter followed by a ring allgather
        /// (bandwidth-optimal: each rank moves `2 (n-1)/n` of the vector).
        Ring,
        /// Recursive doubling with the MPICH non-power-of-two fold
        /// (latency-optimal: `ceil(log2 n)` full-vector exchanges).
        RecursiveDoubling,
    }
}

algo_family! {
    /// Barrier algorithm family.
    BarrierAlgo {
        /// Dissemination exchange, `ceil(log2 n)` rounds.
        Dissemination,
        /// Binomial gather-up plus binomial release-down, `2 ceil(log2 n)`
        /// rounds but half the messages per round.
        Tree,
    }
}

algo_family! {
    /// Allgather algorithm family.
    AllgatherAlgo {
        /// Ring exchange, `n - 1` steps of one block each.
        Ring,
        /// Gather to local rank 0, then broadcast the concatenation.
        GatherBcast,
    }
}

/// Per-collective algorithm pins (see [`crate::MpiConfig`]). `None` lets
/// the dispatch layer consult the decision table; `Some` forces one
/// algorithm regardless of substrate, size or payload. Every rank of a
/// job must pin identically.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CollPins {
    /// Pin the broadcast algorithm.
    pub bcast: Option<BcastAlgo>,
    /// Pin the allreduce algorithm.
    pub allreduce: Option<AllreduceAlgo>,
    /// Pin the barrier algorithm.
    pub barrier: Option<BarrierAlgo>,
    /// Pin the allgather algorithm.
    pub allgather: Option<AllgatherAlgo>,
}

// ---------------------------------------------------------------------
// Engine-side dispatch state
// ---------------------------------------------------------------------

/// Per-rank dispatch state living on the engine: the active pins, the
/// loaded decision table, and a per-(collective, algorithm) dispatch
/// tally exported through the metrics snapshot.
pub(crate) struct CollState {
    pub(crate) pins: CollPins,
    pub(crate) table: &'static CollTable,
    tally: Vec<(&'static str, &'static str, u64)>,
    /// Dispatches where a configured pin overrode a different
    /// decision-table choice. Read by the live health evaluator, where a
    /// growing count surfaces as a `coll_mistuned` diagnostic — a
    /// mis-pinned `coll_tuning.json` cell made visible at runtime.
    pub(crate) mispins: u64,
}

impl Default for CollState {
    fn default() -> Self {
        CollState {
            pins: CollPins::default(),
            table: table::runtime_table(),
            tally: Vec::new(),
            mispins: 0,
        }
    }
}

impl CollState {
    /// Count one dispatch of `algorithm` for `collective`.
    pub(crate) fn record(&mut self, collective: &'static str, algorithm: &'static str) {
        for e in &mut self.tally {
            if e.0 == collective && e.1 == algorithm {
                e.2 += 1;
                return;
            }
        }
        self.tally.push((collective, algorithm, 1));
    }

    /// The dispatch tally as snapshot entries, in first-seen order.
    pub(crate) fn dispatch_entries(&self) -> Vec<CollDispatchEntry> {
        self.tally
            .iter()
            .map(|&(c, a, n)| CollDispatchEntry {
                collective: c.to_string(),
                algorithm: a.to_string(),
                count: n,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------

impl Communicator {
    /// Pick `collective`'s algorithm for a `bytes`-byte payload: the
    /// config pin (read by `pin`) if one is set, else `preferred`, else the
    /// decision table's entry for this substrate and size, else `fallback`.
    /// A pin that overrides a different choice counts as a mispin.
    pub(crate) fn select<A: Copy + PartialEq>(
        &self,
        collective: &str,
        bytes: u64,
        preferred: Option<A>,
        from_name: fn(&str) -> Option<A>,
        fallback: A,
        pin: fn(&CollPins) -> Option<A>,
    ) -> A {
        let inner = self.inner();
        let mut eng = inner.eng.lock();
        let unpinned = preferred.unwrap_or_else(|| {
            eng.coll
                .table
                .lookup(inner.device.substrate(), collective, self.size(), bytes)
                .and_then(from_name)
                .unwrap_or(fallback)
        });
        match pin(&eng.coll.pins) {
            Some(a) => {
                eng.coll.mispins += u64::from(a != unpinned);
                a
            }
            None => unpinned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TAG_UB;

    #[test]
    fn coll_tags_stay_below_tag_ub_and_clear_of_agreement() {
        for op in 1..=10u32 {
            for seq in [0u32, 1, 255, 256, 511] {
                for algo in 0..=8u32 {
                    for step in [0usize, 1, 11, 0xFFF] {
                        let t = coll_tag(op, seq, algo, step);
                        assert!(t <= TAG_UB, "tag {t:#x} above TAG_UB");
                        // Legacy agreement tags (9, 25) live below 1 << 24.
                        assert!(t >= 1 << 24, "tag {t:#x} collides with legacy space");
                    }
                }
            }
        }
    }

    #[test]
    fn coll_tags_are_disjoint_across_op_seq_algo_step() {
        let mut seen = std::collections::HashSet::new();
        for op in 1..=10u32 {
            for seq in 0..4u32 {
                for algo in 0..=8u32 {
                    for step in 0..16usize {
                        assert!(
                            seen.insert(coll_tag(op, seq, algo, step)),
                            "tag collision at op={op} seq={seq} algo={algo} step={step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coll_tag_wraps_sequence_mod_256() {
        assert_eq!(coll_tag(2, 256, 1, 0), coll_tag(2, 0, 1, 0));
        assert_ne!(coll_tag(2, 255, 1, 0), coll_tag(2, 0, 1, 0));
    }

    #[test]
    fn algorithm_names_round_trip() {
        for a in [
            BcastAlgo::Binomial,
            BcastAlgo::ScatterAllgather,
            BcastAlgo::Hw,
        ] {
            assert_eq!(BcastAlgo::from_name(a.name()), Some(a));
        }
        for a in [
            AllreduceAlgo::ReduceBcast,
            AllreduceAlgo::Ring,
            AllreduceAlgo::RecursiveDoubling,
        ] {
            assert_eq!(AllreduceAlgo::from_name(a.name()), Some(a));
        }
        for a in [BarrierAlgo::Dissemination, BarrierAlgo::Tree] {
            assert_eq!(BarrierAlgo::from_name(a.name()), Some(a));
        }
        for a in [AllgatherAlgo::Ring, AllgatherAlgo::GatherBcast] {
            assert_eq!(AllgatherAlgo::from_name(a.name()), Some(a));
        }
        assert_eq!(BcastAlgo::from_name("quantum"), None);
    }
}
