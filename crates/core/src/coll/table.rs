//! The persisted collective decision table.
//!
//! The table is a flat list of [`TableEntry`] rows keyed on *(substrate,
//! collective, max ranks, max payload bytes)*. The committed copy lives at
//! `crates/bench/baselines/coll_tuning.json` (regenerated by
//! `coll_tune --record`) and is embedded into the library at build time.
//! A unit test and `coll_tune --check` guard that it parses; should it
//! ever not, the table is empty and every dispatch takes its family's
//! default — a bad table must never turn into a bad run.
//!
//! The on-disk format is one JSON object holding an `"entries"` array of
//! flat objects with string/integer fields, read through the workspace's
//! one JSON reader (`lmpi_obs::parse_json`).

use std::sync::OnceLock;

use lmpi_obs::Json;

/// One decision-table row. A row *covers* a query when the substrate
/// matches (`"any"` is a wildcard), the collective matches, and the
/// communicator size / payload are within its bounds (`0` = unbounded).
/// Among covering rows the most specific wins: exact substrate before
/// wildcard, then tighter rank bound, then tighter byte bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableEntry {
    /// Device substrate name, or `"any"`.
    pub substrate: String,
    /// Collective name: `barrier`, `bcast`, `allreduce`, `allgather`.
    pub collective: String,
    /// Largest communicator size this row applies to; `0` = unbounded.
    pub max_ranks: usize,
    /// Largest payload (bytes) this row applies to; `0` = unbounded.
    pub max_bytes: u64,
    /// Algorithm name, in the family's `from_name` vocabulary.
    pub algorithm: String,
}

/// A loaded decision table (see [`TableEntry`] for row semantics).
#[derive(Clone, Debug, Default)]
pub struct CollTable {
    entries: Vec<TableEntry>,
}

impl CollTable {
    /// Build a table from rows.
    pub fn new(entries: Vec<TableEntry>) -> Self {
        CollTable { entries }
    }

    /// The rows, in file order.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Most specific algorithm for the query, or `None` when no row
    /// covers it.
    pub fn lookup(
        &self,
        substrate: &str,
        collective: &str,
        nranks: usize,
        bytes: u64,
    ) -> Option<&str> {
        self.entries
            .iter()
            .filter(|e| {
                e.collective == collective
                    && (e.substrate == "any" || e.substrate == substrate)
                    && (e.max_ranks == 0 || nranks <= e.max_ranks)
                    && (e.max_bytes == 0 || bytes <= e.max_bytes)
            })
            .min_by_key(|e| {
                (
                    u8::from(e.substrate == "any"),
                    if e.max_ranks == 0 {
                        usize::MAX
                    } else {
                        e.max_ranks
                    },
                    if e.max_bytes == 0 {
                        u64::MAX
                    } else {
                        e.max_bytes
                    },
                )
            })
            .map(|e| e.algorithm.as_str())
    }

    /// Parse the table format: one JSON object holding an `"entries"`
    /// array of row objects (other members are ignored). Errors name the
    /// offending construct; an empty `entries` array parses to an empty
    /// table.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = lmpi_obs::parse_json(text)?;
        let rows = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("missing \"entries\" array")?;
        let entries = rows
            .iter()
            .map(|row| {
                let text = |k: &str| {
                    row.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("entry missing string {k:?}"))
                };
                let number = |k: &str| {
                    row.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("entry missing unsigned integer {k:?}"))
                };
                Ok(TableEntry {
                    substrate: text("substrate")?,
                    collective: text("collective")?,
                    max_ranks: number("max_ranks")? as usize,
                    max_bytes: number("max_bytes")?,
                    algorithm: text("algorithm")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(CollTable::new(entries))
    }
}

/// The committed tuning table, embedded at build time so runtime dispatch
/// needs no filesystem access.
const EMBEDDED: &str = include_str!("../../../bench/baselines/coll_tuning.json");

static TABLE: OnceLock<CollTable> = OnceLock::new();

/// The process-wide decision table: the embedded committed table, or an
/// empty one if it does not parse. Loaded once per process.
pub(crate) fn runtime_table() -> &'static CollTable {
    TABLE.get_or_init(|| {
        CollTable::parse(EMBEDDED).unwrap_or_else(|e| {
            eprintln!(
                "lmpi: malformed collective tuning table ({e}); using per-collective defaults"
            );
            CollTable::default()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_table_parses_and_covers_the_dispatch_grid() {
        let t = CollTable::parse(EMBEDDED).expect("committed table must parse");
        assert!(!t.entries().is_empty());
        for coll in ["barrier", "bcast", "allreduce", "allgather"] {
            for sub in ["shm", "meiko", "sim-tcp", "weird-future-substrate"] {
                for n in [2usize, 3, 4, 8, 64] {
                    for bytes in [0u64, 64, 4096, 65536, 1 << 20] {
                        assert!(
                            t.lookup(sub, coll, n, bytes).is_some(),
                            "no row covers ({sub}, {coll}, {n}, {bytes})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_prefers_exact_substrate_then_tighter_bounds() {
        let t = CollTable::new(vec![
            TableEntry {
                substrate: "any".into(),
                collective: "bcast".into(),
                max_ranks: 0,
                max_bytes: 0,
                algorithm: "scatter_allgather".into(),
            },
            TableEntry {
                substrate: "any".into(),
                collective: "bcast".into(),
                max_ranks: 0,
                max_bytes: 4096,
                algorithm: "binomial".into(),
            },
            TableEntry {
                substrate: "any".into(),
                collective: "bcast".into(),
                max_ranks: 2,
                max_bytes: 0,
                algorithm: "binomial".into(),
            },
            TableEntry {
                substrate: "meiko".into(),
                collective: "bcast".into(),
                max_ranks: 0,
                max_bytes: 0,
                algorithm: "hw".into(),
            },
        ]);
        assert_eq!(t.lookup("meiko", "bcast", 8, 1 << 20), Some("hw"));
        assert_eq!(
            t.lookup("shm", "bcast", 8, 1 << 20),
            Some("scatter_allgather")
        );
        assert_eq!(t.lookup("shm", "bcast", 8, 64), Some("binomial"));
        assert_eq!(t.lookup("shm", "bcast", 2, 1 << 20), Some("binomial"));
        assert_eq!(t.lookup("shm", "barrier", 2, 0), None);
    }

    #[test]
    fn parse_rejects_malformed_tables() {
        assert!(CollTable::parse("").is_err());
        assert!(CollTable::parse("{}").is_err());
        assert!(CollTable::parse("{\"entries\": [{\"substrate\": \"any\"}]}").is_err());
        assert!(CollTable::parse("{\"entries\": [7]}").is_err());
    }

    #[test]
    fn parse_tolerates_metadata_fields_and_empty_entries() {
        let t = CollTable::parse(
            "{\"version\": 1, \"calibrated\": false, \"note\": \"x\", \"entries\": []}",
        )
        .unwrap();
        assert!(t.entries().is_empty());
    }
}
