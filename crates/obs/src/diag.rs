//! Rule-based stall diagnostics over correlated flight records.
//!
//! The ROADMAP's production north star is a system that *explains its own
//! slowness*. This pass runs five rules over a [`FlightRecord`] plus the
//! per-rank engine counters and emits typed [`Diagnostic`]s, each with
//! the trace events that justify it attached as evidence:
//!
//! * **credit starvation** — a rank spent more than a configured
//!   fraction of the run stalled waiting for send credit;
//! * **retransmit storm** — the go-back-N layer resent more than a
//!   configured fraction of the data frames it sent;
//! * **unexpected-queue growth** — the unexpected-message queue's high
//!   water mark says receives are chronically posted late;
//! * **matcher-bin skew** — one matching bin got much deeper than the
//!   average posted depth, so hashed matching is degrading toward the
//!   linear scan it replaced;
//! * **dead peer** — the liveness machine declared a peer dead, so a
//!   batch of `PeerFailed` completions traces back to a rank failure
//!   rather than a protocol bug.
//!
//! Thresholds live in [`DiagConfig`]; the defaults are deliberately
//! conservative (diagnostics are alarms, not telemetry).

use crate::correlate::FlightRecord;
use crate::event::{Event, EventKind};
use crate::json::{array, Obj};
use crate::tracer::TraceBuffer;

/// Per-rank counter snapshot the rules need, decoupled from
/// `lmpi-core`'s `Counters` so the dependency arrow keeps pointing the
/// right way (core depends on obs, never the reverse).
#[derive(Copy, Clone, Debug, Default)]
pub struct RankStats {
    /// Rank these numbers describe.
    pub rank: u32,
    /// Wall/virtual span of the observed run, ns.
    pub span_ns: u64,
    /// Total time sends sat queued for lack of credit, ns.
    pub credit_stall_ns: u64,
    /// Envelope matches performed.
    pub matches: u64,
    /// Matches served from the unexpected queue.
    pub unexpected_hits: u64,
    /// Unexpected-queue high water mark (messages).
    pub unexpected_hwm: u64,
    /// Deepest posted-receive matching bin seen (messages).
    pub match_bins_hwm: u64,
    /// Data frames the reliability layer transmitted.
    pub data_frames_sent: u64,
    /// Frames the reliability layer retransmitted.
    pub retransmits: u64,
    /// Peers this rank's liveness machine declared dead.
    pub peers_dead: u64,
}

/// Which pathology a [`Diagnostic`] reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DiagKind {
    /// Sends starved for flow-control credit.
    CreditStarvation,
    /// Go-back-N retransmitted an outsized share of traffic.
    RetransmitStorm,
    /// Unexpected-message queue grew past its threshold.
    UnexpectedQueueGrowth,
    /// One matching bin far deeper than typical posted depth.
    MatcherBinSkew,
    /// The liveness machine declared one or more peers dead.
    DeadPeer,
    /// The background progress thread is starved: frames wait too long
    /// between arrival and drain (emitted by the live health evaluator
    /// in `lmpi-core`, not by [`diagnose`]).
    ProgressStarvation,
    /// A pinned collective algorithm keeps overriding the tuned table's
    /// choice — the pin (or the table) is mis-tuned (emitted by the
    /// live health evaluator in `lmpi-core`).
    CollMistuned,
}

impl DiagKind {
    /// Stable name for report rendering.
    pub fn name(self) -> &'static str {
        match self {
            DiagKind::CreditStarvation => "credit_starvation",
            DiagKind::RetransmitStorm => "retransmit_storm",
            DiagKind::UnexpectedQueueGrowth => "unexpected_queue_growth",
            DiagKind::MatcherBinSkew => "matcher_bin_skew",
            DiagKind::DeadPeer => "dead_peer",
            DiagKind::ProgressStarvation => "progress_starvation",
            DiagKind::CollMistuned => "coll_mistuned",
        }
    }
}

/// One diagnosed pathology on one rank, with supporting trace events.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// What was diagnosed.
    pub kind: DiagKind,
    /// Rank exhibiting it.
    pub rank: u32,
    /// Human-readable account with the numbers that tripped the rule.
    pub summary: String,
    /// Up to [`DiagConfig::max_evidence`] trace events backing the
    /// finding (e.g. the `CreditStall`/`CreditResume` pairs).
    pub evidence: Vec<Event>,
}

/// Rule thresholds. `Default` gives the conservative production set.
#[derive(Copy, Clone, Debug)]
pub struct DiagConfig {
    /// Credit starvation: stalled fraction of the span above this…
    pub credit_stall_frac: f64,
    /// …and at least this much absolute stall time, ns.
    pub min_credit_stall_ns: u64,
    /// Retransmit storm: retransmits / data frames above this…
    pub retransmit_frac: f64,
    /// …and at least this many retransmits.
    pub min_retransmits: u64,
    /// Unexpected growth: queue high water mark at or above this.
    pub unexpected_hwm: u64,
    /// Bin skew: deepest bin at or above this…
    pub bin_skew_depth: u64,
    /// …and at least this many matches performed (skew over a handful
    /// of messages is noise).
    pub min_matches: u64,
    /// Evidence events attached per diagnostic.
    pub max_evidence: usize,
}

impl Default for DiagConfig {
    fn default() -> Self {
        DiagConfig {
            credit_stall_frac: 0.05,
            min_credit_stall_ns: 10_000,
            retransmit_frac: 0.05,
            min_retransmits: 3,
            unexpected_hwm: 16,
            bin_skew_depth: 16,
            min_matches: 32,
            max_evidence: 16,
        }
    }
}

/// Collect up to `cap` events from `rank`'s buffer matching `pred`.
fn gather_evidence(
    bufs: &[TraceBuffer],
    rank: u32,
    cap: usize,
    pred: impl Fn(&EventKind) -> bool,
) -> Vec<Event> {
    bufs.iter()
        .filter(|b| b.rank == rank)
        .flat_map(|b| b.events.iter())
        .filter(|e| pred(&e.kind))
        .take(cap)
        .copied()
        .collect()
}

/// Run the diagnostic rules. `record` supplies per-message context (the
/// stalled flights named in summaries), `bufs` the raw evidence events,
/// `stats` the per-rank counter snapshots.
pub fn diagnose(
    record: &FlightRecord,
    bufs: &[TraceBuffer],
    stats: &[RankStats],
    cfg: &DiagConfig,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for s in stats {
        // Rule 1: credit starvation.
        if s.span_ns > 0 && s.credit_stall_ns >= cfg.min_credit_stall_ns {
            let frac = s.credit_stall_ns as f64 / s.span_ns as f64;
            if frac > cfg.credit_stall_frac {
                let stalled_msgs = record
                    .timelines
                    .iter()
                    .filter(|t| t.msg.src == s.rank && t.credit_stalled)
                    .count();
                out.push(Diagnostic {
                    kind: DiagKind::CreditStarvation,
                    rank: s.rank,
                    summary: format!(
                        "rank {} spent {} ns ({:.1}% of the {} ns span) stalled for send \
                         credit across {} messages; raise env_slots or post receives sooner",
                        s.rank,
                        s.credit_stall_ns,
                        frac * 100.0,
                        s.span_ns,
                        stalled_msgs,
                    ),
                    evidence: gather_evidence(bufs, s.rank, cfg.max_evidence, |k| {
                        matches!(
                            k,
                            EventKind::CreditStall { .. } | EventKind::CreditResume { .. }
                        )
                    }),
                });
            }
        }

        // Rule 2: retransmit storm.
        if s.retransmits >= cfg.min_retransmits && s.data_frames_sent > 0 {
            let frac = s.retransmits as f64 / s.data_frames_sent as f64;
            if frac > cfg.retransmit_frac {
                out.push(Diagnostic {
                    kind: DiagKind::RetransmitStorm,
                    rank: s.rank,
                    summary: format!(
                        "rank {} retransmitted {} of {} data frames ({:.1}%); the link is \
                         lossy or the RTO is below the path RTT",
                        s.rank,
                        s.retransmits,
                        s.data_frames_sent,
                        frac * 100.0,
                    ),
                    evidence: gather_evidence(bufs, s.rank, cfg.max_evidence, |k| {
                        matches!(
                            k,
                            EventKind::Retransmit { .. } | EventKind::FaultInjected { .. }
                        )
                    }),
                });
            }
        }

        // Rule 3: unexpected-queue growth.
        if s.unexpected_hwm >= cfg.unexpected_hwm {
            out.push(Diagnostic {
                kind: DiagKind::UnexpectedQueueGrowth,
                rank: s.rank,
                summary: format!(
                    "rank {} buffered up to {} unexpected messages ({} of {} matches were \
                     unexpected); receives are being posted after the data arrives",
                    s.rank, s.unexpected_hwm, s.unexpected_hits, s.matches,
                ),
                evidence: gather_evidence(bufs, s.rank, cfg.max_evidence, |k| {
                    matches!(k, EventKind::UnexpectedBuffered { .. })
                }),
            });
        }

        // Rule 4: matcher-bin skew.
        if s.match_bins_hwm >= cfg.bin_skew_depth && s.matches >= cfg.min_matches {
            out.push(Diagnostic {
                kind: DiagKind::MatcherBinSkew,
                rank: s.rank,
                summary: format!(
                    "rank {}'s deepest matching bin held {} posted receives (over {} \
                     matches); many receives share one (context,src,tag) key and \
                     matching degrades toward a linear scan",
                    s.rank, s.match_bins_hwm, s.matches,
                ),
                evidence: gather_evidence(bufs, s.rank, cfg.max_evidence, |k| {
                    matches!(k, EventKind::RecvPosted { .. })
                }),
            });
        }

        // Rule 5: dead peer. Unlike the other rules this is not a tuning
        // alarm — it reports a rank-level failure so a run summary shows
        // *why* a batch of requests resolved to `PeerFailed`.
        if s.peers_dead > 0 {
            out.push(Diagnostic {
                kind: DiagKind::DeadPeer,
                rank: s.rank,
                summary: format!(
                    "rank {} declared {} peer(s) dead (heartbeat timeout or retransmit \
                     exhaustion); operations naming them failed fast — revoke and shrink \
                     the communicator to continue",
                    s.rank, s.peers_dead,
                ),
                evidence: gather_evidence(bufs, s.rank, cfg.max_evidence, |k| {
                    matches!(
                        k,
                        EventKind::PeerSuspect { .. } | EventKind::PeerDead { .. }
                    )
                }),
            });
        }
    }

    out
}

/// Render diagnostics as a JSON array (one object per finding, evidence
/// as `{t_ns, msg, event}` rows).
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let rows: Vec<String> = diags
        .iter()
        .map(|d| {
            let ev: Vec<String> = d
                .evidence
                .iter()
                .map(|e| {
                    Obj::new()
                        .u64("t_ns", e.t_ns)
                        .str("msg", &format!("{}:{}", e.msg.src, e.msg.seq))
                        .str("event", e.kind.name())
                        .finish()
                })
                .collect();
            Obj::new()
                .str("kind", d.kind.name())
                .u64("rank", d.rank as u64)
                .str("summary", &d.summary)
                .raw("evidence", &array(&ev))
                .finish()
        })
        .collect();
    array(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::correlate;
    use crate::event::MsgId;
    use crate::json::validate;
    use crate::tracer::Tracer;

    fn stats(rank: u32) -> RankStats {
        RankStats {
            rank,
            span_ns: 1_000_000,
            ..RankStats::default()
        }
    }

    #[test]
    fn quiet_run_produces_no_diagnostics() {
        let d = diagnose(
            &FlightRecord::default(),
            &[],
            &[stats(0), stats(1)],
            &DiagConfig::default(),
        );
        assert!(d.is_empty());
    }

    #[test]
    fn credit_starvation_fires_with_stall_evidence() {
        let t = Tracer::enabled(0, 16);
        let m = MsgId { src: 0, seq: 1 };
        t.emit_msg_at(100, m, EventKind::CreditStall { peer: 1 });
        t.emit_at(
            200_100,
            EventKind::CreditResume {
                peer: 1,
                stalled_ns: 200_000,
            },
        );
        let bufs = [t.snapshot()];
        let record = correlate(&bufs);
        let mut s = stats(0);
        s.credit_stall_ns = 200_000; // 20% of the span
        let diags = diagnose(&record, &bufs, &[s], &DiagConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::CreditStarvation);
        assert_eq!(diags[0].rank, 0);
        assert_eq!(diags[0].evidence.len(), 2);
        assert!(diags[0].summary.contains("1 messages"));
        validate(&diagnostics_json(&diags)).unwrap();
    }

    #[test]
    fn retransmit_storm_fires_above_fraction() {
        let mut s = stats(2);
        s.data_frames_sent = 100;
        s.retransmits = 20;
        let diags = diagnose(&FlightRecord::default(), &[], &[s], &DiagConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::RetransmitStorm);
        // Below the absolute floor: silent even at a high fraction.
        s.data_frames_sent = 10;
        s.retransmits = 2;
        assert!(diagnose(&FlightRecord::default(), &[], &[s], &DiagConfig::default()).is_empty());
    }

    #[test]
    fn dead_peer_fires_with_liveness_evidence() {
        let t = Tracer::enabled(0, 16);
        t.emit_at(50_000, EventKind::PeerSuspect { peer: 3 });
        t.emit_at(90_000, EventKind::PeerDead { peer: 3 });
        let bufs = [t.snapshot()];
        let record = correlate(&bufs);
        let mut s = stats(0);
        s.peers_dead = 1;
        let diags = diagnose(&record, &bufs, &[s], &DiagConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::DeadPeer);
        assert_eq!(diags[0].evidence.len(), 2, "suspect + dead events attached");
        assert!(diags[0].summary.contains("1 peer(s) dead"));
        validate(&diagnostics_json(&diags)).unwrap();
    }

    #[test]
    fn unexpected_growth_and_bin_skew_fire_on_hwm() {
        let mut s = stats(1);
        s.unexpected_hwm = 40;
        s.matches = 64;
        s.match_bins_hwm = 32;
        s.unexpected_hits = 40;
        let diags = diagnose(&FlightRecord::default(), &[], &[s], &DiagConfig::default());
        let kinds: Vec<DiagKind> = diags.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DiagKind::UnexpectedQueueGrowth));
        assert!(kinds.contains(&DiagKind::MatcherBinSkew));
        validate(&diagnostics_json(&diags)).unwrap();
    }
}
