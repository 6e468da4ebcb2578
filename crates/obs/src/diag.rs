//! Rule-based diagnostics: the one rule engine.
//!
//! The ROADMAP's production north star is a system that *explains its own
//! slowness*. [`diagnose`] runs seven rules over per-rank [`RankStats`]
//! readings, with a [`FlightRecord`] and the raw trace rings for context,
//! and emits typed [`Diagnostic`]s, each with the trace events that
//! justify it attached as evidence:
//!
//! * **credit starvation** — a rank spent more than 5 % of the span
//!   stalled waiting for send credit;
//! * **retransmit storm** — the reliability layer (selective repeat by
//!   default, or go-back-N) resent more than 5 % of the data frames it
//!   sent;
//! * **unexpected-queue growth** — the unexpected-message queue's high
//!   water mark says receives are chronically posted late;
//! * **matcher-bin skew** — one matching bin got much deeper than the
//!   average posted depth, so hashed matching is degrading toward the
//!   linear scan it replaced;
//! * **dead peer** — the liveness machine declared a peer dead, so a
//!   batch of `PeerFailed` completions traces back to a rank failure
//!   rather than a protocol bug;
//! * **progress starvation** — the progress thread's wakeup-to-drain p99
//!   says it is not being scheduled promptly;
//! * **collective mis-tuning** — a pinned collective algorithm keeps
//!   overriding the decision table's choice.
//!
//! The same rules judge a whole run (the flight recorder, over lifetime
//! totals) and a rolling window (the live health evaluator in
//! `lmpi-core`, every 100 ms): [`RankStats::since`] turns two readings
//! into the one input both use. The thresholds are constants, chosen
//! conservatively (diagnostics are alarms, not telemetry).

use crate::correlate::FlightRecord;
use crate::event::{Event, EventKind};
use crate::json::{array, Obj, ToJson};
use crate::tracer::TraceBuffer;

/// Credit starvation: stalled fraction of the span above this…
const CREDIT_STALL_FRAC: f64 = 0.05;
/// …and at least this much absolute stall time, ns.
const MIN_CREDIT_STALL_NS: u64 = 10_000;
/// Retransmit storm: retransmits / data frames above this…
const RETRANSMIT_FRAC: f64 = 0.05;
/// …and at least this many retransmits.
const MIN_RETRANSMITS: u64 = 3;
/// Unexpected growth: queue high water mark at or above this.
const UNEXPECTED_HWM: u64 = 16;
/// Bin skew: deepest bin at or above this…
const BIN_SKEW_DEPTH: u64 = 16;
/// …and at least this many matches performed (skew over a handful of
/// messages is noise).
const MIN_MATCHES: u64 = 32;
/// Progress starvation: wakeup-to-drain p99 at or above this, ns…
const STARVATION_P99_NS: u64 = 50_000_000;
/// …over at least this many wakeups.
const STARVATION_MIN_SAMPLES: u64 = 8;
/// Evidence events attached per diagnostic.
const MAX_EVIDENCE: usize = 16;

/// One reading of the per-rank numbers the rules need, decoupled from
/// `lmpi-core`'s `Counters` so the dependency arrow keeps pointing the
/// right way (core depends on obs, never the reverse). Cumulative
/// counters unless a field says it is a gauge; see [`RankStats::since`].
#[derive(Copy, Clone, Debug, Default)]
pub struct RankStats {
    /// Rank these numbers describe.
    pub rank: u32,
    /// Wall/virtual time the reading covers, ns.
    pub span_ns: u64,
    /// Total time sends sat queued for lack of credit, ns.
    pub credit_stall_ns: u64,
    /// Envelope matches performed.
    pub matches: u64,
    /// Matches served from the unexpected queue.
    pub unexpected_hits: u64,
    /// Unexpected-queue high water mark (messages; gauge).
    pub unexpected_hwm: u64,
    /// Deepest posted-receive matching bin seen (receives; gauge).
    pub match_bin_depth_hwm: u64,
    /// Data frames the reliability layer transmitted.
    pub data_frames_sent: u64,
    /// Frames the reliability layer retransmitted.
    pub retransmits: u64,
    /// Peers this rank's liveness machine declared dead.
    pub peers_dead: u64,
    /// p99 of the progress thread's wakeup-to-drain latency over its
    /// lifetime, ns (gauge: a starved thread keeps pushing it up, so the
    /// finding persists while the cause does).
    pub wake_to_drain_p99_ns: u64,
    /// Wakeups behind [`RankStats::wake_to_drain_p99_ns`] (gauge).
    pub wake_to_drain_samples: u64,
    /// Collective dispatches where a configured pin overrode a different
    /// decision-table choice.
    pub coll_mispins: u64,
}

impl RankStats {
    /// What accumulated between `prev` and `self`, two readings of one
    /// rank: counters become deltas, gauges keep `self`'s value. Since
    /// `RankStats::default()` it is the lifetime total, so a rolling
    /// window and a whole run are the same input to [`diagnose`].
    pub fn since(&self, prev: &RankStats) -> RankStats {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        RankStats {
            span_ns: d(self.span_ns, prev.span_ns),
            credit_stall_ns: d(self.credit_stall_ns, prev.credit_stall_ns),
            matches: d(self.matches, prev.matches),
            unexpected_hits: d(self.unexpected_hits, prev.unexpected_hits),
            data_frames_sent: d(self.data_frames_sent, prev.data_frames_sent),
            retransmits: d(self.retransmits, prev.retransmits),
            peers_dead: d(self.peers_dead, prev.peers_dead),
            coll_mispins: d(self.coll_mispins, prev.coll_mispins),
            ..*self
        }
    }
}

/// Which pathology a [`Diagnostic`] reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DiagKind {
    /// Sends starved for flow-control credit.
    CreditStarvation,
    /// The reliability layer retransmitted an outsized share of traffic.
    RetransmitStorm,
    /// Unexpected-message queue grew past its threshold.
    UnexpectedQueueGrowth,
    /// One matching bin far deeper than typical posted depth.
    MatcherBinSkew,
    /// The liveness machine declared one or more peers dead.
    DeadPeer,
    /// The background progress thread is starved: frames wait too long
    /// between arrival and drain.
    ProgressStarvation,
    /// A pinned collective algorithm keeps overriding the tuned table's
    /// choice — the pin (or the table) is mis-tuned.
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
    /// Up to 16 of the rank's trace events backing the finding (e.g. the
    /// `CreditStall`/`CreditResume` pairs); empty without trace rings.
    pub evidence: Vec<Event>,
}

/// Run the diagnostic rules over one reading per rank. `record` supplies
/// per-message context (the stalled flights named in summaries), `bufs`
/// the raw evidence events; both may be empty.
pub fn diagnose(
    record: &FlightRecord,
    bufs: &[TraceBuffer],
    stats: &[RankStats],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for s in stats {
        let mut found = |kind, summary, evidence: fn(&EventKind) -> bool| {
            out.push(Diagnostic {
                kind,
                rank: s.rank,
                summary,
                evidence: bufs
                    .iter()
                    .filter(|b| b.rank == s.rank)
                    .flat_map(|b| b.events.iter())
                    .filter(|e| evidence(&e.kind))
                    .take(MAX_EVIDENCE)
                    .copied()
                    .collect(),
            })
        };

        // Rule 1: credit starvation.
        let stall_frac = s.credit_stall_ns as f64 / s.span_ns.max(1) as f64;
        if s.span_ns > 0
            && s.credit_stall_ns >= MIN_CREDIT_STALL_NS
            && stall_frac > CREDIT_STALL_FRAC
        {
            let stalled_msgs = record
                .timelines
                .iter()
                .filter(|t| t.msg.src == s.rank && t.credit_stalled)
                .count();
            found(
                DiagKind::CreditStarvation,
                format!(
                    "rank {} spent {} ns ({:.1}% of the {} ns span) stalled for send \
                     credit across {} messages; raise env_slots or post receives sooner",
                    s.rank,
                    s.credit_stall_ns,
                    stall_frac * 100.0,
                    s.span_ns,
                    stalled_msgs,
                ),
                |k| {
                    matches!(
                        k,
                        EventKind::CreditStall { .. } | EventKind::CreditResume { .. }
                    )
                },
            );
        }

        // Rule 2: retransmit storm.
        let retx_frac = s.retransmits as f64 / s.data_frames_sent.max(1) as f64;
        if s.retransmits >= MIN_RETRANSMITS && s.data_frames_sent > 0 && retx_frac > RETRANSMIT_FRAC
        {
            found(
                DiagKind::RetransmitStorm,
                format!(
                    "rank {} retransmitted {} of {} data frames ({:.1}%); the link is \
                     lossy or the RTO is below the path RTT",
                    s.rank,
                    s.retransmits,
                    s.data_frames_sent,
                    retx_frac * 100.0,
                ),
                |k| {
                    matches!(
                        k,
                        EventKind::Retransmit { .. } | EventKind::FaultInjected { .. }
                    )
                },
            );
        }

        // Rule 3: unexpected-queue growth.
        if s.unexpected_hwm >= UNEXPECTED_HWM {
            found(
                DiagKind::UnexpectedQueueGrowth,
                format!(
                    "rank {} buffered up to {} unexpected messages ({} of {} matches were \
                     unexpected); receives are being posted after the data arrives",
                    s.rank, s.unexpected_hwm, s.unexpected_hits, s.matches,
                ),
                |k| matches!(k, EventKind::UnexpectedBuffered { .. }),
            );
        }

        // Rule 4: matcher-bin skew.
        if s.match_bin_depth_hwm >= BIN_SKEW_DEPTH && s.matches >= MIN_MATCHES {
            found(
                DiagKind::MatcherBinSkew,
                format!(
                    "rank {}'s deepest matching bin held {} posted receives (over {} \
                     matches); many receives share one (context,src,tag) key and \
                     matching degrades toward a linear scan",
                    s.rank, s.match_bin_depth_hwm, s.matches,
                ),
                |k| matches!(k, EventKind::RecvPosted { .. }),
            );
        }

        // Rule 5: dead peer. Unlike the other rules this is not a tuning
        // alarm — it reports a rank-level failure so a run summary shows
        // *why* a batch of requests resolved to `PeerFailed`.
        if s.peers_dead > 0 {
            found(
                DiagKind::DeadPeer,
                format!(
                    "rank {} declared {} peer(s) dead (heartbeat timeout or retransmit \
                     exhaustion); operations naming them failed fast — revoke and shrink \
                     the communicator to continue",
                    s.rank, s.peers_dead,
                ),
                |k| {
                    matches!(
                        k,
                        EventKind::PeerSuspect { .. } | EventKind::PeerDead { .. }
                    )
                },
            );
        }

        // Rule 6: progress starvation.
        if s.wake_to_drain_samples >= STARVATION_MIN_SAMPLES
            && s.wake_to_drain_p99_ns >= STARVATION_P99_NS
        {
            found(
                DiagKind::ProgressStarvation,
                format!(
                    "rank {}'s progress thread wakeup-to-drain p99 is {} ns over {} wakeups \
                     (threshold {} ns): the thread is not being scheduled promptly",
                    s.rank, s.wake_to_drain_p99_ns, s.wake_to_drain_samples, STARVATION_P99_NS,
                ),
                |_| false,
            );
        }

        // Rule 7: collective mis-tuning — the mis-pinned `coll_tuning.json`
        // cell made visible.
        if s.coll_mispins > 0 {
            found(
                DiagKind::CollMistuned,
                format!(
                    "rank {} ran {} collectives on a pinned algorithm the decision table \
                     would not have chosen; the pin (or the table) is mis-tuned",
                    s.rank, s.coll_mispins,
                ),
                |k| matches!(k, EventKind::CollBegin { .. }),
            );
        }
    }

    out
}

/// One finding as an object, evidence as `{t_ns, msg, event}` rows.
impl ToJson for Diagnostic {
    fn to_json(&self) -> String {
        let ev: Vec<String> = self
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
            .str("kind", self.kind.name())
            .u64("rank", self.rank as u64)
            .str("summary", &self.summary)
            .raw("evidence", &array(&ev))
            .finish()
    }
}

/// Render diagnostics as a JSON array, one object per finding.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    array(&diags.iter().map(ToJson::to_json).collect::<Vec<_>>())
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
        let d = diagnose(&FlightRecord::default(), &[], &[stats(0), stats(1)]);
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
        let diags = diagnose(&record, &bufs, &[s]);
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
        let diags = diagnose(&FlightRecord::default(), &[], &[s]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::RetransmitStorm);
        // Below the absolute floor: silent even at a high fraction.
        s.data_frames_sent = 10;
        s.retransmits = 2;
        assert!(diagnose(&FlightRecord::default(), &[], &[s]).is_empty());
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
        let diags = diagnose(&record, &bufs, &[s]);
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
        s.match_bin_depth_hwm = 32;
        s.unexpected_hits = 40;
        let diags = diagnose(&FlightRecord::default(), &[], &[s]);
        let kinds: Vec<DiagKind> = diags.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DiagKind::UnexpectedQueueGrowth));
        assert!(kinds.contains(&DiagKind::MatcherBinSkew));
        validate(&diagnostics_json(&diags)).unwrap();
    }

    fn kinds(stats: RankStats) -> Vec<DiagKind> {
        diagnose(&FlightRecord::default(), &[], &[stats])
            .iter()
            .map(|d| d.kind)
            .collect()
    }

    /// The live evaluator's use: a storm in the window since the last
    /// reading fires even when the lifetime ratio is small.
    #[test]
    fn retransmit_storm_judges_the_delta_since_the_last_reading() {
        // First reading: 1 000 data frames, no retransmits — a clean baseline.
        let prev = RankStats {
            span_ns: 10_000,
            data_frames_sent: 1_000,
            ..stats(0)
        };
        // Second: only 10 more frames but 8 retransmits.
        let now = RankStats {
            span_ns: 20_000,
            data_frames_sent: 1_010,
            retransmits: 8,
            ..stats(0)
        };
        assert!(kinds(prev.since(&RankStats::default())).is_empty());
        assert_eq!(kinds(now.since(&prev)), [DiagKind::RetransmitStorm]);
        assert!(kinds(now.since(&RankStats::default())).is_empty());
    }

    #[test]
    fn coll_mistuned_fires_once_per_new_mispins() {
        let first = RankStats {
            coll_mispins: 3,
            ..stats(0)
        };
        assert_eq!(
            kinds(first.since(&RankStats::default())),
            [DiagKind::CollMistuned]
        );
        // No new mispins: the finding clears.
        assert!(kinds(first.since(&first)).is_empty());
    }

    #[test]
    fn progress_starvation_fires_on_a_slow_wakeup_tail() {
        let starved = RankStats {
            wake_to_drain_p99_ns: 60_000_000,
            wake_to_drain_samples: 8,
            ..stats(1)
        };
        // A gauge: the rolling window sees the lifetime tail as it stands.
        assert_eq!(
            kinds(starved.since(&starved)),
            [DiagKind::ProgressStarvation]
        );
        let d = diagnose(&FlightRecord::default(), &[], &[starved]);
        assert!(d[0].summary.contains("60000000 ns over 8 wakeups"));
        validate(&diagnostics_json(&d)).unwrap();
        // Too few wakeups, or a tail under the threshold: silent.
        for quiet in [
            RankStats {
                wake_to_drain_samples: 7,
                ..starved
            },
            RankStats {
                wake_to_drain_p99_ns: 49_999_999,
                ..starved
            },
        ] {
            assert!(kinds(quiet).is_empty());
        }
    }
}
