//! Flow control: who may send how much, and when buffer space is handed
//! back.
//!
//! The paper uses two schemes and we implement both behind one mechanism:
//!
//! * **Meiko**: "we allocate space for a single send envelope for each
//!   sending processor at each receiver" — i.e. one envelope slot per
//!   (sender, receiver) pair, plus a bounce buffer for optimistic data.
//! * **Sockets**: "the receiver keeps a reserved amount of memory for each
//!   sender, to which the sender sends data optimistically. Once freed, the
//!   receiver informs the sender that the space can be reused" — a credit
//!   window, with the returned amount piggybacked in the 4-byte field of the
//!   25-byte header.
//!
//! Both reduce to counted credits: `env` credits (envelope slots) and `data`
//! credits (bounce-buffer bytes). The engine returns credits promptly for
//! envelopes (they are copied into matching structures on arrival) and
//! returns data credits when eager payloads leave the bounce buffer.
//!
//! Rendezvous bulk data is *outside* this ledger entirely: a message
//! charges one envelope credit when its `RndvReq` goes out, and the data
//! phase — a stream of `RndvChunk` frames, one or many — spends nothing
//! further. The receiver granted the transfer into its own posted buffer
//! with the go-ahead, so per-chunk credit would only re-meter space the
//! receiver already promised.

use crate::error::{MpiError, MpiResult};
use crate::types::Rank;

/// Credit state against one peer, from the sender's point of view, plus the
/// credits we owe that peer as a receiver.
#[derive(Clone, Debug)]
struct PeerCredit {
    /// Envelope slots we may still consume at the peer.
    env_avail: u32,
    /// Bounce-buffer bytes we may still consume at the peer.
    data_avail: u64,
    /// Envelope slots we owe the peer (they freed at our side).
    env_owed: u32,
    /// Bounce-buffer bytes we owe the peer.
    data_owed: u64,
    /// When sends to this peer began queueing for credit (ns on the
    /// device clock), if a stall is currently open.
    stall_since: Option<u64>,
}

/// Per-rank flow-control ledger.
#[derive(Debug)]
pub struct FlowControl {
    peers: Vec<PeerCredit>,
    env_slots: u32,
    pub(crate) recv_buf: u64,
    /// Owed data credit above which an explicit `Credit` packet is sent even
    /// with no traffic to piggyback on (a quarter of the reserve).
    explicit_return_threshold: u64,
    /// Number of times a send had to wait for credit (reported in counters).
    pub stalls: u64,
    /// Total time the per-peer send queues spent non-empty waiting for
    /// credit, in nanoseconds on the device clock (reported in counters;
    /// the paper's "when the sender runs out of space it must wait").
    pub stall_ns_total: u64,
    /// Number of credit returns that would have pushed available credit past
    /// the reserve and were clamped. Nonzero only when the transport
    /// re-delivers frames (duplication with no reliability sublayer): the
    /// retransmitted copy carries the same piggybacked return twice.
    pub over_returns: u64,
}

impl FlowControl {
    /// A ledger for `nprocs` peers with `env_slots` envelope slots and
    /// `recv_buf` bounce bytes reserved in each direction of each pair.
    pub fn new(nprocs: usize, env_slots: u32, recv_buf: u64) -> Self {
        FlowControl {
            peers: vec![
                PeerCredit {
                    env_avail: env_slots,
                    data_avail: recv_buf,
                    env_owed: 0,
                    data_owed: 0,
                    stall_since: None,
                };
                nprocs
            ],
            env_slots,
            recv_buf,
            explicit_return_threshold: (recv_buf / 4).max(1),
            stalls: 0,
            stall_ns_total: 0,
            over_returns: 0,
        }
    }

    /// A send to `dst` was queued for lack of credit at `now_ns`. Opens a
    /// stall interval if one is not already open (the interval covers the
    /// whole time the queue is non-empty, not each queued send).
    pub fn stall_started(&mut self, dst: Rank, now_ns: u64) {
        let p = &mut self.peers[dst];
        if p.stall_since.is_none() {
            p.stall_since = Some(now_ns);
        }
    }

    /// The send queue for `dst` fully drained at `now_ns`. Closes the open
    /// stall interval, accumulates it into [`Self::stall_ns_total`], and
    /// returns its length (0 if no stall was open).
    pub fn stall_ended(&mut self, dst: Rank, now_ns: u64) -> u64 {
        match self.peers[dst].stall_since.take() {
            Some(t0) => {
                let d = now_ns.saturating_sub(t0);
                self.stall_ns_total += d;
                d
            }
            None => 0,
        }
    }

    /// Drop the open stall interval for `dst` without accumulating it
    /// (used when cancellation, not returned credit, empties the queue).
    pub fn stall_abandoned(&mut self, dst: Rank) {
        self.peers[dst].stall_since = None;
    }

    /// Can we send an eager message of `len` payload bytes to `dst` now?
    pub fn can_eager(&self, dst: Rank, len: usize) -> bool {
        let p = &self.peers[dst];
        p.env_avail >= 1 && p.data_avail >= len as u64
    }

    /// Can we send a rendezvous envelope to `dst` now?
    pub fn can_rndv(&self, dst: Rank) -> bool {
        self.peers[dst].env_avail >= 1
    }

    /// Consume credit for an eager send. Caller must have checked
    /// [`can_eager`](Self::can_eager); a spend past the window is an
    /// internal accounting bug and is surfaced as a typed error instead of
    /// silently wrapping the ledger in release builds.
    pub fn spend_eager(&mut self, dst: Rank, len: usize) -> MpiResult<()> {
        let p = &mut self.peers[dst];
        let env = p.env_avail.checked_sub(1).ok_or_else(|| {
            MpiError::internal(format!("eager send to rank {dst} with no envelope credit"))
        })?;
        let data = p.data_avail.checked_sub(len as u64).ok_or_else(|| {
            MpiError::internal(format!(
                "eager send of {len} bytes to rank {dst} with only {} data bytes of credit",
                p.data_avail
            ))
        })?;
        // Debit only once both checks pass, so a failed spend leaves the
        // ledger untouched.
        p.env_avail = env;
        p.data_avail = data;
        Ok(())
    }

    /// Consume credit for a rendezvous envelope. Same contract as
    /// [`spend_eager`](Self::spend_eager).
    pub fn spend_rndv(&mut self, dst: Rank) -> MpiResult<()> {
        let p = &mut self.peers[dst];
        p.env_avail = p.env_avail.checked_sub(1).ok_or_else(|| {
            MpiError::internal(format!(
                "rendezvous envelope to rank {dst} with no envelope credit"
            ))
        })?;
        Ok(())
    }

    /// Record a credit return received from `src` (piggybacked or explicit).
    ///
    /// Returns are clamped to the reserve rather than asserted: a lossy
    /// transport that duplicates frames (reliability disabled) re-delivers
    /// the same piggybacked return, and over-crediting ourselves past the
    /// peer's real reserve would let us overrun its bounce buffer.
    pub fn receive_return(&mut self, src: Rank, env: u32, data: u64) {
        let p = &mut self.peers[src];
        let new_env = p.env_avail.saturating_add(env);
        let new_data = p.data_avail.saturating_add(data);
        if new_env > self.env_slots || new_data > self.recv_buf {
            self.over_returns += 1;
        }
        p.env_avail = new_env.min(self.env_slots);
        p.data_avail = new_data.min(self.recv_buf);
    }

    /// As a receiver: note that we freed an envelope slot of `src`.
    pub fn owe_env(&mut self, src: Rank) {
        self.peers[src].env_owed += 1;
    }

    /// As a receiver: note that we freed `len` bounce bytes of `src`.
    pub fn owe_data(&mut self, src: Rank, len: usize) {
        self.peers[src].data_owed += len as u64;
    }

    /// Take everything owed to `dst` for piggybacking on an outgoing frame.
    pub fn take_owed(&mut self, dst: Rank) -> (u32, u64) {
        let p = &mut self.peers[dst];
        (
            std::mem::take(&mut p.env_owed),
            std::mem::take(&mut p.data_owed),
        )
    }

    /// Peers owed enough that an explicit credit packet is warranted
    /// (called when the engine has no traffic to piggyback on). Fills the
    /// caller-owned `out` (cleared first) instead of allocating: this runs
    /// on every progress tick, so the engine passes a reused scratch
    /// buffer.
    pub fn peers_needing_explicit_return(&self, out: &mut Vec<Rank>) {
        out.clear();
        out.extend(
            self.peers
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    p.data_owed >= self.explicit_return_threshold
                        || p.env_owed >= self.env_slots.div_ceil(2).max(1)
                })
                .map(|(r, _)| r),
        );
    }

    /// Outstanding envelope credit against `dst` (for tests/diagnostics).
    #[allow(dead_code)] // exercised by unit tests
    pub fn env_available(&self, dst: Rank) -> u32 {
        self.peers[dst].env_avail
    }

    /// Outstanding data credit against `dst` (for tests/diagnostics).
    #[allow(dead_code)] // exercised by unit tests
    pub fn data_available(&self, dst: Rank) -> u64 {
        self.peers[dst].data_avail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explicit_returns(f: &FlowControl) -> Vec<Rank> {
        let mut out = Vec::new();
        f.peers_needing_explicit_return(&mut out);
        out
    }

    #[test]
    fn spend_and_return_roundtrip() {
        let mut f = FlowControl::new(2, 2, 1000);
        assert!(f.can_eager(1, 600));
        f.spend_eager(1, 600).unwrap();
        assert!(!f.can_eager(1, 600), "only 400 bytes left");
        assert!(f.can_eager(1, 400));
        f.spend_eager(1, 400).unwrap();
        assert!(!f.can_rndv(1), "both envelope slots used");
        f.receive_return(1, 2, 1000);
        assert!(f.can_eager(1, 1000));
    }

    #[test]
    fn single_slot_meiko_policy() {
        let mut f = FlowControl::new(2, 1, 1 << 20);
        assert!(f.can_rndv(1));
        f.spend_rndv(1).unwrap();
        assert!(!f.can_rndv(1), "single slot: second envelope must wait");
        f.receive_return(1, 1, 0);
        assert!(f.can_rndv(1));
    }

    #[test]
    fn overspend_is_a_typed_error_not_a_wrap() {
        // Satellite: in release builds the old `debug_assert!` compiled out
        // and an overspend wrapped `data_avail` to ~u64::MAX, silently
        // minting unlimited credit. Must now be a typed internal error that
        // leaves the ledger untouched (also in release mode).
        let mut f = FlowControl::new(2, 1, 100);
        f.spend_eager(1, 60).unwrap();
        let err = f.spend_eager(1, 60).expect_err("no envelope credit left");
        assert!(matches!(err, MpiError::Internal { .. }), "got {err:?}");
        f.receive_return(1, 1, 0);
        let err = f.spend_eager(1, 60).expect_err("only 40 data bytes left");
        assert!(matches!(err, MpiError::Internal { .. }), "got {err:?}");
        assert_eq!(f.data_available(1), 40, "failed spend must not debit");
        assert_eq!(f.env_available(1), 1, "failed spend must not debit");
        let err = f.spend_rndv(1).err();
        assert!(err.is_none(), "envelope credit is back: {err:?}");
        let err = f.spend_rndv(1).expect_err("slot used again");
        assert!(matches!(err, MpiError::Internal { .. }), "got {err:?}");
    }

    #[test]
    fn owed_credit_accumulates_and_drains() {
        let mut f = FlowControl::new(3, 4, 1000);
        f.owe_env(2);
        f.owe_env(2);
        f.owe_data(2, 128);
        assert_eq!(f.take_owed(2), (2, 128));
        assert_eq!(f.take_owed(2), (0, 0), "drained");
    }

    #[test]
    fn explicit_return_threshold_trips() {
        let mut f = FlowControl::new(2, 8, 1000);
        f.owe_data(1, 200);
        assert!(explicit_returns(&f).is_empty());
        f.owe_data(1, 100); // total 300 >= 250
        assert_eq!(explicit_returns(&f), vec![1]);
    }

    #[test]
    fn explicit_return_scratch_is_cleared_before_reuse() {
        // The caller-owned scratch buffer must not accumulate stale ranks
        // across progress ticks.
        let mut f = FlowControl::new(3, 8, 1000);
        f.owe_data(1, 500);
        let mut scratch = vec![0, 2, 2]; // garbage from a previous tick
        f.peers_needing_explicit_return(&mut scratch);
        assert_eq!(scratch, vec![1]);
        f.take_owed(1);
        f.peers_needing_explicit_return(&mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn over_return_is_clamped_and_counted() {
        let mut f = FlowControl::new(2, 1, 100);
        f.receive_return(1, 1, 50);
        assert_eq!(f.over_returns, 1, "return with nothing spent over-credits");
        assert_eq!(f.env_available(1), 1, "clamped at the slot count");
        assert_eq!(f.data_available(1), 100, "clamped at the reserve");
    }

    #[test]
    fn credit_exhaustion_stalls_until_return() {
        // Satellite: a sender that exhausts its window must stall (can_*
        // false) and resume only when the receiver hands credit back.
        let mut f = FlowControl::new(2, 2, 512);
        f.spend_eager(1, 512).unwrap();
        assert!(!f.can_eager(1, 1), "data credit exhausted");
        assert!(f.can_rndv(1), "one envelope slot remains");
        f.spend_rndv(1).unwrap();
        assert!(!f.can_rndv(1), "envelope slots exhausted");
        // A partial return is not enough for a full-window eager send...
        f.receive_return(1, 1, 100);
        assert!(!f.can_eager(1, 512));
        assert!(f.can_eager(1, 100), "...but covers a smaller one");
        // Full return restores the whole window.
        f.receive_return(1, 1, 412);
        assert!(f.can_eager(1, 512));
    }

    #[test]
    fn explicit_env_return_threshold_trips_at_half_the_slots() {
        // Satellite: envelope-only traffic (rendezvous envelopes return no
        // data bytes) must still trigger explicit credit packets once half
        // the slots are owed, or a one-sided sender deadlocks.
        let mut f = FlowControl::new(2, 4, 1 << 20);
        f.owe_env(1);
        assert!(explicit_returns(&f).is_empty(), "1 of 4 owed");
        f.owe_env(1);
        assert_eq!(
            explicit_returns(&f),
            vec![1],
            "2 of 4 owed: explicit return due"
        );
        f.take_owed(1);
        assert!(explicit_returns(&f).is_empty(), "drained");
    }

    #[test]
    fn retransmitted_frame_does_not_double_credit() {
        // Satellite: when a duplicated frame re-delivers a piggybacked
        // return, the second copy must not mint credit beyond the reserve.
        let mut f = FlowControl::new(2, 4, 1000);
        f.spend_eager(1, 600).unwrap();
        assert_eq!(f.data_available(1), 400);
        // The receiver frees the 600 bytes; the frame carrying the return is
        // duplicated by the wire and processed twice.
        f.receive_return(1, 1, 600);
        assert_eq!(f.data_available(1), 1000);
        f.receive_return(1, 1, 600); // duplicate
        assert_eq!(f.data_available(1), 1000, "clamped, not 1600");
        assert_eq!(f.env_available(1), 4, "clamped, not 5");
        assert_eq!(f.over_returns, 1);
        // Accounting still works for a subsequent genuine spend/return.
        f.spend_eager(1, 1000).unwrap();
        assert!(!f.can_eager(1, 1));
        f.receive_return(1, 1, 1000);
        assert!(f.can_eager(1, 1000));
    }

    #[test]
    fn stall_timing_accumulates_per_interval() {
        let mut f = FlowControl::new(2, 1, 100);
        assert_eq!(f.stall_ended(1, 50), 0, "no stall open");
        f.stall_started(1, 100);
        f.stall_started(1, 150); // second queued send: same interval
        assert_eq!(f.stall_ended(1, 400), 300);
        assert_eq!(f.stall_ended(1, 500), 0, "closed");
        f.stall_started(1, 1_000);
        assert_eq!(f.stall_ended(1, 1_250), 250);
        assert_eq!(f.stall_ns_total, 550);
        // Intervals are per-peer.
        f.stall_started(0, 0);
        assert_eq!(f.stall_ended(0, 75), 75);
        assert_eq!(f.stall_ns_total, 625);
    }

    #[test]
    fn rendezvous_charges_one_envelope_regardless_of_data_size() {
        // Tentpole invariant: the chunked data phase spends no credit, so
        // from the ledger's view a 1 GB rendezvous message costs exactly
        // what a 1 KB one does — one envelope slot, zero data bytes.
        let mut f = FlowControl::new(2, 4, 1000);
        f.spend_rndv(1).unwrap();
        assert_eq!(f.env_available(1), 3, "one envelope per message");
        assert_eq!(
            f.data_available(1),
            1000,
            "bulk data never touches the bounce-buffer window"
        );
    }

    #[test]
    fn zero_length_eager_needs_envelope_only() {
        let mut f = FlowControl::new(2, 1, 0);
        assert!(f.can_eager(1, 0));
        f.spend_eager(1, 0).unwrap();
        assert!(!f.can_eager(1, 0));
    }
}
