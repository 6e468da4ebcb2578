//! Operations that end without completing normally: cancel, peer
//! failure, communicator revocation.

use super::*;

impl Engine {
    /// Cancel a request. Posted-but-unmatched receives and still-queued
    /// sends can be cancelled; anything already in flight cannot.
    pub(crate) fn cancel(&mut self, req_id: u64) -> bool {
        if self.match_eng.cancel_posted(req_id) {
            self.reqs.remove(req_id);
            return true;
        }
        for dst in 0..self.pending_out.len() {
            if let Some(idx) = self.pending_out[dst]
                .iter()
                .position(|p| p.req_id == req_id)
            {
                if let Some(p) = self.pending_out[dst].remove(idx) {
                    self.release_queued(&p);
                }
                if self.pending_out[dst].is_empty() {
                    // Cancellation, not credit, emptied the queue: drop the
                    // open stall interval rather than accumulating it.
                    self.flow.stall_abandoned(dst);
                }
                self.reqs.remove(req_id);
                return true;
            }
        }
        false
    }

    /// The caller of request `req_id` is returning without its result — a
    /// watchdog timeout, or the rank's fatal error — and the borrow of its
    /// buffer ends with the call. Take back every pointer into that buffer:
    /// an unmatched receive or a still-queued send is cancelled; a receive
    /// mid-rendezvous gets a sink for a destination, so late chunks land
    /// nowhere and are still acknowledged; a receive being pulled waits
    /// until the last chunk, whoever copies it, has landed; a send that
    /// lent its buffer closes the lease, waiting out a pull in progress.
    /// Whatever result arrives later is dropped.
    pub(crate) fn abandon(&mut self, req_id: u64) {
        if self.cancel(req_id) {
            return;
        }
        let withdrawn = match self.reqs.get_mut(req_id) {
            Some(ReqState::RecvRndvWait { dst, .. }) => {
                *dst = RecvDest::sink();
                false
            }
            Some(ReqState::RecvPulling { lease }) => {
                lease.wait_pulled();
                false
            }
            Some(ReqState::SendRndvWait { lease: Some(lease) }) => lease.close(),
            _ => false,
        };
        if withdrawn {
            // Unpulled: no go-ahead will come to take the send out of the
            // tables.
            self.rndv_store.remove(&req_id);
            self.reqs.remove(req_id);
        } else {
            self.reqs.orphan(req_id);
        }
    }

    /// Whether `rank` has been declared dead.
    pub(crate) fn is_failed(&self, rank: Rank) -> bool {
        self.failed_ranks.get(rank).copied().unwrap_or(false)
    }

    /// Whether `context` belongs to a revoked communicator.
    pub(crate) fn is_revoked(&self, context: ContextId) -> bool {
        self.revoked.contains(&context)
    }

    /// Declare `peer` dead and complete, with `err`, every operation that
    /// can only finish through it: flow-stalled queued sends, rendezvous
    /// payloads awaiting its go-ahead, chunk streams mid-flight to it,
    /// sends awaiting its ack, receives awaiting its data, and posted
    /// receives naming it as source. Unexpected messages it sent are
    /// dropped. A receive pulling out of its lent buffer needs nothing
    /// more from it and completes normally; a lent send whose receiver had
    /// begun to pull fails only once the pull has landed (the lease's
    /// `close`). `ANY_SOURCE` receives stay posted — a surviving rank may
    /// still satisfy them (documented ULFM-style limitation: a wildcard
    /// receive that only the dead rank would have satisfied blocks until
    /// the communicator is revoked). Idempotent.
    pub(crate) fn fail_peer(&mut self, dev: &dyn Device, peer: Rank, err: MpiError) {
        if peer >= self.failed_ranks.len() || self.failed_ranks[peer] {
            return;
        }
        self.failed_ranks[peer] = true;
        self.tracer
            .emit_with(|| dev.now_ns(), EventKind::PeerDead { peer: peer as u32 });

        // Sends queued behind flow control: credit from a dead peer never
        // returns, so the queue can only drain through failure.
        let queued = std::mem::take(&mut self.pending_out[peer]);
        if !queued.is_empty() {
            self.flow.stall_abandoned(peer);
        }
        for p in queued {
            self.release_queued(&p);
            self.reqs.fail_if_active(p.req_id, err.clone());
        }

        // Rendezvous payloads parked on a go-ahead from the dead peer.
        let parked: Vec<u64> = self
            .rndv_store
            .iter()
            .filter(|(_, p)| p.dst == peer)
            .map(|(&id, _)| id)
            .collect();
        for id in parked {
            if let Some(p) = self.rndv_store.remove(&id) {
                if p.buffered {
                    self.buffer_release(p.data.len());
                }
                self.reqs.fail_if_active(id, err.clone());
            }
        }

        // Chunk streams whose remaining acks will never arrive.
        let streams: Vec<u64> = self
            .chunk_streams
            .iter()
            .filter(|(_, s)| s.dst == peer)
            .map(|(&id, _)| id)
            .collect();
        for id in streams {
            self.chunk_streams.remove(&id);
            self.reqs.fail_if_active(id, err.clone());
        }

        // Requests parked on a reply from the dead peer: synchronous sends
        // awaiting its match ack, receives awaiting its rendezvous data.
        // (Both states stash the peer in `status.source`.)
        let waiting: Vec<u64> = self
            .reqs
            .iter()
            .filter_map(|(id, s)| match s {
                ReqState::SendAckWait { status } if status.source == peer => Some(id),
                ReqState::RecvRndvWait { status, .. } if status.source == peer => Some(id),
                _ => None,
            })
            .collect();
        for id in waiting {
            self.reqs.fail_if_active(id, err.clone());
        }

        // Matching structures: posted receives naming the peer fail; its
        // unexpected messages are dropped (their data credit died with it).
        let (recv_ids, _msgs) = self.match_eng.purge_peer(peer);
        for id in recv_ids {
            self.reqs.fail_if_active(id, err.clone());
        }
    }

    /// Mark `context` (and its collective twin `context + 1`) revoked:
    /// purge both from the matcher, fail the purged receives and every
    /// queued send bound to them with [`MpiError::Revoked`]. Transfers
    /// already matched (rendezvous data in flight) complete normally —
    /// revocation guarantees no *new* matches, mirroring ULFM. Returns
    /// whether this call newly revoked the context (idempotent).
    pub(crate) fn mark_revoked(&mut self, context: ContextId) -> bool {
        if !self.revoked.insert(context) {
            return false;
        }
        let coll = context.wrapping_add(1);
        self.revoked.insert(coll);
        for ctx in [context, coll] {
            let (recv_ids, _msgs) = self.match_eng.purge_context(ctx);
            for id in recv_ids {
                self.reqs.fail_if_active(id, MpiError::Revoked { context });
            }
        }
        for dst in 0..self.pending_out.len() {
            let q = std::mem::take(&mut self.pending_out[dst]);
            let had_any = !q.is_empty();
            let mut kept = VecDeque::new();
            for p in q {
                if p.env.context == context || p.env.context == coll {
                    self.release_queued(&p);
                    self.reqs
                        .fail_if_active(p.req_id, MpiError::Revoked { context });
                } else {
                    kept.push_back(p);
                }
            }
            if had_any && kept.is_empty() {
                self.flow.stall_abandoned(dst);
            }
            self.pending_out[dst] = kept;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::mpsc::{channel, Sender};

    use super::super::testkit::*;
    use super::*;

    #[test]
    fn cancel_posted_recv_and_queued_send() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut buf = [0u8; 1];
        let rid = e0.post_recv(&d0, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        assert!(e0.cancel(rid));
        assert!(!e0.cancel(rid), "already cancelled");

        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"a"), SendMode::Standard)
            .unwrap();
        let sid2 = e0
            .post_send(&d0, 1, 0, 0, Bytes::from_static(b"b"), SendMode::Standard)
            .unwrap();
        assert!(e0.has_pending_sends());
        assert!(e0.cancel(sid2));
        assert!(!e0.has_pending_sends());

        // A buffered send queued behind the spent slot gives its pool
        // bytes back when cancelled.
        e0.buffer_attach(64);
        let sid3 = e0
            .post_send(&d0, 1, 0, 0, Bytes::from_static(b"cd"), SendMode::Buffered)
            .unwrap();
        assert_eq!(e0.buffered_in_use(), 2);
        assert!(e0.cancel(sid3));
        assert_eq!(e0.buffered_in_use(), 0);
        assert_eq!(e0.buffer_detach(), Ok(64));
    }

    fn dead(peer: Rank) -> MpiError {
        MpiError::peer_failed(peer, "test kill")
    }

    /// The heart of per-peer isolation: killing peer 1 fails every request
    /// parked on it — the queued send, the rendezvous payload awaiting its
    /// go-ahead, the synchronous send awaiting its ack, the posted receive
    /// naming it — while traffic with peer 2 keeps flowing untouched.
    #[test]
    fn fail_peer_completes_everything_parked_on_it_and_spares_the_rest() {
        let d0 = Loopback::new(0, 3);
        let d2 = Loopback::new(2, 3);
        // Single envelope slot so a second send to rank 1 queues.
        let mut e0 = Engine::new(0, 3, 180, 1, 1 << 16, 256, 2);
        let mut e2 = Engine::new(2, 3, 180, 1, 1 << 16, 256, 2);

        let s_sync = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"x"),
                SendMode::Synchronous,
            )
            .unwrap();
        let s_queued = e0
            .post_send(&d0, 1, 1, 0, Bytes::from_static(b"y"), SendMode::Standard)
            .unwrap();
        let s_rndv = e0
            .post_send(
                &d0,
                2,
                0,
                0,
                Bytes::from(vec![7u8; 500]),
                SendMode::Standard,
            )
            .unwrap();
        let mut buf = [0u8; 4];
        let r_named = e0.post_recv(&d0, dest(&mut buf), SourceSel::Rank(1), TagSel::Any, 0);
        let mut wild_buf = [0u8; 4];
        let r_wild = e0.post_recv(&d0, dest(&mut wild_buf), SourceSel::Any, TagSel::Any, 0);
        assert!(e0.has_pending_sends());

        e0.fail_peer(&d0, 1, dead(1));
        assert!(e0.is_failed(1));
        assert!(!e0.is_failed(0) && !e0.is_failed(2), "only rank 1 died");

        for id in [s_sync, s_queued, r_named] {
            match e0.reqs.take_if_done(id) {
                Some(Err(MpiError::PeerFailed { peer: 1, .. })) => {}
                other => panic!("request {id} should fail with PeerFailed, got {other:?}"),
            }
        }
        assert!(!e0.has_pending_sends(), "dead peer's queue drained");
        assert!(
            e0.reqs.take_if_done(r_wild).is_none(),
            "ANY_SOURCE receive survives: a live rank may satisfy it"
        );

        // Rank 2 was untouched: the rendezvous to it still completes, and
        // the surviving wildcard receive matches rank 2's message.
        e2.post_send(&d2, 0, 9, 0, Bytes::from_static(b"ok"), SendMode::Standard)
            .unwrap();
        let mut buf2 = vec![0u8; 500];
        let r2 = e2.post_recv(&d2, dest(&mut buf2), SourceSel::Rank(0), TagSel::Any, 0);
        // Drain the fabric by hand: frames addressed to the dead rank 1
        // vanish (its process is gone); 0↔2 traffic delivers normally.
        loop {
            let mut moved = false;
            for (dst, wire) in d0.sent.lock().unwrap().drain(..) {
                if dst == 2 {
                    e2.handle_wire(&d2, wire).unwrap();
                    moved = true;
                }
            }
            for (dst, wire) in d2.sent.lock().unwrap().drain(..) {
                assert_eq!(dst, 0);
                e0.handle_wire(&d0, wire).unwrap();
                moved = true;
            }
            if !moved {
                break;
            }
        }
        assert!(e0.reqs.take_if_done(s_rndv).unwrap().is_ok());
        assert!(e2.reqs.take_if_done(r2).unwrap().is_ok());
        assert!(e0.reqs.take_if_done(r_wild).unwrap().is_ok());
        assert_eq!(&wild_buf[..2], b"ok");

        // Idempotent: a second declaration is a no-op.
        e0.fail_peer(&d0, 1, dead(1));
        assert!(e0.is_failed(1) && !e0.is_failed(0) && !e0.is_failed(2));
    }

    /// A 500-byte payload a test may lend for as long as it likes.
    fn lendable(fill: u8) -> &'static [u8] {
        (0..500u32)
            .map(|i| fill.wrapping_add(i as u8))
            .collect::<Vec<_>>()
            .leak()
    }

    /// Post a lent send 0 → 1 and take the lease out of its request frame,
    /// as rank 1 would receive it.
    fn lend(e0: &mut Engine, d0: &Loopback, payload: &'static [u8]) -> (u64, Wire, Arc<Lease>) {
        let sid = post_slice(e0, d0, 4, payload, SendMode::Standard);
        let (dst, wire) = d0.sent.lock().unwrap().pop().expect("the request frame");
        assert_eq!(dst, 1);
        let Packet::RndvReq {
            lease: Some(lease), ..
        } = &wire.pkt
        else {
            panic!("expected a request carrying a lease, got {wire:?}")
        };
        let lease = Arc::clone(lease);
        (sid, wire, lease)
    }

    /// Rank 1 matches a lent 500-byte send of rank 0's into `buf`: the
    /// lease is `Pulling`, the receive waits in `RecvPulling`, and the
    /// receiver's copy is taken out of the engine for the test to run.
    fn begin_pull(
        e0: &mut Engine,
        d0: &Loopback,
        e1: &mut Engine,
        d1: &Loopback,
        buf: &mut [u8],
    ) -> (u64, u64, Arc<Lease>, Pull) {
        let (sid, req, lease) = lend(e0, d0, lendable(3));
        let rid = e1.post_recv(d1, dest(buf), SourceSel::Any, TagSel::Any, 0);
        e1.handle_wire(d1, req).unwrap();
        assert!(matches!(
            e1.reqs.get(rid),
            Some(ReqState::RecvPulling { .. })
        ));
        let pull = e1.take_pull().expect("the match began a pull");
        (sid, rid, lease, pull)
    }

    /// A helper thread of `s` copying `lease`, held inside its first chunk
    /// until the returned sender fires; `landed` counts the bytes of every
    /// chunk it has finished. Returns once the helper is inside.
    fn held_helper<'scope>(
        s: &'scope std::thread::Scope<'scope, '_>,
        lease: &'scope Lease,
        landed: &'scope AtomicUsize,
    ) -> (Sender<()>, std::thread::ScopedJoinHandle<'scope, usize>) {
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let helper = s.spawn(move || {
            lease.copy_chunks(|_, at, bytes| {
                if at == 0 {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
                landed.fetch_add(bytes.len(), SeqCst);
            })
        });
        started_rx.recv().unwrap();
        (release_tx, helper)
    }

    /// `f` on a thread of its own must not return while the helper is
    /// held (a wrong implementation gets 20 ms to show itself); then
    /// release it. Returns what the helper had landed when `f` returned.
    fn waits_for_the_helper<'scope>(
        s: &'scope std::thread::Scope<'scope, '_>,
        landed: &'scope AtomicUsize,
        release: Sender<()>,
        f: impl FnOnce() + Send + 'scope,
    ) -> usize {
        let waiter = s.spawn(move || {
            f();
            landed.load(SeqCst)
        });
        for _ in 0..20 {
            assert!(!waiter.is_finished(), "returned under a copy");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        release.send(()).unwrap();
        waiter.join().unwrap()
    }

    /// A lease the receiver has begun to pull is never withdrawn. The
    /// sender's `close`, and its `fail_peer(receiver)` — which fails the
    /// lent send parked on the go-ahead — both wait, while a helper is
    /// held inside a chunk, until the last byte has landed. The receiver's
    /// `mark_revoked` leaves a matched pull alone: the receive completes.
    #[test]
    fn fail_peer_waits_out_a_pull_in_progress() {
        // A lost lease wake fails the test instead of hanging it.
        lmpi_sim::within(std::time::Duration::from_secs(60), || {
            for way in ["close", "fail_peer", "mark_revoked"] {
                let (d0, d1) = (Loopback::lending(0, 2), Loopback::lending(1, 2));
                let (mut e0, mut e1) = (engine(0, 2), engine(1, 2));
                let mut buf = vec![0u8; 500];
                let (sid, rid, lease, pull) = begin_pull(&mut e0, &d0, &mut e1, &d1, &mut buf);
                let landed = AtomicUsize::new(0);
                std::thread::scope(|s| {
                    let (release, helper) = held_helper(s, &lease, &landed);
                    let (e0, e1, d0, lease) = (&mut e0, &mut e1, &d0, &lease);
                    match way {
                        "close" => {
                            let at = waits_for_the_helper(s, &landed, release, move || {
                                assert!(!lease.close(), "withdrawn under a pull");
                            });
                            assert_eq!(at, 500, "{way} returned before the last chunk");
                        }
                        "fail_peer" => {
                            let at = waits_for_the_helper(s, &landed, release, move || {
                                e0.fail_peer(d0, 1, dead(1));
                            });
                            assert_eq!(at, 500, "{way} returned before the last chunk");
                        }
                        _ => {
                            e1.mark_revoked(0);
                            assert!(matches!(
                                e1.reqs.get(rid),
                                Some(ReqState::RecvPulling { .. })
                            ));
                            release.send(()).unwrap();
                        }
                    }
                    assert_eq!(
                        helper.join().unwrap(),
                        500,
                        "{way}: the helper copied it all"
                    );
                });
                assert!(lease.pulled(), "{way}");
                if way == "fail_peer" {
                    match e0.reqs.take_if_done(sid) {
                        Some(Err(MpiError::PeerFailed { peer: 1, .. })) => {}
                        other => panic!("expected PeerFailed, got {other:?}"),
                    }
                }
                // The receiver's own copy finds nothing left to claim.
                assert_eq!(pull.run(true), 0, "{way}");
                e1.finish_pull(&d1, pull, 0, None);
                let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
                assert_eq!((st.source, st.len), (0, 500), "{way}");
            }
        });
    }

    /// `abandon` of a receive being pulled returns only once the last
    /// chunk has landed — every one of them a helper's here, and the
    /// helper held inside the first. The result that comes after is
    /// dropped.
    #[test]
    fn abandon_of_a_receive_being_pulled_waits_for_the_last_helper_chunk() {
        let (d0, d1) = (Loopback::lending(0, 2), Loopback::lending(1, 2));
        let (mut e0, mut e1) = (engine(0, 2), engine(1, 2));
        let mut buf = vec![0u8; 500];
        let (_, rid, lease, pull) = begin_pull(&mut e0, &d0, &mut e1, &d1, &mut buf);
        let landed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (release, helper) = held_helper(s, &lease, &landed);
            let e1 = &mut e1;
            let at = waits_for_the_helper(s, &landed, release, move || e1.abandon(rid));
            assert_eq!(at, 500, "abandon returned before the last chunk");
            assert_eq!(helper.join().unwrap(), 500);
        });
        assert!(lease.pulled());
        assert_eq!(pull.run(true), 0);
        e1.finish_pull(&d1, pull, 0, None);
        assert!(e1.reqs.get(rid).is_none(), "the late result was dropped");
    }

    /// A pull that comes after the sender failed its request: the receive
    /// completes with a typed error, reads nothing and sends no go-ahead.
    #[test]
    fn pull_after_the_send_failed_is_a_typed_error() {
        let d0 = Loopback::lending(0, 2);
        let d1 = Loopback::lending(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        let payload = lendable(9);
        let (sid, req, lease) = lend(&mut e0, &d0, payload);
        e0.fail_peer(&d0, 1, dead(1));
        assert!(matches!(
            e0.reqs.take_if_done(sid),
            Some(Err(MpiError::PeerFailed { peer: 1, .. }))
        ));

        let mut buf = vec![0u8; 500];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e1.handle_wire(&d1, req).unwrap();
        match e1.reqs.take_if_done(rid) {
            Some(Err(MpiError::Transport { peer: Some(0), .. })) => {}
            other => panic!("expected a typed transport error, got {other:?}"),
        }
        assert_eq!(buf, vec![0u8; 500], "nothing was read");
        assert!(d1.sent.lock().unwrap().is_empty(), "no go-ahead");
        assert!(!e1.has_pulls(), "no copy");
        assert_eq!(format!("{lease:?}"), "Lease(withdrawn)");
        assert_eq!(e1.counters.rndv_pulled, 0);
    }

    /// An unexpected request that carries a lease is dropped like any
    /// other when its context is revoked or its sender dies: the receiver
    /// lets go of the lease unread and the sender's request is untouched.
    #[test]
    fn purging_an_unexpected_lent_request_drops_the_lease_unread() {
        for purge in [
            (|e1: &mut Engine, _: &Loopback| {
                e1.mark_revoked(0);
            }) as fn(&mut Engine, &Loopback),
            |e1, d1| e1.fail_peer(d1, 0, dead(0)),
        ] {
            let d0 = Loopback::lending(0, 2);
            let d1 = Loopback::lending(1, 2);
            let mut e0 = engine(0, 2);
            let mut e1 = engine(1, 2);
            let payload = lendable(5);
            let (sid, req, lease) = lend(&mut e0, &d0, payload);
            e1.handle_wire(&d1, req).unwrap();
            assert_eq!(e1.match_eng.depths().1, 1, "parked unexpected");
            assert_eq!(Arc::strong_count(&lease), 3, "request, receiver, test");
            purge(&mut e1, &d1);
            assert_eq!(e1.match_eng.depths().1, 0);
            assert_eq!(Arc::strong_count(&lease), 2, "the receiver let go");
            assert!(lease.is_open());
            assert!(matches!(
                e0.reqs.get(sid),
                Some(ReqState::SendRndvWait { lease: Some(_) })
            ));
            // The sender's caller gives up; the lease closes with it.
            e0.abandon(sid);
            assert!(e0.reqs.get(sid).is_none() && e0.rndv_store.is_empty());
            assert_eq!(format!("{lease:?}"), "Lease(withdrawn)");
        }
    }

    /// A lent send still queued behind flow control has not let its lease
    /// out of the engine: cancel succeeds at once, nothing to wait for.
    #[test]
    fn cancel_of_a_queued_lent_send_never_shared_its_lease() {
        let d0 = Loopback::lending(0, 2);
        // Single envelope slot: the lent send queues behind the eager one.
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"a"), SendMode::Standard)
            .unwrap();
        let payload = lendable(3);
        let sid = post_slice(&mut e0, &d0, 1, payload, SendMode::Standard);
        assert!(e0.has_pending_sends());
        assert!(e0.cancel(sid));
        assert!(!e0.has_pending_sends() && e0.reqs.get(sid).is_none());
        let sent = d0.sent.lock().unwrap();
        assert_eq!(sent.len(), 1, "only the eager frame ever left: {sent:?}");
    }

    /// A go-ahead for a lent send whose receiver never began to pull (the
    /// lease was lost in transit, or the frame is a duplicate) is a typed
    /// transport error; abandoning the send afterwards still closes the
    /// lease. A go-ahead for a lease being pulled is the normal path: the
    /// sender that takes it copies too, and completes once the pull landed.
    #[test]
    fn go_ahead_for_an_unpulled_lease_is_a_typed_transport_error() {
        let go = |send_id| {
            let go = Packet::RndvGo {
                send_id,
                recv_id: 7,
            };
            Wire::bare(1, go)
        };
        let d0 = Loopback::lending(0, 2);
        let mut e0 = engine(0, 2);
        let (sid, _, lease) = lend(&mut e0, &d0, lendable(1));
        let err = e0.handle_wire(&d0, go(sid)).unwrap_err();
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "got {err:?}"
        );
        assert!(e0.reqs.take_if_done(sid).is_none(), "still lent");
        e0.abandon(sid);
        assert_eq!(format!("{lease:?}"), "Lease(withdrawn)");

        let payload = lendable(2);
        let (sid, _, lease) = lend(&mut e0, &d0, payload);
        let mut buf = vec![0u8; 500];
        assert!(
            lease.begin_pull(dest(&mut buf), 100),
            "as the receiver would"
        );
        e0.handle_wire(&d0, go(sid)).unwrap();
        assert!(e0.reqs.take_if_done(sid).is_none(), "not before it landed");
        run_pulls(&mut e0, &d0);
        assert!(lease.pulled());
        assert_eq!(buf, payload, "the sender copied every chunk");
        assert_eq!(e0.counters.pull_bytes_helped, 500);
        let st = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!((st.source, st.tag, st.len), (1, 4, 500));
    }

    /// `abandon`, state by state: what the engine may still touch after
    /// the caller of a request has returned without its result.
    #[test]
    fn abandon_takes_back_every_pointer() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        // An unmatched receive is cancelled.
        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Tag(1), 0);
        e1.abandon(rid);
        assert!(e1.reqs.get(rid).is_none());
        assert_eq!(e1.match_eng.depths().0, 0);

        // A receive mid-stream keeps acking, into a sink.
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Tag(2), 0);
        let data = Bytes::from(vec![8u8; 1000]);
        let sid = e0
            .post_send(&d0, 1, 2, 0, data, SendMode::Standard)
            .unwrap();
        // Request over, go-ahead back, first window of chunks over.
        for _ in 0..2 {
            for (_, wire) in d0.sent.lock().unwrap().drain(..) {
                e1.handle_wire(&d1, wire).unwrap();
            }
            if matches!(e1.reqs.get(rid), Some(ReqState::RecvRndvWait { received, .. }) if *received > 0)
            {
                break;
            }
            for (_, wire) in d1.sent.lock().unwrap().drain(..) {
                e0.handle_wire(&d0, wire).unwrap();
            }
        }
        assert_eq!(&buf[..512], &[8u8; 512][..], "two chunks landed");
        e1.abandon(rid);
        buf.fill(0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(buf, vec![0u8; 1000], "late chunks land nowhere");
        assert!(
            e0.reqs.take_if_done(sid).unwrap().is_ok(),
            "and are still acked: the sender's stream drained"
        );
        assert!(e1.reqs.get(rid).is_none(), "the late result was dropped");

        // A result that is already in is dropped at once.
        let sid = e0
            .post_send(&d0, 1, 3, 0, Bytes::from_static(b"x"), SendMode::Standard)
            .unwrap();
        e0.abandon(sid);
        assert!(e0.reqs.get(sid).is_none());
    }

    #[test]
    fn posts_against_a_dead_peer_fail_fast() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.fail_peer(&d0, 1, dead(1));

        let err = e0
            .post_send(&d0, 1, 0, 0, Bytes::from_static(b"x"), SendMode::Standard)
            .unwrap_err();
        assert!(matches!(err, MpiError::PeerFailed { peer: 1, .. }));

        let mut buf = [0u8; 1];
        let rid = e0.post_recv(&d0, dest(&mut buf), SourceSel::Rank(1), TagSel::Any, 0);
        match e0.reqs.take_if_done(rid) {
            Some(Err(MpiError::PeerFailed { peer: 1, .. })) => {}
            other => panic!("expected immediate PeerFailed completion, got {other:?}"),
        }
    }

    #[test]
    fn zombie_frames_from_a_dead_peer_are_dropped() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.fail_peer(&d0, 1, dead(1));
        e0.handle_wire(
            &d0,
            Wire::bare(
                1,
                Packet::Eager {
                    env: Envelope {
                        src: 1,
                        tag: 0,
                        context: 0,
                        len: 1,
                    },
                    send_id: 5,
                    needs_ack: false,
                    ready: false,
                    data: Bytes::from_static(b"z"),
                },
            ),
        )
        .unwrap();
        assert_eq!(e0.counters.wires_handled, 0, "zombie frame not processed");
        assert_eq!(e0.match_eng.depths().1, 0, "nothing buffered unexpected");
    }

    #[test]
    fn buffered_sends_release_pool_bytes_when_the_peer_dies() {
        let d0 = Loopback::new(0, 2);
        // Single envelope slot: the second buffered send queues.
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        e0.buffer_attach(1 << 12);
        // Rendezvous-sized buffered send: pool bytes held until the data
        // leaves — which it never will.
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from(vec![1u8; 500]),
            SendMode::Buffered,
        )
        .unwrap();
        // Queued eager buffered send behind the spent envelope slot.
        e0.post_send(&d0, 1, 1, 0, Bytes::from(vec![2u8; 8]), SendMode::Buffered)
            .unwrap();
        assert_eq!(e0.buffered_in_use(), 508);
        e0.fail_peer(&d0, 1, dead(1));
        assert_eq!(
            e0.buffered_in_use(),
            0,
            "failure must return pool bytes or buffer_detach wedges forever"
        );
    }

    #[test]
    fn revoke_fails_context_bound_work_and_is_idempotent() {
        let d0 = Loopback::new(0, 2);
        // Single envelope slot so the second send queues on context 0.
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut buf = [0u8; 4];
        let r_ctx0 = e0.post_recv(&d0, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let mut buf9 = [0u8; 4];
        let r_ctx9 = e0.post_recv(&d0, dest(&mut buf9), SourceSel::Any, TagSel::Any, 9);
        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"a"), SendMode::Standard)
            .unwrap();
        let s_queued = e0
            .post_send(&d0, 1, 1, 0, Bytes::from_static(b"b"), SendMode::Standard)
            .unwrap();

        assert!(e0.mark_revoked(0));
        assert!(!e0.mark_revoked(0), "second revoke is a no-op");
        assert!(e0.is_revoked(0) && e0.is_revoked(1), "both context halves");
        assert!(!e0.is_revoked(9));

        match e0.reqs.take_if_done(r_ctx0) {
            Some(Err(MpiError::Revoked { context: 0 })) => {}
            other => panic!("revoked recv should fail typed, got {other:?}"),
        }
        match e0.reqs.take_if_done(s_queued) {
            Some(Err(MpiError::Revoked { context: 0 })) => {}
            other => panic!("revoked queued send should fail typed, got {other:?}"),
        }
        assert!(!e0.has_pending_sends());
        assert!(
            e0.reqs.take_if_done(r_ctx9).is_none(),
            "other communicators keep working"
        );
    }

    #[test]
    fn revoke_frame_marks_the_context_and_traces() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.tracer = Tracer::enabled(0, 16);
        e0.handle_wire(&d0, Wire::bare(1, Packet::Revoke { context: 4 }))
            .unwrap();
        assert!(e0.is_revoked(4) && e0.is_revoked(5));
        let names: Vec<&str> = e0
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"RevokeRx"), "got {names:?}");
    }
}
