//! The receiving half: post, the envelope path (match or park),
//! delivery, rendezvous data and probe.

use super::*;

/// Which side of a match arrived second: the envelope came off the wire to
/// a receive already posted, or the receive was posted to an envelope
/// already parked unexpected.
#[derive(Copy, Clone, PartialEq, Eq)]
enum MatchedAt {
    Arrival,
    Post,
}

impl Engine {
    /// Post a receive into `dst`. `src` uses global ranks. Returns the
    /// request id; the request may complete immediately if a matching
    /// message already arrived.
    pub(crate) fn post_recv(
        &mut self,
        dev: &dyn Device,
        dst: RecvDest,
        src: SourceSel,
        tag: TagSel,
        context: ContextId,
    ) -> u64 {
        // A receive naming a dead source can never be satisfied: allocate
        // the request and complete it immediately with the typed failure
        // (`ANY_SOURCE` receives stay live — another rank may satisfy them).
        if let SourceSel::Rank(s) = src {
            if self.is_failed(s) {
                return self.reqs.alloc(ReqState::Done(Err(MpiError::peer_failed(
                    s,
                    "receive posted naming a rank already declared dead",
                ))));
            }
        }
        let req_id = self.reqs.alloc(ReqState::RecvPosted { dst: dst.clone() });
        self.tracer.emit_with(
            || dev.now_ns(),
            EventKind::RecvPosted {
                tag: match tag {
                    TagSel::Tag(t) => t,
                    TagSel::Any => u32::MAX,
                },
            },
        );
        if let Some(msg) = self.match_eng.match_posted(req_id, src, tag, context) {
            self.consume_match(dev, req_id, dst, msg, MatchedAt::Post);
            // The bounce bytes this freed may be exactly what the sender
            // is stalled on; then no frame will arrive from it to carry the
            // return, so it must go out from here.
            self.explicit_credit_returns(dev);
        }
        req_id
    }

    /// An envelope (eager or rendezvous) came off the wire: match it
    /// against the posted receives, or park it until one is posted.
    pub(super) fn handle_envelope(
        &mut self,
        dev: &dyn Device,
        from: Rank,
        msg: UnexpectedMsg,
        ready: bool,
    ) -> MpiResult<()> {
        let env = &msg.env;
        // The envelope source must also be in range (it normally equals
        // the frame's source, but hand-crafted frames may disagree).
        let nprocs = self.pending_out.len();
        if env.src >= nprocs {
            return Err(MpiError::transport_peer(
                from,
                format!(
                    "envelope claims source rank {} of {nprocs} (corrupt frame?)",
                    env.src
                ),
            ));
        }
        // The envelope slot is freed as soon as the envelope is copied
        // into matching structures — i.e. now.
        self.flow.owe_env(env.src);
        if let Some(posted) = self.match_eng.match_incoming(env) {
            let dst = match self.reqs.get(posted.recv_id) {
                Some(ReqState::RecvPosted { dst }) => dst.clone(),
                other => {
                    return Err(MpiError::transport_peer(
                        env.src,
                        format!(
                            "envelope matched recv {} in state {other:?} \
                             (duplicated or reordered frame?)",
                            posted.recv_id
                        ),
                    ));
                }
            };
            self.consume_match(dev, posted.recv_id, dst, msg, MatchedAt::Arrival);
        } else if ready {
            // Ready-mode send with no posted receive: erroneous.
            // Report, drop the payload, return its buffer space.
            self.counters.rsend_errors += 1;
            if let UnexpectedBody::Eager { data, .. } = &msg.body {
                self.flow.owe_data(env.src, data.len());
            }
            if self.pending_error.is_none() {
                self.pending_error = Some(MpiError::ReadyModeNoReceive {
                    src: env.src,
                    tag: env.tag,
                });
            }
        } else {
            self.tracer.emit_msg_with(
                MsgId {
                    src: env.src as u32,
                    seq: msg.msg_seq,
                },
                || dev.now_ns(),
                EventKind::UnexpectedBuffered {
                    peer: env.src as u32,
                    bytes: env.len as u32,
                },
            );
            // An eager payload keeps its data credit until a receive
            // matches.
            self.match_eng.add_unexpected(msg);
            self.note_unexpected_depth();
        }
        Ok(())
    }

    /// A matched envelope: finish the eager delivery or launch the
    /// rendezvous reply. `at` says which side arrived second; it picks the
    /// copy the eager payload is charged and the `unexpected` trace flag.
    fn consume_match(
        &mut self,
        dev: &dyn Device,
        req_id: u64,
        dst: RecvDest,
        msg: UnexpectedMsg,
        at: MatchedAt,
    ) {
        let env = msg.env;
        let wmsg = MsgId {
            src: env.src as u32,
            seq: msg.msg_seq,
        };
        // The match is stamped before the modelled costs at post and after
        // them on arrival: the per-phase attribution reads these stamps.
        let matched = EventKind::EnvelopeMatched {
            peer: env.src as u32,
            bytes: env.len as u32,
            unexpected: at == MatchedAt::Post,
        };
        if at == MatchedAt::Post {
            self.tracer.emit_msg_with(wmsg, || dev.now_ns(), matched);
        }
        dev.charge(Cost::Match);
        if let UnexpectedBody::Eager { data, .. } = &msg.body {
            dev.charge(match at {
                MatchedAt::Arrival => Cost::PostedCopy(data.len()),
                MatchedAt::Post => Cost::BufferedCopy(data.len()),
            });
        }
        if at == MatchedAt::Arrival {
            self.tracer.emit_msg_with(wmsg, || dev.now_ns(), matched);
        }
        match msg.body {
            UnexpectedBody::Eager {
                data,
                send_id,
                needs_ack,
            } => {
                // SAFETY: `dst` upholds the RecvDest contract (buffer borrow
                // held by the owning Request; writes happen under the
                // engine lock).
                let delivered = unsafe { dst.deliver(&data) };
                self.counters.bytes_received += data.len() as u64;
                self.flow.owe_data(env.src, data.len());
                let result = delivered.map(|n| Status {
                    source: env.src,
                    tag: env.tag,
                    len: n,
                });
                self.reqs.complete(req_id, result);
                self.tracer.emit_msg_with(
                    wmsg,
                    || dev.now_ns(),
                    EventKind::Delivered {
                        peer: env.src as u32,
                        bytes: env.len as u32,
                    },
                );
                if needs_ack {
                    self.transmit(dev, env.src, Packet::EagerAck { send_id }, msg.msg_seq);
                    self.counters.acks_sent += 1;
                    self.tracer.emit_msg_with(
                        wmsg,
                        || dev.now_ns(),
                        EventKind::AckTx {
                            peer: env.src as u32,
                        },
                    );
                }
            }
            UnexpectedBody::Rndv { send_id, lease } => {
                let status = Status {
                    source: env.src,
                    tag: env.tag,
                    len: env.len,
                };
                match lease {
                    // The data follows the go-ahead as a chunk stream.
                    None => self.reqs.set(
                        req_id,
                        ReqState::RecvRndvWait {
                            dst,
                            status,
                            send_id,
                            received: 0,
                        },
                    ),
                    // The sender lent its buffer: the pull begins here, and
                    // the go-ahead tells the sender it has.
                    Some(lease) => {
                        if !self.begin_pull(dev, wmsg, req_id, status, dst, lease) {
                            // The sender's caller is gone and expects no
                            // go-ahead.
                            return;
                        }
                    }
                }
                self.tracer.emit_msg_with(
                    wmsg,
                    || dev.now_ns(),
                    EventKind::RndvGoTx {
                        peer: env.src as u32,
                    },
                );
                self.transmit(
                    dev,
                    env.src,
                    Packet::RndvGo {
                        send_id,
                        recv_id: req_id,
                    },
                    msg.msg_seq,
                );
            }
        }
    }

    /// The data phase of a rendezvous whose sender lent its buffer begins:
    /// the lease takes the destination, `DmaStart` is stamped, the receive
    /// waits in `RecvPulling`, and the copy is handed out as a [`Pull`] for
    /// this call's caller to run once it has dropped the engine lock —
    /// `finish_pull` stamps `DmaEnd`/`Delivered` and completes. `false` if
    /// the send was abandoned, cancelled or failed first: the receive is
    /// complete with a typed error and nothing was read.
    // Out of line: `consume_match` is every eager message's path too.
    #[inline(never)]
    fn begin_pull(
        &mut self,
        dev: &dyn Device,
        wmsg: MsgId,
        req_id: u64,
        status: Status,
        dst: RecvDest,
        lease: Arc<Lease>,
    ) -> bool {
        let cap = dst.cap;
        if !lease.begin_pull(dst, self.rndv_chunk) {
            let gone = MpiError::transport_peer(
                status.source,
                "the sender withdrew the buffer it lent before this receive pulled it",
            );
            self.reqs.complete(req_id, Err(gone));
            return false;
        }
        let (peer, bytes) = (status.source as u32, status.len as u32);
        self.tracer
            .emit_msg_with(wmsg, || dev.now_ns(), EventKind::DmaStart { peer, bytes });
        let pulling = ReqState::RecvPulling {
            lease: Arc::clone(&lease),
        };
        self.reqs.set(req_id, pulling);
        self.pulls.push(Pull {
            lease,
            req_id,
            recv: true,
            wmsg,
            status,
            cap,
        });
        true
    }

    /// The last byte of a rendezvous payload has landed: complete the
    /// receive (whether the message truncated is decided here, once, from
    /// its total length) and close the transfer's trace bracket.
    pub(super) fn finish_rndv_recv(
        &mut self,
        dev: &dyn Device,
        wmsg: MsgId,
        recv_id: u64,
        status: Status,
        cap: usize,
    ) {
        let result = if status.len > cap {
            Err(MpiError::Truncated {
                message_len: status.len,
                buffer_len: cap,
            })
        } else {
            Ok(status)
        };
        self.reqs.complete(recv_id, result);
        let (peer, bytes) = (status.source as u32, status.len as u32);
        self.tracer
            .emit_msg_with(wmsg, || dev.now_ns(), EventKind::DmaEnd { peer, bytes });
        self.tracer
            .emit_msg_with(wmsg, || dev.now_ns(), EventKind::Delivered { peer, bytes });
    }

    /// One rendezvous data frame: it lands at its offset directly in the
    /// posted user buffer, no intermediate staging, and the last one
    /// completes the receive.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_chunk(
        &mut self,
        dev: &dyn Device,
        wire_src: Rank,
        wmsg: MsgId,
        recv_id: u64,
        offset: usize,
        total: usize,
        data: Bytes,
    ) -> MpiResult<()> {
        let (dst, status, send_id, received) = match self.reqs.get(recv_id) {
            Some(ReqState::RecvRndvWait {
                dst,
                status,
                send_id,
                received,
            }) => (dst.clone(), *status, *send_id, *received),
            other => {
                return Err(MpiError::transport_peer(
                    wire_src,
                    format!(
                        "rendezvous data for recv {recv_id} in state {other:?} \
                         (duplicated or reordered frame?)"
                    ),
                ));
            }
        };
        // `deliver_at` clamps to capacity.
        // SAFETY: RecvDest contract (see `consume_match`).
        unsafe { dst.deliver_at(offset, &data) };
        self.counters.bytes_received += data.len() as u64;
        let received = received + data.len();
        if received >= total {
            let status = Status {
                len: total,
                ..status
            };
            self.finish_rndv_recv(dev, wmsg, recv_id, status, dst.cap);
        } else {
            self.reqs.set(
                recv_id,
                ReqState::RecvRndvWait {
                    dst,
                    status,
                    send_id,
                    received,
                },
            );
            // Ack every chunk except the completing one: each ack
            // releases one more chunk from the sender's window.
            self.transmit(dev, wire_src, Packet::RndvChunkAck { send_id }, wmsg.seq);
        }
        Ok(())
    }

    /// Probe the unexpected queue (non-consuming).
    pub(crate) fn probe(&self, src: SourceSel, tag: TagSel, context: ContextId) -> Option<Status> {
        self.match_eng.probe(src, tag, context).map(|u| Status {
            source: u.env.src,
            tag: u.env.tag,
            len: u.env.len,
        })
    }

    /// Record a new unexpected-queue depth into the high-water mark.
    fn note_unexpected_depth(&mut self) {
        let depth = self.match_eng.depths().1 as u64;
        if depth > self.counters.unexpected_hwm {
            self.counters.unexpected_hwm = depth;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn unexpected_eager_buffered_then_matched() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(
            &d0,
            1,
            3,
            0,
            Bytes::from_static(b"early"),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(e1.match_eng.depths().1, 1, "message waits unexpected");

        let mut buf = [0u8; 5];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Rank(0), TagSel::Tag(3), 0);
        let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!(st.len, 5);
        assert_eq!(&buf, b"early");
        assert_eq!(e1.match_eng.unexpected_hits, 1);
    }

    #[test]
    fn truncation_reported_with_prefix_delivered() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let mut small = [0u8; 2];
        let rid = e1.post_recv(&d1, dest(&mut small), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from_static(b"toolong"),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let err = e1.reqs.take_if_done(rid).unwrap().unwrap_err();
        assert_eq!(
            err,
            MpiError::Truncated {
                message_len: 7,
                buffer_len: 2
            }
        );
        assert_eq!(&small, b"to");
    }

    /// A sender stalled on bounce-buffer credit sends nothing, so the
    /// receiver cannot wait for a frame to carry the credit back: draining
    /// the unexpected queue through `post_recv` must return it.
    #[test]
    fn draining_the_unexpected_queue_unblocks_a_data_stalled_sender() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        // Room for two 4-byte payloads per sender.
        let mut e0 = Engine::new(0, 2, 180, 4, 8, 256, 2);
        let mut e1 = Engine::new(1, 2, 180, 4, 8, 256, 2);
        for tag in 0..3 {
            e0.post_send(
                &d0,
                1,
                tag,
                0,
                Bytes::from_static(b"data"),
                SendMode::Standard,
            )
            .unwrap();
        }
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e0.has_pending_sends(), "third payload exceeds the reserve");

        let mut bufs = [[0u8; 4]; 3];
        let reqs: Vec<u64> = bufs
            .iter_mut()
            .zip(0..)
            .map(|(b, tag)| e1.post_recv(&d1, dest(b), SourceSel::Rank(0), TagSel::Tag(tag), 0))
            .collect();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(
            !e0.has_pending_sends(),
            "freed bytes never reached the sender"
        );
        for id in reqs {
            assert!(e1.reqs.take_if_done(id).unwrap().is_ok());
        }
        assert_eq!(bufs, [*b"data"; 3]);
    }

    #[test]
    fn non_overtaking_same_tag() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(&d0, 1, 5, 0, Bytes::from_static(b"1"), SendMode::Standard)
            .unwrap();
        e0.post_send(&d0, 1, 5, 0, Bytes::from_static(b"2"), SendMode::Standard)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let mut b0 = [0u8; 1];
        let mut b1 = [0u8; 1];
        let r0 = e1.post_recv(&d1, dest(&mut b0), SourceSel::Rank(0), TagSel::Tag(5), 0);
        let r1 = e1.post_recv(&d1, dest(&mut b1), SourceSel::Rank(0), TagSel::Tag(5), 0);
        e1.reqs.take_if_done(r0).unwrap().unwrap();
        e1.reqs.take_if_done(r1).unwrap().unwrap();
        assert_eq!(
            (&b0, &b1),
            (b"1", b"2"),
            "messages must match in send order"
        );
    }

    #[test]
    fn ready_send_without_receive_is_error() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"oops"), SendMode::Ready)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(e1.counters.rsend_errors, 1);
        assert!(matches!(
            e1.pending_error,
            Some(MpiError::ReadyModeNoReceive { src: 0, .. })
        ));
    }

    #[test]
    fn probe_sees_unexpected_without_consuming() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        e0.post_send(&d0, 1, 9, 0, Bytes::from_static(b"abc"), SendMode::Standard)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e1.probe(SourceSel::Any, TagSel::Any, 0).expect("probe hit");
        assert_eq!((st.source, st.tag, st.len), (0, 9, 3));
        // Still there.
        assert!(e1.probe(SourceSel::Any, TagSel::Any, 0).is_some());
    }

    #[test]
    fn unexpected_hwm_tracks_peak_queue_depth() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        for tag in 0..3 {
            e0.post_send(&d0, 1, tag, 0, Bytes::from_static(b"x"), SendMode::Standard)
                .unwrap();
        }
        pump(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(e1.counters.unexpected_hwm, 3);

        // Draining the queue must not lower the high-water mark.
        for tag in 0..3 {
            let mut buf = [0u8; 1];
            let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Tag(tag), 0);
            e1.reqs.take_if_done(rid).unwrap().unwrap();
        }
        assert_eq!(e1.match_eng.depths().1, 0);
        assert_eq!(e1.counters.unexpected_hwm, 3);
    }

    #[test]
    fn stray_rndv_data_is_typed_transport_error() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .handle_wire(
                &d0,
                Wire::bare(
                    1,
                    Packet::RndvData {
                        recv_id: 42,
                        data: Bytes::from_static(b"late"),
                    },
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "got {err:?}"
        );
    }

    /// One message, delivered with the receive posted first and then with
    /// the message arriving first: the envelope path is one function, so
    /// the two differ only in what the second arrival is charged (posted
    /// vs buffered copy), in the unexpected-queue tallies and in the
    /// posted bin's depth.
    #[test]
    fn receive_first_and_message_first_differ_only_in_the_copy() {
        type Outcome = (Status, Vec<u8>, Vec<Cost>, Counters, Counters);
        fn run(len: usize, mode: SendMode, recv_first: bool) -> Outcome {
            let d0 = Loopback::new(0, 2);
            let d1 = Loopback::new(1, 2);
            let mut e0 = engine(0, 2);
            let mut e1 = engine(1, 2);
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut buf = vec![0u8; len];
            let dst = dest(&mut buf);
            let post = |e1: &mut Engine| {
                e1.post_recv(&d1, dst.clone(), SourceSel::Rank(0), TagSel::Tag(4), 0)
            };
            let rid = if recv_first {
                Some(post(&mut e1))
            } else {
                None
            };
            e0.post_send(&d0, 1, 4, 0, Bytes::from(payload.clone()), mode)
                .unwrap();
            pump(&mut e0, &d0, &mut e1, &d1);
            let rid = rid.unwrap_or_else(|| post(&mut e1));
            pump(&mut e0, &d0, &mut e1, &d1);
            let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
            assert_eq!(buf, payload);
            let charges = d1
                .charges
                .lock()
                .unwrap()
                .iter()
                .map(|c| match *c {
                    Cost::BufferedCopy(n) => Cost::PostedCopy(n),
                    c => c,
                })
                .collect();
            let mut counters = e1.folded_counters();
            assert_eq!(counters.unexpected_hits, u64::from(!recv_first));
            assert_eq!(counters.unexpected_hwm, u64::from(!recv_first));
            assert_eq!(counters.match_bin_depth_hwm, u64::from(recv_first));
            (counters.unexpected_hits, counters.unexpected_hwm) = (0, 0);
            counters.match_bin_depth_hwm = 0;
            (st, buf, charges, counters, e0.folded_counters())
        }
        for (len, mode) in [
            (5, SendMode::Standard),
            (5, SendMode::Synchronous),
            (1000, SendMode::Standard),
        ] {
            assert_eq!(
                run(len, mode, true),
                run(len, mode, false),
                "{len} bytes, {mode:?}"
            );
        }
    }

    /// `RndvData` is wire vocabulary only: no sender here builds one, but a
    /// receive waiting for its rendezvous data takes one as a complete
    /// one-chunk stream.
    #[test]
    fn hand_built_rndv_data_completes_a_waiting_receive() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        let mut buf = vec![0u8; 200];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            9,
            0,
            Bytes::from(vec![3u8; 200]),
            SendMode::Standard,
        )
        .unwrap();
        // Deliver the envelope only; the go-ahead never reaches rank 0.
        for (_, wire) in d0.sent.lock().unwrap().drain(..) {
            e1.handle_wire(&d1, wire).unwrap();
        }
        assert!(matches!(
            e1.reqs.get(rid),
            Some(ReqState::RecvRndvWait { .. })
        ));
        let data = Packet::RndvData {
            recv_id: rid,
            data: Bytes::from(vec![3u8; 200]),
        };
        e1.handle_wire(&d1, Wire::bare(0, data)).unwrap();
        let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!((st.source, st.tag, st.len), (0, 9, 200));
        assert_eq!(buf, vec![3u8; 200]);
    }

    /// A frame whose outer source is valid but whose *envelope* claims an
    /// out-of-range rank (impossible from our own encoder, possible from a
    /// corrupt or hostile peer) is also a typed error.
    #[test]
    fn out_of_range_envelope_src_is_a_typed_error() {
        let d = Loopback::new(0, 2);
        let mut e = engine(0, 2);
        for (mk, name) in [
            (
                (|env| Packet::Eager {
                    env,
                    send_id: 1,
                    needs_ack: false,
                    ready: false,
                    data: Bytes::from_static(b"x"),
                }) as fn(Envelope) -> Packet,
                "eager",
            ),
            (
                (|env| Packet::RndvReq {
                    env,
                    send_id: 1,
                    lease: None,
                }) as fn(Envelope) -> Packet,
                "rndv-req",
            ),
        ] {
            let env = Envelope {
                src: 9,
                tag: 0,
                context: 0,
                len: 1,
            };
            let err = e
                .handle_wire(&d, Wire::bare(1, mk(env)))
                .expect_err("envelope rank out of range must be rejected");
            assert!(
                matches!(err, MpiError::Transport { .. }),
                "{name}: expected Transport, got {err:?}"
            );
        }
    }

    /// A chunked message longer than the posted buffer truncates exactly
    /// like an eager one: prefix delivered, typed error, and the
    /// receiver keeps acking so the sender's stream still drains.
    #[test]
    fn chunked_rendezvous_truncates_with_prefix() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut small = vec![0u8; 300];
        let rid = e1.post_recv(&d1, dest(&mut small), SourceSel::Any, TagSel::Any, 0);
        let sid = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from(payload.clone()),
                SendMode::Standard,
            )
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        let err = e1.reqs.take_if_done(rid).unwrap().unwrap_err();
        assert_eq!(
            err,
            MpiError::Truncated {
                message_len: 1000,
                buffer_len: 300
            }
        );
        assert_eq!(&small[..], &payload[..300], "prefix delivered");
        assert!(
            e0.reqs.take_if_done(sid).unwrap().is_ok(),
            "sender side completed: the stream fully drained"
        );
        assert!(e0.chunk_streams.is_empty());
    }

    #[test]
    fn stray_rndv_chunk_is_typed_transport_error() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .handle_wire(
                &d0,
                Wire::bare(
                    1,
                    Packet::RndvChunk {
                        recv_id: 42,
                        offset: 0,
                        total: 8,
                        data: Bytes::from_static(b"late"),
                    },
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "got {err:?}"
        );
    }
}
