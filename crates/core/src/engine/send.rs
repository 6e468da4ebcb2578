//! The sending half: post, transmit, the flow-control queue, the
//! rendezvous chunk stream and the buffered-mode pool.

use super::*;

/// Reject payloads whose length cannot ride the wire. Envelope lengths and
/// rendezvous chunk offsets are transmitted as `u32`, so a payload of
/// `u32::MAX` bytes or more would silently truncate its chunk offsets on
/// the receiver; such sends fail at post time with a typed error instead.
/// (Checked here rather than at the chunking site so eager sends and
/// chunk streams share one bound.)
fn validate_send_len(len: usize) -> MpiResult<()> {
    if len as u64 >= u32::MAX as u64 {
        Err(MpiError::Unsupported {
            what: format!(
                "message of {len} bytes: payload lengths and chunk offsets \
                 ride the wire as u32, so sends are limited to {} bytes",
                u32::MAX - 1
            ),
        })
    } else {
        Ok(())
    }
}

impl Engine {
    /// Post a send of `data` to global rank `dst`. Returns the request id.
    /// Standard, buffered and ready sends complete immediately (the payload
    /// is copied); synchronous sends complete when matched.
    ///
    /// Payloads whose length does not fit `u32` are rejected with a typed
    /// [`MpiError::Unsupported`] (see [`validate_send_len`]).
    pub(crate) fn post_send(
        &mut self,
        dev: &dyn Device,
        dst: Rank,
        tag: u32,
        context: ContextId,
        data: Bytes,
        mode: SendMode,
    ) -> MpiResult<u64> {
        let env = Envelope {
            src: self.my_rank,
            tag,
            context,
            len: data.len(),
        };
        self.post(dev, dst, env, data, None, mode)
    }

    /// Post a send of `buf`: what the public send calls run. Over a device
    /// that [lends memory](Device::lends_memory), a standard- or
    /// synchronous-mode send above the eager threshold whose memory is its
    /// wire encoding ([`MpiData::as_wire`]) stages nothing — it parks a
    /// [`Lease`] on `buf` for the receiver to pull. Everything else
    /// (eager, ready, buffered, `Loc`/`bool` slices, every other device)
    /// is staged through the pool and posted as [`post_send`](Self::post_send).
    ///
    /// # Safety
    /// The returned request may hold a lease on `buf`. Before `buf`'s
    /// borrow ends the caller must have collected the request's result
    /// (`reqs.take_if_done`), cancelled it ([`Engine::cancel`] returning
    /// `true`) or given it up ([`Engine::abandon`]).
    pub(crate) unsafe fn post_send_slice<T: MpiData>(
        &mut self,
        dev: &dyn Device,
        dst: Rank,
        tag: u32,
        context: ContextId,
        buf: &[T],
        mode: SendMode,
    ) -> MpiResult<u64> {
        let lendable = T::byte_len(buf.len()) > self.eager_threshold
            && matches!(mode, SendMode::Standard | SendMode::Synchronous)
            && dev.lends_memory();
        match T::as_wire(buf) {
            Some(bytes) if lendable => {
                // SAFETY: every path that completes this request closes the
                // lease first (`RequestTable::set`, `Engine::abandon`), and
                // the caller promises one of them runs before `buf`'s borrow
                // ends.
                let lease = unsafe { Lease::open(bytes) };
                let env = Envelope {
                    src: self.my_rank,
                    tag,
                    context,
                    len: bytes.len(),
                };
                self.post_lent(dev, dst, env, lease, mode)
            }
            _ => {
                let data = self.stage_payload(buf);
                self.post_send(dev, dst, tag, context, data, mode)
            }
        }
    }

    /// Post a rendezvous send whose bytes stay where they are, behind
    /// `lease`. (Its own function so that `post` is not inlined into every
    /// instantiation of [`post_send_slice`](Self::post_send_slice).)
    fn post_lent(
        &mut self,
        dev: &dyn Device,
        dst: Rank,
        env: Envelope,
        lease: Arc<Lease>,
        mode: SendMode,
    ) -> MpiResult<u64> {
        self.post(dev, dst, env, Bytes::from_static(b""), Some(lease), mode)
    }

    /// The body of both posts: `data` is the staged payload, or empty
    /// beside the `lease` that stands for it; `env.len` is the message
    /// length either way.
    // Inlined, so that the staged post is the one function it was before
    // there was a second caller (`shm_stream` posts 64 eager sends an op).
    #[inline]
    fn post(
        &mut self,
        dev: &dyn Device,
        dst: Rank,
        env: Envelope,
        data: Bytes,
        lease: Option<Arc<Lease>>,
        mode: SendMode,
    ) -> MpiResult<u64> {
        if self.is_failed(dst) {
            return Err(MpiError::peer_failed(
                dst,
                "send posted to a rank already declared dead",
            ));
        }
        validate_send_len(env.len)?;
        if mode == SendMode::Buffered {
            self.buffer_reserve(env.len)?;
        }
        let tag = env.tag;
        let needs_ack = mode == SendMode::Synchronous;
        // Buffered sends complete at post (the attached buffer now owns the
        // payload); every other mode completes no earlier than the moment
        // the message is actually handed to the device, so a blocking send
        // cannot return — and the program cannot exit — with the message
        // still queued behind flow control.
        let req_id = self.reqs.alloc(if mode == SendMode::Buffered {
            ReqState::Done(Ok(Status {
                source: dst,
                tag,
                len: env.len,
            }))
        } else {
            ReqState::SendQueued
        });
        // Mint the flight-recorder identity: per-sender monotonic,
        // starting at 1 (0 is the "no message" sentinel, skipped on the
        // astronomically distant wrap).
        let msg_seq = self.next_msg_seq;
        self.next_msg_seq = self.next_msg_seq.wrapping_add(1).max(1);
        self.tracer.emit_msg_with(
            self.my_msg(msg_seq),
            || dev.now_ns(),
            EventKind::SendPosted {
                peer: dst as u32,
                bytes: env.len as u32,
                tag,
            },
        );
        let pending = PendingSend {
            req_id,
            msg_seq,
            env,
            mode,
            needs_ack,
            data,
            lease,
        };
        if self.pending_out[dst].is_empty() && self.can_transmit(dst, &pending) {
            self.transmit_send(dev, dst, pending)?;
        } else {
            self.counters.sends_queued += 1;
            self.flow.stalls += 1;
            self.flow.stall_started(dst, dev.now_ns());
            self.tracer.emit_msg_with(
                self.my_msg(msg_seq),
                || dev.now_ns(),
                EventKind::CreditStall { peer: dst as u32 },
            );
            self.pending_out[dst].push_back(pending);
        }
        Ok(req_id)
    }

    /// A ready-mode send skips rendezvous only if one chunk and the
    /// receiver's reserve hold it; a larger one is a standard send.
    fn is_eager(&self, p: &PendingSend) -> bool {
        let ready = p.mode == SendMode::Ready && p.env.len as u64 <= self.flow.recv_buf;
        p.env.len <= self.eager_threshold || (ready && p.env.len <= self.rndv_chunk)
    }

    fn can_transmit(&self, dst: Rank, p: &PendingSend) -> bool {
        if self.is_eager(p) {
            self.flow.can_eager(dst, p.env.len)
        } else {
            self.flow.can_rndv(dst)
        }
    }

    /// `Err` only on a flow-accounting invariant violation
    /// ([`MpiError::Internal`]): callers check `can_*` before calling.
    fn transmit_send(&mut self, dev: &dyn Device, dst: Rank, p: PendingSend) -> MpiResult<()> {
        let eager = self.is_eager(&p);
        let PendingSend {
            req_id,
            msg_seq,
            env,
            mode,
            needs_ack,
            data,
            lease,
        } = p;
        let len = env.len;
        let tag = env.tag;
        if eager {
            self.flow.spend_eager(dst, len)?;
            self.counters.eager_sent += 1;
            self.counters.bytes_sent += len as u64;
            match mode {
                SendMode::Synchronous => self.reqs.set(
                    req_id,
                    ReqState::SendAckWait {
                        status: Status {
                            source: dst,
                            tag,
                            len,
                        },
                    },
                ),
                SendMode::Buffered => {} // completed at post
                SendMode::Standard | SendMode::Ready => self.reqs.complete(
                    req_id,
                    Ok(Status {
                        source: dst,
                        tag,
                        len,
                    }),
                ),
            }
            self.tracer.emit_msg_with(
                self.my_msg(msg_seq),
                || dev.now_ns(),
                EventKind::EagerTx {
                    peer: dst as u32,
                    bytes: len as u32,
                },
            );
            let pkt = Packet::Eager {
                env,
                send_id: req_id,
                needs_ack,
                ready: mode == SendMode::Ready,
                data,
            };
            self.transmit(dev, dst, pkt, msg_seq);
        } else {
            self.flow.spend_rndv(dst)?;
            self.counters.rndv_sent += 1;
            self.rndv_store.insert(
                req_id,
                RndvPayload {
                    data,
                    len,
                    msg_seq,
                    buffered: mode == SendMode::Buffered,
                    tag,
                    dst,
                },
            );
            // Every non-buffered rendezvous send — standard included —
            // completes only once the receiver's go-ahead has been served:
            // the sender must stay in the library to push the data, or to
            // keep the buffer it lent in place.
            if mode != SendMode::Buffered {
                self.reqs.set(
                    req_id,
                    ReqState::SendRndvWait {
                        lease: lease.clone(),
                    },
                );
            }
            self.tracer.emit_msg_with(
                self.my_msg(msg_seq),
                || dev.now_ns(),
                EventKind::RndvReqTx {
                    peer: dst as u32,
                    bytes: len as u32,
                },
            );
            let pkt = Packet::RndvReq {
                env,
                send_id: req_id,
                lease,
            };
            self.transmit(dev, dst, pkt, msg_seq);
        }
        if mode == SendMode::Buffered && eager {
            // Eager transmission: the payload has left; release pool bytes.
            // (Rendezvous buffered sends release in the RndvGo handler.)
            self.buffer_release(len);
        }
        Ok(())
    }

    /// The receiver's go-ahead for a rendezvous send: take the parked
    /// payload and start streaming it — or, for a send that lent its
    /// buffer, take the go-ahead as the receiver's word that it has begun
    /// to pull: complete if the pull has landed already, else hand it out
    /// as a [`Pull`], which completes the send once it has.
    pub(super) fn handle_go(
        &mut self,
        dev: &dyn Device,
        from: Rank,
        send_id: u64,
        recv_id: u64,
    ) -> MpiResult<()> {
        let Some(RndvPayload {
            data,
            len,
            msg_seq,
            buffered,
            tag,
            dst: _,
        }) = self.rndv_store.remove(&send_id)
        else {
            return Err(MpiError::transport_peer(
                from,
                format!(
                    "rendezvous go-ahead for unknown send {send_id} \
                     (duplicated or corrupted frame?)"
                ),
            ));
        };
        // The stashed sequence is authoritative: it identifies our
        // outbound message even if the go-ahead frame was minted by
        // an engine that did not echo it.
        let gmsg = self.my_msg(msg_seq);
        // The real envelope fields, reported when the send
        // completes — never fabricated zeros.
        let status = Status {
            source: from,
            tag,
            len,
        };
        // A send that lent its buffer: the receiver must have begun to pull.
        let lease = match self.reqs.get(send_id) {
            Some(ReqState::SendRndvWait { lease: Some(lease) }) => Some(Arc::clone(lease)),
            _ => None,
        };
        if lease.as_ref().is_some_and(|lease| lease.is_open()) {
            return Err(MpiError::transport_peer(
                from,
                format!(
                    "rendezvous go-ahead for send {send_id}, whose lent buffer \
                     nobody began to pull (lease lost in transit, or a duplicated frame?)"
                ),
            ));
        }
        self.counters.bytes_sent += len as u64;
        self.tracer.emit_msg_with(
            gmsg,
            || dev.now_ns(),
            EventKind::RndvGoRx { peer: from as u32 },
        );
        if let Some(lease) = lease {
            if lease.pulled() {
                self.complete_rndv_send(send_id, status);
            } else {
                self.pulls.push(Pull {
                    lease,
                    req_id: send_id,
                    recv: false,
                    wmsg: gmsg,
                    status,
                    cap: 0,
                });
            }
            return Ok(());
        }
        self.tracer.emit_msg_with(
            gmsg,
            || dev.now_ns(),
            EventKind::DmaStart {
                peer: from as u32,
                bytes: len as u32,
            },
        );
        if buffered {
            self.buffer_release(len);
        }
        // Open the pipeline: burst up to a window of chunks; each
        // returning chunk ack releases one more. A payload within
        // one chunk is a one-chunk stream: a single frame and no
        // ack — the paper's one-DMA transfer.
        let stream = ChunkStream {
            data,
            msg_seq,
            next_offset: 0,
            recv_id,
            dst: from,
            status,
        };
        self.pump_stream(dev, send_id, stream, self.rndv_window);
        Ok(())
    }

    /// Transmit the next chunk of an in-flight rendezvous stream. Returns
    /// `true` when that was the final chunk (the stream is exhausted).
    /// Chunks spend no flow-control credit: the whole message was charged
    /// once, at envelope time.
    fn send_next_chunk(&mut self, dev: &dyn Device, stream: &mut ChunkStream) -> bool {
        let total = stream.data.len();
        let offset = stream.next_offset;
        let end = offset.saturating_add(self.rndv_chunk).min(total);
        let chunk = stream.data.slice(offset..end);
        stream.next_offset = end;
        self.counters.rndv_chunks_sent += 1;
        self.transmit(
            dev,
            stream.dst,
            Packet::RndvChunk {
                recv_id: stream.recv_id,
                offset,
                total,
                data: chunk,
            },
            stream.msg_seq,
        );
        end == total
    }

    /// Transmit up to `burst` more chunks of `stream`, then complete the
    /// send if that exhausted it or park the stream for the next chunk ack.
    pub(super) fn pump_stream(
        &mut self,
        dev: &dyn Device,
        send_id: u64,
        mut stream: ChunkStream,
        burst: u32,
    ) {
        if (0..burst).any(|_| self.send_next_chunk(dev, &mut stream)) {
            self.complete_rndv_send(send_id, stream.status);
        } else {
            self.chunk_streams.insert(send_id, stream);
        }
    }

    /// Complete a rendezvous send whose data has fully left, reporting the
    /// real envelope status. Buffered-mode sends already completed at post
    /// and are left alone.
    pub(super) fn complete_rndv_send(&mut self, send_id: u64, status: Status) {
        if matches!(self.reqs.get(send_id), Some(ReqState::SendRndvWait { .. })) {
            self.reqs.complete(send_id, Ok(status));
        }
    }

    /// Drain per-destination queues in FIFO order as credit allows.
    pub(super) fn flush_pending(&mut self, dev: &dyn Device) -> MpiResult<()> {
        for dst in 0..self.pending_out.len() {
            let mut drained_any = false;
            loop {
                if !self.pending_out[dst]
                    .front()
                    .is_some_and(|p| self.can_transmit(dst, p))
                {
                    break;
                }
                let Some(p) = self.pending_out[dst].pop_front() else {
                    // Unreachable while the loop holds `&mut self`, but a
                    // typed error beats a panic if a refactor ever lets the
                    // queue drain between the peek and the pop.
                    return Err(MpiError::internal(format!(
                        "pending queue for rank {dst} emptied between peek and pop"
                    )));
                };
                self.transmit_send(dev, dst, p)?;
                drained_any = true;
            }
            if drained_any && self.pending_out[dst].is_empty() {
                // The credit stall against this peer is over; close the
                // interval the queueing opened in `post_send`.
                let stalled_ns = self.flow.stall_ended(dst, dev.now_ns());
                self.counters.credit_stall_ns += stalled_ns;
                if stalled_ns > 0 {
                    self.tracer.emit_with(
                        || dev.now_ns(),
                        EventKind::CreditResume {
                            peer: dst as u32,
                            stalled_ns,
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Whether any sends are still queued behind flow control.
    pub(crate) fn has_pending_sends(&self) -> bool {
        self.pending_out.iter().any(|q| !q.is_empty())
    }

    /// Attach `capacity` bytes of buffered-send space.
    pub(crate) fn buffer_attach(&mut self, capacity: usize) {
        assert!(
            self.buffer_pool.is_none(),
            "buffer already attached; detach first"
        );
        self.buffer_pool = Some((capacity, 0));
    }

    /// Detach the buffered-send space; errors if still in use.
    pub(crate) fn buffer_detach(&mut self) -> MpiResult<usize> {
        match self.buffer_pool {
            None => Err(MpiError::NoBufferAttached),
            Some((_, used)) if used > 0 => Err(MpiError::BufferInUse),
            Some((cap, _)) => {
                self.buffer_pool = None;
                Ok(cap)
            }
        }
    }

    fn buffer_reserve(&mut self, len: usize) -> MpiResult<()> {
        match &mut self.buffer_pool {
            None => Err(MpiError::NoBufferAttached),
            Some((cap, used)) => {
                if *used + len > *cap {
                    Err(MpiError::BufferOverflow {
                        needed: len,
                        available: *cap - *used,
                    })
                } else {
                    *used += len;
                    Ok(())
                }
            }
        }
    }

    pub(super) fn buffer_release(&mut self, len: usize) {
        if let Some((_, used)) = &mut self.buffer_pool {
            *used = used.saturating_sub(len);
        }
    }

    /// A send leaves `pending_out` without being transmitted (cancelled,
    /// peer dead, context revoked). A buffered one completed at post; its
    /// pool bytes still need releasing.
    pub(super) fn release_queued(&mut self, p: &PendingSend) {
        if p.mode == SendMode::Buffered {
            self.buffer_release(p.data.len());
        }
    }

    /// Bytes of attached buffer space still owned by queued buffered sends.
    pub(crate) fn buffered_in_use(&self) -> usize {
        self.buffer_pool.map_or(0, |(_, used)| used)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    /// Boundary check for the u32 wire limit: chunk offsets and envelope
    /// lengths are transmitted as `u32`, so `u32::MAX`-byte-and-larger
    /// payloads must be rejected at post time (validated directly — no
    /// 4 GiB allocation).
    #[test]
    fn send_len_validated_against_u32_wire_limit() {
        assert!(validate_send_len(0).is_ok());
        assert!(validate_send_len(u32::MAX as usize - 1).is_ok());
        let at_limit = validate_send_len(u32::MAX as usize);
        assert!(
            matches!(at_limit, Err(MpiError::Unsupported { .. })),
            "u32::MAX bytes must be a typed rejection, got {at_limit:?}"
        );
        #[cfg(target_pointer_width = "64")]
        {
            let over = validate_send_len(u32::MAX as usize + 1);
            assert!(
                matches!(over, Err(MpiError::Unsupported { .. })),
                "a >4 GiB payload would truncate its chunk offsets, got {over:?}"
            );
        }
    }

    #[test]
    fn eager_send_completes_immediately_and_delivers() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let sid = e0
            .post_send(&d0, 1, 7, 0, Bytes::from_static(b"hi"), SendMode::Standard)
            .unwrap();
        assert!(
            e0.reqs.take_if_done(sid).unwrap().is_ok(),
            "standard eager done at post"
        );

        let mut buf = [0u8; 8];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Rank(0), TagSel::Tag(7), 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!(st.source, 0);
        assert_eq!(st.tag, 7);
        assert_eq!(st.len, 2);
        assert_eq!(&buf[..2], b"hi");
        assert_eq!(e0.counters.eager_sent, 1);
        assert_eq!(e0.counters.rndv_sent, 0);
    }

    #[test]
    fn large_message_goes_rendezvous() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let payload = vec![0xAB; 1000]; // > 180-byte threshold
        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let _sid = e0
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
        let st = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!(st.len, 1000);
        assert_eq!(buf, payload);
        assert_eq!(e0.counters.rndv_sent, 1);
        // 1000 bytes over 256-byte chunks: a pipelined stream of 4.
        assert_eq!(e0.counters.rndv_chunks_sent, 4);
        // Rendezvous path must not charge the receiver-side buffered copy.
        let copies = d1
            .charges
            .lock()
            .unwrap()
            .iter()
            .filter(|c| matches!(c, Cost::BufferedCopy(_)))
            .count();
        assert_eq!(
            copies, 0,
            "direct delivery must avoid the bounce-buffer copy"
        );
    }

    #[test]
    fn synchronous_eager_waits_for_ack() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let sid = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"x"),
                SendMode::Synchronous,
            )
            .unwrap();
        assert!(
            e0.reqs.take_if_done(sid).is_none(),
            "ssend not done before match"
        );
        let mut buf = [0u8; 1];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(
            e0.reqs.take_if_done(sid).unwrap().is_ok(),
            "ack completes ssend"
        );
        assert_eq!(e1.counters.acks_sent, 1);
    }

    #[test]
    fn synchronous_rendezvous_completes_on_go() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let big = Bytes::from(vec![1u8; 500]);
        let sid = e0
            .post_send(&d0, 1, 0, 0, big, SendMode::Synchronous)
            .unwrap();
        assert!(e0.reqs.take_if_done(sid).is_none());
        let mut buf = vec![0u8; 500];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e0.reqs.take_if_done(sid).unwrap().is_ok());
        assert!(e1.reqs.take_if_done(rid).unwrap().is_ok());
    }

    #[test]
    fn flow_control_queues_and_drains() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        // Single envelope slot (Meiko policy).
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut e1 = Engine::new(1, 2, 180, 1, 1 << 16, 256, 2);

        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"a"), SendMode::Standard)
            .unwrap();
        e0.post_send(&d0, 1, 1, 0, Bytes::from_static(b"b"), SendMode::Standard)
            .unwrap();
        assert!(
            e0.has_pending_sends(),
            "second send must queue on single slot"
        );
        assert_eq!(e0.counters.sends_queued, 1);

        let mut b0 = [0u8; 1];
        let mut b1 = [0u8; 1];
        let r0 = e1.post_recv(&d1, dest(&mut b0), SourceSel::Any, TagSel::Tag(0), 0);
        let r1 = e1.post_recv(&d1, dest(&mut b1), SourceSel::Any, TagSel::Tag(1), 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(!e0.has_pending_sends());
        assert!(e1.reqs.take_if_done(r0).unwrap().is_ok());
        assert!(e1.reqs.take_if_done(r1).unwrap().is_ok());
        assert_eq!(&b0, b"a");
        assert_eq!(&b1, b"b");
    }

    /// A ready send above the eager threshold still travels with its
    /// envelope while one chunk holds it; past that it is a standard
    /// rendezvous send, so no frame outgrows what a standard send makes.
    #[test]
    fn ready_send_is_eager_up_to_one_chunk() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let (mut one, mut more) = (vec![0u8; 256], vec![0u8; 4096]);
        let r0 = e1.post_recv(&d1, dest(&mut one), SourceSel::Any, TagSel::Tag(0), 0);
        let r1 = e1.post_recv(&d1, dest(&mut more), SourceSel::Any, TagSel::Tag(1), 0);
        e0.post_send(&d0, 1, 0, 0, Bytes::from(vec![9u8; 256]), SendMode::Ready)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e1.reqs.take_if_done(r0).unwrap().is_ok());
        assert_eq!(e0.counters.eager_sent, 1, "one chunk rides the envelope");
        assert_eq!(e0.counters.rndv_sent, 0);

        let sid = e0
            .post_send(&d0, 1, 1, 0, Bytes::from(vec![7u8; 4096]), SendMode::Ready)
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e1.reqs.take_if_done(r1).unwrap().is_ok());
        assert!(e0.reqs.take_if_done(sid).unwrap().is_ok());
        assert_eq!(e0.counters.eager_sent, 1);
        assert_eq!(e0.counters.rndv_sent, 1, "past one chunk it is standard");
        assert!(one == [9u8; 256] && more == [7u8; 4096]);
    }

    #[test]
    fn buffered_send_requires_attach_and_detects_overflow() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .post_send(&d0, 1, 0, 0, Bytes::from_static(b"x"), SendMode::Buffered)
            .unwrap_err();
        assert_eq!(err, MpiError::NoBufferAttached);

        e0.buffer_attach(4);
        e0.post_send(&d0, 1, 0, 0, Bytes::from_static(b"abc"), SendMode::Buffered)
            .unwrap();
        // Eager send released the space immediately; a 5-byte send still
        // cannot fit the 4-byte pool.
        let err = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"12345"),
                SendMode::Buffered,
            )
            .unwrap_err();
        assert!(matches!(err, MpiError::BufferOverflow { needed: 5, .. }));
        assert_eq!(e0.buffer_detach().unwrap(), 4);
        assert_eq!(e0.buffer_detach().unwrap_err(), MpiError::NoBufferAttached);
    }

    #[test]
    fn duplicate_eager_ack_is_ignored() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);

        let sid = e0
            .post_send(
                &d0,
                1,
                0,
                0,
                Bytes::from_static(b"x"),
                SendMode::Synchronous,
            )
            .unwrap();
        let mut buf = [0u8; 1];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e0.reqs.take_if_done(sid).unwrap().is_ok());
        // A lossy device re-delivers the ack after the send is gone; the
        // engine must shrug, not panic or complete a recycled request.
        e0.handle_wire(&d0, Wire::bare(1, Packet::EagerAck { send_id: sid }))
            .unwrap();
    }

    #[test]
    fn stray_rndv_go_is_typed_transport_error() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        let err = e0
            .handle_wire(
                &d0,
                Wire::bare(
                    1,
                    Packet::RndvGo {
                        send_id: 99,
                        recv_id: 7,
                    },
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, MpiError::Transport { peer: Some(1), .. }),
            "got {err:?}"
        );
    }

    /// A payload within one chunk is a one-chunk stream: exactly one data
    /// frame, a `RndvChunk`, and no chunk ack comes back.
    #[test]
    fn one_chunk_stream_is_one_frame_and_no_ack() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        let mut buf = vec![0u8; 256];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from(vec![8u8; 256]),
            SendMode::Standard,
        )
        .unwrap();
        let (from0, from1) = pump_kinds(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(from0, ["rndv_req", "rndv_chunk"]);
        assert_eq!(from1, ["rndv_go"]);
        assert_eq!(e0.counters.rndv_chunks_sent, 1);
        assert!(e0.chunk_streams.is_empty());
        assert_eq!(e1.reqs.take_if_done(rid).unwrap().unwrap().len, 256);
        assert_eq!(buf, vec![8u8; 256]);
    }

    /// Over a device that lends memory a contiguous rendezvous is the
    /// request, one copy made by the receiver straight out of the sender's
    /// buffer, and the go-ahead: no staging, no data frame.
    #[test]
    fn lent_rendezvous_is_two_frames_and_one_copy() {
        let d0 = Loopback::lending(0, 2);
        let d1 = Loopback::lending(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        e0.tracer = Tracer::enabled(0, 64);
        e1.tracer = Tracer::enabled(1, 64);

        let payload: &[u8] = (0..1000u32)
            .map(|i| (i * 7) as u8)
            .collect::<Vec<_>>()
            .leak();
        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let grows = e0.folded_counters().pool_grows;
        let sid = post_slice(&mut e0, &d0, 3, payload, SendMode::Standard);
        assert!(
            e0.reqs.take_if_done(sid).is_none(),
            "the buffer stays lent until the receiver has pulled it"
        );
        let (from0, from1) = pump_kinds(&mut e0, &d0, &mut e1, &d1);
        assert_eq!(from0, ["rndv_req"]);
        assert_eq!(from1, ["rndv_go"]);
        assert_eq!(buf, payload);
        let rst = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!((rst.source, rst.tag, rst.len), (0, 3, 1000));
        let sst = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!((sst.source, sst.tag, sst.len), (1, 3, 1000));

        let (c0, c1) = (e0.folded_counters(), e1.folded_counters());
        assert_eq!((c0.rndv_sent, c0.rndv_chunks_sent), (1, 0));
        assert_eq!(c0.pool_grows, grows, "nothing was staged");
        assert_eq!((c0.bytes_sent, c1.bytes_received), (1000, 1000));
        assert_eq!((c0.rndv_pulled, c1.rndv_pulled), (0, 1));
        assert_eq!(c0.pull_bytes_helped, 0);
        assert!(e0.rndv_store.is_empty() && e0.chunk_streams.is_empty());

        assert_eq!(
            trace_names(&e0),
            ["SendPosted", "RndvReqTx", "WireRx", "RndvGoRx"],
            "the pull had landed when the go-ahead came: nothing left to copy"
        );
        assert_eq!(
            trace_names(&e1),
            [
                "RecvPosted",
                "WireRx",
                "EnvelopeMatched",
                "DmaStart",
                "RndvGoTx",
                "DmaEnd",
                "Delivered"
            ],
            "the go-ahead leaves as the pull begins"
        );
    }

    fn trace_names(e: &Engine) -> Vec<&'static str> {
        let events = e.tracer.snapshot().events;
        events.iter().map(|e| e.kind.name()).collect()
    }

    /// The sender takes the go-ahead before the receiver's thread has
    /// copied anything: the sender copies the pull (here all of it), stamps
    /// its own `DmaStart`/`DmaEnd` under the message's id, counts the bytes
    /// as helped, and completes; the receiver's copy finds nothing left
    /// and delivers.
    #[test]
    fn a_sender_that_takes_the_go_ahead_first_copies_the_pull() {
        let d0 = Loopback::lending(0, 2);
        let d1 = Loopback::lending(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        e0.tracer = Tracer::enabled(0, 64);
        e1.tracer = Tracer::enabled(1, 64);

        let payload: &[u8] = (0..1000u32)
            .map(|i| (i * 13) as u8)
            .collect::<Vec<_>>()
            .leak();
        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let sid = post_slice(&mut e0, &d0, 3, payload, SendMode::Standard);
        for (_, wire) in d0.sent.lock().unwrap().drain(..) {
            e1.handle_wire(&d1, wire).unwrap();
        }
        let theirs = e1.take_pull().expect("the match began a pull");
        for (_, wire) in d1.sent.lock().unwrap().drain(..) {
            e0.handle_wire(&d0, wire).unwrap();
        }
        assert!(e0.reqs.take_if_done(sid).is_none(), "not before it landed");
        run_pulls(&mut e0, &d0);
        assert_eq!(buf, payload, "the sender copied every chunk");
        assert_eq!(e0.counters.pull_bytes_helped, 1000);
        assert_eq!(e0.reqs.take_if_done(sid).unwrap().unwrap().len, 1000);

        assert_eq!(theirs.run(true), 0, "nothing left for the receiver");
        e1.finish_pull(&d1, theirs, 0, None);
        assert_eq!(e1.reqs.take_if_done(rid).unwrap().unwrap().len, 1000);
        assert_eq!(e1.counters.rndv_pulled, 1);
        assert_eq!(
            trace_names(&e0),
            [
                "SendPosted",
                "RndvReqTx",
                "WireRx",
                "RndvGoRx",
                "DmaStart",
                "DmaEnd"
            ]
        );
        let events = e0.tracer.snapshot().events;
        assert!(events[4..].iter().all(|e| e.msg == e0.my_msg(1)));
    }

    /// Only what the issue names is lent: a standard or synchronous send
    /// of plain-old-data above the threshold, over a lending device.
    #[test]
    fn everything_else_keeps_staging() {
        use crate::datatype::Loc;
        let lending = Loopback::lending(0, 2);
        let plain = Loopback::new(0, 2);
        let lent = |dev: &Loopback, mode, post: &dyn Fn(&mut Engine, &Loopback, SendMode)| {
            let mut e = engine(0, 2);
            e.buffer_attach(1 << 12);
            post(&mut e, dev, mode);
            let frames = dev.sent.lock().unwrap().drain(..).collect::<Vec<_>>();
            let [(1, wire)] = &frames[..] else {
                panic!("one frame to rank 1, got {frames:?}")
            };
            matches!(&wire.pkt, Packet::RndvReq { lease: Some(_), .. })
        };
        let big: &[u8] = vec![1u8; 1000].leak();
        let bytes = |e: &mut Engine, d: &Loopback, mode| {
            post_slice(e, d, 0, big, mode);
        };
        let small = |e: &mut Engine, d: &Loopback, mode| {
            post_slice(e, d, 0, &big[..180], mode);
        };
        let locs = |e: &mut Engine, d: &Loopback, mode| {
            let loc = Loc {
                value: 1.5f64,
                index: 2,
            };
            post_slice(e, d, 0, vec![loc; 100].leak(), mode);
        };
        assert!(lent(&lending, SendMode::Standard, &bytes));
        assert!(lent(&lending, SendMode::Synchronous, &bytes));
        assert!(!lent(&lending, SendMode::Buffered, &bytes));
        assert!(!lent(&lending, SendMode::Ready, &bytes), "ready stages");
        assert!(!lent(&lending, SendMode::Standard, &small), "at threshold");
        assert!(!lent(&lending, SendMode::Standard, &locs), "not its wire");
        assert!(!lent(&plain, SendMode::Standard, &bytes), "device says no");
    }

    /// The chunked path delivers byte-identical data, brackets the stream
    /// with one DmaStart/DmaEnd pair, and acks every chunk but the last.
    #[test]
    fn chunked_rendezvous_pipelines_and_delivers() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        e0.tracer = Tracer::enabled(0, 128);
        e1.tracer = Tracer::enabled(1, 128);

        // 1000 bytes / 256-byte chunks = 4 chunks, window 2.
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        let sid = e0
            .post_send(
                &d0,
                1,
                3,
                0,
                Bytes::from(payload.clone()),
                SendMode::Synchronous,
            )
            .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);

        assert_eq!(buf, payload, "chunks reassemble byte-identically");
        let rst = e1.reqs.take_if_done(rid).unwrap().unwrap();
        assert_eq!((rst.source, rst.tag, rst.len), (0, 3, 1000));
        let sst = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!(
            (sst.source, sst.tag, sst.len),
            (1, 3, 1000),
            "sender status carries the real envelope, not zeros"
        );
        assert_eq!(e0.counters.rndv_chunks_sent, 4);
        assert!(e0.chunk_streams.is_empty(), "stream state reclaimed");

        let sender: Vec<&str> = e0
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            sender.iter().filter(|n| **n == "DmaStart").count(),
            1,
            "one DmaStart brackets the whole stream: {sender:?}"
        );
        let receiver: Vec<&str> = e1
            .tracer
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(receiver.iter().filter(|n| **n == "DmaEnd").count(), 1);
        assert_eq!(receiver.iter().filter(|n| **n == "Delivered").count(), 1);
        assert_eq!(
            receiver.last(),
            Some(&"Delivered"),
            "stream ends with delivery: {receiver:?}"
        );
    }

    /// Chunks spend no flow-control credit beyond the envelope's: a
    /// message needing 4 chunks moves through a single rendezvous slot.
    #[test]
    fn chunks_spend_no_extra_credit() {
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        // Single envelope slot: if chunks charged credit, the stream
        // would starve itself and this test would hang or error.
        let mut e0 = Engine::new(0, 2, 180, 1, 1 << 16, 256, 2);
        let mut e1 = Engine::new(1, 2, 180, 1, 1 << 16, 256, 2);

        let mut buf = vec![0u8; 1000];
        let rid = e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        e0.post_send(
            &d0,
            1,
            0,
            0,
            Bytes::from(vec![9u8; 1000]),
            SendMode::Standard,
        )
        .unwrap();
        pump(&mut e0, &d0, &mut e1, &d1);
        assert!(e1.reqs.take_if_done(rid).unwrap().is_ok());
        assert_eq!(e0.counters.rndv_chunks_sent, 4);
        assert_eq!(e0.counters.sends_queued, 0, "never stalled on credit");
    }

    /// Synchronous-mode regression for the fabricated-status bug: both the
    /// eager and the rendezvous ack paths must report the real envelope.
    #[test]
    fn ssend_completion_reports_real_tag_and_len() {
        // Eager ssend (below threshold): status arrives with the ack.
        let d0 = Loopback::new(0, 2);
        let d1 = Loopback::new(1, 2);
        let mut e0 = engine(0, 2);
        let mut e1 = engine(1, 2);
        let sid = e0
            .post_send(
                &d0,
                1,
                42,
                0,
                Bytes::from_static(b"hello"),
                SendMode::Synchronous,
            )
            .unwrap();
        let mut buf = [0u8; 5];
        e1.post_recv(&d1, dest(&mut buf), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!((st.source, st.tag, st.len), (1, 42, 5));

        // Rendezvous ssend (one chunk): status arrives with the go.
        let sid = e0
            .post_send(
                &d0,
                1,
                77,
                0,
                Bytes::from(vec![1u8; 200]),
                SendMode::Synchronous,
            )
            .unwrap();
        let mut big = vec![0u8; 200];
        e1.post_recv(&d1, dest(&mut big), SourceSel::Any, TagSel::Any, 0);
        pump(&mut e0, &d0, &mut e1, &d1);
        let st = e0.reqs.take_if_done(sid).unwrap().unwrap();
        assert_eq!((st.source, st.tag, st.len), (1, 77, 200));
    }

    /// Late chunk acks (the final chunk is never acked, so trailing acks
    /// always outlive the stream) are silently ignored, not an error.
    #[test]
    fn late_chunk_ack_is_ignored() {
        let d0 = Loopback::new(0, 2);
        let mut e0 = engine(0, 2);
        e0.handle_wire(&d0, Wire::bare(1, Packet::RndvChunkAck { send_id: 999 }))
            .unwrap();
    }
}
