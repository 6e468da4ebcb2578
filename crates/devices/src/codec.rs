//! Wire codec for the sockets transport: the paper's 25-byte header.
//!
//! > "Of the 25 bytes, 1 byte designates the type of message, such as
//! > envelope, or DMA. 4 bytes are included for telling the destination how
//! > much reserved space has been freed. The last 20 bytes are used for the
//! > envelope, and DMA request information."
//!
//! We keep exactly that layout — 1 type byte, 4 credit bytes, 20
//! envelope/request bytes — followed by the payload for data-bearing
//! packets. (Our credit field packs envelope-slot and byte credits into the
//! 4 bytes: 8 bits of slots, 24 bits of freed bytes — the 24-bit range
//! comfortably covers the receive reserve.)
//!
//! The paper's UDP variant additionally needs sequencing: next to the
//! credit word we carry 16 bytes of reliability state (an 8-byte sequence
//! number and an 8-byte cumulative ack), used by the ack/retransmit
//! sublayer that upgrades a lossy datagram device to "reliable UDP".
//! Version 1 carried these as 4-byte fields, which silently truncated the
//! sublayer's u64 counters after 2^32 frames on a long-lived connection
//! and corrupted go-back-N state — version 2 encodes them in full.
//!
//! Frame layout **version 3** adds 4 bytes after the seq/ack words: the
//! flight-recorder message sequence ([`Wire::msg_seq`], 0 = untagged),
//! which lets the cross-rank trace correlator stitch both ends of a frame
//! to one message. The cost model ([`wire_bytes`]) still charges the
//! paper's 25 bytes so simulated latencies match the published figures.
//!
//! Frame layout **version 4** widens the reliability state by 8 bytes: a
//! selective-repeat ack bitmap ([`Wire::ack_bits`], bit `k` = sequence
//! `ack + 2 + k` received out of order; all-zero under go-back-N) rides
//! beside the cumulative ack, and two new frame types carry the pipelined
//! rendezvous chunk stream (`RndvChunk` with its 32-bit offset/total words
//! in the request-info area, and the window-opening `RndvChunkAck`).
//!
//! Frame layout **version 5** adds no bytes, only two frame types for the
//! rank-failure subsystem: the liveness keepalive `Heartbeat` (header
//! only — its piggybacked acks and credits are the entire payload) and the
//! ULFM `Revoke` flood, which carries the revoked communicator's context
//! id in the request-info area.

use lmpi_core::Bytes;
use lmpi_core::{Envelope, Packet, Rank, Wire};

/// Header length charged by the cost model (the paper's 25 bytes).
pub const HEADER_BYTES: usize = 25;

/// Extra encoded bytes for the reliability sublayer: 8-byte sequence
/// number + 8-byte cumulative ack + 8-byte selective-repeat ack bitmap
/// (layout v4; v2 lacked the bitmap, v1 used 4-byte seq/ack fields that
/// wrapped after 2^32 frames).
pub const SEQ_ACK_BYTES: usize = 24;

/// Extra encoded bytes for the flight recorder: the 4-byte message
/// sequence (layout v3).
pub const MSG_SEQ_BYTES: usize = 4;

/// Offset of the flight-recorder message sequence: after the type byte,
/// credit word and seq/ack words.
const MSG_SEQ_OFF: usize = 1 + 4 + SEQ_ACK_BYTES;

/// Offset of the 20 envelope/request-info bytes within an encoded frame.
const INFO_OFF: usize = MSG_SEQ_OFF + MSG_SEQ_BYTES;

/// Offset of the payload-length word.
const LEN_OFF: usize = INFO_OFF + 20;

/// Offset of the payload itself.
const PAYLOAD_OFF: usize = LEN_OFF + 4;

const T_EAGER: u8 = 1;
const T_EAGER_ACK_REQ: u8 = 2; // synchronous-mode eager
const T_EAGER_READY: u8 = 3;
const T_RNDV_REQ: u8 = 4;
const T_RNDV_GO: u8 = 5;
const T_RNDV_DATA: u8 = 6;
const T_EAGER_ACK: u8 = 7;
const T_CREDIT: u8 = 8;
const T_HW_BCAST: u8 = 9;
const T_RNDV_CHUNK: u8 = 10;
const T_RNDV_CHUNK_ACK: u8 = 11;
const T_HEARTBEAT: u8 = 12;
const T_REVOKE: u8 = 13;

/// Total bytes `wire` occupies on the wire: 25-byte header plus payload.
pub fn wire_bytes(wire: &Wire) -> usize {
    HEADER_BYTES + wire.pkt.payload_len()
}

/// Encode a frame into a fresh vector. See [`encode_into`] for the
/// allocation-free variant used on the hot path.
pub fn encode(wire: &Wire) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(wire, &mut out);
    out
}

/// Encode a frame into `out` (cleared first). The layout is self-contained:
/// no external framing is needed beyond a leading length word added by the
/// stream writer. Devices keep a reusable scratch vector and call this per
/// frame, so steady-state encoding does not allocate.
pub fn encode_into(wire: &Wire, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(HEADER_BYTES + SEQ_ACK_BYTES + MSG_SEQ_BYTES + 4 + wire.pkt.payload_len());
    // 1 byte: message type.
    let (ty, payload): (u8, Option<&Bytes>) = match &wire.pkt {
        Packet::Eager {
            needs_ack,
            ready,
            data,
            ..
        } => (
            if *needs_ack {
                T_EAGER_ACK_REQ
            } else if *ready {
                T_EAGER_READY
            } else {
                T_EAGER
            },
            Some(data),
        ),
        Packet::RndvReq { .. } => (T_RNDV_REQ, None),
        Packet::RndvGo { .. } => (T_RNDV_GO, None),
        Packet::RndvData { data, .. } => (T_RNDV_DATA, Some(data)),
        Packet::RndvChunk { data, .. } => (T_RNDV_CHUNK, Some(data)),
        Packet::RndvChunkAck { .. } => (T_RNDV_CHUNK_ACK, None),
        Packet::EagerAck { .. } => (T_EAGER_ACK, None),
        Packet::Credit => (T_CREDIT, None),
        Packet::HwBcast { data, .. } => (T_HW_BCAST, Some(data)),
        Packet::Heartbeat => (T_HEARTBEAT, None),
        Packet::Revoke { .. } => (T_REVOKE, None),
    };
    out.push(ty);
    // 4 bytes: freed reserved space (credit return): 8 bits env, 24 bits
    // data.
    let env_c = wire.env_credit.min(0xFF);
    let data_c = wire.data_credit.min(0xFF_FFFF);
    let packed = (env_c << 24) | (data_c as u32);
    out.extend_from_slice(&packed.to_le_bytes());
    // 24 bytes: reliability sequence number, cumulative ack and the
    // selective-repeat ack bitmap (the UDP variant's extension; zero when
    // reliability is off). Full u64s: the sublayer's counters never wrap,
    // so neither may the wire fields.
    out.extend_from_slice(&wire.seq.to_le_bytes());
    out.extend_from_slice(&wire.ack.to_le_bytes());
    out.extend_from_slice(&wire.ack_bits.to_le_bytes());
    // 4 bytes: flight-recorder message sequence (0 = untagged frame).
    out.extend_from_slice(&wire.msg_seq.to_le_bytes());
    // 20 bytes: envelope / request info.
    let mut info = [0u8; 20];
    info[0..4].copy_from_slice(&(wire.src as u32).to_le_bytes());
    match &wire.pkt {
        Packet::Eager { env, send_id, .. } => {
            debug_assert!(
                *send_id <= u32::MAX as u64,
                "request id exceeds 20-byte envelope field"
            );
            encode_env(&mut info, env);
            info[16..20].copy_from_slice(&(*send_id as u32).to_le_bytes());
        }
        // A lease has no encoding: only a device that hands frames over in
        // memory carries one (see `Device::lends_memory`).
        Packet::RndvReq { env, send_id, .. } => {
            debug_assert!(
                *send_id <= u32::MAX as u64,
                "request id exceeds 20-byte envelope field"
            );
            encode_env(&mut info, env);
            info[16..20].copy_from_slice(&(*send_id as u32).to_le_bytes());
        }
        Packet::RndvGo { send_id, recv_id } => {
            info[4..8].copy_from_slice(&(*send_id as u32).to_le_bytes());
            info[8..12].copy_from_slice(&(*recv_id as u32).to_le_bytes());
        }
        Packet::RndvData { recv_id, .. } => {
            info[4..8].copy_from_slice(&(*recv_id as u32).to_le_bytes());
        }
        Packet::RndvChunk {
            recv_id,
            offset,
            total,
            ..
        } => {
            debug_assert!(
                *recv_id <= u32::MAX as u64 && *total <= u32::MAX as usize,
                "chunk fields exceed 20-byte request-info area"
            );
            info[4..8].copy_from_slice(&(*recv_id as u32).to_le_bytes());
            info[8..12].copy_from_slice(&(*offset as u32).to_le_bytes());
            info[12..16].copy_from_slice(&(*total as u32).to_le_bytes());
        }
        Packet::RndvChunkAck { send_id } => {
            info[4..8].copy_from_slice(&(*send_id as u32).to_le_bytes());
        }
        Packet::EagerAck { send_id } => {
            info[4..8].copy_from_slice(&(*send_id as u32).to_le_bytes());
        }
        Packet::Credit => {}
        Packet::Heartbeat => {}
        Packet::Revoke { context } => {
            info[4..8].copy_from_slice(&context.to_le_bytes());
        }
        Packet::HwBcast {
            context, root, seq, ..
        } => {
            info[4..8].copy_from_slice(&context.to_le_bytes());
            info[8..12].copy_from_slice(&(*root as u32).to_le_bytes());
            info[12..16].copy_from_slice(&(*seq as u32).to_le_bytes());
        }
    }
    out.extend_from_slice(&info);
    // Payload (length-prefixed so the reader knows how much to take).
    if let Some(data) = payload {
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    } else {
        out.extend_from_slice(&0u32.to_le_bytes());
    }
}

fn encode_env(info: &mut [u8; 20], env: &Envelope) {
    // src already at [0..4] (wire.src == env.src for envelope packets).
    info[4..8].copy_from_slice(&env.tag.to_le_bytes());
    info[8..12].copy_from_slice(&env.context.to_le_bytes());
    info[12..16].copy_from_slice(&(env.len as u32).to_le_bytes());
}

/// Error decoding a frame.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

/// Decode a frame previously produced by [`encode`]. Returns the frame and
/// the number of bytes consumed.
pub fn decode(buf: &[u8]) -> Result<(Wire, usize), DecodeError> {
    if buf.len() < PAYLOAD_OFF {
        return Err(DecodeError(format!("frame too short: {}", buf.len())));
    }
    // Infallible fixed-width reads (bounds checked above / by `total`).
    let u32_le = |off: usize| {
        let mut b = [0u8; 4];
        b.copy_from_slice(&buf[off..off + 4]);
        u32::from_le_bytes(b)
    };
    let u64_le = |off: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[off..off + 8]);
        u64::from_le_bytes(b)
    };
    let ty = buf[0];
    let packed = u32_le(1);
    let env_credit = packed >> 24;
    let data_credit = (packed & 0xFF_FFFF) as u64;
    let seq = u64_le(5);
    let ack = u64_le(13);
    let ack_bits = u64_le(21);
    let msg_seq = u32_le(MSG_SEQ_OFF);
    let src = u32_le(INFO_OFF) as Rank;
    let payload_len = u32_le(LEN_OFF) as usize;
    let total = PAYLOAD_OFF + payload_len;
    if buf.len() < total {
        return Err(DecodeError(format!(
            "payload truncated: have {}, need {total}",
            buf.len()
        )));
    }
    let data = Bytes::copy_from_slice(&buf[PAYLOAD_OFF..total]);
    let u32at = |r: std::ops::Range<usize>| u32_le(INFO_OFF + r.start);
    let env = || Envelope {
        src,
        tag: u32at(4..8),
        context: u32at(8..12),
        len: u32at(12..16) as usize,
    };
    let pkt = match ty {
        T_EAGER | T_EAGER_ACK_REQ | T_EAGER_READY => Packet::Eager {
            env: env(),
            send_id: u32at(16..20) as u64,
            needs_ack: ty == T_EAGER_ACK_REQ,
            ready: ty == T_EAGER_READY,
            data,
        },
        T_RNDV_REQ => Packet::RndvReq {
            env: env(),
            send_id: u32at(16..20) as u64,
            lease: None,
        },
        T_RNDV_GO => Packet::RndvGo {
            send_id: u32at(4..8) as u64,
            recv_id: u32at(8..12) as u64,
        },
        T_RNDV_DATA => Packet::RndvData {
            recv_id: u32at(4..8) as u64,
            data,
        },
        T_RNDV_CHUNK => Packet::RndvChunk {
            recv_id: u32at(4..8) as u64,
            offset: u32at(8..12) as usize,
            total: u32at(12..16) as usize,
            data,
        },
        T_RNDV_CHUNK_ACK => Packet::RndvChunkAck {
            send_id: u32at(4..8) as u64,
        },
        T_EAGER_ACK => Packet::EagerAck {
            send_id: u32at(4..8) as u64,
        },
        T_CREDIT => Packet::Credit,
        T_HEARTBEAT => Packet::Heartbeat,
        T_REVOKE => Packet::Revoke {
            context: u32at(4..8),
        },
        T_HW_BCAST => Packet::HwBcast {
            context: u32at(4..8),
            root: u32at(8..12) as Rank,
            seq: u32at(12..16) as u64,
            data,
        },
        other => return Err(DecodeError(format!("unknown message type {other}"))),
    };
    Ok((
        Wire {
            src,
            seq,
            ack,
            ack_bits,
            env_credit,
            data_credit,
            msg_seq,
            pkt,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(wire: Wire) -> Wire {
        let bytes = encode(&wire);
        let (decoded, used) = decode(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        decoded
    }

    fn env() -> Envelope {
        Envelope {
            src: 3,
            tag: 77,
            context: 2,
            len: 5,
        }
    }

    #[test]
    fn eager_roundtrip_with_credit() {
        let w = roundtrip(Wire {
            src: 3,
            seq: 17,
            ack: 12,
            ack_bits: 0b1011,
            env_credit: 2,
            data_credit: 1024,
            msg_seq: 99,
            pkt: Packet::Eager {
                env: env(),
                send_id: 42,
                needs_ack: false,
                ready: false,
                data: Bytes::from_static(b"hello"),
            },
        });
        assert_eq!(w.src, 3);
        assert_eq!(w.seq, 17);
        assert_eq!(w.ack, 12);
        assert_eq!(w.ack_bits, 0b1011, "selective-repeat bitmap survives");
        assert_eq!(w.env_credit, 2);
        assert_eq!(w.data_credit, 1024);
        assert_eq!(w.msg_seq, 99, "flight-recorder tag survives the wire");
        match w.pkt {
            Packet::Eager {
                env: e,
                send_id,
                needs_ack,
                ready,
                data,
            } => {
                assert_eq!(e, env());
                assert_eq!(send_id, 42);
                assert!(!needs_ack && !ready);
                assert_eq!(data.as_ref(), b"hello");
            }
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn eager_modes_roundtrip() {
        for (needs_ack, ready) in [(true, false), (false, true)] {
            let w = roundtrip(Wire::bare(
                0,
                Packet::Eager {
                    env: env(),
                    send_id: 1,
                    needs_ack,
                    ready,
                    data: Bytes::from_static(b""),
                },
            ));
            match w.pkt {
                Packet::Eager {
                    needs_ack: na,
                    ready: r,
                    ..
                } => assert_eq!((na, r), (needs_ack, ready)),
                other => panic!("wrong packet {other:?}"),
            }
        }
    }

    #[test]
    fn control_packets_roundtrip() {
        let cases = vec![
            Packet::RndvReq {
                env: env(),
                send_id: 9,
                lease: None,
            },
            Packet::RndvGo {
                send_id: 5,
                recv_id: 6,
            },
            Packet::RndvData {
                recv_id: 6,
                data: Bytes::from(vec![1u8; 300]),
            },
            Packet::RndvChunk {
                recv_id: 6,
                offset: 131072,
                total: 1 << 20,
                data: Bytes::from(vec![2u8; 300]),
            },
            Packet::RndvChunkAck { send_id: 5 },
            Packet::EagerAck { send_id: 5 },
            Packet::Credit,
            Packet::Heartbeat,
            Packet::Revoke { context: 6 },
            Packet::HwBcast {
                context: 1,
                root: 2,
                seq: 3,
                data: Bytes::from_static(b"bb"),
            },
        ];
        for pkt in cases {
            let name = pkt.kind_name();
            let w = roundtrip(Wire {
                src: 1,
                seq: 5,
                ack: 4,
                ack_bits: 1 << 63,
                env_credit: 0,
                data_credit: 77,
                msg_seq: 8,
                pkt,
            });
            assert_eq!(w.pkt.kind_name(), name);
            assert_eq!(w.data_credit, 77);
            assert_eq!((w.seq, w.ack), (5, 4));
            assert_eq!(w.ack_bits, 1 << 63);
            assert_eq!(w.msg_seq, 8);
        }
    }

    #[test]
    fn rndv_chunk_fields_roundtrip_exactly() {
        let w = roundtrip(Wire::bare(
            2,
            Packet::RndvChunk {
                recv_id: 77,
                offset: u32::MAX as usize - 5,
                total: u32::MAX as usize,
                data: Bytes::from_static(b"chunk"),
            },
        ));
        match w.pkt {
            Packet::RndvChunk {
                recv_id,
                offset,
                total,
                data,
            } => {
                assert_eq!(recv_id, 77);
                assert_eq!(offset, u32::MAX as usize - 5);
                assert_eq!(total, u32::MAX as usize);
                assert_eq!(data.as_ref(), b"chunk");
            }
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn revoke_context_roundtrips_exactly() {
        let w = roundtrip(Wire::bare(
            1,
            Packet::Revoke {
                context: 0xDEAD_BEEF,
            },
        ));
        match w.pkt {
            Packet::Revoke { context } => assert_eq!(context, 0xDEAD_BEEF),
            other => panic!("wrong packet {other:?}"),
        }
    }

    #[test]
    fn heartbeat_carries_piggybacked_acks() {
        // A heartbeat is pure header: unsequenced, but its ack fields must
        // survive so idle links still return acknowledgment state.
        let w = roundtrip(Wire {
            src: 2,
            seq: 0,
            ack: 41,
            ack_bits: 0b101,
            env_credit: 1,
            data_credit: 64,
            msg_seq: 0,
            pkt: Packet::Heartbeat,
        });
        assert!(matches!(w.pkt, Packet::Heartbeat));
        assert_eq!((w.seq, w.ack, w.ack_bits), (0, 41, 0b101));
        assert_eq!((w.env_credit, w.data_credit), (1, 64));
    }

    #[test]
    fn header_is_exactly_25_bytes_plus_framing() {
        let w = Wire::bare(0, Packet::Credit);
        // 25 header + 24 seq/ack/bitmap + 4 msg-seq + 4-byte payload-length
        // word, no payload.
        assert_eq!(
            encode(&w).len(),
            HEADER_BYTES + SEQ_ACK_BYTES + MSG_SEQ_BYTES + 4
        );
        assert_eq!(wire_bytes(&w), 25, "model cost counts the paper's 25 bytes");
    }

    #[test]
    fn seq_ack_survive_the_u32_boundary() {
        // Regression (runs in release mode too): layout v1 encoded seq/ack
        // as u32s guarded only by a debug_assert!, so a release build wrapped
        // them after 2^32 frames and corrupted go-back-N state. Counters at
        // and beyond the boundary must now round-trip exactly.
        for extra in [0u64, 1, 5, 1 << 20] {
            let seq = u32::MAX as u64 + extra;
            let ack = u32::MAX as u64 + extra / 2;
            let w = roundtrip(Wire {
                src: 1,
                seq,
                ack,
                ack_bits: 0,
                env_credit: 0,
                data_credit: 0,
                msg_seq: 0,
                pkt: Packet::Credit,
            });
            assert_eq!(w.seq, seq, "seq must not truncate at the u32 boundary");
            assert_eq!(w.ack, ack, "ack must not truncate at the u32 boundary");
        }
        let w = roundtrip(Wire {
            src: 0,
            seq: u64::MAX,
            ack: u64::MAX - 1,
            ack_bits: u64::MAX,
            env_credit: 0,
            data_credit: 0,
            msg_seq: u32::MAX,
            pkt: Packet::Credit,
        });
        assert_eq!((w.seq, w.ack), (u64::MAX, u64::MAX - 1));
        assert_eq!(w.ack_bits, u64::MAX);
        assert_eq!(w.msg_seq, u32::MAX);
    }

    #[test]
    fn encode_into_reuses_and_clears_the_scratch_buffer() {
        let mut scratch = Vec::new();
        let big = Wire::bare(
            0,
            Packet::RndvData {
                recv_id: 1,
                data: Bytes::from(vec![7u8; 256]),
            },
        );
        encode_into(&big, &mut scratch);
        assert_eq!(scratch, encode(&big));
        let cap = scratch.capacity();
        // A smaller frame reuses the same storage and leaves no stale tail.
        let small = Wire::bare(0, Packet::Credit);
        encode_into(&small, &mut scratch);
        assert_eq!(scratch, encode(&small));
        assert_eq!(
            scratch.capacity(),
            cap,
            "no reallocation for smaller frames"
        );
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(decode(&[0u8; 10]).is_err());
        let w = Wire::bare(
            0,
            Packet::RndvData {
                recv_id: 1,
                data: Bytes::from(vec![0u8; 100]),
            },
        );
        let enc = encode(&w);
        assert!(decode(&enc[..enc.len() - 1]).is_err(), "truncated payload");
    }

    #[test]
    fn unknown_type_rejected() {
        let mut enc = encode(&Wire::bare(0, Packet::Credit));
        enc[0] = 200;
        assert!(decode(&enc).is_err());
    }
}
