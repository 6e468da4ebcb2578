//! Property tests for the 25-byte-header wire codec: arbitrary frames
//! round-trip exactly, and truncated or corrupted frames are rejected
//! rather than misparsed.

use lmpi_core::{Bytes, Envelope, Packet, Wire};
use lmpi_devices::codec::{
    decode, encode, encode_head, wire_bytes, HEADER_BYTES, MSG_SEQ_BYTES, SEQ_ACK_BYTES,
};
use lmpi_sim::{for_each_case, SplitMix64};

fn gen_envelope(rng: &mut SplitMix64) -> Envelope {
    Envelope {
        src: rng.range(0..64),
        tag: rng.range(0..1000) as u32,
        context: rng.range(0..8) as u32,
        len: rng.range(0..10_000),
    }
}

fn gen_payload(rng: &mut SplitMix64) -> Bytes {
    Bytes::from(rng.vec(0..600, |r| r.next_u64() as u8))
}

/// A request id below `u32::MAX`.
fn gen_id(rng: &mut SplitMix64) -> u64 {
    rng.range(0..u32::MAX as usize) as u64
}

/// Any packet: every variant, and the eager one in all three of its modes,
/// so every frame type code (1 to 13, but the retired 12) is generated.
fn gen_packet(rng: &mut SplitMix64) -> Packet {
    match rng.range(0..10) {
        0 => {
            // needs_ack and ready are mutually exclusive in practice.
            let mode = rng.range(0..3);
            Packet::Eager {
                env: gen_envelope(rng),
                send_id: gen_id(rng),
                needs_ack: mode == 1,
                ready: mode == 2,
                data: gen_payload(rng),
            }
        }
        1 => Packet::RndvReq {
            env: gen_envelope(rng),
            send_id: gen_id(rng),
            lease: None,
        },
        2 => Packet::RndvGo {
            send_id: gen_id(rng),
            recv_id: gen_id(rng),
        },
        3 => Packet::RndvData {
            recv_id: gen_id(rng),
            data: gen_payload(rng),
        },
        4 => Packet::RndvChunk {
            recv_id: gen_id(rng),
            offset: rng.range(0..u32::MAX as usize),
            total: rng.range(0..u32::MAX as usize),
            data: gen_payload(rng),
        },
        5 => Packet::RndvChunkAck {
            send_id: gen_id(rng),
        },
        6 => Packet::EagerAck {
            send_id: gen_id(rng),
        },
        7 => Packet::Credit,
        8 => Packet::Revoke {
            context: rng.next_u64() as u32,
        },
        _ => Packet::HwBcast {
            context: rng.range(0..8) as u32,
            root: rng.range(0..64),
            seq: rng.range(0..1000) as u64,
            data: gen_payload(rng),
        },
    }
}

fn gen_wire(rng: &mut SplitMix64) -> Wire {
    let src = rng.range(0..64);
    let mut pkt = gen_packet(rng);
    // Protocol invariant the codec relies on (the 20-byte envelope stores
    // the source once): envelope packets are always sent by their own
    // source rank.
    match &mut pkt {
        Packet::Eager { env, .. } | Packet::RndvReq { env, .. } => env.src = src,
        _ => {}
    }
    Wire {
        src,
        // Full u64 range: layout v2 carries seq/ack uncompressed, so frames
        // past the old u32 boundary must round-trip too.
        seq: rng.next_u64(),
        ack: rng.next_u64(),
        // Full u64 range for the v4 selective-repeat ack bitmap.
        ack_bits: rng.next_u64(),
        env_credit: rng.range(0..200).min(0xFF) as u32,
        data_credit: rng.range(0..0xFF_FFFF) as u64,
        // Full u32 range for the v3 flight-recorder tag (0 = untagged).
        msg_seq: rng.next_u64() as u32,
        pkt,
    }
}

fn assert_wire_eq(a: &Wire, b: &Wire) {
    assert_eq!(a.src, b.src);
    assert_eq!(a.seq, b.seq);
    assert_eq!(a.ack, b.ack);
    assert_eq!(a.ack_bits, b.ack_bits);
    assert_eq!(a.env_credit, b.env_credit);
    assert_eq!(a.data_credit, b.data_credit);
    assert_eq!(a.msg_seq, b.msg_seq);
    match (&a.pkt, &b.pkt) {
        (
            Packet::Eager {
                env: e1,
                send_id: s1,
                needs_ack: n1,
                ready: r1,
                data: d1,
            },
            Packet::Eager {
                env: e2,
                send_id: s2,
                needs_ack: n2,
                ready: r2,
                data: d2,
            },
        ) => {
            assert_eq!(e1, e2);
            assert_eq!(s1, s2);
            assert_eq!((n1, r1), (n2, r2));
            assert_eq!(d1, d2);
        }
        (
            Packet::RndvReq {
                env: e1,
                send_id: s1,
                lease: None,
            },
            Packet::RndvReq {
                env: e2,
                send_id: s2,
                lease: None,
            },
        ) => {
            assert_eq!(e1, e2);
            assert_eq!(s1, s2);
        }
        (
            Packet::RndvGo {
                send_id: s1,
                recv_id: r1,
            },
            Packet::RndvGo {
                send_id: s2,
                recv_id: r2,
            },
        ) => {
            assert_eq!((s1, r1), (s2, r2));
        }
        (
            Packet::RndvData {
                recv_id: r1,
                data: d1,
            },
            Packet::RndvData {
                recv_id: r2,
                data: d2,
            },
        ) => {
            assert_eq!(r1, r2);
            assert_eq!(d1, d2);
        }
        (
            Packet::RndvChunk {
                recv_id: r1,
                offset: o1,
                total: t1,
                data: d1,
            },
            Packet::RndvChunk {
                recv_id: r2,
                offset: o2,
                total: t2,
                data: d2,
            },
        ) => {
            assert_eq!((r1, o1, t1), (r2, o2, t2));
            assert_eq!(d1, d2);
        }
        (Packet::RndvChunkAck { send_id: s1 }, Packet::RndvChunkAck { send_id: s2 }) => {
            assert_eq!(s1, s2);
        }
        (Packet::EagerAck { send_id: s1 }, Packet::EagerAck { send_id: s2 }) => {
            assert_eq!(s1, s2);
        }
        (Packet::Credit, Packet::Credit) => {}
        (Packet::Revoke { context: c1 }, Packet::Revoke { context: c2 }) => {
            assert_eq!(c1, c2);
        }
        (
            Packet::HwBcast {
                context: c1,
                root: r1,
                seq: s1,
                data: d1,
            },
            Packet::HwBcast {
                context: c2,
                root: r2,
                seq: s2,
                data: d2,
            },
        ) => {
            assert_eq!((c1, r1, s1), (c2, r2, s2));
            assert_eq!(d1, d2);
        }
        (x, y) => panic!(
            "packet kind changed: {} vs {}",
            x.kind_name(),
            y.kind_name()
        ),
    }
}

#[test]
fn roundtrip_any_frame() {
    for_each_case(512, |rng| {
        let wire = gen_wire(rng);
        let enc = encode(&wire);
        let (dec, used) = decode(&enc).expect("well-formed frame");
        assert_eq!(used, enc.len());
        assert_wire_eq(&wire, &dec);
    });
}

#[test]
fn encoded_size_is_header_plus_payload() {
    for_each_case(512, |rng| {
        let wire = gen_wire(rng);
        let enc = encode(&wire);
        // encode adds the 24 seq/ack/bitmap bytes of the reliability
        // sublayer, the 4-byte flight-recorder tag and a 4-byte payload
        // length word to the paper's 25-byte header; the *cost model*
        // (wire_bytes) still charges the paper's header alone.
        assert_eq!(
            enc.len(),
            HEADER_BYTES + SEQ_ACK_BYTES + MSG_SEQ_BYTES + 4 + wire.pkt.payload_len()
        );
        assert_eq!(wire_bytes(&wire), HEADER_BYTES + wire.pkt.payload_len());
        // What the stream writer sends: the head, then the payload.
        let (head, payload) = encode_head(&wire);
        assert_eq!([&head[..], payload].concat(), enc);
    });
}

#[test]
fn generator_covers_every_frame_type() {
    let mut seen = [false; 14];
    for_each_case(512, |rng| {
        seen[usize::from(encode(&gen_wire(rng))[0])] = true
    });
    // Type 12, the retired keepalive, is never encoded.
    let missing: Vec<usize> = (1..14).filter(|&ty| ty != 12 && !seen[ty]).collect();
    assert!(missing.is_empty(), "no frame of type {missing:?} generated");
}

#[test]
fn truncation_never_panics() {
    // Every proper prefix of a frame, down to nothing, is a typed error:
    // none decodes and none panics (the whole frame is `roundtrip_any_frame`).
    for_each_case(512, |rng| {
        let enc = encode(&gen_wire(rng));
        for cut in 0..enc.len() {
            assert!(
                decode(&enc[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte frame decoded",
                enc.len()
            );
        }
    });
}

#[test]
fn random_bytes_never_panic() {
    for_each_case(512, |rng| {
        let bytes = rng.vec(0..200, |r| r.next_u64() as u8);
        let _ = decode(&bytes); // must not panic; Err is fine
    });
}
