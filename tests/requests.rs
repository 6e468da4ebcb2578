//! Interaction tests for the request-completion surface: `wait_any`
//! returning completions in arrival order, the all-or-nothing `test_all`
//! contract, and `cancel` on both unmatched and already-matched receives.
//!
//! Ordering is made deterministic with handshakes (one message in flight
//! at a time) and the FIFO delivery guarantee of the shm channels: once a
//! later flag message has been received, every earlier frame on the same
//! channel has already been handled by the engine.

use lmpi::{run_threads, test_all, wait_any, Mpi};

/// Three receives posted up front; the peer sends them in a scrambled
/// order, one at a time under a handshake, so `wait_any` must surface them
/// in exactly that arrival order — not the posting order.
#[test]
fn wait_any_returns_completions_in_arrival_order() {
    const SEND_ORDER: [u32; 3] = [2, 0, 1];
    run_threads(2, |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let mut b0 = [0u32];
            let mut b1 = [0u32];
            let mut b2 = [0u32];
            let mut reqs = vec![
                world.irecv(&mut b0, 1, 0).unwrap(),
                world.irecv(&mut b1, 1, 1).unwrap(),
                world.irecv(&mut b2, 1, 2).unwrap(),
            ];
            let mut seen = Vec::new();
            for _ in 0..3 {
                let (_, st) = wait_any(&mut reqs).unwrap();
                assert_eq!(st.source, 1);
                assert_eq!(st.len, 4);
                seen.push(st.tag);
                // Release the peer's next send only after this completion.
                world.send(&[st.tag], 1, 9).unwrap();
            }
            assert!(reqs.is_empty(), "wait_any must remove completed requests");
            assert_eq!(seen, SEND_ORDER);
            // The (empty) vector still carries the buffers' `&mut` borrows.
            drop(reqs);
            assert_eq!([b0[0], b1[0], b2[0]], [7, 18, 29]);
        } else {
            for &tag in &SEND_ORDER {
                world.send(&[tag * 11 + 7], 0, tag).unwrap();
                let mut ack = [0u32];
                world.recv(&mut ack, 0, 9).unwrap();
                assert_eq!(ack[0], tag, "peer completed the wrong request");
            }
        }
    });
}

/// `test_all` returns `None` — consuming nothing — until every request is
/// complete, then yields all statuses in posting order at once.
#[test]
fn test_all_is_all_or_nothing() {
    run_threads(2, |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let mut small = [0u32];
            let mut big = vec![0u8; 6000];
            let mut reqs = vec![
                world.irecv(&mut small, 1, 1).unwrap(),
                world.irecv(&mut big, 1, 2).unwrap(),
            ];
            // Nothing has been sent yet: the peer is blocked on tag 0.
            assert!(test_all(&mut reqs).unwrap().is_none());
            world.send(&[1u32], 1, 0).unwrap();
            // FIFO: the tag-3 flag arriving means the tag-1 message has
            // been matched — but the tag-2 request is still pending, so
            // test_all must still say None without consuming anything.
            let mut flag = [0u8; 1];
            world.recv(&mut flag, 1, 3).unwrap();
            assert!(test_all(&mut reqs).unwrap().is_none());
            assert!(
                reqs.iter().all(|r| !r.is_consumed()),
                "a None test_all must not consume requests"
            );
            // Release the second message; its flag means both are done.
            world.send(&[2u32], 1, 0).unwrap();
            world.recv(&mut flag, 1, 3).unwrap();
            let sts = test_all(&mut reqs)
                .unwrap()
                .expect("both requests complete");
            assert_eq!((sts[0].tag, sts[0].len), (1, 4));
            assert_eq!((sts[1].tag, sts[1].len), (2, 6000));
            // Consumed requests never report complete again.
            assert!(test_all(&mut reqs).unwrap().is_none());
            drop(reqs);
            assert_eq!(small[0], 42);
            assert!(big.iter().all(|&b| b == 7));
        } else {
            let mut release = [0u32];
            world.recv(&mut release, 0, 0).unwrap();
            world.send(&[42u32], 0, 1).unwrap();
            world.send(&[1u8], 0, 3).unwrap();
            world.recv(&mut release, 0, 0).unwrap();
            world.send(&vec![7u8; 6000], 0, 2).unwrap();
            world.send(&[1u8], 0, 3).unwrap();
        }
    });
}

/// Cancelling a receive that nothing matched returns `true`, leaves the
/// buffer untouched, and leaves the engine healthy for later traffic.
#[test]
fn cancel_unmatched_recv_returns_true() {
    run_threads(2, |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let mut never = [0u32];
            let req = world.irecv(&mut never, 1, 99).unwrap();
            assert!(
                req.cancel().unwrap(),
                "an unmatched receive must cancel cleanly"
            );
            assert_eq!(never[0], 0, "cancelled receive wrote to its buffer");
            let mut buf = [0u32];
            world.recv(&mut buf, 1, 5).unwrap();
            assert_eq!(buf[0], 1234);
        } else {
            world.send(&[1234u32], 0, 5).unwrap();
        }
    });
}

/// Cancelling a receive that has already matched must return `false` and
/// complete the transfer — the data lands in the buffer regardless.
#[test]
fn cancel_matched_recv_completes_with_data() {
    run_threads(2, |mpi: Mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let mut buf = [0u32; 2];
            let req = world.irecv(&mut buf, 1, 7).unwrap();
            // FIFO: the tag-8 flag arriving means the tag-7 data frame has
            // been handled, so the request is matched and past cancelling.
            let mut flag = [0u8; 1];
            world.recv(&mut flag, 1, 8).unwrap();
            assert!(
                !req.cancel().unwrap(),
                "a matched receive must refuse to cancel"
            );
            assert_eq!(buf, [31, 41]);
        } else {
            world.send(&[31u32, 41], 0, 7).unwrap();
            world.send(&[1u8], 0, 8).unwrap();
        }
    });
}
