//! Integration tests for the MPI-1 extension surface: groups, Cartesian
//! topologies, persistent requests, scatterv, and packed (derived
//! datatype) messaging — over real rank threads.

use lmpi::{run_threads, wait_all, DataType, MpiError, ReduceOp};
use lmpi_core::{start_all, CartComm};

#[test]
fn group_based_communicator_creation() {
    let n = 6;
    run_threads(n, move |mpi| {
        let world = mpi.world();
        let me = world.rank();
        let g = world.comm_group();
        assert_eq!(g.size(), n);
        assert_eq!(g.rank_of(me), Some(me));

        // Evens, in reversed order.
        let evens = g.incl(&[4, 2, 0]).unwrap();
        let sub = world.create(&evens).unwrap();
        if me % 2 == 0 {
            let sub = sub.expect("even ranks are members");
            assert_eq!(sub.size(), 3);
            // Reversed inclusion order: world rank 4 is local 0.
            assert_eq!(sub.rank(), (4 - me) / 2);
            let total = sub.allreduce(&[me as u64], ReduceOp::Sum).unwrap()[0];
            assert_eq!(total, 6, "sum of world ranks 0, 2, 4");
        } else {
            assert!(sub.is_none());
        }

        // Group algebra consistency with create/split.
        let odds = g.difference(&evens);
        assert_eq!(odds.ranks(), &[1, 3, 5]);
        assert!(g.intersection(&evens).size() == 3);
        world.barrier().unwrap();
    });
}

#[test]
fn cartesian_grid_navigation_and_halo() {
    // 2x3 grid, periodic in the second dimension.
    let n = 6;
    run_threads(n, move |mpi| {
        let world = mpi.world();
        let cart = CartComm::create(&world, &[2, 3], &[false, true], false)
            .unwrap()
            .expect("grid fills the world");
        let me = cart.comm().rank();
        let coords = cart.my_coords();
        assert_eq!(
            cart.rank_at(&[coords[0] as isize, coords[1] as isize])
                .unwrap(),
            me
        );

        // Vertical (non-periodic) shift: edges see None.
        let (up, down) = cart.shift(0, 1).unwrap();
        if coords[0] == 0 {
            assert!(up.is_none());
            assert_eq!(down, Some(me + 3));
        } else {
            assert_eq!(up, Some(me - 3));
            assert!(down.is_none());
        }

        // Horizontal (periodic) shift: always wraps.
        let (left, right) = cart.shift(1, 1).unwrap();
        let l = left.expect("periodic");
        let r = right.expect("periodic");
        // Exchange coordinates around the ring and verify.
        let mut got = [0u64];
        cart.comm()
            .sendrecv(&[me as u64], r, 0, &mut got, l, 0)
            .unwrap();
        assert_eq!(got[0] as usize, l);

        // Slice into rows: each row communicator has 3 members.
        let rows = cart.sub(&[false, true]).unwrap();
        assert_eq!(rows.comm().size(), 3);
        assert_eq!(rows.dims(), &[3]);
        let sum = rows
            .comm()
            .allreduce(&[coords[0] as u64], ReduceOp::Sum)
            .unwrap()[0];
        assert_eq!(sum as usize, coords[0] * 3, "row members share coords[0]");
    });
}

#[test]
fn dims_create_matches_grid_use() {
    let dims = lmpi::dims_create(12, 2);
    assert_eq!(dims.iter().product::<usize>(), 12);
    run_threads(12, move |mpi| {
        let world = mpi.world();
        let dims = lmpi::dims_create(12, 2);
        let cart = CartComm::create(&world, &dims, &[true, true], false)
            .unwrap()
            .expect("exact fit");
        assert_eq!(cart.comm().size(), 12);
    });
}

#[test]
fn persistent_requests_ring() {
    let n = 4;
    run_threads(n, move |mpi| {
        let world = mpi.world();
        let me = world.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;

        let out = [me as u64 * 7];
        let mut inbox = [0u64];
        // Prepare once, start five times: the fixed pattern the paper's
        // ring application repeats each phase.
        let send = world.send_init(&out, right, 3).unwrap();
        let mut recv = world.recv_init(&mut inbox, left, 3).unwrap();
        for round in 0..5 {
            let sr = send.start().unwrap();
            let rr = recv.start().unwrap();
            rr.wait().unwrap();
            sr.wait().unwrap();
            assert_eq!(
                recv.buffer()[0],
                left as u64 * 7,
                "round {round}: wrong neighbour value"
            );
        }
    });
}

#[test]
fn persistent_start_all() {
    run_threads(3, |mpi| {
        let world = mpi.world();
        let me = world.rank();
        if me == 0 {
            let bufs: Vec<[u32; 2]> = vec![[1, 2], [3, 4]];
            let sends = vec![
                world.send_init(&bufs[0], 1, 0).unwrap(),
                world.send_init(&bufs[1], 2, 0).unwrap(),
            ];
            for _ in 0..3 {
                let reqs = start_all(&sends).unwrap();
                wait_all(reqs).unwrap();
            }
        } else {
            let mut v = [0u32; 2];
            for _ in 0..3 {
                world.recv(&mut v, 0, 0).unwrap();
            }
            assert_eq!(v, if me == 1 { [1, 2] } else { [3, 4] });
        }
    });
}

/// A persistent buffered send needs attached space at each `start`, and
/// with it completes at `start`, before the receiver has posted anything.
#[test]
fn persistent_bsend_completes_at_start_from_the_attached_buffer() {
    run_threads(2, |mpi| {
        let world = mpi.world();
        let out = [3u32, 1, 4];
        if world.rank() == 0 {
            let send = world.bsend_init(&out, 1, 0).unwrap();
            assert!(
                matches!(send.start(), Err(MpiError::NoBufferAttached)),
                "no attached buffer: typed error at start"
            );
            mpi.buffer_attach(1024);
            let mut req = send.start().unwrap();
            assert!(req.test().unwrap().is_some(), "buffered: done at start");
            world.send(&[1u8], 1, 9).unwrap();
            mpi.buffer_detach().unwrap();
        } else {
            // Nothing is posted for the message before this token.
            world.recv(&mut [0u8], 0, 9).unwrap();
            let mut got = [0u32; 3];
            world.recv(&mut got, 0, 0).unwrap();
            assert_eq!(got, out);
        }
    });
}

/// A persistent synchronous send is not complete before the receiver has
/// matched it.
#[test]
fn persistent_ssend_waits_for_the_match() {
    run_threads(2, |mpi| {
        let world = mpi.world();
        let out = [2u64, 7, 1, 8];
        if world.rank() == 0 {
            let send = world.ssend_init(&out, 1, 0).unwrap();
            let mut req = send.start().unwrap();
            // Rank 1 posts nothing before it has this token.
            for _ in 0..50 {
                assert!(req.test().unwrap().is_none(), "ssend done, unmatched");
            }
            world.send(&[1u8], 1, 9).unwrap();
            assert_eq!(req.wait().unwrap().len, 32);
        } else {
            world.recv(&mut [0u8], 0, 9).unwrap();
            let mut got = [0u64; 4];
            world.recv(&mut got, 0, 0).unwrap();
            assert_eq!(got, out);
        }
    });
}

/// A persistent ready send into a receive posted before it delivers.
#[test]
fn persistent_rsend_delivers_into_a_preposted_receive() {
    run_threads(2, |mpi| {
        let world = mpi.world();
        if world.rank() == 0 {
            let out = [9i32, -9];
            let send = world.rsend_init(&out, 1, 4).unwrap();
            for _ in 0..3 {
                world.recv(&mut [0u8], 1, 9).unwrap();
                send.start().unwrap().wait().unwrap();
            }
        } else {
            for _ in 0..3 {
                let mut got = [0i32; 2];
                let req = world.irecv(&mut got, 0, 4).unwrap();
                world.send(&[1u8], 0, 9).unwrap();
                req.wait().unwrap();
                assert_eq!(got, [9, -9]);
            }
        }
    });
}

/// `start_all` over sends of all four modes: each keeps its mode.
#[test]
fn persistent_start_all_mixes_modes() {
    run_threads(2, |mpi| {
        let world = mpi.world();
        let bufs: Vec<[u32; 2]> = (0..4).map(|m| [m, m * 10]).collect();
        if world.rank() == 0 {
            mpi.buffer_attach(1024);
            let sends = vec![
                world.send_init(&bufs[0], 1, 0).unwrap(),
                world.bsend_init(&bufs[1], 1, 1).unwrap(),
                world.ssend_init(&bufs[2], 1, 2).unwrap(),
                world.rsend_init(&bufs[3], 1, 3).unwrap(),
            ];
            for _ in 0..3 {
                // The ready-mode receive is posted before this token.
                world.recv(&mut [0u8], 1, 9).unwrap();
                let reqs = start_all(&sends).unwrap();
                let lens: Vec<usize> = wait_all(reqs).unwrap().iter().map(|s| s.len).collect();
                assert_eq!(lens, [8; 4]);
            }
            mpi.buffer_detach().unwrap();
        } else {
            for _ in 0..3 {
                let mut got = [[0u32; 2]; 4];
                let reqs: Vec<_> = got
                    .iter_mut()
                    .enumerate()
                    .map(|(tag, b)| world.irecv(b, 0, tag as u32).unwrap())
                    .collect();
                world.send(&[1u8], 0, 9).unwrap();
                wait_all(reqs).unwrap();
                assert_eq!(got.to_vec(), bufs);
            }
        }
    });
}

#[test]
fn scatterv_distributes_uneven_parts() {
    let n = 4;
    run_threads(n, move |mpi| {
        let world = mpi.world();
        let me = world.rank();
        let parts: Vec<Vec<u16>> = (0..n).map(|r| vec![r as u16; r + 1]).collect();
        let mine = world
            .scatterv(if me == 2 { Some(&parts[..]) } else { None }, 2)
            .unwrap();
        assert_eq!(mine, vec![me as u16; me + 1]);
    });
}

#[test]
fn packed_messaging_reassembles_strided_layout() {
    run_threads(2, |mpi| {
        let world = mpi.world();
        // A column of a 4x5 byte matrix: vector of 4 blocks of 1, stride 5.
        let col = DataType::base(1).vector(4, 1, 5);
        if world.rank() == 0 {
            let matrix: Vec<u8> = (0..20).collect();
            world.send_packed(&col, &matrix, 1, 9).unwrap();
        } else {
            let mut out = vec![0xFFu8; 16]; // extent of the layout
            let st = world.recv_packed(&col, &mut out, 0, 9).unwrap();
            assert_eq!(st.len, 4, "four packed bytes travelled");
            // Column 0 of the row-major matrix: 0, 5, 10, 15.
            assert_eq!(out[0], 0);
            assert_eq!(out[5], 5);
            assert_eq!(out[10], 10);
            assert_eq!(out[15], 15);
            assert_eq!(out[1], 0xFF, "holes untouched");
        }
    });
}
