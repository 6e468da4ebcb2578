//! The stand-ins must behave as lmpi relies on the published crates to.
//! Run with `cargo test --offline` in `benchmark/standins/` after
//! `benchmark/run.sh` has staged `overlay/` (any invocation does).

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use lmpi_core::FramePool;
use parking_lot::{Condvar, Mutex};

#[test]
fn frame_pool_reclaims_its_block_in_steady_state() {
    let mut pool = FramePool::new();
    let payload = [7u8; 512];
    drop(pool.stage_bytes(&payload));
    let grows = pool.grows();
    for _ in 0..1_000 {
        let frame = pool.stage_bytes(&payload);
        assert_eq!(&frame[..], &payload[..]);
    }
    assert_eq!(
        pool.grows(),
        grows,
        "a steady-state stage must reuse the pooled block"
    );
}

#[test]
fn frame_pool_allocates_fresh_while_a_handle_is_alive() {
    let mut pool = FramePool::new();
    let first = pool.stage_bytes(&[1u8; 512]);
    let grows = pool.grows();
    let second = pool.stage_bytes(&[2u8; 512]);
    assert_eq!(pool.grows(), grows + 1, "a live handle pins the old block");
    assert_eq!(
        &first[..],
        &[1u8; 512][..],
        "the live handle's bytes are untouched"
    );
    assert_eq!(&second[..], &[2u8; 512][..]);
}

#[test]
fn bytes_mut_grows_to_exactly_the_requested_size() {
    let mut b = BytesMut::new();
    b.reserve(1000);
    assert_eq!(b.capacity(), 1000);
    b.put_slice(&[9u8; 1000]);
    let frozen = b.split().freeze();
    assert_eq!(b.capacity(), 0);
    // A larger request than the block cannot reclaim it.
    drop(frozen);
    b.reserve(4096);
    assert_eq!(b.capacity(), 4096);
}

#[test]
fn bytes_slices_share_and_outlive_their_parent() {
    let whole = Bytes::from((0u8..=255).collect::<Vec<u8>>());
    let mid = whole.slice(16..32);
    let tail = whole.slice(250..);
    drop(whole);
    assert_eq!(&mid[..], &(16u8..32).collect::<Vec<u8>>()[..]);
    assert_eq!(&tail[..], &[250, 251, 252, 253, 254, 255]);
    assert_eq!(Bytes::copy_from_slice(b"abc"), Bytes::from_static(b"abc"));
    assert!(Bytes::new().is_empty());
}

#[test]
fn condvar_wait_for_times_out() {
    let m = Mutex::new(());
    let cv = Condvar::new();
    let mut g = m.lock();
    let t = Instant::now();
    assert!(cv.wait_for(&mut g, Duration::from_millis(20)).timed_out());
    assert!(t.elapsed() >= Duration::from_millis(20));
}

#[test]
fn condvar_wait_for_is_woken() {
    let shared = Arc::new((Mutex::new(false), Condvar::new()));
    let waiter = {
        let shared = shared.clone();
        std::thread::spawn(move || {
            let (m, cv) = &*shared;
            let mut ready = m.lock();
            let mut timed_out = false;
            while !*ready && !timed_out {
                timed_out = cv.wait_for(&mut ready, Duration::from_secs(30)).timed_out();
            }
            *ready
        })
    };
    let (m, cv) = &*shared;
    *m.lock() = true;
    cv.notify_all();
    assert!(
        waiter.join().unwrap(),
        "the waiter saw the flag, not a time-out"
    );
}

#[test]
fn try_lock_is_none_only_while_held() {
    let m = Arc::new(Mutex::new(5));
    assert_eq!(m.try_lock().map(|g| *g), Some(5));
    // The barrier forces the interleaving: the other thread holds the lock
    // between the two waits.
    let held = Arc::new(Barrier::new(2));
    let holder = {
        let (m, held) = (m.clone(), held.clone());
        std::thread::spawn(move || {
            let _g = m.lock();
            held.wait();
            held.wait();
        })
    };
    held.wait();
    assert!(
        m.try_lock().is_none(),
        "contended try_lock must not block or succeed"
    );
    held.wait();
    holder.join().unwrap();
    assert!(m.try_lock().is_some());
}

#[test]
fn derived_serialize_renders_like_the_ser_doc_example() {
    #[derive(serde::Serialize)]
    struct S {
        n: u64,
        name: &'static str,
    }
    let json = lmpi_obs::to_json(&S { n: 7, name: "x" }).unwrap();
    assert_eq!(json, r#"{"n":7,"name":"x"}"#);
}

#[test]
fn derived_serialize_handles_nesting_options_and_sequences() {
    #[derive(serde::Serialize)]
    struct Inner {
        ok: bool,
    }
    #[derive(serde::Serialize)]
    pub struct Outer {
        /// A doc comment and a visibility qualifier on a field.
        pub(crate) items: Vec<Inner>,
        pub ratio: f64,
        missing: Option<u32>,
        label: String,
    }
    let v = Outer {
        items: vec![Inner { ok: true }, Inner { ok: false }],
        ratio: 0.5,
        missing: None,
        label: "a\"b".into(),
    };
    assert_eq!(
        lmpi_obs::to_json(&v).unwrap(),
        r#"{"items":[{"ok":true},{"ok":false}],"ratio":0.5,"missing":null,"label":"a\"b"}"#
    );
}
