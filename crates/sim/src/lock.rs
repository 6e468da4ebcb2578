//! The workspace's one lock and one wait: `std::sync::Mutex` without
//! poisoning, and [`Sleepers`], a slot for the threads waiting on the state
//! it guards. No lmpi invariant spans a panic under a lock (a panicking
//! rank fails its job), so a poisoned lock is recovered instead of turning
//! one panic into one per thread.
//!
//! A waiter registers in a slot inside the guarded state and parks with
//! the lock released ([`Sleepers::park`]); a waker takes the registrations
//! out under the lock ([`Sleepers::take`]) and unparks them after dropping
//! it ([`Wake::wake`]). So no wake is slept through, and a woken thread
//! never finds the lock still held by its waker (on one CPU that costs a
//! second switch). A stray `unpark` ends no park: only a taker or the
//! deadline does.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::thread::{self, Thread, ThreadId};
use std::time::{Duration, Instant};

/// A mutex whose `lock` never fails.
#[derive(Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the mutex and return its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.raw_lock()))
    }

    fn raw_lock(&self) -> sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Release the lock `guard` holds on this mutex, run `f`, take the
    /// lock again. (`guard` must come from this mutex; the guard stays two
    /// words, the size `std`'s is, rather than carry a reference back.)
    pub fn unlocked<'a, R>(&'a self, guard: &mut MutexGuard<'a, T>, f: impl FnOnce() -> R) -> R {
        drop(guard.0.take().expect("guard held outside a wait"));
        let out = f();
        guard.0 = Some(self.raw_lock());
        out
    }
}

/// Holds the lock until dropped. The inner guard is `None` only while
/// [`Mutex::unlocked`] runs its closure; it is put back before that
/// returns.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard held outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_deref_mut().expect("guard held outside a wait")
    }
}

/// Threads parked on one condition of the state a [`Mutex`] guards, kept
/// in that state. The first is held inline, so a one-sleeper park and wake
/// allocate nothing.
#[derive(Debug, Default)]
pub struct Sleepers {
    first: Option<Thread>,
    /// Empty while `first` is.
    more: Vec<Thread>,
}

impl Sleepers {
    /// Whether no thread is registered.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Register the calling thread in the slot `slot` picks out of the
    /// state `guard` (from `mutex`) holds, and park with the lock released
    /// until a [`take`](Self::take) or `deadline`. Returns with the lock
    /// held and the registration gone: whether a taker woke this thread.
    pub fn park<'a, T: ?Sized>(
        mutex: &'a Mutex<T>,
        guard: &mut MutexGuard<'a, T>,
        slot: impl Fn(&mut T) -> &mut Sleepers,
        deadline: Option<Instant>,
    ) -> bool {
        let mut me = thread::current();
        let id = me.id();
        loop {
            let s = slot(guard);
            match s.first {
                None => s.first = Some(me),
                Some(_) => s.more.push(me),
            }
            mutex.unlocked(guard, || match deadline {
                Some(end) => thread::park_timeout(end.saturating_duration_since(Instant::now())),
                None => thread::park(),
            });
            match slot(guard).withdraw(id) {
                None => return true,
                Some(_) if deadline.is_some_and(|end| Instant::now() >= end) => return false,
                Some(again) => me = again,
            }
        }
    }

    /// Remove `id`'s registration, if it has one.
    fn withdraw(&mut self, id: ThreadId) -> Option<Thread> {
        if self.first.as_ref().is_some_and(|t| t.id() == id) {
            return std::mem::replace(&mut self.first, self.more.pop());
        }
        let at = self.more.iter().position(|t| t.id() == id)?;
        Some(self.more.swap_remove(at))
    }

    /// Take every registration out, under the lock. An empty slot is only
    /// read: a waker on another CPU does not dirty the waiter's cache line.
    #[inline]
    pub fn take(&mut self) -> Wake {
        if self.is_empty() {
            return Wake::default();
        }
        Wake(std::mem::take(self))
    }
}

/// Threads taken out of a [`Sleepers`] slot, still parked.
#[derive(Debug, Default)]
#[must_use = "the taken threads stay parked until `wake` is called"]
pub struct Wake(Sleepers);

impl Wake {
    /// Unpark every taken thread. Call it after dropping the guard.
    #[inline]
    pub fn wake(self) {
        let Sleepers { first, more } = self.0;
        first.into_iter().chain(more).for_each(|t| t.unpark());
    }
}

/// Run `f` on a thread of its own and wait at most `limit` for it, so a
/// lost wake-up fails a test instead of hanging it; a panic in `f` is
/// raised again here. A test utility, like [`crate::for_each_case`]: it
/// polls the thread every millisecond.
pub fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let end = Instant::now() + limit;
    let handle = thread::spawn(f);
    while !handle.is_finished() {
        assert!(Instant::now() < end, "still running after {limit:?}");
        thread::sleep(Duration::from_millis(1));
    }
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state with a wait slot in it.
    #[derive(Default)]
    struct State {
        turn: u64,
        slot: Sleepers,
    }

    fn registered(s: &Sleepers) -> usize {
        s.first.iter().count() + s.more.len()
    }

    #[test]
    fn two_threads_lose_no_hand_off() {
        // Each thread waits, untimed, for its turn and hands the turn to
        // the other; a lost wake leaves both parked for good, and an
        // untimed park may end only by a take.
        const HAND_OFFS: u64 = 200_000;
        within(Duration::from_secs(60), || {
            let m = std::sync::Arc::new(Mutex::new(State::default()));
            let player = |me: u64, m: std::sync::Arc<Mutex<State>>| {
                move || {
                    let mut st = m.lock();
                    while st.turn < HAND_OFFS {
                        if st.turn % 2 != me {
                            let woken = Sleepers::park(&m, &mut st, |s| &mut s.slot, None);
                            assert!(woken, "an untimed park ended without a taker");
                            continue;
                        }
                        st.turn += 1;
                        let wake = st.slot.take();
                        m.unlocked(&mut st, || wake.wake());
                    }
                    assert_eq!(registered(&st.slot), 0);
                }
            };
            let other = thread::spawn(player(1, m.clone()));
            player(0, m)();
            other.join().unwrap();
        });
    }

    #[test]
    fn one_take_wakes_every_sleeper() {
        within(Duration::from_secs(60), || {
            let m = std::sync::Arc::new(Mutex::new(State::default()));
            let sleepers: Vec<_> = (0..4)
                .map(|_| {
                    let m = m.clone();
                    thread::spawn(move || {
                        let mut st = m.lock();
                        Sleepers::park(&m, &mut st, |s| &mut s.slot, None)
                    })
                })
                .collect();
            while registered(&m.lock().slot) < 4 {
                thread::yield_now();
            }
            let mut st = m.lock();
            let wake = st.slot.take();
            assert!(st.slot.is_empty());
            drop(st);
            wake.wake();
            for s in sleepers {
                assert!(s.join().unwrap(), "a sleeper was not woken by the take");
            }
        });
    }

    #[test]
    fn a_timed_park_runs_to_its_deadline_and_unregisters() {
        within(Duration::from_secs(60), || {
            let m = Mutex::new(State::default());
            let mut st = m.lock();
            for wait in [
                Duration::ZERO,
                Duration::from_micros(300),
                Duration::from_millis(5),
            ] {
                let end = Instant::now() + wait;
                assert!(!Sleepers::park(&m, &mut st, |s| &mut s.slot, Some(end)));
                assert!(Instant::now() >= end, "returned early for {wait:?}");
                assert_eq!(
                    registered(&st.slot),
                    0,
                    "left a registration after {wait:?}"
                );
            }
        });
    }

    #[test]
    fn stray_unparks_never_report_woken() {
        // A third thread unparks the parker while nobody takes: every
        // timed park must run to its deadline and report no taker.
        const UNPARKS: usize = 10_000;
        const WAIT: Duration = Duration::from_micros(200);
        within(Duration::from_secs(60), || {
            let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stop = done.clone();
            let shared = std::sync::Arc::new(Mutex::new(State::default()));
            let m = shared.clone();
            let parker = thread::spawn(move || {
                let mut st = m.lock();
                let mut parks = 0;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let end = Instant::now() + WAIT;
                    let woken = Sleepers::park(&m, &mut st, |s| &mut s.slot, Some(end));
                    assert!(!woken, "a stray unpark reported a taker");
                    assert!(Instant::now() >= end, "a stray unpark ended a park early");
                    assert_eq!(registered(&st.slot), 0);
                    parks += 1;
                }
                parks
            });
            // The unparks start once the first park is under way.
            while registered(&shared.lock().slot) == 0 {
                thread::yield_now();
            }
            let target = parker.thread().clone();
            for i in 0..UNPARKS {
                target.unpark();
                if i.is_multiple_of(8) {
                    thread::yield_now();
                }
            }
            done.store(true, std::sync::atomic::Ordering::Release);
            assert!(parker.join().unwrap() > 0);
        });
    }
}
