//! The workspace's one `Mutex`/`Condvar`: `std::sync` without poisoning.
//!
//! No lmpi invariant spans a panic under a lock (a panicking rank fails its
//! job), so a poisoned lock is recovered with `PoisonError::into_inner`
//! instead of turning one panic into one per thread. `Condvar::wait` takes
//! the guard by `&mut`, which lets callers wait in a loop over one binding.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::time::Duration;

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
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Take the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// Holds the lock until dropped. The inner guard is `None` only while a
/// [`Condvar`] wait has handed it to `std`; it is put back before the wait
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

/// A condition variable over [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Release the lock, sleep until notified, take the lock again.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard held outside a wait");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`wait`](Self::wait), giving up after `timeout`.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let g = guard.0.take().expect("guard held outside a wait");
        let (g, _) = self
            .0
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(g);
    }
}
