//! Stand-in for `parking_lot` over `std::sync`: `Mutex`, `MutexGuard` and
//! `Condvar` with parking_lot's signatures (no poisoning, `wait` takes the
//! guard by `&mut`). Only what lmpi calls.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::time::Duration;

/// A mutex that does not poison: a panic while locked leaves the data
/// reachable, as parking_lot's does.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// The inner guard is `None` only while a `Condvar` wait has handed it to
/// `std`; it is always put back before the wait returns.
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

/// Whether a timed wait ended by time-out.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard held outside a wait");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.0.take().expect("guard held outside a wait");
        let (g, res) = self
            .0
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(g);
        WaitTimeoutResult(res.timed_out())
    }
}
