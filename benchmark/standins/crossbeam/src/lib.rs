//! Stand-in for `crossbeam`: `channel::unbounded` over `std::sync::mpsc`.
//! Only what lmpi calls.

pub mod channel {
    use std::sync::mpsc;
    use std::sync::{Mutex, PoisonError};
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// `mpsc::Receiver` is `Send` but not `Sync`; lmpi keeps receivers in
    /// devices shared by reference between a rank's caller and its progress
    /// thread, so the stand-in serialises consumers with a mutex. It is
    /// uncontended under lmpi's single-consumer rule.
    pub struct Receiver<T>(Mutex<mpsc::Receiver<T>>);

    impl<T> Receiver<T> {
        fn with<R>(&self, f: impl FnOnce(&mpsc::Receiver<T>) -> R) -> R {
            f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            self.with(|rx| rx.recv())
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.with(|rx| rx.try_recv())
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.with(|rx| rx.recv_timeout(timeout))
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(Mutex::new(rx)))
    }
}
