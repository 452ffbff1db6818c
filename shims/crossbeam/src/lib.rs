//! Offline stand-in for the `crossbeam` crate (see `shims/README.md`).
//!
//! Provides the two APIs the workspace uses: [`scope`] (scoped threads, built
//! on `std::thread::scope`) and [`channel`] (cloneable MPMC unbounded
//! channels, built on a mutex-guarded deque plus a condvar).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A handle for spawning scoped threads; mirrors `crossbeam::thread::Scope`.
#[derive(Clone, Copy)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread. The closure receives the scope handle so it
    /// can spawn further threads, matching the crossbeam signature.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        self.inner.spawn(move || f(&Scope { inner }))
    }
}

/// Creates a scope for spawning threads that may borrow from the enclosing
/// stack frame. Returns `Err` with the panic payload if any spawned thread
/// (or the closure itself) panicked, like `crossbeam::scope`.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: FnOnce(&Scope<'_, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

pub mod channel {
    //! Unbounded MPMC channel with cloneable senders and receivers.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned when all receivers are gone. The workspace never keeps
    /// sending after dropping receivers, so this carries just the value.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] once the channel is empty and
    /// every sender has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues a value; never blocks.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.queue.lock().expect("channel poisoned");
            st.items.push_back(value);
            drop(st);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().expect("channel poisoned").senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.queue.lock().expect("channel poisoned");
            st.senders -= 1;
            let disconnected = st.senders == 0;
            drop(st);
            if disconnected {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value is available or all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.queue.lock().expect("channel poisoned");
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.ready.wait(st).expect("channel poisoned");
            }
        }

        /// Non-blocking variant; `None` when currently empty.
        pub fn try_recv(&self) -> Option<T> {
            self.shared
                .queue
                .lock()
                .expect("channel poisoned")
                .items
                .pop_front()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    #[cfg(test)]
    #[expect(
        clippy::disallowed_methods,
        reason = "the tests exercise the blocking receive itself"
    )]
    mod tests {
        use super::*;

        #[test]
        fn fifo_within_one_sender() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_errors_after_all_senders_drop() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(7).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv().unwrap());
            }
            h.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scope_joins_and_collects_results() {
        let data = [1u32, 2, 3, 4];
        let mut out = vec![0u32; 4];
        super::scope(|s| {
            for (src, dst) in data.chunks(2).zip(out.chunks_mut(2)) {
                s.spawn(move |_| {
                    for (d, v) in dst.iter_mut().zip(src) {
                        *d = v * 10;
                    }
                });
            }
        })
        .expect("no panics");
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn scope_reports_panics_as_err() {
        let r = super::scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
        assert!(r.is_err());
    }
}
