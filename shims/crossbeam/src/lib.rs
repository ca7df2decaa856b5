//! Offline stand-in for the `crossbeam` crate.
//!
//! The build container has no crates.io access, so this vendors the API
//! subset the workspace uses: `deque::{Worker, Stealer, Injector, Steal}`
//! (the work-stealing substrate of `taskrt`) and `channel::{bounded,
//! Sender, Receiver}` (the message-passing substrate of `multidom`).
//!
//! The implementations are mutex-protected rather than lock-free — the
//! *semantics* (LIFO worker pop, FIFO steal, blocking bounded channels with
//! disconnect-on-drop) match crossbeam; the single-digit-nanosecond fast
//! paths of the real Chase-Lev deque do not. `taskrt`'s scheduling
//! behaviour is unchanged because queue contents and steal order are
//! identical; absolute task overhead is higher, which the machine-model
//! calibration (`simsched::calibrate`) absorbs.

#![warn(missing_docs)]

/// Work-stealing deques (`crossbeam::deque` API subset).
pub mod deque {
    use parking_lot::Mutex;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The operation lost a race and should be retried.
        Retry,
    }

    /// The queue owner's endpoint: LIFO push/pop at the back.
    pub struct Worker<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    /// A sibling's stealing endpoint: FIFO steal from the front.
    pub struct Stealer<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// New deque whose owner pops in LIFO order.
        pub fn new_lifo() -> Self {
            Self {
                q: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Push a task (owner side).
        pub fn push(&self, task: T) {
            self.q.lock().push_back(task);
        }

        /// Pop the most recently pushed task (owner side, LIFO).
        pub fn pop(&self) -> Option<T> {
            self.q.lock().pop_back()
        }

        /// Create a stealing endpoint for this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                q: Arc::clone(&self.q),
            }
        }

        /// `true` when the deque has no tasks.
        pub fn is_empty(&self) -> bool {
            self.q.lock().is_empty()
        }
    }

    impl<T> Stealer<T> {
        /// Steal the oldest task (FIFO), if any.
        pub fn steal(&self) -> Steal<T> {
            match self.q.lock().pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// `true` when the deque has no tasks.
        pub fn is_empty(&self) -> bool {
            self.q.lock().is_empty()
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Self {
                q: Arc::clone(&self.q),
            }
        }
    }

    /// A global FIFO injection queue shared by all workers.
    pub struct Injector<T> {
        q: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// Empty injector.
        pub fn new() -> Self {
            Self {
                q: Mutex::new(VecDeque::new()),
            }
        }

        /// Push a task (any thread).
        pub fn push(&self, task: T) {
            self.q.lock().push_back(task);
        }

        /// `true` when the injector has no tasks.
        pub fn is_empty(&self) -> bool {
            self.q.lock().is_empty()
        }

        /// Pop one task and move a batch of additional tasks into `dest`'s
        /// deque (amortizes injector contention, like crossbeam).
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = self.q.lock();
            let first = match q.pop_front() {
                Some(t) => t,
                None => return Steal::Empty,
            };
            // Move up to half of what remains (capped) into the destination.
            let batch = (q.len() / 2).min(16);
            if batch > 0 {
                let mut dq = dest.q.lock();
                for _ in 0..batch {
                    match q.pop_front() {
                        // Front of the worker deque, so the owner's LIFO pop
                        // still sees its own recent pushes first.
                        Some(t) => dq.push_front(t),
                        None => break,
                    }
                }
            }
            Steal::Success(first)
        }
    }
}

/// Multi-producer multi-consumer channels (`crossbeam::channel` subset).
pub mod channel {
    use parking_lot::{Condvar, Mutex};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Inner<T> {
        q: Mutex<VecDeque<T>>,
        cap: usize,
        not_empty: Condvar,
        not_full: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is empty.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// The sending half of a bounded channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a bounded channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Create a bounded channel with capacity `cap` (≥ 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap >= 1, "zero-capacity rendezvous channels not supported");
        let inner = Arc::new(Inner {
            q: Mutex::new(VecDeque::with_capacity(cap)),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Send `value`, blocking while the channel is full. Errors when
        /// every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.inner.q.lock();
            loop {
                if self.inner.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                if q.len() < self.inner.cap {
                    q.push_back(value);
                    self.inner.not_empty.notify_one();
                    return Ok(());
                }
                self.inner.not_full.wait(&mut q);
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receive the next value, blocking while the channel is empty.
        /// Errors when the channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.q.lock();
            loop {
                if let Some(v) = q.pop_front() {
                    self.inner.not_full.notify_one();
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                self.inner.not_empty.wait(&mut q);
            }
        }

        /// Take the next value if one is queued, without blocking. Errors
        /// when the channel is empty, telling apart whether every sender
        /// is gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.inner.q.lock();
            if let Some(v) = q.pop_front() {
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if self.inner.senders.load(Ordering::Acquire) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Receive the next value, blocking at most `timeout` while the
        /// channel is empty. Errors on timeout or when the channel is empty
        /// and every sender is gone.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut q = self.inner.q.lock();
            loop {
                if let Some(v) = q.pop_front() {
                    self.inner.not_full.notify_one();
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                self.inner.not_empty.wait_for(&mut q, deadline - now);
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Wake receivers so they observe the disconnect.
                let _g = self.inner.q.lock();
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.inner.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = self.inner.q.lock();
                self.inner.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, TryRecvError};
    use super::deque::{Injector, Steal, Worker};

    #[test]
    fn worker_pops_lifo_stealer_steals_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1), "steal takes the oldest");
        assert_eq!(w.pop(), Some(3), "owner pops the newest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn injector_batch_moves_work() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let w = Worker::new_lifo();
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(0));
        // A batch landed in the worker; everything is eventually drainable.
        let mut got = vec![0];
        while let Some(v) = w.pop() {
            got.push(v);
        }
        while let Steal::Success(v) = inj.steal_batch_and_pop(&w) {
            got.push(v);
            while let Some(v) = w.pop() {
                got.push(v);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_channel_blocks_and_delivers_in_order() {
        let (tx, rx) = bounded::<usize>(2);
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        h.join().unwrap();
    }

    #[test]
    fn recv_errors_after_senders_drop() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 7);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn try_recv_is_empty_then_a_value_then_disconnected() {
        let (tx, rx) = bounded::<u8>(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        // Queued values outlive the last sender; only then is it gone.
        assert_eq!(rx.try_recv(), Ok(8));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_errors_after_receiver_drops() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
