//! Futures, promises and continuations — the `hpx::future` /
//! `hpx::promise` / `future::then` / `hpx::when_all` surface the paper's
//! implementation is written against.
//!
//! A [`Future`] is single-owner (like a C++ `hpx::future`): it is consumed
//! by [`Future::get`] or [`Future::then`]. At most one continuation can be
//! attached; [`Future::fork`] splits a future for diamond dependencies (the
//! role of `hpx::shared_future`).

use crate::scheduler::{Runtime, Task};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Cont<T> = Box<dyn FnOnce(T) + Send>;

enum State<T> {
    /// Value not yet produced; at most one continuation may be parked here.
    Pending(Option<Cont<T>>),
    /// Value produced and not yet consumed by `get`.
    Ready(Option<T>),
    /// The promise was dropped without a value (its task panicked).
    Broken,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// The write end of a future (`hpx::promise`).
///
/// Dropping a promise without fulfilling it *breaks* the future: blocked
/// `get` callers panic with a clear message instead of hanging, and
/// downstream continuations are dropped (which cascades the break through
/// a chain). This is what turns a panicking task into a diagnosable error
/// rather than a deadlock.
pub struct Promise<T> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
}

/// The read end of an asynchronous value (`hpx::future`).
pub struct Future<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unfulfilled promise/future pair.
pub fn promise_pair<T>() -> (Promise<T>, Future<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Pending(None)),
        cv: Condvar::new(),
    });
    (
        Promise {
            shared: Arc::clone(&shared),
            fulfilled: false,
        },
        Future { shared },
    )
}

impl<T: Send + 'static> Promise<T> {
    /// Fulfil the promise. If a continuation is attached it runs (or is
    /// scheduled) immediately on the calling thread; otherwise the value is
    /// stored and blocked `get` callers are woken.
    pub fn set_value(mut self, value: T) {
        self.fulfilled = true;
        let cont = {
            let mut state = self.shared.state.lock();
            match &mut *state {
                State::Pending(cont) => match cont.take() {
                    Some(c) => Some(c),
                    None => {
                        *state = State::Ready(Some(value));
                        self.shared.cv.notify_all();
                        return;
                    }
                },
                State::Ready(_) | State::Broken => unreachable!("promise fulfilled twice"),
            }
        };
        // Run the continuation hook outside the lock. The hook itself only
        // schedules a task (see `Future::then`), so this is cheap.
        if let Some(c) = cont {
            c(value);
        }
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        // Break the future: drop any parked continuation (cascading the
        // break through chains) and wake blocked getters into a panic.
        let dropped_cont = {
            let mut state = self.shared.state.lock();
            match &mut *state {
                State::Pending(cont) => {
                    let c = cont.take();
                    *state = State::Broken;
                    self.shared.cv.notify_all();
                    c
                }
                _ => None,
            }
        };
        drop(dropped_cont);
    }
}

impl<T: Send + 'static> Future<T> {
    /// An already-ready future (`hpx::make_ready_future`).
    pub fn ready(value: T) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::Ready(Some(value))),
            cv: Condvar::new(),
        });
        Future { shared }
    }

    /// Is the value available right now?
    pub fn is_ready(&self) -> bool {
        matches!(*self.shared.state.lock(), State::Ready(_))
    }

    /// Block until the value is ready and take it.
    ///
    /// Call only from control (non-worker) threads; a worker blocking here
    /// could deadlock the pool, so debug builds panic.
    pub fn get(self) -> T {
        debug_assert!(
            !crate::scheduler::on_worker_thread(),
            "Future::get called from a worker task; chain with then() instead"
        );
        let mut state = self.shared.state.lock();
        loop {
            match &mut *state {
                State::Ready(v) => {
                    return v.take().expect("future value already taken");
                }
                State::Broken => panic!(
                    "broken promise: the task producing this future panicked \
                     or was dropped without a value"
                ),
                State::Pending(_) => self.shared.cv.wait(&mut state),
            }
        }
    }

    /// `hpx::future::then`: schedule `f` on the runtime once this future is
    /// ready, returning the future of `f`'s result.
    pub fn then<U, F>(self, rt: &Runtime, f: F) -> Future<U>
    where
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        let (promise, out) = promise_pair();
        let rt = rt.clone();
        self.attach_inner(Box::new(move |value: T| {
            rt.submit(Task::Closure(Box::new(move || {
                let result = crate::scheduler::exec_timed("task", move || f(value));
                promise.set_value(result);
            })));
        }));
        out
    }

    /// Fan a future out to `n` futures, each receiving a clone of the value
    /// (a multi-consumer `hpx::shared_future`).
    pub fn fork(self, n: usize) -> Vec<Future<T>>
    where
        T: Clone,
    {
        let mut promises = Vec::with_capacity(n);
        let mut futures = Vec::with_capacity(n);
        for _ in 0..n {
            let (p, f) = promise_pair();
            promises.push(p);
            futures.push(f);
        }
        self.attach_inner(Box::new(move |value: T| {
            for p in promises {
                p.set_value(value.clone());
            }
        }));
        futures
    }

    pub(crate) fn attach_inner(self, cont: Cont<T>) {
        let run_now = {
            let mut state = self.shared.state.lock();
            match &mut *state {
                State::Ready(v) => Some(v.take().expect("future value already taken")),
                // Attaching to a broken future drops the continuation,
                // cascading the break downstream.
                State::Broken => return,
                State::Pending(slot) => {
                    assert!(slot.is_none(), "future already has a continuation");
                    *slot = Some(cont);
                    return;
                }
            }
        };
        if let Some(v) = run_now {
            cont(v);
        }
    }
}

/// `hpx::when_all`: a future that becomes ready once every input future is
/// ready, carrying the values in input order. Non-blocking — the paper uses
/// this as the barrier that further tasks can be chained onto.
pub fn when_all<T: Send + 'static>(rt: &Runtime, futures: Vec<Future<T>>) -> Future<Vec<T>> {
    let n = futures.len();
    if n == 0 {
        return Future::ready(Vec::new());
    }
    let _ = rt; // completion is driven by the input futures' tasks.

    let (promise, out) = promise_pair();
    let slots: Arc<Mutex<Vec<Option<T>>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let remaining = Arc::new(AtomicUsize::new(n));
    let promise = Arc::new(Mutex::new(Some(promise)));

    for (i, f) in futures.into_iter().enumerate() {
        let slots = Arc::clone(&slots);
        let remaining = Arc::clone(&remaining);
        let promise = Arc::clone(&promise);
        f.attach_inner(Box::new(move |value: T| {
            slots.lock()[i] = Some(value);
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let values: Vec<T> = slots
                    .lock()
                    .iter_mut()
                    .map(|s| s.take().expect("when_all slot unfilled"))
                    .collect();
                let p = promise.lock().take().expect("when_all fulfilled twice");
                p.set_value(values);
            }
        }));
    }
    out
}

/// Like [`when_all`] but discards the values, avoiding the `Vec` when only
/// the synchronization matters (the common case for LULESH barriers).
pub fn when_all_unit<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<()> {
    let n = futures.len();
    if n == 0 {
        return Future::ready(());
    }
    let (promise, out) = promise_pair();
    let remaining = Arc::new(AtomicUsize::new(n));
    let promise = Arc::new(Mutex::new(Some(promise)));
    for f in futures {
        let remaining = Arc::clone(&remaining);
        let promise = Arc::clone(&promise);
        f.attach_inner(Box::new(move |_value: T| {
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let p = promise
                    .lock()
                    .take()
                    .expect("when_all_unit fulfilled twice");
                p.set_value(());
            }
        }));
    }
    out
}

/// `hpx::dataflow`: run `f` over the values of all dependencies once every
/// one is ready (sugar for `when_all(...).then(...)`).
pub fn dataflow<T, U, F>(rt: &Runtime, deps: Vec<Future<T>>, f: F) -> Future<U>
where
    T: Send + 'static,
    U: Send + 'static,
    F: FnOnce(Vec<T>) -> U + Send + 'static,
{
    when_all(rt, deps).then(rt, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promise_then_get() {
        let (p, f) = promise_pair();
        p.set_value(3);
        assert_eq!(f.get(), 3);
    }

    #[test]
    fn ready_future() {
        let f = Future::ready("x");
        assert!(f.is_ready());
        assert_eq!(f.get(), "x");
    }

    #[test]
    fn get_blocks_until_set() {
        let (p, f) = promise_pair();
        let h = std::thread::spawn(move || f.get());
        std::thread::sleep(std::time::Duration::from_millis(5));
        p.set_value(9);
        assert_eq!(h.join().unwrap(), 9);
    }

    #[test]
    fn continuation_runs_inline_when_already_ready() {
        let f = Future::ready(5);
        let hit = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let hit2 = std::sync::Arc::clone(&hit);
        f.attach_inner(Box::new(move |v| {
            hit2.store(v, std::sync::atomic::Ordering::SeqCst);
        }));
        assert_eq!(hit.load(std::sync::atomic::Ordering::SeqCst), 5);
    }
}
