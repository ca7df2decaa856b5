//! A sense-reversing barrier.
//!
//! A centralized all-to-all barrier with bounded spinning before parking:
//! the synchronization after every parallel loop that the paper's HPX port
//! removes, in its textbook form. The benchmark probe times it as a
//! reference point; `ompsim` joins its regions with a cheaper master-only
//! completion counter instead, since its workers never wait for each other.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// How long a thread spins before parking. Spinning keeps barrier latency
/// in the sub-microsecond range for balanced loads; parking keeps idle
/// threads off the CPU for imbalanced ones. Kept short and interleaved
/// with `yield_now` so oversubscribed hosts (more threads than cores)
/// hand the CPU to the threads still doing work instead of burning their
/// scheduler quantum.
const SPIN_ROUNDS: u32 = 256;

/// A reusable barrier for a fixed set of `n` participants.
pub struct SenseBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    mutex: parking_lot::Mutex<()>,
    condvar: parking_lot::Condvar,
}

impl SenseBarrier {
    /// Create a barrier for `n` participants. `n` must be nonzero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Self {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            mutex: parking_lot::Mutex::new(()),
            condvar: parking_lot::Condvar::new(),
        }
    }

    /// Block until all `n` participants have called `wait`. Returns `true`
    /// for exactly one participant per round (the last to arrive), mirroring
    /// `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> bool {
        let my_sense = !self.sense.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            // Last arrival: reset and release everyone.
            self.count.store(0, Ordering::Release);
            {
                let _g = self.mutex.lock();
                self.sense.store(my_sense, Ordering::Release);
            }
            self.condvar.notify_all();
            true
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins += 1;
                if spins < SPIN_ROUNDS {
                    if spins.is_multiple_of(32) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                } else {
                    let mut g = self.mutex.lock();
                    if self.sense.load(Ordering::Acquire) != my_sense {
                        self.condvar.wait_for(&mut g, Duration::from_millis(1));
                    }
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_participant_is_leader_every_time() {
        let b = SenseBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn phases_do_not_interleave() {
        // Each thread increments a phase counter; after every barrier all
        // participants must observe the same phase total.
        const T: usize = 4;
        const ROUNDS: usize = 50;
        let b = Arc::new(SenseBarrier::new(T));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..T)
            .map(|_| {
                let b = Arc::clone(&b);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        total.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        let seen = total.load(Ordering::SeqCst);
                        assert_eq!(seen as usize, T * (round + 1));
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn exactly_one_leader_per_round() {
        const T: usize = 3;
        const ROUNDS: usize = 20;
        let b = Arc::new(SenseBarrier::new(T));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..T)
            .map(|_| {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), ROUNDS as u64);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = SenseBarrier::new(0);
    }
}
