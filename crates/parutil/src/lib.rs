//! Low-level parallel utilities shared by the LULESH runtimes.
//!
//! This crate holds the small, carefully audited primitives that both the
//! HPX-substitute task runtime ([`taskrt`]) and the OpenMP-substitute
//! fork-join runtime ([`ompsim`]) are built on:
//!
//! * [`SharedVec`] — the one documented-unsafe escape hatch
//!   that lets many tasks write *disjoint* index ranges of the same array, the
//!   fundamental access pattern of every LULESH kernel.
//! * [`chunks`] — partition arithmetic: splitting `0..n` into fixed-size or
//!   per-thread contiguous chunks, exactly once, with no element dropped.
//! * [`barrier`] — a sense-reversing spin/park barrier used by the fork-join
//!   pool.
//! * [`counters`] — cache-line padded busy/idle clocks used to reproduce the
//!   paper's Figure 11 (productive-time ratio).
//!
//! [`taskrt`]: https://docs.rs/taskrt
//! [`ompsim`]: https://docs.rs/ompsim

pub mod aligned;
pub mod barrier;
pub mod chunks;
pub mod counters;
pub mod shared_slice;

pub use aligned::AlignedBuf;
pub use barrier::SenseBarrier;
pub use chunks::{chunk_count, chunk_range, chunks_in, chunks_of, static_split, Chunk};
pub use counters::{aggregate, BusyIdleClock, CachePadded, Utilization};
pub use shared_slice::{SharedVec, ZeroBits, CACHE_LINE};
