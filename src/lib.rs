//! # lulesh — task-based LULESH in Rust
//!
//! A full reproduction of *"Speeding-Up LULESH on HPX: Useful Tricks and
//! Lessons Learned using a Many-Task-Based Approach"* (Kalkhof & Koch,
//! SC 2024), built from scratch in Rust:
//!
//! * [`core`] (`lulesh-core`) — the LULESH 2.0 physics: mesh, regions,
//!   every leapfrog kernel, and the serial golden-reference driver.
//! * [`taskrt`] — an HPX-substitute asynchronous many-task runtime
//!   (futures, continuations, `when_all`, work stealing).
//! * [`ompsim`] — an OpenMP-substitute fork-join runtime (static
//!   `parallel_for`, joined at the end of every loop).
//! * [`omp`] (`lulesh-omp`) — the fork-join port: the task port's kernels,
//!   one parallel region per chain (7 + 3R per iteration for R regions);
//!   its reference plan keeps the OpenMP code's loop-per-kernel structure.
//! * [`task`] (`lulesh-task`) — the paper's contribution: partitioned
//!   task chains, merged kernels, six sync points per iteration.
//! * [`simsched`] — the deterministic virtual 24-core EPYC used to
//!   regenerate the paper's Figures 9–11 and Table I on any host.
//!
//! All three execution paths produce **bit-identical** physics.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use lulesh::core::{Domain, serial, validate};
//! use lulesh::task::{TaskLulesh, PartitionPlan};
//!
//! // Golden reference.
//! let d_ref = Domain::build(8, 4, 1, 1, 0);
//! serial::run(&d_ref, 20).unwrap();
//!
//! // The paper's many-task port, 2 worker threads.
//! let d_task = Arc::new(Domain::build(8, 4, 1, 1, 0));
//! let runner = TaskLulesh::new(2);
//! runner.run(&d_task, PartitionPlan::fixed(64, 64), 20).unwrap();
//!
//! assert_eq!(validate::max_field_difference(&d_ref, &d_task), 0.0);
//! ```

#![warn(missing_docs)]

pub use lulesh_core as core;
pub use lulesh_omp as omp;
pub use lulesh_task as task;
pub use ompsim;
pub use parutil;
pub use simsched;
pub use taskrt;
