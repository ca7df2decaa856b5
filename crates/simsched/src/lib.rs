//! # simsched — a deterministic multicore scheduling simulator
//!
//! The substitute for the paper's 24-core AMD EPYC 7443P testbed (this
//! repository is built and validated on hosts with arbitrary core counts —
//! including single-core CI machines — where real 24-thread scaling cannot
//! be observed).
//!
//! Two execution models, matching the two real runtimes in this workspace:
//!
//! * [`steal`] — discrete-event greedy list scheduling of a task DAG with
//!   per-task overhead, modelling `taskrt`'s work-stealing scheduler;
//! * [`forkjoin`] — statically scheduled parallel loops with fork/barrier
//!   overheads, modelling `ompsim`.
//!
//! [`lulesh`] translates LULESH configurations (size, regions, partition
//! plan, feature toggles) into those workloads by walking the *same
//! `lulesh_core::plan::StepPlan`* the real drivers run, pricing each
//! kernel from a [`costmodel::CostModel`]
//! calibrated against this repository's real serial kernels
//! ([`calibrate`]). The figure command `lulesh-bench <artifact>` drives
//! all of the paper's figures (9, 10, 11) and Table I through this crate.
//!
//! Everything is deterministic: same inputs → bit-identical outputs.

#![warn(missing_docs)]

pub mod calibrate;
pub mod costmodel;
pub mod forkjoin;
pub mod lulesh;
pub mod machine;
pub mod multinode;
pub mod steal;
pub mod timeline;

pub use costmodel::CostModel;
pub use forkjoin::{simulate_fork_join, simulate_fork_join_dynamic, ForkJoinTrace};
pub use lulesh::{
    estimate_omp, estimate_omp_dynamic, estimate_task, sweep_partitions, LuleshConfig, LuleshModel,
    RunEstimate, SimFeatures,
};
pub use machine::{MachineParams, SimResult};
pub use steal::{simulate_work_stealing, SimTask, TaskGraph};
pub use timeline::{record_fork_join, record_work_stealing, Timeline, TimelineEvent};
