//! # lulesh-core
//!
//! A complete Rust port of the LULESH 2.0 proxy application (Livermore
//! Unstructured Lagrange Explicit Shock Hydrodynamics): the hexahedral mesh
//! of the spherical Sedov blast-wave problem, all leapfrog physics kernels,
//! the region/material-cost model, and a serial reference driver.
//!
//! This crate is the physics substrate of the SC'24 paper reproduction
//! *"Speeding-Up LULESH on HPX"* (Kalkhof & Koch). The parallel ports live
//! in the sibling crates `lulesh-omp` (OpenMP-style fork-join) and
//! `lulesh-task` (the paper's many-task implementation); both drive the
//! kernels defined here and must match this crate's serial results
//! bit-for-bit.
//!
//! ## Quick start
//!
//! ```
//! use lulesh_core::{Domain, serial};
//!
//! // A small Sedov problem: 8³ elements, 4 regions.
//! let domain = Domain::build(8, 4, 1, 1, 0);
//! let state = serial::run(&domain, 10).expect("stable run");
//! assert_eq!(state.cycle, 10);
//! assert!(lulesh_core::validate::final_origin_energy(&domain) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod domain;
pub mod kernels;
pub mod mesh;
pub mod opts;
pub mod params;
pub mod plan;
pub mod regions;
pub mod report;
pub mod serial;
pub mod simd;
mod slab;
pub mod timestep;
pub mod types;
pub mod validate;

pub use domain::Domain;
pub use opts::{Cli, Opts};
pub use params::{Params, SimState};
pub use regions::Regions;
pub use report::RunReport;
pub use types::{Index, LuleshError, Real};
