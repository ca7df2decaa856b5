//! The LULESH physics kernels, one module per pipeline stage.
//!
//! Every kernel operates on an index [`parutil::Chunk`] (dense element/node
//! loops) or an explicit region element sublist, so the same code is driven
//! by the serial reference, the OpenMP-style fork-join port, and the
//! paper's many-task port.

pub mod constraints;
pub mod eos;
pub mod hourglass;
pub mod kinematics;
pub mod monoq;
pub mod nodal;
pub mod shape;
pub mod stress;
#[cfg(test)]
mod testutil;
pub mod volume;
