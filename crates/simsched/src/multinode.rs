//! Multi-node scaling projection — the comparison the paper's future-work
//! section anticipates: *"we anticipate additional benefits from using the
//! asynchronous mechanisms of HPX instead of the mostly synchronous data
//! exchange mechanisms of MPI."*
//!
//! The `multidom` crate implements the decomposed solver in-process; this
//! module projects its behaviour onto a cluster: each node computes one ζ
//! slab (24 cores), exchanging interface planes per iteration. Two
//! communication disciplines are modelled:
//!
//! * **synchronous (MPI-style)**: every exchange sits on the critical path
//!   — compute, then communicate, then continue (plus a dt allreduce);
//! * **asynchronous (task-style)**: boundary tasks are scheduled first and
//!   their halo messages overlap with interior computation, exposing only
//!   the non-overlappable remainder.
//!
//! This is a *projection* (no cluster runs here), clearly labelled as such
//! in the harness output; the single-node term is the calibrated
//! per-iteration makespan from the main simulator.

use crate::lulesh::{estimate_task, LuleshModel, SimFeatures};
use crate::machine::MachineParams;

/// Cluster interconnect and overlap parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Per-message latency, ns (rendezvous + software stack).
    pub latency_ns: f64,
    /// Link bandwidth, bytes/ns (e.g. 12.5 ≈ 100 Gb/s).
    pub bandwidth_bytes_per_ns: f64,
    /// Fraction of communication the task-style runtime hides behind
    /// interior computation.
    pub async_overlap: f64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self {
            latency_ns: 2_000.0,
            bandwidth_bytes_per_ns: 12.5,
            async_overlap: 0.8,
        }
    }
}

impl ClusterParams {
    /// Build from measured link parameters (e.g. the numbers
    /// `parcelnet::tcp::measure_loopback` reports), keeping the default
    /// overlap fraction. Inputs are clamped to sane positive floors so a
    /// degenerate measurement cannot produce divide-by-zero projections.
    pub fn calibrated(latency_ns: f64, bandwidth_bytes_per_ns: f64) -> Self {
        Self {
            latency_ns: latency_ns.max(1.0),
            bandwidth_bytes_per_ns: bandwidth_bytes_per_ns.max(1e-3),
            ..Self::default()
        }
    }

    /// A loopback-socket preset: latency is in the tens of microseconds
    /// and bandwidth is memcpy-bound — what a single-machine `--transport
    /// tcp` run actually sees, useful for sanity-checking the projection
    /// against measured multi-process runs.
    pub fn loopback() -> Self {
        Self::calibrated(20_000.0, 5.0)
    }
}

/// One row of the strong-scaling projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Cluster nodes (= ζ slabs).
    pub nodes: usize,
    /// Projected per-iteration time with synchronous exchange, ns.
    pub sync_ns: f64,
    /// Projected per-iteration time with asynchronous (overlapped)
    /// exchange, ns.
    pub async_ns: f64,
    /// Parallel efficiency of the synchronous variant vs. 1 node.
    pub sync_efficiency: f64,
    /// Parallel efficiency of the asynchronous variant vs. 1 node.
    pub async_efficiency: f64,
}

/// Interface data volume per iteration for a cube of edge `s`: the force
/// planes (3 fields × (s+1)²) and the gradient ghost planes (3 × s²), 8
/// bytes each, in both directions.
pub fn halo_bytes_per_iteration(size: usize) -> f64 {
    let nodes_plane = ((size + 1) * (size + 1)) as f64;
    let elems_plane = (size * size) as f64;
    2.0 * 8.0 * (3.0 * nodes_plane + 3.0 * elems_plane)
}

/// Project strong scaling of the decomposed problem over `node_counts`
/// cluster nodes (each a 24-core machine), for the task port.
///
/// `compute_1node_ns` is the single-node per-iteration makespan; slabs
/// scale it by `1/nodes` (the decomposition divides elements evenly).
pub fn strong_scaling(
    size: usize,
    compute_1node_ns: f64,
    cluster: &ClusterParams,
    node_counts: &[usize],
) -> Vec<ScalingPoint> {
    let bytes = halo_bytes_per_iteration(size);
    let comm_ns = |msgs: f64| msgs * cluster.latency_ns + bytes / cluster.bandwidth_bytes_per_ns;

    node_counts
        .iter()
        .map(|&nodes| {
            let compute = compute_1node_ns / nodes as f64;
            let (sync_ns, async_ns) = if nodes == 1 {
                (compute, compute)
            } else {
                // Two exchange points (forces, gradients) plus the dt
                // allreduce (latency × log₂ nodes both ways).
                let exchange = comm_ns(2.0);
                let allreduce = 2.0 * cluster.latency_ns * (nodes as f64).log2().max(1.0);
                let sync = compute + exchange + allreduce;
                let hidden = exchange * cluster.async_overlap;
                let asynch = compute + (exchange - hidden) + allreduce;
                (sync, asynch)
            };
            ScalingPoint {
                nodes,
                sync_ns,
                async_ns,
                sync_efficiency: compute_1node_ns / (sync_ns * nodes as f64),
                async_efficiency: compute_1node_ns / (async_ns * nodes as f64),
            }
        })
        .collect()
}

/// Project **weak scaling**: every node holds a fixed-size slab (the
/// single-node problem), so compute per node is constant while the halo
/// volume stays fixed per interface — efficiency loss is pure
/// communication exposure.
pub fn weak_scaling(
    size_per_node: usize,
    compute_per_node_ns: f64,
    cluster: &ClusterParams,
    node_counts: &[usize],
) -> Vec<ScalingPoint> {
    let bytes = halo_bytes_per_iteration(size_per_node);
    let comm_ns = |msgs: f64| msgs * cluster.latency_ns + bytes / cluster.bandwidth_bytes_per_ns;

    node_counts
        .iter()
        .map(|&nodes| {
            let compute = compute_per_node_ns;
            let (sync_ns, async_ns) = if nodes == 1 {
                (compute, compute)
            } else {
                let exchange = comm_ns(2.0);
                let allreduce = 2.0 * cluster.latency_ns * (nodes as f64).log2().max(1.0);
                let sync = compute + exchange + allreduce;
                let hidden = exchange * cluster.async_overlap;
                (sync, compute + (exchange - hidden) + allreduce)
            };
            ScalingPoint {
                nodes,
                sync_ns,
                async_ns,
                // Weak-scaling efficiency: ideal time is the 1-node time.
                sync_efficiency: compute_per_node_ns / sync_ns,
                async_efficiency: compute_per_node_ns / async_ns,
            }
        })
        .collect()
}

/// Convenience: the task port's single-node per-iteration makespan at 24
/// threads for `size` (paper partition sizes), from the calibrated model.
pub fn task_compute_1node_ns(model: &LuleshModel, pn: usize, pe: usize) -> f64 {
    estimate_task(
        model,
        &MachineParams::epyc_7443p(24),
        pn,
        pe,
        SimFeatures::default(),
    )
    .iteration_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostModel;
    use crate::lulesh::LuleshConfig;

    #[test]
    fn halo_volume_scales_quadratically() {
        let b45 = halo_bytes_per_iteration(45);
        let b90 = halo_bytes_per_iteration(90);
        assert!(b90 / b45 > 3.8 && b90 / b45 < 4.2);
    }

    #[test]
    fn async_never_slower_than_sync() {
        let cluster = ClusterParams::default();
        for &size in &[45usize, 150] {
            let rows = strong_scaling(size, 50e6, &cluster, &[1, 2, 4, 8, 16]);
            for r in &rows {
                assert!(r.async_ns <= r.sync_ns + 1e-9, "{r:?}");
                assert!(r.async_efficiency >= r.sync_efficiency - 1e-12);
            }
        }
    }

    #[test]
    fn one_node_has_no_communication() {
        let rows = strong_scaling(90, 10e6, &ClusterParams::default(), &[1]);
        assert_eq!(rows[0].sync_ns, 10e6);
        assert_eq!(rows[0].async_ns, 10e6);
        assert!((rows[0].sync_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_decays_with_nodes_but_less_for_async() {
        let model = LuleshModel::new(LuleshConfig::with_size(90), CostModel::default());
        let compute = task_compute_1node_ns(&model, 8192, 4096);
        let rows = strong_scaling(90, compute, &ClusterParams::default(), &[1, 2, 4, 8, 16]);
        for pair in rows.windows(2) {
            assert!(pair[1].sync_efficiency <= pair[0].sync_efficiency + 1e-12);
        }
        let last = rows.last().unwrap();
        assert!(
            last.async_efficiency > last.sync_efficiency,
            "async must retain more efficiency at scale: {last:?}"
        );
    }

    #[test]
    fn weak_scaling_efficiency_is_flat_in_nodes_for_async() {
        let model = LuleshModel::new(LuleshConfig::with_size(45), CostModel::default());
        let compute = task_compute_1node_ns(&model, 2048, 2048);
        let rows = weak_scaling(45, compute, &ClusterParams::default(), &[1, 2, 8, 32]);
        // Weak scaling with fixed halo volume: efficiency drops once, then
        // only the log-factor allreduce grows.
        for r in &rows[1..] {
            assert!(r.async_efficiency > 0.9, "{r:?}");
            assert!(r.async_efficiency >= r.sync_efficiency);
        }
    }

    #[test]
    fn calibrated_params_clamp_degenerate_inputs() {
        let c = ClusterParams::calibrated(25_000.0, 4.2);
        assert_eq!(c.latency_ns, 25_000.0);
        assert_eq!(c.bandwidth_bytes_per_ns, 4.2);
        assert_eq!(c.async_overlap, ClusterParams::default().async_overlap);
        let bad = ClusterParams::calibrated(0.0, 0.0);
        assert!(bad.latency_ns > 0.0 && bad.bandwidth_bytes_per_ns > 0.0);
        let rows = strong_scaling(45, 10e6, &ClusterParams::loopback(), &[1, 2, 4]);
        assert!(rows
            .iter()
            .all(|r| r.sync_ns.is_finite() && r.sync_ns > 0.0));
    }

    #[test]
    fn loopback_preset_is_slower_than_the_default_interconnect() {
        let lo = ClusterParams::loopback();
        let hi = ClusterParams::default();
        assert!(lo.latency_ns > hi.latency_ns);
        assert!(lo.bandwidth_bytes_per_ns < hi.bandwidth_bytes_per_ns);
    }

    #[test]
    fn zero_overlap_degenerates_to_sync() {
        let cluster = ClusterParams {
            async_overlap: 0.0,
            ..ClusterParams::default()
        };
        let rows = strong_scaling(60, 20e6, &cluster, &[4]);
        assert!((rows[0].sync_ns - rows[0].async_ns).abs() < 1e-9);
    }
}
