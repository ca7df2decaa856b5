//! # lulesh-bench — the figure/table regeneration harness
//!
//! One command, `cargo run --release -p lulesh-bench -- <artifact> [args]`,
//! with one artifact per evaluation result of the paper:
//!
//! | Artifact | Paper artifact |
//! |---|---|
//! | `fig9` | Figure 9 — runtime vs. threads, OpenMP vs. HPX, six sizes |
//! | `fig10` | Figure 10 — speed-up at 24 threads vs. size × regions |
//! | `fig11` | Figure 11 — productive-time ratio vs. size |
//! | `table1` | Table I — best partition sizes per problem size |
//! | `ablation` | DESIGN.md §5 — value of each optimization trick |
//! | `sweep` | partition-size sensitivity behind Table I |
//! | `whatif` | `schedule(dynamic)` counterfactual for the OpenMP reference |
//! | `multinode` | §VI future work — multi-node strong-scaling projection |
//! | `graphs` | Figures 9–11 as SVG files |
//! | `calibrate` | re-measure the kernel cost model on this host |
//!
//! All scaling results come from the `simsched` virtual 24-core EPYC
//! (deterministic). Real execution of the drivers, their kernels and the
//! runtime primitives is timed by the release-profile `benchmark/`
//! workspace.

#![warn(missing_docs)]

pub mod plot;

use simsched::{
    estimate_omp, estimate_omp_dynamic, estimate_task, sweep_partitions, CostModel, LuleshConfig,
    LuleshModel, MachineParams, SimFeatures,
};

/// The six problem sizes of the paper's evaluation.
pub const SIZES: [usize; 6] = [45, 60, 75, 90, 120, 150];

/// The thread counts of Figure 9.
pub const THREADS: [usize; 8] = [1, 2, 4, 8, 16, 24, 32, 48];

/// The region counts of Figure 10.
pub const REGION_COUNTS: [usize; 3] = [11, 16, 21];

/// The paper's Table I: the `(nodal, elements)` partition sizes its
/// authors found best per problem size on 24 EPYC cores. The simulator's
/// T7 reproduction prices these; the task driver derives its own grain
/// from the worker count (`lulesh_task::PartitionPlan::for_size_threads`).
pub const TABLE_I: [(usize, (usize, usize)); 6] = [
    (45, (2048, 2048)),
    (60, (4096, 2048)),
    (75, (8192, 4096)),
    (90, (8192, 4096)),
    (120, (8192, 2048)),
    (150, (8192, 2048)),
];

/// Table I's `(nodal, elements)` partition sizes for one of the paper's
/// [`SIZES`]. Panics on any other size: the table has no entry for it.
pub fn paper_partition(size: usize) -> (usize, usize) {
    match TABLE_I.iter().find(|&&(s, _)| s == size) {
        Some(&(_, plan)) => plan,
        None => panic!("Table I has no partition for size {size}"),
    }
}

/// One Figure 9 data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Row {
    /// Problem size.
    pub size: usize,
    /// Execution threads.
    pub threads: usize,
    /// Simulated OpenMP runtime (s).
    pub omp_seconds: f64,
    /// Simulated task-port runtime (s).
    pub task_seconds: f64,
}

impl Fig9Row {
    /// HPX-over-OpenMP speed-up at this point.
    pub fn speedup(&self) -> f64 {
        self.omp_seconds / self.task_seconds
    }
}

/// Generate all Figure 9 rows (6 sizes × 8 thread counts, 11 regions).
pub fn fig9(cm: CostModel) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for &size in &SIZES {
        let model = LuleshModel::new(LuleshConfig::with_size(size), cm);
        let (pn, pe) = paper_partition(size);
        for &threads in &THREADS {
            let m = MachineParams::epyc_7443p(threads);
            let omp = estimate_omp(&model, &m);
            let task = estimate_task(&model, &m, pn, pe, SimFeatures::default());
            rows.push(Fig9Row {
                size,
                threads,
                omp_seconds: omp.seconds,
                task_seconds: task.seconds,
            });
        }
    }
    rows
}

/// One Figure 10 data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// Problem size.
    pub size: usize,
    /// Region count.
    pub regions: usize,
    /// HPX-over-OpenMP speed-up at 24 threads.
    pub speedup: f64,
}

/// Generate all Figure 10 rows (6 sizes × 3 region counts, 24 threads).
pub fn fig10(cm: CostModel) -> Vec<Fig10Row> {
    let m = MachineParams::epyc_7443p(24);
    let mut rows = Vec::new();
    for &size in &SIZES {
        for &regions in &REGION_COUNTS {
            let mut cfg = LuleshConfig::with_size(size);
            cfg.num_reg = regions;
            let model = LuleshModel::new(cfg, cm);
            let (pn, pe) = paper_partition(size);
            let omp = estimate_omp(&model, &m);
            let task = estimate_task(&model, &m, pn, pe, SimFeatures::default());
            rows.push(Fig10Row {
                size,
                regions,
                speedup: omp.seconds / task.seconds,
            });
        }
    }
    rows
}

/// One Figure 11 data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// Problem size.
    pub size: usize,
    /// OpenMP productive-time ratio.
    pub omp_utilization: f64,
    /// Task-port productive-time ratio.
    pub task_utilization: f64,
}

/// Generate all Figure 11 rows (6 sizes, 24 threads, 11 regions).
pub fn fig11(cm: CostModel) -> Vec<Fig11Row> {
    let m = MachineParams::epyc_7443p(24);
    SIZES
        .iter()
        .map(|&size| {
            let model = LuleshModel::new(LuleshConfig::with_size(size), cm);
            let (pn, pe) = paper_partition(size);
            let omp = estimate_omp(&model, &m);
            let task = estimate_task(&model, &m, pn, pe, SimFeatures::default());
            Fig11Row {
                size,
                omp_utilization: omp.utilization,
                task_utilization: task.utilization,
            }
        })
        .collect()
}

/// One Table I sweep result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Problem size.
    pub size: usize,
    /// Best `LagrangeNodal` partition size found.
    pub best_nodal: usize,
    /// Best `LagrangeElements` partition size found.
    pub best_elements: usize,
    /// The paper's Table I values for comparison.
    pub paper: (usize, usize),
}

/// Candidate partition sizes for the Table I sweep.
pub const PARTITION_CANDIDATES: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16384];

/// Sweep partition sizes per problem size and pick the simulated-runtime
/// argmin at 24 threads (regenerates Table I).
pub fn table1(cm: CostModel) -> Vec<Table1Row> {
    let m = MachineParams::epyc_7443p(24);
    SIZES
        .iter()
        .map(|&size| {
            let model = LuleshModel::new(LuleshConfig::with_size(size), cm);
            let (best_nodal, best_elements, _) =
                sweep_partitions(&model, &m, SimFeatures::default(), &PARTITION_CANDIDATES);
            Table1Row {
                size,
                best_nodal,
                best_elements,
                paper: paper_partition(size),
            }
        })
        .collect()
}

/// One ablation result: simulated runtime with a feature set.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Name of the configuration.
    pub name: &'static str,
    /// Problem size.
    pub size: usize,
    /// Simulated runtime at 24 threads (s).
    pub seconds: f64,
    /// Slowdown relative to the fully optimized configuration.
    pub slowdown: f64,
}

/// Quantify each paper trick by switching it off individually (and all at
/// once) at 24 threads.
pub fn ablation(cm: CostModel, size: usize) -> Vec<AblationRow> {
    let m = MachineParams::epyc_7443p(24);
    let model = LuleshModel::new(LuleshConfig::with_size(size), cm);
    let (pn, pe) = paper_partition(size);
    let configs: [(&'static str, SimFeatures); 6] = [
        ("all-tricks (paper)", SimFeatures::default()),
        (
            "no-continuation-chains (T2 off)",
            SimFeatures {
                chain_continuations: false,
                ..SimFeatures::default()
            },
        ),
        (
            "no-kernel-merging (T3+T6 off)",
            SimFeatures {
                merge_kernels: false,
                ..SimFeatures::default()
            },
        ),
        (
            "no-parallel-force-chains (T4a off)",
            SimFeatures {
                parallel_force_chains: false,
                ..SimFeatures::default()
            },
        ),
        (
            "sequential-region-eos (T4b off)",
            SimFeatures {
                parallel_region_eos: false,
                ..SimFeatures::default()
            },
        ),
        ("naive (Fig-5 port)", SimFeatures::naive()),
    ];
    let base = estimate_task(&model, &m, pn, pe, SimFeatures::default()).seconds;
    configs
        .iter()
        .map(|&(name, f)| {
            let s = estimate_task(&model, &m, pn, pe, f).seconds;
            AblationRow {
                name,
                size,
                seconds: s,
                slowdown: s / base,
            }
        })
        .collect()
}

/// Partition sizes of the sensitivity sweep (both phases swept together).
pub const SWEEP_PARTITIONS: [usize; 8] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// One partition-sensitivity point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Problem size.
    pub size: usize,
    /// Partition size used for both leapfrog phases.
    pub partition: usize,
    /// Simulated runtime at 24 threads (s).
    pub seconds: f64,
}

/// Simulated runtime at 24 threads for every size × [`SWEEP_PARTITIONS`]
/// entry: the sensitivity behind Table I (too-fine partitions pay
/// scheduling overhead, too-coarse ones starve the load balancer).
pub fn sweep(cm: CostModel) -> Vec<SweepRow> {
    let m = MachineParams::epyc_7443p(24);
    let mut rows = Vec::new();
    for &size in &SIZES {
        let model = LuleshModel::new(LuleshConfig::with_size(size), cm);
        for &partition in &SWEEP_PARTITIONS {
            let est = estimate_task(&model, &m, partition, partition, SimFeatures::default());
            rows.push(SweepRow {
                size,
                partition,
                seconds: est.seconds,
            });
        }
    }
    rows
}

/// One `schedule(dynamic)` counterfactual point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfRow {
    /// Problem size.
    pub size: usize,
    /// Simulated OpenMP runtime, static schedule (s).
    pub omp_static_seconds: f64,
    /// Simulated OpenMP runtime, `schedule(dynamic, 128)` (s).
    pub omp_dynamic_seconds: f64,
    /// Simulated task-port runtime (s).
    pub task_seconds: f64,
}

impl WhatIfRow {
    /// Static-over-dynamic runtime: > 1 when dynamic scheduling helps.
    pub fn dyn_gain(&self) -> f64 {
        self.omp_static_seconds / self.omp_dynamic_seconds
    }

    /// Task-port speed-up over the faster of the two OpenMP schedules.
    pub fn task_speedup_vs_best_omp(&self) -> f64 {
        self.omp_static_seconds.min(self.omp_dynamic_seconds) / self.task_seconds
    }
}

/// Would `schedule(dynamic)` have saved the OpenMP reference? Dynamic
/// chunks recover per-chunk variance the static split loses, but pay a
/// dequeue per chunk and every one of the reference's barriers; the task
/// port removes the barriers too. 24 threads, every paper size.
pub fn whatif(cm: CostModel) -> Vec<WhatIfRow> {
    let m = MachineParams::epyc_7443p(24);
    SIZES
        .iter()
        .map(|&size| {
            let model = LuleshModel::new(LuleshConfig::with_size(size), cm);
            let (pn, pe) = paper_partition(size);
            WhatIfRow {
                size,
                omp_static_seconds: estimate_omp(&model, &m).seconds,
                // Modest chunking so even the small region loops parallelize.
                omp_dynamic_seconds: estimate_omp_dynamic(&model, &m, 128).seconds,
                task_seconds: estimate_task(&model, &m, pn, pe, SimFeatures::default()).seconds,
            }
        })
        .collect()
}

/// Render rows of (label, values) as an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape_holds() {
        let rows = fig9(CostModel::default());
        assert_eq!(rows.len(), 48);
        // Minimum runtime at 24 threads for every size, both runtimes.
        for &size in &SIZES {
            let per_size: Vec<_> = rows.iter().filter(|r| r.size == size).collect();
            let omp_min = per_size
                .iter()
                .min_by(|a, b| a.omp_seconds.total_cmp(&b.omp_seconds))
                .unwrap();
            let task_min = per_size
                .iter()
                .min_by(|a, b| a.task_seconds.total_cmp(&b.task_seconds))
                .unwrap();
            assert!(
                omp_min.threads == 24 || omp_min.threads == 16 || omp_min.threads == 48,
                "size {size}: OpenMP minimum at {} threads",
                omp_min.threads
            );
            // The paper reports the HPX minimum at 24 threads for every
            // size; partition-wave quantization in the simulator can shift
            // it to a neighbouring count by a percent or two, so assert
            // "at or adjacent to 24, and 24 within 2% of the minimum".
            assert!(
                [16, 24, 32].contains(&task_min.threads),
                "size {size}: HPX minimum at {} threads",
                task_min.threads
            );
            let at24 = per_size
                .iter()
                .find(|r| r.threads == 24)
                .unwrap()
                .task_seconds;
            assert!(
                at24 <= task_min.task_seconds * 1.02,
                "size {size}: 24 threads not within 2% of the minimum"
            );
            // OpenMP wins single-threaded.
            let t1 = per_size.iter().find(|r| r.threads == 1).unwrap();
            assert!(t1.speedup() < 1.0, "size {size}: OMP must win at 1 thread");
            // HPX wins at 24 threads.
            let t24 = per_size.iter().find(|r| r.threads == 24).unwrap();
            assert!(t24.speedup() > 1.0, "size {size}: task port must win at 24");
        }
    }

    #[test]
    fn fig10_shape_holds() {
        let rows = fig10(CostModel::default());
        assert_eq!(rows.len(), 18);
        // Speed-up decreases with size (r = 11 series). Small bumps from
        // Table-I partition-granularity switches and from the PRNG's region
        // realization (the offline rand stand-in draws a different stream
        // than upstream StdRng) are tolerated.
        let r11: Vec<_> = rows.iter().filter(|r| r.regions == 11).collect();
        for pair in r11.windows(2) {
            assert!(
                pair[0].speedup >= pair[1].speedup - 0.1,
                "speed-up should fall with size: {pair:?}"
            );
        }
        assert!(
            r11.first().unwrap().speedup > r11.last().unwrap().speedup + 0.3,
            "overall trend must fall clearly"
        );
        // More regions → more speed-up at every size.
        for &size in &SIZES {
            let series: Vec<f64> = REGION_COUNTS
                .iter()
                .map(|&rc| {
                    rows.iter()
                        .find(|r| r.size == size && r.regions == rc)
                        .unwrap()
                        .speedup
                })
                .collect();
            assert!(
                series[0] <= series[1] && series[1] <= series[2],
                "size {size}: {series:?}"
            );
        }
        // Paper band: up to ~2.25–2.5× at 45, ~1.2–1.4× at 150.
        let s45 = rows
            .iter()
            .filter(|r| r.size == 45)
            .map(|r| r.speedup)
            .fold(0.0, f64::max);
        assert!(s45 > 1.9 && s45 < 3.0, "max speed-up at 45: {s45}");
        let s150 = rows
            .iter()
            .find(|r| r.size == 150 && r.regions == 11)
            .unwrap()
            .speedup;
        assert!(s150 > 1.1 && s150 < 1.5, "speed-up at 150: {s150}");
    }

    #[test]
    fn fig11_shape_holds() {
        let rows = fig11(CostModel::default());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(
                row.task_utilization > row.omp_utilization,
                "size {}: task {} !> omp {}",
                row.size,
                row.task_utilization,
                row.omp_utilization
            );
        }
        // Both ratios improve with size; the task port saturates high.
        for pair in rows.windows(2) {
            assert!(pair[1].omp_utilization > pair[0].omp_utilization - 0.01);
            assert!(pair[1].task_utilization > pair[0].task_utilization - 0.01);
        }
        assert!(
            rows.last().unwrap().task_utilization > 0.93,
            "HPX saturates near 96%"
        );
        assert!(
            rows.last().unwrap().omp_utilization < 0.93,
            "OpenMP stays below"
        );
        assert!(
            rows[0].omp_utilization < 0.6,
            "small size is sync-bound for OpenMP"
        );
    }

    #[test]
    fn table_i_values() {
        assert_eq!(TABLE_I.map(|(s, _)| s), SIZES);
        assert_eq!(paper_partition(45), (2048, 2048));
        assert_eq!(paper_partition(60), (4096, 2048));
        assert_eq!(paper_partition(75), (8192, 4096));
        assert_eq!(paper_partition(90), (8192, 4096));
        assert_eq!(paper_partition(120), (8192, 2048));
        assert_eq!(paper_partition(150), (8192, 2048));
    }

    #[test]
    #[should_panic(expected = "Table I has no partition for size 10")]
    fn paper_partition_rejects_sizes_outside_table_i() {
        let _ = paper_partition(10);
    }

    #[test]
    fn table1_prefers_coarser_partitions_for_larger_problems() {
        let rows = table1(CostModel::default());
        assert_eq!(rows.len(), 6);
        let first = &rows[0];
        let last = &rows[5];
        assert!(last.best_nodal >= first.best_nodal, "{rows:?}");
        for r in &rows {
            assert!(PARTITION_CANDIDATES.contains(&r.best_nodal));
            assert!(PARTITION_CANDIDATES.contains(&r.best_elements));
        }
    }

    #[test]
    fn ablation_every_trick_helps() {
        let rows = ablation(CostModel::default(), 45);
        assert_eq!(rows[0].slowdown, 1.0);
        // Allow ~2% in favour of an ablated configuration: partition-wave
        // quantization plus the region realization drawn by the offline
        // rand stand-in can make a single trick a wash at one size.
        for row in &rows[1..] {
            assert!(
                row.slowdown >= 0.98,
                "{} should not beat the full configuration: {}",
                row.name,
                row.slowdown
            );
        }
        // The naive port must be clearly worse.
        assert!(
            rows.last().unwrap().slowdown > 1.1,
            "naive: {}",
            rows.last().unwrap().slowdown
        );
    }

    #[test]
    fn sweep_degrades_at_both_extremes() {
        let rows = sweep(CostModel::default());
        assert_eq!(rows.len(), SIZES.len() * SWEEP_PARTITIONS.len());
        for &size in &SIZES {
            let per: Vec<_> = rows.iter().filter(|r| r.size == size).collect();
            let best = per
                .iter()
                .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
                .unwrap();
            // The optimum is interior, so both extremes are slower than it.
            let (finest, coarsest) = (per[0], per[per.len() - 1]);
            assert!(
                finest.seconds > best.seconds && coarsest.seconds > best.seconds,
                "size {size}: optimum at P={} is an extreme",
                best.partition
            );
            // Flat within ~2x of the optimum: every partition up to 8x
            // coarser or finer than the best is within 2x of its runtime.
            for r in &per {
                let ratio = r.partition.max(best.partition) / r.partition.min(best.partition);
                if ratio <= 8 {
                    assert!(
                        r.seconds < 2.0 * best.seconds,
                        "size {size}: P={} is {:.2}x the optimum",
                        r.partition,
                        r.seconds / best.seconds
                    );
                }
            }
        }
    }

    #[test]
    fn whatif_task_port_advantage_survives_dynamic_scheduling() {
        let rows = whatif(CostModel::default());
        assert_eq!(rows.len(), SIZES.len());
        for r in &rows {
            assert!(
                r.task_speedup_vs_best_omp() > 1.0,
                "size {}: task port loses to the best OpenMP schedule: {r:?}",
                r.size
            );
        }
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].len(), lines[2].len());
    }
}
