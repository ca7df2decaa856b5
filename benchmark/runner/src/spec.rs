//! What the benchmark measures: the metric names, units and bounds.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables and
//! from `workloads.rs` (`runner manifest`) and a unit test keeps the two
//! identical, so the names the runner prints and the names the manifest
//! declares cannot drift apart.

use crate::workloads::{Driver, TASK_PHASES, WORKLOADS};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// A declared metric. `bound` is the share by which an end-to-end metric
/// may worsen before a later change is rejected; per-layer metrics have
/// none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The largest bound `BENCHMARK.json` may carry.
pub const MANIFEST_MAX_BOUND: f64 = 0.25;

/// End-to-end metrics, all reported on every workload from one pass over
/// all five drivers. ISSUE 11 set a 10% ceiling on `fom_*` and
/// `cpu_us_per_zone`; this host does not hold it (ten-seed spreads in
/// `benchmark/README.md`), so they carry the manifest's maximum and the
/// README reports the 10% criterion as not met. ISSUE 11's ninth metric,
/// `failed_frac`, is 0 on every healthy run and the manifest takes only
/// metrics that are never 0: it travels as `failed` ÷ `attempted` in the
/// result line, is printed in the table, and any failed block fails the run.
pub const END_TO_END: [Metric; 8] = [
    e2e("fom_serial_zps", "zones/s", "higher", MANIFEST_MAX_BOUND),
    e2e("fom_omp_zps", "zones/s", "higher", MANIFEST_MAX_BOUND),
    e2e("fom_task_zps", "zones/s", "higher", MANIFEST_MAX_BOUND),
    e2e(
        "fom_multidom_channel_zps",
        "zones/s",
        "higher",
        MANIFEST_MAX_BOUND,
    ),
    e2e(
        "fom_multidom_tcp_zps",
        "zones/s",
        "higher",
        MANIFEST_MAX_BOUND,
    ),
    e2e("cpu_us_per_zone", "us", "lower", MANIFEST_MAX_BOUND),
    e2e("setup_s", "s", "lower", MANIFEST_MAX_BOUND),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
];

/// Per-layer metrics, prefix = crate. A traced run reports all of them.
/// Built once: the generated names are leaked into `&'static str`s.
pub fn per_layer() -> &'static [Metric] {
    static TABLE: std::sync::OnceLock<Vec<Metric>> = std::sync::OnceLock::new();
    TABLE.get_or_init(build_per_layer)
}

fn build_per_layer() -> Vec<Metric> {
    let mut m = vec![
        layer("core.domain_build_ms", "ms", "lower"),
        layer("core.eos_work_units", "count", "lower"),
        layer("core.iter_us", "us", "lower"),
        layer("core.iter_us_best", "us", "lower"),
        layer("core.iter_us_median", "us", "lower"),
        layer("core.iter_us_p90", "us", "lower"),
        layer("core.force_us_per_iter", "us", "lower"),
        layer("core.advance_nodes_us_per_iter", "us", "lower"),
        layer("core.kinematics_us_per_iter", "us", "lower"),
        layer("core.q_materials_us_per_iter", "us", "lower"),
        layer("core.constraints_us_per_iter", "us", "lower"),
    ];
    for k in ["integrate_stress", "hourglass_fb", "monoq_gradients", "eos"] {
        for w in ["scalar", "w8"] {
            m.push(Metric {
                name: leak(format!("core.kernel.{k}_{w}_zps")),
                unit: "zones/s",
                better: "higher",
                bound: None,
            });
        }
    }
    m.extend([
        layer("parutil.sense_barrier_ns", "ns", "lower"),
        layer("taskrt.spawn_ns_per_task", "ns", "lower"),
        layer("taskrt.then_ns_per_link", "ns", "lower"),
        layer("taskrt.when_all_ns_per_input", "ns", "lower"),
        layer("taskrt.wake_latency_us", "us", "lower"),
        layer("taskrt.tasks_per_iter", "count", "lower"),
        layer("taskrt.steals_per_iter", "count", "lower"),
        layer("ompsim.parallel_for_empty_ns", "ns", "lower"),
        layer("ompsim.regions_per_iter", "count", "lower"),
        layer("omp.utilization", "fraction", "higher"),
        layer("omp.barrier_idle_us_per_iter", "us", "lower"),
        layer("task.utilization", "fraction", "higher"),
        layer("task.idle_plus_overhead_us_per_iter", "us", "lower"),
        layer("task.tasks_per_iter", "count", "lower"),
        layer("task.sync_points_per_iter", "count", "lower"),
        layer("task.mean_grain_us", "us", "higher"),
    ]);
    for p in TASK_PHASES {
        m.push(Metric {
            name: leak(format!("task.phase.{p}.busy_us_per_iter")),
            unit: "us",
            better: "lower",
            bound: None,
        });
    }
    m.extend([
        layer("multidom.pack_forces_us", "us", "lower"),
        layer("multidom.combine_forces_us", "us", "lower"),
        layer("multidom.msgs_per_step_per_rank", "count", "lower"),
        layer("multidom.bytes_per_step_per_rank", "bytes", "lower"),
        layer("multidom.lockstep_iter_us", "us", "lower"),
        layer("multidom.busy_frac", "fraction", "higher"),
        layer("multidom.pack_frac", "fraction", "lower"),
        layer("multidom.send_frac", "fraction", "lower"),
        layer("multidom.wait_frac", "fraction", "lower"),
        layer("multidom.critical_path_ms", "ms", "lower"),
        layer("parcelnet.channel_rtt_us", "us", "lower"),
        layer("parcelnet.channel_bw_MBps", "MB/s", "higher"),
        layer("parcelnet.tcp_rtt_us", "us", "lower"),
        layer("parcelnet.tcp_bw_MBps", "MB/s", "higher"),
        layer("parcelnet.allreduce_dt_us", "us", "lower"),
        layer("resil.capture_us", "us", "lower"),
        layer("resil.serialize_MBps", "MB/s", "higher"),
        layer("resil.snapshot_bytes", "bytes", "lower"),
        layer("resil.file_write_ms", "ms", "lower"),
        layer("resil.restore_us", "us", "lower"),
        layer("obs.record_ns_per_span", "ns", "lower"),
        layer("obs.task_trace_overhead_frac", "fraction", "lower"),
        layer(
            "simsched.sim_speedup_task_over_omp_s45_t24",
            "ratio",
            "higher",
        ),
        layer(
            "simsched.sim_productive_ratio_task_s45_t24",
            "fraction",
            "higher",
        ),
        layer("simsched.sim_ns_per_task", "ns", "lower"),
        layer("simsched.drift_task_t2", "ratio", "lower"),
    ]);
    m.extend([
        layer("derived.speedup_task_over_omp", "ratio", "higher"),
        layer("derived.task_parallel_efficiency", "fraction", "higher"),
        layer("derived.multidom_parallel_efficiency", "fraction", "higher"),
        layer("derived.tcp_over_channel", "ratio", "higher"),
    ]);
    for d in Driver::ALL {
        m.push(Metric {
            name: leak(format!("derived.block_spread_{}", d.key())),
            unit: "fraction",
            better: "lower",
            bound: None,
        });
    }
    m.push(layer("derived.trace_overhead_frac", "fraction", "lower"));
    m
}

/// Counts that must be identical between two traced runs of one commit.
pub const EXACT_REPEAT: [&str; 9] = [
    "core.eos_work_units",
    "task.tasks_per_iter",
    "task.sync_points_per_iter",
    "ompsim.regions_per_iter",
    "multidom.msgs_per_step_per_rank",
    "multidom.bytes_per_step_per_rank",
    "resil.snapshot_bytes",
    "simsched.sim_speedup_task_over_omp_s45_t24",
    "simsched.sim_productive_ratio_task_s45_t24",
];

/// The metric table lives for the whole process; built names are leaked
/// (once, see [`per_layer`]) so every metric name is a `&'static str`.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    use crate::json::quote;
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"-p\", \"runner\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_legal_and_used_once() {
        let mut seen = BTreeSet::new();
        let layers = per_layer();
        for m in END_TO_END.iter().chain(layers) {
            assert!(legal_name(m.name), "bad metric name {}", m.name);
            assert!(legal_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(legal_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        assert!(layers.len() <= 128);
        assert!(EXACT_REPEAT
            .iter()
            .all(|n| layers.iter().any(|m| m.name == *n)));
    }

    #[test]
    fn bounds_fit_the_manifest_and_setup_has_the_largest() {
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= MANIFEST_MAX_BOUND, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_driver_has_a_gated_figure_of_merit() {
        for d in Driver::ALL {
            let name = format!("fom_{}_zps", d.key());
            assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let on_disk = include_str!("../../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest_json(),
            "BENCHMARK.json is stale: regenerate with `runner manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn every_driver_runs_every_workload_within_the_thread_cap() {
        for w in &WORKLOADS {
            for threads in [1, 2] {
                for d in Driver::ALL {
                    assert!(d.parallelism(w, threads) <= threads);
                }
                assert_eq!(w.size % w.ranks(threads) as u64, 0, "{}", w.name);
            }
            let f = w.flags(3);
            let program = w.seeds[3].to_string();
            assert!(f.windows(2).any(|p| p[0] == "--seed" && p[1] == program));
            assert_eq!(w.program_seed(0), 0, "seed 0 is the reference assignment");
            assert_eq!(w.program_seed(3), w.program_seed(3 + w.seeds.len() as u64));
            let distinct: BTreeSet<_> = w.seeds.iter().collect();
            assert_eq!(distinct.len(), w.seeds.len(), "{}", w.name);
            assert_eq!(f.last().map(String::as_str), Some("--q"));
        }
    }
}
