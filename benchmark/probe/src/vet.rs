//! `probe vet-seeds`: find region-assignment seeds of equal work.
//!
//! LULESH's only random input is the assignment of elements to material
//! regions, and the EOS cost of a region is its size times its `rep`, so
//! the work of a run changes with the seed — by 3× on
//! `regions_s24_r21_c32`. A throughput that moves 3× with the seed cannot
//! be gated, so the runner maps the benchmark seed onto a table of program
//! seeds (`Workload::seeds`) whose assignments differ but whose work is
//! the same as seed 0's on three counts: the EOS work of the whole mesh
//! and of one multidom rank's sub-mesh within [`TOL_TOTAL`], and the
//! largest region (the longest of the task driver's independent region
//! chains) within [`TOL_LARGEST`]. These tolerances are the benchmark's
//! definition of "equal work"; a unit test holds every table entry to
//! them. This tool regenerates a workload's table:
//!
//! ```text
//! probe vet-seeds --workload regions_s24_r21_c32
//! ```

use crate::workloads::Workload;
use lulesh_core::Regions;

/// The three work figures of one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionWork {
    /// Σ over regions of size × rep on the whole mesh.
    pub total: f64,
    /// The largest single region's size × rep.
    pub largest: f64,
    /// Σ size × rep on one rank's sub-mesh (`num_elem ÷ ranks` elements,
    /// same seed: every rank draws the same assignment).
    pub per_rank: f64,
}

fn eos_work(num_elem: usize, regions: usize, balance: i32, cost: i32, seed: u64) -> (f64, f64) {
    let reg = Regions::create(num_elem, regions, balance, cost, seed);
    let per_region = (0..regions).map(|r| (reg.reg_elem_size(r) * reg.rep(r)) as f64);
    (per_region.clone().sum(), per_region.fold(0.0, f64::max))
}

pub fn region_work(
    size: usize,
    regions: usize,
    balance: i32,
    cost: i32,
    ranks: usize,
    seed: u64,
) -> RegionWork {
    let num_elem = size * size * size;
    let (total, largest) = eos_work(num_elem, regions, balance, cost, seed);
    let per_rank = if ranks > 1 {
        eos_work(num_elem / ranks, regions, balance, cost, seed).0
    } else {
        total
    };
    RegionWork {
        total,
        largest,
        per_rank,
    }
}

/// Whole-mesh and per-rank EOS work may differ from seed 0's by this share.
const TOL_TOTAL: f64 = 0.01;
/// The largest region may differ from seed 0's by this share.
const TOL_LARGEST: f64 = 0.03;
/// Program seeds searched before giving up.
const SEARCH_LIMIT: u64 = 5_000_000;

fn work_of(w: &Workload, seed: u64) -> RegionWork {
    region_work(
        w.size as usize,
        w.regions as usize,
        w.balance as i32,
        w.cost as i32,
        w.multidom_ranks,
        seed,
    )
}

fn equal_work(a: RegionWork, reference: RegionWork) -> bool {
    let within = |a: f64, r: f64, tol: f64| (a / r - 1.0).abs() <= tol;
    within(a.total, reference.total, TOL_TOTAL)
        && within(a.largest, reference.largest, TOL_LARGEST)
        && within(a.per_rank, reference.per_rank, TOL_TOTAL)
}

/// Print a seed table for the workload `--workload` names: seed 0 and the
/// next program seeds of equal work, as many as the table holds.
pub fn main(argv: &[String]) -> Result<(), String> {
    let w = crate::named_workload(argv)?;
    let reference = work_of(w, 0);
    eprintln!("reference (seed 0): {reference:?}");
    let mut found = vec![0u64];
    let mut seed = 0;
    while found.len() < w.seeds.len() && seed < SEARCH_LIMIT {
        seed += 1;
        let work = work_of(w, seed);
        if equal_work(work, reference) {
            eprintln!("seed {seed}: {work:?}");
            found.push(seed);
        }
    }
    if found.len() < w.seeds.len() {
        return Err(format!(
            "only {} seeds of equal work below {SEARCH_LIMIT}",
            found.len()
        ));
    }
    let list: Vec<String> = found.iter().map(u64::to_string).collect();
    println!("[{}]", list.join(", "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_table_seed_asks_for_the_work_of_seed_0() {
        for w in &WORKLOADS {
            let reference = work_of(w, 0);
            for &seed in &w.seeds {
                let work = work_of(w, seed);
                assert!(
                    equal_work(work, reference),
                    "{} seed {seed}: {work:?} against {reference:?}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn region_work_moves_with_the_seed_and_splits_over_ranks() {
        let w = &WORKLOADS[2];
        let (a, b) = (work_of(w, 0), work_of(w, 1));
        assert!(a.largest <= a.total && a.per_rank < a.total);
        assert_ne!(a, b, "two assignments, two amounts of work");
        let whole = region_work(24, 21, 2, 32, 1, 0);
        assert_eq!(whole.per_rank, whole.total);
    }
}
