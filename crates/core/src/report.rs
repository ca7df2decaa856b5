//! Run reporting in the artifact's CSV format
//! (`size,regions,iterations,threads,runtime,result`) plus the verbose
//! final-output block the reference prints.

use crate::domain::Domain;
use crate::kernels::eos;
use crate::params::SimState;
use crate::simd;
use crate::validate::{final_origin_energy, symmetry_check};
use std::time::Duration;

/// Everything a finished run reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Problem size (edge elements).
    pub size: usize,
    /// Region count.
    pub regions: usize,
    /// Iterations executed.
    pub iterations: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock runtime.
    pub elapsed: Duration,
    /// Final origin energy.
    pub final_energy: f64,
    /// Max |Δe| over transposed ζ=0-plane elements.
    pub max_abs_diff: f64,
    /// Total |Δe|.
    pub total_abs_diff: f64,
    /// Max relative Δe.
    pub max_rel_diff: f64,
    /// Final simulation time.
    pub final_time: f64,
    /// Final dt.
    pub final_dt: f64,
}

impl RunReport {
    /// Assemble the report from a finished domain/state pair.
    pub fn collect(d: &Domain, state: &SimState, threads: usize, elapsed: Duration) -> Self {
        let sym = symmetry_check(d);
        Self {
            size: d.size(),
            regions: d.num_reg(),
            iterations: state.cycle,
            threads,
            elapsed,
            final_energy: final_origin_energy(d),
            max_abs_diff: sym.max_abs_diff,
            total_abs_diff: sym.total_abs_diff,
            max_rel_diff: sym.max_rel_diff,
            final_time: state.time,
            final_dt: state.deltatime,
        }
    }

    /// The CSV header expected by the artifact's analysis scripts.
    pub const CSV_HEADER: &'static str = "size,regions,iterations,threads,runtime,result";

    /// One CSV row (`runtime` in seconds, `result` = final origin energy).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.6},{:.6e}",
            self.size,
            self.regions,
            self.iterations,
            self.threads,
            self.elapsed.as_secs_f64(),
            self.final_energy,
        )
    }

    /// The verbose block the reference prints after a run, plus the lane
    /// kernel body (`width/isa`, plus EOS's own pack where it differs) the
    /// dispatchers resolve to right now.
    pub fn verbose(&self) -> String {
        format!(
            "Run completed:\n\
             \x20  Problem size        =  {}\n\
             \x20  MPI tasks           =  1\n\
             \x20  Iteration count     =  {}\n\
             \x20  Kernel lanes        =  {}\n\
             \x20  Final Origin Energy =  {:.6e}\n\
             \x20  Testing Plane 0 of Energy Array on rank 0:\n\
             \x20       MaxAbsDiff   = {:.6e}\n\
             \x20       TotalAbsDiff = {:.6e}\n\
             \x20       MaxRelDiff   = {:.6e}\n\
             Elapsed time         = {:>10.2} (s)",
            self.size,
            self.iterations,
            kernel_lanes(simd::active()),
            self.final_energy,
            self.max_abs_diff,
            self.total_abs_diff,
            self.max_rel_diff,
            self.elapsed.as_secs_f64(),
        )
    }
}

/// The lane body the kernels run at `width` on this host, as `width/isa`,
/// naming EOS's own pack where it pins AVX2 under an AVX-512 walk:
/// `w8/avx512 (eos avx2)`.
fn kernel_lanes(width: simd::LaneWidth) -> String {
    let isa = simd::Isa::detect(width);
    let pinned = isa == simd::Isa::Avx512 && eos::LANES_PIN_AVX2;
    format!("{width}/{isa}{}", if pinned { " (eos avx2)" } else { "" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::params::SimState;

    #[test]
    fn csv_row_shape() {
        let d = Domain::build(4, 2, 1, 1, 0);
        let mut state = SimState::new(d.initial_dt());
        state.cycle = 7;
        let r = RunReport::collect(&d, &state, 3, Duration::from_millis(1500));
        let row = r.csv_row();
        let fields: Vec<_> = row.split(',').collect();
        assert_eq!(fields.len(), 6);
        assert_eq!(fields[0], "4");
        assert_eq!(fields[1], "2");
        assert_eq!(fields[2], "7");
        assert_eq!(fields[3], "3");
        assert!((fields[4].parse::<f64>().unwrap() - 1.5).abs() < 1e-9);
        assert!(fields[5].parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn verbose_mentions_key_numbers() {
        let d = Domain::build(4, 2, 1, 1, 0);
        let state = SimState::new(d.initial_dt());
        let r = RunReport::collect(&d, &state, 1, Duration::from_secs(2));
        let v = r.verbose();
        assert!(v.contains("Final Origin Energy"));
        assert!(v.contains("Problem size        =  4"));
        // EOS pins the AVX2 pack under the AVX-512 walk, and says so.
        let width = simd::active();
        let lanes = match simd::Isa::detect(width) {
            simd::Isa::Avx512 => "w8/avx512 (eos avx2)".to_string(),
            isa => format!("{width}/{isa}"),
        };
        assert!(
            v.contains(&format!("Kernel lanes        =  {lanes}\n")),
            "{v}"
        );
    }
}
