//! Per-kernel cost coefficients (ns per item) used to translate LULESH
//! configurations into simulator workloads.
//!
//! Each coefficient prices one loop of `StepPlan::reference`
//! ([`CostModel::coefficient`]). The default values were measured on this
//! repository's own serial kernels (release build, mid-blast state at size
//! 30) via [`crate::calibrate`]; re-run the calibration on your host with
//! `cargo run --release -p lulesh-bench -- calibrate` to regenerate
//! them. Only *ratios* between kernels matter for the reproduced figure
//! shapes; the absolute scale shifts every curve equally.

use lulesh_core::kernels::eos::{EOS_FINISH, EOS_LADDER};
use lulesh_core::plan::Kernel;

/// ns-per-item coefficients for every kernel in the leapfrog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Zero nodal forces (per node).
    pub zero_forces: f64,
    /// `InitStressTermsForElems` (per element).
    pub init_stress: f64,
    /// `IntegrateStressForElems` (per element).
    pub integrate_stress: f64,
    /// Volume-error scan (per element).
    pub volume_check: f64,
    /// Stress force gather (per node).
    pub gather_set: f64,
    /// `CalcHourglassControlForElems` (per element).
    pub hg_control: f64,
    /// `CalcFBHourglassForceForElems` (per element).
    pub hg_fb: f64,
    /// Hourglass force gather (per node).
    pub gather_add: f64,
    /// `CalcAccelerationForNodes` (per node).
    pub accel: f64,
    /// Acceleration boundary conditions (per symmetry-plane node).
    pub accel_bc: f64,
    /// `CalcVelocityForNodes` (per node).
    pub velocity: f64,
    /// `CalcPositionForNodes` (per node).
    pub position: f64,
    /// `CalcKinematicsForElems` (per element).
    pub kinematics: f64,
    /// `CalcLagrangeElements` trailing loop (per element).
    pub lagrange_finish: f64,
    /// `CalcMonotonicQGradientsForElems` (per element).
    pub monoq_gradients: f64,
    /// `CalcMonotonicQRegionForElems` (per region element).
    pub monoq_region: f64,
    /// q-stop scan (per element).
    pub qstop_check: f64,
    /// vnewc fill+clamp (per element).
    pub vnewc_fill: f64,
    /// old-volume bounds check (per element).
    pub vnewc_check: f64,
    /// One `rep` of `EvalEOSForElems` — gather, compressions, the whole
    /// `CalcEnergyForElems` ladder (per region element per rep).
    pub eos_per_rep: f64,
    /// EOS epilogue: store + `CalcSoundSpeedForElems` (per region element).
    pub eos_finish: f64,
    /// `UpdateVolumesForElems` (per element).
    pub update_volumes: f64,
    /// Courant + hydro constraint scan (per region element).
    pub constraints: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Measured on the repository's serial kernels (see module docs).
        Self {
            zero_forces: 1.5,
            init_stress: 2.8,
            integrate_stress: 145.0,
            volume_check: 0.8,
            gather_set: 13.3,
            hg_control: 137.7,
            hg_fb: 171.9,
            gather_add: 11.6,
            accel: 7.4,
            accel_bc: 5.1,
            velocity: 1.5,
            position: 1.5,
            kinematics: 148.9,
            lagrange_finish: 1.6,
            monoq_gradients: 40.5,
            monoq_region: 20.2,
            qstop_check: 7.2,
            vnewc_fill: 0.9,
            vnewc_check: 0.9,
            eos_per_rep: 35.6,
            eos_finish: 6.0,
            update_volumes: 0.6,
            constraints: 5.6,
        }
    }
}

impl CostModel {
    /// The coefficient that prices loop `k` of `StepPlan::reference`, and
    /// how many loops split it: a loop costs `coefficient / split` ns per
    /// item. The 12 loops of an EOS repetition split `eos_per_rep` and the
    /// 2 finishing loops `eos_finish`; every other loop has its own.
    ///
    /// # Panics
    /// If `k` is a fused kernel of the task plan, which no coefficient
    /// prices on its own.
    pub fn coefficient(&mut self, k: Kernel) -> (&mut f64, f64) {
        use Kernel::*;
        let c = match k {
            EosLoop(step, _) if EOS_FINISH.contains(&step) => {
                return (&mut self.eos_finish, EOS_FINISH.len() as f64)
            }
            EosLoop(..) => return (&mut self.eos_per_rep, EOS_LADDER.len() as f64),
            ZeroForces => &mut self.zero_forces,
            InitStress => &mut self.init_stress,
            IntegrateStress => &mut self.integrate_stress,
            CheckVolume => &mut self.volume_check,
            GatherSet => &mut self.gather_set,
            HourglassControl => &mut self.hg_control,
            HourglassFb => &mut self.hg_fb,
            GatherAdd => &mut self.gather_add,
            Acceleration => &mut self.accel,
            AccelerationBc => &mut self.accel_bc,
            Velocity => &mut self.velocity,
            Position => &mut self.position,
            Kinematics => &mut self.kinematics,
            LagrangeFinish => &mut self.lagrange_finish,
            MonoqGradients => &mut self.monoq_gradients,
            MonoqRegion(_) => &mut self.monoq_region,
            QStop => &mut self.qstop_check,
            VnewcFill => &mut self.vnewc_fill,
            VnewcCheck => &mut self.vnewc_check,
            UpdateVolumes => &mut self.update_volumes,
            Constraints(_) => &mut self.constraints,
            _ => panic!("{k:?} is a fused task kernel, not a reference loop"),
        };
        (c, 1.0)
    }

    /// ns per item of reference loop `k` ([`Self::coefficient`]).
    pub(crate) fn per_item(&self, k: Kernel) -> f64 {
        let mut cm = *self;
        let (c, split) = cm.coefficient(k);
        *c / split
    }

    /// Every coefficient, in declaration order.
    pub(crate) fn coefficients_mut(&mut self) -> [&mut f64; 23] {
        [
            &mut self.zero_forces,
            &mut self.init_stress,
            &mut self.integrate_stress,
            &mut self.volume_check,
            &mut self.gather_set,
            &mut self.hg_control,
            &mut self.hg_fb,
            &mut self.gather_add,
            &mut self.accel,
            &mut self.accel_bc,
            &mut self.velocity,
            &mut self.position,
            &mut self.kinematics,
            &mut self.lagrange_finish,
            &mut self.monoq_gradients,
            &mut self.monoq_region,
            &mut self.qstop_check,
            &mut self.vnewc_fill,
            &mut self.vnewc_check,
            &mut self.eos_per_rep,
            &mut self.eos_finish,
            &mut self.update_volumes,
            &mut self.constraints,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let mut m = CostModel::default();
        // Every field is an f64 coefficient, so a field left out of
        // `coefficients_mut` shows up as a size mismatch.
        let n = m.coefficients_mut().len();
        assert_eq!(
            std::mem::size_of::<CostModel>(),
            n * std::mem::size_of::<f64>()
        );
        for (i, v) in m.coefficients_mut().into_iter().enumerate() {
            assert!(*v > 0.0, "coefficient {i} is {v}");
        }
    }
}
