//! # lulesh-omp — the OpenMP-reference-style LULESH port
//!
//! Reproduces the structure the paper compares against: every loop of the
//! reference's `LagrangeLeapFrog` becomes one statically scheduled
//! [`ompsim::Pool::parallel_for`] **with a barrier at the end** — about 30
//! parallel loops/regions per iteration, including the per-region EOS
//! sub-loops. This is the "AMT-hostile" baseline whose synchronization
//! overhead the paper's task port removes.
//!
//! Results are bit-identical to `lulesh_core::serial` (same kernels, same
//! static chunking of the same index spaces, same gather orders); the
//! integration tests assert this.

#![warn(missing_docs)]

use lulesh_core::domain::Domain;
use lulesh_core::kernels::{constraints, eos, hourglass, kinematics, monoq, nodal, stress};
use lulesh_core::params::SimState;
use lulesh_core::serial::SerialScratch;
use lulesh_core::timestep::time_increment;
use lulesh_core::types::{Index, LuleshError, Real};
use obs::{SpanKind, Tracer};
use ompsim::Pool;
use parutil::{static_split, Chunk, SharedSlice};
use std::sync::atomic::{AtomicBool, Ordering};

/// Mesh-length scratch of one run. On top of the serial driver's arrays it
/// carries the reference's six hourglass geometry streams (`8·num_elem`
/// each): this driver keeps `CalcHourglassControlForElems` and
/// `CalcFBHourglassForceForElems` as two barrier-separated loops on
/// purpose, so the geometry has to cross that barrier through memory.
struct Scratch {
    core: SerialScratch,
    dvdx: Vec<Real>,
    dvdy: Vec<Real>,
    dvdz: Vec<Real>,
    x8n: Vec<Real>,
    y8n: Vec<Real>,
    z8n: Vec<Real>,
}

impl Scratch {
    fn new(num_elem: usize) -> Self {
        let g = || vec![0.0; 8 * num_elem];
        Self {
            core: SerialScratch::new(num_elem),
            dvdx: g(),
            dvdy: g(),
            dvdz: g(),
            x8n: g(),
            y8n: g(),
            z8n: g(),
        }
    }
}

/// The fork-join LULESH runner. Owns its thread pool; reusable across runs.
pub struct OmpLulesh {
    pool: Pool,
}

impl OmpLulesh {
    /// Create a runner with `threads` execution threads.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: Pool::new(threads),
        }
    }

    /// Runner with span tracing attached: thread `tid` records each
    /// parallel region on `tracer` lane `lane_base + tid`; the driver's
    /// per-iteration span goes on lane `lane_base + threads`.
    pub fn with_tracer(threads: usize, tracer: std::sync::Arc<Tracer>, lane_base: usize) -> Self {
        Self {
            pool: Pool::with_tracer(threads, tracer, lane_base),
        }
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&std::sync::Arc<Tracer>> {
        self.pool.tracer()
    }

    /// Execution threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Productive-time ratio since the pool's counters were last reset
    /// (Figure 11's OpenMP series).
    pub fn utilization(&self) -> f64 {
        self.pool.utilization_since_reset()
    }

    /// Reset the pool's performance counters.
    pub fn reset_counters(&self) {
        self.pool.reset_counters()
    }

    /// Run `d` for at most `max_cycles` iterations (or to `stoptime`).
    pub fn run(&mut self, d: &Domain, max_cycles: u64) -> Result<SimState, LuleshError> {
        let mut state = SimState::new(d.initial_dt());
        let mut scratch = Scratch::new(d.num_elem());
        let trace = self
            .pool
            .tracer()
            .map(std::sync::Arc::clone)
            .zip(self.pool.trace_lane_base());
        while state.time < d.params.stoptime && state.cycle < max_cycles {
            time_increment(&mut state, &d.params);
            let start = trace.as_ref().map(|(t, _)| t.now_ns());
            self.step(d, &mut scratch, &mut state)?;
            if let (Some((tracer, lane_base)), Some(start)) = (&trace, start) {
                // One region span per leapfrog iteration on the control
                // lane (past the pool's worker lanes).
                tracer.record_interval(
                    lane_base + self.pool.nthreads(),
                    SpanKind::Region,
                    "iteration",
                    start,
                    tracer.now_ns(),
                );
            }
        }
        Ok(state)
    }

    /// One `LagrangeLeapFrog` with the reference's loop/barrier structure.
    fn step(
        &mut self,
        d: &Domain,
        s: &mut Scratch,
        state: &mut SimState,
    ) -> Result<(), LuleshError> {
        let dt = state.deltatime;
        self.lagrange_nodal(d, s, dt)?;
        self.lagrange_elements(d, &mut s.core, dt)?;

        // CalcTimeConstraintsForElems: per-region parallel min reductions.
        let nthreads = self.pool.nthreads();
        let mut dtcourant: Real = 1.0e20;
        let mut dthydro: Real = 1.0e20;
        let mut slots_c: Vec<Option<Real>> = vec![None; nthreads];
        let mut slots_h: Vec<Option<Real>> = vec![None; nthreads];
        for r in 0..d.num_reg() {
            let elems = &d.regions.reg_elem_list[r];
            {
                let vc = SharedSlice::new(&mut slots_c);
                let vh = SharedSlice::new(&mut slots_h);
                self.pool.parallel_region_labeled("constraints", |tid, n| {
                    let c = static_split(elems.len(), n, tid);
                    let sub = &elems[c.begin..c.end];
                    // SAFETY: slot `tid` is written by thread `tid` only.
                    unsafe {
                        vc.write(
                            tid,
                            constraints::calc_courant_constraint_for_elems(d, sub, d.params.qqc),
                        );
                        vh.write(
                            tid,
                            constraints::calc_hydro_constraint_for_elems(d, sub, d.params.dvovmax),
                        );
                    }
                });
            }
            for t in 0..nthreads {
                if let Some(c) = slots_c[t] {
                    dtcourant = dtcourant.min(c);
                }
                if let Some(h) = slots_h[t] {
                    dthydro = dthydro.min(h);
                }
            }
        }
        state.dtcourant = dtcourant;
        state.dthydro = dthydro;
        Ok(())
    }

    fn lagrange_nodal(&mut self, d: &Domain, s: &mut Scratch, dt: Real) -> Result<(), LuleshError> {
        let num_elem = d.num_elem();
        let num_node = d.num_node();
        let failed = AtomicBool::new(false);
        let Scratch {
            core: s,
            dvdx,
            dvdy,
            dvdz,
            x8n,
            y8n,
            z8n,
        } = s;

        // CalcForceForNodes prologue.
        self.pool
            .parallel_for_labeled("stress", num_node, |c| stress::zero_forces(d, c));

        // InitStressTermsForElems + IntegrateStressForElems.
        {
            let sigxx = SharedSlice::new(&mut s.sigxx);
            let sigyy = SharedSlice::new(&mut s.sigyy);
            let sigzz = SharedSlice::new(&mut s.sigzz);
            let determ = SharedSlice::new(&mut s.determ);
            let fx = SharedSlice::new(&mut s.fx_elem);
            let fy = SharedSlice::new(&mut s.fy_elem);
            let fz = SharedSlice::new(&mut s.fz_elem);

            self.pool.parallel_for_labeled("stress", num_elem, |c| {
                // SAFETY: chunks are disjoint per thread.
                unsafe {
                    stress::init_stress_terms_for_elems(
                        d,
                        sigxx.slice_mut(c.begin, c.end),
                        sigyy.slice_mut(c.begin, c.end),
                        sigzz.slice_mut(c.begin, c.end),
                        c,
                    );
                }
            });
            self.pool.parallel_for_labeled("stress", num_elem, |c| {
                // SAFETY: disjoint chunks; sig* written in the previous loop
                // (barrier passed), read-only here.
                unsafe {
                    stress::integrate_stress_for_elems(
                        d,
                        sigxx.slice(c.begin, c.end),
                        sigyy.slice(c.begin, c.end),
                        sigzz.slice(c.begin, c.end),
                        determ.slice_mut(c.begin, c.end),
                        fx.slice_mut(8 * c.begin, 8 * c.end),
                        fy.slice_mut(8 * c.begin, 8 * c.end),
                        fz.slice_mut(8 * c.begin, 8 * c.end),
                        c,
                    );
                }
            });
            self.pool.parallel_for_labeled("stress", num_elem, |c| {
                // SAFETY: determ complete (barrier), read-only.
                let sub = unsafe { determ.slice(c.begin, c.end) };
                if stress::check_volume_error(sub).is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
            });
            if failed.load(Ordering::Relaxed) {
                return Err(LuleshError::VolumeError);
            }
            self.pool
                .parallel_for_labeled("node-gather", num_node, |c| {
                    // SAFETY: f*_elem complete (barrier), read-only.
                    unsafe {
                        stress::gather_forces_set(
                            d,
                            fx.slice(0, 8 * num_elem),
                            fy.slice(0, 8 * num_elem),
                            fz.slice(0, 8 * num_elem),
                            c,
                        );
                    }
                });
        }

        // CalcHourglassControlForElems + CalcFBHourglassForceForElems.
        {
            let dvdx = SharedSlice::new(dvdx);
            let dvdy = SharedSlice::new(dvdy);
            let dvdz = SharedSlice::new(dvdz);
            let x8n = SharedSlice::new(x8n);
            let y8n = SharedSlice::new(y8n);
            let z8n = SharedSlice::new(z8n);
            let determ = SharedSlice::new(&mut s.determ);
            let fx = SharedSlice::new(&mut s.fx_hg);
            let fy = SharedSlice::new(&mut s.fy_hg);
            let fz = SharedSlice::new(&mut s.fz_hg);

            self.pool.parallel_for_labeled("hourglass", num_elem, |c| {
                // SAFETY: disjoint chunks.
                let r = unsafe {
                    hourglass::calc_hourglass_control_for_elems(
                        d,
                        dvdx.slice_mut(8 * c.begin, 8 * c.end),
                        dvdy.slice_mut(8 * c.begin, 8 * c.end),
                        dvdz.slice_mut(8 * c.begin, 8 * c.end),
                        x8n.slice_mut(8 * c.begin, 8 * c.end),
                        y8n.slice_mut(8 * c.begin, 8 * c.end),
                        z8n.slice_mut(8 * c.begin, 8 * c.end),
                        determ.slice_mut(c.begin, c.end),
                        c,
                    )
                };
                if r.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
            });
            if failed.load(Ordering::Relaxed) {
                return Err(LuleshError::VolumeError);
            }

            if d.params.hgcoef > 0.0 {
                self.pool.parallel_for_labeled("hourglass", num_elem, |c| {
                    // SAFETY: geometry arrays complete (barrier), read-only;
                    // force chunks disjoint.
                    unsafe {
                        hourglass::calc_fb_hourglass_force_for_elems(
                            d,
                            determ.slice(c.begin, c.end),
                            x8n.slice(8 * c.begin, 8 * c.end),
                            y8n.slice(8 * c.begin, 8 * c.end),
                            z8n.slice(8 * c.begin, 8 * c.end),
                            dvdx.slice(8 * c.begin, 8 * c.end),
                            dvdy.slice(8 * c.begin, 8 * c.end),
                            dvdz.slice(8 * c.begin, 8 * c.end),
                            d.params.hgcoef,
                            fx.slice_mut(8 * c.begin, 8 * c.end),
                            fy.slice_mut(8 * c.begin, 8 * c.end),
                            fz.slice_mut(8 * c.begin, 8 * c.end),
                            c,
                        );
                    }
                });
                self.pool
                    .parallel_for_labeled("node-gather", num_node, |c| {
                        // SAFETY: hg forces complete (barrier), read-only.
                        unsafe {
                            stress::gather_forces_add(
                                d,
                                fx.slice(0, 8 * num_elem),
                                fy.slice(0, 8 * num_elem),
                                fz.slice(0, 8 * num_elem),
                                c,
                            );
                        }
                    });
            }
        }

        // Node state advance: four loops, four barriers.
        self.pool.parallel_for_labeled("node", num_node, |c| {
            nodal::calc_acceleration_for_nodes(d, c)
        });
        self.pool
            .parallel_for_labeled("node", nodal::symm_list_len(d), |c| {
                nodal::apply_acceleration_boundary_conditions(d, c)
            });
        let u_cut = d.params.u_cut;
        self.pool.parallel_for_labeled("node", num_node, |c| {
            nodal::calc_velocity_for_nodes(d, dt, u_cut, c)
        });
        self.pool.parallel_for_labeled("node", num_node, |c| {
            nodal::calc_position_for_nodes(d, dt, c)
        });
        Ok(())
    }

    fn lagrange_elements(
        &mut self,
        d: &Domain,
        s: &mut SerialScratch,
        dt: Real,
    ) -> Result<(), LuleshError> {
        let num_elem = d.num_elem();
        let p = d.params;
        let failed = AtomicBool::new(false);

        // CalcLagrangeElements.
        self.pool.parallel_for_labeled("kinematics", num_elem, |c| {
            kinematics::calc_kinematics_for_elems(d, dt, c)
        });
        self.pool.parallel_for_labeled("kinematics", num_elem, |c| {
            if kinematics::calc_lagrange_elements_finish(d, c).is_err() {
                failed.store(true, Ordering::Relaxed);
            }
        });
        if failed.load(Ordering::Relaxed) {
            return Err(LuleshError::VolumeError);
        }

        // CalcQForElems.
        self.pool.parallel_for_labeled("kinematics", num_elem, |c| {
            monoq::calc_monotonic_q_gradients_for_elems(d, c)
        });
        for r in 0..d.num_reg() {
            let elems = &d.regions.reg_elem_list[r];
            self.pool.parallel_for_labeled("monoq", elems.len(), |c| {
                monoq::calc_monotonic_q_region_for_elems(d, &elems[c.begin..c.end], &p);
            });
        }
        self.pool.parallel_for_labeled("qstop", num_elem, |c| {
            if monoq::check_q_stop(d, p.qstop, c).is_err() {
                failed.store(true, Ordering::Relaxed);
            }
        });
        if failed.load(Ordering::Relaxed) {
            return Err(LuleshError::QStopError);
        }

        // ApplyMaterialPropertiesForElems.
        {
            let vnewc = SharedSlice::new(&mut s.vnewc);
            self.pool.parallel_for_labeled("vnewc", num_elem, |c| {
                // SAFETY: disjoint chunks.
                unsafe {
                    eos::fill_vnewc_clamped(
                        d,
                        vnewc.slice_mut(c.begin, c.end),
                        p.eosvmin,
                        p.eosvmax,
                        c,
                    );
                }
            });
            self.pool.parallel_for_labeled("vnewc", num_elem, |c| {
                if eos::check_eos_volume_bounds(d, p.eosvmin, p.eosvmax, c).is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
            });
            if failed.load(Ordering::Relaxed) {
                return Err(LuleshError::VolumeError);
            }
        }

        for r in 0..d.num_reg() {
            let rep = d.regions.rep(r);
            self.eval_eos_region(d, s, r, rep)?;
        }

        // UpdateVolumesForElems.
        self.pool.parallel_for_labeled("volume", num_elem, |c| {
            kinematics::update_volumes_for_elems(d, p.v_cut, c)
        });
        Ok(())
    }

    /// `EvalEOSForElems` with one parallel loop (and barrier) per internal
    /// step, like the reference.
    fn eval_eos_region(
        &mut self,
        d: &Domain,
        s: &mut SerialScratch,
        region: usize,
        rep: usize,
    ) -> Result<(), LuleshError> {
        let p = d.params;
        let rho0 = p.refdens;
        let elems: &[Index] = &d.regions.reg_elem_list[region];
        let len = elems.len();
        s.eos.resize(len);
        let vnewc_full: &[Real] = &s.vnewc;

        // Shared views over the region-length scratch. SAFETY throughout:
        // each chunk of the region-length arrays is touched by exactly one
        // thread per loop, and loops are barrier-separated.
        let e_old = SharedSlice::new(&mut s.eos.e_old);
        let delvc = SharedSlice::new(&mut s.eos.delvc);
        let p_old = SharedSlice::new(&mut s.eos.p_old);
        let q_old = SharedSlice::new(&mut s.eos.q_old);
        let qq_old = SharedSlice::new(&mut s.eos.qq_old);
        let ql_old = SharedSlice::new(&mut s.eos.ql_old);
        let compression = SharedSlice::new(&mut s.eos.compression);
        let comp_half_step = SharedSlice::new(&mut s.eos.comp_half_step);
        let work = SharedSlice::new(&mut s.eos.work);
        let p_new = SharedSlice::new(&mut s.eos.p_new);
        let e_new = SharedSlice::new(&mut s.eos.e_new);
        let q_new = SharedSlice::new(&mut s.eos.q_new);
        let bvc = SharedSlice::new(&mut s.eos.bvc);
        let pbvc = SharedSlice::new(&mut s.eos.pbvc);
        let p_half_step = SharedSlice::new(&mut s.eos.p_half_step);

        for _ in 0..rep {
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::eos_gather(
                        d,
                        &elems[c.begin..c.end],
                        e_old.slice_mut(c.begin, c.end),
                        delvc.slice_mut(c.begin, c.end),
                        p_old.slice_mut(c.begin, c.end),
                        q_old.slice_mut(c.begin, c.end),
                        qq_old.slice_mut(c.begin, c.end),
                        ql_old.slice_mut(c.begin, c.end),
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::eos_compression(
                        &elems[c.begin..c.end],
                        vnewc_full,
                        delvc.slice(c.begin, c.end),
                        compression.slice_mut(c.begin, c.end),
                        comp_half_step.slice_mut(c.begin, c.end),
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::eos_clamp_compression(
                        &elems[c.begin..c.end],
                        vnewc_full,
                        p.eosvmin,
                        p.eosvmax,
                        compression.slice_mut(c.begin, c.end),
                        comp_half_step.slice_mut(c.begin, c.end),
                        p_old.slice_mut(c.begin, c.end),
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    work.slice_mut(c.begin, c.end).fill(0.0);
                });

            // CalcEnergyForElems, one parallel loop per step.
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::energy_step1(
                        e_new.slice_mut(c.begin, c.end),
                        e_old.slice(c.begin, c.end),
                        delvc.slice(c.begin, c.end),
                        p_old.slice(c.begin, c.end),
                        q_old.slice(c.begin, c.end),
                        work.slice(c.begin, c.end),
                        p.emin,
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::calc_pressure_for_elems(
                        p_half_step.slice_mut(c.begin, c.end),
                        bvc.slice_mut(c.begin, c.end),
                        pbvc.slice_mut(c.begin, c.end),
                        e_new.slice(c.begin, c.end),
                        comp_half_step.slice(c.begin, c.end),
                        vnewc_full,
                        &elems[c.begin..c.end],
                        p.pmin,
                        p.p_cut,
                        p.eosvmax,
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::energy_step2(
                        e_new.slice_mut(c.begin, c.end),
                        q_new.slice_mut(c.begin, c.end),
                        comp_half_step.slice(c.begin, c.end),
                        p_half_step.slice(c.begin, c.end),
                        bvc.slice(c.begin, c.end),
                        pbvc.slice(c.begin, c.end),
                        delvc.slice(c.begin, c.end),
                        p_old.slice(c.begin, c.end),
                        q_old.slice(c.begin, c.end),
                        ql_old.slice(c.begin, c.end),
                        qq_old.slice(c.begin, c.end),
                        rho0,
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::energy_step3(
                        e_new.slice_mut(c.begin, c.end),
                        work.slice(c.begin, c.end),
                        p.e_cut,
                        p.emin,
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::calc_pressure_for_elems(
                        p_new.slice_mut(c.begin, c.end),
                        bvc.slice_mut(c.begin, c.end),
                        pbvc.slice_mut(c.begin, c.end),
                        e_new.slice(c.begin, c.end),
                        compression.slice(c.begin, c.end),
                        vnewc_full,
                        &elems[c.begin..c.end],
                        p.pmin,
                        p.p_cut,
                        p.eosvmax,
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::energy_step4(
                        e_new.slice_mut(c.begin, c.end),
                        delvc.slice(c.begin, c.end),
                        p_old.slice(c.begin, c.end),
                        q_old.slice(c.begin, c.end),
                        p_half_step.slice(c.begin, c.end),
                        q_new.slice(c.begin, c.end),
                        p_new.slice(c.begin, c.end),
                        bvc.slice(c.begin, c.end),
                        pbvc.slice(c.begin, c.end),
                        ql_old.slice(c.begin, c.end),
                        qq_old.slice(c.begin, c.end),
                        vnewc_full,
                        &elems[c.begin..c.end],
                        rho0,
                        p.e_cut,
                        p.emin,
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::calc_pressure_for_elems(
                        p_new.slice_mut(c.begin, c.end),
                        bvc.slice_mut(c.begin, c.end),
                        pbvc.slice_mut(c.begin, c.end),
                        e_new.slice(c.begin, c.end),
                        compression.slice(c.begin, c.end),
                        vnewc_full,
                        &elems[c.begin..c.end],
                        p.pmin,
                        p.p_cut,
                        p.eosvmax,
                    );
                });
            self.pool
                .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                    eos::energy_step5(
                        q_new.slice_mut(c.begin, c.end),
                        delvc.slice(c.begin, c.end),
                        pbvc.slice(c.begin, c.end),
                        e_new.slice(c.begin, c.end),
                        vnewc_full,
                        &elems[c.begin..c.end],
                        bvc.slice(c.begin, c.end),
                        p_new.slice(c.begin, c.end),
                        ql_old.slice(c.begin, c.end),
                        qq_old.slice(c.begin, c.end),
                        rho0,
                        p.q_cut,
                    );
                });
        }

        self.pool
            .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                eos::eos_store(
                    d,
                    &elems[c.begin..c.end],
                    p_new.slice(c.begin, c.end),
                    e_new.slice(c.begin, c.end),
                    q_new.slice(c.begin, c.end),
                );
            });
        self.pool
            .parallel_for_labeled("eos", len, |c: Chunk| unsafe {
                eos::calc_sound_speed_for_elems(
                    d,
                    vnewc_full,
                    rho0,
                    e_new.slice(c.begin, c.end),
                    p_new.slice(c.begin, c.end),
                    pbvc.slice(c.begin, c.end),
                    bvc.slice(c.begin, c.end),
                    &elems[c.begin..c.end],
                );
            });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lulesh_core::serial;
    use lulesh_core::validate::max_field_difference;

    fn run_pair(size: usize, regs: usize, threads: usize, cycles: u64) -> (Domain, Domain) {
        let ds = Domain::build(size, regs, 1, 1, 0);
        let dp = Domain::build(size, regs, 1, 1, 0);
        serial::run(&ds, cycles).unwrap();
        let mut omp = OmpLulesh::new(threads);
        omp.run(&dp, cycles).unwrap();
        (ds, dp)
    }

    #[test]
    fn matches_serial_single_thread() {
        let (ds, dp) = run_pair(6, 3, 1, 10);
        assert_eq!(max_field_difference(&ds, &dp), 0.0);
    }

    #[test]
    fn matches_serial_multi_thread() {
        let (ds, dp) = run_pair(6, 3, 4, 10);
        assert_eq!(
            max_field_difference(&ds, &dp),
            0.0,
            "bitwise agreement expected"
        );
    }

    #[test]
    fn matches_serial_many_regions_odd_threads() {
        let (ds, dp) = run_pair(5, 7, 3, 8);
        assert_eq!(max_field_difference(&ds, &dp), 0.0);
    }

    #[test]
    fn iteration_counts_agree() {
        let ds = Domain::build(5, 2, 1, 1, 0);
        let dp = Domain::build(5, 2, 1, 1, 0);
        let st_s = serial::run(&ds, 1_000_000).unwrap();
        let mut omp = OmpLulesh::new(2);
        let st_p = omp.run(&dp, 1_000_000).unwrap();
        assert_eq!(st_s.cycle, st_p.cycle);
        assert_eq!(st_s.time, st_p.time);
        assert_eq!(st_s.deltatime, st_p.deltatime);
    }

    #[test]
    fn utilization_reported() {
        let d = Domain::build(5, 2, 1, 1, 0);
        let mut omp = OmpLulesh::new(2);
        omp.reset_counters();
        omp.run(&d, 5).unwrap();
        let u = omp.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn traced_run_emits_phase_spans_and_identical_results() {
        let iterations = 3u64;
        let threads = 2usize;
        let ds = Domain::build(5, 2, 1, 1, 0);
        serial::run(&ds, iterations).unwrap();

        let tracer = Tracer::shared(threads + 1);
        let dp = Domain::build(5, 2, 1, 1, 0);
        let mut omp = OmpLulesh::with_tracer(threads, std::sync::Arc::clone(&tracer), 0);
        omp.run(&dp, iterations).unwrap();
        assert_eq!(
            max_field_difference(&ds, &dp),
            0.0,
            "tracing must not perturb physics"
        );

        let spans = tracer.drain();
        let iter_spans = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Region && s.label == "iteration")
            .count();
        assert_eq!(iter_spans as u64, iterations);
        // Every kernel phase shows up, and each loop produced one span per
        // participating thread.
        for phase in [
            "stress",
            "hourglass",
            "node",
            "kinematics",
            "eos",
            "constraints",
        ] {
            let n = spans
                .iter()
                .filter(|s| s.kind == SpanKind::Region && s.label == phase)
                .count();
            assert!(n >= threads, "phase {phase} missing from trace ({n} spans)");
        }
    }
}
