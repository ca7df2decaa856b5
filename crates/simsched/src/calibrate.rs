//! Cost-model calibration: time the repository's real serial kernels on a
//! mid-blast state and derive ns-per-item coefficients for [`CostModel`].
//!
//! Run via `cargo run --release -p lulesh-bench -- calibrate`. Use a
//! release build — debug-build coefficients are ~20× larger and would skew
//! the kernel *ratios* (bounds checks hit the cheap kernels hardest).

use crate::costmodel::CostModel;
use lulesh_core::domain::Domain;
use lulesh_core::kernels::{constraints, eos, hourglass, kinematics, monoq, nodal, stress};
use lulesh_core::params::SimState;
use lulesh_core::timestep::time_increment;
use lulesh_core::Real;
use parutil::Chunk;
use std::time::Instant;

/// ns spent in `f` as f64.
fn clock<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_nanos() as f64, r)
}

/// Measure all kernel coefficients at problem size `size`, after running
/// `warmup` iterations to reach a representative mid-blast state, averaging
/// over `iters` instrumented iterations.
pub fn measure(size: usize, warmup: u64, iters: u64) -> CostModel {
    let d = Domain::build(size, 11, 1, 1, 0);
    let mut state = SimState::new(d.initial_dt());

    // Warm up with the plain serial driver.
    let mut serial_scratch = lulesh_core::serial::SerialScratch::new(d.num_elem());
    while state.cycle < warmup {
        time_increment(&mut state, &d.params);
        lulesh_core::serial::lagrange_leap_frog(&d, &mut serial_scratch, &mut state)
            .expect("warmup must be stable");
    }

    let ne = d.num_elem();
    let nn = d.num_node();
    let elems = Chunk { begin: 0, end: ne };
    let nodes = Chunk { begin: 0, end: nn };
    let p = d.params;

    // Accumulators (ns) and item counts.
    let mut acc = CostModel {
        zero_forces: 0.0,
        init_stress: 0.0,
        integrate_stress: 0.0,
        volume_check: 0.0,
        gather_set: 0.0,
        hg_control: 0.0,
        hg_fb: 0.0,
        gather_add: 0.0,
        accel: 0.0,
        accel_bc: 0.0,
        velocity: 0.0,
        position: 0.0,
        kinematics: 0.0,
        lagrange_finish: 0.0,
        monoq_gradients: 0.0,
        monoq_region: 0.0,
        qstop_check: 0.0,
        vnewc_fill: 0.0,
        vnewc_check: 0.0,
        eos_per_rep: 0.0,
        eos_finish: 0.0,
        update_volumes: 0.0,
        constraints: 0.0,
    };
    let mut reg_items = 0f64;
    let mut rep_items = 0f64;

    let mut sigxx = vec![0.0; ne];
    let mut sigyy = vec![0.0; ne];
    let mut sigzz = vec![0.0; ne];
    let mut determ = vec![0.0; ne];
    let mut fx_e = vec![0.0; 8 * ne];
    let mut fy_e = vec![0.0; 8 * ne];
    let mut fz_e = vec![0.0; 8 * ne];
    let mut fx_h = vec![0.0; 8 * ne];
    let mut fy_h = vec![0.0; 8 * ne];
    let mut fz_h = vec![0.0; 8 * ne];
    let mut dvdx = vec![0.0; 8 * ne];
    let mut dvdy = vec![0.0; 8 * ne];
    let mut dvdz = vec![0.0; 8 * ne];
    let mut x8n = vec![0.0; 8 * ne];
    let mut y8n = vec![0.0; 8 * ne];
    let mut z8n = vec![0.0; 8 * ne];
    let mut vnewc: Vec<Real> = vec![0.0; ne];
    let mut es = eos::EosScratch::default();

    for _ in 0..iters {
        time_increment(&mut state, &d.params);
        let dt = state.deltatime;

        // --- LagrangeNodal, instrumented ---
        acc.zero_forces += clock(|| stress::zero_forces(&d, nodes)).0;
        acc.init_stress += clock(|| {
            stress::init_stress_terms_for_elems(&d, &mut sigxx, &mut sigyy, &mut sigzz, elems)
        })
        .0;
        acc.integrate_stress += clock(|| {
            stress::integrate_stress_for_elems(
                &d,
                &sigxx,
                &sigyy,
                &sigzz,
                &mut determ,
                &mut fx_e,
                &mut fy_e,
                &mut fz_e,
                elems,
            )
        })
        .0;
        let (t, r) = clock(|| stress::check_volume_error(&determ));
        acc.volume_check += t;
        r.expect("stable state");
        acc.gather_set += clock(|| stress::gather_forces_set(&d, &fx_e, &fy_e, &fz_e, nodes)).0;

        let (t, r) = clock(|| {
            hourglass::calc_hourglass_control_for_elems(
                &d,
                &mut dvdx,
                &mut dvdy,
                &mut dvdz,
                &mut x8n,
                &mut y8n,
                &mut z8n,
                &mut determ,
                elems,
            )
        });
        acc.hg_control += t;
        r.expect("stable state");
        acc.hg_fb += clock(|| {
            hourglass::calc_fb_hourglass_force_for_elems(
                &d, &determ, &x8n, &y8n, &z8n, &dvdx, &dvdy, &dvdz, p.hgcoef, &mut fx_h, &mut fy_h,
                &mut fz_h, elems,
            )
        })
        .0;
        acc.gather_add += clock(|| stress::gather_forces_add(&d, &fx_h, &fy_h, &fz_h, nodes)).0;

        acc.accel += clock(|| nodal::calc_acceleration_for_nodes(&d, nodes)).0;
        acc.accel_bc += clock(|| {
            nodal::apply_acceleration_boundary_conditions(
                &d,
                Chunk {
                    begin: 0,
                    end: d.m_symm_x.len(),
                },
            )
        })
        .0;
        acc.velocity += clock(|| nodal::calc_velocity_for_nodes(&d, dt, p.u_cut, nodes)).0;
        acc.position += clock(|| nodal::calc_position_for_nodes(&d, dt, nodes)).0;

        // --- LagrangeElements, instrumented ---
        acc.kinematics += clock(|| kinematics::calc_kinematics_for_elems(&d, dt, elems)).0;
        let (t, r) = clock(|| kinematics::calc_lagrange_elements_finish(&d, elems));
        acc.lagrange_finish += t;
        r.expect("stable state");
        acc.monoq_gradients += clock(|| monoq::calc_monotonic_q_gradients_for_elems(&d, elems)).0;
        for r in 0..d.num_reg() {
            let list = &d.regions.reg_elem_list[r];
            acc.monoq_region += clock(|| monoq::calc_monotonic_q_region_for_elems(&d, list, &p)).0;
            reg_items += list.len() as f64;
        }
        let (t, r) = clock(|| monoq::check_q_stop(&d, p.qstop, elems));
        acc.qstop_check += t;
        r.expect("stable state");

        acc.vnewc_fill +=
            clock(|| eos::fill_vnewc_clamped(&d, &mut vnewc, p.eosvmin, p.eosvmax, elems)).0;
        let (t, r) = clock(|| eos::check_eos_volume_bounds(&d, p.eosvmin, p.eosvmax, elems));
        acc.vnewc_check += t;
        r.expect("stable state");

        for r in 0..d.num_reg() {
            let list = d.regions.reg_elem_list[r].clone();
            let rep = d.regions.rep(r);
            es.resize(list.len());
            // Time the rep loop (gathers + compressions + energy ladder)...
            let (t_rep, ()) = clock(|| {
                for _ in 0..rep {
                    eos::eos_gather(
                        &d,
                        &list,
                        &mut es.e_old,
                        &mut es.delvc,
                        &mut es.p_old,
                        &mut es.q_old,
                        &mut es.qq_old,
                        &mut es.ql_old,
                    );
                    eos::eos_compression(
                        &list,
                        &vnewc,
                        &es.delvc,
                        &mut es.compression,
                        &mut es.comp_half_step,
                    );
                    eos::eos_clamp_compression(
                        &list,
                        &vnewc,
                        p.eosvmin,
                        p.eosvmax,
                        &mut es.compression,
                        &mut es.comp_half_step,
                        &mut es.p_old,
                    );
                    es.work.fill(0.0);
                    eos::calc_energy_for_elems(&mut es, &vnewc, &list, &p, p.refdens);
                }
            });
            acc.eos_per_rep += t_rep;
            rep_items += (list.len() * rep) as f64;
            // ... and the epilogue separately.
            let (t_fin, ()) = clock(|| {
                eos::eos_store(&d, &list, &es.p_new, &es.e_new, &es.q_new);
                eos::calc_sound_speed_for_elems(
                    &d, &vnewc, p.refdens, &es.e_new, &es.p_new, &es.pbvc, &es.bvc, &list,
                );
            });
            acc.eos_finish += t_fin;
        }

        acc.update_volumes += clock(|| kinematics::update_volumes_for_elems(&d, p.v_cut, elems)).0;

        let mut dtc: Real = 1.0e20;
        let mut dth: Real = 1.0e20;
        for r in 0..d.num_reg() {
            let list = &d.regions.reg_elem_list[r];
            let (t, (c, h)) = clock(|| {
                (
                    constraints::calc_courant_constraint_for_elems(&d, list, p.qqc),
                    constraints::calc_hydro_constraint_for_elems(&d, list, p.dvovmax),
                )
            });
            acc.constraints += t;
            if let Some(c) = c {
                dtc = dtc.min(c);
            }
            if let Some(h) = h {
                dth = dth.min(h);
            }
        }
        state.dtcourant = dtc;
        state.dthydro = dth;
    }

    let it = iters as f64;
    let ne_f = ne as f64 * it;
    let nn_f = nn as f64 * it;
    let bc_f = d.m_symm_x.len() as f64 * it;

    CostModel {
        zero_forces: acc.zero_forces / nn_f,
        init_stress: acc.init_stress / ne_f,
        integrate_stress: acc.integrate_stress / ne_f,
        volume_check: acc.volume_check / ne_f,
        gather_set: acc.gather_set / nn_f,
        hg_control: acc.hg_control / ne_f,
        hg_fb: acc.hg_fb / ne_f,
        gather_add: acc.gather_add / nn_f,
        accel: acc.accel / nn_f,
        accel_bc: acc.accel_bc / bc_f,
        velocity: acc.velocity / nn_f,
        position: acc.position / nn_f,
        kinematics: acc.kinematics / ne_f,
        lagrange_finish: acc.lagrange_finish / ne_f,
        monoq_gradients: acc.monoq_gradients / ne_f,
        monoq_region: acc.monoq_region / reg_items.max(1.0),
        qstop_check: acc.qstop_check / ne_f,
        vnewc_fill: acc.vnewc_fill / ne_f,
        vnewc_check: acc.vnewc_check / ne_f,
        eos_per_rep: acc.eos_per_rep / rep_items.max(1.0),
        eos_finish: acc.eos_finish / reg_items.max(1.0),
        update_volumes: acc.update_volumes / ne_f,
        constraints: acc.constraints / reg_items.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_positive_coefficients() {
        // Tiny problem, debug build: absolute values are meaningless here;
        // just verify the machinery runs and yields sane numbers.
        let m = measure(6, 2, 2);
        assert!(m.integrate_stress > 0.0);
        assert!(m.kinematics > 0.0);
        assert!(m.eos_per_rep > 0.0);
        assert!(m.gather_set > 0.0);
        // The heavy per-element kernels must dwarf the trivial scans.
        assert!(m.integrate_stress > m.volume_check);
        assert!(m.kinematics > m.update_volumes);
    }
}
