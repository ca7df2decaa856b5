//! `core`: the serial leapfrog stepped from outside through its five
//! public phase functions, and the four lane-ported kernels through
//! their public dispatchers.

use crate::stats::{best, median, tail_percentile};
use crate::Ctx;
use lulesh_core::kernels::{constraints, eos, hourglass, monoq, stress};
use lulesh_core::serial::{self, SerialScratch};
use lulesh_core::simd::{self, LaneWidth};
use lulesh_core::timestep::time_increment;
use lulesh_core::{Domain, SimState};
use parutil::Chunk;
use std::time::Instant;

/// Iterations stepped before the measured ones.
const WARM_UP: usize = 20;
/// Measured iterations wanted (p90 needs 100 samples).
const MEASURED: usize = 100;
/// Iterations of the plain `serial::run` the stepped loop is compared to.
const PLAIN_MAX: u64 = 20;
/// Stepped/plain pairs behind `derived.trace_overhead_frac`.
const OVERHEAD_PAIRS: usize = 3;

/// The five leaf spans of one iteration and the metric each feeds.
const PHASES: [(&str, &str); 5] = [
    ("core.force", "core.force_us_per_iter"),
    ("core.advance_nodes", "core.advance_nodes_us_per_iter"),
    ("core.kinematics", "core.kinematics_us_per_iter"),
    ("core.q_materials", "core.q_materials_us_per_iter"),
    ("core.constraints", "core.constraints_us_per_iter"),
];

pub fn section(ctx: &mut Ctx) -> Result<(), String> {
    stepped_leapfrog(ctx)?;
    trace_overhead(ctx)?;
    kernel_rates(ctx);
    let builds = ctx.spans.durations("core.domain_build");
    let build_ms = median(&builds).ok_or("no domain was built")? / 1e6;
    ctx.metric("core.domain_build_ms", build_ms, Some(builds.len()));
    // Σ region size × rep: the EOS work this seed's region assignment asks
    // for. Equal across the runner's seed table by construction.
    let c = &ctx.cfg;
    let work = crate::vet::region_work(c.size, c.regions, c.balance, c.cost, 1, c.seed);
    ctx.metric("core.eos_work_units", work.total, None);
    Ok(())
}

/// Step `d` through `serial`'s public phase functions for `iters`
/// iterations (or to the stop time): one `core.iter` span per iteration,
/// one leaf span per phase. This is `serial::lagrange_leap_frog` spelled
/// out, so the physics must match `serial::run` bit for bit.
fn step(ctx: &mut Ctx, d: &Domain, iters: u64) -> Result<SimState, String> {
    let mut state = SimState::new(d.initial_dt());
    let mut scratch = SerialScratch::new(d.num_elem());
    let err = |e| format!("stepped leapfrog failed: {e}");
    while state.time < d.params.stoptime && state.cycle < iters {
        let it = ctx.spans.open("core.iter");
        time_increment(&mut state, &d.params);
        let dt = state.deltatime;
        ctx.spans
            .time("core.force", || {
                serial::calc_force_for_nodes(d, &mut scratch)
            })
            .0
            .map_err(err)?;
        ctx.spans
            .time("core.advance_nodes", || serial::advance_nodes(d, dt));
        ctx.spans
            .time("core.kinematics", || {
                serial::calc_kinematics_and_gradients(d, dt)
            })
            .0
            .map_err(err)?;
        ctx.spans
            .time("core.q_materials", || {
                serial::apply_q_and_materials(d, &mut scratch)
            })
            .0
            .map_err(err)?;
        let ((courant, hydro), _) = ctx.spans.time("core.constraints", || {
            constraints::calc_time_constraints(d, d.params.qqc, d.params.dvovmax)
        });
        state.dtcourant = courant;
        state.dthydro = hydro;
        ctx.spans.close(it);
    }
    Ok(state)
}

/// The per-iteration and per-phase timings of the serial leapfrog.
fn stepped_leapfrog(ctx: &mut Ctx) -> Result<(), String> {
    let d = ctx.timed_domain();
    step(ctx, &d, (WARM_UP + MEASURED) as u64)?;

    let skip = |v: Vec<f64>| -> Vec<f64> { v.into_iter().skip(WARM_UP).collect() };
    let iters = skip(ctx.spans.durations("core.iter"));
    let n = iters.len();
    let p90 = tail_percentile(&iters, 90).ok_or_else(|| {
        format!("{n} iterations after warm-up, p90 needs {MEASURED}: the workload stops too early")
    })?;
    let mean_us = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64 / 1e3;
    let iter_us = mean_us(&iters);
    ctx.metric("core.iter_us", iter_us, Some(n));
    ctx.metric(
        "core.iter_us_best",
        best(&iters).expect("non-empty") / 1e3,
        Some(n),
    );
    let med = median(&iters).expect("non-empty");
    ctx.metric("core.iter_us_median", med / 1e3, Some(n));
    ctx.metric("core.iter_us_p90", p90 / 1e3, Some(n));
    let mut leaf_sum = 0.0;
    for (span, metric) in PHASES {
        let us = mean_us(&skip(ctx.spans.durations(span)));
        leaf_sum += us;
        ctx.metric(metric, us, Some(n));
    }
    // Attribution without gaps: the five leaves cover the iteration.
    let gap = (iter_us - leaf_sum).abs() / iter_us;
    if gap > 0.02 {
        return Err(format!(
            "phase spans sum to {leaf_sum:.1} us but core.iter_us is {iter_us:.1} us ({:.1}% apart)",
            gap * 100.0
        ));
    }
    ctx.serial_iter_s = Some(med / 1e9);
    Ok(())
}

/// `derived.trace_overhead_frac`: the stepped, span-wrapped loop against
/// plain `serial::run` on the same inputs and iterations, as alternating
/// pairs on fresh domains. The median of the per-pair ratios is reported:
/// the host's speed changes by tens of percent within seconds, and only
/// the two halves of one pair see the same host. Each pair must also
/// agree on the physics bit for bit.
fn trace_overhead(ctx: &mut Ctx) -> Result<(), String> {
    let n = PLAIN_MAX.min(ctx.cfg.iterations);
    let (mut stepped, mut plain) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        let (ds, dp) = (ctx.timed_domain(), ctx.timed_domain());
        for stepped_now in [pair % 2 == 0, pair % 2 != 0] {
            if stepped_now {
                let id = ctx.spans.open("core.stepped_run");
                let state = step(ctx, &ds, n)?;
                stepped.push(ctx.spans.close(id) as f64);
                if state.cycle != n {
                    return Err(format!("stepped run stopped at {} of {n}", state.cycle));
                }
            } else {
                let (state, ns) = ctx.spans.time("core.serial_run", || serial::run(&dp, n));
                let state = state.map_err(|e| format!("serial::run failed: {e}"))?;
                plain.push(ns as f64);
                if state.cycle != n {
                    return Err(format!("serial::run stopped at {} of {n}", state.cycle));
                }
            }
        }
        if ds.e(0).to_bits() != dp.e(0).to_bits() {
            return Err(format!(
                "stepped leapfrog and serial::run disagree after {n} iterations: {:e} vs {:e}",
                ds.e(0),
                dp.e(0)
            ));
        }
        // A block of the workload is exactly this run when it is short
        // enough: check the pinned energy the way the runner does.
        if n == ctx.cfg.iterations {
            let printed = format!("{:.6e}", lulesh_core::validate::final_origin_energy(&dp));
            if printed != ctx.cfg.energy {
                return Err(format!(
                    "final origin energy {printed}, pinned {}",
                    ctx.cfg.energy
                ));
            }
        }
    }
    let ratios: Vec<f64> = stepped.iter().zip(&plain).map(|(s, p)| s / p).collect();
    ctx.metric(
        "derived.trace_overhead_frac",
        median(&ratios).expect("OVERHEAD_PAIRS > 0") - 1.0,
        Some(OVERHEAD_PAIRS),
    );
    Ok(())
}

/// Kernel micro-rates on a mid-blast s24 domain, scalar against 8 lanes,
/// through the same public dispatchers the drivers call (only the active
/// lane width changes). Best of [`REPS`] batches of [`PASSES`] calls.
fn kernel_rates(ctx: &mut Ctx) {
    const SIZE: usize = 24;
    const PASSES: usize = 8;
    const REPS: usize = 3;
    let prior = simd::active();
    simd::set_active(LaneWidth::W1);
    let d = Domain::build(SIZE, 4, 1, 1, 0);
    serial::run(&d, 30).expect("30 iterations of s24 are stable");
    let ne = d.num_elem();
    let elems = Chunk { begin: 0, end: ne };

    let (mut sigxx, mut sigyy, mut sigzz) = (vec![0.0; ne], vec![0.0; ne], vec![0.0; ne]);
    stress::init_stress_terms_for_elems(&d, &mut sigxx, &mut sigyy, &mut sigzz, elems);
    let mut s_determ = vec![0.0; ne];
    let (mut s_fx, mut s_fy, mut s_fz) = (vec![0.0; 8 * ne], vec![0.0; 8 * ne], vec![0.0; 8 * ne]);

    let (mut dvdx, mut dvdy, mut dvdz) = (vec![0.0; 8 * ne], vec![0.0; 8 * ne], vec![0.0; 8 * ne]);
    let (mut x8n, mut y8n, mut z8n) = (vec![0.0; 8 * ne], vec![0.0; 8 * ne], vec![0.0; 8 * ne]);
    let mut h_determ = vec![0.0; ne];
    hourglass::calc_hourglass_control_for_elems(
        &d,
        &mut dvdx,
        &mut dvdy,
        &mut dvdz,
        &mut x8n,
        &mut y8n,
        &mut z8n,
        &mut h_determ,
        elems,
    )
    .expect("hourglass control on a healthy domain");
    let hgcoef = d.params.hgcoef;
    let (mut h_fx, mut h_fy, mut h_fz) = (vec![0.0; 8 * ne], vec![0.0; 8 * ne], vec![0.0; 8 * ne]);

    let vnewc: Vec<f64> = (0..ne).map(|e| d.vnew(e)).collect();
    let list: Vec<usize> = (0..ne).collect();
    let mut es = eos::EosScratch::new(ne);

    type Kernel<'a> = (&'static str, &'static str, Box<dyn FnMut() + 'a>);
    let mut kernels: Vec<Kernel> = vec![
        (
            "integrate_stress",
            "core.kernel.integrate_stress",
            Box::new(|| {
                stress::integrate_stress_for_elems(
                    &d,
                    &sigxx,
                    &sigyy,
                    &sigzz,
                    &mut s_determ,
                    &mut s_fx,
                    &mut s_fy,
                    &mut s_fz,
                    elems,
                )
            }),
        ),
        (
            "hourglass_fb",
            "core.kernel.hourglass_fb",
            Box::new(|| {
                hourglass::calc_fb_hourglass_force_for_elems(
                    &d, &h_determ, &x8n, &y8n, &z8n, &dvdx, &dvdy, &dvdz, hgcoef, &mut h_fx,
                    &mut h_fy, &mut h_fz, elems,
                )
            }),
        ),
        (
            "monoq_gradients",
            "core.kernel.monoq_gradients",
            Box::new(|| monoq::calc_monotonic_q_gradients_for_elems(&d, elems)),
        ),
        (
            "eos",
            "core.kernel.eos",
            Box::new(|| eos::eval_eos_for_elems(&d, &vnewc, &list, 1, &d.params, &mut es)),
        ),
    ];

    for (name, span, body) in kernels.iter_mut() {
        let mut best_s = [f64::MAX; 2];
        for _ in 0..REPS {
            for (slot, width) in [LaneWidth::W1, LaneWidth::W8].into_iter().enumerate() {
                simd::set_active(width);
                body(); // warm the width's code path before the clock starts
                let id = ctx.spans.open(span);
                let t0 = Instant::now();
                for _ in 0..PASSES {
                    body();
                }
                best_s[slot] = best_s[slot].min(t0.elapsed().as_secs_f64());
                ctx.spans.close(id);
            }
        }
        for (slot, width) in ["scalar", "w8"].into_iter().enumerate() {
            ctx.metric(
                &format!("core.kernel.{name}_{width}_zps"),
                (ne * PASSES) as f64 / best_s[slot],
                Some(REPS),
            );
        }
    }
    simd::set_active(prior);
}
