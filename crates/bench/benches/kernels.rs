//! Per-kernel throughput of the physics substrate (the numbers the cost
//! model's calibration is built on).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lulesh_core::kernels::{eos, hourglass, kinematics, monoq, nodal, stress};
use lulesh_core::Domain;
use parutil::Chunk;

const SIZE: usize = 16;

fn domain() -> Domain {
    let d = Domain::build(SIZE, 4, 1, 1, 0);
    // Mid-blast state for realistic branches.
    lulesh_core::serial::run(&d, 30).unwrap();
    d
}

fn bench_kernels(c: &mut Criterion) {
    let d = domain();
    let ne = d.num_elem();
    let nn = d.num_node();
    let elems = Chunk { begin: 0, end: ne };
    let nodes = Chunk { begin: 0, end: nn };

    let mut g = c.benchmark_group("kernels");
    g.throughput(Throughput::Elements(ne as u64));

    let mut sigxx = vec![0.0; ne];
    let mut sigyy = vec![0.0; ne];
    let mut sigzz = vec![0.0; ne];
    let mut determ = vec![0.0; ne];
    let mut fx = vec![0.0; 8 * ne];
    let mut fy = vec![0.0; 8 * ne];
    let mut fz = vec![0.0; 8 * ne];
    g.bench_function("integrate_stress", |b| {
        stress::init_stress_terms_for_elems(&d, &mut sigxx, &mut sigyy, &mut sigzz, elems);
        b.iter(|| {
            stress::integrate_stress_for_elems(
                &d,
                &sigxx,
                &sigyy,
                &sigzz,
                &mut determ,
                &mut fx,
                &mut fy,
                &mut fz,
                elems,
            )
        })
    });

    let mut dvdx = vec![0.0; 8 * ne];
    let mut dvdy = vec![0.0; 8 * ne];
    let mut dvdz = vec![0.0; 8 * ne];
    let mut x8n = vec![0.0; 8 * ne];
    let mut y8n = vec![0.0; 8 * ne];
    let mut z8n = vec![0.0; 8 * ne];
    g.bench_function("hourglass_control", |b| {
        b.iter(|| {
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
            .unwrap()
        })
    });
    g.bench_function("hourglass_fb", |b| {
        b.iter(|| {
            hourglass::calc_fb_hourglass_force_for_elems(
                &d,
                &determ,
                &x8n,
                &y8n,
                &z8n,
                &dvdx,
                &dvdy,
                &dvdz,
                d.params.hgcoef,
                &mut fx,
                &mut fy,
                &mut fz,
                elems,
            )
        })
    });
    // The fused control + FB kernel every driver but the fork-join one
    // runs: compare against hourglass_control + hourglass_fb above.
    g.bench_function("hourglass_fused", |b| {
        b.iter(|| {
            hourglass::calc_hourglass_force_for_elems(
                &d,
                d.params.hgcoef,
                &mut fx,
                &mut fy,
                &mut fz,
                elems,
            )
            .unwrap()
        })
    });
    g.bench_function("kinematics", |b| {
        b.iter(|| kinematics::calc_kinematics_for_elems(&d, 1e-6, elems))
    });
    g.bench_function("monoq_gradients", |b| {
        b.iter(|| monoq::calc_monotonic_q_gradients_for_elems(&d, elems))
    });

    let vnewc: Vec<f64> = (0..ne).map(|e| d.vnew(e)).collect();
    let list: Vec<usize> = (0..ne).collect();
    let mut es = eos::EosScratch::new(ne);
    g.bench_function("eval_eos_rep1", |b| {
        b.iter(|| eos::eval_eos_for_elems(&d, &vnewc, &list, 1, &d.params, &mut es))
    });

    g.throughput(Throughput::Elements(nn as u64));
    g.bench_function("gather_forces", |b| {
        b.iter(|| stress::gather_forces_set(&d, &fx, &fy, &fz, nodes))
    });
    g.bench_function("node_update", |b| {
        b.iter(|| {
            nodal::calc_acceleration_for_nodes(&d, nodes);
            nodal::calc_velocity_for_nodes(&d, 1e-9, d.params.u_cut, nodes);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
