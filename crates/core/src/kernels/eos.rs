//! Equation of state (`ApplyMaterialPropertiesForElems`, `EvalEOSForElems`,
//! `CalcPressureForElems`, `CalcEnergyForElems`, `CalcSoundSpeedForElems`).
//!
//! This is the region-wise part of the algorithm: it runs once per region,
//! `rep` times (the material-cost model, see [`crate::regions`]), over the
//! region's element list. All scratch arrays are region-length and indexed
//! locally (`0..elems.len()`); `vnewc` is the only mesh-length array and is
//! indexed through `elems`.
//!
//! Each step of `CalcEnergyForElems` is exposed as its own function so the
//! OpenMP-style driver can mirror the reference's one-parallel-loop-per-step
//! structure, while the serial and task drivers call the composed
//! [`calc_energy_for_elems`] / [`eval_eos_for_elems`] on whole sublists.

use crate::domain::Domain;
use crate::params::Params;
#[cfg(target_arch = "x86_64")]
use crate::simd::Avx2Pack;
use crate::simd::{self, lane_groups, Lanes, Pack, SimdReal};
use crate::types::{Index, LuleshError, Real};
use parutil::{AlignedBuf, Chunk};

/// Region-length scratch for one EOS evaluation. Reusable across regions
/// (`resize` keeps capacity).
#[derive(Debug, Default, Clone)]
pub struct EosScratch {
    /// Gathered old energies.
    pub e_old: AlignedBuf<Real>,
    /// Gathered volume deltas.
    pub delvc: AlignedBuf<Real>,
    /// Gathered old pressures.
    pub p_old: AlignedBuf<Real>,
    /// Gathered old viscosities.
    pub q_old: AlignedBuf<Real>,
    /// Gathered quadratic q terms.
    pub qq_old: AlignedBuf<Real>,
    /// Gathered linear q terms.
    pub ql_old: AlignedBuf<Real>,
    /// Full-step compression.
    pub compression: AlignedBuf<Real>,
    /// Half-step compression.
    pub comp_half_step: AlignedBuf<Real>,
    /// External work (always zero in LULESH).
    pub work: AlignedBuf<Real>,
    /// New pressure.
    pub p_new: AlignedBuf<Real>,
    /// New energy.
    pub e_new: AlignedBuf<Real>,
    /// New viscosity.
    pub q_new: AlignedBuf<Real>,
    /// Bulk viscosity coefficient.
    pub bvc: AlignedBuf<Real>,
    /// Pressure derivative coefficient.
    pub pbvc: AlignedBuf<Real>,
    /// Half-step pressure.
    pub p_half_step: AlignedBuf<Real>,
}

impl EosScratch {
    /// Fresh scratch sized for `len` elements.
    pub fn new(len: usize) -> Self {
        let mut s = Self::default();
        s.resize(len);
        s
    }

    /// Resize every array to `len` (existing prefix kept, growth zeroed;
    /// every consumer fully rewrites each array before reading it).
    pub fn resize(&mut self, len: usize) {
        for v in [
            &mut self.e_old,
            &mut self.delvc,
            &mut self.p_old,
            &mut self.q_old,
            &mut self.qq_old,
            &mut self.ql_old,
            &mut self.compression,
            &mut self.comp_half_step,
            &mut self.work,
            &mut self.p_new,
            &mut self.e_new,
            &mut self.q_new,
            &mut self.bvc,
            &mut self.pbvc,
            &mut self.p_half_step,
        ] {
            v.resize_zeroed(len);
        }
    }

    /// Restore the exact state of a fresh [`new(len)`](Self::new): every
    /// array `len` zeros. Lets a pooled scratch be reused across tasks
    /// with bit-identical results to per-task allocation, without
    /// releasing its capacity (no allocation once warmed up).
    pub fn reset(&mut self, len: usize) {
        for v in [
            &mut self.e_old,
            &mut self.delvc,
            &mut self.p_old,
            &mut self.q_old,
            &mut self.qq_old,
            &mut self.ql_old,
            &mut self.compression,
            &mut self.comp_half_step,
            &mut self.work,
            &mut self.p_new,
            &mut self.e_new,
            &mut self.q_new,
            &mut self.bvc,
            &mut self.pbvc,
            &mut self.p_half_step,
        ] {
            v.reset_zeroed(len);
        }
    }
}

/// Clamp the new relative volumes into `[eosvmin, eosvmax]` into the
/// mesh-length `vnewc` array (prologue of `ApplyMaterialPropertiesForElems`;
/// dense over the element chunk, output chunk-local).
pub fn fill_vnewc_clamped(
    d: &Domain,
    vnewc: &mut [Real],
    eosvmin: Real,
    eosvmax: Real,
    range: Chunk,
) {
    debug_assert_eq!(vnewc.len(), range.len());
    for i in range.iter() {
        let mut vc = d.vnew(i);
        if eosvmin != 0.0 && vc < eosvmin {
            vc = eosvmin;
        }
        if eosvmax != 0.0 && vc > eosvmax {
            vc = eosvmax;
        }
        vnewc[i - range.begin] = vc;
    }
}

/// Sanity check on the *old* volumes (abort-on-negative in the reference).
pub fn check_eos_volume_bounds(
    d: &Domain,
    eosvmin: Real,
    eosvmax: Real,
    range: Chunk,
) -> Result<(), LuleshError> {
    for i in range.iter() {
        let mut vc = d.v(i);
        if eosvmin != 0.0 && vc < eosvmin {
            vc = eosvmin;
        }
        if eosvmax != 0.0 && vc > eosvmax {
            vc = eosvmax;
        }
        if vc <= 0.0 {
            return Err(LuleshError::VolumeError);
        }
    }
    Ok(())
}

/// Gather element state into region-local arrays (one `rep` iteration's
/// prologue of `EvalEOSForElems`).
#[allow(clippy::too_many_arguments)]
pub fn eos_gather(
    d: &Domain,
    elems: &[Index],
    e_old: &mut [Real],
    delvc: &mut [Real],
    p_old: &mut [Real],
    q_old: &mut [Real],
    qq_old: &mut [Real],
    ql_old: &mut [Real],
) {
    for (i, &z) in elems.iter().enumerate() {
        e_old[i] = d.e(z);
        delvc[i] = d.delv(z);
        p_old[i] = d.p(z);
        q_old[i] = d.q(z);
        qq_old[i] = d.qq(z);
        ql_old[i] = d.ql(z);
    }
}

/// Full- and half-step compressions from the clamped new volumes.
pub fn eos_compression(
    elems: &[Index],
    vnewc: &[Real],
    delvc: &[Real],
    compression: &mut [Real],
    comp_half_step: &mut [Real],
) {
    for (i, &z) in elems.iter().enumerate() {
        compression[i] = 1.0 / vnewc[z] - 1.0;
        let vchalf = vnewc[z] - delvc[i] * 0.5;
        comp_half_step[i] = 1.0 / vchalf - 1.0;
    }
}

/// Apply the `eosvmin`/`eosvmax` special cases to the compressions.
#[allow(clippy::too_many_arguments)]
pub fn eos_clamp_compression(
    elems: &[Index],
    vnewc: &[Real],
    eosvmin: Real,
    eosvmax: Real,
    compression: &mut [Real],
    comp_half_step: &mut [Real],
    p_old: &mut [Real],
) {
    if eosvmin != 0.0 {
        for (i, &z) in elems.iter().enumerate() {
            if vnewc[z] <= eosvmin {
                // impossible due to calling func?
                comp_half_step[i] = compression[i];
            }
        }
    }
    if eosvmax != 0.0 {
        for (i, &z) in elems.iter().enumerate() {
            if vnewc[z] >= eosvmax {
                // impossible due to calling func?
                p_old[i] = 0.0;
                compression[i] = 0.0;
                comp_half_step[i] = 0.0;
            }
        }
    }
}

/// Ideal-gas pressure (`CalcPressureForElems`): two loops like the
/// reference.
#[allow(clippy::too_many_arguments)]
pub fn calc_pressure_for_elems(
    p_new: &mut [Real],
    bvc: &mut [Real],
    pbvc: &mut [Real],
    e_old: &[Real],
    compression: &[Real],
    vnewc: &[Real],
    elems: &[Index],
    pmin: Real,
    p_cut: Real,
    eosvmax: Real,
) {
    const C1S: Real = 2.0 / 3.0;
    for i in 0..elems.len() {
        bvc[i] = C1S * (compression[i] + 1.0);
        pbvc[i] = C1S;
    }
    for (i, &z) in elems.iter().enumerate() {
        p_new[i] = bvc[i] * e_old[i];

        if p_new[i].abs() < p_cut {
            p_new[i] = 0.0;
        }
        if vnewc[z] >= eosvmax {
            // impossible condition here?
            p_new[i] = 0.0;
        }
        if p_new[i] < pmin {
            p_new[i] = pmin;
        }
    }
}

const SSC_LOW: Real = 0.1111111e-36;
const SSC_FLOOR: Real = 0.3333333e-18;

/// Step 1 of `CalcEnergyForElems`: provisional half-step energy.
pub fn energy_step1(
    e_new: &mut [Real],
    e_old: &[Real],
    delvc: &[Real],
    p_old: &[Real],
    q_old: &[Real],
    work: &[Real],
    emin: Real,
) {
    for i in 0..e_new.len() {
        e_new[i] = e_old[i] - 0.5 * delvc[i] * (p_old[i] + q_old[i]) + 0.5 * work[i];
        if e_new[i] < emin {
            e_new[i] = emin;
        }
    }
}

/// Step 2: half-step viscosity and the predictor energy update.
#[allow(clippy::too_many_arguments)]
pub fn energy_step2(
    e_new: &mut [Real],
    q_new: &mut [Real],
    comp_half_step: &[Real],
    p_half_step: &[Real],
    bvc: &[Real],
    pbvc: &[Real],
    delvc: &[Real],
    p_old: &[Real],
    q_old: &[Real],
    ql_old: &[Real],
    qq_old: &[Real],
    rho0: Real,
) {
    for i in 0..e_new.len() {
        let vhalf = 1.0 / (1.0 + comp_half_step[i]);

        if delvc[i] > 0.0 {
            q_new[i] = 0.0; // = qq_old[i] = ql_old[i] ...
        } else {
            let mut ssc = (pbvc[i] * e_new[i] + vhalf * vhalf * bvc[i] * p_half_step[i]) / rho0;
            ssc = if ssc <= SSC_LOW {
                SSC_FLOOR
            } else {
                ssc.sqrt()
            };
            q_new[i] = ssc * ql_old[i] + qq_old[i];
        }

        e_new[i] +=
            0.5 * delvc[i] * (3.0 * (p_old[i] + q_old[i]) - 4.0 * (p_half_step[i] + q_new[i]));
    }
}

/// Step 3: add the external work and apply the energy cut-offs.
pub fn energy_step3(e_new: &mut [Real], work: &[Real], e_cut: Real, emin: Real) {
    for i in 0..e_new.len() {
        e_new[i] += 0.5 * work[i];
        if e_new[i].abs() < e_cut {
            e_new[i] = 0.0;
        }
        if e_new[i] < emin {
            e_new[i] = emin;
        }
    }
}

/// Step 4: corrector energy update using the full-step pressure.
#[allow(clippy::too_many_arguments)]
pub fn energy_step4(
    e_new: &mut [Real],
    delvc: &[Real],
    p_old: &[Real],
    q_old: &[Real],
    p_half_step: &[Real],
    q_new: &[Real],
    p_new: &[Real],
    bvc: &[Real],
    pbvc: &[Real],
    ql_old: &[Real],
    qq_old: &[Real],
    vnewc: &[Real],
    elems: &[Index],
    rho0: Real,
    e_cut: Real,
    emin: Real,
) {
    const SIXTH: Real = 1.0 / 6.0;
    for (i, &z) in elems.iter().enumerate() {
        let q_tilde = if delvc[i] > 0.0 {
            0.0
        } else {
            let mut ssc = (pbvc[i] * e_new[i] + vnewc[z] * vnewc[z] * bvc[i] * p_new[i]) / rho0;
            ssc = if ssc <= SSC_LOW {
                SSC_FLOOR
            } else {
                ssc.sqrt()
            };
            ssc * ql_old[i] + qq_old[i]
        };

        e_new[i] -= (7.0 * (p_old[i] + q_old[i]) - 8.0 * (p_half_step[i] + q_new[i])
            + (p_new[i] + q_tilde))
            * delvc[i]
            * SIXTH;

        if e_new[i].abs() < e_cut {
            e_new[i] = 0.0;
        }
        if e_new[i] < emin {
            e_new[i] = emin;
        }
    }
}

/// Step 5: final viscosity from the corrected state.
#[allow(clippy::too_many_arguments)]
pub fn energy_step5(
    q_new: &mut [Real],
    delvc: &[Real],
    pbvc: &[Real],
    e_new: &[Real],
    vnewc: &[Real],
    elems: &[Index],
    bvc: &[Real],
    p_new: &[Real],
    ql_old: &[Real],
    qq_old: &[Real],
    rho0: Real,
    q_cut: Real,
) {
    for (i, &z) in elems.iter().enumerate() {
        if delvc[i] <= 0.0 {
            let mut ssc = (pbvc[i] * e_new[i] + vnewc[z] * vnewc[z] * bvc[i] * p_new[i]) / rho0;
            ssc = if ssc <= SSC_LOW {
                SSC_FLOOR
            } else {
                ssc.sqrt()
            };
            q_new[i] = ssc * ql_old[i] + qq_old[i];
            if q_new[i].abs() < q_cut {
                q_new[i] = 0.0;
            }
        }
    }
}

/// The composed `CalcEnergyForElems` (steps and pressure evaluations in
/// reference order).
pub fn calc_energy_for_elems(
    s: &mut EosScratch,
    vnewc: &[Real],
    elems: &[Index],
    p: &Params,
    rho0: Real,
) {
    energy_step1(
        &mut s.e_new,
        &s.e_old,
        &s.delvc,
        &s.p_old,
        &s.q_old,
        &s.work,
        p.emin,
    );
    calc_pressure_for_elems(
        &mut s.p_half_step,
        &mut s.bvc,
        &mut s.pbvc,
        &s.e_new,
        &s.comp_half_step,
        vnewc,
        elems,
        p.pmin,
        p.p_cut,
        p.eosvmax,
    );
    energy_step2(
        &mut s.e_new,
        &mut s.q_new,
        &s.comp_half_step,
        &s.p_half_step,
        &s.bvc,
        &s.pbvc,
        &s.delvc,
        &s.p_old,
        &s.q_old,
        &s.ql_old,
        &s.qq_old,
        rho0,
    );
    energy_step3(&mut s.e_new, &s.work, p.e_cut, p.emin);
    calc_pressure_for_elems(
        &mut s.p_new,
        &mut s.bvc,
        &mut s.pbvc,
        &s.e_new,
        &s.compression,
        vnewc,
        elems,
        p.pmin,
        p.p_cut,
        p.eosvmax,
    );
    energy_step4(
        &mut s.e_new,
        &s.delvc,
        &s.p_old,
        &s.q_old,
        &s.p_half_step,
        &s.q_new,
        &s.p_new,
        &s.bvc,
        &s.pbvc,
        &s.ql_old,
        &s.qq_old,
        vnewc,
        elems,
        rho0,
        p.e_cut,
        p.emin,
    );
    calc_pressure_for_elems(
        &mut s.p_new,
        &mut s.bvc,
        &mut s.pbvc,
        &s.e_new,
        &s.compression,
        vnewc,
        elems,
        p.pmin,
        p.p_cut,
        p.eosvmax,
    );
    energy_step5(
        &mut s.q_new,
        &s.delvc,
        &s.pbvc,
        &s.e_new,
        vnewc,
        elems,
        &s.bvc,
        &s.p_new,
        &s.ql_old,
        &s.qq_old,
        rho0,
        p.q_cut,
    );
}

/// Scatter the new state back to the mesh.
pub fn eos_store(d: &Domain, elems: &[Index], p_new: &[Real], e_new: &[Real], q_new: &[Real]) {
    for (i, &z) in elems.iter().enumerate() {
        d.set_p(z, p_new[i]);
        d.set_e(z, e_new[i]);
        d.set_q(z, q_new[i]);
    }
}

/// `CalcSoundSpeedForElems`.
#[allow(clippy::too_many_arguments)]
pub fn calc_sound_speed_for_elems(
    d: &Domain,
    vnewc: &[Real],
    rho0: Real,
    enewc: &[Real],
    pnewc: &[Real],
    pbvc: &[Real],
    bvc: &[Real],
    elems: &[Index],
) {
    for (i, &z) in elems.iter().enumerate() {
        let mut ss_tmp = (pbvc[i] * enewc[i] + vnewc[z] * vnewc[z] * bvc[i] * pnewc[i]) / rho0;
        ss_tmp = if ss_tmp <= SSC_LOW {
            SSC_FLOOR
        } else {
            ss_tmp.sqrt()
        };
        d.set_ss(z, ss_tmp);
    }
}

/// The full `EvalEOSForElems` for one region sublist, including the `rep`
/// repetition loop, ending with the store and sound-speed update.
///
/// Dispatches on the process-wide SIMD width and the host's ISA
/// (`simd::dispatch!`): the lane path fuses the whole per-element pipeline
/// (gather → compression → energy steps → pressure → sound speed) into
/// registers, never touching `s`, and is bit-identical to the scalar
/// reference.
pub fn eval_eos_for_elems(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    rep: usize,
    p: &Params,
    s: &mut EosScratch,
) {
    // `rep == 0` performs no energy evaluation in the reference (the store
    // reads whatever the scratch holds); only the scalar path reproduces
    // that, so route the degenerate case there too.
    if rep == 0 {
        return eval_eos_for_elems_scalar(d, vnewc, elems, rep, p, s);
    }
    simd::dispatch!(
        eval_eos_for_elems_lanes / eval_eos_for_elems_avx2(d, vnewc, elems, rep, p),
        scalar: eval_eos_for_elems_scalar(d, vnewc, elems, rep, p, s)
    )
}

/// Scalar reference implementation of [`eval_eos_for_elems`].
pub fn eval_eos_for_elems_scalar(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    rep: usize,
    p: &Params,
    s: &mut EosScratch,
) {
    let rho0 = p.refdens;
    // Every repetition rewrites each array before reading it, so only the
    // degenerate `rep == 0` store needs defined contents: the zeros of a
    // fresh scratch, whatever a pooled one held before.
    if rep == 0 {
        s.reset(elems.len());
    } else {
        s.resize(elems.len());
    }

    // Loop to add load imbalance based on region number.
    for _ in 0..rep {
        // These temporaries will be of different size for each call
        // (due to different sized region element lists).
        eos_gather(
            d,
            elems,
            &mut s.e_old,
            &mut s.delvc,
            &mut s.p_old,
            &mut s.q_old,
            &mut s.qq_old,
            &mut s.ql_old,
        );
        eos_compression(
            elems,
            vnewc,
            &s.delvc,
            &mut s.compression,
            &mut s.comp_half_step,
        );
        eos_clamp_compression(
            elems,
            vnewc,
            p.eosvmin,
            p.eosvmax,
            &mut s.compression,
            &mut s.comp_half_step,
            &mut s.p_old,
        );
        s.work.fill(0.0);
        calc_energy_for_elems(s, vnewc, elems, p, rho0);
    }

    eos_store(d, elems, &s.p_new, &s.e_new, &s.q_new);
    calc_sound_speed_for_elems(d, vnewc, rho0, &s.e_new, &s.p_new, &s.pbvc, &s.bvc, elems);
}

/// `CalcPressureForElems` for one value: returns `(p_new, bvc)`. `pbvc` is
/// the constant `C1S` and is inlined at the call sites.
#[inline(always)]
fn eos_pressure<V: SimdReal>(e: V, compression: V, vz: V, p: &Params) -> (V, V) {
    const C1S: Real = 2.0 / 3.0;
    let bvc = V::splat(C1S) * (compression + V::splat(1.0));
    let mut p_new = bvc * e;
    p_new = p_new.abs().select_lt(V::splat(p.p_cut), V::zero(), p_new);
    // Faithful to the reference: this cut is applied even when
    // eosvmax == 0.0 ("impossible condition here?").
    p_new = vz.select_ge(V::splat(p.eosvmax), V::zero(), p_new);
    p_new = p_new.select_lt(V::splat(p.pmin), V::splat(p.pmin), p_new);
    (p_new, bvc)
}

/// The shared sound-speed pattern `ssc = (pbvc·e + v²·bvc·p)/rho0` with the
/// low-value floor, `pbvc = C1S`. Used by energy steps 2/4/5 and
/// `CalcSoundSpeedForElems` — in the scalar reference these are four
/// textually identical computations.
#[inline(always)]
fn eos_ssc<V: SimdReal>(e: V, v: V, bvc: V, pres: V, rho0: Real) -> V {
    const C1S: Real = 2.0 / 3.0;
    let ssc = (V::splat(C1S) * e + v * v * bvc * pres) / V::splat(rho0);
    // sqrt of a negative untaken lane yields NaN and is discarded.
    ssc.select_le(V::splat(SSC_LOW), V::splat(SSC_FLOOR), ssc.sqrt())
}

/// The fused per-element EOS pipeline: compression, the five energy steps
/// with their three pressure evaluations, and the sound speed — entirely in
/// registers, in the exact operation order of the scalar step functions.
/// Returns `(p_new, e_new, q_new, ss)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn eos_elem_kernel<V: SimdReal>(
    vz: V,
    e_old: V,
    delvc: V,
    p_old_in: V,
    q_old: V,
    qq_old: V,
    ql_old: V,
    p: &Params,
    rho0: Real,
) -> (V, V, V, V) {
    let zero = V::zero();
    let one = V::splat(1.0);
    let half = V::splat(0.5);
    let emin = V::splat(p.emin);
    let e_cut = V::splat(p.e_cut);

    // eos_compression.
    let mut compression = one / vz - one;
    let vchalf = vz - delvc * half;
    let mut comp_half_step = one / vchalf - one;

    // eos_clamp_compression (the eosvmin/eosvmax gates are uniform scalar
    // branches, exactly as in the reference).
    let mut p_old = p_old_in;
    if p.eosvmin != 0.0 {
        comp_half_step = vz.select_le(V::splat(p.eosvmin), compression, comp_half_step);
    }
    if p.eosvmax != 0.0 {
        let vmax = V::splat(p.eosvmax);
        p_old = vz.select_ge(vmax, zero, p_old);
        compression = vz.select_ge(vmax, zero, compression);
        comp_half_step = vz.select_ge(vmax, zero, comp_half_step);
    }

    // work is identically zero in LULESH; keep the `+ 0.5·work` terms so
    // the rounding (−0.0 → +0.0 normalisation) matches the scalar steps.
    let work = zero;

    // energy_step1.
    let mut e_new = e_old - half * delvc * (p_old + q_old) + half * work;
    e_new = e_new.select_lt(emin, emin, e_new);

    // First pressure evaluation (half-step compression).
    let (p_half_step, bvc_h) = eos_pressure(e_new, comp_half_step, vz, p);

    // energy_step2.
    let vhalf = one / (one + comp_half_step);
    let ssc2 = eos_ssc(e_new, vhalf, bvc_h, p_half_step, rho0);
    let mut q_new = delvc.select_gt(zero, zero, ssc2 * ql_old + qq_old);
    e_new = e_new
        + half * delvc * (V::splat(3.0) * (p_old + q_old) - V::splat(4.0) * (p_half_step + q_new));

    // energy_step3.
    e_new = e_new + half * work;
    e_new = e_new.abs().select_lt(e_cut, zero, e_new);
    e_new = e_new.select_lt(emin, emin, e_new);

    // Second pressure evaluation (full compression).
    let (p_new, _bvc_f) = eos_pressure(e_new, compression, vz, p);

    // energy_step4.
    const SIXTH: Real = 1.0 / 6.0;
    let ssc4 = eos_ssc(e_new, vz, _bvc_f, p_new, rho0);
    let q_tilde = delvc.select_gt(zero, zero, ssc4 * ql_old + qq_old);
    e_new = e_new
        - (V::splat(7.0) * (p_old + q_old) - V::splat(8.0) * (p_half_step + q_new)
            + (p_new + q_tilde))
            * delvc
            * V::splat(SIXTH);
    e_new = e_new.abs().select_lt(e_cut, zero, e_new);
    e_new = e_new.select_lt(emin, emin, e_new);

    // Third pressure evaluation (final p_new / bvc).
    let (p_new, bvc_f) = eos_pressure(e_new, compression, vz, p);

    // energy_step5 and CalcSoundSpeedForElems share the same ssc value
    // (identical inputs: the reference computes it twice, textually).
    let ss = eos_ssc(e_new, vz, bvc_f, p_new, rho0);
    let mut q5 = ss * ql_old + qq_old;
    q5 = q5.abs().select_lt(V::splat(p.q_cut), zero, q5);
    q_new = delvc.select_le(zero, q5, q_new);

    (p_new, e_new, q_new, ss)
}

/// Lane implementation of [`eval_eos_for_elems`] for `rep ≥ 1`: the region
/// list is walked in `W`-lane groups, each running the fused
/// [`eos_elem_kernel`]; no scratch arrays are touched. The repetition loop
/// stays outermost like the reference (the recomputation is idempotent),
/// and only the final repetition stores.
#[inline(always)]
pub fn eval_eos_for_elems_lanes<const W: usize>(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    rep: usize,
    p: &Params,
) {
    eos_groups::<Lanes<W>>(d, vnewc, elems, rep, p)
}

/// [`eval_eos_for_elems`] on AVX2 packs: the same body as
/// [`eval_eos_for_elems_lanes::<4>`], bit for bit.
///
/// # Safety
/// The CPU must have AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub fn eval_eos_for_elems_avx2(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    rep: usize,
    p: &Params,
) {
    eos_groups::<Avx2Pack>(d, vnewc, elems, rep, p)
}

/// The list walk behind both lane entry points, in groups of `P::LANES`.
#[inline(always)]
fn eos_groups<P: Pack>(d: &Domain, vnewc: &[Real], elems: &[Index], rep: usize, p: &Params) {
    let rho0 = p.refdens;
    for r in 0..rep {
        let store = r + 1 == rep;
        lane_groups!(P, 0, elems.len(), |i| eos_lane_group
            / eos_tail(d, vnewc, elems, i, p, rho0, store));
    }
}

/// List entries `i0..end` one at a time: the ragged tail of every width
/// and the whole of `W = 1` (see [`lane_groups!`]).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn eos_tail(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    i0: usize,
    p: &Params,
    rho0: Real,
    store: bool,
    end: usize,
) {
    for i in i0..end {
        eos_lane_group::<Lanes<1>>(d, vnewc, elems, i, p, rho0, store);
    }
}

/// One group of `P::LANES` entries of the region element list: gather the
/// seven inputs, run the fused kernel, optionally scatter the four outputs.
#[inline(always)]
fn eos_lane_group<P: Pack>(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    i0: usize,
    p: &Params,
    rho0: Real,
    store: bool,
) {
    let idx = |l: usize| elems[i0 + l];
    let vz = P::gather(|l| vnewc[idx(l)]);
    let e_old = P::gather(|l| d.e(idx(l)));
    let delvc = P::gather(|l| d.delv(idx(l)));
    let p_old = P::gather(|l| d.p(idx(l)));
    let q_old = P::gather(|l| d.q(idx(l)));
    let qq_old = P::gather(|l| d.qq(idx(l)));
    let ql_old = P::gather(|l| d.ql(idx(l)));

    let (p_new, e_new, q_new, ss) =
        eos_elem_kernel(vz, e_old, delvc, p_old, q_old, qq_old, ql_old, p, rho0);

    if store {
        for l in 0..P::LANES {
            let z = idx(l);
            d.set_p(z, p_new.lane(l));
            d.set_e(z, e_new.lane(l));
            d.set_q(z, q_new.lane(l));
            d.set_ss(z, ss.lane(l));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_params() -> Params {
        Params::default()
    }

    #[test]
    fn pressure_is_two_thirds_energy_density() {
        // Ideal gas γ = 5/3: p = (γ−1)·ρ·e = (2/3)·e/v for unit reference
        // density. With compression = 1/v − 1, bvc = (2/3)/v.
        let elems = [0usize, 1];
        let vnewc = [0.5, 1.0];
        let e = [3.0, 1.5];
        let compression = [1.0 / 0.5 - 1.0, 0.0];
        let mut p_new = [0.0; 2];
        let mut bvc = [0.0; 2];
        let mut pbvc = [0.0; 2];
        calc_pressure_for_elems(
            &mut p_new,
            &mut bvc,
            &mut pbvc,
            &e,
            &compression,
            &vnewc,
            &elems,
            0.0,
            1e-7,
            1e9,
        );
        assert!((p_new[0] - (2.0 / 3.0) * 3.0 / 0.5).abs() < 1e-12);
        assert!((p_new[1] - (2.0 / 3.0) * 1.5).abs() < 1e-12);
        assert_eq!(pbvc[0], 2.0 / 3.0);
    }

    #[test]
    fn pressure_cutoffs() {
        let elems = [0usize, 1, 2];
        let vnewc = [1.0, 2e9, 1.0];
        let e = [1e-9, 5.0, -1.0];
        let compression = [0.0; 3];
        let mut p_new = [0.0; 3];
        let mut bvc = [0.0; 3];
        let mut pbvc = [0.0; 3];
        calc_pressure_for_elems(
            &mut p_new,
            &mut bvc,
            &mut pbvc,
            &e,
            &compression,
            &vnewc,
            &elems,
            0.0,
            1e-7,
            1e9,
        );
        assert_eq!(p_new[0], 0.0, "below p_cut snaps to zero");
        assert_eq!(p_new[1], 0.0, "v >= eosvmax zeroes pressure");
        assert_eq!(p_new[2], 0.0, "pressure floor pmin = 0");
    }

    #[test]
    fn static_element_eos_is_identity() {
        // An element at rest (delv = 0, q = 0) must keep its energy and
        // acquire the ideal-gas pressure for its energy.
        let d = Domain::build(2, 1, 1, 1, 0);
        let n = d.num_elem();
        for e in 0..n {
            d.set_e(e, 2.0);
            d.set_vnew(e, 1.0);
            d.set_delv(e, 0.0);
        }
        let p = ideal_params();
        let vnewc: Vec<Real> = (0..n).map(|e| d.vnew(e)).collect();
        let elems: Vec<usize> = (0..n).collect();
        let mut s = EosScratch::new(n);
        eval_eos_for_elems(&d, &vnewc, &elems, 1, &p, &mut s);
        for e in 0..n {
            assert!((d.e(e) - 2.0).abs() < 1e-12, "energy must be unchanged");
            assert!((d.p(e) - 4.0 / 3.0).abs() < 1e-12, "p = (2/3)·e at v=1");
            assert_eq!(d.q(e), 0.0);
            assert!(d.ss(e) > 0.0, "sound speed must be positive");
        }
    }

    #[test]
    fn rep_does_not_change_results() {
        // The repetition loop models cost, not physics: results must be
        // identical for any rep.
        let d1 = Domain::build(2, 1, 1, 1, 0);
        let d2 = Domain::build(2, 1, 1, 1, 0);
        let n = d1.num_elem();
        for d in [&d1, &d2] {
            for e in 0..n {
                d.set_e(e, 1.0 + e as Real * 0.1);
                d.set_vnew(e, 0.9);
                d.set_delv(e, -0.1);
                d.set_ql(e, 0.01);
                d.set_qq(e, 0.02);
            }
        }
        let p = ideal_params();
        let vnewc = vec![0.9; n];
        let elems: Vec<usize> = (0..n).collect();
        let mut s = EosScratch::new(n);
        eval_eos_for_elems(&d1, &vnewc, &elems, 1, &p, &mut s);
        eval_eos_for_elems(&d2, &vnewc, &elems, 20, &p, &mut s);
        for e in 0..n {
            assert_eq!(d1.e(e), d2.e(e));
            assert_eq!(d1.p(e), d2.p(e));
            assert_eq!(d1.q(e), d2.q(e));
            assert_eq!(d1.ss(e), d2.ss(e));
        }
    }

    #[test]
    fn compression_heats_the_gas() {
        let d = Domain::build(2, 1, 1, 1, 0);
        let n = d.num_elem();
        for e in 0..n {
            d.set_e(e, 1.0);
            d.set_p(e, 2.0 / 3.0);
            d.set_vnew(e, 0.8);
            d.set_delv(e, -0.2);
        }
        let p = ideal_params();
        let vnewc = vec![0.8; n];
        let elems: Vec<usize> = (0..n).collect();
        let mut s = EosScratch::new(n);
        eval_eos_for_elems(&d, &vnewc, &elems, 1, &p, &mut s);
        for e in 0..n {
            assert!(
                d.e(e) > 1.0,
                "adiabatic compression must increase energy: {}",
                d.e(e)
            );
            assert!(d.p(e) > 2.0 / 3.0, "pressure must rise");
        }
    }

    #[test]
    fn expansion_cools_the_gas() {
        let d = Domain::build(1, 1, 1, 1, 0);
        d.set_e(0, 1.0);
        d.set_p(0, 2.0 / 3.0);
        d.set_vnew(0, 1.2);
        d.set_delv(0, 0.2);
        let p = ideal_params();
        let vnewc = vec![1.2];
        let elems = vec![0usize];
        let mut s = EosScratch::new(1);
        eval_eos_for_elems(&d, &vnewc, &elems, 1, &p, &mut s);
        assert!(d.e(0) < 1.0, "expansion must decrease energy: {}", d.e(0));
        assert_eq!(d.q(0), 0.0, "expanding element has no viscosity update");
    }

    #[test]
    fn emin_floor_is_respected() {
        let d = Domain::build(1, 1, 1, 1, 0);
        d.set_e(0, -2.0e15);
        d.set_vnew(0, 1.5);
        d.set_delv(0, 0.5);
        let p = ideal_params();
        let vnewc = vec![1.5];
        let elems = vec![0usize];
        let mut s = EosScratch::new(1);
        eval_eos_for_elems(&d, &vnewc, &elems, 1, &p, &mut s);
        assert!(d.e(0) >= p.emin, "energy {} below emin {}", d.e(0), p.emin);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Ideal-gas pressure is non-negative for non-negative energy
            /// (pmin = 0 floors it) and exactly proportional to e at fixed v.
            #[test]
            fn pressure_nonnegative_and_linear_in_energy(
                e in 0.0f64..1e6,
                v in 0.2f64..2.0,
            ) {
                let elems = [0usize];
                let vnewc = [v];
                let compression = [1.0 / v - 1.0];
                let mut p1 = [0.0];
                let mut p2 = [0.0];
                let mut bvc = [0.0];
                let mut pbvc = [0.0];
                calc_pressure_for_elems(
                    &mut p1, &mut bvc, &mut pbvc, &[e], &compression, &vnewc, &elems,
                    0.0, 1e-7, 1e9,
                );
                calc_pressure_for_elems(
                    &mut p2, &mut bvc, &mut pbvc, &[2.0 * e], &compression, &vnewc, &elems,
                    0.0, 1e-7, 1e9,
                );
                prop_assert!(p1[0] >= 0.0);
                prop_assert!(p2[0] >= 2.0 * p1[0] - 1e-9, "{} vs {}", p2[0], p1[0]);
            }

            /// Stronger adiabatic compression never yields less heating.
            #[test]
            fn compression_monotonically_heats(
                e0 in 0.5f64..100.0,
                dv in 0.01f64..0.3,
            ) {
                let p = Params::default();
                let run = |delv: f64| -> Real {
                    let d = Domain::build(1, 1, 1, 1, 0);
                    d.set_e(0, e0);
                    d.set_p(0, 2.0 / 3.0 * e0);
                    d.set_vnew(0, 1.0 - delv);
                    d.set_delv(0, -delv);
                    let vnewc = [1.0 - delv];
                    let mut s = EosScratch::new(1);
                    eval_eos_for_elems(&d, &vnewc, &[0], 1, &p, &mut s);
                    d.e(0)
                };
                let weaker = run(dv * 0.5);
                let stronger = run(dv);
                prop_assert!(stronger >= weaker - 1e-9, "{stronger} < {weaker}");
                prop_assert!(weaker >= e0 - 1e-9, "compression must not cool");
            }

            /// The EOS is deterministic and independent of the `rep`
            /// cost-model repetition for any state.
            #[test]
            fn rep_invariance_random_states(
                e in -10.0f64..1e4,
                v in 0.3f64..1.8,
                delv in -0.3f64..0.3,
                ql in 0.0f64..10.0,
                qq in 0.0f64..10.0,
                rep in 1usize..21,
            ) {
                let p = Params::default();
                let run = |rep: usize| {
                    let d = Domain::build(1, 1, 1, 1, 0);
                    d.set_e(0, e);
                    d.set_vnew(0, v);
                    d.set_delv(0, delv);
                    d.set_ql(0, ql);
                    d.set_qq(0, qq);
                    let vnewc = [v];
                    let mut s = EosScratch::new(1);
                    eval_eos_for_elems(&d, &vnewc, &[0], rep, &p, &mut s);
                    (d.e(0), d.p(0), d.q(0), d.ss(0))
                };
                prop_assert_eq!(run(1), run(rep));
            }

            /// Outputs respect the floors and cut-offs for arbitrary states.
            #[test]
            fn floors_hold_for_random_states(
                e in -1e16f64..1e6,
                v in 0.1f64..3.0,
                delv in -0.5f64..0.5,
            ) {
                let p = Params::default();
                let d = Domain::build(1, 1, 1, 1, 0);
                d.set_e(0, e);
                d.set_vnew(0, v);
                d.set_delv(0, delv);
                let vnewc = [v];
                let mut s = EosScratch::new(1);
                eval_eos_for_elems(&d, &vnewc, &[0], 1, &p, &mut s);
                prop_assert!(d.e(0) >= p.emin);
                prop_assert!(d.p(0) >= p.pmin);
                prop_assert!(d.ss(0) > 0.0);
                prop_assert!(d.e(0).is_finite() && d.p(0).is_finite() && d.q(0).is_finite());
            }
        }
    }

    #[test]
    fn vnewc_clamping_and_bounds_check() {
        let d = Domain::build(2, 1, 1, 1, 0);
        let n = d.num_elem();
        d.set_vnew(0, 1e-12);
        d.set_vnew(1, 1e12);
        d.set_vnew(2, 0.5);
        let mut vnewc = vec![0.0; n];
        let range = Chunk { begin: 0, end: n };
        fill_vnewc_clamped(&d, &mut vnewc, 1e-9, 1e9, range);
        assert_eq!(vnewc[0], 1e-9);
        assert_eq!(vnewc[1], 1e9);
        assert_eq!(vnewc[2], 0.5);
        assert!(check_eos_volume_bounds(&d, 1e-9, 1e9, range).is_ok());
        d.set_v(3, -1.0);
        // eosvmin clamp saves a tiny positive-but-small volume, but a
        // negative volume with eosvmin = 0 must fail.
        assert_eq!(
            check_eos_volume_bounds(&d, 0.0, 1e9, range),
            Err(LuleshError::VolumeError)
        );
    }
}
