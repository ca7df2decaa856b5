//! Equation of state (`ApplyMaterialPropertiesForElems`, `EvalEOSForElems`,
//! `CalcPressureForElems`, `CalcEnergyForElems`, `CalcSoundSpeedForElems`).
//!
//! This is the region-wise part of the algorithm: it runs once per region,
//! `rep` times (the material-cost model, see [`crate::regions`]), over the
//! region's element list. All scratch arrays are region-length and indexed
//! locally (`0..elems.len()`); `vnewc` is the only mesh-length array and is
//! indexed through `elems`.
//!
//! The reference `EvalEOSForElems` is one table and one match: [`ladder`]
//! lists its loops ([`EOS_LADDER`] per repetition, then [`EOS_FINISH`]), and
//! [`eos_step`] runs one of them over the [`EOS_ARRAYS`] region arrays. The
//! scalar body walks the ladder on one [`EosScratch`]; the OpenMP-style
//! reference plan runs each loop as its own parallel region
//! (`plan::Kernel::EosLoop`). The lane bodies fuse the whole ladder per
//! element ([`eos_elem_kernel`]) and touch no scratch.

use crate::domain::Domain;
use crate::params::Params;
use crate::simd::{self, LaneKernel, LaneWidth, Pack, SimdReal};
use crate::types::{Index, LuleshError, Real};
use parutil::{AlignedBuf, Chunk};

/// One loop of the reference's `EvalEOSForElems` over a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EosStep {
    /// Gather the old element state.
    Gather,
    /// Full- and half-step compression.
    Compression,
    /// Clamp the compressions at the volume bounds.
    ClampCompression,
    /// Zero the external work.
    ZeroWork,
    /// `CalcEnergyForElems` step 1.
    Energy1,
    /// Half-step pressure.
    PressureHalfStep,
    /// `CalcEnergyForElems` step 2.
    Energy2,
    /// `CalcEnergyForElems` step 3.
    Energy3,
    /// Full-step pressure.
    Pressure,
    /// `CalcEnergyForElems` step 4.
    Energy4,
    /// `CalcEnergyForElems` step 5.
    Energy5,
    /// Store p, e, q back to the mesh.
    Store,
    /// `CalcSoundSpeedForElems`.
    SoundSpeed,
}

/// The loops of one EOS repetition, in reference order.
pub const EOS_LADDER: [EosStep; 12] = {
    use EosStep::*;
    [
        Gather,
        Compression,
        ClampCompression,
        ZeroWork,
        Energy1,
        PressureHalfStep,
        Energy2,
        Energy3,
        Pressure,
        Energy4,
        Pressure,
        Energy5,
    ]
};

/// The loops after a region's last repetition.
pub const EOS_FINISH: [EosStep; 2] = [EosStep::Store, EosStep::SoundSpeed];

/// The region-length arrays the ladder's loops share ([`eos_step`]).
pub const EOS_ARRAYS: usize = 15;

/// Every loop of a region's `EvalEOSForElems`, in reference order: `rep`
/// repetitions of [`EOS_LADDER`], then [`EOS_FINISH`].
pub fn ladder(rep: usize) -> impl Iterator<Item = EosStep> {
    (0..rep).flat_map(|_| EOS_LADDER).chain(EOS_FINISH)
}

/// Region-length scratch for one EOS evaluation: the [`EOS_ARRAYS`] arrays
/// of [`eos_step`]. Reusable across regions (`resize` keeps capacity).
#[derive(Debug, Default, Clone)]
pub struct EosScratch([AlignedBuf<Real>; EOS_ARRAYS]);

impl EosScratch {
    /// Fresh scratch sized for `len` elements.
    pub fn new(len: usize) -> Self {
        let mut s = Self::default();
        s.resize(len);
        s
    }

    /// Resize every array to `len` (existing prefix kept, growth zeroed;
    /// every repetition rewrites each array before reading it).
    pub fn resize(&mut self, len: usize) {
        for v in &mut self.0 {
            v.resize_zeroed(len);
        }
    }

    /// The arrays, as [`eos_step`] takes them.
    fn arrays(&mut self) -> [&mut [Real]; EOS_ARRAYS] {
        self.0.each_mut().map(|v| &mut v[..])
    }
}

/// Run loop `step` of the reference ladder over the region list `elems`,
/// on its region-length `arrays` (`vnewc` is mesh-length). The arrays are,
/// in order: the gathered old e, delv, p, q, qq and ql; the full- and
/// half-step compressions; the external work; the new p, e and q; `bvc`,
/// `pbvc`; and the half-step pressure.
pub fn eos_step(
    step: EosStep,
    d: &Domain,
    p: &Params,
    vnewc: &[Real],
    elems: &[Index],
    arrays: [&mut [Real]; EOS_ARRAYS],
) {
    let rho0 = p.refdens;
    let [e_old, delvc, p_old, q_old, qq_old, ql_old, comp, comp_half, work, p_new, e_new, q_new, bvc, pbvc, p_half] =
        arrays;
    match step {
        EosStep::Gather => eos_gather(d, elems, e_old, delvc, p_old, q_old, qq_old, ql_old),
        EosStep::Compression => eos_compression(elems, vnewc, delvc, comp, comp_half),
        EosStep::ClampCompression => {
            eos_clamp_compression(elems, vnewc, p.eosvmin, p.eosvmax, comp, comp_half, p_old)
        }
        EosStep::ZeroWork => work.fill(0.0),
        EosStep::Energy1 => energy_step1(e_new, e_old, delvc, p_old, q_old, work, p.emin),
        EosStep::PressureHalfStep => calc_pressure_for_elems(
            p_half, bvc, pbvc, e_new, comp_half, vnewc, elems, p.pmin, p.p_cut, p.eosvmax,
        ),
        EosStep::Energy2 => energy_step2(
            e_new, q_new, comp_half, p_half, bvc, pbvc, delvc, p_old, q_old, ql_old, qq_old, rho0,
        ),
        EosStep::Energy3 => energy_step3(e_new, work, p.e_cut, p.emin),
        EosStep::Pressure => calc_pressure_for_elems(
            p_new, bvc, pbvc, e_new, comp, vnewc, elems, p.pmin, p.p_cut, p.eosvmax,
        ),
        EosStep::Energy4 => energy_step4(
            e_new, delvc, p_old, q_old, p_half, q_new, p_new, bvc, pbvc, ql_old, qq_old, vnewc,
            elems, rho0, p.e_cut, p.emin,
        ),
        EosStep::Energy5 => energy_step5(
            q_new, delvc, pbvc, e_new, vnewc, elems, bvc, p_new, ql_old, qq_old, rho0, p.q_cut,
        ),
        EosStep::Store => eos_store(d, elems, p_new, e_new, q_new),
        EosStep::SoundSpeed => {
            calc_sound_speed_for_elems(d, vnewc, rho0, e_new, p_new, pbvc, bvc, elems)
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
fn eos_gather(
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
fn eos_compression(
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
fn eos_clamp_compression(
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
fn calc_pressure_for_elems(
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
fn energy_step1(
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
fn energy_step2(
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
fn energy_step3(e_new: &mut [Real], work: &[Real], e_cut: Real, emin: Real) {
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
fn energy_step4(
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
fn energy_step5(
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

/// Scatter the new state back to the mesh.
fn eos_store(d: &Domain, elems: &[Index], p_new: &[Real], e_new: &[Real], q_new: &[Real]) {
    for (i, &z) in elems.iter().enumerate() {
        d.set_p(z, p_new[i]);
        d.set_e(z, e_new[i]);
        d.set_q(z, q_new[i]);
    }
}

/// `CalcSoundSpeedForElems`.
#[allow(clippy::too_many_arguments)]
fn calc_sound_speed_for_elems(
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
/// repetition loop, ending with the store and sound-speed update. `rep`
/// must be at least 1 ([`crate::regions::rep_for`] never returns less).
///
/// At [`LaneWidth::W1`] this is the scalar reference
/// [`eval_eos_for_elems_scalar`]. At the lane widths each repetition runs
/// the lane walk (`simd::walk`) on the host's ISA, at w8 on an AVX-512
/// host on the 4-lane AVX2 pack (the kernel pins it): the fused
/// per-element pipeline (gather → compression → energy steps → pressure →
/// sound speed) in registers, never touching `s`, bit-identical to the
/// reference. The repetition loop stays outermost like the reference (the
/// recomputation is idempotent), and only the last repetition stores.
pub fn eval_eos_for_elems(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    rep: usize,
    p: &Params,
    s: &mut EosScratch,
) {
    debug_assert!(rep >= 1, "EvalEOSForElems needs at least one repetition");
    if simd::active() == LaneWidth::W1 {
        return eval_eos_for_elems_scalar(d, vnewc, elems, rep, p, s);
    }
    let mut k = Eos {
        d,
        vnewc,
        elems,
        p,
        store: false,
    };
    for r in 0..rep {
        k.store = r + 1 == rep;
        simd::walk(&mut k, 0, elems.len());
    }
}

/// Scalar reference implementation of [`eval_eos_for_elems`]: the loops of
/// [`ladder`] one after another on `s`.
pub fn eval_eos_for_elems_scalar(
    d: &Domain,
    vnewc: &[Real],
    elems: &[Index],
    rep: usize,
    p: &Params,
    s: &mut EosScratch,
) {
    s.resize(elems.len());
    for step in ladder(rep) {
        eos_step(step, d, p, vnewc, elems, s.arrays());
    }
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

/// The arguments of one lane repetition of [`eval_eos_for_elems`]: the
/// walk runs over positions in the region list `elems`, and `store` marks
/// the last repetition.
struct Eos<'a> {
    d: &'a Domain,
    vnewc: &'a [Real],
    elems: &'a [Index],
    p: &'a Params,
    store: bool,
}

impl LaneKernel for Eos<'_> {
    /// The walk gathers every input through the region list, so an 8-lane
    /// group gathers twice the lanes and leaves longer scalar tails: EOS
    /// ran 2.32 → 3.69 ms per iteration at s45 on the AVX-512 pack against
    /// the AVX2 one (EXPERIMENTS.md, "AVX-512 pack and row loads").
    const PIN_AVX2: bool = true;

    /// Gather the seven inputs, run the fused kernel, and on the last
    /// repetition scatter the four outputs.
    #[inline(always)]
    fn group<P: Pack>(&mut self, i0: usize) {
        let Self {
            d,
            vnewc,
            elems,
            p,
            store,
        } = *self;
        let idx = |l: usize| elems[i0 + l];
        let vz = P::gather(|l| vnewc[idx(l)]);
        let e_old = P::gather(|l| d.e(idx(l)));
        let delvc = P::gather(|l| d.delv(idx(l)));
        let p_old = P::gather(|l| d.p(idx(l)));
        let q_old = P::gather(|l| d.q(idx(l)));
        let qq_old = P::gather(|l| d.qq(idx(l)));
        let ql_old = P::gather(|l| d.ql(idx(l)));

        let (p_new, e_new, q_new, ss) =
            eos_elem_kernel(vz, e_old, delvc, p_old, q_old, qq_old, ql_old, p, p.refdens);

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{assert_bits_eq, seeded_domain};
    use crate::simd::Leg;

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

    /// EOS state designed to hit every branch: mixed-sign `delv` (the
    /// `q = 0` expansion path), tiny and negative energies
    /// (`e_cut`/`emin`), and small q terms (`q_cut`). The sound speed, the
    /// one output the EOS does not also read, is poisoned with NaN.
    fn seeded_eos_domain() -> Domain {
        let d = seeded_domain();
        for e in 0..d.num_elem() {
            d.set_ss(e, Real::NAN);
            d.set_e(e, (e as Real * 0.37).sin() * 2.0);
            d.set_vnew(e, 0.6 + 0.5 * (e as Real * 0.17).cos().abs());
            d.set_delv(e, 0.2 * (e as Real * 0.53).sin());
            d.set_ql(e, (e as Real * 0.19).sin().abs() * 0.05);
            d.set_qq(e, (e as Real * 0.23).cos().abs() * 0.05);
        }
        d.set_e(1, 0.0); // exact zero: p_cut/e_cut paths
        d.set_e(2, -2.0e15); // emin floor
        d.set_delv(3, 0.0); // boundary of the delv > 0 branch
        d
    }

    fn outputs(d: &Domain) -> Vec<Real> {
        (0..d.num_elem())
            .flat_map(|i| [d.p(i), d.e(i), d.q(i), d.ss(i)])
            .collect()
    }

    /// Every region of a seeded domain through `run(d, vnewc, elems, rep)`.
    fn by_region(rep: usize, run: impl Fn(&Domain, &[Real], &[Index], usize)) -> Vec<Real> {
        let d = seeded_eos_domain();
        let vnewc: Vec<Real> = (0..d.num_elem()).map(|e| d.vnew(e)).collect();
        for elems in &d.regions.reg_elem_list {
            run(&d, &vnewc, elems, rep);
        }
        outputs(&d)
    }

    #[test]
    fn every_leg_matches_the_ladder_bitwise() {
        let p = Params::default();
        // The rep loop re-runs the whole pipeline; results must not
        // depend on it.
        for rep in [1, 3] {
            let ladder = by_region(rep, |d, vnewc, elems, rep| {
                let mut s = EosScratch::new(elems.len());
                eval_eos_for_elems_scalar(d, vnewc, elems, rep, &p, &mut s);
            });
            for leg in Leg::all() {
                let lanes = by_region(rep, |d, vnewc, elems, rep| {
                    let mut k = Eos {
                        d,
                        vnewc,
                        elems,
                        p: &p,
                        store: false,
                    };
                    for r in 0..rep {
                        k.store = r + 1 == rep;
                        leg.walk(&mut k, 0, elems.len());
                    }
                });
                assert_bits_eq(&lanes, &ladder, &format!("eos {leg} rep {rep}"));
            }
            // The dispatcher, at whatever width is active.
            let dispatch = by_region(rep, |d, vnewc, elems, rep| {
                eval_eos_for_elems(d, vnewc, elems, rep, &p, &mut EosScratch::new(0));
            });
            assert_bits_eq(&dispatch, &ladder, &format!("eos dispatch rep {rep}"));
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
