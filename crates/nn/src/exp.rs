//! `exp` of `f32` by one fixed recipe, so that training does not depend on the
//! host's libm.
//!
//! The softmax of every training step exponentiates each logit.  libm's
//! `expf` picks its code by CPU — glibc runs one form compiled with fused
//! multiply-adds where the CPU has FMA and another without — and the two
//! disagree (at `x = −63.09946`, for one), so weights trained through it could
//! differ between hosts.  This module computes the FMA form's arithmetic
//! itself, in `f64`:
//!
//! * `k = round(x · 32/ln 2)` and the remainder `r = x · 32/ln 2 − k`, both
//!   from the one product, fused: `k` as `fma(x, 32/ln 2, 1.5 · 2⁵²)` (the
//!   shift leaves the integer in the low bits), `r` as `fma(x, 32/ln 2, −k)`;
//! * `s = 2^(k/32)`: entry `k mod 32` of a 32-entry table of `2^(i/32)` with
//!   `⌊k/32⌋` added to its exponent bits;
//! * `y = s · (C₀r³ + C₁r² + C₂r + 1)`, the cubic as three fused
//!   multiply-adds — `fma(fma(C₀, r, C₁), r², fma(C₂, r, 1))` — and `y`
//!   rounded to `f32` once;
//! * outside the range the cubic covers, the limits: `+0.0` under
//!   `log(2⁻¹⁵⁰)`, `+∞` over `log(2¹²⁸)`, and a NaN for a NaN.
//!
//! Where libm runs its FMA form, that is libm's `expf` bit for bit on every
//! float in `[−104, −0]` — every input a softmax gives it, down to where the
//! result rounds to zero (`exp_matches_libm_on_every_float_from_minus_104_to_zero`,
//! run by CI once in release mode) — and where libm runs the other form it
//! still gives these bits.  The scalar form is that list over `f64::mul_add`;
//! the AVX-512 and AVX2 forms run it on 8 and 4 `f64` lanes, the table as a
//! permute or a gather, and are held to the scalar form on the same sweep.

use crate::kernel::{self, Kernel};

/// Table entries: `2^(k/32)` is `TABLE[k mod 32] + (k << 47)` as `f64` bits,
/// entry `i` holding the bits of `2^(i/32)` less `i << 47`.
#[rustfmt::skip]
const TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000, 0x3fef_d9b0_d315_8574, 0x3fef_b558_6cf9_890f, 0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b, 0x3fef_5487_3168_b9aa, 0x3fef_387a_6e75_6238, 0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715, 0x3fee_f1a7_373a_a9cb, 0x3fee_dea6_4c12_3422, 0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27, 0x3fee_b42b_569d_4f82, 0x3fee_ab07_dd48_5429, 0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd, 0x3fee_9f75_e8ec_5f74, 0x3fee_a114_73eb_0187, 0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db, 0x3fee_b737_b0cd_c5e5, 0x3fee_c491_82a3_f090, 0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad, 0x3fee_ff76_f2fb_5e47, 0x3fef_199b_dd85_529c, 0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487, 0x3fef_7c97_337b_9b5f, 0x3fef_a4af_a2a4_90da, 0x3fef_d076_5b6e_4540,
];

/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: added to a value under `2⁵¹` in magnitude, it leaves that
/// value rounded to an integer in the low bits of the sum.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic's coefficients, scaled for `r` in units of `1/32`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// Under this, `exp` rounds to `+0.0`: `log(2⁻¹⁵⁰)` ≈ −103.97.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Over this, `exp` is `+∞`: `log(2¹²⁸)` ≈ 88.72.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);

/// The recipe for one value (see the module docs).
#[inline(always)]
fn exp_recipe(x: f32) -> f32 {
    if x.is_nan() {
        return x + x;
    }
    if x < UNDERFLOW {
        return 0.0;
    }
    if x > OVERFLOW {
        return f32::INFINITY;
    }
    let xd = f64::from(x);
    let shifted = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = shifted.to_bits();
    let kd = shifted - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let cubic = C0.mul_add(r, C1).mul_add(r * r, C2.mul_add(r, 1.0));
    (cubic * s) as f32
}

/// `v = exp(v − shifts[i])` for every value `v` of every `width`-wide row
/// `i` of `data`, by the recipe, under `kernel`'s form.  `v − shifts[i]` is
/// one `f32` subtraction in every form.
pub(crate) fn exp_shifted_rows(kernel: Kernel, data: &mut [f32], width: usize, shifts: &[f32]) {
    if width == 0 {
        return;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if kernel::avx512_enabled() => unsafe {
            // Safety: AVX-512 F/BW/DQ availability checked at runtime.
            x86::exp_shifted_avx512(data, width, shifts);
        },
        #[cfg(target_arch = "x86_64")]
        Kernel::Vector if kernel::vector_available() => unsafe {
            // Safety: AVX2+FMA availability checked at runtime.
            x86::exp_shifted_avx2(data, width, shifts);
        },
        _ => exp_shifted_scalar_dispatch(data, width, shifts),
    }
}

#[inline(always)]
fn exp_shifted_scalar_body(data: &mut [f32], width: usize, shifts: &[f32]) {
    for (row, &shift) in data.chunks_exact_mut(width).zip(shifts) {
        for v in row {
            *v = exp_recipe(*v - shift);
        }
    }
}

kernel::scalar_dispatch!(
    exp_shifted_scalar_dispatch,
    exp_shifted_scalar_body,
    exp_shifted_scalar_fma,
    (data: &mut [f32], width: usize, shifts: &[f32])
);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{C0, C1, C2, INV_LN2_N, OVERFLOW, SHIFT, TABLE, UNDERFLOW};
    use std::arch::x86_64::*;

    /// The recipe on eight `f64` lanes, the table as two two-register
    /// permutes and a blend on bit 4 of the index.
    #[inline(always)]
    unsafe fn exp8(x: __m256, table: &[__m512i; 4]) -> __m256 {
        let xd = _mm512_cvtps_pd(x);
        let inv = _mm512_set1_pd(INV_LN2_N);
        let shift = _mm512_set1_pd(SHIFT);
        let shifted = _mm512_fmadd_pd(inv, xd, shift);
        let ki = _mm512_castpd_si512(shifted);
        let kd = _mm512_sub_pd(shifted, shift);
        let r = _mm512_fmsub_pd(inv, xd, kd);
        let index = _mm512_and_si512(ki, _mm512_set1_epi64(31));
        let low = _mm512_permutex2var_epi64(table[0], index, table[1]);
        let high = _mm512_permutex2var_epi64(table[2], index, table[3]);
        let upper = _mm512_test_epi64_mask(index, _mm512_set1_epi64(16));
        let t = _mm512_mask_blend_epi64(upper, low, high);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        let z = _mm512_fmadd_pd(_mm512_set1_pd(C0), r, _mm512_set1_pd(C1));
        let y = _mm512_fmadd_pd(_mm512_set1_pd(C2), r, _mm512_set1_pd(1.0));
        let cubic = _mm512_fmadd_pd(z, _mm512_mul_pd(r, r), y);
        _mm512_cvtpd_ps(_mm512_mul_pd(cubic, s))
    }

    /// The recipe on sixteen lanes, the limits blended in.
    #[inline(always)]
    unsafe fn exp16(x: __m512, table: &[__m512i; 4]) -> __m512 {
        let low = exp8(_mm512_castps512_ps256(x), table);
        let high = exp8(_mm512_extractf32x8_ps::<1>(x), table);
        let y = _mm512_insertf32x8::<1>(_mm512_castps256_ps512(low), high);
        let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(UNDERFLOW));
        let y = _mm512_mask_mov_ps(y, under, _mm512_setzero_ps());
        let over = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_set1_ps(OVERFLOW));
        let y = _mm512_mask_mov_ps(y, over, _mm512_set1_ps(f32::INFINITY));
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
        _mm512_mask_add_ps(y, nan, x, x)
    }

    /// Sixteen values of a row at a time, a row's last ones under a mask.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512dq")]
    pub(super) unsafe fn exp_shifted_avx512(data: &mut [f32], width: usize, shifts: &[f32]) {
        let table: [__m512i; 4] =
            std::array::from_fn(|i| _mm512_loadu_si512(TABLE.as_ptr().add(8 * i).cast()));
        for (row, &shift) in data.chunks_exact_mut(width).zip(shifts) {
            let shift = _mm512_set1_ps(shift);
            for chunk in row.chunks_mut(16) {
                let live = ((1u32 << chunk.len()) - 1) as __mmask16;
                let x = _mm512_sub_ps(_mm512_maskz_loadu_ps(live, chunk.as_ptr()), shift);
                _mm512_mask_storeu_ps(chunk.as_mut_ptr(), live, exp16(x, &table));
            }
        }
    }

    /// The recipe on four `f64` lanes, the table as a gather.
    #[inline(always)]
    unsafe fn exp4(x: __m128) -> __m128 {
        let xd = _mm256_cvtps_pd(x);
        let inv = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let shifted = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(shifted);
        let kd = _mm256_sub_pd(shifted, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(TABLE.as_ptr().cast(), index);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
        let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
        let cubic = _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y);
        _mm256_cvtpd_ps(_mm256_mul_pd(cubic, s))
    }

    /// The recipe on eight lanes, the limits blended in.
    #[inline(always)]
    unsafe fn exp8_avx2(x: __m256) -> __m256 {
        let low = exp4(_mm256_castps256_ps128(x));
        let high = exp4(_mm256_extractf128_ps::<1>(x));
        let y = _mm256_set_m128(high, low);
        let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(UNDERFLOW));
        let y = _mm256_blendv_ps(y, _mm256_setzero_ps(), under);
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(OVERFLOW));
        let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan)
    }

    /// Eight values of a row at a time; a row's last ones through a padded
    /// copy.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn exp_shifted_avx2(data: &mut [f32], width: usize, shifts: &[f32]) {
        for (row, &shift) in data.chunks_exact_mut(width).zip(shifts) {
            let shift = _mm256_set1_ps(shift);
            for chunk in row.chunks_mut(8) {
                let mut lanes = [0.0f32; 8];
                lanes[..chunk.len()].copy_from_slice(chunk);
                let x = _mm256_sub_ps(_mm256_loadu_ps(lanes.as_ptr()), shift);
                _mm256_storeu_ps(lanes.as_mut_ptr(), exp8_avx2(x));
                chunk.copy_from_slice(&lanes[..chunk.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::under_each_form;

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Whether libm's `expf` runs its FMA form here — what the recipe is.
    fn libm_is_the_fma_form() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// What the recipe must give for `inputs`: libm where libm runs the FMA
    /// form, the scalar form of the recipe elsewhere.
    fn expected(inputs: &[f32]) -> Vec<u32> {
        if libm_is_the_fma_form() {
            inputs.iter().map(|x| x.exp().to_bits()).collect()
        } else {
            let mut values = inputs.to_vec();
            exp_shifted_rows(Kernel::Scalar, &mut values, inputs.len(), &[0.0]);
            bits(&values)
        }
    }

    /// [`exp_shifted_rows`] of `inputs` as one row shifted by `shift`, under
    /// every form, against `expected` bits.
    fn assert_every_form_gives(inputs: &[f32], shift: f32, expected: &[u32], what: &str) {
        under_each_form(|form| {
            let mut values = inputs.to_vec();
            exp_shifted_rows(kernel::active(), &mut values, inputs.len(), &[shift]);
            let got = bits(&values);
            if let Some(i) = got.iter().zip(expected).position(|(a, b)| a != b) {
                panic!(
                    "{what}, {form}: exp({:e} − {shift:e}) is {:#010x}, expected {:#010x}",
                    inputs[i], got[i], expected[i]
                );
            }
        });
    }

    /// Every float from `−0.0` down to `−104.0` — the range a softmax feeds
    /// `exp` above the point where it is `+0.0` — in every form, against libm
    /// on a host where libm runs its FMA form.  About 1.1 · 10⁹ values: CI
    /// runs it once, in release mode (`cargo test --release -p dm-nn exp_
    /// -- --ignored`).
    #[test]
    #[ignore = "a sweep of 1.1e9 floats; CI runs it once in release mode"]
    fn exp_matches_libm_on_every_float_from_minus_104_to_zero() {
        let (first, last) = ((-0.0f32).to_bits(), (-104.0f32).to_bits());
        let mut inputs = Vec::with_capacity(1 << 16);
        let mut at = first;
        while at <= last {
            let end = last.min(at + (1 << 16) - 1);
            inputs.clear();
            inputs.extend((at..=end).map(f32::from_bits));
            assert_every_form_gives(&inputs, 0.0, &expected(&inputs), "sweep");
            at = end + 1;
        }
    }

    /// One float in 4 099 of `[−110, 90]` — both limits, the positive side
    /// the sweep leaves out, and lanes of every position — every time the
    /// suite runs.
    #[test]
    fn exp_matches_libm_on_a_strided_sample() {
        let inputs: Vec<f32> = (0u32..=u32::MAX)
            .step_by(4_099)
            .map(f32::from_bits)
            .filter(|x| (-110.0..=90.0).contains(x))
            .collect();
        assert!(inputs.len() > 400_000);
        assert_every_form_gives(&inputs, 0.0, &expected(&inputs), "strided sample");
    }

    /// The values the recipe is pinned to, with a shift that is not zero and
    /// a length that leaves a ragged last vector in every form.
    #[test]
    fn exp_pins_the_special_values_and_the_split_point() {
        let cases: [(f32, u32); 9] = [
            (f32::NEG_INFINITY, 0),
            (0.0, 1.0f32.to_bits()),
            (-0.0, 1.0f32.to_bits()),
            // libm's FMA form; its other form rounds this one down, to
            // 0x11fa_2992.
            (-63.099_46, 0x11fa_2993),
            (-104.0, 0),
            (f32::MIN, 0),
            (89.0, f32::INFINITY.to_bits()),
            (f32::INFINITY, f32::INFINITY.to_bits()),
            (1.0, std::f32::consts::E.to_bits()),
        ];
        for (shift, len) in [(0.0f32, 9usize), (0.5, 1), (0.5, 7), (0.5, 17), (0.5, 37)] {
            let mut inputs = Vec::new();
            let mut expected = Vec::new();
            for i in 0..len {
                let (x, y) = cases[i % cases.len()];
                // `(x + shift) − shift` is `x` for every case here (`+0.0`
                // for `−0.0`).
                inputs.push(x + shift);
                expected.push(y);
            }
            assert_every_form_gives(&inputs, shift, &expected, &format!("{len} values"));
            let mut nan = vec![f32::NAN; len];
            under_each_form(|form| {
                exp_shifted_rows(kernel::active(), &mut nan, len, &[shift]);
                assert!(nan.iter().all(|v| v.is_nan()), "NaN, {form}");
            });
        }
    }
}
