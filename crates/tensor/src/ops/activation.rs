//! Element-wise activations and the softmax used inside attention.

use crate::error::{invalid_argument, Result};
use crate::tensor::Tensor;

/// Scalar relu. The single definition shared by [`relu`] and the fused
/// kernel epilogues, so a fused `conv+relu` is bit-identical to the
/// two-pass form by construction.
#[inline]
pub(crate) fn relu_scalar(x: f32) -> f32 {
    if x < 0.0 {
        0.0
    } else {
        x
    }
}

// GELU (tanh approximation) in its algebraically equal sigmoid form,
//
//     gelu(x) = 0.5·x·(1 + tanh(u)) = x / (1 + exp(-2u)),
//     u = √(2/π)·(x + 0.044715·x³),
//
// with `exp` evaluated in-crate: Cody–Waite range reduction
// `z = n·ln2 + r` (|r| ≤ ln2/2), the Cephes `expf` polynomial in `r`,
// and a 2ⁿ scale assembled in the exponent bits. The scalar twin
// [`gelu_scalar`] and the AVX2 kernel [`gelu_avx2`] run the same
// sequence of IEEE mul/add/sub/div/compare operations (no FMA), lane
// for lane, so they agree bit for bit: the fused GEMM/conv epilogue
// (scalar) equals the standalone pass (vector). The accuracy contract
// against the f64 oracle `reference::gelu` is the `Activation` class
// bound, stated in ULPs of the input.

/// `0.044715`, the cubic coefficient of the tanh approximation.
const GELU_CUBIC: f32 = 0.044_715;
/// `-2·√(2/π)`: `-2u = GELU_NEG_2C · (x + 0.044715·x³)`.
const GELU_NEG_2C: f32 = -1.595_769;
/// `exp`'s argument is clamped to `[EXP_LO, EXP_HI]`. Every `z` whose
/// rounded `z·log2(e)` reaches 128 gets `2ⁿ = +inf` (so `exp(+inf)` is
/// `+inf` and `gelu(-inf)` is NaN, as in the oracle); every `z` whose
/// rounded `z·log2(e)` reaches -127 gets `2ⁿ = +0` (so `1 + exp(z)` is
/// exactly 1).
const EXP_HI: f32 = 89.0;
const EXP_LO: f32 = -88.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5·2²³`: adding it rounds `z·log2(e)` to the nearest integer `n`
/// and leaves `n` in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split so that `n·LN2_HI` is exact for `|n| ≤ 128`: `LN2_HI`
/// is 355/512 exactly.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` coefficients, highest order first:
/// `exp(r) ≈ 1 + r + r²·P(r)` (the last, 0.50000001, is 0.5 in f32).
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// Scalar GELU, the bit-identical twin of one [`gelu_avx2`] lane. Used
/// by the fused kernel epilogues, by [`gelu_into`] when AVX2 is
/// unavailable (non-x86, Miri) and for the tail shorter than one vector.
/// `min`/`max` are written as the compares `_mm256_min_ps`/`_mm256_max_ps`
/// perform, so NaN takes the same path in both.
#[inline]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    let x3 = x * x * x;
    let z = GELU_NEG_2C * (x + GELU_CUBIC * x3);
    let z = if z < EXP_HI { z } else { EXP_HI };
    let z = if z > EXP_LO { z } else { EXP_LO };
    let t = z * LOG2E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = z - n * LN2_HI;
    let r = r - n * LN2_LO;
    let mut p = EXP_P[0];
    for c in &EXP_P[1..] {
        p = p * r + c;
    }
    let e = p * (r * r) + r + 1.0;
    // `t`'s low bits hold `n` (in [-127, 128]); `(n + 127) << 23` is 2ⁿ
    // as a float: +0 at n = -127 and +inf at n = 128.
    let pow2 = f32::from_bits(
        (t.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32 + 127).cast_unsigned() << 23,
    );
    x / (e * pow2 + 1.0)
}

/// The AVX2 GELU: eight [`gelu_scalar`] lanes per iteration over the
/// whole-vector prefix of `src`, leaving the tail to the caller.
/// Returns the number of elements written.
///
/// # Safety
///
/// Calling it from code not itself compiled for AVX2 is `unsafe`: the
/// caller must know the CPU supports AVX2
/// (see [`crate::ops::pack::Isa::host`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gelu_avx2(src: &[f32], dst: &mut [f32]) -> usize {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_add_ps, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_div_ps,
        _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_set1_epi32,
        _mm256_set1_ps, _mm256_slli_epi32, _mm256_storeu_ps, _mm256_sub_ps,
    };
    let bias = _mm256_set1_epi32(127 - ROUND_MAGIC.to_bits() as i32);
    let mut done = 0;
    for (s, d) in src.chunks_exact(8).zip(dst.chunks_exact_mut(8)) {
        // SAFETY: `s` is a `chunks_exact(8)` chunk, so the unaligned
        // 8-float load stays inside it.
        let x = unsafe { _mm256_loadu_ps(s.as_ptr()) };
        let x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
        let inner = _mm256_add_ps(x, _mm256_mul_ps(_mm256_set1_ps(GELU_CUBIC), x3));
        let z = _mm256_mul_ps(_mm256_set1_ps(GELU_NEG_2C), inner);
        let z = _mm256_min_ps(z, _mm256_set1_ps(EXP_HI));
        let z = _mm256_max_ps(z, _mm256_set1_ps(EXP_LO));
        let t = _mm256_add_ps(
            _mm256_mul_ps(z, _mm256_set1_ps(LOG2E)),
            _mm256_set1_ps(ROUND_MAGIC),
        );
        let n = _mm256_sub_ps(t, _mm256_set1_ps(ROUND_MAGIC));
        let r = _mm256_sub_ps(z, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let mut p = _mm256_set1_ps(EXP_P[0]);
        for &c in &EXP_P[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let e = _mm256_mul_ps(p, _mm256_mul_ps(r, r));
        let e = _mm256_add_ps(_mm256_add_ps(e, r), _mm256_set1_ps(1.0));
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_castps_si256(t),
            bias,
        )));
        let y = _mm256_div_ps(
            x,
            _mm256_add_ps(_mm256_mul_ps(e, pow2), _mm256_set1_ps(1.0)),
        );
        // SAFETY: `d` is a `chunks_exact_mut(8)` chunk, so the unaligned
        // 8-float store stays inside it.
        unsafe { _mm256_storeu_ps(d.as_mut_ptr(), y) };
        done += 8;
    }
    done
}

/// Writes `gelu(src[i])` to `dst[i]`: the AVX2 kernel over whole
/// vectors when the CPU has it, the scalar twin otherwise and for the
/// tail. Bit-identical either way, so [`gelu`], the compiled plan's
/// GELU step and the fused `Epilogue::Gelu` all agree.
///
/// # Panics
///
/// Panics when the slices' lengths differ.
pub fn gelu_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "gelu_into over mismatched lengths");
    #[cfg(target_arch = "x86_64")]
    let done = if crate::ops::pack::Isa::host() >= crate::ops::pack::Isa::Avx2 {
        // SAFETY: AVX2 was detected on this CPU, the one precondition of
        // `gelu_avx2`.
        unsafe { gelu_avx2(src, dst) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (d, &x) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = gelu_scalar(x);
    }
}

/// Rectified linear unit, applied element-wise.
///
/// # Examples
///
/// ```
/// use vit_tensor::{Tensor, ops::relu};
/// let t = Tensor::from_vec(vec![-1.0, 0.5], &[2]).unwrap();
/// assert_eq!(relu(&t).data(), &[0.0, 0.5]);
/// ```
pub fn relu(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    for v in out.data_mut() {
        *v = relu_scalar(*v);
    }
    out
}

/// Gaussian error linear unit (tanh approximation), applied element-wise
/// through [`gelu_into`].
///
/// This is the activation used in transformer feed-forward networks.
pub fn gelu(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    gelu_into(input.data(), out.data_mut());
    out
}

/// Numerically-stable softmax over the last dimension.
///
/// # Errors
///
/// Returns [`crate::TensorError::InvalidArgument`] when the tensor has no
/// dimensions or the last dimension is zero.
pub fn softmax_last_dim(input: &Tensor) -> Result<Tensor> {
    let last = *input
        .shape()
        .last()
        .ok_or_else(|| invalid_argument("softmax", "tensor has no dimensions".to_string()))?;
    if last == 0 {
        return Err(invalid_argument(
            "softmax",
            "last dimension is zero".to_string(),
        ));
    }
    let mut out = input.clone();
    let rows = out.numel() / last;
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * last..(r + 1) * last];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives_only() {
        let t = Tensor::from_vec(vec![-3.0, -0.0, 0.0, 2.5], &[4]).unwrap();
        assert_eq!(relu(&t).data(), &[0.0, 0.0, 0.0, 2.5]);
    }

    #[test]
    fn gelu_known_values() {
        let t = Tensor::from_vec(vec![0.0, 1.0, -1.0, 3.0], &[4]).unwrap();
        let g = gelu(&t);
        assert!((g.data()[0] - 0.0).abs() < 1e-6);
        assert!((g.data()[1] - 0.8412).abs() < 1e-3);
        assert!((g.data()[2] - (-0.1588)).abs() < 1e-3);
        // Far in the positive tail, gelu(x) ~= x.
        assert!((g.data()[3] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn gelu_into_is_bit_identical_to_the_scalar_twin() {
        // On an AVX2 CPU (or under Miri with `+avx2`) `gelu_into` runs
        // the intrinsics kernel over whole vectors; every length up to two
        // vectors plus a tail, seeded values and specials must match the
        // scalar twin bit for bit (any NaN matches any NaN).
        const SPECIALS: [f32; 10] = [
            0.0,
            -0.0,
            1e-45,
            -1e-45,
            f32::MAX,
            -f32::MAX,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -10.4,
        ];
        let samples = if cfg!(miri) { 40 } else { 4000 };
        let pool: Vec<f32> = Tensor::rand_uniform(&[samples], -12.0, 12.0, 5)
            .data()
            .iter()
            .copied()
            .chain(SPECIALS)
            .collect();
        for len in 0..=17 {
            for window in pool.windows(len.max(1)).step_by(7) {
                let src = &window[..len];
                let mut got = vec![0.0f32; len];
                gelu_into(src, &mut got);
                for (&x, &y) in src.iter().zip(&got) {
                    let want = gelu_scalar(x);
                    assert!(
                        y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                        "gelu({x:e}) = {y:e} vectorized, {want:e} scalar (len {len})"
                    );
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::rand_uniform(&[3, 7], -5.0, 5.0, 9);
        let s = softmax_last_dim(&t).unwrap();
        for r in 0..3 {
            let sum: f32 = s.data()[r * 7..(r + 1) * 7].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1000.0, 999.0], &[3]).unwrap();
        let s = softmax_last_dim(&t).unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!(s.data()[0] > s.data()[2]);
    }

    #[test]
    fn softmax_preserves_order() {
        let t = Tensor::from_vec(vec![0.1, 2.0, -1.0, 0.5], &[1, 4]).unwrap();
        let s = softmax_last_dim(&t).unwrap();
        let d = s.data();
        assert!(d[1] > d[3] && d[3] > d[0] && d[0] > d[2]);
    }

    #[test]
    fn softmax_rejects_zero_dim() {
        let t = Tensor::zeros(&[3, 0]);
        assert!(softmax_last_dim(&t).is_err());
    }
}
