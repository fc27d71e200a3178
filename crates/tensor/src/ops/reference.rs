//! Reference (oracle) kernels and the per-op-class tolerance registry.
//!
//! The production GEMM/conv kernels (`ops/pack.rs` and `ops/conv.rs`)
//! are cache-blocked and register-tiled. Blocking is
//! *allowed* to reorder floating-point accumulation relative to a naive
//! triple loop, so those kernels are held to a **tolerance contract**
//! against the oracles in this module instead of a bit-identity contract:
//!
//! * **exact tier** — claims between two runs of the *same* kernel
//!   (sequential vs threaded, interpreter vs compiled plan). These remain
//!   bit-identity claims: blocking geometry depends only on shapes and
//!   compile-time constants, never on the thread count.
//! * **tolerance tier** — claims between a production kernel and the
//!   reference oracle here. Each kernel class registers a
//!   [`Tolerance`] bound via [`tolerance`]; the differential suites
//!   assert `max_ulp`/relative error within that bound, and golden pins
//!   in `crates/tensor/tests/kernel_tiers.rs` freeze the *measured*
//!   error so a kernel change that widens it fails loudly.
//!
//! The oracles are the pre-blocking naive loops with two deliberate
//! semantic fixes, both of which make the oracle *stricter* about IEEE
//! edge cases:
//!
//! * the historical `matmul` zero-skip (`if av == 0.0 { continue; }`) is
//!   gone: skipping suppresses NaN/Inf propagation from the other operand
//!   (`0.0 * inf = NaN`, but a skipped term contributes nothing), which
//!   can hide exactly the corruptions the fault-detection output guards
//!   exist to catch;
//! * a missing bias no longer contributes a literal `+ 0.0`: the no-bias
//!   path stores the raw accumulator, so each output element is exactly
//!   the sequential dot-product chain the packed kernels' register
//!   accumulators compute — the exact-tier bitwise claims are provable
//!   term-for-term instead of holding only up to an extra identity add.
//!
//! The memory-op oracles ([`bilinear_resize`], [`argmax_channels`]) are
//! the original per-pixel loops, kept verbatim: their production kernels
//! are restructured for locality (separable rows, channel-outer planes)
//! but stay in the exact tier, bit-identical to these loops.
//!
//! The attention oracle ([`sdpa`]) is the head-split permute / `bmm` /
//! softmax formulation the interpreter ran before attention was fused;
//! [`crate::ops::sdpa_into`] keeps its per-element operation order and
//! is held to it bit for bit.
//!
//! The GELU oracle ([`gelu`]) evaluates the production kernel's formula,
//! `x / (1 + exp(-2u))`, in f64 and rounds once; the reference linear and
//! conv loops apply it as their GELU epilogue too, so a reference-mode
//! run never reaches the production f32 `exp`. Its class
//! ([`KernelClass::Activation`]) bounds the error in ULPs of the input.

use crate::error::{invalid_shape, Result};
use crate::ops::conv::{conv_geometry, ConvGeom};
use crate::ops::fused::Epilogue;
use crate::ops::resize::resize_dims;
use crate::ops::Conv2dParams;
use crate::tensor::Tensor;

/// The kernel classes the tolerance tier registers bounds for. A plan
/// record whose [`ExecContract`] declares FP reassociation must map to
/// one of these classes or `vit-verify`'s V056 lint fires: reassociation
/// outside the tolerance tier has no oracle and no bound.
///
/// [`ExecContract`]: https://docs.rs/vit-plan
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Packed-panel matrix multiplication: `matmul`, `linear`
    /// (and the plan-time `PackedLinear`).
    Gemm,
    /// im2col + packed GEMM convolution (the `PackedConv2d` GEMM path;
    /// the direct single-input-channel path is exact-tier).
    Conv,
    /// Transcendental elementwise activations: GELU, whose in-crate
    /// `exp` approximation ([`crate::ops::gelu`]) is held against the
    /// f64 oracle [`gelu`] with an input-scaled bound.
    Activation,
}

/// The error bound one kernel class is held to against its oracle.
///
/// For the output-scaled classes (Gemm, Conv) a comparison passes when
/// **either** bound holds per element ([`within_tolerance`]): ULP
/// distance covers the normal range, the relative bound covers the
/// near-zero range where a fixed ULP count is vacuously tight.
///
/// The elementwise Activation class is input-scaled instead
/// ([`max_input_ulp`]): `|y − y_ref| ≤ max_input_ulp · ulp(x)`. GELU's
/// output feeds the next GEMM at its input's scale, and any output-ULP
/// or relative bound is unbounded in its negative tail for *every* f32
/// kernel: the rounding of `u = √(2/π)·(x + 0.044715·x³)` alone is
/// amplified by `2|u|` in `exp(-2u)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum units-in-the-last-place distance per element (0 for an
    /// input-scaled class).
    pub max_ulp: u32,
    /// Maximum relative error per element (0 for an input-scaled class).
    pub max_rel: f32,
    /// Maximum absolute error per element in ULPs of that element's
    /// input (0 for an output-scaled class).
    pub max_input_ulp: u32,
}

/// The registered per-op-class tolerance bound.
///
/// These are *contractual headroom* for blocked kernels, not measured
/// error: the current kernels keep each output element's accumulation
/// k-sequential (blocking reorders loops, not per-element adds), so the
/// measured distance is 0 ULP on finite inputs and the golden pins in
/// `kernel_tiers.rs` hold it there. The bound is what a future kernel
/// (k-split SIMD reductions, FMA contraction) may legally spend.
///
/// The Activation bound is headroom over measured error, too: over all
/// 2³² inputs the f32 GELU is within 2 ULPs of its input of the f64
/// oracle (the pin in `kernel_tiers.rs`), as was the libm-`tanh` form it
/// replaced, which exceeded one ULP of its input on about four times as
/// many inputs.
pub fn tolerance(class: KernelClass) -> Tolerance {
    match class {
        KernelClass::Gemm => Tolerance {
            max_ulp: 4,
            max_rel: 1e-6,
            max_input_ulp: 0,
        },
        KernelClass::Conv => Tolerance {
            max_ulp: 8,
            max_rel: 1e-6,
            max_input_ulp: 0,
        },
        KernelClass::Activation => Tolerance {
            max_ulp: 0,
            max_rel: 0.0,
            max_input_ulp: 4,
        },
    }
}

/// ULP distance between two `f32`s: the absolute difference of their
/// lexicographic encodings (sign-magnitude mapped to a monotone integer
/// line), so adjacent floats differ by 1 and `-0.0`/`+0.0` — numerically
/// equal — are distance 0.
///
/// Two NaNs are distance 0 (both kernels agree the value is invalid); a
/// NaN against a non-NaN is `u32::MAX` (never within any tolerance).
pub fn ulp_diff(a: f32, b: f32) -> u32 {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => return 0,
        (false, false) => {}
        _ => return u32::MAX,
    }
    let lex = |x: f32| {
        let bits = x.to_bits() as i32;
        // Map sign-magnitude to a monotone line: negative floats flip to
        // descending-below-zero, so ordering matches numeric ordering.
        (if bits < 0 { i32::MIN - bits } else { bits }) as i64
    };
    let d = (lex(a) - lex(b)).unsigned_abs();
    u32::try_from(d).unwrap_or(u32::MAX)
}

/// Bitwise equality of two slices, except that any NaN matches any NaN:
/// the unit tests' check that two kernels of one tier agree.
#[cfg(test)]
pub(crate) fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// The maximum [`ulp_diff`] over two equal-length slices.
///
/// # Panics
///
/// Panics when the slices' lengths differ — a shape mismatch is a test
/// bug, not a numeric difference.
pub fn max_ulp(a: &[f32], b: &[f32]) -> u32 {
    assert_eq!(a.len(), b.len(), "max_ulp over mismatched lengths");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ulp_diff(x, y))
        .max()
        .unwrap_or(0)
}

/// Whether every element pair is within `tol` (ULP **or** relative
/// bound; see [`Tolerance`]).
pub fn within_tolerance(a: &[f32], b: &[f32], tol: Tolerance) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| {
            ulp_diff(x, y) <= tol.max_ulp || {
                let denom = x.abs().max(y.abs());
                denom.is_finite() && denom > 0.0 && (x - y).abs() / denom <= tol.max_rel
            }
        })
}

/// The spacing of `f32`s at `|x|`: `2^(e - 23)` for a normal `x` with
/// exponent `e`, `2^-149` for zero and subnormals, `+inf` for NaN and
/// infinities.
fn ulp(x: f32) -> f64 {
    if !x.is_finite() {
        return f64::INFINITY;
    }
    let biased = ((x.to_bits() >> 23) & 0xff) as i32;
    2f64.powi(biased.max(1) - 150)
}

/// The error of `got` against `want` in ULPs of the input `x`:
/// `|got − want| / ulp(x)`. Two NaNs, or equal values (infinities and
/// signed zeros included), are 0; any other mismatch involving a NaN or
/// an infinity is `+inf`.
fn input_ulp_error(x: f32, got: f32, want: f32) -> f64 {
    if got == want || (got.is_nan() && want.is_nan()) {
        return 0.0;
    }
    if !got.is_finite() || !want.is_finite() {
        return f64::INFINITY;
    }
    (f64::from(got) - f64::from(want)).abs() / ulp(x)
}

/// The maximum input-ULP error, `|got − want| / ulp(x)`, over three
/// equal-length slices: inputs, kernel outputs and oracle outputs.
///
/// # Panics
///
/// Panics when the slices' lengths differ.
pub fn max_input_ulp(x: &[f32], got: &[f32], want: &[f32]) -> f64 {
    assert!(
        x.len() == got.len() && got.len() == want.len(),
        "max_input_ulp over mismatched lengths"
    );
    x.iter()
        .zip(got)
        .zip(want)
        .map(|((&x, &g), &w)| input_ulp_error(x, g, w))
        .fold(0.0, f64::max)
}

/// The GELU oracle for one element: `x / (1 + exp(-2u))`, the same
/// formula as [`crate::ops::gelu`], evaluated in f64 with libm `exp`
/// and rounded to f32 once.
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    let x = f64::from(x);
    let u = (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044_715 * x * x * x);
    (x / (1.0 + (-2.0 * u).exp())) as f32
}

/// The oracle form of a fused epilogue: GELU through [`gelu_scalar`],
/// the others as the production epilogue computes them (they are exact).
fn epilogue(ep: Epilogue, x: f32) -> f32 {
    match ep {
        Epilogue::Gelu => gelu_scalar(x),
        other => other.apply(x),
    }
}

/// Computes output rows of one `[m, k] x [k, n]` product into `od`, the
/// contiguous slice for rows `[row0, row0 + od.len() / n)` — the naive
/// i-k-j oracle loop. No zero-skip: a `0.0` in `a` still multiplies its
/// `b` row, so NaN/Inf corruption in either operand propagates.
pub(crate) fn matmul_rows(ad: &[f32], bd: &[f32], od: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = od.len() / n.max(1);
    for row in 0..rows {
        let i = row0 + row;
        for kk in 0..k {
            let av = ad[i * k + kk];
            let brow = &bd[kk * n..(kk + 1) * n];
            let orow = &mut od[row * n..(row + 1) * n];
            for j in 0..n {
                orow[j] += av * brow[j];
            }
        }
    }
}

/// Computes output rows `[row0, row0 + od.len() / out_features)` of a
/// linear layer into `od` — one sequential dot product per output
/// element, `ep` applied at the final store. A missing bias contributes
/// nothing (not `+ 0.0`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn linear_rows(
    xd: &[f32],
    wd: &[f32],
    bd: Option<&[f32]>,
    od: &mut [f32],
    row0: usize,
    in_features: usize,
    out_features: usize,
    ep: Epilogue,
) {
    for (row, orow) in od.chunks_mut(out_features.max(1)).enumerate() {
        let r = row0 + row;
        let xrow = &xd[r * in_features..(r + 1) * in_features];
        for (o, orow_o) in orow.iter_mut().enumerate() {
            let wrow = &wd[o * in_features..(o + 1) * in_features];
            let mut acc = 0.0;
            for (xi, wi) in xrow.iter().zip(wrow.iter()) {
                acc += xi * wi;
            }
            let v = match bd {
                Some(bd) => acc + bd[o],
                None => acc,
            };
            *orow_o = epilogue(ep, v);
        }
    }
}

/// Computes output channel-planes `[row0, row0 + rows)` of the flattened
/// `(batch, out_channel)` axis into `od` — the naive oracle loop: one
/// sequentially-accumulated dot product per output element in
/// `(ci, ry, sx)` order, out-of-bounds taps skipped (never materialized
/// as zeros), `ep` applied at the final store.
pub(crate) fn conv2d_rows(
    xd: &[f32],
    wd: &[f32],
    bd: Option<&[f32]>,
    od: &mut [f32],
    row0: usize,
    g: ConvGeom,
    ep: Epilogue,
) {
    let plane = g.oh * g.ow;
    if plane == 0 {
        return;
    }
    let rows = od.len() / plane;
    for row in 0..rows {
        let (b, ko) = ((row0 + row) / g.k, (row0 + row) % g.k);
        let c_start = (ko / g.k_per_g) * g.c_per_g;
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let mut acc = 0.0f32;
                for ci in 0..g.c_per_g {
                    let cin = c_start + ci;
                    for ry in 0..g.r {
                        let iy = oy * g.p.stride_h + ry;
                        if iy < g.p.pad_h || iy >= g.h + g.p.pad_h {
                            continue;
                        }
                        let iy = iy - g.p.pad_h;
                        let wrow = (ko * g.c_per_g + ci) * g.r + ry;
                        for sx in 0..g.s {
                            let ix = ox * g.p.stride_w + sx;
                            if ix < g.p.pad_w || ix >= g.w + g.p.pad_w {
                                continue;
                            }
                            let ix = ix - g.p.pad_w;
                            acc +=
                                xd[((b * g.c + cin) * g.h + iy) * g.w + ix] * wd[wrow * g.s + sx];
                        }
                    }
                }
                let v = match bd {
                    Some(bd) => acc + bd[ko],
                    None => acc,
                };
                od[row * plane + oy * g.ow + ox] = epilogue(ep, v);
            }
        }
    }
}

/// Reference `[m, k] x [k, n]` matrix product (sequential naive loop).
///
/// # Errors
///
/// Returns the same validation errors as [`crate::ops::matmul`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = crate::ops::matmul::validate_matmul(a, b)?;
    let mut out = Tensor::zeros(&[m, n]);
    matmul_rows(a.data(), b.data(), out.data_mut(), 0, k, n);
    Ok(out)
}

/// Batched matrix product `[b, m, k] x [b, k, n]` (sequential naive
/// loop) of shapes the caller has validated: the attention oracle's
/// building block.
fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    let (batch, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let n = b.shape()[2];
    let mut out = Tensor::zeros(&[batch, m, n]);
    let (per_a, per_b, per_o) = (m * k, k * n, m * n);
    for bi in 0..batch {
        matmul_rows(
            &a.data()[bi * per_a..(bi + 1) * per_a],
            &b.data()[bi * per_b..(bi + 1) * per_b],
            &mut out.data_mut()[bi * per_o..(bi + 1) * per_o],
            0,
            k,
            n,
        );
    }
    out
}

/// Reference linear layer (sequential naive dot products).
///
/// # Errors
///
/// Returns the same validation errors as [`crate::ops::linear`].
pub fn linear(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    let (out_shape, in_features, out_features) =
        crate::ops::matmul::validate_linear(input, weight, bias)?;
    let mut out = Tensor::zeros(&out_shape);
    linear_rows(
        input.data(),
        weight.data(),
        bias.map(Tensor::data),
        out.data_mut(),
        0,
        in_features,
        out_features,
        Epilogue::None,
    );
    Ok(out)
}

/// Reference 2-D convolution (sequential naive accumulation).
///
/// # Errors
///
/// Returns the same validation errors as [`crate::ops::conv2d`].
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Result<Tensor> {
    let (geom, n) = conv_geometry(input, weight, bias, p)?;
    let mut out = Tensor::zeros(&[n, geom.k, geom.oh, geom.ow]);
    conv2d_rows(
        input.data(),
        weight.data(),
        bias.map(Tensor::data),
        out.data_mut(),
        0,
        geom,
        Epilogue::None,
    );
    Ok(out)
}

/// Reference GELU (tanh approximation), element by element in f64.
/// [`crate::ops::gelu`] is held to the [`KernelClass::Activation`]
/// bound against it.
pub fn gelu(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    for v in out.data_mut() {
        *v = gelu_scalar(*v);
    }
    out
}

/// Reference scaled-dot-product attention: the head-split formulation
/// [`crate::ops::sdpa_into`] must match bit for bit. q/k/v are permuted
/// into `[batch · heads, tokens, head_dim]` copies, the scores are one
/// batched naive product against the transposed keys scaled by
/// `1 / sqrt(head_dim)`, rows go through
/// [`crate::ops::softmax_last_dim`], and a second batched product with
/// the values is permuted back to `[batch, n, dv]`.
///
/// # Errors
///
/// Returns the validation errors of [`crate::ops::SdpaShape::new`].
pub fn sdpa(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Result<Tensor> {
    let s = crate::ops::SdpaShape::new(q.shape(), k.shape(), v.shape(), heads)?;
    let (hd, hdv) = (s.d / heads, s.dv / heads);
    let split = |x: &Tensor, tokens: usize, hdim: usize| -> Result<Tensor> {
        x.reshape(&[s.batch, tokens, heads, hdim])?
            .permute(&[0, 2, 1, 3])?
            .reshape(&[s.batch * heads, tokens, hdim])
    };
    let qh = split(q, s.n, hd)?;
    let kt = split(k, s.m, hd)?.permute(&[0, 2, 1])?;
    let vh = split(v, s.m, hdv)?;
    let scores = bmm(&qh, &kt).scale(1.0 / (hd as f32).sqrt());
    let probs = crate::ops::softmax_last_dim(&scores)?;
    bmm(&probs, &vh)
        .reshape(&[s.batch, heads, s.n, hdv])?
        .permute(&[0, 2, 1, 3])?
        .reshape(&[s.batch, s.n, s.dv])
}

/// Reference bilinear resize (`align_corners = false`): the per-pixel
/// loop that recomputes both source coordinates for every output element.
/// [`crate::ops::bilinear_resize_into`] must match it bit for bit.
///
/// # Errors
///
/// Returns the same validation errors as [`crate::ops::bilinear_resize`].
pub fn bilinear_resize(input: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (n, c, h, w) = resize_dims(input, out_h, out_w)?;
    if h == out_h && w == out_w {
        return Ok(input.clone());
    }
    let mut out = Tensor::zeros(&[n, c, out_h, out_w]);
    let xd = input.data();
    let od = out.data_mut();
    let scale_y = h as f32 / out_h as f32;
    let scale_x = w as f32 / out_w as f32;
    for p in 0..n * c {
        let (base_in, base_out) = (p * h * w, p * out_h * out_w);
        for oy in 0..out_h {
            // align_corners = false source coordinate.
            let sy = ((oy as f32 + 0.5) * scale_y - 0.5).max(0.0);
            let y0 = (sy.floor() as usize).min(h - 1);
            let y1 = (y0 + 1).min(h - 1);
            let fy = sy - y0 as f32;
            for ox in 0..out_w {
                let sx = ((ox as f32 + 0.5) * scale_x - 0.5).max(0.0);
                let x0 = (sx.floor() as usize).min(w - 1);
                let x1 = (x0 + 1).min(w - 1);
                let fx = sx - x0 as f32;
                let v00 = xd[base_in + y0 * w + x0];
                let v01 = xd[base_in + y0 * w + x1];
                let v10 = xd[base_in + y1 * w + x0];
                let v11 = xd[base_in + y1 * w + x1];
                let top = v00 + (v01 - v00) * fx;
                let bot = v10 + (v11 - v10) * fx;
                od[base_out + oy * out_w + ox] = top + (bot - top) * fy;
            }
        }
    }
    Ok(out)
}

/// Reference per-pixel argmax over the channel axis of an NCHW tensor:
/// each pixel strides across every channel plane, keeping the first
/// channel that is strictly greater than the running best (so ties go to
/// the lowest channel and NaN never wins). [`Tensor::argmax_channels`]
/// must match it exactly.
///
/// # Errors
///
/// Returns [`crate::TensorError::InvalidShape`] when the tensor is not
/// rank 4.
pub fn argmax_channels(x: &Tensor) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(invalid_shape(
            "argmax_channels",
            format!("expected NCHW rank-4 tensor, got {:?}", x.shape()),
        ));
    }
    let s = x.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let mut out = Tensor::zeros(&[n, h, w]);
    for b in 0..n {
        for px in 0..h * w {
            let mut best = f32::NEG_INFINITY;
            let mut best_c = 0usize;
            for ch in 0..c {
                let v = x.data()[(b * c + ch) * h * w + px];
                if v > best {
                    best = v;
                    best_c = ch;
                }
            }
            out.data_mut()[b * h * w + px] = best_c as f32;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_orders_the_float_line() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(-0.0, 0.0), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(-1.0, f32::from_bits((-1.0f32).to_bits() + 1)), 1);
        assert_eq!(ulp_diff(f32::NAN, f32::NAN), 0);
        assert_eq!(ulp_diff(f32::NAN, 1.0), u32::MAX);
        // Symmetric.
        assert_eq!(ulp_diff(2.5, -3.75), ulp_diff(-3.75, 2.5));
    }

    #[test]
    fn within_tolerance_accepts_either_bound() {
        let tol = Tolerance {
            max_ulp: 2,
            max_rel: 1e-6,
            max_input_ulp: 0,
        };
        let a = [1.0f32, 1e20];
        let next = f32::from_bits(1.0f32.to_bits() + 1);
        // 1 ULP passes via the ULP bound; a 1e-7 relative error at 1e20 is
        // astronomically many ULPs but passes via the relative bound.
        let b = [next, 1e20 * (1.0 + 1e-7)];
        assert!(within_tolerance(&a, &b, tol));
        assert!(!within_tolerance(&a, &[next, 2e20], tol));
        assert!(!within_tolerance(&a, &[1.0], tol));
    }

    #[test]
    fn registry_covers_every_class() {
        for class in [KernelClass::Gemm, KernelClass::Conv] {
            let t = tolerance(class);
            assert!(t.max_ulp > 0 && t.max_rel > 0.0 && t.max_input_ulp == 0);
        }
        let t = tolerance(KernelClass::Activation);
        assert!(t.max_input_ulp > 0 && t.max_ulp == 0 && t.max_rel == 0.0);
    }

    #[test]
    fn reference_matmul_propagates_nan_through_zero_rows() {
        // The historical zero-skip hid this: 0.0 * inf must be NaN, not a
        // skipped term. See the corruption regression in kernel_tiers.rs.
        let a = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::INFINITY, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
        let y = matmul(&a, &b).unwrap();
        assert!(y.data()[0].is_nan(), "0 * inf row must surface as NaN");
        assert_eq!(y.data()[1], 0.0);
    }

    #[test]
    fn reference_epilogue_is_the_gelu_oracle() {
        // An identity linear layer with a fused GELU epilogue must store
        // exactly the f64 oracle's value for each input.
        let xs = Tensor::rand_uniform(&[64], -4.0, 4.0, 3);
        let one = Tensor::full(&[1, 1], 1.0);
        let mut out = [0.0f32; 1];
        for &x in xs.data() {
            linear_rows(&[x], one.data(), None, &mut out, 0, 1, 1, Epilogue::Gelu);
            assert_eq!(out[0].to_bits(), gelu_scalar(x).to_bits(), "x = {x}");
        }
    }

    #[test]
    fn reference_linear_propagates_inf_times_zero() {
        // The dot-product chain must evaluate every term: 0.0 * inf is
        // NaN and poisons the whole accumulation, with no bias add to
        // launder it.
        let x = Tensor::from_vec(vec![0.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![f32::INFINITY, 1.0], &[1, 2]).unwrap();
        let y = linear(&x, &w, None).unwrap();
        assert!(
            y.data()[0].is_nan(),
            "0 * inf term must poison the dot product"
        );
    }
}
