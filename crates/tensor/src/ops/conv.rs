//! 2-D convolution kernels (standard, grouped, and depthwise).
//!
//! Two production paths, chosen per call by geometry:
//!
//! * `c_per_g == 1` (depthwise and fully-grouped convs): a **direct**
//!   tap-accumulation kernel. It replays the reference oracle's exact
//!   per-element operation order (taps ascending `(ry, sx)`,
//!   out-of-bounds taps skipped, never materialized as zeros), so it is
//!   bit-identical to [`crate::ops::reference::conv2d`] — exact tier.
//!   Unit-stride planes run on an AVX-512F kernel when the CPU has it: a
//!   block of 4 output rows × 16 output columns accumulates in zmm
//!   registers, and out-of-bounds taps are skipped per lane by a masked
//!   add of a zero-masked load. Other strides, and CPUs without
//!   AVX-512F, run the scalar kernel. The two are bit-identical.
//! * otherwise: **im2col into panel layout + packed GEMM**. The input
//!   window for one `(batch, group)` pair is gathered straight into the
//!   `NR`-wide column-panel layout the micro-kernel consumes (padding
//!   taps become explicit `0.0` entries), and the weight tensor is the
//!   GEMM's row-major left operand as stored. Materializing padding as
//!   `0.0 * w` terms is a reassociation of the oracle's tap-skip, so
//!   this path claims the tolerance tier
//!   ([`crate::ops::reference::tolerance`], class `Conv`). The GEMM's
//!   portable, AVX2 and AVX-512 tiles are bit-identical to each other
//!   (see `ops/pack.rs`), so the ISA tier never changes a result. A
//!   pointwise conv's pack copies whole channel runs and writes every
//!   panel slot, so its scratch needs no zeroing; it can also read a
//!   channel concatenation part by part where the parts lie
//!   ([`ConcatPart`]), planes or token-major, filling the same panels.
//!
//! A third kernel serves compiled plans only: the **token-major
//! depthwise** conv (`token_depthwise_rows`), which reads and writes
//! `[n, h·w, c]` activations directly, with channels on the vector lanes
//! (AVX-512F, or a scalar twin). It keeps the direct path's per-element
//! tap chain, so it too is exact tier.

use crate::error::{invalid_argument, invalid_shape, shape_mismatch, Result};
use crate::ops::fused::Epilogue;
use crate::ops::layout::transpose_block;
use crate::ops::pack::{gemm_rows, packed_len, GemmBias, Isa, Panels, NR};
use crate::par::BufferPool;
use crate::tensor::Tensor;

/// Convolution hyper-parameters.
///
/// Kernel size is carried by the weight tensor; this struct holds stride,
/// padding, and group count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Rows of implicit zero padding on the top and bottom.
    pub pad_h: usize,
    /// Columns of implicit zero padding on the left and right.
    pub pad_w: usize,
    /// Number of groups; `groups == in_channels == out_channels` gives a
    /// depthwise convolution.
    pub groups: usize,
}

impl Conv2dParams {
    /// Unit-stride, unpadded, ungrouped parameters.
    pub fn new() -> Self {
        Conv2dParams {
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 1,
        }
    }

    /// Sets an identical stride in both directions.
    pub fn stride(mut self, s: usize) -> Self {
        self.stride_h = s;
        self.stride_w = s;
        self
    }

    /// Sets identical padding in both directions.
    pub fn pad(mut self, p: usize) -> Self {
        self.pad_h = p;
        self.pad_w = p;
        self
    }

    /// Sets the group count.
    pub fn groups(mut self, g: usize) -> Self {
        self.groups = g;
        self
    }

    /// Output spatial size for an input of `(h, w)` with kernel `(r, s)`.
    ///
    /// Follows the usual floor convention:
    /// `out = (in + 2*pad - kernel) / stride + 1`.
    pub fn out_size(&self, h: usize, w: usize, r: usize, s: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad_h).saturating_sub(r) / self.stride_h + 1;
        let ow = (w + 2 * self.pad_w).saturating_sub(s) / self.stride_w + 1;
        (oh, ow)
    }
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Self::new()
    }
}

/// 2-D convolution.
///
/// `input` is NCHW `[n, c, h, w]`; `weight` is `[k, c/groups, r, s]`;
/// `bias` is `[k]` or `None`. Returns `[n, k, oh, ow]`. Runs sequentially;
/// bit-identical to [`crate::ops::PackedConv2d::run`] without an
/// epilogue, which is the entry point executors tile across a pool.
///
/// # Errors
///
/// Returns an error when channel counts are inconsistent with `groups`, when
/// the kernel is larger than the padded input, or when the bias length is
/// wrong.
///
/// # Examples
///
/// ```
/// use vit_tensor::{Tensor, ops::{conv2d, Conv2dParams}};
/// # fn main() -> Result<(), vit_tensor::TensorError> {
/// // 1x1 convolution acting as a per-pixel channel mix.
/// let x = Tensor::ones(&[1, 3, 2, 2]);
/// let w = Tensor::ones(&[4, 3, 1, 1]);
/// let y = conv2d(&x, &w, None, Conv2dParams::new())?;
/// assert_eq!(y.shape(), &[1, 4, 2, 2]);
/// assert_eq!(y.data()[0], 3.0);
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Result<Tensor> {
    let (geom, n) = conv_geometry(input, weight, bias, p)?;
    let mut out = Tensor::zeros(&[n, geom.k, geom.oh, geom.ow]);
    let (xd, wd, bd) = (input.data(), weight.data(), bias.map(Tensor::data));
    conv2d_rows(xd, wd, bd, out.data_mut(), 0, geom, Epilogue::None, None);
    Ok(out)
}

/// Geometry of one convolution call, shared by every output chunk.
#[derive(Clone, Copy)]
pub(crate) struct ConvGeom {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) k: usize,
    pub(crate) c_per_g: usize,
    pub(crate) k_per_g: usize,
    pub(crate) r: usize,
    pub(crate) s: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) p: Conv2dParams,
}

/// Validates one convolution call and computes its [`ConvGeom`] plus the
/// batch count. Shared by the production kernel, the packed-plan wrapper,
/// and the reference oracle so every path agrees on legality.
pub(crate) fn conv_geometry(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
) -> Result<(ConvGeom, usize)> {
    if input.rank() != 4 || weight.rank() != 4 {
        return Err(invalid_shape(
            "conv2d",
            format!(
                "input and weight must be rank 4, got {:?} and {:?}",
                input.shape(),
                weight.shape()
            ),
        ));
    }
    if p.stride_h == 0 || p.stride_w == 0 {
        return Err(invalid_argument(
            "conv2d",
            "stride must be nonzero".to_string(),
        ));
    }
    if p.groups == 0 {
        return Err(invalid_argument(
            "conv2d",
            "groups must be nonzero".to_string(),
        ));
    }
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (k, c_per_g, r, s) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if c % p.groups != 0 || k % p.groups != 0 {
        return Err(invalid_argument(
            "conv2d",
            format!(
                "channels ({c} in, {k} out) not divisible by groups {}",
                p.groups
            ),
        ));
    }
    if c / p.groups != c_per_g {
        return Err(shape_mismatch(
            "conv2d",
            format!(
                "weight in-channels {} (= {c} / groups {})",
                c / p.groups,
                p.groups
            ),
            format!("{c_per_g}"),
        ));
    }
    if h + 2 * p.pad_h < r || w + 2 * p.pad_w < s {
        return Err(invalid_shape(
            "conv2d",
            format!(
                "kernel {r}x{s} larger than padded input {}x{}",
                h + 2 * p.pad_h,
                w + 2 * p.pad_w
            ),
        ));
    }
    if let Some(b) = bias {
        if b.numel() != k {
            return Err(shape_mismatch(
                "conv2d",
                format!("bias of {k} elements"),
                format!("{:?}", b.shape()),
            ));
        }
    }
    let (oh, ow) = p.out_size(h, w, r, s);
    let geom = ConvGeom {
        c,
        h,
        w,
        k,
        c_per_g,
        k_per_g: k / p.groups,
        r,
        s,
        oh,
        ow,
        p,
    };
    Ok((geom, n))
}

/// The valid `ox` range `[lo, hi)` for a given kernel column `sx`: the
/// output columns whose tap `ox * stride_w + sx` lands inside the
/// unpadded input. Computing the range up front replaces the oracle's
/// per-tap bounds branch without changing which taps contribute.
fn valid_ox_range(sx: usize, g: &ConvGeom) -> (usize, usize) {
    let sw = g.p.stride_w;
    let lo = if sx >= g.p.pad_w {
        0
    } else {
        (g.p.pad_w - sx).div_ceil(sw)
    };
    let hi = if g.w + g.p.pad_w > sx {
        ((g.w + g.p.pad_w - 1 - sx) / sw + 1).min(g.ow)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Direct single-input-channel kernel for whole output planes: replays
/// the oracle's per-element tap order exactly (taps ascending `(ry, sx)`,
/// out-of-bounds taps skipped), so the result is bit-identical to
/// [`crate::ops::reference::conv2d_rows`]. Unit-stride planes run on the
/// AVX-512 kernel when the CPU has it, everything else on the scalar one;
/// the two agree bit for bit.
fn direct_plane_rows(
    xd: &[f32],
    wd: &[f32],
    bd: Option<&[f32]>,
    od: &mut [f32],
    row0: usize,
    g: ConvGeom,
    ep: Epilogue,
) {
    let plane = g.oh * g.ow;
    let taps = g.r * g.s;
    let wide = (g.p.stride_h, g.p.stride_w) == (1, 1) && Isa::host() == Isa::Avx512;
    for (row, orow) in od.chunks_mut(plane).enumerate() {
        let (b, ko) = ((row0 + row) / g.k, (row0 + row) % g.k);
        let cin = ko / g.k_per_g;
        let chan = &xd[(b * g.c + cin) * g.h * g.w..][..g.h * g.w];
        let wk = &wd[ko * taps..(ko + 1) * taps];
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` holds only when `Isa::host()` reported
            // AVX-512F on this CPU, the one precondition of
            // `depthwise_plane_avx512`.
            unsafe { depthwise_plane_avx512(chan, wk, orow, &g) };
        }
        if !wide {
            depthwise_plane(chan, wk, orow, &g);
        }
        match bd {
            Some(bd) => {
                let bias_k = bd[ko];
                for v in orow.iter_mut() {
                    *v = ep.apply(*v + bias_k);
                }
            }
            None => {
                for v in orow.iter_mut() {
                    *v = ep.apply(*v);
                }
            }
        }
    }
}

/// The scalar depthwise kernel: accumulates every tap of the `r x s`
/// filter `wk` over one input channel plane `chan` into the output plane
/// `out`, starting from `0.0`, taps ascending `(ry, sx)`.
fn depthwise_plane(chan: &[f32], wk: &[f32], out: &mut [f32], g: &ConvGeom) {
    // The plan arena is not pre-zeroed; accumulation starts at 0.0
    // exactly as the oracle's per-element accumulator does.
    out.fill(0.0);
    for ry in 0..g.r {
        for sx in 0..g.s {
            let wv = wk[ry * g.s + sx];
            let (ox_lo, ox_hi) = valid_ox_range(sx, g);
            for oy in 0..g.oh {
                let iy = oy * g.p.stride_h + ry;
                if iy < g.p.pad_h || iy >= g.h + g.p.pad_h {
                    continue;
                }
                let iy = iy - g.p.pad_h;
                let xrow = &chan[iy * g.w..(iy + 1) * g.w];
                let orow_y = &mut out[oy * g.ow..(oy + 1) * g.ow];
                if g.p.stride_w == 1 {
                    // Unit stride: output column `ox` reads input
                    // column `ox + sx - pad_w`, one contiguous run.
                    if ox_lo < ox_hi {
                        let xs = &xrow[ox_lo + sx - g.p.pad_w..ox_hi + sx - g.p.pad_w];
                        for (o, &x) in orow_y[ox_lo..ox_hi].iter_mut().zip(xs) {
                            *o += wv * x;
                        }
                    }
                } else {
                    for ox in ox_lo..ox_hi {
                        orow_y[ox] += wv * xrow[ox * g.p.stride_w + sx - g.p.pad_w];
                    }
                }
            }
        }
    }
}

/// Output rows one [`depthwise_plane_avx512`] block holds in registers.
#[cfg(target_arch = "x86_64")]
const DW_ROWS: usize = 4;
/// Output columns per block: one zmm of f32 lanes.
#[cfg(target_arch = "x86_64")]
const DW_LANES: usize = 16;

/// The mask of lanes `[lo, hi)` of one zmm, each bound clamped to
/// [`DW_LANES`].
#[cfg(target_arch = "x86_64")]
fn lane_mask(lo: usize, hi: usize) -> u16 {
    let bits = |n: usize| (1u32 << n.min(DW_LANES)) - 1;
    (bits(hi) & !bits(lo)) as u16
}

/// The AVX-512 twin of [`depthwise_plane`] for unit strides. Each block
/// of `DW_ROWS` output rows by `DW_LANES` output columns accumulates in
/// four zmm registers from `0.0`, taps ascending `(ry, sx)`. A tap adds
/// `w * x` only in the lanes whose input column lies inside the row
/// (`_mm512_mask_add_ps`, with a zero-masked load), and skips rows whose
/// input row lies outside the plane, so every element sees the same
/// chain of rounded products and sums as in the scalar kernel, and no
/// `0.0 * x` term is ever added. The block is stored once.
///
/// # Safety
///
/// Calling it from code not itself compiled for AVX-512F is `unsafe`: the
/// caller must know the CPU supports AVX-512F (see [`Isa::host`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn depthwise_plane_avx512(chan: &[f32], wk: &[f32], out: &mut [f32], g: &ConvGeom) {
    use std::arch::x86_64::{
        _mm512_mask_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
        _mm512_set1_ps, _mm512_setzero_ps,
    };
    debug_assert_eq!((g.p.stride_h, g.p.stride_w), (1, 1));
    // The masked stores below rely on `out` holding the whole plane.
    assert_eq!(out.len(), g.oh * g.ow, "depthwise output is one plane");
    let (pad_h, pad_w) = (g.p.pad_h, g.p.pad_w);
    for oy0 in (0..g.oh).step_by(DW_ROWS) {
        for ox0 in (0..g.ow).step_by(DW_LANES) {
            let mut acc = [_mm512_setzero_ps(); DW_ROWS];
            for ry in 0..g.r {
                // The input row each output row of the block reads at
                // kernel row `ry`; `None` past the plane's last output row
                // or where the input row is padding.
                let mut rows: [Option<&[f32]>; DW_ROWS] = [None; DW_ROWS];
                for (dy, row) in rows.iter_mut().enumerate() {
                    let (oy, iy) = (oy0 + dy, oy0 + dy + ry);
                    if oy < g.oh && iy >= pad_h && iy < g.h + pad_h {
                        *row = Some(&chan[(iy - pad_h) * g.w..][..g.w]);
                    }
                }
                for sx in 0..g.s {
                    // Lane `j` reads input column `ox0 + j + sx - pad_w`,
                    // valid when it lies in `[0, w)` and `ox0 + j < ow`.
                    let t = ox0 + sx;
                    let mask = lane_mask(
                        pad_w.saturating_sub(t),
                        (g.w + pad_w).saturating_sub(t).min(g.ow - ox0),
                    );
                    if mask == 0 {
                        continue;
                    }
                    let wv = _mm512_set1_ps(wk[ry * g.s + sx]);
                    for (a, xrow) in acc.iter_mut().zip(rows) {
                        let Some(xrow) = xrow else { continue };
                        // Lane `j`'s address, formed without an
                        // out-of-bounds `offset`: it may sit before or past
                        // the row for lanes the mask turns off.
                        let src = xrow.as_ptr().wrapping_add(t).wrapping_sub(pad_w);
                        // SAFETY: every lane set in `mask` reads
                        // `xrow[ox0 + j + sx - pad_w]` with that index in
                        // `[0, w)` (the mask's bounds above); the load
                        // touches no masked-off lane.
                        let x = unsafe { _mm512_maskz_loadu_ps(mask, src) };
                        *a = _mm512_mask_add_ps(*a, mask, *a, _mm512_mul_ps(wv, x));
                    }
                }
            }
            let store = lane_mask(0, g.ow - ox0);
            for (dy, a) in acc.iter().enumerate().take(g.oh - oy0) {
                let dst = &mut out[(oy0 + dy) * g.ow + ox0..];
                // SAFETY: the mask sets lanes `j < min(16, ow - ox0)`, and
                // `dst` holds the rest of output row `oy0 + dy` (`out` is
                // the whole plane, asserted above), so every stored lane
                // lies inside `dst`.
                unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), store, *a) };
            }
        }
    }
}

/// Geometry of a stride-1 depthwise convolution over token-major
/// activations: `[n, h·w, c]` in, `[n, oh·ow, c]` out, one `r × s` filter
/// per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TokenDwGeom {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) r: usize,
    pub(crate) s: usize,
    pub(crate) pad_h: usize,
    pub(crate) pad_w: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
}

impl TokenDwGeom {
    /// The geometry for an `h × w` input, or `None` when the padded input
    /// is smaller than the filter.
    pub(crate) fn new(
        c: usize,
        (h, w): (usize, usize),
        (r, s): (usize, usize),
        (pad_h, pad_w): (usize, usize),
    ) -> Option<Self> {
        let oh = (h + 2 * pad_h).checked_sub(r)? + 1;
        let ow = (w + 2 * pad_w).checked_sub(s)? + 1;
        Some(TokenDwGeom {
            c,
            h,
            w,
            r,
            s,
            pad_h,
            pad_w,
            oh,
            ow,
        })
    }

    /// The kernel columns whose input column `ox + sx - pad_w` lies
    /// inside the row, as the range `sx_lo..sx_hi`.
    fn valid_sx(&self, ox: usize) -> (usize, usize) {
        let lo = self.pad_w.saturating_sub(ox);
        let hi = (self.w + self.pad_w).saturating_sub(ox).min(self.s);
        (lo.min(hi), hi)
    }

    /// Input token row `iy` (an `[w, c]` slice of the item `x`) that
    /// output row `oy` reads at kernel row `ry`, or `None` where it is
    /// padding.
    fn input_row<'a>(&self, x: &'a [f32], oy: usize, ry: usize) -> Option<&'a [f32]> {
        let iy = (oy + ry).checked_sub(self.pad_h)?;
        (iy < self.h).then(|| &x[iy * self.w * self.c..][..self.w * self.c])
    }
}

/// Output token rows `[row0, row0 + od.len() / (ow · c))` of the
/// flattened `(batch, oy)` axis of a token-major depthwise convolution,
/// with weights `wt` packed `[tap][c]` (taps ascending `(ry, sx)`) and
/// `ep` applied at the store.
///
/// Every output element starts at `0.0`, adds `w · x` for each in-bounds
/// tap in ascending `(ry, sx)` order (out-of-bounds taps are skipped,
/// never added as `0 · x`), then adds its bias: the chain
/// `depthwise_plane` and its AVX-512 twin run per element, so the result
/// is bit-identical to the plane-layout kernel between two transposes. A
/// `Gelu` epilogue runs [`crate::ops::gelu_into`] over each finished row,
/// as the standalone GELU pass does. Lanes are channels, so a tap is in
/// or out of bounds for a whole vector at once.
pub(crate) fn token_depthwise_rows(
    xd: &[f32],
    wt: &[f32],
    bias: Option<&[f32]>,
    od: &mut [f32],
    row0: usize,
    g: TokenDwGeom,
    ep: Epilogue,
) {
    let row_len = g.ow * g.c;
    if row_len == 0 {
        return;
    }
    let item = g.h * g.w * g.c;
    let wide = Isa::host() == Isa::Avx512;
    let run = |x: &[f32], oy: usize, out: &mut [f32]| {
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` holds only when `Isa::host()` reported
            // AVX-512F on this CPU, the one precondition of
            // `token_depthwise_row_avx512`.
            unsafe { token_depthwise_row_avx512(x, wt, bias, oy, &g, out) };
            return;
        }
        let _ = wide;
        token_depthwise_row(x, wt, bias, oy, &g, out);
    };
    let mut pre = vec![0.0f32; if ep == Epilogue::Gelu { row_len } else { 0 }];
    for (i, orow) in od.chunks_exact_mut(row_len).enumerate() {
        let (b, oy) = ((row0 + i) / g.oh, (row0 + i) % g.oh);
        let x = &xd[b * item..][..item];
        match ep {
            Epilogue::Gelu => {
                run(x, oy, &mut pre);
                crate::ops::gelu_into(&pre, orow);
            }
            Epilogue::Relu => {
                run(x, oy, orow);
                orow.iter_mut().for_each(|v| *v = ep.apply(*v));
            }
            Epilogue::None => run(x, oy, orow),
        }
    }
}

/// The scalar token-major depthwise kernel: output row `oy` of the item
/// `x` into `out` (`[ow, c]`), before any epilogue.
fn token_depthwise_row(
    x: &[f32],
    wt: &[f32],
    bias: Option<&[f32]>,
    oy: usize,
    g: &TokenDwGeom,
    out: &mut [f32],
) {
    let c = g.c;
    out.fill(0.0);
    for (ox, o) in out.chunks_exact_mut(c).enumerate() {
        let (sx_lo, sx_hi) = g.valid_sx(ox);
        for ry in 0..g.r {
            let Some(xrow) = g.input_row(x, oy, ry) else {
                continue;
            };
            for sx in sx_lo..sx_hi {
                let xs = &xrow[(ox + sx - g.pad_w) * c..][..c];
                let ws = &wt[(ry * g.s + sx) * c..][..c];
                for ((o, &wv), &xv) in o.iter_mut().zip(ws).zip(xs) {
                    *o += wv * xv;
                }
            }
        }
        if let Some(b) = bias {
            for (o, &bv) in o.iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
}

/// Channel vectors one [`token_depthwise_row_avx512`] step holds in
/// registers: 64 channels of one output token.
#[cfg(target_arch = "x86_64")]
const TDW_BLOCKS: usize = 4;

/// The AVX-512 twin of [`token_depthwise_row`]: up to four zmm
/// accumulators hold 64 channels of one output token, start from `0.0`,
/// and take one `_mm512_mul_ps` and one `_mm512_add_ps` per in-bounds
/// tap in ascending `(ry, sx)` order, then the bias. Lane for lane the
/// scalar `o += w * x` chain, so the two agree bit for bit. A channel
/// count that is not a multiple of 16 masks its last vector's loads and
/// store.
///
/// # Safety
///
/// Calling it from code not itself compiled for AVX-512F is `unsafe`: the
/// caller must know the CPU supports AVX-512F (see [`Isa::host`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn token_depthwise_row_avx512(
    x: &[f32],
    wt: &[f32],
    bias: Option<&[f32]>,
    oy: usize,
    g: &TokenDwGeom,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
        _mm512_setzero_ps,
    };
    let c = g.c;
    // The loads and stores below rely on these extents.
    assert_eq!(out.len(), g.ow * c, "one output token row");
    assert!(x.len() >= g.h * g.w * c && wt.len() >= g.r * g.s * c);
    assert!(bias.is_none_or(|b| b.len() >= c));
    let rows: Vec<Option<&[f32]>> = (0..g.r).map(|ry| g.input_row(x, oy, ry)).collect();
    for ox in 0..g.ow {
        let (sx_lo, sx_hi) = g.valid_sx(ox);
        for c0 in (0..c).step_by(TDW_BLOCKS * DW_LANES) {
            // Lanes of block `j` that hold channels `< c`; blocks wholly
            // past `c` have an empty mask and are skipped.
            let masks: [u16; TDW_BLOCKS] =
                std::array::from_fn(|j| lane_mask(0, c.saturating_sub(c0 + j * DW_LANES)));
            let mut acc = [_mm512_setzero_ps(); TDW_BLOCKS];
            for (ry, xrow) in rows.iter().enumerate() {
                let Some(xrow) = xrow else { continue };
                for sx in sx_lo..sx_hi {
                    let xs = &xrow[(ox + sx - g.pad_w) * c + c0..];
                    let ws = &wt[(ry * g.s + sx) * c + c0..];
                    for ((a, &m), j) in acc.iter_mut().zip(&masks).zip(0..) {
                        if m == 0 {
                            break;
                        }
                        // SAFETY: the lanes set in `m` are channels
                        // `c0 + 16j + l < c`, so they read `xs[16j + l]`
                        // and `ws[16j + l]`, inside this token's and this
                        // tap's `c` channels; masked-off lanes are not
                        // touched.
                        let (xv, wv) = unsafe {
                            (
                                _mm512_maskz_loadu_ps(m, xs.as_ptr().add(j * DW_LANES)),
                                _mm512_maskz_loadu_ps(m, ws.as_ptr().add(j * DW_LANES)),
                            )
                        };
                        *a = _mm512_add_ps(*a, _mm512_mul_ps(wv, xv));
                    }
                }
            }
            let dst = &mut out[ox * c + c0..];
            for ((a, &m), j) in acc.iter_mut().zip(&masks).zip(0..) {
                if m == 0 {
                    break;
                }
                if let Some(b) = bias {
                    // SAFETY: as for the tap loads, the set lanes read
                    // `b[c0 + 16j + l]` with that index `< c <= b.len()`.
                    let bv = unsafe { _mm512_maskz_loadu_ps(m, b.as_ptr().add(c0 + j * DW_LANES)) };
                    *a = _mm512_add_ps(*a, bv);
                }
                // SAFETY: the set lanes write `dst[16j + l]`, channel
                // `c0 + 16j + l < c` of output token `ox`, inside `out`
                // (`ow · c` elements, asserted above).
                unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr().add(j * DW_LANES), m, *a) };
            }
        }
    }
}

/// Whether `g` is a pointwise convolution (1×1, stride 1, no padding),
/// whose im2col rows are the input channels themselves.
fn is_pointwise(g: &ConvGeom) -> bool {
    let p = g.p;
    (g.r, g.s, p.stride_h, p.stride_w, p.pad_h, p.pad_w) == (1, 1, 1, 1, 0, 0)
}

/// Copies whole channel planes (`planes` holds them back to back) into
/// panel rows `off..` of a `crs`-row panel matrix: each panel row is one
/// 16-float run copied whole, and the tail panel's unused lanes are
/// written as zeros, so every slot of those rows is written.
fn planes_to_panels(planes: &[f32], plane: usize, crs: usize, off: usize, col: &mut [f32]) {
    for (ci, chan) in planes.chunks_exact(plane).enumerate() {
        for (t, run) in chan.chunks(NR).enumerate() {
            let dst = &mut col[(t * crs + off + ci) * NR..][..NR];
            dst[..run.len()].copy_from_slice(run);
            dst[run.len()..].fill(0.0);
        }
    }
}

/// [`planes_to_panels`] for a token-major `[plane, channels]` block:
/// each run of `NR` tokens is one `NR × channels` block transposed into
/// its panel's rows `off..off + channels`, and the tail panel's unused
/// lanes are written as zeros.
fn tokens_to_panels(tokens: &[f32], channels: usize, crs: usize, off: usize, col: &mut [f32]) {
    if channels == 0 {
        return;
    }
    for (t, block) in tokens.chunks(NR * channels).enumerate() {
        let n_tok = block.len() / channels;
        let dst = &mut col[(t * crs + off) * NR..][..channels * NR];
        transpose_block(block, channels, dst, NR, n_tok, channels);
        if n_tok < NR {
            for row in dst.chunks_exact_mut(NR) {
                row[n_tok..].fill(0.0);
            }
        }
    }
}

/// Gathers the im2col matrix for one `(batch, group)` pair directly into
/// panel layout: column `t` of the `[crs, plane]` im2col matrix (an
/// output pixel) becomes lane `t % NR` of panel `t / NR`; padding taps
/// are explicit zeros.
fn im2col_panels(xd: &[f32], b: usize, g_idx: usize, g: &ConvGeom, col: &mut [f32]) {
    let crs = g.c_per_g * g.r * g.s;
    if is_pointwise(g) {
        // Pointwise conv: im2col row `ci` is input channel `ci` itself.
        let plane = g.h * g.w;
        let first = b * g.c + g_idx * g.c_per_g;
        planes_to_panels(&xd[first * plane..][..crs * plane], plane, crs, 0, col);
        return;
    }
    // `col` arrives zeroed, and the slots written below depend only on
    // the geometry, so padding taps stay `0.0` across every (batch,
    // group) segment without a refill.
    let mut kk = 0;
    for ci in 0..g.c_per_g {
        let cin = g_idx * g.c_per_g + ci;
        let chan = &xd[(b * g.c + cin) * g.h * g.w..][..g.h * g.w];
        for ry in 0..g.r {
            for sx in 0..g.s {
                let (ox_lo, ox_hi) = valid_ox_range(sx, g);
                for oy in 0..g.oh {
                    let iy = oy * g.p.stride_h + ry;
                    if iy < g.p.pad_h || iy >= g.h + g.p.pad_h {
                        continue;
                    }
                    let iy = iy - g.p.pad_h;
                    let xrow = &chan[iy * g.w..(iy + 1) * g.w];
                    for ox in ox_lo..ox_hi {
                        let t = oy * g.ow + ox;
                        col[((t / NR) * crs + kk) * NR + (t % NR)] =
                            xrow[ox * g.p.stride_w + sx - g.p.pad_w];
                    }
                }
                kk += 1;
            }
        }
    }
}

/// Computes output channel-planes `[row0, row0 + rows)` of the flattened
/// `(batch, out_channel)` axis into `od` (that range's contiguous slice),
/// applying `ep` at each element's final store.
///
/// Dispatches between the direct exact-tier path and the im2col +
/// packed-GEMM tolerance-tier path (see the module docs). Both choose
/// their geometry from shapes alone, so splitting the plane range across
/// threads cannot change a single bit of the result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_rows(
    xd: &[f32],
    wd: &[f32],
    bd: Option<&[f32]>,
    od: &mut [f32],
    row0: usize,
    g: ConvGeom,
    ep: Epilogue,
    bufs: Option<&BufferPool>,
) {
    if g.oh * g.ow == 0 {
        return;
    }
    if g.c_per_g == 1 {
        direct_plane_rows(xd, wd, bd, od, row0, g, ep);
        return;
    }
    // The pointwise pack writes every panel slot; the general gather
    // writes only in-bounds taps and relies on zeroed padding.
    let pack = |b, g_idx, col: &mut [f32]| im2col_panels(xd, b, g_idx, &g, col);
    im2col_gemm_rows(wd, bd, od, row0, &g, ep, bufs, is_pointwise(&g), pack);
}

/// One channel block of a channel concatenation that a pointwise
/// convolution reads where it lies ([`crate::ops::PackedConv2d::run_concat`]),
/// instead of from a materialized concat.
#[derive(Debug, Clone, Copy)]
pub struct ConcatPart<'a> {
    /// The part's elements: `[n, channels, h, w]` planes, or
    /// `[n, h·w, channels]` tokens when `token_major`.
    pub data: &'a [f32],
    /// The part's channel count.
    pub channels: usize,
    /// Whether `data` is token-major.
    pub token_major: bool,
}

/// [`conv2d_rows`] for a pointwise, ungrouped convolution whose input is
/// the channel concatenation of `parts`: the panel pack copies im2col row
/// `ci` from whichever part holds channel `ci`, so the panels, and with
/// them every output bit, equal those of the materialized concat.
#[allow(clippy::too_many_arguments)]
pub(crate) fn concat_pointwise_rows(
    parts: &[ConcatPart<'_>],
    wd: &[f32],
    bd: Option<&[f32]>,
    od: &mut [f32],
    row0: usize,
    g: ConvGeom,
    ep: Epilogue,
    bufs: Option<&BufferPool>,
) {
    debug_assert!(is_pointwise(&g) && g.p.groups == 1);
    let plane = g.h * g.w;
    if plane == 0 {
        return;
    }
    let pack = |b: usize, _, col: &mut [f32]| {
        let mut off = 0;
        for part in parts {
            let item = &part.data[b * part.channels * plane..][..part.channels * plane];
            if part.token_major {
                tokens_to_panels(item, part.channels, g.c, off, col);
            } else {
                planes_to_panels(item, plane, g.c, off, col);
            }
            off += part.channels;
        }
    };
    im2col_gemm_rows(wd, bd, od, row0, &g, ep, bufs, true, pack);
}

/// The im2col + packed-GEMM path over output channel-planes
/// `[row0, row0 + rows)`: `pack(b, g_idx, col)` fills the panel matrix of
/// one `(batch, group)` pair. `overwrites` says the pack writes every
/// panel slot, so the scratch need not arrive zeroed.
#[allow(clippy::too_many_arguments)]
fn im2col_gemm_rows(
    wd: &[f32],
    bd: Option<&[f32]>,
    od: &mut [f32],
    row0: usize,
    g: &ConvGeom,
    ep: Epilogue,
    bufs: Option<&BufferPool>,
    overwrites: bool,
    pack: impl Fn(usize, usize, &mut [f32]),
) {
    let plane = g.oh * g.ow;
    let rows = od.len() / plane;
    let crs = g.c_per_g * g.r * g.s;
    let col_len = packed_len(crs, plane);
    let mut col = match bufs {
        Some(pool) if overwrites => pool.take_for_overwrite(col_len),
        Some(pool) => pool.take_zeroed(col_len),
        None => vec![0.0f32; col_len],
    };
    let mut row = 0;
    while row < rows {
        let (b, ko) = ((row0 + row) / g.k, (row0 + row) % g.k);
        let g_idx = ko / g.k_per_g;
        // Rows of this chunk sharing the (batch, group) im2col matrix.
        let seg = ((g_idx + 1) * g.k_per_g - ko).min(rows - row);
        pack(b, g_idx, &mut col);
        gemm_rows(
            wd,
            crs,
            ko,
            Panels {
                data: &col,
                k: crs,
                n: plane,
            },
            &mut od[row * plane..(row + seg) * plane],
            bd.map_or(GemmBias::None, |bd| GemmBias::PerRow(&bd[ko..ko + seg])),
            ep,
        );
        row += seg;
    }
    if let Some(pool) = bufs {
        pool.recycle(col);
    }
}

/// Depthwise 2-D convolution: one filter per channel
/// (`groups == in_channels == out_channels`).
///
/// `weight` is `[c, 1, r, s]`.
///
/// # Errors
///
/// Propagates the validation errors of [`conv2d`].
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    mut p: Conv2dParams,
) -> Result<Tensor> {
    let c = input
        .shape()
        .get(1)
        .copied()
        .ok_or_else(|| invalid_shape("depthwise_conv2d", "input must be rank 4".to_string()))?;
    p.groups = c;
    conv2d(input, weight, bias, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference;

    #[test]
    fn conv_1x1_is_channel_mix() {
        // 2 input channels, 1 output channel, weights [1, 2]:
        // out = 1*x0 + 2*x1 per pixel.
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, // channel 0
                10.0, 20.0, 30.0, 40.0, // channel 1
            ],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let w = Tensor::from_vec(vec![1.0, 2.0], &[1, 2, 1, 1]).unwrap();
        let y = conv2d(&x, &w, None, Conv2dParams::new()).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[21.0, 42.0, 63.0, 84.0]);
    }

    #[test]
    fn conv_3x3_hand_example() {
        // 3x3 mean filter over a 3x3 image with padding 1.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let w = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv2d(&x, &w, None, Conv2dParams::new().pad(1)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        // Center output = sum of all 9 inputs = 45.
        assert_eq!(y.at(&[0, 0, 1, 1]), 45.0);
        // Top-left output = sum of the 2x2 top-left block = 1+2+4+5 = 12.
        assert_eq!(y.at(&[0, 0, 0, 0]), 12.0);
    }

    #[test]
    fn conv_stride_downsamples() {
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv2d(&x, &w, None, Conv2dParams::new().stride(2)).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert!(y.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv_overlapping_patch_embed_shape() {
        // SegFormer stage-0 patch embedding: 7x7 kernel, stride 4, pad 3.
        let x = Tensor::zeros(&[1, 3, 64, 64]);
        let w = Tensor::zeros(&[32, 3, 7, 7]);
        let p = Conv2dParams::new().stride(4).pad(3);
        let y = conv2d(&x, &w, None, p).unwrap();
        assert_eq!(y.shape(), &[1, 32, 16, 16]);
    }

    #[test]
    fn conv_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![3.0, -1.0], &[2]).unwrap();
        let y = conv2d(&x, &w, Some(&b), Conv2dParams::new()).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]), 3.0);
        assert_eq!(y.at(&[0, 1, 1, 1]), -1.0);
    }

    #[test]
    fn depthwise_applies_per_channel_filter() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]).unwrap();
        // Channel 0 doubled, channel 1 negated.
        let w = Tensor::from_vec(vec![2.0, -1.0], &[2, 1, 1, 1]).unwrap();
        let y = depthwise_conv2d(&x, &w, None, Conv2dParams::new()).unwrap();
        assert_eq!(y.data(), &[2.0, 4.0, -3.0, -4.0]);
    }

    #[test]
    fn grouped_conv_partitions_channels() {
        // 4 in channels, 2 groups, 2 out channels: each output sees only its
        // half of the input channels.
        let x = Tensor::from_vec(vec![1.0, 10.0, 100.0, 1000.0], &[1, 4, 1, 1]).unwrap();
        let w = Tensor::ones(&[2, 2, 1, 1]);
        let y = conv2d(&x, &w, None, Conv2dParams::new().groups(2)).unwrap();
        assert_eq!(y.data(), &[11.0, 1100.0]);
    }

    #[test]
    fn conv_rejects_bad_groups_and_channels() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 3, 1, 1]);
        assert!(conv2d(&x, &w, None, Conv2dParams::new().groups(2)).is_err());
        let w_bad = Tensor::zeros(&[2, 4, 1, 1]);
        assert!(conv2d(&x, &w_bad, None, Conv2dParams::new()).is_err());
    }

    #[test]
    fn conv_matches_linear_for_1x1_on_flattened_pixels() {
        // A 1x1 conv is exactly a linear layer over channels at each pixel.
        let x = Tensor::rand_uniform(&[1, 6, 3, 3], -1.0, 1.0, 5);
        let w = Tensor::rand_uniform(&[4, 6, 1, 1], -1.0, 1.0, 6);
        let y = conv2d(&x, &w, None, Conv2dParams::new()).unwrap();
        let w2 = w.reshape(&[4, 6]).unwrap();
        // NCHW -> (HW, C)
        let xs = x.reshape(&[6, 9]).unwrap().transpose2().unwrap();
        let ys = crate::ops::linear(&xs, &w2, None).unwrap();
        for pix in 0..9 {
            for ch in 0..4 {
                let a = y.data()[ch * 9 + pix];
                let b = ys.data()[pix * 4 + ch];
                assert!((a - b).abs() < 1e-5, "pixel {pix} channel {ch}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn depthwise_path_is_bitwise_equal_to_reference() {
        // The direct single-input-channel kernel claims the EXACT tier.
        let x = Tensor::rand_uniform(&[2, 3, 9, 7], -1.0, 1.0, 31);
        let w = Tensor::rand_uniform(&[3, 1, 3, 3], -1.0, 1.0, 32);
        let b = Tensor::rand_uniform(&[3], -1.0, 1.0, 33);
        for p in [
            Conv2dParams::new().pad(1),
            Conv2dParams::new().stride(2).pad(1),
            Conv2dParams::new(),
        ] {
            let got = depthwise_conv2d(&x, &w, Some(&b), p).unwrap();
            let want = crate::ops::reference::conv2d(&x, &w, Some(&b), p.groups(3)).unwrap();
            assert_eq!(got.data(), want.data());
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_depthwise_kernel_is_bit_identical_to_scalar() {
        if Isa::host() < Isa::Avx512 {
            eprintln!(
                "SKIPPED avx512_depthwise_kernel_is_bit_identical_to_scalar: no AVX-512 on this CPU"
            );
            return;
        }
        const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
        // Widths across the 16- and 32-lane edges and heights across the
        // 4-row block, plus planes narrower than one vector.
        let planes = [
            (1, 16),
            (3, 17),
            (4, 31),
            (5, 32),
            (9, 33),
            (6, 40),
            (2, 1),
            (7, 5),
        ];
        for (h, w) in planes {
            for (pad, kernel) in [0, 1, 2]
                .into_iter()
                .flat_map(|p| [1, 3, 5].map(move |r| (p, r)))
            {
                if h + 2 * pad < kernel || w + 2 * pad < kernel {
                    continue;
                }
                let seed = (h * 1000 + w * 10 + pad * 3 + kernel) as u64;
                let mut x = Tensor::rand_uniform(&[1, 1, h, w], -2.0, 2.0, seed);
                let mut wt = Tensor::rand_uniform(&[1, 1, kernel, kernel], -2.0, 2.0, seed + 1);
                // Specials in the input and, at pad 1, an infinite corner
                // weight: adding its product with a zero-masked padding
                // lane would turn that lane's sum into NaN.
                let len = x.numel();
                for (i, &sp) in SPECIALS.iter().enumerate() {
                    x.data_mut()[(i * 7 + seed as usize) % len] = sp;
                }
                if pad == 1 {
                    wt.data_mut()[0] = f32::INFINITY;
                }
                let (g, _) = conv_geometry(&x, &wt, None, Conv2dParams::new().pad(pad)).unwrap();
                // Both kernels must write every element: start from NaN.
                let mut want = vec![f32::NAN; g.oh * g.ow];
                let mut got = want.clone();
                depthwise_plane(x.data(), wt.data(), &mut want, &g);
                // SAFETY: `Isa::host()` reported AVX-512F on this CPU.
                unsafe { depthwise_plane_avx512(x.data(), wt.data(), &mut got, &g) };
                assert!(
                    reference::same_bits(&got, &want),
                    "{h}x{w} kernel {kernel} pad {pad}: AVX-512 and scalar depthwise diverged"
                );
            }
        }
    }

    /// Seeded token-major operands for a `c`-channel `h × w` depthwise
    /// conv with a `k × k` filter: input `[2, h·w, c]` with inf/NaN/-0.0
    /// at seeded positions, packed `[tap][c]` weights (one infinite, so a
    /// `0 · w` term from a padding tap would turn its sum into NaN), and
    /// a bias.
    fn token_dw_operands(c: usize, h: usize, w: usize, k: usize) -> [Tensor; 3] {
        const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
        let seed = (c * 10_000 + h * 100 + w * 10 + k) as u64;
        let mut x = Tensor::rand_uniform(&[2, h * w, c], -2.0, 2.0, seed);
        let len = x.numel();
        for (i, &sp) in SPECIALS.iter().enumerate() {
            x.data_mut()[(i * 7919 + seed as usize) % len] = sp;
        }
        let mut wt = Tensor::rand_uniform(&[c, 1, k, k], -2.0, 2.0, seed + 1);
        wt.data_mut()[0] = f32::INFINITY;
        let b = Tensor::rand_uniform(&[c], -1.0, 1.0, seed + 2);
        [x, wt, b]
    }

    /// The geometries the token-major twin tests sweep: channel counts
    /// 1-40 (so some are not multiples of 16, and some span several
    /// 64-channel steps), planes 1-9 on a side and padding 0-2 around a
    /// 3×3 filter. Miri interprets a thinned grid.
    fn token_dw_grid() -> Vec<(usize, usize, usize, usize)> {
        let (cs, sides): (Vec<usize>, Vec<usize>) = if cfg!(miri) {
            (vec![1, 16, 17], vec![1, 3, 5])
        } else {
            ((1..=40).collect(), (1..=9).collect())
        };
        let mut grid = Vec::new();
        for &c in &cs {
            for &h in &sides {
                for &w in &sides {
                    for pad in 0..=2 {
                        if h + 2 * pad >= 3 && w + 2 * pad >= 3 {
                            grid.push((c, h, w, pad));
                        }
                    }
                }
            }
        }
        grid
    }

    /// Runs `token_depthwise_rows` on a NaN-prefilled output, so an
    /// element the kernel forgets to write shows up.
    fn token_dw_run(ops: &[Tensor; 3], g: TokenDwGeom, bias: bool, ep: Epilogue) -> Vec<f32> {
        let [x, wt, b] = ops;
        let taps = g.r * g.s;
        let mut packed = vec![0.0f32; taps * g.c];
        for (ch, filter) in wt.data().chunks_exact(taps).enumerate() {
            for (tap, &v) in filter.iter().enumerate() {
                packed[tap * g.c + ch] = v;
            }
        }
        let mut out = vec![f32::NAN; 2 * g.oh * g.ow * g.c];
        let bias = bias.then(|| b.data());
        token_depthwise_rows(x.data(), &packed, bias, &mut out, 0, g, ep);
        out
    }

    #[test]
    fn token_depthwise_matches_the_plane_kernel_between_transposes() {
        for (c, h, w, pad) in token_dw_grid() {
            let ops = token_dw_operands(c, h, w, 3);
            let g = TokenDwGeom::new(c, (h, w), (3, 3), (pad, pad)).unwrap();
            // The oracle: tokens to planes, the reference conv, planes back
            // to tokens, then the standalone GELU pass.
            let [x, wt, b] = &ops;
            let planes = x
                .reshape(&[2, h, w, c])
                .unwrap()
                .permute(&[0, 3, 1, 2])
                .unwrap();
            for bias in [true, false] {
                let p = Conv2dParams::new().pad(pad).groups(c);
                let y = reference::conv2d(&planes, wt, bias.then_some(b), p).unwrap();
                let mut want = vec![0.0f32; y.numel()];
                crate::ops::transpose_into(y.data(), c, g.oh * g.ow, &mut want);
                let got = token_dw_run(&ops, g, bias, Epilogue::None);
                assert!(
                    reference::same_bits(&got, &want),
                    "c={c} {h}x{w} pad {pad} bias {bias}: token-major depthwise diverged"
                );
                let mut act = vec![0.0f32; want.len()];
                crate::ops::gelu_into(&want, &mut act);
                let got = token_dw_run(&ops, g, bias, Epilogue::Gelu);
                assert!(
                    reference::same_bits(&got, &act),
                    "c={c} {h}x{w} pad {pad} bias {bias}: GELU at the store diverged"
                );
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_token_depthwise_kernel_is_bit_identical_to_scalar() {
        if Isa::host() < Isa::Avx512 {
            eprintln!(
                "SKIPPED avx512_token_depthwise_kernel_is_bit_identical_to_scalar: no AVX-512 on this CPU"
            );
            return;
        }
        for (c, h, w, pad) in token_dw_grid() {
            let [x, wt, b] = token_dw_operands(c, h, w, 3);
            let g = TokenDwGeom::new(c, (h, w), (3, 3), (pad, pad)).unwrap();
            let mut packed = vec![0.0f32; 9 * c];
            for (ch, filter) in wt.data().chunks_exact(9).enumerate() {
                for (tap, &v) in filter.iter().enumerate() {
                    packed[tap * c + ch] = v;
                }
            }
            let item = &x.data()[h * w * c..];
            for bias in [Some(b.data()), None] {
                for oy in 0..g.oh {
                    let mut want = vec![f32::NAN; g.ow * c];
                    let mut got = want.clone();
                    token_depthwise_row(item, &packed, bias, oy, &g, &mut want);
                    // SAFETY: `Isa::host()` reported AVX-512F on this CPU.
                    unsafe { token_depthwise_row_avx512(item, &packed, bias, oy, &g, &mut got) };
                    assert!(
                        reference::same_bits(&got, &want),
                        "c={c} {h}x{w} pad {pad} row {oy}: AVX-512 and scalar diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_im2col_path_matches_reference_within_tolerance() {
        use crate::ops::reference::{tolerance, within_tolerance, KernelClass};
        let x = Tensor::rand_uniform(&[1, 8, 6, 5], -1.0, 1.0, 41);
        let w = Tensor::rand_uniform(&[6, 4, 3, 3], -1.0, 1.0, 42);
        let p = Conv2dParams::new().pad(1).groups(2);
        let got = conv2d(&x, &w, None, p).unwrap();
        let want = crate::ops::reference::conv2d(&x, &w, None, p).unwrap();
        assert!(within_tolerance(
            got.data(),
            want.data(),
            tolerance(KernelClass::Conv)
        ));
    }
}
