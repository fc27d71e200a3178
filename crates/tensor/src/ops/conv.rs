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
//!   (see `ops/pack.rs`), so the ISA tier never changes a result.

use crate::error::{invalid_argument, invalid_shape, shape_mismatch, Result};
use crate::ops::fused::Epilogue;
use crate::ops::pack::{gemm_rows, packed_len, GemmBias, Isa, Panels, NR};
use crate::ops::reference;
use crate::par::{BufferPool, ExecCtx};
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
/// `bias` is `[k]` or `None`. Returns `[n, k, oh, ow]`.
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
    conv2d_ctx(input, weight, bias, p, &ExecCtx::default())
}

/// Geometry of one [`conv2d_ctx`] call, shared by every output chunk.
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
/// [`reference::conv2d_rows`]. Unit-stride planes run on the AVX-512
/// kernel when the CPU has it, everything else on the scalar one; the two
/// agree bit for bit.
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

/// Gathers the im2col matrix for one `(batch, group)` pair directly into
/// panel layout: column `t` of the `[crs, plane]` im2col matrix (an
/// output pixel) becomes lane `t % NR` of panel `t / NR`; padding taps
/// are explicit zeros.
fn im2col_panels(xd: &[f32], b: usize, g_idx: usize, g: &ConvGeom, col: &mut [f32]) {
    let crs = g.c_per_g * g.r * g.s;
    let p = g.p;
    if (g.r, g.s, p.stride_h, p.stride_w, p.pad_h, p.pad_w) == (1, 1, 1, 1, 0, 0) {
        // Pointwise conv: im2col row `ci` is input channel `ci` itself, so
        // each panel row is one 16-float run copied whole; only the tail
        // panel's unused lanes need zeros.
        let plane = g.h * g.w;
        for ci in 0..g.c_per_g {
            let cin = g_idx * g.c_per_g + ci;
            let chan = &xd[(b * g.c + cin) * plane..][..plane];
            for (t, run) in chan.chunks(NR).enumerate() {
                let dst = &mut col[(t * crs + ci) * NR..][..NR];
                dst[..run.len()].copy_from_slice(run);
                dst[run.len()..].fill(0.0);
            }
        }
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
    let plane = g.oh * g.ow;
    if plane == 0 {
        return;
    }
    if g.c_per_g == 1 {
        direct_plane_rows(xd, wd, bd, od, row0, g, ep);
        return;
    }
    let rows = od.len() / plane;
    let crs = g.c_per_g * g.r * g.s;
    let col_len = packed_len(crs, plane);
    let mut col = match bufs {
        Some(pool) => pool.take_zeroed(col_len),
        None => vec![0.0f32; col_len],
    };
    let mut row = 0;
    while row < rows {
        let (b, ko) = ((row0 + row) / g.k, (row0 + row) % g.k);
        let g_idx = ko / g.k_per_g;
        // Rows of this chunk sharing the (batch, group) im2col matrix.
        let seg = ((g_idx + 1) * g.k_per_g - ko).min(rows - row);
        im2col_panels(xd, b, g_idx, &g, &mut col);
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

/// [`conv2d`] with an execution context: output channel-planes are tiled
/// across the context's thread pool and scratch (output and im2col
/// panels) is drawn from its buffer pool. Bit-identical to [`conv2d`] at
/// any thread count.
///
/// # Errors
///
/// Returns the same validation errors as [`conv2d`].
pub fn conv2d_ctx(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: Conv2dParams,
    ctx: &ExecCtx<'_>,
) -> Result<Tensor> {
    let (geom, n) = conv_geometry(input, weight, bias, p)?;
    let mut out = ctx.alloc_zeroed(&[n, geom.k, geom.oh, geom.ow]);
    let xd = input.data();
    let wd = weight.data();
    let bd = bias.map(Tensor::data);
    let plane = geom.oh * geom.ow;
    let reference = ctx.reference;
    let bufs = ctx.bufs;
    ctx.for_each_row_chunk(out.data_mut(), plane, |_, start, piece| {
        let row0 = start / plane.max(1);
        if reference {
            reference::conv2d_rows(xd, wd, bd, piece, row0, geom, Epilogue::None);
        } else {
            conv2d_rows(xd, wd, bd, piece, row0, geom, Epilogue::None, bufs);
        }
    });
    Ok(out)
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
