//! Fused epilogues and pre-packed weight kernels.
//!
//! These are the tensor-level building blocks of compiled execution plans
//! (`vit-plan`): a producing kernel (convolution, linear) applies an
//! elementwise [`Epilogue`] at each element's *final store*, and a
//! [`PackedConv2d`]/[`PackedLinear`] owns its weights in one contiguous
//! kernel-friendly buffer so replaying a plan touches no weight caches.
//! [`PackedLinear`] is `vit-plan`'s pack hook for the GEMM micro-kernel:
//! its weight is laid out in [`crate::ops::pack::PackedB`] column panels
//! **once at plan-compile time**, so plan replay never re-packs.
//! [`PackedTokenDepthwise`] packs a depthwise filter `[tap][c]` for the
//! token-major kernel a plan runs in place of `unflatten → depthwise
//! conv → flatten`.
//!
//! Bit-identity: the epilogue scalar functions are the *same definitions*
//! the standalone [`crate::ops::relu`]/[`crate::ops::gelu`] passes use
//! (GELU's standalone pass runs an AVX2 kernel that is bit-identical to
//! the scalar twin the epilogue applies),
//! and `Epilogue::None.apply(x)` returns `x` unchanged, so a fused
//! `conv → relu` equals the two-pass result bit for bit — each element is
//! computed once as `ep.apply(acc + bias)` in the same operation order as
//! the unfused kernel. Which *tier* a packed kernel claims against the
//! reference oracle is a separate contract: see
//! [`PackedConv2d::reassociates`] and [`crate::ops::reference`].

use crate::error::{invalid_shape, shape_mismatch, Result};
use crate::ops::activation::{gelu_scalar, relu_scalar};
use crate::ops::conv::{
    concat_pointwise_rows, conv2d_rows, token_depthwise_rows, ConcatPart, ConvGeom, TokenDwGeom,
};
use crate::ops::pack::{gemm_rows, GemmBias, PackedB};
use crate::ops::Conv2dParams;
use crate::par::ExecCtx;
use crate::tensor::Tensor;

/// An elementwise function fused into a producing kernel's output store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Epilogue {
    /// Store the value unchanged.
    #[default]
    None,
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation, in the sigmoid
    /// form of [`crate::ops::gelu_into`]).
    Gelu,
}

impl Epilogue {
    /// Applies the epilogue to one scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Epilogue::None => x,
            Epilogue::Relu => relu_scalar(x),
            Epilogue::Gelu => gelu_scalar(x),
        }
    }
}

/// A 2-D convolution with weights (and optional bias) packed into one
/// contiguous buffer at plan time, plus a fused [`Epilogue`].
///
/// Layout: weight `[k, c/groups, r, s]` row-major, immediately followed by
/// the bias `[k]` when present. Row-major weight is already the layout the
/// im2col GEMM consumes as its left operand, so no further packing is
/// needed here.
#[derive(Debug, Clone)]
pub struct PackedConv2d {
    data: Box<[f32]>,
    k: usize,
    c_per_g: usize,
    r: usize,
    s: usize,
    has_bias: bool,
    params: Conv2dParams,
    epilogue: Epilogue,
}

impl PackedConv2d {
    /// Packs `weight` (`[k, c/groups, r, s]`) and optional `bias` (`[k]`).
    ///
    /// # Errors
    ///
    /// Returns an error when the weight is not rank 4 or the bias length
    /// disagrees with the weight's output-channel count.
    pub fn pack(
        weight: &Tensor,
        bias: Option<&Tensor>,
        params: Conv2dParams,
        epilogue: Epilogue,
    ) -> Result<Self> {
        if weight.rank() != 4 {
            return Err(invalid_shape(
                "packed_conv2d",
                format!("weight must be rank 4, got {:?}", weight.shape()),
            ));
        }
        let (k, c_per_g, r, s) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        if let Some(b) = bias {
            if b.numel() != k {
                return Err(shape_mismatch(
                    "packed_conv2d",
                    format!("bias of {k} elements"),
                    format!("{:?}", b.shape()),
                ));
            }
        }
        let mut data = Vec::with_capacity(weight.numel() + bias.map_or(0, Tensor::numel));
        data.extend_from_slice(weight.data());
        if let Some(b) = bias {
            data.extend_from_slice(b.data());
        }
        Ok(PackedConv2d {
            data: data.into_boxed_slice(),
            k,
            c_per_g,
            r,
            s,
            has_bias: bias.is_some(),
            params,
            epilogue,
        })
    }

    /// Output shape `[n, k, oh, ow]` for an NCHW input shape.
    pub fn out_shape(&self, in_shape: &[usize]) -> [usize; 4] {
        let (oh, ow) = self
            .params
            .out_size(in_shape[2], in_shape[3], self.r, self.s);
        [in_shape[0], self.k, oh, ow]
    }

    /// The fused epilogue.
    pub fn epilogue(&self) -> Epilogue {
        self.epilogue
    }

    /// Whether this kernel's execution may reassociate floating-point
    /// accumulation relative to the reference oracle, i.e. whether it
    /// claims the tolerance tier instead of the exact tier. True for the
    /// im2col + packed-GEMM path (`c/groups > 1`, where padding taps
    /// become explicit `0.0` terms); false for the direct
    /// single-input-channel path, which is bit-identical to the oracle.
    pub fn reassociates(&self) -> bool {
        self.c_per_g > 1
    }

    /// Runs the convolution from `input` (NCHW, shape `in_shape`) into
    /// `out`, which must hold exactly `out_shape(in_shape)` elements.
    /// Output channel-planes are tiled across the context's thread pool
    /// and im2col scratch is drawn from its buffer pool; bit-identical at
    /// any thread count.
    pub fn run(&self, input: &[f32], in_shape: &[usize], out: &mut [f32], ctx: &ExecCtx<'_>) {
        let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (oh, ow) = self.params.out_size(h, w, self.r, self.s);
        debug_assert_eq!(input.len(), n * c * h * w);
        debug_assert_eq!(out.len(), n * self.k * oh * ow);
        let geom = ConvGeom {
            c,
            h,
            w,
            k: self.k,
            c_per_g: self.c_per_g,
            k_per_g: self.k / self.params.groups,
            r: self.r,
            s: self.s,
            oh,
            ow,
            p: self.params,
        };
        let wlen = self.k * self.c_per_g * self.r * self.s;
        let wd = &self.data[..wlen];
        let bd = self.has_bias.then(|| &self.data[wlen..]);
        let plane = oh * ow;
        let ep = self.epilogue;
        let bufs = ctx.bufs;
        ctx.for_each_row_chunk(out, plane, |_, start, piece| {
            conv2d_rows(input, wd, bd, piece, start / plane.max(1), geom, ep, bufs);
        });
    }
}

impl PackedConv2d {
    /// Runs a pointwise, ungrouped convolution whose input is the channel
    /// concatenation of `parts` (each holding `batch` items of `h × w`
    /// pixels), read where they lie: no concat is materialized, and the
    /// result equals [`PackedConv2d::run`] on the concat bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when the kernel is not 1×1, unit-stride, unpadded and
    /// ungrouped, or when the parts' channels do not sum to its input
    /// channels.
    pub fn run_concat(
        &self,
        parts: &[ConcatPart<'_>],
        batch: usize,
        (h, w): (usize, usize),
        out: &mut [f32],
        ctx: &ExecCtx<'_>,
    ) {
        let p = self.params;
        assert_eq!(
            (self.r, self.s, p.stride_h, p.stride_w, p.pad_h, p.pad_w, p.groups),
            (1, 1, 1, 1, 0, 0, 1),
            "run_concat needs a pointwise, ungrouped conv"
        );
        let c: usize = parts.iter().map(|part| part.channels).sum();
        assert_eq!(
            c, self.c_per_g,
            "concat parts hold the conv's input channels"
        );
        debug_assert_eq!(out.len(), batch * self.k * h * w);
        let geom = ConvGeom {
            c,
            h,
            w,
            k: self.k,
            c_per_g: c,
            k_per_g: self.k,
            r: 1,
            s: 1,
            oh: h,
            ow: w,
            p,
        };
        let wd = &self.data[..self.k * c];
        let bd = self.has_bias.then(|| &self.data[self.k * c..]);
        let plane = h * w;
        let (ep, bufs) = (self.epilogue, ctx.bufs);
        ctx.for_each_row_chunk(out, plane, |_, start, piece| {
            let row0 = start / plane.max(1);
            concat_pointwise_rows(parts, wd, bd, piece, row0, geom, ep, bufs);
        });
    }
}

/// A stride-1 depthwise convolution over token-major activations
/// (`[n, h·w, c]` in, `[n, oh·ow, c]` out), with weights packed
/// `[tap][c]` at plan time and a fused [`Epilogue`].
///
/// It is a transformer MixFFN's `unflatten → depthwise conv → flatten`
/// without the two transposes: each element runs the same tap chain as
/// the plane-layout depthwise kernel, so the result equals
/// `flatten(conv(unflatten(x)))` bit for bit, and a `Gelu` epilogue
/// equals the standalone GELU pass after it.
#[derive(Debug, Clone)]
pub struct PackedTokenDepthwise {
    /// Weights `[r·s][c]`, taps ascending `(ry, sx)`, then the bias `[c]`
    /// when present.
    data: Box<[f32]>,
    c: usize,
    r: usize,
    s: usize,
    pad: (usize, usize),
    has_bias: bool,
    epilogue: Epilogue,
}

impl PackedTokenDepthwise {
    /// Packs a depthwise `weight` (`[c, 1, r, s]`) and optional `bias`
    /// (`[c]`) for stride 1 and padding `pad` (rows, columns).
    ///
    /// # Errors
    ///
    /// Returns an error when the weight is not `[c, 1, r, s]` or the bias
    /// length is not `c`.
    pub fn pack(
        weight: &Tensor,
        bias: Option<&Tensor>,
        pad: (usize, usize),
        epilogue: Epilogue,
    ) -> Result<Self> {
        let &[c, 1, r, s] = weight.shape() else {
            return Err(invalid_shape(
                "packed_token_depthwise",
                format!("weight must be [c, 1, r, s], got {:?}", weight.shape()),
            ));
        };
        if let Some(b) = bias {
            if b.numel() != c {
                return Err(shape_mismatch(
                    "packed_token_depthwise",
                    format!("bias of {c} elements"),
                    format!("{:?}", b.shape()),
                ));
            }
        }
        let taps = r * s;
        let mut data = vec![0.0f32; taps * c];
        for (ch, filter) in weight.data().chunks_exact(taps.max(1)).enumerate() {
            for (tap, &v) in filter.iter().enumerate() {
                data[tap * c + ch] = v;
            }
        }
        data.extend_from_slice(bias.map_or(&[][..], Tensor::data));
        Ok(PackedTokenDepthwise {
            data: data.into_boxed_slice(),
            c,
            r,
            s,
            pad,
            has_bias: bias.is_some(),
            epilogue,
        })
    }

    /// The fused epilogue.
    pub fn epilogue(&self) -> Epilogue {
        self.epilogue
    }

    /// Runs the convolution from `input` (`[n, h·w, c]`) into `out`
    /// (`[n, oh·ow, c]`). Output token rows (`ow · c` elements each) are
    /// tiled across the context's thread pool; bit-identical at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics when the padded input is smaller than the filter.
    pub fn run(&self, input: &[f32], hw: (usize, usize), out: &mut [f32], ctx: &ExecCtx<'_>) {
        let g = TokenDwGeom::new(self.c, hw, (self.r, self.s), self.pad)
            .expect("filter fits the padded input");
        let taps = self.r * self.s * self.c;
        let (wt, bias) = self.data.split_at(taps);
        let bias = self.has_bias.then_some(bias);
        let row = g.ow * g.c;
        let ep = self.epilogue;
        ctx.for_each_row_chunk(out, row, |_, start, piece| {
            token_depthwise_rows(input, wt, bias, piece, start / row.max(1), g, ep);
        });
    }
}

/// A linear layer packed for the GEMM micro-kernel at plan time, plus a
/// fused [`Epilogue`].
///
/// The weight `[out_features, in_features]` (PyTorch convention) is
/// stored as its transpose in [`PackedB`] column-panel layout — the
/// exact operand format the register-blocked kernel streams — followed
/// by the bias `[out_features]` when present. Packing happens once here;
/// replay never touches the row-major weight again.
#[derive(Debug, Clone)]
pub struct PackedLinear {
    weight: PackedB,
    bias: Option<Box<[f32]>>,
    epilogue: Epilogue,
}

impl PackedLinear {
    /// Packs `weight` (`[out_features, in_features]`) and optional `bias`.
    ///
    /// # Errors
    ///
    /// Returns an error when the weight is not rank 2 or the bias length
    /// disagrees with `out_features`.
    pub fn pack(weight: &Tensor, bias: Option<&Tensor>, epilogue: Epilogue) -> Result<Self> {
        if weight.rank() != 2 {
            return Err(invalid_shape(
                "packed_linear",
                format!("weight must be rank 2, got {:?}", weight.shape()),
            ));
        }
        let (out_features, in_features) = (weight.shape()[0], weight.shape()[1]);
        if let Some(b) = bias {
            if b.numel() != out_features {
                return Err(shape_mismatch(
                    "packed_linear",
                    format!("bias of {out_features} elements"),
                    format!("{:?}", b.shape()),
                ));
            }
        }
        Ok(PackedLinear {
            weight: PackedB::pack_transposed(weight.data(), out_features, in_features),
            bias: bias.map(|b| b.data().to_vec().into_boxed_slice()),
            epilogue,
        })
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.n()
    }

    /// The fused epilogue.
    pub fn epilogue(&self) -> Epilogue {
        self.epilogue
    }

    /// Runs the linear layer from `input` (`rows * in_features` elements)
    /// into `out` (`rows * out_features` elements). Output rows are tiled
    /// across the context's thread pool; bit-identical at any thread
    /// count.
    pub fn run(&self, input: &[f32], out: &mut [f32], ctx: &ExecCtx<'_>) {
        let (inf, outf) = (self.weight.k(), self.weight.n());
        debug_assert_eq!(input.len() % inf.max(1), 0);
        debug_assert_eq!(out.len() % outf.max(1), 0);
        let bd = self.bias.as_deref();
        let ep = self.epilogue;
        ctx.for_each_row_chunk(out, outf, |_, start, piece| {
            gemm_rows(
                input,
                inf,
                start / outf.max(1),
                self.weight.panels(),
                piece,
                bd.map_or(GemmBias::None, GemmBias::PerCol),
                ep,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{conv2d, gelu, linear, relu};

    #[test]
    fn epilogue_none_is_identity() {
        for x in [-3.5f32, -0.0, 0.0, 1.25, f32::MAX] {
            assert_eq!(Epilogue::None.apply(x).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn packed_conv_matches_conv_then_activation_bitwise() {
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], -1.0, 1.0, 11);
        let w = Tensor::rand_uniform(&[4, 3, 3, 3], -0.5, 0.5, 12);
        let b = Tensor::rand_uniform(&[4], -0.1, 0.1, 13);
        let p = Conv2dParams::new().stride(2).pad(1);
        for (ep, f) in [
            (Epilogue::Relu, relu as fn(&Tensor) -> Tensor),
            (Epilogue::Gelu, gelu as fn(&Tensor) -> Tensor),
        ] {
            let expect = f(&conv2d(&x, &w, Some(&b), p).unwrap());
            let packed = PackedConv2d::pack(&w, Some(&b), p, ep).unwrap();
            let oshape = packed.out_shape(x.shape());
            let mut out = vec![0.0f32; oshape.iter().product()];
            packed.run(x.data(), x.shape(), &mut out, &ExecCtx::default());
            assert_eq!(out.as_slice(), expect.data());
        }
    }

    #[test]
    fn packed_linear_matches_linear_then_relu_bitwise() {
        let x = Tensor::rand_uniform(&[5, 6], -1.0, 1.0, 21);
        let w = Tensor::rand_uniform(&[4, 6], -0.5, 0.5, 22);
        let b = Tensor::rand_uniform(&[4], -0.1, 0.1, 23);
        let expect = relu(&linear(&x, &w, Some(&b)).unwrap());
        let packed = PackedLinear::pack(&w, Some(&b), Epilogue::Relu).unwrap();
        let mut out = vec![0.0f32; 5 * 4];
        packed.run(x.data(), &mut out, &ExecCtx::default());
        assert_eq!(out.as_slice(), expect.data());
    }

    #[test]
    fn packed_kernels_are_thread_invariant() {
        let pool = crate::par::ThreadPool::new(4);
        let ctx = ExecCtx {
            pool: Some(&pool),
            bufs: None,
        };
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, 31);
        let w = Tensor::rand_uniform(&[8, 4, 3, 3], -0.5, 0.5, 32);
        let packed =
            PackedConv2d::pack(&w, None, Conv2dParams::new().pad(1), Epilogue::Gelu).unwrap();
        let oshape = packed.out_shape(x.shape());
        let mut seq = vec![0.0f32; oshape.iter().product()];
        let mut par = seq.clone();
        packed.run(x.data(), x.shape(), &mut seq, &ExecCtx::default());
        packed.run(x.data(), x.shape(), &mut par, &ctx);
        assert_eq!(seq, par);
    }

    #[test]
    fn run_concat_reads_planes_and_tokens_in_place_bitwise() {
        use crate::ops::{concat_channels, transpose_into, ConcatPart};
        // Parts of 3 planes, 5 token-major channels and 2 planes over a
        // 5×7 image (35 pixels: a ragged tail panel), two items.
        let (n, h, w) = (2, 5, 7);
        let a = Tensor::rand_uniform(&[n, 3, h, w], -1.0, 1.0, 41);
        let t = Tensor::rand_uniform(&[n, h * w, 5], -1.0, 1.0, 42);
        let c = Tensor::rand_uniform(&[n, 2, h, w], -1.0, 1.0, 43);
        let mut t_planes = vec![0.0f32; t.numel()];
        transpose_into(t.data(), h * w, 5, &mut t_planes);
        let t_planes = Tensor::from_vec(t_planes, &[n, 5, h, w]).unwrap();
        let cat = concat_channels(&[&a, &t_planes, &c]).unwrap();
        let wt = Tensor::rand_uniform(&[6, 10, 1, 1], -0.5, 0.5, 44);
        let b = Tensor::rand_uniform(&[6], -0.1, 0.1, 45);
        let packed =
            PackedConv2d::pack(&wt, Some(&b), Conv2dParams::new(), Epilogue::Relu).unwrap();
        let mut want = vec![0.0f32; n * 6 * h * w];
        packed.run(cat.data(), cat.shape(), &mut want, &ExecCtx::default());
        let parts = [
            ConcatPart {
                data: a.data(),
                channels: 3,
                token_major: false,
            },
            ConcatPart {
                data: t.data(),
                channels: 5,
                token_major: true,
            },
            ConcatPart {
                data: c.data(),
                channels: 2,
                token_major: false,
            },
        ];
        // A pool whose recycled scratch is dirty: the pack must overwrite
        // every slot, tail lanes included.
        let bufs = crate::par::BufferPool::new();
        bufs.recycle(vec![f32::NAN; 4096]);
        let pool = crate::par::ThreadPool::new(2);
        for ctx in [
            ExecCtx::default(),
            ExecCtx {
                pool: None,
                bufs: Some(&bufs),
            },
            ExecCtx {
                pool: Some(&pool),
                bufs: Some(&bufs),
            },
        ] {
            let mut got = vec![f32::NAN; want.len()];
            packed.run_concat(&parts, n, (h, w), &mut got, &ctx);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn token_depthwise_equals_the_plane_conv_between_transposes() {
        use crate::ops::{gelu_into, transpose_into};
        let (n, c, h, w) = (2, 24, 6, 5);
        let x = Tensor::rand_uniform(&[n, h * w, c], -1.0, 1.0, 51);
        let wt = Tensor::rand_uniform(&[c, 1, 3, 3], -0.5, 0.5, 52);
        let b = Tensor::rand_uniform(&[c], -0.1, 0.1, 53);
        let p = Conv2dParams::new().pad(1).groups(c);
        let plane = PackedConv2d::pack(&wt, Some(&b), p, Epilogue::None).unwrap();
        let mut planes = vec![0.0f32; x.numel()];
        transpose_into(x.data(), h * w, c, &mut planes);
        let mut y = vec![0.0f32; x.numel()];
        plane.run(&planes, &[n, c, h, w], &mut y, &ExecCtx::default());
        let mut tokens = vec![0.0f32; y.len()];
        transpose_into(&y, c, h * w, &mut tokens);
        let mut want = vec![0.0f32; y.len()];
        gelu_into(&tokens, &mut want);
        let tdw = PackedTokenDepthwise::pack(&wt, Some(&b), (1, 1), Epilogue::Gelu).unwrap();
        let pool = crate::par::ThreadPool::new(3);
        let par = ExecCtx {
            pool: Some(&pool),
            bufs: None,
        };
        for ctx in [ExecCtx::default(), par] {
            let mut got = vec![f32::NAN; want.len()];
            tdw.run(x.data(), (h, w), &mut got, &ctx);
            assert_eq!(got, want);
        }
        let bad = Tensor::zeros(&[c, 2, 3, 3]);
        assert!(PackedTokenDepthwise::pack(&bad, None, (1, 1), Epilogue::None).is_err());
        let short = Tensor::zeros(&[c - 1]);
        assert!(PackedTokenDepthwise::pack(&wt, Some(&short), (1, 1), Epilogue::None).is_err());
    }

    #[test]
    fn conv_reassociation_follows_geometry() {
        let w = Tensor::zeros(&[4, 3, 3, 3]);
        let packed = PackedConv2d::pack(&w, None, Conv2dParams::new(), Epilogue::None).unwrap();
        assert!(packed.reassociates(), "im2col GEMM path reassociates");
        let dw = Tensor::zeros(&[4, 1, 3, 3]);
        let packed =
            PackedConv2d::pack(&dw, None, Conv2dParams::new().groups(4), Epilogue::None).unwrap();
        assert!(!packed.reassociates(), "direct depthwise path is exact");
    }

    #[test]
    fn pack_rejects_bad_shapes() {
        let w3 = Tensor::zeros(&[2, 3, 3]);
        assert!(PackedConv2d::pack(&w3, None, Conv2dParams::new(), Epilogue::None).is_err());
        let w = Tensor::zeros(&[2, 3, 1, 1]);
        let bad_bias = Tensor::zeros(&[3]);
        assert!(
            PackedConv2d::pack(&w, Some(&bad_bias), Conv2dParams::new(), Epilogue::None).is_err()
        );
        let wl = Tensor::zeros(&[2, 3]);
        assert!(PackedLinear::pack(&wl, Some(&bad_bias), Epilogue::None).is_err());
    }
}
