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
use crate::ops::conv::{conv2d_rows, ConvGeom};
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
            reference: false,
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
