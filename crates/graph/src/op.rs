//! Operator definitions: every layer kind a vision-transformer graph can
//! contain, with shape inference and analytical FLOPs/parameter counts.

use std::fmt;

/// Structural classification of a layer, used to aggregate per-layer costs
/// into the classes the paper's figures report (convolutions, matrix
/// multiplications, attention, normalization, element-wise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Standard, grouped, and depthwise 2-D convolutions.
    Conv,
    /// Linear / fully-connected layers and their matrix multiplications.
    Matmul,
    /// Attention score/context matrix multiplications plus softmax.
    Attention,
    /// LayerNorm / BatchNorm.
    Norm,
    /// Element-wise activations and additions.
    Elementwise,
    /// Pooling, resizing, reshaping, concatenation and other data movement.
    Memory,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Conv => "conv",
            OpClass::Matmul => "matmul",
            OpClass::Attention => "attention",
            OpClass::Norm => "norm",
            OpClass::Elementwise => "elementwise",
            OpClass::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// Functional role of a layer within the application pipeline, matching the
/// named layers of the paper (Figure 2): e.g. `Conv2DFuse`, the decoder
/// linears, the FPN convolutions, the ResNet backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerRole {
    /// Overlap patch embedding convolutions in the encoder.
    PatchEmbed {
        /// Encoder stage index.
        stage: usize,
    },
    /// A transformer block in an encoder stage.
    EncoderBlock {
        /// Encoder stage index.
        stage: usize,
        /// Block index within the stage.
        block: usize,
    },
    /// A decoder linear projecting an encoder-stage output
    /// (`DecodeLinear0..3` in SegFormer).
    DecoderLinear {
        /// Encoder stage whose output this linear consumes.
        stage: usize,
    },
    /// The large fusion convolution in the decoder (`Conv2DFuse` in
    /// SegFormer, `fpn_bottleneck_Conv2D` in Swin/UPerNet).
    FuseConv,
    /// The final prediction convolution (`Conv2DPred`).
    PredConv,
    /// UPerNet lateral/FPN convolution at a pyramid level.
    FpnConv {
        /// Pyramid level.
        level: usize,
    },
    /// UPerNet pyramid-pooling-module branch.
    PpmBranch {
        /// Pooling output size of the branch.
        scale: usize,
    },
    /// CNN backbone layer (ResNet-50 in DETR / Deformable DETR / OFA).
    Backbone,
    /// Transformer encoder layer in a detection model.
    DetTransformerEncoder,
    /// Transformer decoder layer in a detection model.
    DetTransformerDecoder,
    /// Task-specific head (classification or detection FFN).
    Head,
    /// Anything else (reshapes, glue).
    Other,
}

impl LayerRole {
    /// Whether the role belongs to the model's decoder (the paper's
    /// encoder/decoder FLOPs split counts everything after the encoder
    /// stages as decoder).
    pub fn is_decoder(&self) -> bool {
        matches!(
            self,
            LayerRole::DecoderLinear { .. }
                | LayerRole::FuseConv
                | LayerRole::PredConv
                | LayerRole::FpnConv { .. }
                | LayerRole::PpmBranch { .. }
        )
    }
}

/// A layer operator with all static hyper-parameters.
///
/// Input channel/feature counts are inferred from input shapes, so a node's
/// operator never has to be rewritten when upstream layers are pruned.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Graph input with a fixed shape.
    Input {
        /// The shape of this input.
        shape: Vec<usize>,
    },
    /// 2-D convolution over NCHW.
    Conv2d {
        /// Output channels.
        out_channels: usize,
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride in each direction.
        stride: (usize, usize),
        /// Padding in each direction.
        pad: (usize, usize),
        /// Group count (`in_channels` for depthwise).
        groups: usize,
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// Fully-connected layer over the last dimension.
    Linear {
        /// Output features.
        out_features: usize,
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// Layer normalization over the last dimension.
    LayerNorm,
    /// Inference-form batch normalization over NCHW channels.
    BatchNorm,
    /// ReLU activation.
    Relu,
    /// GELU activation.
    Gelu,
    /// Scaled-dot-product attention over `[q, k, v]` inputs
    /// (`[b, n, d]`, `[b, m, d]`, `[b, m, d]`).
    Sdpa {
        /// Number of attention heads.
        heads: usize,
    },
    /// Multi-scale deformable attention (Deformable DETR): inputs are
    /// `[query, value]` with `query = [b, n, dim]` and `value = [b, m, dim]`
    /// the flattened multi-scale feature maps. The op owns its value/output
    /// projections and the sampling-offset/weight projections.
    DeformAttn {
        /// Number of attention heads.
        heads: usize,
        /// Number of feature-map levels sampled.
        levels: usize,
        /// Sampling points per head per level.
        points: usize,
        /// Embedding dimension.
        dim: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Square window size.
        window: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Adaptive average pooling to a fixed output size.
    AdaptiveAvgPool {
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
    },
    /// Bilinear resize to a fixed output size.
    Resize {
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
    },
    /// Channel concatenation of all inputs.
    Concat,
    /// Element-wise addition of two inputs.
    Add,
    /// `[n, c, h, w]` -> `[n, h*w, c]`.
    FlattenHw,
    /// `[n, h*w, c]` -> `[n, c, h, w]`.
    UnflattenHw {
        /// Spatial height.
        h: usize,
        /// Spatial width.
        w: usize,
    },
    /// Partition NCHW into non-overlapping windows:
    /// `[n, c, h, w]` -> `[n * (h/win) * (w/win), win*win, c]`.
    WindowPartition {
        /// Window side length.
        window: usize,
    },
    /// Inverse of [`Op::WindowPartition`].
    WindowMerge {
        /// Window side length.
        window: usize,
        /// Original height.
        h: usize,
        /// Original width.
        w: usize,
    },
    /// Cyclic spatial shift (for shifted-window attention).
    CyclicShift {
        /// Vertical shift.
        dy: isize,
        /// Horizontal shift.
        dx: isize,
    },
    /// Global average pooling: `[n, c, h, w]` -> `[n, c]`.
    GlobalAvgPool,
    /// Identity (used to bypass a layer in a dynamic execution path).
    Identity,
    /// Keeps the first `keep` channels: dim 1 of an NCHW tensor or the last
    /// dim of a `[b, n, c]` sequence. Used to cut a layer's input channels
    /// in a dynamic execution path.
    SliceChannels {
        /// Number of leading channels to keep.
        keep: usize,
    },
    /// Space-to-depth rearrangement: `[n, c, h, w]` ->
    /// `[n, c*b*b, h/b, w/b]`. Used for convolution-free patch embedding
    /// (ViT) and Swin patch merging.
    SpaceToDepth {
        /// Block side length.
        block: usize,
    },
    /// Concatenates rank-3 `[b, n, c]` sequences along the token dimension
    /// (multi-scale feature flattening in Deformable DETR).
    ConcatTokens,
}

/// Error from graph construction or shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphError {
    /// Node name where the problem was detected.
    pub node: String,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph error at `{}`: {}", self.node, self.msg)
    }
}

impl std::error::Error for GraphError {}

fn err(node: &str, msg: impl Into<String>) -> GraphError {
    GraphError {
        node: node.to_string(),
        msg: msg.into(),
    }
}

impl Op {
    /// The variant name (e.g. `"Conv2d"`), used as the op-kind label of
    /// trace events and flame summaries.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Input { .. } => "Input",
            Op::Conv2d { .. } => "Conv2d",
            Op::Linear { .. } => "Linear",
            Op::Sdpa { .. } => "Sdpa",
            Op::DeformAttn { .. } => "DeformAttn",
            Op::LayerNorm => "LayerNorm",
            Op::BatchNorm => "BatchNorm",
            Op::Relu => "Relu",
            Op::Gelu => "Gelu",
            Op::MaxPool { .. } => "MaxPool",
            Op::AdaptiveAvgPool { .. } => "AdaptiveAvgPool",
            Op::Resize { .. } => "Resize",
            Op::Concat => "Concat",
            Op::Add => "Add",
            Op::FlattenHw => "FlattenHw",
            Op::UnflattenHw { .. } => "UnflattenHw",
            Op::WindowPartition { .. } => "WindowPartition",
            Op::WindowMerge { .. } => "WindowMerge",
            Op::CyclicShift { .. } => "CyclicShift",
            Op::GlobalAvgPool => "GlobalAvgPool",
            Op::Identity => "Identity",
            Op::SliceChannels { .. } => "SliceChannels",
            Op::SpaceToDepth { .. } => "SpaceToDepth",
            Op::ConcatTokens => "ConcatTokens",
        }
    }

    /// The structural class of this operator.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Conv2d { .. } => OpClass::Conv,
            Op::Linear { .. } => OpClass::Matmul,
            Op::Sdpa { .. } | Op::DeformAttn { .. } => OpClass::Attention,
            Op::LayerNorm | Op::BatchNorm => OpClass::Norm,
            Op::Relu | Op::Gelu | Op::Add => OpClass::Elementwise,
            _ => OpClass::Memory,
        }
    }

    /// Number of inputs this operator requires; `None` means variadic
    /// (at least one).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Input { .. } => Some(0),
            Op::Sdpa { .. } => Some(3),
            Op::DeformAttn { .. } => Some(2),
            Op::Add => Some(2),
            Op::Concat | Op::ConcatTokens => None,
            _ => Some(1),
        }
    }

    /// Infers the output shape given input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when input shapes are incompatible with this
    /// operator's parameters.
    pub fn infer_shape(&self, name: &str, inputs: &[&[usize]]) -> Result<Vec<usize>, GraphError> {
        if let Some(a) = self.arity() {
            if inputs.len() != a {
                return Err(err(
                    name,
                    format!("{self:?} expects {a} inputs, got {}", inputs.len()),
                ));
            }
        } else if inputs.is_empty() {
            return Err(err(name, "concat needs at least one input"));
        }
        let nchw = |s: &[usize]| -> Result<(usize, usize, usize, usize), GraphError> {
            if s.len() != 4 {
                return Err(err(name, format!("expected NCHW input, got {s:?}")));
            }
            Ok((s[0], s[1], s[2], s[3]))
        };
        match self {
            Op::Input { shape } => Ok(shape.clone()),
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                pad,
                groups,
                ..
            } => {
                let (n, c, h, w) = nchw(inputs[0])?;
                if *groups == 0 || c % groups != 0 || out_channels % groups != 0 {
                    return Err(err(
                        name,
                        format!(
                            "channels in={c} out={out_channels} not divisible by groups {groups}"
                        ),
                    ));
                }
                if h + 2 * pad.0 < kernel.0 || w + 2 * pad.1 < kernel.1 {
                    return Err(err(
                        name,
                        format!("kernel {kernel:?} larger than padded input {h}x{w}"),
                    ));
                }
                let oh = (h + 2 * pad.0 - kernel.0) / stride.0 + 1;
                let ow = (w + 2 * pad.1 - kernel.1) / stride.1 + 1;
                Ok(vec![n, *out_channels, oh, ow])
            }
            Op::Linear { out_features, .. } => {
                let s = inputs[0];
                if s.is_empty() {
                    return Err(err(name, "linear input must have at least one dim"));
                }
                let mut out = s.to_vec();
                *out.last_mut().expect("nonempty") = *out_features;
                Ok(out)
            }
            Op::LayerNorm | Op::Relu | Op::Gelu | Op::Identity => Ok(inputs[0].to_vec()),
            Op::BatchNorm => {
                nchw(inputs[0])?;
                Ok(inputs[0].to_vec())
            }
            Op::Sdpa { heads } => {
                // The kernel's own validation: rank-3 q/k/v with a shared
                // batch, at least one key, and `heads` dividing both the
                // q/k and the v width.
                let s = vit_tensor::ops::SdpaShape::new(inputs[0], inputs[1], inputs[2], *heads)
                    .map_err(|e| err(name, e.to_string()))?;
                // Output embeds the value dimension per token.
                Ok(vec![s.batch, s.n, s.dv])
            }
            Op::DeformAttn {
                heads,
                levels,
                points,
                dim,
            } => {
                // Attention's validation with the value tokens as keys and
                // values (so there is at least one), plus the op's width
                // and at least one sample.
                let s = vit_tensor::ops::SdpaShape::new(inputs[0], inputs[1], inputs[1], *heads)
                    .map_err(|e| err(name, e.to_string()))?;
                if s.d != *dim || levels * points == 0 {
                    let got = format!("width {} and {levels}×{points} samples", s.d);
                    let want = format!("width {dim} and at least one sample");
                    return Err(err(name, format!("expected {want}, got {got}")));
                }
                Ok(inputs[0].to_vec())
            }
            Op::MaxPool {
                window,
                stride,
                pad,
            } => {
                let (n, c, h, w) = nchw(inputs[0])?;
                if *window == 0 || *stride == 0 {
                    return Err(err(name, "window and stride must be nonzero"));
                }
                if h + 2 * pad < *window || w + 2 * pad < *window {
                    return Err(err(
                        name,
                        format!("window {window} larger than padded input {h}x{w}"),
                    ));
                }
                let oh = (h + 2 * pad - window) / stride + 1;
                let ow = (w + 2 * pad - window) / stride + 1;
                Ok(vec![n, c, oh, ow])
            }
            Op::AdaptiveAvgPool { out_h, out_w } | Op::Resize { out_h, out_w } => {
                let (n, c, _, _) = nchw(inputs[0])?;
                if *out_h == 0 || *out_w == 0 {
                    return Err(err(name, "output size must be nonzero"));
                }
                Ok(vec![n, c, *out_h, *out_w])
            }
            Op::Concat => {
                let (n, _, h, w) = nchw(inputs[0])?;
                let mut total_c = 0;
                for s in inputs {
                    let (n2, c2, h2, w2) = nchw(s)?;
                    if n2 != n || h2 != h || w2 != w {
                        return Err(err(name, format!("concat shape mismatch: {s:?}")));
                    }
                    total_c += c2;
                }
                Ok(vec![n, total_c, h, w])
            }
            Op::Add => {
                if inputs[0] != inputs[1] {
                    return Err(err(
                        name,
                        format!("add shape mismatch: {:?} vs {:?}", inputs[0], inputs[1]),
                    ));
                }
                Ok(inputs[0].to_vec())
            }
            Op::FlattenHw => {
                let (n, c, h, w) = nchw(inputs[0])?;
                Ok(vec![n, h * w, c])
            }
            Op::UnflattenHw { h, w } => {
                let s = inputs[0];
                if s.len() != 3 || s[1] != h * w {
                    return Err(err(name, format!("cannot unflatten {s:?} to h={h} w={w}")));
                }
                Ok(vec![s[0], s[2], *h, *w])
            }
            Op::WindowPartition { window } => {
                // Inputs whose spatial size is not a window multiple are
                // implicitly zero-padded (as Swin does before windowing).
                let (n, c, h, w) = nchw(inputs[0])?;
                if *window == 0 {
                    return Err(err(name, "window must be nonzero"));
                }
                let (nh, nw) = (h.div_ceil(*window), w.div_ceil(*window));
                Ok(vec![n * nh * nw, window * window, c])
            }
            Op::WindowMerge { window, h, w } => {
                // Padded pixels introduced by the matching partition are
                // cropped away.
                let s = inputs[0];
                if s.len() != 3 || s[1] != window * window {
                    return Err(err(name, format!("cannot merge windows from {s:?}")));
                }
                if *window == 0 {
                    return Err(err(
                        name,
                        format!("bad merge target {h}x{w} window {window}"),
                    ));
                }
                let windows = h.div_ceil(*window) * w.div_ceil(*window);
                if !s[0].is_multiple_of(windows) {
                    return Err(err(
                        name,
                        format!("batch {} not divisible by window count {windows}", s[0]),
                    ));
                }
                Ok(vec![s[0] / windows, s[2], *h, *w])
            }
            Op::CyclicShift { .. } => {
                nchw(inputs[0])?;
                Ok(inputs[0].to_vec())
            }
            Op::GlobalAvgPool => {
                let (n, c, _, _) = nchw(inputs[0])?;
                Ok(vec![n, c])
            }
            Op::SliceChannels { keep } => {
                let s = inputs[0];
                let mut out = s.to_vec();
                match s.len() {
                    4 => {
                        if *keep == 0 || *keep > s[1] {
                            return Err(err(
                                name,
                                format!("cannot keep {keep} of {} channels", s[1]),
                            ));
                        }
                        out[1] = *keep;
                    }
                    3 => {
                        if *keep == 0 || *keep > s[2] {
                            return Err(err(
                                name,
                                format!("cannot keep {keep} of {} features", s[2]),
                            ));
                        }
                        out[2] = *keep;
                    }
                    _ => return Err(err(name, format!("slice expects rank 3 or 4, got {s:?}"))),
                }
                Ok(out)
            }
            Op::SpaceToDepth { block } => {
                let (n, c, h, w) = nchw(inputs[0])?;
                if *block == 0 || h % block != 0 || w % block != 0 {
                    return Err(err(
                        name,
                        format!("spatial {h}x{w} not divisible by block {block}"),
                    ));
                }
                Ok(vec![n, c * block * block, h / block, w / block])
            }
            Op::ConcatTokens => {
                let first = inputs[0];
                if first.len() != 3 {
                    return Err(err(name, format!("expected rank-3 inputs, got {first:?}")));
                }
                let (b, c) = (first[0], first[2]);
                let mut tokens = 0;
                for s in inputs {
                    if s.len() != 3 || s[0] != b || s[2] != c {
                        return Err(err(name, format!("token concat shape mismatch: {s:?}")));
                    }
                    tokens += s[1];
                }
                Ok(vec![b, tokens, c])
            }
        }
    }

    /// Floating-point operations performed by this operator.
    ///
    /// Counted in the MAC convention (one multiply-accumulate = one FLOP),
    /// which is what mmsegmentation/mmdetection report and what the paper's
    /// GFLOPs figures use (SegFormer-B2 at 512x512 = 62.6 "GFLOPs", of which
    /// `Conv2DFuse` = 3072*768*128*128 = 38.7G = 62%).
    pub fn flops(&self, inputs: &[&[usize]], output: &[usize]) -> u64 {
        let numel = |s: &[usize]| s.iter().product::<usize>() as u64;
        match self {
            Op::Conv2d {
                out_channels: _,
                kernel,
                groups,
                bias,
                ..
            } => {
                let c = inputs[0][1] as u64;
                let out = numel(output);
                let macs = out * (c / *groups as u64) * kernel.0 as u64 * kernel.1 as u64;
                macs + if *bias { out } else { 0 }
            }
            Op::Linear { out_features, bias } => {
                let in_features = *inputs[0].last().unwrap_or(&0) as u64;
                let rows = numel(inputs[0]) / in_features.max(1);
                let macs = rows * in_features * *out_features as u64;
                macs + if *bias {
                    rows * *out_features as u64
                } else {
                    0
                }
            }
            Op::Sdpa { .. } => {
                let (b, n, d) = (
                    inputs[0][0] as u64,
                    inputs[0][1] as u64,
                    inputs[0][2] as u64,
                );
                let m = inputs[1][1] as u64;
                let dv = inputs[2][2] as u64;
                // scores (b*n*m*d MACs) + softmax (~5 flops/element) + context.
                b * n * m * d + 5 * b * n * m + b * n * m * dv
            }
            Op::DeformAttn {
                heads: _,
                levels,
                points,
                dim,
            } => {
                let (b, n, d) = (inputs[0][0] as u64, inputs[0][1] as u64, *dim as u64);
                debug_assert_eq!(d, inputs[0][2] as u64);
                let m = inputs[1][1] as u64;
                let (l, p) = (*levels as u64, *points as u64);
                // value projection + output projection over all value tokens
                // and query tokens, offset/weight projections per query, and
                // the sampled weighted aggregation.
                let value_proj = b * m * d * d;
                let out_proj = b * n * d * d;
                let offsets = b * n * d * (l * p * 3); // 2 offsets + 1 weight
                let aggregate = b * n * l * p * d;
                value_proj + out_proj + offsets + aggregate
            }
            Op::LayerNorm => 8 * numel(inputs[0]),
            Op::BatchNorm => 2 * numel(inputs[0]),
            Op::Relu => numel(inputs[0]),
            Op::Gelu => 10 * numel(inputs[0]),
            Op::Add => numel(output),
            Op::MaxPool { window, .. } => numel(output) * (*window as u64).pow(2),
            Op::AdaptiveAvgPool { .. } | Op::GlobalAvgPool => numel(inputs[0]),
            Op::Resize { .. } => 8 * numel(output),
            // Pure data movement.
            Op::Input { .. }
            | Op::Concat
            | Op::FlattenHw
            | Op::UnflattenHw { .. }
            | Op::WindowPartition { .. }
            | Op::WindowMerge { .. }
            | Op::CyclicShift { .. }
            | Op::Identity
            | Op::SliceChannels { .. }
            | Op::SpaceToDepth { .. }
            | Op::ConcatTokens => 0,
        }
    }

    /// Number of learned parameters held by this operator.
    pub fn params(&self, inputs: &[&[usize]]) -> u64 {
        match self {
            Op::Conv2d {
                out_channels,
                kernel,
                groups,
                bias,
                ..
            } => {
                let c = inputs[0][1] as u64;
                let w =
                    *out_channels as u64 * (c / *groups as u64) * kernel.0 as u64 * kernel.1 as u64;
                w + if *bias { *out_channels as u64 } else { 0 }
            }
            Op::Linear { out_features, bias } => {
                let in_features = *inputs[0].last().unwrap_or(&0) as u64;
                in_features * *out_features as u64 + if *bias { *out_features as u64 } else { 0 }
            }
            Op::DeformAttn {
                levels,
                points,
                dim,
                ..
            } => {
                let d = *dim as u64;
                let (l, p) = (*levels as u64, *points as u64);
                // value proj + output proj + offset/weight projections.
                d * d * 2 + d * l * p * 3
            }
            Op::LayerNorm => 2 * *inputs[0].last().unwrap_or(&0) as u64,
            Op::BatchNorm => 2 * inputs[0][1] as u64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_inference_matches_formula() {
        let op = Op::Conv2d {
            out_channels: 64,
            kernel: (7, 7),
            stride: (4, 4),
            pad: (3, 3),
            groups: 1,
            bias: true,
        };
        let s = op.infer_shape("t", &[&[1, 3, 512, 512]]).unwrap();
        assert_eq!(s, vec![1, 64, 128, 128]);
    }

    #[test]
    fn conv_flops_formula() {
        // 1x1 conv, 3072 -> 768 on 128x128: the paper's Conv2DFuse.
        let op = Op::Conv2d {
            out_channels: 768,
            kernel: (1, 1),
            stride: (1, 1),
            pad: (0, 0),
            groups: 1,
            bias: true,
        };
        let input = [1usize, 3072, 128, 128];
        let out = op.infer_shape("fuse", &[&input]).unwrap();
        let flops = op.flops(&[&input], &out);
        // 128*128*768*3072 MACs + bias
        let expect = 128u64 * 128 * 768 * 3072 + 128 * 128 * 768;
        assert_eq!(flops, expect);
        // ~38.7 GMACs: 62% of SegFormer-B2's 62.6 "GFLOPs" at the ADE image
        // size comes from this single layer, exactly as the paper reports.
        assert!(flops > 38_000_000_000 && flops < 40_000_000_000);
    }

    #[test]
    fn depthwise_conv_flops_scale_with_groups() {
        let dense = Op::Conv2d {
            out_channels: 64,
            kernel: (3, 3),
            stride: (1, 1),
            pad: (1, 1),
            groups: 1,
            bias: false,
        };
        let dw = Op::Conv2d {
            out_channels: 64,
            kernel: (3, 3),
            stride: (1, 1),
            pad: (1, 1),
            groups: 64,
            bias: false,
        };
        let input = [1usize, 64, 32, 32];
        let out = dense.infer_shape("d", &[&input]).unwrap();
        assert_eq!(dense.flops(&[&input], &out), 64 * dw.flops(&[&input], &out));
    }

    #[test]
    fn sdpa_shape_and_flops() {
        let op = Op::Sdpa { heads: 8 };
        let q = [2usize, 100, 64];
        let k = [2usize, 25, 64];
        let v = [2usize, 25, 64];
        let s = op.infer_shape("attn", &[&q, &k, &v]).unwrap();
        assert_eq!(s, vec![2, 100, 64]);
        let flops = op.flops(&[&q, &k, &v], &s);
        let expect = 2 * 100 * 25 * 64 + 5 * 2 * 100 * 25 + 2 * 100 * 25 * 64;
        assert_eq!(flops, expect as u64);
    }

    #[test]
    fn sdpa_rejects_head_mismatch() {
        let op = Op::Sdpa { heads: 7 };
        let q = [1usize, 10, 64];
        assert!(op.infer_shape("attn", &[&q, &q, &q]).is_err());
        // The value width must split over the heads too, and there must
        // be at least one key; a graph breaking either fails at build time,
        // not in the kernel.
        let op = Op::Sdpa { heads: 4 };
        let (q, k) = ([1usize, 4, 8], [1usize, 3, 8]);
        assert!(op.infer_shape("attn", &[&q, &k, &[1, 3, 6]]).is_err());
        assert!(op
            .infer_shape("attn", &[&q, &[1, 0, 8], &[1, 0, 8]])
            .is_err());
        assert_eq!(
            op.infer_shape("attn", &[&q, &k, &[1, 3, 12]]).unwrap(),
            vec![1, 4, 12]
        );
    }

    #[test]
    fn max_pool_rejects_a_window_larger_than_the_padded_input() {
        let op = |window, pad| Op::MaxPool {
            window,
            stride: 1,
            pad,
        };
        assert!(op(4, 0).infer_shape("p", &[&[1, 2, 3, 5]]).is_err());
        assert!(op(6, 1).infer_shape("p", &[&[1, 2, 5, 3]]).is_err());
        assert_eq!(
            op(4, 1).infer_shape("p", &[&[1, 2, 3, 5]]).unwrap(),
            vec![1, 2, 2, 4]
        );
    }

    #[test]
    fn deform_attn_rejects_an_empty_value_set() {
        let op = Op::DeformAttn {
            heads: 2,
            levels: 2,
            points: 2,
            dim: 8,
        };
        let q = [1usize, 4, 8];
        assert!(op.infer_shape("d", &[&q, &[1, 0, 8]]).is_err());
        assert!(op.infer_shape("d", &[&q, &[1, 3, 6]]).is_err());
        assert!(op.infer_shape("d", &[&[1, 4, 6], &[1, 3, 6]]).is_err());
        let no_samples = Op::DeformAttn {
            heads: 2,
            levels: 0,
            points: 2,
            dim: 8,
        };
        assert!(no_samples.infer_shape("d", &[&q, &[1, 3, 8]]).is_err());
        assert_eq!(op.infer_shape("d", &[&q, &[1, 3, 8]]).unwrap(), q);
    }

    #[test]
    fn window_partition_merge_round_trip_shapes() {
        let part = Op::WindowPartition { window: 7 };
        let s = part.infer_shape("p", &[&[1, 96, 56, 56]]).unwrap();
        assert_eq!(s, vec![64, 49, 96]);
        let merge = Op::WindowMerge {
            window: 7,
            h: 56,
            w: 56,
        };
        let back = merge.infer_shape("m", &[&s]).unwrap();
        assert_eq!(back, vec![1, 96, 56, 56]);
    }

    #[test]
    fn flatten_unflatten_round_trip() {
        let f = Op::FlattenHw;
        let s = f.infer_shape("f", &[&[2, 32, 16, 16]]).unwrap();
        assert_eq!(s, vec![2, 256, 32]);
        let u = Op::UnflattenHw { h: 16, w: 16 };
        assert_eq!(u.infer_shape("u", &[&s]).unwrap(), vec![2, 32, 16, 16]);
    }

    #[test]
    fn concat_sums_channels() {
        let op = Op::Concat;
        let a = [1usize, 768, 128, 128];
        let shapes: Vec<&[usize]> = vec![&a, &a, &a, &a];
        assert_eq!(
            op.infer_shape("c", &shapes).unwrap(),
            vec![1, 3072, 128, 128]
        );
    }

    #[test]
    fn linear_params_count() {
        let op = Op::Linear {
            out_features: 256,
            bias: true,
        };
        assert_eq!(op.params(&[&[1, 10, 64]]), 64 * 256 + 256);
    }

    #[test]
    fn identity_is_free() {
        let op = Op::Identity;
        let s = [1usize, 4, 8, 8];
        assert_eq!(op.flops(&[&s], &s), 0);
        assert_eq!(op.params(&[&s]), 0);
    }

    #[test]
    fn role_decoder_classification() {
        assert!(LayerRole::FuseConv.is_decoder());
        assert!(LayerRole::FpnConv { level: 1 }.is_decoder());
        assert!(!LayerRole::EncoderBlock { stage: 0, block: 0 }.is_decoder());
        assert!(!LayerRole::Backbone.is_decoder());
    }
}
