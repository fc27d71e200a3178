//! Numeric kernels operating on [`crate::Tensor`].

mod activation;
mod attention;
mod conv;
mod fused;
mod layout;
mod matmul;
mod norm;
mod pack;
mod pool;
pub mod reference;
mod resize;

pub use activation::{gelu, relu, softmax_last_dim};
pub use attention::{multi_head_attention, AttentionWeights};
pub use conv::{conv2d, conv2d_ctx, depthwise_conv2d, Conv2dParams};
pub use fused::{Epilogue, PackedConv2d, PackedLinear};
pub use layout::transpose_into;
pub use matmul::{bmm, bmm_ctx, linear, linear_ctx, matmul, matmul_ctx};
pub use norm::{batch_norm_inference, layer_norm};
pub use pack::{PackedB, KC, MR, NR};
pub use pool::{adaptive_avg_pool2d, global_avg_pool, max_pool2d};
pub use resize::{bilinear_resize, bilinear_resize_into, concat_channels, concat_channels_into};
