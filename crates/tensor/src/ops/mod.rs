//! Numeric kernels operating on [`crate::Tensor`].

mod activation;
mod conv;
mod fused;
mod layout;
mod matmul;
mod norm;
mod pack;
mod pool;
pub mod reference;
mod resize;

pub use activation::{gelu, gelu_into, relu, softmax_last_dim};
pub use conv::{conv2d, conv2d_ctx, depthwise_conv2d, Conv2dParams};
pub use fused::{Epilogue, PackedConv2d, PackedLinear};
pub use layout::transpose_into;
pub use matmul::{bmm, bmm_ctx, linear, linear_ctx, matmul, matmul_ctx};
pub use norm::{batch_norm_inference, layer_norm};
pub use pack::{block_rows, PackedB, A_BLOCK_BYTES, MR, NR};
pub use pool::{adaptive_avg_pool2d, global_avg_pool, max_pool2d};
pub use resize::{bilinear_resize, bilinear_resize_into, concat_channels, concat_channels_into};
