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

pub use activation::{gelu, gelu_into, relu, softmax_last_dim};
pub use attention::{deform_gather_into, sdpa, sdpa_into, SdpaShape};
pub use conv::{conv2d, depthwise_conv2d, ConcatPart, Conv2dParams};
pub use fused::{Epilogue, PackedConv2d, PackedLinear, PackedTokenDepthwise};
pub use layout::{
    cyclic_shift_into, slice_channels_into, space_to_depth_into, transpose_into, window_merge_into,
    window_partition_into,
};
pub use matmul::{linear, matmul};
pub use norm::{batch_norm_inference, batch_norm_into, layer_norm, layer_norm_into};
pub use pack::{block_rows, PackedB, A_BLOCK_BYTES, MR, NR};
pub use pool::{adaptive_avg_pool2d, adaptive_avg_pool2d_into, max_pool2d, max_pool2d_into};
pub use resize::{bilinear_resize, bilinear_resize_into, concat_channels, concat_channels_into};
