//! # vit-tensor
//!
//! Dense tensor kernels for the DRT-ViT reproduction: a row-major `f32`
//! [`Tensor`] plus the small set of operations vision transformers need —
//! convolution (standard, grouped, depthwise), matrix multiplication
//! (plain and batched, the building blocks of attention), softmax,
//! LayerNorm/BatchNorm, pooling, bilinear resizing, and channel
//! concatenation.
//!
//! Everything is written from scratch against the standard library; `rand`
//! is used only for seeded synthetic weights so that experiments are
//! bit-reproducible.
//!
//! # Examples
//!
//! ```
//! use vit_tensor::{ops, Tensor};
//!
//! # fn main() -> Result<(), vit_tensor::TensorError> {
//! // A 3x3 blur over a synthetic image.
//! let image = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 42);
//! let kernel = Tensor::full(&[3, 3, 3, 3], 1.0 / 27.0);
//! let blurred = ops::conv2d(&image, &kernel, None, ops::Conv2dParams::new().pad(1))?;
//! assert_eq!(blurred.shape(), &[1, 3, 16, 16]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod corrupt;
mod error;
pub mod ops;
pub mod par;
pub mod shadow;
mod tensor;

pub use error::{Result, TensorError};
pub use par::{row_chunks, BufferPool, BufferPoolStats, ExecCtx, ThreadPool};
pub use shadow::{ShadowAccess, ShadowViolation, ShadowViolationKind};
pub use tensor::Tensor;
