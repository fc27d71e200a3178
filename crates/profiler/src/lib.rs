//! # vit-profiler
//!
//! Profiling for DRT-ViT graphs: analytical FLOPs / parameter / DRAM-byte
//! accounting ([`flops`]) and a calibrated GPU latency + energy model
//! ([`gpu`]) standing in for the paper's NVIDIA TITAN V measurements.
//!
//! # Examples
//!
//! ```
//! use vit_models::{build_segformer, SegFormerConfig, SegFormerVariant};
//! use vit_profiler::{GpuModel, Profile};
//!
//! # fn main() -> Result<(), vit_models::ModelError> {
//! let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b2()))?;
//! let profile = Profile::with_gpu(&g, &GpuModel::titan_v());
//! let fuse_share = profile.flops_share("decoder.conv_fuse");
//! assert!(fuse_share > 0.5); // Conv2DFuse dominates (paper Fig. 3)
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod flops;
pub mod gpu;

pub use flops::{CostSummary, LayerCost, Profile};
pub use gpu::{GpuModel, GpuParams};
