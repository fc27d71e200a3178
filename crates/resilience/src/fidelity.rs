//! Measured output fidelity between a pruned and a full execution path.
//!
//! Unlike the anchored accuracy model, this module produces a *measured*
//! resilience signal: it runs the real pruned graph and the real full graph
//! (shared slice-consistent weights) on synthetic scenes and reports the
//! mIoU **between their predicted label maps**. A configuration that
//! bypasses little computation agrees almost perfectly with the full model;
//! aggressive pruning diverges — the same qualitative mechanism the paper
//! measures against ground truth, with the full model standing in for the
//! reference.

use vit_data::{mean_iou, Dataset, SceneGenerator};
use vit_graph::{ExecError, ExecOptions, Executor, Graph, RunContext};
use vit_models::{
    build_segformer, build_swin_upernet, ModelError, SegFormerConfig, SegFormerDynamic,
    SegFormerVariant, SwinConfig, SwinDynamic, SwinVariant,
};

/// Settings of a fidelity measurement.
#[derive(Debug, Clone, Copy)]
pub struct FidelitySettings {
    /// Image size to execute at (small sizes keep this fast; 64x64 by
    /// default).
    pub image: (usize, usize),
    /// Number of synthetic scenes to average over.
    pub samples: usize,
    /// Scene/weight seed.
    pub seed: u64,
}

impl Default for FidelitySettings {
    fn default() -> Self {
        FidelitySettings {
            image: (64, 64),
            samples: 3,
            seed: 7,
        }
    }
}

/// Error from a fidelity measurement.
#[derive(Debug)]
pub enum FidelityError {
    /// A graph failed to build.
    Model(ModelError),
    /// Execution failed.
    Exec(ExecError),
}

impl std::fmt::Display for FidelityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FidelityError::Model(e) => write!(f, "fidelity model error: {e}"),
            FidelityError::Exec(e) => write!(f, "fidelity execution error: {e}"),
        }
    }
}

impl std::error::Error for FidelityError {}

impl From<ModelError> for FidelityError {
    fn from(e: ModelError) -> Self {
        FidelityError::Model(e)
    }
}

impl From<ExecError> for FidelityError {
    fn from(e: ExecError) -> Self {
        FidelityError::Exec(e)
    }
}

fn measure(
    full: &Graph,
    pruned: &Graph,
    classes: usize,
    settings: &FidelitySettings,
) -> Result<f64, FidelityError> {
    let gen = SceneGenerator::new(Dataset::Ade20k, settings.seed);
    let mut exec_full = Executor::new(settings.seed);
    let mut exec_pruned = Executor::new(settings.seed);
    let mut total = 0.0;
    for i in 0..settings.samples {
        let scene = gen.sample_sized(i as u64, settings.image.0, settings.image.1);
        let ref_logits = exec_full.run(full, std::slice::from_ref(&scene.image))?;
        let cut_logits = exec_pruned.run(pruned, &[scene.image])?;
        let ref_map = ref_logits
            .argmax_channels()
            .expect("segmentation output is NCHW");
        let cut_map = cut_logits
            .argmax_channels()
            .expect("segmentation output is NCHW");
        total += mean_iou(&cut_map, &ref_map, classes);
    }
    Ok(total / settings.samples as f64)
}

/// Measured fidelity mIoU of a pruned SegFormer against the full model.
///
/// Returns 1.0 for the full configuration by construction.
///
/// # Errors
///
/// Returns [`FidelityError`] when a graph cannot be built or executed.
pub fn segformer_fidelity(
    variant: &SegFormerVariant,
    dynamic: &SegFormerDynamic,
    settings: &FidelitySettings,
) -> Result<f64, FidelityError> {
    let classes = 150;
    let base = SegFormerConfig::ade20k(*variant).with_image(settings.image.0, settings.image.1);
    let full = build_segformer(&base.clone())?;
    let pruned = build_segformer(&base.with_dynamic(*dynamic))?;
    measure(&full, &pruned, classes, settings)
}

/// Measured mIoU between the packed production kernels and the naive
/// reference oracle (`vit_tensor::ops::reference`) on the *same* full
/// model — the semantic leg of the two-tier kernel contract: the
/// registered ULP/relative tolerance bounds must be invisible at the
/// task level, so this returns 1.0 unless a kernel change spends enough
/// headroom to move an argmax.
///
/// # Errors
///
/// Returns [`FidelityError`] when the graph cannot be built or executed.
pub fn segformer_kernel_tier_fidelity(
    variant: &SegFormerVariant,
    settings: &FidelitySettings,
) -> Result<f64, FidelityError> {
    let classes = 150;
    let base = SegFormerConfig::ade20k(*variant).with_image(settings.image.0, settings.image.1);
    let full = build_segformer(&base)?;
    let gen = SceneGenerator::new(Dataset::Ade20k, settings.seed);
    let mut exec_packed = Executor::new(settings.seed);
    let mut exec_oracle = Executor::new(settings.seed);
    let packed = RunContext::default();
    let oracle =
        RunContext::default().with_exec(ExecOptions::sequential().with_reference_kernels(true));
    let mut total = 0.0;
    for i in 0..settings.samples {
        let scene = gen.sample_sized(i as u64, settings.image.0, settings.image.1);
        let inputs = std::slice::from_ref(&scene.image);
        let p = exec_packed.run_with(&full, inputs, &packed)?;
        let o = exec_oracle.run_with(&full, inputs, &oracle)?;
        let p_map = p.argmax_channels().expect("segmentation output is NCHW");
        let o_map = o.argmax_channels().expect("segmentation output is NCHW");
        total += mean_iou(&p_map, &o_map, classes);
    }
    Ok(total / settings.samples as f64)
}

/// Measured fidelity mIoU of a pruned Swin + UPerNet against the full model.
///
/// # Errors
///
/// Returns [`FidelityError`] when a graph cannot be built or executed.
pub fn swin_fidelity(
    variant: &SwinVariant,
    dynamic: &SwinDynamic,
    settings: &FidelitySettings,
) -> Result<f64, FidelityError> {
    let classes = 150;
    let base = SwinConfig::ade20k(*variant).with_image(settings.image.0, settings.image.1);
    let full = build_swin_upernet(&base.clone())?;
    let pruned = build_swin_upernet(&base.with_dynamic(*dynamic))?;
    measure(&full, &pruned, classes, settings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> FidelitySettings {
        FidelitySettings {
            image: (64, 64),
            samples: 2,
            seed: 3,
        }
    }

    #[test]
    fn full_config_has_perfect_fidelity() {
        let v = SegFormerVariant::b0();
        let f = segformer_fidelity(&v, &SegFormerDynamic::full(&v), &fast()).unwrap();
        assert!((f - 1.0).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn fidelity_degrades_with_aggressive_pruning() {
        let v = SegFormerVariant::b0();
        let mild = SegFormerDynamic::with_depths_and_fuse(&v, v.depths, 896);
        let severe = SegFormerDynamic::with_depths_and_fuse(&v, [1, 1, 1, 1], 128);
        let f_mild = segformer_fidelity(&v, &mild, &fast()).unwrap();
        let f_severe = segformer_fidelity(&v, &severe, &fast()).unwrap();
        assert!(f_mild < 1.0 + 1e-9);
        assert!(
            f_severe < f_mild,
            "severe pruning ({f_severe:.3}) should diverge more than mild ({f_mild:.3})"
        );
        assert!(
            f_mild > 0.2,
            "mild pruning should retain substantial agreement, got {f_mild:.3}"
        );
    }

    #[test]
    fn packed_kernels_are_semantically_invisible() {
        // The whole-model oracle replay: packed GEMM/conv kernels vs the
        // naive reference loops must agree perfectly at the task level.
        let v = SegFormerVariant::b0();
        let f = segformer_kernel_tier_fidelity(&v, &fast()).unwrap();
        assert!((f - 1.0).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn channel_cut_fidelity_is_graceful() {
        // Cutting a modest fraction of fuse channels keeps high agreement —
        // the measured analogue of the paper's resilience claim.
        let v = SegFormerVariant::b0();
        let cut = SegFormerDynamic::with_depths_and_fuse(&v, v.depths, 768);
        let f = segformer_fidelity(&v, &cut, &fast()).unwrap();
        assert!(f > 0.5, "got {f}");
    }
}
