//! The paper's published dynamic-configuration points (Tables II and III)
//! and the configuration spaces swept around them.

use vit_models::{SegFormerDynamic, SegFormerVariant, SwinDynamic, SwinVariant};

/// Which dataset/model pairing a point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// SegFormer-B2 trained on ADE20K (512x512).
    SegFormerAde,
    /// SegFormer-B2 trained on Cityscapes (1024x2048).
    SegFormerCityscapes,
    /// Swin-Tiny + UPerNet on ADE20K.
    SwinTinyAde,
    /// Swin-Base + UPerNet on ADE20K.
    SwinBaseAde,
}

/// A published anchor: a dynamic configuration together with the paper's
/// measured normalized mIoU (and, where published, normalized resource
/// utilization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperPoint {
    /// The paper's label (`A`..`L` for Table II; synthesized labels
    /// elsewhere).
    pub label: &'static str,
    /// Encoder depths of the configuration.
    pub depths: [usize; 4],
    /// Fuse-convolution input channels (`Conv2DFuse` /
    /// `fpn_bottleneck_Conv2D`).
    pub fuse_in_channels: usize,
    /// Normalized resource utilization the paper reports (1.0 = full model).
    pub norm_resource: f64,
    /// Normalized mIoU the paper reports (1.0 = full model).
    pub norm_miou: f64,
}

/// Table II, rows A-G: SegFormer-B2 trained on ADE20K.
/// Row A is the full model.
pub fn table2_ade() -> Vec<PaperPoint> {
    vec![
        PaperPoint {
            label: "A",
            depths: [3, 4, 6, 3],
            fuse_in_channels: 3072,
            norm_resource: 1.00,
            norm_miou: 1.00,
        },
        PaperPoint {
            label: "B",
            depths: [3, 4, 6, 3],
            fuse_in_channels: 1920,
            norm_resource: 0.88,
            norm_miou: 0.98,
        },
        PaperPoint {
            label: "C",
            depths: [2, 4, 6, 3],
            fuse_in_channels: 1664,
            norm_resource: 0.83,
            norm_miou: 0.96,
        },
        PaperPoint {
            label: "D",
            depths: [2, 3, 6, 3],
            fuse_in_channels: 1408,
            norm_resource: 0.78,
            norm_miou: 0.92,
        },
        PaperPoint {
            label: "E",
            depths: [2, 3, 5, 3],
            fuse_in_channels: 1024,
            norm_resource: 0.73,
            norm_miou: 0.82,
        },
        PaperPoint {
            label: "F",
            depths: [3, 2, 5, 2],
            fuse_in_channels: 896,
            norm_resource: 0.69,
            norm_miou: 0.72,
        },
        PaperPoint {
            label: "G",
            depths: [2, 3, 4, 3],
            fuse_in_channels: 512,
            norm_resource: 0.66,
            norm_miou: 0.63,
        },
    ]
}

/// Table II, rows H-L: SegFormer-B2 trained on Cityscapes (row A is shared).
pub fn table2_cityscapes() -> Vec<PaperPoint> {
    vec![
        PaperPoint {
            label: "A",
            depths: [3, 4, 6, 3],
            fuse_in_channels: 3072,
            norm_resource: 1.00,
            norm_miou: 1.00,
        },
        PaperPoint {
            label: "H",
            depths: [2, 4, 6, 3],
            fuse_in_channels: 2432,
            norm_resource: 0.76,
            norm_miou: 0.98,
        },
        PaperPoint {
            label: "I",
            depths: [2, 4, 5, 3],
            fuse_in_channels: 2048,
            norm_resource: 0.72,
            norm_miou: 0.95,
        },
        PaperPoint {
            label: "J",
            depths: [2, 4, 5, 3],
            fuse_in_channels: 1280,
            norm_resource: 0.68,
            norm_miou: 0.90,
        },
        PaperPoint {
            label: "K",
            depths: [2, 4, 5, 3],
            fuse_in_channels: 896,
            norm_resource: 0.66,
            norm_miou: 0.81,
        },
        PaperPoint {
            label: "L",
            depths: [2, 4, 5, 3],
            fuse_in_channels: 384,
            norm_resource: 0.63,
            norm_miou: 0.69,
        },
    ]
}

/// Table III: Swin-Base execution-path configurations on ADE20K.
pub fn table3_swin_base() -> Vec<PaperPoint> {
    vec![
        PaperPoint {
            label: "SB0",
            depths: [2, 2, 18, 2],
            fuse_in_channels: 2048,
            norm_resource: 1.000,
            norm_miou: 1.00,
        },
        PaperPoint {
            label: "SB1",
            depths: [2, 2, 18, 2],
            fuse_in_channels: 1920,
            norm_resource: 0.998,
            norm_miou: 0.98,
        },
        PaperPoint {
            label: "SB2",
            depths: [2, 2, 18, 2],
            fuse_in_channels: 1792,
            norm_resource: 0.990,
            norm_miou: 0.94,
        },
        PaperPoint {
            label: "SB3",
            depths: [2, 2, 16, 2],
            fuse_in_channels: 1920,
            norm_resource: 0.980,
            norm_miou: 0.85,
        },
        PaperPoint {
            label: "SB4",
            depths: [2, 2, 14, 2],
            fuse_in_channels: 1792,
            norm_resource: 0.900,
            norm_miou: 0.81,
        },
        PaperPoint {
            label: "SB5",
            depths: [2, 2, 16, 2],
            fuse_in_channels: 1152,
            norm_resource: 0.810,
            norm_miou: 0.78,
        },
        PaperPoint {
            label: "SB6",
            depths: [2, 2, 13, 2],
            fuse_in_channels: 1536,
            norm_resource: 0.740,
            norm_miou: 0.76,
        },
        PaperPoint {
            label: "SB7",
            depths: [2, 2, 12, 2],
            fuse_in_channels: 1536,
            norm_resource: 0.620,
            norm_miou: 0.74,
        },
        PaperPoint {
            label: "SB8",
            depths: [2, 2, 11, 2],
            fuse_in_channels: 1536,
            norm_resource: 0.520,
            norm_miou: 0.72,
        },
    ]
}

/// Swin-Tiny channel-cut anchors (Figure 7 labels the preserved
/// `fpn_bottleneck_Conv2D` channels on the plot; the mIoU values here
/// follow the curve's published shape — steeper than SegFormer, per §III-B).
pub fn fig7_swin_tiny() -> Vec<PaperPoint> {
    vec![
        PaperPoint {
            label: "ST-2048",
            depths: [2, 2, 6, 2],
            fuse_in_channels: 2048,
            norm_resource: 1.00,
            norm_miou: 1.00,
        },
        PaperPoint {
            label: "ST-1792",
            depths: [2, 2, 6, 2],
            fuse_in_channels: 1792,
            norm_resource: 0.95,
            norm_miou: 0.96,
        },
        PaperPoint {
            label: "ST-1536",
            depths: [2, 2, 6, 2],
            fuse_in_channels: 1536,
            norm_resource: 0.91,
            norm_miou: 0.91,
        },
        PaperPoint {
            label: "ST-1280",
            depths: [2, 2, 6, 2],
            fuse_in_channels: 1280,
            norm_resource: 0.87,
            norm_miou: 0.85,
        },
        PaperPoint {
            label: "ST-1024",
            depths: [2, 2, 6, 2],
            fuse_in_channels: 1024,
            norm_resource: 0.84,
            norm_miou: 0.77,
        },
        PaperPoint {
            label: "ST-512",
            depths: [2, 2, 6, 2],
            fuse_in_channels: 512,
            norm_resource: 0.79,
            norm_miou: 0.58,
        },
    ]
}

/// A published *retrained* model point (the "large squares" of Figures 6
/// and 7): a different trained network, with its absolute accuracy and
/// resource utilization normalized to the case-study model's full execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainedModelPoint {
    /// Model name.
    pub name: &'static str,
    /// Absolute accuracy (mIoU) of the trained model on the dataset.
    pub miou: f64,
    /// Accuracy normalized to the case-study model's full accuracy.
    pub norm_miou: f64,
    /// GFLOPs at the dataset's image size (for resource normalization).
    pub gflops: f64,
}

/// Published SegFormer models on ADE20K (normalizer: B2's 0.4651 mIoU).
pub fn trained_segformer_ade() -> Vec<TrainedModelPoint> {
    let b2 = 0.4651;
    vec![
        TrainedModelPoint {
            name: "segformer-b2",
            miou: 0.4651,
            norm_miou: 1.0,
            gflops: 62.4,
        },
        TrainedModelPoint {
            name: "segformer-b1",
            miou: 0.4220,
            norm_miou: 0.4220 / b2,
            gflops: 15.9,
        },
        TrainedModelPoint {
            name: "segformer-b0",
            miou: 0.3740,
            norm_miou: 0.3740 / b2,
            gflops: 8.4,
        },
    ]
}

/// Published SegFormer models on Cityscapes (normalizer: B2's 0.8098 mIoU).
pub fn trained_segformer_cityscapes() -> Vec<TrainedModelPoint> {
    let b2 = 0.8098;
    vec![
        TrainedModelPoint {
            name: "segformer-b2",
            miou: 0.8098,
            norm_miou: 1.0,
            gflops: 717.1,
        },
        TrainedModelPoint {
            name: "segformer-b1",
            miou: 0.7856,
            norm_miou: 0.7856 / b2,
            gflops: 243.7,
        },
        TrainedModelPoint {
            name: "segformer-b0",
            miou: 0.7637,
            norm_miou: 0.7637 / b2,
            gflops: 125.5,
        },
    ]
}

/// Published Swin + UPerNet models on ADE20K (normalizer: the case-study
/// model; Table I gives Swin-Tiny 0.4451).
pub fn trained_swin_ade() -> Vec<TrainedModelPoint> {
    vec![
        TrainedModelPoint {
            name: "swin-base",
            miou: 0.4813,
            norm_miou: 1.0,
            gflops: 299.0,
        },
        TrainedModelPoint {
            name: "swin-small",
            miou: 0.4772,
            norm_miou: 0.4772 / 0.4813,
            gflops: 259.0,
        },
        TrainedModelPoint {
            name: "swin-tiny",
            miou: 0.4451,
            norm_miou: 0.4451 / 0.4813,
            gflops: 237.0,
        },
    ]
}

impl PaperPoint {
    /// Converts a SegFormer-family point into the builder's dynamic config.
    pub fn to_segformer_dynamic(&self, variant: &SegFormerVariant) -> SegFormerDynamic {
        SegFormerDynamic::with_depths_and_fuse(variant, self.depths, self.fuse_in_channels)
    }

    /// Converts a Swin-family point into the builder's dynamic config.
    pub fn to_swin_dynamic(&self, _variant: &SwinVariant) -> SwinDynamic {
        SwinDynamic {
            depths: self.depths,
            bottleneck_in_channels: self.fuse_in_channels,
        }
    }
}

/// Enumerates a sweep grid of SegFormer dynamic configurations around the
/// published points: all depth reductions of at most `max_skip` blocks per
/// stage crossed with fuse-channel fractions.
pub fn segformer_sweep_space(
    variant: &SegFormerVariant,
    max_skip: usize,
    channel_steps: usize,
) -> Vec<SegFormerDynamic> {
    let mut out = Vec::new();
    let full = variant.depths;
    let depth_options: Vec<Vec<usize>> = full
        .iter()
        .map(|&d| (d.saturating_sub(max_skip).max(1)..=d).collect())
        .collect();
    let full_fuse = variant.full_fuse_in();
    for &d0 in &depth_options[0] {
        for &d1 in &depth_options[1] {
            for &d2 in &depth_options[2] {
                for &d3 in &depth_options[3] {
                    for step in 0..channel_steps {
                        let frac = 1.0 - step as f64 / channel_steps as f64 * 0.875;
                        let ch = ((full_fuse as f64 * frac / 4.0).round() as usize * 4).max(4);
                        out.push(SegFormerDynamic::with_depths_and_fuse(
                            variant,
                            [d0, d1, d2, d3],
                            ch.min(full_fuse),
                        ));
                    }
                }
            }
        }
    }
    out.sort_by_key(|d| (d.depths, d.fuse_in_channels));
    out.dedup();
    out
}

/// Enumerates a sweep grid of Swin dynamic configurations: stage-2 depth
/// reductions (the deep stage the paper bypasses in Swin-Base) crossed with
/// bottleneck channel fractions.
pub fn swin_sweep_space(
    variant: &SwinVariant,
    max_skip: usize,
    channel_steps: usize,
) -> Vec<SwinDynamic> {
    let mut out = Vec::new();
    let full = variant.depths;
    let d2_options: Vec<usize> = (full[2].saturating_sub(max_skip).max(1)..=full[2]).collect();
    let full_ch = variant.full_bottleneck_in();
    for &d2 in &d2_options {
        for step in 0..channel_steps.max(1) {
            let frac = 1.0 - step as f64 / channel_steps.max(1) as f64 * 0.875;
            let ch = ((full_ch as f64 * frac / 4.0).round() as usize * 4).clamp(4, full_ch);
            out.push(SwinDynamic {
                depths: [full[0], full[1], d2, full[3]],
                bottleneck_in_channels: ch,
            });
        }
    }
    out.sort_by_key(|d| (d.depths, d.bottleneck_in_channels));
    out.dedup();
    out
}

/// Enumerates the *extended* sweep space: depth reductions crossed with
/// fuse-input, fuse-output (`Conv2DPred` input), and `DecodeLinear0` input
/// channel cuts — all four knobs of §III-A. Coarser channel grids keep the
/// product tractable.
pub fn segformer_extended_sweep_space(
    variant: &SegFormerVariant,
    max_skip: usize,
) -> Vec<SegFormerDynamic> {
    let mut out = Vec::new();
    let full = variant.depths;
    let depth_options: Vec<Vec<usize>> = full
        .iter()
        .map(|&d| (d.saturating_sub(max_skip).max(1)..=d).collect())
        .collect();
    let fuse_in_options: Vec<usize> = [1.0, 0.75, 0.5, 0.25]
        .iter()
        .map(|f| ((variant.full_fuse_in() as f64 * f / 4.0) as usize * 4).max(4))
        .collect();
    let fuse_out_options: Vec<usize> = [1.0, 736.0 / 768.0, 0.75, 0.5]
        .iter()
        .map(|f| ((variant.decoder_dim as f64 * f) as usize).max(1))
        .collect();
    let dl0_options: Vec<usize> = [1.0, 0.5]
        .iter()
        .map(|f| ((variant.embed_dims[0] as f64 * f) as usize).max(1))
        .collect();
    for &d0 in &depth_options[0] {
        for &d1 in &depth_options[1] {
            for &d2 in &depth_options[2] {
                for &d3 in &depth_options[3] {
                    for &fi in &fuse_in_options {
                        for &fo in &fuse_out_options {
                            for &dl0 in &dl0_options {
                                out.push(SegFormerDynamic {
                                    depths: [d0, d1, d2, d3],
                                    fuse_in_channels: fi,
                                    fuse_out_channels: fo,
                                    decode_linear0_in: dl0,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_paper_counts() {
        assert_eq!(table2_ade().len(), 7);
        assert_eq!(table2_cityscapes().len(), 6);
        assert_eq!(table3_swin_base().len(), 9);
    }

    #[test]
    fn table2_points_are_valid_b2_configs() {
        let v = SegFormerVariant::b2();
        for p in table2_ade().iter().chain(table2_cityscapes().iter()) {
            let dynamic = p.to_segformer_dynamic(&v);
            let cfg = vit_models::SegFormerConfig::ade20k(v).with_dynamic(dynamic);
            assert!(
                vit_models::build_segformer(&cfg).is_ok(),
                "point {} is not buildable",
                p.label
            );
        }
    }

    #[test]
    fn table3_points_are_valid_swin_base_configs() {
        let v = SwinVariant::base();
        for p in table3_swin_base() {
            let cfg = vit_models::SwinConfig::ade20k(v).with_dynamic(p.to_swin_dynamic(&v));
            assert!(
                vit_models::build_swin_upernet(&cfg).is_ok(),
                "point {} is not buildable",
                p.label
            );
        }
    }

    #[test]
    fn anchors_monotone_in_resource_and_accuracy() {
        for points in [table2_ade(), table2_cityscapes()] {
            for w in points.windows(2) {
                assert!(w[1].norm_resource < w[0].norm_resource);
                assert!(w[1].norm_miou < w[0].norm_miou);
            }
        }
    }

    #[test]
    fn sweep_space_contains_paper_points_and_full() {
        let v = SegFormerVariant::b2();
        let space = segformer_sweep_space(&v, 2, 8);
        assert!(space.len() > 100);
        assert!(space.contains(&SegFormerDynamic::full(&v)));
        // Every config is buildable.
        for d in space.iter().take(20) {
            let cfg = vit_models::SegFormerConfig::ade20k(v).with_dynamic(*d);
            assert!(vit_models::build_segformer(&cfg).is_ok());
        }
    }

    #[test]
    fn swin_sweep_space_is_valid_and_contains_full() {
        let v = SwinVariant::base();
        let space = swin_sweep_space(&v, 7, 6);
        assert!(space.contains(&SwinDynamic::full(&v)));
        assert!(space.len() >= 40);
        for d in space.iter().step_by(7) {
            let cfg = vit_models::SwinConfig::ade20k(v).with_dynamic(*d);
            assert!(vit_models::build_swin_upernet(&cfg).is_ok(), "{d:?}");
        }
        // Table III's deepest skip is reachable.
        assert!(space.iter().any(|d| d.depths == [2, 2, 11, 2]));
    }

    #[test]
    fn extended_space_covers_all_four_knobs() {
        let v = SegFormerVariant::b2();
        let space = segformer_extended_sweep_space(&v, 1);
        assert!(space.len() > 500);
        assert!(space.iter().any(|d| d.fuse_out_channels == 736));
        assert!(space.iter().any(|d| d.decode_linear0_in < v.embed_dims[0]));
        assert!(space.contains(&SegFormerDynamic::full(&v)));
        for d in space.iter().step_by(97) {
            let cfg = vit_models::SegFormerConfig::ade20k(v).with_dynamic(*d);
            assert!(vit_models::build_segformer(&cfg).is_ok(), "{d:?}");
        }
    }

    #[test]
    fn trained_model_points_are_normalized() {
        for p in trained_segformer_ade() {
            assert!(p.norm_miou <= 1.0 && p.norm_miou > 0.5);
        }
        let swin = trained_swin_ade();
        assert!((swin[0].norm_miou - 1.0).abs() < 1e-12);
    }
}
