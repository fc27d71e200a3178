//! Calibrated GPU latency and energy model (NVIDIA TITAN V class, clocks
//! locked to 1005 MHz, the paper's measurement platform).
//!
//! Per-node time follows a roofline with per-class effective throughput:
//!
//! `t = max(flops / throughput(class, shape, batch), bytes / bandwidth) + overhead`
//!
//! The constants are calibrated against the paper's published measurements
//! (Table I latencies; the Figure 3/4 observation that convolutions take
//! ~25% of SegFormer time despite 68% of FLOPs; the Figure 1 observation
//! that the backbone's time share *grows* with batch size because attention
//! kernels benefit more from batching). Absolute milliseconds are a model,
//! not a measurement — every experiment in the reproduction depends on the
//! *shape* of these curves, which the calibration pins down.

use vit_graph::{Graph, Node, Op, OpClass};

/// Tunable constants of the GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuParams {
    /// Effective throughput of 1x1-kernel (GEMM-like) convolutions, in
    /// MACs/s.
    pub conv_1x1_macs_per_s: f64,
    /// Effective throughput of spatial (k >= 2) convolutions.
    pub conv_spatial_macs_per_s: f64,
    /// Effective throughput of linear layers / plain matmuls.
    pub matmul_macs_per_s: f64,
    /// Effective throughput of *small* attention kernels (scores/softmax/
    /// context), which run unblocked and scattered in the profiled
    /// frameworks.
    pub attention_macs_per_s: f64,
    /// Peak throughput attention approaches for very large score matrices
    /// (big attention GEMMs are efficient on the GPU).
    pub attention_peak_macs_per_s: f64,
    /// Work size (MACs) at which an attention kernel reaches half of the
    /// way from small-kernel to peak throughput.
    pub attention_saturation_macs: f64,
    /// Achievable DRAM bandwidth for memory-bound layers, bytes/s.
    pub mem_bandwidth_bytes_per_s: f64,
    /// Fixed per-kernel launch overhead, seconds.
    pub kernel_overhead_s: f64,
    /// Batch-scaling gain of matmul/attention kernels:
    /// `throughput *= 1 + gain * (1 - 1/batch)`.
    pub batch_gain_matmul: f64,
    /// Batch-scaling gain of convolution kernels (small: already efficient).
    pub batch_gain_conv: f64,
    /// Board power attributable to static + non-SM activity, watts.
    pub static_power_w: f64,
    /// Dynamic energy per MAC (f32), joules.
    pub energy_per_mac_j: f64,
    /// Dynamic energy per DRAM byte, joules.
    pub energy_per_byte_j: f64,
}

impl Default for GpuParams {
    /// TITAN V @ 1005 MHz calibration (see module docs).
    fn default() -> Self {
        GpuParams {
            conv_1x1_macs_per_s: 2.4e12,
            conv_spatial_macs_per_s: 1.5e12,
            matmul_macs_per_s: 1.1e12,
            attention_macs_per_s: 0.15e12,
            attention_peak_macs_per_s: 1.8e12,
            attention_saturation_macs: 4e9,
            mem_bandwidth_bytes_per_s: 300e9,
            kernel_overhead_s: 8e-6,
            batch_gain_matmul: 1.4,
            batch_gain_conv: 0.15,
            static_power_w: 80.0,
            energy_per_mac_j: 18e-12,
            energy_per_byte_j: 60e-12,
        }
    }
}

/// The calibrated GPU model.
///
/// # Examples
///
/// ```
/// use vit_models::{build_segformer, SegFormerConfig, SegFormerVariant};
/// use vit_profiler::GpuModel;
///
/// # fn main() -> Result<(), vit_models::ModelError> {
/// let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b2()))?;
/// let gpu = GpuModel::titan_v();
/// let ms = gpu.total_time(&g) * 1e3;
/// assert!(ms > 30.0 && ms < 90.0); // paper: 58 ms
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GpuModel {
    params: GpuParams,
}

impl GpuModel {
    /// The default TITAN V calibration.
    pub fn titan_v() -> Self {
        GpuModel {
            params: GpuParams::default(),
        }
    }

    /// The model constants.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    fn throughput(&self, graph: &Graph, node: &Node, batch: usize) -> f64 {
        let p = &self.params;
        let batch_f = batch.max(1) as f64;
        match node.op.class() {
            OpClass::Conv => {
                let base = match &node.op {
                    Op::Conv2d { kernel, groups, .. } => {
                        if *groups > 1 {
                            // Depthwise/grouped convolutions are bandwidth
                            // starved; give them matmul-class throughput.
                            p.matmul_macs_per_s
                        } else if kernel.0 == 1 && kernel.1 == 1 {
                            p.conv_1x1_macs_per_s
                        } else {
                            p.conv_spatial_macs_per_s
                        }
                    }
                    _ => p.conv_spatial_macs_per_s,
                };
                base * (1.0 + p.batch_gain_conv * (1.0 - 1.0 / batch_f))
            }
            OpClass::Matmul => {
                p.matmul_macs_per_s * (1.0 + p.batch_gain_matmul * (1.0 - 1.0 / batch_f))
            }
            OpClass::Attention if matches!(node.op, Op::DeformAttn { .. }) => {
                // Deformable attention is dominated by its dense
                // projections; give it matmul-class throughput.
                p.matmul_macs_per_s * (1.0 + p.batch_gain_matmul * (1.0 - 1.0 / batch_f))
            }
            OpClass::Attention => {
                // Saturating throughput: tiny unblocked kernels run at the
                // small-kernel rate, huge score matrices approach peak.
                let work = node.flops(graph) as f64;
                let util = work / (work + p.attention_saturation_macs);
                let base = p.attention_macs_per_s
                    + (p.attention_peak_macs_per_s - p.attention_macs_per_s) * util;
                base * (1.0 + p.batch_gain_matmul * (1.0 - 1.0 / batch_f))
            }
            // Norm / elementwise / memory nodes are bandwidth-bound; their
            // "throughput" never binds because the byte term dominates.
            _ => f64::INFINITY,
        }
    }

    /// Modeled execution time of one node, in seconds.
    pub fn node_time(&self, graph: &Graph, node: &Node) -> f64 {
        if matches!(node.op, Op::Input { .. } | Op::Identity) {
            return 0.0;
        }
        let batch = node.shape.first().copied().unwrap_or(1);
        let flops = node.flops(graph) as f64;
        let bytes = node.io_bytes(graph) as f64;
        let compute = flops / self.throughput(graph, node, batch);
        let memory = bytes / self.params.mem_bandwidth_bytes_per_s;
        compute.max(memory) + self.params.kernel_overhead_s
    }

    /// Modeled end-to-end latency of a graph, in seconds.
    ///
    /// The GPU executes kernels back-to-back; model-level parallelism is an
    /// accelerator feature (§V), not part of the GPU baseline.
    pub fn total_time(&self, graph: &Graph) -> f64 {
        graph.iter().map(|(_, n)| self.node_time(graph, n)).sum()
    }

    /// Modeled energy of one node, in joules.
    pub fn node_energy(&self, graph: &Graph, node: &Node) -> f64 {
        let t = self.node_time(graph, node);
        let flops = node.flops(graph) as f64;
        let bytes = node.io_bytes(graph) as f64;
        self.params.static_power_w * t
            + self.params.energy_per_mac_j * flops
            + self.params.energy_per_byte_j * bytes
    }

    /// Modeled energy of a full graph execution, in joules.
    pub fn total_energy(&self, graph: &Graph) -> f64 {
        graph.iter().map(|(_, n)| self.node_energy(graph, n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vit_models::{
        build_detr, build_segformer, build_swin_upernet, DetrConfig, SegFormerConfig,
        SegFormerVariant, SwinConfig, SwinVariant,
    };

    #[test]
    fn segformer_b2_ade_latency_near_paper() {
        let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b2())).unwrap();
        let ms = GpuModel::titan_v().total_time(&g) * 1e3;
        // Paper Table I: 58 ms.
        assert!(
            (ms - 58.0).abs() / 58.0 < 0.30,
            "got {ms:.1} ms, expected ~58"
        );
    }

    #[test]
    fn segformer_b2_cityscapes_latency_near_paper() {
        let g = build_segformer(&SegFormerConfig::cityscapes(SegFormerVariant::b2())).unwrap();
        let ms = GpuModel::titan_v().total_time(&g) * 1e3;
        // Paper Table I: 415 ms.
        assert!(
            (ms - 415.0).abs() / 415.0 < 0.30,
            "got {ms:.1} ms, expected ~415"
        );
    }

    #[test]
    fn swin_tiny_latency_near_paper() {
        let g = build_swin_upernet(&SwinConfig::ade20k(SwinVariant::tiny())).unwrap();
        let ms = GpuModel::titan_v().total_time(&g) * 1e3;
        // Paper Table I: 215 ms.
        assert!(
            (ms - 215.0).abs() / 215.0 < 0.35,
            "got {ms:.1} ms, expected ~215"
        );
    }

    #[test]
    fn segformer_conv_time_share_well_below_flops_share() {
        // Paper Fig. 3: convolutions are 68% of FLOPs but ~25% of time.
        let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b2())).unwrap();
        let gpu = GpuModel::titan_v();
        let total = gpu.total_time(&g);
        let conv_time: f64 = g
            .iter()
            .filter(|(_, n)| n.op.class() == OpClass::Conv)
            .map(|(_, n)| gpu.node_time(&g, n))
            .sum();
        let share = conv_time / total;
        assert!(share > 0.15 && share < 0.40, "conv time share {share:.2}");
    }

    #[test]
    fn detr_backbone_dominates_time_and_grows_with_batch() {
        // Paper Fig. 1.
        let share_at = |batch: usize| -> f64 {
            let g = build_detr(&DetrConfig::detr_coco().with_batch(batch)).unwrap();
            let gpu = GpuModel::titan_v();
            let mut backbone = 0.0;
            let mut rest = 0.0;
            for (_, n) in g.iter() {
                let t = gpu.node_time(&g, n);
                if matches!(n.role, vit_graph::LayerRole::Backbone) {
                    backbone += t;
                } else {
                    rest += t;
                }
            }
            backbone / (backbone + rest)
        };
        let s1 = share_at(1);
        let s16 = share_at(16);
        assert!(s1 > 0.6, "batch-1 backbone share {s1:.2}");
        assert!(
            s16 > s1,
            "share should grow with batch: {s1:.2} -> {s16:.2}"
        );
    }

    #[test]
    fn energy_savings_exceed_time_savings_when_pruning() {
        // Paper §III-A: 17% time saving drops energy by 28% — pruning cuts
        // compute proportionally more than wall time.
        use vit_models::SegFormerDynamic;
        let variant = SegFormerVariant::b2();
        let full = build_segformer(&SegFormerConfig::ade20k(variant)).unwrap();
        let pruned = build_segformer(&SegFormerConfig::ade20k(variant).with_dynamic(
            SegFormerDynamic::with_depths_and_fuse(&variant, [2, 3, 5, 3], 1024),
        ))
        .unwrap();
        let gpu = GpuModel::titan_v();
        let dt = 1.0 - gpu.total_time(&pruned) / gpu.total_time(&full);
        let de = 1.0 - gpu.total_energy(&pruned) / gpu.total_energy(&full);
        assert!(dt > 0.05, "time saving {dt:.2}");
        assert!(
            de > dt,
            "energy saving {de:.2} should exceed time saving {dt:.2}"
        );
    }

    #[test]
    fn larger_batch_reduces_per_image_time() {
        let g1 = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b0())).unwrap();
        let g8 = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b0()).with_batch(8))
            .unwrap();
        let gpu = GpuModel::titan_v();
        let per_image_1 = gpu.total_time(&g1);
        let per_image_8 = gpu.total_time(&g8) / 8.0;
        assert!(per_image_8 < per_image_1);
    }

    #[test]
    fn overhead_dominates_trivial_nodes() {
        let mut g = Graph::new("t");
        let x = g.input("in", &[1, 1, 2, 2]).unwrap();
        let r = g
            .add("relu", Op::Relu, vit_graph::LayerRole::Other, &[x])
            .unwrap();
        g.set_output(r);
        let gpu = GpuModel::titan_v();
        let t = gpu.node_time(&g, g.node(r));
        assert!((t - gpu.params().kernel_overhead_s).abs() / t < 0.01);
    }
}
