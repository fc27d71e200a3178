//! FLOPs/byte accounting and per-layer breakdowns — the reproduction's
//! stand-in for torchprof / the PyTorch autograd profiler.

use std::collections::BTreeMap;
use vit_graph::{Graph, LayerRole, OpClass};

/// One row of a profile: the cost of a single layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Node name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Functional role.
    pub role: LayerRole,
    /// FLOPs (MAC convention).
    pub flops: u64,
    /// Learned parameters.
    pub params: u64,
    /// DRAM traffic in bytes.
    pub bytes: u64,
    /// Modeled GPU time in seconds (0 when profiled without a GPU model).
    pub time_s: f64,
    /// Modeled GPU energy in joules (0 without a GPU model).
    pub energy_j: f64,
}

/// A full per-layer profile of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Model name.
    pub model: String,
    /// One row per node, in topological order.
    pub layers: Vec<LayerCost>,
}

impl Profile {
    /// Profiles FLOPs/params/bytes only.
    pub fn flops_only(graph: &Graph) -> Self {
        Self::build(graph, None)
    }

    /// Profiles FLOPs plus modeled GPU time and energy.
    pub fn with_gpu(graph: &Graph, gpu: &crate::GpuModel) -> Self {
        Self::build(graph, Some(gpu))
    }

    fn build(graph: &Graph, gpu: Option<&crate::GpuModel>) -> Self {
        let layers = graph
            .iter()
            .map(|(_, n)| LayerCost {
                name: n.name.clone(),
                class: n.op.class(),
                role: n.role,
                flops: n.flops(graph),
                params: n.params(graph),
                bytes: n.io_bytes(graph),
                time_s: gpu.map_or(0.0, |g| g.node_time(graph, n)),
                energy_j: gpu.map_or(0.0, |g| g.node_energy(graph, n)),
            })
            .collect();
        Profile {
            model: graph.model.clone(),
            layers,
        }
    }

    /// Total FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.flops).sum()
    }

    /// Total modeled time in seconds.
    pub fn total_time(&self) -> f64 {
        self.layers.iter().map(|l| l.time_s).sum()
    }

    /// Total modeled energy in joules.
    pub fn total_energy(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_j).sum()
    }

    /// Sums `(flops, time, energy)` per operator class, ordered by class.
    pub fn by_class(&self) -> BTreeMap<OpClass, CostSummary> {
        let mut map: BTreeMap<OpClass, CostSummary> = BTreeMap::new();
        for l in &self.layers {
            let e = map.entry(l.class).or_default();
            e.flops += l.flops;
            e.time_s += l.time_s;
            e.energy_j += l.energy_j;
        }
        map
    }

    /// Sums costs for layers whose name starts with `prefix`.
    pub fn by_prefix(&self, prefix: &str) -> CostSummary {
        let mut s = CostSummary::default();
        for l in self.layers.iter().filter(|l| l.name.starts_with(prefix)) {
            s.flops += l.flops;
            s.time_s += l.time_s;
            s.energy_j += l.energy_j;
        }
        s
    }

    /// The `n` individually most expensive layers by FLOPs, descending.
    pub fn top_flops(&self, n: usize) -> Vec<&LayerCost> {
        let mut v: Vec<&LayerCost> = self.layers.iter().filter(|l| l.flops > 0).collect();
        v.sort_by_key(|l| std::cmp::Reverse(l.flops));
        v.truncate(n);
        v
    }

    /// Share of total FLOPs held by the layer with the given name.
    pub fn flops_share(&self, name: &str) -> f64 {
        let total = self.total_flops() as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.layers
            .iter()
            .filter(|l| l.name == name)
            .map(|l| l.flops as f64)
            .sum::<f64>()
            / total
    }
}

/// Aggregated cost of a set of layers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSummary {
    /// Total FLOPs.
    pub flops: u64,
    /// Total modeled time in seconds.
    pub time_s: f64,
    /// Total modeled energy in joules.
    pub energy_j: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuModel;
    use vit_models::{build_segformer, SegFormerConfig, SegFormerVariant};

    fn b0_profile() -> Profile {
        let g =
            build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b0()).with_image(128, 128))
                .unwrap();
        Profile::with_gpu(&g, &GpuModel::titan_v())
    }

    #[test]
    fn totals_match_graph() {
        let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b0())).unwrap();
        let p = Profile::flops_only(&g);
        assert_eq!(p.total_flops(), g.total_flops());
        assert_eq!(p.layers.len(), g.len());
    }

    #[test]
    fn class_sums_partition_total() {
        let p = b0_profile();
        let by_class: u64 = p.by_class().values().map(|s| s.flops).sum();
        assert_eq!(by_class, p.total_flops());
        let time: f64 = p.by_class().values().map(|s| s.time_s).sum();
        assert!((time - p.total_time()).abs() < 1e-9);
    }

    #[test]
    fn top_flops_sorted_descending() {
        let p = b0_profile();
        let top = p.top_flops(5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].flops >= w[1].flops);
        }
        // In every SegFormer the fusion conv is the single largest layer.
        assert_eq!(top[0].name, "decoder.conv_fuse");
    }

    #[test]
    fn prefix_aggregation() {
        let p = b0_profile();
        let enc = p.by_prefix("encoder.");
        let dec = p.by_prefix("decoder.");
        assert!(enc.flops > 0 && dec.flops > 0);
        assert!(enc.flops + dec.flops <= p.total_flops());
        assert!(dec.flops > enc.flops, "decoder dominates SegFormer");
    }

    #[test]
    fn flops_share_of_missing_layer_is_zero() {
        let p = b0_profile();
        assert_eq!(p.flops_share("no.such.layer"), 0.0);
        assert!(p.flops_share("decoder.conv_fuse") > 0.3);
    }

    #[test]
    fn bytes_positive_for_compute_layers() {
        let p = b0_profile();
        for l in &p.layers {
            if l.flops > 0 {
                assert!(l.bytes > 0, "{} has zero bytes", l.name);
            }
        }
    }
}
