//! Accelerator design-space exploration (Figure 14 and §VI).

use crate::config::AccelConfig;
use crate::sim::{simulate, SimOptions};
use vit_graph::Graph;

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The architecture.
    pub config: AccelConfig,
    /// End-to-end cycles for the evaluated graph.
    pub cycles: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// PE-array area in mm^2.
    pub area_mm2: f64,
}

/// Enumerates the paper's design space — vectorization splits of the 16384
/// parallel MACs crossed with weight/activation memory sizes — and
/// simulates `graph` on each point.
pub fn design_space(
    graph: &Graph,
    vectorizations: &[(usize, usize)],
    wm_kb: &[usize],
    am_kb: &[usize],
    opts: &SimOptions,
) -> Vec<DesignPoint> {
    let mut out = Vec::new();
    for &(k0, c0) in vectorizations {
        for &wm in wm_kb {
            for &am in am_kb {
                let Some(cfg) = AccelConfig::with_vectorization(k0, c0, wm, am) else {
                    continue;
                };
                let r = simulate(graph, &cfg, opts);
                out.push(DesignPoint {
                    config: cfg,
                    cycles: r.total_cycles(),
                    energy_j: r.total_energy_j(),
                    area_mm2: cfg.pe_array_area_mm2(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vit_models::{build_segformer, SegFormerConfig, SegFormerVariant};

    #[test]
    fn design_space_enumerates_valid_points() {
        let g =
            build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b0()).with_image(128, 128))
                .unwrap();
        let points = design_space(
            &g,
            &[(32, 32), (16, 16), (47, 13)],
            &[128, 1024],
            &[64],
            &SimOptions::default(),
        );
        // (47, 13) does not divide 16384 and is skipped.
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.cycles > 0);
            assert!(p.energy_j > 0.0);
            assert!(p.area_mm2 > 0.0);
        }
    }

    #[test]
    fn bigger_memories_cost_area_not_cycles_much() {
        let g =
            build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b0()).with_image(128, 128))
                .unwrap();
        let points = design_space(&g, &[(32, 32)], &[128, 1024], &[64], &SimOptions::default());
        let small = &points[0];
        let big = &points[1];
        assert!(big.area_mm2 > 2.0 * small.area_mm2);
        let slowdown = small.cycles as f64 / big.cycles as f64;
        assert!(slowdown < 1.10, "slowdown {slowdown}");
    }
}
