//! Sweep driver: evaluates (resource, accuracy) for execution-path
//! configurations, in parallel, producing the trade-off points behind
//! Figures 6 and 7.

use crate::accuracy::AccuracyModel;
use crate::config::Workload;
use vit_models::{
    build_segformer, build_swin_upernet, SegFormerConfig, SegFormerDynamic, SegFormerVariant,
    SwinConfig, SwinDynamic, SwinVariant,
};
use vit_profiler::GpuModel;

/// Which resource a sweep measures (the paper uses execution time as its
/// running example of a dynamic constraint and reports energy alongside).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Modeled GPU latency in seconds.
    GpuTime,
    /// Modeled GPU energy in joules.
    GpuEnergy,
}

/// A dynamic configuration of either segmentation family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynConfig {
    /// SegFormer execution path.
    SegFormer(SegFormerDynamic),
    /// Swin execution path.
    Swin(SwinDynamic),
}

/// One evaluated execution path.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Optional label (paper letter for published points).
    pub label: String,
    /// The configuration.
    pub config: DynConfig,
    /// Absolute resource value (seconds or joules).
    pub resource: f64,
    /// Resource normalized to the full model.
    pub norm_resource: f64,
    /// Normalized mIoU estimate from the accuracy model.
    pub norm_miou: f64,
}

/// Sweeps SegFormer configurations on a workload.
///
/// `image` overrides the dataset's native size (pass the native size to
/// reproduce paper figures). Configurations that fail to build are skipped.
pub fn sweep_segformer(
    variant: &SegFormerVariant,
    workload: Workload,
    image: (usize, usize),
    num_classes: usize,
    space: &[SegFormerDynamic],
    resource: ResourceKind,
) -> Vec<TradeoffPoint> {
    let accuracy = AccuracyModel::for_workload(workload);
    let gpu = GpuModel::titan_v();
    let measure = |d: &SegFormerDynamic| -> Option<f64> {
        let cfg = SegFormerConfig {
            variant: *variant,
            num_classes,
            image,
            batch: 1,
            dynamic: *d,
        };
        let g = build_segformer(&cfg).ok()?;
        Some(match resource {
            ResourceKind::GpuTime => gpu.total_time(&g),
            ResourceKind::GpuEnergy => gpu.total_energy(&g),
        })
    };
    let full = measure(&SegFormerDynamic::full(variant)).expect("full model must build");

    let results = parallel_map(space, |d| {
        let r = measure(d)?;
        Some(TradeoffPoint {
            label: String::new(),
            config: DynConfig::SegFormer(*d),
            resource: r,
            norm_resource: r / full,
            norm_miou: accuracy.norm_miou_segformer(d, variant),
        })
    });
    results.into_iter().flatten().collect()
}

/// Sweeps Swin configurations on a workload.
pub fn sweep_swin(
    variant: &SwinVariant,
    workload: Workload,
    image: (usize, usize),
    num_classes: usize,
    space: &[SwinDynamic],
    resource: ResourceKind,
) -> Vec<TradeoffPoint> {
    let accuracy = AccuracyModel::for_workload(workload);
    let gpu = GpuModel::titan_v();
    let measure = |d: &SwinDynamic| -> Option<f64> {
        let cfg = SwinConfig {
            variant: *variant,
            num_classes,
            image,
            batch: 1,
            dynamic: *d,
        };
        let g = build_swin_upernet(&cfg).ok()?;
        Some(match resource {
            ResourceKind::GpuTime => gpu.total_time(&g),
            ResourceKind::GpuEnergy => gpu.total_energy(&g),
        })
    };
    let full = measure(&SwinDynamic::full(variant)).expect("full model must build");
    let results = parallel_map(space, |d| {
        let r = measure(d)?;
        Some(TradeoffPoint {
            label: String::new(),
            config: DynConfig::Swin(*d),
            resource: r,
            norm_resource: r / full,
            norm_miou: accuracy.norm_miou_swin(d, variant),
        })
    });
    results.into_iter().flatten().collect()
}

/// Applies `f` to every item on a small thread pool, preserving order.
fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    let chunk = items.len().div_ceil(threads.max(1));
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    // A panicking worker propagates out of the scope, failing the sweep.
    std::thread::scope(|scope| {
        for (slot_chunk, item_chunk) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (slot, item) in slot_chunk.iter_mut().zip(item_chunk.iter()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::segformer_sweep_space;

    #[test]
    fn sweep_normalizes_to_full_model() {
        let v = SegFormerVariant::b2();
        let space = vec![
            SegFormerDynamic::full(&v),
            SegFormerDynamic::with_depths_and_fuse(&v, [2, 3, 5, 3], 1024),
        ];
        // Small image for speed; normalization is internal to the sweep.
        let pts = sweep_segformer(
            &v,
            Workload::SegFormerAde,
            (128, 128),
            150,
            &space,
            ResourceKind::GpuTime,
        );
        assert_eq!(pts.len(), 2);
        assert!((pts[0].norm_resource - 1.0).abs() < 1e-9);
        assert!(pts[1].norm_resource < 1.0);
        assert!(pts[1].norm_miou < pts[0].norm_miou);
    }

    #[test]
    fn sweep_covers_whole_space() {
        let v = SegFormerVariant::b0();
        let space = segformer_sweep_space(&v, 1, 4);
        let pts = sweep_segformer(
            &v,
            Workload::SegFormerAde,
            (128, 128),
            150,
            &space,
            ResourceKind::GpuTime,
        );
        assert_eq!(pts.len(), space.len());
    }

    #[test]
    fn energy_and_time_sweeps_differ() {
        let v = SegFormerVariant::b2();
        let space = vec![SegFormerDynamic::with_depths_and_fuse(
            &v,
            [2, 3, 5, 3],
            1024,
        )];
        let t = sweep_segformer(
            &v,
            Workload::SegFormerAde,
            (128, 128),
            150,
            &space,
            ResourceKind::GpuTime,
        );
        let e = sweep_segformer(
            &v,
            Workload::SegFormerAde,
            (128, 128),
            150,
            &space,
            ResourceKind::GpuEnergy,
        );
        // Energy savings exceed time savings for pruned configs (paper
        // §III-A: 17% time -> 28% energy).
        assert!(e[0].norm_resource < t[0].norm_resource);
    }

    #[test]
    fn swin_sweep_works() {
        let v = SwinVariant::tiny();
        let space = vec![
            SwinDynamic::full(&v),
            SwinDynamic {
                depths: [2, 2, 6, 2],
                bottleneck_in_channels: 1024,
            },
        ];
        let pts = sweep_swin(
            &v,
            Workload::SwinTinyAde,
            (128, 128),
            150,
            &space,
            ResourceKind::GpuTime,
        );
        assert_eq!(pts.len(), 2);
        assert!(pts[1].norm_resource < pts[0].norm_resource);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }
}
