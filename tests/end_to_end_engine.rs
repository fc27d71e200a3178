//! End-to-end tests of the DRT engine: real inference under budget traces,
//! LUT persistence, and the baseline comparisons.

use vit_data::{pixel_accuracy, Dataset, SceneGenerator};
use vit_drt::{
    BudgetTrace, DrtEngine, EarlyExitBaseline, EngineFamily, Lut, TracePattern, TrainedFamily,
};
use vit_models::{SegFormerVariant, SwinDynamic, SwinVariant};
use vit_resilience::{ResourceKind, Workload};
use vit_tensor::Tensor;

fn small_engine() -> DrtEngine {
    DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuTime,
    )
    .expect("engine builds")
}

#[test]
fn engine_follows_a_budget_trace() {
    let mut engine = small_engine();
    let full = engine.max_resource();
    let scenes = SceneGenerator::new(Dataset::Ade20k, 1);
    // Keep the trace above the cheapest path so every budget is feasible
    // (at a 64x64 executable geometry the kernel-overhead floor limits how
    // much a pruned path can save).
    let cheapest = engine.lut().entries()[0].norm_resource;
    let trace = BudgetTrace::new(
        TracePattern::Sinusoid {
            min: cheapest + 0.02,
            max: 1.0,
            period: 4,
        },
        0,
    );
    let mut est = Vec::new();
    for (i, b) in trace.take(8).enumerate() {
        let scene = scenes.sample_sized(i as u64, 64, 64);
        let out = engine
            .infer(&scene.image, b * full)
            .expect("inference runs");
        assert!(out.met_budget, "step {i} missed a feasible budget");
        assert!(out.resource_estimate <= b * full + 1e-12);
        est.push(out.norm_miou_estimate);
    }
    // The accuracy estimate tracks the budget: the minimum-budget steps use
    // cheaper, less accurate paths.
    let max = est.iter().cloned().fold(f64::MIN, f64::max);
    let min = est.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max > min, "engine never changed configuration");
}

#[test]
fn engine_outputs_are_real_segmentations() {
    let mut engine = small_engine();
    let scene = SceneGenerator::new(Dataset::Ade20k, 2).sample_sized(0, 64, 64);
    let out = engine
        .infer(&scene.image, engine.max_resource())
        .expect("inference runs");
    // Valid class ids everywhere.
    for &v in out.label_map.data() {
        assert!((0.0..150.0).contains(&v) && v == v.trunc());
    }
    // The label map is argmax of the logits.
    let manual = out.logits.argmax_channels().unwrap();
    assert_eq!(manual, out.label_map);
    // pixel_accuracy against itself is 1 (sanity of the metric plumbing).
    assert_eq!(pixel_accuracy(&out.label_map, &manual), 1.0);
}

#[test]
fn tighter_budget_never_increases_estimated_accuracy() {
    let mut engine = small_engine();
    let full = engine.max_resource();
    let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 3);
    let mut prev = f64::INFINITY;
    for frac in [1.2, 1.0, 0.9, 0.8, 0.7, 0.6] {
        let out = engine.infer(&img, frac * full).expect("inference runs");
        assert!(
            out.norm_miou_estimate <= prev + 1e-12,
            "estimate rose at budget {frac}"
        );
        prev = out.norm_miou_estimate;
    }
}

#[test]
fn lut_json_round_trip_preserves_behaviour() {
    let engine = small_engine();
    let json = engine.lut().to_json();
    let lut = Lut::from_json(&json).expect("valid json");
    assert_eq!(lut.len(), engine.lut().len());
    let budget = engine.max_resource() * 0.8;
    let a = engine.lut().lookup(budget).unwrap();
    let b = lut.lookup(budget).unwrap();
    assert_eq!(a.config, b.config);
}

#[test]
fn swin_engine_works_too() {
    let v = SwinVariant::tiny();
    let space: Vec<SwinDynamic> = [2048usize, 1536, 1024, 512]
        .iter()
        .map(|&ch| SwinDynamic {
            depths: v.depths,
            bottleneck_in_channels: ch,
        })
        .collect();
    let mut engine = DrtEngine::swin(
        v,
        Workload::SwinTinyAde,
        (64, 64),
        &space,
        ResourceKind::GpuTime,
    )
    .expect("engine builds");
    assert!(engine.lut().len() >= 2);
    let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 4);
    let out = engine
        .infer(&img, engine.max_resource() * 0.9)
        .expect("inference runs");
    assert!(out.met_budget);
    assert_eq!(out.label_map.shape(), &[1, 64, 64]);
}

#[test]
fn energy_budgeted_engine_differs_from_time_budgeted() {
    let time_engine = small_engine();
    let energy_engine = DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuEnergy,
    )
    .expect("engine builds");
    // Different resource kinds produce different absolute scales.
    assert!(time_engine.max_resource() < 1.0); // seconds
    assert!(energy_engine.max_resource() > time_engine.max_resource()); // joules
}

#[test]
fn drt_beats_early_exit_on_deadline_guarantees() {
    let engine = small_engine();
    let cheapest = engine.lut().entries()[0].norm_resource;
    let ee = EarlyExitBaseline::typical();
    // At any budget above the engine's cheapest path, DRT never misses;
    // early exit misses whenever a hard input needs a deeper exit.
    let budget = (cheapest + 1.0) / 2.0; // midway between cheapest and full
    assert!(ee.deadline_miss_rate(budget, 2000, 5) > 0.0);
}

#[test]
fn trained_family_complements_dynamic_pruning() {
    let fam = TrainedFamily::for_workload(Workload::SegFormerAde);
    // Below the smallest dynamic point, the engine cannot help but trained
    // models still can (the paper's §VII-A synthesis).
    let b0 = fam.best_for_budget(0.3);
    assert!(b0.is_some());
    assert!(b0.unwrap().norm_miou > 0.5);
}

#[test]
fn with_lut_rejects_empty() {
    let empty = Lut::from_points("empty", &[]);
    assert!(DrtEngine::with_lut(
        EngineFamily::SegFormer(SegFormerVariant::b0()),
        150,
        (64, 64),
        empty
    )
    .is_err());
}

/// Differential test of the observability layer: attaching an enabled
/// ring-buffer sink must not change a single output bit relative to the
/// disabled (NullSink) path, sequentially and with kernels tiled over 8
/// threads — and the captured trace must be well-formed with LUT-exact
/// FLOPs.
#[test]
fn tracing_never_changes_outputs() {
    use std::sync::Arc;
    use vit_drt::prelude::*;
    use vit_profiler::Profile;
    use vit_trace::{validate, EventKind};

    let core = small_engine().core().clone();
    let mut scratch = vit_graph::ExecScratch::new();
    let image = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 23);
    let budget = 0.7 * core.max_resource();

    for threads in [1usize, 8] {
        let exec = if threads > 1 {
            ExecOptions::threaded(threads)
        } else {
            ExecOptions::sequential()
        };
        let silent_ctx = RunContext::default().with_exec(exec.clone());
        let baseline = core
            .infer(&mut scratch, &image, budget, &silent_ctx)
            .expect("untraced inference runs");

        let sink = Arc::new(RingBufferSink::new(1 << 20));
        let traced_ctx = RunContext::default()
            .with_exec(exec)
            .with_sink(sink.clone() as Arc<dyn TraceSink>);
        let traced = core
            .infer(&mut scratch, &image, budget, &traced_ctx)
            .expect("traced inference runs");

        assert_eq!(
            baseline.logits, traced.logits,
            "tracing changed logits at {threads} thread(s)"
        );
        assert_eq!(baseline.label_map, traced.label_map);
        assert_eq!(baseline.config, traced.config);

        let events = sink.take();
        assert_eq!(sink.dropped(), 0);
        validate(&events).expect("traced engine run is well-formed");
        let traced_flops: u64 = events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Node { flops, .. } => *flops,
                _ => 0,
            })
            .sum();
        let graph = core.graph(traced.config).expect("executed graph builds");
        assert_eq!(
            traced_flops,
            Profile::flops_only(&graph).total_flops(),
            "traced FLOPs diverge from the static count at {threads} thread(s)"
        );
    }
}
