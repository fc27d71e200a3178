//! Set-up: build the engine (LUT sweep), compile and warm every plan a
//! workload can reach, and measure the machine's calibration.

use std::sync::Arc;
use std::time::Instant;
use vit_drt::{DrtEngine, EngineCore, LutConfig, LutEntry};
use vit_graph::{ExecBackend, ExecOptions, ExecScratch, RunContext};
use vit_models::SegFormerVariant;
use vit_resilience::{ResourceKind, Workload};
use vit_serve::Calibration;
use vit_tensor::Tensor;

/// The run context of every timed call: plan replay, one exec thread.
pub fn plan_ctx() -> RunContext {
    RunContext::default().with_exec(ExecOptions::sequential().with_backend(ExecBackend::Plan))
}

/// One (path, batch) plan a workload can reach.
pub type Reach = (LutConfig, usize);

/// A set-up engine, ready to serve without a cold compile.
pub struct Engine {
    pub core: Arc<EngineCore>,
    /// Measured full-path calibration (diagnostic; serving uses a pinned one).
    pub calib_full_ms: f64,
    pub lut_build_s: f64,
    pub plan_compile_s: f64,
    pub plans_compiled: usize,
}

/// Builds SegFormer-B0 at `image`×`image`, then compiles and warms every
/// plan `reach` names for the engine's LUT (one warm replay each), then
/// measures the calibration as a server start-up would.
pub fn build(image: usize, reach: &dyn Fn(&EngineCore) -> Vec<Reach>) -> Engine {
    let t = Instant::now();
    let engine = DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (image, image),
        ResourceKind::GpuTime,
    )
    .expect("SegFormer-B0 engine builds");
    let core = engine.core().clone();
    let lut_build_s = t.elapsed().as_secs_f64();

    let plans = reach(&core);
    let t = Instant::now();
    for &(config, batch) in &plans {
        core.plan_batched(config, batch).expect("plan compiles");
    }
    let plan_compile_s = t.elapsed().as_secs_f64();

    let ctx = plan_ctx();
    let mut scratch = ExecScratch::new();
    let img = Tensor::rand_uniform(&[1, 3, image, image], 0.0, 1.0, 0);
    for &(config, batch) in &plans {
        let entry = entry_of(&core, config);
        let images = vec![img.clone(); batch];
        core.run_batch(&mut scratch, &images, entry, true, &ctx)
            .expect("warm replay runs");
    }
    let calib = Calibration::measure_with(&core, &ctx).expect("calibration runs");
    Engine {
        calib_full_ms: calib.secs(core.max_resource()) * 1e3,
        plans_compiled: core.cached_plans(),
        core,
        lut_build_s,
        plan_compile_s,
    }
}

/// The LUT entry of `config`.
pub fn entry_of(core: &EngineCore, config: LutConfig) -> LutEntry {
    core.lut()
        .entries()
        .iter()
        .find(|e| e.config == config)
        .expect("config comes from this LUT")
        .clone()
}
