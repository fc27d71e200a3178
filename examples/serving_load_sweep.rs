//! Serving a Vision Transformer under deadlines, end to end.
//!
//! Builds a SegFormer-B0 DRT engine, calibrates wall-clock seconds per LUT
//! resource unit on this machine, then drives a real threaded [`Server`]
//! (4 workers over one shared engine core) with an open-loop request
//! stream whose deadlines range from tight to loose. Finally it runs the
//! deterministic virtual-time simulator over an offered-load sweep to show
//! where deadline-aware serving beats a static full-model server.
//!
//! ```text
//! cargo run --release --example serving_load_sweep
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use vit_bench::loadgen;
use vit_drt::DrtEngine;
use vit_models::SegFormerVariant;
use vit_resilience::{ResourceKind, Workload};
use vit_serve::{
    simulate, Calibration, InferenceRequest, SchedulePolicy, Server, ServerConfig, SimModel,
};
use vit_tensor::Tensor;

fn main() {
    // 1. One shared engine core: the LUT plus a concurrent graph cache.
    let engine = DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuTime,
    )
    .expect("engine builds");
    let core = engine.core().clone();
    println!(
        "engine: {} Pareto execution paths (cheapest {:.2}x full cost)",
        core.lut().len(),
        core.min_resource() / core.max_resource()
    );

    // 2. Calibrate: how many wall seconds one LUT resource unit costs here.
    let calibration = Calibration::measure(&core).expect("calibration inference runs");
    let full_secs = calibration.secs(core.max_resource());
    println!(
        "calibration: full model ~{:.1} ms wall on this machine",
        full_secs * 1e3
    );

    // 3. A real threaded server: EDF queue + admission control. Inference
    // here is CPU-bound, so size the pool to the machine — extra workers
    // beyond the core count would only contend and inflate service times
    // past what the (solo) calibration predicts.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1);
    let config = ServerConfig::builder()
        .workers(workers)
        .queue_depth(32)
        .resource_kind(ResourceKind::GpuTime)
        .policy(SchedulePolicy::DrtDynamic)
        .build()
        .expect("a positive worker count and queue depth validate");
    let server = Server::start(Arc::clone(&core), calibration, config);

    // Open loop at ~0.7x the pool's full-model capacity, cycling tight /
    // medium / loose deadlines.
    let image = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 7);
    let gap = full_secs / workers as f64 / 0.7;
    // A third of the requests get a deadline *below* the full model's
    // cost — only a cheaper LUT path can meet those.
    let slacks = [0.8, 1.5, 8.0]; // x full-model wall time
    let total = 40;
    for i in 0..total {
        let slack = slacks[i % slacks.len()] * full_secs;
        let request = InferenceRequest::new(
            image.clone(),
            Instant::now() + Duration::from_secs_f64(slack),
            ResourceKind::GpuTime,
        );
        // Admission tells us up front whether the request got a ticket or
        // was shed (queue full / slack below the cheapest path).
        let _admission = server.submit(request).expect("resource kind matches");
        std::thread::sleep(Duration::from_secs_f64(gap));
    }
    let m = server.shutdown();
    println!();
    println!("threaded server ({workers} workers), {total} requests at ~0.7x capacity:");
    println!(
        "  completed {} | shed {} | deadline misses {} | p99 {:.1} ms | delivered accuracy {:.3}",
        m.completed,
        m.shed(),
        m.deadline_misses,
        m.p99_latency * 1e3,
        m.mean_delivered_accuracy
    );
    for (config, n) in &m.config_histogram {
        println!("  {n:4}x {config:?}");
    }

    // 4. The deterministic sweep: where does deadline-awareness pay?
    println!();
    println!("virtual-time load sweep (Poisson + bursts, seed 42):");
    println!("  load   drt miss   static miss   drt acc   static acc");
    let full = core.max_resource();
    for load_x in [0.5, 1.0, 2.0, 3.0] {
        let arrivals = loadgen::poisson_with_bursts(
            load_x * 4.0 / full,
            400.0 * full,
            2.0 * full,
            80.0 * full,
            12,
            42,
        );
        let run = |policy| {
            let config = ServerConfig::builder()
                .workers(4)
                .queue_depth(16)
                .policy(policy)
                .build()
                .expect("a positive worker count and queue depth validate");
            let model = SimModel::new(Calibration::from_secs_per_unit(1.0));
            simulate(&core, &config, model, &arrivals)
        };
        let drt = run(SchedulePolicy::DrtDynamic);
        let stat = run(SchedulePolicy::static_full());
        println!(
            "  {load_x:.1}x  {:8.1}%  {:11.1}%  {:8.3}  {:10.3}",
            drt.deadline_miss_rate * 100.0,
            stat.deadline_miss_rate * 100.0,
            drt.mean_delivered_accuracy,
            stat.mean_delivered_accuracy
        );
    }
}
