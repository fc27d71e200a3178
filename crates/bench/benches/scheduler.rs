//! Criterion benchmarks of the serving scheduler hot path: dispatch queue
//! push/pop (single tenant, pure EDF), admission + budget selection per
//! dispatch, and a full simulated load sweep step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vit_bench::loadgen;
use vit_drt::DrtEngine;
use vit_models::SegFormerVariant;
use vit_resilience::{ResourceKind, Workload};
use vit_serve::{
    admissible, budget_for, simulate, PopResult, SchedulePolicy, SharedDispatchQueue, SimConfig,
    TenantId,
};

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");

    // The per-request queue cost: one push + one pop on the server's
    // single-tenant dispatch queue at a realistic occupancy (queue
    // pre-loaded with 64 pending requests).
    let t = TenantId::default();
    g.bench_function("edf_push_pop_at_depth_64", |bench| {
        let q: SharedDispatchQueue<u64, u64> = SharedDispatchQueue::bounded(128, &[]);
        for i in 0..64u64 {
            q.try_push(t, i * 7 % 64, i).unwrap();
        }
        let mut next = 64u64;
        bench.iter(|| {
            q.try_push(t, black_box(next % 64), next).unwrap();
            next += 1;
            match q.pop() {
                PopResult::Item(it) => it,
                PopResult::Closed => unreachable!(),
            }
        })
    });

    let engine = DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuTime,
    )
    .expect("engine builds");
    let core = engine.core().clone();

    // The per-dispatch decision: admission check + slack-to-budget mapping
    // + Pareto LUT selection. This is the work a worker does between pop
    // and execution.
    let min = core.min_resource();
    let max = core.max_resource();
    g.bench_function("admit_and_select", |bench| {
        let mut slack = min;
        bench.iter(|| {
            slack = if slack >= max { min } else { slack * 1.1 };
            if admissible(black_box(slack), min) {
                let budget = budget_for(SchedulePolicy::DrtDynamic, &core, slack);
                Some(core.select(budget))
            } else {
                None
            }
        })
    });

    // A whole simulated operating point (~1000 requests through 4 workers).
    let full = max;
    let arrivals = loadgen::poisson_with_bursts(
        2.0 * 4.0 / full,
        250.0 * full,
        2.0 * full,
        50.0 * full,
        12,
        9,
    );
    let config = SimConfig::new(4, 16, SchedulePolicy::DrtDynamic, 1.0);
    g.sample_size(10);
    g.bench_function("simulate_operating_point", |bench| {
        bench.iter(|| simulate(&core, &config, black_box(&arrivals)))
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_scheduler
}
criterion_main!(benches);
