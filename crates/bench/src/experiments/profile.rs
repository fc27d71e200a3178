//! `repro profile <model> <budget>`: one traced DRT inference by
//! compiled-plan replay (the production executor), exported as a
//! chrome://tracing / Perfetto-loadable JSON plus a flame-style summary
//! table.
//!
//! The run is traced cold on purpose: the graph build, plan compilation,
//! and LUT selection phases are exactly what a latency investigation
//! wants to see next to the per-record execution spans. The trace is
//! cross-checked before it is written: one span per plan record, and the
//! traced record FLOPs summing to the static count `vit-profiler`
//! computes for the executed graph.

use crate::banner;
use std::sync::Arc;
use vit_drt::{DrtEngine, RunContext};
use vit_graph::{ExecBackend, ExecOptions};
use vit_models::SegFormerVariant;
use vit_profiler::Profile;
use vit_resilience::{ResourceKind, Workload};
use vit_tensor::Tensor;
use vit_trace::{chrome_trace_json, validate, EventKind, FlameSummary, RingBufferSink, TraceSink};

/// Arguments of `repro profile`.
#[derive(Debug, Clone)]
pub struct ProfileArgs {
    /// Model to profile (`segformer-b0` or `segformer-b2`).
    pub model: String,
    /// Budget as a fraction of the full path's resource, in `(0, 1]`.
    pub budget: f64,
    /// Where to write the chrome-trace JSON.
    pub out: String,
    /// Threads of the intra-inference execution pool (1 = sequential).
    pub threads: usize,
}

impl Default for ProfileArgs {
    fn default() -> Self {
        ProfileArgs {
            model: String::new(),
            budget: 1.0,
            out: "trace.json".to_string(),
            threads: 1,
        }
    }
}

/// `repro profile`: trace one inference and export it. Exits non-zero on
/// an unknown model or an out-of-range budget.
pub fn profile(args: ProfileArgs) {
    let variant = match args.model.as_str() {
        "segformer-b0" => SegFormerVariant::b0(),
        "segformer-b2" => SegFormerVariant::b2(),
        other => {
            eprintln!("unknown profile model `{other}` (expected segformer-b0 or segformer-b2)");
            std::process::exit(2);
        }
    };
    if !(args.budget > 0.0 && args.budget <= 1.0) {
        eprintln!(
            "budget {} out of range: expected a fraction of the full path in (0, 1]",
            args.budget
        );
        std::process::exit(2);
    }
    banner(&format!(
        "profile — one traced compiled-plan inference of {} at budget {:.3}x full",
        args.model, args.budget
    ));

    let engine = DrtEngine::segformer(
        variant,
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuTime,
    )
    .expect("engine builds");
    let core = engine.core().clone();
    let sink = Arc::new(RingBufferSink::new(1 << 20));
    let ctx = RunContext::default()
        .with_exec(ExecOptions::threaded(args.threads).with_backend(ExecBackend::Plan))
        .with_sink(sink.clone() as Arc<dyn TraceSink>);

    let image = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 7);
    let mut scratch = vit_graph::ExecScratch::new();
    let budget_units = args.budget * core.max_resource();
    let inference = core
        .infer(&mut scratch, &image, budget_units, &ctx)
        .expect("profiled inference runs");
    println!(
        "selected {:?} (met budget: {}, est. norm mIoU {:.3})",
        inference.config, inference.met_budget, inference.norm_miou_estimate
    );

    let events = sink.take();
    assert_eq!(sink.dropped(), 0, "trace ring was large enough");
    validate(&events).expect("captured trace is well-formed");

    // Cross-check: one span per record of the plan that replayed, and the
    // traced record FLOPs summing to exactly the static count
    // vit-profiler reports for the graph it was compiled from.
    let plan = core.plan(inference.config).expect("executed plan compiles");
    let graph = core.graph(inference.config).expect("executed graph builds");
    let static_flops = Profile::flops_only(&graph).total_flops();
    let (spans, traced_flops) = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Node { flops, .. } => Some(*flops),
            _ => None,
        })
        .fold((0, 0u64), |(n, sum), flops| (n + 1, sum + flops));
    assert_eq!(spans, plan.records().len(), "one span per plan record");
    assert_eq!(
        traced_flops, static_flops,
        "traced record FLOPs diverge from the static profiler count"
    );
    println!(
        "traced FLOPs {traced_flops} == static profiler count {static_flops} \
         over {spans} record spans ({} events)\n",
        events.len()
    );

    print!("{}", FlameSummary::from_events(&events, 10).render());

    std::fs::write(&args.out, chrome_trace_json(&events)).expect("write chrome trace JSON");
    println!(
        "\nwrote {} — load it at chrome://tracing or https://ui.perfetto.dev",
        args.out
    );
}
