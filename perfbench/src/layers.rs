//! Per-layer metrics: set-up phases, engine and plan probes timed from
//! outside, and kernel / op / role times from a traced run.

use crate::report::{median, Report};
use crate::setup::{self, Engine, Reach};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use vit_drt::EngineCore;
use vit_graph::{ExecBackend, ExecOptions, LayerRole, OpClass, RunContext};
use vit_tensor::Tensor;
use vit_trace::{EventKind, TraceEvent};

/// Timed repetitions of each probe.
const PROBE_REPS: usize = 5;

pub const CLASSES: [&str; 5] = ["conv", "matmul", "attention", "norm", "other"];
/// The ops the decoder's memory-bound tail is made of.
pub const OPS: [&str; 5] = ["Resize", "FlattenHw", "UnflattenHw", "Gelu", "Concat"];
/// The paper's layer roles (Fig 3).
pub const ROLES: [&str; 5] = [
    "PatchEmbed",
    "EncoderBlock",
    "DecoderLinear",
    "FuseConv",
    "PredConv",
];

pub fn add_setup(r: &mut Report, e: &Engine) {
    r.add("setup.lut_build_s", e.lut_build_s, "s", 1);
    r.add("setup.plan_compile_s", e.plan_compile_s, "s", 1);
    r.add("setup.plans_compiled", e.plans_compiled as f64, "count", 1);
    r.add("calib.full_ms", e.calib_full_ms, "ms", 1);
}

fn class_label(c: OpClass) -> &'static str {
    match c {
        OpClass::Conv => "conv",
        OpClass::Matmul => "matmul",
        OpClass::Attention => "attention",
        OpClass::Norm => "norm",
        OpClass::Elementwise | OpClass::Memory => "other",
    }
}

fn role_label(r: LayerRole) -> Option<&'static str> {
    match r {
        LayerRole::PatchEmbed { .. } => Some("PatchEmbed"),
        LayerRole::EncoderBlock { .. } => Some("EncoderBlock"),
        LayerRole::DecoderLinear { .. } => Some("DecoderLinear"),
        LayerRole::FuseConv => Some("FuseConv"),
        LayerRole::PredConv => Some("PredConv"),
        _ => None,
    }
}

/// Node name → (op class, paper role), joined from the graphs of every
/// reachable path (a node keeps its name, op and role across paths).
pub struct NodeIndex(HashMap<String, (&'static str, Option<&'static str>)>);

pub fn node_index(core: &EngineCore, paths: &[Reach]) -> NodeIndex {
    let mut map = HashMap::new();
    for &(config, _) in paths {
        let graph = core.graph(config).expect("reachable path builds");
        for node in graph.nodes() {
            map.entry(node.name.clone())
                .or_insert((class_label(node.op.class()), role_label(node.role)));
        }
    }
    NodeIndex(map)
}

/// Kernel-class, op and role metrics from a traced run's node spans, per
/// inference. Bytes are computed from tensor sizes (inputs + output +
/// parameters, 4-byte elements), not measured. Returns whether the trace
/// validated and kept every event.
pub fn add_trace(
    r: &mut Report,
    events: &[TraceEvent],
    dropped: u64,
    index: &NodeIndex,
    inferences: usize,
) -> bool {
    let valid = vit_trace::validate(events).is_ok() && dropped == 0 && inferences > 0;
    // (ns, flops, bytes) per key.
    let mut class: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    let mut op: HashMap<String, u64> = HashMap::new();
    let mut role: HashMap<&str, u64> = HashMap::new();
    let mut nodes = 0;
    for e in events {
        let EventKind::Node {
            name,
            op: kind,
            start_ns,
            end_ns,
            flops,
            bytes,
        } = &e.kind
        else {
            continue;
        };
        nodes += 1;
        let ns = end_ns - start_ns;
        *op.entry(kind.clone()).or_default() += ns;
        let (c, ro) = index.0.get(name).copied().unwrap_or(("other", None));
        let a = class.entry(c).or_default();
        a.0 += ns;
        a.1 += flops;
        a.2 += bytes;
        if let Some(ro) = ro {
            *role.entry(ro).or_default() += ns;
        }
    }
    let per_inf = |ns: u64| ns as f64 * 1e-6 / inferences.max(1) as f64;
    for c in CLASSES {
        let (ns, flops, bytes) = class.get(c).copied().unwrap_or_default();
        let secs = ns as f64 * 1e-9;
        let rate = |x: u64| {
            if secs > 0.0 {
                x as f64 / secs * 1e-9
            } else {
                0.0
            }
        };
        r.add(format!("kernel.{c}.ms"), per_inf(ns), "ms", inferences);
        r.add(format!("kernel.{c}.gflops"), rate(flops), "GFLOP/s", nodes);
        r.add(format!("kernel.{c}.gbps"), rate(bytes), "GB/s", nodes);
    }
    for o in OPS {
        r.add(
            format!("op.{o}.ms"),
            per_inf(op.get(o).copied().unwrap_or(0)),
            "ms",
            inferences,
        );
    }
    for ro in ROLES {
        r.add(
            format!("role.{ro}.ms"),
            per_inf(role.get(ro).copied().unwrap_or(0)),
            "ms",
            inferences,
        );
    }
    valid
}

fn time_ms(f: &mut dyn FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Engine and plan probes: public calls timed from outside, untraced.
pub fn add_engine_probes(r: &mut Report, e: &Engine, image: &Tensor, budgets: &[f64]) {
    let core = &e.core;
    let entries = core.lut().entries();
    let (cheapest, full) = (entries[0].clone(), entries[entries.len() - 1].clone());

    // LUT lookup, amortized over many calls per sample.
    const SELECTS: usize = 20_000;
    let select_ns: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..SELECTS {
                black_box(core.select(black_box(budgets[i % budgets.len()])));
            }
            t.elapsed().as_secs_f64() * 1e9 / SELECTS as f64
        })
        .collect();
    r.add("lut.select_ns", median(&select_ns), "ns", PROBE_REPS);

    let ctx = setup::plan_ctx();
    let mut scratch = vit_graph::ExecScratch::new();
    let plan = core.plan(full.config).expect("full plan");
    let inputs = std::slice::from_ref(image);
    // Run and replay interleaved, so the overhead (guard + argmax) is a
    // per-pair difference that machine drift does not enter.
    let (mut run, mut replay, mut overhead) = (vec![], vec![], vec![]);
    for _ in 0..PROBE_REPS {
        let a = time_ms(&mut || {
            black_box(
                core.run(&mut scratch, image, full.clone(), true, &ctx)
                    .expect("full run"),
            );
        });
        let b = time_ms(&mut || {
            black_box(plan.execute(inputs, &ctx).expect("full replay"));
        });
        run.push(a);
        replay.push(b);
        overhead.push(a - b);
    }
    let cheap: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            time_ms(&mut || {
                black_box(
                    core.run(&mut scratch, image, cheapest.clone(), true, &ctx)
                        .expect("cheapest run"),
                );
            })
        })
        .collect();
    r.add("engine.run_full_ms", median(&run), "ms", PROBE_REPS);
    r.add("engine.run_cheapest_ms", median(&cheap), "ms", PROBE_REPS);
    r.add("engine.overhead_ms", median(&overhead), "ms", PROBE_REPS);
    r.add("plan.replay_full_ms.t1", median(&replay), "ms", PROBE_REPS);

    let ctx2 =
        RunContext::default().with_exec(ExecOptions::threaded(2).with_backend(ExecBackend::Plan));
    black_box(plan.execute(inputs, &ctx2).expect("warm t2 replay"));
    let t2: Vec<f64> = (0..PROBE_REPS)
        .map(|_| time_ms(&mut || drop(black_box(plan.execute(inputs, &ctx2).expect("t2 replay")))))
        .collect();
    r.add("plan.replay_full_ms.t2", median(&t2), "ms", PROBE_REPS);

    let plan4 = core.plan_batched(full.config, 4).expect("batch-4 plan");
    let batch = Tensor::stack_batch(&vec![image.clone(); 4]).expect("stack batch");
    let b4_inputs = std::slice::from_ref(&batch);
    black_box(plan4.execute(b4_inputs, &ctx).expect("warm b4 replay"));
    let b4: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            time_ms(&mut || {
                drop(black_box(
                    plan4.execute(b4_inputs, &ctx).expect("b4 replay"),
                ))
            }) / 4.0
        })
        .collect();
    r.add("plan.replay_b4_ms_per_item", median(&b4), "ms", PROBE_REPS);

    r.add(
        "plan.arena_bytes_full",
        (plan.arena_len() * 4) as f64,
        "bytes",
        1,
    );
    r.add("plan.records_full", plan.records().len() as f64, "count", 1);
    r.add(
        "plan.fused_nodes_full",
        plan.fused_nodes() as f64,
        "count",
        1,
    );
}

/// Serve-layer and load-generator per-layer metrics, in report order.
pub const SERVE_METRICS: [&str; 12] = [
    "serve.submit_us_p50",
    "serve.submit_us_p99",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p95_ms",
    "serve.exec_p50_ms",
    "serve.batch_size_mean",
    "serve.batched_frac",
    "serve.shed_frac",
    "serve.miss_frac",
    "serve.full_path_frac",
    "loadgen.late_p99_ms",
    "loadgen.late_max_ms",
];

/// Adds the [`SERVE_METRICS`], given as (value, samples) in that order. A
/// workload without a server passes zeros over zero samples.
pub fn add_serve(r: &mut Report, values: [(f64, usize); 12]) {
    for (name, (value, samples)) in SERVE_METRICS.into_iter().zip(values) {
        let unit = if name.contains("_us") {
            "us"
        } else if name.ends_with("_ms") {
            "ms"
        } else if name.ends_with("_mean") {
            "count"
        } else {
            "frac"
        };
        r.add(name, value, unit, samples);
    }
}
