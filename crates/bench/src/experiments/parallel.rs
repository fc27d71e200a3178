//! `repro bench`: sequential-vs-parallel wall-clock regression harness.
//!
//! Times the *full* (undynamic) execution path of each model with the
//! sequential interpreter (the reference oracle) and by replaying a
//! compiled [`ExecPlan`] sequentially and at several thread counts;
//! asserts every variant's outputs are bit-identical to the sequential
//! interpreter's,
//! and (with `--json`) writes the numbers — including per-op-class
//! GFLOP/s from best-of-N traced runs — to `BENCH_parallel_exec.json` so
//! later PRs have a perf trajectory to compare against.
//!
//! `--json` is also a **throughput ratchet**: before overwriting the
//! committed `BENCH_parallel_exec.json`, the per-(model, op-class)
//! GFLOP/s it records are compared against the fresh run, and any class
//! regressing by more than `RATCHET_TOLERANCE` (15%) fails the run with exit
//! code 1 (a non-required CI signal — wall clocks on shared boxes are
//! noisy, so the gate is advisory, but the committed baseline makes the
//! regression visible and datable). Classes whose self-time is under the
//! `MIN_RATCHET_MS` noise floor are reported but never ratcheted.
//!
//! The report records the machine's hardware parallelism: speedups are
//! only physically possible when the machine has more than one core, and
//! honest numbers on a one-core CI box (ratio ≈ 1.0 or below) are still a
//! valid regression baseline.

use crate::{banner, f, Table};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vit_graph::{ExecScratch, Graph, OpClass, RunContext, WeightGen};
use vit_models::{
    build_segformer, build_swin_upernet, SegFormerConfig, SegFormerVariant, SwinConfig, SwinVariant,
};
use vit_plan::ExecPlan;
use vit_profiler::Profile;
use vit_tensor::Tensor;
use vit_trace::{chrome_trace_json, validate, EventKind, RingBufferSink, TraceSink};

/// Flags for [`bench()`].
#[derive(Debug, Default, Clone)]
pub struct BenchArgs {
    /// Write `BENCH_parallel_exec.json` next to the table output.
    pub json: bool,
    /// Smoke mode for CI: fewer repetitions and thread counts.
    pub quick: bool,
    /// Run the tracing section: gate the disabled-tracing overhead,
    /// validate a captured trace, and write it to this path.
    pub trace: Option<String>,
}

struct Case {
    name: &'static str,
    graph: Graph,
    image: Tensor,
}

fn cases() -> Vec<Case> {
    // Full paths (dynamic = full model) at an executable geometry. The
    // acceptance target is the SegFormer-B2 full path; B0 and Swin-T give
    // the trajectory breadth.
    let image = (64, 64);
    let mk_image = |seed| Tensor::rand_uniform(&[1, 3, image.0, image.1], 0.0, 1.0, seed);
    vec![
        Case {
            name: "segformer-b0",
            graph: build_segformer(&SegFormerConfig {
                image,
                ..SegFormerConfig::ade20k(SegFormerVariant::b0())
            })
            .expect("builds"),
            image: mk_image(1),
        },
        Case {
            name: "segformer-b2",
            graph: build_segformer(&SegFormerConfig {
                image,
                ..SegFormerConfig::ade20k(SegFormerVariant::b2())
            })
            .expect("builds"),
            image: mk_image(2),
        },
        Case {
            name: "swin-tiny-upernet",
            graph: build_swin_upernet(&SwinConfig {
                image,
                ..SwinConfig::ade20k(SwinVariant::tiny())
            })
            .expect("builds"),
            image: mk_image(3),
        },
    ]
}

/// Plan replay with its kernels tiled over `threads` (> 1) threads; the
/// JSON keeps the historical `parallel` key for these rows.
struct ParallelPoint {
    threads: usize,
    ms: f64,
    bit_identical: bool,
}

struct PlanPoint {
    compile_ms: f64,
    ms: f64,
    bit_identical: bool,
    records: usize,
    fused: usize,
    arena_elems: usize,
}

struct ClassRate {
    class: &'static str,
    flops: u64,
    ms: f64,
}

struct CaseResult {
    name: &'static str,
    seq_ms: f64,
    parallel: Vec<ParallelPoint>,
    plan: PlanPoint,
    classes: Vec<ClassRate>,
}

/// Best-of-`reps` wall time of one full graph execution, in milliseconds.
fn time_run(
    scratch: &mut ExecScratch,
    gen: WeightGen,
    case: &Case,
    ctx: &RunContext,
    reps: usize,
) -> (f64, Tensor) {
    let inputs = std::slice::from_ref(&case.image);
    let mut out = scratch
        .run_with(gen, &case.graph, inputs, ctx)
        .expect("bench graph runs"); // warm weights, graphs, buffers
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = scratch
            .run_with(gen, &case.graph, inputs, ctx)
            .expect("bench graph runs");
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Best-of-`reps` wall time of one plan replay, in milliseconds.
fn time_plan(plan: &ExecPlan, case: &Case, ctx: &RunContext, reps: usize) -> (f64, Tensor) {
    let inputs = std::slice::from_ref(&case.image);
    let mut out = plan.execute(inputs, ctx).expect("bench plan replays"); // warm arena
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = plan.execute(inputs, ctx).expect("bench plan replays");
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// The reporting buckets for per-class throughput: the profiler's
/// compute classes, with elementwise and data movement folded into
/// `other` (their FLOP counts are zero or negligible either way).
fn class_label(class: OpClass) -> &'static str {
    match class {
        OpClass::Conv => "conv",
        OpClass::Matmul => "matmul",
        OpClass::Attention => "attention",
        OpClass::Norm => "norm",
        OpClass::Elementwise | OpClass::Memory => "other",
    }
}

/// Per-op-class FLOPs and wall time from `reps` traced sequential runs,
/// keeping each class's **best** (minimum) total time: analytical
/// GFLOP/s (MAC convention) per compute class. A single traced run is
/// too noisy to ratchet against — on a shared box one scheduling hiccup
/// inside a sub-millisecond class shifts its rate by 2–3× — and the
/// minimum is the standard wall-clock noise filter (same policy as the
/// timing cells).
fn class_rates(
    scratch: &mut ExecScratch,
    gen: WeightGen,
    case: &Case,
    reps: usize,
) -> Vec<ClassRate> {
    let classes: HashMap<&str, OpClass> = case
        .graph
        .iter()
        .map(|(_, n)| (n.name.as_str(), n.op.class()))
        .collect();
    let order = ["conv", "matmul", "attention", "norm", "other"];
    // Per class: FLOPs (identical every run) and the best total time.
    let mut best: HashMap<&str, (u64, u64)> = HashMap::new();
    for _ in 0..reps.max(1) {
        let ring = Arc::new(RingBufferSink::new(1 << 20));
        let ctx = RunContext::default().with_sink(ring.clone() as Arc<dyn TraceSink>);
        scratch
            .run_with(gen, &case.graph, std::slice::from_ref(&case.image), &ctx)
            .expect("bench graph runs");
        let mut agg: HashMap<&str, (u64, u64)> = HashMap::new();
        for e in ring.take() {
            if let EventKind::Node {
                name,
                start_ns,
                end_ns,
                flops,
                ..
            } = e.kind
            {
                let label = class_label(classes[name.as_str()]);
                let slot = agg.entry(label).or_insert((0, 0));
                slot.0 += flops;
                slot.1 += end_ns - start_ns;
            }
        }
        for (label, (flops, ns)) in agg {
            let slot = best.entry(label).or_insert((flops, ns));
            slot.1 = slot.1.min(ns);
        }
    }
    order
        .iter()
        .map(|&class| {
            let (flops, ns) = best.get(class).copied().unwrap_or((0, 0));
            ClassRate {
                class,
                flops,
                ms: ns as f64 / 1e6,
            }
        })
        .collect()
}

/// GFLOP/s of a (FLOPs, milliseconds) pair; zero when nothing ran.
fn gflops(flops: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        flops as f64 / (ms * 1e6)
    } else {
        0.0
    }
}

/// The seq-vs-parallel benchmark (`repro bench`).
pub fn bench(args: BenchArgs) {
    banner("bench — sequential interpreter vs compiled-plan replay at N threads (full paths)");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let (reps, thread_counts): (usize, &[usize]) =
        if args.quick { (1, &[2]) } else { (3, &[2, 4]) };
    println!("hardware parallelism: {cores} core(s); best of {reps} timed run(s) per cell\n");

    let gen = WeightGen::new(0);
    let mut results = Vec::new();
    let mut t = Table::new(&[
        "model",
        "interp ms",
        "plan threads",
        "plan ms",
        "speedup",
        "bit-identical",
    ]);
    for case in cases() {
        let mut scratch = ExecScratch::new();
        let (seq_ms, seq_out) = time_run(&mut scratch, gen, &case, &RunContext::default(), reps);

        // Compiled plan: pay the lowering once, then replay the flat
        // record stream sequentially and with its kernels tiled over N
        // threads. Replay must beat (or at worst match) the interpreter —
        // that is the whole point of plans.
        let t0 = Instant::now();
        let plan = ExecPlan::compile(&case.graph, gen).expect("bench plan compiles");
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut plan_ms = 0.0;
        let mut parallel = Vec::new();
        for threads in std::iter::once(1).chain(thread_counts.iter().copied()) {
            let (ms, out) = time_plan(&plan, &case, &RunContext::threaded(threads), reps);
            let identical = out == seq_out;
            assert!(
                identical,
                "{}: plan replay at {threads} threads diverged from the sequential interpreter",
                case.name
            );
            t.row(&[
                case.name.to_string(),
                f(seq_ms, 2),
                threads.to_string(),
                f(ms, 2),
                f(seq_ms / ms, 2),
                identical.to_string(),
            ]);
            if threads == 1 {
                plan_ms = ms;
            } else {
                parallel.push(ParallelPoint {
                    threads,
                    ms,
                    bit_identical: identical,
                });
            }
        }
        let plan_point = PlanPoint {
            compile_ms,
            ms: plan_ms,
            bit_identical: true,
            records: plan.records().len(),
            fused: plan.fused_nodes(),
            arena_elems: plan.arena_len(),
        };

        let classes = class_rates(&mut scratch, gen, &case, reps);
        results.push(CaseResult {
            name: case.name,
            seq_ms,
            parallel,
            plan: plan_point,
            classes,
        });
    }
    t.print();

    let mut pt = Table::new(&["model", "records", "fused", "arena KiB", "compile ms"]);
    for r in &results {
        pt.row(&[
            r.name.to_string(),
            r.plan.records.to_string(),
            r.plan.fused.to_string(),
            f(r.plan.arena_elems as f64 * 4.0 / 1024.0, 1),
            f(r.plan.compile_ms, 2),
        ]);
    }
    println!("\ncompiled plans:");
    pt.print();

    let mut ct = Table::new(&["model", "class", "GFLOP", "ms", "GFLOP/s"]);
    for r in &results {
        for c in &r.classes {
            ct.row(&[
                r.name.to_string(),
                c.class.to_string(),
                f(c.flops as f64 / 1e9, 3),
                f(c.ms, 2),
                f(gflops(c.flops, c.ms), 2),
            ]);
        }
    }
    println!("\nper-op-class throughput (best of {reps} traced sequential runs, MAC convention):");
    ct.print();

    if args.json {
        let path = "BENCH_parallel_exec.json";
        let baseline = std::fs::read_to_string(path)
            .ok()
            .map(|s| parse_baseline_rates(&s));
        std::fs::write(path, render_json(cores, reps, args.quick, &results))
            .expect("write benchmark JSON");
        println!("\nwrote {path}");
        match baseline {
            Some(base) => {
                let violations = ratchet_violations(&base, &results);
                if violations.is_empty() {
                    println!(
                        "throughput ratchet: every op class within {:.0}% of the \
                         committed baseline",
                        RATCHET_TOLERANCE * 1e2
                    );
                } else {
                    eprintln!(
                        "throughput ratchet: op classes regressed more than {:.0}% \
                         vs the committed {path}:",
                        RATCHET_TOLERANCE * 1e2
                    );
                    for v in &violations {
                        eprintln!("  {v}");
                    }
                    std::process::exit(1);
                }
            }
            None => println!("throughput ratchet: no committed {path} to compare against"),
        }
    }

    if let Some(path) = &args.trace {
        trace_section(gen, args.quick, path);
    }
}

/// Median of a sample (not the best-of used for speedups: an overhead
/// *gate* must compare typical costs, where a one-sided best would hide a
/// constant per-event tax in the noise floor).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// One timed full-graph run under `ctx`, in milliseconds.
fn one_run_ms(scratch: &mut ExecScratch, gen: WeightGen, case: &Case, ctx: &RunContext) -> f64 {
    let t0 = Instant::now();
    scratch
        .run_with(gen, &case.graph, std::slice::from_ref(&case.image), ctx)
        .expect("bench graph runs");
    t0.elapsed().as_secs_f64() * 1e3
}

/// The `--trace` section: gates the disabled-tracing cost and proves a
/// captured trace is trustworthy before writing it out.
///
/// Since the redesign there is no sink-free execution path — disabled
/// tracing (the `NullSink`) *is* the baseline — so its cost is gated with
/// an A/A comparison over *per-iteration paired ratios*: each iteration
/// runs both NullSink contexts back-to-back (order alternating) and
/// contributes one B/A ratio, and the median ratio must sit within 2% of
/// 1.0 (3% in `--quick` smoke runs, which land on shared boxes whose
/// ambient noise reaches that). Pairing inside an iteration cancels the slow machine drift that
/// dominates group-median comparisons on shared boxes, so the gate bounds
/// the per-event seam (one virtual `enabled()` call) plus residual
/// per-run jitter only. The overhead of an *enabled* ring-buffer sink is
/// reported for information.
///
/// The same paired gate covers the fault-detection machinery: a run with
/// output guards enabled but no fault plan armed (the production serving
/// configuration) is ratioed against the mean of the two adjacent
/// NullSink runs each iteration, and its median ratio must land within
/// 2% beyond the A/A delta (the measured noise floor of identical code
/// in the same process) — proving the always-on NaN/Inf and magnitude
/// checks effectively free when nothing is injected.
fn trace_section(gen: WeightGen, quick: bool, path: &str) {
    let all = cases();
    let case = &all[0]; // segformer-b0: the acceptance target
                        // Enough iterations that each parity subset of the paired estimator
                        // has a stable median: a lone scheduler stall in a 4-sample subset
                        // *is* the median's neighbor, but in an 8-sample subset it is not.
    let reps = if quick { 16 } else { 24 };
    println!(
        "\ntracing — A/A NullSink gate on {}, median of {reps}:",
        case.name
    );

    let mut scratch = ExecScratch::new();
    let null_a = RunContext::default();
    let null_b = RunContext::default();
    // Guards on, nothing armed: what a production server runs every
    // request with.
    let guarded = RunContext::default()
        .with_fault(vit_fault::FaultCtx::new().with_guard(vit_fault::GuardConfig::default()));
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let traced = RunContext::default().with_sink(ring.clone() as Arc<dyn TraceSink>);
    for ctx in [&null_a, &null_b, &guarded, &traced] {
        one_run_ms(&mut scratch, gen, case, ctx); // warm weights + buffers
    }
    let (mut a, mut b, mut g, mut t) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..reps {
        // Alternate the A/B order each iteration so machine drift within
        // an iteration biases both groups' medians equally instead of
        // always penalizing the second group.
        if i % 2 == 0 {
            a.push(one_run_ms(&mut scratch, gen, case, &null_a));
            b.push(one_run_ms(&mut scratch, gen, case, &null_b));
        } else {
            b.push(one_run_ms(&mut scratch, gen, case, &null_b));
            a.push(one_run_ms(&mut scratch, gen, case, &null_a));
        }
        // The guarded run sits between the null pair and the traced run:
        // the traced run's ring-buffer churn perturbs whatever follows
        // it, so it always goes last, where the perturbation lands on
        // the next iteration's first null run uniformly.
        g.push(one_run_ms(&mut scratch, gen, case, &guarded));
        t.push(one_run_ms(&mut scratch, gen, case, &traced));
    }
    // Per-iteration paired ratios, position-balanced: each iteration's
    // runs are adjacent in time, so a ratio is immune to the
    // minutes-scale drift that a ratio of group medians accumulates, and
    // pairing consecutive iterations (which run the two orders) cancels
    // the fixed run-order penalty before the median aggregates.
    let paired = |num: &[f64], den: &[f64]| {
        // Consecutive iterations run the two orders, so the geometric
        // mean of a consecutive pair of ratios cancels the run-order
        // penalty exactly; the median over pair-means then rejects the
        // occasional iteration contaminated by an external stall.
        let mut pairs: Vec<f64> = num
            .chunks_exact(2)
            .zip(den.chunks_exact(2))
            .map(|(n, d)| ((n[0] / d[0]) * (n[1] / d[1])).sqrt())
            .collect();
        median(&mut pairs)
    };
    let null_mean: Vec<f64> = a.iter().zip(&b).map(|(x, y)| (x + y) / 2.0).collect();
    let aa_delta = (paired(&b, &a) - 1.0).abs();
    let guard_delta = paired(&g, &null_mean) - 1.0;
    let trace_delta = paired(&t, &null_mean) - 1.0;
    let (ma, mb, mg, mt) = (
        median(&mut a),
        median(&mut b),
        median(&mut g),
        median(&mut t),
    );
    println!(
        "  null A {ma:.3} ms, null B {mb:.3} ms (paired A/A delta {:.2}%); unarmed \
         guards {mg:.3} ms ({:+.2}% vs disabled); ring-buffer sink {mt:.3} ms \
         ({:+.2}% vs disabled, informational)",
        aa_delta * 1e2,
        guard_delta * 1e2,
        trace_delta * 1e2,
    );
    // Quick mode is the CI smoke configuration and runs on shared boxes
    // whose ambient A/A noise sits near 2% even for identical code; the
    // full run keeps the strict bound.
    let aa_bound = if quick { 0.03 } else { 0.02 };
    assert!(
        aa_delta < aa_bound,
        "disabled-tracing A/A paired medians diverged by {:.2}% (>= {:.0}%)",
        aa_delta * 1e2,
        aa_bound * 1e2
    );
    // The A/A delta is the measured noise floor of *identical* code in
    // this very process — a bound no different-code comparison can beat.
    // On a quiet box it is ~0 and this is a strict 2% gate; on a loaded
    // box it keeps the gate honest instead of flaky.
    assert!(
        guard_delta < aa_delta + 0.02,
        "unarmed fault guards cost {:.2}% over the disabled baseline \
         (>= 2% beyond the {:.2}% A/A noise floor)",
        guard_delta * 1e2,
        aa_delta * 1e2
    );

    // One fresh traced run for the exported artifact, then prove it:
    // well-formed, complete (every node has a span), and FLOP-exact
    // against the static profiler count.
    ring.take();
    one_run_ms(&mut scratch, gen, case, &traced);
    let events = ring.take();
    assert_eq!(ring.dropped(), 0, "trace ring was large enough");
    validate(&events).expect("captured trace is well-formed");
    let node_events = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Node { .. }))
        .count();
    assert_eq!(node_events, case.graph.len(), "one span per graph node");
    let traced_flops: u64 = events
        .iter()
        .map(|e| match &e.kind {
            EventKind::Node { flops, .. } => *flops,
            _ => 0,
        })
        .sum();
    let static_flops = Profile::flops_only(&case.graph).total_flops();
    assert_eq!(
        traced_flops, static_flops,
        "traced FLOPs diverge from the static profiler count"
    );
    std::fs::write(path, chrome_trace_json(&events)).expect("write chrome trace JSON");
    println!(
        "  captured {} events ({node_events} node spans, FLOPs match static count); wrote {path}",
        events.len()
    );
}

/// Fractional per-op-class GFLOP/s regression the `--json` ratchet
/// tolerates before failing. Wall clocks on shared machines jitter by a
/// few percent; 15% is far outside that but far inside the ≥3× jumps the
/// kernel work targets.
const RATCHET_TOLERANCE: f64 = 0.15;

/// Classes whose fresh best-of-N self-time is under this many
/// milliseconds are too small to ratchet: at sub-millisecond scale the
/// measured rate is dominated by timer and scheduling granularity, not
/// kernel throughput, and the absolute cost of any real regression is
/// bounded by the floor itself.
const MIN_RATCHET_MS: f64 = 1.0;

/// Extracts `(model, op class, GFLOP/s)` rows from a committed
/// `BENCH_parallel_exec.json`. A hand-rolled line scan over the exact
/// shape [`render_json`] emits — one `"model"` field per result object,
/// then one `"class"`/`"gflops"` pair per line — so the bench binary
/// needs no JSON dependency. Unrecognized lines are skipped, so a
/// hand-edited or truncated baseline degrades to fewer comparisons, not
/// a parse failure.
fn parse_baseline_rates(json: &str) -> Vec<(String, String, f64)> {
    fn quoted_after(line: &str, key: &str) -> Option<String> {
        let rest = &line[line.find(key)? + key.len()..];
        Some(rest[..rest.find('"')?].to_string())
    }
    fn number_after(line: &str, key: &str) -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
    let mut rows = Vec::new();
    let mut model = String::new();
    for line in json.lines() {
        if let Some(m) = quoted_after(line, "\"model\": \"") {
            model = m;
        } else if let (Some(class), Some(g)) = (
            quoted_after(line, "\"class\": \""),
            number_after(line, "\"gflops\": "),
        ) {
            rows.push((model.clone(), class, g));
        }
    }
    rows
}

/// Per-(model, op-class) GFLOP/s comparisons that regressed beyond
/// [`RATCHET_TOLERANCE`]. Classes with zero throughput on either side
/// (nothing ran, or a class absent from the baseline) or under the
/// [`MIN_RATCHET_MS`] noise floor are not comparable and never fail the
/// ratchet.
fn ratchet_violations(baseline: &[(String, String, f64)], results: &[CaseResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in results {
        for c in &r.classes {
            if c.ms < MIN_RATCHET_MS {
                continue;
            }
            let fresh = gflops(c.flops, c.ms);
            let old = baseline
                .iter()
                .find(|(m, cl, _)| m == r.name && cl == c.class)
                .map(|&(_, _, g)| g);
            if let Some(old) = old {
                if old > 0.0 && fresh > 0.0 && fresh < old * (1.0 - RATCHET_TOLERANCE) {
                    violations.push(format!(
                        "{} {}: {fresh:.3} GFLOP/s vs committed {old:.3} ({:+.1}%)",
                        r.name,
                        c.class,
                        (fresh / old - 1.0) * 1e2
                    ));
                }
            }
        }
    }
    violations
}

fn render_json(cores: usize, reps: usize, quick: bool, results: &[CaseResult]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"parallel_exec\",\n");
    s.push_str(&format!("  \"hardware_parallelism\": {cores},\n"));
    s.push_str(&format!("  \"timed_runs_per_cell\": {reps},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"model\": \"{}\",\n", r.name));
        s.push_str(&format!("      \"sequential_ms\": {:.3},\n", r.seq_ms));
        s.push_str("      \"parallel\": [\n");
        for (j, p) in r.parallel.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"threads\": {}, \"ms\": {:.3}, \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
                p.threads,
                p.ms,
                r.seq_ms / p.ms,
                p.bit_identical,
                if j + 1 < r.parallel.len() { "," } else { "" }
            ));
        }
        s.push_str("      ],\n");
        s.push_str(&format!(
            "      \"plan\": {{\"ms\": {:.3}, \"speedup\": {:.3}, \"bit_identical\": {}, \
             \"compile_ms\": {:.3}, \"records\": {}, \"fused_nodes\": {}, \"arena_elems\": {}}},\n",
            r.plan.ms,
            r.seq_ms / r.plan.ms,
            r.plan.bit_identical,
            r.plan.compile_ms,
            r.plan.records,
            r.plan.fused,
            r.plan.arena_elems,
        ));
        s.push_str("      \"gflops_by_class\": [\n");
        for (j, c) in r.classes.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"class\": \"{}\", \"flops\": {}, \"ms\": {:.3}, \"gflops\": {:.3}}}{}\n",
                c.class,
                c.flops,
                c.ms,
                gflops(c.flops, c.ms),
                if j + 1 < r.classes.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &'static str, classes: Vec<ClassRate>) -> CaseResult {
        CaseResult {
            name,
            seq_ms: 1.0,
            parallel: Vec::new(),
            plan: PlanPoint {
                compile_ms: 0.0,
                ms: 1.0,
                bit_identical: true,
                records: 0,
                fused: 0,
                arena_elems: 0,
            },
            classes,
        }
    }

    #[test]
    fn baseline_parse_round_trips_render_json() {
        let results = [case(
            "segformer-b0",
            vec![
                ClassRate {
                    class: "conv",
                    flops: 2_000_000_000,
                    ms: 4.0,
                },
                ClassRate {
                    class: "matmul",
                    flops: 1_000_000_000,
                    ms: 2.0,
                },
            ],
        )];
        let rows = parse_baseline_rates(&render_json(1, 3, false, &results));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "segformer-b0");
        assert_eq!(rows[0].1, "conv");
        assert!((rows[0].2 - 500.0).abs() < 1e-6);
        assert_eq!(rows[1].1, "matmul");
        assert!((rows[1].2 - 500.0).abs() < 1e-6);
    }

    #[test]
    fn ratchet_fires_only_beyond_the_tolerance() {
        let baseline = vec![
            ("m".to_string(), "conv".to_string(), 10.0),
            ("m".to_string(), "matmul".to_string(), 10.0),
            ("m".to_string(), "norm".to_string(), 0.0),
        ];
        // conv regressed 20% (fires), matmul regressed 10% (within
        // tolerance), norm has a zero baseline (not comparable), and
        // attention is absent from the baseline entirely.
        let results = [case(
            "m",
            vec![
                ClassRate {
                    class: "conv",
                    flops: 8_000_000,
                    ms: 1.0,
                },
                ClassRate {
                    class: "matmul",
                    flops: 9_000_000,
                    ms: 1.0,
                },
                ClassRate {
                    class: "norm",
                    flops: 1_000_000,
                    ms: 1.0,
                },
                ClassRate {
                    class: "attention",
                    flops: 1_000_000,
                    ms: 1.0,
                },
            ],
        )];
        let v = ratchet_violations(&baseline, &results);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("conv"), "{v:?}");
    }

    #[test]
    fn ratchet_skips_classes_under_the_noise_floor() {
        let baseline = vec![("m".to_string(), "norm".to_string(), 10.0)];
        // 5x regression, but only 0.4 ms of self-time: noise-dominated.
        let results = [case(
            "m",
            vec![ClassRate {
                class: "norm",
                flops: 800_000,
                ms: 0.4,
            }],
        )];
        assert!(ratchet_violations(&baseline, &results).is_empty());
    }

    #[test]
    fn ratchet_ignores_unknown_models_and_improvements() {
        let baseline = vec![("other-model".to_string(), "conv".to_string(), 10.0)];
        let results = [case(
            "m",
            vec![ClassRate {
                class: "conv",
                flops: 1_000_000,
                ms: 1.0,
            }],
        )];
        assert!(ratchet_violations(&baseline, &results).is_empty());
        // A 10x improvement never fires.
        let baseline = vec![("m".to_string(), "conv".to_string(), 0.1)];
        assert!(ratchet_violations(&baseline, &results).is_empty());
    }
}
