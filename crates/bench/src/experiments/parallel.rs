//! `repro bench`: the plan-replay regression harness.
//!
//! Times the *full* (undynamic) execution path of each model the way
//! production runs it: replaying a compiled [`ExecPlan`] on warm caches,
//! sequentially and with its kernels tiled over several threads. The
//! sequential interpreter runs once per model, untimed, as the reference
//! oracle: every replay must be bit-identical to it. With `--json` the
//! numbers — including per-op-class GFLOP/s from best-of-N traced
//! replays — go to `BENCH_parallel_exec.json` so later changes have a perf
//! trajectory to compare against.
//!
//! `--json` is also a **throughput ratchet**: before overwriting the
//! committed `BENCH_parallel_exec.json`, the per-(model, op-class)
//! GFLOP/s it records are compared against the fresh run, and any class
//! regressing by more than `RATCHET_TOLERANCE` (15%) fails the run with exit
//! code 1 and leaves the committed file unchanged, so a regressed run
//! never becomes the next baseline (a non-required CI signal — wall
//! clocks on shared boxes are noisy, so the gate is advisory, but the
//! committed baseline makes the regression visible and datable). Classes whose self-time is under the
//! `MIN_RATCHET_MS` noise floor are reported but never ratcheted. A
//! baseline that exists but does not parse is an error (exit 1) rather
//! than a silently shorter comparison; a missing one means "no baseline".
//!
//! The report records the machine's hardware parallelism: speedups are
//! only physically possible when the machine has more than one core, and
//! honest numbers on a one-core CI box (ratio ≈ 1.0 or below) are still a
//! valid regression baseline.

use crate::{banner, f, Table};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vit_drt::json::{parse, write_pretty, Json};
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

struct ClassRate {
    class: &'static str,
    flops: u64,
    ms: f64,
}

struct CaseResult {
    name: &'static str,
    compile_ms: f64,
    records: usize,
    fused: usize,
    arena_elems: usize,
    /// Best-of-N replay milliseconds per thread count (1 = sequential),
    /// every one bit-identical to the interpreter oracle.
    replay: Vec<(usize, f64)>,
    classes: Vec<ClassRate>,
}

/// One committed per-(model, op-class) throughput the ratchet compares
/// against.
#[derive(Debug, PartialEq)]
struct BaselineRate {
    model: String,
    class: String,
    gflops: f64,
}

/// One plan replay of `case` under `ctx`.
fn replay(plan: &ExecPlan, case: &Case, ctx: &RunContext) -> Tensor {
    plan.execute(std::slice::from_ref(&case.image), ctx)
        .expect("bench plan replays")
}

/// Wall time of one plan replay, in milliseconds.
fn replay_ms(plan: &ExecPlan, case: &Case, ctx: &RunContext) -> f64 {
    let t0 = Instant::now();
    replay(plan, case, ctx);
    t0.elapsed().as_secs_f64() * 1e3
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

/// Per-op-class FLOPs and wall time from `reps` traced sequential plan
/// replays, keeping each class's **best** (minimum) total time:
/// analytical GFLOP/s (MAC convention) per compute class. A record's
/// class is its producer's, so fused epilogue FLOPs count with the kernel
/// that runs them. A single traced run is too noisy to ratchet against —
/// on a shared box one scheduling hiccup inside a sub-millisecond class
/// shifts its rate by 2–3× — and the minimum is the standard wall-clock
/// noise filter (same policy as the timing cells).
fn class_rates(plan: &ExecPlan, case: &Case, reps: usize) -> Vec<ClassRate> {
    let classes: HashMap<&str, OpClass> = plan
        .records()
        .iter()
        .map(|r| (r.name.as_str(), r.op.class()))
        .collect();
    let order = ["conv", "matmul", "attention", "norm", "other"];
    // Per class: FLOPs (identical every run) and the best total time.
    let mut best: HashMap<&str, (u64, u64)> = HashMap::new();
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let ctx = RunContext::default().with_sink(ring.clone() as Arc<dyn TraceSink>);
    for _ in 0..reps.max(1) {
        replay(plan, case, &ctx);
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
                let slot = agg.entry(class_label(classes[name.as_str()])).or_default();
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

/// The plan-replay benchmark (`repro bench`). Returns the process exit
/// code: 0 on success, 1 when the committed baseline is unreadable or the
/// throughput ratchet fires.
pub fn bench(args: BenchArgs) -> i32 {
    banner("bench — compiled-plan replay at N threads vs the interpreter oracle (full paths)");
    let path = "BENCH_parallel_exec.json";
    // Read the committed baseline before any work, so a corrupt file
    // fails fast and is left in place for inspection.
    let loaded = if args.json {
        load_baseline(Path::new(path))
    } else {
        Ok(None)
    };
    let baseline = match loaded {
        Ok(b) => b,
        Err(e) => {
            eprintln!("throughput ratchet: committed {path} is unusable: {e}");
            return 1;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let (reps, thread_counts): (usize, &[usize]) = if args.quick {
        (1, &[1, 2])
    } else {
        (3, &[1, 2, 4])
    };
    println!("hardware parallelism: {cores} core(s); best of {reps} timed replay(s) per cell\n");

    let gen = WeightGen::new(0);
    let mut results = Vec::new();
    let mut t = Table::new(&["model", "threads", "replay ms", "vs 1 thread"]);
    for case in cases() {
        // The oracle: one untimed sequential interpreter run.
        let oracle = ExecScratch::new()
            .run_with(
                gen,
                &case.graph,
                std::slice::from_ref(&case.image),
                &RunContext::default(),
            )
            .expect("bench graph runs");
        let t0 = Instant::now();
        let plan = ExecPlan::compile(&case.graph, gen).expect("bench plan compiles");
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut points: Vec<(usize, f64)> = Vec::new();
        for &threads in thread_counts {
            let ctx = RunContext::threaded(threads);
            assert!(
                replay(&plan, &case, &ctx) == oracle, // also warms arena and scratch
                "{}: plan replay at {threads} threads diverged from the sequential interpreter",
                case.name
            );
            let ms = (0..reps)
                .map(|_| replay_ms(&plan, &case, &ctx))
                .fold(f64::INFINITY, f64::min);
            let t1_ms = points.first().map_or(ms, |p| p.1);
            t.row(&[
                case.name.to_string(),
                threads.to_string(),
                f(ms, 2),
                f(t1_ms / ms, 2),
            ]);
            points.push((threads, ms));
        }
        results.push(CaseResult {
            name: case.name,
            compile_ms,
            records: plan.records().len(),
            fused: plan.fused_nodes(),
            arena_elems: plan.arena_len(),
            replay: points,
            classes: class_rates(&plan, &case, reps),
        });
    }
    t.print();
    println!("every replay bit-identical to the sequential interpreter");

    let mut pt = Table::new(&["model", "records", "fused", "arena KiB", "compile ms"]);
    for r in &results {
        pt.row(&[
            r.name.to_string(),
            r.records.to_string(),
            r.fused.to_string(),
            f(r.arena_elems as f64 * 4.0 / 1024.0, 1),
            f(r.compile_ms, 2),
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
    println!(
        "\nper-op-class throughput (best of {reps} traced sequential replays, MAC convention):"
    );
    ct.print();

    let code = if args.json {
        let doc = render_json(cores, reps, args.quick, &results);
        ratchet_and_write(Path::new(path), baseline.as_deref(), &results, &doc)
    } else {
        0
    };

    if let Some(trace_path) = &args.trace {
        trace_section(gen, args.quick, trace_path);
    }
    code
}

/// Median of a sample (not the best-of used for speedups: an overhead
/// *gate* must compare typical costs, where a one-sided best would hide a
/// constant per-event tax in the noise floor).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The `--trace` section: gates the disabled-tracing cost and proves a
/// captured trace is trustworthy before writing it out, all on sequential
/// plan replay.
///
/// There is no sink-free execution path — disabled tracing (the
/// `NullSink`) *is* the baseline — so its cost is gated with an A/A
/// comparison over *per-iteration paired ratios*: each iteration runs
/// both NullSink contexts back-to-back (order alternating) and
/// contributes one B/A ratio, and the median ratio must sit within 2% of
/// 1.0 (3% in `--quick` smoke runs, which land on shared boxes whose
/// ambient noise reaches that). Pairing inside an iteration cancels the
/// slow machine drift that dominates group-median comparisons on shared
/// boxes, so the gate bounds the per-record seam (one virtual `enabled()`
/// call) plus residual per-run jitter only. The overhead of an *enabled*
/// ring-buffer sink is reported for information.
///
/// The same paired gate covers the fault-detection seam in replay: a
/// replay under a guard-configured but unarmed fault context (the
/// production serving configuration) is ratioed against the mean of the
/// two adjacent NullSink runs each iteration, and its median ratio must
/// land within 2% beyond the A/A delta (the measured noise floor of
/// identical code in the same process) — proving the per-record
/// injection and guard checks effectively free when nothing is injected.
/// The engine's final-output guard scan runs after replay and is not part
/// of this gate.
fn trace_section(gen: WeightGen, quick: bool, path: &str) {
    let all = cases();
    let case = &all[0]; // segformer-b0: the acceptance target
    let plan = ExecPlan::compile(&case.graph, gen).expect("bench plan compiles");
    // Enough iterations that each parity subset of the paired estimator
    // has a stable median: a lone scheduler stall in a 4-sample subset
    // *is* the median's neighbor, but in an 8-sample subset it is not.
    let reps = if quick { 16 } else { 24 };
    println!(
        "\ntracing — A/A NullSink gate on {} plan replay, median of {reps}:",
        case.name
    );

    let null_a = RunContext::default();
    let null_b = RunContext::default();
    // Guards on, nothing armed: what a production server runs every
    // request with.
    let guarded = RunContext::default()
        .with_fault(vit_fault::FaultCtx::new().with_guard(vit_fault::GuardConfig::default()));
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let traced = RunContext::default().with_sink(ring.clone() as Arc<dyn TraceSink>);
    for ctx in [&null_a, &null_b, &guarded, &traced] {
        replay(&plan, case, ctx); // warm arena + scratch
    }
    let run = |ctx| replay_ms(&plan, case, ctx);
    let (mut a, mut b, mut g, mut t) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..reps {
        // Alternate the A/B order each iteration so machine drift within
        // an iteration biases both groups' medians equally instead of
        // always penalizing the second group.
        if i % 2 == 0 {
            a.push(run(&null_a));
            b.push(run(&null_b));
        } else {
            b.push(run(&null_b));
            a.push(run(&null_a));
        }
        // The guarded run sits between the null pair and the traced run:
        // the traced run's ring-buffer churn perturbs whatever follows
        // it, so it always goes last, where the perturbation lands on
        // the next iteration's first null run uniformly.
        g.push(run(&guarded));
        t.push(run(&traced));
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

    // One fresh traced replay for the exported artifact, then prove it:
    // well-formed, complete (every plan record has a span), and FLOP-exact
    // against the static profiler count of the source graph.
    ring.take();
    replay(&plan, case, &traced);
    let events = ring.take();
    assert_eq!(ring.dropped(), 0, "trace ring was large enough");
    validate(&events).expect("captured trace is well-formed");
    let node_events = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Node { .. }))
        .count();
    assert_eq!(
        node_events,
        plan.records().len(),
        "one span per plan record"
    );
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
        "traced record FLOPs diverge from the static profiler count"
    );
    std::fs::write(path, chrome_trace_json(&events)).expect("write chrome trace JSON");
    println!(
        "  captured {} events ({node_events} record spans, FLOPs match static count); \
         wrote {path}",
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

/// The committed baseline at `path`: `Ok(None)` when there is no file,
/// an error when it exists but cannot be read or is not the document
/// [`render_json`] writes.
fn load_baseline(path: &Path) -> Result<Option<Vec<BaselineRate>>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_baseline(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// Extracts every `(model, op class, GFLOP/s)` row of a
/// `BENCH_parallel_exec.json` document; any missing or mistyped field is
/// an error naming it.
fn parse_baseline(text: &str) -> Result<Vec<BaselineRate>, String> {
    fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
        v.get(key).ok_or_else(|| format!("missing `{key}`"))
    }
    let doc = parse(text).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for result in field(&doc, "results")?
        .as_arr()
        .ok_or("`results` is not an array")?
    {
        let model = field(result, "model")?
            .as_str()
            .ok_or("`model` is not a string")?;
        let classes = field(result, "gflops_by_class")?
            .as_arr()
            .ok_or("`gflops_by_class` is not an array")?;
        for c in classes {
            rows.push(BaselineRate {
                model: model.to_string(),
                class: field(c, "class")?
                    .as_str()
                    .ok_or("`class` is not a string")?
                    .to_string(),
                gflops: field(c, "gflops")?
                    .as_f64()
                    .ok_or("`gflops` is not a number")?,
            });
        }
    }
    Ok(rows)
}

/// Per-(model, op-class) GFLOP/s comparisons that regressed beyond
/// [`RATCHET_TOLERANCE`]. Classes with zero throughput on either side
/// (nothing ran, or a class absent from the baseline) or under the
/// [`MIN_RATCHET_MS`] noise floor are not comparable and never fail the
/// ratchet.
fn ratchet_violations(baseline: &[BaselineRate], results: &[CaseResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for r in results {
        for c in r.classes.iter().filter(|c| c.ms >= MIN_RATCHET_MS) {
            let fresh = gflops(c.flops, c.ms);
            let old = baseline
                .iter()
                .find(|b| b.model == r.name && b.class == c.class)
                .map(|b| b.gflops);
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

/// The `--json` ratchet: compares `results` against the committed
/// `baseline` and writes `doc` to `path` only when no op class regressed
/// beyond [`RATCHET_TOLERANCE`] or there is no baseline. A regressed run
/// leaves the committed file in place, so it never becomes the next
/// baseline. Returns the process exit code: 1 on a violation, else 0.
fn ratchet_and_write(
    path: &Path,
    baseline: Option<&[BaselineRate]>,
    results: &[CaseResult],
    doc: &str,
) -> i32 {
    let shown = path.display();
    let violations = baseline.map_or_else(Vec::new, |b| ratchet_violations(b, results));
    if !violations.is_empty() {
        eprintln!(
            "throughput ratchet: op classes regressed more than {:.0}% vs the \
             committed {shown}, which is left unchanged:",
            RATCHET_TOLERANCE * 1e2
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        return 1;
    }
    std::fs::write(path, doc).expect("write benchmark JSON");
    println!("\nwrote {shown}");
    match baseline {
        Some(_) => println!(
            "throughput ratchet: every op class within {:.0}% of the committed baseline",
            RATCHET_TOLERANCE * 1e2
        ),
        None => println!("throughput ratchet: no committed {shown} to compare against"),
    }
    0
}

/// A float rounded to three decimals, the artifact's precision.
fn num3(v: f64) -> Json {
    Json::Num((v * 1e3).round() / 1e3)
}

fn int(v: usize) -> Json {
    Json::Int(v as i64)
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

fn render_json(cores: usize, reps: usize, quick: bool, results: &[CaseResult]) -> String {
    let result_json = |r: &CaseResult| {
        let t1_ms = r.replay.first().map_or(0.0, |p| p.1);
        let replay = r.replay.iter().map(|&(threads, ms)| {
            obj([
                ("threads", int(threads)),
                ("ms", num3(ms)),
                ("speedup_vs_t1", num3(t1_ms / ms)),
            ])
        });
        let classes = r.classes.iter().map(|c| {
            obj([
                ("class", Json::Str(c.class.into())),
                ("flops", Json::Int(c.flops as i64)),
                ("ms", num3(c.ms)),
                ("gflops", num3(gflops(c.flops, c.ms))),
            ])
        });
        obj([
            ("model", Json::Str(r.name.into())),
            (
                "plan",
                obj([
                    ("compile_ms", num3(r.compile_ms)),
                    ("records", int(r.records)),
                    ("fused_nodes", int(r.fused)),
                    ("arena_elems", int(r.arena_elems)),
                ]),
            ),
            ("replay", Json::Arr(replay.collect())),
            ("gflops_by_class", Json::Arr(classes.collect())),
        ])
    };
    let doc = obj([
        ("benchmark", Json::Str("parallel_exec".into())),
        ("executor", Json::Str("plan_replay".into())),
        ("bit_identical_to_interpreter", Json::Bool(true)),
        ("hardware_parallelism", int(cores)),
        ("timed_runs_per_cell", int(reps)),
        ("quick", Json::Bool(quick)),
        (
            "results",
            Json::Arr(results.iter().map(result_json).collect()),
        ),
    ]);
    let mut s = write_pretty(&doc);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &'static str, classes: Vec<ClassRate>) -> CaseResult {
        CaseResult {
            name,
            compile_ms: 0.0,
            records: 0,
            fused: 0,
            arena_elems: 0,
            replay: vec![(1, 1.0)],
            classes,
        }
    }

    fn rate(class: &'static str, flops: u64, ms: f64) -> ClassRate {
        ClassRate { class, flops, ms }
    }

    fn base(model: &str, class: &str, gflops: f64) -> BaselineRate {
        BaselineRate {
            model: model.into(),
            class: class.into(),
            gflops,
        }
    }

    #[test]
    fn baseline_parse_round_trips_render_json() {
        let results = [case(
            "segformer-b0",
            vec![
                rate("conv", 2_000_000_000, 4.0),
                rate("matmul", 1_000_000_000, 2.0),
            ],
        )];
        let rows = parse_baseline(&render_json(1, 3, false, &results)).unwrap();
        assert_eq!(
            rows,
            [
                base("segformer-b0", "conv", 500.0),
                base("segformer-b0", "matmul", 500.0)
            ]
        );
    }

    #[test]
    fn unusable_baselines_are_errors_and_a_missing_one_is_none() {
        let dir = std::env::temp_dir().join(format!("bench-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_parallel_exec.json");
        assert_eq!(load_baseline(&path), Ok(None));
        for (text, why) in [
            ("{\"results\": [", "end of input"),
            ("{\"benchmark\": \"parallel_exec\"}", "missing `results`"),
            (
                "{\"results\": [{\"model\": \"m\", \"gflops_by_class\": [{\"class\": \"conv\"}]}]}",
                "missing `gflops`",
            ),
            (
                "{\"results\": [{\"model\": 3, \"gflops_by_class\": []}]}",
                "`model` is not a string",
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = load_baseline(&path).unwrap_err();
            assert!(err.contains(why), "{text}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ratchet_fires_only_beyond_the_tolerance() {
        let baseline = [
            base("m", "conv", 10.0),
            base("m", "matmul", 10.0),
            base("m", "norm", 0.0),
        ];
        // conv regressed 20% (fires), matmul regressed 10% (within
        // tolerance), norm has a zero baseline (not comparable), and
        // attention is absent from the baseline entirely.
        let results = [case(
            "m",
            vec![
                rate("conv", 8_000_000, 1.0),
                rate("matmul", 9_000_000, 1.0),
                rate("norm", 1_000_000, 1.0),
                rate("attention", 1_000_000, 1.0),
            ],
        )];
        let v = ratchet_violations(&baseline, &results);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("conv"), "{v:?}");
    }

    #[test]
    fn a_regressed_run_leaves_the_committed_baseline_in_place() {
        let dir = std::env::temp_dir().join(format!("bench-ratchet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_parallel_exec.json");
        let committed = render_json(
            1,
            3,
            false,
            &[case("m", vec![rate("conv", 10_000_000, 1.0)])],
        );
        // No baseline yet: the run is written.
        let fresh = [case("m", vec![rate("conv", 5_000_000, 1.0)])];
        assert_eq!(ratchet_and_write(&path, None, &fresh, &committed), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);
        // A 50% conv regression fails and leaves the committed file as is.
        let baseline = parse_baseline(&committed).unwrap();
        let regressed = render_json(1, 3, false, &fresh);
        assert_eq!(
            ratchet_and_write(&path, Some(&baseline), &fresh, &regressed),
            1
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);
        // A clean run replaces it.
        let faster = [case("m", vec![rate("conv", 12_000_000, 1.0)])];
        let improved = render_json(1, 3, false, &faster);
        assert_eq!(
            ratchet_and_write(&path, Some(&baseline), &faster, &improved),
            0
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), improved);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ratchet_skips_classes_under_the_noise_floor() {
        // 5x regression, but only 0.4 ms of self-time: noise-dominated.
        let results = [case("m", vec![rate("norm", 800_000, 0.4)])];
        assert!(ratchet_violations(&[base("m", "norm", 10.0)], &results).is_empty());
    }

    #[test]
    fn ratchet_ignores_unknown_models_and_improvements() {
        let results = [case("m", vec![rate("conv", 1_000_000, 1.0)])];
        let baseline = [base("other-model", "conv", 10.0)];
        assert!(ratchet_violations(&baseline, &results).is_empty());
        // A 10x improvement never fires.
        assert!(ratchet_violations(&[base("m", "conv", 0.1)], &results).is_empty());
    }
}
