//! `drt-trace`: one caller runs `EngineCore::infer` in a closed loop under a
//! seeded budget trace that sweeps from the cheapest LUT path to the full
//! one. No serve layer: engine, plan replay and kernels only.

use crate::cpu::Placement;
use crate::layers;
use crate::refclock::RefClock;
use crate::report::{hash_logits, mean, median, Report};
use crate::setup::{self, Engine};
use crate::{Mode, Outcome};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vit_drt::{BudgetTrace, EngineCore, LutConfig, TracePattern};
use vit_graph::{ExecScratch, RunContext};
use vit_tensor::Tensor;
use vit_trace::RingBufferSink;

/// Input size: the full path's arena (20 MB) is far past L2, and the
/// decoder's resize/fuse share is larger than at the serving size.
const IMAGE: usize = 128;
/// Budget-trace steps per sweep; the timed loop runs whole sweeps, so the
/// path mix of a run never depends on how fast it ran. Odd, so the median
/// and p90 fall inside one path's cluster of latencies rather than on the
/// edge between two paths.
const PERIOD: usize = 13;
/// Pinned full-path time, in reference ms: a step's budget (a fraction of
/// the full path) becomes its deadline at this rate. It is 15% above the
/// slowest step seen in the benchmark's repeated runs, per unit of its
/// budget (see `METRICS.md`).
const PINNED_FULL_MS: f64 = 275.0;

/// One sweep of budgets (LUT resource units), starting at a seeded phase.
/// The crest reaches 1% past the full path, so the samples nearest it
/// select the full path even though an odd period never samples the peak.
fn budgets(core: &EngineCore, seed: u64) -> Vec<f64> {
    let full = core.max_resource();
    let pattern = TracePattern::Sinusoid {
        min: core.min_resource() / full,
        max: 1.01,
        period: PERIOD,
    };
    BudgetTrace::new(pattern, seed)
        .skip((seed % PERIOD as u64) as usize)
        .take(PERIOD)
        .map(|f| f * full)
        .collect()
}

/// The distinct paths one sweep selects.
fn reach(core: &EngineCore) -> Vec<setup::Reach> {
    let mut out: Vec<setup::Reach> = Vec::new();
    for b in budgets(core, 0) {
        let c = (core.select(b).0.config, 1);
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Interpreter-backend hash of every reachable path's logits: the exact
/// tier makes plan replay bit-identical to it.
fn reference_hashes(
    core: &EngineCore,
    paths: &[setup::Reach],
    image: &Tensor,
) -> HashMap<LutConfig, u64> {
    let mut scratch = ExecScratch::new();
    let ctx = RunContext::default();
    paths
        .iter()
        .map(|&(config, _)| {
            let out = core
                .run(
                    &mut scratch,
                    image,
                    setup::entry_of(core, config),
                    true,
                    &ctx,
                )
                .expect("reference run");
            (config, hash_logits(&out.logits))
        })
        .collect()
}

/// What a run of sweeps measured.
#[derive(Default)]
struct Sweeps {
    /// When each call started, and its wall-clock latency in ms.
    calls: Vec<(Instant, f64)>,
    /// Each call's budget, in LUT resource units.
    budgets: Vec<f64>,
    accuracy: Vec<f64>,
    failed: usize,
}

/// One sweep, appended to `into`. A reference pass follows every call,
/// outside the timed interval, so the clock tracks the machine's speed
/// through the whole run.
#[allow(clippy::too_many_arguments)]
fn sweep(
    core: &EngineCore,
    scratch: &mut ExecScratch,
    image: &Tensor,
    budgets: &[f64],
    refs: &HashMap<LutConfig, u64>,
    ctx: &RunContext,
    clock: &mut RefClock,
    into: &mut Sweeps,
) {
    for &budget in budgets {
        let t = Instant::now();
        let result = core.infer(scratch, image, budget, ctx);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        into.calls.push((t, ms));
        into.budgets.push(budget);
        // Checked outside the timed call.
        match result {
            Ok(inf) if refs.get(&inf.config) == Some(&hash_logits(&inf.logits)) => {
                into.accuracy.push(inf.norm_miou_estimate);
            }
            _ => {
                into.accuracy.push(0.0);
                into.failed += 1;
            }
        }
        clock.pass();
    }
}

pub fn run(mode: &Mode) -> Outcome {
    let mut clock = RefClock::new(mode.start);
    // Every call and every reference pass on one CPU (see `cpu`).
    let placement = Placement::new();
    placement.go_home();
    let engine = setup::build(IMAGE, &reach);
    let Engine { core, .. } = &engine;
    let paths = reach(core);
    let image = Tensor::rand_uniform(&[1, 3, IMAGE, IMAGE], 0.0, 1.0, mode.seed);
    let refs = reference_hashes(core, &paths, &image);
    let budgets = budgets(core, mode.seed);
    let spu_pinned = PINNED_FULL_MS / core.max_resource();

    let ctx = setup::plan_ctx();
    let sink = Arc::new(RingBufferSink::new(1 << 22));
    let traced_ctx = ctx.clone().with_sink(sink.clone());
    let mut scratch = ExecScratch::new();
    let plans_before = core.cached_plans();
    let mut plain = Sweeps::default();
    let mut traced = Sweeps::default();
    let set_up = Instant::now();
    // Whole sweeps until the run time is spent. A traced run interleaves
    // untraced and traced sweeps in untraced-traced-traced-untraced blocks,
    // so a steady drift of the machine's speed cancels out of the overhead.
    let mut i = 0;
    while set_up.elapsed().as_secs_f64() < mode.seconds || (mode.trace && i % 4 != 0) {
        let is_traced = mode.trace && matches!(i % 4, 1 | 2);
        let (c, into) = if is_traced {
            (&traced_ctx, &mut traced)
        } else {
            (&ctx, &mut plain)
        };
        sweep(
            core,
            &mut scratch,
            &image,
            &budgets,
            &refs,
            c,
            &mut clock,
            into,
        );
        i += 1;
    }
    // A plan compiled inside the timed phase is a cold compile in a
    // latency sample: the run fails.
    let misses_timed = core.cached_plans() - plans_before;
    let attempted = plain.calls.len() + traced.calls.len();
    let failed = plain.failed + traced.failed + misses_timed;

    let mut r = Report::default();
    if !mode.trace {
        let n = plain.calls.len();
        let setup_s = set_up.duration_since(mode.start).as_secs_f64() * clock.scale_at(set_up);
        r.add("setup_s", setup_s, "s", 1);
        r.add("peak_rss_mib", crate::report::peak_rss_mib(), "MiB", 1);
        let latency: Vec<f64> = plain
            .calls
            .iter()
            .map(|&(t, ms)| ms * clock.scale_at(t))
            .collect();
        let on_time = latency
            .iter()
            .zip(&plain.budgets)
            .filter(|&(&ms, &budget)| ms <= budget * spu_pinned)
            .count();
        // The pin's headroom: the largest step latency over the step's
        // share of the full path, per step the median over the run.
        let mut per_step: HashMap<u64, Vec<f64>> = HashMap::new();
        for (&ms, &budget) in latency.iter().zip(&plain.budgets) {
            per_step
                .entry(budget.to_bits())
                .or_default()
                .push(ms * core.max_resource() / budget);
        }
        let full_equiv = per_step.values().map(|v| median(v)).fold(0.0, f64::max);
        eprintln!(
            "perfbench: reference pass {:?} ms (p10/50/90 of {}); slowest step {:.1} ref-ms per full path, pinned {PINNED_FULL_MS}",
            clock.quantiles(),
            clock.passes(),
            full_equiv
        );
        r.add(
            "infer_per_s",
            n as f64 * 1e3 / latency.iter().sum::<f64>(),
            "1/s",
            n,
        );
        r.add_p50_p90("infer", "ms", &latency);
        r.add("delivered_accuracy", mean(&plain.accuracy), "mIoU", n);
        r.add("serve_goodput", on_time as f64 / n as f64, "frac", n);
        // Closed loop: a request is due when the caller issues it, so its
        // latency from due is the call itself.
        r.add_p50_p90("serve", "ms", &latency);
        r.add(
            "ok_frac",
            1.0 - failed as f64 / attempted as f64,
            "frac",
            attempted,
        );
        return Outcome {
            report: r,
            attempted,
            failed,
        };
    }
    layers::add_setup(&mut r, &engine);
    r.add("ref.pass_ms", clock.median_ms(), "ms", clock.passes());
    let events = sink.take();
    let index = layers::node_index(core, &paths);
    let trace_ok = layers::add_trace(&mut r, &events, sink.dropped(), &index, traced.calls.len());
    // The two-thread replay probe needs both CPUs.
    placement.roam();
    layers::add_engine_probes(&mut r, &engine, &image, &budgets);
    r.add("plan_cache.misses_timed", misses_timed as f64, "count", 1);
    layers::add_serve(&mut r, [(0.0, 0); 12]);
    let busy = |s: &Sweeps| s.calls.iter().map(|c| c.1).sum::<f64>();
    r.add(
        "trace.overhead_frac",
        busy(&traced) / busy(&plain) - 1.0,
        "frac",
        traced.calls.len(),
    );
    Outcome {
        report: r,
        attempted,
        failed: failed + usize::from(!trace_ok),
    }
}
