//! `serve-poisson` and `serve-burst`: an open-loop generator on the main
//! thread drives a live `Server` (one worker, one exec thread, plans and
//! batching on) with a seeded arrival schedule.

use crate::cpu::{self, Placement};
use crate::layers;
use crate::refclock::RefClock;
use crate::report::{mean, median, percentile, Report, Rng};
use crate::setup::{self, Engine, Reach};
use crate::{Mode, Outcome};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vit_drt::EngineCore;
use vit_graph::RunContext;
use vit_resilience::ResourceKind;
use vit_serve::{
    Admission, Calibration, InferenceRequest, Outcome as ServeOutcome, Server, ServerConfig,
    ServerMetrics,
};
use vit_tensor::Tensor;
use vit_trace::RingBufferSink;

/// Distinct seeded images a run cycles through.
const IMAGES: u64 = 4;
/// Input size of both serving workloads.
const IMAGE: usize = 64;
/// Largest coalesced batch, and how long a worker holds a batch open.
const MAX_BATCH: usize = 4;
const BATCH_WINDOW_S: f64 = 0.002;
/// While it waits, the generator times a reference pass on the worker's
/// CPU every `PASS_EVERY` the worker is idle, as long as the next request
/// is due at least `PASS_GAP` ahead.
const PASS_EVERY: Duration = Duration::from_millis(100);
const PASS_GAP: Duration = Duration::from_millis(25);

pub enum Arrivals {
    /// Poisson arrivals at `rate` requests per second.
    Poisson { rate: f64 },
    /// Poisson base load plus `size` simultaneous requests every `every_s`.
    Burst {
        base_rate: f64,
        size: usize,
        every_s: f64,
    },
}

/// The workload's definition.
pub struct Spec {
    /// Pinned full-path time: the server's slack→budget calibration. A
    /// measured calibration moves with the machine's drift and flips
    /// admission and path decisions; a pinned one leaves drift to show as
    /// latency and misses.
    pub pinned_full_ms: f64,
    pub arrivals: Arrivals,
    /// Deadlines as multiples of the pinned full-path time, cycled over
    /// requests in order.
    pub deadline_x: &'static [f64],
}

struct Arrival {
    /// Seconds after the generator starts.
    due: f64,
    /// Seconds after `due`.
    deadline: f64,
    image: usize,
}

/// The arrival schedule: a function of the workload, the run length and
/// the seed only.
///
/// Poisson gaps are stratified: a run's `n` gaps are the exponential
/// distribution's quantiles at `(i + ½) / n`, in a seeded order. Every
/// seed then offers the same set of gaps, and only their order (so which
/// requests queue behind which) changes from seed to seed; independent
/// draws made the tail latency of two seeds differ by more than a code
/// change worth finding.
fn schedule(spec: &Spec, seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let mut poisson = |rate: f64| {
        let n = (rate * seconds).round() as usize;
        let mut gaps: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
            .collect();
        for i in (1..n).rev() {
            gaps.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut t = 0.0;
        gaps.into_iter()
            .map(|g| {
                t += g;
                t
            })
            .filter(|&t| t < seconds)
            .collect::<Vec<f64>>()
    };
    let mut due = match spec.arrivals {
        Arrivals::Poisson { rate } => poisson(rate),
        Arrivals::Burst {
            base_rate,
            size,
            every_s,
        } => {
            let mut due = poisson(base_rate);
            let mut t = every_s / 2.0;
            while t < seconds {
                due.extend(std::iter::repeat_n(t, size));
                t += every_s;
            }
            due
        }
    };
    due.sort_by(f64::total_cmp);
    let offset = (seed % spec.deadline_x.len() as u64) as usize;
    due.into_iter()
        .enumerate()
        .map(|(i, due)| Arrival {
            due,
            deadline: spec.deadline_x[(i + offset) % spec.deadline_x.len()]
                * spec.pinned_full_ms
                * 1e-3,
            image: i % IMAGES as usize,
        })
        .collect()
}

/// Every (path, batch) plan the server can reach. A leader with slack
/// `s` (in LUT units) runs the path `select(s)`, and a batch of `b` forms
/// on it only if `b` times the path's cost fits in `s`. `select` changes
/// only at entry costs, so each interval between consecutive costs (the
/// last one up to the loosest deadline) adds its path at batch 1 and at
/// every batch that fits below the interval's upper end.
fn reach(spec: &Spec, core: &EngineCore) -> Vec<Reach> {
    let loosest = spec.deadline_x.iter().copied().fold(0.0, f64::max) * core.max_resource();
    let mut edges: Vec<f64> = core.lut().entries().iter().map(|e| e.resource).collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    let mut out: Vec<Reach> = Vec::new();
    for (i, &lo) in edges.iter().enumerate() {
        let hi = edges.get(i + 1).copied().unwrap_or(loosest);
        let entry = core.select(lo).0;
        for b in (1..=MAX_BATCH).filter(|&b| b == 1 || b as f64 * entry.resource <= hi) {
            if !out.contains(&(entry.config, b)) {
                out.push((entry.config, b));
            }
        }
    }
    out
}

/// What one serving phase measured.
struct Phase {
    sent: usize,
    /// When each completed request was due.
    due: Vec<Instant>,
    /// From due time to completion, completed requests only.
    latency_ms: Vec<f64>,
    /// Dispatch to completion, completed requests only.
    exec_ms: Vec<f64>,
    /// Engine time per inference: dispatch to completion over batch size.
    per_item_ms: Vec<f64>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    on_time: usize,
    delivered: f64,
    full_path: usize,
    failed: usize,
    metrics: ServerMetrics,
}

fn serve_phase(
    core: &Arc<EngineCore>,
    spec: &Spec,
    arrivals: &[Arrival],
    images: &[Tensor],
    ctx: RunContext,
    clock: &mut RefClock,
    placement: &Placement,
) -> Phase {
    let config = ServerConfig::builder()
        .workers(1)
        .exec_threads(1)
        .use_plans(true)
        .resource_kind(ResourceKind::GpuTime)
        .max_batch(MAX_BATCH)
        .batch_window(BATCH_WINDOW_S)
        .build()
        .expect("valid server config");
    let spu = spec.pinned_full_ms * 1e-3 / core.max_resource();
    // The worker inherits the CPU the server is started from.
    placement.go_home();
    let others = cpu::threads();
    let server = Server::start_with(
        core.clone(),
        Calibration::from_secs_per_unit(spu),
        config,
        ctx,
    );
    let workers: Vec<u32> = cpu::threads()
        .into_iter()
        .filter(|t| !others.contains(t))
        .collect();
    placement.roam();
    let mut sent_at: HashMap<u64, (Instant, Instant, f64)> = HashMap::new();
    let (mut submit_us, mut late_ms) = (vec![], vec![]);
    let (mut shed_at_admission, mut failed) = (0usize, 0usize);
    let start = Instant::now();
    let mut last_pass = start;
    for a in arrivals {
        let due = start + Duration::from_secs_f64(a.due);
        loop {
            let now = Instant::now();
            if due <= now {
                break;
            }
            let next_pass = last_pass + PASS_EVERY;
            if next_pass > now {
                std::thread::sleep(due.min(next_pass) - now);
            } else if due > now + PASS_GAP && cpu::idle(&workers) {
                placement.go_home();
                clock.pass();
                placement.roam();
                if !cpu::asleep(&workers) {
                    clock.forget_last();
                }
                last_pass = Instant::now();
            } else if due > now + PASS_GAP {
                // Busy worker: look again in a while.
                std::thread::sleep((due - now - PASS_GAP).min(PASS_EVERY / 10));
            } else {
                std::thread::sleep(due - now);
            }
        }
        let image = images[a.image].clone();
        let request = InferenceRequest::new(
            image,
            due + Duration::from_secs_f64(a.deadline),
            ResourceKind::GpuTime,
        );
        let send = Instant::now();
        let admission = server.submit(request);
        submit_us.push(send.elapsed().as_secs_f64() * 1e6);
        late_ms.push(send.saturating_duration_since(due).as_secs_f64() * 1e3);
        match admission {
            Ok(Admission::Admitted { ticket }) => {
                sent_at.insert(ticket.0, (due, send, a.deadline));
            }
            Ok(Admission::Shed(_)) => shed_at_admission += 1,
            Err(_) => failed += 1,
        }
    }
    let (metrics, outcomes) = server.shutdown_outcomes();

    let full = core.lut().entries().last().expect("non-empty LUT").config;
    let mut p = Phase {
        sent: arrivals.len(),
        due: vec![],
        latency_ms: vec![],
        exec_ms: vec![],
        per_item_ms: vec![],
        submit_us,
        late_ms,
        on_time: 0,
        delivered: 0.0,
        full_path: 0,
        failed: 0,
        metrics,
    };
    // Every admitted ticket must end in exactly one outcome; tickets-less
    // outcomes are exactly the sheds at admission.
    let mut untracked: usize = 0;
    for o in &outcomes {
        let ticket = match o {
            ServeOutcome::Completed(r) => r.ticket,
            ServeOutcome::Shed(s) => s.ticket,
            ServeOutcome::Failed(f) => f.ticket,
            #[allow(unreachable_patterns)]
            _ => None,
        };
        let Some(ticket) = ticket else {
            untracked += 1;
            continue;
        };
        let Some((due, send, deadline)) = sent_at.remove(&ticket.0) else {
            failed += 1;
            continue;
        };
        if let ServeOutcome::Completed(r) = o {
            // On time by the deadline the benchmark set, from due time.
            let from_due = send.duration_since(due).as_secs_f64() + r.latency;
            p.due.push(due);
            p.latency_ms.push(from_due * 1e3);
            let exec = (r.latency - r.queue_wait) * 1e3;
            p.exec_ms.push(exec);
            p.per_item_ms.push(exec / f64::from(r.batch_size.max(1)));
            if from_due <= deadline {
                p.on_time += 1;
                p.delivered += setup::entry_of(core, r.config).norm_miou;
            }
            p.full_path += usize::from(r.config == full);
        }
    }
    failed += sent_at.len() + untracked.abs_diff(shed_at_admission);
    failed += p.metrics.fault_failures + usize::from(!p.metrics.accounts_for_all_submissions());
    p.failed = failed;
    p
}

/// The serve-layer and load-generator metrics of one phase, in
/// [`layers::SERVE_METRICS`] order, each with its sample count.
fn serve_layer(p: &Phase) -> [(f64, usize); 12] {
    let m = &p.metrics;
    let done = p.latency_ms.len();
    let (sent, submits, n) = (p.sent as f64, p.submit_us.len(), m.completed);
    [
        (percentile(&p.submit_us, 50.0), submits),
        (percentile(&p.submit_us, 99.0), submits),
        (m.p50_queue_wait * 1e3, n),
        (m.p95_queue_wait * 1e3, n),
        (median(&p.exec_ms), done),
        (m.mean_batch_size, n),
        (m.batched_completions as f64 / n.max(1) as f64, n),
        (m.shed() as f64 / sent, p.sent),
        ((m.deadline_misses + m.fault_failures) as f64 / sent, p.sent),
        (p.full_path as f64 / done.max(1) as f64, done),
        (percentile(&p.late_ms, 99.0), submits),
        (p.late_ms.iter().copied().fold(0.0, f64::max), submits),
    ]
}

pub fn run(spec: &Spec, mode: &Mode) -> Outcome {
    let mut clock = RefClock::new(mode.start);
    // Set up on the CPU the worker will run on.
    let placement = Placement::new();
    placement.go_home();
    let reach = |core: &EngineCore| reach(spec, core);
    let engine = setup::build(IMAGE, &reach);
    let Engine { core, .. } = &engine;
    let images: Vec<Tensor> = (0..IMAGES)
        .map(|i| {
            let seed = mode.seed.wrapping_mul(IMAGES) + i;
            Tensor::rand_uniform(&[1, 3, IMAGE, IMAGE], 0.0, 1.0, seed)
        })
        .collect();
    let plans_before = core.cached_plans();
    let set_up = Instant::now();

    if !mode.trace {
        let mut p = serve_phase(
            core,
            spec,
            &schedule(spec, mode.seed, mode.seconds),
            &images,
            setup::plan_ctx(),
            &mut clock,
            &placement,
        );
        // A plan compiled while serving is a cold compile in a latency
        // sample: the run fails.
        p.failed += core.cached_plans() - plans_before;
        let scaled = |ms: &[f64]| -> Vec<f64> {
            ms.iter()
                .zip(&p.due)
                .map(|(&ms, &due)| ms * clock.scale_at(due))
                .collect()
        };
        let (per_item, latency) = (scaled(&p.per_item_ms), scaled(&p.latency_ms));
        eprintln!(
            "perfbench: reference pass {:?} ms (p10/50/90 of {})",
            clock.quantiles(),
            clock.passes()
        );
        let mut r = Report::default();
        let setup_s = set_up.duration_since(mode.start).as_secs_f64() * clock.scale_at(set_up);
        r.add("setup_s", setup_s, "s", 1);
        r.add("peak_rss_mib", crate::report::peak_rss_mib(), "MiB", 1);
        // Inferences per second of engine time: batching raises it.
        let done = per_item.len();
        let busy_s = per_item.iter().sum::<f64>() * 1e-3;
        r.add("infer_per_s", done as f64 / busy_s, "1/s", done);
        r.add_p50_p90("infer", "ms", &per_item);
        r.add(
            "delivered_accuracy",
            p.delivered / p.sent as f64,
            "mIoU",
            p.sent,
        );
        r.add(
            "serve_goodput",
            p.on_time as f64 / p.sent as f64,
            "frac",
            p.sent,
        );
        r.add_p50_p90("serve", "ms", &latency);
        r.add(
            "ok_frac",
            1.0 - p.failed as f64 / p.sent as f64,
            "frac",
            p.sent,
        );
        return Outcome {
            report: r,
            attempted: p.sent,
            failed: p.failed,
        };
    }

    // Traced run: an untraced half, then a traced half on the same
    // schedule shape; the per-request execution time differs by the
    // tracing overhead.
    let half = mode.seconds / 2.0;
    let plain = serve_phase(
        core,
        spec,
        &schedule(spec, mode.seed, half),
        &images,
        setup::plan_ctx(),
        &mut clock,
        &placement,
    );
    let sink = Arc::new(RingBufferSink::new(1 << 22));
    let traced = serve_phase(
        core,
        spec,
        &schedule(spec, mode.seed, half),
        &images,
        setup::plan_ctx().with_sink(sink.clone()),
        &mut clock,
        &placement,
    );
    let misses_timed = core.cached_plans() - plans_before;
    let mut r = Report::default();
    layers::add_setup(&mut r, &engine);
    r.add("ref.pass_ms", clock.median_ms(), "ms", clock.passes());
    let paths = reach(core);
    let events = sink.take();
    let index = layers::node_index(core, &paths);
    let trace_ok = layers::add_trace(
        &mut r,
        &events,
        sink.dropped(),
        &index,
        traced.latency_ms.len(),
    );
    let budgets: Vec<f64> = core.lut().entries().iter().map(|e| e.resource).collect();
    layers::add_engine_probes(&mut r, &engine, &images[0], &budgets);
    r.add("plan_cache.misses_timed", misses_timed as f64, "count", 1);

    layers::add_serve(&mut r, serve_layer(&plain));
    r.add(
        "trace.overhead_frac",
        mean(&traced.exec_ms) / mean(&plain.exec_ms) - 1.0,
        "frac",
        traced.exec_ms.len(),
    );
    let attempted = plain.sent + traced.sent;
    Outcome {
        report: r,
        attempted,
        failed: plain.failed + traced.failed + misses_timed + usize::from(!trace_ok),
    }
}
