//! Cross-crate integration tests: the threaded serving stack end to end —
//! vit-serve's scheduler and worker pool executing real vit-drt inference
//! through one shared `EngineCore`.
//!
//! Deadline arithmetic uses a large synthetic seconds-per-unit calibration
//! so the slack each request carries (minutes of wall time) dwarfs real
//! execution and queueing time — the scheduler's *decisions* are then
//! deterministic even when the test host is fully loaded, while the
//! workers still execute real inference.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vit_drt::{DrtEngine, EngineCore};
use vit_models::SegFormerVariant;
use vit_resilience::{ResourceKind, Workload};
use vit_serve::{
    Calibration, InferenceRequest, SchedulePolicy, Server, ServerConfig, ServerMetrics, SubmitError,
};
use vit_tensor::Tensor;

/// Wall seconds per LUT unit: big enough that queue wait and execution
/// (seconds) never erode a deadline by a meaningful number of units.
const SPU: f64 = 1e7;

fn shared_core() -> Arc<EngineCore> {
    let engine = DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuTime,
    )
    .expect("engine builds");
    engine.core().clone()
}

fn image() -> Tensor {
    Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 11)
}

/// A request whose remaining slack is `units` LUT resource units.
fn request(units: f64) -> InferenceRequest {
    InferenceRequest::new(
        image(),
        Instant::now() + Duration::from_secs_f64(units * SPU),
        ResourceKind::GpuTime,
    )
}

fn server(core: &Arc<EngineCore>, workers: usize, queue_depth: usize) -> Server {
    Server::start(
        Arc::clone(core),
        Calibration::from_secs_per_unit(SPU),
        ServerConfig::builder()
            .workers(workers)
            .queue_depth(queue_depth)
            .resource_kind(ResourceKind::GpuTime)
            .policy(SchedulePolicy::DrtDynamic)
            .build()
            .expect("test config validates"),
    )
}

/// Mean LUT resource of the configurations a run actually selected,
/// weighted by how often each was used.
fn mean_selected_resource(core: &EngineCore, metrics: &ServerMetrics) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (config, count) in &metrics.config_histogram {
        let entry = core
            .lut()
            .entries()
            .iter()
            .find(|e| e.config == *config)
            .expect("every selected config comes from the LUT");
        total += entry.resource * *count as f64;
        n += count;
    }
    assert!(n > 0, "run completed no requests");
    total / n as f64
}

/// Four workers over one shared core, 120 requests with mixed deadlines —
/// impossible (below the cheapest path), tight, and loose — submitted
/// open-loop. Every submission must end up counted exactly once
/// (completed, or shed with a reason); nothing may vanish.
#[test]
fn worker_pool_accounts_for_every_submission() {
    let core = shared_core();
    let min = core.min_resource();
    let max = core.max_resource();
    let srv = server(&core, 4, 64);

    let total = 120;
    let mut impossible = 0;
    for i in 0..total {
        let units = match i % 2 {
            0 => {
                impossible += 1;
                min * 0.2 // cannot cover even the cheapest path
            }
            _ => {
                if i % 4 == 1 {
                    min * 1.5 // tight: a cheap path fits, the full does not
                } else {
                    max * 20.0 // loose
                }
            }
        };
        let admission = srv.submit(request(units)).expect("resource kind matches");
        assert_eq!(
            admission.is_admitted(),
            i % 2 != 0,
            "admission must be exactly the slack-vs-cheapest threshold"
        );
        assert_eq!(
            admission.ticket().is_some(),
            admission.is_admitted(),
            "exactly the admitted submissions carry tickets"
        );
    }
    let m = srv.shutdown();
    assert_eq!(m.submitted, total);
    assert!(
        m.accounts_for_all_submissions(),
        "completed {} + shed {} != submitted {}",
        m.completed,
        m.shed(),
        m.submitted
    );
    assert_eq!(m.shed_no_slack, impossible);
    assert_eq!(m.completed, total - impossible, "admitted requests all run");
    assert_eq!(m.deadline_misses, 0, "minutes of slack are never missed");
    assert!(core.cached_graphs() >= 2, "tight and loose paths differ");
}

/// Tighter deadlines must push the scheduler toward cheaper LUT
/// configurations: a server fed tight-slack requests selects a lower mean
/// resource than one fed loose-slack requests, which runs the full model.
#[test]
fn tighter_deadlines_select_cheaper_configs() {
    let core = shared_core();
    let min = core.min_resource();
    let max = core.max_resource();
    assert!(
        min * 1.5 < max,
        "LUT must span enough for a tight budget to exclude the full model"
    );

    let run = |units: f64| {
        let srv = server(&core, 4, 64);
        for _ in 0..12 {
            srv.submit(request(units)).expect("resource kind matches");
        }
        srv.shutdown()
    };

    let tight = run(min * 1.5);
    let loose = run(max * 25.0);
    assert_eq!(tight.completed, 12);
    assert_eq!(loose.completed, 12);
    let tight_mean = mean_selected_resource(&core, &tight);
    let loose_mean = mean_selected_resource(&core, &loose);
    assert!(
        tight_mean < loose_mean,
        "tight deadlines picked mean resource {tight_mean}, loose picked {loose_mean}"
    );
    // With 25x-full slack the scheduler always runs the full model.
    assert!((loose_mean - max).abs() < 1e-12);
    // A tight budget can never select a path costing more than the slack.
    assert!(tight_mean <= min * 1.5);
}

/// Overload stress: several producer threads hammer a small server (two
/// workers sharing one parallel execution pool, a shallow ingress queue)
/// with a mix of impossible and satisfiable deadlines, concurrently. The
/// server must not deadlock, and the metrics must conserve every
/// submission: completed + shed (for any reason) == submitted, with no
/// record dropped or double-counted under contention.
#[test]
fn concurrent_producers_under_overload_conserve_every_record() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let core = shared_core();
    let min = core.min_resource();
    let srv = Server::start(
        Arc::clone(&core),
        Calibration::from_secs_per_unit(SPU),
        ServerConfig::builder()
            .workers(2)
            .queue_depth(4)
            .exec_threads(2)
            // Replay compiled plans here so the concurrent-serving path
            // exercises the plan backend end to end.
            .use_plans(true)
            .build()
            .expect("test config validates"),
    );

    const PRODUCERS: usize = 6;
    const PER_PRODUCER: usize = 8;
    let accepted = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (srv, accepted, rejected) = (&srv, &accepted, &rejected);
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    // A third of the load is infeasible (below the cheapest
                    // path) so admission-control shedding races with worker
                    // completion records; the rest is tight but satisfiable.
                    let units = if (p + i) % 3 == 0 {
                        min * 0.2
                    } else {
                        min * 1.5
                    };
                    if srv
                        .submit(request(units))
                        .expect("right resource kind")
                        .is_admitted()
                    {
                        accepted.fetch_add(1, Ordering::Relaxed);
                    } else {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let m = srv.shutdown();

    let total = PRODUCERS * PER_PRODUCER;
    assert_eq!(m.submitted, total, "every submission is recorded");
    assert!(
        m.accounts_for_all_submissions(),
        "completed {} + shed {} != submitted {}",
        m.completed,
        m.shed(),
        m.submitted
    );
    assert_eq!(
        accepted.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed),
        total
    );
    // Shed-at-submit outcomes (no-slack + queue-full) are exactly the
    // rejected submissions; everything accepted ran or was shed late.
    assert_eq!(
        m.shed_no_slack + m.shed_queue_full,
        rejected.load(Ordering::Relaxed)
    );
    assert!(m.shed_no_slack > 0, "infeasible deadlines must be shed");
    assert!(m.completed > 0, "satisfiable deadlines must complete");
    assert_eq!(
        m.deadline_misses, 0,
        "minutes of synthetic slack are never missed"
    );
}

/// The wall-clock calibration path: measuring on this machine produces a
/// usable positive rate and round-trips seconds ↔ units.
#[test]
fn calibration_measures_a_positive_rate() {
    let core = shared_core();
    let cal = Calibration::measure(&core).expect("calibration inference runs");
    assert!(cal.secs_per_unit > 0.0 && cal.secs_per_unit.is_finite());
    let secs = cal.secs(core.max_resource());
    assert!((cal.units(secs) - core.max_resource()).abs() < 1e-9);
}

/// A traced server records the serving-layer events — one queue-wait span
/// per dispatched request, one admission or shed marker per submission —
/// alongside the engine spans its workers emit, and the combined stream is
/// a well-formed trace.
#[test]
fn traced_server_records_serving_spans() {
    use vit_drt::RunContext;
    use vit_trace::{validate, EventKind, Phase, RingBufferSink, TraceSink};

    let core = shared_core();
    let min = core.min_resource();
    let sink = Arc::new(RingBufferSink::new(1 << 16));
    let srv = Server::start_with(
        Arc::clone(&core),
        Calibration::from_secs_per_unit(SPU),
        ServerConfig::builder()
            .workers(2)
            .queue_depth(16)
            .build()
            .expect("test config validates"),
        RunContext::default().with_sink(sink.clone() as Arc<dyn TraceSink>),
    );

    let total = 8;
    let mut infeasible = 0;
    for i in 0..total {
        let units = if i % 4 == 0 {
            infeasible += 1;
            min * 0.2 // shed at admission: below the cheapest path
        } else {
            min * 1.5
        };
        srv.submit(request(units)).expect("resource kind matches");
    }
    let m = srv.shutdown();
    assert_eq!(m.completed, total - infeasible);
    assert_eq!(m.shed(), infeasible);

    let events = sink.events();
    assert_eq!(sink.dropped(), 0, "ring must be big enough for this run");
    validate(&events).expect("traced serving run is well-formed");

    let count = |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let queue_waits = count(&|k| {
        matches!(
            k,
            EventKind::Phase {
                phase: Phase::QueueWait,
                ..
            }
        )
    });
    let admissions =
        count(&|k| matches!(k, EventKind::Instant { name, .. } if name == "admission"));
    let sheds = count(&|k| matches!(k, EventKind::Instant { name, .. } if name == "shed"));
    // With minutes of synthetic slack nothing sheds late, so every
    // dispatched (= admitted = completed) request has one queue-wait span.
    assert_eq!(queue_waits, m.completed);
    assert_eq!(admissions, m.completed);
    assert_eq!(sheds, m.shed());
    assert!(
        count(&|k| matches!(k, EventKind::Node { .. })) > 0,
        "worker inferences must emit engine node spans through the shared sink"
    );
}

/// Requests in the wrong resource dimension are rejected, not shed.
#[test]
fn wrong_resource_kind_is_an_error_not_a_shed() {
    let core = shared_core();
    let srv = Server::start(
        Arc::clone(&core),
        Calibration::from_secs_per_unit(1.0),
        ServerConfig::default(),
    );
    let err = srv
        .submit(InferenceRequest::new(
            image(),
            Instant::now() + Duration::from_secs(5),
            ResourceKind::GpuEnergy,
        ))
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::WrongResourceKind {
            expected: ResourceKind::GpuTime,
            got: ResourceKind::GpuEnergy,
        }
    );
    let m = srv.shutdown();
    assert_eq!(m.submitted, 0, "a rejected request is not an outcome");
}

/// A malformed image is refused at submission, like a wrong resource
/// kind, instead of failing every attempt inside a worker: the lone worker
/// keeps a closed breaker and still serves the next well-formed request.
#[test]
fn malformed_image_is_rejected_and_the_server_keeps_serving() {
    let core = shared_core();
    let max = core.max_resource();
    let srv = server(&core, 1, 8);
    let err = srv
        .submit(InferenceRequest::new(
            Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, 3),
            Instant::now() + Duration::from_secs_f64(max * 20.0 * SPU),
            ResourceKind::GpuTime,
        ))
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::WrongImageShape {
            expected: [1, 3, 64, 64],
            got: vec![1, 3, 32, 32],
        }
    );
    assert!(srv
        .submit(request(max * 20.0))
        .expect("a well-formed request is accepted")
        .is_admitted());
    let m = srv.shutdown();
    assert_eq!(m.submitted, 1, "a rejected request is not an outcome");
    assert_eq!(m.completed, 1);
    assert_eq!(m.fault_failures, 0);
}

/// A batched server whose window expires with only one request queued must
/// serve that request exactly as an unbatched server would: it completes,
/// and no batch is recorded.
#[test]
fn batch_window_expiry_with_one_request_serves_it_unbatched() {
    let core = shared_core();
    let max = core.max_resource();
    let srv = Server::start(
        Arc::clone(&core),
        Calibration::from_secs_per_unit(SPU),
        ServerConfig::builder()
            .workers(1)
            .max_batch(4)
            .batch_window(0.02)
            .build()
            .expect("test config validates"),
    );
    assert!(srv
        .submit(request(max * 20.0))
        .expect("resource kind matches")
        .is_admitted());
    let m = srv.shutdown();
    assert_eq!(m.completed, 1);
    assert_eq!(m.deadline_misses, 0);
    assert_eq!(
        m.batched_completions, 0,
        "a lone request after window expiry is a batch of one, served unbatched"
    );
    assert!((m.mean_batch_size - 1.0).abs() < 1e-12);
}

/// Continuous batching end to end on real threads: while one worker is busy
/// with a blocker request, a burst of same-slack requests queues up; when
/// the worker frees, they resolve to the same LUT configuration and
/// coalesce into batch-N passes. Every record is conserved and on time.
#[test]
fn queued_same_config_requests_coalesce_into_batches() {
    let core = shared_core();
    let max = core.max_resource();
    let srv = Server::start(
        Arc::clone(&core),
        Calibration::from_secs_per_unit(SPU),
        ServerConfig::builder()
            .workers(1)
            .queue_depth(32)
            .max_batch(8)
            .batch_window(0.5)
            .build()
            .expect("test config validates"),
    );
    // The blocker occupies the single worker while the burst queues up.
    srv.submit(request(max * 20.0)).expect("kind matches");
    for _ in 0..8 {
        assert!(srv
            .submit(request(max * 20.0))
            .expect("kind matches")
            .is_admitted());
    }
    let m = srv.shutdown();
    assert_eq!(m.submitted, 9);
    assert_eq!(m.completed, 9, "batching never loses a request");
    assert_eq!(m.deadline_misses, 0);
    assert!(
        m.batched_completions >= 2,
        "the queued burst must coalesce (batched {} of {})",
        m.batched_completions,
        m.completed
    );
    assert!(m.mean_batch_size > 1.0);
    // Coalesced or not, every completion ran the same loose-slack path, so
    // the histogram shows exactly one configuration: the full model.
    assert_eq!(m.config_histogram.len(), 1);
}

/// Batch-N execution is bit-identical to N sequential single-image runs —
/// and to itself — at every exec-pool width. This is the acceptance bar
/// that lets the server coalesce transparently: a request's output may not
/// depend on who it shared a batch with or how many threads executed it.
#[test]
fn batch_outputs_bit_identical_to_sequential_at_all_thread_counts() {
    use vit_drt::RunContext;
    use vit_graph::{ExecOptions, ExecScratch};

    let core = shared_core();
    let images: Vec<Tensor> = (0..4)
        .map(|i| Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 90 + i))
        .collect();
    let (entry, met) = core.select(core.max_resource());

    // Sequential single-image reference, computed once at one thread.
    let reference: Vec<Vec<f32>> = {
        let ctx = RunContext::default();
        let mut scratch = ExecScratch::new();
        images
            .iter()
            .map(|img| {
                core.run(&mut scratch, img, entry.clone(), met, &ctx)
                    .expect("single run succeeds")
                    .logits
                    .data()
                    .to_vec()
            })
            .collect()
    };

    for threads in [1usize, 2, 8] {
        let ctx = RunContext::default().with_exec(ExecOptions::threaded(threads));
        let mut scratch = ExecScratch::new();
        let batch = core
            .run_batch(&mut scratch, &images, entry.clone(), met, &ctx)
            .expect("batch run succeeds");
        assert_eq!(batch.len(), images.len());
        for (i, inf) in batch.iter().enumerate() {
            assert_eq!(
                inf.logits.data(),
                reference[i].as_slice(),
                "batch member {i} at {threads} exec threads diverged bitwise"
            );
        }
    }
}

/// Admission tickets are the correlation key of the redesigned API: every
/// admitted submission's ticket reappears on exactly one terminal record.
#[test]
fn admission_tickets_reappear_on_terminal_records() {
    use std::collections::BTreeSet;

    let core = shared_core();
    let max = core.max_resource();
    let srv = server(&core, 2, 32);
    let mut issued = BTreeSet::new();
    for _ in 0..10 {
        let admission = srv.submit(request(max * 20.0)).expect("kind matches");
        let ticket = admission.ticket().expect("loose slack is always admitted");
        assert!(issued.insert(ticket), "tickets must be unique");
    }
    let (m, outcomes) = srv.shutdown_outcomes();
    assert_eq!(m.completed, 10);
    let seen: BTreeSet<_> = outcomes
        .iter()
        .filter_map(|o| match o {
            vit_serve::Outcome::Completed(r) => r.ticket,
            vit_serve::Outcome::Shed(s) => s.ticket,
            vit_serve::Outcome::Failed(f) => f.ticket,
        })
        .collect();
    assert_eq!(seen, issued, "every ticket correlates with one record");
}

/// `ServerConfig::default()` serves by plan replay: the trace of a default
/// server shows `PlanReplay` phases and no interpreter `Run` phase. Serving
/// is bit-identical to an explicit `.use_plans(false)` server: both make
/// the same decisions, and the contexts the two servers hand their
/// workers produce the same output bits.
#[test]
fn default_server_serves_by_plan_replay_bit_identically() {
    use vit_drt::RunContext;
    use vit_trace::{null_sink, EventKind, Phase, RingBufferSink, TraceSink};

    let core = shared_core();
    let (min, max) = (core.min_resource(), core.max_resource());
    let serve = |config: ServerConfig| {
        let sink = Arc::new(RingBufferSink::new(1 << 16));
        let srv = Server::start_with(
            Arc::clone(&core),
            Calibration::from_secs_per_unit(SPU),
            config,
            RunContext::default().with_sink(sink.clone() as Arc<dyn TraceSink>),
        );
        let ctx = srv.run_context().clone().with_sink(null_sink());
        for units in [min * 1.5, (min + max) * 0.75, max * 20.0] {
            assert!(srv
                .submit(request(units))
                .expect("resource kind matches")
                .is_admitted());
        }
        let metrics = srv.shutdown();
        let phase = |p: Phase| {
            sink.events()
                .iter()
                .any(|e| matches!(&e.kind, EventKind::Phase { phase, .. } if *phase == p))
        };
        let replayed = phase(Phase::PlanReplay);
        let interpreted = phase(Phase::Run);
        let mut scratch = vit_graph::ExecScratch::new();
        // The output bits of every configuration this server served.
        let outputs: Vec<Tensor> = core
            .lut()
            .entries()
            .iter()
            .filter(|e| metrics.config_histogram.iter().any(|(c, _)| *c == e.config))
            .map(|entry| {
                core.run(&mut scratch, &image(), entry.clone(), true, &ctx)
                    .expect("inference runs")
                    .logits
            })
            .collect();
        (metrics, replayed, interpreted, outputs)
    };

    let (plans, replayed, interpreted, plan_outputs) = serve(ServerConfig::default());
    assert!(replayed, "the default server must serve by plan replay");
    assert!(!interpreted, "the default server must not interpret graphs");

    let (interp, replayed, interpreted, interp_outputs) =
        serve(ServerConfig::builder().use_plans(false).build().unwrap());
    assert!(interpreted && !replayed, "use_plans(false) interprets");

    assert_eq!(plans.completed, 3);
    assert_eq!(plans.completed, interp.completed);
    assert_eq!(plans.config_histogram, interp.config_histogram);
    assert_eq!(plan_outputs, interp_outputs, "plan replay is bit-identical");
}
