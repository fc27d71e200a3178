//! The differential chaos corpus: armed fault injection against the real
//! engine, proving the detection layer's core guarantee — an injected
//! corruption is either caught by an output guard (the run errors) or had
//! no effect at all (the output is bit-identical to a clean run). No
//! corrupted tensor is ever returned to a caller.

use std::sync::Arc;
use vit_drt::{DrtEngine, EngineCore, EngineError};
use vit_fault::{FaultCtx, FaultError, FaultKind, FaultPlan, GuardConfig};
use vit_graph::{ExecBackend, ExecOptions, ExecScratch, RunContext};
use vit_models::SegFormerVariant;
use vit_resilience::{ResourceKind, Workload};
use vit_tensor::Tensor;

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

fn image(seed: u64) -> Tensor {
    Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, seed)
}

/// A plan that injects exactly one fault kind on every draw.
fn only(kind: FaultKind, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none(seed);
    match kind {
        FaultKind::Crash => plan.crash_rate = 1.0,
        FaultKind::BitFlip => plan.bitflip_rate = 1.0,
        FaultKind::Stall => {
            plan.stall_rate = 1.0;
            plan.stall_factor = 1.25;
        }
        FaultKind::PlanReplay => plan.replay_rate = 1.0,
        _ => unreachable!("test covers the four known kinds"),
    }
    plan
}

fn ctx_with(backend: ExecBackend, fault: FaultCtx) -> RunContext {
    RunContext::default()
        .with_exec(ExecOptions::threaded(1).with_backend(backend))
        .with_fault(fault)
}

/// Every armed bit-flip run either trips a guard (`ExecError::Fault` with
/// `GuardTripped`) or returns logits bit-identical to the clean run — on
/// both the interpreting and the plan-replay backend, across a corpus of
/// runs. This is the acceptance criterion for the detection layer.
#[test]
fn injected_bitflips_never_escape_the_guards() {
    let core = shared_core();
    let mut scratch = ExecScratch::new();
    let img = image(11);
    let entry = core.lut().entries().last().unwrap().clone();

    for backend in [ExecBackend::Interpret, ExecBackend::Plan] {
        let clean = core
            .run(
                &mut scratch,
                &img,
                entry.clone(),
                true,
                &ctx_with(backend, FaultCtx::new().with_guard(GuardConfig::default())),
            )
            .expect("clean run succeeds");

        let mut caught = 0;
        for run in 0..8u64 {
            let plan = only(FaultKind::BitFlip, 0xC0FFEE ^ run);
            let fctx = FaultCtx::new()
                .with_guard(GuardConfig::default())
                .armed(plan, run, 0);
            match core.run(
                &mut scratch,
                &img,
                entry.clone(),
                true,
                &ctx_with(backend, fctx),
            ) {
                Err(e) => {
                    let fault = e.as_fault().expect("chaos failure is typed");
                    assert!(
                        matches!(fault, FaultError::GuardTripped { .. }),
                        "bit-flip must surface as a guard trip, got {fault}"
                    );
                    caught += 1;
                }
                Ok(inf) => {
                    // The flip "missed" (no detectably corruptible element
                    // at the drawn site): the output must be exactly the
                    // clean result, never a silently corrupted one.
                    assert_eq!(
                        inf.logits.data(),
                        clean.logits.data(),
                        "an undetected run must be bit-identical to clean ({backend:?})"
                    );
                }
            }
        }
        assert!(
            caught > 0,
            "corpus must catch at least one injected flip on {backend:?}"
        );
    }
}

/// Injected crashes kill the run before any output exists, and the error
/// classifies as a crash fault.
#[test]
fn injected_crashes_are_typed_failures() {
    let core = shared_core();
    let mut scratch = ExecScratch::new();
    let entry = core.lut().entries().first().unwrap().clone();
    let fctx =
        FaultCtx::new()
            .with_guard(GuardConfig::default())
            .armed(only(FaultKind::Crash, 7), 3, 0);
    let err = core
        .run(
            &mut scratch,
            &image(5),
            entry,
            true,
            &ctx_with(ExecBackend::Interpret, fctx),
        )
        .unwrap_err();
    assert!(matches!(
        err.as_fault(),
        Some(FaultError::InjectedCrash { run: 3 })
    ));
    assert_eq!(err.to_string(), "engine fault: injected crash killed run 3");
}

/// Replay failures only exist on the plan backend: the same armed context
/// fails a plan-backed run but leaves an interpreted run untouched. A
/// failed replay evicts its cached plan, and the next clean plan run
/// compiles a fresh one that reproduces the pre-fault logits bit for bit.
#[test]
fn replay_failure_is_plan_backend_only() {
    let core = shared_core();
    let mut scratch = ExecScratch::new();
    let entry = core.lut().entries().first().unwrap().clone();
    let img = image(9);
    let plan = only(FaultKind::PlanReplay, 21);
    let arm = || {
        FaultCtx::new()
            .with_guard(GuardConfig::default())
            .armed(plan, 4, 0)
    };
    let clean = || ctx_with(ExecBackend::Plan, FaultCtx::new());
    let before = core
        .run(&mut scratch, &img, entry.clone(), true, &clean())
        .expect("clean plan run succeeds");
    let cached = core.cached_plans();
    let err = core
        .run(
            &mut scratch,
            &img,
            entry.clone(),
            true,
            &ctx_with(ExecBackend::Plan, arm()),
        )
        .unwrap_err();
    assert!(matches!(
        err.as_fault(),
        Some(FaultError::InjectedReplayFailure { run: 4 })
    ));
    assert_eq!(
        core.cached_plans(),
        cached - 1,
        "a failed replay evicts its plan"
    );
    // Same fault context, interpreting backend: the fault cannot fire.
    core.run(
        &mut scratch,
        &img,
        entry.clone(),
        true,
        &ctx_with(ExecBackend::Interpret, arm()),
    )
    .expect("interpreter is immune to replay faults");
    let after = core
        .run(&mut scratch, &img, entry, true, &clean())
        .expect("the next clean plan run recompiles");
    assert_eq!(core.cached_plans(), cached, "the evicted plan is rebuilt");
    assert_eq!(
        after.logits.data(),
        before.logits.data(),
        "a recompiled plan reproduces the pre-fault logits"
    );
}

/// An injected stall slows the run but never changes its output.
#[test]
fn stalls_preserve_outputs() {
    let core = shared_core();
    let mut scratch = ExecScratch::new();
    let entry = core.lut().entries().first().unwrap().clone();
    let img = image(13);
    let clean = core
        .run(
            &mut scratch,
            &img,
            entry.clone(),
            true,
            &ctx_with(ExecBackend::Interpret, FaultCtx::default()),
        )
        .unwrap();
    let fctx =
        FaultCtx::new()
            .with_guard(GuardConfig::default())
            .armed(only(FaultKind::Stall, 17), 0, 0);
    let stalled = core
        .run(
            &mut scratch,
            &img,
            entry,
            true,
            &ctx_with(ExecBackend::Interpret, fctx),
        )
        .expect("a stall is a slowdown, not a failure");
    assert_eq!(stalled.logits.data(), clean.logits.data());
    assert_eq!(stalled.label_map.data(), clean.label_map.data());
}

/// The threaded server self-heals: with crash and plan-replay injection
/// and degraded retry, the completion/failure/retry counters match exactly
/// what the deterministic fault plan prescribes — replayed here directly
/// from the plan's own draws, independent of thread interleaving. A replay
/// fault is retried like a crash; its eviction writes the plan cache that
/// the other worker reads. The simulator, run on the same `ServerConfig`
/// and submission order, reaches the same verdict for every ticket.
#[test]
fn threaded_server_matches_the_plan_prescribed_outcomes() {
    use std::time::{Duration, Instant};
    use vit_serve::{
        simulate_outcomes, Calibration, FailureReason, InferenceRequest, Outcome, RecoveryPolicy,
        Server, ServerConfig, SimArrival, SimModel,
    };

    const SPU: f64 = 1e7; // minutes of synthetic slack: deadlines never bind
    const N: u64 = 24;
    const MAX_RETRIES: u32 = 2;
    let mut plan = FaultPlan::none(0xFA07);
    // Every drawn fault is a typed crash or replay failure.
    plan.crash_rate = 0.25;
    plan.replay_rate = 0.25;

    // Replay the plan's draws to derive the exact expected counters: a
    // request completes at its first clean attempt, or fails on the fault
    // of its last attempt after MAX_RETRIES re-attempts.
    let (mut exp_completed, mut exp_faults, mut exp_replays) = (0usize, 0usize, 0usize);
    let (mut exp_retries, mut exp_degraded) = (0usize, 0usize);
    let mut exp_failures = Vec::new();
    for seq in 0..N {
        let mut attempt = 0u32;
        loop {
            let Some(kind) = plan.decide(seq, attempt) else {
                exp_completed += 1;
                exp_retries += attempt as usize;
                if attempt > 0 {
                    exp_degraded += 1;
                }
                break;
            };
            exp_faults += 1;
            let replay = matches!(kind, FaultKind::PlanReplay);
            exp_replays += usize::from(replay);
            if attempt >= MAX_RETRIES {
                exp_failures.push(if replay {
                    FailureReason::PlanReplay
                } else {
                    FailureReason::Crash
                });
                exp_retries += attempt as usize;
                break;
            }
            attempt += 1;
        }
    }
    assert!(
        exp_replays > 0 && exp_faults > exp_replays && exp_completed > 0,
        "seed exercises both fault kinds and completions"
    );

    let core = shared_core();
    let calibration = Calibration::from_secs_per_unit(SPU);
    let config = ServerConfig::builder()
        .workers(2)
        .fault(plan)
        .recovery(RecoveryPolicy::DegradedRetry {
            max_retries: MAX_RETRIES,
        })
        // High enough that persistent faults never open every
        // breaker and start rejecting submissions mid-test.
        .breaker_threshold(usize::MAX)
        .build()
        .expect("chaos config validates");
    let srv = Server::start(Arc::clone(&core), calibration, config.clone());
    for _ in 0..N {
        let admission = srv
            .submit(InferenceRequest::new(
                image(3),
                Instant::now() + Duration::from_secs_f64(20.0 * SPU),
                ResourceKind::GpuTime,
            ))
            .expect("healthy server accepts");
        assert!(admission.is_admitted());
    }
    let (m, outcomes) = srv.shutdown_outcomes();
    assert!(m.accounts_for_all_submissions());
    assert_eq!(m.submitted, N as usize);
    assert_eq!(m.completed, exp_completed);
    assert_eq!(m.fault_failures, exp_failures.len());
    assert_eq!(m.faults_seen, exp_faults);
    assert_eq!(m.retries, exp_retries);
    assert_eq!(m.degraded_completions, exp_degraded);
    for (reason, n) in &m.failure_histogram {
        let want = exp_failures.iter().filter(|&r| r == reason).count();
        assert_eq!(*n, want, "{} failures", reason.name());
    }

    // The same config and submission order in virtual time. Even if every
    // attempt of every request ran back to back on one worker at the full
    // path's cost, it would finish inside this slack, so no deadline binds
    // here either.
    let attempts = f64::from(MAX_RETRIES + 1) * N as f64;
    let slack = 2.0 * attempts * calibration.secs(core.max_resource());
    let arrivals = vec![SimArrival::new(0.0, slack); N as usize];
    let simulated = simulate_outcomes(&core, &config, SimModel::new(calibration), &arrivals);
    let verdicts = |outcomes: &[Outcome]| {
        let mut v: Vec<_> = outcomes
            .iter()
            .map(|o| match o {
                Outcome::Completed(r) => (r.ticket, "completed", None, r.retries),
                Outcome::Failed(f) => (f.ticket, "failed", Some(f.reason), f.retries),
                Outcome::Shed(s) => (s.ticket, "shed", None, 0),
            })
            .collect();
        v.sort_by_key(|&(ticket, ..)| ticket);
        v
    };
    let threaded = verdicts(&outcomes);
    assert_eq!(threaded.len(), N as usize);
    assert_eq!(verdicts(&simulated), threaded);
}

/// Persistent faults open a worker's circuit breaker (observable as typed
/// recovery events in the trace), and a fully-unhealthy server rejects
/// new submissions as an error, not a shed.
#[test]
fn persistent_faults_open_the_circuit_breaker() {
    use std::time::{Duration, Instant};
    use vit_serve::{
        Calibration, FailureReason, InferenceRequest, RecoveryPolicy, Server, ServerConfig,
        SubmitError,
    };
    use vit_trace::{EventKind, RecoveryAction, RingBufferSink, TraceSink};

    const SPU: f64 = 1e7;
    let mut plan = FaultPlan::none(0xB0B0);
    plan.crash_rate = 1.0; // every attempt crashes

    let core = shared_core();
    let sink = Arc::new(RingBufferSink::new(1 << 14));
    let srv = Server::start_with(
        Arc::clone(&core),
        Calibration::from_secs_per_unit(SPU),
        ServerConfig::builder()
            .workers(1)
            .fault(plan)
            .recovery(RecoveryPolicy::FailFast)
            .breaker_threshold(2)
            .build()
            .expect("chaos config validates"),
        RunContext::default()
            .with_exec(ExecOptions::threaded(1))
            .with_sink(sink.clone() as Arc<dyn TraceSink>),
    );
    let mut accepted = 0usize;
    let mut unhealthy = 0usize;
    for _ in 0..8 {
        match srv.submit(InferenceRequest::new(
            image(3),
            Instant::now() + Duration::from_secs_f64(20.0 * SPU),
            ResourceKind::GpuTime,
        )) {
            Ok(admission) => {
                assert!(
                    admission.is_admitted(),
                    "nothing sheds with minutes of slack"
                );
                accepted += 1;
            }
            Err(SubmitError::AllWorkersUnhealthy { workers }) => {
                assert_eq!(workers, 1);
                unhealthy += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        // Give the lone worker a chance to fail and trip its breaker.
        std::thread::sleep(Duration::from_millis(20));
    }
    let m = srv.shutdown();
    // Unhealthy rejections are errors, not outcomes; everything accepted
    // dispatched and failed fast as a typed crash.
    assert_eq!(m.submitted, accepted);
    assert!(m.accounts_for_all_submissions());
    assert_eq!(m.completed, 0);
    assert_eq!(m.fault_failures, accepted);
    if accepted > 0 {
        assert_eq!(m.failure_histogram, vec![(FailureReason::Crash, accepted)]);
        assert_eq!(m.retries, 0, "fail fast never retries");
    }
    let events = sink.events();
    let action_count = |a: RecoveryAction| {
        events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Fault { action, .. } if *action == a))
            .count()
    };
    assert_eq!(action_count(RecoveryAction::Detected), m.faults_seen);
    if accepted >= 2 {
        assert!(
            action_count(RecoveryAction::CircuitOpen) >= 1,
            "two consecutive failures must open the breaker"
        );
        assert!(unhealthy > 0, "an all-open server rejects new work");
    }
}

/// The chaos corpus is deterministic: the same armed context produces the
/// same outcome (and the same error text) twice.
#[test]
fn armed_runs_are_reproducible() {
    let core = shared_core();
    let mut scratch = ExecScratch::new();
    let entry = core.lut().entries().last().unwrap().clone();
    let img = image(23);
    let outcome = |scratch: &mut ExecScratch| {
        let fctx = FaultCtx::new().with_guard(GuardConfig::default()).armed(
            only(FaultKind::BitFlip, 0xDEAD),
            6,
            1,
        );
        core.run(
            scratch,
            &img,
            entry.clone(),
            true,
            &ctx_with(ExecBackend::Interpret, fctx),
        )
        .map(|inf| inf.logits.data().to_vec())
        .map_err(|e: EngineError| e.to_string())
    };
    assert_eq!(outcome(&mut scratch), outcome(&mut scratch));
}
