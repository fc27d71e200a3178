//! The threaded serving loop: weighted-fair multi-tenant dispatch queue,
//! continuous batching, worker pool over one shared [`EngineCore`].

use crate::config::ServerConfig;
use crate::fair::{CoalescePop, DispatchPushError, SharedDispatchQueue};
use crate::metrics::ServerMetrics;
use crate::policy::{admissible, budget_for};
use crate::queue::PopResult;
use crate::request::{
    FailureReason, FailureRecord, InferenceRequest, Outcome, RequestRecord, RequestTicket,
    ShedReason, ShedRecord, TenantId,
};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vit_drt::{EngineCore, EngineError, LutEntry};
use vit_fault::{FaultCtx, FaultError, GuardConfig};
use vit_graph::{ExecBackend, ExecScratch, RunContext};
use vit_tensor::Tensor;
use vit_trace::{now_ns, EventKind, Phase as TracePhase, RecoveryAction};

/// Maps the LUT's abstract resource units onto wall-clock seconds on this
/// machine, so absolute deadlines can be converted into LUT budgets.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Measured wall seconds per LUT resource unit.
    pub secs_per_unit: f64,
}

/// Timed runs averaged by [`Calibration::measure`]; a single-run
/// measurement is far too noisy on shared CI machines.
pub const CALIBRATION_RUNS: usize = 3;

impl Calibration {
    /// Measures the machine: runs the full (most expensive) execution path
    /// once to warm its graph and weight caches, times
    /// [`CALIBRATION_RUNS`] further runs, and divides their average by the
    /// path's LUT cost.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when a calibration inference fails.
    pub fn measure(core: &Arc<EngineCore>) -> Result<Self, EngineError> {
        Self::measure_with(core, &RunContext::default())
    }

    /// [`Calibration::measure`] under an explicit [`RunContext`], so the
    /// calibration reflects the execution mode (and trace sink) the server
    /// will use.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when a calibration inference fails.
    pub fn measure_with(core: &Arc<EngineCore>, ctx: &RunContext) -> Result<Self, EngineError> {
        let mut scratch = ExecScratch::new();
        let (h, w) = core.image_size();
        let image = Tensor::rand_uniform(&[1, 3, h, w], 0.0, 1.0, 1);
        let full = core
            .lut()
            .entries()
            .last()
            .expect("EngineCore guarantees a non-empty LUT")
            .clone();
        core.run(&mut scratch, &image, full.clone(), true, ctx)?; // warm caches
        let resource = full.resource;
        Self::from_timed_runs(
            &mut || {
                let t0 = Instant::now();
                core.run(&mut scratch, &image, full.clone(), true, ctx)?;
                Ok(t0.elapsed().as_secs_f64())
            },
            CALIBRATION_RUNS,
            resource,
        )
    }

    /// Builds a calibration by averaging `runs` invocations of
    /// `timed_run` (each returning one measured duration in seconds) over
    /// an execution path costing `resource_units`. Split out from
    /// [`Calibration::measure`] so the averaging is unit-testable with a
    /// fake clock.
    ///
    /// # Errors
    ///
    /// Propagates the first error `timed_run` returns.
    ///
    /// # Panics
    ///
    /// Panics when `runs` is zero or `resource_units` is not positive.
    pub fn from_timed_runs<E>(
        timed_run: &mut dyn FnMut() -> Result<f64, E>,
        runs: usize,
        resource_units: f64,
    ) -> Result<Self, E> {
        assert!(runs >= 1, "calibration needs at least one timed run");
        assert!(
            resource_units > 0.0,
            "calibration path must have positive cost"
        );
        let mut total = 0.0;
        for _ in 0..runs {
            total += timed_run()?.max(0.0);
        }
        let secs = (total / runs as f64).max(1e-9);
        Ok(Calibration {
            secs_per_unit: secs / resource_units,
        })
    }

    /// A calibration from a known rate (e.g. for simulations).
    pub fn from_secs_per_unit(secs_per_unit: f64) -> Self {
        assert!(secs_per_unit > 0.0, "calibration rate must be positive");
        Calibration { secs_per_unit }
    }

    /// Seconds → LUT resource units.
    pub fn units(&self, secs: f64) -> f64 {
        secs / self.secs_per_unit
    }

    /// LUT resource units → seconds.
    pub fn secs(&self, units: f64) -> f64 {
        units * self.secs_per_unit
    }
}

/// Error from [`Server::submit`] for requests the server cannot interpret
/// (as opposed to load shedding, which is a recorded outcome, not an
/// error).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The request's resource kind does not match the server's LUT.
    WrongResourceKind {
        /// Kind the server was configured with.
        expected: vit_resilience::ResourceKind,
        /// Kind the request carried.
        got: vit_resilience::ResourceKind,
    },
    /// Every worker's circuit breaker is open: the server is refusing new
    /// work until at least one worker completes a request cleanly.
    AllWorkersUnhealthy {
        /// The server's worker count (all with open breakers).
        workers: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::WrongResourceKind { expected, got } => write!(
                f,
                "request resource kind {got:?} does not match server LUT kind {expected:?}"
            ),
            SubmitError::AllWorkersUnhealthy { workers } => write!(
                f,
                "all {workers} worker circuit breakers are open; refusing new work"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`Server::submit`] decided about a well-formed request: admitted
/// (with a correlation ticket) or shed (with the reason, also recorded in
/// the metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request was admitted and queued. The ticket reappears on the
    /// request's terminal record, so the caller can correlate completions.
    Admitted {
        /// The correlation handle for this submission.
        ticket: RequestTicket,
    },
    /// The request was shed without queueing.
    Shed(ShedReason),
}

impl Admission {
    /// Whether the request was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted { .. })
    }

    /// The ticket of an admitted request.
    pub fn ticket(&self) -> Option<RequestTicket> {
        match self {
            Admission::Admitted { ticket } => Some(*ticket),
            Admission::Shed(_) => None,
        }
    }
}

struct Submitted {
    image: Tensor,
    deadline: Instant,
    submitted_at: Instant,
    /// Trace-epoch stamp of the submission, for queue-wait spans. Zero
    /// when tracing is disabled (never recorded in that case).
    submitted_ns: u64,
    /// Submission sequence number — the deterministic `run` identity for
    /// fault draws, independent of which worker dispatches the request.
    /// Doubles as the [`RequestTicket`] value.
    seq: u64,
    tenant: TenantId,
}

impl Submitted {
    fn ticket(&self) -> RequestTicket {
        RequestTicket(self.seq)
    }
}

/// A running deadline-aware inference server.
///
/// Requests flow `submit` → weighted-fair multi-tenant EDF queue → worker
/// pool. Admission control sheds requests that cannot possibly meet their
/// deadline (and tenants that exceed their queue quota); the bounded queue
/// sheds on overload; every submitted request ends up in exactly one
/// [`Outcome`]. Workers coalesce queued requests that resolve to the same
/// LUT configuration into single batch-N engine passes when
/// `config.batching` enables it.
pub struct Server {
    queue: Arc<SharedDispatchQueue<Instant, Submitted>>,
    workers: Vec<JoinHandle<()>>,
    outcomes: Arc<Mutex<Vec<Outcome>>>,
    core: Arc<EngineCore>,
    calibration: Calibration,
    config: ServerConfig,
    ctx: RunContext,
    next_seq: AtomicU64,
    open_breakers: Arc<AtomicUsize>,
}

impl Server {
    /// Spawns the worker threads and starts serving, with the
    /// intra-inference execution pool sized by `config.exec_threads` and
    /// tracing disabled.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`ServerConfig::validate`] —
    /// configs built through [`ServerConfig::builder`] never do.
    pub fn start(core: Arc<EngineCore>, calibration: Calibration, config: ServerConfig) -> Self {
        let ctx = RunContext::threaded(config.exec_threads);
        Self::start_with(core, calibration, config, ctx)
    }

    /// [`Server::start`] under an explicit [`RunContext`]: the context's
    /// execution pool replaces `config.exec_threads` (cloning the context
    /// clones the pool handle, so all workers still share one pool), and
    /// its trace sink observes the serving path — queue-wait spans,
    /// admission and shed markers, and every engine span the workers'
    /// inferences emit. `config.use_plans` selects the backend either way.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`ServerConfig::validate`].
    pub fn start_with(
        core: Arc<EngineCore>,
        calibration: Calibration,
        config: ServerConfig,
        ctx: RunContext,
    ) -> Self {
        let backend = if config.use_plans {
            ExecBackend::Plan
        } else {
            ExecBackend::Interpret
        };
        let exec = ctx.exec.clone().with_backend(backend);
        let ctx = ctx.with_exec(exec);
        config
            .validate()
            .expect("server started with an invalid configuration");
        let queue: Arc<SharedDispatchQueue<Instant, Submitted>> = Arc::new(
            SharedDispatchQueue::bounded(config.queue_depth, &config.tenancy.tenants),
        );
        let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));

        // One execution pool shared (via `Arc`) by every worker: cloning
        // the `RunContext` clones the pool handle and the sink handle, not
        // the threads or the sink's buffer.
        let open_breakers: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
        let workers = (0..config.workers)
            .map(|_| {
                let queue = queue.clone();
                let outcomes = outcomes.clone();
                let core = core.clone();
                let spu = calibration.secs_per_unit;
                let ctx = ctx.clone();
                let config = config.clone();
                let open_breakers = open_breakers.clone();
                std::thread::spawn(move || {
                    worker_loop(&queue, &outcomes, &core, &ctx, &config, &open_breakers, spu)
                })
            })
            .collect();

        Server {
            queue,
            workers,
            outcomes,
            core,
            calibration,
            config,
            ctx,
            next_seq: AtomicU64::new(0),
            open_breakers,
        }
    }

    /// The shared engine core this server runs on.
    pub fn core(&self) -> &Arc<EngineCore> {
        &self.core
    }

    /// How many workers currently have an open circuit breaker.
    pub fn open_breakers(&self) -> usize {
        self.open_breakers.load(Ordering::Relaxed)
    }

    /// The wall-clock calibration in use.
    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The execution context (options + trace sink) the workers run with.
    pub fn run_context(&self) -> &RunContext {
        &self.ctx
    }

    /// Offers a request. Returns the typed [`Admission`] decision:
    /// [`Admission::Admitted`] carries the ticket that reappears on the
    /// request's terminal record; [`Admission::Shed`] names the reason
    /// (also recorded in the metrics).
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] for a request the server cannot interpret
    /// (wrong resource kind, or every worker unhealthy); such a request is
    /// *not* counted as shed.
    pub fn submit(&self, request: InferenceRequest) -> Result<Admission, SubmitError> {
        if request.resource_kind != self.config.resource_kind {
            return Err(SubmitError::WrongResourceKind {
                expected: self.config.resource_kind,
                got: request.resource_kind,
            });
        }
        if self.open_breakers.load(Ordering::Relaxed) >= self.config.workers {
            return Err(SubmitError::AllWorkersUnhealthy {
                workers: self.config.workers,
            });
        }
        let now = Instant::now();
        let traced = self.ctx.trace_enabled();
        let tenant = request.tenant;
        let shed = |reason: ShedReason| {
            if traced {
                self.ctx.sink.record(EventKind::Instant {
                    name: "shed".to_string(),
                    detail: reason.name().to_string(),
                    at_ns: now_ns(),
                });
            }
            self.outcomes
                .lock()
                .push(Outcome::Shed(ShedRecord::at_admission(reason, tenant)));
            Ok(Admission::Shed(reason))
        };
        let slack_secs = request
            .deadline
            .saturating_duration_since(now)
            .as_secs_f64();
        let slack_units = self.calibration.units(slack_secs);
        if !admissible(slack_units, self.core.min_resource()) {
            return shed(ShedReason::SlackBelowCheapest);
        }
        let sub = Submitted {
            image: request.image,
            deadline: request.deadline,
            submitted_at: now,
            submitted_ns: self.ctx.sink.timestamp(),
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            tenant,
        };
        let ticket = sub.ticket();
        match self.queue.try_push(tenant, sub.deadline, sub) {
            Ok(()) => {
                if traced {
                    self.ctx.sink.record(EventKind::Instant {
                        name: "admission".to_string(),
                        detail: format!("slack_units={slack_units:.3}"),
                        at_ns: now_ns(),
                    });
                }
                Ok(Admission::Admitted { ticket })
            }
            Err(DispatchPushError::OverQuota) => shed(ShedReason::OverQuota),
            Err(DispatchPushError::Full | DispatchPushError::Closed) => shed(ShedReason::QueueFull),
        }
    }

    /// Stops accepting requests, drains everything already queued, joins
    /// all threads, and returns the aggregated metrics.
    pub fn shutdown(mut self) -> ServerMetrics {
        self.queue.close();
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        let outcomes = self.outcomes.lock();
        ServerMetrics::from_outcomes(&outcomes)
    }

    /// Like [`Server::shutdown`], but also returns the raw per-request
    /// [`Outcome`]s — the threaded counterpart of
    /// [`crate::simulate_outcomes`], for callers that correlate admission
    /// tickets or need distributions the aggregate metrics do not carry.
    pub fn shutdown_outcomes(mut self) -> (ServerMetrics, Vec<Outcome>) {
        self.queue.close();
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        let outcomes = std::mem::take(&mut *self.outcomes.lock());
        (ServerMetrics::from_outcomes(&outcomes), outcomes)
    }
}

/// Signed remaining slack in seconds: negative once past due.
fn signed_slack(deadline: Instant, now: Instant) -> f64 {
    if deadline >= now {
        deadline.duration_since(now).as_secs_f64()
    } else {
        -now.duration_since(deadline).as_secs_f64()
    }
}

/// One dequeued request plus its dispatch-time bookkeeping.
struct Dispatched {
    deadline: Instant,
    sub: Submitted,
    queue_wait: f64,
}

/// The worker thread body: pop under the weighted-fair EDF discipline,
/// coalesce same-config admissible requests into a batch when batching is
/// enabled, execute, record outcomes. Per-worker health (consecutive
/// failures, circuit breaker) lives here.
fn worker_loop(
    queue: &SharedDispatchQueue<Instant, Submitted>,
    outcomes: &Mutex<Vec<Outcome>>,
    core: &Arc<EngineCore>,
    ctx: &RunContext,
    config: &ServerConfig,
    open_breakers: &AtomicUsize,
    spu: f64,
) {
    let mut scratch = ExecScratch::new();
    let mut consecutive_failures: usize = 0;
    let mut breaker_open = false;
    // Batching is disabled while a fault plan is armed: fault draws are
    // keyed per (request, attempt), and a shared batched pass would
    // entangle the members' draw histories — chaos replay stays
    // per-request and byte-identical.
    let batching = config.batching.enabled() && config.fault_tolerance.fault.is_none();
    while let PopResult::Item((_, deadline, sub)) = queue.pop() {
        let leader = dispatched(ctx, deadline, sub);
        if !batching {
            serve_request(
                core,
                ctx,
                config,
                &mut scratch,
                outcomes,
                open_breakers,
                &mut consecutive_failures,
                &mut breaker_open,
                spu,
                &leader,
            );
            continue;
        }
        // Leader resolves its configuration now; followers join only
        // while they resolve to the same one.
        let now = Instant::now();
        let slack_units = signed_slack(leader.deadline, now) / spu;
        if !admissible(slack_units, core.min_resource()) {
            // Hopeless leader: the per-request path sheds or fails it.
            serve_request(
                core,
                ctx,
                config,
                &mut scratch,
                outcomes,
                open_breakers,
                &mut consecutive_failures,
                &mut breaker_open,
                spu,
                &leader,
            );
            continue;
        }
        let budget = budget_for(config.policy, core, slack_units);
        let (entry, _) = core.select(budget);
        let window_end = now + Duration::from_secs_f64(config.batching.window);
        let mut batch = vec![leader];
        let mut earliest = deadline;
        while batch.len() < config.batching.max_batch {
            // A batch must never turn a met deadline into a miss: every
            // member finishes with the shared pass, so the batch only
            // grows while the projected finish — conservatively linear in
            // members on this substrate — still meets the earliest
            // deadline on board, and the candidate's own.
            let grown = Duration::from_secs_f64((batch.len() + 1) as f64 * entry.resource * spu);
            let now = Instant::now();
            let projected = now + grown;
            if projected > earliest {
                break;
            }
            let remaining = window_end.saturating_duration_since(now);
            let picked = queue.pop_if_timeout(remaining, |cand| {
                let cand_slack = signed_slack(cand.deadline, Instant::now()) / spu;
                projected <= cand.deadline
                    && admissible(cand_slack, core.min_resource())
                    && core
                        .select(budget_for(config.policy, core, cand_slack))
                        .0
                        .config
                        == entry.config
            });
            match picked {
                CoalescePop::Item((_, d, s)) => {
                    earliest = earliest.min(d);
                    batch.push(dispatched(ctx, d, s));
                }
                CoalescePop::Mismatch | CoalescePop::Closed => break,
                CoalescePop::Empty => {
                    if window_end <= Instant::now() {
                        break;
                    }
                }
            }
        }
        serve_batch(
            core,
            ctx,
            config,
            &mut scratch,
            outcomes,
            open_breakers,
            &mut consecutive_failures,
            &mut breaker_open,
            spu,
            batch,
            entry.clone(),
        );
    }
    // A worker that exits with its breaker open must not leave the
    // shared count pinned.
    if breaker_open {
        open_breakers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Stamps a freshly-popped request with its queue wait (and trace span).
fn dispatched(ctx: &RunContext, deadline: Instant, sub: Submitted) -> Dispatched {
    let now = Instant::now();
    if ctx.trace_enabled() {
        ctx.sink.record(EventKind::Phase {
            phase: TracePhase::QueueWait,
            detail: String::new(),
            start_ns: sub.submitted_ns,
            end_ns: now_ns(),
        });
    }
    let queue_wait = now.duration_since(sub.submitted_at).as_secs_f64();
    Dispatched {
        deadline,
        sub,
        queue_wait,
    }
}

/// The terminal failure reason for an engine error, classified through
/// [`EngineError::as_fault`].
fn failure_reason(err: &EngineError) -> FailureReason {
    match err.as_fault() {
        Some(FaultError::InjectedCrash { .. }) => FailureReason::Crash,
        Some(FaultError::InjectedReplayFailure { .. }) => FailureReason::PlanReplay,
        Some(FaultError::GuardTripped { .. }) => FailureReason::GuardTripped,
        _ => FailureReason::Engine,
    }
}

/// Runs one coalesced batch through a single batch-N engine pass and
/// records one [`Outcome`] per member. Falls back to the per-request
/// serving path (which owns retries, breakers, and shed accounting) when
/// the batched pass fails — a batch is an optimization, never a new way
/// to lose requests.
#[allow(clippy::too_many_arguments)]
fn serve_batch(
    core: &Arc<EngineCore>,
    ctx: &RunContext,
    config: &ServerConfig,
    scratch: &mut ExecScratch,
    outcomes: &Mutex<Vec<Outcome>>,
    open_breakers: &AtomicUsize,
    consecutive_failures: &mut usize,
    breaker_open: &mut bool,
    spu: f64,
    batch: Vec<Dispatched>,
    entry: LutEntry,
) {
    if batch.len() == 1 {
        // Window expired with a lone request: exactly the unbatched path.
        let only = &batch[0];
        serve_request(
            core,
            ctx,
            config,
            scratch,
            outcomes,
            open_breakers,
            consecutive_failures,
            breaker_open,
            spu,
            only,
        );
        return;
    }
    let mut actx = ctx.clone();
    if *breaker_open && actx.exec.backend() == ExecBackend::Plan {
        let exec = actx.exec.clone().with_backend(ExecBackend::Interpret);
        actx = actx.with_exec(exec);
    }
    let actx = actx.with_fault(FaultCtx::new().with_guard(GuardConfig::default()));
    let images: Vec<Tensor> = batch.iter().map(|d| d.sub.image.clone()).collect();
    match core.run_batch(scratch, &images, entry, true, &actx) {
        Ok(inferences) => {
            let finish = Instant::now();
            if *breaker_open {
                *breaker_open = false;
                open_breakers.fetch_sub(1, Ordering::Relaxed);
            }
            *consecutive_failures = 0;
            let n = batch.len() as u32;
            let mut out = outcomes.lock();
            for (d, inf) in batch.iter().zip(inferences) {
                out.push(Outcome::Completed(RequestRecord {
                    latency: finish.duration_since(d.sub.submitted_at).as_secs_f64(),
                    queue_wait: d.queue_wait,
                    met_deadline: finish <= d.deadline,
                    accuracy: inf.norm_miou_estimate,
                    config: inf.config,
                    retries: 0,
                    faults_seen: 0,
                    tenant: d.sub.tenant,
                    ticket: Some(d.sub.ticket()),
                    batch_size: n,
                }));
            }
        }
        Err(err) => {
            // Batched pass failed (e.g. a guard trip somewhere in the
            // batch): isolate by re-serving each member individually.
            if ctx.trace_enabled() {
                ctx.sink.record(EventKind::Fault {
                    action: RecoveryAction::Retry,
                    detail: format!("batch of {} failed ({err}); serving singly", batch.len()),
                    at_ns: now_ns(),
                });
            }
            for d in &batch {
                serve_request(
                    core,
                    ctx,
                    config,
                    scratch,
                    outcomes,
                    open_breakers,
                    consecutive_failures,
                    breaker_open,
                    spu,
                    d,
                );
            }
        }
    }
}

/// Serves one dequeued request to its terminal [`Outcome`]: the
/// per-attempt loop that arms fault injection, re-checks admissibility and
/// re-derives a (tighter) budget before each attempt, runs the engine
/// under the output guard, observes watchdog overruns, and maintains this
/// worker's circuit breaker. Pushes exactly one outcome.
#[allow(clippy::too_many_arguments)]
fn serve_request(
    core: &Arc<EngineCore>,
    ctx: &RunContext,
    config: &ServerConfig,
    scratch: &mut ExecScratch,
    outcomes: &Mutex<Vec<Outcome>>,
    open_breakers: &AtomicUsize,
    consecutive_failures: &mut usize,
    breaker_open: &mut bool,
    spu: f64,
    d: &Dispatched,
) {
    let ft = &config.fault_tolerance;
    let sub = &d.sub;
    let deadline = d.deadline;
    let traced = ctx.trace_enabled();
    let fault_event = |action: RecoveryAction, detail: String| {
        if traced {
            ctx.sink.record(EventKind::Fault {
                action,
                detail,
                at_ns: now_ns(),
            });
        }
    };
    let mut attempt: u32 = 0;
    let mut faults_seen: u32 = 0;
    let mut interpret_fallback = false;
    let mut last_reason = FailureReason::Engine;
    loop {
        let now = Instant::now();
        // Signed remaining slack: negative once past due. Re-derived per
        // attempt, so a retry sees only what the fault left it — the LUT
        // then degrades the retry to a cheaper configuration by itself.
        let slack_secs = signed_slack(deadline, now);
        let slack_units = slack_secs / spu;
        if !admissible(slack_units, core.min_resource()) {
            if attempt == 0 {
                if traced {
                    ctx.sink.record(EventKind::Instant {
                        name: "shed".to_string(),
                        detail: ShedReason::SlackExhausted.name().to_string(),
                        at_ns: now_ns(),
                    });
                }
                outcomes.lock().push(Outcome::Shed(ShedRecord {
                    reason: ShedReason::SlackExhausted,
                    tenant: sub.tenant,
                    ticket: Some(sub.ticket()),
                }));
            } else {
                // Slack ran out while recovering: the fault, not the
                // queue, cost this request its deadline.
                fault_event(
                    RecoveryAction::FailFast,
                    format!("slack exhausted recovering from {last_reason}"),
                );
                outcomes.lock().push(Outcome::Failed(FailureRecord {
                    reason: last_reason,
                    retries: attempt,
                    faults_seen,
                    tenant: sub.tenant,
                    ticket: Some(sub.ticket()),
                }));
            }
            return;
        }
        let budget = budget_for(config.policy, core, slack_units);
        let (entry, _fits) = core.select(budget);
        let expected_secs = entry.resource * spu;

        let mut actx = ctx.clone();
        if (*breaker_open || interpret_fallback) && actx.exec.backend() == ExecBackend::Plan {
            let exec = actx.exec.clone().with_backend(ExecBackend::Interpret);
            actx = actx.with_exec(exec);
        }
        let mut fctx = FaultCtx::new().with_guard(GuardConfig::default());
        if let Some(plan) = ft.fault {
            fctx = fctx.armed(plan, sub.seq, attempt);
        }
        let actx = actx.with_fault(fctx);

        let began = Instant::now();
        match core.run(scratch, &sub.image, entry, true, &actx) {
            Ok(inference) => {
                let finish = Instant::now();
                let elapsed = finish.duration_since(began).as_secs_f64();
                // The threaded server cannot abort a running inference, so
                // the watchdog is observational here: an attempt that
                // overran its allowance is recorded as a detection (the
                // simulator models the true abort).
                let allowance = slack_secs.max(0.0).min(ft.watchdog_grace * expected_secs);
                if elapsed > allowance {
                    fault_event(
                        RecoveryAction::Detected,
                        format!("watchdog: ran {elapsed:.6}s, allowance {allowance:.6}s"),
                    );
                }
                if *breaker_open {
                    *breaker_open = false;
                    open_breakers.fetch_sub(1, Ordering::Relaxed);
                    fault_event(RecoveryAction::CircuitClose, String::new());
                }
                *consecutive_failures = 0;
                if attempt > 0 {
                    fault_event(RecoveryAction::Degraded, format!("retries={attempt}"));
                }
                outcomes.lock().push(Outcome::Completed(RequestRecord {
                    latency: finish.duration_since(sub.submitted_at).as_secs_f64(),
                    queue_wait: d.queue_wait,
                    met_deadline: finish <= deadline,
                    accuracy: inference.norm_miou_estimate,
                    config: inference.config,
                    retries: attempt,
                    faults_seen,
                    tenant: sub.tenant,
                    ticket: Some(sub.ticket()),
                    batch_size: 1,
                }));
                return;
            }
            Err(err) => {
                faults_seen += 1;
                *consecutive_failures += 1;
                let reason = failure_reason(&err);
                last_reason = reason;
                fault_event(RecoveryAction::Detected, format!("{reason}: {err}"));
                if *consecutive_failures >= ft.breaker_threshold && !*breaker_open {
                    *breaker_open = true;
                    open_breakers.fetch_add(1, Ordering::Relaxed);
                    fault_event(
                        RecoveryAction::CircuitOpen,
                        format!("{} consecutive failures", *consecutive_failures),
                    );
                }
                if attempt >= ft.recovery.max_retries() {
                    fault_event(RecoveryAction::FailFast, reason.name().to_string());
                    outcomes.lock().push(Outcome::Failed(FailureRecord {
                        reason,
                        retries: attempt,
                        faults_seen,
                        tenant: sub.tenant,
                        ticket: Some(sub.ticket()),
                    }));
                    return;
                }
                if reason == FailureReason::PlanReplay && !interpret_fallback {
                    interpret_fallback = true;
                    fault_event(
                        RecoveryAction::BackendFallback,
                        "plan -> interpret".to_string(),
                    );
                } else {
                    fault_event(RecoveryAction::Retry, reason.name().to_string());
                }
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_averages_all_timed_runs() {
        // Fake clock: three scripted durations; the calibration must use
        // their mean, not any single (noisy) run.
        let mut durations = [0.010f64, 0.030, 0.020].into_iter();
        let cal = Calibration::from_timed_runs::<()>(
            &mut || Ok(durations.next().expect("exactly three runs requested")),
            3,
            4.0, // the full path costs 4 LUT units
        )
        .unwrap();
        assert!((cal.secs_per_unit - 0.020 / 4.0).abs() < 1e-12);
        assert!(durations.next().is_none(), "measure consumed every run");
    }

    #[test]
    fn calibration_propagates_timer_errors() {
        let mut calls = 0;
        let r = Calibration::from_timed_runs(
            &mut || {
                calls += 1;
                if calls == 2 {
                    Err("clock broke")
                } else {
                    Ok(0.01)
                }
            },
            3,
            1.0,
        );
        assert_eq!(r.unwrap_err(), "clock broke");
        assert_eq!(calls, 2, "stops at the first failure");
    }

    #[test]
    fn calibration_clamps_zero_durations() {
        let cal =
            Calibration::from_timed_runs::<()>(&mut || Ok(0.0), CALIBRATION_RUNS, 2.0).unwrap();
        assert!(cal.secs_per_unit > 0.0, "rate stays positive");
    }

    #[test]
    fn admission_accessors() {
        let a = Admission::Admitted {
            ticket: RequestTicket(7),
        };
        assert!(a.is_admitted());
        assert_eq!(a.ticket(), Some(RequestTicket(7)));
        let s = Admission::Shed(ShedReason::QueueFull);
        assert!(!s.is_admitted());
        assert_eq!(s.ticket(), None);
    }
}
