//! The threaded serving loop: weighted-fair multi-tenant dispatch queue,
//! continuous batching, worker pool over one shared [`EngineCore`].

use crate::config::ServerConfig;
use crate::dispatch::{shed_event, DispatchEnv, Dispatcher, Job, OrdF64};
use crate::fair::{CoalescePop, SharedDispatchQueue};
use crate::metrics::ServerMetrics;
use crate::queue::PopResult;
use crate::request::{FailureReason, InferenceRequest, Outcome, RequestTicket, ShedReason};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vit_drt::{EngineCore, EngineError, LutEntry};
use vit_fault::{FaultCtx, FaultError, GuardConfig};
use vit_graph::{ExecBackend, ExecOptions, ExecScratch, RunContext};
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
    /// Measures the machine on the executor [`Server::start`] uses by
    /// default (sequential compiled-plan replay): runs the full (most
    /// expensive) execution path once to compile and cache its plan, times
    /// [`CALIBRATION_RUNS`] further replays, and divides their average by
    /// the path's LUT cost.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when a calibration inference fails.
    pub fn measure(core: &Arc<EngineCore>) -> Result<Self, EngineError> {
        let exec = ExecOptions::sequential().with_backend(ExecBackend::Plan);
        Self::measure_with(core, &RunContext::default().with_exec(exec))
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
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The request's resource kind does not match the server's LUT.
    WrongResourceKind {
        /// Kind the server was configured with.
        expected: vit_resilience::ResourceKind,
        /// Kind the request carried.
        got: vit_resilience::ResourceKind,
    },
    /// The request's image is not one `[1, 3, h, w]` image at the
    /// engine's input size.
    WrongImageShape {
        /// The shape the engine accepts.
        expected: [usize; 4],
        /// The shape the request carried.
        got: Vec<usize>,
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
            SubmitError::WrongImageShape { expected, got } => write!(
                f,
                "request image shape {got:?} does not match engine input {expected:?}"
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

/// What a queued request carries for the worker that serves it.
struct Payload {
    image: Tensor,
    /// Trace-epoch stamp of the submission, for the queue-wait span.
    submitted_ns: u64,
}

/// One engine pass over queued requests: [`engine_pass`], or a test fake.
type EnginePass = fn(
    &EngineCore,
    &mut ExecScratch,
    &[Job<Payload>],
    &LutEntry,
    &RunContext,
) -> Result<(), EngineError>;

/// Runs one request through [`EngineCore::run`], or a coalesced batch
/// through one [`EngineCore::run_batch`]. The server reports outcomes, not
/// tensors, so the outputs are dropped.
fn engine_pass(
    core: &EngineCore,
    scratch: &mut ExecScratch,
    members: &[Job<Payload>],
    entry: &LutEntry,
    ctx: &RunContext,
) -> Result<(), EngineError> {
    if let [one] = members {
        return core
            .run(scratch, &one.payload.image, entry.clone(), true, ctx)
            .map(drop);
    }
    let images: Vec<Tensor> = members.iter().map(|m| m.payload.image.clone()).collect();
    core.run_batch(scratch, &images, entry.clone(), true, ctx)
        .map(drop)
}

/// Everything the submitting threads and the workers share.
struct Shared {
    queue: SharedDispatchQueue<OrdF64, Job<Payload>>,
    outcomes: Mutex<Vec<Outcome>>,
    core: Arc<EngineCore>,
    calibration: Calibration,
    config: ServerConfig,
    ctx: RunContext,
    open_breakers: AtomicUsize,
    /// The dispatch core's clock counts seconds from here.
    epoch: Instant,
}

impl Shared {
    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn dispatcher(&self) -> Dispatcher<'_> {
        let config = &self.config;
        // No batching while a fault plan is armed: draws are keyed per
        // (request, attempt), and a shared pass would entangle the
        // members' draw histories — chaos replay stays per-request.
        let armed = config.fault_tolerance.fault.is_some();
        Dispatcher {
            core: &self.core,
            policy: config.policy,
            recovery: config.fault_tolerance.recovery,
            secs_per_unit: self.calibration.secs_per_unit,
            max_batch: if armed { 1 } else { config.batching.max_batch },
            window: config.batching.window,
            // Linear in members: batch-N replay costs about N single runs
            // on this CPU substrate.
            marginal: 1.0,
        }
    }

    fn trace(&self, event: impl FnOnce() -> EventKind) {
        if self.ctx.trace_enabled() {
            self.ctx.sink.record(event());
        }
    }

    /// Records the queue-wait span of a freshly popped request.
    fn popped(&self, job: &Job<Payload>) {
        self.trace(|| EventKind::Phase {
            phase: TracePhase::QueueWait,
            detail: String::new(),
            start_ns: job.payload.submitted_ns,
            end_ns: now_ns(),
        });
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
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_seq: AtomicU64,
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
        Self::spawn(core, calibration, config, ctx, engine_pass)
    }

    fn spawn(
        core: Arc<EngineCore>,
        calibration: Calibration,
        config: ServerConfig,
        ctx: RunContext,
        pass: EnginePass,
    ) -> Self {
        config
            .validate()
            .expect("server started with an invalid configuration");
        let backend = if config.use_plans {
            ExecBackend::Plan
        } else {
            ExecBackend::Interpret
        };
        let exec = ctx.exec.clone().with_backend(backend);
        let shared = Arc::new(Shared {
            queue: SharedDispatchQueue::bounded(config.queue_depth, &config.tenancy.tenants),
            outcomes: Mutex::new(Vec::new()),
            core,
            calibration,
            // Every worker clones this context: the pool and sink handles,
            // not the threads or the sink's buffer.
            ctx: ctx.with_exec(exec),
            config,
            open_breakers: AtomicUsize::new(0),
            epoch: Instant::now(),
        });
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, pass))
            })
            .collect();
        Server {
            shared,
            workers,
            next_seq: AtomicU64::new(0),
        }
    }

    /// The shared engine core this server runs on.
    pub fn core(&self) -> &Arc<EngineCore> {
        &self.shared.core
    }

    /// How many workers currently have an open circuit breaker.
    pub fn open_breakers(&self) -> usize {
        self.shared.open_breakers.load(Ordering::Relaxed)
    }

    /// The wall-clock calibration in use.
    pub fn calibration(&self) -> Calibration {
        self.shared.calibration
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// The execution context (options + trace sink) the workers run with.
    pub fn run_context(&self) -> &RunContext {
        &self.shared.ctx
    }

    /// Offers a request. Returns the typed [`Admission`] decision:
    /// [`Admission::Admitted`] carries the ticket that reappears on the
    /// request's terminal record; [`Admission::Shed`] names the reason
    /// (also recorded in the metrics).
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] for a request the server cannot interpret
    /// (wrong resource kind or image shape, or every worker unhealthy);
    /// such a request is *not* counted as shed.
    pub fn submit(&self, request: InferenceRequest) -> Result<Admission, SubmitError> {
        let shared = &*self.shared;
        let config = &shared.config;
        if request.resource_kind != config.resource_kind {
            return Err(SubmitError::WrongResourceKind {
                expected: config.resource_kind,
                got: request.resource_kind,
            });
        }
        let (h, w) = shared.core.image_size();
        if request.image.shape() != [1, 3, h, w] {
            return Err(SubmitError::WrongImageShape {
                expected: [1, 3, h, w],
                got: request.image.shape().to_vec(),
            });
        }
        if shared.open_breakers.load(Ordering::Relaxed) >= config.workers {
            return Err(SubmitError::AllWorkersUnhealthy {
                workers: config.workers,
            });
        }
        let now = shared.secs(Instant::now());
        let deadline = shared.secs(request.deadline);
        let tenant = request.tenant;
        let mut ticket = RequestTicket(0);
        let admitted = shared.dispatcher().admit(deadline - now, tenant, || {
            // Submission order is the request's fault-draw identity,
            // whichever worker dispatches it.
            ticket = RequestTicket(self.next_seq.fetch_add(1, Ordering::Relaxed));
            let payload = Payload {
                image: request.image,
                submitted_ns: shared.ctx.sink.timestamp(),
            };
            let job = Job {
                seq: ticket.0,
                tenant,
                arrival: now,
                deadline,
                queue_wait: 0.0,
                payload,
            };
            shared.queue.try_push(tenant, OrdF64(deadline), job)
        });
        match admitted {
            Ok(()) => {
                shared.trace(|| EventKind::Instant {
                    name: "admission".to_string(),
                    detail: format!(
                        "slack_units={:.3}",
                        shared.calibration.units(deadline - now)
                    ),
                    at_ns: now_ns(),
                });
                Ok(Admission::Admitted { ticket })
            }
            Err(shed) => {
                let reason = shed.reason;
                shared.trace(|| shed_event(reason));
                shared
                    .outcomes
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Outcome::Shed(shed));
                Ok(Admission::Shed(reason))
            }
        }
    }

    /// Stops accepting requests, drains everything already queued, joins
    /// all threads, and returns the aggregated metrics.
    pub fn shutdown(self) -> ServerMetrics {
        self.shutdown_outcomes().0
    }

    /// Like [`Server::shutdown`], but also returns the raw per-request
    /// [`Outcome`]s — the threaded counterpart of
    /// [`crate::simulate_outcomes`], for callers that correlate admission
    /// tickets or need distributions the aggregate metrics do not carry.
    pub fn shutdown_outcomes(self) -> (ServerMetrics, Vec<Outcome>) {
        self.shared.queue.close();
        for w in self.workers {
            // Workers contain engine panics; one escaping is a serving bug.
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let outcomes = std::mem::take(
            &mut *self
                .shared
                .outcomes
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        (ServerMetrics::from_outcomes(&outcomes), outcomes)
    }
}

/// One worker thread's substrate for the dispatch core: wall-clock time,
/// the shared queue, and guarded engine passes, with this worker's circuit
/// breaker and observational watchdog.
struct Worker<'a> {
    shared: &'a Shared,
    pass: EnginePass,
    scratch: ExecScratch,
    consecutive_failures: usize,
    breaker_open: bool,
}

impl DispatchEnv for Worker<'_> {
    type Payload = Payload;

    fn now(&self) -> f64 {
        self.shared.secs(Instant::now())
    }

    fn pop_follower(
        &mut self,
        window_end: f64,
        accept: &mut dyn FnMut(f64, f64) -> bool,
    ) -> Option<Job<Payload>> {
        let shared = self.shared;
        loop {
            let remaining = Duration::from_secs_f64((window_end - self.now()).max(0.0));
            let pred = |job: &Job<Payload>| accept(job.deadline, shared.secs(Instant::now()));
            match shared.queue.pop_if_timeout(remaining, pred) {
                CoalescePop::Item((_, _, job)) => {
                    shared.popped(&job);
                    return Some(job);
                }
                CoalescePop::Empty if window_end > self.now() => {}
                _ => return None,
            }
        }
    }

    /// One engine pass under the output guard, fault injection armed per
    /// `(request, attempt)`, on the interpreter while the breaker is open
    /// or after a replay failure. A panic inside the pass is contained: it
    /// becomes an [`FailureReason::Engine`] failure, and the worker goes on
    /// with a fresh scratch.
    fn run(
        &mut self,
        members: &[Job<Payload>],
        entry: &LutEntry,
        attempt: u32,
        interpret: bool,
    ) -> Result<(), FailureReason> {
        let shared = self.shared;
        let ft = &shared.config.fault_tolerance;
        let mut ctx = shared.ctx.clone();
        if self.breaker_open || interpret {
            let exec = ctx.exec.clone().with_backend(ExecBackend::Interpret);
            ctx = ctx.with_exec(exec);
        }
        let mut fault = FaultCtx::new().with_guard(GuardConfig::default());
        if let Some(plan) = ft.fault {
            fault = fault.armed(plan, members[0].seq, attempt);
        }
        let ctx = ctx.with_fault(fault);
        let began = self.now();
        let (pass, scratch) = (self.pass, &mut self.scratch);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pass(&shared.core, scratch, members, entry, &ctx)
        }));
        let fault_event = |action, detail| {
            shared.trace(|| EventKind::Fault {
                action,
                detail,
                at_ns: now_ns(),
            });
        };
        let (reason, detail) = match result {
            Ok(Ok(())) => {
                // The server cannot abort a running pass, so its watchdog
                // only observes an overrun (the simulator models the abort).
                let elapsed = self.now() - began;
                let earliest = members.iter().map(|m| m.deadline).fold(f64::MAX, f64::min);
                let expected = entry.resource * shared.calibration.secs_per_unit;
                let allowance = (earliest - began)
                    .max(0.0)
                    .min(ft.watchdog_grace * expected * members.len() as f64);
                if elapsed > allowance {
                    let detail = format!("watchdog: ran {elapsed:.6}s, allowance {allowance:.6}s");
                    fault_event(RecoveryAction::Detected, detail);
                }
                if self.breaker_open {
                    self.breaker_open = false;
                    shared.open_breakers.fetch_sub(1, Ordering::Relaxed);
                    fault_event(RecoveryAction::CircuitClose, String::new());
                }
                self.consecutive_failures = 0;
                return Ok(());
            }
            Ok(Err(err)) => (failure_reason(&err), err.to_string()),
            Err(panic) => {
                self.scratch = ExecScratch::new();
                let msg = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                (
                    FailureReason::Engine,
                    format!("engine pass panicked: {msg}"),
                )
            }
        };
        self.consecutive_failures += 1;
        fault_event(RecoveryAction::Detected, format!("{reason}: {detail}"));
        if self.consecutive_failures >= ft.breaker_threshold && !self.breaker_open {
            self.breaker_open = true;
            shared.open_breakers.fetch_add(1, Ordering::Relaxed);
            let detail = format!("{} consecutive failures", self.consecutive_failures);
            fault_event(RecoveryAction::CircuitOpen, detail);
        }
        Err(reason)
    }

    fn record(&mut self, outcome: Outcome) {
        self.shared
            .outcomes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(outcome);
    }

    fn trace(&self, event: impl FnOnce() -> EventKind) {
        self.shared.trace(event);
    }
}

/// The worker thread body: pop under the weighted-fair EDF discipline and
/// hand each request to the dispatch core until the queue closes.
fn worker_loop(shared: &Shared, pass: EnginePass) {
    let dispatcher = shared.dispatcher();
    let mut worker = Worker {
        shared,
        pass,
        scratch: ExecScratch::new(),
        consecutive_failures: 0,
        breaker_open: false,
    };
    while let PopResult::Item((_, _, job)) = shared.queue.pop() {
        shared.popped(&job);
        dispatcher.dispatch(&mut worker, job);
    }
    // A worker that exits with its breaker open must not leave the shared
    // count pinned.
    if worker.breaker_open {
        shared.open_breakers.fetch_sub(1, Ordering::Relaxed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use vit_resilience::ResourceKind;

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

    /// The calibration times the executor `Server::start` runs by
    /// default, sequential plan replay, so it compiles the full path's
    /// plan.
    #[test]
    fn calibration_measures_plan_replay() {
        let core = Arc::new(crate::dispatch::tiny_core());
        let cal = Calibration::measure(&core).unwrap();
        assert!(cal.secs_per_unit > 0.0);
        assert_eq!(core.cached_plans(), 1);
    }

    #[test]
    fn calibration_clamps_zero_durations() {
        let cal =
            Calibration::from_timed_runs::<()>(&mut || Ok(0.0), CALIBRATION_RUNS, 2.0).unwrap();
        assert!(cal.secs_per_unit > 0.0, "rate stays positive");
    }

    /// A fake engine pass with kernel bugs: it panics on every batch and
    /// on every even ticket, and succeeds on odd tickets served alone.
    fn panicking_pass(
        _: &EngineCore,
        _: &mut ExecScratch,
        members: &[Job<Payload>],
        _: &LutEntry,
        _: &RunContext,
    ) -> Result<(), EngineError> {
        if members.len() > 1 || members[0].seq.is_multiple_of(2) {
            panic!("kernel bug on ticket {}", members[0].seq);
        }
        Ok(())
    }

    /// The threaded workers contain panicking engine passes: each panic is
    /// a typed `Engine` failure that goes through the shared recovery
    /// path, a panicking batch is re-served one member at a time, every
    /// request is conserved, and shutdown returns.
    #[test]
    fn worker_contains_engine_panics() {
        use crate::request::FailureReason;
        use vit_trace::{RingBufferSink, TraceSink};
        let core = Arc::new(crate::dispatch::tiny_core());
        // Unbatched on two workers; batched on one, whose long window
        // fills every batch.
        for (workers, max_batch) in [(2, 1), (1, 4)] {
            let config = ServerConfig::builder()
                .workers(workers)
                .max_batch(max_batch)
                .batch_window(30.0)
                .breaker_threshold(usize::MAX)
                .build()
                .unwrap();
            let sink = Arc::new(RingBufferSink::new(1 << 12));
            let ctx = RunContext::default().with_sink(sink.clone() as Arc<dyn TraceSink>);
            let server = Server::spawn(
                core.clone(),
                Calibration::from_secs_per_unit(1.0),
                config,
                ctx,
                panicking_pass,
            );
            for _ in 0..8 {
                let image = Tensor::zeros(&[1, 3, 64, 64]);
                let deadline = Instant::now() + Duration::from_secs(3600);
                let request = InferenceRequest::new(image, deadline, ResourceKind::GpuTime);
                assert!(server.submit(request).unwrap().is_admitted());
            }
            let m = server.shutdown();
            assert_eq!(m.submitted, 8);
            assert!(m.accounts_for_all_submissions());
            assert_eq!(m.completed, 4, "odd tickets complete");
            assert_eq!(m.batched_completions, 0, "every batch panicked");
            assert_eq!(m.fault_failures, 4, "even tickets fail every attempt");
            assert_eq!(m.failure_histogram, vec![(FailureReason::Engine, 4)]);
            let failed_batches = (sink.events().iter())
                .filter(|e| matches!(&e.kind, EventKind::Fault { action: RecoveryAction::Retry, detail, .. } if detail.starts_with("batch of")))
                .count();
            assert_eq!(failed_batches > 0, max_batch > 1);
        }
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
