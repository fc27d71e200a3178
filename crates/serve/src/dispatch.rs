//! The one dispatch core of both serving substrates.
//!
//! The threaded [`crate::Server`] and the discrete-event simulator
//! ([`crate::simulate`]) make every scheduling decision here: admission at
//! submission, deadline-aware coalescing of same-config requests, the
//! per-attempt recovery loop, and the terminal [`Outcome`] records. A
//! substrate supplies only a [`DispatchEnv`] — clock, queue, executor,
//! outcome sink, trace hook — so the two agree because they run this code.

use crate::config::ServerConfig;
use crate::fair::DispatchPushError;
use crate::policy::{admissible, budget_for};
use crate::request::{
    FailureReason, FailureRecord, Outcome, RequestRecord, RequestTicket, ShedReason, ShedRecord,
    TenantId,
};
use vit_drt::{EngineCore, LutEntry};
use vit_trace::{now_ns, EventKind, RecoveryAction};

/// One admitted request. Times are seconds on the substrate's clock.
#[derive(Debug)]
pub(crate) struct Job<P> {
    /// Admission sequence number: the ticket and the fault-draw identity.
    pub seq: u64,
    pub tenant: TenantId,
    pub arrival: f64,
    pub deadline: f64,
    /// Submission → dispatch; set when the job leaves the queue.
    pub queue_wait: f64,
    /// What the executor runs (the image, for the server).
    pub payload: P,
}

/// Totally ordered f64, the dispatch queues' deadline key (clock times
/// are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What a serving substrate provides the dispatch core.
pub(crate) trait DispatchEnv {
    type Payload;

    /// The current time on this substrate's clock.
    fn now(&self) -> f64;

    /// Pops the next-up queued job if `accept(deadline, now)` holds,
    /// waiting until `window_end` while the queue is empty. `None` ends
    /// the batch.
    fn pop_follower(
        &mut self,
        window_end: f64,
        accept: &mut dyn FnMut(f64, f64) -> bool,
    ) -> Option<Job<Self::Payload>>;

    /// Runs `members` as one pass of `entry`; `attempt` keys a single
    /// request's fault draws.
    fn run(
        &mut self,
        members: &[Job<Self::Payload>],
        entry: &LutEntry,
        attempt: u32,
    ) -> Result<(), FailureReason>;

    fn record(&mut self, outcome: Outcome);

    /// Takes a trace event, built only when the substrate traces.
    fn trace(&self, event: impl FnOnce() -> EventKind) {
        let _ = event;
    }
}

/// Seconds one pass over `n` requests takes, given the single-request
/// time: each member beyond the first adds `marginal` of a single run.
pub(crate) fn batch_secs(single: f64, n: usize, marginal: f64) -> f64 {
    single * (1.0 + (n - 1) as f64 * marginal)
}

/// The dispatch policy of one server or simulated replica.
pub(crate) struct Dispatcher<'a> {
    core: &'a EngineCore,
    config: &'a ServerConfig,
    secs_per_unit: f64,
    /// Largest batch one pass may serve; 1 never coalesces.
    max_batch: usize,
    /// Projected cost of each member beyond the first ([`batch_secs`]).
    marginal: f64,
}

impl<'a> Dispatcher<'a> {
    /// The policy `config` prescribes over `core`, on a substrate where one
    /// LUT resource unit takes `secs_per_unit` seconds and each batch
    /// member beyond the first adds `marginal` of a single pass.
    ///
    /// No batching while an active fault plan is armed: draws are keyed
    /// per (request, attempt), and a shared pass would entangle the
    /// members' draw histories — chaos replay stays per-request.
    pub fn new(
        core: &'a EngineCore,
        config: &'a ServerConfig,
        secs_per_unit: f64,
        marginal: f64,
    ) -> Self {
        let armed = config.fault_tolerance.active_plan().is_some();
        Dispatcher {
            core,
            config,
            secs_per_unit,
            max_batch: if armed { 1 } else { config.batching.max_batch },
            marginal,
        }
    }
}

impl Dispatcher<'_> {
    /// Remaining slack in LUT units: negative once past due.
    fn slack(&self, deadline: f64, now: f64) -> f64 {
        (deadline - now) / self.secs_per_unit
    }

    fn admissible(&self, slack: f64) -> bool {
        admissible(slack, self.core.min_resource())
    }

    fn select(&self, slack: f64) -> LutEntry {
        self.core
            .select(budget_for(self.config.policy, self.core, slack))
            .0
    }

    /// Admission control at submission: a request whose slack cannot cover
    /// the cheapest path is shed; anything else is offered to the queue
    /// through `push`, and a refusal becomes its shed record.
    pub fn admit(
        &self,
        slack_secs: f64,
        tenant: TenantId,
        push: impl FnOnce() -> Result<(), DispatchPushError>,
    ) -> Result<(), ShedRecord> {
        let reason = if !self.admissible(slack_secs / self.secs_per_unit) {
            ShedReason::SlackBelowCheapest
        } else {
            match push() {
                Ok(()) => return Ok(()),
                Err(DispatchPushError::OverQuota) => ShedReason::OverQuota,
                Err(DispatchPushError::Full | DispatchPushError::Closed) => ShedReason::QueueFull,
            }
        };
        Err(ShedRecord::at_admission(reason, tenant))
    }

    /// Serves a freshly popped `leader`, plus any followers it coalesces,
    /// to terminal outcomes.
    pub fn dispatch<E: DispatchEnv>(&self, env: &mut E, mut leader: Job<E::Payload>) {
        let now = env.now();
        leader.queue_wait = now - leader.arrival;
        let slack = self.slack(leader.deadline, now);
        // A hopeless leader takes the per-request path, which sheds it.
        if self.max_batch == 1 || !self.admissible(slack) {
            return self.serve(env, &leader);
        }
        let entry = self.select(slack);
        let batch = self.coalesce(env, leader, &entry);
        if batch.len() == 1 {
            return self.serve(env, &batch[0]);
        }
        match env.run(&batch, &entry, 0) {
            Ok(()) => {
                let finish = env.now();
                for job in &batch {
                    env.record(completed(job, finish, &entry, 0, 0, batch.len()));
                }
            }
            // A batch is an optimization, never a new way to lose
            // requests: isolate the failure by serving each member alone.
            Err(reason) => {
                fault_event(env, RecoveryAction::Retry, || {
                    format!("batch of {} failed ({reason}); serving singly", batch.len())
                });
                for job in &batch {
                    self.serve(env, job);
                }
            }
        }
    }

    /// Grows a batch behind `leader` while the next-up queued request
    /// resolves to the leader's `entry`, never skipping one.
    fn coalesce<E: DispatchEnv>(
        &self,
        env: &mut E,
        leader: Job<E::Payload>,
        entry: &LutEntry,
    ) -> Vec<Job<E::Payload>> {
        let single = entry.resource * self.secs_per_unit;
        let window_end = env.now() + self.config.batching.window;
        let mut earliest = leader.deadline;
        let mut batch = vec![leader];
        while batch.len() < self.max_batch {
            // Members share the pass's finish, so a batch must never turn a
            // met deadline into a miss: it grows only while the projected
            // finish meets the earliest deadline on board and the
            // candidate's own.
            let grown = batch_secs(single, batch.len() + 1, self.marginal);
            if env.now() + grown > earliest {
                break;
            }
            let mut accept = |deadline: f64, now: f64| {
                let slack = self.slack(deadline, now);
                now + grown <= earliest.min(deadline)
                    && self.admissible(slack)
                    && self.select(slack).config == entry.config
            };
            let Some(mut job) = env.pop_follower(window_end, &mut accept) else {
                break;
            };
            earliest = earliest.min(job.deadline);
            job.queue_wait = env.now() - job.arrival;
            batch.push(job);
        }
        batch
    }

    /// Serves one request to its terminal outcome. Each attempt re-checks
    /// admissibility and re-selects against the *remaining* slack, so a
    /// retry degrades to a cheaper configuration by construction. A
    /// plan-replay failure is retried like any other: the engine has
    /// already evicted the failed plan, so the retry runs a fresh one.
    fn serve<E: DispatchEnv>(&self, env: &mut E, job: &Job<E::Payload>) {
        let (mut attempt, mut faults_seen) = (0, 0);
        let mut last_reason = FailureReason::Engine;
        loop {
            let slack = self.slack(job.deadline, env.now());
            if !self.admissible(slack) {
                if attempt == 0 {
                    // Slack ran out in the queue: shed without spending
                    // worker time on it.
                    let reason = ShedReason::SlackExhausted;
                    env.trace(|| shed_event(reason));
                    env.record(Outcome::Shed(ShedRecord {
                        reason,
                        tenant: job.tenant,
                        ticket: Some(RequestTicket(job.seq)),
                    }));
                } else {
                    // Slack ran out while recovering: the fault, not the
                    // queue, cost this request its deadline.
                    fault_event(env, RecoveryAction::FailFast, || {
                        format!("slack exhausted recovering from {last_reason}")
                    });
                    env.record(failed(job, last_reason, attempt, faults_seen));
                }
                return;
            }
            let entry = self.select(slack);
            let Err(reason) = env.run(std::slice::from_ref(job), &entry, attempt) else {
                if attempt > 0 {
                    fault_event(env, RecoveryAction::Degraded, || {
                        format!("retries={attempt}")
                    });
                }
                let finish = env.now();
                env.record(completed(job, finish, &entry, attempt, faults_seen, 1));
                return;
            };
            faults_seen += 1;
            last_reason = reason;
            if attempt >= self.config.fault_tolerance.recovery.max_retries() {
                fault_event(env, RecoveryAction::FailFast, || reason.name().to_string());
                env.record(failed(job, reason, attempt, faults_seen));
                return;
            }
            fault_event(env, RecoveryAction::Retry, || reason.name().to_string());
            attempt += 1;
        }
    }
}

/// The trace marker of a shed request.
pub(crate) fn shed_event(reason: ShedReason) -> EventKind {
    EventKind::Instant {
        name: "shed".to_string(),
        detail: reason.name().to_string(),
        at_ns: now_ns(),
    }
}

fn fault_event<E: DispatchEnv>(env: &E, action: RecoveryAction, detail: impl FnOnce() -> String) {
    env.trace(|| EventKind::Fault {
        action,
        detail: detail(),
        at_ns: now_ns(),
    });
}

fn completed<P>(
    job: &Job<P>,
    finish: f64,
    entry: &LutEntry,
    retries: u32,
    faults_seen: u32,
    batch_size: usize,
) -> Outcome {
    Outcome::Completed(RequestRecord {
        latency: finish - job.arrival,
        queue_wait: job.queue_wait,
        met_deadline: finish <= job.deadline,
        accuracy: entry.norm_miou,
        config: entry.config,
        retries,
        faults_seen,
        tenant: job.tenant,
        ticket: Some(RequestTicket(job.seq)),
        batch_size: batch_size as u32,
    })
}

fn failed<P>(job: &Job<P>, reason: FailureReason, retries: u32, faults_seen: u32) -> Outcome {
    Outcome::Failed(FailureRecord {
        reason,
        retries,
        faults_seen,
        tenant: job.tenant,
        ticket: Some(RequestTicket(job.seq)),
    })
}

/// A synthetic 3-row LUT core for unit tests: costs 1/2/4 units,
/// accuracies 0.6/0.85/1.0. Nothing ever builds its graphs.
#[cfg(test)]
pub(crate) fn tiny_core() -> EngineCore {
    use vit_models::{SegFormerDynamic, SegFormerVariant};
    use vit_resilience::{DynConfig, TradeoffPoint};
    let point = |r: f64, a: f64| TradeoffPoint {
        label: String::new(),
        config: DynConfig::SegFormer(SegFormerDynamic::with_depths_and_fuse(
            &SegFormerVariant::b0(),
            [1, 1, 1, 1],
            ((r * 64.0) as usize).max(4),
        )),
        resource: r,
        norm_resource: r / 4.0,
        norm_miou: a,
    };
    let points = [point(1.0, 0.6), point(2.0, 0.85), point(4.0, 1.0)];
    let family = vit_drt::EngineFamily::SegFormer(SegFormerVariant::b0());
    EngineCore::new(
        family,
        150,
        (64, 64),
        vit_drt::Lut::from_points("tiny", &points),
    )
    .unwrap()
}
