//! Deterministic discrete-event simulation of the serving loop.
//!
//! Runs the dispatch core the threaded [`crate::Server`] runs
//! (`dispatch.rs`) under the same validated [`ServerConfig`]:
//! weighted-fair multi-tenant EDF dispatch, admission control at arrival
//! and at dispatch, a bounded queue, continuous batching, degraded retry.
//! What it replaces is the substrate: a *virtual* clock per worker, so a
//! load sweep is exactly reproducible under a fixed seed and independent
//! of the host machine, and a modeled executor. Service times are the
//! LUT's resource estimates scaled by a fixed seconds-per-unit rate;
//! inference outputs are not materialized (the metrics only need the
//! selected configuration and its accuracy estimate), which keeps
//! sweeping millions of requests over hundreds of operating points cheap.
//!
//! A [`SimModel`] carries what the simulator models and a server does not
//! have: the executor's rate, the marginal cost of a batch member, and
//! the fleet width. Five [`ServerConfig`] values do not apply to a modeled
//! executor and are ignored: `resource_kind` (arrivals carry slack, not a
//! typed request), `exec_threads` and `use_plans` (nothing executes),
//! `breaker_threshold` (the breaker never changes how a worker executes),
//! and `batching.window` (virtual time stands still while a batch forms,
//! so the window is zero-cost and coalesces exactly what is queued).
//! The watchdog, by contrast, is modeled as a real abort.
//!
//! Fleet scale: `replicas` simulates that many identical worker groups,
//! each with its own queue and `workers` workers; arrivals are routed
//! round-robin (by arrival order), modeling a stateless load balancer.

use crate::config::ServerConfig;
use crate::dispatch::{batch_secs, DispatchEnv, Dispatcher, Job, OrdF64};
use crate::fair::{CoalescePop, DispatchQueue};
use crate::metrics::ServerMetrics;
use crate::request::{FailureReason, Outcome, TenantId};
use crate::server::Calibration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vit_drt::{EngineCore, LutEntry};
use vit_fault::{FaultKind, FaultPlan};

/// One request arrival in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimArrival {
    /// Arrival (submission) time in virtual seconds.
    pub time: f64,
    /// Relative deadline: the request must finish by `time + slack`.
    pub slack: f64,
    /// The submitting tenant (default tenant when untagged).
    pub tenant: TenantId,
}

impl SimArrival {
    /// An arrival from the default tenant.
    pub fn new(time: f64, slack: f64) -> Self {
        SimArrival {
            time,
            slack,
            tenant: TenantId::default(),
        }
    }

    /// Re-tags the arrival with an explicit tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// What the simulator models that a [`ServerConfig`] does not say: how
/// fast the modeled executor runs, what batching costs, and how many
/// replicas the fleet has.
#[derive(Debug, Clone, Copy)]
pub struct SimModel {
    /// Virtual seconds one LUT resource unit takes to execute.
    pub calibration: Calibration,
    /// Marginal cost of each extra batched request, as a fraction of the
    /// single-request service time: a batch of `N` takes
    /// `expected × (1 + (N−1) × batch_marginal)` virtual seconds. The
    /// default 0.25 models the amortized-weight-streaming regime of the
    /// batch-N kernels.
    pub batch_marginal: f64,
    /// Identical worker-group replicas behind a round-robin load balancer.
    pub replicas: usize,
}

impl SimModel {
    /// One replica at `calibration`, with the default batch marginal.
    pub fn new(calibration: Calibration) -> Self {
        SimModel {
            calibration,
            batch_marginal: 0.25,
            replicas: 1,
        }
    }

    /// The first value outside its range, by field name: `secs_per_unit`
    /// must be finite and positive, `batch_marginal` finite and
    /// non-negative, `replicas` at least 1.
    pub(crate) fn invalid_field(&self) -> Option<&'static str> {
        let secs = self.calibration.secs_per_unit;
        let marginal = self.batch_marginal;
        [
            ("secs_per_unit", secs.is_finite() && secs > 0.0),
            ("batch_marginal", marginal.is_finite() && marginal >= 0.0),
            ("replicas", self.replicas > 0),
        ]
        .into_iter()
        .find_map(|(field, ok)| (!ok).then_some(field))
    }
}

/// Fraction of the expected service time a crashed attempt burns before
/// dying (a crash is detected mid-flight, not at the end of service).
const CRASH_BURN: f64 = 0.5;
/// Fraction of the expected service time a failed plan replay burns
/// before the executor reports it (replay validation fails fast).
const REPLAY_BURN: f64 = 0.05;

/// Runs the simulation of `config` over `arrivals` (any order; sorted
/// internally by arrival time, stably) and returns aggregate metrics in
/// virtual seconds.
///
/// # Panics
///
/// Panics when `config` fails [`ServerConfig::validate`], or when `model`
/// has a non-positive `secs_per_unit`, a negative or non-finite
/// `batch_marginal`, or zero `replicas`.
pub fn simulate(
    core: &EngineCore,
    config: &ServerConfig,
    model: SimModel,
    arrivals: &[SimArrival],
) -> ServerMetrics {
    ServerMetrics::from_outcomes(&simulate_outcomes(core, config, model, arrivals))
}

/// Like [`simulate`], but returns the raw per-request [`Outcome`]s instead
/// of aggregating them — callers that need distributions the aggregate
/// metrics do not carry (e.g. which configurations the *degraded*
/// completions ran, for fidelity measurement) post-process these.
///
/// # Panics
///
/// Same contract as [`simulate`].
pub fn simulate_outcomes(
    core: &EngineCore,
    config: &ServerConfig,
    model: SimModel,
    arrivals: &[SimArrival],
) -> Vec<Outcome> {
    config
        .validate()
        .expect("simulation run with an invalid configuration");
    if let Some(field) = model.invalid_field() {
        panic!("simulation model has an out-of-range {field}");
    }

    let mut sorted: Vec<SimArrival> = arrivals.to_vec();
    sorted.sort_by(|a, b| a.time.total_cmp(&b.time));

    // Round-robin load balancing over identical replicas: arrival i (in
    // time order) goes to replica i mod replicas. Each replica is an
    // independent queue + worker group; outcomes concatenate (aggregate
    // metrics are order-insensitive).
    (0..model.replicas)
        .flat_map(|r| {
            let share: Vec<SimArrival> = sorted
                .iter()
                .skip(r)
                .step_by(model.replicas)
                .copied()
                .collect();
            simulate_replica(core, config, model, &share)
        })
        .collect()
}

/// One simulated replica: its queue, its outcomes, and the virtual clock
/// of the worker currently dispatching.
struct Replica<'a> {
    config: &'a ServerConfig,
    model: SimModel,
    /// The armed fault plan, if any draws can fire.
    fault: Option<FaultPlan>,
    queue: DispatchQueue<OrdF64, Job<()>>,
    outcomes: Vec<Outcome>,
    /// The dispatching worker's clock: its start of service, advanced by
    /// every modeled pass.
    now: f64,
    /// When the dispatching worker is free again; a dispatch that runs
    /// nothing (a shed) leaves it unchanged.
    free_at: f64,
}

impl DispatchEnv for Replica<'_> {
    type Payload = ();

    fn now(&self) -> f64 {
        self.now
    }

    /// Virtual time stands still while a batch forms: the window is
    /// zero-cost and covers exactly what is already queued.
    fn pop_follower(
        &mut self,
        _window_end: f64,
        accept: &mut dyn FnMut(f64, f64) -> bool,
    ) -> Option<Job<()>> {
        let now = self.now;
        match self.queue.pop_if(|job| accept(job.deadline, now)) {
            CoalescePop::Item((_, _, job)) => Some(job),
            _ => None,
        }
    }

    /// The cost and fault model: a clean pass takes the LUT's resource
    /// estimate (batch-scaled by `batch_marginal`); a drawn fault burns
    /// part of it, or, for a stall past the watchdog allowance, exactly the
    /// allowance, when the watchdog aborts it.
    fn run(
        &mut self,
        members: &[Job<()>],
        entry: &LutEntry,
        attempt: u32,
    ) -> Result<(), FailureReason> {
        let expected = self.model.calibration.secs(entry.resource);
        let drawn = self.fault.and_then(|p| p.decide(members[0].seq, attempt));
        let (burned, result) = match drawn {
            Some(FaultKind::Crash) => (CRASH_BURN * expected, Err(FailureReason::Crash)),
            // Corruption runs to completion; the output guard catches it
            // there, so a full service time is burned.
            Some(FaultKind::BitFlip) => (expected, Err(FailureReason::GuardTripped)),
            Some(FaultKind::Stall) => {
                let factor = self.fault.expect("drawn implies a plan").stall_factor;
                let actual = expected * factor.max(1.0);
                let allowance = expected * self.config.fault_tolerance.watchdog_grace;
                if actual > allowance {
                    (allowance, Err(FailureReason::Watchdog))
                } else {
                    (actual, Ok(()))
                }
            }
            Some(FaultKind::PlanReplay) => (REPLAY_BURN * expected, Err(FailureReason::PlanReplay)),
            // No fault (or an unknown future kind): clean service.
            _ => (
                batch_secs(expected, members.len(), self.model.batch_marginal),
                Ok(()),
            ),
        };
        self.now += burned;
        self.free_at = self.now;
        result
    }

    fn record(&mut self, outcome: Outcome) {
        self.outcomes.push(outcome);
    }
}

/// Simulates one replica over its (time-sorted) share of the arrivals.
fn simulate_replica(
    core: &EngineCore,
    config: &ServerConfig,
    model: SimModel,
    sorted: &[SimArrival],
) -> Vec<Outcome> {
    let secs_per_unit = model.calibration.secs_per_unit;
    let dispatcher = Dispatcher::new(core, config, secs_per_unit, model.batch_marginal);
    let mut env = Replica {
        config,
        model,
        fault: config.fault_tolerance.active_plan(),
        queue: DispatchQueue::bounded(config.queue_depth, &config.tenancy.tenants),
        outcomes: Vec::with_capacity(sorted.len()),
        now: 0.0,
        free_at: 0.0,
    };
    // When each worker becomes free, as a min-heap.
    let mut workers: BinaryHeap<Reverse<OrdF64>> =
        (0..config.workers).map(|_| Reverse(OrdF64(0.0))).collect();
    // Sheds never consume a sequence number, so the admitted requests'
    // fault-draw identities do not depend on what was shed around them.
    let mut next_seq = 0u64;
    let mut admit = |a: &SimArrival, env: &mut Replica| {
        let job = Job {
            seq: next_seq,
            tenant: a.tenant,
            arrival: a.time,
            deadline: a.time + a.slack,
            queue_wait: 0.0,
            payload: (),
        };
        let key = OrdF64(job.deadline);
        match dispatcher.admit(a.slack, a.tenant, || env.queue.try_push(a.tenant, key, job)) {
            Ok(()) => next_seq += 1,
            Err(shed) => env.outcomes.push(Outcome::Shed(shed)),
        }
    };

    let mut arrivals = sorted.iter().peekable();
    loop {
        let free_at = workers.peek().expect("worker heap never empties").0 .0;
        // Everything that has arrived by the time a worker frees must be
        // visible to that dispatch decision (EDF is over *queued* work).
        while let Some(a) = arrivals.next_if(|a| a.time <= free_at) {
            admit(a, &mut env);
        }
        let Some((_, _, leader)) = env.queue.pop() else {
            // Idle: jump to the next arrival, or stop once drained.
            match arrivals.next() {
                Some(a) => {
                    admit(a, &mut env);
                    continue;
                }
                None => break,
            }
        };
        // Dispatch the weighted-fair-EDF head on the earliest free worker.
        workers.pop();
        env.free_at = free_at;
        env.now = free_at.max(leader.arrival);
        dispatcher.dispatch(&mut env, leader);
        workers.push(Reverse(OrdF64(env.free_at)));
    }
    env.outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerConfigBuilder, TenantSpec};
    use crate::dispatch::tiny_core;
    use crate::policy::{RecoveryPolicy, SchedulePolicy};

    /// One replica at one virtual second per LUT unit.
    fn unit() -> SimModel {
        SimModel::new(Calibration::from_secs_per_unit(1.0))
    }

    fn server(workers: usize, queue_depth: usize) -> ServerConfigBuilder {
        ServerConfig::builder()
            .workers(workers)
            .queue_depth(queue_depth)
    }

    fn uniform_arrivals(n: usize, gap: f64, slack: f64) -> Vec<SimArrival> {
        (0..n)
            .map(|i| SimArrival::new(i as f64 * gap, slack))
            .collect()
    }

    #[test]
    fn underload_runs_full_model_on_time() {
        let core = tiny_core();
        let m = simulate(
            &core,
            &server(2, 16).build().unwrap(),
            unit(),
            // One arrival every 4s on 2 workers; service <= 4s: no queueing.
            &uniform_arrivals(20, 4.0, 8.0),
        );
        assert!(m.accounts_for_all_submissions());
        assert_eq!(m.shed(), 0);
        assert_eq!(m.deadline_misses, 0);
        // Plenty of slack: every request runs the full (1.0) model.
        assert!((m.mean_delivered_accuracy - 1.0).abs() < 1e-12);
        assert_eq!(m.config_histogram.len(), 1);
    }

    #[test]
    fn overload_degrades_accuracy_instead_of_missing() {
        let core = tiny_core();
        let cfg = |policy| server(1, 8).policy(policy).build().unwrap();
        // Offered load 2x capacity of the full model (arrival every 2s,
        // full service 4s), with slack that fits the full model only when
        // the queue is empty.
        let arrivals = uniform_arrivals(60, 2.0, 5.0);
        let drt = simulate(&core, &cfg(SchedulePolicy::DrtDynamic), unit(), &arrivals);
        let stat = simulate(
            &core,
            &cfg(SchedulePolicy::static_full()),
            unit(),
            &arrivals,
        );
        assert!(drt.accounts_for_all_submissions());
        assert!(stat.accounts_for_all_submissions());
        assert!(
            drt.deadline_miss_rate < stat.deadline_miss_rate,
            "DRT {} vs static {}",
            drt.deadline_miss_rate,
            stat.deadline_miss_rate
        );
        assert!(drt.mean_delivered_accuracy > stat.mean_delivered_accuracy);
        // DRT adapts: more than one configuration gets used.
        assert!(drt.config_histogram.len() > 1);
    }

    #[test]
    fn simulation_is_deterministic() {
        let core = tiny_core();
        let cfg = server(3, 8).build().unwrap();
        let model = SimModel::new(Calibration::from_secs_per_unit(0.01));
        let arrivals = uniform_arrivals(100, 0.013, 0.07);
        let a = simulate(&core, &cfg, model, &arrivals);
        let b = simulate(&core, &cfg, model, &arrivals);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.p99_latency, b.p99_latency);
        assert_eq!(a.config_histogram, b.config_histogram);
    }

    #[test]
    fn chaos_is_deterministic_and_conserves_requests() {
        let core = tiny_core();
        let plan = FaultPlan {
            seed: 7,
            crash_rate: 0.1,
            bitflip_rate: 0.08,
            stall_rate: 0.08,
            stall_factor: 6.0,
            replay_rate: 0.04,
        };
        let cfg = server(2, 16).fault(plan).build().unwrap();
        let arrivals = uniform_arrivals(200, 2.1, 9.0);
        let a = simulate(&core, &cfg, unit(), &arrivals);
        let b = simulate(&core, &cfg, unit(), &arrivals);
        assert!(a.accounts_for_all_submissions());
        assert!(a.faults_seen > 0, "rates this high must draw faults");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.fault_failures, b.fault_failures);
        assert_eq!(a.faults_seen, b.faults_seen);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.p99_latency, b.p99_latency);
        assert_eq!(a.failure_histogram, b.failure_histogram);
    }

    #[test]
    fn degraded_retry_beats_fail_fast_on_goodput_under_faults() {
        let core = tiny_core();
        let plan = FaultPlan {
            seed: 11,
            crash_rate: 0.15,
            bitflip_rate: 0.10,
            stall_rate: 0.0,
            stall_factor: 1.0,
            replay_rate: 0.0,
        };
        let arrivals = uniform_arrivals(300, 2.5, 10.0);
        let cfg = |rec| server(2, 16).fault(plan).recovery(rec).build().unwrap();
        let healing = simulate(
            &core,
            &cfg(RecoveryPolicy::DegradedRetry { max_retries: 2 }),
            unit(),
            &arrivals,
        );
        let brittle = simulate(&core, &cfg(RecoveryPolicy::FailFast), unit(), &arrivals);
        assert!(healing.accounts_for_all_submissions());
        assert!(brittle.accounts_for_all_submissions());
        assert!(
            healing.goodput > brittle.goodput,
            "degraded retry {} vs fail fast {}",
            healing.goodput,
            brittle.goodput
        );
        assert!(healing.degraded_completions > 0);
        assert_eq!(brittle.retries, 0, "fail fast never retries");
    }

    #[test]
    fn watchdog_aborts_hopeless_stalls() {
        let core = tiny_core();
        // Every request stalls 10x; grace 4x means every first attempt is
        // aborted by the watchdog at 4x expected.
        let plan = FaultPlan {
            seed: 3,
            crash_rate: 0.0,
            bitflip_rate: 0.0,
            stall_rate: 1.0,
            stall_factor: 10.0,
            replay_rate: 0.0,
        };
        let cfg = server(1, 8)
            .fault(plan)
            .recovery(RecoveryPolicy::FailFast)
            .build()
            .unwrap();
        let m = simulate(&core, &cfg, unit(), &uniform_arrivals(10, 50.0, 40.0));
        assert_eq!(m.completed, 0);
        assert_eq!(m.fault_failures, 10);
        assert_eq!(m.failure_histogram, vec![(FailureReason::Watchdog, 10)]);
    }

    #[test]
    fn replay_failure_is_retried_like_any_other_failure() {
        let core = tiny_core();
        // Replay always fails and every attempt draws its fault afresh, so
        // each request exhausts its retries and fails on the replay fault.
        let plan = FaultPlan {
            seed: 5,
            crash_rate: 0.0,
            bitflip_rate: 0.0,
            stall_rate: 0.0,
            stall_factor: 1.0,
            replay_rate: 1.0,
        };
        let cfg = server(1, 8)
            .fault(plan)
            .recovery(RecoveryPolicy::DegradedRetry { max_retries: 2 })
            .build()
            .unwrap();
        let m = simulate(&core, &cfg, unit(), &uniform_arrivals(10, 50.0, 40.0));
        assert!(m.accounts_for_all_submissions());
        assert_eq!(m.completed, 0);
        assert_eq!(m.fault_failures, 10);
        assert_eq!(m.failure_histogram, vec![(FailureReason::PlanReplay, 10)]);
        assert_eq!(m.faults_seen, 30, "three attempts per request");
        assert_eq!(m.retries, 20, "two retries per request");
    }

    #[test]
    fn impossible_slack_is_shed_at_admission() {
        let core = tiny_core();
        let m = simulate(
            &core,
            &server(1, 4).build().unwrap(),
            unit(),
            // Slack 0.5 < cheapest cost 1.0: nothing can ever be served.
            &uniform_arrivals(10, 1.0, 0.5),
        );
        assert_eq!(m.completed, 0);
        assert_eq!(m.shed_no_slack, 10);
        assert!(m.accounts_for_all_submissions());
    }

    #[test]
    fn batching_strictly_improves_goodput_at_overload() {
        let core = tiny_core();
        // Bursts of 8 simultaneous same-slack requests: one worker serving
        // them one-by-one (4s each at full) exhausts the later requests'
        // slack, while one batch-8 pass (4 × (1 + 7×0.25) = 11s) lands the
        // whole burst inside its 12s slack.
        let mut arrivals: Vec<SimArrival> = Vec::new();
        for burst in 0..20 {
            for _ in 0..8 {
                arrivals.push(SimArrival::new(burst as f64 * 12.0, 12.0));
            }
        }
        let unbatched = server(1, 16).build().unwrap();
        let batched = server(1, 16).max_batch(8).build().unwrap();
        let mu = simulate(&core, &unbatched, unit(), &arrivals);
        let mb = simulate(&core, &batched, unit(), &arrivals);
        assert!(mu.accounts_for_all_submissions());
        assert!(mb.accounts_for_all_submissions());
        assert!(mb.batched_completions > 0, "overload must coalesce");
        assert!(
            mb.goodput > mu.goodput,
            "batched {} vs unbatched {}",
            mb.goodput,
            mu.goodput
        );
        // Every batch member shares one pass but keeps its own record.
        assert!(mb.mean_batch_size > 1.0);
    }

    #[test]
    fn batch_of_requests_share_config_and_finish_time() {
        let core = tiny_core();
        // Two workers idle at t=0; 4 identical-slack arrivals at t=0: the
        // first worker batches what is queued when it dispatches.
        let arrivals: Vec<SimArrival> = (0..4).map(|_| SimArrival::new(0.0, 20.0)).collect();
        let cfg = server(1, 8).max_batch(4).build().unwrap();
        let outcomes = simulate_outcomes(&core, &cfg, unit(), &arrivals);
        let records: Vec<_> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Completed(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.batch_size == 4));
        assert!(records.iter().all(|r| r.config == records[0].config));
        assert!(records.iter().all(|r| r.met_deadline));
        // Same pass: same finish instant, hence identical latencies here
        // (all arrived together).
        assert!(records.iter().all(|r| r.latency == records[0].latency));
    }

    #[test]
    fn mixed_config_queue_never_coalesces_across_configs() {
        let core = tiny_core();
        // Both arrive together and both are admissible, but their slacks
        // resolve to different LUT rows: 3 units buys the mid (2-unit)
        // path, 30 units the full (4-unit) path. The coalescing predicate
        // must refuse to pull the full-config request into the mid-config
        // leader's batch even though a slot is free.
        let arrivals = vec![SimArrival::new(0.0, 3.0), SimArrival::new(0.0, 30.0)];
        let cfg = server(1, 8).max_batch(8).build().unwrap();
        let outcomes = simulate_outcomes(&core, &cfg, unit(), &arrivals);
        let records: Vec<_> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Completed(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 2);
        assert!(
            records.iter().all(|r| r.batch_size == 1),
            "different configs must serve as singles, not one mixed batch"
        );
        assert_ne!(
            records[0].config, records[1].config,
            "the two slacks must really select different paths"
        );
        let m = ServerMetrics::from_outcomes(&outcomes);
        assert_eq!(m.batched_completions, 0);
        assert_eq!(m.config_histogram.len(), 2);
    }

    #[test]
    fn chaos_disables_batching_for_replay_determinism() {
        let core = tiny_core();
        let plan = FaultPlan {
            seed: 9,
            crash_rate: 0.2,
            bitflip_rate: 0.0,
            stall_rate: 0.0,
            stall_factor: 1.0,
            replay_rate: 0.0,
        };
        let cfg = server(2, 16).fault(plan).max_batch(8).build().unwrap();
        let m = simulate(&core, &cfg, unit(), &uniform_arrivals(100, 2.1, 9.0));
        assert!(m.accounts_for_all_submissions());
        assert_eq!(m.batched_completions, 0, "armed faults must not batch");
        // And the run matches the batching-free config exactly.
        let plain = server(2, 16).fault(plan).build().unwrap();
        let p = simulate(&core, &plain, unit(), &uniform_arrivals(100, 2.1, 9.0));
        assert_eq!(m.completed, p.completed);
        assert_eq!(m.faults_seen, p.faults_seen);
        assert_eq!(m.p99_latency, p.p99_latency);
    }

    #[test]
    fn replicas_scale_capacity_and_stay_deterministic() {
        let core = tiny_core();
        let arrivals = uniform_arrivals(400, 0.7, 6.0);
        let cfg = server(1, 16).build().unwrap();
        let four = SimModel {
            replicas: 4,
            ..unit()
        };
        let m1 = simulate(&core, &cfg, unit(), &arrivals);
        let m4 = simulate(&core, &cfg, four, &arrivals);
        assert!(m1.accounts_for_all_submissions());
        assert!(m4.accounts_for_all_submissions());
        assert_eq!(m4.submitted, 400, "replicas conserve every arrival");
        assert!(
            m4.goodput > m1.goodput,
            "4 replicas {} vs 1 replica {}",
            m4.goodput,
            m1.goodput
        );
        let again = simulate(&core, &cfg, four, &arrivals);
        assert_eq!(m4.completed, again.completed);
        assert_eq!(m4.p99_latency, again.p99_latency);
    }

    #[test]
    fn tenant_quota_protects_the_light_tenant() {
        let core = tiny_core();
        let heavy = TenantId(1);
        let light = TenantId(2);
        // Tenant 1 floods (10x the rate of tenant 2) into a shared queue;
        // its quota caps it at half the queue, so tenant 2 keeps serving.
        let mut arrivals: Vec<SimArrival> = Vec::new();
        for i in 0..400 {
            arrivals.push(SimArrival::new(i as f64 * 0.4, 8.0).with_tenant(heavy));
        }
        for i in 0..40 {
            arrivals.push(SimArrival::new(i as f64 * 4.0, 8.0).with_tenant(light));
        }
        let cfg = server(1, 8)
            .tenant(TenantSpec::new(heavy).with_queue_share(0.5))
            .tenant(TenantSpec::new(light).with_queue_share(0.5))
            .build()
            .unwrap();
        let m = simulate(&core, &cfg, unit(), &arrivals);
        assert!(m.accounts_for_all_submissions());
        assert!(m.shed_over_quota > 0, "the flood must hit the quota");
        let mh = *m.tenant(heavy).unwrap();
        let ml = *m.tenant(light).unwrap();
        // Each tenant's rates partition its own submissions.
        assert!((mh.goodput + mh.miss_rate + mh.shed_rate - 1.0).abs() < 1e-9);
        assert!((ml.goodput + ml.miss_rate + ml.shed_rate - 1.0).abs() < 1e-9);
        // Only the flooding tenant pays the quota sheds, and the light
        // tenant keeps materially better goodput than the flooder.
        assert_eq!(ml.shed_over_quota, 0);
        assert!(mh.shed_over_quota > 0);
        assert!(
            ml.goodput > mh.goodput,
            "light {} vs heavy {}",
            ml.goodput,
            mh.goodput
        );
    }
}
