//! Request and per-request outcome types.

use std::fmt;
use std::time::Instant;
use vit_drt::LutConfig;
use vit_resilience::ResourceKind;
use vit_tensor::Tensor;

/// Identifies the tenant a request belongs to for quota accounting and
/// weighted-fair scheduling. Tenant `0` is the default tenant; a server
/// with no explicit tenancy configuration treats all traffic as tenant 0
/// and degenerates to pure EDF scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// The correlation handle [`crate::Server::submit`] returns for an admitted
/// request. The same ticket appears on the request's terminal
/// [`RequestRecord`] / [`FailureRecord`] / in-queue [`ShedRecord`], so
/// callers can match completions back to submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestTicket(pub u64);

impl fmt::Display for RequestTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ticket{}", self.0)
    }
}

/// One inference request submitted to a [`crate::Server`].
#[derive(Debug)]
pub struct InferenceRequest {
    /// The input image (`[1, 3, h, w]`, matching the engine's image size).
    pub image: Tensor,
    /// Absolute completion deadline. The scheduler turns remaining slack
    /// (`deadline − now`) into the DRT resource budget at dispatch time.
    pub deadline: Instant,
    /// The resource dimension the deadline is stated in. Must match the
    /// kind the server's LUT was swept with; a mismatched request is
    /// rejected at submission.
    pub resource_kind: ResourceKind,
    /// The submitting tenant, for quota and fair-share accounting.
    pub tenant: TenantId,
}

impl InferenceRequest {
    /// A request from the default tenant.
    pub fn new(image: Tensor, deadline: Instant, resource_kind: ResourceKind) -> Self {
        InferenceRequest {
            image,
            deadline,
            resource_kind,
            tenant: TenantId::default(),
        }
    }

    /// Re-tags the request with an explicit tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Why a request was shed instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ShedReason {
    /// The bounded queue was full at submission (overload backpressure).
    QueueFull,
    /// Remaining slack was already below the cheapest LUT entry's cost at
    /// admission — executing could not possibly meet the deadline.
    SlackBelowCheapest,
    /// Slack ran out while the request waited in the queue; detected at
    /// dispatch, before wasting worker time on a hopeless request.
    SlackExhausted,
    /// The submitting tenant already holds its full queue share; admitting
    /// more would let one tenant starve the rest.
    OverQuota,
}

impl ShedReason {
    /// Stable lower-snake name, used in log lines and trace event details.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::SlackBelowCheapest => "slack_below_cheapest",
            ShedReason::SlackExhausted => "slack_exhausted",
            ShedReason::OverQuota => "over_quota",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The terminal record of a shed request.
#[derive(Debug, Clone)]
pub struct ShedRecord {
    /// Why the request was shed.
    pub reason: ShedReason,
    /// The tenant whose request was shed.
    pub tenant: TenantId,
    /// The admission ticket, for requests that were admitted and later
    /// shed in-queue ([`ShedReason::SlackExhausted`]). `None` for requests
    /// refused at submission, which never received a ticket.
    pub ticket: Option<RequestTicket>,
}

impl ShedRecord {
    /// A shed refused at submission (no ticket, default tenant).
    pub fn at_admission(reason: ShedReason, tenant: TenantId) -> Self {
        ShedRecord {
            reason,
            tenant,
            ticket: None,
        }
    }
}

/// Why a request ultimately failed (after exhausting any retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FailureReason {
    /// An injected worker crash killed the attempt.
    Crash,
    /// An output guard caught a corrupted (non-finite or absurd-magnitude)
    /// activation before it could reach the client.
    GuardTripped,
    /// A compiled-plan replay failure (and retries, if any, also failed).
    PlanReplay,
    /// The execution watchdog aborted an attempt that overran its
    /// slack-derived allowance.
    Watchdog,
    /// Any other engine error.
    Engine,
}

impl FailureReason {
    /// Stable lower-snake name, used in log lines and trace event details.
    pub fn name(self) -> &'static str {
        match self {
            FailureReason::Crash => "crash",
            FailureReason::GuardTripped => "guard_tripped",
            FailureReason::PlanReplay => "plan_replay",
            FailureReason::Watchdog => "watchdog",
            FailureReason::Engine => "engine",
        }
    }
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The terminal record of a request that dispatched but never produced a
/// result — every attempt the recovery policy allowed faulted.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Why the final attempt failed.
    pub reason: FailureReason,
    /// Re-attempts made after the first failed one.
    pub retries: u32,
    /// Faults observed across all attempts of this request.
    pub faults_seen: u32,
    /// The tenant that submitted the request.
    pub tenant: TenantId,
    /// The admission ticket, for correlating with the submission.
    pub ticket: Option<RequestTicket>,
}

/// What finally happened to one completed (executed) request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Submission → completion, in seconds (virtual or wall).
    pub latency: f64,
    /// Submission → dispatch, in seconds.
    pub queue_wait: f64,
    /// Whether the request finished at or before its deadline.
    pub met_deadline: bool,
    /// The LUT's normalized-mIoU estimate of the configuration that ran.
    pub accuracy: f64,
    /// The execution path that ran.
    pub config: LutConfig,
    /// Re-attempts it took to complete (0 = clean first attempt; > 0 means
    /// this is a *degraded* completion produced by fault recovery).
    pub retries: u32,
    /// Faults observed across all attempts of this request.
    pub faults_seen: u32,
    /// The tenant that submitted the request.
    pub tenant: TenantId,
    /// The admission ticket, for correlating with the submission.
    pub ticket: Option<RequestTicket>,
    /// How many requests shared the engine pass that served this one
    /// (1 = unbatched; > 1 = coalesced into a batch-N execution).
    pub batch_size: u32,
}

impl RequestRecord {
    /// Accuracy actually delivered to the client: the configuration's
    /// estimate when the deadline was met, zero for a late result (a
    /// missed deadline delivers no usable output in a real-time system).
    pub fn delivered_accuracy(&self) -> f64 {
        if self.met_deadline {
            self.accuracy
        } else {
            0.0
        }
    }

    /// Whether fault recovery degraded this request to a retry attempt.
    pub fn is_degraded(&self) -> bool {
        self.retries > 0
    }
}

/// The terminal state of one submitted request.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The request executed (possibly late).
    Completed(RequestRecord),
    /// The request was shed without executing.
    Shed(ShedRecord),
    /// The request dispatched but every allowed attempt faulted.
    Failed(FailureRecord),
}
