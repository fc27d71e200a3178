//! Server configuration: nested knob groups behind a validated builder.
//!
//! [`ServerConfig`] groups the batching, fault-tolerance, and tenancy knobs
//! into dedicated structs and is constructed through
//! [`ServerConfig::builder`], which validates every field before a server
//! can be started with it.

use crate::policy::{RecoveryPolicy, SchedulePolicy};
use crate::request::TenantId;
use std::fmt;
use vit_fault::FaultPlan;
use vit_resilience::ResourceKind;

/// Cross-request batching knobs.
///
/// Queued requests whose slack→budget policy resolves to the same LUT
/// configuration are coalesced into one batch-N engine pass. Batching is
/// off by default (`max_batch == 1`) and is automatically disabled while a
/// fault-injection plan is armed, so chaos runs keep their per-request
/// replay determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Largest number of requests one engine pass may serve.
    pub max_batch: usize,
    /// How long (seconds) a dispatching worker holds the batch open
    /// waiting for more same-config requests. `0.0` coalesces only what is
    /// already queued.
    pub window: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 1,
            window: 0.0,
        }
    }
}

/// Fault injection, recovery, and health knobs.
#[derive(Debug, Clone, Copy)]
pub struct FaultToleranceConfig {
    /// Deterministic fault injection plan. `None` (the default) serves
    /// cleanly — workers still run the output guard, but no faults are
    /// drawn. With a plan, every attempt is armed with
    /// `(plan, request seq, attempt)` so a chaos run replays byte-for-byte
    /// regardless of thread interleaving.
    pub fault: Option<FaultPlan>,
    /// What workers do when an attempt faults.
    pub recovery: RecoveryPolicy,
    /// Watchdog allowance as a multiple of the selected entry's expected
    /// execution time. The threaded server cannot abort a running
    /// inference, so an overrun is *observed* (a `watchdog` detection
    /// event) rather than enforced; the discrete-event simulator models
    /// the true abort.
    pub watchdog_grace: f64,
    /// Consecutive failures on one worker that open its circuit breaker.
    /// An open breaker forces that worker onto the conservative
    /// interpreter path until a success closes it; when every worker's
    /// breaker is open, [`crate::Server::submit`] refuses new work.
    pub breaker_threshold: usize,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            fault: None,
            recovery: RecoveryPolicy::default(),
            watchdog_grace: 4.0,
            breaker_threshold: 3,
        }
    }
}

/// One tenant's scheduling weight and queue quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The tenant this spec applies to.
    pub id: TenantId,
    /// Weighted-fair share: a tenant with weight 2 is dispatched twice as
    /// often as a tenant with weight 1 when both have work queued. Must be
    /// positive.
    pub weight: f64,
    /// Largest fraction of the queue this tenant may occupy, in `(0, 1]`.
    /// Submissions beyond the quota are shed with
    /// [`crate::ShedReason::OverQuota`].
    pub max_queue_share: f64,
}

impl TenantSpec {
    /// An even-weighted tenant with full queue share.
    pub fn new(id: TenantId) -> Self {
        TenantSpec {
            id,
            weight: 1.0,
            max_queue_share: 1.0,
        }
    }

    /// Sets the fair-share weight.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the queue-share quota.
    #[must_use]
    pub fn with_queue_share(mut self, share: f64) -> Self {
        self.max_queue_share = share;
        self
    }
}

/// Multi-tenant admission configuration.
///
/// The default (no explicit tenants) treats all traffic as one tenant with
/// full queue share, which degenerates to the pre-tenancy pure-EDF
/// behavior. Tenants not listed here get weight 1 and full share.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenancyConfig {
    /// Per-tenant specs; empty means single-tenant operation.
    pub tenants: Vec<TenantSpec>,
}

/// A rejected [`ServerConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `workers` must be at least 1.
    ZeroWorkers,
    /// `queue_depth` must be at least 1.
    ZeroQueueDepth,
    /// `exec_threads` must be at least 1.
    ZeroExecThreads,
    /// `batching.max_batch` must be at least 1.
    ZeroMaxBatch,
    /// `batching.window` must be finite and non-negative.
    BadBatchWindow {
        /// The rejected window.
        window: f64,
    },
    /// `fault_tolerance.watchdog_grace` must be finite and positive.
    BadWatchdogGrace {
        /// The rejected grace multiple.
        grace: f64,
    },
    /// `fault_tolerance.breaker_threshold` must be at least 1.
    ZeroBreakerThreshold,
    /// A tenant's fair-share weight must be finite and positive.
    BadTenantWeight {
        /// The offending tenant.
        tenant: TenantId,
        /// The rejected weight.
        weight: f64,
    },
    /// A tenant's queue share must lie in `(0, 1]`.
    BadTenantShare {
        /// The offending tenant.
        tenant: TenantId,
        /// The rejected share.
        share: f64,
    },
    /// The same tenant id appears twice in the tenancy config.
    DuplicateTenant {
        /// The duplicated tenant.
        tenant: TenantId,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "server needs at least one worker"),
            ConfigError::ZeroQueueDepth => write!(f, "queue depth must be at least 1"),
            ConfigError::ZeroExecThreads => write!(f, "execution pool needs at least one thread"),
            ConfigError::ZeroMaxBatch => write!(f, "max batch size must be at least 1"),
            ConfigError::BadBatchWindow { window } => {
                write!(f, "batch window must be finite and >= 0, got {window}")
            }
            ConfigError::BadWatchdogGrace { grace } => {
                write!(f, "watchdog grace must be finite and > 0, got {grace}")
            }
            ConfigError::ZeroBreakerThreshold => {
                write!(f, "circuit breaker threshold must be at least 1")
            }
            ConfigError::BadTenantWeight { tenant, weight } => {
                write!(f, "{tenant} has non-positive fair-share weight {weight}")
            }
            ConfigError::BadTenantShare { tenant, share } => {
                write!(f, "{tenant} has queue share {share} outside (0, 1]")
            }
            ConfigError::DuplicateTenant { tenant } => {
                write!(f, "{tenant} is configured twice")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Server topology and scheduling configuration.
///
/// Construct through [`ServerConfig::builder`]; `Default` is the valid
/// baseline (4 workers, depth 64, plan replay, no batching, single tenant).
///
/// # Examples
///
/// ```
/// use vit_serve::ServerConfig;
///
/// let config = ServerConfig::builder()
///     .workers(2)
///     .queue_depth(32)
///     .max_batch(8)
///     .batch_window(0.002)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.workers, 2);
/// assert_eq!(config.batching.max_batch, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads sharing the engine core.
    pub workers: usize,
    /// Capacity of the dispatch queue (at most this many admitted requests
    /// wait at once).
    pub queue_depth: usize,
    /// The resource dimension deadlines are stated in; requests with a
    /// different kind are rejected.
    pub resource_kind: ResourceKind,
    /// How budgets are chosen.
    pub policy: SchedulePolicy,
    /// Total threads of the intra-inference execution pool shared by all
    /// workers (1 = each worker runs its inference sequentially). One pool
    /// is shared so concurrent inferences cooperate on the machine's cores
    /// instead of oversubscribing them `workers ×`.
    pub exec_threads: usize,
    /// Run inferences by replaying compiled execution plans (the default)
    /// instead of interpreting graphs. Outputs are bit-identical either
    /// way; plans trade a one-time per-config compilation (cached in the
    /// shared engine core) for lower per-inference overhead.
    pub use_plans: bool,
    /// Cross-request batching knobs.
    pub batching: BatchConfig,
    /// Fault injection, recovery, watchdog, and breaker knobs.
    pub fault_tolerance: FaultToleranceConfig,
    /// Per-tenant quotas and fair-share weights.
    pub tenancy: TenancyConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            resource_kind: ResourceKind::GpuTime,
            policy: SchedulePolicy::DrtDynamic,
            exec_threads: 1,
            use_plans: true,
            batching: BatchConfig::default(),
            fault_tolerance: FaultToleranceConfig::default(),
            tenancy: TenancyConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }

    /// Validates an already-assembled configuration — what
    /// [`ServerConfigBuilder::build`] runs.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.exec_threads == 0 {
            return Err(ConfigError::ZeroExecThreads);
        }
        if self.batching.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if !self.batching.window.is_finite() || self.batching.window < 0.0 {
            return Err(ConfigError::BadBatchWindow {
                window: self.batching.window,
            });
        }
        let grace = self.fault_tolerance.watchdog_grace;
        if !grace.is_finite() || grace <= 0.0 {
            return Err(ConfigError::BadWatchdogGrace { grace });
        }
        if self.fault_tolerance.breaker_threshold == 0 {
            return Err(ConfigError::ZeroBreakerThreshold);
        }
        for (i, t) in self.tenancy.tenants.iter().enumerate() {
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(ConfigError::BadTenantWeight {
                    tenant: t.id,
                    weight: t.weight,
                });
            }
            if !t.max_queue_share.is_finite() || t.max_queue_share <= 0.0 || t.max_queue_share > 1.0
            {
                return Err(ConfigError::BadTenantShare {
                    tenant: t.id,
                    share: t.max_queue_share,
                });
            }
            if self.tenancy.tenants[..i].iter().any(|u| u.id == t.id) {
                return Err(ConfigError::DuplicateTenant { tenant: t.id });
            }
        }
        Ok(())
    }
}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Worker threads sharing the engine core.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Capacity of the dispatch queue.
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// The resource dimension deadlines are stated in.
    #[must_use]
    pub fn resource_kind(mut self, kind: ResourceKind) -> Self {
        self.config.resource_kind = kind;
        self
    }

    /// How budgets are chosen.
    #[must_use]
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Threads of the shared intra-inference execution pool.
    #[must_use]
    pub fn exec_threads(mut self, threads: usize) -> Self {
        self.config.exec_threads = threads;
        self
    }

    /// Serve by replaying compiled plans instead of interpreting graphs.
    #[must_use]
    pub fn use_plans(mut self, use_plans: bool) -> Self {
        self.config.use_plans = use_plans;
        self
    }

    /// Largest number of requests one engine pass may serve.
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.batching.max_batch = max_batch;
        self
    }

    /// How long a dispatching worker holds a batch open, in seconds.
    #[must_use]
    pub fn batch_window(mut self, window: f64) -> Self {
        self.config.batching.window = window;
        self
    }

    /// Arms deterministic fault injection.
    #[must_use]
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.config.fault_tolerance.fault = Some(plan);
        self
    }

    /// What workers do when an attempt faults.
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.fault_tolerance.recovery = recovery;
        self
    }

    /// Watchdog allowance as a multiple of the expected execution time.
    #[must_use]
    pub fn watchdog_grace(mut self, grace: f64) -> Self {
        self.config.fault_tolerance.watchdog_grace = grace;
        self
    }

    /// Consecutive failures that open a worker's circuit breaker.
    #[must_use]
    pub fn breaker_threshold(mut self, threshold: usize) -> Self {
        self.config.fault_tolerance.breaker_threshold = threshold;
        self
    }

    /// Adds one tenant spec.
    #[must_use]
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.config.tenancy.tenants.push(spec);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] a knob violates.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServerConfig::default().validate().is_ok());
        assert!(ServerConfig::builder().build().is_ok());
    }

    #[test]
    fn builder_rejects_each_bad_knob() {
        assert_eq!(
            ServerConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::ZeroWorkers
        );
        assert_eq!(
            ServerConfig::builder().queue_depth(0).build().unwrap_err(),
            ConfigError::ZeroQueueDepth
        );
        assert_eq!(
            ServerConfig::builder().exec_threads(0).build().unwrap_err(),
            ConfigError::ZeroExecThreads
        );
        assert_eq!(
            ServerConfig::builder().max_batch(0).build().unwrap_err(),
            ConfigError::ZeroMaxBatch
        );
        assert!(matches!(
            ServerConfig::builder().batch_window(-1.0).build(),
            Err(ConfigError::BadBatchWindow { .. })
        ));
        assert!(matches!(
            ServerConfig::builder().watchdog_grace(0.0).build(),
            Err(ConfigError::BadWatchdogGrace { .. })
        ));
        assert_eq!(
            ServerConfig::builder()
                .breaker_threshold(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroBreakerThreshold
        );
    }

    #[test]
    fn builder_rejects_bad_tenants() {
        let t = TenantId(7);
        assert!(matches!(
            ServerConfig::builder()
                .tenant(TenantSpec::new(t).with_weight(0.0))
                .build(),
            Err(ConfigError::BadTenantWeight { tenant, .. }) if tenant == t
        ));
        assert!(matches!(
            ServerConfig::builder()
                .tenant(TenantSpec::new(t).with_queue_share(1.5))
                .build(),
            Err(ConfigError::BadTenantShare { tenant, .. }) if tenant == t
        ));
        assert!(matches!(
            ServerConfig::builder()
                .tenant(TenantSpec::new(t))
                .tenant(TenantSpec::new(t))
                .build(),
            Err(ConfigError::DuplicateTenant { tenant }) if tenant == t
        ));
    }

    #[test]
    fn errors_display_the_offending_value() {
        let e = ServerConfig::builder()
            .batch_window(f64::NAN)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("batch window"));
        let e = ServerConfig::builder()
            .tenant(TenantSpec::new(TenantId(3)).with_queue_share(0.0))
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("tenant3"));
    }
}
