//! # vit-serve
//!
//! Deadline-aware concurrent serving on top of the DRT engine.
//!
//! The paper's DRT engine (§IV, Figure 8) answers "given *this much*
//! resource, which execution path maximizes accuracy?" for one inference
//! at a time. This crate turns that primitive into a serving system: a
//! bounded request queue, an earliest-deadline-first (EDF) scheduler with
//! admission control, per-tenant quotas with weighted-fair dequeueing,
//! continuous batching (queued requests that resolve to the same LUT
//! configuration coalesce into one batch-N engine pass), and a pool of
//! workers sharing one [`vit_drt::EngineCore`]. Each request's *remaining
//! slack* at dispatch (deadline − now) becomes the DRT budget, so under
//! load the engine gracefully trades accuracy for latency instead of
//! missing deadlines — the serving-time generalization of the paper's
//! per-frame budget traces.
//!
//! Two execution substrates run the same dispatch code — one private
//! dispatch core makes the admission, coalescing and recovery decisions
//! and builds every [`Outcome`]; a substrate supplies only its clock,
//! queue and executor:
//!
//! * [`Server`] — real threads over one `Arc<EngineCore>`, wall-clock
//!   deadlines, actual tensor execution ([`server`]).
//! * [`simulate`] — a deterministic discrete-event simulator with a
//!   virtual clock and a modeled executor, for reproducible fleet-scale
//!   load-sweep experiments ([`sim`]).
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::{Duration, Instant};
//! use vit_drt::DrtEngine;
//! use vit_models::SegFormerVariant;
//! use vit_resilience::{ResourceKind, Workload};
//! use vit_serve::{Calibration, InferenceRequest, Server, ServerConfig};
//! use vit_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = DrtEngine::segformer(
//!     SegFormerVariant::b0(), Workload::SegFormerAde, (64, 64),
//!     ResourceKind::GpuTime)?;
//! let core = engine.core().clone();
//! let calibration = Calibration::measure(&core)?;
//! let config = ServerConfig::builder()
//!     .workers(4)
//!     .max_batch(4)
//!     .batch_window(0.002)
//!     .build()?;
//! let server = Server::start(core, calibration, config);
//! let image = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 1);
//! let admission = server.submit(InferenceRequest::new(
//!     image,
//!     Instant::now() + Duration::from_millis(200),
//!     ResourceKind::GpuTime,
//! ))?;
//! println!("admitted: {}", admission.is_admitted());
//! let metrics = server.shutdown();
//! println!("p99 latency {:.1} ms", metrics.p99_latency * 1e3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
mod dispatch;
pub mod fair;
pub mod metrics;
pub mod policy;
pub mod queue;
pub mod request;
pub mod scenario;
pub mod server;
pub mod sim;

pub use config::{
    BatchConfig, ConfigError, FaultToleranceConfig, ServerConfig, ServerConfigBuilder,
    TenancyConfig, TenantSpec,
};
pub use fair::{CoalescePop, DispatchPushError, DispatchQueue, SharedDispatchQueue};
pub use metrics::{percentile, ServerMetrics, TenantMetrics};
pub use policy::{admissible, budget_for, RecoveryPolicy, SchedulePolicy};
pub use queue::PopResult;
pub use request::{
    FailureReason, FailureRecord, InferenceRequest, Outcome, RequestRecord, RequestTicket,
    ShedReason, ShedRecord, TenantId,
};
pub use scenario::{ChaosScenario, ScenarioError};
pub use server::{Admission, Calibration, Server, SubmitError, CALIBRATION_RUNS};
pub use sim::{simulate, simulate_outcomes, SimArrival, SimConfig};
