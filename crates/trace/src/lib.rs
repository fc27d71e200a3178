//! # vit-trace — zero-cost-when-disabled observability
//!
//! A std-only tracing layer for the DRT engine stack. Every layer of the
//! repro (tensor buffer pool, interpreter, plan replay, engine, server)
//! records typed [`TraceEvent`]s into a pluggable [`TraceSink`]:
//!
//! - [`EventKind::Node`] — one graph-node execution span: node name, op
//!   kind, start/end nanoseconds, analytical FLOPs and first-order DRAM
//!   bytes (both matching `vit-profiler`'s static model, so traced totals
//!   cross-check against static counts exactly).
//! - [`EventKind::Phase`] — engine/server phases: LUT selection, graph
//!   build, weight materialization, whole-graph runs, serve queue wait and
//!   execution.
//! - [`EventKind::Counter`] / [`EventKind::Instant`] — buffer-pool
//!   hit/miss/zeroing deltas, graph-cache hits/misses, admission and shed
//!   markers.
//!
//! ## The zero-cost contract
//!
//! Recorders gate *all* tracing work — clock reads, string clones, event
//! construction — on [`TraceSink::enabled`]. [`NullSink`] (the default)
//! answers a constant `false`, so untraced hot paths pay exactly one
//! predictable virtual call per would-be event and allocate nothing.
//! `repro bench --trace` measures this: the NullSink A/A median delta must
//! stay under 2%.
//!
//! ## Determinism
//!
//! Events carry sink-assigned logical sequence numbers ([`TraceEvent::seq`])
//! rather than relying on wall-clock ordering, and recording never changes
//! what the executor computes — differential tests pin bit-identical
//! inference outputs with tracing on and off at 1 and 8 threads.
//!
//! ## Consuming traces
//!
//! Three sinks ship in the crate: [`NullSink`] (disabled), a bounded
//! [`RingBufferSink`] that keeps the most recent events for export, and an
//! aggregating [`StatsSink`] with O(distinct keys) memory for always-on
//! metrics. [`chrome_trace_json`] serializes events as a Perfetto-loadable
//! chrome://tracing document; [`FlameSummary`] renders a per-op-kind
//! flame table. [`validate`] checks a stream's well-formedness (unique
//! seqs, non-negative durations, stack-like span nesting per thread).

#![warn(missing_docs)]

mod event;
mod export;
mod sink;

pub use event::{validate, EventKind, Phase, RecoveryAction, TraceEvent, TraceFormatError};
pub use export::{chrome_trace_json, Agg, AggRow, FlameSummary};
pub use sink::{now_ns, null_sink, thread_ord, NullSink, RingBufferSink, StatsSink, TraceSink};
