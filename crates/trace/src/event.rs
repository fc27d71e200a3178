//! Typed trace events and their well-formedness rules.

use std::fmt;

/// The engine- or server-level phase a [`EventKind::Phase`] span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Pareto-LUT lookup of the execution path for a budget.
    LutSelect,
    /// Building an execution graph after a graph-cache miss.
    GraphBuild,
    /// Generating/caching the parameter tensors a graph needs.
    WeightMaterialize,
    /// One full graph execution.
    Run,
    /// A serving request's time from submission to worker dispatch.
    QueueWait,
    /// A serving worker executing one request end to end.
    Execute,
    /// Compiling a graph into an execution plan after a plan-cache miss.
    PlanBuild,
    /// One full replay of a compiled execution plan.
    PlanReplay,
}

impl Phase {
    /// Stable lower-snake name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            Phase::LutSelect => "lut_select",
            Phase::GraphBuild => "graph_build",
            Phase::WeightMaterialize => "weight_materialize",
            Phase::Run => "run",
            Phase::QueueWait => "queue_wait",
            Phase::Execute => "execute",
            Phase::PlanBuild => "plan_build",
            Phase::PlanReplay => "plan_replay",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one [`TraceEvent`] describes.
///
/// Spans carry explicit `start_ns`/`end_ns` stamped by the recorder (via
/// [`crate::now_ns`]) so an event is complete the moment it is recorded —
/// sinks never hold open state, which is what keeps them lock-cheap.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// One graph-node execution on one thread.
    Node {
        /// Graph node name (e.g. `encoder.s0.b1.attn.q`).
        name: String,
        /// Operator kind (the [`Op`] variant name, e.g. `Conv2d`).
        ///
        /// [`Op`]: https://docs.rs/vit-graph
        op: String,
        /// Span start, nanoseconds since the trace epoch.
        start_ns: u64,
        /// Span end, nanoseconds since the trace epoch.
        end_ns: u64,
        /// Analytical FLOPs of the node (MAC convention), matching the
        /// static count `vit-profiler` reports for the same node.
        flops: u64,
        /// First-order DRAM traffic: inputs + output + parameters, 4-byte
        /// elements.
        bytes: u64,
    },
    /// An engine- or server-level phase span.
    Phase {
        /// Which phase.
        phase: Phase,
        /// Free-form detail (config name, shed reason, …). Empty when the
        /// phase needs none.
        detail: String,
        /// Span start, nanoseconds since the trace epoch.
        start_ns: u64,
        /// Span end, nanoseconds since the trace epoch.
        end_ns: u64,
    },
    /// A named monotonic counter sample (buffer-pool hits, cache misses…).
    Counter {
        /// Counter name, dot-separated (e.g. `buffer_pool.hits`).
        name: String,
        /// Sampled value (a delta; sinks accumulate).
        value: u64,
        /// When it was sampled, nanoseconds since the trace epoch.
        at_ns: u64,
    },
    /// A point-in-time marker (admission decision, shed, …).
    Instant {
        /// Marker name (e.g. `admission`).
        name: String,
        /// Free-form detail (e.g. `shed:QueueFull`).
        detail: String,
        /// When it happened, nanoseconds since the trace epoch.
        at_ns: u64,
    },
    /// A fault-handling decision: a detected fault, a recovery step, or a
    /// circuit-breaker transition (point event).
    Fault {
        /// What the fault layer decided (see [`RecoveryAction`]).
        action: RecoveryAction,
        /// Free-form detail (fault kind, request seq, attempt, …).
        detail: String,
        /// When it happened, nanoseconds since the trace epoch.
        at_ns: u64,
    },
}

/// A fault-handling decision carried by [`EventKind::Fault`], covering the
/// detect → recover state machine in `vit-serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RecoveryAction {
    /// A fault (injected or real) was detected on an execution attempt.
    Detected,
    /// The request is being retried with its remaining slack as a tighter
    /// budget (degraded retry).
    Retry,
    /// The retry additionally falls back `Plan → Interpret` after a
    /// plan-replay failure.
    BackendFallback,
    /// A worker's consecutive-failure circuit breaker opened.
    CircuitOpen,
    /// A worker's circuit breaker closed again after a success.
    CircuitClose,
    /// The request failed without retry (fail-fast policy or retries
    /// exhausted).
    FailFast,
    /// A degraded retry completed and was delivered.
    Degraded,
}

impl RecoveryAction {
    /// Stable lower-snake name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryAction::Detected => "detected",
            RecoveryAction::Retry => "retry",
            RecoveryAction::BackendFallback => "backend_fallback",
            RecoveryAction::CircuitOpen => "circuit_open",
            RecoveryAction::CircuitClose => "circuit_close",
            RecoveryAction::FailFast => "fail_fast",
            RecoveryAction::Degraded => "degraded",
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded event: a logical sequence number (unique per sink,
/// assigned at record time), the recording thread's ordinal, and the typed
/// payload.
///
/// Sequence numbers give a total *logical* order that is stable across
/// runs with identical scheduling and usable even when wall-clock stamps
/// collide; they are what lets differential tests compare traced and
/// untraced runs without depending on timing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Sink-assigned logical sequence number, unique within one sink.
    pub seq: u64,
    /// Ordinal of the recording OS thread (see [`crate::thread_ord`]).
    pub thread: u64,
    /// The typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The span interval `(start_ns, end_ns)` for span-shaped events.
    pub fn span_ns(&self) -> Option<(u64, u64)> {
        match &self.kind {
            EventKind::Node {
                start_ns, end_ns, ..
            }
            | EventKind::Phase {
                start_ns, end_ns, ..
            } => Some((*start_ns, *end_ns)),
            EventKind::Counter { .. } | EventKind::Instant { .. } | EventKind::Fault { .. } => None,
        }
    }

    /// The nanosecond stamp exporters order this event by: span start for
    /// spans, the sample/marker time otherwise.
    pub fn at_ns(&self) -> u64 {
        match &self.kind {
            EventKind::Node { start_ns, .. } | EventKind::Phase { start_ns, .. } => *start_ns,
            EventKind::Counter { at_ns, .. }
            | EventKind::Instant { at_ns, .. }
            | EventKind::Fault { at_ns, .. } => *at_ns,
        }
    }
}

/// Why a recorded event stream is not a well-formed trace.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceFormatError {
    /// Two events carry the same sequence number.
    DuplicateSeq {
        /// The repeated sequence number.
        seq: u64,
    },
    /// A span ends before it starts.
    NegativeDuration {
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// Two spans on one thread partially overlap (neither nests in the
    /// other), which no single-threaded recorder can produce.
    BadNesting {
        /// Thread ordinal where the overlap was found.
        thread: u64,
        /// Sequence numbers of the two overlapping spans.
        seqs: (u64, u64),
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::DuplicateSeq { seq } => {
                write!(f, "duplicate sequence number {seq}")
            }
            TraceFormatError::NegativeDuration { seq } => {
                write!(f, "event {seq} ends before it starts")
            }
            TraceFormatError::BadNesting { thread, seqs } => write!(
                f,
                "spans {} and {} on thread {thread} partially overlap",
                seqs.0, seqs.1
            ),
        }
    }
}

impl std::error::Error for TraceFormatError {}

/// Checks an event stream for well-formedness: unique sequence numbers, no
/// negative durations, and proper (stack-like) span nesting per thread.
///
/// Both the trace test suite and `repro bench --trace` run every captured
/// trace through this before trusting it.
///
/// # Errors
///
/// Returns the first [`TraceFormatError`] found.
pub fn validate(events: &[TraceEvent]) -> Result<(), TraceFormatError> {
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    for w in seqs.windows(2) {
        if w[0] == w[1] {
            return Err(TraceFormatError::DuplicateSeq { seq: w[0] });
        }
    }
    for e in events {
        if let Some((start, end)) = e.span_ns() {
            if end < start {
                return Err(TraceFormatError::NegativeDuration { seq: e.seq });
            }
        }
    }
    // Per-thread nesting: Node/Phase spans recorded on one thread must form
    // a stack (each pair either disjoint or one containing the other).
    // Cross-thread spans are excluded — `QueueWait` starts on the
    // *submitting* thread, so it legitimately straddles the recording
    // thread's span stack.
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let mut spans: Vec<(u64, u64, u64)> = events
            .iter()
            .filter(|e| e.thread == t)
            .filter_map(|e| match &e.kind {
                EventKind::Phase {
                    phase: Phase::QueueWait,
                    ..
                } => None,
                EventKind::Node {
                    start_ns, end_ns, ..
                }
                | EventKind::Phase {
                    start_ns, end_ns, ..
                } => Some((*start_ns, *end_ns, e.seq)),
                _ => None,
            })
            .collect();
        // Sort by start; ties put the longer span first so a parent
        // precedes children it shares a start stamp with.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64, u64)> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if s.0 >= top.1 {
                    stack.pop(); // top finished before this span began
                } else if s.1 > top.1 {
                    return Err(TraceFormatError::BadNesting {
                        thread: t,
                        seqs: (top.2, s.2),
                    });
                } else {
                    break; // properly nested inside top
                }
            }
            stack.push(s);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(seq: u64, thread: u64, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            seq,
            thread,
            kind: EventKind::Node {
                name: format!("n{seq}"),
                op: "Relu".into(),
                start_ns: start,
                end_ns: end,
                flops: 1,
                bytes: 8,
            },
        }
    }

    #[test]
    fn valid_nested_trace_passes() {
        let events = vec![
            TraceEvent {
                seq: 0,
                thread: 0,
                kind: EventKind::Phase {
                    phase: Phase::Run,
                    detail: String::new(),
                    start_ns: 0,
                    end_ns: 100,
                },
            },
            node(1, 0, 10, 20),
            node(2, 0, 20, 90),
            node(3, 1, 15, 25), // other thread overlaps freely
        ];
        assert_eq!(validate(&events), Ok(()));
    }

    #[test]
    fn duplicate_seq_rejected() {
        let events = vec![node(5, 0, 0, 1), node(5, 1, 2, 3)];
        assert_eq!(
            validate(&events),
            Err(TraceFormatError::DuplicateSeq { seq: 5 })
        );
    }

    #[test]
    fn negative_duration_rejected() {
        let events = vec![node(0, 0, 10, 5)];
        assert_eq!(
            validate(&events),
            Err(TraceFormatError::NegativeDuration { seq: 0 })
        );
    }

    #[test]
    fn partial_overlap_on_one_thread_rejected() {
        let events = vec![node(0, 0, 0, 50), node(1, 0, 25, 75)];
        assert!(matches!(
            validate(&events),
            Err(TraceFormatError::BadNesting { thread: 0, .. })
        ));
    }

    #[test]
    fn queue_wait_spans_may_straddle_threads() {
        let events = vec![
            node(0, 0, 0, 50),
            TraceEvent {
                seq: 1,
                thread: 0,
                kind: EventKind::Phase {
                    phase: Phase::QueueWait,
                    detail: String::new(),
                    start_ns: 10,
                    end_ns: 60,
                },
            },
        ];
        assert_eq!(validate(&events), Ok(()));
    }
}
