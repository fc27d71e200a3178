//! Event sinks: where recorded events go.

use crate::event::{EventKind, TraceEvent};
use crate::export::{Agg, FlameSummary};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (the first call wins the
/// epoch). All sinks share this clock so events from different layers land
/// on one timeline.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

/// A small, stable ordinal for the calling OS thread (0, 1, 2, … in first-
/// use order). Used as the `tid` of recorded events — compact and readable
/// in chrome://tracing, unlike the opaque [`std::thread::ThreadId`].
pub fn thread_ord() -> u64 {
    THREAD_ORD.with(|o| *o)
}

/// Consumes typed trace events.
///
/// The contract that makes tracing free when disabled: recorders must gate
/// *all* trace work — clock reads, string clones, event construction — on
/// [`TraceSink::enabled`]. With a [`NullSink`] the entire hot-path cost is
/// therefore one virtual call returning a constant `false` per would-be
/// event, which the branch predictor eats (`repro bench --trace` pins
/// this: the NullSink median must stay within 2% run-to-run).
///
/// Sinks assign each event its logical sequence number at record time, so
/// a sink's event stream always satisfies [`crate::validate`]'s uniqueness
/// rule.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Whether this sink records anything. Recorders skip all tracing work
    /// when this is false.
    fn enabled(&self) -> bool;

    /// Records one event. Implementations stamp `seq` and the calling
    /// thread's ordinal.
    fn record(&self, kind: EventKind);

    /// [`now_ns`] when enabled, `0` otherwise — the one-liner recorders
    /// use to open a span without branching twice.
    fn timestamp(&self) -> u64 {
        if self.enabled() {
            now_ns()
        } else {
            0
        }
    }
}

/// The disabled sink: `enabled()` is `false` and `record` is a no-op.
///
/// This is the default sink of every `RunContext`, so untraced inference
/// pays nothing beyond the `enabled()` check.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _kind: EventKind) {}
}

static NULL_SINK: OnceLock<Arc<NullSink>> = OnceLock::new();

/// The shared process-wide [`NullSink`] handle — what
/// `RunContext::default()` uses, without allocating per context.
pub fn null_sink() -> Arc<dyn TraceSink> {
    NULL_SINK.get_or_init(|| Arc::new(NullSink)).clone()
}

struct Ring {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded in-memory event buffer: keeps the most recent `capacity`
/// events, dropping the oldest (and counting the drops) beyond that.
///
/// The lock is held only for the O(1) push, so concurrent recorders
/// contend briefly; sequence numbers are assigned under the same lock and
/// therefore increase in buffer order.
pub struct RingBufferSink {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring = self.lock();
        f.debug_struct("RingBufferSink")
            .field("capacity", &self.capacity)
            .field("len", &ring.events.len())
            .field("dropped", &ring.dropped)
            .finish()
    }
}

impl RingBufferSink {
    /// Creates a sink retaining at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the buffered events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Drains and returns the buffered events, in record order.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.lock().events.drain(..).collect()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Events evicted because the buffer was full. A non-zero value means
    /// the trace is a suffix of the run, not the whole run.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

impl TraceSink for RingBufferSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, kind: EventKind) {
        let thread = thread_ord();
        let mut ring = self.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(TraceEvent { seq, thread, kind });
    }
}

#[derive(Default)]
struct Stats {
    next_seq: u64,
    per_op: HashMap<String, Agg>,
    per_node: HashMap<String, Agg>,
    phases: HashMap<&'static str, Agg>,
    counters: HashMap<String, u64>,
}

/// An aggregating sink: folds every event into per-op-kind, per-node,
/// per-phase, and counter totals online, retaining O(distinct keys) memory
/// regardless of run length — the sink for always-on production metrics.
#[derive(Default)]
pub struct StatsSink {
    stats: Mutex<Stats>,
}

impl fmt::Debug for StatsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.lock();
        f.debug_struct("StatsSink")
            .field("events", &st.next_seq)
            .field("distinct_ops", &st.per_op.len())
            .finish()
    }
}

impl StatsSink {
    /// Creates an empty aggregating sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Stats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total events recorded so far.
    pub fn events_recorded(&self) -> u64 {
        self.lock().next_seq
    }

    /// Current value of a named counter (0 when never sampled).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// The aggregated flame summary: per-op-kind totals plus the `top_n`
    /// nodes by accumulated self time.
    pub fn summary(&self, top_n: usize) -> FlameSummary {
        let st = self.lock();
        FlameSummary::from_aggregates(&st.per_op, &st.per_node, &st.phases, &st.counters, top_n)
    }
}

impl TraceSink for StatsSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, kind: EventKind) {
        let mut st = self.lock();
        st.next_seq += 1;
        match kind {
            EventKind::Node {
                name,
                op,
                start_ns,
                end_ns,
                flops,
                bytes,
            } => {
                let dur = end_ns.saturating_sub(start_ns);
                st.per_op.entry(op).or_default().add(dur, flops, bytes);
                st.per_node.entry(name).or_default().add(dur, flops, bytes);
            }
            EventKind::Phase {
                phase,
                start_ns,
                end_ns,
                ..
            } => {
                st.phases.entry(phase.name()).or_default().add(
                    end_ns.saturating_sub(start_ns),
                    0,
                    0,
                );
            }
            EventKind::Counter { name, value, .. } => {
                *st.counters.entry(name).or_insert(0) += value;
            }
            EventKind::Instant { name, detail, .. } => {
                let key = if detail.is_empty() {
                    name
                } else {
                    format!("{name}:{detail}")
                };
                *st.counters.entry(key).or_insert(0) += 1;
            }
            EventKind::Fault { action, .. } => {
                *st.counters
                    .entry(format!("fault.{}", action.name()))
                    .or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn node_event(op: &str, start: u64, end: u64, flops: u64) -> EventKind {
        EventKind::Node {
            name: format!("{op}.x"),
            op: op.to_string(),
            start_ns: start,
            end_ns: end,
            flops,
            bytes: 4,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let s = NullSink;
        assert!(!s.enabled());
        assert_eq!(s.timestamp(), 0);
        s.record(node_event("Relu", 0, 1, 1)); // must not panic
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let s = RingBufferSink::new(2);
        for i in 0..5 {
            s.record(node_event("Relu", i, i + 1, 1));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let ev = s.events();
        // The survivors are the most recent events, seqs still unique.
        assert_eq!(ev[0].seq, 3);
        assert_eq!(ev[1].seq, 4);
        assert!(crate::validate(&ev).is_ok());
        assert_eq!(s.take().len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn ring_buffer_seqs_unique_across_threads() {
        let s = std::sync::Arc::new(RingBufferSink::new(4096));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..100 {
                        s.record(node_event("Linear", i, i + 1, 2));
                    }
                });
            }
        });
        let ev = s.events();
        assert_eq!(ev.len(), 400);
        assert!(crate::validate(&ev).is_ok());
    }

    #[test]
    fn stats_sink_aggregates() {
        let s = StatsSink::new();
        s.record(node_event("Conv2d", 0, 100, 10));
        s.record(node_event("Conv2d", 100, 150, 10));
        s.record(node_event("Relu", 150, 160, 0));
        s.record(EventKind::Counter {
            name: "buffer_pool.hits".into(),
            value: 3,
            at_ns: 160,
        });
        s.record(EventKind::Counter {
            name: "buffer_pool.hits".into(),
            value: 2,
            at_ns: 161,
        });
        s.record(EventKind::Phase {
            phase: Phase::Run,
            detail: String::new(),
            start_ns: 0,
            end_ns: 160,
        });
        assert_eq!(s.counter("buffer_pool.hits"), 5);
        assert_eq!(s.events_recorded(), 6);
        let summary = s.summary(10);
        let conv = summary.ops.iter().find(|o| o.name == "Conv2d").unwrap();
        assert_eq!(conv.count, 2);
        assert_eq!(conv.total_ns, 150);
        assert_eq!(conv.flops, 20);
    }

    #[test]
    fn thread_ordinals_are_small_and_distinct() {
        let a = thread_ord();
        let b = std::thread::spawn(thread_ord).join().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
