//! Property tests: arbitrary multi-threaded recording schedules must
//! always produce well-formed traces.
//!
//! Eight real threads hammer one shared sink with randomized nested-span
//! workloads (depths, widths, and extra counter/instant chatter drawn by
//! proptest). Whatever the interleaving, the captured stream must pass
//! [`vit_trace::validate`]: sequence numbers unique, durations
//! non-negative, per-thread spans properly nested.

use proptest::prelude::*;
use std::sync::Arc;
use vit_trace::{now_ns, validate, EventKind, Phase, RingBufferSink, StatsSink, TraceSink};

const THREADS: usize = 8;

/// Records a properly nested span tree of the given shape on the calling
/// thread: each level opens a span, recurses, then records the span
/// closed — exactly how the executors stamp node/phase spans.
fn record_tree(sink: &dyn TraceSink, depth: u8, width: u8, label: u64) {
    let start = sink.timestamp();
    if depth > 0 {
        for child in 0..width {
            record_tree(sink, depth - 1, width, label * 10 + u64::from(child));
        }
    }
    // A little work so sibling spans get distinct clock readings.
    std::hint::black_box((0..32).sum::<u64>());
    sink.record(EventKind::Node {
        name: format!("n{label}"),
        op: "Synthetic".to_string(),
        start_ns: start,
        end_ns: now_ns(),
        flops: u64::from(width) + 1,
        bytes: 4,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of 8 threads recording nested spans plus
    /// counter/instant chatter into one ring sink validates cleanly, and
    /// every recorded event survives (no drops below capacity).
    #[test]
    fn concurrent_recording_is_always_well_formed(
        depths in proptest::collection::vec(0u8..4, THREADS),
        widths in proptest::collection::vec(1u8..3, THREADS),
        chatter in proptest::collection::vec(0u8..4, THREADS),
    ) {
        let sink = Arc::new(RingBufferSink::new(1 << 16));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let sink = sink.clone();
                let (depth, width, chat) = (depths[t], widths[t], chatter[t]);
                s.spawn(move || {
                    record_tree(sink.as_ref(), depth, width, t as u64 + 1);
                    for c in 0..chat {
                        sink.record(EventKind::Counter {
                            name: format!("chatter.{t}"),
                            value: u64::from(c),
                            at_ns: now_ns(),
                        });
                        sink.record(EventKind::Instant {
                            name: "mark".to_string(),
                            detail: format!("t{t}"),
                            at_ns: now_ns(),
                        });
                    }
                });
            }
        });
        let events = sink.events();
        prop_assert_eq!(sink.dropped(), 0);
        prop_assert!(!events.is_empty());
        prop_assert_eq!(validate(&events), Ok(()));
    }

    /// The aggregating sink agrees with the ring sink on totals under the
    /// same workload shape: same event count, and FLOPs aggregated by the
    /// stats sink equal the sum over the ring's node events.
    #[test]
    fn stats_sink_matches_ring_sink_totals(
        depths in proptest::collection::vec(0u8..3, THREADS),
    ) {
        let ring = Arc::new(RingBufferSink::new(1 << 16));
        let stats = Arc::new(StatsSink::new());
        for sink in [ring.clone() as Arc<dyn TraceSink>, stats.clone()] {
            std::thread::scope(|s| {
                for (t, &depth) in depths.iter().enumerate() {
                    let sink = sink.clone();
                    s.spawn(move || record_tree(sink.as_ref(), depth, 2, t as u64 + 1));
                }
            });
        }
        let ring_events = ring.events();
        prop_assert_eq!(stats.events_recorded(), ring_events.len() as u64);
        let ring_flops: u64 = ring_events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Node { flops, .. } => *flops,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(stats.summary(1).total_flops(), ring_flops);
    }
}

/// Cross-thread spans (serving queue wait) may straddle a worker's span
/// stack and must still validate — this is the shape the serving workers
/// actually record.
#[test]
fn cross_thread_spans_validate_inside_worker_spans() {
    let sink = RingBufferSink::new(64);
    let submit_ns = sink.timestamp();
    let outer = sink.timestamp();
    std::hint::black_box((0..64).sum::<u64>());
    // A queue-wait span that started (on another thread) before this
    // worker's current node span did, recorded mid-span.
    sink.record(EventKind::Phase {
        phase: Phase::QueueWait,
        detail: String::new(),
        start_ns: submit_ns,
        end_ns: now_ns(),
    });
    sink.record(EventKind::Node {
        name: "n".to_string(),
        op: "Conv2d".to_string(),
        start_ns: outer,
        end_ns: now_ns(),
        flops: 1,
        bytes: 4,
    });
    assert_eq!(validate(&sink.events()), Ok(()));
}
