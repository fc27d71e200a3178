//! Golden test: the chrome-trace JSON schema is pinned byte-for-byte.
//!
//! External tools (chrome://tracing, Perfetto, jq pipelines in CI) parse
//! this document; any change to field names, ordering, category strings,
//! or timestamp formatting is a breaking change to the export contract
//! and must show up as a diff in this file.

use vit_trace::{chrome_trace_json, validate, EventKind, Phase, TraceEvent};

/// One event of every kind, with hand-picked stamps exercising ordering
/// (the queue-wait span at 500 ns sorts between the Phase at 0 and the
/// Node at 1000 even though its seq is higher than the Node's).
fn fixture() -> Vec<TraceEvent> {
    vec![
        TraceEvent {
            seq: 0,
            thread: 0,
            kind: EventKind::Phase {
                phase: Phase::Run,
                detail: "segformer-b0".to_string(),
                start_ns: 0,
                end_ns: 5000,
            },
        },
        TraceEvent {
            seq: 1,
            thread: 1,
            kind: EventKind::Node {
                name: "enc.conv".to_string(),
                op: "Conv2d".to_string(),
                start_ns: 1000,
                end_ns: 2500,
                flops: 1234,
                bytes: 4096,
            },
        },
        TraceEvent {
            seq: 2,
            thread: 1,
            kind: EventKind::Phase {
                phase: Phase::QueueWait,
                detail: "req-7".to_string(),
                start_ns: 500,
                end_ns: 1000,
            },
        },
        TraceEvent {
            seq: 3,
            thread: 0,
            kind: EventKind::Counter {
                name: "buffer_pool.hits".to_string(),
                value: 7,
                at_ns: 4000,
            },
        },
        TraceEvent {
            seq: 4,
            thread: 0,
            kind: EventKind::Instant {
                name: "shed".to_string(),
                detail: "queue_full".to_string(),
                at_ns: 4500,
            },
        },
    ]
}

const GOLDEN: &str = r#"{
  "traceEvents": [
    {"name": "run", "cat": "phase", "ph": "X", "ts": 0.000, "dur": 5.000, "pid": 1, "tid": 0, "args": {"detail": "segformer-b0", "seq": 0}},
    {"name": "queue_wait", "cat": "phase", "ph": "X", "ts": 0.500, "dur": 0.500, "pid": 1, "tid": 1, "args": {"detail": "req-7", "seq": 2}},
    {"name": "Conv2d", "cat": "node", "ph": "X", "ts": 1.000, "dur": 1.500, "pid": 1, "tid": 1, "args": {"node": "enc.conv", "flops": 1234, "bytes": 4096, "seq": 1}},
    {"name": "buffer_pool.hits", "cat": "counter", "ph": "C", "ts": 4.000, "pid": 1, "tid": 0, "args": {"value": 7}},
    {"name": "shed", "cat": "instant", "ph": "i", "s": "t", "ts": 4.500, "pid": 1, "tid": 0, "args": {"detail": "queue_full", "seq": 4}}
  ],
  "displayTimeUnit": "ms"
}
"#;

#[test]
fn chrome_trace_schema_is_pinned() {
    let events = fixture();
    assert_eq!(validate(&events), Ok(()), "the fixture itself is valid");
    let json = chrome_trace_json(&events);
    assert_eq!(
        json, GOLDEN,
        "chrome-trace JSON schema drifted from the pinned golden document"
    );
}

#[test]
fn export_is_deterministic_and_input_order_independent() {
    let mut reversed = fixture();
    reversed.reverse();
    assert_eq!(chrome_trace_json(&fixture()), chrome_trace_json(&reversed));
}
