//! Exporters: chrome://tracing JSON and a human flame-summary table.

use crate::event::{EventKind, TraceEvent};
use crate::sink::StatsSink;
use crate::TraceSink;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Accumulated cost of one aggregation key (an op kind, node, or phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Events folded into this key.
    pub count: u64,
    /// Total span time in nanoseconds.
    pub total_ns: u64,
    /// Total analytical FLOPs.
    pub flops: u64,
    /// Total first-order DRAM bytes.
    pub bytes: u64,
}

impl Agg {
    pub(crate) fn add(&mut self, dur_ns: u64, flops: u64, bytes: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.flops += flops;
        self.bytes += bytes;
    }
}

/// One named row of a [`FlameSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRow {
    /// Aggregation key (op kind, node name, or phase name).
    pub name: String,
    /// Events folded into this row.
    pub count: u64,
    /// Total span time in nanoseconds.
    pub total_ns: u64,
    /// Total analytical FLOPs.
    pub flops: u64,
    /// Total first-order DRAM bytes.
    pub bytes: u64,
}

/// Aggregated view of a trace: per-op-kind totals (the paper's Fig. 2
/// style breakdown), the top nodes by self time, per-phase totals, and
/// counter sums.
#[derive(Debug, Clone, PartialEq)]
pub struct FlameSummary {
    /// Per-op-kind totals, descending by self time.
    pub ops: Vec<AggRow>,
    /// The top-N individual nodes by accumulated self time, descending.
    pub top_nodes: Vec<AggRow>,
    /// Per-phase totals, descending by time.
    pub phases: Vec<AggRow>,
    /// Counter sums, sorted by name.
    pub counters: Vec<(String, u64)>,
}

fn sorted_rows<K: AsRef<str>>(map: &HashMap<K, Agg>) -> Vec<AggRow> {
    let mut rows: Vec<AggRow> = map
        .iter()
        .map(|(k, a)| AggRow {
            name: k.as_ref().to_string(),
            count: a.count,
            total_ns: a.total_ns,
            flops: a.flops,
            bytes: a.bytes,
        })
        .collect();
    // Time descending, then name: a total deterministic order even when
    // several keys tie at zero.
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    rows
}

impl FlameSummary {
    /// Builds a summary directly from an event stream (e.g. a
    /// [`crate::RingBufferSink`] snapshot), keeping the `top_n` most
    /// expensive nodes.
    pub fn from_events(events: &[TraceEvent], top_n: usize) -> Self {
        let stats = StatsSink::new();
        for e in events {
            stats.record(e.kind.clone());
        }
        stats.summary(top_n)
    }

    pub(crate) fn from_aggregates(
        per_op: &HashMap<String, Agg>,
        per_node: &HashMap<String, Agg>,
        phases: &HashMap<&'static str, Agg>,
        counters: &HashMap<String, u64>,
        top_n: usize,
    ) -> Self {
        let mut top_nodes = sorted_rows(per_node);
        top_nodes.truncate(top_n);
        let mut counters: Vec<(String, u64)> =
            counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
        counters.sort();
        FlameSummary {
            ops: sorted_rows(per_op),
            top_nodes,
            phases: sorted_rows(phases),
            counters,
        }
    }

    /// Total node self time in nanoseconds.
    pub fn total_node_ns(&self) -> u64 {
        self.ops.iter().map(|r| r.total_ns).sum()
    }

    /// Total node FLOPs — comparable 1:1 with `vit-profiler`'s static
    /// count for the executed graph.
    pub fn total_flops(&self) -> u64 {
        self.ops.iter().map(|r| r.flops).sum()
    }

    /// Renders the summary as a fixed-width text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let total_ns = self.total_node_ns().max(1);
        let _ = writeln!(
            s,
            "{:<18} {:>6} {:>12} {:>8} {:>14} {:>12}",
            "op kind", "count", "self ms", "share", "MFLOPs", "MB moved"
        );
        for r in &self.ops {
            let _ = writeln!(
                s,
                "{:<18} {:>6} {:>12.3} {:>7.1}% {:>14.3} {:>12.3}",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                100.0 * r.total_ns as f64 / total_ns as f64,
                r.flops as f64 / 1e6,
                r.bytes as f64 / 1e6,
            );
        }
        if !self.top_nodes.is_empty() {
            let _ = writeln!(s, "\ntop nodes by self time:");
            for r in &self.top_nodes {
                let _ = writeln!(
                    s,
                    "{:<42} {:>12.3} ms {:>14.3} MFLOPs",
                    r.name,
                    r.total_ns as f64 / 1e6,
                    r.flops as f64 / 1e6,
                );
            }
        }
        if !self.phases.is_empty() {
            let _ = writeln!(s, "\nphases:");
            for r in &self.phases {
                let _ = writeln!(
                    s,
                    "{:<24} {:>6}x {:>12.3} ms",
                    r.name,
                    r.count,
                    r.total_ns as f64 / 1e6
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(s, "\ncounters:");
            for (name, value) in &self.counters {
                let _ = writeln!(s, "{name:<32} {value}");
            }
        }
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond precision, as chrome expects.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

/// Serializes events as a chrome://tracing / Perfetto "Trace Event Format"
/// JSON document (`{"traceEvents": [...]}`).
///
/// Mapping: [`EventKind::Node`] and [`EventKind::Phase`] become complete
/// (`"ph":"X"`) duration events named by op kind / phase;
/// [`EventKind::Counter`] becomes a counter (`"ph":"C"`) event;
/// [`EventKind::Instant`] becomes an instant (`"ph":"i"`) event. Timestamps
/// are microseconds since the trace epoch with nanosecond precision; `pid`
/// is always 1 and `tid` is the recording thread's ordinal. The logical
/// sequence number rides in `args.seq`.
///
/// Events are emitted ordered by `(at_ns, seq)`, so the document is
/// stable for identical event streams. The exact schema is pinned by
/// `crates/trace/tests/golden.rs`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| (e.at_ns(), e.seq));
    let mut s = String::from("{\n  \"traceEvents\": [\n");
    for (i, e) in ordered.iter().enumerate() {
        let line = match &e.kind {
            EventKind::Node {
                name,
                op,
                start_ns,
                end_ns,
                flops,
                bytes,
            } => format!(
                "{{\"name\": \"{}\", \"cat\": \"node\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"node\": \"{}\", \"flops\": {}, \
                 \"bytes\": {}, \"seq\": {}}}}}",
                esc(op),
                us(*start_ns),
                us(end_ns.saturating_sub(*start_ns)),
                e.thread,
                esc(name),
                flops,
                bytes,
                e.seq
            ),
            EventKind::Phase {
                phase,
                detail,
                start_ns,
                end_ns,
            } => format!(
                "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"detail\": \"{}\", \"seq\": {}}}}}",
                phase.name(),
                us(*start_ns),
                us(end_ns.saturating_sub(*start_ns)),
                e.thread,
                esc(detail),
                e.seq
            ),
            EventKind::Counter { name, value, at_ns } => format!(
                "{{\"name\": \"{}\", \"cat\": \"counter\", \"ph\": \"C\", \"ts\": {}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"value\": {}}}}}",
                esc(name),
                us(*at_ns),
                e.thread,
                value
            ),
            EventKind::Instant {
                name,
                detail,
                at_ns,
            } => format!(
                "{{\"name\": \"{}\", \"cat\": \"instant\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"detail\": \"{}\", \
                 \"seq\": {}}}}}",
                esc(name),
                us(*at_ns),
                e.thread,
                esc(detail),
                e.seq
            ),
            EventKind::Fault {
                action,
                detail,
                at_ns,
            } => format!(
                "{{\"name\": \"{}\", \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"detail\": \"{}\", \
                 \"seq\": {}}}}}",
                action.name(),
                us(*at_ns),
                e.thread,
                esc(detail),
                e.seq
            ),
        };
        s.push_str("    ");
        s.push_str(&line);
        if i + 1 < ordered.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("plain.name"), "plain.name");
    }

    #[test]
    fn chrome_trace_orders_by_time_then_seq() {
        let events = vec![
            TraceEvent {
                seq: 1,
                thread: 0,
                kind: EventKind::Node {
                    name: "late".into(),
                    op: "Relu".into(),
                    start_ns: 2000,
                    end_ns: 3000,
                    flops: 1,
                    bytes: 2,
                },
            },
            TraceEvent {
                seq: 0,
                thread: 0,
                kind: EventKind::Node {
                    name: "early".into(),
                    op: "Gelu".into(),
                    start_ns: 1000,
                    end_ns: 1500,
                    flops: 3,
                    bytes: 4,
                },
            },
        ];
        let json = chrome_trace_json(&events);
        let early = json.find("early").unwrap();
        let late = json.find("late").unwrap();
        assert!(early < late);
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn flame_summary_from_events_aggregates_and_ranks() {
        let mk = |op: &str, name: &str, start: u64, end: u64| TraceEvent {
            seq: start,
            thread: 0,
            kind: EventKind::Node {
                name: name.into(),
                op: op.into(),
                start_ns: start,
                end_ns: end,
                flops: end - start,
                bytes: 0,
            },
        };
        let events = vec![
            mk("Conv2d", "a", 0, 100),
            mk("Conv2d", "b", 100, 400),
            mk("Relu", "c", 400, 410),
        ];
        let s = FlameSummary::from_events(&events, 2);
        assert_eq!(s.ops[0].name, "Conv2d");
        assert_eq!(s.ops[0].total_ns, 400);
        assert_eq!(s.top_nodes.len(), 2);
        assert_eq!(s.top_nodes[0].name, "b");
        assert_eq!(s.total_flops(), 410);
        let table = s.render();
        assert!(table.contains("Conv2d"));
        assert!(table.contains("op kind"));
    }
}
