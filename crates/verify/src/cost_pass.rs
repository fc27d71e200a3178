//! Pass 2 — cost conservation.
//!
//! The DRT premise is that *analytical* cost predictions can be trusted at
//! serve time, so the three independent cost paths in the workspace —
//! per-node re-derivation from [`vit_graph::Op`], the graph's own
//! aggregations, and the profiler's summaries — must agree **exactly**
//! (all integer FLOP/parameter/byte arithmetic; no tolerance).

use crate::diag::{Code, Diagnostic, Span};
use vit_graph::Graph;
use vit_profiler::Profile;

/// Runs the cost-conservation pass over a graph and a profile of it (use
/// [`Profile::flops_only`] for a freshly profiled graph, or a deserialized
/// profile artifact to validate storage).
pub fn verify_costs(graph: &Graph, profile: &Profile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if profile.layers.len() != graph.len() {
        diags.push(
            Diagnostic::new(
                Code::CostMismatch,
                Span::Global,
                format!(
                    "profile has {} rows for a {}-node graph",
                    profile.layers.len(),
                    graph.len()
                ),
            )
            .with_help("the profile was taken from a different execution path"),
        );
        return diags; // Row-wise diffs below would misalign.
    }

    // Per-node: the profile row must match a fresh re-derivation.
    for (i, (id, node)) in graph.iter().enumerate() {
        let row = &profile.layers[i];
        let mut mismatch = Vec::new();
        if row.name != node.name {
            mismatch.push(format!("name `{}` vs `{}`", row.name, node.name));
        }
        if row.flops != node.flops(graph) {
            mismatch.push(format!("flops {} vs {}", row.flops, node.flops(graph)));
        }
        if row.params != node.params(graph) {
            mismatch.push(format!("params {} vs {}", row.params, node.params(graph)));
        }
        if row.bytes != node.io_bytes(graph) {
            mismatch.push(format!("bytes {} vs {}", row.bytes, node.io_bytes(graph)));
        }
        if row.class != node.op.class() || row.role != node.role {
            mismatch.push(format!(
                "class/role {:?}/{:?} vs {:?}/{:?}",
                row.class,
                row.role,
                node.op.class(),
                node.role
            ));
        }
        if !mismatch.is_empty() {
            diags.push(Diagnostic::new(
                Code::CostMismatch,
                Span::Node {
                    index: id.index(),
                    name: node.name.clone(),
                },
                format!(
                    "profile row disagrees with re-derivation: {}",
                    mismatch.join("; ")
                ),
            ));
        }
    }

    // Totals: graph aggregation, profile aggregation, and row sums must be
    // one number.
    let row_flops: u64 = profile.layers.iter().map(|l| l.flops).sum();
    for (what, a, b) in [
        (
            "total flops (graph vs profile)",
            graph.total_flops(),
            profile.total_flops(),
        ),
        (
            "total flops (profile vs row sum)",
            profile.total_flops(),
            row_flops,
        ),
        (
            "total params (graph vs row sum)",
            graph.total_params(),
            profile.layers.iter().map(|l| l.params).sum(),
        ),
    ] {
        if a != b {
            diags.push(Diagnostic::new(
                Code::CostMismatch,
                Span::Global,
                format!("{what}: {a} != {b}"),
            ));
        }
    }

    // Partitions: per-class sums must tile the total exactly, and each
    // class total must equal the graph's own per-class aggregation.
    let by_class = profile.by_class();
    let class_sum: u64 = by_class.values().map(|s| s.flops).sum();
    if class_sum != profile.total_flops() {
        diags.push(Diagnostic::new(
            Code::CostMismatch,
            Span::Global,
            format!(
                "per-class flops sum {class_sum} does not tile the total {}",
                profile.total_flops()
            ),
        ));
    }
    for (class, summary) in &by_class {
        let graph_side = graph.flops_by_class(*class);
        if summary.flops != graph_side {
            diags.push(Diagnostic::new(
                Code::CostMismatch,
                Span::Global,
                format!(
                    "class {class}: profile {} vs graph {graph_side} flops",
                    summary.flops
                ),
            ));
        }
    }

    // The encoder/decoder split (the paper's headline figure) must agree.
    let decoder_rows: u64 = profile
        .layers
        .iter()
        .filter(|l| l.role.is_decoder())
        .map(|l| l.flops)
        .sum();
    if decoder_rows != graph.decoder_flops() {
        diags.push(Diagnostic::new(
            Code::CostMismatch,
            Span::Global,
            format!(
                "decoder flops: profile rows {decoder_rows} vs graph {}",
                graph.decoder_flops()
            ),
        ));
    }
    diags
}
