//! Pass 5 — plan equivalence.
//!
//! A compiled [`ExecPlan`] replaces the interpreter for serving, so it
//! must be provably the *same program* as the graph it was lowered from:
//! identical cost totals (`V040`), every non-fused graph node covered by
//! exactly one record and every fused node folded into exactly one
//! epilogue (`V041`), a sound arena layout in which simultaneously live
//! ranges never overlap (`V042`), and record shapes/buffer wiring that
//! match the graph's edges (`V043`).

use crate::diag::{Code, Diagnostic, Span};
use std::collections::HashMap;
use vit_graph::Graph;
use vit_plan::ExecPlan;

/// Runs the plan-equivalence pass: checks `plan` against the `graph` it
/// was compiled from.
pub fn verify_plan(graph: &Graph, plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Coverage: every graph node is owned by exactly one record, either
    // as the record itself or fused into its epilogue.
    let mut covering: HashMap<&str, usize> = HashMap::new();
    for (ri, rec) in plan.records().iter().enumerate() {
        let names = std::iter::once(rec.name.as_str()).chain(rec.fused.iter().map(String::as_str));
        for name in names {
            if graph.find(name).is_none() {
                diags.push(Diagnostic::new(
                    Code::PlanCoverage,
                    Span::Global,
                    format!("record {ri} covers `{name}`, which the graph does not contain"),
                ));
            }
            if let Some(prev) = covering.insert(name, ri) {
                diags.push(Diagnostic::new(
                    Code::PlanCoverage,
                    Span::Global,
                    format!("`{name}` is covered by records {prev} and {ri}"),
                ));
            }
        }
    }
    for (id, node) in graph.iter() {
        if !covering.contains_key(node.name.as_str()) {
            diags.push(Diagnostic::new(
                Code::PlanCoverage,
                Span::Node {
                    index: id.index(),
                    name: node.name.clone(),
                },
                "graph node is covered by no plan record".to_string(),
            ));
        }
    }
    if !diags.is_empty() {
        // Wiring and liveness below navigate graph edges through the
        // coverage map; with coverage broken they would only re-report
        // the same root cause.
        return diags;
    }

    // Cost conservation: lowering must neither lose nor invent work.
    // Fused nodes keep their interpreter-convention accounting inside the
    // owning record, so these are exact integer equalities.
    let graph_bytes: u64 = graph.iter().map(|(_, n)| n.io_bytes(graph)).sum();
    for (what, plan_total, graph_total) in [
        ("flops", plan.total_flops(), graph.total_flops()),
        ("params", plan.total_params(), graph.total_params()),
        ("bytes", plan.total_bytes(), graph_bytes),
    ] {
        if plan_total != graph_total {
            diags.push(
                Diagnostic::new(
                    Code::PlanCostMismatch,
                    Span::Global,
                    format!("plan totals {plan_total} {what}, graph totals {graph_total}"),
                )
                .with_help("a fused node's costs were dropped or double-counted"),
            );
        }
    }

    // Shapes and buffer wiring: each record's output range must be the
    // node's stored shape, and each input range must be the producing
    // record's output range (fused nodes alias their producer's range).
    for rec in plan.records() {
        let id = graph.find(&rec.name).expect("coverage checked");
        let node = graph.node(id);
        let span = || Span::Node {
            index: id.index(),
            name: node.name.clone(),
        };
        if rec.out_shape != node.shape {
            diags.push(Diagnostic::new(
                Code::PlanShapeMismatch,
                span(),
                format!(
                    "record output shape {:?} vs graph shape {:?}",
                    rec.out_shape, node.shape
                ),
            ));
        }
        let numel: usize = rec.out_shape.iter().product();
        if rec.out.len != numel {
            diags.push(Diagnostic::new(
                Code::PlanShapeMismatch,
                span(),
                format!(
                    "output range holds {} elements for a {numel}-element shape",
                    rec.out.len
                ),
            ));
        }
        if rec.out.end() > plan.arena_len() {
            diags.push(Diagnostic::new(
                Code::PlanArenaOverlap,
                span(),
                format!(
                    "output range [{}, {}) exceeds the {}-element arena",
                    rec.out.offset,
                    rec.out.end(),
                    plan.arena_len()
                ),
            ));
        }
        if rec.inputs.len() != node.inputs.len() || rec.in_shapes.len() != node.inputs.len() {
            diags.push(Diagnostic::new(
                Code::PlanShapeMismatch,
                span(),
                format!(
                    "record has {} input ranges / {} input shapes for a {}-input node",
                    rec.inputs.len(),
                    rec.in_shapes.len(),
                    node.inputs.len()
                ),
            ));
            continue;
        }
        for (k, producer_id) in node.inputs.iter().enumerate() {
            let producer = graph.node(*producer_id);
            let producing = plan.records()[covering[producer.name.as_str()]].out;
            if rec.inputs[k] != producing {
                diags.push(Diagnostic::new(
                    Code::PlanShapeMismatch,
                    span(),
                    format!(
                        "input {k} reads [{}, {}) but `{}` is produced at [{}, {})",
                        rec.inputs[k].offset,
                        rec.inputs[k].end(),
                        producer.name,
                        producing.offset,
                        producing.end()
                    ),
                ));
            }
            if rec.in_shapes[k] != producer.shape {
                diags.push(Diagnostic::new(
                    Code::PlanShapeMismatch,
                    span(),
                    format!(
                        "input {k} shape {:?} vs `{}` shape {:?}",
                        rec.in_shapes[k], producer.name, producer.shape
                    ),
                ));
            }
        }
    }

    // Liveness soundness: recompute each record's live interval from the
    // plan itself — created at its own index, read until its last
    // consumer (the plan output until the end) — and demand that ranges
    // with intersecting intervals never share arena elements.
    let records = plan.records();
    let mut last_use: Vec<usize> = (0..records.len()).collect();
    for (ri, rec) in records.iter().enumerate() {
        let id = graph.find(&rec.name).expect("coverage checked");
        for producer_id in &graph.node(id).inputs {
            let p = covering[graph.node(*producer_id).name.as_str()];
            last_use[p] = last_use[p].max(ri);
        }
    }
    if let Some(out_id) = graph.output() {
        let out_rec = covering[graph.node(out_id).name.as_str()];
        last_use[out_rec] = records.len().saturating_sub(1);
    }
    for i in 0..records.len() {
        for j in (i + 1)..records.len() {
            // Records are in execution order, so the intervals [i,
            // last_use[i]] and [j, last_use[j]] intersect iff range j is
            // created before range i's last read.
            if j <= last_use[i] && records[i].out.overlaps(&records[j].out) {
                diags.push(Diagnostic::new(
                    Code::PlanArenaOverlap,
                    Span::Global,
                    format!(
                        "`{}` (record {i}, live through {}) and `{}` (record {j}) \
                         share arena elements [{}, {}) ∩ [{}, {})",
                        records[i].name,
                        last_use[i],
                        records[j].name,
                        records[i].out.offset,
                        records[i].out.end(),
                        records[j].out.offset,
                        records[j].out.end()
                    ),
                ));
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use vit_graph::{Graph, LayerRole, Op, WeightGen};

    fn small_graph() -> Graph {
        let mut g = Graph::new("plan-pass-test");
        let x = g.input("image", &[1, 3, 8, 8]).unwrap();
        let conv = g
            .add(
                "stem",
                Op::Conv2d {
                    out_channels: 4,
                    kernel: (3, 3),
                    stride: (1, 1),
                    pad: (1, 1),
                    groups: 1,
                    bias: true,
                },
                LayerRole::Backbone,
                &[x],
            )
            .unwrap();
        let act = g
            .add("stem.act", Op::Relu, LayerRole::Backbone, &[conv])
            .unwrap();
        let proj = g
            .add(
                "head",
                Op::Conv2d {
                    out_channels: 2,
                    kernel: (1, 1),
                    stride: (1, 1),
                    pad: (0, 0),
                    groups: 1,
                    bias: false,
                },
                LayerRole::Head,
                &[act],
            )
            .unwrap();
        g.set_output(proj);
        g
    }

    #[test]
    fn sound_plan_is_clean() {
        let g = small_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        let diags = verify_plan(&g, &plan);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn plan_for_a_different_graph_is_flagged() {
        let g = small_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        // Same topology, different head width: costs, shapes, and
        // coverage (node names match) still line up except the sizes.
        let mut other = Graph::new("other");
        let x = other.input("image", &[1, 3, 8, 8]).unwrap();
        let conv = other
            .add(
                "stem",
                Op::Conv2d {
                    out_channels: 4,
                    kernel: (3, 3),
                    stride: (1, 1),
                    pad: (1, 1),
                    groups: 1,
                    bias: true,
                },
                LayerRole::Backbone,
                &[x],
            )
            .unwrap();
        let act = other
            .add("stem.act", Op::Relu, LayerRole::Backbone, &[conv])
            .unwrap();
        let proj = other
            .add(
                "head",
                Op::Conv2d {
                    out_channels: 8,
                    kernel: (1, 1),
                    stride: (1, 1),
                    pad: (0, 0),
                    groups: 1,
                    bias: false,
                },
                LayerRole::Head,
                &[act],
            )
            .unwrap();
        other.set_output(proj);
        let diags = verify_plan(&other, &plan);
        assert!(diags.iter().any(|d| d.code == Code::PlanCostMismatch));
        assert!(diags.iter().any(|d| d.code == Code::PlanShapeMismatch));
    }

    #[test]
    fn missing_node_is_a_coverage_error() {
        let g = small_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        let mut bigger = small_graph();
        let prev = bigger.output().unwrap();
        let extra = bigger
            .add("tail", Op::Identity, LayerRole::Head, &[prev])
            .unwrap();
        bigger.set_output(extra);
        let diags = verify_plan(&bigger, &plan);
        assert!(diags.iter().any(|d| d.code == Code::PlanCoverage));
    }
}
