//! # vit-verify
//!
//! Static analysis for the DRT reproduction: multi-pass verification of
//! execution graphs and Pareto LUTs with rustc-style typed diagnostics.
//!
//! The paper's premise (§III-IV) is that dynamic execution paths —
//! bypassed encoder layers, reduced decoder channels — remain *valid*
//! programs whose analytical cost predictions the LUT can trust. This
//! crate is the tooling that makes that premise checkable offline:
//!
//! * **pass 1, graph well-formedness** ([`verify_graph`]) — re-runs shape
//!   inference over every node and diffs against stored shapes, checks
//!   topological/id invariants, dead nodes, and role consistency;
//! * **pass 2, cost conservation** ([`verify_costs`]) — re-derives
//!   per-node FLOPs/params/bytes and demands exact agreement between the
//!   graph's aggregations and the profiler's summaries;
//! * **pass 3, LUT soundness** ([`verify_lut`]) — strict Pareto
//!   monotonicity, finiteness, budget coverage, config materialization,
//!   and serve-policy feasibility;
//! * **pass 4, accelerator mapping** ([`verify_accel_mapping`]) — every
//!   MAC contraction must tile the vector datapath legally;
//! * **pass 5, plan equivalence** ([`verify_plan`]) — a compiled
//!   execution plan must be the same program as its source graph: exact
//!   cost totals, exactly-once node coverage, a sound arena layout, and
//!   buffer wiring that matches the graph's edges;
//! * **pass 6, exec safety** ([`verify_exec_safety`]) — the plan must be
//!   safe to run in parallel: every record's chunk decomposition
//!   partitions its output range with no overlap, recorded liveness
//!   never frees a range a reader still needs, FP reassociation is
//!   declared and tolerance-tiered, and hot-path `unsafe`/unchecked
//!   indexing is audited ([`audit_sources`]); a debug shadow-access
//!   replay cross-validates the static verdict.
//!
//! Each finding is a [`Diagnostic`] with a stable [`Code`] (`V001`
//! shape-mismatch, `V021` pareto-nonmonotone, ...), a severity, a span,
//! and an optional help line; a [`Report`] renders them human-readable or
//! as JSON. `repro verify [--json] [--deny-warnings]` runs everything
//! over every built-in model.
//!
//! # Examples
//!
//! ```
//! use vit_models::{build_segformer, SegFormerConfig, SegFormerVariant};
//! use vit_verify::verify_model;
//!
//! # fn main() -> Result<(), vit_models::ModelError> {
//! let g = build_segformer(
//!     &SegFormerConfig::ade20k(SegFormerVariant::b0()).with_image(64, 64))?;
//! let report = verify_model(&g, &Default::default());
//! assert!(report.is_clean(true), "{}", report.render());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod accel_pass;
mod cost_pass;
mod diag;
mod exec_pass;
mod graph_pass;
mod lut_pass;
mod plan_pass;

pub use accel_pass::verify_accel_mapping;
pub use cost_pass::verify_costs;
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use exec_pass::{
    audit_source, audit_sources, exec_safety_summary, verify_exec_safety, verify_plan_exec,
    verify_shadow, ExecSafetySummary,
};
pub use graph_pass::verify_graph;
pub use lut_pass::{verify_lut, LutContext};
pub use plan_pass::verify_plan;

use vit_accel::AccelConfig;
use vit_drt::Lut;
use vit_graph::Graph;
use vit_profiler::Profile;

/// Tunable thresholds for the warning-severity lints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOptions {
    /// `V024` fires when a LUT row's resource is more than this factor
    /// above its predecessor's.
    pub budget_gap_factor: f64,
    /// `V031` fires when a contraction's combined vector-lane utilization
    /// (after padding `c`/`k` up to `c0`/`k0`) falls below this fraction.
    pub min_mac_utilization: f64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            // The widest ratio between neighboring rows observed across the
            // shipped sweep spaces is well under 4x; a larger jump means
            // the sweep lost a region of the trade-off curve.
            budget_gap_factor: 4.0,
            // 2%: low enough that the deliberately narrow real layers
            // (RGB stems, depthwise convolutions) stay quiet, high enough
            // to catch degenerate single-channel contractions.
            min_mac_utilization: 0.02,
        }
    }
}

/// Runs passes 1 and 2 over a graph (well-formedness + cost conservation
/// against a fresh [`Profile::flops_only`]).
pub fn verify_model(graph: &Graph, _opts: &VerifyOptions) -> Report {
    let mut report = Report::new(format!("{} ({} nodes)", graph.model, graph.len()));
    report.extend(verify_graph(graph));
    // Cost conservation is only meaningful over a structurally sound
    // graph; re-deriving FLOPs of a node whose shapes are wrong would
    // double-report the same root cause.
    if report.errors() == 0 {
        report.extend(verify_costs(graph, &Profile::flops_only(graph)));
    }
    report
}

/// Runs passes 1, 2, and 4 over a graph: everything [`verify_model`] runs
/// plus the accelerator mapping pass for each hardware configuration.
pub fn verify_model_on_accelerators(
    graph: &Graph,
    accels: &[(&str, AccelConfig)],
    opts: &VerifyOptions,
) -> Report {
    let mut report = verify_model(graph, opts);
    if report.errors() == 0 {
        for (_, accel) in accels {
            report.extend(verify_accel_mapping(graph, accel, opts));
        }
    }
    report
}

/// Runs pass 3 over a LUT, returning a full [`Report`].
pub fn verify_lut_report(lut: &Lut, ctx: &LutContext, opts: &VerifyOptions) -> Report {
    let mut report = Report::new(format!("LUT `{}` ({} rows)", lut.description, lut.len()));
    report.extend(verify_lut(lut, ctx, opts));
    report
}
