//! The `repro verify --json` exit-code contract, held against seeded
//! broken artifacts: exit code zero when every report is clean, non-zero
//! on any error, non-zero on warnings only under `--deny-warnings` — and
//! a JSON rendering whose schema (code, severity, span kind, message)
//! downstream tooling can rely on.
//!
//! Each V05x lint gets one test: a purpose-built broken artifact is
//! assembled through the `from_raw_parts` escape hatches (the sound
//! constructors cannot express the breakage), verified, and its report
//! driven through the same [`exit_code`] mapping `repro verify` uses.

use vit_bench::experiments::verify::exit_code;
use vit_graph::{Graph, LayerRole, Op, WeightGen};
use vit_plan::{BufRange, ExecContract, ExecPlan, PlanRecord};
use vit_verify::{
    audit_source, verify_exec_safety, verify_plan_exec, verify_shadow, Code, Diagnostic, Report,
    Severity,
};

/// input -> conv -> relu, a small sound graph.
fn small_graph() -> Graph {
    let mut g = Graph::new("contract");
    let x = g.input("in", &[1, 4, 8, 8]).unwrap();
    let c = g
        .add(
            "conv",
            Op::Conv2d {
                out_channels: 8,
                kernel: (3, 3),
                stride: (1, 1),
                pad: (1, 1),
                groups: 1,
                bias: true,
            },
            LayerRole::Other,
            &[x],
        )
        .unwrap();
    let r = g.add("relu", Op::Relu, LayerRole::Other, &[c]).unwrap();
    g.set_output(r);
    g
}

/// A sound two-record plan (input -> relu) assembled through the escape
/// hatches; each test then breaks one invariant.
fn sound_plan() -> ExecPlan {
    let r0 = PlanRecord::from_raw_parts(
        "in",
        Op::Input { shape: vec![8] },
        vec![],
        vec![],
        BufRange { offset: 0, len: 8 },
        vec![8],
    );
    let r1 = PlanRecord::from_raw_parts(
        "relu",
        Op::Relu,
        vec![BufRange { offset: 0, len: 8 }],
        vec![vec![8]],
        BufRange { offset: 8, len: 8 },
        vec![8],
    );
    ExecPlan::from_raw_parts(
        "contract",
        vec![r0, r1],
        16,
        BufRange { offset: 8, len: 8 },
        vec![8],
    )
}

fn rebuild(plan: &ExecPlan, records: Vec<PlanRecord>, arena_len: usize) -> ExecPlan {
    ExecPlan::from_raw_parts(
        plan.model(),
        records,
        arena_len,
        plan.output_range(),
        plan.output_shape().to_vec(),
    )
}

/// Wraps pass-6 findings in a report and asserts the full contract for
/// one code: the expected lint is present exactly once, the JSON schema
/// carries it, and the exit-code mapping honors its severity.
fn assert_contract(diags: Vec<Diagnostic>, code: Code) {
    let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == code).collect();
    assert_eq!(hits.len(), 1, "{code} must fire exactly once: {diags:?}");
    let severity = hits[0].severity;

    let mut report = Report::new("seeded-broken artifact");
    report.extend(diags);

    // JSON schema: target, counts, and a diagnostics array whose entries
    // carry code/severity/span/message.
    let json = report.to_json();
    assert!(
        json.contains("\"target\": \"seeded-broken artifact\""),
        "{json}"
    );
    assert!(json.contains(&format!("\"code\": \"{code}\"")), "{json}");
    assert!(
        json.contains(&format!("\"severity\": \"{severity}\"")),
        "{json}"
    );
    assert!(json.contains("\"kind\": "), "span kind missing: {json}");
    assert!(json.contains("\"message\": "), "{json}");
    assert!(
        json.contains(&format!("\"errors\": {}", report.errors())),
        "{json}"
    );
    assert!(
        json.contains(&format!("\"warnings\": {}", report.warnings())),
        "{json}"
    );

    // Exit-code contract: errors always fail; warnings only fail under
    // --deny-warnings.
    match severity {
        Severity::Error => {
            assert_eq!(exit_code(report.errors(), report.warnings(), false), 1);
            assert_eq!(exit_code(report.errors(), report.warnings(), true), 1);
        }
        Severity::Warning => {
            assert_eq!(exit_code(report.errors(), report.warnings(), false), 0);
            assert_eq!(exit_code(report.errors(), report.warnings(), true), 1);
        }
    }
}

#[test]
fn clean_artifacts_exit_zero() {
    let g = small_graph();
    let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
    let diags = verify_exec_safety(&plan);
    assert!(diags.is_empty(), "{diags:?}");
    let mut report = Report::new("clean");
    report.extend(diags);
    assert_eq!(exit_code(report.errors(), report.warnings(), true), 0);
    assert!(report.to_json().contains("\"diagnostics\": []"));
}

#[test]
fn v050_chunk_overlap_contract() {
    let plan = sound_plan();
    let mut records = plan.records().to_vec();
    records[1].contract = ExecContract::Explicit {
        chunks: vec![
            BufRange { offset: 0, len: 6 },
            BufRange { offset: 4, len: 4 },
        ],
        reassociates: false,
    };
    let broken = rebuild(&plan, records, 16);
    assert_contract(verify_plan_exec(&broken), Code::ChunkOverlap);
}

#[test]
fn v051_chunk_gap_contract() {
    let plan = sound_plan();
    let mut records = plan.records().to_vec();
    records[1].contract = ExecContract::Explicit {
        chunks: vec![BufRange { offset: 0, len: 5 }],
        reassociates: false,
    };
    let broken = rebuild(&plan, records, 16);
    assert_contract(verify_plan_exec(&broken), Code::ChunkGap);
}

#[test]
fn v052_exec_alias_contract() {
    let plan = sound_plan();
    let mut records = plan.records().to_vec();
    records[1].out = BufRange { offset: 4, len: 8 };
    let broken = ExecPlan::from_raw_parts(
        plan.model(),
        records,
        16,
        BufRange { offset: 4, len: 8 },
        vec![8],
    );
    assert_contract(verify_plan_exec(&broken), Code::ExecAlias);
}

#[test]
fn v053_premature_free_contract() {
    let plan = sound_plan();
    let mut records = plan.records().to_vec();
    records[1].frees = vec![BufRange { offset: 0, len: 8 }];
    records.push(PlanRecord::from_raw_parts(
        "late-reader",
        Op::Gelu,
        vec![BufRange { offset: 0, len: 8 }],
        vec![vec![8]],
        BufRange { offset: 16, len: 8 },
        vec![8],
    ));
    let broken = ExecPlan::from_raw_parts(
        plan.model(),
        records,
        24,
        BufRange { offset: 16, len: 8 },
        vec![8],
    );
    assert_contract(verify_plan_exec(&broken), Code::PrematureFree);
}

#[test]
fn v056_fp_reassociation_contract() {
    let plan = sound_plan();
    let mut records = plan.records().to_vec();
    records[1].contract = ExecContract::Explicit {
        chunks: vec![
            BufRange { offset: 0, len: 4 },
            BufRange { offset: 4, len: 4 },
        ],
        reassociates: true,
    };
    let broken = rebuild(&plan, records, 16);
    assert_contract(verify_plan_exec(&broken), Code::FpReassociation);
}

#[test]
fn v057_undocumented_unsafe_contract() {
    let diags = audit_source(
        "seeded.rs",
        "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    assert_contract(diags, Code::UndocumentedUnsafe);
}

#[test]
fn v058_unchecked_index_contract() {
    let diags = audit_source(
        "seeded.rs",
        "// SAFETY: index is in bounds by construction.\nlet x = unsafe { v.get_unchecked(1) };\n",
    );
    assert_contract(diags, Code::UncheckedIndex);
}

#[test]
fn v059_shadow_divergence_contract() {
    // A read of a range no record ever writes: invisible to the static
    // plan-local checks, caught by the shadow replay.
    let plan = sound_plan();
    let mut records = plan.records().to_vec();
    records[1].inputs = vec![BufRange { offset: 16, len: 8 }];
    let broken = ExecPlan::from_raw_parts(
        plan.model(),
        records,
        24,
        BufRange { offset: 8, len: 8 },
        vec![8],
    );
    let static_diags = verify_plan_exec(&broken);
    assert!(static_diags.is_empty(), "{static_diags:?}");
    assert_contract(
        verify_shadow(&broken, &static_diags, &[1, 2, 8]),
        Code::ShadowDivergence,
    );
}
