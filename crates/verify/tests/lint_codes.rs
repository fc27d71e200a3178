//! One test per lint code: each constructs a minimally-broken graph or
//! LUT (through the unchecked escape hatches where the public builders
//! make the breakage unconstructible) and asserts that exactly the
//! expected diagnostic fires.

use std::sync::OnceLock;
use vit_accel::AccelConfig;
use vit_drt::{DrtEngine, EngineFamily, Lut};
use vit_graph::WeightGen;
use vit_graph::{Graph, LayerRole, NodeId, Op};
use vit_plan::{BufRange, ExecContract, ExecPlan, PlanRecord};
use vit_profiler::Profile;
use vit_resilience::{ResourceKind, Workload};
use vit_serve::SchedulePolicy;
use vit_verify::{
    audit_source, verify_accel_mapping, verify_costs, verify_exec_safety, verify_graph, verify_lut,
    verify_plan_exec, verify_shadow, Code, Diagnostic, LutContext, Severity, VerifyOptions,
};

fn has(diags: &[Diagnostic], code: Code) -> bool {
    diags.iter().any(|d| d.code == code)
}

/// A small well-formed graph: input -> conv -> relu.
fn small_graph() -> Graph {
    let mut g = Graph::new("test");
    let x = g.input("in", &[1, 4, 8, 8]).expect("input");
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
        .expect("conv");
    let r = g
        .add("relu", Op::Relu, LayerRole::Other, &[c])
        .expect("relu");
    g.set_output(r);
    g
}

/// The real SegFormer-B0 GPU-time LUT, built once and shared: the LUT
/// lint tests perturb copies of real rows rather than fabricating them.
fn b0_lut() -> &'static (Lut, LutContext) {
    static CELL: OnceLock<(Lut, LutContext)> = OnceLock::new();
    CELL.get_or_init(|| {
        let engine = DrtEngine::segformer(
            vit_models::SegFormerVariant::b0(),
            Workload::SegFormerAde,
            (64, 64),
            ResourceKind::GpuTime,
        )
        .expect("b0 engine builds");
        let ctx = LutContext::bare(
            EngineFamily::SegFormer(vit_models::SegFormerVariant::b0()),
            150,
            (64, 64),
        );
        (engine.lut().clone(), ctx)
    })
}

#[test]
fn v001_shape_mismatch_fires_on_edited_shape() {
    let g = small_graph();
    let mut nodes = g.nodes().to_vec();
    nodes[1].shape = vec![1, 8, 9, 9]; // conv really produces [1, 8, 8, 8]
    let broken = Graph::from_raw_parts("test", nodes, g.input_ids().to_vec(), g.output());
    let diags = verify_graph(&broken);
    assert!(has(&diags, Code::ShapeMismatch), "{diags:?}");
    assert!(verify_graph(&g).is_empty(), "pristine graph must be clean");
}

#[test]
fn v002_bad_topology_fires_on_forward_edge() {
    let g = small_graph();
    let mut nodes = g.nodes().to_vec();
    nodes[1].inputs = vec![NodeId::from_index(2)]; // conv consumes the later relu
    let broken = Graph::from_raw_parts("test", nodes, g.input_ids().to_vec(), g.output());
    assert!(has(&verify_graph(&broken), Code::BadTopology));
}

#[test]
fn v003_infer_failure_fires_on_incompatible_input() {
    let g = small_graph();
    let mut nodes = g.nodes().to_vec();
    // A rank-1 input cannot feed a 2-D convolution.
    nodes[0].op = Op::Input { shape: vec![5] };
    nodes[0].shape = vec![5];
    let broken = Graph::from_raw_parts("test", nodes, g.input_ids().to_vec(), g.output());
    assert!(has(&verify_graph(&broken), Code::InferFailure));
}

#[test]
fn v004_duplicate_name_fires() {
    let g = small_graph();
    let mut nodes = g.nodes().to_vec();
    nodes[2].name = "conv".to_string(); // now collides with node 1
    let broken = Graph::from_raw_parts("test", nodes, g.input_ids().to_vec(), g.output());
    assert!(has(&verify_graph(&broken), Code::DuplicateName));
}

#[test]
fn v005_missing_output_fires_and_is_a_warning() {
    let g = small_graph();
    let broken = Graph::from_raw_parts("test", g.nodes().to_vec(), g.input_ids().to_vec(), None);
    let diags = verify_graph(&broken);
    let d = diags
        .iter()
        .find(|d| d.code == Code::MissingOutput)
        .expect("V005 fires");
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn v006_role_mismatch_fires_on_convless_fuse_group() {
    // A FuseConv group whose only member is a (parameterized) BatchNorm:
    // the paper's fuse-convolution aggregation would count zero conv FLOPs.
    let mut g = Graph::new("test");
    let x = g.input("in", &[1, 4, 8, 8]).expect("input");
    let bn = g
        .add("fuse.bn", Op::BatchNorm, LayerRole::FuseConv, &[x])
        .expect("bn");
    g.set_output(bn);
    assert!(has(&verify_graph(&g), Code::RoleMismatch));
}

#[test]
fn v006_role_mismatch_fires_on_attention_in_decoder() {
    let mut g = Graph::new("test");
    let q = g.input("q", &[1, 16, 32]).expect("q");
    let s = g
        .add(
            "decoder.sdpa",
            Op::Sdpa { heads: 4 },
            LayerRole::DecoderLinear { stage: 0 },
            &[q, q, q],
        )
        .expect("sdpa");
    g.set_output(s);
    assert!(has(&verify_graph(&g), Code::RoleMismatch));
}

#[test]
fn v010_dead_node_fires_on_unreachable_branch() {
    let mut g = Graph::new("test");
    let x = g.input("in", &[1, 4, 8, 8]).expect("input");
    let live = g
        .add("live", Op::Relu, LayerRole::Other, &[x])
        .expect("live");
    g.add("dead", Op::Gelu, LayerRole::Other, &[x])
        .expect("dead");
    g.set_output(live);
    let diags = verify_graph(&g);
    let d = diags
        .iter()
        .find(|d| d.code == Code::DeadNode)
        .expect("V010 fires");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("unreachable") || !d.message.is_empty());
}

#[test]
fn v020_cost_mismatch_fires_on_edited_profile() {
    let g = small_graph();
    let mut profile = Profile::flops_only(&g);
    assert!(
        verify_costs(&g, &profile).is_empty(),
        "fresh profile is clean"
    );
    profile.layers[1].flops += 1;
    assert!(has(&verify_costs(&g, &profile), Code::CostMismatch));
}

#[test]
fn v021_pareto_nonmonotone_fires_on_swapped_rows() {
    let (lut, ctx) = b0_lut();
    let mut entries = lut.entries().to_vec();
    entries.swap(0, 1);
    let broken = Lut::from_entries_unchecked("swapped", entries);
    let diags = verify_lut(&broken, ctx, &VerifyOptions::default());
    assert!(has(&diags, Code::ParetoNonMonotone));
}

#[test]
fn v021_pareto_nonmonotone_fires_on_dominated_row() {
    let (lut, ctx) = b0_lut();
    let mut entries = lut.entries().to_vec();
    // Row 1 now costs more than row 0 but is no more accurate: dominated.
    entries[1].norm_miou = entries[0].norm_miou;
    let broken = Lut::from_entries_unchecked("dominated", entries);
    assert!(has(
        &verify_lut(&broken, ctx, &VerifyOptions::default()),
        Code::ParetoNonMonotone
    ));
}

#[test]
fn v022_non_finite_fires_on_nan_resource() {
    let (lut, ctx) = b0_lut();
    let mut entries = lut.entries().to_vec();
    entries[0].resource = f64::NAN;
    let broken = Lut::from_entries_unchecked("nan", entries);
    assert!(has(
        &verify_lut(&broken, ctx, &VerifyOptions::default()),
        Code::NonFinite
    ));
}

#[test]
fn v023_empty_lut_fires() {
    let (_, ctx) = b0_lut();
    let empty = Lut::from_entries_unchecked("empty", Vec::new());
    assert!(has(
        &verify_lut(&empty, ctx, &VerifyOptions::default()),
        Code::EmptyLut
    ));
}

#[test]
fn v024_budget_gap_fires_and_is_a_warning() {
    let (lut, ctx) = b0_lut();
    let mut entries = lut.entries().to_vec();
    let last = entries.len() - 1;
    entries[last].resource *= 100.0; // still sorted, but a 100x jump
    let broken = Lut::from_entries_unchecked("gapped", entries);
    let diags = verify_lut(&broken, ctx, &VerifyOptions::default());
    let d = diags
        .iter()
        .find(|d| d.code == Code::BudgetGap)
        .expect("V024 fires");
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn v025_config_invalid_fires_on_wrong_family() {
    let (lut, _) = b0_lut();
    // SegFormer configs checked against a Swin deployment: every row fails.
    let swin_ctx = LutContext::bare(
        EngineFamily::Swin(vit_models::SwinVariant::tiny()),
        150,
        (64, 64),
    );
    let diags = verify_lut(lut, &swin_ctx, &VerifyOptions::default());
    assert!(has(&diags, Code::ConfigInvalid));
}

#[test]
fn v026_policy_infeasible_fires_on_low_floor_and_bad_static_index() {
    let (lut, ctx) = b0_lut();
    let mut ctx = ctx.clone();
    ctx.budget_floor = Some(lut.entries()[0].resource * 0.5);
    ctx.policies = vec![SchedulePolicy::Static { entry_index: 9999 }];
    let diags = verify_lut(lut, &ctx, &VerifyOptions::default());
    let hits = diags
        .iter()
        .filter(|d| d.code == Code::PolicyInfeasible)
        .count();
    assert!(hits >= 2, "both the floor and the index fire: {diags:?}");
}

#[test]
fn v027_norm_out_of_range_fires() {
    let (lut, ctx) = b0_lut();
    let mut entries = lut.entries().to_vec();
    entries[0].norm_miou = 1.5;
    let broken = Lut::from_entries_unchecked("oob", entries);
    assert!(has(
        &verify_lut(&broken, ctx, &VerifyOptions::default()),
        Code::NormOutOfRange
    ));
}

#[test]
fn v030_empty_tiling_fires_on_zero_channel_conv() {
    let g = small_graph();
    let mut nodes = g.nodes().to_vec();
    if let Op::Conv2d { out_channels, .. } = &mut nodes[1].op {
        *out_channels = 0;
    }
    nodes[1].shape = vec![1, 0, 8, 8];
    let broken = Graph::from_raw_parts("test", nodes, g.input_ids().to_vec(), g.output());
    let diags = verify_accel_mapping(
        &broken,
        &AccelConfig::accelerator_a(),
        &VerifyOptions::default(),
    );
    assert!(has(&diags, Code::EmptyTiling));
}

#[test]
fn v031_vector_underutilized_fires_on_degenerate_conv() {
    // c=1 against c0=32 and k=33 against a k0=32 datapath: combined lane
    // utilization (1/32) * (33/64) ~ 1.6%, below the 2% floor.
    let mut g = Graph::new("test");
    let x = g.input("in", &[1, 1, 8, 8]).expect("input");
    let c = g
        .add(
            "conv",
            Op::Conv2d {
                out_channels: 33,
                kernel: (1, 1),
                stride: (1, 1),
                pad: (0, 0),
                groups: 1,
                bias: false,
            },
            LayerRole::Other,
            &[x],
        )
        .expect("conv");
    g.set_output(c);
    let accel = AccelConfig::accelerator_a();
    assert_eq!(
        (accel.k0, accel.c0),
        (32, 32),
        "test assumes the 32x32 datapath"
    );
    let diags = verify_accel_mapping(&g, &accel, &VerifyOptions::default());
    let d = diags
        .iter()
        .find(|d| d.code == Code::VectorUnderutilized)
        .expect("V031 fires");
    assert_eq!(d.severity, Severity::Warning);
}

/// A minimal sound two-record plan (input -> relu) built through the
/// escape hatches, which the V05x tests then break one invariant at a
/// time. Arena: input writes [0, 8), relu reads it and writes [8, 16).
fn sound_exec_plan() -> ExecPlan {
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
        "exec-test",
        vec![r0, r1],
        16,
        BufRange { offset: 8, len: 8 },
        vec![8],
    )
}

fn break_relu(f: impl FnOnce(&mut PlanRecord)) -> ExecPlan {
    let plan = sound_exec_plan();
    let mut records = plan.records().to_vec();
    f(&mut records[1]);
    ExecPlan::from_raw_parts(
        plan.model(),
        records,
        plan.arena_len(),
        plan.output_range(),
        plan.output_shape().to_vec(),
    )
}

#[test]
fn v050_chunk_overlap_fires_on_overlapping_explicit_chunks() {
    let broken = break_relu(|r| {
        r.contract = ExecContract::Explicit {
            chunks: vec![
                BufRange { offset: 0, len: 6 },
                BufRange { offset: 4, len: 4 },
            ],
            reassociates: false,
        };
    });
    let diags = verify_plan_exec(&broken);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.code == Code::ChunkOverlap)
            .count(),
        1,
        "{diags:?}"
    );
    assert!(verify_plan_exec(&sound_exec_plan()).is_empty());
}

#[test]
fn v051_chunk_gap_fires_on_uncovered_output() {
    let broken = break_relu(|r| {
        r.contract = ExecContract::Explicit {
            chunks: vec![
                BufRange { offset: 0, len: 3 },
                BufRange { offset: 5, len: 3 },
            ],
            reassociates: false,
        };
    });
    let diags = verify_plan_exec(&broken);
    assert_eq!(
        diags.iter().filter(|d| d.code == Code::ChunkGap).count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn v052_exec_alias_fires_on_in_place_record() {
    // The relu now writes over the very range it reads.
    let broken = break_relu(|r| {
        r.out = BufRange { offset: 0, len: 8 };
    });
    let diags = verify_plan_exec(&broken);
    assert_eq!(
        diags.iter().filter(|d| d.code == Code::ExecAlias).count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn v053_premature_free_fires_on_freed_range_with_pending_reader() {
    // A third record still reads the input range, but the relu's
    // recorded liveness already freed it.
    let plan = sound_exec_plan();
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
        "exec-test",
        records,
        24,
        BufRange { offset: 16, len: 8 },
        vec![8],
    );
    let diags = verify_plan_exec(&broken);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.code == Code::PrematureFree)
            .count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn v056_fp_reassociation_fires_and_is_a_warning() {
    // A well-formed decomposition that declares reassociation on an op
    // with no registered tolerance class (Relu): the record has left the
    // exact tier with no differential oracle to bound it.
    let broken = break_relu(|r| {
        r.contract = ExecContract::Explicit {
            chunks: vec![
                BufRange { offset: 0, len: 4 },
                BufRange { offset: 4, len: 4 },
            ],
            reassociates: true,
        };
    });
    let diags = verify_plan_exec(&broken);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.code == Code::FpReassociation)
        .collect();
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(!diags.iter().any(|d| d.severity == Severity::Error));
}

#[test]
fn v056_is_silent_when_the_op_has_a_tolerance_class() {
    // The same reassociating decomposition on a Linear record is legal:
    // the Gemm tolerance class bounds its outputs in the tolerance tier.
    let routed = break_relu(|r| {
        r.op = Op::Linear {
            out_features: 8,
            bias: false,
        };
        r.contract = ExecContract::Explicit {
            chunks: vec![
                BufRange { offset: 0, len: 4 },
                BufRange { offset: 4, len: 4 },
            ],
            reassociates: true,
        };
    });
    let diags = verify_plan_exec(&routed);
    assert!(
        !diags.iter().any(|d| d.code == Code::FpReassociation),
        "{diags:?}"
    );
}

#[test]
fn v057_undocumented_unsafe_fires_without_safety_comment() {
    let dirty = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let diags = audit_source("test.rs", dirty);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.code == Code::UndocumentedUnsafe)
            .count(),
        1,
        "{diags:?}"
    );
    let documented = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees `p` is valid.\n    unsafe { *p }\n}\n";
    assert!(audit_source("test.rs", documented).is_empty());
    // Identifier containing the word must not count.
    assert!(audit_source("test.rs", "let unsafe_flag = 1;\n").is_empty());
}

#[test]
fn v058_unchecked_index_fires() {
    let dirty = "// SAFETY: in bounds by construction.\nlet x = unsafe { v.get_unchecked(3) };\n";
    let diags = audit_source("test.rs", dirty);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.code == Code::UncheckedIndex)
            .count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn v059_shadow_divergence_fires_when_runtime_contradicts_static() {
    // The relu reads a range no record ever writes: statically invisible
    // to the plan-local exec checks (nothing is freed, nothing aliases),
    // but the shadow replay observes the unwritten read.
    let plan = sound_exec_plan();
    let mut records = plan.records().to_vec();
    records[1].inputs = vec![BufRange { offset: 16, len: 8 }];
    let broken = ExecPlan::from_raw_parts(
        "exec-test",
        records,
        24,
        BufRange { offset: 8, len: 8 },
        vec![8],
    );
    let static_diags = verify_plan_exec(&broken);
    assert!(static_diags.is_empty(), "{static_diags:?}");
    let diags = verify_shadow(&broken, &static_diags, &[1, 2, 8]);
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.code == Code::ShadowDivergence)
            .count(),
        1,
        "{diags:?}"
    );
}

#[test]
fn exec_safety_pass_is_clean_on_a_compiled_plan() {
    let g = small_graph();
    let plan = ExecPlan::compile(&g, WeightGen::new(0)).expect("compiles");
    let diags = verify_exec_safety(&plan);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn batch_n_plans_satisfy_the_same_exec_safety_contracts() {
    // Continuous batching compiles plans from batch-N graphs: the arena
    // sizing, tiling contracts, and liveness proofs must hold at N > 1
    // exactly as they do at N = 1 — same lints, zero diagnostics.
    use vit_models::{build_segformer, SegFormerConfig, SegFormerDynamic, SegFormerVariant};
    let variant = SegFormerVariant::b0();
    let dynamic = SegFormerDynamic::full(&variant);
    for batch in [1usize, 4] {
        let g = build_segformer(&SegFormerConfig {
            variant,
            num_classes: 150,
            image: (64, 64),
            batch,
            dynamic,
        })
        .expect("batch-N segformer builds");
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).expect("batch-N plan compiles");
        let plan_diags = vit_verify::verify_plan(&g, &plan);
        assert!(plan_diags.is_empty(), "batch={batch}: {plan_diags:?}");
        let diags = verify_exec_safety(&plan);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "batch={batch}: {diags:?}"
        );
    }
}

#[test]
fn every_code_documents_its_invariant() {
    for code in Code::ALL {
        assert!(!code.invariant().is_empty(), "{code} lacks an invariant");
    }
}
