//! Differential tests: replaying a compiled plan must be *bit-identical*
//! to the sequential graph interpreter on randomized graphs at every
//! thread count. Equality is exact (`Tensor: PartialEq` compares raw f32
//! bits) — plan lowering may repack weights and fuse epilogues, but every
//! output element must come from the same floating-point operation
//! sequence.
//!
//! The golden pins at the bottom freeze the plan geometry (record count,
//! fusion count, arena size) for the two serving models, so an
//! unintentional change to fusion legality or the liveness allocator
//! shows up as a diff here before it shows up as a perf regression.

use proptest::prelude::*;
use vit_graph::{ExecOptions, Executor, Graph, LayerRole, Op, RunContext, WeightGen};
use vit_models::{
    build_segformer, build_swin_upernet, SegFormerConfig, SegFormerVariant, SwinConfig, SwinVariant,
};
use vit_plan::ExecPlan;
use vit_tensor::Tensor;

const THREADS: [usize; 3] = [1, 2, 8];

/// Compiles the graph and asserts plan replay matches the sequential
/// interpreter exactly, at every thread count. Also holds the exec-safety
/// agreement: the static verdict (vit-verify pass 6) and the dynamic
/// shadow-access replay must both be clean on every compiled plan, at
/// every sampled thread count — neither witness may see a hazard the
/// other misses.
fn assert_plan_bit_identical(g: &Graph, input: Tensor, seed: u64) {
    let inputs = std::slice::from_ref(&input);
    let seq = Executor::new(seed)
        .run_with(
            g,
            inputs,
            &RunContext::default().with_exec(ExecOptions::sequential()),
        )
        .unwrap();
    let plan = ExecPlan::compile(g, WeightGen::new(seed)).unwrap();
    let static_diags = vit_verify::verify_plan_exec(&plan);
    assert!(
        static_diags.is_empty(),
        "exec-safety pass flagged a compiled plan for `{}`: {static_diags:?}",
        g.model
    );
    for threads in THREADS {
        let violations = plan.shadow_replay(threads);
        assert!(
            violations.is_empty(),
            "shadow replay for `{}` at {} threads disagrees with the clean \
             static verdict: {violations:?}",
            g.model,
            threads
        );
        let ctx = RunContext::default().with_exec(ExecOptions::threaded(threads));
        let replayed = plan.execute(inputs, &ctx).unwrap();
        assert_eq!(
            replayed, seq,
            "plan for `{}` diverged from the interpreter at {} threads",
            g.model, threads
        );
    }
}

/// A convolutional stack with residual adds and mixed activations; the
/// diamonds keep activations multi-consumer, so fusion legality (sole
/// consumer only) is exercised both ways.
fn conv_residual_graph(
    cin: usize,
    cout: usize,
    k: usize,
    depth: usize,
    hw: usize,
) -> (Graph, Vec<usize>) {
    let mut g = Graph::new("conv-residual");
    let shape = vec![1, cin, hw, hw];
    let x = g.input("in", &shape).unwrap();
    let mut prev = g
        .add(
            "stem",
            Op::Conv2d {
                out_channels: cout,
                kernel: (k, k),
                stride: (1, 1),
                pad: (k / 2, k / 2),
                groups: 1,
                bias: true,
            },
            LayerRole::Backbone,
            &[x],
        )
        .unwrap();
    for i in 0..depth {
        let c = g
            .add(
                &format!("conv{i}"),
                Op::Conv2d {
                    out_channels: cout,
                    kernel: (k, k),
                    stride: (1, 1),
                    pad: (k / 2, k / 2),
                    groups: 1,
                    bias: i % 2 == 0,
                },
                LayerRole::Backbone,
                &[prev],
            )
            .unwrap();
        // This activation's producer is a conv and it is the conv's sole
        // consumer, so the plan fuses it into the conv's epilogue.
        let act = g
            .add(
                &format!("act{i}"),
                if i % 2 == 0 { Op::Relu } else { Op::Gelu },
                LayerRole::Backbone,
                &[c],
            )
            .unwrap();
        prev = g
            .add(
                &format!("res{i}"),
                Op::Add,
                LayerRole::Backbone,
                &[prev, act],
            )
            .unwrap();
    }
    g.set_output(prev);
    (g, shape)
}

/// A transformer-ish tail: flatten -> linear -> layernorm ->
/// self-attention -> linear head. Sdpa and LayerNorm replay through the
/// plan's fallback records.
fn attention_graph(cin: usize, hw: usize, heads: usize, head_dim: usize) -> (Graph, Vec<usize>) {
    let dim = heads * head_dim;
    let mut g = Graph::new("attention");
    let shape = vec![1, cin, hw, hw];
    let x = g.input("in", &shape).unwrap();
    let f = g
        .add("flat", Op::FlattenHw, LayerRole::Backbone, &[x])
        .unwrap();
    let e = g
        .add(
            "embed",
            Op::Linear {
                out_features: dim,
                bias: true,
            },
            LayerRole::Backbone,
            &[f],
        )
        .unwrap();
    let n = g
        .add("ln", Op::LayerNorm, LayerRole::Backbone, &[e])
        .unwrap();
    let a = g
        .add("sdpa", Op::Sdpa { heads }, LayerRole::Backbone, &[n, n, n])
        .unwrap();
    let r = g.add("res", Op::Add, LayerRole::Backbone, &[e, a]).unwrap();
    let h = g
        .add(
            "head",
            Op::Linear {
                out_features: 4,
                bias: true,
            },
            LayerRole::Head,
            &[r],
        )
        .unwrap();
    g.set_output(h);
    (g, shape)
}

/// Two pruned branches concatenated: depthwise + pointwise convs,
/// pooling, and `SliceChannels` — the dynamic-pruning ops. The fork at
/// the input and the concat join stress the arena's liveness accounting.
fn branchy_graph(cin: usize, hw: usize, keep: usize) -> (Graph, Vec<usize>) {
    let mut g = Graph::new("branchy");
    let shape = vec![1, cin, hw, hw];
    let x = g.input("in", &shape).unwrap();
    let dw = g
        .add(
            "dw",
            Op::Conv2d {
                out_channels: cin,
                kernel: (3, 3),
                stride: (1, 1),
                pad: (1, 1),
                groups: cin,
                bias: true,
            },
            LayerRole::Backbone,
            &[x],
        )
        .unwrap();
    let sliced = g
        .add(
            "slice",
            Op::SliceChannels { keep },
            LayerRole::Backbone,
            &[dw],
        )
        .unwrap();
    let pooled = g
        .add(
            "pool",
            Op::MaxPool {
                window: 2,
                stride: 2,
                pad: 0,
            },
            LayerRole::Backbone,
            &[x],
        )
        .unwrap();
    let up = g
        .add(
            "up",
            Op::Resize {
                out_h: hw,
                out_w: hw,
            },
            LayerRole::Backbone,
            &[pooled],
        )
        .unwrap();
    let cat = g
        .add("cat", Op::Concat, LayerRole::Head, &[sliced, up])
        .unwrap();
    let head = g
        .add(
            "head",
            Op::Conv2d {
                out_channels: 3,
                kernel: (1, 1),
                stride: (1, 1),
                pad: (0, 0),
                groups: 1,
                bias: true,
            },
            LayerRole::Head,
            &[cat],
        )
        .unwrap();
    g.set_output(head);
    (g, shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_residual_plan_is_bit_identical(
        (cin, cout, k, depth, hw) in (1usize..4, 1usize..6, 0usize..3, 1usize..4, 3usize..9),
        seed in any::<u64>(),
    ) {
        let k = 2 * k + 1; // odd kernels so same-padding preserves dims
        let (g, shape) = conv_residual_graph(cin, cout, k, depth, hw);
        assert_plan_bit_identical(&g, Tensor::rand_uniform(&shape, -1.0, 1.0, seed), seed);
    }

    #[test]
    fn attention_plan_is_bit_identical(
        (cin, hw, heads, head_dim) in (1usize..4, 2usize..6, 1usize..4, 1usize..5),
        seed in any::<u64>(),
    ) {
        let (g, shape) = attention_graph(cin, hw, heads, head_dim);
        assert_plan_bit_identical(&g, Tensor::rand_uniform(&shape, -1.0, 1.0, seed), seed);
    }

    #[test]
    fn branchy_plan_is_bit_identical(
        (cin, hw) in (2usize..6).prop_flat_map(|c| (Just(c), 2usize..5)),
        keep_frac in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let hw = hw * 2; // MaxPool(2) needs even dims
        let keep = (cin * keep_frac / 2).max(1);
        let (g, shape) = branchy_graph(cin, hw, keep);
        assert_plan_bit_identical(&g, Tensor::rand_uniform(&shape, -1.0, 1.0, seed), seed);
    }
}

/// Golden pins: the plan geometry of the two serving models at the bench
/// geometry (full dynamic config, 64x64 input). These numbers changing is
/// not necessarily a bug — but it must be a *decision*, because record
/// count, fusion count, and arena size are the levers plan performance
/// stands on.
#[test]
fn segformer_b0_plan_geometry_is_pinned() {
    let g = build_segformer(&SegFormerConfig {
        image: (64, 64),
        ..SegFormerConfig::ade20k(SegFormerVariant::b0())
    })
    .unwrap();
    let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
    assert_eq!(plan.graph_nodes(), g.len());
    assert_eq!(plan.records().len(), 187);
    assert_eq!(plan.fused_nodes(), 0);
    assert_eq!(plan.arena_len(), 1_257_472);
    assert_eq!(plan.total_flops(), g.total_flops());
    assert_eq!(plan.total_params(), g.total_params());
    assert_eq!(reassociating_records(&plan), 64);
}

/// Records whose contract routes them to the tolerance tier — the
/// GEMM-backed packed-weight kernels (multi-input-channel convs and
/// linears). The count is part of the pinned geometry: a record silently
/// moving between tiers changes which differential holds it.
fn reassociating_records(plan: &ExecPlan) -> usize {
    plan.records()
        .iter()
        .filter(|r| r.contract.reassociates())
        .count()
}

#[test]
fn swin_tiny_plan_geometry_is_pinned() {
    let g = build_swin_upernet(&SwinConfig {
        image: (64, 64),
        ..SwinConfig::ade20k(SwinVariant::tiny())
    })
    .unwrap();
    let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
    assert_eq!(plan.graph_nodes(), g.len());
    assert_eq!(plan.records().len(), 278);
    assert_eq!(plan.fused_nodes(), 12);
    assert_eq!(plan.arena_len(), 1_291_648);
    assert_eq!(plan.total_flops(), g.total_flops());
    assert_eq!(plan.total_params(), g.total_params());
    assert_eq!(reassociating_records(&plan), 89);
}
