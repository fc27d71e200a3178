//! Differential tests: replaying a compiled plan must be *bit-identical*
//! to the sequential graph interpreter on randomized graphs at every
//! thread count. Equality is exact (`Tensor: PartialEq` compares raw f32
//! bits) — plan lowering may repack weights and fuse epilogues, but every
//! output element must come from the same floating-point operation
//! sequence.
//!
//! Whole models replay bit-identically too: the two serving models, and
//! small configurations of DETR, Deformable DETR, the ResNet-50
//! classifier and ViT.
//!
//! The golden pins at the bottom freeze the plan geometry (record count,
//! fusion count, arena size) for the two serving models, so an
//! unintentional change to fusion legality or the liveness allocator
//! shows up as a diff here before it shows up as a perf regression.

use proptest::prelude::*;
use vit_graph::{ExecOptions, Executor, Graph, LayerRole, Op, RunContext, WeightGen};
use vit_models::{
    build_deformable_detr, build_detr, build_resnet, build_segformer, build_swin_upernet,
    build_vit, DetrConfig, EncoderStackConfig, ResNetConfig, SegFormerConfig, SegFormerDynamic,
    SegFormerVariant, SwinConfig, SwinVariant, VitConfig,
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
    assert_plan_bit_identical_at(g, &[input], seed, &THREADS);
}

/// [`assert_plan_bit_identical`] on all of the graph's inputs, at the
/// given thread counts.
fn assert_plan_bit_identical_at(g: &Graph, inputs: &[Tensor], seed: u64, threads: &[usize]) {
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
    for &threads in threads {
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
/// self-attention -> linear head, on the native attention and LayerNorm
/// steps.
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

/// A SegFormer-decoder-shaped tail over a batch: tokens projected by a
/// linear layer and folded back to planes (`FlattenHw` -> `Linear` ->
/// `UnflattenHw`), a same-size `Resize` of that branch (lowered to a
/// copy), a second branch resized away and back (up- or down-sampling,
/// possibly non-square), the two concatenated along channels, and a 1x1
/// fuse conv. Every memory op here replays on a native plan step.
fn decoder_graph(
    batch: usize,
    (cin, dim): (usize, usize),
    (h, w): (usize, usize),
    (mid_h, mid_w): (usize, usize),
) -> (Graph, Vec<usize>) {
    let mut g = Graph::new("decoder");
    let shape = vec![batch, cin, h, w];
    let x = g.input("in", &shape).unwrap();
    let f = g.add("flat", Op::FlattenHw, LayerRole::Head, &[x]).unwrap();
    let l = g
        .add(
            "proj",
            Op::Linear {
                out_features: dim,
                bias: true,
            },
            LayerRole::Head,
            &[f],
        )
        .unwrap();
    let u = g
        .add("unflat", Op::UnflattenHw { h, w }, LayerRole::Head, &[l])
        .unwrap();
    let same = g
        .add(
            "proj.resize",
            Op::Resize { out_h: h, out_w: w },
            LayerRole::Head,
            &[u],
        )
        .unwrap();
    let mid = g
        .add(
            "side.resize",
            Op::Resize {
                out_h: mid_h,
                out_w: mid_w,
            },
            LayerRole::Head,
            &[x],
        )
        .unwrap();
    let back = g
        .add(
            "side.upsample",
            Op::Resize { out_h: h, out_w: w },
            LayerRole::Head,
            &[mid],
        )
        .unwrap();
    let cat = g
        .add("cat", Op::Concat, LayerRole::Head, &[same, back])
        .unwrap();
    let fuse = g
        .add(
            "fuse",
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
    g.set_output(fuse);
    (g, shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decoder_plan_is_bit_identical(
        batch in 1usize..=2,
        (cin, dim) in (1usize..5, 1usize..6),
        (h, w) in (1usize..7, 1usize..7),
        (mid_h, mid_w) in (1usize..13, 1usize..13),
        seed in any::<u64>(),
    ) {
        let (g, shape) = decoder_graph(batch, (cin, dim), (h, w), (mid_h, mid_w));
        assert_plan_bit_identical(&g, Tensor::rand_uniform(&shape, -1.0, 1.0, seed), seed);
    }

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

/// SegFormer-B0's cheapest extended-sweep path: one encoder block per
/// stage, a quarter of the fuse input, half the fuse output and half of
/// `DecodeLinear0`'s input (which inserts `decoder.linear0.slice`).
fn segformer_b0_cheapest(batch: usize) -> Graph {
    let variant = SegFormerVariant::b0();
    build_segformer(&SegFormerConfig {
        image: (64, 64),
        batch,
        dynamic: SegFormerDynamic {
            depths: [1; 4],
            fuse_in_channels: variant.full_fuse_in() / 4,
            fuse_out_channels: variant.decoder_dim / 2,
            decode_linear0_in: variant.embed_dims[0] / 2,
        },
        ..SegFormerConfig::ade20k(variant)
    })
    .unwrap()
}

/// Whole serving models replay bit-identically at threads {1, 2, 8},
/// every record on a native step: the cheapest B0 path (with its channel
/// slice) at batch 1, and the full B0 path at batch 2 (attention rows and
/// norm planes then span two items).
#[test]
fn segformer_b0_plans_are_native_and_bit_identical() {
    let full_b2 = build_segformer(&SegFormerConfig {
        image: (64, 64),
        batch: 2,
        ..SegFormerConfig::ade20k(SegFormerVariant::b0())
    })
    .unwrap();
    for (g, batch) in [(segformer_b0_cheapest(1), 1), (full_b2, 2)] {
        let plan = ExecPlan::compile(&g, WeightGen::new(3)).unwrap();
        let sliced = plan
            .records()
            .iter()
            .any(|r| r.op.kind_name() == "SliceChannels");
        assert_eq!(sliced, batch == 1, "only the cheapest path slices");
        let input = Tensor::rand_uniform(&[batch, 3, 64, 64], -1.0, 1.0, 7);
        assert_plan_bit_identical(&g, input, 3);
    }
}

/// The plan's folds — each MixFFN's `unflatten → dwconv → flatten →
/// gelu` as one token-major depthwise step with GELU at its store, and
/// the decoder concat read in place by `conv_fuse` — keep replay
/// bit-identical to the interpreter: B0 and B2, at 64² and 128², batch 1
/// and 4, on the full path, the cheapest path and a path that prunes only
/// `decode_linear0_in`, each at threads 1 and 2.
#[test]
fn folded_segformer_plans_are_bit_identical_across_geometries() {
    let full = |v: &SegFormerVariant| SegFormerDynamic::full(v);
    let cheapest = |v: &SegFormerVariant| SegFormerDynamic {
        depths: [1; 4],
        fuse_in_channels: v.full_fuse_in() / 4,
        fuse_out_channels: v.decoder_dim / 2,
        decode_linear0_in: v.embed_dims[0] / 2,
    };
    let pruned = |v: &SegFormerVariant| SegFormerDynamic {
        decode_linear0_in: v.embed_dims[0] / 4,
        ..SegFormerDynamic::full(v)
    };
    let (b0, b2) = (SegFormerVariant::b0(), SegFormerVariant::b2());
    for (variant, side, batch, dynamic) in [
        (b0, 64, 1, full(&b0)),
        (b0, 64, 4, cheapest(&b0)),
        (b0, 128, 1, pruned(&b0)),
        (b0, 128, 4, full(&b0)),
        (b2, 64, 1, cheapest(&b2)),
        (b2, 64, 4, pruned(&b2)),
        (b2, 128, 1, full(&b2)),
    ] {
        let g = build_segformer(&SegFormerConfig {
            image: (side, side),
            batch,
            dynamic,
            ..SegFormerConfig::ade20k(variant)
        })
        .unwrap();
        let plan = ExecPlan::compile(&g, WeightGen::new(9)).unwrap();
        // Three nodes fold into every block's dwconv, three into conv_fuse.
        let blocks: usize = dynamic.depths.iter().sum();
        assert_eq!(plan.fused_nodes(), 3 * blocks + 3, "{} {side}²", g.model);
        let input = Tensor::rand_uniform(&[batch, 3, side, side], -1.0, 1.0, 13);
        assert_plan_bit_identical_at(&g, &[input], 9, &[1, 2]);
    }
}

/// The arena is recycled without re-zeroing, so every native step must
/// write its whole output range — including the zero padding tokens of
/// Swin's window partition (64×64 leaves padded windows at every stage).
/// Replaying input A and then input B must equal B on a fresh plan.
#[test]
fn swin_tiny_replay_on_a_recycled_arena_matches_a_fresh_one() {
    let g = build_swin_upernet(&SwinConfig {
        image: (64, 64),
        ..SwinConfig::ade20k(SwinVariant::tiny())
    })
    .unwrap();
    let ctx = RunContext::default();
    let a = Tensor::rand_uniform(&[1, 3, 64, 64], -1.0, 1.0, 11);
    let b = Tensor::rand_uniform(&[1, 3, 64, 64], -1.0, 1.0, 12);
    let plan = ExecPlan::compile(&g, WeightGen::new(5)).unwrap();
    plan.execute(&[a], &ctx).unwrap();
    let reused = plan.execute(std::slice::from_ref(&b), &ctx).unwrap();
    let fresh = ExecPlan::compile(&g, WeightGen::new(5))
        .unwrap()
        .execute(&[b], &ctx)
        .unwrap();
    assert_eq!(reused, fresh);
}

/// A detection or classification model at 64×64 (one-layer transformers)
/// replays bit-identically at threads {1, 2}. On a recycled arena, still
/// dirty from another input, replay matches the first replay of the same
/// input on a fresh arena, so every step (max pool, global average pool,
/// token concat and deformable attention among them) writes its whole
/// output range.
fn assert_model_plan_replays(g: &Graph, ops: &[&str]) {
    let kinds: Vec<&str> = g.iter().map(|(_, n)| n.op.kind_name()).collect();
    for op in ops {
        assert!(kinds.contains(op), "`{}` has no {op} node", g.model);
    }
    let inputs = |seed: u64| -> Vec<Tensor> {
        g.input_ids()
            .iter()
            .zip(seed..)
            .map(|(id, s)| Tensor::rand_uniform(&g.node(*id).shape, -1.0, 1.0, s))
            .collect()
    };
    let (a, b) = (inputs(21), inputs(31));
    assert_plan_bit_identical_at(g, &b, 4, &[1, 2]);
    let plan = ExecPlan::compile(g, WeightGen::new(4)).unwrap();
    let ctx = RunContext::default();
    let fresh = plan.execute(&b, &ctx).unwrap();
    plan.execute(&a, &ctx).unwrap();
    assert_eq!(plan.execute(&b, &ctx).unwrap(), fresh, "`{}`", g.model);
}

/// DETR and Deformable DETR with one encoder and one decoder layer.
fn small_detr(cfg: DetrConfig) -> DetrConfig {
    DetrConfig {
        encoder_layers: 1,
        decoder_layers: 1,
        num_queries: 8,
        ..cfg.with_image(64, 64)
    }
}

#[test]
fn detr_plan_replays_bit_identically() {
    let g = build_detr(&small_detr(DetrConfig::detr_coco())).unwrap();
    assert_model_plan_replays(&g, &["MaxPool", "Sdpa"]);
}

#[test]
fn deformable_detr_plan_replays_bit_identically() {
    let g = build_deformable_detr(&small_detr(DetrConfig::deformable_coco())).unwrap();
    assert_model_plan_replays(&g, &["MaxPool", "ConcatTokens", "DeformAttn"]);
}

#[test]
fn resnet50_classifier_plan_replays_bit_identically() {
    let g = build_resnet(&ResNetConfig::imagenet().with_image(64, 64))
        .unwrap()
        .graph;
    assert_model_plan_replays(&g, &["MaxPool", "GlobalAvgPool"]);
}

#[test]
fn vit_plan_replays_bit_identically() {
    let base = VitConfig::base16();
    let g = build_vit(&VitConfig {
        image: (64, 64),
        stack: EncoderStackConfig {
            layers: 1,
            ..base.stack
        },
        ..base
    })
    .unwrap();
    assert_model_plan_replays(&g, &["SpaceToDepth", "GlobalAvgPool"]);
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
    assert_eq!(plan.records().len(), 160);
    assert_eq!(plan.fused_nodes(), 27);
    assert_eq!(plan.arena_len(), 995_328);
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
