//! Differential tests: the interpreter with its kernels tiled over a pool
//! must be *bit-identical* to the sequential interpreter on randomized
//! graphs at every thread count. Equality is exact (`Tensor: PartialEq` compares raw
//! f32 bits via `==`), not approximate — the determinism contract is that
//! every output element is produced by the exact same floating-point
//! operation sequence regardless of how work is scheduled.

use proptest::prelude::*;
use vit_graph::{ExecOptions, Executor, Graph, LayerRole, Op, RunContext};
use vit_tensor::Tensor;

const THREADS: [usize; 3] = [1, 2, 8];

/// Runs the graph sequentially and at each thread count, asserting exact
/// output equality against the sequential reference.
fn assert_bit_identical(g: &Graph, input: Tensor, seed: u64) {
    let mut exec = Executor::new(seed);
    let inputs = std::slice::from_ref(&input);
    let seq = exec
        .run_with(
            g,
            inputs,
            &RunContext::default().with_exec(ExecOptions::sequential()),
        )
        .unwrap();
    for threads in THREADS {
        let par = exec
            .run_with(
                g,
                inputs,
                &RunContext::default().with_exec(ExecOptions::threaded(threads)),
            )
            .unwrap();
        assert_eq!(
            par, seq,
            "graph `{}` diverged from sequential at {} threads",
            g.model, threads
        );
    }
}

/// A convolutional stack with residual adds and mixed activations: keeps
/// spatial dims via same-padding so every layer can take a residual.
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
        let act = g
            .add(
                &format!("act{i}"),
                if i % 2 == 0 { Op::Relu } else { Op::Gelu },
                LayerRole::Backbone,
                &[c],
            )
            .unwrap();
        // Residual add creates a diamond: `prev` is consumed twice, which
        // exercises the interpreter's per-edge buffer reclamation.
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

/// A transformer-ish tail: flatten -> linear -> layernorm -> self-attention
/// -> linear head. Exercises the tiled matmul/linear/bmm kernels.
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
    // Self-attention: the same node feeds q, k and v (three edges from one
    // producer), another reference-counting stress.
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

/// Two pruned branches concatenated: depthwise + pointwise convs, pooling,
/// and `SliceChannels` — the dynamic-pruning ops from the paper.
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
    fn conv_residual_parallel_is_bit_identical(
        (cin, cout, k, depth, hw) in (1usize..4, 1usize..6, 0usize..3, 1usize..4, 3usize..9),
        seed in any::<u64>(),
    ) {
        let k = 2 * k + 1; // odd kernels so same-padding preserves dims
        let (g, shape) = conv_residual_graph(cin, cout, k, depth, hw);
        assert_bit_identical(&g, Tensor::rand_uniform(&shape, -1.0, 1.0, seed), seed);
    }

    #[test]
    fn attention_parallel_is_bit_identical(
        (cin, hw, heads, head_dim) in (1usize..4, 2usize..6, 1usize..4, 1usize..5),
        seed in any::<u64>(),
    ) {
        let (g, shape) = attention_graph(cin, hw, heads, head_dim);
        assert_bit_identical(&g, Tensor::rand_uniform(&shape, -1.0, 1.0, seed), seed);
    }

    #[test]
    fn branchy_parallel_is_bit_identical(
        (cin, hw) in (2usize..6).prop_flat_map(|c| (Just(c), 2usize..5)),
        keep_frac in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let hw = hw * 2; // MaxPool(2) needs even dims
        let keep = (cin * keep_frac / 2).max(1);
        let (g, shape) = branchy_graph(cin, hw, keep);
        assert_bit_identical(&g, Tensor::rand_uniform(&shape, -1.0, 1.0, seed), seed);
    }
}

/// Weight caching across runs must not perturb determinism: re-running the
/// same graph through the same scratch at a different thread count reuses
/// cached weights, and a fresh executor regenerates them — both paths must
/// produce the same bits.
#[test]
fn weight_cache_reuse_matches_fresh_executor() {
    let (g, shape) = attention_graph(3, 4, 2, 3);
    let input = Tensor::rand_uniform(&shape, -1.0, 1.0, 11);
    let mut warm = Executor::new(7);
    let seq = warm
        .run_with(
            &g,
            std::slice::from_ref(&input),
            &RunContext::default().with_exec(ExecOptions::sequential()),
        )
        .unwrap();
    let warm_par = warm
        .run_with(
            &g,
            std::slice::from_ref(&input),
            &RunContext::default().with_exec(ExecOptions::threaded(4)),
        )
        .unwrap();
    let cold_par = Executor::new(7)
        .run_with(
            &g,
            std::slice::from_ref(&input),
            &RunContext::default().with_exec(ExecOptions::threaded(4)),
        )
        .unwrap();
    assert_eq!(seq, warm_par);
    assert_eq!(seq, cold_par);
}
