//! Tests for pruning/data-movement ops: channel slicing, space-to-depth,
//! token concatenation, padded windowing, and deformable attention.

use vit_graph::{Executor, Graph, LayerRole, Op};
use vit_tensor::Tensor;

fn run_single(op: Op, input_shape: &[usize], input: Tensor) -> Tensor {
    let mut g = Graph::new("t");
    let x = g.input("in", input_shape).unwrap();
    let n = g.add("op", op, LayerRole::Other, &[x]).unwrap();
    g.set_output(n);
    Executor::new(0).run(&g, &[input]).unwrap()
}

#[test]
fn slice_channels_nchw_keeps_prefix() {
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 3, 1, 2]).unwrap();
    let y = run_single(Op::SliceChannels { keep: 2 }, &[1, 3, 1, 2], x);
    assert_eq!(y.shape(), &[1, 2, 1, 2]);
    assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn slice_channels_sequence_keeps_prefix_features() {
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 2, 3]).unwrap();
    let y = run_single(Op::SliceChannels { keep: 2 }, &[1, 2, 3], x);
    assert_eq!(y.shape(), &[1, 2, 2]);
    assert_eq!(y.data(), &[1.0, 2.0, 4.0, 5.0]);
}

#[test]
fn slice_channels_rejects_zero_or_too_many() {
    let mut g = Graph::new("t");
    let x = g.input("in", &[1, 3, 2, 2]).unwrap();
    assert!(g
        .add("s0", Op::SliceChannels { keep: 0 }, LayerRole::Other, &[x])
        .is_err());
    assert!(g
        .add("s4", Op::SliceChannels { keep: 4 }, LayerRole::Other, &[x])
        .is_err());
}

#[test]
fn space_to_depth_rearranges() {
    // 2x2 image, 1 channel -> 4 channels of 1x1.
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
    let y = run_single(Op::SpaceToDepth { block: 2 }, &[1, 1, 2, 2], x);
    assert_eq!(y.shape(), &[1, 4, 1, 1]);
    assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn space_to_depth_preserves_elements() {
    let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, 3);
    let y = run_single(Op::SpaceToDepth { block: 4 }, &[2, 3, 8, 8], x.clone());
    assert_eq!(y.shape(), &[2, 48, 2, 2]);
    let mut a: Vec<f32> = x.data().to_vec();
    let mut b: Vec<f32> = y.data().to_vec();
    a.sort_by(f32::total_cmp);
    b.sort_by(f32::total_cmp);
    assert_eq!(a, b);
}

#[test]
fn token_concat_stacks_sequences() {
    let mut g = Graph::new("t");
    let a = g.input("a", &[1, 2, 3]).unwrap();
    let b = g.input("b", &[1, 1, 3]).unwrap();
    let c = g
        .add("cat", Op::ConcatTokens, LayerRole::Other, &[a, b])
        .unwrap();
    g.set_output(c);
    let ta = Tensor::from_vec(vec![1.0; 6], &[1, 2, 3]).unwrap();
    let tb = Tensor::from_vec(vec![2.0; 3], &[1, 1, 3]).unwrap();
    let out = Executor::new(0).run(&g, &[ta, tb]).unwrap();
    assert_eq!(out.shape(), &[1, 3, 3]);
    assert_eq!(&out.data()[..6], &[1.0; 6]);
    assert_eq!(&out.data()[6..], &[2.0; 3]);
}

#[test]
fn padded_window_partition_round_trips() {
    // 10x10 spatial with window 7 -> padded to 14x14, 4 windows.
    let mut g = Graph::new("t");
    let x = g.input("in", &[1, 2, 10, 10]).unwrap();
    let p = g
        .add(
            "part",
            Op::WindowPartition { window: 7 },
            LayerRole::Other,
            &[x],
        )
        .unwrap();
    assert_eq!(g.node(p).shape, vec![4, 49, 2]);
    let m = g
        .add(
            "merge",
            Op::WindowMerge {
                window: 7,
                h: 10,
                w: 10,
            },
            LayerRole::Other,
            &[p],
        )
        .unwrap();
    g.set_output(m);
    let input = Tensor::rand_uniform(&[1, 2, 10, 10], -1.0, 1.0, 5);
    let out = Executor::new(0)
        .run(&g, std::slice::from_ref(&input))
        .unwrap();
    assert_eq!(out, input);
}

#[test]
fn deform_attn_executes_with_expected_shape() {
    let mut g = Graph::new("t");
    let q = g.input("q", &[1, 6, 16]).unwrap();
    let v = g.input("v", &[1, 20, 16]).unwrap();
    let a = g
        .add(
            "dattn",
            Op::DeformAttn {
                heads: 4,
                levels: 2,
                points: 4,
                dim: 16,
            },
            LayerRole::DetTransformerEncoder,
            &[q, v],
        )
        .unwrap();
    g.set_output(a);
    let out = Executor::new(0)
        .run(
            &g,
            &[
                Tensor::rand_uniform(&[1, 6, 16], -1.0, 1.0, 1),
                Tensor::rand_uniform(&[1, 20, 16], -1.0, 1.0, 2),
            ],
        )
        .unwrap();
    assert_eq!(out.shape(), &[1, 6, 16]);
    assert!(out.data().iter().all(|x| x.is_finite()));
}

#[test]
fn deform_attn_flops_account_for_projections() {
    let op = Op::DeformAttn {
        heads: 8,
        levels: 4,
        points: 4,
        dim: 256,
    };
    let q = [1usize, 300, 256];
    let v = [1usize, 1000, 256];
    let out = op.infer_shape("d", &[&q, &v]).unwrap();
    let flops = op.flops(&[&q, &v], &out);
    let expect = 1000 * 256 * 256  // value proj
        + 300 * 256 * 256          // output proj
        + 300 * 256 * (4 * 4 * 3)  // offsets + weights
        + 300 * 4 * 4 * 256; // aggregation
    assert_eq!(flops, expect as u64);
}

#[test]
fn pruned_linear_after_slice_shares_prefix_weights() {
    // slice(keep=4) -> linear must equal the full linear restricted to the
    // first 4 input features (weights slice-consistent by construction).
    let mut g_full = Graph::new("m");
    let x = g_full.input("in", &[1, 1, 6]).unwrap();
    let l = g_full
        .add(
            "proj",
            Op::Linear {
                out_features: 3,
                bias: false,
            },
            LayerRole::Other,
            &[x],
        )
        .unwrap();
    g_full.set_output(l);

    let mut g_cut = Graph::new("m");
    let x2 = g_cut.input("in", &[1, 1, 6]).unwrap();
    let s = g_cut
        .add(
            "cut",
            Op::SliceChannels { keep: 4 },
            LayerRole::Other,
            &[x2],
        )
        .unwrap();
    let l2 = g_cut
        .add(
            "proj",
            Op::Linear {
                out_features: 3,
                bias: false,
            },
            LayerRole::Other,
            &[s],
        )
        .unwrap();
    g_cut.set_output(l2);

    // Feed an input whose last two features are zero: the full and the cut
    // graphs must then agree exactly.
    let mut data = vec![0.3, -0.7, 1.1, 0.9, 0.0, 0.0];
    let input = Tensor::from_vec(std::mem::take(&mut data), &[1, 1, 6]).unwrap();
    let full = Executor::new(9)
        .run(&g_full, std::slice::from_ref(&input))
        .unwrap();
    let cut = Executor::new(9).run(&g_cut, &[input]).unwrap();
    for (a, b) in full.data().iter().zip(cut.data().iter()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn one_executor_serves_graphs_of_different_widths() {
    // Regression test: a single executor's weight cache must not leak a
    // narrow layer's weights into a wider graph that shares node names.
    let build = |out: usize| {
        let mut g = Graph::new("m");
        let x = g.input("in", &[1, 1, 6]).unwrap();
        let l = g
            .add(
                "proj",
                Op::Linear {
                    out_features: out,
                    bias: true,
                },
                LayerRole::Other,
                &[x],
            )
            .unwrap();
        g.set_output(l);
        g
    };
    let narrow = build(4);
    let wide = build(8);
    let mut ex = Executor::new(3);
    let input = Tensor::rand_uniform(&[1, 1, 6], -1.0, 1.0, 1);
    let a = ex.run(&narrow, std::slice::from_ref(&input)).unwrap();
    let b = ex.run(&wide, std::slice::from_ref(&input)).unwrap();
    let c = ex.run(&narrow, &[input]).unwrap();
    assert_eq!(a.shape(), &[1, 1, 4]);
    assert_eq!(b.shape(), &[1, 1, 8]);
    assert_eq!(a, c);
    // Shared prefix weights: the first 4 outputs agree.
    for i in 0..4 {
        assert!((a.data()[i] - b.data()[i]).abs() < 1e-6);
    }
}
