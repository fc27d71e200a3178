//! The two-tier kernel differential suite.
//!
//! **Exact tier** — packed micro-kernels whose per-element accumulation
//! replays the oracle's operation chain term-for-term must match the
//! reference kernels *bitwise*, at every thread count: matmul/linear
//! (panel packing reorders loops, never a single element's k-chain), the
//! direct depthwise conv path (same tap order as the oracle), and the
//! memory ops — the separable resize against the per-pixel oracle, the
//! channel-outer argmax against the per-pixel argmax, and the blocked
//! transpose against the generic `permute` walk — and the head-fused
//! attention against the head-split permute/`bmm`/softmax oracle.
//!
//! **Tolerance tier** — kernels that legally reorder or extend per-element
//! arithmetic are held to the per-op-class bound registered in
//! `vit_tensor::ops::reference::tolerance`. Today that is the im2col conv
//! GEMM path, whose materialized `0.0 * w` padding taps the oracle never
//! evaluates, and GELU, whose f32 `exp` approximation is held to an
//! input-scaled bound against the f64 oracle. GELU's AVX2 kernel and its
//! scalar twin (the fused epilogue) are in the exact tier with each other.
//!
//! Golden pins at the bottom freeze the *measured* ULP error per class so
//! a kernel change that spends tolerance headroom fails loudly instead of
//! silently drifting toward the registered bound.

use proptest::prelude::*;
use vit_tensor::ops::reference::{
    self, max_input_ulp, max_ulp, tolerance, within_tolerance, KernelClass,
};
use vit_tensor::ops::{
    self, block_rows, Conv2dParams, Epilogue, PackedB, PackedConv2d, PackedLinear, MR, NR,
};
use vit_tensor::{corrupt, ExecCtx, Tensor, ThreadPool};

/// Thread counts every differential claim is proved at — the same sample
/// the exec-safety pass and the plan differentials use.
const THREADS: [usize; 3] = [1, 2, 8];

fn with_ctx<R>(threads: usize, f: impl FnOnce(&ExecCtx) -> R) -> R {
    if threads <= 1 {
        f(&ExecCtx::default())
    } else {
        let pool = ThreadPool::new(threads);
        f(&ExecCtx {
            pool: Some(&pool),
            ..ExecCtx::default()
        })
    }
}

/// [`PackedLinear::run`] without an epilogue — the entry point both
/// executors call for a linear layer — into a fresh zeroed output.
fn packed_linear(x: &Tensor, w: &Tensor, b: Option<&Tensor>, ctx: &ExecCtx) -> Tensor {
    let lin = PackedLinear::pack(w, b, Epilogue::None).unwrap();
    let mut shape = x.shape().to_vec();
    *shape.last_mut().unwrap() = lin.out_features();
    let mut out = Tensor::zeros(&shape);
    lin.run(x.data(), out.data_mut(), ctx);
    out
}

/// `a · b` through [`packed_linear`]: `b` is the transpose of the
/// linear layer's `[out, in]` weight.
fn packed_matmul(a: &Tensor, b: &Tensor, ctx: &ExecCtx) -> Tensor {
    packed_linear(a, &b.transpose2().unwrap(), None, ctx)
}

/// [`PackedConv2d::run`] without an epilogue — the entry point both
/// executors call for a convolution — into a fresh zeroed output.
fn packed_conv(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    p: Conv2dParams,
    ctx: &ExecCtx,
) -> Tensor {
    let conv = PackedConv2d::pack(w, b, p, Epilogue::None).unwrap();
    let mut out = Tensor::zeros(&conv.out_shape(x.shape()));
    conv.run(x.data(), x.shape(), out.data_mut(), ctx);
    out
}

/// Inner dimensions that cross every blocking boundary: unit, non-unit
/// remainders of the MR/NR register tile, a few-hundred-deep k chain, and
/// the A-block edge — around [`mc_edge_k`] one A block holds one or two
/// `MR`-row sub-blocks, so the row ranges below span several blocks.
fn awkward_k() -> impl Strategy<Value = usize> {
    let edge = mc_edge_k();
    prop::sample::select(
        (1..=2 * NR + 1)
            .chain(255..=258)
            .chain(edge - 1..=edge + 2)
            .collect(),
    )
}

/// The smallest inner extent at which the GEMM packs A one `MR`-row
/// sub-block at a time (`block_rows(k) == MR`).
fn mc_edge_k() -> usize {
    (1..).find(|&k| block_rows(k) == MR).unwrap()
}

/// Bitwise equality, except that any NaN matches any NaN (the exact tier
/// promises the same operations, not a particular NaN payload).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Overwrites a seeded handful of elements with ±inf, NaN and -0.0.
fn sprinkle_specials(data: &mut [f32], seed: u64) {
    const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
    let len = data.len() as u64;
    for i in 0..(len / 7).max(1) {
        let at = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i.wrapping_mul(1442695040888963407))
            % len;
        data[at as usize] = SPECIALS[(i % 4) as usize];
    }
}

/// Logits drawn from a small integer grid (frequent ties) mixed with
/// infinities, NaN and uniform values.
fn logit() -> impl Strategy<Value = f32> {
    (0u8..9, -3i8..=3, -2.0f32..2.0).prop_map(|(kind, grid, uniform)| match kind {
        0..=3 => f32::from(grid),
        4 | 5 => uniform,
        6 => f32::NEG_INFINITY,
        7 => f32::INFINITY,
        _ => f32::NAN,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- exact tier -------------------------------------------------

    #[test]
    fn packed_matmul_is_bit_identical_to_reference(
        m in 1usize..=2 * MR + 1,
        k in awkward_k(),
        n in 1usize..=2 * NR + 1,
        seed in any::<u64>(),
    ) {
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, seed);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, seed.wrapping_add(1));
        let want = reference::matmul(&a, &b).unwrap();
        prop_assert_eq!(ops::matmul(&a, &b).unwrap().data(), want.data());
        for threads in THREADS {
            let got = with_ctx(threads, |ctx| packed_matmul(&a, &b, ctx));
            prop_assert_eq!(
                got.data(), want.data(),
                "packed matmul diverged from the oracle at {} thread(s)", threads
            );
        }
    }

    #[test]
    fn packed_linear_is_bit_identical_to_reference(
        rows in 1usize..=2 * MR,
        in_features in awkward_k(),
        out_features in 1usize..=2 * NR + 3,
        with_bias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let x = Tensor::rand_uniform(&[rows, in_features], -2.0, 2.0, seed);
        let w = Tensor::rand_uniform(&[out_features, in_features], -2.0, 2.0, seed.wrapping_add(1));
        let b = with_bias
            .then(|| Tensor::rand_uniform(&[out_features], -1.0, 1.0, seed.wrapping_add(2)));
        let want = reference::linear(&x, &w, b.as_ref()).unwrap();
        for threads in THREADS {
            let got = with_ctx(threads, |ctx| packed_linear(&x, &w, b.as_ref(), ctx));
            prop_assert_eq!(got.data(), want.data());
        }
    }

    #[test]
    fn depthwise_conv_direct_path_is_bit_identical_to_reference(
        (c, h, w) in (1usize..5, 3usize..9, 3usize..9),
        (r, s, pad, stride) in (1usize..4, 1usize..4, 0usize..2, 1usize..3),
        seed in any::<u64>(),
    ) {
        // groups == channels: one input channel per filter, the direct
        // path replays the oracle's tap order exactly.
        let x = Tensor::rand_uniform(&[1, c, h, w], -2.0, 2.0, seed);
        let k = Tensor::rand_uniform(&[c, 1, r, s], -2.0, 2.0, seed.wrapping_add(1));
        let p = Conv2dParams::new().pad(pad).stride(stride).groups(c);
        let want = reference::conv2d(&x, &k, None, p).unwrap();
        for threads in THREADS {
            let got = with_ctx(threads, |ctx| packed_conv(&x, &k, None, p, ctx));
            prop_assert_eq!(got.data(), want.data());
        }
    }

    #[test]
    fn separable_resize_is_bit_identical_to_reference(
        (n, c) in (1usize..3, 1usize..4),
        (h, w) in (1usize..12, 1usize..12),
        (out_h, out_w) in (1usize..24, 1usize..24),
        same_size in (0u8..6).prop_map(|v| v == 0),
        specials in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (out_h, out_w) = if same_size { (h, w) } else { (out_h, out_w) };
        let mut x = Tensor::rand_uniform(&[n, c, h, w], -2.0, 2.0, seed);
        if specials {
            sprinkle_specials(x.data_mut(), seed);
        }
        let want = reference::bilinear_resize(&x, out_h, out_w).unwrap();
        let got = ops::bilinear_resize(&x, out_h, out_w).unwrap();
        prop_assert!(same_bits(got.data(), want.data()), "whole-tensor resize diverged");
        // The compiled plan tiles whole output planes over the pool; every
        // split the tiling oracle can produce must compute the same bits.
        let out_plane = out_h * out_w;
        for threads in THREADS {
            let mut tiled = vec![0.0f32; want.numel()];
            for (start, len) in vit_tensor::row_chunks(tiled.len(), out_plane, threads) {
                let first = start / out_plane * h * w;
                ops::bilinear_resize_into(
                    &x.data()[first..],
                    (h, w),
                    &mut tiled[start..start + len],
                    (out_h, out_w),
                );
            }
            prop_assert!(
                same_bits(&tiled, want.data()),
                "plane-tiled resize diverged at {} chunk(s)", threads
            );
        }
    }

    #[test]
    fn channel_outer_argmax_matches_per_pixel_reference(
        ((n, c, h, w), values, special_plane, plane_kind) in (1usize..3, 1usize..7, 1usize..6, 1usize..6)
            .prop_flat_map(|(n, c, h, w)| (
                Just((n, c, h, w)),
                prop::collection::vec(logit(), n * c * h * w),
                0..c,
                0u8..3,
            )),
    ) {
        let mut x = Tensor::from_vec(values, &[n, c, h, w]).unwrap();
        // Whole planes of -inf or NaN: the running best must start below
        // any finite logit, and a NaN plane must never win.
        let plane = h * w;
        let fill = [None, Some(f32::NEG_INFINITY), Some(f32::NAN)][plane_kind as usize];
        if let Some(v) = fill {
            for b in 0..n {
                let at = (b * c + special_plane) * plane;
                x.data_mut()[at..at + plane].fill(v);
            }
        }
        let want = reference::argmax_channels(&x).unwrap();
        let got = x.argmax_channels().unwrap();
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn blocked_transpose_matches_generic_permute(
        (n, a, b) in (1usize..3, 1usize..70, 1usize..70),
        seed in any::<u64>(),
    ) {
        let x = Tensor::rand_uniform(&[n, a, b], -2.0, 2.0, seed);
        // A trailing unit axis routes `permute` through its generic
        // index walk rather than the transpose fast path.
        let want = x
            .reshape(&[n, a, b, 1])
            .and_then(|t| t.permute(&[0, 2, 1, 3]))
            .unwrap();
        let mut got = vec![0.0f32; x.numel()];
        ops::transpose_into(x.data(), a, b, &mut got);
        prop_assert!(same_bits(&got, want.data()));
        let fast = x.permute(&[0, 2, 1]).unwrap();
        prop_assert_eq!(fast.shape(), &[n, b, a][..]);
        prop_assert!(same_bits(fast.data(), want.data()));
    }

    #[test]
    fn fused_sdpa_is_bit_identical_to_reference(
        heads in prop::sample::select(vec![1usize, 2, 5, 8]),
        (batch, n) in (1usize..=2, 1usize..9),
        m in prop::sample::select(vec![1usize, 2, NR - 1, NR, NR + 1, 16, 49]),
        (hd, hdv) in (1usize..=NR + 1, 1usize..=NR + 1),
        specials in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (d, dv) = (heads * hd, heads * hdv);
        let mut q = Tensor::rand_uniform(&[batch, n, d], -2.0, 2.0, seed);
        let mut k = Tensor::rand_uniform(&[batch, m, d], -2.0, 2.0, seed.wrapping_add(1));
        let mut v = Tensor::rand_uniform(&[batch, m, dv], -2.0, 2.0, seed.wrapping_add(2));
        if specials {
            for (i, t) in [&mut q, &mut k, &mut v].into_iter().enumerate() {
                sprinkle_specials(t.data_mut(), seed.wrapping_add(i as u64));
            }
        }
        let want = reference::sdpa(&q, &k, &v, heads).unwrap();
        for threads in THREADS {
            let got = with_ctx(threads, |ctx| ops::sdpa(&q, &k, &v, heads, ctx).unwrap());
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert!(
                same_bits(got.data(), want.data()),
                "fused sdpa diverged from the oracle at {} thread(s)", threads
            );
        }
    }

    // ---- tolerance tier ---------------------------------------------

    #[test]
    fn im2col_conv_is_within_the_conv_class_tolerance(
        (groups, c_per_g, k_per_g) in (1usize..3, 2usize..4, 1usize..4),
        (r, s, pad, stride) in (1usize..4, 1usize..4, 0usize..2, 1usize..3),
        (h_extra, w_extra) in (0usize..5, 0usize..5),
        with_bias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (c, k) = (groups * c_per_g, groups * k_per_g);
        let (h, w) = (r + h_extra, s + w_extra);
        let x = Tensor::rand_uniform(&[1, c, h, w], -2.0, 2.0, seed);
        let wt = Tensor::rand_uniform(&[k, c_per_g, r, s], -2.0, 2.0, seed.wrapping_add(1));
        let b = with_bias.then(|| Tensor::rand_uniform(&[k], -1.0, 1.0, seed.wrapping_add(2)));
        let p = Conv2dParams::new().pad(pad).stride(stride).groups(groups);
        let want = reference::conv2d(&x, &wt, b.as_ref(), p).unwrap();
        let tol = tolerance(KernelClass::Conv);
        for threads in THREADS {
            let got = with_ctx(threads, |ctx| packed_conv(&x, &wt, b.as_ref(), p, ctx));
            prop_assert!(
                within_tolerance(got.data(), want.data(), tol),
                "conv GEMM path exceeded the Conv tolerance at {} thread(s): {} ULP",
                threads, max_ulp(got.data(), want.data())
            );
        }
    }

    // ---- packing ----------------------------------------------------

    #[test]
    fn pack_then_unpack_is_the_identity(
        k in awkward_k(),
        n in 1usize..=3 * NR + 5,
        seed in any::<u64>(),
    ) {
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, seed);
        let packed = PackedB::pack(b.data(), k, n);
        prop_assert_eq!(packed.unpack(), b.data().to_vec());
    }

    #[test]
    fn pack_transposed_then_unpack_is_the_transpose(
        rows in 1usize..=2 * NR + 3,
        cols in 1usize..24,
        seed in any::<u64>(),
    ) {
        let w = Tensor::rand_uniform(&[rows, cols], -2.0, 2.0, seed);
        let packed = PackedB::pack_transposed(w.data(), rows, cols);
        let got = packed.unpack();
        for i in 0..rows {
            for j in 0..cols {
                prop_assert_eq!(got[j * rows + i].to_bits(), w.data()[i * cols + j].to_bits());
            }
        }
    }
}

/// Every small resize geometry, exhaustively: 1-pixel and non-square
/// sources and targets, up- and down-sampling per axis, and the identity.
#[test]
fn separable_resize_matches_reference_on_every_small_geometry() {
    for (h, w) in (1..=5).flat_map(|h| (1..=5).map(move |w| (h, w))) {
        let x = Tensor::rand_uniform(&[2, 2, h, w], -2.0, 2.0, (h * 8 + w) as u64);
        for (oh, ow) in (1..=7).flat_map(|oh| (1..=7).map(move |ow| (oh, ow))) {
            let want = reference::bilinear_resize(&x, oh, ow).unwrap();
            let got = ops::bilinear_resize(&x, oh, ow).unwrap();
            assert!(
                same_bits(got.data(), want.data()),
                "{h}x{w} -> {oh}x{ow} diverged from the per-pixel oracle"
            );
        }
    }
}

/// Every small depthwise geometry, exhaustively: stride {1, 2} (unit
/// stride takes the contiguous-run path, or the AVX-512 block kernel on
/// CPUs with it; the rest the strided walk), pad
/// {0, 1, 2}, square kernels {1, 3, 5}, odd widths and a non-square
/// input, with bias, specials, and whole-plane tiling at every thread
/// count.
#[test]
fn depthwise_conv_matches_reference_on_every_small_geometry() {
    let c = 3;
    for (stride, pad, kernel) in [1, 2]
        .into_iter()
        .flat_map(|st| [0, 1, 2].map(move |p| (st, p)))
        .flat_map(|(st, p)| [1, 3, 5].map(move |r| (st, p, r)))
    {
        // The last three cross the 16- and 32-lane edges and the 4-row
        // block of the AVX-512 kernel.
        for (h, w) in [
            (1, 1),
            (3, 3),
            (5, 7),
            (4, 9),
            (7, 5),
            (6, 11),
            (9, 17),
            (6, 33),
            (13, 16),
        ] {
            if h + 2 * pad < kernel || w + 2 * pad < kernel {
                continue;
            }
            let seed = (stride * 1000 + pad * 100 + kernel * 10 + w) as u64;
            let mut x = Tensor::rand_uniform(&[2, c, h, w], -2.0, 2.0, seed);
            if w % 3 == 0 {
                sprinkle_specials(x.data_mut(), seed);
            }
            let k = Tensor::rand_uniform(&[c, 1, kernel, kernel], -2.0, 2.0, seed + 1);
            let bias = Tensor::rand_uniform(&[c], -1.0, 1.0, seed + 2);
            let p = Conv2dParams::new().pad(pad).stride(stride).groups(c);
            for b in [None, Some(&bias)] {
                let want = reference::conv2d(&x, &k, b, p).unwrap();
                for threads in THREADS {
                    let got = with_ctx(threads, |ctx| packed_conv(&x, &k, b, p, ctx));
                    assert!(
                        same_bits(got.data(), want.data()),
                        "depthwise {h}x{w} kernel {kernel} stride {stride} pad {pad} \
                         bias {} diverged at {threads} thread(s)",
                        b.is_some()
                    );
                }
            }
        }
    }
}

/// Inputs of every 4-plane argmax edge case: `c` around the group width
/// and the real class count, batch 2, ties that straddle a group
/// boundary, and whole NaN / -inf planes.
#[test]
fn four_plane_argmax_matches_reference_at_group_edges() {
    for c in [1usize, 2, 3, 4, 5, 7, 8, 9, 150] {
        let (n, h, w) = (2, 3, 5);
        let plane = h * w;
        let mut x = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, c as u64);
        let d = x.data_mut();
        for b in 0..n {
            let at = |ch: usize, px: usize| (b * c + ch) * plane + px;
            // Pixel 0: a tie between the last plane of one group and the
            // first of the next; the lower channel must win.
            if c > 4 {
                d[at(3, 0)] = 5.0;
                d[at(4, 0)] = 5.0;
            }
            // Pixel 1: a tie inside the leftover planes.
            if c >= 2 {
                d[at(c - 2, 1)] = 6.0;
                d[at(c - 1, 1)] = 6.0;
            }
            // Pixel 2: the maximum in the very last plane.
            d[at(c - 1, 2)] = 7.0;
            // Plane 0 all NaN for item 1, all -inf for item 0: neither
            // may ever win against a finite logit.
            let fill = if b == 1 { f32::NAN } else { f32::NEG_INFINITY };
            d[at(0, 0)..at(0, 0) + plane].fill(fill);
        }
        let want = reference::argmax_channels(&x).unwrap();
        let got = x.argmax_channels().unwrap();
        assert_eq!(got.shape(), want.shape());
        assert_eq!(got.data(), want.data(), "c = {c}");
        if c > 4 {
            assert_eq!(got.data()[0], 3.0, "the tie across planes 3|4 goes low");
        }
    }
    // A NaN in every plane of a pixel leaves its label at channel 0.
    let mut x = Tensor::full(&[1, 6, 1, 2], f32::NAN);
    x.data_mut()[1] = 0.0;
    assert_eq!(
        x.argmax_channels().unwrap().data(),
        reference::argmax_channels(&x).unwrap().data()
    );
}

/// Attention rows at the IEEE edges, against the oracle at every thread
/// count: a query whose every score is `-inf` (the softmax max is `-inf`,
/// so `exp(-inf - -inf)` makes the whole row NaN), a NaN query, a `-0.0`
/// query (every score `0.0`, a uniform average), a value row holding
/// `+inf`, and the same rows split over two heads.
#[test]
fn fused_sdpa_edge_rows_match_reference() {
    let inf = f32::INFINITY;
    let q = Tensor::from_vec(
        vec![inf, inf, f32::NAN, 1.0, -0.0, -0.0, 0.5, -1.5],
        &[1, 4, 2],
    )
    .unwrap();
    let k = Tensor::from_vec(vec![-1.0, -1.0, -2.0, -3.0, -0.5, -4.0], &[1, 3, 2]).unwrap();
    let v = Tensor::from_vec(vec![1.0, -2.0, inf, 0.25, -0.0, 3.0], &[1, 3, 2]).unwrap();
    for heads in [1, 2] {
        let want = reference::sdpa(&q, &k, &v, heads).unwrap();
        if heads == 1 {
            // The first query really is an all -inf score row.
            assert!(want.data()[..2].iter().all(|x| x.is_nan()));
        }
        for threads in THREADS {
            let got = with_ctx(threads, |ctx| ops::sdpa(&q, &k, &v, heads, ctx).unwrap());
            assert!(
                same_bits(got.data(), want.data()),
                "heads={heads} threads={threads}: {:?} vs {:?}",
                got.data(),
                want.data()
            );
        }
    }
}

// ---- GELU -------------------------------------------------------------

/// The x at which the kernel's `exp` argument `-2u` equals `z`, by
/// Newton's method in f64 — the neighbourhoods of `exp`'s clamp and
/// 2ⁿ-overflow edges.
fn gelu_x_at_exp_arg(z: f64) -> f32 {
    let k = -2.0 * (2.0 / std::f64::consts::PI).sqrt();
    let mut x = z / k;
    for _ in 0..60 {
        let g = k * (x + 0.044_715 * x * x * x) - z;
        x -= g / (k * (1.0 + 3.0 * 0.044_715 * x * x));
    }
    x as f32
}

/// Special values plus the 64 floats either side of each `exp` edge:
/// the clamp bounds (89, -88), the first argument whose 2ⁿ overflows to
/// +inf (n = 128 from 88.38) and the first whose 2ⁿ is +0 (n = -127
/// from -87.68).
fn gelu_edge_inputs() -> Vec<f32> {
    let mut xs = vec![
        0.0,
        -0.0,
        1e-45,
        -1e-45,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 3.0,
        f32::MAX,
        -f32::MAX,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for z in [89.0, 88.38, -88.0, -87.68] {
        let x0 = gelu_x_at_exp_arg(z).to_bits();
        xs.extend((x0 - 64..=x0 + 64).map(f32::from_bits));
    }
    xs
}

/// Bitwise equality, elementwise, of the vector `gelu_into` against the
/// scalar twin (`Epilogue::Gelu`, which the fused GEMM/conv epilogues
/// run), on every length up to two AVX2 vectors plus a tail.
#[test]
fn avx2_gelu_is_bit_identical_to_the_scalar_twin() {
    #[cfg(target_arch = "x86_64")]
    if !std::arch::is_x86_feature_detected!("avx2") {
        eprintln!("no AVX2 on this CPU: both sides run the scalar twin");
    }
    let mut pool = gelu_edge_inputs();
    pool.extend(Tensor::rand_uniform(&[64], -12.0, 12.0, 17).data());
    for len in 0..=17 {
        for start in 0..pool.len().saturating_sub(len) {
            let src = &pool[start..start + len];
            let mut got = vec![0.0f32; len];
            ops::gelu_into(src, &mut got);
            let want: Vec<f32> = src.iter().map(|&x| Epilogue::Gelu.apply(x)).collect();
            assert!(same_bits(&got, &want), "len {len} at {start}: {src:?}");
        }
    }
}

/// The IEEE special cases agree with the f64 oracle: NaN → NaN,
/// +inf → +inf, -inf → NaN (`-inf / inf`), and a large negative input
/// → -0.
#[test]
fn gelu_special_values_match_the_oracle() {
    let xs = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -20.0,
        -1e4,
        -f32::MAX,
    ];
    let x = Tensor::from_vec(xs.to_vec(), &[xs.len()]).unwrap();
    for y in [ops::gelu(&x), reference::gelu(&x)] {
        let d = y.data();
        assert!(d[0].is_nan());
        assert_eq!(d[1], f32::INFINITY);
        assert!(d[2].is_nan());
        for &v in &d[3..] {
            assert_eq!(v.to_bits(), (-0.0f32).to_bits());
        }
    }
}

/// A detectable bit-flip upstream of GELU stays detectable downstream
/// whenever the oracle keeps it so: a flip to a huge positive value,
/// +inf or NaN leaves GELU's output non-finite or beyond the guard
/// threshold. A flip to a huge *negative* value is absorbed into -0 by
/// GELU's negative tail, in the kernel and the oracle alike.
#[test]
fn gelu_carries_injected_corruption_to_the_guards() {
    const THRESHOLD: f32 = 1e6;
    let base: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 50.0).collect();
    for start in (0..256).step_by(3) {
        let mut data = base.clone();
        let flip = vit_tensor::corrupt::flip_detectable(&mut data, start, THRESHOLD)
            .expect("plausible activations flip");
        let x = Tensor::from_vec(data, &[256]).unwrap();
        let (got, want) = (ops::gelu(&x), reference::gelu(&x));
        let (g, w) = (got.data()[flip.index], want.data()[flip.index]);
        let caught = |v: f32| !v.is_finite() || v.abs() > THRESHOLD;
        if flip.after.is_nan() || flip.after > 0.0 || flip.after == f32::NEG_INFINITY {
            assert!(caught(g) && caught(w), "{flip:?}: kernel {g}, oracle {w}");
        } else {
            let neg_zero = (-0.0f32).to_bits();
            assert_eq!((g.to_bits(), w.to_bits()), (neg_zero, neg_zero), "{flip:?}");
        }
    }
}

/// Stratified inputs for the GELU accuracy sweep: for each sign and each
/// exponent, evenly spaced mantissas (fewer under Miri), plus the input
/// an exhaustive search over all 2³² bit patterns found to be the worst
/// (2 ulp(x); 1,772 patterns exceed 1 ulp(x), none exceeds 2).
fn gelu_sweep_inputs() -> Vec<f32> {
    let per_exponent: u32 = if cfg!(miri) { 2 } else { 512 };
    let step = (1u32 << 23) / per_exponent;
    let mut xs = vec![8.278_004_5e-1];
    for sign in [0u32, 1 << 31] {
        for exponent in 0..255u32 {
            for m in 0..per_exponent {
                xs.push(f32::from_bits(
                    sign | exponent << 23 | (m * step + exponent),
                ));
            }
        }
    }
    xs
}

// ---- golden pins ----------------------------------------------------

/// The measured max-ULP error of each kernel class against its oracle on
/// a fixed workload. The contract is `measured <= pin <= registered
/// bound`: the pin freezes today's error (the blocked kernels keep every
/// element's accumulation k-sequential, so it is zero), the registered
/// bound is what a future kernel may legally spend — and widening the pin
/// is an explicit, reviewed act.
const GOLDEN_MAX_ULP_GEMM: u32 = 0;
const GOLDEN_MAX_ULP_CONV: u32 = 0;
/// GELU's pin is in ULPs of the *input* (see `Tolerance::max_input_ulp`),
/// measured over [`gelu_sweep_inputs`].
const GOLDEN_MAX_ULP_ACTIVATION: f64 = 2.0;

#[test]
// The pins are currently 0, which makes `measured <= pin` and `pin <=
// bound` trivially shaped — but `<=` is the ratchet's contract and must
// survive a future nonzero pin unchanged.
#[allow(clippy::absurd_extreme_comparisons)]
fn golden_ulp_pin_gemm_class() {
    let a = Tensor::rand_uniform(&[13, 263], -2.0, 2.0, 11);
    let b = Tensor::rand_uniform(&[263, 3 * NR + 5], -2.0, 2.0, 12);
    let got = packed_matmul(&a, &b, &ExecCtx::default());
    let want = reference::matmul(&a, &b).unwrap();
    let measured = max_ulp(got.data(), want.data());
    assert!(
        measured <= GOLDEN_MAX_ULP_GEMM,
        "Gemm kernel error grew: measured {measured} ULP > pinned {GOLDEN_MAX_ULP_GEMM}"
    );
    assert!(GOLDEN_MAX_ULP_GEMM <= tolerance(KernelClass::Gemm).max_ulp);
}

#[test]
#[allow(clippy::absurd_extreme_comparisons)]
fn golden_ulp_pin_conv_class() {
    let x = Tensor::rand_uniform(&[2, 6, 9, 9], -2.0, 2.0, 21);
    let w = Tensor::rand_uniform(&[8, 3, 3, 3], -2.0, 2.0, 22);
    let bias = Tensor::rand_uniform(&[8], -1.0, 1.0, 23);
    let p = Conv2dParams::new().pad(1).groups(2);
    let got = packed_conv(&x, &w, Some(&bias), p, &ExecCtx::default());
    let want = reference::conv2d(&x, &w, Some(&bias), p).unwrap();
    let measured = max_ulp(got.data(), want.data());
    assert!(
        measured <= GOLDEN_MAX_ULP_CONV,
        "Conv kernel error grew: measured {measured} ULP > pinned {GOLDEN_MAX_ULP_CONV}"
    );
    assert!(GOLDEN_MAX_ULP_CONV <= tolerance(KernelClass::Conv).max_ulp);
}

#[test]
fn golden_ulp_pin_activation_class() {
    let xs = gelu_sweep_inputs();
    let x = Tensor::from_vec(xs.clone(), &[xs.len()]).unwrap();
    let got = ops::gelu(&x);
    let want = reference::gelu(&x);
    let measured = max_input_ulp(x.data(), got.data(), want.data());
    assert!(
        measured <= GOLDEN_MAX_ULP_ACTIVATION,
        "Activation kernel error grew: measured {measured} ulp(x) > pinned \
         {GOLDEN_MAX_ULP_ACTIVATION}"
    );
    assert!(
        GOLDEN_MAX_ULP_ACTIVATION <= f64::from(tolerance(KernelClass::Activation).max_input_ulp)
    );
}

// ---- corruption regression ------------------------------------------

/// Regression for the historical `matmul` zero-skip: with `a` all zeros
/// the old kernel skipped every term and an Inf upset in `b` vanished
/// from the output. Both tiers must now surface it as NaN (`0 * inf`).
#[test]
fn injected_inf_propagates_through_zero_rows_in_both_tiers() {
    let (m, k, n) = (3, 8, 4);
    let a = Tensor::zeros(&[m, k]);
    let mut b = Tensor::full(&[k, n], 1.0);
    // 1.0 has exponent 127; flipping bit 30 lands exactly on +inf.
    let flip = corrupt::flip_detectable(b.data_mut(), 5, 1e6).expect("flip lands");
    assert!(flip.after.is_infinite());
    let col = flip.index % n;

    let want = reference::matmul(&a, &b).unwrap();
    for threads in THREADS {
        let got = with_ctx(threads, |ctx| packed_matmul(&a, &b, ctx));
        for i in 0..m {
            for j in 0..n {
                let v = got.data()[i * n + j];
                if j == col {
                    assert!(v.is_nan(), "0 * inf at ({i}, {j}) must surface as NaN");
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
        // Bit-identity holds through the corruption too: NaN agrees with
        // NaN (ULP distance 0), finite elements agree exactly.
        assert_eq!(max_ulp(got.data(), want.data()), 0);
    }
}
