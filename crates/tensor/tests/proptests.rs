//! Property-based tests for the tensor kernels.

use proptest::prelude::*;
use vit_tensor::{ops, Tensor};

fn small_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim, any::<u64>())
        .prop_map(|(r, c, seed)| Tensor::rand_uniform(&[r, c], -2.0, 2.0, seed))
}

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6),
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, s1);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, s2);
        let c = Tensor::rand_uniform(&[k, n], -1.0, 1.0, s3);
        // a (b + c) == a b + a c
        let lhs = ops::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = ops::matmul(&a, &b).unwrap().add(&ops::matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn conv_is_linear_in_input(
        (h, w) in (3usize..8, 3usize..8),
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
    ) {
        let x1 = Tensor::rand_uniform(&[1, 2, h, w], -1.0, 1.0, s1);
        let x2 = Tensor::rand_uniform(&[1, 2, h, w], -1.0, 1.0, s2);
        let k = Tensor::rand_uniform(&[3, 2, 3, 3], -1.0, 1.0, s3);
        let p = ops::Conv2dParams::new().pad(1);
        let lhs = ops::conv2d(&x1.add(&x2).unwrap(), &k, None, p).unwrap();
        let rhs = ops::conv2d(&x1, &k, None, p).unwrap()
            .add(&ops::conv2d(&x2, &k, None, p).unwrap()).unwrap();
        for (a, b) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(t in small_tensor(8)) {
        let s = ops::softmax_last_dim(&t).unwrap();
        let cols = t.shape()[1];
        for r in 0..t.shape()[0] {
            let row = &s.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn relu_is_idempotent(t in small_tensor(10)) {
        let once = ops::relu(&t);
        let twice = ops::relu(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn bilinear_resize_preserves_range(
        (h, w, oh, ow) in (2usize..6, 2usize..6, 1usize..12, 1usize..12),
        seed in any::<u64>(),
    ) {
        let t = Tensor::rand_uniform(&[1, 1, h, w], 0.0, 1.0, seed);
        let r = ops::bilinear_resize(&t, oh, ow).unwrap();
        for &v in r.data() {
            prop_assert!((-1e-6..=1.0 + 1e-6).contains(&v));
        }
    }

    #[test]
    fn layer_norm_output_statistics(
        (rows, feat) in (1usize..5, 4usize..32),
        seed in any::<u64>(),
    ) {
        let t = Tensor::rand_uniform(&[rows, feat], -4.0, 4.0, seed);
        let g = Tensor::ones(&[feat]);
        let b = Tensor::zeros(&[feat]);
        let n = ops::layer_norm(&t, &g, &b, 1e-5).unwrap();
        for r in 0..rows {
            let row = &n.data()[r * feat..(r + 1) * feat];
            let mean: f32 = row.iter().sum::<f32>() / feat as f32;
            prop_assert!(mean.abs() < 1e-3);
        }
    }

    #[test]
    fn permute_is_invertible(
        (a, b, c) in (1usize..5, 1usize..5, 1usize..5),
        seed in any::<u64>(),
    ) {
        let t = Tensor::rand_uniform(&[a, b, c], -1.0, 1.0, seed);
        let p = t.permute(&[2, 0, 1]).unwrap();
        let back = p.permute(&[1, 2, 0]).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn concat_then_slice_round_trips_shapes(
        (c1, c2) in (1usize..5, 1usize..5),
        seed in any::<u64>(),
    ) {
        let a = Tensor::rand_uniform(&[1, c1, 3, 3], -1.0, 1.0, seed);
        let b = Tensor::rand_uniform(&[1, c2, 3, 3], -1.0, 1.0, seed.wrapping_add(1));
        let cat = ops::concat_channels(&[&a, &b]).unwrap();
        prop_assert_eq!(cat.shape()[1], c1 + c2);
        prop_assert_eq!(&cat.data()[..a.numel()], a.data());
        prop_assert_eq!(&cat.data()[a.numel()..], b.data());
    }
}
