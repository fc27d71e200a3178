//! Matrix multiplication and linear (fully-connected) kernels.
//!
//! Both entry points pack the right operand into `NR`-wide column panels
//! ([`crate::ops::pack::PackedB`]) and run the register-blocked
//! micro-kernel sequentially; the naive oracle loops live in
//! [`crate::ops::reference`].

use crate::error::{invalid_shape, shape_mismatch, Result};
use crate::ops::fused::Epilogue;
use crate::ops::pack::{gemm_rows, GemmBias, PackedB};
use crate::tensor::Tensor;

/// Validates a `[m, k] x [k, n]` product, returning `(m, k, n)`.
pub(crate) fn validate_matmul(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(invalid_shape(
            "matmul",
            format!(
                "expected two rank-2 tensors, got {:?} x {:?}",
                a.shape(),
                b.shape()
            ),
        ));
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(shape_mismatch(
            "matmul",
            "[m, k] x [k, n] with shared k".to_string(),
            format!("{:?} x {:?}", a.shape(), b.shape()),
        ));
    }
    Ok((m, k, n))
}

/// Validates a linear layer, returning the output shape and
/// `(in_features, out_features)`.
pub(crate) fn validate_linear(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<(Vec<usize>, usize, usize)> {
    if weight.rank() != 2 {
        return Err(invalid_shape(
            "linear",
            format!("weight must be rank 2, got {:?}", weight.shape()),
        ));
    }
    let in_features = *input.shape().last().ok_or_else(|| {
        invalid_shape(
            "linear",
            "input must have at least one dimension".to_string(),
        )
    })?;
    let (out_features, w_in) = (weight.shape()[0], weight.shape()[1]);
    if w_in != in_features {
        return Err(shape_mismatch(
            "linear",
            format!("input last dim {in_features}"),
            format!("weight shape {:?}", weight.shape()),
        ));
    }
    if let Some(b) = bias {
        if b.numel() != out_features {
            return Err(shape_mismatch(
                "linear",
                format!("bias of {out_features} elements"),
                format!("{:?}", b.shape()),
            ));
        }
    }
    let mut out_shape = input.shape().to_vec();
    *out_shape.last_mut().expect("non-empty shape") = out_features;
    Ok((out_shape, in_features, out_features))
}

/// Multiplies two 2-D matrices: `a` is `[m, k]`, `b` is `[k, n]`, the result
/// is `[m, n]`.
///
/// # Errors
///
/// Returns [`crate::TensorError::ShapeMismatch`] when the inner dimensions
/// disagree or either input is not rank 2.
///
/// # Examples
///
/// ```
/// use vit_tensor::{Tensor, ops};
/// # fn main() -> Result<(), vit_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(ops::matmul(&a, &id)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = validate_matmul(a, b)?;
    let mut out = Tensor::zeros(&[m, n]);
    let packed = PackedB::pack(b.data(), k, n);
    gemm_rows(
        a.data(),
        k,
        0,
        packed.panels(),
        out.data_mut(),
        GemmBias::None,
        Epilogue::None,
    );
    Ok(out)
}

/// Applies a linear (fully-connected) layer to the last dimension.
///
/// `input` is `[..., in_features]`, `weight` is
/// `[out_features, in_features]` (PyTorch convention), `bias` is
/// `[out_features]` or `None`. The result replaces the last dimension with
/// `out_features`. Bit-identical to [`crate::ops::PackedLinear::run`]
/// without an epilogue, which is the entry point executors tile across a
/// pool.
///
/// # Errors
///
/// Returns [`crate::TensorError::ShapeMismatch`] when `in_features` or the
/// bias length disagree.
pub fn linear(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    let (out_shape, in_features, out_features) = validate_linear(input, weight, bias)?;
    let mut out = Tensor::zeros(&out_shape);
    let packed = PackedB::pack_transposed(weight.data(), out_features, in_features);
    gemm_rows(
        input.data(),
        in_features,
        0,
        packed.panels(),
        out.data_mut(),
        bias.map_or(GemmBias::None, |b| GemmBias::PerCol(b.data())),
        Epilogue::None,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_hand_example() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::rand_uniform(&[5, 5], -1.0, 1.0, 7);
        let mut id = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            id.set(&[i, i], 1.0);
        }
        let c = matmul(&a, &id).unwrap();
        for (x, y) in a.data().iter().zip(c.data().iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn linear_matches_matmul_transpose() {
        let x = Tensor::rand_uniform(&[4, 6], -1.0, 1.0, 3);
        let w = Tensor::rand_uniform(&[5, 6], -1.0, 1.0, 4);
        let y = linear(&x, &w, None).unwrap();
        let wt = w.transpose2().unwrap();
        let expect = matmul(&x, &wt).unwrap();
        for (a, b) in y.data().iter().zip(expect.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_applies_bias_and_keeps_leading_dims() {
        let x = Tensor::ones(&[2, 3, 4]);
        let w = Tensor::zeros(&[2, 4]);
        let b = Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap();
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.shape(), &[2, 3, 2]);
        for row in 0..6 {
            assert_eq!(y.data()[row * 2], 1.5);
            assert_eq!(y.data()[row * 2 + 1], -2.5);
        }
    }

    #[test]
    fn linear_rejects_bad_bias() {
        let x = Tensor::ones(&[1, 4]);
        let w = Tensor::zeros(&[2, 4]);
        let b = Tensor::zeros(&[3]);
        assert!(linear(&x, &w, Some(&b)).is_err());
    }
}
