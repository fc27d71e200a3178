//! Normalization layers in inference form: LayerNorm and BatchNorm.
//!
//! Both are thin wrappers over slice kernels ([`layer_norm_into`],
//! [`batch_norm_into`]) that the compiled plan also calls on its arena.

use crate::error::{invalid_shape, shape_mismatch, Result};
use crate::tensor::Tensor;

/// Layer normalization over the last dimension with learned scale and shift.
///
/// `input` is `[..., features]`; `gamma` and `beta` are `[features]`.
///
/// # Errors
///
/// Returns [`crate::TensorError::ShapeMismatch`] when `gamma`/`beta` do not
/// match the last dimension.
pub fn layer_norm(input: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Result<Tensor> {
    let features = *input.shape().last().ok_or_else(|| {
        invalid_shape(
            "layer_norm",
            "input must have at least one dimension".to_string(),
        )
    })?;
    if gamma.numel() != features || beta.numel() != features {
        return Err(shape_mismatch(
            "layer_norm",
            format!("gamma/beta of {features} elements"),
            format!("{:?} / {:?}", gamma.shape(), beta.shape()),
        ));
    }
    let mut out = Tensor::zeros(input.shape());
    layer_norm_into(input.data(), gamma.data(), beta.data(), eps, out.data_mut());
    Ok(out)
}

/// Layer normalization of whole feature rows: `src` and `out` hold the
/// same number of `gamma.len()`-element rows. Each row's mean and
/// variance are sequential sums over the row, so any row-aligned split
/// of the buffers gives the same bits.
///
/// # Panics
///
/// Panics when `src` and `out` differ in length or `beta` is shorter
/// than `gamma`.
pub fn layer_norm_into(src: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "layer_norm_into: length mismatch");
    let features = gamma.len();
    if features == 0 {
        return;
    }
    for (row, orow) in src
        .chunks_exact(features)
        .zip(out.chunks_exact_mut(features))
    {
        let mean: f32 = row.iter().sum::<f32>() / features as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / features as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (((o, &x), &g), &b) in orow.iter_mut().zip(row).zip(gamma).zip(&beta[..features]) {
            *o = (x - mean) * inv * g + b;
        }
    }
}

/// Batch normalization in inference form: a per-channel affine transform of
/// an NCHW tensor using precomputed statistics.
///
/// `scale[c] = gamma[c] / sqrt(var[c] + eps)` and
/// `shift[c] = beta[c] - mean[c] * scale[c]` are expected to be folded by the
/// caller; this kernel applies `y = x * scale[c] + shift[c]`.
///
/// # Errors
///
/// Returns [`crate::TensorError::ShapeMismatch`] when `scale`/`shift` do not
/// match the channel count, or the input is not rank 4.
pub fn batch_norm_inference(input: &Tensor, scale: &Tensor, shift: &Tensor) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(invalid_shape(
            "batch_norm",
            format!("expected NCHW rank-4 tensor, got {:?}", input.shape()),
        ));
    }
    let (c, plane) = (input.shape()[1], input.shape()[2] * input.shape()[3]);
    if scale.numel() != c || shift.numel() != c {
        return Err(shape_mismatch(
            "batch_norm",
            format!("scale/shift of {c} elements"),
            format!("{:?} / {:?}", scale.shape(), shift.shape()),
        ));
    }
    let mut out = Tensor::zeros(input.shape());
    batch_norm_into(
        input.data(),
        scale.data(),
        shift.data(),
        plane,
        0,
        out.data_mut(),
    );
    Ok(out)
}

/// Batch normalization of whole `plane`-element channel planes: `src`
/// and `out` hold the same planes, the first of which is plane `plane0`
/// of the NCHW tensor, so plane `p` uses channel `p % scale.len()`.
///
/// # Panics
///
/// Panics when `src` and `out` differ in length or `shift` is shorter
/// than `scale`.
pub fn batch_norm_into(
    src: &[f32],
    scale: &[f32],
    shift: &[f32],
    plane: usize,
    plane0: usize,
    out: &mut [f32],
) {
    assert_eq!(src.len(), out.len(), "batch_norm_into: length mismatch");
    if plane == 0 || scale.is_empty() {
        return;
    }
    let planes = src.chunks_exact(plane).zip(out.chunks_exact_mut(plane));
    for (p, (x, o)) in planes.enumerate() {
        let ch = (plane0 + p) % scale.len();
        let (sc, sh) = (scale[ch], shift[ch]);
        for (o, &x) in o.iter_mut().zip(x) {
            *o = x * sc + sh;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let t = Tensor::rand_uniform(&[4, 16], -3.0, 3.0, 21);
        let g = Tensor::ones(&[16]);
        let b = Tensor::zeros(&[16]);
        let n = layer_norm(&t, &g, &b, 1e-5).unwrap();
        for r in 0..4 {
            let row = &n.data()[r * 16..(r + 1) * 16];
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_applies_gamma_beta() {
        let t = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 10.0], &[2]).unwrap();
        let n = layer_norm(&t, &g, &b, 1e-9).unwrap();
        // Normalized values are +1 and -1, so output is 12 and 8.
        assert!((n.data()[0] - 12.0).abs() < 1e-3);
        assert!((n.data()[1] - 8.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_rejects_bad_params() {
        let t = Tensor::zeros(&[2, 4]);
        let g = Tensor::zeros(&[3]);
        let b = Tensor::zeros(&[4]);
        assert!(layer_norm(&t, &g, &b, 1e-5).is_err());
    }

    #[test]
    fn batch_norm_is_per_channel_affine() {
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let scale = Tensor::from_vec(vec![2.0, 0.5], &[2]).unwrap();
        let shift = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let y = batch_norm_inference(&x, &scale, &shift).unwrap();
        for i in 0..4 {
            assert_eq!(y.data()[i], 3.0); // channel 0: 1*2+1
            assert_eq!(y.data()[4 + i], -0.5); // channel 1: 1*0.5-1
        }
    }

    #[test]
    fn batch_norm_rejects_non_nchw() {
        let x = Tensor::zeros(&[2, 3]);
        let s = Tensor::zeros(&[3]);
        assert!(batch_norm_inference(&x, &s, &s).is_err());
    }
}
