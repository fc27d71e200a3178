//! Pooling kernels: max, average, and the adaptive average pool used by the
//! UPerNet pyramid pooling module.

use crate::error::{invalid_argument, invalid_shape, Result};
use crate::tensor::Tensor;

fn check_nchw(op: &'static str, input: &Tensor) -> Result<(usize, usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(invalid_shape(
            op,
            format!("expected NCHW rank-4 tensor, got {:?}", input.shape()),
        ));
    }
    Ok((
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ))
}

/// Max pooling with a square window, stride, and padding (padding counts as
/// negative infinity).
///
/// # Errors
///
/// Returns an error for non-NCHW input or a zero window/stride.
pub fn max_pool2d(input: &Tensor, window: usize, stride: usize, pad: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw("max_pool2d", input)?;
    if window == 0 || stride == 0 {
        return Err(invalid_argument(
            "max_pool2d",
            "window and stride must be nonzero".to_string(),
        ));
    }
    let oh = (h + 2 * pad).saturating_sub(window) / stride + 1;
    let ow = (w + 2 * pad).saturating_sub(window) / stride + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    max_pool2d_into(input.data(), (h, w), (window, stride, pad), out.data_mut());
    Ok(out)
}

/// Max pooling of whole planes: `src` holds `k` contiguous `h×w` planes
/// and `dst` the `k` matching pooled planes, with [`max_pool2d`]'s
/// `(window, stride, pad)` geometry. Every output cell is written.
///
/// # Panics
///
/// Panics when the buffers hold different plane counts.
pub fn max_pool2d_into(
    src: &[f32],
    (h, w): (usize, usize),
    (window, stride, pad): (usize, usize, usize),
    dst: &mut [f32],
) {
    let oh = (h + 2 * pad).saturating_sub(window) / stride + 1;
    let ow = (w + 2 * pad).saturating_sub(window) / stride + 1;
    assert_eq!(
        src.len() / (h * w).max(1),
        dst.len() / (oh * ow),
        "max_pool2d_into: plane count mismatch"
    );
    for (p, plane) in dst.chunks_exact_mut(oh * ow).enumerate() {
        let xd = &src[p * h * w..];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for iy in (oy * stride..oy * stride + window).filter(|&i| i >= pad && i < h + pad) {
                    for ix in
                        (ox * stride..ox * stride + window).filter(|&i| i >= pad && i < w + pad)
                    {
                        best = best.max(xd[(iy - pad) * w + (ix - pad)]);
                    }
                }
                plane[oy * ow + ox] = best;
            }
        }
    }
}

/// Adaptive average pooling to an exact output size, matching PyTorch's
/// partition semantics (each output cell averages its own input slab).
///
/// # Errors
///
/// Returns an error for non-NCHW input or a zero target size.
pub fn adaptive_avg_pool2d(input: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw("adaptive_avg_pool2d", input)?;
    if out_h == 0 || out_w == 0 {
        return Err(invalid_argument(
            "adaptive_avg_pool2d",
            "output size must be nonzero".to_string(),
        ));
    }
    let mut out = Tensor::zeros(&[n, c, out_h, out_w]);
    adaptive_avg_pool2d_into(input.data(), (h, w), (out_h, out_w), out.data_mut());
    Ok(out)
}

/// Adaptive average pooling of whole planes: `src` holds `k` contiguous
/// `h×w` planes and `dst` the `k` matching `out_h×out_w` planes. Each
/// output cell is the sequential sum of its input slab, row-major, over
/// the cell count.
///
/// # Panics
///
/// Panics when the buffers hold different plane counts.
pub fn adaptive_avg_pool2d_into(
    src: &[f32],
    (h, w): (usize, usize),
    (out_h, out_w): (usize, usize),
    dst: &mut [f32],
) {
    if out_h * out_w == 0 {
        return;
    }
    assert_eq!(
        src.len() / (h * w).max(1),
        dst.len() / (out_h * out_w),
        "adaptive_avg_pool2d_into: plane count mismatch"
    );
    for (p, plane) in dst.chunks_exact_mut(out_h * out_w).enumerate() {
        let xd = &src[p * h * w..];
        for oy in 0..out_h {
            let y0 = oy * h / out_h;
            let y1 = ((oy + 1) * h).div_ceil(out_h);
            for ox in 0..out_w {
                let x0 = ox * w / out_w;
                let x1 = ((ox + 1) * w).div_ceil(out_w);
                let mut sum = 0.0;
                for iy in y0..y1 {
                    for ix in x0..x1 {
                        sum += xd[iy * w + ix];
                    }
                }
                let count = ((y1 - y0) * (x1 - x0)) as f32;
                plane[oy * out_w + ox] = sum / count;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = max_pool2d(&x, 2, 2, 0).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_with_padding_matches_resnet_stem() {
        // ResNet stem: 3x3 max pool, stride 2, pad 1 on 112x112 -> 56x56.
        let x = Tensor::zeros(&[1, 1, 112, 112]);
        let y = max_pool2d(&x, 3, 2, 1).unwrap();
        assert_eq!(y.shape(), &[1, 1, 56, 56]);
    }

    #[test]
    fn adaptive_pool_identity_when_same_size() {
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, 13);
        let y = adaptive_avg_pool2d(&x, 3, 3).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn adaptive_pool_to_one_is_mean() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = adaptive_avg_pool2d(&x, 1, 1).unwrap();
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn adaptive_pool_uneven_partition() {
        // 3 -> 2: cells cover rows {0,1} and {1,2}.
        let x = Tensor::from_vec(vec![0.0, 3.0, 6.0], &[1, 1, 3, 1]).unwrap();
        let y = adaptive_avg_pool2d(&x, 2, 1).unwrap();
        assert_eq!(y.data(), &[1.5, 4.5]);
    }

    #[test]
    fn adaptive_pool_to_one_by_one_is_the_plane_mean() {
        let x =
            Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0], &[1, 2, 2, 2]).unwrap();
        let y = adaptive_avg_pool2d(&x, 1, 1).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[4.0, 5.0]);
    }

    #[test]
    fn max_pool_into_pools_every_plane_of_a_dirty_buffer() {
        // Two 3x3 planes, window 2, stride 2, pad 1: each 2x2 output cell
        // sees one to four real pixels, never a padding value.
        let src: Vec<f32> = (0..18).map(|v| v as f32 - 9.0).collect();
        let mut dst = vec![f32::NAN; 8];
        max_pool2d_into(&src, (3, 3), (2, 2, 1), &mut dst);
        assert_eq!(dst, [-9.0, -7.0, -3.0, -1.0, 0.0, 2.0, 6.0, 8.0]);
        let x = Tensor::from_vec(src, &[1, 2, 3, 3]).unwrap();
        assert_eq!(max_pool2d(&x, 2, 2, 1).unwrap().data(), dst.as_slice());
    }
}
