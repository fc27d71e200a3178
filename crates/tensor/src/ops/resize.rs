//! Spatial resizing: bilinear interpolation and channel concatenation, the
//! two glue operations of segmentation decoders.
//!
//! Both are built on slice-level kernels ([`bilinear_resize_into`],
//! [`concat_channels_into`]) that the compiled plan also calls directly on
//! its arena, so the interpreter and plan replay share one inner loop.

use crate::error::{invalid_argument, invalid_shape, shape_mismatch, Result};
use crate::tensor::Tensor;

/// Validates a bilinear resize and returns the input's `(n, c, h, w)`.
pub(crate) fn resize_dims(
    input: &Tensor,
    out_h: usize,
    out_w: usize,
) -> Result<(usize, usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(invalid_shape(
            "bilinear_resize",
            format!("expected NCHW rank-4 tensor, got {:?}", input.shape()),
        ));
    }
    if out_h == 0 || out_w == 0 {
        return Err(invalid_argument(
            "bilinear_resize",
            "output size must be nonzero".to_string(),
        ));
    }
    let s = input.shape();
    Ok((s[0], s[1], s[2], s[3]))
}

/// The `align_corners = false` source coordinate of output index `o`:
/// the lower neighbour, the upper neighbour (clamped to the edge), and
/// the interpolation weight of the upper one.
#[inline]
fn source_coord(o: usize, scale: f32, len: usize) -> (usize, usize, f32) {
    let s = ((o as f32 + 0.5) * scale - 0.5).max(0.0);
    let i0 = (s.floor() as usize).min(len - 1);
    let i1 = (i0 + 1).min(len - 1);
    (i0, i1, s - i0 as f32)
}

/// Bilinear interpolation of an NCHW tensor to an exact output size, using
/// `align_corners = false` semantics (the convention used by SegFormer and
/// UPerNet decoders). A same-size resize is a copy.
///
/// # Errors
///
/// Returns an error for non-NCHW input or a zero target size.
pub fn bilinear_resize(input: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (n, c, h, w) = resize_dims(input, out_h, out_w)?;
    let mut out = Tensor::zeros(&[n, c, out_h, out_w]);
    bilinear_resize_into(input.data(), (h, w), out.data_mut(), (out_h, out_w));
    Ok(out)
}

/// Separable bilinear resize of whole `h×w` planes: `src` holds `k`
/// contiguous input planes and `dst` the `k` matching `out_h×out_w`
/// planes, with `k = dst.len() / (out_h * out_w)`. A same-size resize is
/// a copy.
///
/// A column table `(x0, x1, fx)` is built once per call. Each source row
/// a plane needs is interpolated horizontally at most once, into one of
/// two row buffers, and each output row is then one vertical lerp of the
/// two. Every output element is the per-pixel expression of
/// [`crate::ops::reference::bilinear_resize`] evaluated on the same
/// operands in the same order — `top = v00 + (v01 - v00) * fx`, likewise
/// `bot`, then `top + (bot - top) * fy` — and Rust never contracts those
/// into FMAs, so the result is bit-identical to the oracle. Planes are
/// independent, so any split of `dst` into whole planes (the compiled
/// plan's row tiling) computes the same bits.
///
/// # Panics
///
/// Panics when `src` holds fewer planes than `dst`, or when any input or
/// output dimension is zero while `dst` is non-empty.
pub fn bilinear_resize_into(
    src: &[f32],
    (h, w): (usize, usize),
    dst: &mut [f32],
    (out_h, out_w): (usize, usize),
) {
    if (h, w) == (out_h, out_w) {
        dst.copy_from_slice(&src[..dst.len()]);
        return;
    }
    let (in_plane, out_plane) = (h * w, out_h * out_w);
    if dst.is_empty() {
        return;
    }
    let src = &src[..dst.len() / out_plane * in_plane];
    let scale_y = h as f32 / out_h as f32;
    let scale_x = w as f32 / out_w as f32;
    let cols: Vec<(usize, usize, f32)> =
        (0..out_w).map(|ox| source_coord(ox, scale_x, w)).collect();
    let lerp_row = |row: &[f32], into: &mut [f32]| {
        for (o, &(x0, x1, fx)) in into.iter_mut().zip(&cols) {
            let (a, b) = (row[x0], row[x1]);
            *o = a + (b - a) * fx;
        }
    };
    // `rows[i]` holds the horizontal lerp of source row `held[i]`.
    let mut rows = [vec![0.0f32; out_w], vec![0.0f32; out_w]];
    for (plane, out) in src
        .chunks_exact(in_plane)
        .zip(dst.chunks_exact_mut(out_plane))
    {
        let mut held = [usize::MAX; 2];
        for (oy, orow) in out.chunks_exact_mut(out_w).enumerate() {
            let (y0, y1, fy) = source_coord(oy, scale_y, h);
            // `y0` never decreases with `oy`, so last row's `y1` is the
            // only buffer worth keeping as this row's `y0`.
            if held[1] == y0 {
                rows.swap(0, 1);
                held.swap(0, 1);
            }
            if held[0] != y0 {
                lerp_row(&plane[y0 * w..(y0 + 1) * w], &mut rows[0]);
                held[0] = y0;
            }
            // At the clamped bottom edge `y1 == y0`: `bot` is the same
            // row, bit for bit, so it is read from the same buffer.
            if y1 != y0 && held[1] != y1 {
                lerp_row(&plane[y1 * w..(y1 + 1) * w], &mut rows[1]);
                held[1] = y1;
            }
            let top = &rows[0];
            let bot = if y1 == y0 { &rows[0] } else { &rows[1] };
            for ((o, &t), &b) in orow.iter_mut().zip(top).zip(bot) {
                *o = t + (b - t) * fy;
            }
        }
    }
}

/// Concatenates NCHW tensors along the channel dimension.
///
/// All inputs must agree in batch and spatial dimensions.
///
/// # Errors
///
/// Returns an error when the list is empty or shapes disagree outside the
/// channel dimension.
pub fn concat_channels(inputs: &[&Tensor]) -> Result<Tensor> {
    let first = inputs.first().ok_or_else(|| {
        invalid_argument("concat_channels", "need at least one input".to_string())
    })?;
    if first.rank() != 4 {
        return Err(invalid_shape(
            "concat_channels",
            format!("expected NCHW rank-4 tensors, got {:?}", first.shape()),
        ));
    }
    let (n, h, w) = (first.shape()[0], first.shape()[2], first.shape()[3]);
    let mut total_c = 0;
    for t in inputs {
        if t.rank() != 4 || t.shape()[0] != n || t.shape()[2] != h || t.shape()[3] != w {
            return Err(shape_mismatch(
                "concat_channels",
                format!("[{n}, *, {h}, {w}]"),
                format!("{:?}", t.shape()),
            ));
        }
        total_c += t.shape()[1];
    }
    let mut out = Tensor::zeros(&[n, total_c, h, w]);
    let parts: Vec<&[f32]> = inputs.iter().map(|t| t.data()).collect();
    concat_channels_into(&parts, n, out.data_mut());
    Ok(out)
}

/// Channel concatenation on raw NCHW buffers: `dst` holds `batch` items,
/// and item `b` is each part's `b`-th per-item segment (`part.len() /
/// batch` elements: its channels × plane) laid end to end in part order.
///
/// # Panics
///
/// Panics when the parts' lengths do not sum to `dst.len()` or are not
/// divisible by `batch`.
pub fn concat_channels_into(parts: &[&[f32]], batch: usize, dst: &mut [f32]) {
    let per_item = dst.len() / batch.max(1);
    for (b, item) in dst.chunks_exact_mut(per_item.max(1)).enumerate() {
        let mut off = 0;
        for part in parts {
            let seg = part.len() / batch;
            item[off..off + seg].copy_from_slice(&part[b * seg..(b + 1) * seg]);
            off += seg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_identity_when_same_size() {
        let x = Tensor::rand_uniform(&[1, 3, 5, 5], -1.0, 1.0, 2);
        let y = bilinear_resize(&x, 5, 5).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn resize_constant_stays_constant() {
        let x = Tensor::full(&[1, 1, 4, 4], 3.25);
        let y = bilinear_resize(&x, 9, 7).unwrap();
        assert_eq!(y.shape(), &[1, 1, 9, 7]);
        for &v in y.data() {
            assert!((v - 3.25).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_2x_linear_gradient_preserved() {
        // Horizontal gradient: values grow linearly with x; after upsampling
        // the interior should still be monotone in x.
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[1, 1, 1, 4]).unwrap();
        let y = bilinear_resize(&x, 1, 8).unwrap();
        let d = y.data();
        for i in 1..8 {
            assert!(d[i] >= d[i - 1], "not monotone at {i}: {:?}", d);
        }
        assert!((d[0] - 0.0).abs() < 0.5);
        assert!((d[7] - 3.0).abs() < 0.5);
    }

    #[test]
    fn resize_bounds_respected() {
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], 0.0, 1.0, 4);
        let y = bilinear_resize(&x, 12, 12).unwrap();
        // Bilinear interpolation can never exceed the input range.
        for &v in y.data() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn concat_stacks_channels_in_order() {
        let a = Tensor::full(&[1, 1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2, 2], 2.0);
        let c = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[1, 3, 2, 2]);
        assert_eq!(&c.data()[0..4], &[1.0; 4]);
        assert_eq!(&c.data()[4..12], &[2.0; 8]);
    }

    #[test]
    fn concat_respects_batch() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1, 1, 1]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2, 1, 1, 1]).unwrap();
        let c = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[2, 2, 1, 1]);
        assert_eq!(c.data(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(concat_channels(&[&a, &b]).is_err());
        assert!(concat_channels(&[]).is_err());
    }
}
