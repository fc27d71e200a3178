//! Layout kernels: the batched transpose behind the token/plane
//! reshuffles (`FlattenHw`/`UnflattenHw`) of hierarchical ViTs, the
//! channel slice of dynamically pruned layers, and Swin's index
//! remappings (cyclic shift, window partition/merge, space-to-depth).
//!
//! Every kernel here is a pure data movement on raw row-major buffers
//! that writes each output element exactly once, so the interpreter and a
//! compiled plan's arena (which is never re-zeroed) get the same bits.

/// Edge of the square tile [`transpose_into`] moves at a time: a 32×32
/// `f32` tile is 4 KiB on each side, so a tile's source rows and
/// destination rows stay in L1 together.
const TILE: usize = 32;

/// Batched transpose `[n, a, b] -> [n, b, a]` of raw row-major buffers,
/// `n = src.len() / (a * b)`, in 32×32 tiles.
///
/// A pure data movement: every output element is a copy of one input
/// element, so the result equals the generic [`crate::Tensor::permute`]
/// index walk bit for bit, with no per-element division.
///
/// # Panics
///
/// Panics when `src` and `dst` differ in length or the length is not a
/// multiple of `a * b`.
pub fn transpose_into(src: &[f32], a: usize, b: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "transpose_into: length mismatch");
    let mat = a * b;
    if mat == 0 {
        return;
    }
    assert_eq!(src.len() % mat, 0, "transpose_into: not whole [a, b] items");
    for (s, d) in src.chunks_exact(mat).zip(dst.chunks_exact_mut(mat)) {
        for i0 in (0..a).step_by(TILE) {
            let i1 = (i0 + TILE).min(a);
            for j0 in (0..b).step_by(TILE) {
                let j1 = (j0 + TILE).min(b);
                for i in i0..i1 {
                    let row = &s[i * b..(i + 1) * b];
                    for j in j0..j1 {
                        d[j * a + i] = row[j];
                    }
                }
            }
        }
    }
}

/// Keeps the first `keep` of `c` channels: `src` is `[outer, c, inner]`
/// and `dst` `[outer, keep, inner]` (`inner` is the spatial plane for
/// NCHW, 1 for token-major `[b, n, c]`).
///
/// # Panics
///
/// Panics when `keep > c` or the buffers hold different `outer` counts.
pub fn slice_channels_into(src: &[f32], c: usize, keep: usize, inner: usize, dst: &mut [f32]) {
    assert!(keep <= c, "slice_channels_into: keep {keep} of {c}");
    let (seg_in, seg_out) = (c * inner, keep * inner);
    if seg_out == 0 {
        return;
    }
    assert_eq!(
        src.len() / seg_in,
        dst.len() / seg_out,
        "slice_channels_into"
    );
    for (s, d) in src.chunks_exact(seg_in).zip(dst.chunks_exact_mut(seg_out)) {
        d.copy_from_slice(&s[..seg_out]);
    }
}

/// Rolls every `h×w` plane by `(dy, dx)` with wrap-around: output pixel
/// `(y, x)` is input pixel `((y - dy) mod h, (x - dx) mod w)`. Each
/// output row is two contiguous copies.
///
/// # Panics
///
/// Panics when `src` and `dst` differ in length or are not whole planes.
pub fn cyclic_shift_into(
    src: &[f32],
    (h, w): (usize, usize),
    (dy, dx): (isize, isize),
    dst: &mut [f32],
) {
    assert_eq!(src.len(), dst.len(), "cyclic_shift_into: length mismatch");
    let plane = h * w;
    if plane == 0 {
        return;
    }
    let wrap = |v: isize, m: usize| v.rem_euclid(m as isize) as usize;
    let sx = wrap(dx, w);
    for (s, d) in src.chunks_exact(plane).zip(dst.chunks_exact_mut(plane)) {
        for (y, drow) in d.chunks_exact_mut(w).enumerate() {
            let srow = &s[wrap(y as isize - dy, h) * w..][..w];
            drow[sx..].copy_from_slice(&srow[..w - sx]);
            drow[..sx].copy_from_slice(&srow[w - sx..]);
        }
    }
}

/// Splits NCHW planes into `window×window` token windows: `src` is
/// `[n, c, h, w]` and `dst` `[n · ⌈h/window⌉ · ⌈w/window⌉, window², c]`,
/// windows row-major per item. Tokens past the image edge are written
/// as `0.0` (Swin's zero padding).
///
/// # Panics
///
/// Panics when the buffers do not match that geometry.
pub fn window_partition_into(
    src: &[f32],
    c: usize,
    (h, w): (usize, usize),
    window: usize,
    dst: &mut [f32],
) {
    let (nh, nw) = (h.div_ceil(window), w.div_ceil(window));
    let tokens = window * window;
    let n = src.len() / (c * h * w).max(1);
    assert_eq!(dst.len(), n * nh * nw * tokens * c, "window_partition_into");
    for (wi, win) in dst.chunks_exact_mut((tokens * c).max(1)).enumerate() {
        let (b, wy, wx) = (wi / (nh * nw), wi / nw % nh, wi % nw);
        for (tok, t) in win.chunks_exact_mut(c.max(1)).enumerate() {
            let (iy, ix) = (wy * window + tok / window, wx * window + tok % window);
            if iy >= h || ix >= w {
                t.fill(0.0);
                continue;
            }
            let base = b * c * h * w + iy * w + ix;
            for (ch, v) in t.iter_mut().enumerate() {
                *v = src[base + ch * h * w];
            }
        }
    }
}

/// Inverse of [`window_partition_into`]: scatters windows back into
/// `[n, c, h, w]` planes, dropping the padding tokens.
///
/// # Panics
///
/// Panics when the buffers do not match that geometry.
pub fn window_merge_into(
    src: &[f32],
    c: usize,
    (h, w): (usize, usize),
    window: usize,
    dst: &mut [f32],
) {
    let (nh, nw) = (h.div_ceil(window), w.div_ceil(window));
    let tokens = window * window;
    let n = dst.len() / (c * h * w).max(1);
    assert_eq!(src.len(), n * nh * nw * tokens * c, "window_merge_into");
    for (wi, win) in src.chunks_exact((tokens * c).max(1)).enumerate() {
        let (b, wy, wx) = (wi / (nh * nw), wi / nw % nh, wi % nw);
        for (tok, t) in win.chunks_exact(c.max(1)).enumerate() {
            let (iy, ix) = (wy * window + tok / window, wx * window + tok % window);
            if iy >= h || ix >= w {
                continue;
            }
            let base = b * c * h * w + iy * w + ix;
            for (ch, &v) in t.iter().enumerate() {
                dst[base + ch * h * w] = v;
            }
        }
    }
}

/// Folds each `block×block` pixel neighbourhood into channels: `src` is
/// `[n, c, h, w]` and `dst` `[n, c · block², h/block, w/block]`, output
/// channel `(ch · block + by) · block + bx` holding input pixel
/// `(oy · block + by, ox · block + bx)` of channel `ch`.
///
/// # Panics
///
/// Panics when the buffers do not match that geometry.
pub fn space_to_depth_into(src: &[f32], (h, w): (usize, usize), block: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "space_to_depth_into: length mismatch");
    let (oh, ow) = (h / block, w / block);
    if oh * ow == 0 {
        return;
    }
    // Input plane `p` (item and channel) feeds output planes
    // `p · block² + by · block + bx`, which are contiguous.
    let planes = src
        .chunks_exact(h * w)
        .zip(dst.chunks_exact_mut(block * block * oh * ow));
    for (s, d) in planes {
        for (sub, out) in d.chunks_exact_mut(oh * ow).enumerate() {
            let (by, bx) = (sub / block, sub % block);
            for (oy, orow) in out.chunks_exact_mut(ow).enumerate() {
                let srow = &s[(oy * block + by) * w..][..w];
                for (ox, o) in orow.iter_mut().enumerate() {
                    *o = srow[ox * block + bx];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transposes_each_batch_item() {
        // Two [2, 3] items.
        let src = [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
        ];
        let mut dst = [0.0; 12];
        transpose_into(&src, 2, 3, &mut dst);
        assert_eq!(
            dst,
            [1.0, 4.0, 2.0, 5.0, 3.0, 6.0, 7.0, 10.0, 8.0, 11.0, 9.0, 12.0]
        );
    }

    #[test]
    fn crosses_tile_edges() {
        let (a, b) = (TILE + 3, 2 * TILE + 1);
        let src: Vec<f32> = (0..a * b).map(|v| v as f32).collect();
        let mut dst = vec![0.0; a * b];
        transpose_into(&src, a, b, &mut dst);
        for i in 0..a {
            for j in 0..b {
                assert_eq!(dst[j * a + i], src[i * b + j]);
            }
        }
    }
}
