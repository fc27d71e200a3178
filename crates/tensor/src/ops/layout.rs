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

/// Edge of the in-register block of [`transpose_block_avx`]: eight rows
/// of one 8-lane ymm each.
const LANES: usize = 8;

/// Batched transpose `[n, a, b] -> [n, b, a]` of raw row-major buffers,
/// `n = src.len() / (a * b)`, in 32×32 tiles.
///
/// Inside a tile, whole 8×8 blocks move through eight ymm registers when
/// the CPU has AVX (eight row loads, a shuffle network, eight row
/// stores), and the tile's ragged edges element by element. A pure data
/// movement either way: every output element is a copy of one input
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
            for j0 in (0..b).step_by(TILE) {
                let (rows, cols) = ((a - i0).min(TILE), (b - j0).min(TILE));
                transpose_block(&s[i0 * b + j0..], b, &mut d[j0 * a + i0..], a, rows, cols);
            }
        }
    }
}

/// Transposes the `rows × cols` block at the start of `src` (row stride
/// `ss`) into the start of `dst` (row stride `ds`):
/// `dst[j * ds + i] = src[i * ss + j]`.
///
/// # Panics
///
/// Panics when either slice is too short for its block.
pub(crate) fn transpose_block(
    src: &[f32],
    ss: usize,
    dst: &mut [f32],
    ds: usize,
    rows: usize,
    cols: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(src.len() >= (rows - 1) * ss + cols, "transpose source");
    assert!(dst.len() >= (cols - 1) * ds + rows, "transpose destination");
    // The rows and columns covered by whole 8×8 register blocks.
    #[cfg(target_arch = "x86_64")]
    let wide = crate::ops::pack::Isa::host() >= crate::ops::pack::Isa::Avx2;
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    let (vr, vc) = if wide {
        (rows / LANES * LANES, cols / LANES * LANES)
    } else {
        (0, 0)
    };
    #[cfg(target_arch = "x86_64")]
    for i0 in (0..vr).step_by(LANES) {
        for j0 in (0..vc).step_by(LANES) {
            // SAFETY: `vr` and `vc` are nonzero only when the host has AVX2
            // (hence AVX), the one precondition of `transpose_block_avx`;
            // the block's rows `i0..i0 + 8` and columns `j0..j0 + 8` lie
            // inside the `rows × cols` block the asserts above bound.
            unsafe { transpose_block_avx(&src[i0 * ss + j0..], ss, &mut dst[j0 * ds + i0..], ds) };
        }
    }
    // The ragged edges: columns past the last whole 8-block in every row,
    // and rows past the last whole 8-block in the vector columns.
    for i in 0..rows {
        let first = if i < vr { vc } else { 0 };
        for j in first..cols {
            dst[j * ds + i] = src[i * ss + j];
        }
    }
}

/// One 8×8 block through eight ymm registers: row loads, the
/// unpack/shuffle/half-swap network, row stores. Pure data movement.
///
/// # Safety
///
/// Calling it from code not itself compiled for AVX is `unsafe`: the
/// caller must know the CPU supports AVX (see
/// [`crate::ops::pack::Isa::host`]).
///
/// # Panics
///
/// Panics when `src` does not hold 8 rows of 8 at stride `ss`, or `dst`
/// 8 rows of 8 at stride `ds`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn transpose_block_avx(src: &[f32], ss: usize, dst: &mut [f32], ds: usize) {
    use std::arch::x86_64::{
        __m256, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_insertf128_ps,
        _mm256_loadu_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };
    assert!(src.len() >= 7 * ss + LANES && dst.len() >= 7 * ds + LANES);
    // SAFETY: row `i` reads `src[i * ss..i * ss + 8]`, inside `src` by the
    // assert above.
    let r: [__m256; LANES] =
        std::array::from_fn(|i| unsafe { _mm256_loadu_ps(src.as_ptr().add(i * ss)) });
    // Interleave row pairs, then row quads: `q[k]` (`q[k + 4]`) holds
    // column `k` of rows 0-3 (4-7) in its low half and column `k + 4` in
    // its high half.
    let t = [
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    ];
    let q = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
    ];
    // Output row `j < 4` joins the low halves of `q[j]` (rows 0-3) and
    // `q[j + 4]` (rows 4-7); row `j + 4` joins their high halves.
    for j in 0..4 {
        let lo = _mm256_insertf128_ps::<1>(q[j], _mm256_castps256_ps128(q[j + 4]));
        let hi = _mm256_insertf128_ps::<0>(q[j + 4], _mm256_extractf128_ps::<1>(q[j]));
        // SAFETY: output rows `j` and `j + 4` write
        // `dst[row * ds..row * ds + 8]`, inside `dst` by the assert above.
        unsafe {
            _mm256_storeu_ps(dst.as_mut_ptr().add(j * ds), lo);
            _mm256_storeu_ps(dst.as_mut_ptr().add((j + 4) * ds), hi);
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

    /// The transpose against the generic index walk of
    /// [`crate::Tensor::permute`] (a trailing unit axis keeps `permute`
    /// off its transpose fast path), compared bit for bit so a NaN payload
    /// that changed would show: the stage-0 token counts of a 128×128
    /// image (1024 tokens) against its channel widths, a shape with ragged
    /// edges on both axes, and several batch items.
    #[test]
    fn register_blocked_transpose_matches_generic_permute() {
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(1, 37, 45), (2, 9, 17)]
        } else {
            &[
                (1, 1024, 256),
                (1, 1024, 32),
                (1, 37, 45),
                (3, 37, 45),
                (4, 64, 40),
            ]
        };
        for &(n, a, b) in shapes {
            for (a, b) in [(a, b), (b, a)] {
                let mut x = crate::Tensor::rand_uniform(&[n, a, b], -2.0, 2.0, (a * b) as u64);
                let len = x.numel();
                x.data_mut()[len / 3] = f32::from_bits(0x7fc0_1234);
                x.data_mut()[len / 2] = -0.0;
                let want = x
                    .reshape(&[n, a, b, 1])
                    .and_then(|t| t.permute(&[0, 2, 1, 3]))
                    .unwrap();
                let mut got = vec![f32::NAN; len];
                transpose_into(x.data(), a, b, &mut got);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(want.data()), "n={n} a={a} b={b}");
            }
        }
    }

    #[test]
    fn strided_block_transpose_leaves_the_rest_of_dst_alone() {
        // A 19×13 block out of a wider source into a wider destination.
        let (rows, cols, ss, ds) = (19, 13, 21, 24);
        let src: Vec<f32> = (0..rows * ss).map(|v| v as f32).collect();
        let mut dst = vec![-1.0; cols * ds];
        transpose_block(&src, ss, &mut dst, ds, rows, cols);
        for j in 0..cols {
            for i in 0..ds {
                let want = if i < rows { src[i * ss + j] } else { -1.0 };
                assert_eq!(dst[j * ds + i], want, "row {j} col {i}");
            }
        }
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
