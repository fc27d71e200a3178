//! Layout kernels: the batched transpose behind the token/plane
//! reshuffles (`FlattenHw`/`UnflattenHw`) of hierarchical ViTs.

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
