//! Scaled-dot-product attention on already-projected q/k/v, head-fused.
//!
//! [`sdpa_into`] reads each head's q/k/v columns in place (head-strided)
//! and writes the merged-head output directly, so neither the
//! interpreter nor a compiled plan makes the head-split permute copies
//! the oracle ([`crate::ops::reference::sdpa`]) makes. It stays in the
//! exact tier: every score, softmax and output element is produced by the
//! oracle's operation sequence, and vectorization runs only across
//! independent lanes (keys for the scores, output columns for `attn @ v`).
//!
//! [`deform_gather_into`] is deformable attention's softmax-and-gather
//! core, on projections the caller has already computed.

use crate::error::{invalid_shape, shape_mismatch, Result};
use crate::ops::activation::softmax_row;
use crate::par::ExecCtx;
use crate::tensor::Tensor;

/// The geometry of one attention call: q is `[batch, n, d]`, k is
/// `[batch, m, d]`, v is `[batch, m, dv]` and the output `[batch, n, dv]`,
/// with `d` and `dv` each split evenly over `heads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdpaShape {
    /// Batch items (windows, for windowed attention).
    pub batch: usize,
    /// Query tokens per item.
    pub n: usize,
    /// Key/value tokens per item.
    pub m: usize,
    /// Query/key width, all heads together.
    pub d: usize,
    /// Value (and output) width, all heads together.
    pub dv: usize,
    /// Attention heads.
    pub heads: usize,
}

impl SdpaShape {
    /// Validates q/k/v shapes for `heads` heads.
    ///
    /// # Errors
    ///
    /// Returns an error unless all three are rank 3 with a shared batch,
    /// q and k share their width, k and v their token count, there is at
    /// least one key, and `heads` is nonzero and divides both widths.
    pub fn new(q: &[usize], k: &[usize], v: &[usize], heads: usize) -> Result<SdpaShape> {
        if q.len() != 3 || k.len() != 3 || v.len() != 3 {
            return Err(invalid_shape(
                "sdpa",
                format!("expected rank-3 q/k/v, got {q:?} {k:?} {v:?}"),
            ));
        }
        if q[0] != k[0] || q[0] != v[0] || q[2] != k[2] || k[1] != v[1] || k[1] == 0 {
            return Err(shape_mismatch(
                "sdpa",
                "q [b, n, d], k [b, m, d], v [b, m, dv] with m > 0".to_string(),
                format!("{q:?} {k:?} {v:?}"),
            ));
        }
        if heads == 0 || !q[2].is_multiple_of(heads) || !v[2].is_multiple_of(heads) {
            return Err(invalid_shape(
                "sdpa",
                format!(
                    "widths {} and {} not divisible by {heads} heads",
                    q[2], v[2]
                ),
            ));
        }
        Ok(SdpaShape {
            batch: q[0],
            n: q[1],
            m: k[1],
            d: q[2],
            dv: v[2],
            heads,
        })
    }
}

/// Attention of `q`, `k`, `v` (see [`SdpaShape`]), tiled by query token
/// across `ctx`'s pool; bit-identical to [`crate::ops::reference::sdpa`]
/// at any thread count.
///
/// # Errors
///
/// Returns the validation errors of [`SdpaShape::new`].
pub fn sdpa(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, ctx: &ExecCtx<'_>) -> Result<Tensor> {
    let s = SdpaShape::new(q.shape(), k.shape(), v.shape(), heads)?;
    let mut out = ctx.alloc_zeroed(&[s.batch, s.n, s.dv]);
    ctx.for_each_row_chunk(out.data_mut(), s.dv, |_, start, rows| {
        sdpa_into(q.data(), k.data(), v.data(), s, start / s.dv.max(1), rows);
    });
    Ok(out)
}

/// Lanes per register block: keys for the scores, output columns for
/// `attn @ v` (one AVX2 vector).
const LANES: usize = 8;

/// Writes query rows `row0..row0 + out.len() / dv` (counted over all
/// `batch · n` query tokens) of the attention output into `out`, every
/// head of each row.
///
/// Per (row, head), with `hd = d / heads`:
/// * each score is `q·k` as a `t`-ascending multiply-add chain from
///   `0.0`, then one multiply by `1 / sqrt(hd)`;
/// * the softmax takes `fold(-inf, f32::max)` over the scores, then
///   `exp(x - max)` with a running sum, then divides by the sum;
/// * each output column is a `j`-ascending multiply-add chain from `0.0`
///   over the probabilities times v.
///
/// The scores run in blocks of eight keys against a transposed copy of
/// the head's keys, and `attn @ v` in blocks of eight output columns
/// against a copy of the head's values, each block's accumulators held
/// in registers for the whole chain. The lanes are independent elements,
/// so no element's chain is reordered.
///
/// # Panics
///
/// Panics when a slice is shorter than `s` implies or `out` does not
/// hold whole rows inside the query tensor.
pub fn sdpa_into(q: &[f32], k: &[f32], v: &[f32], s: SdpaShape, row0: usize, out: &mut [f32]) {
    if s.dv == 0 {
        return;
    }
    let rows = out.len() / s.dv;
    assert!(
        out.len().is_multiple_of(s.dv) && row0 + rows <= s.batch * s.n,
        "sdpa_into: bad rows"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::ops::pack::Isa::host() >= crate::ops::pack::Isa::Avx2 {
        // SAFETY: AVX2 was detected on this CPU, the one precondition of
        // `attend_avx2`.
        unsafe { attend_avx2(q, k, v, s, row0, out) };
        return;
    }
    attend(q, k, v, s, row0, out);
}

/// [`attend`] compiled for AVX2, so each eight-lane block is one vector.
/// Lane-wise `*` and `+` round the same in any vector width, and Rust
/// never contracts them into an FMA.
///
/// # Safety
///
/// Calling it from code not itself compiled for AVX2 is `unsafe`: the
/// caller must know the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn attend_avx2(q: &[f32], k: &[f32], v: &[f32], s: SdpaShape, row0: usize, out: &mut [f32]) {
    attend(q, k, v, s, row0, out);
}

/// Query rows handled together, so their chains interleave and one load
/// of a key or value block serves all of them.
const ROWS: usize = 4;

/// One head's keys and values of one batch item, re-laid for
/// lane-blocked access. Key and value-column counts are padded to whole
/// blocks (`mp`, `hp`); the padding lanes stay `0.0` and their results
/// are never read.
struct HeadScratch {
    /// Keys transposed, `[hd][mp]`.
    kt: Vec<f32>,
    /// Values, `[m][hp]`.
    vh: Vec<f32>,
    m: usize,
    mp: usize,
    hp: usize,
    scale: f32,
}

/// The body of [`sdpa_into`] (arguments already checked).
#[inline(always)]
fn attend(q: &[f32], k: &[f32], v: &[f32], s: SdpaShape, row0: usize, out: &mut [f32]) {
    let (hd, hdv) = (s.d / s.heads, s.dv / s.heads);
    let (mp, hp) = (s.m.next_multiple_of(LANES), hdv.next_multiple_of(LANES));
    let mut g = HeadScratch {
        kt: vec![0.0; hd * mp],
        vh: vec![0.0; s.m * hp],
        m: s.m,
        mp,
        hp,
        scale: 1.0 / (hd as f32).sqrt(),
    };
    let mut scores = vec![0.0f32; ROWS * mp];
    let end = row0 + out.len() / s.dv;
    let mut r = row0;
    while r < end {
        // The rows of one batch item share its keys and values.
        let item = r / s.n;
        let item_end = ((item + 1) * s.n).min(end);
        let (kb, vb) = (item * s.m * s.d, item * s.m * s.dv);
        for h in 0..s.heads {
            for j in 0..s.m {
                let krow = &k[kb + j * s.d + h * hd..][..hd];
                for (t, &kv) in krow.iter().enumerate() {
                    g.kt[t * mp + j] = kv;
                }
                g.vh[j * hp..][..hdv].copy_from_slice(&v[vb + j * s.dv + h * hdv..][..hdv]);
            }
            let mut i = r;
            while i < item_end {
                let (qi, oi) = (i * s.d + h * hd, (i - row0) * s.dv + h * hdv);
                let (q, o) = (&q[qi..], &mut out[oi..]);
                if item_end - i >= ROWS {
                    head_rows::<ROWS>(q, s.d, hd, &g, &mut scores, o, s.dv, hdv);
                    i += ROWS;
                } else {
                    head_rows::<1>(q, s.d, hd, &g, &mut scores, o, s.dv, hdv);
                    i += 1;
                }
            }
        }
        r = item_end;
    }
}

/// One head of `R` consecutive query rows: `q` starts at the first row's
/// head columns (rows `qs` apart, `hd` wide) and `out` at the first
/// row's output columns (rows `os` apart, `hdv` wide).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn head_rows<const R: usize>(
    q: &[f32],
    qs: usize,
    hd: usize,
    g: &HeadScratch,
    scores: &mut [f32],
    out: &mut [f32],
    os: usize,
    hdv: usize,
) {
    let (m, mp, hp) = (g.m, g.mp, g.hp);
    for jb in (0..mp).step_by(LANES) {
        let mut acc = [[0.0f32; LANES]; R];
        for t in 0..hd {
            let kv = &g.kt[t * mp + jb..][..LANES];
            for (r, a) in acc.iter_mut().enumerate() {
                let qv = q[r * qs + t];
                for (a, &kv) in a.iter_mut().zip(kv) {
                    *a += qv * kv;
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            scores[r * mp + jb..][..LANES].copy_from_slice(a);
        }
    }
    for row in scores.chunks_exact_mut(mp).take(R) {
        let row = &mut row[..m];
        for sc in row.iter_mut() {
            *sc *= g.scale;
        }
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for sc in row.iter_mut() {
            *sc -= max;
        }
        // The libm calls in a loop of their own; the j-ascending sum of
        // the same values afterwards is the oracle's running sum.
        for sc in row.iter_mut() {
            *sc = sc.exp();
        }
        let sum = row.iter().fold(0.0f32, |acc, &e| acc + e);
        for sc in row.iter_mut() {
            *sc /= sum;
        }
    }
    for cb in (0..hp).step_by(LANES) {
        let mut acc = [[0.0f32; LANES]; R];
        for j in 0..m {
            let vv = &g.vh[j * hp + cb..][..LANES];
            for (r, a) in acc.iter_mut().enumerate() {
                let p = scores[r * mp + j];
                for (a, &vv) in a.iter_mut().zip(vv) {
                    *a += p * vv;
                }
            }
        }
        let width = LANES.min(hdv - cb);
        for (r, a) in acc.iter().enumerate() {
            out[r * os + cb..][..width].copy_from_slice(&a[..width]);
        }
    }
}

/// Deformable attention's core on projected tensors. `s` is the
/// geometry of the queries over the value tokens (`d == dv`): `value` is
/// `[batch, m, d]`, `offsets` the predicted `[batch, n, heads·samples·2]`
/// sampling offsets and `logits` the `[batch, n, heads·samples]`
/// sampling-weight logits, softmaxed here in place over each query's
/// whole row (`samples > 0`). Each head of each query sums its samples'
/// weighted value slices, in sample order from `0.0`, into `out`
/// (`[batch, n, d]`, fully overwritten).
///
/// Sampling is nearest-token: query `q` of an item reads value token
/// `|q + 8·dx + 64·dy| mod m` of that item, a deterministic stand-in for
/// bilinear sampling that keeps the op's cost structure.
///
/// # Panics
///
/// Panics when a slice is shorter than `s` implies.
pub fn deform_gather_into(
    value: &[f32],
    offsets: &[f32],
    logits: &mut [f32],
    s: SdpaShape,
    samples: usize,
    out: &mut [f32],
) {
    if s.d == 0 {
        return;
    }
    let (hs, hd) = (s.heads * samples, s.d / s.heads);
    out.fill(0.0);
    let rows = out.chunks_exact_mut(s.d).zip(logits.chunks_exact_mut(hs));
    for (row, (o, weights)) in rows.enumerate() {
        softmax_row(weights);
        let (item, q) = (row / s.n, row % s.n);
        let off = offsets[row * hs * 2..][..hs * 2].chunks_exact(2);
        for (i, (&wgt, d)) in weights.iter().zip(off).enumerate() {
            let tok = (q as f32 + d[0] * 8.0 + d[1] * 64.0).abs() as usize % s.m;
            let h = i / samples;
            let v = &value[(item * s.m + tok) * s.d + h * hd..][..hd];
            for (o, &v) in o[h * hd..][..hd].iter_mut().zip(v) {
                *o += wgt * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_average_the_values() {
        // Equal scores: every query gets the mean of the value rows.
        let q = Tensor::rand_uniform(&[1, 3, 4], -1.0, 1.0, 5);
        let k = Tensor::zeros(&[1, 2, 4]);
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[1, 2, 2]).unwrap();
        let out = sdpa(&q, &k, &v, 2, &ExecCtx::default()).unwrap();
        assert_eq!(out.shape(), &[1, 3, 2]);
        for row in out.data().chunks(2) {
            assert_eq!(row, &[2.0, 4.0]);
        }
    }

    #[test]
    fn rejects_shapes_that_cannot_split_or_attend() {
        let q = [1usize, 4, 8];
        assert!(SdpaShape::new(&q, &[1, 3, 8], &[1, 3, 6], 4).is_err());
        assert!(SdpaShape::new(&q, &[1, 0, 8], &[1, 0, 8], 2).is_err());
        assert!(SdpaShape::new(&q, &[1, 3, 8], &[1, 3, 8], 0).is_err());
        assert!(SdpaShape::new(&q, &[1, 3, 8], &[1, 3, 12], 4).is_ok());
    }

    #[test]
    fn deform_gather_weights_the_sampled_tokens() {
        // One item, two queries, three value tokens 2 wide, one head of
        // two samples. Equal logits weight both samples 0.5. Query 0
        // samples tokens |0 + 8·0| = 0 and |0 + 8·0.25| = 2; query 1
        // samples |1 + 64·0.5| % 3 = 0 and |1 - 8·0.25| % 3 = 1.
        let s = SdpaShape::new(&[1, 2, 2], &[1, 3, 2], &[1, 3, 2], 1).unwrap();
        let value = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let offsets = [0.0, 0.0, 0.25, 0.0, 0.0, 0.5, -0.25, 0.0];
        let mut logits = [0.3, 0.3, -1.0, -1.0];
        let mut out = [f32::NAN; 4];
        deform_gather_into(&value, &offsets, &mut logits, s, 2, &mut out);
        assert_eq!(logits, [0.5; 4]);
        assert_eq!(out, [3.0, 4.0, 2.0, 3.0]);
    }
}
