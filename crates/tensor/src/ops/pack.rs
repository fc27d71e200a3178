//! Packed-panel layouts and the cache-blocked, register-tiled f32 GEMM.
//!
//! This is the production back end behind [`crate::ops::matmul`],
//! [`crate::ops::linear`], and the im2col path of
//! [`crate::ops::conv2d`]. The design is the classic panel-packed GEMM:
//!
//! * **B packing** ([`PackedB`]): the right operand `[k, n]` is laid out
//!   as `NR`-wide column panels, k-major inside each panel and
//!   zero-padded in the tail panel, so the micro-kernel streams one
//!   contiguous `NR`-float row per k step. Model weights are packed once
//!   at plan-compile time (`PackedLinear`), activations per call.
//! * **A blocking**: the output rows are walked in blocks of
//!   [`block_rows`]`(k)` rows, sized so one packed A block fits a
//!   [`A_BLOCK_BYTES`] budget. Each block is packed into consecutive
//!   k-major panels of up to `MR` interleaved rows, so the k loop reads
//!   both operands at stride 1 with no index math.
//! * **loop order**: inside an A block, B panels run outside and `MR`-row
//!   sub-blocks inside. One `k x NR` B panel is therefore fetched from
//!   memory once per A block and stays cache-resident while every row
//!   sub-block of the block streams against it.
//! * **micro-kernel**: an `MR x NR` register accumulator updated by
//!   rank-1 steps over the whole k extent. On x86-64 CPUs with AVX2 it is
//!   an explicit-intrinsics kernel holding twelve 8-lane accumulators
//!   (selected per call by runtime feature detection, a property of the
//!   CPU rather than a setting); elsewhere, and under Miri unless AVX2 is
//!   enabled at compile time, it is the portable `micro` loop.
//!
//! # Numerics
//!
//! Each output element accumulates its k terms **sequentially in k
//! order** in a single register chain, starting from `0.0`, as one
//! rounded multiply followed by one rounded add per term. Blocking
//! reorders the loop nest, never any element's additions, and k is never
//! split, so no partial sum is spilled and re-added. Bias and activation
//! apply once, at the final store. The AVX2 kernel uses separate
//! `mul`/`add` instructions and **no FMA**: a fused multiply-add rounds
//! once instead of twice, which would change results and spend tolerance
//! headroom; that belongs with a registered tolerance-tier change. Both
//! kernels are thus bit-identical to each other and, on finite inputs, to
//! the naive oracle in [`crate::ops::reference`].
//!
//! The kernels still *claim* only the tolerance tier
//! ([`crate::ops::reference::tolerance`]): the contract reserves the
//! right to spend the registered ULP budget on k-split SIMD reductions or
//! FMA contraction later without renegotiating every differential test.
//! Blocking geometry depends only on shapes and the constants below,
//! never on the thread count, so exact-tier claims *between runs of this
//! kernel* (sequential vs threaded, interpreter vs plan) are unaffected.

use crate::ops::fused::Epilogue;

/// Register-tile height: output rows accumulated at once.
pub const MR: usize = 6;
/// Register-tile width: output columns per packed B panel (two 8-lane
/// AVX2 vectors).
pub const NR: usize = 16;
/// Byte budget of one packed A block; see [`block_rows`].
pub const A_BLOCK_BYTES: usize = 1 << 20;

/// Output rows per A block for inner extent `k`: as many whole `MR`-row
/// sub-blocks as fit [`A_BLOCK_BYTES`], and at least one. A pure function
/// of `k`, so the blocking never depends on the thread count.
pub fn block_rows(k: usize) -> usize {
    let rows = A_BLOCK_BYTES / std::mem::size_of::<f32>() / k.max(1);
    (rows / MR * MR).max(MR)
}

/// The right-hand GEMM operand packed into `NR`-wide column panels.
///
/// Layout: panel `p` covers columns `[p*NR, (p+1)*NR)` and occupies
/// `k * NR` consecutive floats, k-major: element `(kk, j)` of the panel
/// lives at `p*k*NR + kk*NR + j`. Columns past `n` in the tail panel are
/// zero and stay zero (the store loop never reads them back).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

/// Borrowed view of panel-packed data, so callers (the im2col path) can
/// fill a pooled scratch buffer in panel layout without an owning
/// [`PackedB`].
#[derive(Clone, Copy)]
pub(crate) struct Panels<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) k: usize,
    pub(crate) n: usize,
}

/// Number of floats panel-packing a `[k, n]` operand occupies.
pub(crate) fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

impl PackedB {
    /// Packs a row-major `[k, n]` matrix.
    ///
    /// # Panics
    ///
    /// Panics when `bd.len() != k * n`.
    pub fn pack(bd: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(bd.len(), k * n, "PackedB::pack shape mismatch");
        let mut data = vec![0.0f32; packed_len(k, n)];
        for kk in 0..k {
            let brow = &bd[kk * n..(kk + 1) * n];
            for (j, &v) in brow.iter().enumerate() {
                data[(j / NR) * k * NR + kk * NR + (j % NR)] = v;
            }
        }
        PackedB { data, k, n }
    }

    /// Packs the **transpose** of a row-major `[rows, cols]` matrix, i.e.
    /// the packed operand is `[k = cols, n = rows]`. This is the linear
    /// layer's weight `[out, in]` consumed as `B = W^T` without
    /// materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics when `wd.len() != rows * cols`.
    pub fn pack_transposed(wd: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(wd.len(), rows * cols, "PackedB::pack_transposed mismatch");
        let (k, n) = (cols, rows);
        let mut data = vec![0.0f32; packed_len(k, n)];
        // Element (kk, j) of B is wd[j * cols + kk]: walk wd row-major so
        // the large operand streams sequentially.
        for (j, wrow) in wd.chunks_exact(cols.max(1)).enumerate() {
            let panel = (j / NR) * k * NR + (j % NR);
            for (kk, &v) in wrow.iter().enumerate() {
                data[panel + kk * NR] = v;
            }
        }
        PackedB { data, k, n }
    }

    /// The packed operand's inner (reduction) extent.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The packed operand's column count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Recovers the row-major `[k, n]` matrix. Packing stores every
    /// element exactly once and padding is never written back, so
    /// `PackedB::pack(bd, k, n).unpack() == bd` bit-for-bit.
    pub fn unpack(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.k * self.n];
        for kk in 0..self.k {
            for j in 0..self.n {
                out[kk * self.n + j] = self.data[(j / NR) * self.k * NR + kk * NR + (j % NR)];
            }
        }
        out
    }

    pub(crate) fn panels(&self) -> Panels<'_> {
        Panels {
            data: &self.data,
            k: self.k,
            n: self.n,
        }
    }
}

/// How the epilogue store folds a bias into each element.
#[derive(Clone, Copy)]
pub(crate) enum GemmBias<'a> {
    /// No bias: the accumulator is stored as-is (never `+ 0.0`, which
    /// would canonicalize `-0.0`).
    None,
    /// One bias per output column, indexed by absolute column (linear).
    PerCol(&'a [f32]),
    /// One bias per output row, indexed by row local to `od` (conv:
    /// rows are output channels).
    PerRow(&'a [f32]),
}

/// The portable register micro-kernel: accumulates `M x NR` outputs over
/// one packed A panel (k-major, `M` interleaved rows) and one packed B
/// panel (k-major, `NR` columns). `M` is const so the compiler fully
/// unrolls the row loop.
#[inline]
fn micro<const M: usize>(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let acc: &mut [[f32; NR]; M] = (&mut acc[..M]).try_into().expect("acc holds M rows");
    for (arow, brow) in apanel.chunks_exact(M).zip(bpanel.chunks_exact(NR)) {
        for (row, &av) in acc.iter_mut().zip(arow) {
            for (out, &bv) in row.iter_mut().zip(brow) {
                *out += av * bv;
            }
        }
    }
}

/// The AVX2 micro-kernel: the same `M x NR` tile as [`micro`], held in
/// `2 * M` ymm accumulators (the low and high eight columns of each row).
/// Every k step is one `_mm256_mul_ps` and one `_mm256_add_ps` per
/// accumulator, lane for lane the scalar `acc += a * b` of [`micro`], so
/// the two kernels agree bit for bit. Written with explicit intrinsics:
/// the autovectorized [`micro`] at this tile size spills its accumulators.
///
/// # Safety
///
/// Calling it from code not itself compiled for AVX2 is `unsafe`: the
/// caller must know the CPU supports AVX2 (see [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn micro_avx2<const M: usize>(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let mut lo = [_mm256_setzero_ps(); M];
    let mut hi = [_mm256_setzero_ps(); M];
    for (arow, brow) in apanel.chunks_exact(M).zip(bpanel.chunks_exact(NR)) {
        // SAFETY: `brow` is a `chunks_exact(NR)` chunk, so it holds 16
        // floats and both unaligned 8-float loads stay inside it.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(brow.as_ptr()),
                _mm256_loadu_ps(brow.as_ptr().add(8)),
            )
        };
        for ((l, h), &av) in lo.iter_mut().zip(hi.iter_mut()).zip(arow) {
            let a = _mm256_set1_ps(av);
            *l = _mm256_add_ps(*l, _mm256_mul_ps(a, b0));
            *h = _mm256_add_ps(*h, _mm256_mul_ps(a, b1));
        }
    }
    for ((row, l), h) in acc.iter_mut().zip(lo).zip(hi) {
        // SAFETY: each `row` is a `[f32; 16]`, so both unaligned 8-float
        // stores stay inside it.
        unsafe {
            _mm256_storeu_ps(row.as_mut_ptr(), l);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), h);
        }
    }
}

/// Whether this CPU runs [`micro_avx2`]. `is_x86_feature_detected!`
/// caches its answer, so calling this once per GEMM is cheap.
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs one `M x NR` tile on the selected kernel. `avx2` must be the
/// value of [`avx2_available`]; `true` on a CPU without AVX2 would be
/// undefined behaviour.
#[inline]
fn tile<const M: usize>(avx2: bool, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is true only when `avx2_available()` detected
        // AVX2 on this CPU, the one precondition of `micro_avx2`.
        unsafe { micro_avx2::<M>(apanel, bpanel, acc) };
        return;
    }
    let _ = avx2;
    micro::<M>(apanel, bpanel, acc);
}

/// Computes output rows `[row0, row0 + od.len() / b.n)` of `A x B` into
/// `od`, with `a` row-major at leading dimension `lda` (so `a` may be a
/// taller matrix the caller offsets into — conv passes the whole weight
/// tensor). Bias and activation run inside the tile write-back.
///
/// Rows are processed in A blocks of [`block_rows`]`(k)` rows; within a
/// block every B panel is streamed once against each `MR`-row sub-block
/// (see the module docs).
pub(crate) fn gemm_rows(
    a: &[f32],
    lda: usize,
    row0: usize,
    b: Panels<'_>,
    od: &mut [f32],
    bias: GemmBias<'_>,
    ep: Epilogue,
) {
    let (k, n) = (b.k, b.n);
    if n == 0 {
        return;
    }
    let rows = od.len() / n;
    let mc = block_rows(k);
    let avx2 = avx2_available();
    let mut apack = vec![0.0f32; mc.min(rows) * k];
    for ib in (0..rows).step_by(mc) {
        let mb = mc.min(rows - ib);
        // Sub-block `i0` occupies `apack[i0*k..(i0+mr)*k]`, its `mr` rows
        // interleaved k-major: element (kk, m) at `i0*k + kk*mr + m`.
        for i0 in (0..mb).step_by(MR) {
            let mr = MR.min(mb - i0);
            let panel = &mut apack[i0 * k..(i0 + mr) * k];
            for m in 0..mr {
                let r = row0 + ib + i0 + m;
                let arow = &a[r * lda..r * lda + k];
                for (kk, &v) in arow.iter().enumerate() {
                    panel[kk * mr + m] = v;
                }
            }
        }
        for p in 0..n.div_ceil(NR) {
            let bpanel = &b.data[p * k * NR..(p + 1) * k * NR];
            let col0 = p * NR;
            let nc = NR.min(n - col0);
            for i0 in (0..mb).step_by(MR) {
                let mr = MR.min(mb - i0);
                let ap = &apack[i0 * k..(i0 + mr) * k];
                let mut acc = [[0.0f32; NR]; MR];
                match mr {
                    6 => tile::<6>(avx2, ap, bpanel, &mut acc),
                    5 => tile::<5>(avx2, ap, bpanel, &mut acc),
                    4 => tile::<4>(avx2, ap, bpanel, &mut acc),
                    3 => tile::<3>(avx2, ap, bpanel, &mut acc),
                    2 => tile::<2>(avx2, ap, bpanel, &mut acc),
                    _ => tile::<1>(avx2, ap, bpanel, &mut acc),
                }
                for (m, accrow) in acc.iter().enumerate().take(mr) {
                    let r = ib + i0 + m;
                    let orow = od[r * n + col0..r * n + col0 + nc].iter_mut().zip(accrow);
                    match bias {
                        GemmBias::None => orow.for_each(|(out, &v)| *out = ep.apply(v)),
                        GemmBias::PerCol(bd) => orow
                            .zip(&bd[col0..col0 + nc])
                            .for_each(|((out, &v), &bv)| *out = ep.apply(v + bv)),
                        GemmBias::PerRow(bd) => {
                            let bv = bd[r];
                            orow.for_each(|(out, &v)| *out = ep.apply(v + bv));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference;
    use crate::tensor::Tensor;

    #[test]
    fn pack_unpack_roundtrips_exactly() {
        for (k, n) in [(1, 1), (3, 5), (7, 8), (9, 17), (256, 8), (300, 33)] {
            let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, (k * 31 + n) as u64);
            let packed = PackedB::pack(b.data(), k, n);
            assert_eq!(packed.unpack(), b.data(), "k={k} n={n}");
        }
    }

    #[test]
    fn pack_transposed_matches_explicit_transpose() {
        let w = Tensor::rand_uniform(&[5, 7], -1.0, 1.0, 11);
        let wt = w.transpose2().unwrap();
        assert_eq!(
            PackedB::pack_transposed(w.data(), 5, 7),
            PackedB::pack(wt.data(), 7, 5),
        );
    }

    #[test]
    fn gemm_rows_matches_reference_bitwise_on_awkward_shapes() {
        // Non-multiples of MR/NR, degenerate rows/cols, and a deep k.
        for (m, k, n) in [
            (1, 1, 1),
            (4, 8, 8),
            (5, 3, 9),
            (7, 17, 23),
            (3, 261, 11),
            (6, 2, 1),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, (m * 7 + n) as u64);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, (k * 13 + n) as u64);
            let packed = PackedB::pack(b.data(), k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_rows(
                a.data(),
                k,
                0,
                packed.panels(),
                &mut got,
                GemmBias::None,
                Epilogue::None,
            );
            let want = reference::matmul(&a, &b).unwrap();
            assert_eq!(got, want.data(), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn gemm_rows_row_offset_and_biases() {
        let (m, k, n) = (6, 5, 10);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, 3);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, 4);
        let packed = PackedB::pack(b.data(), k, n);
        let full = reference::matmul(&a, &b).unwrap();

        // Rows [2, 5) with a per-column bias and ReLU in the write-back.
        let colb: Vec<f32> = (0..n).map(|j| j as f32 - 4.0).collect();
        let mut got = vec![0.0f32; 3 * n];
        gemm_rows(
            a.data(),
            k,
            2,
            packed.panels(),
            &mut got,
            GemmBias::PerCol(&colb),
            Epilogue::Relu,
        );
        for r in 0..3 {
            for j in 0..n {
                let want = Epilogue::Relu.apply(full.data()[(r + 2) * n + j] + colb[j]);
                assert_eq!(got[r * n + j], want);
            }
        }

        // Per-row bias, local indexing.
        let rowb = [0.5f32, -0.5, 1.5];
        let mut got = vec![0.0f32; 3 * n];
        gemm_rows(
            a.data(),
            k,
            2,
            packed.panels(),
            &mut got,
            GemmBias::PerRow(&rowb),
            Epilogue::None,
        );
        for r in 0..3 {
            for j in 0..n {
                assert_eq!(got[r * n + j], full.data()[(r + 2) * n + j] + rowb[r]);
            }
        }
    }

    /// Bitwise equality, except that any NaN matches any NaN.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Runs the portable and the AVX2 kernel on the same `M`-row tile.
    #[cfg(target_arch = "x86_64")]
    fn both_kernels<const M: usize>(ap: &[f32], bp: &[f32]) -> ([[f32; NR]; MR], [[f32; NR]; MR]) {
        let (mut portable, mut simd) = ([[0.0f32; NR]; MR], [[0.0f32; NR]; MR]);
        micro::<M>(ap, bp, &mut portable);
        // SAFETY: the only caller checks `avx2_available()` first.
        unsafe { micro_avx2::<M>(ap, bp, &mut simd) };
        (portable, simd)
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_micro_kernel_is_bit_identical_to_portable() {
        if !avx2_available() {
            eprintln!(
                "SKIPPED avx2_micro_kernel_is_bit_identical_to_portable: no AVX2 on this CPU"
            );
            return;
        }
        const SPECIALS: [f32; 4] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
        for m in 1..=MR {
            for k in [0usize, 1, 7, 300] {
                let seed = (m * 1000 + k) as u64;
                let mut ap = Tensor::rand_uniform(&[k * m], -2.0, 2.0, seed)
                    .data()
                    .to_vec();
                let mut bp = Tensor::rand_uniform(&[k * NR], -2.0, 2.0, seed + 1)
                    .data()
                    .to_vec();
                // Specials at seeded positions in both operands; with k = 0
                // there is nowhere to put them.
                let (alen, blen) = (ap.len(), bp.len());
                for (i, special) in SPECIALS.iter().enumerate().take(k) {
                    ap[(i * 5 + m) % alen] = *special;
                    bp[(i * 37 + 3 * m) % blen] = *special;
                }
                let (portable, simd) = match m {
                    6 => both_kernels::<6>(&ap, &bp),
                    5 => both_kernels::<5>(&ap, &bp),
                    4 => both_kernels::<4>(&ap, &bp),
                    3 => both_kernels::<3>(&ap, &bp),
                    2 => both_kernels::<2>(&ap, &bp),
                    _ => both_kernels::<1>(&ap, &bp),
                };
                assert!(
                    same_bits(portable.as_flattened(), simd.as_flattened()),
                    "AVX2 and portable kernels diverged at M={m} k={k}"
                );
            }
        }
    }

    /// Rows spanning two or more A blocks, with every bias kind and a
    /// non-trivial epilogue, against the oracle plus the same store
    /// arithmetic. A per-block row offset bug in the packing or in the
    /// bias lookup shows up only past the first block.
    #[test]
    #[cfg_attr(miri, ignore = "tens of millions of interpreted multiply-adds")]
    fn gemm_rows_crosses_the_a_block_edge() {
        let edge_k = (1..)
            .find(|&k| block_rows(k) == MR)
            .expect("blocks shrink to MR");
        for (k, row0) in [(4096, 0), (4096, 3), (edge_k, 1)] {
            let mc = block_rows(k);
            let (rows, n) = (mc + MR + 1, 2 * NR + 3);
            let a = Tensor::rand_uniform(&[row0 + rows, k], -1.0, 1.0, k as u64);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, k as u64 + 1);
            let packed = PackedB::pack(b.data(), k, n);
            let full = reference::matmul(&a, &b).unwrap();
            let rowb: Vec<f32> = (0..rows).map(|r| (r % 7) as f32 * 0.25 - 0.75).collect();
            let colb: Vec<f32> = (0..n).map(|j| (j % 5) as f32 * 0.5 - 1.0).collect();
            for (bias, ep) in [
                (GemmBias::PerRow(&rowb), Epilogue::Relu),
                (GemmBias::PerCol(&colb), Epilogue::Gelu),
                (GemmBias::None, Epilogue::Gelu),
            ] {
                let mut got = vec![0.0f32; rows * n];
                gemm_rows(a.data(), k, row0, packed.panels(), &mut got, bias, ep);
                for r in 0..rows {
                    for j in 0..n {
                        let v = full.data()[(row0 + r) * n + j];
                        let v = match bias {
                            GemmBias::None => v,
                            GemmBias::PerCol(bd) => v + bd[j],
                            GemmBias::PerRow(bd) => v + bd[r],
                        };
                        assert_eq!(
                            got[r * n + j].to_bits(),
                            ep.apply(v).to_bits(),
                            "k={k} mc={mc} row0={row0} row={r} col={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_rows_fits_the_budget_in_whole_tiles() {
        for k in [0, 1, 7, 300, 4096, 100_000] {
            let mc = block_rows(k);
            assert!(mc >= MR && mc.is_multiple_of(MR), "k={k} mc={mc}");
            assert!(mc == MR || mc * k * 4 <= A_BLOCK_BYTES, "k={k} mc={mc}");
        }
    }
}
