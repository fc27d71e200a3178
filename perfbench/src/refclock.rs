//! The benchmark's own reference kernel, timed alongside every workload.
//!
//! The benchmark's reference machine (2 vCPUs of a shared host) switches
//! between a fast and a slow state, minutes to tens of minutes each, that
//! move every timing by up to 1.9×: the program's and a kernel's it does
//! not call alike. End-to-end times are therefore reported in *reference
//! milliseconds*: a measured time scaled by [`NOMINAL_PASS_MS`] over the
//! time of a reference pass measured next to it — what the measurement
//! would have read while a pass took [`NOMINAL_PASS_MS`]. The kernel is the
//! benchmark's own code and calls no repository crate, so a change to the
//! program under test cannot move it.
//!
//! A pass mixes, in about equal shares of its time, the kinds of work an
//! inference spends its time on: an L1-resident f32 matrix product, a
//! read-modify-write stream over a buffer past L2, the same over a buffer
//! four times larger (a quarter of it per pass, in turn), and a bilinear 2×
//! upsample (an eighth of its output rows per pass, in turn). On the
//! reference machine, over 20 minutes of drift, dividing the 128×128
//! full and cheapest paths' latency by this mix cut the standard deviation
//! of its logarithm (medians over windows of 15 inferences of each) from
//! 0.12 to 0.03; any one of the four parts alone left 0.06–0.08.

use std::hint::black_box;
use std::time::Instant;

/// Side of the square matrix product.
const GEMM_N: usize = 96;
/// Matrix products per pass.
const GEMM_REPS: usize = 12;
/// The near stream, in f32 elements (8 MiB: past L2).
const NEAR_LEN: usize = 2 << 20;
/// The far stream, in f32 elements (32 MiB, a quarter per pass).
const FAR_LEN: usize = 8 << 20;
/// Side of the upsample's source image.
const RESIZE_N: usize = 512;
/// The pass time reference milliseconds are expressed against.
pub const NOMINAL_PASS_MS: f64 = 5.0;
/// Passes nearest in time to a measurement that set its scale.
const NEAREST: usize = 15;

pub struct RefClock {
    origin: Instant,
    /// (seconds from `origin` to the pass's midpoint, pass time in ms).
    passes: Vec<(f64, f64)>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    near: Vec<f32>,
    far: Vec<f32>,
    src: Vec<f32>,
    dst: Vec<f32>,
}

impl RefClock {
    /// A clock whose pass times are stamped in seconds from `origin`.
    pub fn new(origin: Instant) -> Self {
        let a: Vec<f32> = (0..GEMM_N * GEMM_N)
            .map(|i| (i % 13) as f32 * 0.01)
            .collect();
        RefClock {
            origin,
            passes: Vec::new(),
            b: a.iter().rev().copied().collect(),
            a,
            c: vec![0.0; GEMM_N * GEMM_N],
            near: vec![1.0; NEAR_LEN],
            far: vec![1.0; FAR_LEN],
            src: (0..RESIZE_N * RESIZE_N).map(|i| (i % 255) as f32).collect(),
            dst: vec![0.0; 4 * RESIZE_N * RESIZE_N],
        }
    }

    /// Runs and times one reference pass.
    pub fn pass(&mut self) {
        let turn = self.passes.len();
        let t = Instant::now();
        let n = GEMM_N;
        for _ in 0..GEMM_REPS {
            self.c.fill(0.0);
            for i in 0..n {
                for k in 0..n {
                    let x = self.a[i * n + k];
                    let (row, b) = (&mut self.c[i * n..(i + 1) * n], &self.b[k * n..(k + 1) * n]);
                    for (c, &b) in row.iter_mut().zip(b) {
                        *c += x * b;
                    }
                }
            }
            black_box(&mut self.c);
        }
        let far = FAR_LEN / 4;
        let far = &mut self.far[turn % 4 * far..(turn % 4 + 1) * far];
        for buf in [&mut self.near[..], far] {
            for x in buf.iter_mut() {
                *x = *x * 0.999_9 + 1e-4;
            }
            black_box(buf);
        }
        upsample_rows(&self.src, &mut self.dst, turn % 8);
        black_box(&mut self.dst);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mid = t.duration_since(self.origin).as_secs_f64() + ms * 5e-4;
        self.passes.push((mid, ms));
    }

    /// Drops the last pass: something else ran on its CPU meanwhile.
    pub fn forget_last(&mut self) {
        self.passes.pop();
    }

    /// Passes timed so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// The 10th, 50th and 90th percentile pass times, in ms.
    pub fn quantiles(&self) -> [f64; 3] {
        let ms: Vec<f64> = self.passes.iter().map(|p| p.1).collect();
        [10.0, 50.0, 90.0].map(|q| crate::report::percentile(&ms, q))
    }

    /// Median pass time in ms over the whole run (0 without passes).
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.passes.iter().map(|p| p.1).collect();
        crate::report::median(&ms)
    }

    /// Reference-ms per measured ms at `at`: [`NOMINAL_PASS_MS`] over the
    /// median of the [`NEAREST`] passes nearest in time to `at`.
    pub fn scale_at(&self, at: Instant) -> f64 {
        let t = at.saturating_duration_since(self.origin).as_secs_f64();
        let mut by_distance: Vec<(f64, f64)> = self
            .passes
            .iter()
            .map(|&(s, ms)| ((s - t).abs(), ms))
            .collect();
        by_distance.sort_by(|x, y| x.0.total_cmp(&y.0));
        let near: Vec<f64> = by_distance.iter().take(NEAREST).map(|p| p.1).collect();
        NOMINAL_PASS_MS / crate::report::median(&near)
    }
}

/// Bilinear 2× upsample of the square `src` into `dst`, output rows of
/// the given eighth only.
fn upsample_rows(src: &[f32], dst: &mut [f32], eighth: usize) {
    let (n, out) = (RESIZE_N, 2 * RESIZE_N);
    let lerp = |a: f32, b: f32, f: f32| a + (b - a) * f;
    for y in eighth * out / 8..(eighth + 1) * out / 8 {
        let sy = y as f32 * 0.5;
        let (y0, fy) = (sy as usize, sy.fract());
        let y1 = (y0 + 1).min(n - 1);
        for x in 0..out {
            let sx = x as f32 * 0.5;
            let (x0, fx) = (sx as usize, sx.fract());
            let x1 = (x0 + 1).min(n - 1);
            let top = lerp(src[y0 * n + x0], src[y0 * n + x1], fx);
            let bottom = lerp(src[y1 * n + x0], src[y1 * n + x1], fx);
            dst[y * out + x] = lerp(top, bottom, fy);
        }
    }
}
