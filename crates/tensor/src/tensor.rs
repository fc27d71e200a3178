//! The dense [`Tensor`] type: a row-major `f32` array with a dynamic shape.

use crate::error::{invalid_argument, invalid_shape, shape_mismatch, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense, row-major, dynamically-shaped `f32` tensor.
///
/// This is the single numeric container used by every kernel in the
/// reproduction. Activations use the NCHW layout convention
/// (`[batch, channels, height, width]`); sequence data uses
/// `[batch, tokens, features]`; weights use whatever layout their consuming
/// kernel documents.
///
/// # Examples
///
/// ```
/// use vit_tensor::Tensor;
///
/// # fn main() -> Result<(), vit_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A full dump would be enormous; show shape plus a small data prefix.
        let prefix: Vec<f32> = self.data.iter().copied().take(8).collect();
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("len", &self.data.len())
            .field("data_prefix", &prefix)
            .finish()
    }
}

fn numel_of(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use vit_tensor::Tensor;
    /// let t = Tensor::zeros(&[2, 3]);
    /// assert_eq!(t.numel(), 6);
    /// assert!(t.data().iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel_of(shape)],
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel_of(shape)],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] when `data.len()` does
    /// not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if data.len() != numel_of(shape) {
            return Err(shape_mismatch(
                "from_vec",
                format!(
                    "buffer of {} elements for shape {:?}",
                    numel_of(shape),
                    shape
                ),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor with values drawn uniformly from `[lo, hi)` using a
    /// deterministic seed.
    ///
    /// All synthetic weights in the reproduction are produced through this
    /// constructor so that every experiment is bit-reproducible.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..numel_of(shape))
            .map(|_| rng.gen_range(lo..hi))
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor with a Kaiming-style fan-in scaled uniform
    /// initialization, the default for synthetic convolution and linear
    /// weights.
    ///
    /// `fan_in` is the number of input connections per output element.
    pub fn rand_kaiming(shape: &[usize], fan_in: usize, seed: u64) -> Self {
        let bound = if fan_in == 0 {
            0.0
        } else {
            (6.0 / fan_in as f32).sqrt()
        };
        Self::rand_uniform(shape, -bound, bound, seed)
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing buffer in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row-major linear offset of a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `idx.len() != self.rank()` or any coordinate is out of
    /// bounds (debug-friendly; hot kernels index the raw buffer directly).
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (i, (&x, &d)) in idx.iter().zip(self.shape.iter()).enumerate() {
            debug_assert!(x < d, "index {x} out of bounds for dim {i} of size {d}");
            off = off * d + x;
        }
        off
    }

    /// Value at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Sets the value at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] when the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        if numel_of(shape) != self.numel() {
            return Err(shape_mismatch(
                "reshape",
                format!("shape with {} elements", self.numel()),
                format!("{:?} ({} elements)", shape, numel_of(shape)),
            ));
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::InvalidShape`] for tensors that are not
    /// rank 2.
    pub fn transpose2(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(invalid_shape(
                "transpose2",
                format!("expected rank 2, got {:?}", self.shape),
            ));
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Permutes the dimensions of the tensor.
    ///
    /// `perm` must be a permutation of `0..rank`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::InvalidArgument`] when `perm` is not a
    /// valid permutation.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        if perm.len() != self.rank() {
            return Err(invalid_argument(
                "permute",
                format!("perm length {} != rank {}", perm.len(), self.rank()),
            ));
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return Err(invalid_argument(
                    "permute",
                    format!("{perm:?} is not a permutation"),
                ));
            }
            seen[p] = true;
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let mut out = Tensor::zeros(&new_shape);
        if perm == [0, 2, 1] {
            // The batched transpose the token/plane reshuffles use: the
            // same tiled kernel the compiled plan runs on its arena.
            crate::ops::transpose_into(&self.data, self.shape[1], self.shape[2], &mut out.data);
            return Ok(out);
        }
        // Strides of the source tensor.
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.shape[i + 1];
        }
        let mut idx = vec![0usize; self.rank()];
        for out_off in 0..out.numel() {
            // Decompose out_off into the permuted index, then map back.
            let mut rem = out_off;
            for (i, &d) in new_shape.iter().enumerate().rev() {
                idx[i] = rem % d;
                rem /= d;
            }
            let mut src_off = 0;
            for (i, &p) in perm.iter().enumerate() {
                src_off += idx[i] * strides[p];
            }
            out.data[out_off] = self.data[src_off];
        }
        Ok(out)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(shape_mismatch(
                "add",
                format!("{:?}", self.shape),
                format!("{:?}", other.shape),
            ));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Element-wise multiplication by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Maximum absolute value (0.0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Index of the maximum element along the channel axis of an NCHW tensor,
    /// producing an `[n, h, w]` tensor of class indices stored as `f32`.
    ///
    /// This is the final step of a semantic-segmentation head: converting
    /// per-class logits into a label map.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::InvalidShape`] when the tensor is not
    /// rank 4.
    pub fn argmax_channels(&self) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(invalid_shape(
                "argmax_channels",
                format!("expected NCHW rank-4 tensor, got {:?}", self.shape),
            ));
        }
        let (n, c, h, w) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        let plane = h * w;
        let mut out = Tensor::zeros(&[n, h, w]);
        // Channel-outer: stream the contiguous class planes against a
        // running best per pixel, instead of striding every pixel across
        // `c` planes a whole plane apart. Four planes per pass: each
        // pixel's best and label are loaded once, held in registers over
        // four compares, and stored once, so the running state makes
        // `c / 4` round trips instead of `c`; leftover planes go one at a
        // time. Channels are still compared in ascending order with a
        // strict `>`, so the first maximal channel wins and a NaN never
        // does, exactly as in the per-pixel form.
        let mut best = vec![f32::NEG_INFINITY; plane];
        for (item, labels) in self
            .data
            .chunks_exact((c * plane).max(1))
            .zip(out.data.chunks_exact_mut(plane.max(1)))
        {
            best.fill(f32::NEG_INFINITY);
            // Inside the loop `plane >= 1`: an empty plane leaves no items.
            let (quads, rest) = item.split_at(c / 4 * 4 * plane);
            for (q, quad) in quads.chunks_exact(4 * plane).enumerate() {
                let (p0, quad) = quad.split_at(plane);
                let (p1, quad) = quad.split_at(plane);
                let (p2, p3) = quad.split_at(plane);
                let ch0 = (4 * q) as f32;
                for (((((b, l), &v0), &v1), &v2), &v3) in best
                    .iter_mut()
                    .zip(labels.iter_mut())
                    .zip(p0)
                    .zip(p1)
                    .zip(p2)
                    .zip(p3)
                {
                    let (mut bv, mut lv) = (*b, *l);
                    for (v, ch) in [(v0, ch0), (v1, ch0 + 1.0), (v2, ch0 + 2.0), (v3, ch0 + 3.0)] {
                        // Branch-free selects, so the loop vectorizes.
                        let wins = v > bv;
                        bv = if wins { v } else { bv };
                        lv = if wins { ch } else { lv };
                    }
                    *b = bv;
                    *l = lv;
                }
            }
            for (ch, channel) in rest.chunks_exact(plane).enumerate() {
                let ch = (c / 4 * 4 + ch) as f32;
                for ((b, l), &v) in best.iter_mut().zip(labels.iter_mut()).zip(channel) {
                    let wins = v > *b;
                    *b = if wins { v } else { *b };
                    *l = if wins { ch } else { *l };
                }
            }
        }
        Ok(out)
    }

    /// Concatenates tensors along the leading (batch) axis.
    ///
    /// Every part must have the same rank and identical trailing dimensions;
    /// the result's leading dimension is the sum of the parts' leading
    /// dimensions. Data is copied in order, so stacking N `[1, C, H, W]`
    /// images yields the exact `[N, C, H, W]` buffer a batch-N kernel
    /// expects.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::InvalidArgument`] for an empty slice and
    /// [`crate::TensorError::ShapeMismatch`] when trailing dimensions differ.
    pub fn stack_batch(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or_else(|| {
            invalid_argument("stack_batch", "cannot stack an empty slice of tensors")
        })?;
        if first.rank() == 0 {
            return Err(invalid_shape(
                "stack_batch",
                "rank-0 tensors have no batch axis",
            ));
        }
        let trailing = &first.shape[1..];
        let mut batch = 0usize;
        for p in parts {
            if p.rank() != first.rank() || &p.shape[1..] != trailing {
                return Err(shape_mismatch(
                    "stack_batch",
                    format!("trailing dims {trailing:?}"),
                    format!("{:?}", p.shape),
                ));
            }
            batch += p.shape[0];
        }
        let mut shape = first.shape.clone();
        shape[0] = batch;
        let mut data = Vec::with_capacity(numel_of(&shape));
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Tensor { shape, data })
    }

    /// Splits the leading (batch) axis into per-sample tensors of leading
    /// dimension 1.
    ///
    /// The inverse of [`Tensor::stack_batch`] over single-sample parts: each
    /// returned tensor is a contiguous copy of one batch entry with shape
    /// `[1, ...trailing]`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::InvalidShape`] for rank-0 tensors.
    pub fn split_batch(&self) -> Result<Vec<Tensor>> {
        if self.rank() == 0 {
            return Err(invalid_shape(
                "split_batch",
                "rank-0 tensors have no batch axis",
            ));
        }
        let batch = self.shape[0];
        let stride: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = 1;
        Ok((0..batch)
            .map(|b| Tensor {
                shape: shape.clone(),
                data: self.data[b * stride..(b + 1) * stride].to_vec(),
            })
            .collect())
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.rank(), 3);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[3, 4]);
        t.set(&[2, 1], 7.5);
        assert_eq!(t.at(&[2, 1]), 7.5);
        assert_eq!(t.data()[2 * 4 + 1], 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn transpose2_correct() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose2().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.at(&[2, 0]), 3.0);
    }

    #[test]
    fn permute_matches_transpose_for_2d() {
        let t = Tensor::rand_uniform(&[4, 7], -1.0, 1.0, 3);
        let a = t.transpose2().unwrap();
        let b = t.permute(&[1, 0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn permute_nchw_to_nhwc_round_trip() {
        let t = Tensor::rand_uniform(&[2, 3, 4, 5], -1.0, 1.0, 11);
        let nhwc = t.permute(&[0, 2, 3, 1]).unwrap();
        assert_eq!(nhwc.shape(), &[2, 4, 5, 3]);
        let back = nhwc.permute(&[0, 3, 1, 2]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn permute_rejects_bad_perm() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
        assert!(t.permute(&[0, 2]).is_err());
    }

    #[test]
    fn add_requires_same_shape() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        let c = a.add(&b).unwrap();
        assert!(c.data().iter().all(|&v| v == 2.0));
        assert!(a.add(&Tensor::ones(&[4])).is_err());
    }

    #[test]
    fn rand_is_deterministic() {
        let a = Tensor::rand_uniform(&[16], -1.0, 1.0, 42);
        let b = Tensor::rand_uniform(&[16], -1.0, 1.0, 42);
        let c = Tensor::rand_uniform(&[16], -1.0, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn kaiming_bound_scales_with_fan_in() {
        let small_fan = Tensor::rand_kaiming(&[64], 4, 1);
        let big_fan = Tensor::rand_kaiming(&[64], 4096, 1);
        assert!(small_fan.abs_max() > big_fan.abs_max());
    }

    #[test]
    fn argmax_channels_picks_largest_logit() {
        // 1 batch, 3 classes, 1x2 image.
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.8, 0.0, 0.3, 0.2], &[1, 3, 1, 2]).unwrap();
        // pixel (0,0): logits [0.1, 0.8, 0.3] -> class 1
        // pixel (0,1): logits [0.9, 0.0, 0.2] -> class 0
        let m = t.argmax_channels().unwrap();
        assert_eq!(m.shape(), &[1, 1, 2]);
        assert_eq!(m.at(&[0, 0, 0]), 1.0);
        assert_eq!(m.at(&[0, 0, 1]), 0.0);
    }

    #[test]
    fn stack_batch_concatenates_leading_axis() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[1, 2, 2]).unwrap();
        let s = Tensor::stack_batch(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        // Round trip: splitting recovers the originals bit-for-bit.
        let parts = s.split_batch().unwrap();
        assert_eq!(parts, vec![a, b]);
    }

    #[test]
    fn stack_batch_sums_multi_sample_parts() {
        let a = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, 1);
        let b = Tensor::rand_uniform(&[3, 3], -1.0, 1.0, 2);
        let s = Tensor::stack_batch(&[a, b]).unwrap();
        assert_eq!(s.shape(), &[5, 3]);
    }

    #[test]
    fn stack_batch_rejects_mismatched_and_empty() {
        let a = Tensor::zeros(&[1, 2, 2]);
        let b = Tensor::zeros(&[1, 3, 2]);
        assert!(Tensor::stack_batch(&[a, b]).is_err());
        assert!(Tensor::stack_batch(&[]).is_err());
    }

    #[test]
    fn split_batch_yields_leading_one_samples() {
        let t = Tensor::rand_uniform(&[4, 2, 3], -1.0, 1.0, 9);
        let parts = t.split_batch().unwrap();
        assert_eq!(parts.len(), 4);
        for (b, p) in parts.iter().enumerate() {
            assert_eq!(p.shape(), &[1, 2, 3]);
            assert_eq!(p.data(), &t.data()[b * 6..(b + 1) * 6]);
        }
    }

    #[test]
    fn debug_is_nonempty_and_shows_shape() {
        let t = Tensor::zeros(&[2, 2]);
        let s = format!("{t:?}");
        assert!(s.contains("shape"));
        assert!(s.contains('2'));
    }
}
