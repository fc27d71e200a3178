//! Graph interpreter: executes a [`Graph`] on real tensors with seeded
//! synthetic weights.
//!
//! Weight values are a pure function of `(weight seed, node name, element
//! coordinates)`. This gives the *shared-weights* property the paper's
//! dynamic pruning relies on: a pruned layer that keeps the first `k`
//! channels computes with exactly the same weight values as the full layer's
//! first `k` channels, with no retraining — so measured output fidelity
//! between a pruned graph and the full graph is meaningful.

use crate::graph::{Graph, NodeId};
use crate::op::Op;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use vit_fault::{check_guard, FaultCtx, FaultError, GuardConfig};
use vit_tensor::{ops, BufferPool, ExecCtx, Tensor, TensorError, ThreadPool};
use vit_trace::{now_ns, null_sink, EventKind, Phase as TracePhase, TraceSink};

/// Which execution engine a run uses.
///
/// Both backends produce bit-identical outputs; they differ only in how
/// much per-run work happens outside the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// Walk the graph node by node per run: per-node weight-cache lookups
    /// and buffer-pool allocation. This is the reference oracle the
    /// differential suites compare against and the serving breaker's
    /// fallback when plan replay keeps failing.
    #[default]
    Interpret,
    /// Replay a compiled `vit-plan` `ExecPlan`: a flat record loop over a
    /// pre-sized arena with pre-packed weights and fused epilogues — the
    /// production executor. The flag lives here so `RunContext` can carry
    /// it everywhere; the plan types themselves live in the `vit-plan`
    /// crate and engines dispatch on this value.
    Plan,
}

/// How a graph execution runs: sequentially, or with its heavy kernels
/// tiled across a worker pool — and on which backend ([`ExecBackend`]).
///
/// The tiled path is **bit-identical** to the sequential one at any
/// thread count (see the determinism contract in [`vit_tensor::par`]); the
/// option only changes wall-clock time, never results.
///
/// Cloning is cheap — clones share the same pool, which is how serving
/// workers cooperate on one set of physical cores instead of
/// oversubscribing.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    pool: Option<Arc<ThreadPool>>,
    backend: ExecBackend,
    reference: bool,
}

impl ExecOptions {
    /// Single-threaded execution (the default).
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Execution over a private pool of `threads` total threads; `threads
    /// <= 1` is sequential.
    pub fn threaded(threads: usize) -> Self {
        if threads <= 1 {
            Self::default()
        } else {
            ExecOptions {
                pool: Some(Arc::new(ThreadPool::new(threads))),
                ..Self::default()
            }
        }
    }

    /// Selects the execution backend, keeping the pool configuration.
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Routes interpreter runs to the naive reference oracle kernels
    /// ([`vit_tensor::ops::reference`]) instead of the packed
    /// micro-kernels. The tolerance tier's model-level differentials use
    /// this to replay a whole network against the oracle; it applies to
    /// the [`ExecBackend::Interpret`] backend only (compiled plans are
    /// packed by construction).
    pub fn with_reference_kernels(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    /// Whether interpreter runs use the reference oracle kernels.
    pub fn reference_kernels(&self) -> bool {
        self.reference
    }

    /// The selected execution backend.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Total threads this execution may use (1 when sequential).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// The shared pool, when one is attached and worth using.
    pub fn active_pool(&self) -> Option<&ThreadPool> {
        self.pool.as_deref().filter(|p| p.threads() > 1)
    }
}

/// Everything one graph (or engine) run needs beyond its inputs: how to
/// execute ([`ExecOptions`]) and where to send trace events
/// ([`TraceSink`]).
///
/// `RunContext::default()` is sequential, untraced and on the
/// [`ExecBackend::Interpret`] reference backend; the builder methods opt
/// into more:
///
/// ```
/// use vit_graph::{ExecOptions, RunContext};
/// use std::sync::Arc;
///
/// let quiet = RunContext::default();
/// let traced = RunContext::default()
///     .with_exec(ExecOptions::threaded(4))
///     .with_sink(Arc::new(vit_trace::RingBufferSink::new(4096)));
/// assert_eq!(quiet.threads(), 1);
/// assert_eq!(traced.threads(), 4);
/// ```
///
/// Cloning is cheap (both fields are shared handles); serving workers
/// clone one context per request.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Backend, kernel tiling pool and kernel tier of the run.
    pub exec: ExecOptions,
    /// Destination for trace events; [`vit_trace::NullSink`] (the default)
    /// keeps the run untraced and free of tracing cost.
    pub sink: Arc<dyn TraceSink>,
    /// Fault injection and detection scope ([`vit_fault::FaultCtx`]); the
    /// default is fully inert. Serving arms this per chaos attempt so every
    /// injected fault is a pure function of `(seed, request, attempt)`.
    pub fault: FaultCtx,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext {
            exec: ExecOptions::sequential(),
            sink: null_sink(),
            fault: FaultCtx::default(),
        }
    }
}

impl RunContext {
    /// Sequential, untraced — identical to `default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the execution options.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Replaces the trace sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Replaces the fault injection/detection scope.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultCtx) -> Self {
        self.fault = fault;
        self
    }

    /// Convenience for `with_exec(ExecOptions::threaded(threads))`.
    #[must_use]
    pub fn threaded(threads: usize) -> Self {
        Self::default().with_exec(ExecOptions::threaded(threads))
    }

    /// Total threads this context executes with (1 when sequential).
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Whether the attached sink actually records events.
    pub fn trace_enabled(&self) -> bool {
        self.sink.enabled()
    }
}

/// Error from graph execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// A kernel rejected its inputs.
    Kernel {
        /// Node where the failure occurred.
        node: String,
        /// Underlying tensor error.
        source: TensorError,
    },
    /// The provided inputs did not match the graph's input nodes.
    BadInputs {
        /// Human-readable description.
        msg: String,
    },
    /// An injected fault killed the run, or a detection guard caught a
    /// corrupted activation.
    Fault {
        /// Node (or plan record) where the fault surfaced.
        node: String,
        /// The fault or guard trip.
        source: FaultError,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Kernel { node, source } => {
                write!(f, "execution failed at `{node}`: {source}")
            }
            ExecError::BadInputs { msg } => write!(f, "bad graph inputs: {msg}"),
            ExecError::Fault { node, source } => {
                write!(f, "fault at `{node}`: {source}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Kernel { source, .. } => Some(source),
            ExecError::BadInputs { .. } => None,
            ExecError::Fault { source, .. } => Some(source),
        }
    }
}

/// SplitMix64 finalizer: cheap, high-quality coordinate hashing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, coordinate-addressed weight generator.
///
/// `value(coords)` is independent of the tensor's overall shape, so any
/// prefix slice of a layer's weights is bit-identical between the full and
/// pruned graphs.
#[derive(Debug, Clone, Copy)]
pub struct WeightGen {
    seed: u64,
}

impl WeightGen {
    /// Creates a generator with a global experiment seed.
    pub fn new(seed: u64) -> Self {
        WeightGen { seed }
    }

    fn node_seed(&self, name: &str) -> u64 {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        splitmix64(self.seed ^ h.finish())
    }

    /// Uniform value in `[-bound, bound]` for one weight coordinate.
    fn coord_value(node_seed: u64, coords: &[usize], bound: f32) -> f32 {
        let mut z = node_seed;
        for &c in coords {
            z = splitmix64(z ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        // Map to [-1, 1).
        let unit = (z >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
        unit * bound
    }

    /// Materializes a weight tensor with a constant per-element bound.
    ///
    /// `param` distinguishes multiple parameters of the same node
    /// (e.g. `"weight"` vs `"bias"`).
    pub fn tensor(&self, node: &str, param: &str, shape: &[usize], bound: f32) -> Tensor {
        let ns = self.node_seed(&format!("{node}/{param}"));
        let numel: usize = shape.iter().product();
        let mut data = Vec::with_capacity(numel);
        let mut idx = vec![0usize; shape.len()];
        for _ in 0..numel {
            data.push(Self::coord_value(ns, &idx, bound));
            // Row-major increment.
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor::from_vec(data, shape).expect("constructed with matching length")
    }

    /// Materializes a layer weight whose variance *decays along an input
    /// coordinate* so that every prefix width is well-conditioned.
    ///
    /// The element at input index `c` along dimension `decay_dim` has
    /// variance `1 / ((c+1)(c+2)) / spatial`. The telescoping sum
    /// `Σ_{c<n} 1/((c+1)(c+2)) = 1 - 1/(n+1)` means a layer keeps roughly
    /// unit gain for *any* number of retained input channels `n` — the
    /// property that makes the shared-weights pruning experiments both
    /// numerically stable and faithful to importance-ordered channel
    /// pruning of a pretrained model (early channels matter more).
    pub fn decayed_tensor(
        &self,
        node: &str,
        param: &str,
        shape: &[usize],
        decay_dim: usize,
        spatial: usize,
    ) -> Tensor {
        let ns = self.node_seed(&format!("{node}/{param}"));
        let numel: usize = shape.iter().product();
        let mut data = Vec::with_capacity(numel);
        let mut idx = vec![0usize; shape.len()];
        for _ in 0..numel {
            let c = idx[decay_dim] as f32;
            let var = 1.0 / ((c + 1.0) * (c + 2.0)) / spatial as f32;
            let bound = (3.0 * var).sqrt();
            data.push(Self::coord_value(ns, &idx, bound));
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor::from_vec(data, shape).expect("constructed with matching length")
    }

    /// A near-one tensor for normalization scales.
    pub fn near_one(&self, node: &str, param: &str, shape: &[usize]) -> Tensor {
        let noise = self.tensor(node, param, shape, 0.1);
        let mut t = noise;
        for v in t.data_mut() {
            *v += 1.0;
        }
        t
    }
}

fn cyclic_shift(x: &Tensor, dy: isize, dx: isize) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let mut out = Tensor::zeros(x.shape());
    let xd = x.data();
    let od = out.data_mut();
    let wrap = |v: isize, m: usize| -> usize {
        let m = m as isize;
        (((v % m) + m) % m) as usize
    };
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            for y in 0..h {
                let sy = wrap(y as isize - dy, h);
                for xx in 0..w {
                    let sx = wrap(xx as isize - dx, w);
                    od[base + y * w + xx] = xd[base + sy * w + sx];
                }
            }
        }
    }
    out
}

fn window_partition(x: &Tensor, window: usize) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (nh, nw) = (h.div_ceil(window), w.div_ceil(window));
    let mut out = Tensor::zeros(&[n * nh * nw, window * window, c]);
    let xd = x.data();
    let od = out.data_mut();
    for b in 0..n {
        for wy in 0..nh {
            for wx in 0..nw {
                let wi = (b * nh + wy) * nw + wx;
                for py in 0..window {
                    let iy = wy * window + py;
                    if iy >= h {
                        continue; // zero padding
                    }
                    for px in 0..window {
                        let ix = wx * window + px;
                        if ix >= w {
                            continue; // zero padding
                        }
                        let tok = py * window + px;
                        for ch in 0..c {
                            let src = ((b * c + ch) * h + iy) * w + ix;
                            od[(wi * window * window + tok) * c + ch] = xd[src];
                        }
                    }
                }
            }
        }
    }
    out
}

fn window_merge(x: &Tensor, window: usize, h: usize, w: usize) -> Tensor {
    let c = x.shape()[2];
    let (nh, nw) = (h.div_ceil(window), w.div_ceil(window));
    let n = x.shape()[0] / (nh * nw);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let xd = x.data();
    let od = out.data_mut();
    for b in 0..n {
        for wy in 0..nh {
            for wx in 0..nw {
                let wi = (b * nh + wy) * nw + wx;
                for py in 0..window {
                    let iy = wy * window + py;
                    if iy >= h {
                        continue; // crop padding
                    }
                    for px in 0..window {
                        let ix = wx * window + px;
                        if ix >= w {
                            continue; // crop padding
                        }
                        let tok = py * window + px;
                        for ch in 0..c {
                            let dst = ((b * c + ch) * h + iy) * w + ix;
                            od[dst] = xd[(wi * window * window + tok) * c + ch];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Per-worker mutable execution state: the lazily generated weight cache
/// and reusable value buffers.
///
/// [`WeightGen`] is `Copy` and freely shared; `ExecScratch` is what a
/// concurrent caller must keep one-per-thread. Weight values are a pure
/// function of the generator, so two workers with separate scratches over
/// the same generator compute identical results.
#[derive(Debug, Default)]
pub struct ExecScratch {
    cache: HashMap<String, Arc<Vec<Tensor>>>,
    values: Vec<Option<Tensor>>,
    bufs: BufferPool,
}

impl ExecScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes with cached weights (observability for cache-reuse
    /// tests).
    pub fn cached_nodes(&self) -> usize {
        self.cache.len()
    }

    /// The parameter-tensor shapes a node of this op/input signature owns.
    fn weight_shapes(op: &Op, in_shapes: &[&[usize]]) -> Vec<Vec<usize>> {
        node_weight_shapes(op, in_shapes)
    }

    /// Whether a cached weight set matches the shapes this graph needs.
    fn cache_entry_valid(w: &[Tensor], expected: &[Vec<usize>]) -> bool {
        w.len() == expected.len()
            && w.iter()
                .zip(expected.iter())
                .all(|(t, s)| t.shape() == s.as_slice())
    }

    fn weights_for(
        &mut self,
        gen: WeightGen,
        node_name: &str,
        op: &Op,
        in_shapes: &[&[usize]],
    ) -> Arc<Vec<Tensor>> {
        // The same node name can appear in graphs of *different* dynamic
        // configurations with different widths (that is the point of the
        // shared-weights design), so a cache hit is only valid when the
        // cached shapes match this graph's shapes.
        let expected = Self::weight_shapes(op, in_shapes);
        if let Some(w) = self.cache.get(node_name) {
            if Self::cache_entry_valid(w, &expected) {
                return Arc::clone(w);
            }
        }
        let w = Arc::new(generate_node_weights(gen, node_name, op, in_shapes));
        self.cache.insert(node_name.to_string(), Arc::clone(&w));
        w
    }

    /// Generates-and-caches weights for every parameterized node of
    /// `graph` whose cache entry is missing or shape-mismatched,
    /// parallelizing generation across `pool` when one is given. Weight
    /// values are a pure function of `(gen, node name, coordinates)`, so
    /// the generation schedule cannot affect them.
    fn materialize_weights(&mut self, gen: WeightGen, graph: &Graph, pool: Option<&ThreadPool>) {
        let mut missing: Vec<(&str, &Op, Vec<&[usize]>)> = Vec::new();
        for (_, node) in graph.iter() {
            let in_shapes: Vec<&[usize]> = node
                .inputs
                .iter()
                .map(|i| graph.node(*i).shape.as_slice())
                .collect();
            let expected = Self::weight_shapes(&node.op, &in_shapes);
            if expected.is_empty() {
                continue;
            }
            match self.cache.get(node.name.as_str()) {
                Some(w) if Self::cache_entry_valid(w, &expected) => {}
                _ => missing.push((node.name.as_str(), &node.op, in_shapes)),
            }
        }
        if missing.is_empty() {
            return;
        }
        let mut generated: Vec<Option<Vec<Tensor>>> = Vec::new();
        generated.resize_with(missing.len(), || None);
        match pool {
            Some(pool) if missing.len() > 1 => pool.scope(|s| {
                for (slot, (name, op, in_shapes)) in generated.iter_mut().zip(missing.iter()) {
                    s.spawn(move |_| {
                        *slot = Some(generate_node_weights(gen, name, op, in_shapes));
                    });
                }
            }),
            _ => {
                for (slot, (name, op, in_shapes)) in generated.iter_mut().zip(missing.iter()) {
                    *slot = Some(generate_node_weights(gen, name, op, in_shapes));
                }
            }
        }
        for ((name, _, _), w) in missing.into_iter().zip(generated) {
            self.cache
                .insert(name.to_string(), Arc::new(w.expect("slot filled")));
        }
    }
}

/// The parameter-tensor shapes a node of `op` with inputs of `in_shapes`
/// owns, in the order [`generate_node_weights`] produces them.
///
/// Plan compilers use this (paired with [`generate_node_weights`]) to
/// materialize weights once at plan time instead of per inference.
pub fn node_weight_shapes(op: &Op, in_shapes: &[&[usize]]) -> Vec<Vec<usize>> {
    match op {
        Op::Conv2d {
            out_channels,
            kernel,
            groups,
            bias,
            ..
        } => {
            let c = in_shapes[0][1];
            let mut v = vec![vec![*out_channels, c / groups, kernel.0, kernel.1]];
            if *bias {
                v.push(vec![*out_channels]);
            }
            v
        }
        Op::Linear { out_features, bias } => {
            let in_features = *in_shapes[0].last().expect("validated");
            let mut v = vec![vec![*out_features, in_features]];
            if *bias {
                v.push(vec![*out_features]);
            }
            v
        }
        Op::DeformAttn {
            heads,
            levels,
            points,
            dim,
        } => {
            let d = *dim;
            let hlp = heads * levels * points;
            vec![vec![d, d], vec![d, d], vec![hlp * 2, d], vec![hlp, d]]
        }
        Op::LayerNorm => {
            let f = *in_shapes[0].last().expect("validated");
            vec![vec![f], vec![f]]
        }
        Op::BatchNorm => {
            let c = in_shapes[0][1];
            vec![vec![c], vec![c]]
        }
        _ => Vec::new(),
    }
}

/// Materializes the parameter tensors a node owns. Pure in `(gen,
/// node_name, op, in_shapes)` — safe to call from any thread, and the
/// values the interpreter's weight cache and a compiled plan's packed
/// weights both come from (which is what makes the two backends
/// bit-identical).
pub fn generate_node_weights(
    gen: WeightGen,
    node_name: &str,
    op: &Op,
    in_shapes: &[&[usize]],
) -> Vec<Tensor> {
    match op {
        Op::Conv2d {
            out_channels,
            kernel,
            groups,
            bias,
            ..
        } => {
            let c = in_shapes[0][1];
            let mut v = vec![gen.decayed_tensor(
                node_name,
                "weight",
                &[*out_channels, c / groups, kernel.0, kernel.1],
                1,
                kernel.0 * kernel.1,
            )];
            if *bias {
                v.push(gen.tensor(node_name, "bias", &[*out_channels], 0.05));
            }
            v
        }
        Op::Linear { out_features, bias } => {
            let in_features = *in_shapes[0].last().expect("validated");
            let mut v =
                vec![gen.decayed_tensor(node_name, "weight", &[*out_features, in_features], 1, 1)];
            if *bias {
                v.push(gen.tensor(node_name, "bias", &[*out_features], 0.05));
            }
            v
        }
        Op::DeformAttn {
            heads,
            levels,
            points,
            dim,
        } => {
            let d = *dim;
            let hlp = heads * levels * points;
            vec![
                gen.decayed_tensor(node_name, "value_proj", &[d, d], 1, 1),
                gen.decayed_tensor(node_name, "output_proj", &[d, d], 1, 1),
                gen.decayed_tensor(node_name, "offsets", &[hlp * 2, d], 1, 1),
                gen.decayed_tensor(node_name, "attn_weights", &[hlp, d], 1, 1),
            ]
        }
        Op::LayerNorm => {
            let f = *in_shapes[0].last().expect("validated");
            vec![
                gen.near_one(node_name, "gamma", &[f]),
                gen.tensor(node_name, "beta", &[f], 0.1),
            ]
        }
        Op::BatchNorm => {
            let c = in_shapes[0][1];
            vec![
                gen.near_one(node_name, "scale", &[c]),
                gen.tensor(node_name, "shift", &[c], 0.1),
            ]
        }
        _ => Vec::new(),
    }
}

impl ExecScratch {
    /// Runs the graph with weights drawn from `gen`, using this scratch's
    /// weight cache and buffers (one tensor per graph input, in declaration
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when input count/shapes mismatch the graph or a
    /// kernel fails.
    ///
    /// # Panics
    ///
    /// Panics when the graph has no output set.
    pub fn run(
        &mut self,
        gen: WeightGen,
        graph: &Graph,
        inputs: &[Tensor],
    ) -> Result<Tensor, ExecError> {
        self.run_with(gen, graph, inputs, &RunContext::default())
    }

    /// The canonical entry point: runs the graph under a full
    /// [`RunContext`] — execution options plus trace sink.
    ///
    /// With an enabled sink this records a [`TracePhase::WeightMaterialize`]
    /// span, a [`TracePhase::Run`] span, one [`EventKind::Node`] span per
    /// executed node, and buffer-pool hit/miss/zeroing counter deltas.
    /// Tracing never changes what is computed: outputs are bit-identical
    /// with any sink attached.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when input count/shapes mismatch the graph or a
    /// kernel fails.
    ///
    /// # Panics
    ///
    /// Panics when the graph has no output set.
    pub fn run_with(
        &mut self,
        gen: WeightGen,
        graph: &Graph,
        inputs: &[Tensor],
        ctx: &RunContext,
    ) -> Result<Tensor, ExecError> {
        let output = graph.output().expect("graph must have an output set");
        if inputs.len() != graph.input_ids().len() {
            return Err(ExecError::BadInputs {
                msg: format!(
                    "graph `{}` has {} inputs, got {}",
                    graph.model,
                    graph.input_ids().len(),
                    inputs.len()
                ),
            });
        }
        for (i, id) in graph.input_ids().iter().enumerate() {
            if graph.node(*id).shape != inputs[i].shape() {
                return Err(ExecError::BadInputs {
                    msg: format!(
                        "input {i} expects shape {:?}, got {:?}",
                        graph.node(*id).shape,
                        inputs[i].shape()
                    ),
                });
            }
        }
        let sink = ctx.sink.as_ref();
        let enabled = sink.enabled();
        let pool_stats_before = if enabled {
            Some(self.bufs.stats())
        } else {
            None
        };
        let wm_start = sink.timestamp();
        self.materialize_weights(gen, graph, ctx.exec.active_pool());
        if enabled {
            sink.record(EventKind::Phase {
                phase: TracePhase::WeightMaterialize,
                detail: graph.model.clone(),
                start_ns: wm_start,
                end_ns: now_ns(),
            });
        }
        let run_start = sink.timestamp();
        let result = self.run_nodes(gen, graph, inputs, output, ctx);
        if enabled {
            sink.record(EventKind::Phase {
                phase: TracePhase::Run,
                detail: graph.model.clone(),
                start_ns: run_start,
                end_ns: now_ns(),
            });
            if let Some(before) = pool_stats_before {
                let after = self.bufs.stats();
                let at_ns = now_ns();
                for (name, delta) in [
                    ("buffer_pool.hits", after.hits - before.hits),
                    ("buffer_pool.misses", after.misses - before.misses),
                    (
                        "buffer_pool.zeroed_elems",
                        after.zeroed_elems - before.zeroed_elems,
                    ),
                ] {
                    sink.record(EventKind::Counter {
                        name: name.to_string(),
                        value: delta,
                        at_ns,
                    });
                }
            }
        }
        result
    }

    /// Evaluates every node in graph order. An attached pool tiles the
    /// heavy kernels (intra-kernel only), which never changes results.
    fn run_nodes(
        &mut self,
        gen: WeightGen,
        graph: &Graph,
        inputs: &[Tensor],
        output: NodeId,
        ctx: &RunContext,
    ) -> Result<Tensor, ExecError> {
        let sink = ctx.sink.as_ref();
        let fault = &ctx.fault;
        // Resolved once per run so injection is independent of node order.
        let flip_at = fault.flip_node(graph.len());
        let node_guard = fault.node_guard();
        let mut refcounts = graph.consumer_counts();
        // Reuse the value buffer across runs (per-request allocation
        // matters on the serving hot path).
        let mut values = std::mem::take(&mut self.values);
        values.clear();
        values.resize_with(graph.len(), || None);
        let enabled = sink.enabled();
        let mut input_iter = inputs.iter();
        for (id, node) in graph.iter() {
            let node_start = sink.timestamp();
            let mut out = if matches!(node.op, Op::Input { .. }) {
                input_iter.next().expect("validated count").clone()
            } else {
                let in_shapes: Vec<&[usize]> = node
                    .inputs
                    .iter()
                    .map(|i| graph.node(*i).shape.as_slice())
                    .collect();
                let weights = self.weights_for(gen, &node.name, &node.op, &in_shapes);
                let in_tensors: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|i| values[i.index()].as_ref().expect("topological order"))
                    .collect();
                let kctx = ExecCtx {
                    pool: ctx.exec.active_pool(),
                    bufs: Some(&self.bufs),
                    reference: ctx.exec.reference_kernels(),
                };
                eval_node(node, weights.as_slice(), &in_tensors, &kctx)?
            };
            if flip_at == Some(id.index()) {
                fault.corrupt(out.data_mut());
            }
            if let Some(g) = node_guard {
                check_node_guard(&node.name, &out, g)?;
            }
            if enabled {
                sink.record(EventKind::Node {
                    name: node.name.clone(),
                    op: node.op.kind_name().to_string(),
                    start_ns: node_start,
                    end_ns: now_ns(),
                    flops: node.flops(graph),
                    bytes: node.io_bytes(graph),
                });
            }
            debug_assert_eq!(
                out.shape(),
                node.shape.as_slice(),
                "shape inference disagrees with execution at `{}`",
                node.name
            );
            // Free inputs that have no remaining consumers, returning their
            // allocations to the buffer pool for later nodes and runs.
            for i in &node.inputs {
                refcounts[i.index()] -= 1;
                if refcounts[i.index()] == 0 {
                    if let Some(t) = values[i.index()].take() {
                        self.bufs.recycle(t.into_vec());
                    }
                }
            }
            values[id.index()] = Some(out);
        }
        let out = values[output.index()].take().expect("output computed");
        for v in values.iter_mut() {
            if let Some(t) = v.take() {
                self.bufs.recycle(t.into_vec());
            }
        }
        values.clear();
        self.values = values;
        Ok(out)
    }
}

/// Scans one node output against the armed-mode guard, converting a trip
/// into an [`ExecError::Fault`] anchored at the node. Both executor paths
/// (and `vit-plan`'s replay loop) call this, which is what makes the
/// "corruption is caught at its source" property backend-independent.
pub fn check_node_guard(node: &str, out: &Tensor, guard: GuardConfig) -> Result<(), ExecError> {
    check_guard(out.data(), guard).map_err(|trip| ExecError::Fault {
        node: node.to_string(),
        source: FaultError::GuardTripped {
            site: node.to_string(),
            trip,
        },
    })
}

/// Evaluates one non-[`Op::Input`] node on already-computed input tensors.
fn eval_node(
    node: &crate::graph::Node,
    w: &[Tensor],
    in_tensors: &[&Tensor],
    ctx: &ExecCtx<'_>,
) -> Result<Tensor, ExecError> {
    eval_op(&node.name, &node.op, w, in_tensors, ctx)
}

/// Evaluates one non-[`Op::Input`] operator on already-computed input
/// tensors — the single kernel-dispatch point both the interpreter and
/// `vit-plan`'s fallback records call, which is what keeps the two
/// backends bit-identical on ops without a packed kernel.
///
/// `w` must match [`node_weight_shapes`] for the op (empty for
/// parameter-free ops); `name` labels kernel errors. The heavy kernels
/// tile across `ctx`'s pool and draw outputs from its buffer pool; every
/// other op runs sequentially.
///
/// # Errors
///
/// Returns [`ExecError::Kernel`] when the underlying kernel rejects the
/// input/weight shapes.
///
/// # Panics
///
/// Panics on [`Op::Input`], which has no computation — callers route
/// graph inputs themselves.
pub fn eval_op(
    name: &str,
    op: &Op,
    w: &[Tensor],
    in_tensors: &[&Tensor],
    ctx: &ExecCtx<'_>,
) -> Result<Tensor, ExecError> {
    let kerr = |source: TensorError| ExecError::Kernel {
        node: name.to_string(),
        source,
    };
    let out = match op {
        Op::Input { .. } => unreachable!("Op::Input is handled by the caller"),
        Op::Conv2d {
            stride,
            pad,
            groups,
            bias,
            ..
        } => {
            let p = ops::Conv2dParams {
                stride_h: stride.0,
                stride_w: stride.1,
                pad_h: pad.0,
                pad_w: pad.1,
                groups: *groups,
            };
            let b = if *bias { Some(&w[1]) } else { None };
            ops::conv2d_ctx(in_tensors[0], &w[0], b, p, ctx).map_err(kerr)?
        }
        Op::Linear { bias, .. } => {
            let b = if *bias { Some(&w[1]) } else { None };
            ops::linear_ctx(in_tensors[0], &w[0], b, ctx).map_err(kerr)?
        }
        Op::LayerNorm => ops::layer_norm(in_tensors[0], &w[0], &w[1], 1e-5).map_err(kerr)?,
        Op::BatchNorm => ops::batch_norm_inference(in_tensors[0], &w[0], &w[1]).map_err(kerr)?,
        Op::Relu => ops::relu(in_tensors[0]),
        Op::Gelu if ctx.reference => ops::reference::gelu(in_tensors[0]),
        Op::Gelu => ops::gelu(in_tensors[0]),
        Op::Sdpa { heads } => {
            // q/k/v are already projected; use identity-free fused
            // attention: softmax(q k^T / sqrt(d)) v, head-split.
            let q = in_tensors[0];
            let k = in_tensors[1];
            let v = in_tensors[2];
            sdpa(q, k, v, *heads, ctx).map_err(kerr)?
        }
        Op::DeformAttn {
            heads,
            levels,
            points,
            ..
        } => deform_attn(
            in_tensors[0],
            in_tensors[1],
            &w[0],
            &w[1],
            &w[2],
            &w[3],
            *heads,
            *levels,
            *points,
            ctx,
        )
        .map_err(kerr)?,
        Op::MaxPool {
            window,
            stride,
            pad,
        } => ops::max_pool2d(in_tensors[0], *window, *stride, *pad).map_err(kerr)?,
        Op::AdaptiveAvgPool { out_h, out_w } => {
            ops::adaptive_avg_pool2d(in_tensors[0], *out_h, *out_w).map_err(kerr)?
        }
        Op::Resize { out_h, out_w } => {
            ops::bilinear_resize(in_tensors[0], *out_h, *out_w).map_err(kerr)?
        }
        Op::Concat => ops::concat_channels(in_tensors).map_err(kerr)?,
        Op::Add => in_tensors[0].add(in_tensors[1]).map_err(kerr)?,
        Op::FlattenHw => {
            let s = in_tensors[0].shape();
            let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
            in_tensors[0]
                .reshape(&[n, c, h * w])
                .and_then(|t| t.permute(&[0, 2, 1]))
                .map_err(kerr)?
        }
        Op::UnflattenHw { h, w } => {
            let s = in_tensors[0].shape();
            let (n, c) = (s[0], s[2]);
            in_tensors[0]
                .permute(&[0, 2, 1])
                .and_then(|t| t.reshape(&[n, c, *h, *w]))
                .map_err(kerr)?
        }
        Op::WindowPartition { window } => window_partition(in_tensors[0], *window),
        Op::WindowMerge { window, h, w } => window_merge(in_tensors[0], *window, *h, *w),
        Op::CyclicShift { dy, dx } => cyclic_shift(in_tensors[0], *dy, *dx),
        Op::GlobalAvgPool => ops::global_avg_pool(in_tensors[0]).map_err(kerr)?,
        Op::ArgmaxChannels => in_tensors[0].argmax_channels().map_err(kerr)?,
        Op::Identity => in_tensors[0].clone(),
        Op::SliceChannels { keep } => slice_channels(in_tensors[0], *keep),
        Op::SpaceToDepth { block } => space_to_depth(in_tensors[0], *block),
        Op::ConcatTokens => concat_tokens(in_tensors),
    };
    Ok(out)
}

/// Executes graphs with deterministic synthetic weights.
///
/// Weights are generated lazily per node and cached, so repeated executions
/// of the same graph reuse them. This is the single-threaded convenience
/// wrapper over a shared [`WeightGen`] plus a private [`ExecScratch`];
/// concurrent callers hold one `WeightGen` and one scratch per worker and
/// call [`ExecScratch::run`] directly.
#[derive(Debug)]
pub struct Executor {
    gen: WeightGen,
    scratch: ExecScratch,
}

impl Executor {
    /// Creates an executor with a global weight seed.
    pub fn new(seed: u64) -> Self {
        Executor {
            gen: WeightGen::new(seed),
            scratch: ExecScratch::new(),
        }
    }

    /// The underlying weight generator.
    pub fn weight_gen(&self) -> &WeightGen {
        &self.gen
    }

    /// Runs the graph on the provided inputs (one tensor per graph input, in
    /// declaration order) and returns the output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when input count/shapes mismatch the graph or a
    /// kernel fails.
    ///
    /// # Panics
    ///
    /// Panics when the graph has no output set.
    pub fn run(&mut self, graph: &Graph, inputs: &[Tensor]) -> Result<Tensor, ExecError> {
        self.scratch.run(self.gen, graph, inputs)
    }

    /// [`Executor::run`] under a full [`RunContext`] (execution options +
    /// trace sink); bit-identical to `run` under any context.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when input count/shapes mismatch the graph or a
    /// kernel fails.
    ///
    /// # Panics
    ///
    /// Panics when the graph has no output set.
    pub fn run_with(
        &mut self,
        graph: &Graph,
        inputs: &[Tensor],
        ctx: &RunContext,
    ) -> Result<Tensor, ExecError> {
        self.scratch.run_with(self.gen, graph, inputs, ctx)
    }
}

fn slice_channels(x: &Tensor, keep: usize) -> Tensor {
    match x.rank() {
        4 => {
            let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
            let mut out = Tensor::zeros(&[n, keep, h, w]);
            let plane = h * w;
            for b in 0..n {
                let src = &x.data()[b * c * plane..(b * c + keep) * plane];
                out.data_mut()[b * keep * plane..(b + 1) * keep * plane].copy_from_slice(src);
            }
            out
        }
        3 => {
            let (b, n, c) = (x.shape()[0], x.shape()[1], x.shape()[2]);
            let mut out = Tensor::zeros(&[b, n, keep]);
            for row in 0..b * n {
                let src = &x.data()[row * c..row * c + keep];
                out.data_mut()[row * keep..(row + 1) * keep].copy_from_slice(src);
            }
            out
        }
        _ => unreachable!("validated by shape inference"),
    }
}

fn space_to_depth(x: &Tensor, block: usize) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (h / block, w / block);
    let oc = c * block * block;
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let xd = x.data();
    let od = out.data_mut();
    for b in 0..n {
        for ch in 0..c {
            for by in 0..block {
                for bx in 0..block {
                    let out_ch = (ch * block + by) * block + bx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            od[((b * oc + out_ch) * oh + oy) * ow + ox] =
                                xd[((b * c + ch) * h + oy * block + by) * w + ox * block + bx];
                        }
                    }
                }
            }
        }
    }
    out
}

fn concat_tokens(inputs: &[&Tensor]) -> Tensor {
    let (b, c) = (inputs[0].shape()[0], inputs[0].shape()[2]);
    let total_n: usize = inputs.iter().map(|t| t.shape()[1]).sum();
    let mut out = Tensor::zeros(&[b, total_n, c]);
    let od = out.data_mut();
    for bi in 0..b {
        let mut tok_off = 0;
        for t in inputs {
            let n = t.shape()[1];
            let src = &t.data()[bi * n * c..(bi + 1) * n * c];
            od[(bi * total_n + tok_off) * c..(bi * total_n + tok_off + n) * c].copy_from_slice(src);
            tok_off += n;
        }
    }
    out
}

/// Multi-scale deformable attention with nearest-token sampling.
///
/// The true kernel samples values at fractional spatial locations with
/// bilinear interpolation; here sampling locations are reduced to a
/// deterministic nearest token index, which preserves the op's cost
/// structure (the only thing the paper's experiments depend on) while
/// remaining a real, executable gather-and-weight computation.
#[allow(clippy::too_many_arguments)]
fn deform_attn(
    query: &Tensor,
    value: &Tensor,
    wv: &Tensor,
    wo: &Tensor,
    woff: &Tensor,
    wattn: &Tensor,
    heads: usize,
    levels: usize,
    points: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Tensor, TensorError> {
    let (b, n, d) = (query.shape()[0], query.shape()[1], query.shape()[2]);
    let m = value.shape()[1];
    let hd = d / heads;
    let v = ops::linear_ctx(value, wv, None, ctx)?;
    let offsets = ops::linear_ctx(query, woff, None, ctx)?; // [b, n, h*l*p*2]
    let attn_logits = ops::linear_ctx(query, wattn, None, ctx)?; // [b, n, h*l*p]
    let attn = ops::softmax_last_dim(&attn_logits)?;
    let mut out = Tensor::zeros(&[b, n, d]);
    let od = out.data_mut();
    let vd = v.data();
    let offd = offsets.data();
    let ad = attn.data();
    let hlp = heads * levels * points;
    for bi in 0..b {
        for qi in 0..n {
            for h in 0..heads {
                for lp in 0..levels * points {
                    let s = h * levels * points + lp;
                    let off_x = offd[(bi * n + qi) * hlp * 2 + s * 2];
                    let off_y = offd[(bi * n + qi) * hlp * 2 + s * 2 + 1];
                    // Deterministic token index derived from the predicted
                    // offsets (nearest-token stand-in for bilinear sampling).
                    let raw = (qi as f32 + off_x * 8.0 + off_y * 64.0).abs() as usize;
                    let tok = raw % m;
                    let wgt = ad[(bi * n + qi) * hlp + s];
                    let vbase = (bi * m + tok) * d + h * hd;
                    let obase = (bi * n + qi) * d + h * hd;
                    for e in 0..hd {
                        od[obase + e] += wgt * vd[vbase + e];
                    }
                }
            }
        }
    }
    ops::linear_ctx(&out, wo, None, ctx)
}

/// Fused scaled-dot-product attention on already-projected q/k/v.
fn sdpa(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Tensor, TensorError> {
    let (b, n, d) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let m = k.shape()[1];
    let dv = v.shape()[2];
    let hd = d / heads;
    let hdv = dv / heads;
    let split =
        |x: &Tensor, tokens: usize, dim: usize, hdim: usize| -> Result<Tensor, TensorError> {
            x.reshape(&[b, tokens, dim / hdim, hdim])?
                .permute(&[0, 2, 1, 3])?
                .reshape(&[b * (dim / hdim), tokens, hdim])
        };
    let qh = split(q, n, d, hd)?;
    let kh = split(k, m, d, hd)?;
    let vh = split(v, m, dv, hdv)?;
    let kt = kh.permute(&[0, 2, 1])?;
    let scores = ops::bmm_ctx(&qh, &kt, ctx)?.scale(1.0 / (hd as f32).sqrt());
    let probs = ops::softmax_last_dim(&scores)?;
    let attn_out = ops::bmm_ctx(&probs, &vh, ctx)?;
    attn_out
        .reshape(&[b, heads, n, hdv])?
        .permute(&[0, 2, 1, 3])?
        .reshape(&[b, n, dv])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::LayerRole;

    #[test]
    fn weight_gen_is_deterministic_and_name_scoped() {
        let gen = WeightGen::new(7);
        let a = gen.tensor("layer1", "weight", &[4, 4], 1.0);
        let b = gen.tensor("layer1", "weight", &[4, 4], 1.0);
        let c = gen.tensor("layer2", "weight", &[4, 4], 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn weight_gen_prefix_slices_are_shared() {
        // The first 2x3 block of a 4x6 weight equals the 2x3 weight.
        let gen = WeightGen::new(42);
        let big = gen.decayed_tensor("conv", "weight", &[4, 6], 1, 1);
        let small = gen.decayed_tensor("conv", "weight", &[2, 3], 1, 1);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(big.at(&[r, c]), small.at(&[r, c]));
            }
        }
    }

    #[test]
    fn executor_runs_simple_cnn() {
        let mut g = Graph::new("mini");
        let x = g.input("image", &[1, 3, 8, 8]).unwrap();
        let c1 = g
            .add(
                "conv1",
                Op::Conv2d {
                    out_channels: 4,
                    kernel: (3, 3),
                    stride: (2, 2),
                    pad: (1, 1),
                    groups: 1,
                    bias: true,
                },
                LayerRole::Backbone,
                &[x],
            )
            .unwrap();
        let r = g.add("relu", Op::Relu, LayerRole::Backbone, &[c1]).unwrap();
        let p = g
            .add("pool", Op::GlobalAvgPool, LayerRole::Head, &[r])
            .unwrap();
        g.set_output(p);
        let mut ex = Executor::new(0);
        let img = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, 5);
        let out = ex.run(&g, &[img]).unwrap();
        assert_eq!(out.shape(), &[1, 4]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn executor_validates_inputs() {
        let mut g = Graph::new("v");
        let x = g.input("image", &[1, 1, 4, 4]).unwrap();
        g.set_output(x);
        let mut ex = Executor::new(0);
        assert!(ex.run(&g, &[]).is_err());
        assert!(ex.run(&g, &[Tensor::zeros(&[1, 1, 2, 2])]).is_err());
    }

    #[test]
    fn sdpa_node_executes() {
        let mut g = Graph::new("attn");
        let x = g.input("tokens", &[1, 16, 8]).unwrap();
        let q = g
            .add(
                "q",
                Op::Linear {
                    out_features: 8,
                    bias: false,
                },
                LayerRole::Other,
                &[x],
            )
            .unwrap();
        let k = g
            .add(
                "k",
                Op::Linear {
                    out_features: 8,
                    bias: false,
                },
                LayerRole::Other,
                &[x],
            )
            .unwrap();
        let v = g
            .add(
                "v",
                Op::Linear {
                    out_features: 8,
                    bias: false,
                },
                LayerRole::Other,
                &[x],
            )
            .unwrap();
        let a = g
            .add("sdpa", Op::Sdpa { heads: 2 }, LayerRole::Other, &[q, k, v])
            .unwrap();
        g.set_output(a);
        let mut ex = Executor::new(1);
        let out = ex
            .run(&g, &[Tensor::rand_uniform(&[1, 16, 8], -1.0, 1.0, 2)])
            .unwrap();
        assert_eq!(out.shape(), &[1, 16, 8]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cyclic_shift_round_trips() {
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, 3);
        let s = cyclic_shift(&x, 1, 2);
        let back = cyclic_shift(&s, -1, -2);
        assert_eq!(x, back);
        assert_ne!(x, s);
    }

    #[test]
    fn cyclic_shift_moves_pixels() {
        let mut x = Tensor::zeros(&[1, 1, 3, 3]);
        x.set(&[0, 0, 0, 0], 1.0);
        let s = cyclic_shift(&x, 1, 1);
        assert_eq!(s.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(s.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn window_partition_merge_round_trips() {
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, 9);
        let p = window_partition(&x, 4);
        assert_eq!(p.shape(), &[2 * 4, 16, 3]);
        let m = window_merge(&p, 4, 8, 8);
        assert_eq!(m, x);
    }

    #[test]
    fn executor_frees_intermediates() {
        // Build a diamond and make sure execution still works (refcount
        // logic must keep `x` alive for both branches).
        let mut g = Graph::new("diamond");
        let x = g.input("in", &[1, 2, 4, 4]).unwrap();
        let a = g.add("a", Op::Relu, LayerRole::Other, &[x]).unwrap();
        let b = g.add("b", Op::Gelu, LayerRole::Other, &[x]).unwrap();
        let s = g.add("s", Op::Add, LayerRole::Other, &[a, b]).unwrap();
        g.set_output(s);
        let mut ex = Executor::new(0);
        let out = ex
            .run(&g, &[Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, 1)])
            .unwrap();
        assert_eq!(out.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn per_worker_scratches_agree_and_cache_weights() {
        // Two workers with independent scratches over one shared WeightGen
        // must produce identical outputs (weights are a pure function of
        // the generator), and each scratch caches the layer weights.
        let mut g = Graph::new("w");
        let x = g.input("in", &[1, 1, 6]).unwrap();
        let l = g
            .add(
                "proj",
                Op::Linear {
                    out_features: 4,
                    bias: true,
                },
                LayerRole::Other,
                &[x],
            )
            .unwrap();
        g.set_output(l);
        let gen = WeightGen::new(11);
        let mut s1 = ExecScratch::new();
        let mut s2 = ExecScratch::new();
        let input = Tensor::rand_uniform(&[1, 1, 6], -1.0, 1.0, 4);
        let a = s1.run(gen, &g, std::slice::from_ref(&input)).unwrap();
        let b = s2.run(gen, &g, std::slice::from_ref(&input)).unwrap();
        assert_eq!(a, b);
        assert_eq!(s1.cached_nodes(), 1);
        // Re-running on the same scratch reuses the cache.
        let c = s1.run(gen, &g, &[input]).unwrap();
        assert_eq!(a, c);
        assert_eq!(s1.cached_nodes(), 1);
    }

    #[test]
    fn traced_run_is_bit_identical_and_well_formed() {
        let mut g = Graph::new("traced");
        let x = g.input("image", &[1, 3, 8, 8]).unwrap();
        let c1 = g
            .add(
                "conv1",
                Op::Conv2d {
                    out_channels: 4,
                    kernel: (3, 3),
                    stride: (1, 1),
                    pad: (1, 1),
                    groups: 1,
                    bias: true,
                },
                LayerRole::Backbone,
                &[x],
            )
            .unwrap();
        let r = g.add("relu", Op::Relu, LayerRole::Backbone, &[c1]).unwrap();
        let p = g
            .add("pool", Op::GlobalAvgPool, LayerRole::Head, &[r])
            .unwrap();
        g.set_output(p);
        let gen = WeightGen::new(3);
        let img = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, 5);

        let mut plain = ExecScratch::new();
        let baseline = plain.run(gen, &g, std::slice::from_ref(&img)).unwrap();

        for threads in [1usize, 4] {
            let sink = Arc::new(vit_trace::RingBufferSink::new(1 << 16));
            let ctx = RunContext::threaded(threads).with_sink(sink.clone() as Arc<dyn TraceSink>);
            let mut scratch = ExecScratch::new();
            let traced = scratch
                .run_with(gen, &g, std::slice::from_ref(&img), &ctx)
                .unwrap();
            assert_eq!(baseline, traced, "tracing must not change results");
            let events = sink.events();
            vit_trace::validate(&events).unwrap();
            let node_events: Vec<_> = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Node { .. }))
                .collect();
            assert_eq!(node_events.len(), g.len(), "one span per node");
            let traced_flops: u64 = node_events
                .iter()
                .map(|e| match &e.kind {
                    EventKind::Node { flops, .. } => *flops,
                    _ => 0,
                })
                .sum();
            let static_flops: u64 = g.iter().map(|(_, n)| n.flops(&g)).sum();
            assert_eq!(traced_flops, static_flops, "trace FLOPs match static");
        }
    }

    #[test]
    fn shared_weights_between_full_and_pruned_linear() {
        // A linear with 8 outputs and the same node name as one with 4
        // outputs produces identical values on the first 4 outputs.
        let mut g_full = Graph::new("m");
        let x = g_full.input("in", &[1, 1, 6]).unwrap();
        let l = g_full
            .add(
                "proj",
                Op::Linear {
                    out_features: 8,
                    bias: true,
                },
                LayerRole::Other,
                &[x],
            )
            .unwrap();
        g_full.set_output(l);

        let mut g_pruned = Graph::new("m");
        let x2 = g_pruned.input("in", &[1, 1, 6]).unwrap();
        let l2 = g_pruned
            .add(
                "proj",
                Op::Linear {
                    out_features: 4,
                    bias: true,
                },
                LayerRole::Other,
                &[x2],
            )
            .unwrap();
        g_pruned.set_output(l2);

        let input = Tensor::rand_uniform(&[1, 1, 6], -1.0, 1.0, 77);
        let mut ex1 = Executor::new(5);
        let mut ex2 = Executor::new(5);
        let full = ex1.run(&g_full, std::slice::from_ref(&input)).unwrap();
        let pruned = ex2.run(&g_pruned, &[input]).unwrap();
        for i in 0..4 {
            assert!((full.data()[i] - pruned.data()[i]).abs() < 1e-6);
        }
    }
}
