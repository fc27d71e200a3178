//! # vit-plan
//!
//! Compiled execution plans: lower a [`vit_graph::Graph`] **once** into a
//! flat [`ExecPlan`] and replay it per inference.
//!
//! The interpreter in `vit-graph` walks the graph every run — hash-map
//! weight lookups and buffer-pool allocation per node. It stays as the
//! sequential reference oracle; plan replay is the production executor
//! and the parallel one. Real ViT inference stacks (ViTA's edge
//! accelerator, Vis-TOP's overlay processor) instead compile a model into
//! a static schedule with fixed buffer placement and replay it. This crate
//! is that substrate for the DRT reproduction:
//!
//! * **flat records** — topologically ordered [`PlanRecord`]s with
//!   pre-resolved input/output offsets; replay is a tight loop, with no
//!   per-node hash lookups or buffer-pool traffic;
//! * **static arena** — one buffer sized by exact liveness analysis at
//!   compile time (free ranges are reused the moment their last consumer
//!   retires), replacing the `BufferPool` best-fit heuristic on this path;
//!   the arena is recycled across runs and never re-zeroed, because every
//!   record fully overwrites its output range;
//! * **fused epilogues** — a `Relu`/`Gelu` whose sole producer is a
//!   `Conv2d`/`Linear` (and which is that producer's only consumer) is
//!   folded into the producing kernel's final store, eliminating a whole
//!   read-modify-write pass over the activation;
//! * **pre-packed weights** — parameter tensors are generated once at
//!   compile time and packed contiguously
//!   ([`vit_tensor::ops::PackedConv2d`]/[`PackedLinear`]), so replay
//!   touches no weight cache;
//! * **arena-native memory ops** — bilinear resize (plane-tiled over the
//!   pool), the `FlattenHw`/`UnflattenHw` transposes and channel concat
//!   run straight on arena ranges through the slice kernels
//!   [`vit_tensor::ops::bilinear_resize_into`],
//!   [`vit_tensor::ops::transpose_into`] and
//!   [`vit_tensor::ops::concat_channels_into`]; a same-size resize is a
//!   copy. Only ops without a native step yet (norms, attention,
//!   pooling, window and slicing ops) take the *fallback* record,
//!   which copies its inputs out of the arena into tensors, dispatches
//!   through [`vit_graph::eval_op`], and copies the result back
//!   ([`PlanRecord::is_fallback`]).
//!
//! Replay is **bit-identical** to the interpreter at any thread count: the
//! packed and memory-op kernels are the very inner loops the interpreter's
//! kernels call, epilogue scalars are shared, fallback records dispatch
//! through the same [`vit_graph::eval_op`], and threading happens only via
//! intra-kernel output tiling (the `vit_tensor::par` determinism
//! contract).
//!
//! `vit-verify`'s plan pass proves plan↔graph equivalence offline:
//! identical FLOP/param/byte totals, every node covered exactly once by a
//! record or fusion, and arena liveness soundness.
//!
//! [`PackedLinear`]: vit_tensor::ops::PackedLinear
//!
//! # Examples
//!
//! ```
//! use vit_graph::{Graph, LayerRole, Op, RunContext, WeightGen};
//! use vit_plan::ExecPlan;
//! use vit_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("tiny");
//! let x = g.input("image", &[1, 3, 8, 8])?;
//! let c = g.add(
//!     "stem",
//!     Op::Conv2d {
//!         out_channels: 4,
//!         kernel: (3, 3),
//!         stride: (1, 1),
//!         pad: (1, 1),
//!         groups: 1,
//!         bias: true,
//!     },
//!     LayerRole::Backbone,
//!     &[x],
//! )?;
//! let r = g.add("stem.act", Op::Relu, LayerRole::Backbone, &[c])?;
//! g.set_output(r);
//!
//! let plan = ExecPlan::compile(&g, WeightGen::new(0))?;
//! assert_eq!(plan.records().len(), 2); // input + fused conv∘relu
//! let out = plan.execute(
//!     &[Tensor::ones(&[1, 3, 8, 8])],
//!     &RunContext::default(),
//! )?;
//! assert_eq!(out.shape(), &[1, 4, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::sync::Mutex;

use vit_fault::{check_guard, FaultCtx, FaultError};
use vit_graph::ExecError;
use vit_graph::{eval_op, generate_node_weights, Graph, Node, Op, RunContext, WeightGen};
use vit_tensor::ops::{self, Conv2dParams, Epilogue, PackedConv2d, PackedLinear};
use vit_tensor::{BufferPool, ExecCtx, ShadowAccess, ShadowViolation, Tensor, TensorError};
use vit_trace::{now_ns, EventKind, Phase, TraceSink};

/// A contiguous element range inside a plan's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufRange {
    /// First element index.
    pub offset: usize,
    /// Length in elements.
    pub len: usize,
}

impl BufRange {
    /// One past the last element index.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// Whether two ranges share any element.
    pub fn overlaps(&self, other: &BufRange) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }
}

/// How a record's kernel decomposes the write of its output range at
/// replay time — the geometry `vit-verify`'s exec-safety pass proves
/// disjoint and complete *before* any schedule runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecContract {
    /// One sequential pass over the whole output range (scalar loops,
    /// copies, transposes, concat, fallback dispatch). Never reassociates.
    Sequential,
    /// Row tiling through [`vit_tensor::row_chunks`]: the output splits
    /// into row-aligned chunks of whole `row_len`-element rows, each
    /// written by exactly one worker with a blocking geometry that depends
    /// only on shapes (the thread-invariance contract of
    /// `vit_tensor::par`).
    RowTiled {
        /// Elements per indivisible row: one output channel-plane for
        /// convolution and resize, one feature vector for linear.
        row_len: usize,
        /// Whether the kernel may reorder FP accumulation relative to the
        /// reference oracle (`vit_tensor::ops::reference`). True routes
        /// the record to the tolerance tier: packed GEMM-backed records
        /// declare it so the registered per-op-class ULP budget is
        /// reserved, even while the current micro-kernel keeps each
        /// element's k-chain sequential. Thread-count invariance is
        /// unaffected either way.
        reassociates: bool,
    },
    /// An explicit chunk decomposition, offsets relative to the record's
    /// output range. The declaration future SIMD/tiled kernels (and
    /// vit-verify's broken-artifact tests) use; a kernel that reorders
    /// float accumulation relative to the sequential kernel must say so
    /// via `reassociates`, which routes the record to the tolerance tier
    /// instead of the bit-identity tier.
    Explicit {
        /// Chunk ranges, offsets relative to the output range's start.
        chunks: Vec<BufRange>,
        /// Whether the decomposition reorders FP accumulation relative to
        /// sequential execution.
        reassociates: bool,
    },
}

impl ExecContract {
    /// Whether this decomposition may reorder float accumulation relative
    /// to the reference oracle. Such records claim the **tolerance tier**
    /// (`vit_tensor::ops::reference::tolerance`) instead of bit-identity
    /// against the oracle; vit-verify's V056 checks each one maps to a
    /// registered kernel class.
    pub fn reassociates(&self) -> bool {
        matches!(
            self,
            ExecContract::Explicit {
                reassociates: true,
                ..
            } | ExecContract::RowTiled {
                reassociates: true,
                ..
            }
        )
    }

    /// The absolute arena ranges written in parallel when the record's
    /// output is `out` and the pool exposes `threads` workers.
    /// [`vit_tensor::row_chunks`] is the shared oracle between this method
    /// and the kernels' dispatch, so the geometry the analyzer proves is
    /// the geometry that executes.
    pub fn chunk_ranges(&self, out: BufRange, threads: usize) -> Vec<BufRange> {
        match self {
            ExecContract::Sequential => vec![out],
            ExecContract::RowTiled { row_len, .. } => {
                vit_tensor::row_chunks(out.len, *row_len, threads.max(1))
                    .into_iter()
                    .map(|(start, len)| BufRange {
                        offset: out.offset + start,
                        len,
                    })
                    .collect()
            }
            ExecContract::Explicit { chunks, .. } => chunks
                .iter()
                .map(|c| BufRange {
                    offset: out.offset + c.offset,
                    len: c.len,
                })
                .collect(),
        }
    }
}

/// The innermost extent of `shape`: the row the linear and elementwise
/// steps tile by (0 for a rank-0 shape, which `row_chunks` treats as one
/// chunk).
fn last_dim(shape: &[usize]) -> usize {
    shape.last().copied().unwrap_or(0)
}

/// How one record computes its output range. Every step but `Fallback`
/// reads and writes arena ranges directly.
#[derive(Debug, Clone)]
enum Step {
    /// Copy graph input `pos` into the output range.
    Input { pos: usize },
    /// Pre-packed convolution (epilogue possibly fused).
    Conv(PackedConv2d),
    /// Pre-packed linear layer (epilogue possibly fused).
    Linear(PackedLinear),
    /// Standalone elementwise relu (not fused into a producer).
    Relu,
    /// Standalone elementwise gelu.
    Gelu,
    /// Elementwise sum of two equal-shape inputs.
    Add,
    /// Byte copy (`Op::Identity`, and a same-size `Op::Resize`).
    Copy,
    /// Separable bilinear resize of whole channel-planes, tiled over the
    /// pool by output plane.
    Resize {
        in_hw: (usize, usize),
        out_hw: (usize, usize),
    },
    /// Batched transpose `[n, rows, cols] -> [n, cols, rows]`
    /// (`FlattenHw`, `UnflattenHw`).
    Transpose { rows: usize, cols: usize },
    /// Channel concatenation: each input's per-item segment is copied
    /// into its channel offset of every batch item.
    Concat { batch: usize },
    /// Ops without a native step (norms, attention, window and slicing
    /// ops): copy the inputs out of the arena into tensors, dispatch
    /// through [`vit_graph::eval_op`] with weights generated at compile
    /// time, and copy the result back.
    Fallback { weights: Vec<Tensor> },
}

/// One flat instruction of a compiled plan: which op to run, where its
/// inputs and output live in the arena, and the static costs it accounts
/// for (including any nodes fused into it).
#[derive(Debug, Clone)]
pub struct PlanRecord {
    /// Graph node this record executes (the *producer* for fused pairs).
    pub name: String,
    /// The producer's operator.
    pub op: Op,
    /// Arena ranges of the inputs, in graph edge order.
    pub inputs: Vec<BufRange>,
    /// Shapes of the inputs, in graph edge order.
    pub in_shapes: Vec<Vec<usize>>,
    /// Arena range of the output.
    pub out: BufRange,
    /// Shape of the output (after any fused epilogue, which preserves it).
    pub out_shape: Vec<usize>,
    /// Names of graph nodes fused into this record's epilogue.
    pub fused: Vec<String>,
    /// Analytical FLOPs (MAC convention), producer plus fused nodes.
    pub flops: u64,
    /// Learned parameters, producer plus fused nodes.
    pub params: u64,
    /// First-order DRAM traffic in bytes, producer plus fused nodes
    /// (accounted as the interpreter would, so plan totals equal graph
    /// totals even though fusion eliminates the traffic physically).
    pub bytes: u64,
    /// How the kernel decomposes the output write under parallelism.
    pub contract: ExecContract,
    /// Arena ranges the compile-time allocator reclaims *after* this
    /// record runs (its inputs whose last consumer this record is): free
    /// for reuse from the next record on. The exec-safety pass proves no
    /// later record reads them un-redefined; shadow replay kills them
    /// here.
    pub frees: Vec<BufRange>,
    step: Step,
}

impl PlanRecord {
    /// Builds a record with the given wiring and a stub execution step —
    /// the escape hatch for assembling **analysis-only** plans via
    /// [`ExecPlan::from_raw_parts`] that [`ExecPlan::compile`] could never
    /// produce (vit-verify's broken-artifact tests). The contract defaults
    /// to [`ExecContract::Sequential`] and `frees` to empty; both fields
    /// are public, so adjust them after construction. The step is always
    /// the fallback (whatever `op` is, so [`PlanRecord::is_fallback`]
    /// holds) and carries no weights: executing such a record fails for
    /// every op that needs weights.
    pub fn from_raw_parts(
        name: &str,
        op: Op,
        inputs: Vec<BufRange>,
        in_shapes: Vec<Vec<usize>>,
        out: BufRange,
        out_shape: Vec<usize>,
    ) -> PlanRecord {
        PlanRecord {
            name: name.to_string(),
            op,
            inputs,
            in_shapes,
            out,
            out_shape,
            fused: Vec::new(),
            flops: 0,
            params: 0,
            bytes: 0,
            contract: ExecContract::Sequential,
            frees: Vec::new(),
            step: Step::Fallback {
                weights: Vec::new(),
            },
        }
    }
}

impl PlanRecord {
    /// Whether this record replays through the generic fallback: its
    /// inputs copied out of the arena into tensors, the op dispatched
    /// through [`vit_graph::eval_op`], and the result copied back. Every
    /// other record runs a native kernel straight on arena ranges.
    pub fn is_fallback(&self) -> bool {
        matches!(self.step, Step::Fallback { .. })
    }
}

/// Why a graph could not be lowered into a plan.
#[derive(Debug)]
#[non_exhaustive]
pub enum PlanError {
    /// The graph has no output set.
    NoOutput {
        /// Model name of the offending graph.
        model: String,
    },
    /// Packing a node's weights failed (inconsistent generated shapes).
    Pack {
        /// Node whose weights failed to pack.
        node: String,
        /// Underlying tensor error.
        source: TensorError,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoOutput { model } => {
                write!(f, "graph `{model}` has no output set")
            }
            PlanError::Pack { node, source } => {
                write!(f, "packing weights of `{node}` failed: {source}")
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::NoOutput { .. } => None,
            PlanError::Pack { source, .. } => Some(source),
        }
    }
}

/// Free-list allocator used at compile time to assign arena ranges.
///
/// Best-fit over coalesced free ranges, bump-extending the arena when
/// nothing fits. Exactness comes from *when* it is driven: a range is
/// freed the moment its owner's last consumer has been lowered, so two
/// ranges only coexist when their values genuinely do.
#[derive(Debug, Default)]
struct ArenaLayout {
    free: Vec<BufRange>, // sorted by offset, coalesced
    len: usize,
}

impl ArenaLayout {
    fn alloc(&mut self, len: usize) -> BufRange {
        // Zero-size values (degenerate shapes) get a canonical empty
        // range instead of splitting a free block at an arbitrary offset
        // — best-fit would otherwise hand out a zero-length slice of
        // whichever free block happens to be smallest, making layouts
        // depend on free-list history for ranges that hold nothing.
        if len == 0 {
            return BufRange { offset: 0, len: 0 };
        }
        // Best fit: smallest free range that holds `len`.
        let best = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, r)| r.len >= len)
            .min_by_key(|(_, r)| r.len)
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                let r = self.free[i];
                if r.len == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = BufRange {
                        offset: r.offset + len,
                        len: r.len - len,
                    };
                }
                BufRange {
                    offset: r.offset,
                    len,
                }
            }
            None => {
                let r = BufRange {
                    offset: self.len,
                    len,
                };
                self.len += len;
                r
            }
        }
    }

    fn free(&mut self, r: BufRange) {
        if r.len == 0 {
            return;
        }
        let i = self.free.partition_point(|f| f.offset < r.offset);
        self.free.insert(i, r);
        // Coalesce with the right, then the left, neighbor.
        if i + 1 < self.free.len() && self.free[i].end() == self.free[i + 1].offset {
            self.free[i].len += self.free[i + 1].len;
            self.free.remove(i + 1);
        }
        if i > 0 && self.free[i - 1].end() == self.free[i].offset {
            self.free[i - 1].len += self.free[i].len;
            self.free.remove(i);
        }
    }
}

/// A graph lowered into a flat, replayable instruction stream.
///
/// Compile once with [`ExecPlan::compile`]; replay any number of times
/// (including concurrently — each [`ExecPlan::execute`] takes a private
/// arena from an internal pool) with outputs bit-identical to the
/// interpreter's.
#[derive(Debug)]
pub struct ExecPlan {
    model: String,
    records: Vec<PlanRecord>,
    arena_len: usize,
    input_shapes: Vec<Vec<usize>>,
    output: BufRange,
    output_shape: Vec<usize>,
    graph_nodes: usize,
    total_flops: u64,
    total_params: u64,
    total_bytes: u64,
    /// Recycled arenas from finished runs (never re-zeroed: every record
    /// fully overwrites its output range before any consumer reads it).
    arena_pool: Mutex<Vec<Vec<f32>>>,
    /// Allocation free-list for fallback records' intermediate tensors.
    scratch: BufferPool,
}

impl ExecPlan {
    /// Lowers `graph` into a plan, generating and packing weights from
    /// `gen`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoOutput`] when the graph has no output set.
    pub fn compile(graph: &Graph, gen: WeightGen) -> Result<ExecPlan, PlanError> {
        let output_id = graph.output().ok_or_else(|| PlanError::NoOutput {
            model: graph.model.clone(),
        })?;
        let n = graph.len();

        // Fusion pre-pass: `fused_into[a] = Some(p)` when activation `a`
        // folds into producer `p`'s epilogue. Legality: `a` is a unary
        // Relu/Gelu, its producer is a Conv2d/Linear, and `a` is that
        // producer's *only* consumer (`consumer_counts` adds one for the
        // graph output, so an output node can never be fused away).
        let counts = graph.consumer_counts();
        let mut fused_into: Vec<Option<usize>> = vec![None; n];
        for (id, node) in graph.iter() {
            if !matches!(node.op, Op::Relu | Op::Gelu) || node.inputs.len() != 1 {
                continue;
            }
            let p = node.inputs[0].index();
            let producer = graph.node(node.inputs[0]);
            if matches!(producer.op, Op::Conv2d { .. } | Op::Linear { .. }) && counts[p] == 1 {
                fused_into[id.index()] = Some(p);
            }
        }
        let mut fused_children: Vec<Option<usize>> = vec![None; n];
        for (a, p) in fused_into.iter().enumerate() {
            if let Some(p) = p {
                fused_children[*p] = Some(a);
            }
        }

        // Lowering + liveness in one topological walk. A node's range is
        // allocated *before* its inputs' refcounts drop, so an output can
        // never alias a live input (kernels read inputs while storing
        // outputs). For a fused pair the activation owns the range's
        // lifetime: the internal producer→activation edge decrements
        // nothing, and the activation's consumers govern the free.
        let mut refcount = counts;
        let mut layout = ArenaLayout::default();
        let mut range_of: Vec<Option<BufRange>> = vec![None; n];
        let mut records = Vec::new();
        let mut input_pos = 0usize;
        let mut input_shapes = Vec::new();
        for (id, node) in graph.iter() {
            let i = id.index();
            if let Some(p) = fused_into[i] {
                // Fused activation: alias the producer's (already
                // emitted) record output; its costs were folded there.
                range_of[i] = range_of[p];
                continue;
            }
            let numel: usize = node.shape.iter().product();
            let out = layout.alloc(numel);
            range_of[i] = Some(out);
            let inputs: Vec<BufRange> = node
                .inputs
                .iter()
                .map(|j| range_of[j.index()].expect("topological order"))
                .collect();
            let in_shapes: Vec<Vec<usize>> = node
                .inputs
                .iter()
                .map(|j| graph.node(*j).shape.clone())
                .collect();
            let fused_child =
                fused_children[i].map(|a| graph.node(vit_graph::NodeId::from_index(a)));
            let epilogue = match fused_child.map(|c| &c.op) {
                Some(Op::Relu) => Epilogue::Relu,
                Some(Op::Gelu) => Epilogue::Gelu,
                _ => Epilogue::None,
            };
            let step = match &node.op {
                Op::Input { .. } => {
                    input_shapes.push(node.shape.clone());
                    input_pos += 1;
                    Step::Input { pos: input_pos - 1 }
                }
                op => Self::lower_step(node, op, &in_shapes, epilogue, gen)?,
            };
            // The write-decomposition contract mirrors the kernels: packed
            // conv and resize tile by output channel-plane, packed linear
            // and the elementwise steps by innermost row; everything else
            // on the replay path writes its range in one sequential pass.
            // GEMM-backed steps declare FP reassociation (tolerance tier):
            // packed linear always, conv only on its im2col path — the
            // direct single-input-channel path is bit-identical to the
            // reference oracle, and so is the separable resize. The
            // elementwise steps do not reassociate either: GELU differs
            // from its oracle by its `exp` approximation, bounded by the
            // Activation class, not by reordered accumulation.
            let contract = match &step {
                Step::Conv(pc) => ExecContract::RowTiled {
                    row_len: node.shape.iter().skip(2).product(),
                    reassociates: pc.reassociates(),
                },
                Step::Linear(_) => ExecContract::RowTiled {
                    row_len: last_dim(&node.shape),
                    reassociates: true,
                },
                Step::Resize { out_hw, .. } => ExecContract::RowTiled {
                    row_len: out_hw.0 * out_hw.1,
                    reassociates: false,
                },
                Step::Relu | Step::Gelu | Step::Add => ExecContract::RowTiled {
                    row_len: last_dim(&node.shape),
                    reassociates: false,
                },
                _ => ExecContract::Sequential,
            };
            let mut flops = node.flops(graph);
            let mut params = node.params(graph);
            let mut bytes = node.io_bytes(graph);
            let mut fused = Vec::new();
            if let Some(c) = fused_child {
                flops += c.flops(graph);
                params += c.params(graph);
                bytes += c.io_bytes(graph);
                fused.push(c.name.clone());
            }
            records.push(PlanRecord {
                name: node.name.clone(),
                op: node.op.clone(),
                inputs,
                in_shapes,
                out,
                out_shape: node.shape.clone(),
                fused,
                flops,
                params,
                bytes,
                contract,
                frees: Vec::new(),
                step,
            });
            // Retire inputs whose last consumer was just lowered. The
            // graph output holds an extra reference, so its range (and
            // transitively the plan output) is never recycled. Each freed
            // range is recorded on the retiring record so the liveness
            // decision survives into the plan for offline audit.
            let mut freed = Vec::new();
            for j in &node.inputs {
                let jj = j.index();
                refcount[jj] -= 1;
                if refcount[jj] == 0 {
                    let r = range_of[jj].expect("allocated");
                    layout.free(r);
                    freed.push(r);
                }
            }
            records.last_mut().expect("just pushed").frees = freed;
        }

        let output = range_of[output_id.index()].expect("output lowered");
        let output_shape = graph.node(output_id).shape.clone();
        Ok(ExecPlan {
            model: graph.model.clone(),
            total_flops: records.iter().map(|r| r.flops).sum(),
            total_params: records.iter().map(|r| r.params).sum(),
            total_bytes: records.iter().map(|r| r.bytes).sum(),
            records,
            arena_len: layout.len,
            input_shapes,
            output,
            output_shape,
            graph_nodes: n,
            arena_pool: Mutex::new(Vec::new()),
            scratch: BufferPool::default(),
        })
    }

    /// Builds the step for one non-`Input` node, packing weights for the
    /// kernels that support it.
    fn lower_step(
        node: &Node,
        op: &Op,
        in_shapes: &[Vec<usize>],
        epilogue: Epilogue,
        gen: WeightGen,
    ) -> Result<Step, PlanError> {
        let shape_refs: Vec<&[usize]> = in_shapes.iter().map(Vec::as_slice).collect();
        let perr = |source: TensorError| PlanError::Pack {
            node: node.name.clone(),
            source,
        };
        Ok(match op {
            Op::Conv2d {
                stride,
                pad,
                groups,
                bias,
                ..
            } => {
                let w = generate_node_weights(gen, &node.name, op, &shape_refs);
                let p = Conv2dParams {
                    stride_h: stride.0,
                    stride_w: stride.1,
                    pad_h: pad.0,
                    pad_w: pad.1,
                    groups: *groups,
                };
                let b = bias.then(|| &w[1]);
                Step::Conv(PackedConv2d::pack(&w[0], b, p, epilogue).map_err(perr)?)
            }
            Op::Linear { bias, .. } => {
                let w = generate_node_weights(gen, &node.name, op, &shape_refs);
                let b = bias.then(|| &w[1]);
                Step::Linear(PackedLinear::pack(&w[0], b, epilogue).map_err(perr)?)
            }
            Op::Relu => Step::Relu,
            Op::Gelu => Step::Gelu,
            Op::Add => Step::Add,
            Op::Identity => Step::Copy,
            Op::Resize { out_h, out_w } => {
                let in_hw = (in_shapes[0][2], in_shapes[0][3]);
                if in_hw == (*out_h, *out_w) {
                    Step::Copy
                } else {
                    Step::Resize {
                        in_hw,
                        out_hw: (*out_h, *out_w),
                    }
                }
            }
            Op::FlattenHw => Step::Transpose {
                rows: in_shapes[0][1],
                cols: in_shapes[0][2] * in_shapes[0][3],
            },
            Op::UnflattenHw { .. } => Step::Transpose {
                rows: in_shapes[0][1],
                cols: in_shapes[0][2],
            },
            Op::Concat => Step::Concat {
                batch: node.shape[0],
            },
            _ => Step::Fallback {
                weights: generate_node_weights(gen, &node.name, op, &shape_refs),
            },
        })
    }

    /// Replays the plan on `inputs` (one tensor per graph input, in
    /// declaration order).
    ///
    /// Threading follows `ctx.exec` via intra-kernel output tiling only —
    /// record order is always sequential — so outputs are bit-identical to
    /// the interpreter's at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when input count/shapes mismatch the graph
    /// the plan was compiled from, or when a fallback kernel fails.
    pub fn execute(&self, inputs: &[Tensor], ctx: &RunContext) -> Result<Tensor, ExecError> {
        if inputs.len() != self.input_shapes.len() {
            return Err(ExecError::BadInputs {
                msg: format!(
                    "plan `{}` has {} inputs, got {}",
                    self.model,
                    self.input_shapes.len(),
                    inputs.len()
                ),
            });
        }
        for (t, expect) in inputs.iter().zip(&self.input_shapes) {
            if t.shape() != expect.as_slice() {
                return Err(ExecError::BadInputs {
                    msg: format!(
                        "plan `{}` expects input shape {:?}, got {:?}",
                        self.model,
                        expect,
                        t.shape()
                    ),
                });
            }
        }
        let sink = ctx.sink.as_ref();
        let enabled = sink.enabled();
        let replay_start = sink.timestamp();
        let mut arena = self.take_arena();
        let pool = ctx.exec.active_pool();
        let result = self.replay(
            &mut arena,
            inputs,
            pool,
            enabled.then_some(sink),
            &ctx.fault,
        );
        if enabled {
            sink.record(EventKind::Phase {
                phase: Phase::PlanReplay,
                detail: self.model.clone(),
                start_ns: replay_start,
                end_ns: now_ns(),
            });
        }
        let out = result.map(|()| {
            Tensor::from_vec(
                arena[self.output.offset..self.output.end()].to_vec(),
                &self.output_shape,
            )
            .expect("output range sized by shape")
        });
        self.arena_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(arena);
        out
    }

    /// Runs every record against `arena`.
    fn replay(
        &self,
        arena: &mut [f32],
        inputs: &[Tensor],
        pool: Option<&vit_tensor::ThreadPool>,
        sink: Option<&dyn TraceSink>,
        fault: &FaultCtx,
    ) -> Result<(), ExecError> {
        // Records replay in a fixed order, so addressing the injected
        // bit-flip by record index is deterministic per (seed, run, attempt).
        let flip_at = fault.flip_node(self.records.len());
        let node_guard = fault.node_guard();
        for (rec_idx, rec) in self.records.iter().enumerate() {
            let start_ns = sink.map_or(0, TraceSink::timestamp);
            // The output range is disjoint from every live range, so each
            // input lies entirely left or entirely right of it; two splits
            // give simultaneous shared input / exclusive output borrows
            // without `unsafe`.
            let (left, rest) = arena.split_at_mut(rec.out.offset);
            let (out, right) = rest.split_at_mut(rec.out.len);
            let right_base = rec.out.end();
            let input = |r: &BufRange| -> &[f32] {
                if r.end() <= rec.out.offset {
                    &left[r.offset..r.end()]
                } else {
                    &right[r.offset - right_base..r.end() - right_base]
                }
            };
            let kctx = ExecCtx {
                pool,
                bufs: Some(&self.scratch),
                reference: false,
            };
            match &rec.step {
                Step::Input { pos } => out.copy_from_slice(inputs[*pos].data()),
                Step::Conv(conv) => {
                    conv.run(input(&rec.inputs[0]), &rec.in_shapes[0], out, &kctx);
                }
                Step::Linear(lin) => lin.run(input(&rec.inputs[0]), out, &kctx),
                Step::Relu => {
                    let src = input(&rec.inputs[0]);
                    let row = last_dim(&rec.out_shape);
                    kctx.for_each_row_chunk(out, row, |_, start, piece| {
                        for (o, x) in piece.iter_mut().zip(&src[start..]) {
                            *o = Epilogue::Relu.apply(*x);
                        }
                    });
                }
                Step::Gelu => {
                    let src = input(&rec.inputs[0]);
                    let row = last_dim(&rec.out_shape);
                    kctx.for_each_row_chunk(out, row, |_, start, piece| {
                        ops::gelu_into(&src[start..start + piece.len()], piece);
                    });
                }
                Step::Add => {
                    let (a, b) = (input(&rec.inputs[0]), input(&rec.inputs[1]));
                    let row = last_dim(&rec.out_shape);
                    kctx.for_each_row_chunk(out, row, |_, start, piece| {
                        for ((o, x), y) in piece.iter_mut().zip(&a[start..]).zip(&b[start..]) {
                            *o = x + y;
                        }
                    });
                }
                Step::Copy => out.copy_from_slice(input(&rec.inputs[0])),
                Step::Resize { in_hw, out_hw } => {
                    let src = input(&rec.inputs[0]);
                    let (in_plane, out_plane) = (in_hw.0 * in_hw.1, out_hw.0 * out_hw.1);
                    kctx.for_each_row_chunk(out, out_plane, |_, start, planes| {
                        let first = start / out_plane * in_plane;
                        ops::bilinear_resize_into(&src[first..], *in_hw, planes, *out_hw);
                    });
                }
                Step::Transpose { rows, cols } => {
                    ops::transpose_into(input(&rec.inputs[0]), *rows, *cols, out);
                }
                Step::Concat { batch } => {
                    let parts: Vec<&[f32]> = rec.inputs.iter().map(input).collect();
                    ops::concat_channels_into(&parts, *batch, out);
                }
                Step::Fallback { weights } => {
                    let ins: Vec<Tensor> = rec
                        .inputs
                        .iter()
                        .zip(&rec.in_shapes)
                        .map(|(r, s)| {
                            Tensor::from_vec(input(r).to_vec(), s).expect("range sized by shape")
                        })
                        .collect();
                    let refs: Vec<&Tensor> = ins.iter().collect();
                    let t = eval_op(&rec.name, &rec.op, weights, &refs, &kctx)?;
                    out.copy_from_slice(t.data());
                    for v in ins {
                        self.scratch.recycle(v.into_vec());
                    }
                    self.scratch.recycle(t.into_vec());
                }
            }
            if flip_at == Some(rec_idx) {
                fault.corrupt(out);
            }
            if let Some(g) = node_guard {
                if let Err(trip) = check_guard(out, g) {
                    return Err(ExecError::Fault {
                        node: rec.name.clone(),
                        source: FaultError::GuardTripped {
                            site: rec.name.clone(),
                            trip,
                        },
                    });
                }
            }
            if let Some(sink) = sink {
                sink.record(EventKind::Node {
                    name: rec.name.clone(),
                    op: rec.op.kind_name().to_string(),
                    start_ns,
                    end_ns: now_ns(),
                    flops: rec.flops,
                    bytes: rec.bytes,
                });
            }
        }
        Ok(())
    }

    /// A run-private arena: recycled from a finished run when available.
    /// Recycled arenas are *not* re-zeroed — every record fully overwrites
    /// its output range before any consumer reads it, so no run can
    /// observe a previous run's values.
    fn take_arena(&self) -> Vec<f32> {
        let recycled = self
            .arena_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        match recycled {
            Some(v) => v,
            None => vec![0.0; self.arena_len],
        }
    }

    /// Model name of the graph this plan was compiled from.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The flat record stream, in replay order.
    pub fn records(&self) -> &[PlanRecord] {
        &self.records
    }

    /// Arena size in `f32` elements.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Number of nodes in the source graph (records + fused nodes).
    pub fn graph_nodes(&self) -> usize {
        self.graph_nodes
    }

    /// Arena range holding the plan output after a replay.
    pub fn output_range(&self) -> BufRange {
        self.output
    }

    /// Shape of the plan output.
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// Shapes of the graph inputs, in declaration order.
    pub fn input_shapes(&self) -> &[Vec<usize>] {
        &self.input_shapes
    }

    /// Total analytical FLOPs across all records (equals the source
    /// graph's total; `vit-verify`'s plan pass enforces this).
    pub fn total_flops(&self) -> u64 {
        self.total_flops
    }

    /// Total parameters across all records.
    pub fn total_params(&self) -> u64 {
        self.total_params
    }

    /// Total accounted DRAM bytes across all records.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of graph nodes fused into producer epilogues.
    pub fn fused_nodes(&self) -> usize {
        self.records.iter().map(|r| r.fused.len()).sum()
    }

    /// Assembles a plan directly from records, **without compiling a
    /// graph** — the escape hatch vit-verify's broken-artifact tests use
    /// to build plans that [`ExecPlan::compile`]'s sound construction
    /// could never emit (overlapping chunks, premature frees, bad
    /// wiring). Totals and input shapes are derived from the records.
    /// Such plans are for analysis and [`ExecPlan::shadow_replay`], not
    /// execution: records built via [`PlanRecord::from_raw_parts`] carry
    /// stub steps.
    pub fn from_raw_parts(
        model: &str,
        records: Vec<PlanRecord>,
        arena_len: usize,
        output: BufRange,
        output_shape: Vec<usize>,
    ) -> ExecPlan {
        let input_shapes = records
            .iter()
            .filter(|r| matches!(r.op, Op::Input { .. }))
            .map(|r| r.out_shape.clone())
            .collect();
        ExecPlan {
            model: model.to_string(),
            total_flops: records.iter().map(|r| r.flops).sum(),
            total_params: records.iter().map(|r| r.params).sum(),
            total_bytes: records.iter().map(|r| r.bytes).sum(),
            graph_nodes: records.len() + records.iter().map(|r| r.fused.len()).sum::<usize>(),
            records,
            arena_len,
            input_shapes,
            output,
            output_shape,
            arena_pool: Mutex::new(Vec::new()),
            scratch: BufferPool::default(),
        }
    }

    /// Symbolically replays the record stream against a per-element
    /// [`ShadowAccess`] tracker at the given worker count, returning every
    /// memory-discipline violation observed: overlapping parallel chunks
    /// (double writes), coverage gaps and stale reads (unwritten/freed
    /// elements), wiring breaches (wrong owner), and premature range
    /// re-issue (write over a live range).
    ///
    /// This is the dynamic witness for vit-verify's static exec-safety
    /// verdict: the chunk geometry comes from each record's
    /// [`ExecContract`] through the same [`vit_tensor::row_chunks`] oracle
    /// the kernels dispatch with, and the kill points come from the
    /// compile-time liveness decisions in [`PlanRecord::frees`]. A sound
    /// plan yields an empty list at every `threads`; the differential
    /// suites hold that agreement at threads {1, 2, 8}.
    ///
    /// Debug tooling — allocation-heavy (one word per arena element) and
    /// never on the serving path.
    pub fn shadow_replay(&self, threads: usize) -> Vec<ShadowViolation> {
        let mut shadow = ShadowAccess::new(self.arena_len);
        // Live producer map: which record's output currently occupies a
        // range. Reads resolve their expected owner tag through it; a read
        // with no containing live producer expects an impossible tag and
        // so always surfaces as a violation.
        let mut live: Vec<(BufRange, u32)> = Vec::new();
        const NO_PRODUCER: u32 = u32::MAX - 1;
        for (r, rec) in self.records.iter().enumerate() {
            let tag = r as u32;
            for inp in &rec.inputs {
                let expect = live
                    .iter()
                    .rev()
                    .find(|(range, _)| range.offset <= inp.offset && inp.end() <= range.end())
                    .map_or(NO_PRODUCER, |&(_, t)| t);
                shadow.expect(inp.offset, inp.len, expect);
            }
            for c in rec.contract.chunk_ranges(rec.out, threads) {
                shadow.define(c.offset, c.len, tag);
            }
            live.retain(|(range, _)| !range.overlaps(&rec.out));
            live.push((rec.out, tag));
            for f in &rec.frees {
                shadow.kill(f.offset, f.len);
                live.retain(|(range, _)| !range.overlaps(f));
            }
        }
        shadow.into_violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vit_graph::{Executor, Graph, LayerRole};

    fn conv_op(out_channels: usize, kernel: usize, bias: bool) -> Op {
        Op::Conv2d {
            out_channels,
            kernel: (kernel, kernel),
            stride: (1, 1),
            pad: (kernel / 2, kernel / 2),
            groups: 1,
            bias,
        }
    }

    /// conv → relu → conv → gelu → add(residual) with a branchy consumer.
    fn sample_graph() -> Graph {
        let mut g = Graph::new("plan-test");
        let x = g.input("image", &[1, 3, 8, 8]).unwrap();
        let c0 = g
            .add("c0", conv_op(4, 3, true), LayerRole::Backbone, &[x])
            .unwrap();
        let r0 = g
            .add("c0.act", Op::Relu, LayerRole::Backbone, &[c0])
            .unwrap();
        let c1 = g
            .add("c1", conv_op(4, 3, true), LayerRole::Other, &[r0])
            .unwrap();
        let g1 = g.add("c1.act", Op::Gelu, LayerRole::Other, &[c1]).unwrap();
        let add = g.add("res", Op::Add, LayerRole::Other, &[r0, g1]).unwrap();
        g.set_output(add);
        g
    }

    #[test]
    fn fuses_sole_consumer_activations_only() {
        let g = sample_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        // input, c0+relu (fused), c1+gelu (fused), add.
        assert_eq!(plan.records().len(), 4);
        assert_eq!(plan.fused_nodes(), 2);
        let c0 = &plan.records()[1];
        assert_eq!(c0.fused, vec!["c0.act".to_string()]);

        // Make the relu's producer multi-consumer: fusion must not fire.
        let mut g2 = Graph::new("plan-test-2");
        let x = g2.input("image", &[1, 3, 8, 8]).unwrap();
        let c0 = g2
            .add("c0", conv_op(4, 3, true), LayerRole::Backbone, &[x])
            .unwrap();
        let r0 = g2
            .add("c0.act", Op::Relu, LayerRole::Backbone, &[c0])
            .unwrap();
        let add = g2
            .add("res", Op::Add, LayerRole::Backbone, &[c0, r0])
            .unwrap();
        g2.set_output(add);
        let plan2 = ExecPlan::compile(&g2, WeightGen::new(0)).unwrap();
        assert_eq!(plan2.fused_nodes(), 0);
        assert_eq!(plan2.records().len(), 4);
    }

    #[test]
    fn output_producer_activation_is_not_fused() {
        let mut g = Graph::new("plan-out");
        let x = g.input("image", &[1, 3, 4, 4]).unwrap();
        let c = g
            .add("c", conv_op(2, 1, false), LayerRole::Backbone, &[x])
            .unwrap();
        // The conv itself is the output: its relu consumer must not fold
        // the conv's range away from the output.
        g.set_output(c);
        let _r = g.add("act", Op::Relu, LayerRole::Backbone, &[c]).unwrap();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        assert_eq!(plan.fused_nodes(), 0);
    }

    #[test]
    fn plan_matches_interpreter_bitwise() {
        let g = sample_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        let input = Tensor::rand_uniform(&[1, 3, 8, 8], -1.0, 1.0, 42);
        let expect = Executor::new(0)
            .run(&g, std::slice::from_ref(&input))
            .unwrap();
        let got = plan.execute(&[input], &RunContext::default()).unwrap();
        assert_eq!(got.shape(), expect.shape());
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn repeated_runs_reuse_arena_and_stay_identical() {
        let g = sample_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        let a = Tensor::rand_uniform(&[1, 3, 8, 8], -1.0, 1.0, 1);
        let b = Tensor::rand_uniform(&[1, 3, 8, 8], -1.0, 1.0, 2);
        let ra1 = plan
            .execute(std::slice::from_ref(&a), &RunContext::default())
            .unwrap();
        // Interleave a different input so the recycled (dirty) arena would
        // surface any stale-read bug.
        let _rb = plan.execute(&[b], &RunContext::default()).unwrap();
        let ra2 = plan.execute(&[a], &RunContext::default()).unwrap();
        assert_eq!(ra1.data(), ra2.data());
    }

    #[test]
    fn live_ranges_never_overlap() {
        let g = sample_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        // Last record index reading each record's output range.
        let recs = plan.records();
        for (i, a) in recs.iter().enumerate() {
            let a_last = last_reader(recs, i, plan.output_range());
            for (j, b) in recs.iter().enumerate().skip(i + 1) {
                let b_last = last_reader(recs, j, plan.output_range());
                // Intervals [i, a_last] and [j, b_last] with j > i.
                if j <= a_last && i <= b_last && a.out.overlaps(&b.out) {
                    panic!(
                        "records `{}` and `{}` live-overlap in the arena",
                        a.name, b.name
                    );
                }
            }
        }
    }

    fn last_reader(recs: &[PlanRecord], idx: usize, output: BufRange) -> usize {
        if recs[idx].out == output {
            return recs.len();
        }
        recs.iter()
            .enumerate()
            .filter(|(_, r)| r.inputs.iter().any(|i| *i == recs[idx].out))
            .map(|(k, _)| k)
            .max()
            .unwrap_or(idx)
    }

    #[test]
    fn rejects_wrong_inputs() {
        let g = sample_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        assert!(plan.execute(&[], &RunContext::default()).is_err());
        let bad = Tensor::ones(&[1, 3, 4, 4]);
        assert!(plan.execute(&[bad], &RunContext::default()).is_err());
    }

    #[test]
    fn no_output_graph_is_rejected() {
        let mut g = Graph::new("no-out");
        g.input("image", &[1, 3, 4, 4]).unwrap();
        assert!(matches!(
            ExecPlan::compile(&g, WeightGen::new(0)),
            Err(PlanError::NoOutput { .. })
        ));
    }

    #[test]
    fn arena_free_coalesces_in_any_order() {
        // Three adjacent blocks freed in every permutation must always
        // collapse into one range covering the whole arena — the
        // merge-order edge case: the middle block must bridge both
        // neighbors when it lands last (right-merge then left-merge).
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut l = ArenaLayout::default();
            let blocks = [l.alloc(10), l.alloc(20), l.alloc(30)];
            for i in order {
                l.free(blocks[i]);
            }
            assert_eq!(
                l.free,
                vec![BufRange { offset: 0, len: 60 }],
                "freeing order {order:?} failed to coalesce"
            );
            // And the coalesced range satisfies a full-size request
            // without bump-growing the arena.
            assert_eq!(l.alloc(60), BufRange { offset: 0, len: 60 });
            assert_eq!(l.len, 60);
        }
    }

    #[test]
    fn arena_zero_size_ranges_never_perturb_layout() {
        let mut l = ArenaLayout::default();
        let a = l.alloc(8);
        l.free(a);
        // A zero-size request must not split the free block or grow the
        // arena, and must be canonical regardless of free-list state.
        assert_eq!(l.alloc(0), BufRange { offset: 0, len: 0 });
        assert_eq!(l.free, vec![a]);
        assert_eq!(l.len, 8);
        // Freeing a zero-size range is a no-op: nothing enters the free
        // list, so no zero-width entry can block coalescing later.
        l.free(BufRange { offset: 3, len: 0 });
        assert_eq!(l.free, vec![a]);
    }

    #[test]
    fn contracts_match_kernel_tiling_and_shadow_replay_is_clean() {
        let g = sample_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        for rec in plan.records() {
            match &rec.op {
                Op::Conv2d { .. } => {
                    let plane: usize = rec.out_shape.iter().skip(2).product();
                    // Multi-input-channel convs run the im2col GEMM path,
                    // which declares FP reassociation (tolerance tier).
                    assert_eq!(
                        rec.contract,
                        ExecContract::RowTiled {
                            row_len: plane,
                            reassociates: true
                        },
                        "conv `{}`",
                        rec.name
                    );
                    assert!(rec.contract.reassociates());
                    // Chunks partition the output range exactly.
                    for threads in [1, 2, 8] {
                        let chunks = rec.contract.chunk_ranges(rec.out, threads);
                        let total: usize = chunks.iter().map(|c| c.len).sum();
                        assert_eq!(total, rec.out.len);
                        for w in chunks.windows(2) {
                            assert_eq!(w[0].end(), w[1].offset);
                            assert_eq!(w[0].offset % plane, rec.out.offset % plane);
                        }
                    }
                }
                // Elementwise steps tile by innermost row, exactly.
                Op::Relu | Op::Gelu | Op::Add => {
                    assert_eq!(
                        rec.contract,
                        ExecContract::RowTiled {
                            row_len: last_dim(&rec.out_shape),
                            reassociates: false
                        },
                        "elementwise `{}`",
                        rec.name
                    );
                }
                _ => {
                    assert_eq!(rec.contract, ExecContract::Sequential);
                    assert!(!rec.contract.reassociates());
                }
            }
        }
        // Every compiled plan is shadow-clean at every sampled width.
        for threads in [1, 2, 8] {
            let v = plan.shadow_replay(threads);
            assert!(v.is_empty(), "threads={threads}: {v:?}");
        }
    }

    #[test]
    fn frees_record_exact_liveness_points() {
        let g = sample_graph();
        let plan = ExecPlan::compile(&g, WeightGen::new(0)).unwrap();
        let recs = plan.records();
        // Every freed range was some earlier record's output, freed at
        // that output's last reader, and the plan output is never freed.
        for (i, rec) in recs.iter().enumerate() {
            for f in &rec.frees {
                assert!(!f.overlaps(&plan.output_range()), "output freed");
                let producer = recs[..i].iter().position(|p| p.out == *f);
                let p = producer.expect("freed range has a producer record");
                let last_reader = recs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.inputs.iter().any(|r2| *r2 == recs[p].out))
                    .map(|(k, _)| k)
                    .max()
                    .unwrap_or(p);
                assert_eq!(i, last_reader, "range freed away from last reader");
            }
        }
        // At least one free actually happens in this graph.
        assert!(recs.iter().any(|r| !r.frees.is_empty()));
    }

    #[test]
    fn shadow_replay_catches_seeded_overlap() {
        // A hand-built plan whose second record's explicit chunks overlap:
        // shadow replay must report double writes.
        let r0 = PlanRecord::from_raw_parts(
            "in",
            Op::Input { shape: vec![8] },
            vec![],
            vec![],
            BufRange { offset: 0, len: 8 },
            vec![8],
        );
        let mut r1 = PlanRecord::from_raw_parts(
            "bad",
            Op::Relu,
            vec![BufRange { offset: 0, len: 8 }],
            vec![vec![8]],
            BufRange { offset: 8, len: 8 },
            vec![8],
        );
        r1.contract = ExecContract::Explicit {
            chunks: vec![
                BufRange { offset: 0, len: 6 },
                BufRange { offset: 4, len: 4 },
            ],
            reassociates: false,
        };
        let plan = ExecPlan::from_raw_parts(
            "seeded",
            vec![r0, r1],
            16,
            BufRange { offset: 8, len: 8 },
            vec![8],
        );
        let v = plan.shadow_replay(2);
        assert!(!v.is_empty());
        assert!(v
            .iter()
            .all(|v| v.kind == vit_tensor::ShadowViolationKind::DoubleWrite));
    }

    #[test]
    fn arena_layout_reuses_freed_ranges_best_fit() {
        let mut l = ArenaLayout::default();
        let a = l.alloc(100);
        let b = l.alloc(50);
        let c = l.alloc(10);
        l.free(b);
        // Best fit: a 40-element request takes the 50-range, not a bump.
        let d = l.alloc(40);
        assert_eq!(d.offset, b.offset);
        assert_eq!(l.len, 160);
        // Coalescing: freeing the remaining owners merges everything
        // (including the 10-element remainder of `b`) into one range.
        l.free(a);
        l.free(d);
        l.free(c);
        let e = l.alloc(160);
        assert_eq!(e.offset, 0);
        assert_eq!(l.len, 160);
    }
}
