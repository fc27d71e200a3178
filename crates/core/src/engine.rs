//! The dynamic real-time inference engine (Figure 8).
//!
//! Per inference the engine receives an image and a resource-utilization
//! target, looks up the accuracy-maximizing execution path that fits the
//! target in its precomputed Pareto LUT, runs that path, and returns the
//! output together with the accuracy estimate from the LUT — no additional
//! training, one set of shared model weights.

use crate::lut::{Lut, LutConfig, LutEntry};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};
use vit_accel::AccelConfig;
use vit_fault::FaultError;
use vit_graph::{
    check_node_guard, ExecBackend, ExecError, ExecScratch, Graph, RunContext, WeightGen,
};
use vit_models::{
    build_segformer, build_swin_upernet, ModelError, SegFormerConfig, SegFormerVariant, SwinConfig,
    SwinVariant,
};
use vit_plan::{ExecPlan, PlanError};
use vit_resilience::{
    segformer_sweep_space, sweep_segformer, sweep_segformer_on_accelerator, sweep_swin,
    AccelResource, ResourceKind, Workload,
};
use vit_tensor::Tensor;
use vit_trace::{now_ns, EventKind, Phase as TracePhase};

/// The model family an engine serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineFamily {
    /// SegFormer (the paper's primary case study).
    SegFormer(SegFormerVariant),
    /// Swin + UPerNet.
    Swin(SwinVariant),
}

/// Error from engine construction or inference.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// A graph failed to build for a selected configuration.
    Model(ModelError),
    /// Graph execution failed.
    Exec(ExecError),
    /// Lowering a graph into a compiled execution plan failed.
    Plan(PlanError),
    /// The engine's LUT is empty.
    EmptyLut,
    /// An injected fault killed the run, or an output guard caught a
    /// corrupted result before it could be returned.
    Fault(FaultError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Model(e) => write!(f, "engine model error: {e}"),
            EngineError::Exec(e) => write!(f, "engine execution error: {e}"),
            EngineError::Plan(e) => write!(f, "engine plan compilation error: {e}"),
            EngineError::EmptyLut => write!(f, "engine LUT has no execution paths"),
            EngineError::Fault(e) => write!(f, "engine fault: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// The fault behind this error, when it is a fault — the signal the
    /// serving recovery loop classifies retries on.
    pub fn as_fault(&self) -> Option<&FaultError> {
        match self {
            EngineError::Fault(e) => Some(e),
            EngineError::Exec(ExecError::Fault { source, .. }) => Some(source),
            _ => None,
        }
    }
}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e)
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        match e {
            // Surface fault-layer errors as faults so recovery policies can
            // classify them without digging through the exec error.
            ExecError::Fault { source, .. } => EngineError::Fault(source),
            other => EngineError::Exec(other),
        }
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

/// The result of one dynamic inference.
#[derive(Debug)]
pub struct Inference {
    /// Class-logit map `[batch, classes, h, w]`.
    pub logits: Tensor,
    /// Per-pixel label map `[batch, h, w]`.
    pub label_map: Tensor,
    /// The execution path that ran.
    pub config: LutConfig,
    /// The LUT's normalized-mIoU estimate for that path.
    pub norm_miou_estimate: f64,
    /// The LUT's resource estimate for that path.
    pub resource_estimate: f64,
    /// Whether the path fit the requested budget (false when the budget was
    /// below even the cheapest path, which the engine then runs anyway and
    /// reports the overrun).
    pub met_budget: bool,
}

/// The DRT inference engine.
///
/// # Examples
///
/// ```no_run
/// use vit_drt::DrtEngine;
/// use vit_models::SegFormerVariant;
/// use vit_resilience::{ResourceKind, Workload};
/// use vit_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut engine = DrtEngine::segformer(
///     SegFormerVariant::b0(),
///     Workload::SegFormerAde,
///     (64, 64),
///     ResourceKind::GpuTime,
/// )?;
/// let image = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 1);
/// let relaxed = engine.max_resource();
/// let out = engine.infer(&image, 0.7 * relaxed)?;
/// println!("ran {:?}, estimated mIoU {:.2}", out.config, out.norm_miou_estimate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DrtEngine {
    core: Arc<EngineCore>,
    scratch: ExecScratch,
    ctx: RunContext,
}

/// The shareable heart of the engine: the LUT, the model family, and a
/// concurrent graph cache — everything *except* per-worker mutable
/// execution state.
///
/// `EngineCore` is `Send + Sync`; a serving worker pool holds one
/// `Arc<EngineCore>` and gives each worker its own [`ExecScratch`].
/// [`EngineCore::select`] (pure LUT lookup, cheap, lock-free) is split
/// from [`EngineCore::infer`] (graph execution) so schedulers can
/// decide admission/configuration without running anything.
#[derive(Debug)]
pub struct EngineCore {
    family: EngineFamily,
    num_classes: usize,
    image: (usize, usize),
    lut: Lut,
    weight_gen: WeightGen,
    // Keyed by (config, batch): a batch-N execution compiles its own graph
    // and plan (arena sizing and tiling contracts scale with N), cached
    // beside the batch-1 entries so coalesced serving reuses them.
    graph_cache: RwLock<HashMap<(LutConfig, usize), Arc<Graph>>>,
    plan_cache: RwLock<HashMap<(LutConfig, usize), Arc<ExecPlan>>>,
}

impl EngineCore {
    /// Builds a core around a precomputed LUT.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyLut`] for an empty LUT.
    pub fn new(
        family: EngineFamily,
        num_classes: usize,
        image: (usize, usize),
        lut: Lut,
    ) -> Result<Self, EngineError> {
        if lut.is_empty() {
            return Err(EngineError::EmptyLut);
        }
        // Debug builds re-validate the table the engine will serve from;
        // `Lut::from_points`/`from_json` establish these invariants, but a
        // table assembled through `Lut::from_entries_unchecked` may not.
        debug_assert!(
            lut.validate().is_ok(),
            "engine LUT violates its invariants: {}",
            lut.validate().unwrap_err()
        );
        Ok(EngineCore {
            family,
            num_classes,
            image,
            lut,
            weight_gen: WeightGen::new(0),
            graph_cache: RwLock::new(HashMap::new()),
            plan_cache: RwLock::new(HashMap::new()),
        })
    }

    /// The engine's LUT.
    pub fn lut(&self) -> &Lut {
        &self.lut
    }

    /// The model family this core serves.
    pub fn family(&self) -> EngineFamily {
        self.family
    }

    /// The resource cost of the most expensive (full) execution path.
    pub fn max_resource(&self) -> f64 {
        self.lut.entries().last().map_or(0.0, |e| e.resource)
    }

    /// The resource cost of the cheapest execution path — the admission
    /// threshold for a deadline-aware scheduler.
    pub fn min_resource(&self) -> f64 {
        self.lut.entries().first().map_or(0.0, |e| e.resource)
    }

    /// The engine's input image size.
    pub fn image_size(&self) -> (usize, usize) {
        self.image
    }

    /// Number of distinct execution paths built so far.
    pub fn cached_graphs(&self) -> usize {
        self.graph_cache
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Number of distinct execution paths compiled into plans so far.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// The configuration the engine would run for `budget`, without
    /// executing it: the accuracy-maximizing entry that fits, or the
    /// cheapest entry with `met_budget = false` when none fits.
    pub fn select(&self, budget: f64) -> (LutEntry, bool) {
        match self.lut.lookup(budget) {
            Ok(e) => (e.clone(), true),
            Err(_) => (
                self.lut
                    .entries()
                    .first()
                    .expect("EngineCore guarantees a non-empty LUT")
                    .clone(),
                false,
            ),
        }
    }

    /// The built execution graph for `config`, from the concurrent cache.
    /// This is the exact graph [`EngineCore::run`] executes for the
    /// config, so static analyses (e.g. `vit-profiler` FLOP counts) can be
    /// cross-checked against traced runs.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when graph construction fails.
    pub fn graph(&self, config: LutConfig) -> Result<Arc<Graph>, EngineError> {
        Ok(self.graph_for(config, 1)?.0)
    }

    /// The built graph for `(config, batch)`, from the concurrent cache; the
    /// flag reports whether this call was served from the cache.
    fn graph_for(
        &self,
        config: LutConfig,
        batch: usize,
    ) -> Result<(Arc<Graph>, bool), EngineError> {
        if let Some(g) = self
            .graph_cache
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(config, batch))
        {
            return Ok((g.clone(), true));
        }
        // Build outside any lock: graph construction is the expensive part
        // and must not serialize other workers' cache hits. Two workers may
        // race to build the same config; the insert below keeps the first.
        let g = Arc::new(match (self.family, config) {
            (EngineFamily::SegFormer(variant), c) => {
                let d = c
                    .as_segformer()
                    .expect("segformer engine gets segformer configs");
                build_segformer(&SegFormerConfig {
                    variant,
                    num_classes: self.num_classes,
                    image: self.image,
                    batch,
                    dynamic: d,
                })?
            }
            (EngineFamily::Swin(variant), c) => {
                let d = c.as_swin().expect("swin engine gets swin configs");
                build_swin_upernet(&SwinConfig {
                    variant,
                    num_classes: self.num_classes,
                    image: self.image,
                    batch,
                    dynamic: d,
                })?
            }
        });
        // In debug builds, statically re-verify every dynamically selected
        // execution path before it can serve an inference: a builder
        // regression that emits inconsistent shapes must fail here, not as
        // a garbage prediction at runtime (`repro verify` runs the same
        // check — plus the full diagnostic passes — over all models).
        debug_assert!(
            g.check_invariants().is_ok(),
            "graph for {config:?} violates structural invariants: {}",
            g.check_invariants().unwrap_err()
        );
        let mut cache = self.graph_cache.write().unwrap_or_else(|e| e.into_inner());
        Ok((cache.entry((config, batch)).or_insert(g).clone(), false))
    }

    /// The compiled execution plan for `config`, from the concurrent plan
    /// cache. This is the exact plan [`EngineCore::run`] replays for the
    /// config when the context selects [`ExecBackend::Plan`], so static
    /// analyses (e.g. the `vit-verify` plan-equivalence pass) can check it
    /// against the graph from [`EngineCore::graph`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when graph construction or plan lowering
    /// fails.
    pub fn plan(&self, config: LutConfig) -> Result<Arc<ExecPlan>, EngineError> {
        Ok(self.plan_for(config, 1)?.0)
    }

    /// The compiled batch-`batch` plan for `config`, from the concurrent
    /// plan cache — arena sizing, tiling contracts, and record shapes all
    /// reflect the leading batch dimension.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when graph construction or plan lowering
    /// fails.
    pub fn plan_batched(
        &self,
        config: LutConfig,
        batch: usize,
    ) -> Result<Arc<ExecPlan>, EngineError> {
        Ok(self.plan_for(config, batch)?.0)
    }

    /// The compiled plan for `(config, batch)`, from the concurrent cache;
    /// the flag reports whether this call was served from the cache.
    fn plan_for(
        &self,
        config: LutConfig,
        batch: usize,
    ) -> Result<(Arc<ExecPlan>, bool), EngineError> {
        if let Some(p) = self
            .plan_cache
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(config, batch))
        {
            return Ok((p.clone(), true));
        }
        // Like `graph_for`, compile outside any lock; racing workers keep
        // the first insert. Compilation packs every weight tensor, so a
        // plan-cache miss subsumes the interpreter's weight materialization.
        let (graph, _) = self.graph_for(config, batch)?;
        let p = Arc::new(ExecPlan::compile(&graph, self.weight_gen)?);
        let mut cache = self.plan_cache.write().unwrap_or_else(|e| e.into_inner());
        Ok((cache.entry((config, batch)).or_insert(p).clone(), false))
    }

    /// Runs one dynamic inference using the caller's scratch: picks the
    /// best path for `budget` (in the LUT's resource units) under the
    /// given [`RunContext`], executes it, and returns the outputs with the
    /// precomputed accuracy estimate.
    ///
    /// When the budget is below every path, the cheapest path runs and
    /// [`Inference::met_budget`] is false.
    ///
    /// With an enabled trace sink this additionally records a
    /// [`TracePhase::LutSelect`] span around the lookup, on top of
    /// everything [`EngineCore::run`] records. Tracing never changes what
    /// is computed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when graph construction or execution fails.
    pub fn infer(
        &self,
        scratch: &mut ExecScratch,
        image: &Tensor,
        budget: f64,
        ctx: &RunContext,
    ) -> Result<Inference, EngineError> {
        let sink = ctx.sink.as_ref();
        let sel_start = sink.timestamp();
        let (entry, met) = self.select(budget);
        if sink.enabled() {
            sink.record(EventKind::Phase {
                phase: TracePhase::LutSelect,
                detail: format!("budget={budget:.3} -> {:?}", entry.config),
                start_ns: sel_start,
                end_ns: now_ns(),
            });
        }
        self.run(scratch, image, entry, met, ctx)
    }

    /// Runs a specific LUT entry (as returned by [`EngineCore::select`])
    /// under a [`RunContext`] — the execution half of [`EngineCore::infer`],
    /// for callers that already committed to a configuration at scheduling
    /// time (serving workers run this on a shared thread pool).
    ///
    /// With an enabled trace sink this records a graph-cache (or, under
    /// [`ExecBackend::Plan`], plan-cache) hit/miss counter, a
    /// [`TracePhase::GraphBuild`] / [`TracePhase::PlanBuild`] span when the
    /// path had to be built, and an [`TracePhase::Execute`] span around the
    /// whole execution (the executor or plan replay adds per-node spans
    /// underneath).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when graph construction, plan lowering, or
    /// execution fails.
    pub fn run(
        &self,
        scratch: &mut ExecScratch,
        image: &Tensor,
        entry: LutEntry,
        met_budget: bool,
        ctx: &RunContext,
    ) -> Result<Inference, EngineError> {
        let mut one =
            self.run_batch(scratch, std::slice::from_ref(image), entry, met_budget, ctx)?;
        Ok(one.pop().expect("one inference per image"))
    }

    /// Runs one LUT entry over a coalesced batch of single-sample images in
    /// a single batch-N execution, returning one [`Inference`] per input in
    /// order.
    ///
    /// The images are stacked along the leading axis, executed through the
    /// batch-N graph (or compiled plan, under [`ExecBackend::Plan`]) cached
    /// for `(config, N)`, and the logits split back per sample. Batch-N
    /// kernels tile conv over per-sample channel planes and linear/attention
    /// over per-row/per-batch-entry chunks, so each sample's FP op order is
    /// identical to its own batch-1 run — per-request outputs are
    /// bit-identical to running the N requests sequentially (the
    /// batch-differential tests pin this).
    ///
    /// A batch of one is exactly [`EngineCore::run`]: nothing is stacked or
    /// split, and the trace details carry no batch suffix.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `images` is empty, or when graph
    /// construction, plan lowering, or execution fails. A guard trip
    /// anywhere in the batched logits fails the whole batch (callers
    /// re-serve the members individually to isolate the fault).
    pub fn run_batch(
        &self,
        scratch: &mut ExecScratch,
        images: &[Tensor],
        entry: LutEntry,
        met_budget: bool,
        ctx: &RunContext,
    ) -> Result<Vec<Inference>, EngineError> {
        let sink = ctx.sink.as_ref();
        let enabled = sink.enabled();
        // Injected hard failures (crash; poisoned plan replay under the Plan
        // backend) kill the attempt before any kernel runs.
        if let Some(f) = ctx
            .fault
            .injected_failure(ctx.exec.backend() == ExecBackend::Plan)
        {
            return Err(EngineError::Fault(f));
        }
        let batch = images.len();
        let stacked;
        let input = if batch == 1 {
            images
        } else {
            stacked = [Tensor::stack_batch(images).map_err(|e| {
                EngineError::Exec(ExecError::Kernel {
                    node: "batch_stack".to_string(),
                    source: e,
                })
            })?];
            &stacked[..]
        };
        let with_batch = |detail: String| {
            if batch == 1 {
                detail
            } else {
                format!("{detail} batch={batch}")
            }
        };
        // The cache counter, plus a build span on a miss.
        let record_build = |cache: &str, hit: bool, phase: TracePhase, start_ns: u64| {
            if !enabled {
                return;
            }
            let at_ns = now_ns();
            let outcome = if hit { "hits" } else { "misses" };
            sink.record(EventKind::Counter {
                name: format!("{cache}.{outcome}"),
                value: 1,
                at_ns,
            });
            if !hit {
                sink.record(EventKind::Phase {
                    phase,
                    detail: with_batch(format!("{:?}", entry.config)),
                    start_ns,
                    end_ns: at_ns,
                });
            }
        };
        let record_execute = |model: &str, start_ns: u64| {
            if enabled {
                sink.record(EventKind::Phase {
                    phase: TracePhase::Execute,
                    detail: with_batch(model.to_string()),
                    start_ns,
                    end_ns: now_ns(),
                });
            }
        };
        let exec_began = std::time::Instant::now();
        let build_start = sink.timestamp();
        let logits = match ctx.exec.backend() {
            ExecBackend::Interpret => {
                let (graph, hit) = self.graph_for(entry.config, batch)?;
                record_build("graph_cache", hit, TracePhase::GraphBuild, build_start);
                let exec_start = sink.timestamp();
                let logits = scratch.run_with(self.weight_gen, &graph, input, ctx)?;
                record_execute(&graph.model, exec_start);
                logits
            }
            ExecBackend::Plan => {
                let (plan, hit) = self.plan_for(entry.config, batch)?;
                record_build("plan_cache", hit, TracePhase::PlanBuild, build_start);
                let exec_start = sink.timestamp();
                let logits = plan.execute(input, ctx)?;
                record_execute(plan.model(), exec_start);
                logits
            }
        };
        // Always-on result guard (when a guard is configured): no NaN/Inf
        // or over-magnitude logit map is ever returned to a caller.
        if let Some(g) = ctx.fault.output_guard() {
            check_node_guard("logits", &logits, g)?;
        }
        // An injected stall slows the whole execution by the plan's factor;
        // values are untouched, only wall-clock suffers (what the serving
        // watchdog is keyed to).
        if let Some(m) = ctx.fault.stall_multiplier() {
            let extra = exec_began.elapsed().mul_f64(m - 1.0);
            if !extra.is_zero() {
                std::thread::sleep(extra);
            }
        }
        let label_map = logits
            .argmax_channels()
            .expect("segmentation output is NCHW");
        let inference = |logits, label_map| Inference {
            logits,
            label_map,
            config: entry.config,
            norm_miou_estimate: entry.norm_miou,
            resource_estimate: entry.resource,
            met_budget,
        };
        if batch == 1 {
            return Ok(vec![inference(logits, label_map)]);
        }
        let label_maps = label_map.split_batch().expect("label map has a batch axis");
        let per_sample = logits.split_batch().expect("logits have a batch axis");
        Ok(per_sample
            .into_iter()
            .zip(label_maps)
            .map(|(logits, label_map)| inference(logits, label_map))
            .collect())
    }
}

impl DrtEngine {
    /// Builds a SegFormer engine: sweeps the configuration space at the
    /// engine's image size, extracts the Pareto front, and stores the LUT.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the sweep produces no buildable paths.
    pub fn segformer(
        variant: SegFormerVariant,
        workload: Workload,
        image: (usize, usize),
        resource: ResourceKind,
    ) -> Result<Self, EngineError> {
        let num_classes = match workload {
            Workload::SegFormerCityscapes => 19,
            _ => 150,
        };
        let space = segformer_sweep_space(&variant, 2, 8);
        let points = sweep_segformer(&variant, workload, image, num_classes, &space, resource);
        let lut = Lut::from_points(
            format!("{} {workload:?} {resource:?}", variant.name),
            &points,
        );
        Self::with_lut(EngineFamily::SegFormer(variant), num_classes, image, lut)
    }

    /// Builds a SegFormer engine whose resource is *accelerator cycles or
    /// energy* on the given hardware configuration — the §VI deployment
    /// where the DRT LUT is keyed by cycles on `accelerator*`
    /// (Figures 12/13).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the sweep produces no buildable paths.
    pub fn segformer_on_accelerator(
        variant: SegFormerVariant,
        workload: Workload,
        image: (usize, usize),
        accel: &AccelConfig,
        resource: AccelResource,
    ) -> Result<Self, EngineError> {
        let num_classes = match workload {
            Workload::SegFormerCityscapes => 19,
            _ => 150,
        };
        let space = segformer_sweep_space(&variant, 2, 8);
        let points = sweep_segformer_on_accelerator(
            &variant,
            workload,
            image,
            num_classes,
            &space,
            accel,
            resource,
        );
        let lut = Lut::from_points(
            format!("{} {workload:?} accel-{resource:?}", variant.name),
            &points,
        );
        Self::with_lut(EngineFamily::SegFormer(variant), num_classes, image, lut)
    }

    /// Builds a Swin engine over an explicit configuration list.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the sweep produces no buildable paths.
    pub fn swin(
        variant: SwinVariant,
        workload: Workload,
        image: (usize, usize),
        space: &[vit_models::SwinDynamic],
        resource: ResourceKind,
    ) -> Result<Self, EngineError> {
        let points = sweep_swin(&variant, workload, image, 150, space, resource);
        let lut = Lut::from_points(
            format!("{} {workload:?} {resource:?}", variant.name),
            &points,
        );
        Self::with_lut(EngineFamily::Swin(variant), 150, image, lut)
    }

    /// Builds an engine around a precomputed LUT (e.g. deserialized from
    /// JSON).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyLut`] for an empty LUT.
    pub fn with_lut(
        family: EngineFamily,
        num_classes: usize,
        image: (usize, usize),
        lut: Lut,
    ) -> Result<Self, EngineError> {
        Ok(Self::from_core(Arc::new(EngineCore::new(
            family,
            num_classes,
            image,
            lut,
        )?)))
    }

    /// Wraps a shared core with a fresh private scratch — how serving
    /// workers mint per-thread engine handles over one LUT + graph cache.
    pub fn from_core(core: Arc<EngineCore>) -> Self {
        DrtEngine {
            core,
            scratch: ExecScratch::new(),
            ctx: RunContext::default(),
        }
    }

    /// Sets the [`RunContext`] every subsequent [`DrtEngine::infer`] runs
    /// under (sequential and untraced by default). Neither threading nor
    /// tracing changes outputs — both are bit-identical to the default.
    pub fn set_run_context(&mut self, ctx: RunContext) {
        self.ctx = ctx;
    }

    /// The engine's current run context.
    pub fn run_context(&self) -> &RunContext {
        &self.ctx
    }

    /// The shared, `Send + Sync` part of this engine.
    pub fn core(&self) -> &Arc<EngineCore> {
        &self.core
    }

    /// The engine's LUT.
    pub fn lut(&self) -> &Lut {
        self.core.lut()
    }

    /// The resource cost of the most expensive (full) execution path —
    /// a convenient reference for choosing budgets.
    pub fn max_resource(&self) -> f64 {
        self.core.max_resource()
    }

    /// The engine's input image size.
    pub fn image_size(&self) -> (usize, usize) {
        self.core.image_size()
    }

    /// Runs one dynamic inference: picks the best path for `budget`
    /// (in the LUT's resource units), executes it, and returns the outputs
    /// with the precomputed accuracy estimate.
    ///
    /// When the budget is below every path, the cheapest path runs and
    /// [`Inference::met_budget`] is false.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when graph construction or execution fails.
    pub fn infer(&mut self, image: &Tensor, budget: f64) -> Result<Inference, EngineError> {
        self.core.infer(&mut self.scratch, image, budget, &self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vit_graph::ExecOptions;

    fn small_engine() -> DrtEngine {
        DrtEngine::segformer(
            SegFormerVariant::b0(),
            Workload::SegFormerAde,
            (64, 64),
            ResourceKind::GpuTime,
        )
        .unwrap()
    }

    #[test]
    fn engine_builds_nonempty_lut() {
        let e = small_engine();
        assert!(e.lut().len() >= 3, "only {} LUT rows", e.lut().len());
        assert!(e.max_resource() > 0.0);
    }

    #[test]
    fn tighter_budgets_select_cheaper_less_accurate_paths() {
        let mut e = small_engine();
        let full = e.max_resource();
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 1);
        let relaxed = e.infer(&img, full * 2.0).unwrap();
        let tight = e.infer(&img, full * 0.7).unwrap();
        assert!(relaxed.met_budget && tight.met_budget);
        assert!(tight.resource_estimate < relaxed.resource_estimate);
        assert!(tight.norm_miou_estimate <= relaxed.norm_miou_estimate);
        // The relaxed budget runs the full model.
        assert!((relaxed.norm_miou_estimate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impossible_budget_runs_cheapest_and_reports_overrun() {
        let mut e = small_engine();
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 1);
        let out = e.infer(&img, 0.0).unwrap();
        assert!(!out.met_budget);
        assert_eq!(
            out.resource_estimate,
            e.lut().entries().first().unwrap().resource
        );
    }

    #[test]
    fn outputs_have_expected_shapes() {
        let mut e = small_engine();
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 2);
        let out = e.infer(&img, e.max_resource()).unwrap();
        assert_eq!(out.logits.shape(), &[1, 150, 64, 64]);
        assert_eq!(out.label_map.shape(), &[1, 64, 64]);
    }

    #[test]
    fn graph_cache_reused_across_inferences() {
        let mut e = small_engine();
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 3);
        let budget = e.max_resource();
        let a = e.infer(&img, budget).unwrap();
        let b = e.infer(&img, budget).unwrap();
        // Deterministic engine: identical outputs for identical inputs.
        assert_eq!(a.logits, b.logits);
        assert_eq!(e.core().cached_graphs(), 1);
    }

    #[test]
    fn engine_core_and_lut_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineCore>();
        assert_send_sync::<Lut>();
        assert_send_sync::<Arc<EngineCore>>();
    }

    #[test]
    fn select_is_consistent_with_infer() {
        let mut e = small_engine();
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 9);
        for frac in [0.0, 0.4, 0.8, 1.0, 2.0] {
            let budget = e.max_resource() * frac;
            let (entry, met) = e.core().select(budget);
            let out = e.infer(&img, budget).unwrap();
            assert_eq!(out.config, entry.config);
            assert_eq!(out.met_budget, met);
        }
    }

    #[test]
    fn workers_share_one_core_and_agree() {
        // Two handles over the same Arc<EngineCore> (separate scratches)
        // produce identical outputs and share the graph cache.
        let e = small_engine();
        let core = e.core().clone();
        drop(e);
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 12);
        let budget = core.max_resource();
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let core = core.clone();
                    let img = img.clone();
                    s.spawn(move || {
                        let mut scratch = ExecScratch::new();
                        core.infer(&mut scratch, &img, budget, &RunContext::default())
                            .unwrap()
                            .logits
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outs[0], outs[1]);
        assert_eq!(core.cached_graphs(), 1);
    }

    #[test]
    fn plan_backend_matches_interpreter_bitwise() {
        let e = small_engine();
        let core = e.core().clone();
        drop(e);
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 21);
        let plan_ctx =
            RunContext::default().with_exec(ExecOptions::default().with_backend(ExecBackend::Plan));
        for frac in [0.3, 1.0] {
            let budget = core.max_resource() * frac;
            let mut scratch = ExecScratch::new();
            let interp = core
                .infer(&mut scratch, &img, budget, &RunContext::default())
                .unwrap();
            let planned = core.infer(&mut scratch, &img, budget, &plan_ctx).unwrap();
            assert_eq!(interp.logits, planned.logits);
            assert_eq!(interp.label_map, planned.label_map);
            assert_eq!(interp.config, planned.config);
        }
        // Each distinct config was compiled exactly once and cached.
        assert_eq!(core.cached_plans(), core.cached_graphs());
        // A repeat inference hits the plan cache (count is unchanged).
        let before = core.cached_plans();
        let mut scratch = ExecScratch::new();
        core.infer(&mut scratch, &img, core.max_resource(), &plan_ctx)
            .unwrap();
        assert_eq!(core.cached_plans(), before);
    }

    #[test]
    fn run_batch_matches_sequential_runs_bitwise() {
        let e = small_engine();
        let core = e.core().clone();
        drop(e);
        let images: Vec<Tensor> = (0..3)
            .map(|i| Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 30 + i))
            .collect();
        let (entry, met) = core.select(core.max_resource());
        for ctx in [
            RunContext::default(),
            RunContext::default().with_exec(ExecOptions::default().with_backend(ExecBackend::Plan)),
        ] {
            let mut scratch = ExecScratch::new();
            let batched = core
                .run_batch(&mut scratch, &images, entry.clone(), met, &ctx)
                .unwrap();
            assert_eq!(batched.len(), images.len());
            for (img, out) in images.iter().zip(&batched) {
                let solo = core
                    .run(&mut scratch, img, entry.clone(), met, &ctx)
                    .unwrap();
                assert_eq!(out.logits, solo.logits, "batch-N diverged from N=1");
                assert_eq!(out.label_map, solo.label_map);
                assert_eq!(out.config, solo.config);
            }
        }
        // Batch-3 and batch-1 paths cache separate graphs for one config.
        assert_eq!(core.cached_graphs(), 2);
        assert_eq!(core.cached_plans(), 2);
    }

    #[test]
    fn run_batch_of_one_is_the_unbatched_path() {
        let e = small_engine();
        let core = e.core().clone();
        drop(e);
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 40);
        let (entry, met) = core.select(core.max_resource());
        let mut scratch = ExecScratch::new();
        let outs = core
            .run_batch(
                &mut scratch,
                std::slice::from_ref(&img),
                entry.clone(),
                met,
                &RunContext::default(),
            )
            .unwrap();
        let solo = core
            .run(&mut scratch, &img, entry, met, &RunContext::default())
            .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].logits, solo.logits);
        // Only the batch-1 graph exists: a singleton never compiles batch-N.
        assert_eq!(core.cached_graphs(), 1);
    }

    #[test]
    fn accelerator_cycle_budgeted_engine_works() {
        use vit_accel::AccelConfig;
        use vit_resilience::AccelResource;
        let mut e = DrtEngine::segformer_on_accelerator(
            SegFormerVariant::b0(),
            Workload::SegFormerAde,
            (64, 64),
            &AccelConfig::accelerator_star(),
            AccelResource::Cycles,
        )
        .unwrap();
        assert!(e.lut().len() >= 3);
        // Budgets are cycle counts now.
        assert!(e.max_resource() > 1000.0);
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 6);
        let out = e.infer(&img, e.max_resource() * 0.8).unwrap();
        assert!(out.met_budget);
        assert!(out.norm_miou_estimate <= 1.0 + 1e-9);
    }

    #[test]
    fn lut_round_trips_into_engine() {
        let e = small_engine();
        let json = e.lut().to_json();
        let lut = Lut::from_json(&json).unwrap();
        let mut e2 = DrtEngine::with_lut(
            EngineFamily::SegFormer(SegFormerVariant::b0()),
            150,
            (64, 64),
            lut,
        )
        .unwrap();
        let img = Tensor::rand_uniform(&[1, 3, 64, 64], 0.0, 1.0, 4);
        let out = e2.infer(&img, e2.max_resource()).unwrap();
        assert!(out.met_budget);
    }
}
