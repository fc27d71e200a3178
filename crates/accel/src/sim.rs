//! The accelerator performance/energy model: maps every graph node onto the
//! Listing-1 loop nest and accumulates cycles, utilization, DRAM traffic,
//! and energy.

use crate::config::{AccelConfig, TechEnergy};
use vit_graph::{Graph, LayerRole, Node, Op, OpClass};

/// Optional execution features (§V's three optimizations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Allow splitting a layer's input channels across PEs, with partial
    /// sums reduced between PEs. Costs a little energy; required to map
    /// layers whose per-PE weights would otherwise overflow small weight
    /// memories in one pass.
    pub cross_pe_reduction: bool,
    /// Overlap decoder-linear layers with later encoder stages
    /// (model-level parallelism outside self-attention).
    pub model_parallelism: bool,
    /// Local weight reuse depth Q0 (consecutive output pixels sharing one
    /// weight fetch in the OS-LWS dataflow).
    pub q0_reuse: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            cross_pe_reduction: true,
            model_parallelism: false,
            q0_reuse: 8,
        }
    }
}

/// Sustained DRAM bandwidth in bytes per accelerator cycle.
const DRAM_BYTES_PER_CYCLE: f64 = 256.0;

/// PPU (post-processing unit) lanes per PE: one per vector MAC.
fn ppu_lanes(cfg: &AccelConfig) -> u64 {
    (cfg.num_pes() * cfg.k0) as u64
}

/// Per-layer simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStats {
    /// Node name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Functional role.
    pub role: LayerRole,
    /// Real MACs performed.
    pub macs: u64,
    /// Cycles occupied on the PE array (after any DRAM stall).
    pub cycles: u64,
    /// MAC-array utilization in `[0, 1]`.
    pub utilization: f64,
    /// DRAM traffic in bytes (INT8 tensors).
    pub dram_bytes: u64,
    /// Number of passes over the inputs forced by weight-memory capacity.
    pub weight_passes: u64,
    /// Energy in joules.
    pub energy_j: f64,
}

impl LayerStats {
    /// Energy per MAC ("energy per FLOP" in Figure 11), joules.
    pub fn energy_per_mac(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.energy_j / self.macs as f64
        }
    }
}

/// Whole-graph simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelReport {
    /// Model name.
    pub model: String,
    /// The simulated architecture.
    pub config: AccelConfig,
    /// Per-layer statistics in topological order.
    pub layers: Vec<LayerStats>,
    /// Cycles recovered by model-level parallelism (already subtracted from
    /// [`AccelReport::total_cycles`]).
    pub overlapped_cycles: u64,
}

impl AccelReport {
    /// End-to-end cycles.
    pub fn total_cycles(&self) -> u64 {
        let raw: u64 = self.layers.iter().map(|l| l.cycles).sum();
        raw.saturating_sub(self.overlapped_cycles)
    }

    /// End-to-end latency in seconds at the synthesized clock.
    pub fn total_time_s(&self) -> f64 {
        self.total_cycles() as f64 / (self.config.clock_ghz * 1e9)
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_j).sum()
    }

    /// Sums `(cycles, energy)` over layers whose name starts with `prefix`.
    pub fn by_prefix(&self, prefix: &str) -> (u64, f64) {
        let mut c = 0;
        let mut e = 0.0;
        for l in self.layers.iter().filter(|l| l.name.starts_with(prefix)) {
            c += l.cycles;
            e += l.energy_j;
        }
        (c, e)
    }
}

/// The work of one mappable tensor contraction.
#[derive(Debug, Clone, Copy)]
struct MappedWork {
    /// Output rows (P*Q, or token count).
    pq: u64,
    /// Kernel footprint R*S.
    rs: u64,
    /// Input channels per group.
    c: u64,
    /// Output channels.
    k: u64,
    /// Total input activation elements (INT8 bytes).
    input_bytes: u64,
    /// Weight bytes.
    weight_bytes: u64,
    /// Output bytes.
    output_bytes: u64,
    /// Whether the inputs stream from DRAM (false: global-buffer resident
    /// intermediate, e.g. attention probabilities).
    input_offchip: bool,
    /// Whether the outputs go to DRAM.
    output_offchip: bool,
}

fn numel(shape: &[usize]) -> u64 {
    shape.iter().product::<usize>() as u64
}

/// The shape of one tensor contraction a node maps onto the MAC array —
/// the public view of the simulator's internal mapping, exposed so static
/// analysis (the `vit-verify` accelerator pass) checks exactly the tilings
/// the simulator would execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contraction {
    /// Output rows (P*Q spatial positions, or token count).
    pub pq: u64,
    /// Kernel footprint R*S.
    pub rs: u64,
    /// Input channels per group (the `c0` vector-lane dimension).
    pub c: u64,
    /// Output channels (the `k0` vector-MAC dimension).
    pub k: u64,
}

/// The contractions `node` maps onto the MAC array, in execution order.
/// Non-MAC nodes (normalization, pooling, data movement) return an empty
/// list: they run on the post-processing units instead.
pub fn node_contractions(graph: &Graph, node: &Node) -> Vec<Contraction> {
    mapped_work(graph, node)
        .into_iter()
        .map(|w| Contraction {
            pq: w.pq,
            rs: w.rs,
            c: w.c,
            k: w.k,
        })
        .collect()
}

/// Extracts the contractions a node maps onto the MAC array; non-MAC nodes
/// return an empty list and run on the PPU instead.
fn mapped_work(graph: &Graph, node: &Node) -> Vec<MappedWork> {
    let in_shape = |i: usize| graph.node(node.inputs[i]).shape.as_slice();
    match &node.op {
        Op::Conv2d {
            out_channels,
            kernel,
            groups,
            ..
        } => {
            let input = in_shape(0);
            let out = &node.shape;
            let c = (input[1] / groups) as u64;
            vec![MappedWork {
                pq: (out[0] * out[2] * out[3]) as u64,
                rs: (kernel.0 * kernel.1) as u64,
                c,
                k: *out_channels as u64,
                input_bytes: numel(input),
                weight_bytes: *out_channels as u64 * c * (kernel.0 * kernel.1) as u64,
                output_bytes: numel(out),
                input_offchip: true,
                output_offchip: true,
            }]
        }
        Op::Linear { out_features, .. } => {
            let input = in_shape(0);
            let c = *input.last().expect("validated") as u64;
            let rows = numel(input) / c;
            vec![MappedWork {
                pq: rows,
                rs: 1,
                c,
                k: *out_features as u64,
                input_bytes: numel(input),
                weight_bytes: c * *out_features as u64,
                output_bytes: numel(&node.shape),
                input_offchip: true,
                output_offchip: true,
            }]
        }
        Op::Sdpa { heads } => {
            // Two batched matmuls; softmax runs on the PPU (accounted in
            // ppu_elements).
            let q = in_shape(0);
            let k = in_shape(1);
            let v = in_shape(2);
            let (b, n, d) = (q[0] as u64, q[1] as u64, q[2] as u64);
            let m = k[1] as u64;
            let dv = v[2] as u64;
            let h = *heads as u64;
            let dh = d / h;
            let dvh = dv / h;
            vec![
                // scores = q k^T : per (batch, head) an [n, dh] x [dh, m].
                MappedWork {
                    pq: b * h * n,
                    rs: 1,
                    c: dh,
                    k: m,
                    input_bytes: numel(q),
                    weight_bytes: numel(k),
                    output_bytes: b * h * n * m,
                    input_offchip: true,
                    output_offchip: false,
                },
                // context = probs v : [n, m] x [m, dvh].
                MappedWork {
                    pq: b * h * n,
                    rs: 1,
                    c: m,
                    k: dvh,
                    input_bytes: b * h * n * m,
                    weight_bytes: numel(v),
                    output_bytes: numel(&node.shape),
                    input_offchip: false,
                    output_offchip: true,
                },
            ]
        }
        Op::DeformAttn {
            heads,
            levels,
            points,
            dim,
        } => {
            let q = in_shape(0);
            let v = in_shape(1);
            let (b, n, d) = (q[0] as u64, q[1] as u64, *dim as u64);
            let m = v[1] as u64;
            let hlp = (*heads * *levels * *points) as u64;
            vec![
                // value projection
                MappedWork {
                    pq: b * m,
                    rs: 1,
                    c: d,
                    k: d,
                    input_bytes: numel(v),
                    weight_bytes: d * d,
                    output_bytes: b * m * d,
                    input_offchip: true,
                    output_offchip: false,
                },
                // offsets + attention weights
                MappedWork {
                    pq: b * n,
                    rs: 1,
                    c: d,
                    k: hlp * 3,
                    input_bytes: numel(q),
                    weight_bytes: d * hlp * 3,
                    output_bytes: b * n * hlp * 3,
                    input_offchip: true,
                    output_offchip: false,
                },
                // output projection
                MappedWork {
                    pq: b * n,
                    rs: 1,
                    c: d,
                    k: d,
                    input_bytes: b * n * d,
                    weight_bytes: d * d,
                    output_bytes: numel(&node.shape),
                    input_offchip: false,
                    output_offchip: true,
                },
            ]
        }
        _ => Vec::new(),
    }
}

/// Elements a node processes on the per-PE post-processing units (fused
/// activations, normalization, pooling, resizing, softmax).
fn ppu_elements(graph: &Graph, node: &Node) -> u64 {
    let in0 = || numel(&graph.node(node.inputs[0]).shape);
    match &node.op {
        Op::Relu | Op::Gelu | Op::BatchNorm => in0(),
        Op::LayerNorm => 2 * in0(),
        Op::Add => numel(&node.shape),
        Op::MaxPool { window, .. } => numel(&node.shape) * (*window * *window) as u64,
        Op::AdaptiveAvgPool { .. } | Op::GlobalAvgPool => in0(),
        Op::Resize { .. } => numel(&node.shape),
        Op::Sdpa { .. } => {
            // softmax over the score matrix
            let q = &graph.node(node.inputs[0]).shape;
            let k = &graph.node(node.inputs[1]).shape;
            3 * (q[0] * q[1] * k[1]) as u64
        }
        Op::DeformAttn {
            heads,
            levels,
            points,
            ..
        } => {
            let q = &graph.node(node.inputs[0]).shape;
            ((q[0] * q[1]) as u64) * (*heads * *levels * *points) as u64
        }
        _ => 0,
    }
}

/// Maps one contraction, choosing the PE-array split that minimizes cycles.
fn map_contraction(
    w: &MappedWork,
    cfg: &AccelConfig,
    opts: &SimOptions,
    tech: &TechEnergy,
) -> (u64, u64, u64, f64, u64) {
    let pes = cfg.num_pes() as u64;
    let (k0, c0) = (cfg.k0 as u64, cfg.c0 as u64);
    let wm_bytes = (cfg.weight_mem_kb * 1024) as u64;

    // Enumerate spatial splits (pq_split, k_split, c_split) with product
    // dividing the PE count.
    let mut best: Option<(u64, u64, u64, u64)> = None; // cycles, weight passes, c_split, k_split
    let mut divisors = Vec::new();
    for d in 1..=pes {
        if pes.is_multiple_of(d) {
            divisors.push(d);
        }
    }
    for &pq_s in &divisors {
        for &k_s in &divisors {
            let rem = pes / pq_s;
            if !rem.is_multiple_of(k_s) {
                continue;
            }
            let c_s = rem / k_s;
            if c_s > 1 && !opts.cross_pe_reduction {
                continue;
            }
            let pq_pe = w.pq.div_ceil(pq_s);
            let k_pe = w.k.div_ceil(k_s);
            let c_pe = w.c.div_ceil(c_s);
            let cycles = pq_pe * w.rs * c_pe.div_ceil(c0) * k_pe.div_ceil(k0);
            let weight_bytes_pe = k_pe * c_pe * w.rs;
            let passes = weight_bytes_pe.div_ceil(wm_bytes).max(1);
            let cand = (cycles, passes, c_s, k_s);
            if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                best = Some(cand);
            }
        }
    }
    let (cycles, passes, c_split, _k_split) = best.expect("at least one mapping");

    // DRAM traffic: weights once, off-chip inputs once per weight pass,
    // off-chip outputs once; global-buffer-resident intermediates skip DRAM.
    let dram = w.weight_bytes
        + if w.input_offchip {
            w.input_bytes * passes
        } else {
            0
        }
        + if w.output_offchip { w.output_bytes } else { 0 };
    let stall = (dram as f64 / DRAM_BYTES_PER_CYCLE).ceil() as u64;
    let final_cycles = cycles.max(stall);

    // Energy.
    let macs = w.pq * w.rs * w.c * w.k;
    let q0 = opts.q0_reuse.max(1) as u64;
    // Idle vector lanes fetch nothing, so SRAM traffic follows real MACs;
    // underutilization is paid in control energy and cycles instead.
    let wm_reads = macs / q0;
    let am_reads = macs / k0 + w.output_bytes;
    let energy = macs as f64 * tech.mac_j
        + 3.0 * macs as f64 * tech.rf_byte_j
        + wm_reads as f64 * tech.sram_byte_j(cfg.weight_mem_kb)
        + am_reads as f64 * tech.sram_byte_j(cfg.act_mem_kb)
        + (w.input_bytes * passes + w.output_bytes) as f64 * tech.gb_byte_j
        + dram as f64 * tech.dram_byte_j
        + (cycles * pes) as f64 * tech.pe_ctrl_cycle_j
        + if c_split > 1 {
            (w.output_bytes * (c_split - 1)) as f64 * tech.cross_pe_byte_j
        } else {
            0.0
        };
    (final_cycles, macs, dram, energy, passes)
}

/// Simulates a graph on an accelerator configuration.
///
/// Every MAC-bearing node is mapped onto the PE array via the Listing-1
/// loop nest; everything else runs on the fused post-processing units.
pub fn simulate(graph: &Graph, cfg: &AccelConfig, opts: &SimOptions) -> AccelReport {
    let tech = TechEnergy::default();
    let mut layers = Vec::with_capacity(graph.len());
    for (_, node) in graph.iter() {
        let works = mapped_work(graph, node);
        let mut cycles = 0;
        let mut macs = 0;
        let mut dram = 0;
        let mut energy = 0.0;
        let mut passes = 0;
        for w in &works {
            let (c, m, d, e, p) = map_contraction(w, cfg, opts, &tech);
            cycles += c;
            macs += m;
            dram += d;
            energy += e;
            passes = passes.max(p);
        }
        let ppu = ppu_elements(graph, node);
        if ppu > 0 {
            let ppu_cycles = ppu.div_ceil(ppu_lanes(cfg));
            cycles += ppu_cycles;
            // Element ops read and write the activation SRAM.
            energy += ppu as f64 * (2.0 * tech.sram_byte_j(cfg.act_mem_kb) + 4.0 * tech.rf_byte_j)
                + (ppu_cycles * cfg.num_pes() as u64) as f64 * tech.pe_ctrl_cycle_j;
        }
        let utilization = if cycles == 0 {
            0.0
        } else {
            macs as f64 / (cycles as f64 * cfg.parallel_macs() as f64)
        };
        layers.push(LayerStats {
            name: node.name.clone(),
            class: node.op.class(),
            role: node.role,
            macs,
            cycles,
            utilization,
            dram_bytes: dram,
            weight_passes: passes,
            energy_j: energy,
        });
    }

    // Model-level parallelism: decoder linears can run concurrently with
    // later encoder stages (paper §V, optimization 1). The recoverable
    // cycles are bounded by the encoder work they hide under.
    let overlapped_cycles = if opts.model_parallelism {
        let dl: u64 = layers
            .iter()
            .filter(|l| matches!(l.role, LayerRole::DecoderLinear { stage } if stage < 3))
            .map(|l| l.cycles)
            .sum();
        let enc: u64 = layers
            .iter()
            .filter(|l| matches!(l.role, LayerRole::EncoderBlock { stage, .. } if stage > 0))
            .map(|l| l.cycles)
            .sum();
        dl.min(enc)
    } else {
        0
    };

    AccelReport {
        model: graph.model.clone(),
        config: *cfg,
        layers,
        overlapped_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vit_models::{build_segformer, SegFormerConfig, SegFormerVariant};

    fn b2_report(cfg: &AccelConfig) -> AccelReport {
        let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b2())).unwrap();
        simulate(&g, cfg, &SimOptions::default())
    }

    #[test]
    fn segformer_b2_cycles_match_paper() {
        // Paper §VI-A: 4,415,208 cycles on accelerator_A (3.5 ms at
        // 1.25 GHz), 16.6x faster than the 58 ms GPU baseline.
        let r = b2_report(&AccelConfig::accelerator_a());
        let cycles = r.total_cycles();
        assert!(
            (cycles as f64 - 4_415_208.0).abs() / 4_415_208.0 < 0.25,
            "got {cycles} cycles"
        );
        let ms = r.total_time_s() * 1e3;
        assert!((ms - 3.5).abs() / 3.5 < 0.25, "got {ms:.2} ms");
    }

    #[test]
    fn accelerator_star_barely_slower_than_a() {
        // Paper: accelerator* (WM=128 kB) is < 3% slower and ~0.5% more
        // energy than accelerator_A on the full model, at 4x smaller area.
        let a = b2_report(&AccelConfig::accelerator_a());
        let star = b2_report(&AccelConfig::accelerator_star());
        let slow = star.total_cycles() as f64 / a.total_cycles() as f64;
        assert!((1.0..1.06).contains(&slow), "slowdown {slow:.3}");
        let energy = star.total_energy_j() / a.total_energy_j();
        assert!(energy < 1.05, "energy ratio {energy:.3}");
    }

    #[test]
    fn fuse_conv_dominates_cycles() {
        // Fig. 10: on the accelerator the time distribution matches the
        // FLOPs distribution, so Conv2DFuse dominates.
        let r = b2_report(&AccelConfig::accelerator_a());
        let fuse = r
            .layers
            .iter()
            .find(|l| l.name == "decoder.conv_fuse")
            .unwrap();
        let share = fuse.cycles as f64 / r.total_cycles() as f64;
        // The paper's own numbers give 2,359,296 / 4,415,208 = 53%.
        assert!((share - 0.53).abs() < 0.10, "fuse cycle share {share:.2}");
    }

    #[test]
    fn low_channel_layers_are_energy_per_mac_outliers() {
        // Fig. 11: the 3-input-channel patch embedding and the depthwise
        // convolutions have much higher energy per MAC (C0 underutilized).
        let r = b2_report(&AccelConfig::accelerator_a());
        let e = |name: &str| {
            r.layers
                .iter()
                .find(|l| l.name == name)
                .unwrap()
                .energy_per_mac()
        };
        let stem = e("encoder.stage0.patch_embed.conv");
        let dw = e("encoder.stage0.block0.ffn.dwconv");
        let fuse = e("decoder.conv_fuse");
        assert!(stem > 2.0 * fuse, "stem {stem:.2e} vs fuse {fuse:.2e}");
        assert!(dw > 2.0 * fuse, "dwconv {dw:.2e} vs fuse {fuse:.2e}");
    }

    #[test]
    fn more_vectorization_is_lower_energy() {
        // Fig. 14: K0=C0=32 accelerators have the lowest total energy.
        let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b2())).unwrap();
        let opts = SimOptions::default();
        let e32 = simulate(
            &g,
            &AccelConfig::with_vectorization(32, 32, 128, 64).unwrap(),
            &opts,
        )
        .total_energy_j();
        let e16 = simulate(
            &g,
            &AccelConfig::with_vectorization(16, 16, 128, 64).unwrap(),
            &opts,
        )
        .total_energy_j();
        let e8 = simulate(
            &g,
            &AccelConfig::with_vectorization(8, 8, 128, 64).unwrap(),
            &opts,
        )
        .total_energy_j();
        assert!(e32 < e16, "{e32} vs {e16}");
        assert!(e16 < e8, "{e16} vs {e8}");
    }

    #[test]
    fn utilization_bounded_and_meaningful() {
        let r = b2_report(&AccelConfig::accelerator_a());
        for l in &r.layers {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&l.utilization),
                "{}: {}",
                l.name,
                l.utilization
            );
        }
        let fuse = r
            .layers
            .iter()
            .find(|l| l.name == "decoder.conv_fuse")
            .unwrap();
        assert!(
            fuse.utilization > 0.9,
            "fuse utilization {}",
            fuse.utilization
        );
    }

    #[test]
    fn model_parallelism_reduces_cycles() {
        let g = build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b2())).unwrap();
        let base = simulate(&g, &AccelConfig::accelerator_star(), &SimOptions::default());
        let mp = simulate(
            &g,
            &AccelConfig::accelerator_star(),
            &SimOptions {
                model_parallelism: true,
                ..SimOptions::default()
            },
        );
        assert!(mp.total_cycles() < base.total_cycles());
    }

    #[test]
    fn cross_pe_reduction_off_still_maps() {
        let g =
            build_segformer(&SegFormerConfig::ade20k(SegFormerVariant::b0()).with_image(128, 128))
                .unwrap();
        let r = simulate(
            &g,
            &AccelConfig::accelerator_star(),
            &SimOptions {
                cross_pe_reduction: false,
                ..SimOptions::default()
            },
        );
        assert!(r.total_cycles() > 0);
    }
}
