//! Accelerator architecture configuration, technology constants, and the
//! area model (TSMC 5nm class, INT8 datapath — §V of the paper).

/// Architecture parameters of one accelerator instance (Figure 9).
///
/// The paper holds the total parallel-MAC count at 16384 for every design
/// point and trades it between vector width (`c0`), vector MACs per PE
/// (`k0`), and PE count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Vector MACs per PE (one per output channel in flight).
    pub k0: usize,
    /// Multiplier lanes per vector MAC (input-channel parallelism).
    pub c0: usize,
    /// PEs along one side of the square PE array.
    pub pe_rows: usize,
    /// PEs along the other side.
    pub pe_cols: usize,
    /// Weight memory per PE, kilobytes.
    pub weight_mem_kb: usize,
    /// Activation memory per PE, kilobytes.
    pub act_mem_kb: usize,
    /// Synthesized clock, GHz (1.25 in the paper).
    pub clock_ghz: f64,
}

impl AccelConfig {
    /// `accelerator_A`: the latency/energy-optimal design for the full
    /// SegFormer-B2 (K0=32, C0=32, WM=1024 kB, AM=64 kB).
    pub fn accelerator_a() -> Self {
        AccelConfig {
            k0: 32,
            c0: 32,
            pe_rows: 4,
            pe_cols: 4,
            weight_mem_kb: 1024,
            act_mem_kb: 64,
            clock_ghz: 1.25,
        }
    }

    /// `accelerator*`: same compute, 4.3x smaller PE array (WM=128 kB).
    pub fn accelerator_star() -> Self {
        AccelConfig {
            weight_mem_kb: 128,
            ..Self::accelerator_a()
        }
    }

    /// `accelerator_OFA1` (Table IV).
    pub fn ofa1() -> Self {
        Self::accelerator_a()
    }

    /// `accelerator_OFA2` (Table IV) — identical to `accelerator*`.
    pub fn ofa2() -> Self {
        Self::accelerator_star()
    }

    /// `accelerator_OFA3` (Table IV): WM=64 kB, AM=32 kB.
    pub fn ofa3() -> Self {
        AccelConfig {
            weight_mem_kb: 64,
            act_mem_kb: 32,
            ..Self::accelerator_a()
        }
    }

    /// A design point with different vectorization but the same 16384
    /// parallel MACs (e.g. `K0=C0=16` with an 8x8 array).
    ///
    /// Returns `None` when `k0 * c0` does not divide 16384 into a square
    /// PE array.
    pub fn with_vectorization(k0: usize, c0: usize, wm_kb: usize, am_kb: usize) -> Option<Self> {
        if k0 == 0 || c0 == 0 {
            return None;
        }
        let pes = TOTAL_PARALLEL_MACS / (k0 * c0);
        if pes * k0 * c0 != TOTAL_PARALLEL_MACS {
            return None;
        }
        let side = (pes as f64).sqrt() as usize;
        let (rows, cols) = if side * side == pes {
            (side, side)
        } else if side * (side + 1) == pes {
            (side, side + 1)
        } else {
            (1, pes)
        };
        Some(AccelConfig {
            k0,
            c0,
            pe_rows: rows,
            pe_cols: cols,
            weight_mem_kb: wm_kb,
            act_mem_kb: am_kb,
            clock_ghz: 1.25,
        })
    }

    /// Number of PEs in the array.
    pub fn num_pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Parallel MACs per cycle at full utilization.
    pub fn parallel_macs(&self) -> usize {
        self.num_pes() * self.k0 * self.c0
    }

    /// PE-array area in mm^2 (5nm), calibrated to Table IV: the SRAM
    /// (weight + activation memories) dominates; compute + register files +
    /// control form a fixed base for the constant 16384-MAC datapath.
    pub fn pe_array_area_mm2(&self) -> f64 {
        let sram_kb = (self.weight_mem_kb + self.act_mem_kb) * self.num_pes();
        // Calibration: OFA1 (17408 kB) = 8.33 mm^2, OFA2 (3072 kB) =
        // 2.26 mm^2, OFA3 (1536 kB) = 1.66 mm^2.
        MAC_ARRAY_BASE_MM2 + SRAM_MM2_PER_KB * sram_kb as f64
    }
}

impl Default for AccelConfig {
    /// `accelerator*`, the paper's recommended design.
    fn default() -> Self {
        Self::accelerator_star()
    }
}

/// The constant total parallel-MAC budget of every design point.
pub const TOTAL_PARALLEL_MACS: usize = 16384;

/// Fixed area of the 16384-MAC INT8 datapath + register files + control.
pub const MAC_ARRAY_BASE_MM2: f64 = 1.0;

/// SRAM area per kilobyte (banked, with overheads) in 5nm.
pub const SRAM_MM2_PER_KB: f64 = 4.2e-4;

/// Technology energy constants (5nm-class, INT8), joules per event.
///
/// Absolute values are representative of published 5nm accelerators
/// (e.g. the MAGNet-derived designs the paper builds on); every figure in
/// the evaluation uses *normalized* energy, which depends only on the
/// ratios between these constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechEnergy {
    /// One INT8 MAC.
    pub mac_j: f64,
    /// One byte read/written in a vector-MAC register file.
    pub rf_byte_j: f64,
    /// One byte from a 128 kB PE SRAM (scaled by sqrt(capacity) at other
    /// sizes — longer bitlines and deeper banking cost energy).
    pub sram_byte_128kb_j: f64,
    /// One byte through the global buffer.
    pub gb_byte_j: f64,
    /// One byte from DRAM.
    pub dram_byte_j: f64,
    /// Per-PE per-active-cycle control/instruction overhead.
    pub pe_ctrl_cycle_j: f64,
    /// One byte moved between PEs (cross-PE reduction).
    pub cross_pe_byte_j: f64,
}

impl Default for TechEnergy {
    fn default() -> Self {
        TechEnergy {
            mac_j: 25e-15,
            rf_byte_j: 10e-15,
            sram_byte_128kb_j: 120e-15,
            gb_byte_j: 300e-15,
            dram_byte_j: 8e-12,
            pe_ctrl_cycle_j: 6.0e-12,
            cross_pe_byte_j: 150e-15,
        }
    }
}

impl TechEnergy {
    /// SRAM access energy per byte for a memory of `kb` kilobytes.
    pub fn sram_byte_j(&self, kb: usize) -> f64 {
        self.sram_byte_128kb_j * (kb.max(1) as f64 / 128.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_points_hold_the_mac_budget() {
        for cfg in [
            AccelConfig::accelerator_a(),
            AccelConfig::accelerator_star(),
            AccelConfig::ofa3(),
            AccelConfig::with_vectorization(16, 16, 128, 64).unwrap(),
            AccelConfig::with_vectorization(8, 8, 128, 64).unwrap(),
            AccelConfig::with_vectorization(32, 16, 128, 64).unwrap(),
        ] {
            assert_eq!(cfg.parallel_macs(), TOTAL_PARALLEL_MACS, "{cfg:?}");
        }
    }

    #[test]
    fn area_matches_table4() {
        // Table IV: OFA1 = 8.33, OFA2 = 2.26, OFA3 = 1.66 mm^2.
        let a1 = AccelConfig::ofa1().pe_array_area_mm2();
        let a2 = AccelConfig::ofa2().pe_array_area_mm2();
        let a3 = AccelConfig::ofa3().pe_array_area_mm2();
        assert!((a1 - 8.33).abs() / 8.33 < 0.05, "OFA1 {a1:.2}");
        assert!((a2 - 2.26).abs() / 2.26 < 0.05, "OFA2 {a2:.2}");
        assert!((a3 - 1.66).abs() / 1.66 < 0.05, "OFA3 {a3:.2}");
    }

    #[test]
    fn star_is_about_4x_smaller_than_a() {
        let ratio = AccelConfig::accelerator_a().pe_array_area_mm2()
            / AccelConfig::accelerator_star().pe_array_area_mm2();
        // Paper: 4.3x smaller (Table IV areas give 3.7x; the paper quotes
        // 4.3x in the text — we accept the range).
        assert!(ratio > 3.3 && ratio < 4.6, "ratio {ratio:.2}");
    }

    #[test]
    fn invalid_vectorization_rejected() {
        assert!(AccelConfig::with_vectorization(0, 32, 128, 64).is_none());
        assert!(AccelConfig::with_vectorization(48, 32, 128, 64).is_none());
    }

    #[test]
    fn sram_energy_grows_with_capacity() {
        let t = TechEnergy::default();
        assert!(t.sram_byte_j(1024) > t.sram_byte_j(128));
        assert!((t.sram_byte_j(128) - t.sram_byte_128kb_j).abs() < 1e-20);
    }
}
