//! # vit-fault
//!
//! Deterministic fault injection and detection guards for the serving
//! stack.
//!
//! The paper's resilience finding (§III) is that ViT execution paths
//! degrade *gracefully* when given less compute. This crate supplies the
//! machinery to test the serving-time corollary — that a fault should
//! degrade a response, not lose it:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic chaos schedule. Every
//!   decision (crash, stall, bit-flip, plan-replay failure) is a pure
//!   hash of `(seed, run, attempt)`, so a chaos run is byte-reproducible
//!   regardless of thread interleaving.
//! * [`FaultCtx`] — the per-run injection/detection scope threaded
//!   through `vit_graph::RunContext`; inert by default.
//! * [`GuardConfig`] / [`check_guard`] — NaN/Inf + magnitude output
//!   guards that catch corrupted activations before a client sees them.
//! * [`FaultError`] — the typed error surface injected faults and guard
//!   trips report through.
//!
//! Injected bit-flips use [`vit_tensor::corrupt`], which upsets the high
//! exponent bit of an activation so the corruption is always detectable
//! by a magnitude guard (silent data corruption below guard thresholds
//! is explicitly out of this fault model's scope).

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;
use vit_tensor::corrupt::{self, BitFlip};

/// splitmix64: the same coordinate-hash construction `vit_graph`'s weight
/// generator uses, reused here so fault decisions are pure functions of
/// their coordinates.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `[0, 1)` from the top 53 bits of a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Which fault a [`FaultPlan`] injects into one execution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// The worker's inference dies outright before producing a result.
    Crash,
    /// Kernels run slower by the plan's stall factor (a stuck core, a
    /// noisy neighbor); output values are unaffected.
    Stall,
    /// A transient single-event upset flips an exponent bit of one
    /// activation element mid-run.
    BitFlip,
    /// Replaying a compiled execution plan fails (a poisoned plan cache
    /// entry); only drawn under the `Plan` backend.
    PlanReplay,
}

impl FaultKind {
    /// Stable lower-snake name, used in trace event details and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
            FaultKind::BitFlip => "bit_flip",
            FaultKind::PlanReplay => "plan_replay",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded, fully deterministic chaos schedule.
///
/// Per `(run, attempt)` at most one fault is drawn; the rates are
/// per-attempt probabilities and must sum to at most 1. All decisions are
/// pure hashes — no RNG state, so concurrent workers drawing decisions in
/// any order reproduce the same schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed every decision hashes.
    pub seed: u64,
    /// Probability an attempt crashes before producing a result.
    pub crash_rate: f64,
    /// Probability an attempt suffers a transient activation bit-flip.
    pub bitflip_rate: f64,
    /// Probability an attempt's kernels stall (run slower).
    pub stall_rate: f64,
    /// Service-time multiplier of a stalled attempt (must be >= 1).
    pub stall_factor: f64,
    /// Probability a plan replay fails (only drawn under the `Plan`
    /// backend; the reference interpreter skips this slice).
    pub replay_rate: f64,
}

const SALT_KIND: u64 = 0x6BF5_8476;
const SALT_NODE: u64 = 0x94D0_49BB;
const SALT_ELEM: u64 = 0x9E37_79B9;

impl FaultPlan {
    /// A plan that never injects anything (useful to enable the guard
    /// path without chaos).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            crash_rate: 0.0,
            bitflip_rate: 0.0,
            stall_rate: 0.0,
            stall_factor: 1.0,
            replay_rate: 0.0,
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0
            || self.bitflip_rate > 0.0
            || self.stall_rate > 0.0
            || self.replay_rate > 0.0
    }

    fn draw(&self, run: u64, attempt: u32, salt: u64) -> u64 {
        splitmix64(
            self.seed
                ^ splitmix64(run.wrapping_mul(0xA076_1D64_78BD_642F))
                ^ splitmix64(u64::from(attempt).wrapping_mul(0xE703_7ED1_A0B4_28DB))
                ^ salt,
        )
    }

    /// The fault injected into execution attempt `attempt` of request
    /// `run`, if any. Pure in its arguments.
    pub fn decide(&self, run: u64, attempt: u32) -> Option<FaultKind> {
        let u = unit(self.draw(run, attempt, SALT_KIND));
        let mut edge = self.crash_rate;
        if u < edge {
            return Some(FaultKind::Crash);
        }
        edge += self.bitflip_rate;
        if u < edge {
            return Some(FaultKind::BitFlip);
        }
        edge += self.stall_rate;
        if u < edge {
            return Some(FaultKind::Stall);
        }
        edge += self.replay_rate;
        if u < edge {
            return Some(FaultKind::PlanReplay);
        }
        None
    }

    /// Which of `n_nodes` graph nodes the bit-flip strikes (meaningful
    /// only when [`FaultPlan::decide`] returned [`FaultKind::BitFlip`]).
    pub fn flip_node(&self, run: u64, attempt: u32, n_nodes: usize) -> usize {
        if n_nodes == 0 {
            return 0;
        }
        (self.draw(run, attempt, SALT_NODE) % n_nodes as u64) as usize
    }

    /// The element-scan start position of the bit-flip within the struck
    /// activation.
    pub fn flip_start(&self, run: u64, attempt: u32, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.draw(run, attempt, SALT_ELEM) % len as u64) as usize
    }
}

/// Output-guard thresholds: a tensor trips the guard when any element is
/// non-finite or exceeds the magnitude limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Largest plausible activation/logit magnitude. Anything above this
    /// is treated as corruption. Exponent-bit upsets of in-range values
    /// land around `1e30`–`inf`, far above any real logit.
    pub magnitude_limit: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            magnitude_limit: 1e6,
        }
    }
}

/// Why a guard tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GuardTripKind {
    /// NaN or infinity.
    NonFinite,
    /// Finite but beyond the magnitude limit.
    Magnitude,
}

impl GuardTripKind {
    /// Stable lower-snake name.
    pub fn name(self) -> &'static str {
        match self {
            GuardTripKind::NonFinite => "non_finite",
            GuardTripKind::Magnitude => "magnitude",
        }
    }
}

/// One guard violation: the first offending element of a checked tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardTrip {
    /// Why it tripped.
    pub kind: GuardTripKind,
    /// Flat element index of the first violation.
    pub index: usize,
    /// The offending value.
    pub value: f32,
    /// The magnitude limit in force.
    pub limit: f32,
}

impl fmt::Display for GuardTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at element {} (value {}, limit {})",
            self.kind.name(),
            self.index,
            self.value,
            self.limit
        )
    }
}

/// Elements per branch-free block of [`check_guard`]'s scan.
const GUARD_BLOCK: usize = 64;

/// Scans `data` against `cfg`, returning the first violation.
///
/// The scan reduces each 64-element block to one "any violation" flag
/// without branching per element, so it vectorizes; only a block that
/// fails is re-scanned element by element to name the first offending
/// index, value and kind.
///
/// # Errors
///
/// Returns the first [`GuardTrip`] found (non-finite or over-magnitude
/// element).
pub fn check_guard(data: &[f32], cfg: GuardConfig) -> Result<(), GuardTrip> {
    let limit = cfg.magnitude_limit;
    for (b, block) in data.chunks(GUARD_BLOCK).enumerate() {
        // Non-short-circuiting `|`, so the fold is compare-and-or lanes;
        // the tests are `first_trip`'s, in the same form.
        let bad = block
            .iter()
            .fold(false, |bad, &v| bad | !v.is_finite() | (v.abs() > limit));
        if bad {
            return first_trip(block, cfg).map_err(|trip| GuardTrip {
                index: b * GUARD_BLOCK + trip.index,
                ..trip
            });
        }
    }
    Ok(())
}

/// The element-by-element guard scan: the first violation in `data`.
fn first_trip(data: &[f32], cfg: GuardConfig) -> Result<(), GuardTrip> {
    for (i, &v) in data.iter().enumerate() {
        if !v.is_finite() {
            return Err(GuardTrip {
                kind: GuardTripKind::NonFinite,
                index: i,
                value: v,
                limit: cfg.magnitude_limit,
            });
        }
        if v.abs() > cfg.magnitude_limit {
            return Err(GuardTrip {
                kind: GuardTripKind::Magnitude,
                index: i,
                value: v,
                limit: cfg.magnitude_limit,
            });
        }
    }
    Ok(())
}

/// Error surfaced by injected faults and detection guards.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// An injected crash killed the attempt before it produced a result.
    InjectedCrash {
        /// The request/run the fault plan scheduled the crash for.
        run: u64,
    },
    /// An injected plan-replay failure (poisoned plan) aborted the
    /// attempt; the engine evicts the plan, so a retry compiles a fresh
    /// one.
    InjectedReplayFailure {
        /// The request/run the fault plan scheduled the failure for.
        run: u64,
    },
    /// A detection guard caught a corrupted tensor.
    GuardTripped {
        /// Where the guard fired (node name, `logits`, …).
        site: String,
        /// The violation.
        trip: GuardTrip,
    },
}

impl FaultError {
    /// The injected fault kind this error corresponds to, for accounting.
    /// Guard trips map to [`FaultKind::BitFlip`] (the only corruption this
    /// fault model injects).
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultError::InjectedCrash { .. } => FaultKind::Crash,
            FaultError::InjectedReplayFailure { .. } => FaultKind::PlanReplay,
            FaultError::GuardTripped { .. } => FaultKind::BitFlip,
        }
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InjectedCrash { run } => {
                write!(f, "injected crash killed run {run}")
            }
            FaultError::InjectedReplayFailure { run } => {
                write!(f, "injected plan-replay failure aborted run {run}")
            }
            FaultError::GuardTripped { site, trip } => {
                write!(f, "output guard tripped at `{site}`: {trip}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// The armed half of a [`FaultCtx`]: one plan applied to one execution
/// attempt of one request.
#[derive(Debug)]
struct FaultScope {
    plan: FaultPlan,
    run: u64,
    attempt: u32,
}

/// Per-run fault injection and detection scope, threaded through
/// `vit_graph::RunContext`.
///
/// The default context is fully inert: no injection, no guard scans, zero
/// cost on the hot path beyond two `Option` checks. Serving enables the
/// output guard permanently and arms injection only for chaos runs.
/// Cloning is cheap (the scope is shared).
#[derive(Debug, Clone, Default)]
pub struct FaultCtx {
    scope: Option<Arc<FaultScope>>,
    guard: Option<GuardConfig>,
}

impl FaultCtx {
    /// Inert context — identical to `default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the NaN/Inf + magnitude output guard on engine results.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Arms fault injection for execution attempt `attempt` of request
    /// `run` under `plan`.
    #[must_use]
    pub fn armed(mut self, plan: FaultPlan, run: u64, attempt: u32) -> Self {
        self.scope = Some(Arc::new(FaultScope { plan, run, attempt }));
        self
    }

    /// Whether fault injection is armed (a plan is attached).
    pub fn is_armed(&self) -> bool {
        self.scope.is_some()
    }

    /// The request/run injection is armed for (0 when unarmed).
    pub fn run(&self) -> u64 {
        self.scope.as_ref().map_or(0, |s| s.run)
    }

    /// The execution attempt injection is armed for (0 when unarmed).
    pub fn attempt(&self) -> u32 {
        self.scope.as_ref().map_or(0, |s| s.attempt)
    }

    /// The guard applied to final engine outputs, when enabled.
    pub fn output_guard(&self) -> Option<GuardConfig> {
        self.guard
    }

    /// The guard applied to *every node output* — only when injection is
    /// armed, so corruption is caught at its source before normalization
    /// layers can mask it. Unarmed runs pay only the final-output scan.
    /// An armed context without an explicit guard uses the default one, so
    /// injected corruption can never outrun detection.
    pub fn node_guard(&self) -> Option<GuardConfig> {
        if self.is_armed() {
            Some(self.guard.unwrap_or_default())
        } else {
            None
        }
    }

    /// The fault injected into this attempt, if any.
    pub fn injected(&self) -> Option<FaultKind> {
        let s = self.scope.as_ref()?;
        s.plan.decide(s.run, s.attempt)
    }

    /// The injected failure this attempt must die with, if any:
    /// [`FaultKind::Crash`] always, [`FaultKind::PlanReplay`] only when
    /// the attempt runs on the plan backend.
    pub fn injected_failure(&self, plan_backend: bool) -> Option<FaultError> {
        let s = self.scope.as_ref()?;
        match s.plan.decide(s.run, s.attempt)? {
            FaultKind::Crash => Some(FaultError::InjectedCrash { run: s.run }),
            FaultKind::PlanReplay if plan_backend => {
                Some(FaultError::InjectedReplayFailure { run: s.run })
            }
            _ => None,
        }
    }

    /// The kernel-slowdown multiplier of this attempt (`> 1` only when a
    /// stall fault was drawn).
    pub fn stall_multiplier(&self) -> Option<f64> {
        let s = self.scope.as_ref()?;
        match s.plan.decide(s.run, s.attempt)? {
            FaultKind::Stall => Some(s.plan.stall_factor.max(1.0)),
            _ => None,
        }
    }

    /// The graph node whose output this attempt's bit-flip strikes, if a
    /// bit-flip was drawn. The executor compares node indices against
    /// this, so the injection point is independent of scheduling order.
    pub fn flip_node(&self, n_nodes: usize) -> Option<usize> {
        let s = self.scope.as_ref()?;
        match s.plan.decide(s.run, s.attempt)? {
            FaultKind::BitFlip => Some(s.plan.flip_node(s.run, s.attempt, n_nodes)),
            _ => None,
        }
    }

    /// Corrupts `data` in place with this attempt's deterministic
    /// exponent-bit flip (see [`vit_tensor::corrupt::flip_detectable`]).
    /// Returns what changed, or `None` when the context is unarmed or no
    /// element could produce a guard-detectable flip (the upset "misses").
    pub fn corrupt(&self, data: &mut [f32]) -> Option<BitFlip> {
        let s = self.scope.as_ref()?;
        let start = s.plan.flip_start(s.run, s.attempt, data.len());
        let limit = self.guard.unwrap_or_default().magnitude_limit;
        corrupt::flip_detectable(data, start, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultPlan {
        FaultPlan {
            seed: 7,
            crash_rate: 0.2,
            bitflip_rate: 0.2,
            stall_rate: 0.2,
            stall_factor: 4.0,
            replay_rate: 0.2,
        }
    }

    #[test]
    fn decisions_are_deterministic_and_cover_all_kinds() {
        let p = chaotic();
        let mut seen = std::collections::HashSet::new();
        for run in 0..200 {
            let a = p.decide(run, 0);
            let b = p.decide(run, 0);
            assert_eq!(a, b, "decision must be pure in (seed, run, attempt)");
            if let Some(k) = a {
                seen.insert(k);
            }
        }
        for k in [
            FaultKind::Crash,
            FaultKind::Stall,
            FaultKind::BitFlip,
            FaultKind::PlanReplay,
        ] {
            assert!(seen.contains(&k), "{k} never drawn at 20% over 200 runs");
        }
    }

    #[test]
    fn attempts_redraw_independently() {
        let p = chaotic();
        let differs = (0..100).any(|run| p.decide(run, 0) != p.decide(run, 1));
        assert!(differs, "retry attempts must not inherit the first draw");
    }

    #[test]
    fn rates_roughly_honored() {
        let p = FaultPlan {
            bitflip_rate: 0.5,
            crash_rate: 0.0,
            stall_rate: 0.0,
            replay_rate: 0.0,
            ..FaultPlan::none(3)
        };
        let hits = (0..1000).filter(|&r| p.decide(r, 0).is_some()).count();
        assert!((400..600).contains(&hits), "got {hits}/1000 at rate 0.5");
    }

    #[test]
    fn none_plan_is_inert() {
        let p = FaultPlan::none(9);
        assert!(!p.is_active());
        assert!((0..500).all(|r| p.decide(r, 0).is_none()));
    }

    #[test]
    fn guard_catches_nan_inf_and_magnitude() {
        let cfg = GuardConfig::default();
        assert!(check_guard(&[0.0, 1.0, -3.5], cfg).is_ok());
        let nan = check_guard(&[0.0, f32::NAN], cfg).unwrap_err();
        assert_eq!(nan.kind, GuardTripKind::NonFinite);
        assert_eq!(nan.index, 1);
        let inf = check_guard(&[f32::INFINITY], cfg).unwrap_err();
        assert_eq!(inf.kind, GuardTripKind::NonFinite);
        let big = check_guard(&[1.0, -2e7], cfg).unwrap_err();
        assert_eq!(big.kind, GuardTripKind::Magnitude);
        assert_eq!(big.index, 1);
    }

    #[test]
    fn blocked_guard_reports_the_element_scans_first_trip() {
        // Violations inside a block, on both edges of a block boundary and
        // in the ragged last block; a later, different violation in the
        // same block must not mask the first one.
        let cfg = GuardConfig::default();
        let len = 3 * GUARD_BLOCK + 5;
        let at = [
            0,
            1,
            GUARD_BLOCK - 1,
            GUARD_BLOCK,
            GUARD_BLOCK + 17,
            2 * GUARD_BLOCK - 1,
            3 * GUARD_BLOCK,
            len - 1,
        ];
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 2e7, -2e7];
        for &i in &at {
            for (k, &v) in bad.iter().enumerate() {
                let mut data = vec![0.5f32; len];
                data[i] = v;
                if i + 1 < len {
                    data[i + 1] = bad[(k + 1) % bad.len()];
                }
                let got = check_guard(&data, cfg).unwrap_err();
                let want = first_trip(&data, cfg).unwrap_err();
                assert_eq!(
                    (got.kind, got.index, got.value.to_bits(), got.limit),
                    (want.kind, want.index, want.value.to_bits(), want.limit),
                    "violation {v} at {i}"
                );
                assert_eq!(got.index, i);
            }
        }
        assert!(check_guard(&vec![-1e6f32; len], cfg).is_ok());
        assert!(check_guard(&[], cfg).is_ok());
    }

    #[test]
    fn armed_ctx_corruption_is_always_guard_detectable() {
        let plan = FaultPlan {
            bitflip_rate: 1.0,
            ..FaultPlan::none(11)
        };
        for run in 0..50 {
            let ctx = FaultCtx::new()
                .with_guard(GuardConfig::default())
                .armed(plan, run, 0);
            let mut data = vec![0.25f32; 64];
            data[13] = -1.75;
            let flip = ctx.corrupt(&mut data).expect("plausible values flip");
            assert!(
                check_guard(&data, GuardConfig::default()).is_err(),
                "run {run}: corruption at index {} must trip the guard",
                flip.index
            );
        }
    }

    #[test]
    fn inert_ctx_does_nothing() {
        let ctx = FaultCtx::new();
        assert!(!ctx.is_armed());
        assert!(ctx.injected().is_none());
        assert!(ctx.injected_failure(true).is_none());
        assert!(ctx.stall_multiplier().is_none());
        assert!(ctx.flip_node(100).is_none());
        assert!(ctx.node_guard().is_none());
        let mut data = vec![1.0f32; 8];
        assert!(ctx.corrupt(&mut data).is_none());
        assert_eq!(data, vec![1.0f32; 8]);
    }

    #[test]
    fn fault_error_display_is_stable() {
        assert_eq!(
            FaultError::InjectedCrash { run: 3 }.to_string(),
            "injected crash killed run 3"
        );
        assert_eq!(
            FaultError::InjectedReplayFailure { run: 4 }.to_string(),
            "injected plan-replay failure aborted run 4"
        );
        let e = FaultError::GuardTripped {
            site: "logits".into(),
            trip: GuardTrip {
                kind: GuardTripKind::Magnitude,
                index: 7,
                value: 2e7,
                limit: 1e6,
            },
        };
        assert_eq!(
            e.to_string(),
            "output guard tripped at `logits`: magnitude at element 7 (value 20000000, limit 1000000)"
        );
        assert_eq!(e.kind(), FaultKind::BitFlip);
    }
}
