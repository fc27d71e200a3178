//! Pass 6 — exec safety.
//!
//! The plan equivalence pass (pass 5) proves a compiled plan is the same
//! *program* as its graph; this pass proves the program is safe to run
//! *in parallel*. It symbolically executes an [`ExecPlan`]'s record
//! stream together with each record's declared write-decomposition
//! ([`vit_plan::ExecContract`], resolved through the same
//! `vit_tensor::row_chunks` oracle the kernels dispatch with), and
//! checks four families of invariants:
//!
//! * **write-disjointness** — every record's parallel chunks partition
//!   its output range exactly, at every sampled worker count: no
//!   write-write overlap (`V050`), no coverage gap or escaping chunk
//!   (`V051`), and no output range aliasing one of the record's own
//!   inputs (`V052`);
//! * **reclamation soundness** — the compile-time liveness decisions
//!   recorded in [`PlanRecord::frees`] never free the plan output, a
//!   range no record owns, or a range a later record still reads
//!   un-redefined (`V053`);
//! * **FP-reassociation routing** — a decomposition that declares float
//!   reassociation must map to a kernel class with a registered tolerance
//!   bound (`vit_tensor::ops::reference::tolerance`); a reassociating
//!   record whose op has no tolerance class has left the exact tier with
//!   no oracle to land on, and is flagged (`V056`);
//! * **unsafe/indexing audit** — `unsafe` blocks without a `// SAFETY:`
//!   justification (`V057`) and unchecked indexing (`V058`) in the
//!   `vit-tensor`/`vit-plan` hot paths, including the packed GEMM and
//!   reference-oracle kernel modules.
//!
//! [`verify_shadow`] is the dynamic cross-check: it drives the plan's
//! debug shadow-access replay and reports `V059` when the runtime
//! witness observes a discipline violation the static verdict missed.
//!
//! [`PlanRecord::frees`]: vit_plan::PlanRecord::frees

use std::fmt;

use crate::diag::{Code, Diagnostic, Span};
use vit_plan::{BufRange, ExecPlan, PlanRecord};

/// Worker counts at which chunk decompositions are proved. Matches the
/// differential suites' thread samples; each record is additionally
/// checked at its own maximum chunk count (one worker per row).
const WIDTHS: [usize; 3] = [1, 2, 8];

/// Runs the exec-safety pass over `plan`.
///
/// Includes the shadow cross-validation ([`verify_shadow`]) at the
/// sampled worker counts, so a clean return means the static verdict and
/// the dynamic witness agree.
pub fn verify_exec_safety(plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut diags = verify_plan_exec(plan);
    diags.extend(verify_shadow(plan, &diags, &WIDTHS));
    diags
}

/// The plan-local static checks: write-disjointness (`V050`–`V052`),
/// reclamation soundness of the recorded liveness (`V053`), and FP
/// reassociation hazards (`V056`).
pub fn verify_plan_exec(plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let recs = plan.records();
    for (ri, rec) in recs.iter().enumerate() {
        let span = || Span::Node {
            index: ri,
            name: rec.name.clone(),
        };

        // V052: the kernels read inputs while storing outputs, so an
        // output range aliasing an input races even single-threaded.
        if let Some(inp) = rec.inputs.iter().find(|i| i.overlaps(&rec.out)) {
            diags.push(
                Diagnostic::new(
                    Code::ExecAlias,
                    span(),
                    format!(
                        "output range [{}, {}) overlaps input range [{}, {})",
                        rec.out.offset,
                        rec.out.end(),
                        inp.offset,
                        inp.end()
                    ),
                )
                .with_help("records must never compute in place; allocate a fresh range"),
            );
        }

        // V050/V051: the chunk decomposition must partition the output
        // range exactly at every sampled worker count. One diagnostic
        // per record per code, reporting the narrowest failing width.
        let max_chunks = match &rec.contract {
            vit_plan::ExecContract::RowTiled { row_len, .. } if *row_len > 0 => {
                rec.out.len / *row_len
            }
            _ => 0,
        };
        let mut overlap = None;
        let mut gap = None;
        for width in WIDTHS.iter().copied().chain(Some(max_chunks.max(1))) {
            let mut chunks = rec.contract.chunk_ranges(rec.out, width);
            chunks.sort_by_key(|c| c.offset);
            for w in chunks.windows(2) {
                if w[0].overlaps(&w[1]) && overlap.is_none() {
                    overlap = Some((width, w[0], w[1]));
                }
                if w[1].offset > w[0].end() && gap.is_none() {
                    gap = Some((width, format!("gap [{}, {})", w[0].end(), w[1].offset)));
                }
            }
            let first = chunks.first().copied().unwrap_or(rec.out);
            let last = chunks.last().copied().unwrap_or(rec.out);
            if gap.is_none() && (first.offset != rec.out.offset || last.end() != rec.out.end()) {
                gap = Some((
                    width,
                    format!(
                        "chunks span [{}, {}) but the output range is [{}, {})",
                        first.offset,
                        last.end(),
                        rec.out.offset,
                        rec.out.end()
                    ),
                ));
            }
        }
        if let Some((width, a, b)) = overlap {
            diags.push(
                Diagnostic::new(
                    Code::ChunkOverlap,
                    span(),
                    format!(
                        "at {width} workers, chunks [{}, {}) and [{}, {}) overlap",
                        a.offset,
                        a.end(),
                        b.offset,
                        b.end()
                    ),
                )
                .with_help("two workers would store the same elements: a write-write race"),
            );
        }
        if let Some((width, what)) = gap {
            diags.push(
                Diagnostic::new(
                    Code::ChunkGap,
                    span(),
                    format!("at {width} workers, {what}"),
                )
                .with_help("unwritten elements are stale reads for every consumer"),
            );
        }

        // V056: reassociation is legal only inside the tolerance tier. A
        // record may leave the exact tier (bit-identity against the
        // reference oracle) only if its op maps to a kernel class with a
        // registered tolerance bound; otherwise nothing defines how far
        // its outputs may drift and no differential can hold it.
        if rec.contract.reassociates() && tolerance_class(&rec.op).is_none() {
            diags.push(
                Diagnostic::new(
                    Code::FpReassociation,
                    span(),
                    format!(
                        "decomposition declares FP reassociation, but op `{}` \
                         maps to no registered tolerance class",
                        rec.op.kind_name()
                    ),
                )
                .with_help(
                    "register a tolerance bound in vit_tensor::ops::reference \
                     or keep the kernel in the exact tier",
                ),
            );
        }
    }

    // V053: replay the recorded liveness. A free is sound iff the range
    // was some earlier record's output, is not the plan output, and no
    // later record reads it before a fresh record's output covers the
    // read again (the allocator re-issuing the space).
    for (ri, rec) in recs.iter().enumerate() {
        for f in &rec.frees {
            if f.len == 0 {
                continue;
            }
            let span = Span::Node {
                index: ri,
                name: rec.name.clone(),
            };
            // The plan output is read once more at extraction, after the
            // last record. Freeing space that overlaps it is fine only
            // while a later record still redefines the whole output range
            // (the allocator recycling dead space *into* the output);
            // once the output value itself is live, freeing it strands
            // the extraction on reclaimed memory.
            let out = plan.output_range();
            if f.overlaps(&out)
                && !recs[ri + 1..]
                    .iter()
                    .any(|w| w.out.offset <= out.offset && out.end() <= w.out.end())
            {
                diags.push(Diagnostic::new(
                    Code::PrematureFree,
                    span,
                    format!(
                        "frees [{}, {}), which overlaps the live plan output",
                        f.offset,
                        f.end()
                    ),
                ));
                continue;
            }
            if !recs[..=ri].iter().any(|p| p.out.overlaps(f)) {
                diags.push(Diagnostic::new(
                    Code::PrematureFree,
                    span,
                    format!("frees [{}, {}), which no record owns", f.offset, f.end()),
                ));
                continue;
            }
            if let Some((si, inp)) = first_stale_reader(recs, ri, f) {
                diags.push(
                    Diagnostic::new(
                        Code::PrematureFree,
                        span,
                        format!(
                            "frees [{}, {}) but record {si} `{}` still reads [{}, {})",
                            f.offset,
                            f.end(),
                            recs[si].name,
                            inp.offset,
                            inp.end()
                        ),
                    )
                    .with_help("the arena could re-issue the range under the reader"),
                );
            }
        }
    }

    diags
}

/// The kernel class whose registered tolerance bound
/// ([`vit_tensor::ops::reference::tolerance`]) governs `op`'s outputs in
/// the tolerance tier, or `None` when the op has no class and must stay
/// in the exact (bit-identity) tier.
pub fn tolerance_class(op: &vit_graph::Op) -> Option<vit_tensor::ops::reference::KernelClass> {
    use vit_tensor::ops::reference::KernelClass;
    match op {
        vit_graph::Op::Conv2d { .. } => Some(KernelClass::Conv),
        vit_graph::Op::Linear { .. } => Some(KernelClass::Gemm),
        _ => None,
    }
}

/// The first record after `ri` that reads into the freed range `f`
/// without an intervening record's output covering that read (which
/// would mean the read targets a freshly re-issued value, not the freed
/// one).
fn first_stale_reader(recs: &[PlanRecord], ri: usize, f: &BufRange) -> Option<(usize, BufRange)> {
    for (si, reader) in recs.iter().enumerate().skip(ri + 1) {
        for inp in &reader.inputs {
            if !inp.overlaps(f) {
                continue;
            }
            let redefined = recs[ri + 1..si]
                .iter()
                .any(|w| w.out.offset <= inp.offset && inp.end() <= w.out.end());
            if !redefined {
                return Some((si, *inp));
            }
        }
    }
    None
}

/// The dynamic cross-check (`V059`): replays the plan against the debug
/// shadow-access tracker at each worker count in `widths` and reports a
/// divergence when the runtime witness observes a memory-discipline
/// violation although the static verdict (`V050`–`V053` in
/// `static_diags`) predicted none.
///
/// The converse — static findings with a clean shadow — is *not* a
/// divergence: the shadow tracker only sees elements that are actually
/// touched, so e.g. a chunk escaping into unowned space is invisible to
/// it while still statically unsound.
pub fn verify_shadow(
    plan: &ExecPlan,
    static_diags: &[Diagnostic],
    widths: &[usize],
) -> Vec<Diagnostic> {
    let predicted_dirty = static_diags.iter().any(|d| {
        matches!(
            d.code,
            Code::ChunkOverlap | Code::ChunkGap | Code::ExecAlias | Code::PrematureFree
        )
    });
    if predicted_dirty {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for &threads in widths {
        let violations = plan.shadow_replay(threads);
        if let Some(v) = violations.first() {
            diags.push(
                Diagnostic::new(
                    Code::ShadowDivergence,
                    Span::Global,
                    format!(
                        "static verdict is clean, but shadow replay at {threads} \
                         thread(s) observed {} violation(s), first: {v}",
                        violations.len()
                    ),
                )
                .with_help("the analyzer missed a hazard; treat the plan as unsound"),
            );
            break;
        }
    }
    diags
}

/// One audited hot-path source file, embedded at compile time so the
/// audit runs anywhere the verifier runs.
const AUDITED_SOURCES: [(&str, &str); 6] = [
    (
        "crates/tensor/src/par.rs",
        include_str!("../../tensor/src/par.rs"),
    ),
    (
        "crates/tensor/src/ops/conv.rs",
        include_str!("../../tensor/src/ops/conv.rs"),
    ),
    (
        "crates/tensor/src/ops/fused.rs",
        include_str!("../../tensor/src/ops/fused.rs"),
    ),
    (
        "crates/tensor/src/ops/pack.rs",
        include_str!("../../tensor/src/ops/pack.rs"),
    ),
    (
        "crates/tensor/src/ops/reference.rs",
        include_str!("../../tensor/src/ops/reference.rs"),
    ),
    (
        "crates/plan/src/lib.rs",
        include_str!("../../plan/src/lib.rs"),
    ),
];

/// How many lines above an `unsafe` token a `// SAFETY:` comment still
/// counts as documenting it.
const SAFETY_WINDOW: usize = 8;

/// Audits the embedded `vit-tensor`/`vit-plan` hot-path sources for
/// undocumented `unsafe` (`V057`) and unchecked indexing (`V058`).
pub fn audit_sources() -> Vec<Diagnostic> {
    AUDITED_SOURCES
        .iter()
        .flat_map(|(file, text)| audit_source(file, text))
        .collect()
}

/// Audits one source text (exposed for tests; [`audit_sources`] runs it
/// over the embedded hot-path files).
pub fn audit_source(file: &str, text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let code = line.trim();
        if code.starts_with("//") {
            continue;
        }
        let span = || Span::Source {
            file: file.to_string(),
            line: i + 1,
        };
        if has_word(code, "unsafe") {
            let documented = lines[i.saturating_sub(SAFETY_WINDOW)..=i]
                .iter()
                .any(|l| l.trim_start().starts_with("// SAFETY:"));
            if !documented {
                diags.push(
                    Diagnostic::new(
                        Code::UndocumentedUnsafe,
                        span(),
                        "`unsafe` without a `// SAFETY:` justification".to_string(),
                    )
                    .with_help("state the invariant that makes this sound"),
                );
            }
        }
        if code.contains("get_unchecked") || code.contains("unwrap_unchecked") {
            diags.push(
                Diagnostic::new(
                    Code::UncheckedIndex,
                    span(),
                    "unchecked indexing in a hot path".to_string(),
                )
                .with_help("use checked indexing; the bounds check is not the bottleneck"),
            );
        }
    }
    diags
}

/// Whether `line` contains `word` delimited by non-identifier characters
/// (so `unsafe_flag` or a string mentioning it does not count).
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident(bytes[start - 1]);
        let right_ok = end == bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// What the `--exec-safety` detail mode prints per artifact: how much
/// geometry and liveness the pass actually proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSafetySummary {
    /// Plan records analyzed.
    pub records: usize,
    /// Records with a parallel (row-tiled or explicit) decomposition.
    pub tiled: usize,
    /// Chunk ranges proved disjoint and covering, summed over all
    /// sampled worker counts.
    pub chunks_proved: usize,
    /// Compile-time reclamation decisions audited.
    pub frees_audited: usize,
    /// Records declaring FP reassociation (tolerance-tier routed).
    pub reassociating: usize,
}

impl fmt::Display for ExecSafetySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records ({} tiled), {} chunks proved, {} frees audited, {} reassociating",
            self.records, self.tiled, self.chunks_proved, self.frees_audited, self.reassociating
        )
    }
}

/// Tallies what the static pass proves over `plan` (for `--exec-safety`).
pub fn exec_safety_summary(plan: &ExecPlan) -> ExecSafetySummary {
    let mut s = ExecSafetySummary {
        records: plan.records().len(),
        ..Default::default()
    };
    for rec in plan.records() {
        if !matches!(rec.contract, vit_plan::ExecContract::Sequential) {
            s.tiled += 1;
        }
        for width in WIDTHS {
            s.chunks_proved += rec.contract.chunk_ranges(rec.out, width).len();
        }
        s.frees_audited += rec.frees.len();
        if rec.contract.reassociates() {
            s.reassociating += 1;
        }
    }
    s
}
