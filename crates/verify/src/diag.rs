//! The diagnostics framework: typed lint codes, severities, spans, and a
//! [`Report`] that renders rustc-style human output or machine-readable
//! JSON.

use std::fmt;

/// Every lint the verifier can emit, each with a stable code, a fixed
/// severity, and a one-line invariant. Codes are grouped by pass:
/// `V00x` graph well-formedness, `V01x` liveness, `V02x` cost/LUT
/// soundness, `V03x` accelerator mapping, `V04x` plan equivalence,
/// `V05x` exec safety (parallel write-disjointness, reclamation
/// soundness, FP-determinism hazards, unsafe/indexing audit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// `V001` — a node's stored shape disagrees with re-running shape
    /// inference over its inputs.
    ShapeMismatch,
    /// `V002` — a structural edge invariant is broken: an input edge points
    /// at the node itself or a later node, an input/output id is out of
    /// range, or the graph input list names a non-input node.
    BadTopology,
    /// `V003` — shape inference fails outright for a node's operator and
    /// stored input shapes (wrong arity or incompatible shapes).
    InferFailure,
    /// `V004` — two nodes share a name, breaking weight sharing across
    /// dynamic execution paths.
    DuplicateName,
    /// `V005` — the graph has no output marked; nothing downstream can
    /// consume it.
    MissingOutput,
    /// `V006` — a decoder-role layer group is inconsistent with its
    /// operator classes (e.g. a `FuseConv` group with no convolution).
    RoleMismatch,
    /// `V010` — a node is unreachable from the graph output (and is not an
    /// input or an auxiliary head output): dead weight in every execution
    /// path.
    DeadNode,
    /// `V020` — per-node cost re-derivation disagrees with the profiler's
    /// summaries (totals, per-class partition, or encoder/decoder split).
    CostMismatch,
    /// `V021` — the Pareto front is not strictly monotone: a more expensive
    /// row is not strictly more accurate (or rows are unsorted).
    ParetoNonMonotone,
    /// `V022` — a LUT row carries a NaN or infinite number.
    NonFinite,
    /// `V023` — the LUT has no rows; the engine cannot serve from it.
    EmptyLut,
    /// `V024` — consecutive LUT rows leave a large relative budget gap, so
    /// budgets in the gap waste accuracy headroom.
    BudgetGap,
    /// `V025` — a `LutConfig` does not materialize into a well-formed graph
    /// for the engine's model family.
    ConfigInvalid,
    /// `V026` — a serve policy is infeasible against this LUT: a static
    /// policy indexes past the table, or the configured budget floor is
    /// below the cheapest execution path.
    PolicyInfeasible,
    /// `V027` — a normalized resource/accuracy value lies outside `(0, 1]`.
    NormOutOfRange,
    /// `V030` — a node maps to an empty accelerator tiling (a contraction
    /// with a zero dimension), which the simulator cannot schedule.
    EmptyTiling,
    /// `V031` — a contraction pads the vector lanes so heavily that MAC
    /// utilization falls below the configured floor.
    VectorUnderutilized,
    /// `V040` — a compiled plan's cost totals (FLOPs, parameters, DRAM
    /// bytes) disagree with the graph it was lowered from.
    PlanCostMismatch,
    /// `V041` — plan coverage is broken: a non-input graph node is covered
    /// by no plan record (neither as a record nor fused into one), covered
    /// twice, or a record names a node the graph does not have.
    PlanCoverage,
    /// `V042` — the plan's arena layout is unsound: two simultaneously
    /// live buffer ranges overlap, or a range exceeds the arena.
    PlanArenaOverlap,
    /// `V043` — a plan record's shapes or buffer wiring disagree with the
    /// graph: an output shape differs from the node's stored shape, a
    /// range's length differs from its shape's element count, or an input
    /// range is not the producing record's output range.
    PlanShapeMismatch,
    /// `V050` — a record's parallel chunk decomposition writes the same
    /// arena element from two chunks (write-write race under any pool
    /// with more than one worker).
    ChunkOverlap,
    /// `V051` — a record's chunk decomposition does not cover its whole
    /// output range, or a chunk escapes it: some elements are never
    /// written (stale reads downstream) or clobber a neighbor.
    ChunkGap,
    /// `V052` — a record's output range overlaps one of its own input
    /// ranges: the kernel would read elements it is concurrently
    /// overwriting (read-write race even single-threaded).
    ExecAlias,
    /// `V053` — the plan's recorded liveness frees a range before its
    /// last reader, frees the plan output, or frees a range no earlier
    /// record owns: reclamation could re-issue live memory.
    PrematureFree,
    // `V054`/`V055` (wavefront scheduler in-degree/consumer counters)
    // are retired with the scheduler they audited; the codes are not
    // reused.
    /// `V056` — a record's decomposition declares FP reassociation, but
    /// its op maps to no kernel class with a registered tolerance bound
    /// (`vit_tensor::ops::reference::tolerance`): the record has left the
    /// bit-identity tier with no differential oracle to land on.
    FpReassociation,
    /// `V057` — an `unsafe` block in a `vit-tensor`/`vit-plan` hot path
    /// carries no `// SAFETY:` justification.
    UndocumentedUnsafe,
    /// `V058` — unchecked indexing (`get_unchecked`/`unwrap_unchecked`)
    /// in a hot path: out-of-bounds becomes UB instead of a panic.
    UncheckedIndex,
    /// `V059` — the debug shadow-access replay observed a violation the
    /// static exec-safety verdict did not predict (or vice versa): the
    /// analyzer and the runtime disagree about the plan's discipline.
    ShadowDivergence,
}

impl Code {
    /// All codes, in code order (for documentation and exhaustive tests).
    pub const ALL: [Code; 29] = [
        Code::ShapeMismatch,
        Code::BadTopology,
        Code::InferFailure,
        Code::DuplicateName,
        Code::MissingOutput,
        Code::RoleMismatch,
        Code::DeadNode,
        Code::CostMismatch,
        Code::ParetoNonMonotone,
        Code::NonFinite,
        Code::EmptyLut,
        Code::BudgetGap,
        Code::ConfigInvalid,
        Code::PolicyInfeasible,
        Code::NormOutOfRange,
        Code::EmptyTiling,
        Code::VectorUnderutilized,
        Code::PlanCostMismatch,
        Code::PlanCoverage,
        Code::PlanArenaOverlap,
        Code::PlanShapeMismatch,
        Code::ChunkOverlap,
        Code::ChunkGap,
        Code::ExecAlias,
        Code::PrematureFree,
        Code::FpReassociation,
        Code::UndocumentedUnsafe,
        Code::UncheckedIndex,
        Code::ShadowDivergence,
    ];

    /// The stable diagnostic code, e.g. `V001`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::ShapeMismatch => "V001",
            Code::BadTopology => "V002",
            Code::InferFailure => "V003",
            Code::DuplicateName => "V004",
            Code::MissingOutput => "V005",
            Code::RoleMismatch => "V006",
            Code::DeadNode => "V010",
            Code::CostMismatch => "V020",
            Code::ParetoNonMonotone => "V021",
            Code::NonFinite => "V022",
            Code::EmptyLut => "V023",
            Code::BudgetGap => "V024",
            Code::ConfigInvalid => "V025",
            Code::PolicyInfeasible => "V026",
            Code::NormOutOfRange => "V027",
            Code::EmptyTiling => "V030",
            Code::VectorUnderutilized => "V031",
            Code::PlanCostMismatch => "V040",
            Code::PlanCoverage => "V041",
            Code::PlanArenaOverlap => "V042",
            Code::PlanShapeMismatch => "V043",
            Code::ChunkOverlap => "V050",
            Code::ChunkGap => "V051",
            Code::ExecAlias => "V052",
            Code::PrematureFree => "V053",
            Code::FpReassociation => "V056",
            Code::UndocumentedUnsafe => "V057",
            Code::UncheckedIndex => "V058",
            Code::ShadowDivergence => "V059",
        }
    }

    /// The severity this lint always carries.
    pub fn severity(&self) -> Severity {
        match self {
            Code::MissingOutput
            | Code::RoleMismatch
            | Code::DeadNode
            | Code::BudgetGap
            | Code::NormOutOfRange
            | Code::VectorUnderutilized
            | Code::FpReassociation
            | Code::UndocumentedUnsafe
            | Code::UncheckedIndex => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line statement of the invariant the lint protects.
    pub fn invariant(&self) -> &'static str {
        match self {
            Code::ShapeMismatch => "stored node shapes equal re-inferred shapes",
            Code::BadTopology => "edges are topological and all ids are in range",
            Code::InferFailure => "every node's operator accepts its input shapes",
            Code::DuplicateName => "node names are unique within a graph",
            Code::MissingOutput => "a model graph marks its output",
            Code::RoleMismatch => "decoder-role layer groups match their operator classes",
            Code::DeadNode => "every node is reachable from an output",
            Code::CostMismatch => "graph cost totals equal profiler summaries exactly",
            Code::ParetoNonMonotone => "LUT rows are strictly (cost up => accuracy up)",
            Code::NonFinite => "LUT rows hold finite numbers only",
            Code::EmptyLut => "a LUT offers at least one execution path",
            Code::BudgetGap => "consecutive LUT budgets leave no large coverage gap",
            Code::ConfigInvalid => "every LUT config materializes a well-formed graph",
            Code::PolicyInfeasible => "serve policies are satisfiable against the LUT",
            Code::NormOutOfRange => "normalized resource/accuracy lie in (0, 1]",
            Code::EmptyTiling => "every MAC contraction has nonzero dimensions",
            Code::VectorUnderutilized => {
                "vector-lane padding keeps MAC utilization above the floor"
            }
            Code::PlanCostMismatch => "plan cost totals equal graph cost totals exactly",
            Code::PlanCoverage => "every non-input graph node is covered by exactly one record",
            Code::PlanArenaOverlap => "simultaneously live arena ranges never overlap",
            Code::PlanShapeMismatch => "record shapes and buffer wiring match the graph",
            Code::ChunkOverlap => "parallel chunks of one record never write the same element",
            Code::ChunkGap => "chunk decompositions partition the output range exactly",
            Code::ExecAlias => "a record's output range never overlaps its inputs",
            Code::PrematureFree => "a range is freed only after its last reader",
            Code::FpReassociation => {
                "every reassociating decomposition maps to a registered tolerance class"
            }
            Code::UndocumentedUnsafe => "every hot-path unsafe block carries a SAFETY comment",
            Code::UncheckedIndex => "hot paths use checked indexing only",
            Code::ShadowDivergence => "shadow replay agrees with the static exec-safety verdict",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but servable; fails `--deny-warnings` runs only.
    Warning,
    /// A broken invariant; the artifact must not be served.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the analyzed artifact a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The artifact as a whole.
    Global,
    /// A graph node, by topological index and name.
    Node {
        /// Topological node index.
        index: usize,
        /// Node name.
        name: String,
    },
    /// A LUT row, by index (cheapest first).
    Entry {
        /// Row index.
        index: usize,
    },
    /// A serve policy, by its debug rendering.
    Policy {
        /// The policy the diagnostic is about.
        policy: String,
    },
    /// A source location in the workspace (unsafe/indexing audit lints).
    Source {
        /// Workspace-relative file path.
        file: String,
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Global => f.write_str("(whole artifact)"),
            Span::Node { index, name } => write!(f, "node {index} `{name}`"),
            Span::Entry { index } => write!(f, "LUT entry {index}"),
            Span::Policy { policy } => write!(f, "policy {policy}"),
            Span::Source { file, line } => write!(f, "{file}:{line}"),
        }
    }
}

/// One finding: a lint code bound to a span, with a message and an
/// optional help line.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: Code,
    /// Its severity (always `code.severity()`).
    pub severity: Severity,
    /// Where it points.
    pub span: Span,
    /// What is wrong, concretely.
    pub message: String,
    /// How to fix it, when the pass knows.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic for `code` at `span`.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        write!(f, "  --> {}", self.span)?;
        if let Some(h) = &self.help {
            write!(f, "\n  = help: {h}")?;
        }
        Ok(())
    }
}

/// The outcome of verifying one artifact: every diagnostic from every
/// pass that ran over it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// What was analyzed, e.g. `segformer-b0 64x64` or a LUT description.
    pub target: String,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `target`.
    pub fn new(target: impl Into<String>) -> Self {
        Report {
            target: target.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a pass's findings.
    pub fn extend(&mut self, diags: Vec<Diagnostic>) {
        self.diagnostics.extend(diags);
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any finding carries the given code.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Whether the artifact passed: no errors, and no warnings either when
    /// `deny_warnings` is set.
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Renders the report in rustc style, one block per diagnostic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n    in: {}\n", self.target));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            self.target,
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// Renders the report as a JSON object (machine-readable sibling of
    /// [`Report::render`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"target\": {}, ", json_str(&self.target)));
        out.push_str(&format!(
            "\"errors\": {}, \"warnings\": {}, ",
            self.errors(),
            self.warnings()
        ));
        out.push_str("\"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"code\": \"{}\", \"severity\": \"{}\", \"span\": {}, \"message\": {}",
                d.code,
                d.severity,
                span_json(&d.span),
                json_str(&d.message)
            ));
            if let Some(h) = &d.help {
                out.push_str(&format!(", \"help\": {}", json_str(h)));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn span_json(span: &Span) -> String {
    match span {
        Span::Global => "{\"kind\": \"global\"}".to_string(),
        Span::Node { index, name } => format!(
            "{{\"kind\": \"node\", \"index\": {index}, \"name\": {}}}",
            json_str(name)
        ),
        Span::Entry { index } => format!("{{\"kind\": \"entry\", \"index\": {index}}}"),
        Span::Policy { policy } => {
            format!("{{\"kind\": \"policy\", \"policy\": {}}}", json_str(policy))
        }
        Span::Source { file, line } => format!(
            "{{\"kind\": \"source\", \"file\": {}, \"line\": {line}}}",
            json_str(file)
        ),
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with('V'));
            assert!(!c.invariant().is_empty());
        }
        assert_eq!(seen.len(), Code::ALL.len());
    }

    #[test]
    fn report_counts_and_deny_warnings() {
        let mut r = Report::new("t");
        assert!(r.is_clean(true));
        r.extend(vec![Diagnostic::new(
            Code::DeadNode,
            Span::Node {
                index: 3,
                name: "x".into(),
            },
            "unreachable",
        )]);
        assert!(r.is_clean(false));
        assert!(!r.is_clean(true));
        r.extend(vec![Diagnostic::new(Code::EmptyLut, Span::Global, "empty")]);
        assert_eq!((r.errors(), r.warnings()), (1, 1));
        assert!(!r.is_clean(false));
        assert!(r.has(Code::DeadNode) && r.has(Code::EmptyLut));
        assert!(!r.has(Code::ShapeMismatch));
    }

    #[test]
    fn render_mentions_code_span_and_help() {
        let d = Diagnostic::new(
            Code::ShapeMismatch,
            Span::Node {
                index: 5,
                name: "encoder.block0".into(),
            },
            "stored [1, 2] vs inferred [1, 3]",
        )
        .with_help("rebuild the graph through vit_models");
        let mut r = Report::new("segformer-b0");
        r.extend(vec![d]);
        let s = r.render();
        assert!(s.contains("error[V001]"));
        assert!(s.contains("node 5 `encoder.block0`"));
        assert!(s.contains("help: rebuild"));
        assert!(s.contains("1 error(s), 0 warning(s)"));
    }

    #[test]
    fn json_escapes_and_structure() {
        let d = Diagnostic::new(Code::EmptyLut, Span::Global, "has \"quotes\"\nand newline");
        let mut r = Report::new("lut");
        r.extend(vec![d]);
        let j = r.to_json();
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"code\": \"V023\""));
        assert!(j.contains("\"kind\": \"global\""));
    }
}
