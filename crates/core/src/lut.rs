//! The Pareto look-up table at the heart of the DRT engine (block 'A' of
//! Figure 8): Pareto-optimal execution paths keyed by resource budget.

use crate::json::{self, Json};
use std::fmt;
use vit_models::{SegFormerDynamic, SwinDynamic};
use vit_resilience::{pareto_front, DynConfig, TradeoffPoint};

/// A serializable dynamic configuration (mirror of
/// [`vit_resilience::DynConfig`] with stable field names for the on-disk
/// LUT format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LutConfig {
    /// SegFormer execution path.
    SegFormer {
        /// Encoder depths.
        depths: [usize; 4],
        /// `Conv2DFuse` input channels.
        fuse_in_channels: usize,
        /// `Conv2DFuse` output channels.
        fuse_out_channels: usize,
        /// `DecodeLinear0` input channels.
        decode_linear0_in: usize,
    },
    /// Swin execution path.
    Swin {
        /// Encoder depths.
        depths: [usize; 4],
        /// `fpn_bottleneck_Conv2D` input channels.
        bottleneck_in_channels: usize,
    },
}

impl From<DynConfig> for LutConfig {
    fn from(c: DynConfig) -> Self {
        match c {
            DynConfig::SegFormer(d) => LutConfig::SegFormer {
                depths: d.depths,
                fuse_in_channels: d.fuse_in_channels,
                fuse_out_channels: d.fuse_out_channels,
                decode_linear0_in: d.decode_linear0_in,
            },
            DynConfig::Swin(d) => LutConfig::Swin {
                depths: d.depths,
                bottleneck_in_channels: d.bottleneck_in_channels,
            },
        }
    }
}

impl LutConfig {
    /// The SegFormer configuration, if this is one.
    pub fn as_segformer(&self) -> Option<SegFormerDynamic> {
        match self {
            LutConfig::SegFormer {
                depths,
                fuse_in_channels,
                fuse_out_channels,
                decode_linear0_in,
            } => Some(SegFormerDynamic {
                depths: *depths,
                fuse_in_channels: *fuse_in_channels,
                fuse_out_channels: *fuse_out_channels,
                decode_linear0_in: *decode_linear0_in,
            }),
            LutConfig::Swin { .. } => None,
        }
    }

    /// The Swin configuration, if this is one.
    pub fn as_swin(&self) -> Option<SwinDynamic> {
        match self {
            LutConfig::Swin {
                depths,
                bottleneck_in_channels,
            } => Some(SwinDynamic {
                depths: *depths,
                bottleneck_in_channels: *bottleneck_in_channels,
            }),
            LutConfig::SegFormer { .. } => None,
        }
    }
}

/// One LUT row: an execution path with its precomputed cost and accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct LutEntry {
    /// The execution path.
    pub config: LutConfig,
    /// Absolute resource cost (seconds, joules, or cycles, per the LUT's
    /// resource kind).
    pub resource: f64,
    /// Resource normalized to the full model.
    pub norm_resource: f64,
    /// Normalized mIoU estimate.
    pub norm_miou: f64,
}

/// Error returned when no execution path fits a budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetTooSmall {
    /// The requested budget.
    pub budget: f64,
    /// The cheapest available path's cost.
    pub cheapest: f64,
}

impl fmt::Display for BudgetTooSmall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget {} is below the cheapest execution path ({})",
            self.budget, self.cheapest
        )
    }
}

impl std::error::Error for BudgetTooSmall {}

/// Error returned when loading a LUT artifact fails — either the JSON is
/// malformed or the decoded table violates a LUT invariant. The engine
/// refuses to run on such a table: `lookup` assumes budget-sorted,
/// Pareto-consistent rows, and a violated invariant would silently return
/// sub-optimal configurations at serve time.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LutError {
    /// The input is not valid JSON.
    Parse(json::JsonParseError),
    /// The JSON is valid but does not have the LUT shape (missing or
    /// mistyped field, unknown config tag, wrong depths arity, ...).
    Schema(String),
    /// The table has no rows; a LUT must offer at least one execution path.
    Empty,
    /// A row's resource or accuracy is NaN or infinite.
    NonFinite {
        /// Index of the offending row.
        index: usize,
        /// Which field is non-finite.
        field: &'static str,
    },
    /// Rows are not strictly sorted by increasing resource (`lookup`'s
    /// early-exit scan requires it).
    NotBudgetSorted {
        /// Index of the row that is not more expensive than its predecessor.
        index: usize,
    },
    /// A more expensive row is not strictly more accurate than its
    /// predecessor, i.e. it is dominated and should have been pruned.
    NotParetoConsistent {
        /// Index of the dominated row.
        index: usize,
    },
}

impl fmt::Display for LutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LutError::Parse(e) => write!(f, "malformed LUT JSON: {e}"),
            LutError::Schema(msg) => write!(f, "LUT JSON has wrong shape: {msg}"),
            LutError::Empty => write!(f, "LUT has no entries"),
            LutError::NonFinite { index, field } => {
                write!(f, "LUT entry {index} has a non-finite `{field}`")
            }
            LutError::NotBudgetSorted { index } => write!(
                f,
                "LUT entry {index} is not strictly more expensive than its predecessor"
            ),
            LutError::NotParetoConsistent { index } => write!(
                f,
                "LUT entry {index} is dominated: more expensive but not more accurate"
            ),
        }
    }
}

impl std::error::Error for LutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LutError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<json::JsonParseError> for LutError {
    fn from(e: json::JsonParseError) -> Self {
        LutError::Parse(e)
    }
}

/// The Pareto LUT: rows sorted by increasing resource, each strictly more
/// accurate than the previous (invariant established at construction).
#[derive(Debug, Clone, PartialEq)]
pub struct Lut {
    /// Human-readable description (model + workload + resource kind).
    pub description: String,
    entries: Vec<LutEntry>,
}

impl Lut {
    /// Builds a LUT from sweep points: extracts the Pareto front and sorts
    /// it by resource.
    pub fn from_points(description: impl Into<String>, points: &[TradeoffPoint]) -> Self {
        let front = pareto_front(points);
        let entries = front
            .into_iter()
            .map(|p| LutEntry {
                config: p.config.into(),
                resource: p.resource,
                norm_resource: p.norm_resource,
                norm_miou: p.norm_miou,
            })
            .collect();
        Lut {
            description: description.into(),
            entries,
        }
    }

    /// Assembles a LUT from raw rows **without validating** the invariants
    /// [`Lut::lookup`] relies on — the escape hatch for verification
    /// tooling that must represent broken tables (both
    /// [`Lut::from_points`] and [`Lut::from_json`] refuse to). Run
    /// [`Lut::validate`] or the `vit-verify` LUT pass before serving from
    /// the result.
    pub fn from_entries_unchecked(description: impl Into<String>, entries: Vec<LutEntry>) -> Self {
        Lut {
            description: description.into(),
            entries,
        }
    }

    /// The LUT rows, cheapest first.
    pub fn entries(&self) -> &[LutEntry] {
        &self.entries
    }

    /// The accuracy-maximizing execution path that fits `budget`
    /// (the dynamic inference algorithm, block 'D' of Figure 8).
    ///
    /// # Errors
    ///
    /// Returns [`BudgetTooSmall`] when even the cheapest path exceeds the
    /// budget (the caller may still choose to run it, accepting a deadline
    /// miss — the engine surfaces that decision).
    pub fn lookup(&self, budget: f64) -> Result<&LutEntry, BudgetTooSmall> {
        let mut best: Option<&LutEntry> = None;
        for e in &self.entries {
            if e.resource <= budget {
                best = Some(e);
            } else {
                break;
            }
        }
        best.ok_or_else(|| BudgetTooSmall {
            budget,
            cheapest: self.entries.first().map_or(f64::INFINITY, |e| e.resource),
        })
    }

    /// Serializes the LUT to JSON (the precomputed artifact the runtime
    /// engine loads). Uses the externally-tagged layout, e.g.
    /// `"config": {"SegFormer": {"depths": [...], ...}}`.
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let config = match e.config {
                    LutConfig::SegFormer {
                        depths,
                        fuse_in_channels,
                        fuse_out_channels,
                        decode_linear0_in,
                    } => Json::Obj(vec![(
                        "SegFormer".into(),
                        Json::Obj(vec![
                            ("depths".into(), depths_json(&depths)),
                            ("fuse_in_channels".into(), usize_json(fuse_in_channels)),
                            ("fuse_out_channels".into(), usize_json(fuse_out_channels)),
                            ("decode_linear0_in".into(), usize_json(decode_linear0_in)),
                        ]),
                    )]),
                    LutConfig::Swin {
                        depths,
                        bottleneck_in_channels,
                    } => Json::Obj(vec![(
                        "Swin".into(),
                        Json::Obj(vec![
                            ("depths".into(), depths_json(&depths)),
                            (
                                "bottleneck_in_channels".into(),
                                usize_json(bottleneck_in_channels),
                            ),
                        ]),
                    )]),
                };
                Json::Obj(vec![
                    ("config".into(), config),
                    ("resource".into(), Json::Num(e.resource)),
                    ("norm_resource".into(), Json::Num(e.norm_resource)),
                    ("norm_miou".into(), Json::Num(e.norm_miou)),
                ])
            })
            .collect();
        json::write_pretty(&Json::Obj(vec![
            ("description".into(), Json::Str(self.description.clone())),
            ("entries".into(), Json::Arr(entries)),
        ]))
    }

    /// Loads a LUT from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`LutError`] when the input is not valid JSON, does not
    /// have the LUT shape, or decodes to a table that violates a LUT
    /// invariant (empty, not budget-sorted, not Pareto-consistent, or
    /// containing non-finite numbers).
    pub fn from_json(s: &str) -> Result<Self, LutError> {
        let doc = json::parse(s)?;
        let description = field(&doc, "description")?
            .as_str()
            .ok_or_else(|| LutError::Schema("`description` must be a string".into()))?
            .to_string();
        let rows = field(&doc, "entries")?
            .as_arr()
            .ok_or_else(|| LutError::Schema("`entries` must be an array".into()))?;
        let entries = rows
            .iter()
            .enumerate()
            .map(|(i, row)| decode_entry(row).map_err(|e| prefix_entry(i, e)))
            .collect::<Result<Vec<_>, _>>()?;
        let lut = Lut {
            description,
            entries,
        };
        lut.validate()?;
        Ok(lut)
    }

    /// Checks the LUT invariants `lookup` relies on: at least one row,
    /// finite numbers, rows strictly sorted by increasing resource, and
    /// strictly increasing accuracy (no dominated rows).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`LutError`].
    pub fn validate(&self) -> Result<(), LutError> {
        if self.entries.is_empty() {
            return Err(LutError::Empty);
        }
        for (i, e) in self.entries.iter().enumerate() {
            for (field, v) in [
                ("resource", e.resource),
                ("norm_resource", e.norm_resource),
                ("norm_miou", e.norm_miou),
            ] {
                if !v.is_finite() {
                    return Err(LutError::NonFinite { index: i, field });
                }
            }
        }
        for (i, w) in self.entries.windows(2).enumerate() {
            if w[1].resource <= w[0].resource {
                return Err(LutError::NotBudgetSorted { index: i + 1 });
            }
            if w[1].norm_miou <= w[0].norm_miou {
                return Err(LutError::NotParetoConsistent { index: i + 1 });
            }
        }
        Ok(())
    }

    /// Number of Pareto rows retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the LUT has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reduces the LUT to at most `n` rows, keeping the endpoints and the
    /// most evenly spread interior rows (the granularity ablation).
    pub fn downsample(&self, n: usize) -> Lut {
        if n == 0 || self.entries.len() <= n {
            return self.clone();
        }
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let idx = i * (self.entries.len() - 1) / (n - 1).max(1);
            entries.push(self.entries[idx].clone());
        }
        entries.dedup_by(|a, b| a.resource == b.resource);
        Lut {
            description: self.description.clone(),
            entries,
        }
    }
}

fn usize_json(v: usize) -> Json {
    Json::Int(v as i64)
}

fn depths_json(depths: &[usize; 4]) -> Json {
    Json::Arr(depths.iter().map(|&d| usize_json(d)).collect())
}

fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, LutError> {
    obj.get(name)
        .ok_or_else(|| LutError::Schema(format!("missing field `{name}`")))
}

fn prefix_entry(index: usize, e: LutError) -> LutError {
    match e {
        LutError::Schema(msg) => LutError::Schema(format!("entry {index}: {msg}")),
        other => other,
    }
}

fn decode_f64(obj: &Json, name: &str) -> Result<f64, LutError> {
    field(obj, name)?
        .as_f64()
        .ok_or_else(|| LutError::Schema(format!("`{name}` must be a number")))
}

fn decode_usize(obj: &Json, name: &str) -> Result<usize, LutError> {
    field(obj, name)?
        .as_usize()
        .ok_or_else(|| LutError::Schema(format!("`{name}` must be a non-negative integer")))
}

fn decode_depths(obj: &Json) -> Result<[usize; 4], LutError> {
    let arr = field(obj, "depths")?
        .as_arr()
        .ok_or_else(|| LutError::Schema("`depths` must be an array".into()))?;
    if arr.len() != 4 {
        return Err(LutError::Schema(format!(
            "`depths` must have 4 stages, got {}",
            arr.len()
        )));
    }
    let mut depths = [0usize; 4];
    for (i, v) in arr.iter().enumerate() {
        depths[i] = v
            .as_usize()
            .ok_or_else(|| LutError::Schema("`depths` elements must be non-negative".into()))?;
    }
    Ok(depths)
}

fn decode_config(config: &Json) -> Result<LutConfig, LutError> {
    match config {
        Json::Obj(fields) if fields.len() == 1 => {
            let (tag, body) = &fields[0];
            match tag.as_str() {
                "SegFormer" => Ok(LutConfig::SegFormer {
                    depths: decode_depths(body)?,
                    fuse_in_channels: decode_usize(body, "fuse_in_channels")?,
                    fuse_out_channels: decode_usize(body, "fuse_out_channels")?,
                    decode_linear0_in: decode_usize(body, "decode_linear0_in")?,
                }),
                "Swin" => Ok(LutConfig::Swin {
                    depths: decode_depths(body)?,
                    bottleneck_in_channels: decode_usize(body, "bottleneck_in_channels")?,
                }),
                other => Err(LutError::Schema(format!("unknown config tag `{other}`"))),
            }
        }
        _ => Err(LutError::Schema(
            "`config` must be an object with exactly one variant tag".into(),
        )),
    }
}

fn decode_entry(row: &Json) -> Result<LutEntry, LutError> {
    Ok(LutEntry {
        config: decode_config(field(row, "config")?)?,
        resource: decode_f64(row, "resource")?,
        norm_resource: decode_f64(row, "norm_resource")?,
        norm_miou: decode_f64(row, "norm_miou")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vit_models::SegFormerVariant;

    fn point(r: f64, a: f64) -> TradeoffPoint {
        TradeoffPoint {
            label: String::new(),
            config: DynConfig::SegFormer(SegFormerDynamic::with_depths_and_fuse(
                &SegFormerVariant::b2(),
                [2, 3, 5, 3],
                ((r * 3072.0) as usize / 4).max(1) * 4,
            )),
            resource: r,
            norm_resource: r,
            norm_miou: a,
        }
    }

    fn lut() -> Lut {
        Lut::from_points(
            "test",
            &[
                point(1.0, 1.0),
                point(0.8, 0.95),
                point(0.9, 0.5), // dominated
                point(0.6, 0.8),
                point(0.4, 0.6),
            ],
        )
    }

    #[test]
    fn lut_keeps_only_pareto_rows_sorted() {
        let l = lut();
        assert_eq!(l.len(), 4);
        for w in l.entries().windows(2) {
            assert!(w[0].resource < w[1].resource);
            assert!(w[0].norm_miou < w[1].norm_miou);
        }
    }

    #[test]
    fn lookup_maximizes_accuracy_within_budget() {
        let l = lut();
        assert_eq!(l.lookup(1.5).unwrap().norm_miou, 1.0);
        assert_eq!(l.lookup(0.85).unwrap().norm_miou, 0.95);
        assert_eq!(l.lookup(0.65).unwrap().norm_miou, 0.8);
        assert_eq!(l.lookup(0.4).unwrap().norm_miou, 0.6);
    }

    #[test]
    fn lookup_rejects_impossible_budget() {
        let l = lut();
        let err = l.lookup(0.1).unwrap_err();
        assert_eq!(err.cheapest, 0.4);
        assert!(err.to_string().contains("0.1"));
    }

    #[test]
    fn json_round_trip() {
        let l = lut();
        let s = l.to_json();
        let back = Lut::from_json(&s).unwrap();
        assert_eq!(l, back);
    }

    #[test]
    fn from_json_rejects_malformed_syntax() {
        for doc in [
            "",
            "{",
            "not json",
            "{\"description\": \"x\", \"entries\": [}",
        ] {
            assert!(
                matches!(Lut::from_json(doc), Err(LutError::Parse(_))),
                "{doc:?} should be a parse error"
            );
        }
    }

    #[test]
    fn from_json_rejects_wrong_shape() {
        let cases = [
            r#"{"entries": []}"#,                                      // missing description
            r#"{"description": "x"}"#,                                 // missing entries
            r#"{"description": 3, "entries": []}"#,                    // mistyped description
            r#"{"description": "x", "entries": 3}"#,                   // mistyped entries
            r#"{"description": "x", "entries": [{"resource": 1.0}]}"#, // missing config
        ];
        for doc in cases {
            assert!(
                matches!(Lut::from_json(doc), Err(LutError::Schema(_))),
                "{doc} should be a schema error"
            );
        }
        // Unknown variant tag and bad depths arity are schema errors too.
        let bad_tag = lut().to_json().replace("SegFormer", "ResNet");
        assert!(
            matches!(Lut::from_json(&bad_tag), Err(LutError::Schema(m)) if m.contains("ResNet"))
        );
    }

    #[test]
    fn from_json_rejects_invariant_violations() {
        let entry = |r: f64, a: f64| {
            format!(
                r#"{{"config": {{"Swin": {{"depths": [2, 2, 6, 2], "bottleneck_in_channels": 512}}}},
                     "resource": {r}, "norm_resource": {r}, "norm_miou": {a}}}"#
            )
        };
        let doc = |entries: &[String]| {
            format!(
                r#"{{"description": "t", "entries": [{}]}}"#,
                entries.join(",")
            )
        };

        assert_eq!(Lut::from_json(&doc(&[])), Err(LutError::Empty));
        assert_eq!(
            Lut::from_json(&doc(&[entry(0.8, 0.9), entry(0.5, 0.95)])),
            Err(LutError::NotBudgetSorted { index: 1 })
        );
        assert_eq!(
            Lut::from_json(&doc(&[entry(0.5, 0.9), entry(0.8, 0.9)])),
            Err(LutError::NotParetoConsistent { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_non_finite_rows() {
        let mut l = lut();
        l.entries[1].norm_miou = f64::NAN;
        assert_eq!(
            l.validate(),
            Err(LutError::NonFinite {
                index: 1,
                field: "norm_miou"
            })
        );
    }

    #[test]
    fn from_points_always_validates() {
        assert!(lut().validate().is_ok());
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let l = lut();
        let d = l.downsample(2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.entries()[0].resource, l.entries()[0].resource);
        assert_eq!(d.entries()[1].resource, l.entries()[l.len() - 1].resource);
        // Downsampling more rows than exist is identity.
        assert_eq!(l.downsample(100), l);
    }

    #[test]
    fn config_round_trips_through_lutconfig() {
        let d = SegFormerDynamic::with_depths_and_fuse(&SegFormerVariant::b2(), [2, 3, 5, 3], 1024);
        let lc: LutConfig = DynConfig::SegFormer(d).into();
        assert_eq!(lc.as_segformer().unwrap(), d);
        assert!(lc.as_swin().is_none());
    }
}
