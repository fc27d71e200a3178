//! Chaos scenarios as committed JSON fixtures.
//!
//! A [`ChaosScenario`] bundles everything a deterministic chaos replay
//! needs — the serving configuration (including the [`FaultPlan`]), the
//! simulator's [`SimModel`] and the exact arrival trace — in a stable JSON
//! encoding, so a scenario found interesting once (a regression, a
//! pathological burst) can be committed to the repository and replayed
//! byte-for-byte in CI forever. Decoding validates: a scenario that
//! [`ServerConfig::validate`] or the model's ranges reject is a
//! [`ScenarioError`], not a later panic in the simulator. The five
//! [`ServerConfig`] values the simulator does not model (see [`crate::sim`])
//! are not encoded and decode to their defaults. Serialization uses the
//! workspace's own dependency-free [`vit_drt::json`] module.

use crate::config::{BatchConfig, ConfigError, ServerConfig, TenantSpec};
use crate::policy::{RecoveryPolicy, SchedulePolicy};
use crate::request::TenantId;
use crate::server::Calibration;
use crate::sim::{SimArrival, SimModel};
use std::fmt;
use vit_drt::json::{parse, write_pretty, Json, JsonParseError};
use vit_fault::FaultPlan;

/// A named, replayable chaos experiment: configuration plus arrivals.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Human-readable scenario name (shows up in reports).
    pub name: String,
    /// The serving configuration, fault plan included.
    pub config: ServerConfig,
    /// The simulator's executor rate, batch marginal and fleet width.
    pub model: SimModel,
    /// The exact arrival trace to replay.
    pub arrivals: Vec<SimArrival>,
}

/// Error decoding a [`ChaosScenario`] from JSON.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The document is not syntactically valid JSON.
    Parse(JsonParseError),
    /// A required field is missing or has the wrong type/value.
    Malformed {
        /// Dotted path of the offending field.
        field: String,
    },
    /// The decoded serving configuration fails [`ServerConfig::validate`].
    Config(ConfigError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario is not valid JSON: {e}"),
            ScenarioError::Malformed { field } => {
                write!(f, "scenario field `{field}` is missing or malformed")
            }
            ScenarioError::Config(e) => write!(f, "scenario config is invalid: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Parse(e) => Some(e),
            ScenarioError::Config(e) => Some(e),
            ScenarioError::Malformed { .. } => None,
        }
    }
}

impl From<JsonParseError> for ScenarioError {
    fn from(e: JsonParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

fn malformed(field: &str) -> ScenarioError {
    ScenarioError::Malformed {
        field: field.to_string(),
    }
}

/// The member of `obj` named by the last segment of the dotted `path`; an
/// error names the whole path.
fn need<'j>(obj: &'j Json, path: &str) -> Result<&'j Json, ScenarioError> {
    let key = path.rsplit('.').next().unwrap_or(path);
    obj.get(key).ok_or_else(|| malformed(path))
}

fn need_f64(obj: &Json, path: &str) -> Result<f64, ScenarioError> {
    need(obj, path)?.as_f64().ok_or_else(|| malformed(path))
}

fn need_usize(obj: &Json, path: &str) -> Result<usize, ScenarioError> {
    need(obj, path)?.as_usize().ok_or_else(|| malformed(path))
}

fn need_u32(obj: &Json, path: &str) -> Result<u32, ScenarioError> {
    u32::try_from(need_usize(obj, path)?).map_err(|_| malformed(path))
}

/// A `u64` encodes as an integer when it fits `i64`, else as a decimal
/// string — JSON numbers cannot carry the full `u64` range faithfully.
fn u64_to_json(v: u64) -> Json {
    match i64::try_from(v) {
        Ok(i) => Json::Int(i),
        Err(_) => Json::Str(v.to_string()),
    }
}

fn json_to_u64(j: &Json, field: &str) -> Result<u64, ScenarioError> {
    match j {
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        Json::Str(s) => s.parse().map_err(|_| malformed(field)),
        _ => Err(malformed(field)),
    }
}

fn policy_to_json(policy: SchedulePolicy) -> Json {
    let tag = |t: &str| ("type".to_string(), Json::Str(t.to_string()));
    match policy {
        SchedulePolicy::DrtDynamic => Json::Obj(vec![tag("drt_dynamic")]),
        // `static_full` sentinels `usize::MAX`, which no JSON integer can
        // hold — encode it by name.
        p if p == SchedulePolicy::static_full() => Json::Obj(vec![tag("static_full")]),
        SchedulePolicy::Static { entry_index } => Json::Obj(vec![
            tag("static"),
            ("entry_index".to_string(), Json::Int(entry_index as i64)),
        ]),
    }
}

fn policy_from_json(j: &Json) -> Result<SchedulePolicy, ScenarioError> {
    match j.get("type").and_then(Json::as_str) {
        Some("drt_dynamic") => Ok(SchedulePolicy::DrtDynamic),
        Some("static_full") => Ok(SchedulePolicy::static_full()),
        Some("static") => Ok(SchedulePolicy::Static {
            entry_index: need_usize(j, "config.policy.entry_index")?,
        }),
        _ => Err(malformed("config.policy")),
    }
}

fn recovery_to_json(recovery: RecoveryPolicy) -> Json {
    let tag = |t: &str| ("type".to_string(), Json::Str(t.to_string()));
    match recovery {
        RecoveryPolicy::FailFast => Json::Obj(vec![tag("fail_fast")]),
        RecoveryPolicy::DegradedRetry { max_retries } => Json::Obj(vec![
            tag("degraded_retry"),
            ("max_retries".to_string(), Json::Int(max_retries as i64)),
        ]),
    }
}

fn recovery_from_json(j: &Json) -> Result<RecoveryPolicy, ScenarioError> {
    match j.get("type").and_then(Json::as_str) {
        Some("fail_fast") => Ok(RecoveryPolicy::FailFast),
        Some("degraded_retry") => Ok(RecoveryPolicy::DegradedRetry {
            max_retries: need_u32(j, "config.recovery.max_retries")?,
        }),
        _ => Err(malformed("config.recovery")),
    }
}

fn fault_to_json(plan: &FaultPlan) -> Json {
    Json::Obj(vec![
        ("seed".to_string(), u64_to_json(plan.seed)),
        ("crash_rate".to_string(), Json::Num(plan.crash_rate)),
        ("bitflip_rate".to_string(), Json::Num(plan.bitflip_rate)),
        ("stall_rate".to_string(), Json::Num(plan.stall_rate)),
        ("stall_factor".to_string(), Json::Num(plan.stall_factor)),
        ("replay_rate".to_string(), Json::Num(plan.replay_rate)),
    ])
}

fn fault_from_json(j: &Json) -> Result<FaultPlan, ScenarioError> {
    let num = |k: &str| need_f64(j, &format!("config.fault.{k}"));
    Ok(FaultPlan {
        seed: json_to_u64(need(j, "config.fault.seed")?, "config.fault.seed")?,
        crash_rate: num("crash_rate")?,
        bitflip_rate: num("bitflip_rate")?,
        stall_rate: num("stall_rate")?,
        stall_factor: num("stall_factor")?,
        replay_rate: num("replay_rate")?,
    })
}

impl ChaosScenario {
    /// Serializes the scenario as pretty-printed JSON (stable layout: the
    /// same scenario always produces the same bytes). Fleet-scale fields
    /// introduced after the format froze (`max_batch`, `batch_marginal`,
    /// `replicas`, `tenants`) are encoded only when they differ from their
    /// defaults, so scenarios committed before they existed re-encode to
    /// the identical bytes.
    pub fn to_json(&self) -> String {
        let (config, model) = (&self.config, &self.model);
        let ft = &config.fault_tolerance;
        let fault = match &ft.fault {
            Some(plan) => fault_to_json(plan),
            None => Json::Null,
        };
        let arrivals = Json::Arr(
            self.arrivals
                .iter()
                .map(|a| {
                    let mut fields = vec![
                        ("time".to_string(), Json::Num(a.time)),
                        ("slack".to_string(), Json::Num(a.slack)),
                    ];
                    if a.tenant != TenantId::default() {
                        fields.push(("tenant".to_string(), Json::Int(i64::from(a.tenant.0))));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        );
        let mut config_fields = vec![
            ("workers".to_string(), Json::Int(config.workers as i64)),
            (
                "queue_depth".to_string(),
                Json::Int(config.queue_depth as i64),
            ),
            ("policy".to_string(), policy_to_json(config.policy)),
            (
                "secs_per_unit".to_string(),
                Json::Num(model.calibration.secs_per_unit),
            ),
            ("recovery".to_string(), recovery_to_json(ft.recovery)),
            ("watchdog_grace".to_string(), Json::Num(ft.watchdog_grace)),
            ("fault".to_string(), fault),
        ];
        let max_batch = config.batching.max_batch;
        if max_batch != BatchConfig::default().max_batch {
            config_fields.push(("max_batch".to_string(), Json::Int(max_batch as i64)));
        }
        let defaults = SimModel::new(model.calibration);
        if model.batch_marginal != defaults.batch_marginal {
            config_fields.push((
                "batch_marginal".to_string(),
                Json::Num(model.batch_marginal),
            ));
        }
        if model.replicas != defaults.replicas {
            config_fields.push(("replicas".to_string(), Json::Int(model.replicas as i64)));
        }
        let tenants = &config.tenancy.tenants;
        if !tenants.is_empty() {
            config_fields.push((
                "tenants".to_string(),
                Json::Arr(
                    tenants
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("id".to_string(), Json::Int(i64::from(t.id.0))),
                                ("weight".to_string(), Json::Num(t.weight)),
                                ("max_queue_share".to_string(), Json::Num(t.max_queue_share)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        let doc = Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("config".to_string(), Json::Obj(config_fields)),
            ("arrivals".to_string(), arrivals),
        ]);
        let mut out = write_pretty(&doc);
        out.push('\n');
        out
    }

    /// Decodes a scenario from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on invalid JSON, a missing/malformed
    /// field, an out-of-range model value (`secs_per_unit` not positive,
    /// `batch_marginal` negative or non-finite, zero `replicas`), or a
    /// configuration [`ServerConfig::validate`] rejects.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let doc = parse(text)?;
        let name = need(&doc, "name")?
            .as_str()
            .ok_or_else(|| malformed("name"))?
            .to_string();
        let cfg = need(&doc, "config")?;
        let fault = match need(cfg, "config.fault")? {
            Json::Null => None,
            j => Some(fault_from_json(j)?),
        };
        let mut config = ServerConfig {
            workers: need_usize(cfg, "config.workers")?,
            queue_depth: need_usize(cfg, "config.queue_depth")?,
            policy: policy_from_json(need(cfg, "config.policy")?)?,
            ..ServerConfig::default()
        };
        let mut model = SimModel::new(Calibration {
            secs_per_unit: need_f64(cfg, "config.secs_per_unit")?,
        });
        let ft = &mut config.fault_tolerance;
        ft.fault = fault;
        ft.recovery = recovery_from_json(need(cfg, "config.recovery")?)?;
        ft.watchdog_grace = need_f64(cfg, "config.watchdog_grace")?;
        // Fleet-scale fields are optional: absent means the pre-fleet
        // defaults, keeping old committed scenarios decodable.
        if cfg.get("max_batch").is_some() {
            config.batching.max_batch = need_usize(cfg, "config.max_batch")?;
        }
        if cfg.get("batch_marginal").is_some() {
            model.batch_marginal = need_f64(cfg, "config.batch_marginal")?;
        }
        if cfg.get("replicas").is_some() {
            model.replicas = need_usize(cfg, "config.replicas")?;
        }
        if let Some(tenants) = cfg.get("tenants") {
            config.tenancy.tenants = tenants
                .as_arr()
                .ok_or_else(|| malformed("config.tenants"))?
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let at = |k: &str| format!("config.tenants[{i}].{k}");
                    Ok(TenantSpec::new(TenantId(need_u32(t, &at("id"))?))
                        .with_weight(need_f64(t, &at("weight"))?)
                        .with_queue_share(need_f64(t, &at("max_queue_share"))?))
                })
                .collect::<Result<Vec<_>, ScenarioError>>()?;
        }
        if let Some(field) = model.invalid_field() {
            return Err(malformed(&format!("config.{field}")));
        }
        config.validate().map_err(ScenarioError::Config)?;
        let arrivals = need(&doc, "arrivals")?
            .as_arr()
            .ok_or_else(|| malformed("arrivals"))?
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let at = |k: &str| format!("arrivals[{i}].{k}");
                let arrival =
                    SimArrival::new(need_f64(a, &at("time"))?, need_f64(a, &at("slack"))?);
                match a.get("tenant") {
                    Some(_) => Ok(arrival.with_tenant(TenantId(need_u32(a, &at("tenant"))?))),
                    None => Ok(arrival),
                }
            })
            .collect::<Result<Vec<_>, ScenarioError>>()?;
        Ok(ChaosScenario {
            name,
            config,
            model,
            arrivals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> ChaosScenario {
        ChaosScenario {
            name: "burst with crashes".to_string(),
            config: ServerConfig::builder()
                .workers(2)
                .queue_depth(16)
                .fault(FaultPlan {
                    seed: 42,
                    crash_rate: 0.1,
                    bitflip_rate: 0.05,
                    stall_rate: 0.05,
                    stall_factor: 6.0,
                    replay_rate: 0.02,
                })
                .recovery(RecoveryPolicy::DegradedRetry { max_retries: 2 })
                .build()
                .unwrap(),
            model: SimModel::new(Calibration::from_secs_per_unit(1.0)),
            arrivals: vec![SimArrival::new(0.0, 5.0), SimArrival::new(1.5, 4.25)],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let s = scenario();
        let text = s.to_json();
        let back = ChaosScenario::from_json(&text).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.config.workers, s.config.workers);
        assert_eq!(back.config.queue_depth, s.config.queue_depth);
        assert_eq!(back.config.policy, s.config.policy);
        assert_eq!(
            back.model.calibration.secs_per_unit,
            s.model.calibration.secs_per_unit
        );
        let (ft, want) = (&back.config.fault_tolerance, &s.config.fault_tolerance);
        assert_eq!(ft.recovery, want.recovery);
        assert_eq!(ft.watchdog_grace, want.watchdog_grace);
        assert_eq!(ft.fault, want.fault);
        assert_eq!(back.arrivals, s.arrivals);
        // And the encoding itself is a fixed point: re-serializing the
        // decoded scenario reproduces the bytes exactly.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn clean_scenario_has_null_fault() {
        let mut s = scenario();
        s.config.fault_tolerance.fault = None;
        let text = s.to_json();
        assert!(text.contains("\"fault\": null"));
        let back = ChaosScenario::from_json(&text).unwrap();
        assert_eq!(back.config.fault_tolerance.fault, None);
    }

    #[test]
    fn default_fleet_fields_are_not_encoded() {
        // Scenarios predating batching/tenancy must re-encode to the same
        // bytes: the new fields appear only when non-default.
        let text = scenario().to_json();
        for frozen in ["max_batch", "batch_marginal", "replicas", "tenants"] {
            assert!(!text.contains(frozen), "default {frozen} leaked into JSON");
        }
    }

    #[test]
    fn fleet_fields_round_trip_when_set() {
        let mut s = scenario();
        s.config.batching.max_batch = 8;
        s.config.tenancy.tenants = vec![
            TenantSpec::new(TenantId(1))
                .with_weight(2.0)
                .with_queue_share(0.5),
            TenantSpec::new(TenantId(2)),
        ];
        s.model.batch_marginal = 0.5;
        s.model.replicas = 4;
        s.arrivals = vec![
            SimArrival::new(0.0, 5.0).with_tenant(TenantId(1)),
            SimArrival::new(1.0, 5.0).with_tenant(TenantId(2)),
            SimArrival::new(2.0, 5.0),
        ];
        let text = s.to_json();
        let back = ChaosScenario::from_json(&text).unwrap();
        assert_eq!(back.config.batching.max_batch, 8);
        assert_eq!(back.model.batch_marginal, 0.5);
        assert_eq!(back.model.replicas, 4);
        assert_eq!(back.config.tenancy, s.config.tenancy);
        assert_eq!(back.arrivals, s.arrivals);
        assert_eq!(back.to_json(), text, "non-default encoding is stable too");
    }

    #[test]
    fn static_full_policy_round_trips_by_name() {
        let mut s = scenario();
        s.config.policy = SchedulePolicy::static_full();
        let back = ChaosScenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.config.policy, SchedulePolicy::static_full());
    }

    #[test]
    fn malformed_scenarios_name_the_field() {
        let err = ChaosScenario::from_json("{\"name\": \"x\"}").unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Malformed {
                field: "config".to_string()
            }
        );
        assert!(ChaosScenario::from_json("not json").is_err());
        let text = scenario().to_json();
        let missing = |what: &str| {
            let text = text.replacen(what, "\"unknown\":", 1);
            match ChaosScenario::from_json(&text).unwrap_err() {
                ScenarioError::Malformed { field } => field,
                other => panic!("unexpected {other}"),
            }
        };
        assert_eq!(missing("\"seed\":"), "config.fault.seed");
        assert_eq!(missing("\"type\":"), "config.policy");
        assert_eq!(missing("\"max_retries\":"), "config.recovery.max_retries");
        assert_eq!(missing("\"slack\":"), "arrivals[0].slack");
        assert_eq!(
            err.to_string(),
            "scenario field `config` is missing or malformed"
        );

        // Values that decode but that the simulator cannot run are typed
        // errors at decode time, not panics in `simulate_outcomes`.
        let decode = |edit: fn(&mut ChaosScenario)| {
            let mut s = scenario();
            edit(&mut s);
            ChaosScenario::from_json(&s.to_json()).unwrap_err()
        };
        let field = |f: &str| ScenarioError::Malformed {
            field: f.to_string(),
        };
        assert_eq!(
            decode(|s| s.model.calibration.secs_per_unit = 0.0),
            field("config.secs_per_unit")
        );
        assert_eq!(
            decode(|s| s.model.calibration.secs_per_unit = -1.0),
            field("config.secs_per_unit")
        );
        assert_eq!(
            decode(|s| s.model.batch_marginal = -0.5),
            field("config.batch_marginal")
        );
        assert_eq!(decode(|s| s.model.replicas = 0), field("config.replicas"));
        // JSON has no infinity, but an overflowing literal decodes to one.
        let text = scenario().to_json().replace(
            "\"fault\": {",
            "\"batch_marginal\": 1e999,\n    \"fault\": {",
        );
        assert_eq!(
            ChaosScenario::from_json(&text).unwrap_err(),
            field("config.batch_marginal")
        );

        assert_eq!(
            decode(|s| s.config.workers = 0),
            ScenarioError::Config(ConfigError::ZeroWorkers)
        );
        assert!(matches!(
            decode(|s| s.config.fault_tolerance.fault.as_mut().unwrap().crash_rate = 0.9),
            ScenarioError::Config(ConfigError::BadFaultPlan {
                field: "rate_sum",
                ..
            })
        ));
        // A zero or infinite tenant weight would break fair share.
        let t = TenantId(1);
        let err = decode(|s| {
            s.config.tenancy.tenants = vec![TenantSpec::new(TenantId(1)).with_weight(0.0)]
        });
        assert_eq!(
            err,
            ScenarioError::Config(ConfigError::BadTenantWeight {
                tenant: t,
                weight: 0.0
            })
        );
        assert!(err
            .to_string()
            .starts_with("scenario config is invalid: tenant1"));
        let mut s = scenario();
        s.config.tenancy.tenants = vec![TenantSpec::new(t).with_weight(2.0)];
        let text = s.to_json().replace("\"weight\": 2.0", "\"weight\": 1e999");
        assert!(matches!(
            ChaosScenario::from_json(&text),
            Err(ScenarioError::Config(ConfigError::BadTenantWeight { tenant, .. })) if tenant == t
        ));
    }
}

#[cfg(test)]
mod fixture {
    use super::*;
    use crate::dispatch::tiny_core;
    use crate::metrics::ServerMetrics;
    use crate::request::{Outcome, RequestTicket};
    use crate::sim::{simulate, simulate_outcomes};
    use vit_drt::EngineCore;

    /// The committed chaos regression scenario: 40 bursty arrivals, mixed
    /// slacks, all four fault kinds armed (seed 2024).
    const FIXTURE: &str = include_str!("../fixtures/chaos_scenario.json");

    /// One line per outcome, in order: kind, ticket, LUT row of the config,
    /// latency bits and batch size (completions), or the reason (sheds and
    /// failures).
    fn render(core: &EngineCore, outcomes: &[Outcome]) -> Vec<String> {
        let ticket = |t: Option<RequestTicket>| t.map_or(-1, |t| t.0 as i64);
        outcomes
            .iter()
            .map(|o| match o {
                Outcome::Completed(r) => format!(
                    "done {} row{} {:016x} x{} r{}",
                    ticket(r.ticket),
                    core.lut()
                        .entries()
                        .iter()
                        .position(|e| e.config == r.config)
                        .expect("config comes from the LUT"),
                    r.latency.to_bits(),
                    r.batch_size,
                    r.retries,
                ),
                Outcome::Shed(s) => format!("shed {} {}", ticket(s.ticket), s.reason),
                Outcome::Failed(f) => {
                    format!("fail {} {} r{}", ticket(f.ticket), f.reason, f.retries)
                }
            })
            .collect()
    }

    /// FNV-1a over the rendered outcome lines.
    fn digest(lines: &[String]) -> u64 {
        lines.iter().fold(0xcbf2_9ce4_8422_2325, |h, line| {
            line.bytes()
                .chain(std::iter::once(b'\n'))
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Pins the full outcome sequence `simulate_outcomes` returns.
    fn assert_sequence(core: &EngineCore, outcomes: &[Outcome], len: usize, pinned: u64) {
        let lines = render(core, outcomes);
        assert_eq!(lines.len(), len, "{lines:#?}");
        assert_eq!(
            digest(&lines),
            pinned,
            "outcome sequence drifted: {lines:#?}"
        );
    }

    /// A batched two-tenant burst list: bursts of six simultaneous
    /// arrivals every 5 s, alternating tenants, mixed slacks, so that
    /// coalescing, config mismatches, quota sheds, admission sheds and
    /// in-queue slack exhaustion all occur.
    fn burst_scenario() -> (ServerConfig, Vec<SimArrival>) {
        let config = ServerConfig::builder()
            .workers(1)
            .queue_depth(8)
            .max_batch(4)
            .tenant(
                TenantSpec::new(TenantId(1))
                    .with_weight(2.0)
                    .with_queue_share(0.5),
            )
            .tenant(TenantSpec::new(TenantId(2)).with_queue_share(0.5))
            .build()
            .unwrap();
        let slacks = [12.0, 6.0, 3.0, 0.5, 9.0, 4.5];
        let arrivals = (0..8)
            .flat_map(|burst| {
                slacks.iter().enumerate().map(move |(i, &slack)| {
                    SimArrival::new(f64::from(burst) * 5.0, slack)
                        .with_tenant(TenantId(1 + (i as u32 + burst) % 2))
                })
            })
            .collect();
        (config, arrivals)
    }

    /// The committed fixture decodes, re-encodes to the identical bytes,
    /// and replays to the exact counters pinned when it was committed —
    /// any drift in fault draws, scheduling, or recovery semantics fails
    /// here first. The full outcome sequences of the fixture and of a
    /// batched two-tenant burst list are pinned too.
    #[test]
    fn committed_fixture_replays_identically() {
        let s = ChaosScenario::from_json(FIXTURE).expect("fixture decodes");
        assert_eq!(s.name, "bursty-chaos-regression");
        assert_eq!(s.to_json(), FIXTURE, "encoding is byte-stable");

        let core = tiny_core();
        assert_sequence(
            &core,
            &simulate_outcomes(&core, &s.config, s.model, &s.arrivals),
            40,
            13_121_082_162_105_303_750,
        );
        let (burst, arrivals) = burst_scenario();
        let model = SimModel::new(Calibration::from_secs_per_unit(1.0));
        let outcomes = simulate_outcomes(&core, &burst, model, &arrivals);
        let bm = ServerMetrics::from_outcomes(&outcomes);
        assert!(bm.batched_completions > 0 && bm.shed_over_quota > 0);
        assert!(bm.shed_no_slack > 0 && bm.config_histogram.len() > 1);
        assert_sequence(&core, &outcomes, 48, 11_634_831_602_728_298_105);

        let m = simulate(&core, &s.config, s.model, &s.arrivals);
        assert!(m.accounts_for_all_submissions());
        assert_eq!(m.submitted, 40);
        assert_eq!(m.completed, 29);
        assert_eq!(m.fault_failures, 10);
        assert_eq!(m.shed(), 1);
        assert_eq!(m.faults_seen, 14);
        assert_eq!(m.retries, 14);
        assert_eq!(m.degraded_completions, 2);
        assert_eq!(m.deadline_misses, 0);
        assert!((m.goodput - 0.725).abs() < 1e-12);
        assert!((m.mean_degraded_accuracy - 0.925).abs() < 1e-12);
    }
}
