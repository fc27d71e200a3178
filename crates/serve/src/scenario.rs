//! Chaos scenarios as committed JSON fixtures.
//!
//! A [`ChaosScenario`] bundles everything a deterministic chaos replay
//! needs — the simulation configuration (including the [`FaultPlan`]) and
//! the exact arrival trace — in a stable JSON encoding, so a scenario
//! found interesting once (a regression, a pathological burst) can be
//! committed to the repository and replayed byte-for-byte in CI forever.
//! Serialization uses the workspace's own dependency-free
//! [`vit_drt::json`] module.

use crate::config::TenantSpec;
use crate::policy::{RecoveryPolicy, SchedulePolicy};
use crate::request::TenantId;
use crate::sim::{SimArrival, SimConfig};
use std::fmt;
use vit_drt::json::{parse, write_pretty, Json, JsonParseError};
use vit_fault::FaultPlan;

/// A named, replayable chaos experiment: configuration plus arrivals.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Human-readable scenario name (shows up in reports).
    pub name: String,
    /// Full simulation configuration, fault plan included.
    pub config: SimConfig,
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
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario is not valid JSON: {e}"),
            ScenarioError::Malformed { field } => {
                write!(f, "scenario field `{field}` is missing or malformed")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Parse(e) => Some(e),
            _ => None,
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

fn need<'j>(obj: &'j Json, field: &str) -> Result<&'j Json, ScenarioError> {
    obj.get(field).ok_or_else(|| malformed(field))
}

fn need_f64(obj: &Json, field: &str) -> Result<f64, ScenarioError> {
    need(obj, field)?.as_f64().ok_or_else(|| malformed(field))
}

fn need_usize(obj: &Json, field: &str) -> Result<usize, ScenarioError> {
    need(obj, field)?.as_usize().ok_or_else(|| malformed(field))
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
    let field = "config.policy";
    let tag = need(j, "type")
        .and_then(|t| t.as_str().ok_or_else(|| malformed(field)))
        .map_err(|_| malformed(field))?;
    match tag {
        "drt_dynamic" => Ok(SchedulePolicy::DrtDynamic),
        "static_full" => Ok(SchedulePolicy::static_full()),
        "static" => Ok(SchedulePolicy::Static {
            entry_index: need_usize(j, "entry_index")
                .map_err(|_| malformed("config.policy.entry_index"))?,
        }),
        _ => Err(malformed(field)),
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
        // Future variants serialize by their stable name with no payload.
        #[allow(unreachable_patterns)]
        other => Json::Obj(vec![tag(other.name())]),
    }
}

fn recovery_from_json(j: &Json) -> Result<RecoveryPolicy, ScenarioError> {
    let field = "config.recovery";
    let tag = need(j, "type")
        .and_then(|t| t.as_str().ok_or_else(|| malformed(field)))
        .map_err(|_| malformed(field))?;
    match tag {
        "fail_fast" => Ok(RecoveryPolicy::FailFast),
        "degraded_retry" => {
            let max = need_usize(j, "max_retries")
                .map_err(|_| malformed("config.recovery.max_retries"))?;
            Ok(RecoveryPolicy::DegradedRetry {
                max_retries: u32::try_from(max)
                    .map_err(|_| malformed("config.recovery.max_retries"))?,
            })
        }
        _ => Err(malformed(field)),
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
    let num = |k: &str| need_f64(j, k).map_err(|_| malformed(&format!("config.fault.{k}")));
    Ok(FaultPlan {
        seed: json_to_u64(
            need(j, "seed").map_err(|_| malformed("config.fault.seed"))?,
            "config.fault.seed",
        )?,
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
        let config = &self.config;
        let fault = match &config.fault {
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
            ("secs_per_unit".to_string(), Json::Num(config.secs_per_unit)),
            ("recovery".to_string(), recovery_to_json(config.recovery)),
            (
                "watchdog_grace".to_string(),
                Json::Num(config.watchdog_grace),
            ),
            ("fault".to_string(), fault),
        ];
        let defaults = SimConfig::new(1, 1, SchedulePolicy::DrtDynamic, 1.0);
        if config.max_batch != defaults.max_batch {
            config_fields.push(("max_batch".to_string(), Json::Int(config.max_batch as i64)));
        }
        if config.batch_marginal != defaults.batch_marginal {
            config_fields.push((
                "batch_marginal".to_string(),
                Json::Num(config.batch_marginal),
            ));
        }
        if config.replicas != defaults.replicas {
            config_fields.push(("replicas".to_string(), Json::Int(config.replicas as i64)));
        }
        if !config.tenants.is_empty() {
            config_fields.push((
                "tenants".to_string(),
                Json::Arr(
                    config
                        .tenants
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

    /// Decodes a scenario from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on invalid JSON or a missing/malformed
    /// field.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let doc = parse(text)?;
        let name = need(&doc, "name")?
            .as_str()
            .ok_or_else(|| malformed("name"))?
            .to_string();
        let cfg = need(&doc, "config")?;
        let fault = match need(cfg, "fault").map_err(|_| malformed("config.fault"))? {
            Json::Null => None,
            j => Some(fault_from_json(j)?),
        };
        let mut config = SimConfig::new(
            need_usize(cfg, "workers").map_err(|_| malformed("config.workers"))?,
            need_usize(cfg, "queue_depth").map_err(|_| malformed("config.queue_depth"))?,
            policy_from_json(need(cfg, "policy").map_err(|_| malformed("config.policy"))?)?,
            need_f64(cfg, "secs_per_unit").map_err(|_| malformed("config.secs_per_unit"))?,
        );
        config.fault = fault;
        config.recovery =
            recovery_from_json(need(cfg, "recovery").map_err(|_| malformed("config.recovery"))?)?;
        config.watchdog_grace =
            need_f64(cfg, "watchdog_grace").map_err(|_| malformed("config.watchdog_grace"))?;
        // Fleet-scale fields are optional: absent means the pre-fleet
        // defaults, keeping old committed scenarios decodable.
        if cfg.get("max_batch").is_some() {
            config.max_batch =
                need_usize(cfg, "max_batch").map_err(|_| malformed("config.max_batch"))?;
        }
        if cfg.get("batch_marginal").is_some() {
            config.batch_marginal =
                need_f64(cfg, "batch_marginal").map_err(|_| malformed("config.batch_marginal"))?;
        }
        if cfg.get("replicas").is_some() {
            config.replicas =
                need_usize(cfg, "replicas").map_err(|_| malformed("config.replicas"))?;
        }
        if let Some(tenants) = cfg.get("tenants") {
            config.tenants = tenants
                .as_arr()
                .ok_or_else(|| malformed("config.tenants"))?
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let id = need_usize(t, "id")
                        .ok()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| malformed(&format!("config.tenants[{i}].id")))?;
                    Ok(TenantSpec::new(TenantId(id))
                        .with_weight(
                            need_f64(t, "weight")
                                .map_err(|_| malformed(&format!("config.tenants[{i}].weight")))?,
                        )
                        .with_queue_share(need_f64(t, "max_queue_share").map_err(|_| {
                            malformed(&format!("config.tenants[{i}].max_queue_share"))
                        })?))
                })
                .collect::<Result<Vec<_>, ScenarioError>>()?;
        }
        let arrivals = need(&doc, "arrivals")?
            .as_arr()
            .ok_or_else(|| malformed("arrivals"))?
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mut arrival = SimArrival::new(
                    need_f64(a, "time").map_err(|_| malformed(&format!("arrivals[{i}].time")))?,
                    need_f64(a, "slack").map_err(|_| malformed(&format!("arrivals[{i}].slack")))?,
                );
                if let Some(t) = a.get("tenant") {
                    let id = t
                        .as_usize()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| malformed(&format!("arrivals[{i}].tenant")))?;
                    arrival = arrival.with_tenant(TenantId(id));
                }
                Ok(arrival)
            })
            .collect::<Result<Vec<_>, ScenarioError>>()?;
        Ok(ChaosScenario {
            name,
            config,
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
            config: SimConfig::new(2, 16, SchedulePolicy::DrtDynamic, 1.0)
                .with_fault(FaultPlan {
                    seed: 42,
                    crash_rate: 0.1,
                    bitflip_rate: 0.05,
                    stall_rate: 0.05,
                    stall_factor: 6.0,
                    replay_rate: 0.02,
                })
                .with_recovery(RecoveryPolicy::DegradedRetry { max_retries: 2 }),
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
        assert_eq!(back.config.secs_per_unit, s.config.secs_per_unit);
        assert_eq!(back.config.recovery, s.config.recovery);
        assert_eq!(back.config.watchdog_grace, s.config.watchdog_grace);
        assert_eq!(back.config.fault, s.config.fault);
        assert_eq!(back.arrivals, s.arrivals);
        // And the encoding itself is a fixed point: re-serializing the
        // decoded scenario reproduces the bytes exactly.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn clean_scenario_has_null_fault() {
        let mut s = scenario();
        s.config.fault = None;
        let text = s.to_json();
        assert!(text.contains("\"fault\": null"));
        let back = ChaosScenario::from_json(&text).unwrap();
        assert_eq!(back.config.fault, None);
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
        s.config = s
            .config
            .with_batching(8)
            .with_batch_marginal(0.5)
            .with_replicas(4)
            .with_tenants(vec![
                TenantSpec::new(TenantId(1))
                    .with_weight(2.0)
                    .with_queue_share(0.5),
                TenantSpec::new(TenantId(2)),
            ]);
        s.arrivals = vec![
            SimArrival::new(0.0, 5.0).with_tenant(TenantId(1)),
            SimArrival::new(1.0, 5.0).with_tenant(TenantId(2)),
            SimArrival::new(2.0, 5.0),
        ];
        let text = s.to_json();
        let back = ChaosScenario::from_json(&text).unwrap();
        assert_eq!(back.config.max_batch, 8);
        assert_eq!(back.config.batch_marginal, 0.5);
        assert_eq!(back.config.replicas, 4);
        assert_eq!(back.config.tenants, s.config.tenants);
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
        assert_eq!(
            err.to_string(),
            "scenario field `config` is missing or malformed"
        );
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
    fn burst_scenario() -> (SimConfig, Vec<SimArrival>) {
        let config = SimConfig::new(1, 8, SchedulePolicy::DrtDynamic, 1.0)
            .with_batching(4)
            .with_tenants(vec![
                TenantSpec::new(TenantId(1))
                    .with_weight(2.0)
                    .with_queue_share(0.5),
                TenantSpec::new(TenantId(2)).with_queue_share(0.5),
            ]);
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
            &simulate_outcomes(&core, &s.config, &s.arrivals),
            40,
            13_121_082_162_105_303_750,
        );
        let (burst, arrivals) = burst_scenario();
        let outcomes = simulate_outcomes(&core, &burst, &arrivals);
        let bm = ServerMetrics::from_outcomes(&outcomes);
        assert!(bm.batched_completions > 0 && bm.shed_over_quota > 0);
        assert!(bm.shed_no_slack > 0 && bm.config_histogram.len() > 1);
        assert_sequence(&core, &outcomes, 48, 11_634_831_602_728_298_105);

        let m = simulate(&core, &s.config, &s.arrivals);
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
