//! Chaos experiment: serving under deterministic fault injection.
//!
//! `repro chaos` sweeps a composite fault rate through the discrete-event
//! serving simulator and compares three policies at each point:
//!
//! * **degraded-retry** — the self-healing server: DRT scheduling plus
//!   fault recovery that re-submits a faulted request against its
//!   *remaining* slack, so the LUT picks a cheaper Pareto configuration
//!   for the retry.
//! * **fail-fast** — DRT scheduling, but the first fault fails the
//!   request (no retries).
//! * **static-full** — the brittle baseline: fixed full-model execution
//!   and no recovery.
//!
//! Every degraded completion's configuration is additionally measured for
//! *fidelity* — real pruned-vs-full output agreement on synthetic scenes
//! via [`vit_resilience::segformer_fidelity`] — so the table reports what
//! accuracy the healed requests actually delivered, not just the LUT's
//! estimate. The sweep is a pure function of the seed: arrivals and fault
//! draws replay byte-identically, and `--json` writes `BENCH_chaos.json`
//! for regression tracking.

use crate::experiments::serve::build_core;
use crate::experiments::verify::exit_code;
use crate::loadgen;
use crate::{banner, f, pct, Table};
use vit_drt::json::{write_pretty, Json};
use vit_drt::{EngineCore, LutConfig};
use vit_fault::FaultPlan;
use vit_models::SegFormerVariant;
use vit_resilience::{segformer_fidelity, FidelitySettings};
use vit_serve::{
    simulate_outcomes, Calibration, Outcome, RecoveryPolicy, SchedulePolicy, ServerConfig,
    ServerMetrics, SimArrival, SimModel,
};

const WORKERS: usize = 4;
const QUEUE_DEPTH: usize = 16;
const SEED: u64 = 1870;
/// Offered load as a multiple of full-model capacity: below saturation, so
/// fault handling (not queueing) dominates the differences between
/// policies.
const LOAD_X: f64 = 0.8;
/// Stalls run this many times their expected service time when injected.
const STALL_FACTOR: f64 = 4.0;

/// Composite fault rates swept (probability that any given attempt
/// faults); the composition is fixed at 40% crash / 30% bit-flip /
/// 30% stall.
const RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];
const RATES_QUICK: [f64; 2] = [0.0, 0.1];

/// Flags of the `repro chaos` subcommand.
#[derive(Debug, Default, Clone)]
pub struct ChaosArgs {
    /// Write `BENCH_chaos.json` next to the table output.
    pub json: bool,
    /// Shorter arrival trace, fewer fault rates, one fidelity sample —
    /// for CI smoke runs.
    pub quick: bool,
}

fn fault_plan(rate: f64) -> FaultPlan {
    FaultPlan {
        seed: SEED,
        crash_rate: 0.4 * rate,
        bitflip_rate: 0.3 * rate,
        stall_rate: 0.3 * rate,
        stall_factor: STALL_FACTOR,
        // Replay failures are exercised by the unit suites; the sweep
        // keeps the composition to the three hardware-style faults.
        replay_rate: 0.0,
    }
}

/// The three compared (policy, recovery) pairs.
const POLICIES: [&str; 3] = ["degraded-retry", "fail-fast", "static-full"];

fn server_config(policy: &str, rate: f64) -> ServerConfig {
    let (schedule, recovery) = match policy {
        "degraded-retry" => (
            SchedulePolicy::DrtDynamic,
            RecoveryPolicy::DegradedRetry { max_retries: 2 },
        ),
        "fail-fast" => (SchedulePolicy::DrtDynamic, RecoveryPolicy::FailFast),
        "static-full" => (SchedulePolicy::static_full(), RecoveryPolicy::FailFast),
        other => unreachable!("unknown chaos policy {other}"),
    };
    let mut cfg = ServerConfig::builder()
        .workers(WORKERS)
        .queue_depth(QUEUE_DEPTH)
        .policy(schedule)
        .recovery(recovery);
    if rate > 0.0 {
        cfg = cfg.fault(fault_plan(rate));
    }
    cfg.build().expect("chaos sweep config validates")
}

/// The seeded open-loop arrival trace shared by every point of the sweep
/// (same process as `repro serve`, at a fixed sub-saturation load).
fn chaos_arrivals(core: &EngineCore, quick: bool) -> Vec<SimArrival> {
    let full = core.max_resource();
    let capacity_hz = WORKERS as f64 / full;
    let services = if quick { 300.0 } else { 1500.0 };
    let duration = services * full / WORKERS as f64;
    loadgen::poisson_with_bursts(
        LOAD_X * capacity_hz,
        duration,
        2.0 * full,
        duration / 5.0,
        3 * WORKERS,
        SEED,
    )
}

/// One (fault rate, policy) cell of the sweep.
struct Cell {
    policy: &'static str,
    metrics: ServerMetrics,
    /// Configurations run by *degraded* completions (retries > 0).
    degraded_configs: Vec<(LutConfig, usize)>,
    /// Fidelity-weighted mIoU of the degraded completions (measured, not
    /// the LUT estimate); `None` when nothing degraded.
    degraded_fidelity: Option<f64>,
}

struct RatePoint {
    rate: f64,
    cells: Vec<Cell>,
}

fn run_cell(core: &EngineCore, arrivals: &[SimArrival], policy: &'static str, rate: f64) -> Cell {
    let model = SimModel::new(Calibration::from_secs_per_unit(1.0));
    let outcomes = simulate_outcomes(core, &server_config(policy, rate), model, arrivals);
    let mut degraded_configs: Vec<(LutConfig, usize)> = Vec::new();
    for outcome in &outcomes {
        if let Outcome::Completed(r) = outcome {
            if r.retries > 0 {
                match degraded_configs.iter_mut().find(|(c, _)| *c == r.config) {
                    Some((_, n)) => *n += 1,
                    None => degraded_configs.push((r.config, 1)),
                }
            }
        }
    }
    Cell {
        policy,
        metrics: ServerMetrics::from_outcomes(&outcomes),
        degraded_configs,
        degraded_fidelity: None,
    }
}

/// Measures real pruned-vs-full fidelity for every configuration that a
/// degraded completion ran, then fills each cell's count-weighted mean.
/// Measurements are cached per configuration across the whole sweep.
fn fill_degraded_fidelity(points: &mut [RatePoint], quick: bool) {
    let variant = SegFormerVariant::b0();
    let settings = FidelitySettings {
        samples: if quick { 1 } else { 2 },
        ..FidelitySettings::default()
    };
    let mut cache: Vec<(LutConfig, f64)> = Vec::new();
    for point in points.iter_mut() {
        for cell in &mut point.cells {
            let mut weighted = 0.0;
            let mut total = 0usize;
            for (config, count) in &cell.degraded_configs {
                let fidelity = match cache.iter().find(|(c, _)| c == config) {
                    Some((_, fid)) => *fid,
                    None => {
                        let dynamic = config
                            .as_segformer()
                            .expect("chaos sweep runs a SegFormer core");
                        let fid = segformer_fidelity(&variant, &dynamic, &settings)
                            .expect("fidelity measurement succeeds");
                        cache.push((*config, fid));
                        fid
                    }
                };
                weighted += fidelity * *count as f64;
                total += count;
            }
            if total > 0 {
                cell.degraded_fidelity = Some(weighted / total as f64);
            }
        }
    }
}

/// Invariant violations that fail the run (non-zero exit).
fn violations(points: &[RatePoint]) -> Vec<String> {
    let mut out = Vec::new();
    for point in points {
        for cell in &point.cells {
            let m = &cell.metrics;
            if !m.accounts_for_all_submissions() {
                out.push(format!(
                    "rate {}: {} loses requests (completed {} + shed {} + failed {} != {})",
                    point.rate,
                    cell.policy,
                    m.completed,
                    m.shed(),
                    m.fault_failures,
                    m.submitted
                ));
            }
            if (m.goodput + m.deadline_miss_rate - 1.0).abs() > 1e-9 {
                out.push(format!(
                    "rate {}: {} goodput {} + miss rate {} does not partition the load",
                    point.rate, cell.policy, m.goodput, m.deadline_miss_rate
                ));
            }
        }
        if point.rate == 0.0 {
            for cell in &point.cells {
                if cell.metrics.faults_seen != 0 || cell.metrics.fault_failures != 0 {
                    out.push(format!(
                        "clean point: {} observed {} faults with injection disabled",
                        cell.policy, cell.metrics.faults_seen
                    ));
                }
            }
        }
    }
    let healing_wins = points.iter().filter(|p| p.rate > 0.0).any(|p| {
        let goodput = |name: &str| {
            p.cells
                .iter()
                .find(|c| c.policy == name)
                .map(|c| c.metrics.goodput)
        };
        match (goodput("degraded-retry"), goodput("fail-fast")) {
            (Some(h), Some(b)) => h > b,
            _ => false,
        }
    });
    if !healing_wins {
        out.push(
            "degraded-retry never strictly beat fail-fast on goodput at any injected fault rate"
                .to_string(),
        );
    }
    out
}

/// Determinism gate: the heaviest-chaos degraded-retry point replayed a
/// second time must agree on every counter.
fn determinism_violations(core: &EngineCore, arrivals: &[SimArrival], rate: f64) -> Vec<String> {
    let a = run_cell(core, arrivals, "degraded-retry", rate).metrics;
    let b = run_cell(core, arrivals, "degraded-retry", rate).metrics;
    let mut out = Vec::new();
    if (a.completed, a.fault_failures, a.faults_seen, a.retries)
        != (b.completed, b.fault_failures, b.faults_seen, b.retries)
        || a.failure_histogram != b.failure_histogram
        || a.p99_latency != b.p99_latency
    {
        out.push(format!(
            "chaos sweep is not deterministic at rate {rate}: two replays disagree"
        ));
    }
    out
}

fn cell_json(cell: &Cell) -> Json {
    let m = &cell.metrics;
    Json::Obj(vec![
        ("policy".into(), Json::Str(cell.policy.into())),
        ("submitted".into(), Json::Int(m.submitted as i64)),
        ("completed".into(), Json::Int(m.completed as i64)),
        ("shed".into(), Json::Int(m.shed() as i64)),
        ("fault_failures".into(), Json::Int(m.fault_failures as i64)),
        ("faults_seen".into(), Json::Int(m.faults_seen as i64)),
        ("retries".into(), Json::Int(m.retries as i64)),
        (
            "degraded_completions".into(),
            Json::Int(m.degraded_completions as i64),
        ),
        ("goodput".into(), Json::Num(m.goodput)),
        ("deadline_miss_rate".into(), Json::Num(m.deadline_miss_rate)),
        (
            "mean_delivered_accuracy".into(),
            Json::Num(m.mean_delivered_accuracy),
        ),
        (
            "mean_degraded_accuracy".into(),
            Json::Num(m.mean_degraded_accuracy),
        ),
        (
            "degraded_fidelity_miou".into(),
            cell.degraded_fidelity.map_or(Json::Null, Json::Num),
        ),
        ("p99_latency".into(), Json::Num(m.p99_latency)),
        ("p999_queue_wait".into(), Json::Num(m.p999_queue_wait)),
        (
            "failure_histogram".into(),
            Json::Obj(
                m.failure_histogram
                    .iter()
                    .map(|(reason, n)| (reason.name().to_string(), Json::Int(*n as i64)))
                    .collect(),
            ),
        ),
    ])
}

fn render_json(points: &[RatePoint], quick: bool, violations: &[String]) -> String {
    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("chaos".into())),
        ("quick".into(), Json::Bool(quick)),
        ("seed".into(), Json::Int(SEED as i64)),
        ("workers".into(), Json::Int(WORKERS as i64)),
        ("queue_depth".into(), Json::Int(QUEUE_DEPTH as i64)),
        ("load_x".into(), Json::Num(LOAD_X)),
        ("stall_factor".into(), Json::Num(STALL_FACTOR)),
        (
            "fault_composition".into(),
            Json::Obj(vec![
                ("crash".into(), Json::Num(0.4)),
                ("bitflip".into(), Json::Num(0.3)),
                ("stall".into(), Json::Num(0.3)),
            ]),
        ),
        (
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("fault_rate".into(), Json::Num(p.rate)),
                            (
                                "policies".into(),
                                Json::Arr(p.cells.iter().map(cell_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "violations".into(),
            Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
    ]);
    let mut s = write_pretty(&doc);
    s.push('\n');
    s
}

/// `repro chaos`: the fault-rate sweep. Returns the process exit code
/// (non-zero when an invariant is violated).
pub fn run(args: ChaosArgs) -> i32 {
    banner("Chaos — self-healing degraded-retry serving under injected faults");
    let core = build_core();
    let arrivals = chaos_arrivals(&core, args.quick);
    let rates: &[f64] = if args.quick { &RATES_QUICK } else { &RATES };
    println!(
        "SegFormer-B0 @ 64x64 GPU-time LUT; {WORKERS} workers at {LOAD_X}x capacity, \
         {} seeded arrivals; fault mix 40% crash / 30% bit-flip / 30% {STALL_FACTOR}x \
         stall, seed {SEED}{}",
        arrivals.len(),
        if args.quick { " (quick)" } else { "" },
    );
    println!();

    let mut points: Vec<RatePoint> = rates
        .iter()
        .map(|&rate| RatePoint {
            rate,
            cells: POLICIES
                .iter()
                .map(|policy| run_cell(&core, &arrivals, policy, rate))
                .collect(),
        })
        .collect();
    fill_degraded_fidelity(&mut points, args.quick);

    let mut t = Table::new(&[
        "fault rate",
        "policy",
        "goodput",
        "miss rate",
        "fault fails",
        "retries",
        "degraded",
        "degr fidelity",
        "p99.9 qwait (ms)",
    ]);
    for point in &points {
        for cell in &point.cells {
            let m = &cell.metrics;
            t.row(&[
                pct(point.rate),
                cell.policy.to_string(),
                pct(m.goodput),
                pct(m.deadline_miss_rate),
                format!("{}", m.fault_failures),
                format!("{}", m.retries),
                format!("{}", m.degraded_completions),
                cell.degraded_fidelity
                    .map_or_else(|| "-".to_string(), |fid| f(fid, 3)),
                f(m.p999_queue_wait * 1e3, 3),
            ]);
        }
    }
    t.print();
    println!();

    let mut all_violations = violations(&points);
    let max_rate = rates.iter().copied().fold(0.0, f64::max);
    all_violations.extend(determinism_violations(&core, &arrivals, max_rate));

    if all_violations.is_empty() {
        println!(
            "every point conserves requests, the clean point saw zero faults, the \
             sweep replays deterministically, and degraded-retry beats fail-fast \
             on goodput under injected faults."
        );
    } else {
        for v in &all_violations {
            println!("VIOLATION: {v}");
        }
    }

    if args.json {
        let path = "BENCH_chaos.json";
        std::fs::write(path, render_json(&points, args.quick, &all_violations))
            .expect("write BENCH_chaos.json");
        println!("wrote {path}");
    }
    exit_code(all_violations.len(), 0, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_no_violations_and_heals() {
        let core = build_core();
        let arrivals = chaos_arrivals(&core, true);
        let mut points: Vec<RatePoint> = RATES_QUICK
            .iter()
            .map(|&rate| RatePoint {
                rate,
                cells: POLICIES
                    .iter()
                    .map(|policy| run_cell(&core, &arrivals, policy, rate))
                    .collect(),
            })
            .collect();
        fill_degraded_fidelity(&mut points, true);
        assert_eq!(violations(&points), Vec::<String>::new());
        assert_eq!(
            determinism_violations(&core, &arrivals, 0.1),
            Vec::<String>::new()
        );
        // The faulted point actually healed something, and the healed
        // completions have a real measured fidelity.
        let faulted = &points[1];
        let healing = &faulted.cells[0];
        assert!(healing.metrics.degraded_completions > 0);
        let fid = healing
            .degraded_fidelity
            .expect("degraded configs measured");
        assert!(
            fid > 0.0 && fid <= 1.0 + 1e-9,
            "fidelity {fid} out of range"
        );
    }

    #[test]
    fn json_round_trips_through_the_engine_parser() {
        let core = build_core();
        let arrivals = chaos_arrivals(&core, true);
        let points = vec![RatePoint {
            rate: 0.1,
            cells: vec![run_cell(&core, &arrivals, "degraded-retry", 0.1)],
        }];
        let text = render_json(&points, true, &[]);
        let doc = vit_drt::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("benchmark").and_then(|b| b.as_str()), Some("chaos"));
        let pts = doc.get("points").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(pts.len(), 1);
        let cell = pts[0].get("policies").and_then(|p| p.as_arr()).unwrap()[0].clone();
        let m = &points[0].cells[0].metrics;
        assert_eq!(
            cell.get("submitted").and_then(|s| s.as_usize()),
            Some(m.submitted)
        );
        assert_eq!(
            cell.get("goodput").and_then(|g| g.as_f64()),
            Some(m.goodput)
        );
    }
}
