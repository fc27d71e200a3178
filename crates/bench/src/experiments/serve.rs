//! Serving experiment: fleet-scale continuous-batching sweep.
//!
//! `repro serve` drives the deterministic discrete-event serving simulator
//! at fleet scale — worker replicas behind a round-robin front door, a
//! seeded open-loop arrival process, and (in full mode) over a million
//! simulated requests — and compares three policies at each offered load:
//!
//! * **drt-batched** — deadline-aware DRT scheduling plus continuous
//!   batching: queued requests that resolve to the same LUT configuration
//!   coalesce into one batch-N pass with a sub-linear marginal cost.
//! * **drt-unbatched** — the same DRT scheduling, one request per pass.
//! * **static-full** — the fixed full-model baseline.
//!
//! Three arrival mixes stress different failure modes: periodic flash
//! crowds (`burst`), a sinusoidal day/night rate (`diurnal`), and an
//! adversarial tenant flooding a steady one (`adversarial`), where
//! per-tenant quotas + weighted-fair dequeueing keep the light tenant
//! alive. The sweep is a pure function of the seed and `--json` writes
//! `BENCH_serve.json` for regression tracking; any invariant violation
//! (lost requests, non-partitioning rates, batching not strictly winning
//! at overload, nondeterministic replay) exits non-zero.

use crate::experiments::verify::exit_code;
use crate::loadgen;
use crate::{banner, f, pct, Table};
use std::sync::Arc;
use vit_drt::json::{write_pretty, Json};
use vit_drt::{DrtEngine, EngineCore};
use vit_models::SegFormerVariant;
use vit_resilience::{ResourceKind, Workload};
use vit_serve::{
    simulate, Calibration, SchedulePolicy, ServerConfig, ServerMetrics, SimArrival, SimModel,
    TenantId, TenantSpec,
};

/// Workers per replica; the fleet is `REPLICAS * WORKERS` wide.
const WORKERS: usize = 4;
const QUEUE_DEPTH: usize = 32;
const MAX_BATCH: usize = 8;
const SEED: u64 = 42;

/// Flags of the `repro serve` subcommand.
#[derive(Debug, Default, Clone)]
pub struct ServeArgs {
    /// Write `BENCH_serve.json` next to the table output.
    pub json: bool,
    /// Fewer replicas and a much shorter trace for CI smoke runs.
    pub quick: bool,
}

/// Fleet shape and trace length for one mode.
struct Fleet {
    replicas: usize,
    /// Target arrivals per operating point of the load sweep.
    requests_per_point: usize,
}

impl Fleet {
    fn new(quick: bool) -> Self {
        if quick {
            Fleet {
                replicas: 2,
                requests_per_point: 6_000,
            }
        } else {
            // 4 load points x 300k ≥ 1.2M simulated requests per policy.
            Fleet {
                replicas: 8,
                requests_per_point: 300_000,
            }
        }
    }

    fn capacity_hz(&self, core: &EngineCore) -> f64 {
        (self.replicas * WORKERS) as f64 / core.max_resource()
    }

    /// One virtual second per LUT unit, `replicas` wide.
    fn model(&self) -> SimModel {
        SimModel {
            replicas: self.replicas,
            ..SimModel::new(Calibration::from_secs_per_unit(1.0))
        }
    }
}

pub(crate) fn build_core() -> Arc<EngineCore> {
    let engine = DrtEngine::segformer(
        SegFormerVariant::b0(),
        Workload::SegFormerAde,
        (64, 64),
        ResourceKind::GpuTime,
    )
    .expect("engine builds");
    engine.core().clone()
}

const POLICIES: [&str; 3] = ["drt-batched", "drt-unbatched", "static-full"];

fn policy_config(policy: &str) -> ServerConfig {
    let (schedule, max_batch) = match policy {
        "drt-batched" => (SchedulePolicy::DrtDynamic, MAX_BATCH),
        "drt-unbatched" => (SchedulePolicy::DrtDynamic, 1),
        "static-full" => (SchedulePolicy::static_full(), 1),
        other => unreachable!("unknown serve policy {other}"),
    };
    ServerConfig::builder()
        .workers(WORKERS)
        .queue_depth(QUEUE_DEPTH)
        .policy(schedule)
        .max_batch(max_batch)
        .build()
        .expect("serve sweep config validates")
}

/// Offered-load multipliers for the sweep. DRT degrades toward the
/// cheapest LUT path, so its true saturation point is `full / min` times
/// the full-model capacity — the sweep brackets both knees: below full
/// capacity, inside the band between them, and past the DRT knee where
/// even the cheapest path saturates.
fn load_points(core: &EngineCore, quick: bool) -> Vec<f64> {
    let ratio = core.max_resource() / core.min_resource();
    if quick {
        vec![0.8, 1.0 + (ratio - 1.0) * 0.5, ratio * 1.5]
    } else {
        vec![0.8, 1.0 + (ratio - 1.0) * 0.5, ratio * 1.3, ratio * 2.2]
    }
}

/// True in the overload band where coalescing must win outright: the full
/// model can no longer keep up, but requests still reach dispatch with
/// enough slack for the deadline-aware bound to grow batches. Past the
/// cheapest-path knee queue waits eat the entire slack budget, the bound
/// (correctly) refuses to coalesce, and goodput ties with unbatched.
fn batching_win_region(core: &EngineCore, load_x: f64) -> bool {
    load_x > 1.0 && load_x <= core.max_resource() / core.min_resource()
}

/// Batched goodput may trail unbatched by at most this much anywhere
/// outside the win region. Which individual request meets its deadline can
/// flip when a batch shifts completion instants, so exact ties are not
/// guaranteed; the observed noise is ~3e-5 while the deadline-blind
/// coalescer this tolerance guards against lost 0.16 goodput.
const REGRESS_TOL: f64 = 1e-3;

/// The bursty arrival trace for one operating point: Poisson base at
/// `load_x` times fleet capacity plus periodic flash crowds.
fn burst_arrivals(core: &EngineCore, fleet: &Fleet, load_x: f64, seed: u64) -> Vec<SimArrival> {
    let full = core.max_resource();
    let rate = load_x * fleet.capacity_hz(core);
    let duration = fleet.requests_per_point as f64 / rate;
    loadgen::poisson_with_bursts(
        rate,
        duration,
        2.0 * full, // slack fits the full model plus some queueing
        duration / 50.0,
        3 * fleet.replicas * WORKERS,
        seed,
    )
}

struct Cell {
    policy: &'static str,
    metrics: ServerMetrics,
}

struct LoadPoint {
    load_x: f64,
    cells: Vec<Cell>,
}

fn run_point(core: &EngineCore, fleet: &Fleet, load_x: f64, seed: u64) -> LoadPoint {
    let arrivals = burst_arrivals(core, fleet, load_x, seed);
    LoadPoint {
        load_x,
        cells: POLICIES
            .iter()
            .map(|policy| Cell {
                policy,
                metrics: simulate(core, &policy_config(policy), fleet.model(), &arrivals),
            })
            .collect(),
    }
}

/// The diurnal mix at a mean load past the full-model knee: batched vs
/// unbatched DRT riding a day/night rate swing.
fn run_diurnal(core: &EngineCore, fleet: &Fleet) -> Vec<Cell> {
    let full = core.max_resource();
    let rate = 1.5 * fleet.capacity_hz(core);
    let duration = (fleet.requests_per_point / 2) as f64 / rate;
    let arrivals = loadgen::diurnal(rate, 0.8, duration / 3.0, duration, 2.0 * full, SEED + 17);
    POLICIES
        .iter()
        .map(|policy| Cell {
            policy,
            metrics: simulate(core, &policy_config(policy), fleet.model(), &arrivals),
        })
        .collect()
}

/// The adversarial mix: a steady tenant 0 at half fleet capacity while
/// tenant 1 floods the queue. Returns (with quotas, without quotas) under
/// batched DRT.
fn run_adversarial(core: &EngineCore, fleet: &Fleet) -> (ServerMetrics, ServerMetrics) {
    let full = core.max_resource();
    let steady = 0.5 * fleet.capacity_hz(core);
    let duration = (fleet.requests_per_point / 4) as f64 / steady;
    let arrivals = loadgen::adversarial(
        steady,
        duration,
        2.0 * full,
        duration / 40.0,
        2 * fleet.replicas * QUEUE_DEPTH,
        SEED + 29,
    );
    let batched = policy_config("drt-batched");
    let mut quotas = batched.clone();
    quotas.tenancy.tenants = vec![
        // The steady tenant gets weight and headroom; the flooder is
        // capped to a quarter of each replica's queue.
        TenantSpec::new(TenantId(0)).with_weight(2.0),
        TenantSpec::new(TenantId(1)).with_queue_share(0.25),
    ];
    let with_quotas = simulate(core, &quotas, fleet.model(), &arrivals);
    let without = simulate(core, &batched, fleet.model(), &arrivals);
    (with_quotas, without)
}

/// Invariant violations that fail the run (non-zero exit).
fn violations(core: &EngineCore, points: &[LoadPoint]) -> Vec<String> {
    let mut out = Vec::new();
    for point in points {
        for cell in &point.cells {
            let m = &cell.metrics;
            if !m.accounts_for_all_submissions() {
                out.push(format!(
                    "load {:.2}x: {} loses requests (completed {} + shed {} + failed {} != {})",
                    point.load_x,
                    cell.policy,
                    m.completed,
                    m.shed(),
                    m.fault_failures,
                    m.submitted
                ));
            }
            if (m.goodput + m.deadline_miss_rate - 1.0).abs() > 1e-9 {
                out.push(format!(
                    "load {:.2}x: {} goodput {} + miss rate {} does not partition the load",
                    point.load_x, cell.policy, m.goodput, m.deadline_miss_rate
                ));
            }
        }
        let goodput = |name: &str| {
            point
                .cells
                .iter()
                .find(|c| c.policy == name)
                .map(|c| c.metrics.goodput)
        };
        if let (Some(batched), Some(unbatched), Some(stat)) = (
            goodput("drt-batched"),
            goodput("drt-unbatched"),
            goodput("static-full"),
        ) {
            if batching_win_region(core, point.load_x) {
                // Overloaded with dispatch-time slack to spare: coalescing
                // can engage, so batched must win outright.
                if batched <= unbatched {
                    out.push(format!(
                        "load {:.2}x: batched DRT goodput {batched} is not strictly above \
                         unbatched {unbatched} in the overload band",
                        point.load_x
                    ));
                }
            } else if batched + REGRESS_TOL < unbatched {
                // Outside the band coalescing may be a no-op but must
                // never hurt beyond deadline-reshuffle noise.
                out.push(format!(
                    "load {:.2}x: batching regressed goodput ({batched} < {unbatched})",
                    point.load_x
                ));
            }
            if point.load_x > 1.0 && unbatched <= stat {
                out.push(format!(
                    "load {:.2}x: unbatched DRT goodput {unbatched} does not beat \
                     static-full {stat} at overload",
                    point.load_x
                ));
            }
        }
    }
    out
}

/// Determinism gate: the heaviest point replayed twice must agree on every
/// counter.
fn determinism_violations(core: &EngineCore, fleet: &Fleet, load_x: f64) -> Vec<String> {
    let a = run_point(core, fleet, load_x, SEED);
    let b = run_point(core, fleet, load_x, SEED);
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        let (ma, mb) = (&ca.metrics, &cb.metrics);
        if (
            ma.submitted,
            ma.completed,
            ma.shed(),
            ma.batched_completions,
        ) != (
            mb.submitted,
            mb.completed,
            mb.shed(),
            mb.batched_completions,
        ) || ma.p99_latency != mb.p99_latency
            || ma.config_histogram != mb.config_histogram
        {
            return vec![format!(
                "fleet sweep is not deterministic at load {load_x:.2}x: two replays disagree \
                 under {}",
                ca.policy
            )];
        }
    }
    Vec::new()
}

fn cell_json(cell: &Cell) -> Json {
    let m = &cell.metrics;
    Json::Obj(vec![
        ("policy".into(), Json::Str(cell.policy.into())),
        ("submitted".into(), Json::Int(m.submitted as i64)),
        ("completed".into(), Json::Int(m.completed as i64)),
        ("shed".into(), Json::Int(m.shed() as i64)),
        ("goodput".into(), Json::Num(m.goodput)),
        ("deadline_miss_rate".into(), Json::Num(m.deadline_miss_rate)),
        (
            "batched_completions".into(),
            Json::Int(m.batched_completions as i64),
        ),
        ("mean_batch_size".into(), Json::Num(m.mean_batch_size)),
        (
            "mean_delivered_accuracy".into(),
            Json::Num(m.mean_delivered_accuracy),
        ),
        ("p99_latency".into(), Json::Num(m.p99_latency)),
        ("p999_queue_wait".into(), Json::Num(m.p999_queue_wait)),
    ])
}

fn tenant_json(m: &ServerMetrics, id: TenantId) -> Json {
    match m.tenant(id) {
        Some(t) => Json::Obj(vec![
            ("submitted".into(), Json::Int(t.submitted as i64)),
            ("goodput".into(), Json::Num(t.goodput)),
            ("miss_rate".into(), Json::Num(t.miss_rate)),
            ("shed_rate".into(), Json::Num(t.shed_rate)),
            (
                "shed_over_quota".into(),
                Json::Int(t.shed_over_quota as i64),
            ),
        ]),
        None => Json::Null,
    }
}

fn render_json(
    fleet: &Fleet,
    quick: bool,
    points: &[LoadPoint],
    diurnal: &[Cell],
    adversarial: &(ServerMetrics, ServerMetrics),
    violations: &[String],
) -> String {
    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("serve".into())),
        ("quick".into(), Json::Bool(quick)),
        ("seed".into(), Json::Int(SEED as i64)),
        ("replicas".into(), Json::Int(fleet.replicas as i64)),
        ("workers_per_replica".into(), Json::Int(WORKERS as i64)),
        ("queue_depth".into(), Json::Int(QUEUE_DEPTH as i64)),
        ("max_batch".into(), Json::Int(MAX_BATCH as i64)),
        (
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("load_x".into(), Json::Num(p.load_x)),
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
            "diurnal".into(),
            Json::Arr(diurnal.iter().map(cell_json).collect()),
        ),
        (
            "adversarial".into(),
            Json::Obj(vec![
                (
                    "with_quotas".into(),
                    Json::Obj(vec![
                        ("tenant0".into(), tenant_json(&adversarial.0, TenantId(0))),
                        ("tenant1".into(), tenant_json(&adversarial.0, TenantId(1))),
                    ]),
                ),
                (
                    "without_quotas".into(),
                    Json::Obj(vec![
                        ("tenant0".into(), tenant_json(&adversarial.1, TenantId(0))),
                        ("tenant1".into(), tenant_json(&adversarial.1, TenantId(1))),
                    ]),
                ),
            ]),
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

/// `repro serve`: the fleet-scale sweep. Returns the process exit code
/// (non-zero when an invariant is violated).
pub fn run(args: ServeArgs) -> i32 {
    banner("Serving — continuous-batching DRT fleet vs unbatched DRT vs static full model");
    let core = build_core();
    let fleet = Fleet::new(args.quick);
    let full = core.max_resource();
    let points_x = load_points(&core, args.quick);
    println!(
        "SegFormer-B0 @ 64x64 GPU-time LUT: {} Pareto paths (cheapest {:.3} ms, full \
         {:.3} ms); {} replicas x {WORKERS} workers, queue depth {QUEUE_DEPTH}/replica, \
         max batch {MAX_BATCH}, ~{} arrivals/point, slack 2.0x full, seed {SEED}{}",
        core.lut().len(),
        core.min_resource() * 1e3,
        full * 1e3,
        fleet.replicas,
        fleet.requests_per_point,
        if args.quick { " (quick)" } else { "" },
    );
    println!();

    let points: Vec<LoadPoint> = points_x
        .iter()
        .enumerate()
        .map(|(i, &load_x)| run_point(&core, &fleet, load_x, SEED + i as u64))
        .collect();
    let simulated: usize = points
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| c.metrics.submitted))
        .sum();

    let mut t = Table::new(&[
        "load (x capacity)",
        "policy",
        "goodput",
        "miss rate",
        "shed rate",
        "batched",
        "mean batch",
        "delivered acc",
        "p99 latency (ms)",
        "p99.9 qwait (ms)",
    ]);
    for point in &points {
        for cell in &point.cells {
            let m = &cell.metrics;
            t.row(&[
                f(point.load_x, 2),
                cell.policy.to_string(),
                pct(m.goodput),
                pct(m.deadline_miss_rate),
                pct(m.shed_rate),
                format!("{}", m.batched_completions),
                f(m.mean_batch_size, 2),
                f(m.mean_delivered_accuracy, 3),
                f(m.p99_latency * 1e3, 3),
                f(m.p999_queue_wait * 1e3, 3),
            ]);
        }
    }
    t.print();
    println!();

    println!("diurnal mix (mean 1.5x capacity, 0.8 swing):");
    let diurnal = run_diurnal(&core, &fleet);
    let mut td = Table::new(&["policy", "goodput", "miss rate", "mean batch"]);
    for cell in &diurnal {
        td.row(&[
            cell.policy.to_string(),
            pct(cell.metrics.goodput),
            pct(cell.metrics.deadline_miss_rate),
            f(cell.metrics.mean_batch_size, 2),
        ]);
    }
    td.print();
    println!();

    println!("adversarial mix (steady tenant 0 vs flooding tenant 1, batched DRT):");
    let adversarial = run_adversarial(&core, &fleet);
    let mut ta = Table::new(&[
        "quotas",
        "tenant",
        "goodput",
        "shed rate",
        "over-quota sheds",
    ]);
    for (label, m) in [("on", &adversarial.0), ("off", &adversarial.1)] {
        for id in [TenantId(0), TenantId(1)] {
            if let Some(tm) = m.tenant(id) {
                ta.row(&[
                    label.to_string(),
                    format!("{id}"),
                    pct(tm.goodput),
                    pct(tm.shed_rate),
                    format!("{}", tm.shed_over_quota),
                ]);
            }
        }
    }
    ta.print();
    println!();

    let mut all_violations = violations(&core, &points);
    for (label, m) in [
        ("diurnal", &diurnal[0].metrics),
        ("adversarial+quotas", &adversarial.0),
        ("adversarial-quotas", &adversarial.1),
    ] {
        if !m.accounts_for_all_submissions() {
            all_violations.push(format!("{label} mix loses requests"));
        }
    }
    let steady = |m: &ServerMetrics| m.tenant(TenantId(0)).map_or(0.0, |t| t.goodput);
    if steady(&adversarial.0) <= steady(&adversarial.1) {
        all_violations.push(format!(
            "tenant quotas did not protect the steady tenant ({} with vs {} without)",
            steady(&adversarial.0),
            steady(&adversarial.1)
        ));
    }
    let max_x = points_x.iter().copied().fold(0.0, f64::max);
    all_violations.extend(determinism_violations(&core, &fleet, max_x));

    println!("simulated {simulated} requests across the load sweep.");
    if all_violations.is_empty() {
        println!(
            "every point conserves requests, batched DRT strictly beats unbatched DRT \
             in the overload band below the cheapest-path knee, quotas protect the \
             steady tenant, and the sweep replays deterministically."
        );
    } else {
        for v in &all_violations {
            println!("VIOLATION: {v}");
        }
    }

    if args.json {
        let path = "BENCH_serve.json";
        std::fs::write(
            path,
            render_json(
                &fleet,
                args.quick,
                &points,
                &diurnal,
                &adversarial,
                &all_violations,
            ),
        )
        .expect("write BENCH_serve.json");
        println!("wrote {path}");
    }
    exit_code(all_violations.len(), 0, false)
}

/// Back-compat entry point used by `repro all`: the quick sweep, panicking
/// on violations instead of exiting.
pub fn serve() {
    let code = run(ServeArgs {
        json: false,
        quick: true,
    });
    assert_eq!(code, 0, "serve sweep reported violations");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_fleet() -> Fleet {
        // Even smaller than --quick: unit tests run in debug mode.
        Fleet {
            replicas: 2,
            requests_per_point: 2_500,
        }
    }

    #[test]
    fn quick_sweep_has_no_violations_and_batching_wins_at_overload() {
        let core = build_core();
        let fleet = quick_fleet();
        let points: Vec<LoadPoint> = load_points(&core, true)
            .iter()
            .enumerate()
            .map(|(i, &x)| run_point(&core, &fleet, x, SEED + i as u64))
            .collect();
        assert_eq!(violations(&core, &points), Vec::<String>::new());
        // The in-band overload point really exercised coalescing (and the
        // violations gate above already required it to win outright there).
        let overload = points
            .iter()
            .find(|p| batching_win_region(&core, p.load_x))
            .expect("quick sweep includes an in-band overload point");
        let batched = &overload.cells[0].metrics;
        assert!(batched.batched_completions > 0);
        assert!(batched.mean_batch_size > 1.0);
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let core = build_core();
        let fleet = quick_fleet();
        let heavy = *load_points(&core, true).last().unwrap();
        assert_eq!(
            determinism_violations(&core, &fleet, heavy),
            Vec::<String>::new()
        );
    }

    #[test]
    fn quotas_protect_the_steady_tenant_in_the_adversarial_mix() {
        let core = build_core();
        let (with_quotas, without) = run_adversarial(&core, &quick_fleet());
        assert!(with_quotas.accounts_for_all_submissions());
        assert!(without.accounts_for_all_submissions());
        let t0_with = with_quotas.tenant(TenantId(0)).expect("tenant 0 submitted");
        let t0_without = without.tenant(TenantId(0)).expect("tenant 0 submitted");
        assert!(
            t0_with.goodput > t0_without.goodput,
            "quotas must lift the steady tenant's goodput ({} vs {})",
            t0_with.goodput,
            t0_without.goodput
        );
        // The flooder pays for its own excess: quota sheds land on tenant 1.
        let t1_with = with_quotas.tenant(TenantId(1)).expect("tenant 1 submitted");
        assert!(t1_with.shed_over_quota > 0);
        assert_eq!(t0_with.shed_over_quota, 0);
        // Rates partition each tenant's submissions.
        for t in [t0_with, t1_with] {
            assert!((t.goodput + t.miss_rate + t.shed_rate - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn json_round_trips_through_the_engine_parser() {
        let core = build_core();
        let fleet = quick_fleet();
        let points = vec![run_point(&core, &fleet, 0.8, SEED)];
        let diurnal = vec![Cell {
            policy: "drt-batched",
            metrics: points[0].cells[0].metrics.clone(),
        }];
        let adversarial = run_adversarial(&core, &fleet);
        let text = render_json(&fleet, true, &points, &diurnal, &adversarial, &[]);
        let doc = vit_drt::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("benchmark").and_then(|b| b.as_str()), Some("serve"));
        let pts = doc.get("points").and_then(|p| p.as_arr()).unwrap();
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
        let adv = doc.get("adversarial").unwrap();
        assert!(adv
            .get("with_quotas")
            .and_then(|w| w.get("tenant0"))
            .is_some());
    }
}
