//! Property tests for the serving scheduler: EDF ordering under arbitrary
//! interleavings, and admission control never letting through a request
//! whose slack cannot cover the cheapest LUT entry.

use proptest::collection::vec;
use proptest::prelude::*;
use vit_drt::{EngineCore, EngineFamily, Lut};
use vit_fault::FaultPlan;
use vit_models::{SegFormerDynamic, SegFormerVariant};
use vit_resilience::{DynConfig, TradeoffPoint};
use vit_serve::{
    admissible, simulate, Calibration, RecoveryPolicy, ServerConfig, ServerConfigBuilder,
    SharedDispatchQueue, SimArrival, SimModel, TenantId,
};

/// A synthetic core whose LUT costs 1/2/4 units.
fn tiny_core() -> EngineCore {
    let point = |r: f64, a: f64| TradeoffPoint {
        label: String::new(),
        config: DynConfig::SegFormer(SegFormerDynamic::with_depths_and_fuse(
            &SegFormerVariant::b0(),
            [1, 1, 1, 1],
            ((r * 64.0) as usize).max(4),
        )),
        resource: r,
        norm_resource: r / 4.0,
        norm_miou: a,
    };
    let lut = Lut::from_points(
        "proptest",
        &[point(1.0, 0.6), point(2.0, 0.85), point(4.0, 1.0)],
    );
    EngineCore::new(
        EngineFamily::SegFormer(SegFormerVariant::b0()),
        150,
        (64, 64),
        lut,
    )
    .unwrap()
}

/// One replica at one virtual second per LUT unit.
fn unit() -> SimModel {
    SimModel::new(Calibration::from_secs_per_unit(1.0))
}

fn server(workers: usize, queue_depth: usize) -> ServerConfigBuilder {
    ServerConfig::builder()
        .workers(workers)
        .queue_depth(queue_depth)
}

proptest! {
    /// Whatever order deadlines are pushed in, the server's single-tenant
    /// dispatch queue pops them in nondecreasing deadline order, and equal
    /// deadlines come out in arrival (FIFO) order.
    #[test]
    fn edf_pop_order_is_sorted_with_fifo_ties(deadlines in vec(0u64..16, 1..64)) {
        let q: SharedDispatchQueue<u64, usize> = SharedDispatchQueue::bounded(64, &[]);
        for (i, d) in deadlines.iter().enumerate() {
            q.try_push(TenantId::default(), *d, i).unwrap();
        }
        q.close();
        let mut popped = Vec::new();
        while let Some((_, d, i)) = q.pop() {
            popped.push((d, i));
        }
        prop_assert_eq!(popped.len(), deadlines.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "deadlines out of order: {:?}", w);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated: {:?}", w);
            }
        }
    }

    /// Admission is exactly the slack-vs-cheapest-cost threshold.
    #[test]
    fn admission_never_admits_slack_below_cheapest(
        slack in -100.0f64..100.0,
        cheapest in 0.0f64..50.0,
    ) {
        prop_assert_eq!(admissible(slack, cheapest), slack >= cheapest);
    }

    /// Under arbitrary arrival patterns, the simulator (a) accounts for
    /// every request, (b) sheds at admission *exactly* the arrivals whose
    /// slack is below the cheapest path, and (c) never runs a request
    /// whose budget could not cover the cheapest entry.
    #[test]
    fn simulator_conserves_requests_and_enforces_admission(
        raw in vec((0.0f64..50.0, 0.0f64..12.0), 1..80),
        workers in 1usize..5,
        queue_depth in 1usize..12,
    ) {
        let core = tiny_core();
        let arrivals: Vec<SimArrival> = raw
            .iter()
            .map(|(time, slack)| SimArrival::new(*time, *slack))
            .collect();
        let metrics = simulate(
            &core,
            &server(workers, queue_depth).build().unwrap(),
            unit(),
            &arrivals,
        );
        prop_assert_eq!(metrics.submitted, arrivals.len());
        prop_assert!(metrics.accounts_for_all_submissions());
        // With secs_per_unit = 1.0 a slack below the cheapest cost (1.0)
        // can never be admitted, and nothing else sheds for that reason.
        let impossible = arrivals
            .iter()
            .filter(|a| !admissible(a.slack, core.min_resource()))
            .count();
        prop_assert_eq!(metrics.shed_no_slack, impossible);
        // Every completed request ran a path at least as cheap as its
        // whole slack allowed: delivered accuracy only comes from real
        // LUT rows.
        for (config, _) in &metrics.config_histogram {
            prop_assert!(core.lut().entries().iter().any(|e| e.config == *config));
        }
    }

    /// Queue-edge discipline: a request whose slack expires while it waits
    /// in the queue is dropped at dispatch (shed, never executed) and is
    /// counted exactly once — even with retries in flight on other
    /// requests, conservation holds and `goodput + deadline_miss_rate`
    /// always partitions the offered load.
    #[test]
    fn in_queue_expiry_is_counted_once_even_under_chaos(
        raw in vec((0.0f64..30.0, 0.9f64..6.0), 1..60),
        crash in 0.0f64..0.5,
        bitflip in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let core = tiny_core();
        let arrivals: Vec<SimArrival> = raw
            .iter()
            .map(|(time, slack)| SimArrival::new(*time, *slack))
            .collect();
        // One slow worker + tight slacks: some admitted requests expire
        // in-queue, while injected faults force retries on others.
        let cfg = server(1, 8)
            .fault(FaultPlan {
                seed,
                crash_rate: crash,
                bitflip_rate: bitflip,
                stall_rate: 0.0,
                stall_factor: 1.0,
                replay_rate: 0.0,
            })
            .recovery(RecoveryPolicy::DegradedRetry { max_retries: 2 })
            .build()
            .unwrap();
        let m = simulate(&core, &cfg, unit(), &arrivals);
        prop_assert_eq!(m.submitted, arrivals.len());
        // Exactly-once accounting: completed + shed + fault-failed
        // partitions the submissions — an in-queue expiry can never also
        // appear as a completion or failure, and a retried request still
        // lands in exactly one bucket.
        prop_assert!(m.accounts_for_all_submissions());
        // Each retry was caused by an observed fault.
        prop_assert!(m.faults_seen >= m.retries);
        // Every fault-failure observed at least one fault.
        prop_assert!(m.faults_seen >= m.fault_failures);
        prop_assert!(m.degraded_completions <= m.completed);
        // goodput and miss-rate partition the offered load exactly.
        prop_assert!((m.goodput + m.deadline_miss_rate - 1.0).abs() < 1e-9);
    }

    /// A chaos run is a pure function of (plan seed, arrivals): two
    /// simulations with identical inputs agree on every counter.
    #[test]
    fn chaos_simulation_is_replayable(
        raw in vec((0.0f64..20.0, 1.0f64..8.0), 1..40),
        seed in 0u64..1000,
    ) {
        let core = tiny_core();
        let arrivals: Vec<SimArrival> = raw
            .iter()
            .map(|(time, slack)| SimArrival::new(*time, *slack))
            .collect();
        let cfg = server(2, 8)
            .fault(FaultPlan {
                seed,
                crash_rate: 0.2,
                bitflip_rate: 0.1,
                stall_rate: 0.1,
                stall_factor: 8.0,
                replay_rate: 0.05,
            })
            .build()
            .unwrap();
        let a = simulate(&core, &cfg, unit(), &arrivals);
        let b = simulate(&core, &cfg, unit(), &arrivals);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.fault_failures, b.fault_failures);
        prop_assert_eq!(a.faults_seen, b.faults_seen);
        prop_assert_eq!(a.retries, b.retries);
        prop_assert_eq!(a.degraded_completions, b.degraded_completions);
        prop_assert_eq!(a.p99_latency, b.p99_latency);
        prop_assert_eq!(a.failure_histogram, b.failure_histogram);
    }
}

proptest! {
    /// Multi-tenant admission accounting: whatever mix of tenants, weights,
    /// and queue shares the fuzzer picks — including a heavy tenant trying
    /// to starve the rest — every tenant's submissions are partitioned
    /// exactly by `goodput + miss_rate + shed_rate == 1`, and the global
    /// counters conserve every request.
    #[test]
    fn tenant_rates_partition_submissions_under_arbitrary_load(
        raw in vec((0.0f64..30.0, 0.5f64..8.0, 0u32..3), 1..80),
        w0 in 0.1f64..4.0,
        w1 in 0.1f64..4.0,
        share0 in 0.1f64..1.0,
        share1 in 0.1f64..1.0,
        queue_depth in 2usize..10,
    ) {
        use vit_serve::TenantSpec;

        let core = tiny_core();
        let arrivals: Vec<SimArrival> = raw
            .iter()
            .map(|(time, slack, t)| {
                SimArrival::new(*time, *slack).with_tenant(TenantId(*t))
            })
            .collect();
        let cfg = server(1, queue_depth)
            .tenant(TenantSpec::new(TenantId(0)).with_weight(w0).with_queue_share(share0))
            .tenant(TenantSpec::new(TenantId(1)).with_weight(w1).with_queue_share(share1))
            // Tenant 2 keeps the defaults: weight 1, unlimited share.
            .tenant(TenantSpec::new(TenantId(2)))
            .build()
            .unwrap();
        let m = simulate(&core, &cfg, unit(), &arrivals);
        prop_assert_eq!(m.submitted, arrivals.len());
        prop_assert!(m.accounts_for_all_submissions());

        let mut seen = 0usize;
        for (id, t) in &m.per_tenant {
            let expected = arrivals.iter().filter(|a| a.tenant == *id).count();
            prop_assert_eq!(t.submitted, expected, "tenant {} submissions", id);
            seen += t.submitted;
            if t.submitted > 0 {
                prop_assert!(
                    (t.goodput + t.miss_rate + t.shed_rate - 1.0).abs() < 1e-9,
                    "tenant {} rates {} + {} + {} must partition 1",
                    id, t.goodput, t.miss_rate, t.shed_rate
                );
            }
            prop_assert!(t.shed_over_quota <= t.shed);
            prop_assert!(t.completed >= t.on_time);
        }
        prop_assert_eq!(seen, m.submitted, "tenant breakdown covers every request");
    }
}
