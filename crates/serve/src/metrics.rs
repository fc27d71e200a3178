//! Aggregate serving metrics.

use crate::request::{FailureReason, Outcome, RequestRecord, ShedReason, TenantId};
use std::collections::BTreeMap;
use vit_drt::LutConfig;

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample.
/// Returns 0.0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// One tenant's slice of a serving run. The three rates partition the
/// tenant's submissions: `goodput + miss_rate + shed_rate == 1` (up to
/// float rounding), where a *miss* is a late completion or a fault
/// failure and a *shed* never executed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantMetrics {
    /// Requests this tenant offered.
    pub submitted: usize,
    /// Requests that executed (possibly late).
    pub completed: usize,
    /// On-time completions.
    pub on_time: usize,
    /// Requests shed for any reason (admission, quota, queue, in-queue
    /// expiry).
    pub shed: usize,
    /// Requests shed specifically because this tenant was over its queue
    /// quota (a subset of `shed`).
    pub shed_over_quota: usize,
    /// Requests that dispatched but failed every allowed attempt.
    pub fault_failures: usize,
    /// On-time completions over submitted.
    pub goodput: f64,
    /// Late completions + fault failures, over submitted.
    pub miss_rate: f64,
    /// All sheds over submitted.
    pub shed_rate: f64,
}

/// Aggregated results of a serving run (threaded server or simulation).
///
/// Latencies are in seconds (wall or virtual, matching the substrate).
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// All requests offered to the server.
    pub submitted: usize,
    /// Requests that executed (possibly late).
    pub completed: usize,
    /// Requests shed because the bounded queue was full.
    pub shed_queue_full: usize,
    /// Requests shed by admission control (slack below cheapest entry).
    pub shed_no_slack: usize,
    /// Requests shed at dispatch after their slack expired in-queue.
    pub shed_late: usize,
    /// Requests shed because their tenant exceeded its queue quota.
    pub shed_over_quota: usize,
    /// Requests that dispatched but failed every allowed attempt (faults
    /// exhausted the recovery policy). Accounted separately from deadline
    /// misses and sheds.
    pub fault_failures: usize,
    /// Fault-failure tally by final [`FailureReason`], most-common first.
    pub failure_histogram: Vec<(FailureReason, usize)>,
    /// Faults observed across all requests and attempts (including faults
    /// that recovery subsequently absorbed).
    pub faults_seen: usize,
    /// Retry attempts made across all requests.
    pub retries: usize,
    /// Completed requests that needed at least one retry — the
    /// self-healing path's degraded completions.
    pub degraded_completions: usize,
    /// Mean LUT-estimate accuracy of degraded completions (0 when none).
    pub mean_degraded_accuracy: f64,
    /// Completed requests served by a coalesced batch pass
    /// (`batch_size > 1`).
    pub batched_completions: usize,
    /// Mean batch size over completed requests (1.0 when nothing batched).
    pub mean_batch_size: f64,
    /// Completed requests that finished after their deadline.
    pub deadline_misses: usize,
    /// Median completion latency.
    pub p50_latency: f64,
    /// 95th-percentile completion latency.
    pub p95_latency: f64,
    /// 99th-percentile completion latency.
    pub p99_latency: f64,
    /// Mean submission → dispatch wait of completed requests.
    pub mean_queue_wait: f64,
    /// Median submission → dispatch wait of completed requests.
    pub p50_queue_wait: f64,
    /// 95th-percentile submission → dispatch wait.
    pub p95_queue_wait: f64,
    /// 99th-percentile submission → dispatch wait.
    pub p99_queue_wait: f64,
    /// 99.9th-percentile submission → dispatch wait (tail of the tail —
    /// where retry-induced queueing shows up first).
    pub p999_queue_wait: f64,
    /// `deadline_misses + all sheds + fault failures` over `submitted`:
    /// the fraction of offered requests that did NOT produce an on-time
    /// result.
    pub deadline_miss_rate: f64,
    /// On-time completions over `submitted` — the complement of
    /// `deadline_miss_rate`, reported directly because it is the headline
    /// number of the chaos experiment.
    pub goodput: f64,
    /// All sheds over `submitted`.
    pub shed_rate: f64,
    /// Mean *delivered* accuracy over all submitted requests: the LUT
    /// accuracy estimate for on-time completions, zero for misses and
    /// sheds (a late or absent answer delivers nothing).
    pub mean_delivered_accuracy: f64,
    /// How often each LUT configuration was selected, most-used first.
    pub config_histogram: Vec<(LutConfig, usize)>,
    /// Per-tenant breakdown, ordered by tenant id. A single-tenant run
    /// has one entry for the default tenant.
    pub per_tenant: Vec<(TenantId, TenantMetrics)>,
}

impl ServerMetrics {
    /// Aggregates per-request outcomes.
    pub fn from_outcomes(outcomes: &[Outcome]) -> Self {
        let submitted = outcomes.len();
        let records: Vec<&RequestRecord> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Completed(r) => Some(r),
                _ => None,
            })
            .collect();
        let shed_count = |reason: ShedReason| {
            outcomes
                .iter()
                .filter(|o| matches!(o, Outcome::Shed(r) if r.reason == reason))
                .count()
        };
        let shed_queue_full = shed_count(ShedReason::QueueFull);
        let shed_no_slack = shed_count(ShedReason::SlackBelowCheapest);
        let shed_late = shed_count(ShedReason::SlackExhausted);
        let shed_over_quota = shed_count(ShedReason::OverQuota);
        let sheds = shed_queue_full + shed_no_slack + shed_late + shed_over_quota;
        let deadline_misses = records.iter().filter(|r| !r.met_deadline).count();

        let failures: Vec<&crate::request::FailureRecord> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Failed(f) => Some(f),
                _ => None,
            })
            .collect();
        let fault_failures = failures.len();
        let failure_histogram = histogram(failures.iter().map(|f| f.reason));
        let faults_seen = records
            .iter()
            .map(|r| r.faults_seen as usize)
            .sum::<usize>()
            + failures
                .iter()
                .map(|f| f.faults_seen as usize)
                .sum::<usize>();
        let retries = records.iter().map(|r| r.retries as usize).sum::<usize>()
            + failures.iter().map(|f| f.retries as usize).sum::<usize>();
        let degraded: Vec<&&RequestRecord> = records.iter().filter(|r| r.is_degraded()).collect();
        let degraded_completions = degraded.len();
        let mean_degraded_accuracy = if degraded.is_empty() {
            0.0
        } else {
            degraded.iter().map(|r| r.accuracy).sum::<f64>() / degraded.len() as f64
        };
        let batched_completions = records.iter().filter(|r| r.batch_size > 1).count();
        let mean_batch_size = if records.is_empty() {
            1.0
        } else {
            records.iter().map(|r| r.batch_size as f64).sum::<f64>() / records.len() as f64
        };
        let on_time = records.iter().filter(|r| r.met_deadline).count();

        let latencies: Vec<f64> = records.iter().map(|r| r.latency).collect();
        let queue_waits: Vec<f64> = records.iter().map(|r| r.queue_wait).collect();
        let mean_queue_wait = if queue_waits.is_empty() {
            0.0
        } else {
            queue_waits.iter().sum::<f64>() / queue_waits.len() as f64
        };
        let delivered: f64 = records.iter().map(|r| r.delivered_accuracy()).sum();

        let per_tenant = tenant_breakdown(outcomes);

        let frac = |n: usize| {
            if submitted == 0 {
                0.0
            } else {
                n as f64 / submitted as f64
            }
        };
        ServerMetrics {
            submitted,
            completed: records.len(),
            shed_queue_full,
            shed_no_slack,
            shed_late,
            shed_over_quota,
            fault_failures,
            failure_histogram,
            faults_seen,
            retries,
            degraded_completions,
            mean_degraded_accuracy,
            batched_completions,
            mean_batch_size,
            deadline_misses,
            p50_latency: percentile(&latencies, 50.0),
            p95_latency: percentile(&latencies, 95.0),
            p99_latency: percentile(&latencies, 99.0),
            mean_queue_wait,
            p50_queue_wait: percentile(&queue_waits, 50.0),
            p95_queue_wait: percentile(&queue_waits, 95.0),
            p99_queue_wait: percentile(&queue_waits, 99.0),
            p999_queue_wait: percentile(&queue_waits, 99.9),
            deadline_miss_rate: frac(deadline_misses + sheds + fault_failures),
            goodput: frac(on_time),
            shed_rate: frac(sheds),
            mean_delivered_accuracy: if submitted == 0 {
                0.0
            } else {
                delivered / submitted as f64
            },
            config_histogram: histogram(records.iter().map(|r| r.config)),
            per_tenant,
        }
    }

    /// Total requests shed for any reason.
    pub fn shed(&self) -> usize {
        self.shed_queue_full + self.shed_no_slack + self.shed_late + self.shed_over_quota
    }

    /// `completed + shed() + fault_failures == submitted` — no request
    /// vanished, and none is double-counted across the three terminal
    /// states.
    pub fn accounts_for_all_submissions(&self) -> bool {
        self.completed + self.shed() + self.fault_failures == self.submitted
    }

    /// This run's metrics for one tenant, when it submitted anything.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantMetrics> {
        self.per_tenant
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, m)| m)
    }
}

/// Tallies `items` by value, most common first (ties in first-seen order).
fn histogram<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<(T, usize)> {
    let mut tally: Vec<(T, usize)> = Vec::new();
    for item in items {
        match tally.iter_mut().find(|(t, _)| *t == item) {
            Some((_, n)) => *n += 1,
            None => tally.push((item, 1)),
        }
    }
    tally.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    tally
}

/// Splits outcomes by tenant and computes each tenant's partition rates.
fn tenant_breakdown(outcomes: &[Outcome]) -> Vec<(TenantId, TenantMetrics)> {
    let mut per: BTreeMap<TenantId, TenantMetrics> = BTreeMap::new();
    for o in outcomes {
        let tenant = match o {
            Outcome::Completed(r) => r.tenant,
            Outcome::Shed(s) => s.tenant,
            Outcome::Failed(f) => f.tenant,
        };
        let m = per.entry(tenant).or_default();
        m.submitted += 1;
        match o {
            Outcome::Completed(r) => {
                m.completed += 1;
                m.on_time += usize::from(r.met_deadline);
            }
            Outcome::Shed(s) => {
                m.shed += 1;
                m.shed_over_quota += usize::from(s.reason == ShedReason::OverQuota);
            }
            Outcome::Failed(_) => m.fault_failures += 1,
        }
    }
    per.into_iter()
        .map(|(tenant, mut m)| {
            let n = m.submitted as f64;
            let late = m.completed - m.on_time;
            m.goodput = m.on_time as f64 / n;
            m.miss_rate = (late + m.fault_failures) as f64 / n;
            m.shed_rate = m.shed as f64 / n;
            (tenant, m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ShedRecord;

    fn config() -> LutConfig {
        LutConfig::Swin {
            depths: [2, 2, 6, 2],
            bottleneck_in_channels: 512,
        }
    }

    fn record(latency: f64, met: bool, accuracy: f64) -> Outcome {
        record_for(latency, met, accuracy, TenantId::default())
    }

    fn record_for(latency: f64, met: bool, accuracy: f64, tenant: TenantId) -> Outcome {
        Outcome::Completed(RequestRecord {
            latency,
            queue_wait: latency / 2.0,
            met_deadline: met,
            accuracy,
            config: config(),
            retries: 0,
            faults_seen: 0,
            tenant,
            ticket: None,
            batch_size: 1,
        })
    }

    fn shed(reason: ShedReason) -> Outcome {
        Outcome::Shed(ShedRecord::at_admission(reason, TenantId::default()))
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn aggregation_counts_everything() {
        let outcomes = vec![
            record(0.010, true, 0.9),
            record(0.020, true, 1.0),
            record(0.500, false, 1.0), // late: delivers 0
            shed(ShedReason::QueueFull),
            shed(ShedReason::SlackBelowCheapest),
        ];
        let m = ServerMetrics::from_outcomes(&outcomes);
        assert_eq!(m.submitted, 5);
        assert_eq!(m.completed, 3);
        assert_eq!(m.shed(), 2);
        assert!(m.accounts_for_all_submissions());
        assert_eq!(m.deadline_misses, 1);
        // 1 miss + 2 sheds out of 5 offered.
        assert!((m.deadline_miss_rate - 0.6).abs() < 1e-12);
        assert!((m.shed_rate - 0.4).abs() < 1e-12);
        // (0.9 + 1.0 + 0 + 0 + 0) / 5
        assert!((m.mean_delivered_accuracy - 0.38).abs() < 1e-12);
        assert_eq!(m.config_histogram, vec![(config(), 3)]);
        assert_eq!(m.p99_latency, 0.5);
        // queue_wait is latency/2 in the fixture, so the percentiles track.
        assert_eq!(m.p50_queue_wait, 0.010);
        assert_eq!(m.p95_queue_wait, 0.250);
        assert_eq!(m.p99_queue_wait, 0.250);
        assert!((m.mean_queue_wait - (0.005 + 0.010 + 0.250) / 3.0).abs() < 1e-12);
        // No chaos or batching in this fixture.
        assert_eq!(m.fault_failures, 0);
        assert_eq!(m.faults_seen, 0);
        assert_eq!(m.degraded_completions, 0);
        assert_eq!(m.batched_completions, 0);
        assert!((m.mean_batch_size - 1.0).abs() < 1e-12);
        assert!((m.goodput - 0.4).abs() < 1e-12);
        // Single-tenant run: one per-tenant entry mirroring the totals.
        assert_eq!(m.per_tenant.len(), 1);
        let t = m.tenant(TenantId::default()).unwrap();
        assert_eq!(t.submitted, 5);
        assert!((t.goodput + t.miss_rate + t.shed_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_failures_are_accounted_separately_from_misses_and_sheds() {
        use crate::request::{FailureReason, FailureRecord};
        let mut degraded = match record(0.030, true, 0.7) {
            Outcome::Completed(r) => r,
            _ => unreachable!(),
        };
        degraded.retries = 1;
        degraded.faults_seen = 1;
        let fail = |reason, retries, faults_seen| {
            Outcome::Failed(FailureRecord {
                reason,
                retries,
                faults_seen,
                tenant: TenantId::default(),
                ticket: None,
            })
        };
        let outcomes = vec![
            record(0.010, true, 0.9),
            Outcome::Completed(degraded),
            fail(FailureReason::Crash, 2, 3),
            fail(FailureReason::GuardTripped, 0, 1),
            shed(ShedReason::QueueFull),
        ];
        let m = ServerMetrics::from_outcomes(&outcomes);
        assert_eq!(m.submitted, 5);
        assert_eq!(m.completed, 2);
        assert_eq!(m.fault_failures, 2);
        assert_eq!(m.shed(), 1);
        assert!(m.accounts_for_all_submissions());
        assert_eq!(m.deadline_misses, 0);
        // 0 misses + 1 shed + 2 fault failures out of 5.
        assert!((m.deadline_miss_rate - 0.6).abs() < 1e-12);
        assert!((m.goodput - 0.4).abs() < 1e-12);
        assert_eq!(m.faults_seen, 1 + 3 + 1);
        assert_eq!(m.retries, 1 + 2);
        assert_eq!(m.degraded_completions, 1);
        assert!((m.mean_degraded_accuracy - 0.7).abs() < 1e-12);
        assert_eq!(
            m.failure_histogram,
            vec![(FailureReason::Crash, 1), (FailureReason::GuardTripped, 1)]
        );
        // The fault failures land in the default tenant's miss_rate.
        let t = m.tenant(TenantId::default()).unwrap();
        assert!((t.miss_rate - 0.4).abs() < 1e-12);
        assert!((t.goodput + t.miss_rate + t.shed_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_tenant_rates_partition_each_tenants_submissions() {
        let a = TenantId(1);
        let b = TenantId(2);
        let outcomes = vec![
            record_for(0.010, true, 0.9, a),
            record_for(0.900, false, 0.9, a), // late
            record_for(0.010, true, 0.8, b),
            Outcome::Shed(ShedRecord::at_admission(ShedReason::OverQuota, b)),
            Outcome::Shed(ShedRecord::at_admission(ShedReason::QueueFull, b)),
        ];
        let m = ServerMetrics::from_outcomes(&outcomes);
        assert_eq!(m.shed_over_quota, 1);
        assert_eq!(m.per_tenant.len(), 2);
        let ma = m.tenant(a).unwrap();
        assert_eq!((ma.submitted, ma.on_time), (2, 1));
        assert!((ma.goodput - 0.5).abs() < 1e-12);
        assert!((ma.miss_rate - 0.5).abs() < 1e-12);
        assert!((ma.shed_rate - 0.0).abs() < 1e-12);
        let mb = m.tenant(b).unwrap();
        assert_eq!((mb.submitted, mb.shed, mb.shed_over_quota), (3, 2, 1));
        assert!((mb.goodput + mb.miss_rate + mb.shed_rate - 1.0).abs() < 1e-12);
        assert!(m.tenant(TenantId(9)).is_none());
    }

    #[test]
    fn batch_sizes_aggregate_over_completions() {
        let mut batched = match record(0.010, true, 0.9) {
            Outcome::Completed(r) => r,
            _ => unreachable!(),
        };
        batched.batch_size = 4;
        let outcomes = vec![Outcome::Completed(batched), record(0.020, true, 0.9)];
        let m = ServerMetrics::from_outcomes(&outcomes);
        assert_eq!(m.batched_completions, 1);
        assert!((m.mean_batch_size - 2.5).abs() < 1e-12);
    }
}
