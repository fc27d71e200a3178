//! Multi-tenant dispatch: weighted-fair queueing with per-tenant quotas,
//! layered on the EDF discipline.
//!
//! [`DispatchQueue`] keeps one EDF lane per tenant. `pop` picks the lane
//! with the least *virtual work* dispatched so far (each dispatch charges
//! `1 / weight`), then the earliest deadline within that lane — so a tenant
//! with weight 2 is served twice as often as a tenant with weight 1 when
//! both have work queued, and a single-tenant queue degenerates to pure
//! earliest-deadline-first order (FIFO on ties). Per-tenant quotas bound how
//! much of the queue one tenant may occupy, so a flooding tenant sheds on
//! itself instead of starving the rest.
//!
//! [`DispatchQueue::pop_if`] is the coalescing primitive behind continuous
//! batching: it pops the next-up request only when a predicate accepts it,
//! letting a dispatching worker gather same-config requests without ever
//! reordering or skipping past a request that resolves differently.
//!
//! The plain `DispatchQueue` is single-threaded (the discrete-event
//! simulator drives it directly); [`SharedDispatchQueue`] wraps it in a
//! mutex + condvars for the threaded server.

use crate::config::TenantSpec;
use crate::request::TenantId;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Error from [`DispatchQueue::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DispatchPushError {
    /// The queue is at total capacity.
    Full,
    /// The submitting tenant is at its queue-share quota.
    OverQuota,
    /// The queue has been closed.
    Closed,
}

impl fmt::Display for DispatchPushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchPushError::Full => f.write_str("dispatch queue is at capacity"),
            DispatchPushError::OverQuota => f.write_str("tenant is at its queue-share quota"),
            DispatchPushError::Closed => f.write_str("dispatch queue is closed"),
        }
    }
}

impl std::error::Error for DispatchPushError {}

/// Result of a conditional pop ([`DispatchQueue::pop_if`]).
#[derive(Debug)]
pub enum CoalescePop<T> {
    /// The next-up item matched the predicate and was popped.
    Item(T),
    /// The next-up item did not match; it stays queued, untouched.
    Mismatch,
    /// The queue is empty (and, for the shared wrapper, the wait timed
    /// out without a new arrival).
    Empty,
    /// The queue is closed and drained.
    Closed,
}

struct Entry<K: Ord, T> {
    deadline: K,
    seq: u64,
    item: T,
}

// Max-heap inverted: earliest deadline, then lowest sequence, on top.
impl<K: Ord, T> Ord for Entry<K, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<K: Ord, T> PartialOrd for Entry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> PartialEq for Entry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<K: Ord, T> Eq for Entry<K, T> {}

struct Lane<K: Ord, T> {
    tenant: TenantId,
    weight: f64,
    quota: usize,
    heap: BinaryHeap<Entry<K, T>>,
    /// Virtual work dispatched from this lane: each pop adds `1 / weight`.
    vwork: f64,
}

/// A bounded, multi-tenant, weighted-fair EDF queue (single-threaded; see
/// [`SharedDispatchQueue`] for the threaded server's wrapper).
pub struct DispatchQueue<K: Ord, T> {
    lanes: Vec<Lane<K, T>>,
    specs: Vec<TenantSpec>,
    capacity: usize,
    len: usize,
    next_seq: u64,
    closed: bool,
}

impl<K: Ord, T> DispatchQueue<K, T> {
    /// Creates a queue holding at most `capacity` items in total, with the
    /// given tenant specs. Tenants not listed get weight 1 and full share;
    /// lanes materialize on first push.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn bounded(capacity: usize, specs: &[TenantSpec]) -> Self {
        assert!(capacity > 0, "dispatch queue needs capacity >= 1");
        DispatchQueue {
            lanes: Vec::new(),
            specs: specs.to_vec(),
            capacity,
            len: 0,
            next_seq: 0,
            closed: false,
        }
    }

    /// Current number of queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn lane_index(&mut self, tenant: TenantId) -> usize {
        if let Some(i) = self.lanes.iter().position(|l| l.tenant == tenant) {
            return i;
        }
        let spec = self
            .specs
            .iter()
            .find(|s| s.id == tenant)
            .copied()
            .unwrap_or_else(|| TenantSpec::new(tenant));
        // ceil(share × capacity), at least 1: a tenant granted any share
        // at all can always hold one request.
        let quota =
            ((spec.max_queue_share * self.capacity as f64).ceil() as usize).clamp(1, self.capacity);
        // Born empty: `try_push` starts its virtual time at the pack's.
        self.lanes.push(Lane {
            tenant,
            weight: spec.weight,
            quota,
            heap: BinaryHeap::new(),
            vwork: 0.0,
        });
        self.lanes.len() - 1
    }

    /// Inserts without blocking.
    ///
    /// # Errors
    ///
    /// [`DispatchPushError::Full`] at total capacity,
    /// [`DispatchPushError::OverQuota`] when the tenant holds its full
    /// queue share, [`DispatchPushError::Closed`] after
    /// [`DispatchQueue::close`].
    pub fn try_push(
        &mut self,
        tenant: TenantId,
        deadline: K,
        item: T,
    ) -> Result<(), DispatchPushError> {
        if self.closed {
            return Err(DispatchPushError::Closed);
        }
        if self.len >= self.capacity {
            return Err(DispatchPushError::Full);
        }
        let idx = self.lane_index(tenant);
        if self.lanes[idx].heap.len() >= self.lanes[idx].quota {
            return Err(DispatchPushError::OverQuota);
        }
        // A lane born or woken behind the pack would get a priority burst
        // worth its whole idle period; it re-enters at the busiest lane's
        // virtual time instead.
        if self.lanes[idx].heap.is_empty() {
            let floor = self
                .lanes
                .iter()
                .filter(|l| !l.heap.is_empty())
                .map(|l| l.vwork)
                .fold(0.0f64, f64::max);
            let lane = &mut self.lanes[idx];
            lane.vwork = lane.vwork.max(floor);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[idx].heap.push(Entry {
            deadline,
            seq,
            item,
        });
        self.len += 1;
        Ok(())
    }

    /// The lane `pop` would serve next: least virtual work, breaking ties
    /// by earliest head deadline, then lowest head sequence number.
    fn next_lane(&self) -> Option<usize> {
        let heads = self.lanes.iter().enumerate();
        let heads = heads.filter_map(|(i, l)| Some((i, l.vwork, l.heap.peek()?)));
        heads
            .min_by(|(_, va, a), (_, vb, b)| {
                // Entry order is reversed for the max-heap: `b.cmp(a)` puts
                // the earlier deadline, then the lower sequence, first.
                va.total_cmp(vb).then_with(|| b.cmp(a))
            })
            .map(|(i, _, _)| i)
    }

    /// Removes and returns the next item under the weighted-fair-EDF
    /// discipline, with the owning tenant. `None` when empty.
    pub fn pop(&mut self) -> Option<(TenantId, K, T)> {
        match self.pop_if(|_| true) {
            CoalescePop::Item(it) => Some(it),
            _ => None,
        }
    }

    /// Pops the item [`DispatchQueue::pop`] would return next, but only
    /// when `pred` accepts it; otherwise the queue is untouched. This is
    /// the batching primitive: a worker coalesces follow-up requests while
    /// they keep resolving to the leader's configuration and stops at the
    /// first that does not — never skipping over or reordering requests.
    pub fn pop_if(&mut self, pred: impl FnOnce(&T) -> bool) -> CoalescePop<(TenantId, K, T)> {
        let idx = match self.next_lane() {
            Some(i) => i,
            None => {
                return if self.closed {
                    CoalescePop::Closed
                } else {
                    CoalescePop::Empty
                }
            }
        };
        let head = self.lanes[idx]
            .heap
            .peek()
            .expect("selected lane is non-empty");
        if !pred(&head.item) {
            return CoalescePop::Mismatch;
        }
        let lane = &mut self.lanes[idx];
        let e = lane.heap.pop().expect("selected lane is non-empty");
        lane.vwork += 1.0 / lane.weight;
        self.len -= 1;
        CoalescePop::Item((lane.tenant, e.deadline, e.item))
    }

    /// Closes the queue: subsequent pushes fail; remaining items still
    /// pop.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`DispatchQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// Thread-safe wrapper around [`DispatchQueue`] for the serving worker
/// pool: blocking pop, timed conditional pop (the batch window), and
/// close-and-drain semantics.
pub struct SharedDispatchQueue<K: Ord, T> {
    inner: Mutex<DispatchQueue<K, T>>,
    not_empty: Condvar,
}

impl<K: Ord, T> SharedDispatchQueue<K, T> {
    /// Creates a shared queue; see [`DispatchQueue::bounded`].
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn bounded(capacity: usize, specs: &[TenantSpec]) -> Self {
        SharedDispatchQueue {
            inner: Mutex::new(DispatchQueue::bounded(capacity, specs)),
            not_empty: Condvar::new(),
        }
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts without blocking; see [`DispatchQueue::try_push`].
    ///
    /// # Errors
    ///
    /// Propagates [`DispatchPushError`] from the inner queue.
    pub fn try_push(
        &self,
        tenant: TenantId,
        deadline: K,
        item: T,
    ) -> Result<(), DispatchPushError> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .try_push(tenant, deadline, item)?;
        self.not_empty.notify_one();
        Ok(())
    }

    /// Removes and returns the next weighted-fair-EDF item, blocking while
    /// the queue is empty. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<(TenantId, K, T)> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let item = q.pop();
            if item.is_some() || q.is_closed() {
                return item;
            }
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Conditionally pops the next-up item, waiting up to `timeout` for
    /// one to arrive when the queue is empty. [`CoalescePop::Mismatch`]
    /// returns immediately (the batch is over); [`CoalescePop::Empty`]
    /// means the window expired with nothing queued.
    pub fn pop_if_timeout(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&T) -> bool,
    ) -> CoalescePop<(TenantId, K, T)> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !q.is_empty() || q.is_closed() {
                return q.pop_if(&mut pred);
            }
            let (guard, wait) = self
                .not_empty
                .wait_timeout(q, timeout)
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
            if wait.timed_out() {
                return CoalescePop::Empty;
            }
        }
    }

    /// Closes the queue: pushes fail, poppers drain then observe `Closed`.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).close();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants(specs: &[(u32, f64, f64)]) -> Vec<TenantSpec> {
        specs
            .iter()
            .map(|&(id, weight, share)| {
                TenantSpec::new(TenantId(id))
                    .with_weight(weight)
                    .with_queue_share(share)
            })
            .collect()
    }

    #[test]
    fn single_tenant_is_pure_edf_with_fifo_ties() {
        let mut q: DispatchQueue<u64, &str> = DispatchQueue::bounded(8, &[]);
        let t = TenantId::default();
        q.try_push(t, 30, "late").unwrap();
        q.try_push(t, 10, "first-early").unwrap();
        q.try_push(t, 10, "second-early").unwrap();
        q.try_push(t, 20, "mid").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, s)| s)).collect();
        assert_eq!(order, ["first-early", "second-early", "mid", "late"]);
    }

    /// A single-tenant shared queue: what the server runs without tenancy
    /// config.
    fn edf<T>(capacity: usize) -> SharedDispatchQueue<u64, T> {
        SharedDispatchQueue::bounded(capacity, &[])
    }

    const T0: TenantId = TenantId(0);

    #[test]
    fn pops_in_deadline_order_with_fifo_tiebreak() {
        let q = edf(8);
        q.try_push(T0, 30, "late").unwrap();
        q.try_push(T0, 10, "first-early").unwrap();
        q.try_push(T0, 10, "second-early").unwrap();
        q.try_push(T0, 20, "mid").unwrap();
        let order: Vec<&str> = (0..4)
            .map(|_| q.pop().expect("four items queued").2)
            .collect();
        assert_eq!(order, ["first-early", "second-early", "mid", "late"]);
    }

    #[test]
    fn bounded_capacity_rejects_then_accepts() {
        let q = edf(2);
        q.try_push(T0, 1, 1).unwrap();
        q.try_push(T0, 2, 2).unwrap();
        assert_eq!(q.try_push(T0, 3, 3), Err(DispatchPushError::Full));
        assert_eq!(q.pop().expect("two items queued").2, 1);
        q.try_push(T0, 3, 3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let q: Arc<SharedDispatchQueue<u64, u64>> = Arc::new(edf(4));
        let sum = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..3u64 {
                let q = q.clone();
                s.spawn(move || {
                    // The shared queue never blocks a producer: retry a
                    // full queue until a consumer makes room.
                    for i in 0..50 {
                        while q.try_push(T0, p * 50 + i, p * 50 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..3 {
                let q = q.clone();
                let sum = sum.clone();
                s.spawn(move || {
                    while let Some((_, _, v)) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                // Give producers time to finish, then close.
                while !q.is_empty() || sum.load(Ordering::Relaxed) < (0..150u64).sum::<u64>() {
                    std::thread::yield_now();
                }
                q.close();
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..150u64).sum::<u64>());
    }

    #[test]
    fn weighted_fair_interleaves_by_weight() {
        // Tenant 1 (weight 2) gets two dispatches per tenant 2 (weight 1)
        // dispatch, regardless of deadlines favoring tenant 2.
        let specs = tenants(&[(1, 2.0, 1.0), (2, 1.0, 1.0)]);
        let mut q: DispatchQueue<u64, u32> = DispatchQueue::bounded(16, &specs);
        for i in 0..6 {
            q.try_push(TenantId(1), 100 + i, 10 + i as u32).unwrap();
            q.try_push(TenantId(2), i, 20 + i as u32).unwrap();
        }
        let order: Vec<TenantId> = std::iter::from_fn(|| q.pop().map(|(t, _, _)| t)).collect();
        let first_six: Vec<u32> = order.iter().take(6).map(|t| t.0).collect();
        // Per 3 dispatches: 2× tenant 1, 1× tenant 2 (weight ratio 2:1).
        assert_eq!(
            first_six.iter().filter(|&&t| t == 1).count(),
            4,
            "order: {order:?}"
        );
        assert_eq!(first_six.iter().filter(|&&t| t == 2).count(), 2);
    }

    #[test]
    fn quota_sheds_the_flooding_tenant_only() {
        let specs = tenants(&[(1, 1.0, 0.5), (2, 1.0, 0.5)]);
        let mut q: DispatchQueue<u64, u32> = DispatchQueue::bounded(8, &specs);
        // Tenant 1 floods: quota is ceil(0.5 × 8) = 4.
        for i in 0..4 {
            q.try_push(TenantId(1), i, i as u32).unwrap();
        }
        assert_eq!(
            q.try_push(TenantId(1), 99, 99),
            Err(DispatchPushError::OverQuota)
        );
        // Tenant 2 still has its full share available.
        for i in 0..4 {
            q.try_push(TenantId(2), i, i as u32).unwrap();
        }
        assert_eq!(q.len(), 8);
        assert_eq!(
            q.try_push(TenantId(2), 99, 99),
            Err(DispatchPushError::Full)
        );
    }

    #[test]
    fn pop_if_mismatch_leaves_queue_untouched() {
        let mut q: DispatchQueue<u64, u32> = DispatchQueue::bounded(8, &[]);
        let t = TenantId::default();
        q.try_push(t, 1, 7).unwrap();
        q.try_push(t, 2, 8).unwrap();
        assert!(matches!(
            q.pop_if(|&v| v == 7),
            CoalescePop::Item((_, 1, 7))
        ));
        // Head is now 8; a predicate wanting 7 must not pop or skip it.
        assert!(matches!(q.pop_if(|&v| v == 7), CoalescePop::Mismatch));
        assert_eq!(q.len(), 1);
        assert!(matches!(q.pop(), Some((_, 2, 8))));
        assert!(matches!(q.pop_if(|_| true), CoalescePop::Empty));
    }

    #[test]
    fn idle_lane_does_not_bank_priority() {
        let specs = tenants(&[(1, 1.0, 1.0), (2, 1.0, 1.0)]);
        let mut q: DispatchQueue<u64, u32> = DispatchQueue::bounded(64, &specs);
        // Tenant 1 runs alone for a while, accumulating vwork.
        for i in 0..10 {
            q.try_push(TenantId(1), i, 0).unwrap();
            q.pop().unwrap();
        }
        // Tenant 2 shows up with equal weight: it must share 1:1 from
        // here, not monopolize until it "catches up" 10 dispatches.
        for i in 0..6 {
            q.try_push(TenantId(1), 100 + i, 1).unwrap();
            q.try_push(TenantId(2), 100 + i, 2).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(t, _, _)| t.0)).collect();
        let first_four = &order[..4];
        assert_eq!(
            first_four.iter().filter(|&&t| t == 2).count(),
            2,
            "tenant 2 burst through: {order:?}"
        );
    }

    #[test]
    fn shared_queue_close_drains_then_reports_closed() {
        let q: SharedDispatchQueue<u64, u32> = SharedDispatchQueue::bounded(4, &[]);
        q.try_push(TenantId::default(), 5, 50).unwrap();
        q.close();
        assert_eq!(
            q.try_push(TenantId::default(), 6, 60),
            Err(DispatchPushError::Closed)
        );
        assert!(matches!(q.pop(), Some((_, 5, 50))));
        assert!(q.pop().is_none());
        assert!(matches!(
            q.pop_if_timeout(Duration::from_millis(1), |_| true),
            CoalescePop::Closed
        ));
    }

    #[test]
    fn shared_pop_if_timeout_expires_on_empty() {
        let q: SharedDispatchQueue<u64, u32> = SharedDispatchQueue::bounded(4, &[]);
        assert!(matches!(
            q.pop_if_timeout(Duration::from_millis(1), |_| true),
            CoalescePop::Empty
        ));
    }

    /// A predicate that panics while the queue mutex is held poisons it;
    /// the queue recovers the lock instead of propagating the poison, so
    /// every operation keeps working and a blocked popper still drains.
    #[test]
    fn shared_queue_survives_a_poisoned_lock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let q: SharedDispatchQueue<u64, u32> = SharedDispatchQueue::bounded(4, &[]);
        let t = TenantId::default();
        q.try_push(t, 1, 10).unwrap();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            q.pop_if_timeout(Duration::from_millis(1), |_| panic!("predicate bug"))
        }));
        assert!(panicked.is_err());
        assert!(q.inner.is_poisoned());

        // The panicking predicate popped nothing.
        assert_eq!(q.len(), 1);
        q.try_push(t, 2, 20).unwrap();
        assert!(matches!(q.pop(), Some((_, 1, 10))));
        assert!(matches!(
            q.pop_if_timeout(Duration::from_millis(1), |_| true),
            CoalescePop::Item((_, 2, 20))
        ));

        std::thread::scope(|s| {
            let popper = s.spawn(|| [q.pop(), q.pop()]);
            q.try_push(t, 3, 30).unwrap();
            q.close();
            let [first, second] = popper.join().unwrap();
            assert!(matches!(first, Some((_, 3, 30))));
            assert!(second.is_none());
        });
    }
}
