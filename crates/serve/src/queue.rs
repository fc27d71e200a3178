//! The blocking-pop result of the serving dispatch queue
//! ([`crate::SharedDispatchQueue`]), and the single-tenant EDF contract
//! that queue keeps: `pop` returns the queued item with the *earliest*
//! deadline — the EDF discipline, optimal for meeting deadlines on a
//! single resource — with FIFO arrival order as the tie-break so equal
//! deadlines stay fair.

/// Result of a blocking pop.
#[derive(Debug)]
pub enum PopResult<T> {
    /// The earliest-deadline item.
    Item(T),
    /// The queue is closed and drained.
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DispatchPushError, SharedDispatchQueue, TenantId};

    /// A single-tenant queue: what the server runs without tenancy config.
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
            .map(|_| match q.pop() {
                PopResult::Item((_, _, s)) => s,
                PopResult::Closed => unreachable!(),
            })
            .collect();
        assert_eq!(order, ["first-early", "second-early", "mid", "late"]);
    }

    #[test]
    fn bounded_capacity_rejects_then_accepts() {
        let q = edf(2);
        q.try_push(T0, 1, 1).unwrap();
        q.try_push(T0, 2, 2).unwrap();
        assert_eq!(q.try_push(T0, 3, 3), Err(DispatchPushError::Full));
        match q.pop() {
            PopResult::Item((_, _, v)) => assert_eq!(v, 1),
            PopResult::Closed => unreachable!(),
        }
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
                    while let PopResult::Item((_, _, v)) = q.pop() {
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
}
