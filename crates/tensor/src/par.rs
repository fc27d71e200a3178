//! Std-only intra-process parallelism substrate: a caller-participating
//! worker pool ([`ThreadPool`]), a reusable allocation free-list
//! ([`BufferPool`]), and the [`ExecCtx`] handle kernels take to opt into
//! both.
//!
//! # Determinism contract
//!
//! Every parallel kernel built on this module partitions its *output*
//! space into disjoint chunks and computes each output element with
//! exactly the same floating-point operation sequence as the sequential
//! kernel. No reduction ever crosses a chunk boundary, so results are
//! bit-identical to the single-threaded reference at any thread count and
//! under any scheduling order. The differential test suite
//! (`crates/graph/tests/differential.rs`) holds this contract under
//! property testing.
//!
//! # Scheduling model
//!
//! [`ThreadPool::new`]`(threads)` spawns `threads - 1` background workers;
//! the thread that opens a [`ThreadPool::scope`] *helps* drain the shared
//! queue while it waits, so total concurrency equals `threads`. Jobs may
//! spawn further jobs into the same scope, and jobs may open nested
//! scopes on the same pool; the caller-helps rule makes both compose
//! without deadlock — a blocked scope always makes progress by executing
//! queued work itself.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::tensor::Tensor;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The exact chunk decomposition [`ThreadPool::for_each_row_chunk`] uses
/// for a buffer of `total_len` elements in rows of `row_len`, split into
/// at most `chunks` pieces: successive `(start, len)` ranges, row-aligned,
/// covering `[0, total_len)` exactly once.
///
/// This is *the* tiling oracle: the executor derives its piece size from
/// the same arithmetic, so a static analyzer (vit-verify's exec-safety
/// pass) that consumes these ranges reasons about the identical chunks
/// the kernels will write at run time — the two cannot drift apart.
///
/// Degenerate inputs are handled the way the executor handles them:
/// `row_len == 0` or an empty buffer yields one full-buffer chunk
/// (nothing to split), and `total_len` not being a multiple of `row_len`
/// is the *caller's* contract violation (the executor debug-asserts it);
/// this function still row-aligns every boundary so a misaligned tail is
/// visible to the analyzer as a short final chunk.
///
/// # Examples
///
/// ```
/// use vit_tensor::par::row_chunks;
/// // 6 rows of 2 elements over 4 threads: ceil(6/4)=2 rows per piece.
/// assert_eq!(row_chunks(12, 2, 4), vec![(0, 4), (4, 4), (8, 4)]);
/// // One thread: a single chunk.
/// assert_eq!(row_chunks(12, 2, 1), vec![(0, 12)]);
/// ```
pub fn row_chunks(total_len: usize, row_len: usize, chunks: usize) -> Vec<(usize, usize)> {
    if total_len == 0 {
        return vec![(0, 0)];
    }
    if row_len == 0 {
        return vec![(0, total_len)];
    }
    let rows = total_len / row_len;
    let chunks = chunks.clamp(1, rows.max(1));
    if chunks <= 1 {
        return vec![(0, total_len)];
    }
    let rows_per = rows.div_ceil(chunks);
    let piece = rows_per * row_len;
    let mut out = Vec::with_capacity(total_len.div_ceil(piece));
    let mut start = 0;
    while start < total_len {
        let len = piece.min(total_len - start);
        out.push((start, len));
        start += len;
    }
    out
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job is pushed, on shutdown, and when a scope
    /// completes (so helping callers re-check their completion predicate).
    work: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, job: Job) {
        self.lock().queue.push_back(job);
        self.work.notify_all();
    }
}

/// A fixed-size worker pool over one shared FIFO job queue.
///
/// The pool is `Send + Sync`; serving layers share one pool across all
/// request workers through an `Arc` so concurrent inferences cooperate on
/// the same physical cores instead of oversubscribing them.
///
/// # Examples
///
/// ```
/// use vit_tensor::par::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.scope(|s| {
///     for _ in 0..16 {
///         s.spawn(|_| {
///             hits.fetch_add(1, Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 16);
/// ```
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Book-keeping for one [`ThreadPool::scope`]: outstanding-job count and
/// the panic flag. Lives behind an `Arc` so job wrappers stay `'static`.
struct ScopeCore {
    shared: Arc<PoolShared>,
    remaining: AtomicUsize,
    panicked: AtomicBool,
}

impl ScopeCore {
    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Waking under the lock closes the race against a helper that
            // just checked `remaining` and is about to wait.
            let _guard = self.shared.lock();
            self.shared.work.notify_all();
        }
    }
}

/// A spawn handle scoped to one [`ThreadPool::scope`] call; jobs receive a
/// fresh `&Scope` and may spawn further jobs into the same scope.
pub struct Scope<'scope> {
    core: Arc<ScopeCore>,
    // Invariant over 'scope (the standard scoped-spawn variance guard).
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Enqueues `f` on the pool. The closure may borrow from the
    /// environment of the enclosing [`ThreadPool::scope`] call, which does
    /// not return until every spawned job has completed.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.core.remaining.fetch_add(1, Ordering::AcqRel);
        let core = Arc::clone(&self.core);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope = Scope {
                core: Arc::clone(&core),
                _marker: PhantomData,
            };
            if catch_unwind(AssertUnwindSafe(|| f(&scope))).is_err() {
                core.panicked.store(true, Ordering::Release);
            }
            core.finish_one();
        });
        // SAFETY: `scope()` blocks (helping the queue) until `remaining`
        // reaches zero, which happens only after this closure has run to
        // completion and dropped `f` together with everything it borrows;
        // the borrows therefore strictly outlive the job. This is the
        // standard scoped-threads lifetime-erasure argument.
        let job: Job = unsafe { mem::transmute(job) };
        self.core.shared.push(job);
    }
}

impl ThreadPool {
    /// Creates a pool with a total concurrency of `threads` (at least 1):
    /// `threads - 1` background workers plus the scope-opening caller,
    /// which participates while it waits.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut st = shared.lock();
                        loop {
                            if let Some(j) = st.queue.pop_front() {
                                break Some(j);
                            }
                            if st.shutdown {
                                break None;
                            }
                            st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    match job {
                        Some(j) => j(), // wrappers catch panics themselves
                        None => return,
                    }
                })
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total concurrency of this pool (workers plus the helping caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] on which jobs borrowing the environment
    /// can be spawned; returns only after every job (including jobs
    /// spawned by jobs) has completed. The calling thread drains the
    /// queue while it waits.
    ///
    /// # Panics
    ///
    /// Panics when any spawned job panicked, or re-raises the body's own
    /// panic — in both cases only after all jobs finished, so no borrow
    /// escapes.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let core = Arc::new(ScopeCore {
            shared: Arc::clone(&self.shared),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        let scope = Scope {
            core: Arc::clone(&core),
            _marker: PhantomData,
        };
        // Catch a panic in the scope *body* so already-spawned jobs are
        // still waited for below; unwinding past the drain loop would let
        // them run against a destroyed stack frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help until every job of THIS scope is done. Jobs popped here may
        // belong to other scopes sharing the pool; running them is still
        // progress and is what makes nested scopes deadlock-free.
        while core.remaining.load(Ordering::Acquire) != 0 {
            let job = {
                let mut st = self.shared.lock();
                loop {
                    if let Some(j) = st.queue.pop_front() {
                        break Some(j);
                    }
                    if core.remaining.load(Ordering::Acquire) == 0 {
                        break None;
                    }
                    st = self.shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            if let Some(j) = job {
                j();
            }
        }
        let result = match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        assert!(
            !core.panicked.load(Ordering::Acquire),
            "a task spawned on the thread pool panicked"
        );
        result
    }

    /// Splits `data` into at most `chunks` contiguous pieces of
    /// `chunk_len`-aligned length and runs `f(chunk_index, start_offset,
    /// piece)` for each, in parallel when the pool has more than one
    /// thread. `data.len()` must be a multiple of `chunk_len`.
    ///
    /// Each element of `data` is written by exactly one invocation, and
    /// chunk boundaries never split a `chunk_len` row, so kernels that
    /// compute each row with sequential-order arithmetic stay bit-identical
    /// to their single-threaded form.
    pub fn for_each_row_chunk<T, F>(&self, data: &mut [T], chunk_len: usize, chunks: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Send + Sync,
    {
        debug_assert_eq!(data.len() % chunk_len.max(1), 0);
        // The decomposition is computed by the same oracle the static
        // exec-safety analyzer consults (`row_chunks`), so the proved
        // chunk geometry is the executed chunk geometry.
        let plan = row_chunks(data.len(), chunk_len, chunks);
        if plan.len() <= 1 || data.is_empty() {
            f(0, 0, data);
            return;
        }
        let piece = plan[0].1;
        self.scope(|s| {
            for (i, part) in data.chunks_mut(piece).enumerate() {
                debug_assert_eq!((i * piece, part.len()), plan[i]);
                let f = &f;
                s.spawn(move |_| f(i, i * piece, part));
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A bounded free-list of `Vec<f32>` allocations for intermediate
/// tensors, shared across threads behind a mutex.
///
/// Lifetime rule: a buffer enters the pool only once nothing references
/// the tensor it backed (the graph executor recycles a node's output when
/// its last consumer finishes), and leaves it zeroed and resized before
/// it backs a new tensor — recycling is therefore invisible to kernel
/// results. The one exception, [`BufferPool::take_for_overwrite`], skips
/// the zeroing for scratch its caller overwrites whole.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<f32>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    zeroed_elems: AtomicU64,
}

/// A snapshot of a [`BufferPool`]'s monotonic counters, taken with
/// [`BufferPool::stats`]. Tracing layers diff two snapshots around a run
/// to attribute pool behavior to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Takes served by reusing a free allocation.
    pub hits: u64,
    /// Takes that had to allocate fresh.
    pub misses: u64,
    /// Total f32 elements zeroed by `take_zeroed` calls and fresh
    /// allocations (the pool's main hidden cost).
    pub zeroed_elems: u64,
}

/// Maximum buffers retained per pool; beyond this, returned allocations
/// are simply dropped. Bounds worst-case idle memory at roughly this many
/// of the largest intermediate tensors.
const BUFFER_POOL_CAP: usize = 64;

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed buffer of exactly `numel` elements, reusing the best
    /// fitting free allocation when one exists.
    pub fn take_zeroed(&self, numel: usize) -> Vec<f32> {
        self.take(numel, true)
    }

    /// A buffer of exactly `numel` elements for a caller that overwrites
    /// every one before reading any: a reused allocation keeps whatever
    /// its previous user left (initialized `f32`s, so no `unsafe`), and
    /// only the part it grows by is zeroed. Saves the memset of
    /// [`BufferPool::take_zeroed`] on large scratch.
    pub fn take_for_overwrite(&self, numel: usize) -> Vec<f32> {
        self.take(numel, false)
    }

    fn take(&self, numel: usize, zeroed: bool) -> Vec<f32> {
        let reused = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            // Best fit: the smallest capacity that already holds `numel`,
            // else the largest available (it will grow once and then stick).
            let best = free
                .iter()
                .enumerate()
                .filter(|(_, v)| v.capacity() >= numel)
                .min_by_key(|(_, v)| v.capacity())
                .map(|(i, _)| i)
                .or_else(|| {
                    free.iter()
                        .enumerate()
                        .max_by_key(|(_, v)| v.capacity())
                        .map(|(i, _)| i)
                });
            best.map(|i| free.swap_remove(i))
        };
        match reused {
            Some(mut v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if zeroed {
                    self.zeroed_elems.fetch_add(numel as u64, Ordering::Relaxed);
                    v.clear();
                } else {
                    v.truncate(numel);
                }
                v.resize(numel, 0.0);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.zeroed_elems.fetch_add(numel as u64, Ordering::Relaxed);
                vec![0.0; numel]
            }
        }
    }

    /// Returns an allocation to the pool (dropped when the pool is full).
    pub fn recycle(&self, v: Vec<f32>) {
        if v.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < BUFFER_POOL_CAP {
            free.push(v);
        }
    }

    /// Number of free buffers currently held (observability for reuse
    /// tests).
    pub fn free_buffers(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// A snapshot of the pool's monotonic hit/miss/zeroing counters.
    ///
    /// The counters are updated with relaxed atomics on the allocation
    /// path — cheap enough to stay on unconditionally — and only read when
    /// a tracing layer diffs snapshots around a run.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            zeroed_elems: self.zeroed_elems.load(Ordering::Relaxed),
        }
    }
}

/// Per-call execution context for kernels: where to run (an optional
/// pool) and where to allocate outputs (an optional buffer pool).
///
/// `ExecCtx::default()` is the sequential, plainly-allocating context;
/// a packed kernel run with it is bit-identical to its classic
/// counterpart (and, by the determinism contract, at any thread count).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCtx<'a> {
    /// Worker pool for intra-kernel tiling; `None` runs sequentially.
    pub pool: Option<&'a ThreadPool>,
    /// Allocation free-list for kernel outputs; `None` allocates fresh.
    pub bufs: Option<&'a BufferPool>,
}

impl<'a> ExecCtx<'a> {
    /// The number of chunks worth splitting work into (1 when
    /// sequential).
    pub fn parallelism(&self) -> usize {
        self.pool.map_or(1, ThreadPool::threads)
    }

    /// A zeroed output tensor for `shape`, drawn from the buffer pool
    /// when one is attached.
    pub fn alloc_zeroed(&self, shape: &[usize]) -> Tensor {
        match self.bufs {
            Some(b) => {
                let numel = shape.iter().product();
                Tensor::from_vec(b.take_zeroed(numel), shape)
                    .expect("pool buffer resized to the exact element count")
            }
            None => Tensor::zeros(shape),
        }
    }

    /// Runs `f(chunk_index, start_offset, piece)` over row-aligned chunks
    /// of `data`: sequentially in one piece without a pool, tiled across
    /// the pool's threads with one.
    pub fn for_each_row_chunk<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Send + Sync,
    {
        match self.pool {
            Some(p) if p.threads() > 1 => p.for_each_row_chunk(data, chunk_len, p.threads(), f),
            _ => f(0, 0, data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_all_jobs_and_joins() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn jobs_can_spawn_jobs() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|s| {
                    count.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..3 {
                        s.spawn(|_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 4 + 12);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    // A job opening its own scope on the same pool is the
                    // intra-kernel-tiling-inside-a-node-job pattern.
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|_| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut touched = false;
        pool.scope(|s| {
            s.spawn(|_| {}); // exercised by the helping caller itself
        });
        pool.scope(|_| touched = true);
        assert!(touched);
    }

    #[test]
    #[should_panic(expected = "task spawned on the thread pool panicked")]
    fn job_panic_propagates_to_scope() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
    }

    #[test]
    fn pool_survives_a_job_panic() {
        let pool = ThreadPool::new(2);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|_| panic!("boom")));
        }));
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    /// If the closure passed to `scope` panics after spawning, the scope
    /// must still wait for every spawned job before unwinding — otherwise
    /// a job borrowing the scope body's stack frame would run against
    /// freed memory.
    #[test]
    fn panicked_scope_body_waits_for_spawned_jobs() {
        let pool = ThreadPool::new(2);
        let completed = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let local = [1u8, 2, 3]; // stands in for borrowed stack data
            pool.scope(|s| {
                s.spawn(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    // `local` must still be alive here: the scope frame may
                    // not unwind until this job has finished.
                    let _ = local.len();
                    completed.store(true, Ordering::SeqCst);
                });
                panic!("scope body panics after spawning");
            });
        }));
        assert!(result.is_err(), "the body's panic must propagate");
        assert!(
            completed.load(Ordering::SeqCst),
            "scope unwound before its spawned job completed: borrowed stack \
             data was dangling"
        );
    }

    #[test]
    fn row_chunks_cover_disjointly() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u32; 24];
        pool.for_each_row_chunk(&mut data, 2, 4, |_, start, piece| {
            for (i, v) in piece.iter_mut().enumerate() {
                *v = (start + i) as u32 + 1;
            }
        });
        let expect: Vec<u32> = (1..=24).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn row_chunks_partition_exactly() {
        for (total, row, threads) in [
            (24usize, 2usize, 4usize),
            (24, 2, 1),
            (24, 24, 8),
            (7, 7, 3),
            (30, 5, 4),
            (64, 4, 8),
            (0, 4, 8),
            (12, 0, 2),
        ] {
            let plan = row_chunks(total, row, threads);
            // Chunks are contiguous, in order, and cover [0, total) exactly.
            let mut cursor = 0;
            for &(start, len) in &plan {
                assert_eq!(
                    start, cursor,
                    "gap/overlap at {start} ({total},{row},{threads})"
                );
                cursor += len;
            }
            assert_eq!(cursor, total);
            // Row alignment: no boundary splits a row (when rows divide).
            if row > 0 && total % row == 0 {
                for &(start, _) in &plan {
                    assert_eq!(start % row, 0);
                }
            }
        }
    }

    #[test]
    fn row_chunks_match_executor_dispatch() {
        let pool = ThreadPool::new(4);
        for (rows, row_len) in [(6usize, 2usize), (17, 3), (1, 5), (8, 1)] {
            let total = rows * row_len;
            let plan = row_chunks(total, row_len, pool.threads());
            let seen = Mutex::new(Vec::new());
            let mut data = vec![0u8; total];
            pool.for_each_row_chunk(&mut data, row_len, pool.threads(), |i, start, piece| {
                seen.lock().unwrap().push((i, start, piece.len()));
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            let expect: Vec<(usize, usize, usize)> = plan
                .iter()
                .enumerate()
                .map(|(i, &(s, l))| (i, s, l))
                .collect();
            assert_eq!(seen, expect, "rows={rows} row_len={row_len}");
        }
    }

    #[test]
    fn buffer_pool_reuses_allocations() {
        let pool = BufferPool::new();
        let a = pool.take_zeroed(100);
        let ptr = a.as_ptr();
        pool.recycle(a);
        assert_eq!(pool.free_buffers(), 1);
        let b = pool.take_zeroed(50);
        assert_eq!(b.as_ptr(), ptr, "smaller request reuses the allocation");
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|&v| v == 0.0), "reused buffers are zeroed");
    }

    #[test]
    fn buffer_pool_counts_hits_misses_and_zeroing() {
        let pool = BufferPool::new();
        let a = pool.take_zeroed(100); // miss
        pool.recycle(a);
        let _b = pool.take_zeroed(50); // hit
        let st = pool.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.zeroed_elems, 150);
    }

    #[test]
    fn take_for_overwrite_skips_the_memset_of_a_reused_buffer() {
        let pool = BufferPool::new();
        let mut a = pool.take_for_overwrite(8); // miss: fresh and zeroed
        assert_eq!(a, vec![0.0; 8]);
        a.fill(7.0);
        pool.recycle(a);
        // A reused buffer keeps its old contents, and zeroes only what it
        // grows by.
        let mut b = pool.take_for_overwrite(4);
        assert_eq!(b, vec![7.0; 4]);
        b.fill(5.0);
        pool.recycle(b);
        let c = pool.take_for_overwrite(6);
        assert_eq!(c, [5.0, 5.0, 5.0, 5.0, 0.0, 0.0]);
        let st = pool.stats();
        assert_eq!((st.hits, st.misses, st.zeroed_elems), (2, 1, 8));
    }

    #[test]
    fn exec_ctx_default_is_sequential() {
        let ctx = ExecCtx::default();
        assert_eq!(ctx.parallelism(), 1);
        let t = ctx.alloc_zeroed(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        let mut data = vec![0.0f32; 6];
        ctx.for_each_row_chunk(&mut data, 3, |idx, start, piece| {
            assert_eq!((idx, start, piece.len()), (0, 0, 6));
        });
    }
}
