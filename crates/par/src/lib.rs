//! Deterministic fixed-size thread pool shared by the DELRec execution layers.
//!
//! The pool exists to spread *already-deterministic* work across cores
//! without changing a single bit of the output. The contract every caller in
//! the workspace relies on:
//!
//! * **Partitioning is a pure function of the problem shape** — helpers like
//!   [`partition`] and [`chunk_ranges`] depend only on `(len, parts)`, never
//!   on timing or thread identity.
//! * **Each task writes a disjoint output range** — [`ThreadPool::for_each_range`]
//!   hands every task its own `&mut [T]` sub-slice, so there is no shared
//!   accumulator and no reduction whose order could float.
//! * **Which thread runs a task is irrelevant** — tasks are claimed
//!   dynamically for load balance, but since task *i* computes a pure
//!   function of its index into its own range, claim order cannot perturb
//!   results. Parallel output is bitwise-identical to serial at every thread
//!   count, including 1.
//!
//! Sizing comes from `DELREC_THREADS` (default: the machine's available
//! parallelism). A pool of `n` *lanes* owns `n - 1` parked worker threads;
//! the caller of a parallel region is always the n-th lane and participates
//! in executing its own tasks, which also guarantees progress for nested
//! parallel regions (a worker waiting on an inner region drains the queue
//! instead of blocking). With one lane everything runs inline on the caller
//! — the pool degrades to plain serial execution with zero threads spawned.
//!
//! The process-wide pool is reached through [`current`]; tests inject a
//! specific size with [`with_pool`]. The pool reports
//! `par.pool.{tasks,queue_depth,workers}` into the metrics registry and runs
//! every task under a `par.task` span, so per-worker span trees merge into
//! [`delrec_obs::profile`] like any other thread's.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use delrec_obs::{counter, gauge, span};

/// Hard ceiling on configured lanes — guards against absurd `DELREC_THREADS`.
const MAX_LANES: usize = 256;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    /// Worker thread count (`lanes - 1`).
    workers: usize,
    /// Total execution lanes including the caller of a parallel region.
    lanes: usize,
}

impl Shared {
    fn pop_job(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap();
        let job = st.queue.pop_front();
        if job.is_some() {
            gauge!("par.pool.queue_depth").set(st.queue.len() as f64);
        }
        job
    }
}

/// Completion latch for one scope: counts outstanding tasks and stores the
/// first panic. Notifies on *every* completion so helping waiters re-scan
/// the queue (a completing task may have enqueued nested work).
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    pending: usize,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                pending: 0,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn add(&self, n: usize) {
        self.state.lock().unwrap().pending += n;
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send + 'static>>) {
        let mut st = self.state.lock().unwrap();
        st.pending -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        drop(st);
        self.cv.notify_all();
    }

    fn is_done(&self) -> bool {
        self.state.lock().unwrap().pending == 0
    }

    /// Block until either the latch drains or another task completes (the
    /// caller then re-scans the pool queue for claimable work).
    fn wait_event(&self) {
        let st = self.state.lock().unwrap();
        if st.pending == 0 {
            return;
        }
        drop(self.cv.wait(st).unwrap());
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.state.lock().unwrap().panic.take()
    }
}

/// Joins the workers when the last externally-held handle drops.
struct JoinGuard {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for JoinGuard {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// A fixed-size scoped thread pool. Cheap to clone: clones share the same
/// workers. Workers shut down when the last *externally created* handle
/// drops (handles observed by workers via [`current`] do not keep the pool
/// alive).
pub struct ThreadPool {
    shared: Arc<Shared>,
    _guard: Option<Arc<JoinGuard>>,
}

impl Clone for ThreadPool {
    fn clone(&self) -> ThreadPool {
        ThreadPool {
            shared: self.shared.clone(),
            _guard: self._guard.clone(),
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("lanes", &self.shared.lanes)
            .finish()
    }
}

impl ThreadPool {
    /// Pool with `lanes` execution lanes (clamped to `1..=256`): `lanes - 1`
    /// parked worker threads plus the caller of each parallel region.
    pub fn new(lanes: usize) -> ThreadPool {
        let lanes = lanes.clamp(1, MAX_LANES);
        let workers = lanes - 1;
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            workers,
            lanes,
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let sh = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("delrec-par-{i}"))
                .spawn(move || worker_loop(sh))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        ThreadPool {
            shared: shared.clone(),
            _guard: Some(Arc::new(JoinGuard {
                shared,
                handles: Mutex::new(handles),
            })),
        }
    }

    /// Execution lanes (worker threads + the calling lane). `1` means fully
    /// serial: no threads exist and every API runs inline.
    pub fn lanes(&self) -> usize {
        self.shared.lanes
    }

    /// Worker thread count (`lanes - 1`).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Fork-join scope: closures passed to [`Scope::spawn`] may borrow
    /// anything that outlives the `scope` call. Blocks until every spawned
    /// task finished; the calling thread helps execute queued tasks while it
    /// waits. The first panic from the closure or any task is propagated.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        // Inside the region every lane — workers *and* the caller — resolves
        // `current()` to this pool, so nested parallel regions stay on it.
        let _current = OverrideGuard::set(ThreadPool {
            shared: self.shared.clone(),
            _guard: None,
        });
        let scope = Scope {
            pool: self,
            latch: Arc::new(Latch::new()),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until(&scope.latch);
        if let Some(p) = scope.latch.take_panic() {
            resume_unwind(p);
        }
        match result {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }

    /// Run `f(0..n)` with every lane claiming indices from a shared counter.
    /// Blocks until all `n` calls completed; panics are propagated. Safe for
    /// bitwise-deterministic work because each index computes a pure
    /// function into its own output range — claim order is irrelevant.
    pub fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        let helpers = self.shared.workers.min(n - 1);
        if helpers == 0 {
            let _current = OverrideGuard::set(ThreadPool {
                shared: self.shared.clone(),
                _guard: None,
            });
            for i in 0..n {
                f(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let claim = |next: &AtomicUsize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(i);
        };
        self.scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| claim(&next));
            }
            claim(&next);
        });
    }

    /// Split `data` into the given disjoint, ascending ranges and run
    /// `f(i, &mut data[ranges[i]])` for each in parallel. The ranges must be
    /// non-overlapping, in ascending order, and within bounds (checked).
    pub fn for_each_range<T, F>(&self, data: &mut [T], ranges: &[Range<usize>], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let mut watermark = 0usize;
        for r in ranges {
            assert!(
                r.start >= watermark && r.start <= r.end && r.end <= data.len(),
                "for_each_range: ranges must be ascending, disjoint, in bounds"
            );
            watermark = r.end;
        }
        let base = SendPtr(data.as_mut_ptr());
        self.run_indexed(ranges.len(), &|i| {
            let r = &ranges[i];
            // SAFETY: ranges are disjoint (checked above), so concurrent
            // tasks touch non-overlapping memory; run_indexed blocks until
            // all tasks finished, so no slice outlives the borrow of `data`.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.end - r.start) };
            f(i, chunk);
        });
    }

    /// [`for_each_range`](Self::for_each_range) over fixed-size chunks of
    /// `chunk` elements (last chunk short), as produced by [`chunk_ranges`].
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let ranges = chunk_ranges(data.len(), chunk);
        self.for_each_range(data, &ranges, f);
    }

    fn inject(&self, job: Job) {
        if self.shared.workers == 0 {
            run_job(job);
            return;
        }
        counter!("par.pool.tasks").incr();
        let mut st = self.shared.state.lock().unwrap();
        st.queue.push_back(job);
        gauge!("par.pool.queue_depth").set(st.queue.len() as f64);
        drop(st);
        self.shared.work_cv.notify_one();
    }

    /// Wait for `latch` while helping execute queued tasks (any task — the
    /// queue is global, and running someone else's task still makes global
    /// progress; a task of ours that is already running on a worker will
    /// notify the latch when it completes).
    fn help_until(&self, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            match self.shared.pop_job() {
                Some(job) => run_job(job),
                None => latch.wait_event(),
            }
        }
    }
}

fn run_job(job: Job) {
    let _span = span!("par.task");
    job();
}

fn worker_loop(shared: Arc<Shared>) {
    // Nested parallel regions inside a task should reuse the owning pool,
    // not fall through to the global one.
    let pool = ThreadPool {
        shared: shared.clone(),
        _guard: None,
    };
    CURRENT.with(|c| *c.borrow_mut() = Some(pool));
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    gauge!("par.pool.queue_depth").set(st.queue.len() as f64);
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        run_job(job);
    }
}

/// Fork-join scope handed to the closure of [`ThreadPool::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'env ThreadPool,
    latch: Arc<Latch>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task that may borrow anything outliving the enclosing
    /// `scope` call. Runs inline when the pool has no workers.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.latch.add(1);
        let latch = self.latch.clone();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            latch.complete(result.err());
        });
        // SAFETY: `scope` blocks (helping) until the latch drains before it
        // returns, so the job — and everything it borrows from 'scope/'env —
        // is guaranteed to have finished running by the time those borrows
        // could end. Erasing the lifetime only lets the job sit in the
        // 'static queue meanwhile.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.inject(job);
    }
}

/// Raw pointer wrapper so disjoint-range tasks can share one base pointer.
/// The accessor (rather than field access) makes closures capture the whole
/// wrapper, keeping the `Send`/`Sync` impls below in effect.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: only used to reconstruct disjoint sub-slices of a `&mut [T]` whose
// borrow outlives the parallel region; `T: Send` bounds on the public APIs
// make moving elements' ownership across threads sound.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

// ---------------------------------------------------------------------------
// Deterministic partitioners
// ---------------------------------------------------------------------------

/// Split `0..len` into at most `parts` contiguous ranges with sizes
/// differing by at most one — a pure function of `(len, parts)`. Returns no
/// empty ranges; fewer than `parts` ranges when `len < parts`.
pub fn partition(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts; // first `extra` ranges get one more element
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Split `0..len` into fixed-size chunks of `chunk` elements (last chunk
/// short) — a pure function of `(len, chunk)`. This is the partitioner the
/// eval runner's serial and parallel paths share.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk_ranges: chunk must be positive");
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

// ---------------------------------------------------------------------------
// Process-wide pool and injection
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: std::cell::RefCell<Option<ThreadPool>> =
        const { std::cell::RefCell::new(None) };
}

/// Restores the previous `CURRENT` override on drop (panic-safe).
struct OverrideGuard(Option<ThreadPool>);

impl OverrideGuard {
    fn set(pool: ThreadPool) -> OverrideGuard {
        OverrideGuard(CURRENT.with(|c| c.borrow_mut().replace(pool)))
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Lane count the process-wide pool will use: `DELREC_THREADS` if set (a
/// positive integer, clamped to 256), else the machine's available
/// parallelism, else 1. Pure read — does not start the pool.
pub fn default_lanes() -> usize {
    if let Ok(v) = std::env::var("DELREC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_LANES);
            }
        }
        eprintln!("[delrec-par] ignoring invalid DELREC_THREADS={v:?}");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_LANES)
}

/// The process-wide pool, started on first use with [`default_lanes`] lanes.
pub fn global() -> ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let pool = ThreadPool::new(default_lanes());
            gauge!("par.pool.workers").set(pool.workers() as f64);
            pool
        })
        .clone()
}

/// The pool the current thread should schedule onto: the innermost
/// [`with_pool`] override, the owning pool on a worker thread, or the
/// process-wide [`global`] pool.
pub fn current() -> ThreadPool {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(global)
}

/// Run `f` with [`current`] resolving to `pool` on this thread — how tests
/// pin an exact thread count. Restores the previous override even on panic.
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    let _restore = OverrideGuard::set(pool.clone());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_covers_every_index_once() {
        for lanes in [1, 2, 3, 7, 8] {
            let pool = ThreadPool::new(lanes);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.run_indexed(100, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn for_each_chunk_writes_disjoint_ranges() {
        for lanes in [1, 2, 3, 8] {
            let pool = ThreadPool::new(lanes);
            let mut data = vec![0u64; 103];
            pool.for_each_chunk(&mut data, 10, |ci, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (ci * 10 + k) as u64;
                }
            });
            let expect: Vec<u64> = (0..103).collect();
            assert_eq!(data, expect, "lanes={lanes}");
        }
    }

    #[test]
    fn scope_tasks_borrow_environment() {
        let pool = ThreadPool::new(4);
        let input = vec![1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for v in &input {
                s.spawn(|| {
                    total.fetch_add(*v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn nested_regions_complete_without_deadlock() {
        let pool = ThreadPool::new(3);
        let mut out = vec![0usize; 64];
        let outer = partition(out.len(), 4);
        pool.for_each_range(&mut out, &outer, |oi, chunk| {
            // Each outer task opens its own inner parallel region.
            current().for_each_chunk(chunk, 4, |ii, inner| {
                for (k, v) in inner.iter_mut().enumerate() {
                    *v = oi * 100 + ii * 10 + k;
                }
            });
        });
        for (oi, r) in outer.iter().enumerate() {
            for (j, idx) in r.clone().enumerate() {
                assert_eq!(out[idx], oi * 100 + (j / 4) * 10 + j % 4);
            }
        }
    }

    #[test]
    fn nested_regions_inside_worker_use_owning_pool() {
        let pool = ThreadPool::new(4);
        let seen = Mutex::new(Vec::new());
        pool.run_indexed(8, &|_| {
            seen.lock().unwrap().push(current().lanes());
        });
        assert!(seen.lock().unwrap().iter().all(|&l| l == 4));
    }

    #[test]
    fn panic_in_task_propagates_to_scope_caller() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(16, &|i| {
                if i == 7 {
                    panic!("boom at 7");
                }
            });
        }));
        let err = result.expect_err("panic should propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom at 7");
        // The pool must still be usable after a propagated panic.
        let n = AtomicUsize::new(0);
        pool.run_indexed(8, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn one_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.workers(), 0);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.run_indexed(4, &|_| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(*ran_on.lock().unwrap(), Some(caller));
    }

    #[test]
    fn partition_is_exact_and_balanced() {
        for len in [0usize, 1, 2, 5, 7, 64, 103] {
            for parts in [1usize, 2, 3, 7, 8, 200] {
                let ranges = partition(len, parts);
                assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), len);
                assert!(ranges.len() <= parts.max(1));
                assert!(ranges.iter().all(|r| !r.is_empty()) || len == 0);
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1, "len={len} parts={parts}");
                }
                let mut watermark = 0;
                for r in &ranges {
                    assert_eq!(r.start, watermark);
                    watermark = r.end;
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_match_serial_chunking() {
        for len in [0usize, 1, 15, 16, 17, 100] {
            let ranges = chunk_ranges(len, 16);
            let serial: Vec<(usize, usize)> = (0..len)
                .collect::<Vec<_>>()
                .chunks(16)
                .map(|c| (c[0], c[c.len() - 1] + 1))
                .collect();
            let ours: Vec<(usize, usize)> = ranges.iter().map(|r| (r.start, r.end)).collect();
            assert_eq!(ours, serial);
        }
    }

    #[test]
    fn with_pool_overrides_and_restores_current() {
        let a = ThreadPool::new(2);
        let b = ThreadPool::new(3);
        with_pool(&a, || {
            assert_eq!(current().lanes(), 2);
            with_pool(&b, || assert_eq!(current().lanes(), 3));
            assert_eq!(current().lanes(), 2);
        });
    }

    #[test]
    fn worker_spans_merge_into_profile() {
        delrec_obs::reset();
        delrec_obs::set_enabled(true);
        let pool = ThreadPool::new(4);
        pool.run_indexed(12, &|_| {
            let _s = span!("par.test.work");
            std::hint::black_box(0u64);
        });
        delrec_obs::set_enabled(false);
        let report = delrec_obs::profile();
        let work: u64 = report
            .flat()
            .iter()
            .filter(|s| s.name == "par.test.work")
            .map(|s| s.count)
            .sum();
        assert_eq!(work, 12, "spans recorded on worker threads must merge");
    }
}
