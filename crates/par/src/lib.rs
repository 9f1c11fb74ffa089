//! # ufp-par
//!
//! A minimal data-parallel `map` over a **persistent** worker pool.
//!
//! The paper's Algorithm 1 runs, in every iteration, one shortest-path
//! computation per remaining request ("for all r ∈ L … let p_r be the
//! shortest path"). Those computations are independent, so the natural
//! parallelization is a fan-out over requests with a deterministic
//! reduction — but the fan-out happens *thousands of times per run*, so
//! spawning scoped threads per call (the obvious `crossbeam::scope`
//! pattern) pays thread-creation latency every iteration and can easily
//! cost more than the work itself. This crate instead keeps one global
//! set of workers alive (created lazily, sized to the hardware) and
//! dispatches borrowed closures to them with a completion latch, the
//! same architecture as rayon-core / scoped_threadpool:
//!
//! * [`Pool::map_with`] — parallel indexed map with a **per-thread
//!   workspace** (each worker owns one reusable Dijkstra scratch space),
//!   dynamic chunked work distribution via an atomic cursor, and results
//!   returned in input order regardless of scheduling.
//! * [`Pool::map`] — the workspace-free convenience wrapper.
//! * [`Pool::map_mut`] — parallel map over `&mut` items (one engine per
//!   shard, each mutated by exactly one worker).
//! * [`Pool::argmin_by_key`] — deterministic parallel argmin.
//!
//! Determinism: output is ordered by input index, so parallel and
//! sequential execution produce identical results.
//!
//! **Nested dispatch is deadlock-free.** A job may itself call
//! [`Pool::map`] (or any other combinator): every latch wait is
//! *help-first* — a thread blocked on outstanding jobs keeps pulling
//! queued jobs (its own sub-jobs included) and running them on its own
//! stack, so the pool can never park all of its workers on latches whose
//! jobs nobody is left to execute. This is the standard work-stealing
//! discipline (rayon's `join` does the same), restricted to the one
//! global FIFO this crate already has.
//!
//! ## Safety
//!
//! Jobs sent to the long-lived workers are boxed closures whose borrows
//! are *not* `'static`; the lifetime is erased with one `transmute`
//! (see `dispatch`). This is sound because `map_with` blocks on a latch
//! until every job has finished (or recorded a panic) before returning,
//! so no borrow outlives the call — exactly the guarantee scoped threads
//! provide, amortized over one thread spawn per process instead of one
//! per call.

use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use ufp_obs::{Phase, Recorder};

/// Jobs currently enqueued (or started but not yet decremented) on the
/// global pool — the `par.queue_depth` gauge source. Maintained
/// unconditionally (one relaxed atomic per *chunk job*, not per item,
/// which is noise next to the dispatch itself).
static QUEUE_DEPTH: AtomicIsize = AtomicIsize::new(0);

/// Fast gate for the observer: `false` means [`obs_recorder`] returns
/// the no-op recorder without touching the slot's lock.
static OBS_ENABLED: AtomicBool = AtomicBool::new(false);

fn obs_slot() -> &'static Mutex<Recorder> {
    static OBS: OnceLock<Mutex<Recorder>> = OnceLock::new();
    OBS.get_or_init(|| Mutex::new(Recorder::off()))
}

/// Install an observability recorder for pool internals (`par.dispatch`
/// spans per fan-out, `par.steal` spans per helped job, the
/// `par.queue_depth` gauge). The pool is a `Copy` handle over global
/// workers, so the observer is process-global too; installing
/// `Recorder::off()` (the initial state) silences it again. Purely
/// observational — scheduling and results are unaffected.
pub fn set_recorder(recorder: Recorder) {
    let on = recorder.is_enabled();
    *obs_slot().lock() = recorder;
    OBS_ENABLED.store(on, Ordering::Release);
}

fn obs_recorder() -> Recorder {
    if !OBS_ENABLED.load(Ordering::Acquire) {
        return Recorder::off();
    }
    obs_slot().lock().clone()
}

/// A type-erased unit of work with its lifetime erased to `'static`
/// (see module-level safety note).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct GlobalPool {
    tx: Sender<Job>,
    /// A receiving handle kept for **help-first waiting**: any thread
    /// blocked on a latch pulls queued jobs and runs them itself (see
    /// [`Latch::wait_helping`]).
    rx: Receiver<Job>,
    workers: usize,
}

fn global_pool() -> &'static GlobalPool {
    static POOL: OnceLock<GlobalPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (tx, rx) = unbounded::<Job>();
        for i in 0..workers {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("ufp-par-{i}"))
                .spawn(move || {
                    for job in rx.iter() {
                        job();
                    }
                })
                .expect("failed to spawn worker thread");
        }
        GlobalPool { tx, rx, workers }
    })
}

/// Completion latch: counts outstanding jobs and records panics.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicUsize,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            cv: Condvar::new(),
            panicked: AtomicUsize::new(0),
        }
    }

    fn job_done(&self) {
        let mut left = self.remaining.lock();
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    /// Wait for every job counted by this latch, **helping** while
    /// blocked: instead of parking unconditionally, the waiter drains
    /// queued jobs from the global pool and executes them on its own
    /// stack. This is what makes *nested* dispatch deadlock-free — a
    /// worker that fans out a sub-map mid-job and waits on the inner
    /// latch keeps executing queued jobs (its own sub-jobs included), so
    /// the pool can never reach a state where every worker is parked on
    /// a latch whose jobs nobody is left to run. (PR 2 worked around the
    /// deadlock by forcing nested pools sequential; this lifts that.)
    ///
    /// The short timed wait covers the benign race where a job is
    /// enqueued between `try_recv` and parking: the waiter re-polls the
    /// queue instead of sleeping until a wakeup that may already have
    /// been consumed by a sibling helper.
    fn wait_helping(&self, rx: &Receiver<Job>, obs: &Recorder) {
        loop {
            match rx.try_recv() {
                Ok(job) => {
                    // Jobs are dispatch bodies that catch their own
                    // panics (see `map_with`), so helping cannot unwind
                    // into the waiter.
                    let _steal = obs.span(Phase::ParSteal);
                    job();
                }
                Err(_) => {
                    let mut left = self.remaining.lock();
                    if *left == 0 {
                        return;
                    }
                    self.cv
                        .wait_for(&mut left, std::time::Duration::from_millis(1));
                    if *left == 0 {
                        return;
                    }
                }
            }
            let left = self.remaining.lock();
            if *left == 0 {
                return;
            }
        }
    }
}

/// A lightweight handle describing how much parallelism to use. Cheap to
/// copy; all pools share the single global worker set — `threads` only
/// caps how many workers a call fans out to.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Use at most `threads` workers (values 0 and 1 both mean
    /// sequential).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Use all available hardware parallelism.
    pub fn auto() -> Self {
        let t = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Pool { threads: t }
    }

    /// Strictly sequential execution (useful for debugging and as the
    /// baseline in the parallel-speedup experiment).
    pub fn sequential() -> Self {
        Pool { threads: 1 }
    }

    /// Number of worker threads this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel indexed map with per-thread workspaces.
    ///
    /// `init()` runs once per participating worker to build its private
    /// workspace `W` (e.g. a Dijkstra scratch space);
    /// `f(&mut w, i, &items[i])` computes the result for item `i`. Work
    /// is distributed dynamically in chunks, so uneven per-item cost
    /// balances automatically. Results come back in input order.
    pub fn map_with<T, U, W, I, F>(&self, items: &[T], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize, &T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n.max(1)).min(global_pool().workers);
        if workers <= 1 {
            let mut w = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut w, i, t))
                .collect();
        }

        let obs = obs_recorder();
        let _dispatch = obs.span(Phase::ParDispatch);
        if obs.is_enabled() {
            // Depth *before* this call's own jobs land: how backed up
            // the pool already was when we fanned out.
            obs.gauge_set(
                "par.queue_depth",
                QUEUE_DEPTH.load(Ordering::Relaxed) as f64,
            );
        }

        // Dynamic scheduling through an atomic cursor; 4x chunk
        // oversubscription balances uneven costs.
        let chunk = (n / (workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
        let latch = Arc::new(Latch::new(workers));

        {
            let cursor = &cursor;
            let collected = &collected;
            let init = &init;
            let f = &f;
            for _ in 0..workers {
                let latch = Arc::clone(&latch);
                let body = move || {
                    // Catch panics so the latch always resolves; the
                    // panic is surfaced to the caller below.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut workspace = init();
                        let mut local: Vec<(usize, U)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for (off, item) in items[start..end].iter().enumerate() {
                                let i = start + off;
                                local.push((i, f(&mut workspace, i, item)));
                            }
                        }
                        if !local.is_empty() {
                            collected.lock().append(&mut local);
                        }
                    }));
                    if result.is_err() {
                        latch.panicked.fetch_add(1, Ordering::SeqCst);
                    }
                    latch.job_done();
                };
                dispatch(body);
            }
        }
        latch.wait_helping(&global_pool().rx, &obs);
        if latch.panicked.load(Ordering::SeqCst) > 0 {
            panic!("worker thread panicked during Pool::map_with");
        }

        let mut pairs = collected.into_inner();
        debug_assert_eq!(pairs.len(), n);
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, u)| u).collect()
    }

    /// [`Pool::map_with`] that stays on the calling thread when `items`
    /// is shorter than `floor`.
    ///
    /// The incremental selection loop's dirty-set refresh calls this
    /// thousands of times per epoch with wildly varying batch sizes: a
    /// winner whose path crosses a quiet edge dirties two or three
    /// requests (dispatching those to workers costs more in latch
    /// traffic than the Dijkstra work itself), while a winner on a
    /// hotspot edge dirties hundreds (worth fanning out). Results are
    /// identical either way — `map_with` already reduces in input order
    /// — so the floor is purely a cost model, never a semantics switch.
    pub fn map_with_floor<T, U, W, I, F>(&self, items: &[T], floor: usize, init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize, &T) -> U + Sync,
    {
        if items.len() < floor {
            let mut w = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut w, i, t))
                .collect();
        }
        self.map_with(items, init, f)
    }

    /// Parallel indexed map over **mutable** items: each item is handed
    /// to exactly one invocation of `f` as `&mut T`, results return in
    /// input order. This is the per-shard dispatch primitive — a sharded
    /// engine runs one epoch per shard concurrently, each shard mutating
    /// its own engine — and it composes with nested dispatch: `f` may
    /// itself fan out on any [`Pool`] (see `Latch::wait_helping`).
    pub fn map_mut<T, U, F>(&self, items: &mut [T], f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut T) -> U + Sync,
    {
        // Hand the base pointer to the workers; disjoint indices mean
        // disjoint `&mut` borrows, and `map` completes before this frame
        // returns, so no borrow outlives `items`.
        struct BasePtr<T>(*mut T);
        unsafe impl<T: Send> Sync for BasePtr<T> {}
        let base = BasePtr(items.as_mut_ptr());
        // Borrow the wrapper, not its field: closures capture disjoint
        // fields in edition 2021, and the bare `*mut T` is not `Sync`.
        let base = &base;
        let indices: Vec<usize> = (0..items.len()).collect();
        self.map(&indices, |_, &i| {
            // SAFETY: every index appears exactly once in `indices`, so
            // each `&mut` is unique; the latch in `map` keeps `items`
            // borrowed until all jobs finish.
            let item = unsafe { &mut *base.0.add(i) };
            f(i, item)
        })
    }

    /// Parallel indexed map without a per-thread workspace.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.map_with(items, || (), |_, i, t| f(i, t))
    }

    /// Parallel argmin: the index and key minimizing `key(i, &items[i])`,
    /// ties broken toward the smaller index (the deterministic tie-break
    /// every solver in this workspace relies on). `None` on empty input.
    pub fn argmin_by_key<T, K, F>(&self, items: &[T], key: F) -> Option<(usize, K)>
    where
        T: Sync,
        K: PartialOrd + Send,
        F: Fn(usize, &T) -> K + Sync,
    {
        let keys = self.map(items, &key);
        let mut best: Option<(usize, K)> = None;
        for (i, k) in keys.into_iter().enumerate() {
            let better = match &best {
                None => true,
                Some((_, bk)) => k < *bk,
            };
            if better {
                best = Some((i, k));
            }
        }
        best
    }
}

/// Send a borrowed closure to the global workers, erasing its lifetime.
///
/// # Safety
/// Callers must not return until the job has run to completion (enforced
/// in `map_with` by `Latch::wait`), so the erased borrows stay valid for
/// the job's whole execution.
fn dispatch<'a, F: FnOnce() + Send + 'a>(job: F) {
    QUEUE_DEPTH.fetch_add(1, Ordering::Relaxed);
    let job = move || {
        QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
        job();
    };
    let boxed: Box<dyn FnOnce() + Send + 'a> = Box::new(job);
    // SAFETY: see function docs — completion is awaited before any
    // borrow captured by `job` can expire.
    let boxed: Job = unsafe { std::mem::transmute(boxed) };
    global_pool()
        .tx
        .send(boxed)
        .expect("global worker pool disconnected");
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that dispatch on the process-global pool.
    /// The recorder slot is process-global too: a fan-out running
    /// concurrently with [`recorder_observes_dispatch_without_perturbing`]
    /// would capture its recorder and close `par.dispatch` spans into it
    /// after that test's "before" read.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static DISPATCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A failed test poisons the lock; the next one still runs alone.
        DISPATCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn map_matches_sequential() {
        let _serial = serial();
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let par = pool.map(&items, |_, &x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn map_with_reuses_workspace() {
        // Count workspace initializations: at most `threads` per call.
        let _serial = serial();
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..256).collect();
        let pool = Pool::new(4);
        let out = pool.map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<u32>::new()
            },
            |w, _, &x| {
                w.push(x);
                x + 1
            },
        );
        assert_eq!(out, (1..257).collect::<Vec<_>>());
        assert!(inits.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    fn map_with_floor_matches_map_with() {
        let _serial = serial();
        let items: Vec<u64> = (0..100).collect();
        let pool = Pool::new(4);
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for floor in [0, 1, 50, 100, 101, usize::MAX] {
            let got = pool.map_with_floor(&items, floor, || (), |_, _, &x| x * 3);
            assert_eq!(got, expect, "floor={floor}");
        }
    }

    #[test]
    fn empty_input() {
        let _serial = serial();
        let pool = Pool::new(4);
        let out: Vec<u32> = pool.map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        assert!(pool.argmin_by_key(&[] as &[u32], |_, &x| x).is_none());
    }

    #[test]
    fn single_item() {
        let _serial = serial();
        let pool = Pool::new(8);
        assert_eq!(pool.map(&[5u32], |_, &x| x * 2), vec![10]);
    }

    #[test]
    fn argmin_breaks_ties_toward_lower_index() {
        let _serial = serial();
        let items = vec![3.0f64, 1.0, 2.0, 1.0, 5.0];
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let (i, k) = pool.argmin_by_key(&items, |_, &x| x).unwrap();
            assert_eq!(i, 1);
            assert_eq!(k, 1.0);
        }
    }

    #[test]
    fn uneven_work_balances() {
        let _serial = serial();
        let items: Vec<u64> = (0..64).collect();
        let pool = Pool::new(4);
        let out = pool.map(&items, |_, &x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn zero_threads_treated_as_one() {
        let _serial = serial();
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(&[1u8, 2, 3], |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let _serial = serial();
        let pool = Pool::new(2);
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            pool.map(&items, |_, &x| {
                if x == 50 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
        // The global pool must still function after a job panicked.
        let ok = pool.map(&items, |_, &x| x + 1);
        assert_eq!(ok[0], 1);
        assert_eq!(ok[99], 100);
    }

    #[test]
    fn many_repeated_calls_amortize() {
        // Regression guard for the per-call spawn problem: thousands of
        // tiny maps must complete quickly (no thread creation per call).
        let _serial = serial();
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..64).collect();
        let start = std::time::Instant::now();
        let mut acc = 0u64;
        for _ in 0..2000 {
            acc += pool.map(&items, |_, &x| x as u64).iter().sum::<u64>();
        }
        assert_eq!(acc, 2000 * (63 * 64 / 2));
        // Generous bound: scoped-spawn versions took seconds here.
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "repeated dispatch too slow: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn map_mut_mutates_each_item_once() {
        let _serial = serial();
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let mut items: Vec<u64> = (0..257).collect();
            let out = pool.map_mut(&mut items, |i, x| {
                *x += 1;
                *x * i as u64
            });
            for (i, x) in items.iter().enumerate() {
                assert_eq!(*x, i as u64 + 1, "threads={threads}");
            }
            let expect: Vec<u64> = (0..257u64).map(|i| (i + 1) * i).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    /// Regression test for the PR 2 nested-dispatch deadlock: a parallel
    /// map whose jobs themselves fan out on parallel pools must complete.
    /// Before help-first waiting, this configuration (outer jobs ≥
    /// workers, every outer job blocking on an inner latch) wedged the
    /// pool permanently.
    #[test]
    fn nested_dispatch_completes() {
        let _serial = serial();
        let outer = Pool::auto();
        let inner = Pool::auto();
        let items: Vec<u64> = (0..64).collect();
        let done = std::sync::mpsc::channel();
        let tx = done.0;
        let handle = std::thread::spawn(move || {
            let sums = outer.map(&items, |_, &x| {
                let sub: Vec<u64> = (0..50).map(|j| x * 100 + j).collect();
                inner.map(&sub, |_, &y| y * 2).iter().sum::<u64>()
            });
            tx.send(sums).unwrap();
        });
        // Deadlock manifests as a hang; bound the wait explicitly so the
        // regression fails fast instead of timing out the whole suite.
        let sums = done
            .1
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("nested dispatch deadlocked");
        handle.join().unwrap();
        for (x, s) in (0..64u64).zip(&sums) {
            let expect: u64 = (0..50).map(|j| (x * 100 + j) * 2).sum();
            assert_eq!(*s, expect);
        }
    }

    /// Three levels of nesting with mutation at the leaves — the shape a
    /// sharded engine produces (shards in parallel, each shard's epoch
    /// fanning out shortest-path queries, payments fanning out below
    /// that).
    #[test]
    fn deeply_nested_map_mut_completes() {
        let _serial = serial();
        let pool = Pool::auto();
        let mut shards: Vec<Vec<u64>> = (0..8).map(|s| vec![s; 32]).collect();
        let totals = pool.map_mut(&mut shards, |_, shard| {
            let doubled = pool.map(shard, |_, &x| {
                pool.map(&[x, x + 1], |_, &y| y).iter().sum::<u64>()
            });
            shard.copy_from_slice(&doubled);
            shard.iter().sum::<u64>()
        });
        for (s, t) in totals.iter().enumerate() {
            assert_eq!(*t, (2 * s as u64 + 1) * 32);
        }
    }

    /// The installed recorder observes fan-outs without changing
    /// results, and uninstalling silences it again. Single test for
    /// the whole observer lifecycle because the slot is process-global;
    /// [`serial`] keeps every other dispatching test out of it.
    #[test]
    fn recorder_observes_dispatch_without_perturbing() {
        let _serial = serial();
        let items: Vec<u64> = (0..512).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 7).collect();
        let pool = Pool::new(4);
        let r = ufp_obs::Recorder::enabled();
        set_recorder(r.clone());
        let got = pool.map(&items, |_, &x| x * 7);
        set_recorder(ufp_obs::Recorder::off());
        assert_eq!(got, expect);
        let snap = r.snapshot().unwrap();
        if global_pool().workers > 1 {
            assert!(snap.phase_hits[Phase::ParDispatch.index()] >= 1);
            assert!(snap.gauges.iter().any(|(n, _)| n == "par.queue_depth"));
        }
        // Silenced: a later fan-out adds nothing to the old recorder.
        let before = r.snapshot().unwrap().phase_hits[Phase::ParDispatch.index()];
        let _ = pool.map(&items, |_, &x| x + 1);
        assert_eq!(
            r.snapshot().unwrap().phase_hits[Phase::ParDispatch.index()],
            before
        );
    }

    #[test]
    fn nested_borrows_stay_valid() {
        // Borrowed captures (the unsafe lifetime erasure) under stress.
        let _serial = serial();
        let data: Vec<Vec<u64>> = (0..32).map(|i| vec![i as u64; 100]).collect();
        let pool = Pool::new(4);
        for _ in 0..50 {
            let sums = pool.map(&data, |_, row| row.iter().sum::<u64>());
            for (i, s) in sums.iter().enumerate() {
                assert_eq!(*s, (i as u64) * 100);
            }
        }
    }
}
