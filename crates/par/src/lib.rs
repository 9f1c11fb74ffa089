//! # ufp-par
//!
//! A minimal data-parallel `map` over a **persistent** worker pool.
//!
//! The mechanism's independent work sits above Algorithm 1, whose loop
//! is sequential (each step's shortest paths depend on the weights the
//! previous step raised): one critical-value pass per winner, and one
//! run per shard of a sharded deployment. Those are the only two
//! fan-outs, and each runs many times per process, so spawning scoped
//! threads per call would pay thread creation every epoch. This crate
//! instead keeps one global set of workers alive (created lazily, sized
//! to the hardware) and dispatches borrowed closures to them with a
//! completion latch, the same architecture as rayon-core /
//! scoped_threadpool.
//!
//! [`Pool::map`] is a parallel indexed map: dynamic chunked work
//! distribution via an atomic cursor, results returned in input order
//! regardless of scheduling, so parallel and sequential execution
//! produce identical results.
//!
//! **One level of parallelism.** The caller of a parallel map runs a
//! share of the items itself, beside `threads − 1` jobs on the workers.
//! Every worker thread is marked when it spawns, and the caller is
//! marked while it runs its share; a [`Pool::map`] called on a marked
//! thread runs inline. Jobs therefore never dispatch again and workers
//! never wait on a latch, so nesting cannot deadlock, and once its
//! share is done the caller's wait is a plain condvar wait.
//!
//! ## Safety
//!
//! Jobs sent to the long-lived workers are boxed closures whose borrows
//! are *not* `'static`; the lifetime is erased with one `transmute`
//! (see `dispatch`). This is sound because `map` blocks on a latch
//! until every job has finished (or recorded a panic) before returning,
//! so no borrow outlives the call — exactly the guarantee scoped threads
//! provide, amortized over one thread spawn per process instead of one
//! per call.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Sender};
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
/// spans per fan-out, the `par.queue_depth` gauge). The pool is a
/// `Copy` handle over global workers, so the observer is process-global
/// too; installing `Recorder::off()` (the initial state) silences it
/// again. Purely observational — scheduling and results are unaffected.
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
    workers: usize,
}

thread_local! {
    /// Set while a thread runs map work — for good on the pool's
    /// workers, and on a caller while it runs its own share — so a `map`
    /// called from inside that work runs inline.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
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
                    IN_MAP.with(|m| m.set(true));
                    for job in rx.iter() {
                        job();
                    }
                })
                .expect("failed to spawn worker thread");
        }
        GlobalPool { tx, workers }
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

    /// Block until every job counted by this latch has finished. Only
    /// callers wait (workers run nested maps inline).
    fn wait(&self) {
        let mut left = self.remaining.lock();
        while *left > 0 {
            self.cv.wait(&mut left);
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
    /// baseline parallel runs are checked against).
    pub fn sequential() -> Self {
        Pool { threads: 1 }
    }

    /// Number of worker threads this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel indexed map: `f(i, &items[i])` for every item, on the
    /// calling thread and up to `threads − 1` workers. Work is
    /// distributed dynamically in chunks, so uneven per-item cost
    /// balances automatically. Results come back in input order. Called
    /// from inside another map's work, it runs inline.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        let shares = self.threads.min(n.max(1)).min(global_pool().workers);
        if shares <= 1 || IN_MAP.with(Cell::get) {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
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
        let chunk = (n / (shares * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
        // One share: take chunks until the cursor runs out. Panics are
        // caught so the latch always resolves; they resurface below.
        let share = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for (off, item) in items[start..end].iter().enumerate() {
                        let i = start + off;
                        local.push((i, f(i, item)));
                    }
                }
                if !local.is_empty() {
                    collected.lock().append(&mut local);
                }
            }))
            .is_ok()
        };
        let latch = Arc::new(Latch::new(shares - 1));
        for _ in 1..shares {
            let latch = Arc::clone(&latch);
            let share = &share;
            dispatch(move || {
                if !share() {
                    latch.panicked.fetch_add(1, Ordering::SeqCst);
                }
                latch.job_done();
            });
        }
        IN_MAP.with(|m| m.set(true));
        let mine = share();
        IN_MAP.with(|m| m.set(false));
        latch.wait();
        if !mine || latch.panicked.load(Ordering::SeqCst) > 0 {
            panic!("a share of Pool::map panicked");
        }

        let mut pairs = collected.into_inner();
        debug_assert_eq!(pairs.len(), n);
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, u)| u).collect()
    }
}

/// Send a borrowed closure to the global workers, erasing its lifetime.
///
/// # Safety
/// Callers must not return until the job has run to completion (enforced
/// in `map` by `Latch::wait`), so the erased borrows stay valid for
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
    fn empty_input() {
        let _serial = serial();
        let pool = Pool::new(4);
        let out: Vec<u32> = pool.map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let _serial = serial();
        let pool = Pool::new(8);
        assert_eq!(pool.map(&[5u32], |_, &x| x * 2), vec![10]);
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

    /// A parallel map whose jobs themselves call parallel maps must
    /// complete: outer jobs ≥ workers, each fanning out again, is the
    /// shape that wedges a pool whose workers wait on inner latches.
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

    /// Three levels of nesting: a map inside a job returns in input
    /// order and runs inline, so the whole tree costs one `par.dispatch`
    /// (the outer one) and none when the host has a single worker.
    #[test]
    fn deeply_nested_map_completes() {
        let _serial = serial();
        let pool = Pool::auto();
        let shards: Vec<Vec<u64>> = (0..8).map(|s| vec![s; 32]).collect();
        let r = ufp_obs::Recorder::enabled();
        set_recorder(r.clone());
        let totals = pool.map(&shards, |_, shard| {
            let idx: Vec<usize> = (0..shard.len()).collect();
            let doubled = pool.map(&idx, |i, &j| {
                assert_eq!(i, j, "nested map out of input order");
                let x = shard[j];
                pool.map(&[x, x + 1], |_, &y| y).iter().sum::<u64>()
            });
            assert!(doubled.iter().all(|&d| d == 2 * shard[0] + 1));
            doubled.iter().sum::<u64>()
        });
        set_recorder(ufp_obs::Recorder::off());
        for (s, t) in totals.iter().enumerate() {
            assert_eq!(*t, (2 * s as u64 + 1) * 32);
        }
        let dispatches = r.snapshot().unwrap().phase_hits[Phase::ParDispatch.index()];
        let expect = u64::from(pool.threads().min(global_pool().workers) > 1);
        assert_eq!(dispatches, expect, "a nested map dispatched");
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
