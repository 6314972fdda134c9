//! Deterministic chunked parallelism for the dense and sparse kernels.
//!
//! The hot PrIU kernels (`matvec`, `transpose_matvec`, `matmul`,
//! `weighted_gram`, and the CSR family `spmv` / `transpose_spmv` /
//! `rows_dot` / `scatter_rows`) split their row range into *chunks whose
//! boundaries depend only on the problem size*, never on the thread count.
//! Map-style kernels write disjoint output regions per chunk;
//! reduction-style kernels accumulate each chunk into its own partial buffer
//! and the partials are combined serially in ascending chunk order. Together
//! these two rules make every kernel **bitwise reproducible**: the same
//! input produces the same bits whether `PRIU_THREADS` is 1, 4 or 64,
//! because the floating-point summation tree is a function of the input
//! shape alone.
//!
//! # The persistent worker pool
//!
//! Execution uses a **lazily-started persistent worker pool**. The first
//! multi-chunk kernel call spawns `threads - 1` workers (named
//! `priu-par-worker`); every later call reuses them, so medium-sized kernels
//! no longer pay a per-call thread-spawn latency (the previous
//! `std::thread::scope` design spun threads up per kernel call). Jobs are
//! handed to the workers through a mutex/condvar epoch signal and consumed
//! with an atomic work-stealing cursor; the submitting thread participates
//! in the steal loop and blocks until every chunk has finished, which is
//! what makes it sound to hand workers a closure that borrows the caller's
//! stack.
//!
//! Pool lifecycle:
//! * **lazy start** — no threads exist until a kernel actually goes
//!   multi-chunk; calls whose decomposition collapses to a single chunk
//!   (small batches — the common case inside mb-SGD iterations) run inline
//!   on the calling thread and never touch the pool, so the per-iteration
//!   trainer/update hot path stays allocation- and synchronisation-free;
//! * **growth** — the pool holds `max(threads seen) - 1` workers; a call
//!   pinned to a higher [`with_threads`] count spawns the difference, and
//!   the pool never shrinks on its own;
//! * **shutdown** — [`shutdown_pool`] signals the workers, joins them and
//!   clears any poison; the next multi-chunk call restarts the pool. Without
//!   an explicit shutdown the workers live (idle, parked on a condvar) for
//!   the rest of the process;
//! * **poisoning** — a panic inside a chunk closure *on a worker thread* is
//!   caught, the remaining chunks are drained without running user code (so
//!   the submitter can unblock), and the pool is marked poisoned: the
//!   in-flight call and every later multi-chunk call panic with the stored
//!   message. A panic on the *submitting* thread simply aborts the job and
//!   propagates after the drain, leaving the pool usable.
//!
//! Nested parallelism is flattened: a chunk closure that itself reaches a
//! multi-chunk kernel runs that kernel inline on its worker thread (no job
//! is submitted), so kernels can never deadlock the single job slot.
//!
//! The pool holds **one job at a time**. Concurrent multi-chunk submissions
//! from different application threads are sound — every submitter drains
//! its own job to completion regardless of worker help — but the later
//! submission takes over the job slot, so the earlier kernel finishes on
//! its submitting thread alone. Parallel throughput therefore assumes one
//! multi-chunk kernel in flight at a time; concurrent callers degrade to
//! serial execution per caller, never to errors or wrong results.
//!
//! Beyond the chunked kernels, [`run_tasks`] exposes the pool for
//! *coarse-grained* independent jobs (the bench runner's per-rate figure
//! sweeps), and [`NnzChunks`] provides a work-balanced decomposition for
//! kernels whose per-item cost is skewed (CSR rows with heavy tails) —
//! still shape-only, so the determinism guarantee is untouched.
//!
//! Thread count resolution order:
//! 1. an active [`with_threads`] override on the calling thread (used by the
//!    parity tests and the kernel benches to pin a count per call-site);
//! 2. the `PRIU_THREADS` environment variable (read once per process;
//!    invalid values are rejected loudly — see [`max_threads`]);
//! 3. [`std::thread::available_parallelism`].

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Parses a `PRIU_THREADS` value. `None` (variable unset) falls back to the
/// machine's available parallelism; a present but invalid value (not a
/// positive integer) panics, because silently substituting a different
/// thread count would hide a misconfiguration.
fn parse_priu_threads(value: Option<&str>) -> usize {
    match value {
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(threads) if threads >= 1 => threads,
            _ => panic!(
                "PRIU_THREADS must be a positive integer thread count, got {raw:?}; \
                 unset the variable to use the machine's available parallelism"
            ),
        },
    }
}

/// Resolves the process-wide thread count from `PRIU_THREADS` (falling back
/// to the machine's available parallelism when unset), caching the answer.
///
/// # Panics
/// Panics if `PRIU_THREADS` is set to anything other than a positive
/// integer (including `0`): an invalid value is a misconfiguration, and
/// silently falling back would change the thread count behind the
/// operator's back.
pub fn max_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        let value = std::env::var("PRIU_THREADS").ok();
        parse_priu_threads(value.as_deref())
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set for the lifetime of a pool worker thread; kernels called from
    /// inside a chunk closure use it to run inline instead of submitting a
    /// nested job.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The thread count kernels on the calling thread will use right now: the
/// innermost [`with_threads`] override, or [`max_threads`].
pub fn current_threads() -> usize {
    OVERRIDE.with(|cell| cell.get()).unwrap_or_else(max_threads)
}

/// Runs `f` with the kernel thread count pinned to `threads` on the calling
/// thread (nestable; restored afterwards, also on panic). Changing the
/// thread count never changes results — kernels are bitwise reproducible —
/// only how many workers execute the fixed chunk decomposition.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|cell| cell.replace(Some(threads.max(1)))));
    f()
}

/// A chunk decomposition of `0..n` that depends only on `(n, min_chunk,
/// max_chunks)` — never on the thread count — so the reduction order of
/// chunked kernels is a function of the input shape alone.
#[derive(Debug, Clone, Copy)]
pub struct Chunks {
    n: usize,
    chunk: usize,
    count: usize,
}

impl Chunks {
    /// Decomposes `0..n` into at most `max_chunks` chunks of at least
    /// `min_chunk` items each (only the final chunk, which absorbs the
    /// remainder, may be smaller). In particular `n < 2·min_chunk` always
    /// yields a single chunk — the inline, pool-free path.
    pub fn new(n: usize, min_chunk: usize, max_chunks: usize) -> Self {
        let min_chunk = min_chunk.max(1);
        let max_chunks = max_chunks.max(1);
        if n == 0 {
            return Self {
                n,
                chunk: min_chunk,
                count: 0,
            };
        }
        // Floor division: never split below `min_chunk` items per chunk.
        let by_size = (n / min_chunk).max(1);
        let count = by_size.min(max_chunks);
        let chunk = n.div_ceil(count);
        Self {
            n,
            chunk,
            count: n.div_ceil(chunk),
        }
    }

    /// Number of chunks.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The item range of chunk `c`.
    ///
    /// # Panics
    /// Panics if `c >= count()`.
    pub fn range(&self, c: usize) -> Range<usize> {
        assert!(
            c < self.count,
            "chunk index {c} out of range ({})",
            self.count
        );
        let start = c * self.chunk;
        start..((start + self.chunk).min(self.n))
    }
}

/// A chunk decomposition usable by the shared map/reduce orchestration:
/// `count()` disjoint, ascending ranges partitioning `0..n`. Implementors
/// must derive both purely from the problem *shape* (sizes, sparsity
/// structure) — never from the thread count — so the reduction order of
/// chunked kernels stays a function of the input alone.
pub trait RangeDecomp {
    /// Number of chunks.
    fn count(&self) -> usize;
    /// The item range of chunk `c` (ranges are ascending and disjoint, and
    /// together cover `0..n`; individual ranges may be empty).
    fn range(&self, c: usize) -> Range<usize>;
}

impl RangeDecomp for Chunks {
    fn count(&self) -> usize {
        Chunks::count(self)
    }
    fn range(&self, c: usize) -> Range<usize> {
        Chunks::range(self, c)
    }
}

/// A work-balanced chunk decomposition of `0..n` driven by a cumulative
/// work array (`cum[i]` = total work before item `i`, `cum.len() == n + 1`,
/// non-decreasing — a CSR `row_ptr` is exactly this shape). Chunk *count*
/// follows the same rule as [`Chunks`] over the item count; chunk
/// *boundaries* split the total work as evenly as possible, so heavily
/// skewed item costs (long sparse rows) no longer pile into one chunk.
/// Both count and boundaries depend only on the shape, so the determinism
/// guarantee of the chunked kernels survives unchanged. Individual chunks
/// may be empty when a single item carries more than a chunk's share of
/// the work.
#[derive(Debug, Clone, Copy)]
pub struct NnzChunks<'a> {
    ptr: &'a [usize],
    count: usize,
}

impl<'a> NnzChunks<'a> {
    /// Decomposes the `cum.len() - 1` items into at most `max_chunks`
    /// chunks of at least `min_items` items on average (the [`Chunks`]
    /// count rule — in particular fewer than `2 · min_items` items always
    /// yield the single-chunk inline path), with boundaries balancing the
    /// cumulative work in `cum`.
    ///
    /// # Panics
    /// Panics if `cum` is empty (it must hold `n + 1` entries).
    pub fn new(cum: &'a [usize], min_items: usize, max_chunks: usize) -> Self {
        assert!(
            !cum.is_empty(),
            "cumulative work array must hold n + 1 entries"
        );
        let n = cum.len() - 1;
        let count = Chunks::new(n, min_items, max_chunks).count();
        Self { ptr: cum, count }
    }

    /// The first item of chunk `c`: the smallest item index whose
    /// cumulative work reaches `c / count` of the total.
    fn boundary(&self, c: usize) -> usize {
        let n = self.ptr.len() - 1;
        if c == 0 {
            return 0;
        }
        if c >= self.count {
            return n;
        }
        let total = self.ptr[n] as u128;
        let target = (total * c as u128 / self.count as u128) as usize;
        // First index with cum[i] >= target; cum[n] = total >= target keeps
        // this <= n.
        self.ptr.partition_point(|&p| p < target).min(n)
    }
}

impl RangeDecomp for NnzChunks<'_> {
    fn count(&self) -> usize {
        self.count
    }
    fn range(&self, c: usize) -> Range<usize> {
        assert!(
            c < self.count,
            "chunk index {c} out of range ({})",
            self.count
        );
        self.boundary(c)..self.boundary(c + 1)
    }
}

/// A submitted parallel job: the type-erased chunk closure plus the atomic
/// progress counters the steal loop needs.
struct Job {
    /// Type-erased pointer to the submitter's `&(dyn Fn(usize) + Sync)`
    /// chunk closure. Only dereferenced for chunk indices below
    /// `num_chunks`, all of which finish before [`run_chunks`] returns — so
    /// the pointee is alive for every dereference even though the lifetime
    /// has been erased.
    task: *const (dyn Fn(usize) + Sync),
    num_chunks: usize,
    /// Next chunk index to claim (work-stealing cursor).
    cursor: AtomicUsize,
    /// Chunks whose execution (or poisoned/aborted skip) has completed.
    finished: AtomicUsize,
    /// Worker participation permits, `threads - 1` at submission. A pool
    /// that has grown beyond this job's pinned thread count wakes every
    /// worker, but only permit holders join the steal loop — keeping
    /// [`with_threads`] an actual cap on participants, not just a growth
    /// hint.
    permits: AtomicUsize,
    /// The submitter's SIMD level at submission time. Workers pin it for
    /// the duration of their steal loop, so a `simd::with_level` override
    /// on the calling thread governs *every* chunk of the job — a kernel
    /// must never execute at mixed levels.
    simd_level: crate::simd::SimdLevel,
    /// Set when any participant panicked: remaining chunks are claimed and
    /// counted without running user code so the submitter can unblock.
    abort: AtomicBool,
}

/// Decrements `permits` if any remain, reporting whether one was taken.
fn take_permit(permits: &AtomicUsize) -> bool {
    permits
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
        .is_ok()
}

// SAFETY: `task` is only dereferenced while the submitting `run_chunks`
// frame is blocked (it waits for `finished == num_chunks` before
// returning), so the borrow it erases is live for every dereference.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct PoolState {
    /// Bumped once per submitted job; sleeping workers compare it against
    /// the last epoch they served to detect new work.
    epoch: u64,
    /// The job of the current epoch; cleared by the submitter on
    /// completion so stale datasets are not kept alive.
    job: Option<Arc<Job>>,
    /// Join handles of the spawned workers (`len()` is the pool size).
    handles: Vec<std::thread::JoinHandle<()>>,
    shutting_down: bool,
    /// First worker-panic message; set once, cleared only by
    /// [`shutdown_pool`].
    poisoned: Option<String>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    job_cv: Condvar,
    /// Submitters park here while late workers drain the last chunks.
    done_cv: Condvar,
}

impl Pool {
    /// Locks the state, recovering from mutex poisoning: the pool's own
    /// poison flag (not the mutex) is the mechanism that reports worker
    /// panics, and the state's invariants hold at every await point.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            epoch: 0,
            job: None,
            handles: Vec::new(),
            shutting_down: false,
            poisoned: None,
        }),
        job_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

/// Number of live worker threads in the persistent pool (0 before the
/// first multi-chunk kernel call and after [`shutdown_pool`]). The
/// submitting thread always participates on top of this count.
pub fn pool_workers() -> usize {
    pool().lock().handles.len()
}

/// Whether a worker panic has poisoned the pool. Poison makes every
/// multi-chunk kernel call panic until [`shutdown_pool`] clears it.
pub fn pool_is_poisoned() -> bool {
    pool().lock().poisoned.is_some()
}

/// Why [`try_shutdown_pool`] refused to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownError {
    /// The call was made from inside a pool worker thread (a [`run_tasks`]
    /// task or a chunk closure running on a worker). A worker cannot join
    /// itself, so the request is rejected instead of deadlocking; call
    /// shutdown from a thread the pool does not own.
    CalledFromWorker,
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShutdownError::CalledFromWorker => f.write_str(
                "shutdown_pool called from inside a pool worker thread; \
                 a worker cannot join itself — shut the pool down from a \
                 thread it does not own",
            ),
        }
    }
}

impl std::error::Error for ShutdownError {}

/// Stops and joins every pool worker, clearing any poison. The next
/// multi-chunk kernel call lazily restarts the pool. Safe to call at any
/// time; a job currently in flight finishes first (its submitter drains all
/// chunks itself if the workers exit early), and kernel calls racing the
/// shutdown run inline rather than spawning doomed workers. Concurrent and
/// repeated shutdowns serialise on an internal gate, so the call is
/// idempotent.
///
/// # Panics
/// Panics with [`ShutdownError::CalledFromWorker`]'s message when invoked
/// from inside a pool worker thread (where joining would self-deadlock);
/// use [`try_shutdown_pool`] to handle that case as a typed error.
pub fn shutdown_pool() {
    if let Err(err) = try_shutdown_pool() {
        panic!("priu_linalg::par::shutdown_pool: {err}");
    }
}

/// [`shutdown_pool`] with the self-join hazard reported as a typed error:
/// invoked from a pool worker thread (e.g. from inside a [`run_tasks`]
/// task), it returns [`ShutdownError::CalledFromWorker`] instead of
/// deadlocking on joining the calling thread. In-flight jobs submitted by
/// *other* threads drain to completion — their submitters participate in
/// the steal loop and finish any chunks the exiting workers leave behind —
/// so queued `run_tasks` work is never lost or wedged by a shutdown.
///
/// # Errors
/// [`ShutdownError::CalledFromWorker`] when called on a pool worker thread.
pub fn try_shutdown_pool() -> Result<(), ShutdownError> {
    if IS_POOL_WORKER.with(|flag| flag.get()) {
        return Err(ShutdownError::CalledFromWorker);
    }
    let p = pool();
    // Serialise whole shutdowns: overlapping calls would otherwise race one
    // call's `shutting_down = false` reset against another's join phase,
    // leaking un-joined workers into a pool that believes itself empty.
    static SHUTDOWN_GATE: Mutex<()> = Mutex::new(());
    let _gate = SHUTDOWN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let handles = {
        let mut state = p.lock();
        state.shutting_down = true;
        p.job_cv.notify_all();
        std::mem::take(&mut state.handles)
    };
    for handle in handles {
        let _ = handle.join();
    }
    let mut state = p.lock();
    state.shutting_down = false;
    state.poisoned = None;
    Ok(())
}

/// Spawns workers until the pool holds at least `target` of them. Called
/// with the state lock held.
fn ensure_workers(p: &'static Pool, state: &mut PoolState, target: usize) {
    while state.handles.len() < target {
        let handle = std::thread::Builder::new()
            .name("priu-par-worker".to_string())
            .spawn(move || worker_loop(p))
            .expect("spawning a priu-par worker thread failed");
        state.handles.push(handle);
    }
}

fn worker_loop(p: &'static Pool) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    let mut seen_epoch = 0u64;
    let mut state = p.lock();
    loop {
        while !state.shutting_down && state.epoch == seen_epoch {
            state = p.job_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.shutting_down {
            return;
        }
        seen_epoch = state.epoch;
        let job = state.job.clone();
        drop(state);
        if let Some(job) = job {
            if take_permit(&job.permits) {
                // Pin the submitter's SIMD level so every chunk of the job
                // executes the same kernel variant.
                crate::simd::with_level(job.simd_level, || steal_loop(p, &job, true));
            }
        }
        state = p.lock();
    }
}

/// Counts one finished chunk, waking the submitter on the last one. The
/// `AcqRel` increment publishes the chunk's output writes to the submitter's
/// final `Acquire` read of the counter.
fn finish_chunk(p: &Pool, job: &Job) {
    if job.finished.fetch_add(1, Ordering::AcqRel) + 1 == job.num_chunks {
        // Notify while holding the state lock so the submitter cannot miss
        // the wakeup between its predicate check and its wait.
        let _state = p.lock();
        p.done_cv.notify_all();
    }
}

/// The shared work-stealing loop. Workers (`catch_panics = true`) trap chunk
/// panics, poison the pool and keep draining so the submitter can unblock;
/// the submitter (`catch_panics = false`) lets the panic unwind — its
/// [`DrainGuard`] aborts the job and waits for stragglers first.
fn steal_loop(p: &Pool, job: &Job, catch_panics: bool) {
    loop {
        let c = job.cursor.fetch_add(1, Ordering::Relaxed);
        if c >= job.num_chunks {
            break;
        }
        // Count the chunk even if the closure unwinds, so accounting stays
        // exact and the submitter never deadlocks.
        struct ChunkDone<'a>(&'a Pool, &'a Job);
        impl Drop for ChunkDone<'_> {
            fn drop(&mut self) {
                finish_chunk(self.0, self.1);
            }
        }
        let _done = ChunkDone(p, job);
        if job.abort.load(Ordering::Acquire) {
            continue;
        }
        // SAFETY: `c < num_chunks`, so the submitter is still blocked inside
        // `run_chunks` and the closure behind `task` is alive.
        let task = unsafe { &*job.task };
        if catch_panics {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(c))) {
                job.abort.store(true, Ordering::Release);
                let message = panic_message(payload.as_ref());
                let mut state = p.lock();
                if state.poisoned.is_none() {
                    state.poisoned = Some(message);
                }
            }
        } else {
            task(c);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Blocks until every chunk of the job has finished, then clears the pool's
/// reference to it. Runs on normal return *and* on unwind (a submitter-side
/// chunk panic), where it first flips `abort` so workers stop running user
/// code; waiting before the submitter's frame dies is what keeps the
/// type-erased closure borrow sound.
struct DrainGuard<'a> {
    pool: &'static Pool,
    job: &'a Arc<Job>,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.job.abort.store(true, Ordering::Release);
        }
        let mut state = self.pool.lock();
        while self.job.finished.load(Ordering::Acquire) < self.job.num_chunks {
            state = self
                .pool
                .done_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state
            .job
            .as_ref()
            .is_some_and(|current| Arc::ptr_eq(current, self.job))
        {
            state.job = None;
        }
        if !std::thread::panicking() {
            if let Some(message) = state.poisoned.clone() {
                drop(state);
                panic!("priu_linalg::par worker pool poisoned: a worker panicked: {message}");
            }
        }
    }
}

/// Runs `f(chunk_index)` for every chunk in `0..num_chunks` on the
/// persistent worker pool (up to [`current_threads`] participants including
/// the calling thread, sharing an atomic work-stealing cursor). `f` must
/// only touch data disjoint per chunk; the order in which chunks *execute*
/// is unspecified, so deterministic reductions must combine per-chunk
/// partials in chunk order afterwards.
///
/// Single-chunk calls, single-thread counts and calls made from inside a
/// pool worker (nested kernels) run inline and never touch the pool.
///
/// # Panics
/// Panics if the pool is poisoned by an earlier worker panic (see
/// [`shutdown_pool`]), or propagates a panic raised by `f` during this call.
pub fn run_chunks<F>(num_chunks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = current_threads().min(num_chunks);
    if threads <= 1 || IS_POOL_WORKER.with(|flag| flag.get()) {
        for c in 0..num_chunks {
            f(c);
        }
        return;
    }

    let p = pool();
    let trait_obj: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: lifetime erasure only — layout of the fat pointer is
    // unchanged. The `DrainGuard` below keeps this frame alive until no
    // worker can dereference the pointer again.
    let task: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(trait_obj) };
    let job = Arc::new(Job {
        task,
        num_chunks,
        cursor: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        permits: AtomicUsize::new(threads - 1),
        simd_level: crate::simd::current_level(),
        abort: AtomicBool::new(false),
    });

    {
        let mut state = p.lock();
        if let Some(message) = &state.poisoned {
            panic!("priu_linalg::par worker pool poisoned: a worker panicked: {message}");
        }
        if state.shutting_down {
            // A concurrent `shutdown_pool` has already taken the join
            // handles; any worker spawned now would exit immediately yet
            // leave a dead handle behind, silently capping future
            // parallelism. Run this call inline instead.
            drop(state);
            for c in 0..num_chunks {
                f(c);
            }
            return;
        }
        ensure_workers(p, &mut state, threads - 1);
        state.job = Some(job.clone());
        state.epoch = state.epoch.wrapping_add(1);
        p.job_cv.notify_all();
    }

    let _drain = DrainGuard { pool: p, job: &job };
    steal_loop(p, &job, false);
    // DrainGuard::drop waits for stragglers, clears the job and rethrows
    // worker poison.
}

/// Runs independent coarse-grained tasks on the persistent pool, returning
/// their results **in task order** regardless of execution order — the
/// companion of [`run_chunks`] for heterogeneous jobs (the bench runner's
/// per-rate figure sweeps, batch experiment shards).
///
/// Execution rides the same machinery as the kernels: up to
/// [`current_threads`] participants including the caller, work-stealing
/// over the task list, inline execution when only one thread is available
/// or when called from inside a pool worker. Tasks that themselves invoke
/// multi-chunk kernels run those kernels inline on their worker thread, so
/// fanning out callers of parallel kernels is sound (and the kernels stop
/// competing for the same cores).
///
/// Determinism: the *returned vector* is ordered by task index, and each
/// task's own computation is as deterministic as the task makes it — the
/// linalg kernels it calls stay bitwise reproducible because their chunk
/// decompositions never depend on where they run. Wall-clock *timings*
/// measured inside concurrently running tasks do contend, so timing-
/// sensitive sweeps should pin `PRIU_THREADS=1` when per-point latency
/// fidelity matters more than sweep throughput.
///
/// # Panics
/// Propagates task panics with the pool's usual poisoning contract (a
/// panic on a worker poisons the pool until [`shutdown_pool`]).
pub fn run_tasks<T, F>(tasks: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    run_chunks(slots.len(), |c| {
        let task = slots[c]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("run_chunks claims every index exactly once");
        let result = task();
        *results[c].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("run_chunks finished every task")
        })
        .collect()
}

/// Runs a map-style chunked kernel: each chunk of the decomposition fills
/// its own disjoint `width`-strided region of `out` (`fill(range, region)`
/// must write every element of `region`, which is
/// `out[range.start * width..range.end * width]`). Single-chunk
/// decompositions run inline on the calling thread; empty ones do nothing.
/// The contiguous-region map kernels touch [`SendPtr`] only here, so their
/// disjointness argument lives here once; the Jacobi eigen rotation passes
/// (`dense::decomposition::eigen`) additionally use [`SendPtr`] directly
/// for their scattered row/column pairs, with their own disjointness
/// invariant (tournament pairs) argued at those sites.
pub(crate) fn map_chunks<D, F>(chunks: &D, width: usize, out: &mut [f64], fill: F)
where
    D: RangeDecomp + Sync,
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    if chunks.count() == 0 {
        return;
    }
    if chunks.count() == 1 {
        fill(chunks.range(0), out);
        return;
    }
    let ptr = SendPtr(out.as_mut_ptr());
    run_chunks(chunks.count(), |c| {
        let range = chunks.range(c);
        // SAFETY: chunk output regions are disjoint by construction of the
        // decomposition (ranges partition `0..n`, scaled by `width`).
        let region = unsafe { ptr.slice(range.start * width, range.len() * width) };
        fill(range, region);
    });
}

/// Runs a reduction-style chunked kernel deterministically: each chunk
/// accumulates into its own zeroed `m`-sized partial (borrowed from the
/// scratch pool), then the partials are combined into `out` serially in
/// **ascending chunk order** — the rule that makes the summation tree a
/// function of the decomposition alone. `out` is not cleared; single-chunk
/// decompositions accumulate straight into it on the calling thread.
pub(crate) fn reduce_chunks<D, F>(chunks: &D, m: usize, out: &mut [f64], accumulate: F)
where
    D: RangeDecomp + Sync,
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    if chunks.count() == 0 {
        return;
    }
    if chunks.count() == 1 {
        accumulate(chunks.range(0), out);
        return;
    }
    with_scratch(chunks.count() * m, |partials| {
        let ptr = SendPtr(partials.as_mut_ptr());
        run_chunks(chunks.count(), |c| {
            // SAFETY: one disjoint m-sized partial per chunk.
            let partial = unsafe { ptr.slice(c * m, m) };
            accumulate(chunks.range(c), partial);
        });
        for c in 0..chunks.count() {
            crate::dense::vector::axpy_slices(out, 1.0, &partials[c * m..(c + 1) * m]);
        }
    });
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Lends the calling thread a zeroed scratch buffer of exactly `len` values
/// from a per-thread pool (so steady-state kernel calls allocate nothing),
/// returning it to the pool afterwards. Re-entrant: nested kernels each get
/// their own buffer.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    let result = f(&mut buf);
    SCRATCH_POOL.with(|pool| pool.borrow_mut().push(buf));
    result
}

/// A raw mutable pointer that may cross thread boundaries. Used to hand each
/// chunk worker its disjoint output or partial-buffer region; safety rests on
/// the chunk decomposition making those regions non-overlapping.
pub(crate) struct SendPtr(pub *mut f64);

// SAFETY: the pointer is only dereferenced through disjoint per-chunk
// regions computed from a `Chunks` decomposition.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// The raw pointer (for kernels that address their disjoint region
    /// themselves).
    pub(crate) fn get(&self) -> *mut f64 {
        self.0
    }

    /// The mutable sub-slice `[offset, offset + len)`.
    ///
    /// # Safety
    /// The caller must guarantee the region is in bounds and not aliased by
    /// any other live reference for the duration of the borrow.
    // The &self → &mut lifetime laundering is the point of this wrapper:
    // each chunk worker derives a unique, disjoint region from the shared
    // pointer.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, offset: usize, len: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_decomposition_depends_only_on_n() {
        let c = Chunks::new(1000, 128, 16);
        assert_eq!(c.count(), 7);
        let mut covered = 0;
        for i in 0..c.count() {
            let r = c.range(i);
            assert_eq!(r.start, covered);
            covered = r.end;
            // The min-chunk contract: only the final chunk may be smaller.
            if i + 1 < c.count() {
                assert!(r.len() >= 128);
            }
        }
        assert_eq!(covered, 1000);

        // Inputs below twice the minimum collapse to a single chunk (the
        // inline, pool-free path).
        assert_eq!(Chunks::new(100, 128, 16).count(), 1);
        assert_eq!(Chunks::new(255, 128, 16).count(), 1);
        assert_eq!(Chunks::new(257, 256, 16).count(), 1);
        assert_eq!(Chunks::new(256, 128, 16).count(), 2);
        assert_eq!(Chunks::new(0, 128, 16).count(), 0);

        // The cap bounds the chunk count for huge inputs.
        assert_eq!(Chunks::new(1_000_000, 128, 16).count(), 16);
    }

    #[test]
    fn chunk_decomposition_edge_cases() {
        // n = 0: zero chunks, nothing to cover.
        let empty = Chunks::new(0, 64, 8);
        assert_eq!(empty.count(), 0);

        // n < 2·min_chunk collapses to exactly one chunk covering 0..n,
        // even right at the boundary.
        for n in [1usize, 63, 64, 127] {
            let c = Chunks::new(n, 64, 8);
            assert_eq!(c.count(), 1, "n={n}");
            assert_eq!(c.range(0), 0..n);
        }

        // max_chunks = 1 forces a single chunk no matter how large n is.
        let capped = Chunks::new(10_000, 16, 1);
        assert_eq!(capped.count(), 1);
        assert_eq!(capped.range(0), 0..10_000);

        // The final chunk absorbs the remainder and is the only one allowed
        // to be smaller than min_chunk.
        let c = Chunks::new(130, 64, 8);
        assert_eq!(c.count(), 2);
        assert_eq!(c.range(0), 0..65);
        assert_eq!(c.range(1), 65..130);
        let c = Chunks::new(1030, 128, 4);
        assert_eq!(c.count(), 4);
        let sizes: Vec<usize> = (0..c.count()).map(|i| c.range(i).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1030);
        for (i, &s) in sizes.iter().enumerate() {
            if i + 1 < sizes.len() {
                assert!(s >= 128, "chunk {i} has {s} items");
            }
        }
        assert!(*sizes.last().unwrap() <= sizes[0]);

        // min_chunk/max_chunks of 0 are clamped to 1 rather than dividing
        // by zero.
        assert_eq!(Chunks::new(10, 0, 0).count(), 1);
    }

    #[test]
    fn nnz_chunks_balance_skewed_work() {
        // 8 rows; row 0 carries almost all the nnz.
        let cum = [0usize, 1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007];
        let c = NnzChunks::new(&cum, 2, 4);
        // Count follows the Chunks rule over the *item* count.
        assert_eq!(RangeDecomp::count(&c), Chunks::new(8, 2, 4).count());
        // Ranges are ascending, disjoint and cover 0..8.
        let mut covered = 0;
        let mut first_range = 0..0;
        for i in 0..RangeDecomp::count(&c) {
            let r = RangeDecomp::range(&c, i);
            assert_eq!(r.start, covered, "chunk {i}");
            covered = r.end;
            if i == 0 {
                first_range = r;
            }
        }
        assert_eq!(covered, 8);
        // The heavy row is isolated: chunk 0 holds row 0 alone.
        assert_eq!(first_range, 0..1);

        // Uniform work reproduces near-even row splits.
        let uniform: Vec<usize> = (0..=100).map(|i| i * 3).collect();
        let u = NnzChunks::new(&uniform, 10, 8);
        for i in 0..RangeDecomp::count(&u) {
            let r = RangeDecomp::range(&u, i);
            assert!(r.len() >= 10, "uniform chunk {i} has {} items", r.len());
        }

        // Zero items and zero work degrade gracefully.
        assert_eq!(RangeDecomp::count(&NnzChunks::new(&[0], 4, 4)), 0);
        let zero_work = [0usize; 9];
        let z = NnzChunks::new(&zero_work, 2, 4);
        let mut covered = 0;
        for i in 0..RangeDecomp::count(&z) {
            let r = RangeDecomp::range(&z, i);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 8);
    }

    #[test]
    fn run_tasks_returns_results_in_task_order() {
        for threads in [1usize, 4] {
            let tasks: Vec<_> = (0..17)
                .map(|i| move || i * i + usize::from(i % 3 == 0))
                .collect();
            let results = with_threads(threads, || run_tasks(tasks));
            for (i, &r) in results.iter().enumerate() {
                assert_eq!(r, i * i + usize::from(i % 3 == 0), "threads={threads}");
            }
        }
        // Empty task lists are fine.
        let empty: Vec<fn() -> usize> = Vec::new();
        assert!(run_tasks(empty).is_empty());
    }

    #[test]
    fn run_tasks_nests_inside_parallel_kernels() {
        // Tasks that themselves submit chunked work run it inline on their
        // worker thread; totals stay exact.
        let totals = with_threads(4, || {
            run_tasks(
                (0..6)
                    .map(|t| {
                        move || {
                            let hits: Vec<AtomicUsize> =
                                (0..9).map(|_| AtomicUsize::new(0)).collect();
                            run_chunks(hits.len(), |c| {
                                hits[c].fetch_add(t + 1, Ordering::Relaxed);
                            });
                            hits.iter()
                                .map(|h| h.load(Ordering::Relaxed))
                                .sum::<usize>()
                        }
                    })
                    .collect(),
            )
        });
        for (t, &total) in totals.iter().enumerate() {
            assert_eq!(total, 9 * (t + 1));
        }
    }

    #[test]
    fn run_chunks_visits_every_chunk_exactly_once() {
        for threads in [1usize, 4] {
            let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            with_threads(threads, || {
                run_chunks(hits.len(), |c| {
                    hits[c].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn with_threads_nests_and_restores() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(7, || assert_eq!(current_threads(), 7));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn priu_threads_parsing_rejects_garbage_loudly() {
        // Unset: fall back to the machine's parallelism (at least one).
        assert!(parse_priu_threads(None) >= 1);
        // Valid values pass through (whitespace tolerated).
        assert_eq!(parse_priu_threads(Some("3")), 3);
        assert_eq!(parse_priu_threads(Some(" 12 ")), 12);
        // Garbage and zero are rejected with a panic naming the variable.
        for bad in ["0", "", "four", "-2", "1.5", "4x"] {
            let result = panic::catch_unwind(|| parse_priu_threads(Some(bad)));
            let payload = result.expect_err(&format!("PRIU_THREADS={bad:?} must be rejected"));
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.contains("PRIU_THREADS"),
                "panic message must name the variable, got {message:?}"
            );
        }
    }

    #[test]
    fn scratch_is_zeroed_and_reentrant() {
        with_scratch(8, |a| {
            assert!(a.iter().all(|&x| x == 0.0));
            a[0] = 42.0;
            with_scratch(4, |b| {
                assert!(b.iter().all(|&x| x == 0.0));
                b[0] = 7.0;
            });
            assert_eq!(a[0], 42.0);
        });
        // Buffers return to the pool zeroed on next borrow.
        with_scratch(8, |a| assert!(a.iter().all(|&x| x == 0.0)));
    }
}
