//! Lifecycle tests for the persistent worker pool behind `priu_linalg::par`.
//!
//! Everything runs inside a single `#[test]` executed in this binary's own
//! process, so the assertions about worker counts and shutdown cannot race
//! against other tests submitting jobs to the same global pool.

use std::sync::{Condvar, Mutex};

use priu_linalg::{par, Matrix};
use priu_rng::Rng64;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::from_seed(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

#[test]
fn pool_lifecycle() {
    // Multi-chunk shape: 1100 rows split into >1 chunks of >=256 rows.
    let a = random_matrix(1100, 64, 0x700);
    let x: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
    let t: Vec<f64> = (0..1100).map(|i| (i as f64 * 0.01).cos()).collect();

    // Lazy start: nothing has gone parallel yet, so no workers exist.
    assert_eq!(par::pool_workers(), 0, "pool must start empty");

    // Inline paths never touch the pool: a single-thread call...
    let serial = par::with_threads(1, || a.matvec(&x).unwrap());
    assert_eq!(par::pool_workers(), 0, "threads=1 must not spawn workers");
    // ...and a single-chunk shape even at high thread counts.
    let small = random_matrix(100, 8, 0x701);
    let xs = vec![1.0; 8];
    par::with_threads(4, || small.matvec(&xs).unwrap());
    assert_eq!(
        par::pool_workers(),
        0,
        "single-chunk calls must not spawn workers"
    );

    // First multi-chunk call lazily starts threads-1 workers.
    let parallel = par::with_threads(4, || a.matvec(&x).unwrap());
    assert_eq!(par::pool_workers(), 3, "4 threads = caller + 3 workers");
    assert_eq!(serial, parallel, "pool execution must be bitwise identical");

    // Reuse: many sequential kernel calls reuse the same workers — no
    // thread leak, and results stay deterministic across thread counts.
    let serial_tmv = par::with_threads(1, || a.transpose_matvec(&t).unwrap());
    for _ in 0..50 {
        let mv = par::with_threads(4, || a.matvec(&x).unwrap());
        let tmv = par::with_threads(4, || a.transpose_matvec(&t).unwrap());
        assert_eq!(mv, parallel);
        assert_eq!(tmv, serial_tmv);
        assert_eq!(
            par::pool_workers(),
            3,
            "sequential calls must not leak threads"
        );
    }

    // Lower pinned counts reuse the existing pool without shrinking it;
    // higher counts grow it by exactly the difference (given enough chunks
    // to occupy them — participants are capped at the chunk count).
    par::with_threads(2, || a.matvec(&x).unwrap());
    assert_eq!(par::pool_workers(), 3, "the pool never shrinks on its own");
    par::with_threads(6, || par::run_chunks(8, |_| {}));
    assert_eq!(par::pool_workers(), 5, "6 threads = caller + 5 workers");

    // with_threads stays an actual cap on participants even after the pool
    // has grown past it: a job pinned to 2 threads is executed by at most 2
    // distinct threads (submitter + at most one permit-holding worker).
    let seen = std::sync::Mutex::new(std::collections::HashSet::new());
    par::with_threads(2, || {
        par::run_chunks(16, |_c| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
    });
    let participants = seen.lock().unwrap().len();
    assert!(
        participants <= 2,
        "with_threads(2) must cap participants at 2, saw {participants}"
    );

    // Deterministic under the PRIU_THREADS values CI pins ({1, 4}-style):
    // results are a function of the input alone.
    for threads in [1usize, 4] {
        let mv = par::with_threads(threads, || a.matvec(&x).unwrap());
        let tmv = par::with_threads(threads, || a.transpose_matvec(&t).unwrap());
        let gram = par::with_threads(threads, || a.gram());
        assert_eq!(mv, parallel, "matvec differs at {threads} threads");
        assert_eq!(
            tmv, serial_tmv,
            "transpose_matvec differs at {threads} threads"
        );
        assert_eq!(
            gram,
            par::with_threads(1, || a.gram()),
            "gram differs at {threads} threads"
        );
    }

    // The sparse kernels ride the same pool.
    let csr = priu_linalg::CsrMatrix::from_dense(&a);
    let spmv1 = par::with_threads(1, || csr.spmv(&x).unwrap());
    let spmv4 = par::with_threads(4, || csr.spmv(&x).unwrap());
    assert_eq!(
        spmv1, spmv4,
        "spmv must be bitwise identical across thread counts"
    );
    // Numerically (the sparse and dense kernels use different summation
    // trees, so only closeness is expected here).
    assert!((&spmv1 - &parallel).norm_inf() < 1e-12 * 64.0);

    // Coarse-grained tasks ride the same pool: results come back in task
    // order, the tasks' own nested kernels run inline on their worker
    // threads (bitwise identical to serial execution), and no extra
    // workers appear.
    let workers_before = par::pool_workers();
    let task_results = par::with_threads(4, || {
        par::run_tasks(
            (0..8)
                .map(|k| {
                    let a = &a;
                    let x = &x;
                    move || {
                        let mv = a.matvec(x).unwrap();
                        (k, mv)
                    }
                })
                .collect(),
        )
    });
    for (k, (got_k, mv)) in task_results.iter().enumerate() {
        assert_eq!(*got_k, k, "run_tasks must preserve task order");
        assert_eq!(*mv, parallel, "nested kernels inside tasks must match");
    }
    assert_eq!(
        par::pool_workers(),
        workers_before,
        "run_tasks must reuse the existing pool"
    );

    // Shutdown joins every worker and the next call restarts the pool.
    par::shutdown_pool();
    assert_eq!(par::pool_workers(), 0, "shutdown must join all workers");
    let after_restart = par::with_threads(4, || a.matvec(&x).unwrap());
    assert_eq!(
        after_restart, parallel,
        "restarted pool must compute the same bits"
    );
    assert_eq!(
        par::pool_workers(),
        3,
        "pool restarts lazily after shutdown"
    );

    // Shutdown is idempotent.
    par::shutdown_pool();
    par::shutdown_pool();
    assert_eq!(par::pool_workers(), 0);

    // Shutdown racing in-flight `run_tasks` jobs from other OS threads:
    // every submitted job must complete with correct results (drained, not
    // dropped), every shutdown call must return without deadlocking, and
    // the pool must still work afterwards. Loop a few rounds so shutdowns
    // land in different phases of the jobs.
    let expected = parallel.clone();
    for round in 0..5u64 {
        let submitters: Vec<_> = (0..3)
            .map(|s| {
                let a = a.clone();
                let x = x.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        let results = par::with_threads(4, || {
                            par::run_tasks(
                                (0..6)
                                    .map(|k| {
                                        let a = &a;
                                        let x = &x;
                                        move || {
                                            std::thread::sleep(std::time::Duration::from_micros(
                                                200 * s + 50,
                                            ));
                                            (k, a.matvec(x).unwrap())
                                        }
                                    })
                                    .collect(),
                            )
                        });
                        for (k, (got_k, mv)) in results.iter().enumerate() {
                            assert_eq!(*got_k, k, "task order lost under shutdown race");
                            assert_eq!(*mv, expected, "task result corrupted under shutdown race");
                        }
                    }
                })
            })
            .collect();
        // Concurrent + repeated shutdowns from the main thread while the
        // submitters hammer the pool.
        for _ in 0..10 {
            par::try_shutdown_pool().expect("shutdown from a non-worker thread must succeed");
            std::thread::sleep(std::time::Duration::from_micros(100 * (round + 1)));
        }
        for handle in submitters {
            handle
                .join()
                .expect("submitter panicked under shutdown race");
        }
        par::shutdown_pool();
        assert_eq!(par::pool_workers(), 0, "round {round}: workers leaked");
    }

    // Two threads shutting down simultaneously: both must return, no
    // worker may survive.
    par::with_threads(4, || a.matvec(&x).unwrap()); // repopulate
    let concurrent: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(par::try_shutdown_pool))
        .collect();
    for handle in concurrent {
        handle.join().unwrap().expect("concurrent shutdown failed");
    }
    assert_eq!(
        par::pool_workers(),
        0,
        "concurrent shutdowns leaked workers"
    );

    // Calling shutdown from inside a pool task is rejected with the typed
    // error instead of self-join deadlocking. Tasks may also run inline on
    // the submitter (which is allowed to shut down), so only tasks that
    // landed on actual pool workers assert the rejection. A submitter-run
    // task waits on a latch until some worker-run task has started: once
    // the submitter's shutdown succeeds it joins the workers and every
    // remaining task runs inline, so without the latch no task might ever
    // reach a worker.
    let worker_started = (Mutex::new(false), Condvar::new());
    let verdicts = par::with_threads(4, || {
        par::run_tasks(
            (0..8)
                .map(|_| {
                    || {
                        let on_worker = std::thread::current()
                            .name()
                            .is_some_and(|name| name == "priu-par-worker");
                        let (started, latch) = &worker_started;
                        if on_worker {
                            *started.lock().unwrap() = true;
                            latch.notify_all();
                        } else {
                            let guard = started.lock().unwrap();
                            drop(latch.wait_while(guard, |started| !*started).unwrap());
                        }
                        (on_worker, par::try_shutdown_pool())
                    }
                })
                .collect(),
        )
    });
    let mut worker_calls = 0;
    for (on_worker, verdict) in verdicts {
        if on_worker {
            worker_calls += 1;
            assert!(
                matches!(verdict, Err(par::ShutdownError::CalledFromWorker)),
                "shutdown from a worker must be rejected, got {verdict:?}"
            );
        } else {
            verdict.expect("shutdown from the submitter thread must succeed");
        }
    }
    assert!(
        worker_calls > 0,
        "at least one task must have run on a pool worker"
    );

    // The pool remains fully usable after the torture.
    let survived = par::with_threads(4, || a.matvec(&x).unwrap());
    assert_eq!(survived, parallel, "pool must compute the same bits after");
    par::shutdown_pool();
    assert_eq!(par::pool_workers(), 0);
}
