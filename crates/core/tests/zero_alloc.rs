//! Verifies the workspace path's zero-allocation guarantee end to end with a
//! counting global allocator: the number of heap allocations performed by a
//! BaseL / PrIU / PrIU-opt `session.update` call must be **independent of
//! the iteration count** — i.e. the replay walk allocates only per call
//! (removal-set normalisation, the workspace, the produced model), never
//! per iteration. The engine's unit test
//! `replays_never_grow_the_sized_workspace` checks that no replay, the fit
//! included, grows the workspace the engine sizes for it.
//!
//! Everything runs inside a single `#[test]` so no concurrent test pollutes
//! the allocation counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use priu_core::baseline::closed_form::{closed_form_delta_with, ClosedFormCapture};
use priu_core::{
    DeletionEngine, Delta, DeltaRows, LinearEngine, Method, SessionBuilder, TrainerConfig,
    Workspace,
};
use priu_data::catalog::Hyperparameters;
use priu_data::dataset::{DenseDataset, SparseDataset};
use priu_data::synthetic::classification::{
    generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};
use priu_linalg::decomposition::{
    cholesky_factor_into, cholesky_solve_into, eigen_into, eigen_update_into, EigenScratch,
    EigenUpdateScratch, SymmetricEigen,
};
use priu_linalg::Matrix;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn regression_data() -> DenseDataset {
    generate_regression(&RegressionConfig {
        num_samples: 400,
        num_features: 8,
        noise_std: 0.1,
        seed: 90,
        ..Default::default()
    })
}

fn sparse_data() -> SparseDataset {
    generate_sparse_binary(&SparseConfig {
        num_samples: 400,
        num_features: 300,
        nnz_per_row: 12,
        informative_fraction: 0.2,
        seed: 92,
    })
}

fn classification_data() -> DenseDataset {
    generate_binary_classification(&ClassificationConfig {
        num_samples: 400,
        num_features: 8,
        separation: 3.0,
        label_noise: 0.3,
        seed: 91,
        ..Default::default()
    })
}

fn multiclass_data() -> DenseDataset {
    generate_multiclass_classification(&ClassificationConfig {
        num_samples: 400,
        num_features: 8,
        num_classes: 3,
        separation: 3.0,
        label_noise: 0.3,
        seed: 94,
    })
}

fn config_with_batch(iterations: usize, learning_rate: f64, batch_size: usize) -> TrainerConfig {
    TrainerConfig::from_hyper(Hyperparameters {
        batch_size,
        num_iterations: iterations,
        learning_rate,
        regularization: 0.01,
    })
    .with_seed(14)
}

fn config(iterations: usize, learning_rate: f64) -> TrainerConfig {
    config_with_batch(iterations, learning_rate, 50)
}

#[test]
fn update_allocations_are_independent_of_iteration_count() {
    let removed = [3usize, 57, 200, 311];

    // BaseL, PrIU and PrIU-opt are one replay walk over workspace buffers
    // sized before the update timer starts, for every family: an update
    // allocates per call (removal normalisation, workspace, model), never
    // per iteration — through the phase-1 walk and the phase-2 recursion
    // of logistic PrIU-opt too, whose lengths both scale with τ.
    let dense = |data: DenseDataset, iterations, learning_rate, batch_size| {
        SessionBuilder::dense(
            data,
            config_with_batch(iterations, learning_rate, batch_size),
        )
        .closed_form_capture(false)
        .fit()
        .unwrap()
    };
    let sparse = |iterations| {
        SessionBuilder::sparse(sparse_data(), config(iterations, 0.3))
            .fit()
            .unwrap()
    };
    let families = [
        (
            "linear",
            dense(regression_data(), 8, 0.05, 50),
            dense(regression_data(), 64, 0.05, 50),
        ),
        // Dense-draw batch derivation (4·B >= n makes `sample_indices_into`
        // scratch over all n indices instead of the Floyd branch).
        (
            "linear dense-draw",
            dense(regression_data(), 8, 0.05, 120),
            dense(regression_data(), 64, 0.05, 120),
        ),
        (
            "binary",
            dense(classification_data(), 8, 0.3, 50),
            dense(classification_data(), 64, 0.3, 50),
        ),
        (
            "multinomial",
            dense(multiclass_data(), 8, 0.3, 50),
            dense(multiclass_data(), 64, 0.3, 50),
        ),
        // The sparse walk's gather/scatter kernels run on workspace
        // buffers, and mb-SGD-sized batches stay on the single-chunk
        // inline path of the worker pool.
        ("sparse", sparse(8), sparse(64)),
    ];
    for (family, short, long) in &families {
        let replays = [Method::Retrain, Method::Priu, Method::PriuOpt];
        for method in replays.into_iter().filter(|&m| short.supports(m)) {
            short.update(method, &removed).unwrap(); // warm-up
            long.update(method, &removed).unwrap();
            let allocs_short = count_allocations(|| {
                short.update(method, &removed).unwrap();
            });
            let allocs_long = count_allocations(|| {
                long.update(method, &removed).unwrap();
            });
            assert_eq!(
                allocs_short, allocs_long,
                "{family} {method} allocated per iteration ({allocs_short} vs {allocs_long} \
                 allocations for 8 vs 64 iterations)"
            );
        }
    }

    // The delta engines' warm addition path: the appended explicit-batch
    // GD steps run entirely on workspace buffers, so an addition-only
    // `update_delta` allocates per *call* plus at most one chunk-list
    // header per appended batch — never per row and never per step.
    let data = regression_data();
    let session = SessionBuilder::dense(data, config(10, 0.05))
        .opt_capture(false)
        .fit()
        .unwrap();
    let extra = generate_regression(&RegressionConfig {
        num_samples: 400,
        num_features: 8,
        noise_std: 0.1,
        seed: 93,
        ..Default::default()
    });
    // batch_size is 50: 25 rows and 50 rows are one appended batch each,
    // 400 rows are eight.
    let half: Vec<usize> = (0..25).collect();
    let full: Vec<usize> = (0..50).collect();
    let delta_half = Delta::addition(DeltaRows::Dense(extra.select(&half)));
    let delta_full = Delta::addition(DeltaRows::Dense(extra.select(&full)));
    let delta_eight = Delta::addition(DeltaRows::Dense(extra.clone()));
    for delta in [&delta_half, &delta_full, &delta_eight] {
        session.update_delta(Method::Priu, delta).unwrap(); // warm-up
    }
    let allocs_half = count_allocations(|| {
        session.update_delta(Method::Priu, &delta_half).unwrap();
    });
    let allocs_full = count_allocations(|| {
        session.update_delta(Method::Priu, &delta_full).unwrap();
    });
    let allocs_eight = count_allocations(|| {
        session.update_delta(Method::Priu, &delta_eight).unwrap();
    });
    assert_eq!(
        allocs_half, allocs_full,
        "the appended GD step allocated per row ({allocs_half} vs {allocs_full} \
         allocations for 25 vs 50 rows in one batch)"
    );
    assert!(
        allocs_eight - allocs_full <= 7,
        "the appended GD step allocated per batch beyond the chunk-list \
         headers ({allocs_full} allocations for 1 batch vs {allocs_eight} for 8)"
    );

    offline_factorization_allocations_are_per_call_constants();
    simd_dispatch_adds_no_warm_path_cost();
}

/// The `PRIU_SIMD` runtime dispatch must be free in the warm path: with
/// warm caller-owned buffers, the dispatched kernels allocate nothing per
/// call on *either* level (level resolution is a cached read — no env
/// lookup, no detection, no boxing of kernel variants).
fn simd_dispatch_adds_no_warm_path_cost() {
    use priu_linalg::simd::{self, SimdLevel};

    let mut levels = vec![SimdLevel::Portable];
    if simd::avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }

    // Single-chunk shapes (below the 2×256-row parallel threshold) pinned
    // to one thread: the documented allocation-free kernel path.
    let a = Matrix::from_fn(200, 54, |i, j| (((i * 13 + j * 7) % 17) as f64 - 8.0) / 9.0);
    let x: Vec<f64> = (0..54).map(|i| (i as f64 * 0.29).sin()).collect();
    let t: Vec<f64> = (0..200).map(|i| (i as f64 * 0.17).cos()).collect();
    let mut out_n = vec![0.0; 200];
    let mut out_m = vec![0.0; 54];
    let sparse = sparse_data();
    let rows: Vec<usize> = (0..50).collect();
    let alphas = vec![0.25; 50];
    let mut dots = vec![0.0; 50];
    let mut acc = vec![0.0; sparse.num_features()];

    priu_linalg::par::with_threads(1, || {
        for &level in &levels {
            simd::with_level(level, || {
                // Warm-up resolves the level cache and any lazy buffers.
                a.matvec_into(&x, &mut out_n).unwrap();
                a.transpose_matvec_into(&t, &mut out_m).unwrap();
                sparse.x.rows_dot_into(&rows, &acc, &mut dots).unwrap();
                sparse
                    .x
                    .scatter_rows_into(&rows, &alphas, &mut acc)
                    .unwrap();
                let allocs = count_allocations(|| {
                    a.matvec_into(&x, &mut out_n).unwrap();
                    a.transpose_matvec_into(&t, &mut out_m).unwrap();
                    let d = simd::dot(&x, &x);
                    simd::axpy(&mut out_m, d, &t[..54]);
                    priu_linalg::scale_add_slices(&mut out_m, 0.99, 0.01, &t[..54]);
                    sparse.x.rows_dot_into(&rows, &acc, &mut dots).unwrap();
                    sparse
                        .x
                        .scatter_rows_into(&rows, &alphas, &mut acc)
                        .unwrap();
                });
                assert_eq!(
                    allocs, 0,
                    "warm dispatched kernels allocated {allocs} times at level {level}"
                );
            });
        }
    });
}

/// The PrIU-opt offline capture and closed-form baseline paths: with warm
/// (pre-sized) buffers, every factorisation entry point allocates a
/// per-call constant — zero for the pure `_into` kernels, exactly the
/// stored eigenpairs / model for the capture and the closed-form update —
/// independent of how many problems have been factorised before.
fn offline_factorization_allocations_are_per_call_constants() {
    // The zero / small-constant assertions are pinned to one thread: that
    // is the documented scope of the guarantee (kernels on the calling
    // thread). With PRIU_THREADS > 1 a multi-chunk pass additionally
    // allocates its small per-job pool handle — the deliberate exemption of
    // DESIGN.md §3.3 — which the ambient-thread drift checks below cover.
    let m = 96; // > 64: crosses the blocked-Cholesky panel boundary
    let base = Matrix::from_fn(m, m, |i, j| (((i * 23 + j * 11) % 19) as f64 - 9.0) / 10.0);
    let mut spd = base.gram();
    spd.add_diagonal_mut(m as f64).unwrap();
    let mut l = Matrix::zeros(0, 0);
    let mut x = vec![0.0; m];
    let b: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut eig_scratch = EigenScratch::default();
    priu_linalg::par::with_threads(1, || {
        cholesky_factor_into(&spd, &mut l).unwrap(); // warm-up
        cholesky_solve_into(&l, &b, &mut x).unwrap();
        let allocs = count_allocations(|| {
            cholesky_factor_into(&spd, &mut l).unwrap();
            cholesky_solve_into(&l, &b, &mut x).unwrap();
        });
        assert_eq!(
            allocs, 0,
            "warm blocked Cholesky factor+solve allocated {allocs} times"
        );

        // The eigendecomposition behind the PrIU-opt offline capture: the
        // preallocated `eigen_into` entry point is fully warm-allocation-free
        // — the eigenpairs live inside the scratch.
        eigen_into(&spd, &mut eig_scratch).unwrap(); // warm-up
        let allocs = count_allocations(|| {
            eigen_into(&spd, &mut eig_scratch).unwrap();
        });
        assert_eq!(
            allocs, 0,
            "warm eigen_into allocated {allocs} times — the tridiag+QL \
             pipeline must run entirely inside EigenScratch"
        );

        // The owning wrapper still allocates exactly the stored eigenpairs —
        // the same constant no matter how many captures ran.
        SymmetricEigen::new_with(&spd, &mut eig_scratch).unwrap(); // warm-up
        let allocs = count_allocations(|| {
            SymmetricEigen::new_with(&spd, &mut eig_scratch).unwrap();
        });
        assert!(
            allocs <= 4,
            "warm eigendecomposition should allocate only its stored \
             eigenpairs, saw {allocs} allocations"
        );

        // The rank-one update behind small PrIU-opt successors: warm, the
        // `_into` entry point and a chained link allocate nothing, and the
        // owning wrapper allocates only the returned pairs.
        let eig = SymmetricEigen::new(&spd).unwrap();
        let row = base.row(7).to_vec();
        let mut update_scratch = EigenUpdateScratch::default();
        let values = eig.values.as_slice();
        eigen_update_into(values, &eig.vectors, &row, -1.0, &mut update_scratch).unwrap(); // warm-up
        update_scratch.update(&row, 1.0).unwrap();
        update_scratch.probe_residual(&spd).unwrap();
        let allocs = count_allocations(|| {
            eigen_update_into(values, &eig.vectors, &row, -1.0, &mut update_scratch).unwrap();
            update_scratch.update(&row, 1.0).unwrap();
            update_scratch.probe_residual(&spd).unwrap();
        });
        assert_eq!(
            allocs, 0,
            "warm rank-one eigen update allocated {allocs} times — deflation, \
             secular roots and V·U must run inside EigenUpdateScratch"
        );
        eig.rank_one_update_with(&row, -1.0, &mut update_scratch)
            .unwrap(); // warm-up
        let allocs = count_allocations(|| {
            eig.rank_one_update_with(&row, -1.0, &mut update_scratch)
                .unwrap();
        });
        assert!(
            allocs <= 4,
            "warm rank-one eigen update should allocate only its returned \
             eigenpairs, saw {allocs} allocations"
        );
    });

    // At the ambient thread count the counts may include per-job pool
    // handles, but they must still be a per-call constant.
    SymmetricEigen::new_with(&spd, &mut eig_scratch).unwrap(); // spawn workers
    let allocs_second = count_allocations(|| {
        SymmetricEigen::new_with(&spd, &mut eig_scratch).unwrap();
    });
    let allocs_third = count_allocations(|| {
        SymmetricEigen::new_with(&spd, &mut eig_scratch).unwrap();
    });
    assert_eq!(
        allocs_second, allocs_third,
        "warm eigendecomposition allocations drifted between calls"
    );

    // The closed-form baseline path end to end: downdate + blocked Cholesky
    // + substitution on workspace buffers. Per-call allocations are a
    // constant (the produced model), independent of the problem count.
    let data = regression_data();
    let capture = ClosedFormCapture::build(&data, 1e-3).unwrap();
    let (normal, lambda) = (&capture.normal, capture.regularization);
    let removed = [3usize, 57, 200, 311];
    let mut ws = Workspace::sized_for(data.num_features(), removed.len(), 1);
    ws.reserve_decompositions(data.num_features());
    closed_form_delta_with(&data, normal, lambda, &removed, None, &mut ws).unwrap(); // warm-up
    ws.reset_grow_events();
    let allocs_one = count_allocations(|| {
        closed_form_delta_with(&data, normal, lambda, &removed, None, &mut ws).unwrap();
    });
    let allocs_four = count_allocations(|| {
        for _ in 0..4 {
            closed_form_delta_with(&data, normal, lambda, &removed, None, &mut ws).unwrap();
        }
    });
    assert_eq!(
        allocs_four,
        4 * allocs_one,
        "closed-form update allocations are not a per-call constant \
         ({allocs_one} for one call vs {allocs_four} for four)"
    );
    assert_eq!(
        ws.grow_events(),
        0,
        "warm workspace grew during closed-form updates"
    );

    // The PrIU-opt offline capture inside the fit: two identical fits
    // allocate identically — the capture's factorisation adds no per-run
    // drift on top of the (by-design) stored provenance.
    let cfg = config(12, 0.05); // capture_opt defaults to on
    LinearEngine::fit(data.clone(), cfg).unwrap(); // warm-up
    let (first, second) = (data.clone(), data);
    let allocs_a = count_allocations(|| {
        LinearEngine::fit(first, cfg).unwrap();
    });
    let allocs_b = count_allocations(|| {
        LinearEngine::fit(second, cfg).unwrap();
    });
    assert_eq!(
        allocs_a, allocs_b,
        "offline training + PrIU-opt capture allocations drifted between runs"
    );
}
