//! Bitwise parity suite for the `priu_linalg::simd` microkernel layer:
//! for every dispatched kernel, the production path must produce the
//! *same bits* as a hand-written scalar reference built from that level's
//! element operations — plain mul-then-add on the portable level,
//! [`f64::mul_add`] on the Avx2 level (libm `fma` and hardware `vfmadd`
//! are both correctly rounded, so the reference is exact) — across
//! `PRIU_THREADS ∈ {1, 4}` for the chunked kernels. The cross-level
//! relationship is numeric only, and one test pins down that FMA really
//! does change bits (so the per-level framing is not vacuous).

use priu_linalg::simd::{self, SimdLevel};
use priu_linalg::{par, scale_add_slices, CsrMatrix, Matrix};
use priu_rng::Rng64;

fn levels() -> Vec<SimdLevel> {
    simd::available_levels()
}

fn random_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::from_seed(seed);
    (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::from_seed(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-2.0, 2.0))
}

/// The level's element op: `acc + a·b` with that level's rounding.
fn ref_madd(level: SimdLevel, acc: f64, a: f64, b: f64) -> f64 {
    match level {
        SimdLevel::Portable => acc + a * b,
        SimdLevel::Avx2 => a.mul_add(b, acc),
    }
}

/// Reference dot over the canonical 4-wide lanes: lane `l` accumulates
/// elements `≡ l (mod 4)`, lanes combine `((l0+l1)+l2)+l3`, sequential
/// tail — with the level's element op in every position.
fn ref_dot(level: SimdLevel, a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0_f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = ref_madd(level, *lane, a[j + l], b[j + l]);
        }
    }
    let mut acc = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
    for j in chunks * 4..a.len() {
        acc = ref_madd(level, acc, a[j], b[j]);
    }
    acc
}

/// Lengths straddling the lane width and the remainder cases.
const LENGTHS: [usize; 8] = [0, 1, 3, 4, 5, 8, 33, 103];

#[test]
fn dot_matches_lane_structured_reference_bitwise() {
    for level in levels() {
        for (case, &len) in LENGTHS.iter().enumerate() {
            let a = random_vec(len, 0x900 + case as u64);
            let b = random_vec(len, 0x910 + case as u64);
            let got = simd::with_level(level, || simd::dot(&a, &b));
            assert_eq!(got, ref_dot(level, &a, &b), "dot len={len} ({level})");
        }
    }
}

#[test]
fn dot4_rows_match_single_dot_bitwise() {
    // dot4's per-row lanes are exactly dot's lanes; the fusion across rows
    // shares loads, never accumulators.
    for level in levels() {
        for (case, &len) in LENGTHS.iter().enumerate() {
            let rows: Vec<Vec<f64>> = (0..4)
                .map(|r| random_vec(len, 0x920 + case as u64 * 8 + r as u64))
                .collect();
            let x = random_vec(len, 0x9F0 + case as u64);
            let got = simd::with_level(level, || {
                simd::dot4(&rows[0], &rows[1], &rows[2], &rows[3], &x)
            });
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    got[r],
                    ref_dot(level, row, &x),
                    "dot4 row {r} len={len} ({level})"
                );
            }
        }
    }
}

#[test]
fn elementwise_kernels_match_references_bitwise() {
    for level in levels() {
        for (case, &len) in LENGTHS.iter().enumerate() {
            let src = random_vec(len, 0xA00 + case as u64);
            let base = random_vec(len, 0xA10 + case as u64);
            let scales = random_vec(len, 0xA20 + case as u64);
            simd::with_level(level, || {
                // axpy: out[j] += α·src[j].
                let mut out = base.clone();
                simd::axpy(&mut out, 1.75, &src);
                for j in 0..len {
                    assert_eq!(
                        out[j],
                        ref_madd(level, base[j], 1.75, src[j]),
                        "axpy ({level})"
                    );
                }

                // scale_add == scale_mut then axpy, bitwise, per level.
                let mut fused = base.clone();
                scale_add_slices(&mut fused, 0.93, -0.61, &src);
                let mut pair = base.clone();
                for p in pair.iter_mut() {
                    *p *= 0.93;
                }
                simd::axpy(&mut pair, -0.61, &src);
                assert_eq!(fused, pair, "scale_add len={len} ({level})");

                // fnma_scaled: out[j] -= scales[j]·v.
                let mut rank1 = base.clone();
                simd::fnma_scaled(&mut rank1, &scales, 1.3);
                for j in 0..len {
                    let want = match level {
                        SimdLevel::Portable => base[j] - scales[j] * 1.3,
                        SimdLevel::Avx2 => (-scales[j]).mul_add(1.3, base[j]),
                    };
                    assert_eq!(rank1[j], want, "fnma_scaled ({level})");
                }

                // fnma2_scaled: the two fnma_scaled passes, fused.
                let mut fused2 = base.clone();
                simd::fnma2_scaled(&mut fused2, &scales, 1.3, &src, -0.7);
                let mut twice = base.clone();
                simd::fnma_scaled(&mut twice, &scales, 1.3);
                simd::fnma_scaled(&mut twice, &src, -0.7);
                assert_eq!(fused2, twice, "fnma2_scaled len={len} ({level})");

                // rotate_two: level-invariant three-rounding expressions.
                let mut rp = base.clone();
                let mut rr = src.clone();
                simd::rotate_two(&mut rp, &mut rr, 0.8, 0.6);
                for j in 0..len {
                    assert_eq!(rp[j], 0.8 * base[j] - 0.6 * src[j], "rotate p ({level})");
                    assert_eq!(rr[j], 0.6 * base[j] + 0.8 * src[j], "rotate r ({level})");
                }
            });
        }
    }
}

#[test]
fn sparse_kernels_match_lane_structured_references_bitwise() {
    let mut rng = Rng64::from_seed(0xB00);
    for &nnz in &[0usize, 1, 3, 4, 7, 30, 113] {
        let ncols = (4 * nnz).max(8);
        let mut cols: Vec<usize> = Vec::new();
        while cols.len() < nnz {
            let c = rng.index(ncols);
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols.sort_unstable();
        let vals = random_vec(nnz, 0xB10 + nnz as u64);
        let x = random_vec(ncols, 0xB20 + nnz as u64);

        for level in levels() {
            simd::with_level(level, || {
                // Gather dot: the same 4-wide lane tree as the dense dot.
                let gathered: Vec<f64> = cols.iter().map(|&c| x[c]).collect();
                let got = simd::sparse_dot(&cols, &vals, &x);
                assert_eq!(
                    got,
                    ref_dot(level, &vals, &gathered),
                    "sparse_dot nnz={nnz} ({level})"
                );

                // Scatter: element-independent, level's element op per slot.
                let base = random_vec(ncols, 0xB30 + nnz as u64);
                let mut acc = base.clone();
                simd::sparse_scatter(&cols, &vals, -0.7, &mut acc);
                let mut want = base;
                for (k, &c) in cols.iter().enumerate() {
                    want[c] = ref_madd(level, want[c], -0.7, vals[k]);
                }
                assert_eq!(acc, want, "sparse_scatter nnz={nnz} ({level})");
            });
        }
    }
}

#[test]
fn fnma_dot_seq_matches_sequential_reference_bitwise() {
    for level in levels() {
        for (case, &len) in LENGTHS.iter().enumerate() {
            let a = random_vec(len, 0xC00 + case as u64);
            let b = random_vec(len, 0xC10 + case as u64);
            let got = simd::with_level(level, || simd::fnma_dot_seq(2.5, &a, &b));
            let mut want = 2.5;
            for j in 0..len {
                want = match level {
                    SimdLevel::Portable => want - a[j] * b[j],
                    SimdLevel::Avx2 => (-a[j]).mul_add(b[j], want),
                };
            }
            assert_eq!(got, want, "fnma_dot_seq len={len} ({level})");
        }
    }
}

#[test]
fn full_kernels_are_bitwise_stable_per_level_and_numerically_equal_across() {
    // Kernel-level closure: per level the chunked kernels are bitwise
    // reproducible across thread counts (the per-slice parity above plus
    // the shape-only decomposition make this hold by construction — this
    // asserts the composition); across levels they agree numerically.
    let a = random_matrix(700, 57, 0xD00);
    let x = random_vec(57, 0xD01);
    let t = random_vec(700, 0xD02);
    let w = random_vec(700, 0xD03);

    let mut per_level = Vec::new();
    for level in levels() {
        let run = |threads: usize| {
            simd::with_level(level, || {
                par::with_threads(threads, || {
                    (
                        a.matvec(&x).unwrap(),
                        a.transpose_matvec(&t).unwrap(),
                        a.weighted_gram(Some(&w)),
                    )
                })
            })
        };
        let serial = run(1);
        let pooled = run(4);
        assert_eq!(serial.0, pooled.0, "matvec pool ({level})");
        assert_eq!(serial.1, pooled.1, "transpose_matvec pool ({level})");
        assert_eq!(serial.2, pooled.2, "weighted_gram pool ({level})");
        per_level.push(serial);
    }
    if per_level.len() == 2 {
        let (p, v) = (&per_level[0], &per_level[1]);
        let close =
            |u: &[f64], w: &[f64], tol: f64| u.iter().zip(w).all(|(a, b)| (a - b).abs() <= tol);
        assert!(close(&p.0, &v.0, 1e-10), "matvec across levels");
        assert!(close(&p.1, &v.1, 1e-10), "transpose_matvec across levels");
        assert!(
            close(p.2.as_slice(), v.2.as_slice(), 1e-8),
            "gram across levels"
        );
    }
}

#[test]
fn fma_actually_changes_bits_between_levels() {
    // Guard against the suite silently testing nothing: on hosts with
    // AVX2+FMA the levels must produce *different* bits for a dot whose
    // products round. (With exact inputs like small integers they would
    // agree — use irrationals.)
    if !simd::avx2_supported() {
        return;
    }
    let a: Vec<f64> = (1..200).map(|i| 1.0 + (i as f64).sqrt()).collect();
    let b: Vec<f64> = (1..200).map(|i| 1.0 + (i as f64).cbrt()).collect();
    let portable = simd::with_level(SimdLevel::Portable, || simd::dot(&a, &b));
    let avx2 = simd::with_level(SimdLevel::Avx2, || simd::dot(&a, &b));
    assert_ne!(portable, avx2, "FMA must remove intermediate roundings");
    assert!((portable - avx2).abs() < 1e-9, "…but only by rounding");
}

#[test]
fn csr_row_kernels_ride_the_dispatched_microkernels() {
    // End-to-end: CsrMatrix::row_dot / scatter_row produce exactly the
    // microkernel results on every level (they are thin shape-checked
    // wrappers — this pins the wiring).
    let dense = random_matrix(40, 60, 0xE00);
    // Sparsify: zero out ~70% of entries.
    let mut rng = Rng64::from_seed(0xE01);
    let dense = Matrix::from_fn(40, 60, |i, j| {
        if rng.uniform(0.0, 1.0) < 0.7 {
            0.0
        } else {
            dense[(i, j)]
        }
    });
    let csr = CsrMatrix::from_dense(&dense);
    let x = random_vec(60, 0xE02);
    for level in levels() {
        simd::with_level(level, || {
            for i in 0..40 {
                let (cols, vals) = csr.row(i);
                assert_eq!(
                    csr.row_dot(i, &x).unwrap(),
                    simd::sparse_dot(cols, vals, &x),
                    "row_dot row {i} ({level})"
                );
            }
            let mut via_method = vec![0.0; 60];
            csr.scatter_row(7, 1.25, &mut via_method).unwrap();
            let mut via_kernel = vec![0.0; 60];
            let (cols, vals) = csr.row(7);
            simd::sparse_scatter(cols, vals, 1.25, &mut via_kernel);
            assert_eq!(via_method, via_kernel, "scatter_row ({level})");
        });
    }
}
