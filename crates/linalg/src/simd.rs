//! Runtime-dispatched SIMD microkernels with bitwise scalar parity.
//!
//! Every hot inner loop of the dense and sparse kernels — dot products,
//! 4-row fused matvec dots, `axpy`, the matrix product `gemm_acc`, the
//! fused GD step `scale_add`, the Householder reflector update, the
//! plane-rotation pass, and the CSR gather/scatter loops — funnels through this module.
//! Each microkernel has two implementations selected once per call:
//!
//! * **portable** — plain Rust with the historical lane structure (4-wide
//!   accumulators, mul-then-add rounding). This is the only path on
//!   non-x86_64 targets and whenever AVX2+FMA is unavailable or disabled.
//! * **AVX2+FMA** — explicit `std::arch` intrinsics behind
//!   `#[target_feature(enable = "avx2,fma")]`, reachable only after
//!   [`is_x86_feature_detected!`] has proven support at runtime.
//!
//! # The determinism contract
//!
//! The SIMD lanes map **1:1 onto the portable 4-wide accumulator lanes**:
//! one 256-bit register holds exactly the four `f64` accumulators of the
//! unrolled scalar loop, lane `l` absorbing the elements with index
//! `≡ l (mod 4)`, and the horizontal reduction adds the lanes in the same
//! fixed order `((l0 + l1) + l2) + l3`. The one place SIMD *must* round
//! differently is fused multiply-add: `vfmadd` rounds once where
//! `mul`-then-`add` rounds twice. The contract is therefore **per level**:
//!
//! * within a [`SimdLevel`], every kernel is bitwise reproducible — across
//!   runs, thread counts (`PRIU_THREADS`), and against a scalar reference
//!   built from the same element operations ([`madd`] / [`fnma`] lanes);
//! * across levels, results agree only numerically: the Avx2 level fuses
//!   its multiply-adds (both in the vector bodies and in the scalar tails,
//!   which use [`f64::mul_add`] inside the `target_feature` functions), so
//!   its bits differ from the portable level by the removed intermediate
//!   roundings.
//!
//! The `simd_parity`, `kernels_parity` and `decomp_parity` suites assert
//! the per-level guarantee for both levels on every kernel.
//!
//! # The `mul_add` fallback trap
//!
//! On targets without native FMA, [`f64::mul_add`] compiles to a libm
//! `fma()` call that is orders of magnitude slower than `a * b + c`. The
//! rule enforced here: **production code only executes `f64::mul_add`
//! inside `#[target_feature(enable = "fma")]` functions**, which are only
//! reachable through [`SimdLevel::Avx2`] — and that level is only
//! constructible when runtime detection proved the features (or panics
//! loudly). The portable kernels never call `mul_add`. The dispatched
//! scalar helpers [`madd`] / [`fnma`] may hit libm when forced to the Avx2
//! level outside a `target_feature` context; they exist for *reference
//! implementations* (tests, torture suites) where correctness of the
//! rounding, not speed, is the point.
//!
//! # Dispatch cost
//!
//! The level is resolved once per process from `PRIU_SIMD`
//! (`off` | `avx2`, unset = auto-detect) and cached in a `OnceLock`; a
//! per-call read checks a `const`-initialised thread-local override cell
//! (used by the parity tests and benches via [`with_level`]) and falls
//! back to the cached global. No allocation, no env read, no detection in
//! the warm path — the `zero_alloc` suite pins this down.

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

/// The instruction-set level the microkernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain Rust loops, 4-wide accumulator lanes, mul-then-add rounding.
    Portable,
    /// Explicit AVX2 + FMA intrinsics (x86_64 only, runtime-detected).
    Avx2,
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdLevel::Portable => write!(f, "portable"),
            SimdLevel::Avx2 => write!(f, "avx2"),
        }
    }
}

/// Every level this host can execute, portable first — the canonical
/// iteration set for parity suites and bench grids (a future wider level
/// slots in here once, instead of in every caller).
pub fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Portable];
    if avx2_supported() {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

/// Whether this process can execute the AVX2+FMA kernels.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses a `PRIU_SIMD` value against the detected CPU capability.
/// `None` (unset) and `"auto"` pick the best supported level; `"off"` /
/// `"portable"` force the portable kernels; `"avx2"` demands the SIMD
/// kernels and panics when the CPU cannot run them — silently degrading
/// would change result bits behind the operator's back.
fn parse_priu_simd(value: Option<&str>, supported: bool) -> SimdLevel {
    match value.map(str::trim) {
        None | Some("auto") => {
            if supported {
                SimdLevel::Avx2
            } else {
                SimdLevel::Portable
            }
        }
        Some("off") | Some("portable") => SimdLevel::Portable,
        Some("avx2") => {
            if supported {
                SimdLevel::Avx2
            } else {
                panic!(
                    "PRIU_SIMD=avx2 requires AVX2 and FMA, which this CPU does not support; \
                     unset the variable (auto-detect) or set PRIU_SIMD=off"
                )
            }
        }
        Some(other) => panic!(
            "PRIU_SIMD must be one of off|avx2|auto, got {other:?}; \
             unset the variable to auto-detect"
        ),
    }
}

/// The process-wide level resolved from `PRIU_SIMD` and runtime feature
/// detection, cached on first use.
///
/// # Panics
/// Panics if `PRIU_SIMD` holds an unknown value, or demands `avx2` on a
/// CPU without AVX2+FMA.
pub fn max_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let value = std::env::var("PRIU_SIMD").ok();
        parse_priu_simd(value.as_deref(), avx2_supported())
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The level kernels on the calling thread will use right now: the
/// innermost [`with_level`] override, or [`max_level`].
pub fn current_level() -> SimdLevel {
    OVERRIDE.with(|cell| cell.get()).unwrap_or_else(max_level)
}

/// Runs `f` with the kernel level pinned on the calling thread (nestable;
/// restored afterwards, also on panic). Used by the parity suites and the
/// bench grids to compare levels within one process.
///
/// # Panics
/// Panics when pinning [`SimdLevel::Avx2`] on a CPU without AVX2+FMA —
/// the level must never be reachable without the features.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(
        level != SimdLevel::Avx2 || avx2_supported(),
        "SimdLevel::Avx2 requires AVX2 and FMA, which this CPU does not support"
    );
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|cell| cell.replace(Some(level))));
    f()
}

// ---------------------------------------------------------------------------
// Dispatched scalar element operations (reference-implementation building
// blocks — see the module docs for why these may hit libm on the Avx2
// level and must not sit in production hot loops).
// ---------------------------------------------------------------------------

/// `acc + a * b` with the current level's rounding: two roundings on the
/// portable level, fused on the Avx2 level.
#[inline]
pub fn madd(acc: f64, a: f64, b: f64) -> f64 {
    match current_level() {
        SimdLevel::Portable => acc + a * b,
        SimdLevel::Avx2 => a.mul_add(b, acc),
    }
}

/// `acc - a * b` with the current level's rounding (the subtractive twin
/// of [`madd`], the element op of the Cholesky chains).
#[inline]
pub fn fnma(acc: f64, a: f64, b: f64) -> f64 {
    match current_level() {
        SimdLevel::Portable => acc - a * b,
        SimdLevel::Avx2 => (-a).mul_add(b, acc),
    }
}

// ---------------------------------------------------------------------------
// Slice microkernels. Each dispatches once per call.
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices over the canonical 4-wide lane
/// structure: lane `l` accumulates elements `≡ l (mod 4)`, lanes combine
/// as `((l0 + l1) + l2) + l3`, the tail accumulates sequentially onto the
/// combined sum.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "simd::dot requires equal lengths");
    match current_level() {
        SimdLevel::Portable => dot_portable(a, b),
        SimdLevel::Avx2 => {
            // SAFETY: the Avx2 level is only constructible after runtime
            // detection proved AVX2+FMA support.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::dot(a, b)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

fn dot_portable(a: &[f64], b: &[f64]) -> f64 {
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = ((acc0 + acc1) + acc2) + acc3;
    for j in chunks * 4..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// Four simultaneous dot products of rows `r0..r3` against a shared `x`,
/// each over the exact lane structure of [`dot`]. The rows and `x` share
/// one length; sharing the loads of `x` across the four rows is what makes
/// this the matvec workhorse.
pub fn dot4(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], x: &[f64]) -> [f64; 4] {
    let len = x.len();
    assert!(
        r0.len() == len && r1.len() == len && r2.len() == len && r3.len() == len,
        "simd::dot4 requires four rows of x's length"
    );
    match current_level() {
        SimdLevel::Portable => dot4_portable(r0, r1, r2, r3, x),
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::dot4(r0, r1, r2, r3, x)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

fn dot4_portable(r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], x: &[f64]) -> [f64; 4] {
    let len = x.len();
    let mut acc = [[0.0_f64; 4]; 4]; // acc[row][lane]
    let chunks = len / 4;
    for c in 0..chunks {
        let j = c * 4;
        for lane in 0..4 {
            let xj = x[j + lane];
            acc[0][lane] += r0[j + lane] * xj;
            acc[1][lane] += r1[j + lane] * xj;
            acc[2][lane] += r2[j + lane] * xj;
            acc[3][lane] += r3[j + lane] * xj;
        }
    }
    let mut out = [
        ((acc[0][0] + acc[0][1]) + acc[0][2]) + acc[0][3],
        ((acc[1][0] + acc[1][1]) + acc[1][2]) + acc[1][3],
        ((acc[2][0] + acc[2][1]) + acc[2][2]) + acc[2][3],
        ((acc[3][0] + acc[3][1]) + acc[3][2]) + acc[3][3],
    ];
    for j in chunks * 4..len {
        out[0] += r0[j] * x[j];
        out[1] += r1[j] * x[j];
        out[2] += r2[j] * x[j];
        out[3] += r3[j] * x[j];
    }
    out
}

/// `out[j] += alpha * src[j]` over equal-length slices. Element-wise (no
/// cross-element reduction), so vector width never affects bits; the Avx2
/// level fuses each element's multiply-add.
pub fn axpy(out: &mut [f64], alpha: f64, src: &[f64]) {
    assert_eq!(out.len(), src.len(), "simd::axpy requires equal lengths");
    match current_level() {
        SimdLevel::Portable => {
            for (o, s) in out.iter_mut().zip(src) {
                *o += alpha * s;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::axpy(out, alpha, src)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Rows of `a` per register tile of [`gemm_acc`] on the Avx2 level
/// (each row's 8-column tile lives in two 4-lane registers).
#[cfg(target_arch = "x86_64")]
const GEMM_MR: usize = 6;

/// Matrix product `out += a · b` over row-major storage: `a` is
/// `rows × inner`, `b` is `inner × cols`, `out` is `rows × cols`.
///
/// Every output element sees exactly the chain of the i-k-j kernel that
/// calls [`axpy`] once per nonzero `a[i][k]`: `acc ← acc + a[i][k]·b[k][j]`
/// for `k` ascending, the same per-level multiply-add, and no term at all
/// where `a[i][k] == 0` (so `±inf`/`NaN` in `b` behind a zero of `a`, and
/// the sign of a zero accumulator, survive as they did). The Avx2 level
/// keeps `6 × 8` output tiles in registers across the whole `k` loop;
/// that changes which elements share registers, never an element's
/// operation sequence, so the bits equal the i-k-j kernel's on every
/// level.
///
/// # Panics
/// Panics if a slice length disagrees with the shape.
pub fn gemm_acc(rows: usize, inner: usize, cols: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(
        a.len(),
        rows * inner,
        "simd::gemm_acc: a is not rows × inner"
    );
    assert_eq!(
        b.len(),
        inner * cols,
        "simd::gemm_acc: b is not inner × cols"
    );
    assert_eq!(
        out.len(),
        rows * cols,
        "simd::gemm_acc: out is not rows × cols"
    );
    match current_level() {
        SimdLevel::Portable => gemm_acc_portable(rows, inner, cols, a, b, out),
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`; the lengths were checked above.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::gemm_acc(rows, inner, cols, a, b, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// The portable level keeps the plain i-k-j loop: the compiler vectorises
/// its contiguous `axpy` rows better than a register-blocked tile built
/// from arrays.
fn gemm_acc_portable(
    rows: usize,
    inner: usize,
    cols: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    for i in 0..rows {
        let out_row = &mut out[i * cols..(i + 1) * cols];
        for (k, &aik) in a[i * inner..(i + 1) * inner].iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for (o, s) in out_row.iter_mut().zip(&b[k * cols..(k + 1) * cols]) {
                *o += aik * s;
            }
        }
    }
}

/// Fused GD step `out[j] = alpha * out[j] + beta * src[j]`. Element-wise;
/// on *both* levels each element performs exactly the operations of
/// `scale_mut(alpha)` followed by `axpy(beta, src)` — the scale's rounding
/// then the (level-dependent) multiply-add — so fusing the two passes
/// never changes bits relative to the unfused pair.
pub fn scale_add(out: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
    assert_eq!(
        out.len(),
        src.len(),
        "simd::scale_add requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (o, s) in out.iter_mut().zip(src) {
                *o = (*o * alpha) + beta * s;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::scale_add(out, alpha, beta, src)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Rank-1 reflector update `out[j] -= scales[j] * v` (the tridiagonal
/// `Q` back-accumulation's second pass).
/// Element-wise; the Avx2 level fuses each element's multiply-subtract.
pub fn fnma_scaled(out: &mut [f64], scales: &[f64], v: f64) {
    assert_eq!(
        out.len(),
        scales.len(),
        "simd::fnma_scaled requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (o, s) in out.iter_mut().zip(scales) {
                *o -= s * v;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::fnma_scaled(out, scales, v)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Two chained [`fnma_scaled`] passes fused into one sweep:
/// `out[j] = fnma(fnma(out[j], a[j], x), b[j], y)` — per element exactly
/// the operations (and roundings) of `fnma_scaled(out, a, x)` followed by
/// `fnma_scaled(out, b, y)`, so fusing only saves memory traffic. The
/// symmetric rank-2 update of the tridiagonalisation.
///
/// # Panics
/// Panics if the lengths differ.
pub fn fnma2_scaled(out: &mut [f64], a: &[f64], x: f64, b: &[f64], y: f64) {
    assert!(
        out.len() == a.len() && out.len() == b.len(),
        "simd::fnma2_scaled requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for ((o, &aj), &bj) in out.iter_mut().zip(a).zip(b) {
                let t = *o - aj * x;
                *o = t - bj * y;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::fnma2_scaled(out, a, x, b, y)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Plane rotation of two equal-length rows:
/// `(x, y) ← (c·x − s·y, s·x + c·y)`.
///
/// Deliberately **FMA-free on every level**: each output element performs
/// the same three roundings (two multiplies, one add/sub) whether
/// vectorised or not, so rotation results are bitwise identical *across
/// levels* — the QL plain-loop reference stays valid without
/// dispatching.
pub fn rotate_two(row_p: &mut [f64], row_r: &mut [f64], c: f64, s: f64) {
    assert_eq!(
        row_p.len(),
        row_r.len(),
        "simd::rotate_two requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (xp, xr) in row_p.iter_mut().zip(row_r.iter_mut()) {
                let a = *xp;
                let b = *xr;
                *xp = c * a - s * b;
                *xr = s * a + c * b;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::rotate_two(row_p, row_r, c, s)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Sparse gather dot `Σ_k vals[k] * x[cols[k]]` over the canonical 4-wide
/// lane structure of [`dot`] (lane `l` accumulates positions `≡ l (mod 4)`,
/// lanes combine `((l0 + l1) + l2) + l3`, sequential tail). The Avx2 level
/// gathers the four `x` values with `vgatherqpd` and fuses the
/// multiply-adds.
///
/// # Panics
/// Panics on mismatched `cols`/`vals` lengths and on any out-of-range
/// column index, on both levels (the AVX2 path checks each index block
/// with a vector compare before gathering, so the bound can never be
/// crossed even transiently).
pub fn sparse_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    assert_eq!(
        cols.len(),
        vals.len(),
        "simd::sparse_dot requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => sparse_dot_portable(cols, vals, x),
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`; column indices are validated by the CSR
            // constructor, so the gather stays in bounds.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::sparse_dot(cols, vals, x)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

fn sparse_dot_portable(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = cols.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += vals[j] * x[cols[j]];
        acc1 += vals[j + 1] * x[cols[j + 1]];
        acc2 += vals[j + 2] * x[cols[j + 2]];
        acc3 += vals[j + 3] * x[cols[j + 3]];
    }
    let mut acc = ((acc0 + acc1) + acc2) + acc3;
    for j in chunks * 4..cols.len() {
        acc += vals[j] * x[cols[j]];
    }
    acc
}

/// Sparse scatter `acc[cols[k]] += alpha * vals[k]`. AVX2 has no scatter
/// instruction, so both levels run the same scalar loop; the Avx2 level
/// fuses each element's multiply-add (elements are independent — the CSR
/// invariant guarantees distinct columns within a row — so per-element
/// fusing keeps the level-internal bitwise guarantee).
pub fn sparse_scatter(cols: &[usize], vals: &[f64], alpha: f64, acc: &mut [f64]) {
    assert_eq!(
        cols.len(),
        vals.len(),
        "simd::sparse_scatter requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                acc[c] += alpha * v;
            }
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::sparse_scatter(cols, vals, alpha, acc)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// Sequential fused-negative-multiply-add chain
/// `init - a[0]·b[0] - a[1]·b[1] - …`, one term at a time in ascending
/// order — the Cholesky element chain. A single serial dependency, so
/// there is nothing to vectorise; the Avx2 level fuses each step inside a
/// `target_feature` function (native `vfnmadd`, never libm).
pub fn fnma_dot_seq(init: f64, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "simd::fnma_dot_seq requires equal lengths"
    );
    match current_level() {
        SimdLevel::Portable => {
            let mut acc = init;
            for (x, y) in a.iter().zip(b) {
                acc -= x * y;
            }
            acc
        }
        SimdLevel::Avx2 => {
            // SAFETY: see `dot`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::fnma_dot_seq(init, a, b)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("SimdLevel::Avx2 is unreachable off x86_64")
        }
    }
}

/// The AVX2+FMA implementations. Every function is
/// `#[target_feature(enable = "avx2,fma")]` and therefore `unsafe` to
/// call: the caller must have proven feature support (the dispatchers
/// above only reach here through [`SimdLevel::Avx2`]). Scalar tails use
/// `f64::mul_add`, which lowers to a native `vfmadd` instruction inside
/// these functions.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_castsi256_pd,
        _mm256_cmpgt_epi64, _mm256_extractf128_pd, _mm256_fmadd_pd, _mm256_fnmadd_pd,
        _mm256_i64gather_pd, _mm256_loadu_pd, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_sub_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// Adds the four lanes of `v` in the canonical order
    /// `((l0 + l1) + l2) + l3` (matching the portable lane combine).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum_ordered(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v); // l0, l1
        let hi = _mm256_extractf128_pd(v, 1); // l2, l3
        let l1 = _mm_unpackhi_pd(lo, lo);
        let s = _mm_add_sd(lo, l1); // l0 + l1
        let s = _mm_add_sd(s, hi); // + l2
        let l3 = _mm_unpackhi_pd(hi, hi);
        let s = _mm_add_sd(s, l3); // + l3
        _mm_cvtsd_f64(s)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let len = a.len();
        let chunks = len / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = i * 4;
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            acc = _mm256_fmadd_pd(av, bv, acc);
        }
        let mut sum = hsum_ordered(acc);
        for j in chunks * 4..len {
            sum = a[j].mul_add(b[j], sum);
        }
        sum
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot4(
        r0: &[f64],
        r1: &[f64],
        r2: &[f64],
        r3: &[f64],
        x: &[f64],
    ) -> [f64; 4] {
        let len = x.len();
        let chunks = len / 4;
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for c in 0..chunks {
            let j = c * 4;
            let xv = _mm256_loadu_pd(x.as_ptr().add(j));
            a0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0.as_ptr().add(j)), xv, a0);
            a1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1.as_ptr().add(j)), xv, a1);
            a2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2.as_ptr().add(j)), xv, a2);
            a3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3.as_ptr().add(j)), xv, a3);
        }
        let mut out = [
            hsum_ordered(a0),
            hsum_ordered(a1),
            hsum_ordered(a2),
            hsum_ordered(a3),
        ];
        for j in chunks * 4..len {
            out[0] = r0[j].mul_add(x[j], out[0]);
            out[1] = r1[j].mul_add(x[j], out[1]);
            out[2] = r2[j].mul_add(x[j], out[2]);
            out[3] = r3[j].mul_add(x[j], out[3]);
        }
        out
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy(out: &mut [f64], alpha: f64, src: &[f64]) {
        let len = out.len();
        let chunks = len / 4;
        let av = _mm256_set1_pd(alpha);
        for i in 0..chunks {
            let j = i * 4;
            let o = _mm256_loadu_pd(out.as_ptr().add(j));
            let s = _mm256_loadu_pd(src.as_ptr().add(j));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_fmadd_pd(av, s, o));
        }
        for j in chunks * 4..len {
            out[j] = alpha.mul_add(src[j], out[j]);
        }
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA, and `a`, `b` and `out` hold
    /// `rows × inner`, `inner × cols` and `rows × cols` values.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_acc(
        rows: usize,
        inner: usize,
        cols: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        const MR: usize = super::GEMM_MR;
        let mut i = 0;
        while i + MR <= rows {
            let (a_block, out_block) = (
                &a[i * inner..(i + MR) * inner],
                &mut out[i * cols..(i + MR) * cols],
            );
            gemm_rows::<MR>(a_block, inner, cols, b, out_block);
            i += MR;
        }
        while i < rows {
            let (a_block, out_block) = (
                &a[i * inner..(i + 1) * inner],
                &mut out[i * cols..(i + 1) * cols],
            );
            gemm_rows::<1>(a_block, inner, cols, b, out_block);
            i += 1;
        }
    }

    /// Rows `a_block` (`MR × inner`) of `gemm_acc` into `out_block`
    /// (`MR × cols`): 8-column tiles, one 4-column tile, then single
    /// columns through `mul_add`. A block without zeros takes the tile
    /// instantiations that compile the zero test out.
    ///
    /// # Safety
    /// As `gemm_acc`, for `MR` rows.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_rows<const MR: usize>(
        a_block: &[f64],
        inner: usize,
        cols: usize,
        b: &[f64],
        out_block: &mut [f64],
    ) {
        let dense = !a_block.contains(&0.0);
        let mut j = 0;
        while j + 8 <= cols {
            if dense {
                gemm_tile::<MR, 2, true>(a_block, inner, cols, b, out_block, j);
            } else {
                gemm_tile::<MR, 2, false>(a_block, inner, cols, b, out_block, j);
            }
            j += 8;
        }
        if j + 4 <= cols {
            if dense {
                gemm_tile::<MR, 1, true>(a_block, inner, cols, b, out_block, j);
            } else {
                gemm_tile::<MR, 1, false>(a_block, inner, cols, b, out_block, j);
            }
            j += 4;
        }
        for j in j..cols {
            for r in 0..MR {
                let mut acc = out_block[r * cols + j];
                for k in 0..inner {
                    let x = a_block[r * inner + k];
                    if x != 0.0 {
                        acc = x.mul_add(b[k * cols + j], acc);
                    }
                }
                out_block[r * cols + j] = acc;
            }
        }
    }

    /// One `MR × 4W` tile at column `j`, held in `MR·W` registers across
    /// the whole `k` loop. `DENSE` promises `a_block` holds no zero.
    ///
    /// # Safety
    /// As `gemm_rows`, and `j + 4·W ≤ cols`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_tile<const MR: usize, const W: usize, const DENSE: bool>(
        a_block: &[f64],
        inner: usize,
        cols: usize,
        b: &[f64],
        out_block: &mut [f64],
        j: usize,
    ) {
        let (ap, bp, op) = (a_block.as_ptr(), b.as_ptr(), out_block.as_mut_ptr());
        let mut acc = [[_mm256_setzero_pd(); W]; MR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            for (w, slot) in acc_row.iter_mut().enumerate() {
                *slot = _mm256_loadu_pd(op.add(r * cols + j + 4 * w));
            }
        }
        for k in 0..inner {
            let mut bk = [_mm256_setzero_pd(); W];
            for (w, slot) in bk.iter_mut().enumerate() {
                *slot = _mm256_loadu_pd(bp.add(k * cols + j + 4 * w));
            }
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let x = *ap.add(r * inner + k);
                if DENSE || x != 0.0 {
                    let xv = _mm256_set1_pd(x);
                    for (slot, &bw) in acc_row.iter_mut().zip(&bk) {
                        *slot = _mm256_fmadd_pd(xv, bw, *slot);
                    }
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            for (w, &slot) in acc_row.iter().enumerate() {
                _mm256_storeu_pd(op.add(r * cols + j + 4 * w), slot);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_add(out: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
        let len = out.len();
        let chunks = len / 4;
        let av = _mm256_set1_pd(alpha);
        let bv = _mm256_set1_pd(beta);
        for i in 0..chunks {
            let j = i * 4;
            let o = _mm256_loadu_pd(out.as_ptr().add(j));
            let s = _mm256_loadu_pd(src.as_ptr().add(j));
            // (out * alpha) rounds, then the multiply-add fuses — the exact
            // per-element sequence of scale_mut followed by fused axpy.
            let scaled = _mm256_mul_pd(o, av);
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_fmadd_pd(bv, s, scaled));
        }
        for j in chunks * 4..len {
            out[j] = beta.mul_add(src[j], out[j] * alpha);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fnma_scaled(out: &mut [f64], scales: &[f64], v: f64) {
        let len = out.len();
        let chunks = len / 4;
        let vv = _mm256_set1_pd(v);
        for i in 0..chunks {
            let j = i * 4;
            let o = _mm256_loadu_pd(out.as_ptr().add(j));
            let s = _mm256_loadu_pd(scales.as_ptr().add(j));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_fnmadd_pd(s, vv, o));
        }
        for j in chunks * 4..len {
            out[j] = (-scales[j]).mul_add(v, out[j]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fnma2_scaled(out: &mut [f64], a: &[f64], x: f64, b: &[f64], y: f64) {
        let len = out.len();
        let chunks = len / 4;
        let xv = _mm256_set1_pd(x);
        let yv = _mm256_set1_pd(y);
        for i in 0..chunks {
            let j = i * 4;
            let o = _mm256_loadu_pd(out.as_ptr().add(j));
            let t = _mm256_fnmadd_pd(_mm256_loadu_pd(a.as_ptr().add(j)), xv, o);
            let t = _mm256_fnmadd_pd(_mm256_loadu_pd(b.as_ptr().add(j)), yv, t);
            _mm256_storeu_pd(out.as_mut_ptr().add(j), t);
        }
        for j in chunks * 4..len {
            let t = (-a[j]).mul_add(x, out[j]);
            out[j] = (-b[j]).mul_add(y, t);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn rotate_two(row_p: &mut [f64], row_r: &mut [f64], c: f64, s: f64) {
        let len = row_p.len();
        let chunks = len / 4;
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set1_pd(s);
        for i in 0..chunks {
            let j = i * 4;
            let a = _mm256_loadu_pd(row_p.as_ptr().add(j));
            let b = _mm256_loadu_pd(row_r.as_ptr().add(j));
            // FMA-free on purpose: c·a, s·b, c·b, s·a each round once and
            // the add/sub rounds once — the same three roundings as the
            // scalar loop, keeping rotation bits level-invariant.
            let new_p = _mm256_sub_pd(_mm256_mul_pd(cv, a), _mm256_mul_pd(sv, b));
            let new_r = _mm256_add_pd(_mm256_mul_pd(sv, a), _mm256_mul_pd(cv, b));
            _mm256_storeu_pd(row_p.as_mut_ptr().add(j), new_p);
            _mm256_storeu_pd(row_r.as_mut_ptr().add(j), new_r);
        }
        for j in chunks * 4..len {
            let a = row_p[j];
            let b = row_r[j];
            row_p[j] = c * a - s * b;
            row_r[j] = s * a + c * b;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sparse_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
        let len = cols.len();
        let chunks = len / 4;
        let mut acc = _mm256_setzero_pd();
        // usize is 64-bit on x86_64 and column indices are < 2^63, so the
        // signed 64-bit compare below is exact.
        let limit = _mm256_set1_epi64x(x.len() as i64);
        for i in 0..chunks {
            let j = i * 4;
            let idx = _mm256_loadu_si256(cols.as_ptr().add(j) as *const __m256i);
            // Bounds-check the whole block before gathering: every lane
            // must satisfy idx < x.len(), or the gather would read out of
            // bounds. One compare + movemask per 4 elements — noise next
            // to the gather itself.
            let in_bounds = _mm256_cmpgt_epi64(limit, idx);
            if _mm256_movemask_pd(_mm256_castsi256_pd(in_bounds)) != 0b1111 {
                out_of_bounds(cols, x.len());
            }
            let xv = _mm256_i64gather_pd::<8>(x.as_ptr(), idx);
            let vv = _mm256_loadu_pd(vals.as_ptr().add(j));
            acc = _mm256_fmadd_pd(vv, xv, acc);
        }
        let mut sum = hsum_ordered(acc);
        for j in chunks * 4..len {
            sum = vals[j].mul_add(x[cols[j]], sum);
        }
        sum
    }

    /// Cold panic path of the gather bounds check.
    #[cold]
    #[inline(never)]
    fn out_of_bounds(cols: &[usize], len: usize) -> ! {
        let bad = cols.iter().find(|&&c| c >= len).copied().unwrap_or(len);
        panic!("simd::sparse_dot column index {bad} out of bounds for x of length {len}");
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sparse_scatter(cols: &[usize], vals: &[f64], alpha: f64, acc: &mut [f64]) {
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            acc[c] = alpha.mul_add(v, acc[c]);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fnma_dot_seq(init: f64, a: &[f64], b: &[f64]) -> f64 {
        let mut acc = init;
        for (x, y) in a.iter().zip(b) {
            acc = (-x).mul_add(*y, acc);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_rejects_garbage_and_honours_detection() {
        // Auto / unset picks the best supported level.
        assert_eq!(parse_priu_simd(None, true), SimdLevel::Avx2);
        assert_eq!(parse_priu_simd(None, false), SimdLevel::Portable);
        assert_eq!(parse_priu_simd(Some("auto"), true), SimdLevel::Avx2);
        // Off always wins.
        assert_eq!(parse_priu_simd(Some("off"), true), SimdLevel::Portable);
        assert_eq!(
            parse_priu_simd(Some(" portable "), true),
            SimdLevel::Portable
        );
        // Forced avx2 passes through only with the features present.
        assert_eq!(parse_priu_simd(Some("avx2"), true), SimdLevel::Avx2);
        for (value, supported) in [("avx2", false), ("gibberish", true), ("", true)] {
            let result = std::panic::catch_unwind(|| parse_priu_simd(Some(value), supported));
            let payload = result.expect_err(&format!("PRIU_SIMD={value:?} must be rejected"));
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                message.contains("PRIU_SIMD"),
                "panic message must name the variable, got {message:?}"
            );
        }
    }

    #[test]
    fn with_level_nests_and_restores() {
        let outer = current_level();
        with_level(SimdLevel::Portable, || {
            assert_eq!(current_level(), SimdLevel::Portable);
            if avx2_supported() {
                with_level(SimdLevel::Avx2, || {
                    assert_eq!(current_level(), SimdLevel::Avx2);
                });
            }
            assert_eq!(current_level(), SimdLevel::Portable);
        });
        assert_eq!(current_level(), outer);
    }

    fn levels() -> Vec<SimdLevel> {
        available_levels()
    }

    #[test]
    fn dot_matches_naive_on_every_level() {
        let a: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64 * 0.11).cos()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        for level in levels() {
            let got = with_level(level, || dot(&a, &b));
            assert!((got - naive).abs() < 1e-12, "{level}: {got} vs {naive}");
        }
    }

    #[test]
    fn elementwise_kernels_match_naive_on_every_level() {
        let src: Vec<f64> = (0..13).map(|i| (i as f64 * 0.7).sin()).collect();
        let scales: Vec<f64> = (0..13).map(|i| (i as f64 * 0.3).cos()).collect();
        for level in levels() {
            with_level(level, || {
                let mut out: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
                axpy(&mut out, 1.5, &src);
                for (j, &o) in out.iter().enumerate() {
                    assert!((o - (j as f64 * 0.5 + 1.5 * src[j])).abs() < 1e-12);
                }
                let mut fused: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
                let mut pair = fused.clone();
                scale_add(&mut fused, 0.9, -0.4, &src);
                for p in pair.iter_mut() {
                    *p *= 0.9;
                }
                axpy(&mut pair, -0.4, &src);
                // The fusion guarantee is bitwise per level.
                assert_eq!(fused, pair, "{level}");

                let mut rank1 = scales.clone();
                fnma_scaled(&mut rank1, &src, 2.0);
                for (j, &o) in rank1.iter().enumerate() {
                    assert!((o - (scales[j] - src[j] * 2.0)).abs() < 1e-12);
                }
            });
        }
    }

    #[test]
    fn rotation_bits_are_level_invariant() {
        let p: Vec<f64> = (0..11).map(|i| (i as f64 * 0.9).sin()).collect();
        let r: Vec<f64> = (0..11).map(|i| (i as f64 * 0.4).cos()).collect();
        let (c, s) = (0.8, 0.6);
        let run = |level| {
            with_level(level, || {
                let (mut rp, mut rr) = (p.clone(), r.clone());
                rotate_two(&mut rp, &mut rr, c, s);
                (rp, rr)
            })
        };
        let portable = run(SimdLevel::Portable);
        if avx2_supported() {
            assert_eq!(portable, run(SimdLevel::Avx2));
        }
        for j in 0..11 {
            assert_eq!(portable.0[j], c * p[j] - s * r[j]);
            assert_eq!(portable.1[j], s * p[j] + c * r[j]);
        }
    }

    #[test]
    fn sparse_kernels_match_naive_on_every_level() {
        let cols = [0usize, 3, 4, 7, 9, 2, 5];
        let vals = [1.0, -2.0, 0.5, 3.0, -0.25, 1.5, 0.75];
        let x: Vec<f64> = (0..10).map(|i| (i as f64 * 0.2).sin() + 1.0).collect();
        let naive: f64 = cols.iter().zip(&vals).map(|(&c, &v)| v * x[c]).sum();
        for level in levels() {
            with_level(level, || {
                let got = sparse_dot(&cols, &vals, &x);
                assert!((got - naive).abs() < 1e-12, "{level}");
                let mut acc = vec![0.0; 10];
                sparse_scatter(&cols, &vals, 2.0, &mut acc);
                for (k, &c) in cols.iter().enumerate() {
                    assert!((acc[c] - 2.0 * vals[k]).abs() < 1e-12, "{level}");
                }
            });
        }
    }

    #[test]
    fn fnma_dot_seq_matches_textbook_chain() {
        let a: Vec<f64> = (0..9).map(|i| (i as f64 * 0.5).sin()).collect();
        let b: Vec<f64> = (0..9).map(|i| (i as f64 * 0.25).cos()).collect();
        for level in levels() {
            with_level(level, || {
                let got = fnma_dot_seq(10.0, &a, &b);
                let mut want = 10.0;
                for (x, y) in a.iter().zip(&b) {
                    want = fnma(want, *x, *y);
                }
                // The dispatched scalar helper realises the same chain.
                assert_eq!(got, want, "{level}");
            });
        }
    }

    #[test]
    fn mismatched_lengths_panic_on_every_level() {
        // The bound checks are load-bearing: the AVX2 paths write through
        // raw pointers sized by one slice, so a silent truncation would be
        // out-of-bounds. Each kernel must panic instead, in release too.
        for level in levels() {
            with_level(level, || {
                let short = [1.0; 3];
                let long = [2.0; 8];
                assert!(std::panic::catch_unwind(|| dot(&short, &long)).is_err());
                assert!(
                    std::panic::catch_unwind(|| dot4(&long, &long, &long, &short, &long)).is_err()
                );
                let mut out = [0.0; 8];
                assert!(
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| axpy(
                        &mut out, 1.0, &short
                    )))
                    .is_err()
                );
                assert!(
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rotate_two(
                        &mut out,
                        &mut [0.0; 3],
                        0.8,
                        0.6
                    )))
                    .is_err()
                );
                // Out-of-range gather indices panic before any memory access.
                let cols = [0usize, 9];
                let vals = [1.0, 1.0];
                let x = [1.0; 4];
                assert!(std::panic::catch_unwind(|| sparse_dot(&cols, &vals, &x)).is_err());
                // A full 4-lane block with one bad lane (exercises the
                // vector compare on the Avx2 level, not just the tail).
                let cols4 = [0usize, 1, 2, 9];
                let vals4 = [1.0; 4];
                assert!(std::panic::catch_unwind(|| sparse_dot(&cols4, &vals4, &x)).is_err());
            });
        }
    }

    #[test]
    fn scalar_helpers_round_per_level() {
        // Pick operands where fused and two-step rounding demonstrably
        // differ: with a*b + c where a*b needs more than 53 bits.
        let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        let two_step = a * b + c;
        let fused = a.mul_add(b, c);
        assert_ne!(two_step, fused, "operands must expose the rounding gap");
        assert_eq!(with_level(SimdLevel::Portable, || madd(c, a, b)), two_step);
        if avx2_supported() {
            assert_eq!(with_level(SimdLevel::Avx2, || madd(c, a, b)), fused);
        }
    }
}
