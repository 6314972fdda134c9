//! Caller-owned scratch buffers for the allocation-free hot paths.
//!
//! The fit's GD walk and the PrIU / PrIU-opt replay loops run the same
//! handful of kernels thousands of times per call. [`Workspace`] owns every
//! intermediate those loops need — the materialised batch indices, the
//! selected batch rows, batch-sized coefficient buffers and feature-sized
//! accumulators — so that after the first iteration warms the buffers, **no
//! further heap allocation happens per iteration**: all linear-algebra work
//! flows through the `_into` kernel variants of `priu_linalg`.
//!
//! Scope of the guarantee: it holds whenever the kernels execute on the
//! calling thread — i.e. always under `PRIU_THREADS=1` (multi-chunk
//! reductions borrow pooled thread-local scratch, amortised to zero), and
//! for any thread count when inputs stay on the single-chunk path (below
//! 512 rows, which covers both replay-loop operand shapes: batch-row blocks
//! and `m×m` cache applications with modest `m`). With `PRIU_THREADS > 1`
//! *and* larger operands, `priu_linalg::par` hands the kernel to its
//! persistent worker pool — the pool's threads are spawned once (lazily, on
//! the first such call) and each worker's scratch warms once; steady-state
//! parallel calls allocate nothing.
//!
//! The struct counts *growth events* (a buffer needing more capacity than it
//! had). A warmed workspace reports a stable [`Workspace::grow_events`]
//! across iterations, which the zero-allocation tests assert; the counting
//! global-allocator test in `tests/zero_alloc.rs` verifies the stronger
//! end-to-end property that update-call allocation totals are independent of
//! the iteration count.
//!
//! What is *not* covered: provenance capture storage. The fit appends a
//! freshly-built Gram cache and coefficient list per iteration — that data
//! outlives the loop by design and is exempt from the zero-allocation
//! guarantee (see DESIGN.md §3.3).

use priu_linalg::decomposition::EigenScratch;
use priu_linalg::Matrix;

/// Reusable scratch for the training and update hot loops.
///
/// Buffers are grouped by extent: index buffers, the batch-rows matrix,
/// batch-sized (`B`) float buffers and feature-sized (`m`) float buffers.
/// Callers inside `priu-core` access the fields directly (split borrows);
/// external callers only construct, pre-size and inspect.
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    /// Materialised batch indices of the current iteration.
    pub(crate) batch: Vec<usize>,
    /// Working storage for batch derivation (`BatchSchedule::batch_into`).
    pub(crate) idx_scratch: Vec<usize>,
    /// Positions (within the batch) of removed samples.
    pub(crate) positions: Vec<usize>,
    /// Surviving batch-member sample indices, compacted (sparse replay).
    pub(crate) sel: Vec<usize>,
    /// Per-batch-member class labels (multinomial training).
    pub(crate) classes: Vec<usize>,
    /// Selected batch rows (`B x m`).
    pub(crate) rows: Matrix,
    /// Per-class logits over the batch (`q x B`, multinomial training).
    pub(crate) logits: Matrix,
    /// Batch-sized float buffers.
    pub(crate) b0: Vec<f64>,
    pub(crate) b1: Vec<f64>,
    pub(crate) b2: Vec<f64>,
    pub(crate) b3: Vec<f64>,
    /// Feature-sized float buffers.
    pub(crate) m0: Vec<f64>,
    pub(crate) m1: Vec<f64>,
    pub(crate) m2: Vec<f64>,
    /// Gram-cache apply scratch (rank- and removal-sized).
    pub(crate) g0: Vec<f64>,
    pub(crate) g1: Vec<f64>,
    /// Feature-square (`m x m`) matrix buffers for the offline
    /// decomposition paths (PrIU-opt capture Grams, closed-form views and
    /// their Cholesky factors).
    pub(crate) mm0: Matrix,
    pub(crate) mm1: Matrix,
    /// Symmetric eigendecomposition scratch for the PrIU-opt offline
    /// captures.
    pub(crate) eig: EigenScratch,
    grow_events: usize,
}

fn ensure_zeroed(buf: &mut Vec<f64>, len: usize, grew: &mut usize) {
    if buf.capacity() < len {
        *grew += 1;
    }
    buf.clear();
    buf.resize(len, 0.0);
}

/// Grow-only sizing without re-zeroing existing elements — for loops that
/// fully overwrite every element they later read, where a per-iteration
/// memset would be pure overhead.
fn ensure_len(buf: &mut Vec<f64>, len: usize, grew: &mut usize) {
    if buf.capacity() < len {
        *grew += 1;
    }
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for a dense problem with `num_features`
    /// columns, batches of up to `batch_size` rows and `num_classes` weight
    /// vectors, with the growth counter reset — so the first hot-loop
    /// iteration is already allocation-free. Engines call this before
    /// starting the update timer.
    pub fn sized_for(num_features: usize, batch_size: usize, num_classes: usize) -> Self {
        let mut ws = Self::new();
        ws.batch.reserve(batch_size);
        // Batch derivation's dense-draw branch (taken when `4·B >= n`)
        // scratches over all `n <= 4·B` indices; the sparse Floyd branch
        // needs only `B`. Reserving `4·B` covers both.
        ws.idx_scratch.reserve(batch_size.saturating_mul(4).max(64));
        ws.positions.reserve(batch_size);
        ws.sel.reserve(batch_size);
        ws.classes.reserve(batch_size);
        ws.rows.reshape_zeroed(batch_size, num_features);
        ws.logits.reshape_zeroed(num_classes.max(1), batch_size);
        for buf in [&mut ws.b0, &mut ws.b1, &mut ws.b2, &mut ws.b3] {
            buf.reserve(batch_size);
        }
        for buf in [&mut ws.m0, &mut ws.m1, &mut ws.m2, &mut ws.g0, &mut ws.g1] {
            buf.reserve(num_features);
        }
        ws.grow_events = 0;
        ws
    }

    /// Number of times a buffer needed more capacity than it had. Stable
    /// across iterations once the workspace is warm — the cheap runtime
    /// signal behind the zero-allocation guarantee.
    pub fn grow_events(&self) -> usize {
        self.grow_events
    }

    /// Resets the growth counter (typically right after warm-up).
    pub fn reset_grow_events(&mut self) {
        self.grow_events = 0;
    }

    /// Extends the Gram-apply scratch reservation to cover `rows` deflation
    /// rows (chained sessions can carry corrections larger than a batch;
    /// engines call this with the provenance's maximum before the timer
    /// starts).
    pub fn reserve_gram_scratch(&mut self, rows: usize) {
        if self.g1.capacity() < rows {
            self.g1.reserve(rows.saturating_sub(self.g1.len()));
        }
    }

    /// Pre-sizes the offline decomposition buffers for `num_features ×
    /// num_features` problems — the `m × m` matrix pair (Gram / Cholesky
    /// factor) and the symmetric eigendecomposition scratch. Engines call this
    /// before the offline timer (PrIU-opt capture) and before a timed
    /// closed-form update, so neither allocates buffers inside the timed
    /// region.
    pub fn reserve_decompositions(&mut self, num_features: usize) {
        self.mm0.reshape_zeroed(num_features, num_features);
        self.mm1.reshape_zeroed(num_features, num_features);
        self.eig.reserve(num_features);
    }

    /// Sizes and zeroes the feature-extent accumulators (`m0`-`m2`).
    pub(crate) fn prepare_features(&mut self, num_features: usize) {
        for buf in [&mut self.m0, &mut self.m1, &mut self.m2] {
            ensure_zeroed(buf, num_features, &mut self.grow_events);
        }
    }

    /// Sizes and zeroes the batch-extent buffers (`b0`-`b3`).
    pub(crate) fn prepare_batch(&mut self, batch_len: usize) {
        for buf in [&mut self.b0, &mut self.b1, &mut self.b2, &mut self.b3] {
            ensure_zeroed(buf, batch_len, &mut self.grow_events);
        }
    }

    /// Sizes the batch-extent buffers the sparse replay loops use
    /// (`b0`-`b2`) without zeroing: those loops overwrite every element
    /// they read, so the per-iteration memset of [`Workspace::prepare_batch`]
    /// would be wasted work in the hot path. Callers index only
    /// `[..batch_len]`.
    pub(crate) fn prepare_sparse_batch(&mut self, batch_len: usize) {
        for buf in [&mut self.b0, &mut self.b1, &mut self.b2] {
            ensure_len(buf, batch_len, &mut self.grow_events);
        }
    }

    /// Selects the current `batch` rows of `x` into the rows buffer.
    pub(crate) fn select_batch_rows(&mut self, x: &Matrix) {
        if self.rows.capacity() < self.batch.len() * x.ncols() {
            self.grow_events += 1;
        }
        x.select_rows_into(&self.batch, &mut self.rows);
    }

    /// Shapes the two `m × m` decomposition matrices without zeroing
    /// (every consumer either fully overwrites `mm0` or hands the buffers
    /// to kernels that reshape them itself — a memset here would be pure
    /// overhead inside the timed closed-form update), counting capacity
    /// growth like every other buffer.
    pub(crate) fn prepare_square(&mut self, num_features: usize) {
        for buf in [&mut self.mm0, &mut self.mm1] {
            if buf.capacity() < num_features * num_features {
                self.grow_events += 1;
            }
            buf.reshape_for_overwrite(num_features, num_features);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_is_counted_once_per_capacity_increase() {
        let mut ws = Workspace::new();
        ws.prepare_features(16);
        ws.prepare_batch(8);
        let after_first = ws.grow_events();
        assert!(after_first > 0);
        // Same sizes: warm, no growth.
        ws.prepare_features(16);
        ws.prepare_batch(8);
        assert_eq!(ws.grow_events(), after_first);
        // Smaller sizes reuse capacity.
        ws.prepare_features(4);
        ws.prepare_batch(2);
        assert_eq!(ws.grow_events(), after_first);
        // Larger sizes grow again.
        ws.prepare_features(64);
        assert!(ws.grow_events() > after_first);
    }

    #[test]
    fn sized_for_makes_the_first_iteration_warm() {
        let mut ws = Workspace::sized_for(32, 10, 3);
        assert_eq!(ws.grow_events(), 0);
        ws.prepare_features(32);
        ws.prepare_batch(10);
        let x = Matrix::from_fn(20, 32, |i, j| (i + j) as f64);
        ws.batch.extend_from_slice(&[1, 3, 5]);
        ws.select_batch_rows(&x);
        assert_eq!(ws.grow_events(), 0);
    }
}
