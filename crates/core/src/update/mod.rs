//! Incremental model updates after deleting training samples.
//!
//! * [`priu_linear`] — PrIU for linear regression (Eq. 13/14).
//! * [`priu_opt_linear`] — PrIU-opt for linear regression (Eq. 15-18).
//! * [`priu_logistic`] — PrIU for binary / multinomial logistic regression
//!   (Eq. 19/20).
//! * [`priu_opt_logistic`] — PrIU-opt for logistic regression (§5.4: early
//!   provenance termination + incremental eigenvalue updates).
//! * [`sparse_logistic`] — the sparse-dataset path (§5.3: linearised update
//!   rule only).

pub mod priu_linear;
pub mod priu_logistic;
pub mod priu_opt_linear;
pub mod priu_opt_logistic;
pub mod sparse_logistic;

pub use priu_linear::priu_update_linear;
pub use priu_logistic::priu_update_logistic;
pub use priu_opt_linear::priu_opt_update_linear;
pub use priu_opt_logistic::priu_opt_update_logistic;
pub use sparse_logistic::priu_update_sparse_logistic;

use crate::error::{CoreError, Result};

/// Validates and normalises a removal set: every index must be in range; the
/// result is sorted and deduplicated.
pub(crate) fn normalize_removed(num_samples: usize, removed: &[usize]) -> Result<Vec<usize>> {
    let mut sorted = removed.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if let Some(&bad) = sorted.iter().find(|&&i| i >= num_samples) {
        return Err(CoreError::InvalidRemoval {
            index: bad,
            num_samples,
        });
    }
    Ok(sorted)
}

/// Writes the positions (indices into `batch`) of the batch members that
/// belong to the removal set into a reused buffer, so the replay loops call
/// it per iteration without allocating. Both slices must be sorted
/// ascending.
pub(crate) fn removed_positions_into(
    batch: &[usize],
    removed_sorted: &[usize],
    positions: &mut Vec<usize>,
) {
    positions.clear();
    let mut r = 0;
    for (pos, &sample) in batch.iter().enumerate() {
        while r < removed_sorted.len() && removed_sorted[r] < sample {
            r += 1;
        }
        if r < removed_sorted.len() && removed_sorted[r] == sample {
            positions.push(pos);
        }
    }
}

/// Returns `items` with the entries at the given positions removed. The
/// counterpart of [`removed_positions_into`] used by deletion propagation to drop
/// removed batch members from per-batch coefficient lists. `positions` must
/// be sorted ascending.
pub(crate) fn drop_positions<T: Copy>(items: &[T], positions: &[usize]) -> Vec<T> {
    let mut kept = Vec::with_capacity(items.len() - positions.len());
    let mut next_removed = 0usize;
    for (pos, &item) in items.iter().enumerate() {
        if next_removed < positions.len() && positions[next_removed] == pos {
            next_removed += 1;
        } else {
            kept.push(item);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_positions_removes_exactly_the_marked_entries() {
        assert_eq!(drop_positions(&[10, 11, 12, 13], &[1, 3]), vec![10, 12]);
        assert_eq!(drop_positions(&[10, 11], &[]), vec![10, 11]);
        assert_eq!(drop_positions(&[10, 11], &[0, 1]), Vec::<i32>::new());
    }

    #[test]
    fn normalize_sorts_dedups_and_validates() {
        assert_eq!(normalize_removed(10, &[5, 1, 5, 3]).unwrap(), vec![1, 3, 5]);
        assert!(normalize_removed(4, &[4]).is_err());
        assert!(normalize_removed(4, &[]).unwrap().is_empty());
    }

    fn removed_positions(batch: &[usize], removed_sorted: &[usize]) -> Vec<usize> {
        let mut positions = Vec::new();
        removed_positions_into(batch, removed_sorted, &mut positions);
        positions
    }

    #[test]
    fn removed_positions_intersects_sorted_lists() {
        let batch = vec![2, 4, 7, 9, 12];
        assert_eq!(removed_positions(&batch, &[4, 9, 100]), vec![1, 3]);
        assert_eq!(removed_positions(&batch, &[]), Vec::<usize>::new());
        assert_eq!(removed_positions(&batch, &[1, 3, 5]), Vec::<usize>::new());
        assert_eq!(
            removed_positions(&batch, &[2, 4, 7, 9, 12]),
            vec![0, 1, 2, 3, 4]
        );
    }
}
