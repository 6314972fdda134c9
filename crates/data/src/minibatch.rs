//! Deterministic mini-batch schedules.
//!
//! PrIU's correctness argument relies on the incremental update replaying the
//! *same* mini-batch sequence `B^{(t)}` as the original training run, with
//! removed samples excluded (Eq. 8/13/19). [`BatchSchedule`] therefore derives
//! batch `t` purely from `(seed, t)`, so the training phase, the BaseL
//! retraining baseline and the incremental update all observe identical batch
//! composition without storing `τ · B` indices.

use crate::rng::seeded_rng;

/// A deterministic mini-batch schedule over `n` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSchedule {
    num_samples: usize,
    batch_size: usize,
    num_iterations: usize,
    seed: u64,
    /// Materialised batches. `None` for the usual seed-derived schedule;
    /// `Some` for schedules produced by [`BatchSchedule::restrict`], whose
    /// batches live in a re-indexed (survivor) sample space and therefore
    /// cannot be re-derived from `(seed, t)`.
    explicit: Option<Vec<Vec<usize>>>,
}

impl BatchSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    /// Panics if `num_samples == 0` or `batch_size == 0`.
    pub fn new(num_samples: usize, batch_size: usize, num_iterations: usize, seed: u64) -> Self {
        assert!(num_samples > 0, "a schedule needs at least one sample");
        assert!(batch_size > 0, "a schedule needs a positive batch size");
        Self {
            num_samples,
            batch_size: batch_size.min(num_samples),
            num_iterations,
            seed,
            explicit: None,
        }
    }

    /// A full-gradient-descent schedule: every batch is the whole dataset.
    pub fn full_batch(num_samples: usize, num_iterations: usize) -> Self {
        Self::new(num_samples, num_samples, num_iterations, 0)
    }

    /// Number of samples the schedule draws from.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Nominal batch size `B`.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Total number of iterations `τ`.
    pub fn num_iterations(&self) -> usize {
        self.num_iterations
    }

    /// The seed the schedule derives batches from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether every batch covers the entire dataset (plain GD).
    pub fn is_full_batch(&self) -> bool {
        self.batch_size == self.num_samples
    }

    /// The materialised batches, if this schedule carries them (schedules
    /// produced by [`BatchSchedule::restrict_from`] / `extend_with`);
    /// `None` for seed-derived schedules.
    pub fn explicit_batches(&self) -> Option<&[Vec<usize>]> {
        self.explicit.as_deref()
    }

    /// Rebuilds a schedule from serialized parts (the inverse of the field
    /// accessors, used when deserializing a snapshot). An explicit batch
    /// list takes precedence over seed derivation exactly as in the
    /// schedules produced by `restrict_from`/`extend_with`.
    ///
    /// # Panics
    /// Panics if `num_samples == 0` or `batch_size == 0` (same contract as
    /// [`BatchSchedule::new`]).
    pub fn from_parts(
        num_samples: usize,
        batch_size: usize,
        num_iterations: usize,
        seed: u64,
        explicit: Option<Vec<Vec<usize>>>,
    ) -> Self {
        assert!(num_samples > 0, "a schedule needs at least one sample");
        assert!(batch_size > 0, "a schedule needs a positive batch size");
        Self {
            num_samples,
            batch_size,
            num_iterations,
            seed,
            explicit,
        }
    }

    /// The sample indices of mini-batch `t`, drawn without replacement.
    /// Deterministic: the same `(schedule, t)` always yields the same batch.
    ///
    /// # Panics
    /// Panics if `t >= num_iterations`.
    pub fn batch(&self, t: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.batch_into(t, &mut out, &mut scratch);
        out
    }

    /// Number of samples in mini-batch `t`, without drawing it.
    ///
    /// # Panics
    /// Panics if `t >= num_iterations`.
    pub fn batch_len(&self, t: usize) -> usize {
        assert!(t < self.num_iterations, "iteration {t} out of range");
        self.explicit
            .as_ref()
            .map_or(self.batch_size, |batches| batches[t].len())
    }

    /// Writes the sample indices of mini-batch `t` into `out`, using
    /// `scratch` as working storage. Both buffers are reused across calls, so
    /// the per-iteration replay loops derive batches without allocating.
    /// Produces exactly the indices of [`BatchSchedule::batch`].
    ///
    /// # Panics
    /// Panics if `t >= num_iterations`.
    pub fn batch_into(&self, t: usize, out: &mut Vec<usize>, scratch: &mut Vec<usize>) {
        assert!(
            t < self.num_iterations,
            "iteration {t} out of range ({} iterations)",
            self.num_iterations
        );
        out.clear();
        if let Some(batches) = &self.explicit {
            out.extend_from_slice(&batches[t]);
            return;
        }
        if self.is_full_batch() {
            out.extend(0..self.num_samples);
            return;
        }
        // A distinct stream per iteration gives random access to the
        // schedule without storing it.
        let mut rng = seeded_rng(self.seed, 0xB47C_0000 ^ t as u64);
        rng.sample_indices_into(self.num_samples, self.batch_size, out, scratch);
        out.sort_unstable();
    }

    /// Number of passes over the full training set (`τ · B / n`), the
    /// quantity the paper's Q6 discussion calls "passes".
    pub fn num_passes(&self) -> f64 {
        (self.num_iterations * self.batch_size) as f64 / self.num_samples as f64
    }

    /// Restricts the schedule to the samples surviving a deletion: every
    /// batch is materialised with the removed indices filtered out and each
    /// survivor re-indexed by its rank among the survivors — the sample space
    /// of a dataset shrunk with `select(survivors)`. Chained deletions use
    /// this to hand a session's provenance over to the shrunk dataset while
    /// preserving the original batch composition (Eq. 8's requirement).
    ///
    /// `removed` must be sorted ascending and deduplicated, with every index
    /// in `[0, num_samples)`.
    ///
    /// # Panics
    /// Panics if removing the set would leave no samples.
    pub fn restrict(&self, removed: &[usize]) -> BatchSchedule {
        let batches = (0..self.num_iterations).map(|t| self.batch(t)).collect();
        self.restrict_from(removed, batches)
    }

    /// Like [`BatchSchedule::restrict`], reusing batches the caller already
    /// materialised — callers that just iterated the schedule (deletion
    /// propagation walks every batch anyway) avoid deriving it twice.
    ///
    /// `batches` must be exactly `self.batch(t)` for `t` in iteration order.
    ///
    /// # Panics
    /// Panics if removing the set would leave no samples or the batch count
    /// does not match the schedule.
    pub fn restrict_from(&self, removed: &[usize], batches: Vec<Vec<usize>>) -> BatchSchedule {
        debug_assert!(removed.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(removed.iter().all(|&i| i < self.num_samples));
        assert_eq!(
            batches.len(),
            self.num_iterations,
            "restrict_from needs one batch per iteration"
        );
        let surviving = self.num_samples - removed.len();
        assert!(surviving > 0, "cannot restrict a schedule to zero samples");
        let batches: Vec<Vec<usize>> = batches
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .filter(|i| removed.binary_search(i).is_err())
                    .map(|i| i - removed.partition_point(|&r| r < i))
                    .collect()
            })
            .collect();
        BatchSchedule {
            num_samples: surviving,
            batch_size: self.batch_size.min(surviving),
            num_iterations: self.num_iterations,
            seed: self.seed,
            explicit: Some(batches),
        }
    }

    /// Extends the schedule with explicit batches over newly appended rows:
    /// every existing batch is materialised (so prior iterations replay
    /// byte-for-byte), the extra batches become additional trailing
    /// iterations, and the sample count grows by `added_samples`. The delta
    /// engines run one exact SGD step per appended batch and capture it
    /// like any other iteration, so later deletions of added rows flow
    /// through the standard replay machinery.
    ///
    /// # Panics
    /// Panics if an extra batch is empty or references a row at or beyond
    /// `num_samples() + added_samples`.
    pub fn extend_with(&self, extra: Vec<Vec<usize>>, added_samples: usize) -> BatchSchedule {
        let new_n = self.num_samples + added_samples;
        for batch in &extra {
            assert!(!batch.is_empty(), "appended batches must be non-empty");
            assert!(
                batch.iter().all(|&i| i < new_n),
                "appended batch indexes a row beyond the extended range"
            );
        }
        let mut batches: Vec<Vec<usize>> =
            (0..self.num_iterations).map(|t| self.batch(t)).collect();
        let num_iterations = self.num_iterations + extra.len();
        batches.extend(extra);
        BatchSchedule {
            num_samples: new_n,
            batch_size: self.batch_size,
            num_iterations,
            seed: self.seed,
            explicit: Some(batches),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_and_within_range() {
        let s = BatchSchedule::new(100, 10, 50, 7);
        let b1 = s.batch(3);
        let b2 = s.batch(3);
        assert_eq!(b1, b2);
        assert_eq!(b1.len(), 10);
        assert!(b1.iter().all(|&i| i < 100));
        // Sorted and distinct.
        for w in b1.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Different iterations give different batches (overwhelmingly likely).
        assert_ne!(s.batch(3), s.batch(4));
        // Different seeds give different batches.
        let s2 = BatchSchedule::new(100, 10, 50, 8);
        assert_ne!(s.batch(3), s2.batch(3));
    }

    #[test]
    fn extend_with_appends_explicit_batches_and_preserves_history() {
        let s = BatchSchedule::new(20, 4, 6, 11);
        let before: Vec<Vec<usize>> = (0..6).map(|t| s.batch(t)).collect();
        let grown = s.extend_with(vec![vec![20, 21], vec![22]], 3);
        assert_eq!(grown.num_samples(), 23);
        assert_eq!(grown.num_iterations(), 8);
        // Prior iterations replay byte-for-byte.
        for (t, batch) in before.iter().enumerate() {
            assert_eq!(&grown.batch(t), batch);
        }
        assert_eq!(grown.batch(6), vec![20, 21]);
        assert_eq!(grown.batch(7), vec![22]);
        // Restriction still composes: drop an old and a new row.
        let filtered: Vec<Vec<usize>> = (0..8)
            .map(|t| {
                grown
                    .batch(t)
                    .into_iter()
                    .filter(|i| ![3usize, 21].contains(i))
                    .collect()
            })
            .collect();
        let restricted = grown.restrict_from(&[3, 21], filtered);
        assert_eq!(restricted.num_samples(), 21);
        assert_eq!(restricted.batch(6), vec![19]); // 20 shifts past removed 3
        assert_eq!(restricted.batch(7), vec![20]); // 22 shifts past 3 and 21
    }

    #[test]
    #[should_panic(expected = "beyond the extended range")]
    fn extend_with_rejects_out_of_range_rows() {
        BatchSchedule::new(10, 2, 3, 1).extend_with(vec![vec![12]], 2);
    }

    #[test]
    fn full_batch_schedule_returns_everything() {
        let s = BatchSchedule::full_batch(5, 3);
        assert!(s.is_full_batch());
        assert_eq!(s.batch(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.batch(2), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.num_passes(), 3.0);
    }

    #[test]
    fn batch_size_is_clamped_to_population() {
        let s = BatchSchedule::new(4, 10, 2, 0);
        assert_eq!(s.batch_size(), 4);
        assert!(s.is_full_batch());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_iteration_panics() {
        BatchSchedule::new(10, 2, 5, 0).batch(5);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        BatchSchedule::new(0, 2, 5, 0);
    }

    #[test]
    fn restrict_filters_and_reindexes_batches() {
        let s = BatchSchedule::new(10, 4, 6, 3);
        let removed = vec![2, 5];
        let r = s.restrict(&removed);
        assert_eq!(r.num_samples(), 8);
        assert_eq!(r.num_iterations(), 6);
        for t in 0..6 {
            let expected: Vec<usize> = s
                .batch(t)
                .into_iter()
                .filter(|i| !removed.contains(i))
                .map(|i| i - removed.iter().filter(|&&x| x < i).count())
                .collect();
            assert_eq!(r.batch(t), expected);
            assert!(r.batch(t).iter().all(|&i| i < 8));
        }
        // Restricting twice composes: remove survivor-index 0 (original 0).
        let r2 = r.restrict(&[0]);
        assert_eq!(r2.num_samples(), 7);
        for t in 0..6 {
            assert!(r2.batch(t).iter().all(|&i| i < 7));
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn restrict_to_nothing_panics() {
        let s = BatchSchedule::new(3, 2, 2, 0);
        s.restrict(&[0, 1, 2]);
    }

    #[test]
    fn accessors() {
        let s = BatchSchedule::new(100, 25, 8, 3);
        assert_eq!(s.num_samples(), 100);
        assert_eq!(s.batch_size(), 25);
        assert_eq!(s.num_iterations(), 8);
        assert_eq!(s.seed(), 3);
        assert_eq!(s.num_passes(), 2.0);
    }
}
