//! The cost-model scheduler: picks the update method for each coalesced
//! batch.
//!
//! For every batch the scheduler estimates the wall-clock cost of each
//! method the session supports and picks the cheapest *exact* one:
//!
//! * `PrIU` / `PrIU-opt` — per-removed-row cost (the downdate walks the
//!   provenance of each removed row),
//! * `Closed-form` — near-flat per-batch cost (one rank-k downdate of the
//!   normal equations plus an O(m³) solve; the per-row term is noise at
//!   server batch sizes),
//! * `BaseL` retrain — per-*survivor* cost (replays the full mini-batch
//!   schedule on `n - k` rows).
//!
//! `INFL` is never scheduled: it is an approximation, and a deletion
//! service must honor removals exactly.
//!
//! The estimates are seeded from calibration constants in the ballpark of
//! the recorded BENCH_2–BENCH_5 trajectories on this 1-CPU container and
//! refined online: after each batch the measured seconds update the
//! method's dominant coefficient by exponential moving average, so a
//! mis-seeded model converges to the machine it is actually running on.
//!
//! Independently of cost, accumulated **drift** forces correctness: once
//! incremental updates have removed more than `retrain_drift` of the
//! registration-time rows since the last refit, the scheduler forces a
//! full retrain. (PrIU's updates are exact for the closed-form path and
//! tightly error-bounded for the iterative ones, but a service that only
//! ever downdates accumulates floating-point drift and shrinks the
//! provenance basis; periodic re-anchoring bounds both.)

use priu_core::{CaptureSnapshot, Method};

/// Calibration seeds: dominant-term coefficients, in seconds, for the
/// cost model before any online observation. Order-of-magnitude values
/// measured on the repo's 1-CPU reference container (BENCH_2–BENCH_5
/// scale); the EMA refinement corrects them within a few batches.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Seconds per removed row for `PrIU`.
    pub priu_row_seconds: f64,
    /// Seconds per removed row for `PrIU-opt`.
    pub priu_opt_row_seconds: f64,
    /// Seconds per batch for `Closed-form`.
    pub closed_form_batch_seconds: f64,
    /// Seconds per surviving sample for a `BaseL` retrain.
    pub retrain_sample_seconds: f64,
    /// Seconds per *added* row for the iterative methods (`PrIU` /
    /// `PrIU-opt`): each appended row costs a share of the extra GD
    /// iterations appended to the provenance schedule. The closed-form
    /// update folds additions into the same rank-k refactor + solve it
    /// already pays for, so it carries no per-added-row term.
    pub add_row_seconds: f64,
    /// Flat per-retrain seconds for the offline phase the refit ends with
    /// (provenance capture: the symmetric eigendecomposition). Seeded from
    /// the tridiag + QL pipeline at the fig-scale feature counts (BENCH_7);
    /// the Jacobi-era value was an order of magnitude larger, which is why
    /// drift-forced retrains used to lose to the closed-form downdate.
    pub refit_offline_seconds: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            priu_row_seconds: 2.0e-5,
            priu_opt_row_seconds: 8.0e-6,
            closed_form_batch_seconds: 4.0e-4,
            retrain_sample_seconds: 5.0e-6,
            add_row_seconds: 6.0e-6,
            refit_offline_seconds: 2.0e-4,
        }
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Cost-model seeds (refined online).
    pub calibration: Calibration,
    /// Weight of the newest observation in the EMA refinement, in `(0, 1]`.
    pub ema_alpha: f64,
    /// Drift ratio (rows removed incrementally since the last refit over
    /// registration-time rows) at or above which a full retrain is forced.
    pub retrain_drift: f64,
    /// Pins every decision to one method (tests and A/B runs);
    /// sessions that do not support it fall back to the cost model.
    pub force_method: Option<Method>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            calibration: Calibration::default(),
            ema_alpha: 0.3,
            retrain_drift: 0.25,
            force_method: None,
        }
    }
}

/// Methods the scheduler will consider, cheapest-biased order for
/// deterministic tie-breaks. `Influence` is intentionally absent.
const CANDIDATES: [Method; 4] = [
    Method::PriuOpt,
    Method::Priu,
    Method::ClosedForm,
    Method::Retrain,
];

/// Per-session cost model: calibrated coefficients refined online plus a
/// histogram of the decisions taken.
#[derive(Debug, Clone)]
pub struct CostModel {
    cfg: SchedulerConfig,
    priu_row: f64,
    priu_opt_row: f64,
    closed_batch: f64,
    retrain_sample: f64,
    add_row: f64,
    refit_offline: f64,
    /// Decision counts, indexed by the method's position in
    /// [`Method::ALL`].
    decisions: [u64; Method::ALL.len()],
}

impl CostModel {
    /// A cost model seeded from the config's calibration constants.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self {
            cfg,
            priu_row: cfg.calibration.priu_row_seconds,
            priu_opt_row: cfg.calibration.priu_opt_row_seconds,
            closed_batch: cfg.calibration.closed_form_batch_seconds,
            retrain_sample: cfg.calibration.retrain_sample_seconds,
            add_row: cfg.calibration.add_row_seconds,
            refit_offline: cfg.calibration.refit_offline_seconds,
            decisions: [0; Method::ALL.len()],
        }
    }

    /// Estimated seconds for a bidirectional delta — remove `k` rows and
    /// append `added` — on an `n`-row session with `method`. The iterative
    /// methods pay `add_row` per appended row (extra GD iterations on the
    /// extended schedule); the closed-form update folds additions into its
    /// flat rank-k refactor; a retrain replays `n - k + added` samples.
    /// `Influence` estimates infinite: exact-deletion service, never
    /// scheduled.
    pub fn estimate_delta(&self, method: Method, k: usize, added: usize, n: usize) -> f64 {
        let (k, a) = (k as f64, added as f64);
        match method {
            Method::Priu => self.priu_row * k + self.add_row * a,
            Method::PriuOpt => self.priu_opt_row * k + self.add_row * a,
            Method::ClosedForm => self.closed_batch,
            Method::Retrain => {
                self.retrain_sample * ((n as f64 - k).max(0.0) + a) + self.refit_offline
            }
            Method::Influence => f64::INFINITY,
        }
    }

    /// Picks the method for a batch that removes `k` rows from the session
    /// described by `snapshot` and appends `added`, where committing the
    /// batch incrementally would leave the session at drift ratio
    /// `drift_after`. The per-added-row terms shift the comparison
    /// (add-heavy batches favor the flat closed-form update on sessions
    /// that support it).
    ///
    /// Precedence: `force_method` (if supported) ≻ forced retrain on
    /// drift ≻ cheapest estimate among supported candidates. Records the
    /// decision in the histogram.
    pub fn decide_delta(
        &mut self,
        snapshot: &CaptureSnapshot,
        k: usize,
        added: usize,
        drift_after: f64,
    ) -> Method {
        let supported = |m: Method| snapshot.methods.contains(&m);
        let method = if let Some(forced) = self.cfg.force_method.filter(|&m| supported(m)) {
            forced
        } else if drift_after >= self.cfg.retrain_drift && supported(Method::Retrain) {
            Method::Retrain
        } else {
            CANDIDATES
                .into_iter()
                .filter(|&m| supported(m))
                .min_by(|&a, &b| {
                    self.estimate_delta(a, k, added, snapshot.num_samples)
                        .total_cmp(&self.estimate_delta(b, k, added, snapshot.num_samples))
                })
                .expect("every session supports at least BaseL retrain")
        };
        let slot = Method::ALL
            .iter()
            .position(|&m| m == method)
            .expect("method is drawn from Method::ALL");
        self.decisions[slot] += 1;
        method
    }

    /// Feeds a measured batch back into the model: `method` removed `k`
    /// rows and appended `added` on an `n`-row session in `seconds`. The
    /// method's dominant coefficient moves toward the observation by EMA;
    /// for the iterative methods a mixed observation is split
    /// between the per-removed-row and per-added-row coefficients in
    /// proportion to their current estimates, so both converge under a
    /// mixed workload.
    pub fn observe_delta(
        &mut self,
        method: Method,
        k: usize,
        added: usize,
        n: usize,
        seconds: f64,
    ) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        let alpha = self.cfg.ema_alpha.clamp(0.0, 1.0);
        let ema = |old: f64, obs: f64| old + alpha * (obs - old);
        let split_rows = |row: f64, add: f64| -> (f64, f64) {
            // Shares of the observation attributed to removal vs addition.
            let (est_remove, est_add) = (row * k as f64, add * added as f64);
            let total = est_remove + est_add;
            if total > 0.0 {
                (seconds * est_remove / total, seconds * est_add / total)
            } else {
                (0.0, 0.0)
            }
        };
        match method {
            Method::Priu if k > 0 || added > 0 => {
                let (remove_share, add_share) = split_rows(self.priu_row, self.add_row);
                if k > 0 {
                    self.priu_row = ema(self.priu_row, remove_share / k as f64);
                }
                if added > 0 {
                    self.add_row = ema(self.add_row, add_share / added as f64);
                }
            }
            Method::PriuOpt if k > 0 || added > 0 => {
                let (remove_share, add_share) = split_rows(self.priu_opt_row, self.add_row);
                if k > 0 {
                    self.priu_opt_row = ema(self.priu_opt_row, remove_share / k as f64);
                }
                if added > 0 {
                    self.add_row = ema(self.add_row, add_share / added as f64);
                }
            }
            Method::ClosedForm => self.closed_batch = ema(self.closed_batch, seconds),
            Method::Retrain if n + added > k => {
                // The flat offline term is observed separately (the refit
                // reports its own capture seconds); attribute the rest to
                // the per-sample replay over the survivors plus additions.
                let replay = (seconds - self.refit_offline).max(0.0);
                self.retrain_sample = ema(self.retrain_sample, replay / (n + added - k) as f64);
            }
            _ => {}
        }
    }

    /// Feeds the measured offline-phase seconds of a completed refit (the
    /// retrained session's training + provenance capture) into the flat
    /// retrain term, EMA-refined like the per-row coefficients. This is
    /// where the tridiag + QL speedup reaches scheduling: a few observed
    /// refits pull `refit_offline` down an order of magnitude from a
    /// Jacobi-era seed, and drift-forced retrains start beating the
    /// closed-form downdate on estimate.
    pub fn observe_offline(&mut self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        let alpha = self.cfg.ema_alpha.clamp(0.0, 1.0);
        self.refit_offline += alpha * (seconds - self.refit_offline);
    }

    /// Decision counts per method, in [`Method::ALL`] order, including
    /// zero-count methods (stable shape for reports).
    pub fn decisions(&self) -> Vec<(Method, u64)> {
        Method::ALL
            .iter()
            .zip(self.decisions.iter())
            .map(|(&m, &c)| (m, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priu_core::TaskKind;

    fn snapshot(n: usize, methods: Vec<Method>) -> CaptureSnapshot {
        CaptureSnapshot {
            task: TaskKind::Regression,
            num_samples: n,
            num_features: 8,
            provenance_bytes: 0,
            training_seconds: 1.0,
            methods,
        }
    }

    fn count(model: &CostModel, method: Method) -> u64 {
        model
            .decisions()
            .into_iter()
            .find(|&(m, _)| m == method)
            .unwrap()
            .1
    }

    #[test]
    fn picks_the_cheapest_supported_exact_method() {
        let mut model = CostModel::new(SchedulerConfig::default());
        let all = snapshot(100_000, Method::ALL.to_vec());
        // Small batch on a big session: per-row PrIU-opt wins.
        assert_eq!(model.decide_delta(&all, 2, 0, 0.0), Method::PriuOpt);
        // Huge batch: the flat closed-form downdate undercuts per-row work.
        assert_eq!(model.decide_delta(&all, 10_000, 0, 0.1), Method::ClosedForm);
        // Without closed form or PrIU-opt, PrIU carries the batch.
        let iter_only = snapshot(
            100_000,
            vec![Method::Retrain, Method::Priu, Method::Influence],
        );
        assert_eq!(model.decide_delta(&iter_only, 2, 0, 0.0), Method::Priu);
        // Tiny surviving set: retraining 10 rows beats downdating 1000.
        let tiny = snapshot(1_010, vec![Method::Retrain, Method::Priu]);
        assert_eq!(model.decide_delta(&tiny, 1_000, 0, 0.0), Method::Retrain);
        assert_eq!(count(&model, Method::Influence), 0);
    }

    #[test]
    fn drift_threshold_forces_a_full_retrain() {
        let mut model = CostModel::new(SchedulerConfig {
            retrain_drift: 0.25,
            ..SchedulerConfig::default()
        });
        let all = snapshot(10_000, Method::ALL.to_vec());
        assert_eq!(model.decide_delta(&all, 3, 0, 0.24), Method::PriuOpt);
        assert_eq!(model.decide_delta(&all, 3, 0, 0.25), Method::Retrain);
        assert_eq!(model.decide_delta(&all, 3, 0, 0.40), Method::Retrain);
        assert_eq!(count(&model, Method::Retrain), 2);
    }

    #[test]
    fn observations_refine_the_model_and_flip_decisions() {
        let mut model = CostModel::new(SchedulerConfig {
            ema_alpha: 1.0, // adopt observations outright for the test
            ..SchedulerConfig::default()
        });
        let all = snapshot(50_000, Method::ALL.to_vec());
        assert_eq!(model.decide_delta(&all, 4, 0, 0.0), Method::PriuOpt);
        // Observe PrIU-opt being catastrophically slow and PrIU fast.
        model.observe_delta(Method::PriuOpt, 4, 0, 50_000, 4.0);
        model.observe_delta(Method::Priu, 4, 0, 50_000, 4.0e-6);
        assert_eq!(model.decide_delta(&all, 4, 0, 0.0), Method::Priu);
        assert!((model.estimate_delta(Method::PriuOpt, 1, 0, 50_000) - 1.0).abs() < 1e-12);
        // Degenerate observations are ignored.
        let before = model.estimate_delta(Method::Priu, 1, 0, 50_000);
        model.observe_delta(Method::Priu, 0, 0, 50_000, 1.0);
        model.observe_delta(Method::Priu, 4, 0, 50_000, f64::NAN);
        model.observe_delta(Method::Priu, 4, 0, 50_000, -1.0);
        assert_eq!(model.estimate_delta(Method::Priu, 1, 0, 50_000), before);
    }

    #[test]
    fn force_method_pins_decisions_when_supported() {
        let mut model = CostModel::new(SchedulerConfig {
            force_method: Some(Method::ClosedForm),
            ..SchedulerConfig::default()
        });
        let all = snapshot(10_000, Method::ALL.to_vec());
        assert_eq!(model.decide_delta(&all, 1, 0, 0.0), Method::ClosedForm);
        // Sessions lacking the pinned method fall back to the cost model.
        let logistic = snapshot(10_000, vec![Method::Retrain, Method::Priu, Method::PriuOpt]);
        assert_eq!(model.decide_delta(&logistic, 1, 0, 0.0), Method::PriuOpt);
    }

    #[test]
    fn cheaper_offline_phase_shifts_decisions_toward_retrain() {
        // The same stream of near-total deletion batches under the Jacobi-era
        // offline calibration vs the tridiag+QL seed: with the old offline
        // cost the flat closed-form downdate wins every batch, with the new
        // one the retrain estimate drops below it and the decisions
        // histogram flips.
        let jacobi_era = SchedulerConfig {
            calibration: Calibration {
                refit_offline_seconds: 2.0e-3,
                ..Calibration::default()
            },
            ..SchedulerConfig::default()
        };
        let mut old_model = CostModel::new(jacobi_era);
        let mut new_model = CostModel::new(SchedulerConfig::default());
        let s = snapshot(3_000, vec![Method::ClosedForm, Method::Retrain]);
        for _ in 0..8 {
            // 30 survivors: retrain = 30·5e-6 + offline, closed form = 4e-4.
            old_model.decide_delta(&s, 2_970, 0, 0.0);
            new_model.decide_delta(&s, 2_970, 0, 0.0);
        }
        assert_eq!(count(&old_model, Method::Retrain), 0);
        assert_eq!(count(&old_model, Method::ClosedForm), 8);
        assert_eq!(count(&new_model, Method::Retrain), 8);
        assert_eq!(count(&new_model, Method::ClosedForm), 0);
    }

    #[test]
    fn observe_offline_refines_the_flat_retrain_term() {
        let mut model = CostModel::new(SchedulerConfig {
            ema_alpha: 1.0,
            ..SchedulerConfig::default()
        });
        let n = 1_000;
        let k = 990;
        let base = model.estimate_delta(Method::Retrain, k, 0, n);
        // An observed refit an order of magnitude cheaper moves the estimate
        // by exactly the offline delta.
        model.observe_offline(2.0e-5);
        let refined = model.estimate_delta(Method::Retrain, k, 0, n);
        assert!((base - refined - (2.0e-4 - 2.0e-5)).abs() < 1e-12);
        // A retrain observation attributes only the non-offline remainder to
        // the per-sample coefficient.
        model.observe_delta(Method::Retrain, k, 0, n, 2.0e-5 + 10.0 * 3.0e-6);
        assert!(
            (model.estimate_delta(Method::Retrain, k, 0, n) - (2.0e-5 + 10.0 * 3.0e-6)).abs()
                < 1e-12
        );
        // Degenerate observations are ignored.
        model.observe_offline(f64::NAN);
        model.observe_offline(-1.0);
        assert!(
            (model.estimate_delta(Method::Retrain, k, 0, n) - (2.0e-5 + 10.0 * 3.0e-6)).abs()
                < 1e-12
        );
    }

    #[test]
    fn added_rows_price_into_iterative_methods_but_not_closed_form() {
        let mut model = CostModel::new(SchedulerConfig::default());
        let all = snapshot(100_000, Method::ALL.to_vec());
        // A deletion-only delta decides exactly like the classic path.
        assert_eq!(
            model.decide_delta(&all, 2, 0, 0.0),
            Method::PriuOpt,
            "added == 0 must not change decisions"
        );
        for method in [
            Method::Priu,
            Method::PriuOpt,
            Method::ClosedForm,
            Method::Retrain,
        ] {
            assert_eq!(
                model.estimate_delta(method, 7, 0, 100_000),
                model.estimate_delta(method, 7, 0, 100_000)
            );
        }
        // The closed-form estimate is flat in the addition count; the
        // iterative ones grow linearly, so an add-heavy batch flips to the
        // rank-k closed-form update.
        assert_eq!(
            model.estimate_delta(Method::ClosedForm, 2, 5_000, 100_000),
            model.estimate_delta(Method::ClosedForm, 2, 0, 100_000)
        );
        assert!(
            model.estimate_delta(Method::PriuOpt, 2, 5_000, 100_000)
                > model.estimate_delta(Method::PriuOpt, 2, 0, 100_000)
        );
        assert_eq!(model.decide_delta(&all, 2, 5_000, 0.0), Method::ClosedForm);
    }

    #[test]
    fn mixed_observations_refine_the_per_added_row_term() {
        let mut model = CostModel::new(SchedulerConfig {
            ema_alpha: 1.0,
            ..SchedulerConfig::default()
        });
        // A pure-addition batch attributes everything to the add term.
        model.observe_delta(Method::Priu, 0, 10, 50_000, 10.0 * 4.0e-5);
        assert!((model.estimate_delta(Method::Priu, 0, 1, 50_000) - 4.0e-5).abs() < 1e-12);
        // A mixed batch splits proportionally to the current estimates, so
        // a consistent workload keeps both coefficients at their fixpoint.
        let before_row = model.estimate_delta(Method::Priu, 1, 0, 50_000);
        let before_add = model.estimate_delta(Method::Priu, 0, 1, 50_000);
        model.observe_delta(
            Method::Priu,
            3,
            5,
            50_000,
            3.0 * before_row + 5.0 * before_add,
        );
        assert!((model.estimate_delta(Method::Priu, 1, 0, 50_000) - before_row).abs() < 1e-12);
        assert!((model.estimate_delta(Method::Priu, 0, 1, 50_000) - before_add).abs() < 1e-12);
        // Retrain replays survivors + additions.
        model.observe_delta(
            Method::Retrain,
            100,
            50,
            1_050,
            model.refit_offline + 1_000.0 * 7.0e-6,
        );
        assert!((model.retrain_sample - 7.0e-6).abs() < 1e-12);
    }

    #[test]
    fn influence_is_never_scheduled() {
        let mut model = CostModel::new(SchedulerConfig::default());
        assert_eq!(
            model.estimate_delta(Method::Influence, 1, 0, 100),
            f64::INFINITY
        );
        // Even when it is the only "cheap" method listed, retrain wins.
        let infl = snapshot(100, vec![Method::Retrain, Method::Influence]);
        for k in [1, 10, 50] {
            assert_eq!(model.decide_delta(&infl, k, 0, 0.0), Method::Retrain);
        }
    }
}
