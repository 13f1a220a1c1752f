//! The two-component generative model and its EM algorithm (Algorithm 1).

use crate::config::{FeatureDependence, Regularization, ZeroErConfig};
use crate::transitivity::TransitivityCalibrator;
use zeroer_linalg::block::{BlockDiag, GroupLayout};
use zeroer_linalg::gaussian::BlockGaussian;
use zeroer_linalg::stats::{
    block_correlation, class_means, class_variances, correlation_blocks_to_covariance, l2_norm,
    weighted_covariance,
};
use zeroer_linalg::{ColMatrix, MahalanobisScratch, Matrix, VARIANCE_FLOOR};

/// Guard keeping the Bernoulli prior away from exactly 0/1 so log π stays
/// finite when one component momentarily empties out.
const PRIOR_FLOOR: f64 = 1e-9;

/// The Eq. 3 posterior softmax: `γ = exp(lm) / (exp(lm) + exp(lu))`,
/// evaluated stably in the log domain, where `lm = log π_M + log p_M(x)`
/// and `lu = log π_U + log p_U(x)`.
///
/// This is the single softmax shared by live EM inference
/// ([`GenerativeModel::posterior`], [`GenerativeModel::e_step`]) and
/// frozen-snapshot scoring (`SnapshotScorer::score`), so the two paths
/// cannot drift apart numerically.
#[inline]
pub fn eq3_posterior(lm: f64, lu: f64) -> f64 {
    let max = lm.max(lu);
    (lm - max).exp() / ((lm - max).exp() + (lu - max).exp())
}

/// Rows per column-major batch in [`GenerativeModel::e_step`]: one
/// chunk's transposed rows plus the Mahalanobis forward-solve stripes
/// stay cache-resident.
const E_STEP_CHUNK: usize = 1024;

/// Fills `log_pm[i]` and `log_pu[i]` with `log p_M(x_i)` and
/// `log p_U(x_i)` for every row of `x`, batched over [`E_STEP_CHUNK`]-row
/// chunks. Up to `threads` workers each take a contiguous run of whole
/// chunks and reuse one column-major batch and one Mahalanobis scratch
/// for all of them; every row's densities are bit-identical to the
/// scalar [`BlockGaussian::log_pdf`], so neither the chunking nor the
/// thread count shows in the output.
fn class_log_densities(
    x: &Matrix,
    [m_dist, u_dist]: [&BlockGaussian; 2],
    threads: usize,
    log_pm: &mut [f64],
    log_pu: &mut [f64],
) {
    let d = x.cols();
    let densities = |rows: &[f64], pm: &mut [f64], pu: &mut [f64]| {
        let mut batch = ColMatrix::new();
        let mut scratch = MahalanobisScratch::default();
        let mut rest = rows;
        for (pm, pu) in pm.chunks_mut(E_STEP_CHUNK).zip(pu.chunks_mut(E_STEP_CHUNK)) {
            let (chunk, tail) = rest.split_at(pm.len() * d);
            rest = tail;
            batch.reset_from_rows(pm.len(), d, chunk);
            m_dist.log_pdf_batch(&batch, &mut scratch, pm);
            u_dist.log_pdf_batch(&batch, &mut scratch, pu);
        }
    };
    let chunks = x.rows().div_ceil(E_STEP_CHUNK);
    let threads = threads.min(chunks);
    if threads <= 1 {
        densities(x.as_slice(), log_pm, log_pu);
        return;
    }
    let rows_per_worker = chunks.div_ceil(threads) * E_STEP_CHUNK;
    std::thread::scope(|scope| {
        let mut rest = x.as_slice();
        for (pm, pu) in log_pm
            .chunks_mut(rows_per_worker)
            .zip(log_pu.chunks_mut(rows_per_worker))
        {
            let (rows, tail) = rest.split_at(pm.len() * d);
            rest = tail;
            scope.spawn(move || densities(rows, pm, pu));
        }
    });
}

/// Outcome of a [`GenerativeModel::fit`] run.
#[derive(Debug, Clone)]
pub struct FitSummary {
    /// EM iterations executed.
    pub iterations: usize,
    /// Whether the likelihood converged before the iteration cap.
    pub converged: bool,
    /// Expected log-likelihood (Eq. 4) per iteration.
    pub ll_history: Vec<f64>,
}

impl FitSummary {
    /// Final expected log-likelihood.
    pub fn final_ll(&self) -> f64 {
        self.ll_history.last().copied().unwrap_or(f64::NEG_INFINITY)
    }
}

/// Fitted per-class parameters (Θ of §2.2).
#[derive(Debug, Clone)]
pub struct ClassParams {
    /// Mean vector µ_C.
    pub mean: Vec<f64>,
    /// Covariance Σ_C (block-diagonal per the configured dependence).
    pub cov: BlockDiag,
}

/// The ZeroER generative model: M- and U- block-Gaussians plus the match
/// prior π_M, trained by EM.
///
/// The model is deliberately *stateful* with exposed
/// [`GenerativeModel::m_step`] / [`GenerativeModel::e_step`] so the
/// record-linkage trainer (§5) can interleave steps of three models; plain
/// users call [`GenerativeModel::fit`].
pub struct GenerativeModel {
    config: ZeroErConfig,
    layout: GroupLayout,
    /// Posterior match probabilities γ_i.
    gammas: Vec<f64>,
    pi_m: f64,
    m: Option<ClassParams>,
    u: Option<ClassParams>,
    m_dist: Option<BlockGaussian>,
    u_dist: Option<BlockGaussian>,
    /// Per-group blocks of the correlation matrix, estimated once from
    /// all data (§4).
    shared_corr: Option<BlockDiag>,
}

impl GenerativeModel {
    /// Creates an unfitted model. `layout` is the attribute grouping of
    /// the feature matrix; the configured [`FeatureDependence`] may
    /// coarsen or refine it (full → one block, independent → singletons).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`ZeroErConfig::validate`]).
    pub fn new(config: ZeroErConfig, layout: GroupLayout) -> Self {
        config.validate();
        let layout = match config.feature_dependence {
            FeatureDependence::Full => GroupLayout::single_group(layout.dim()),
            FeatureDependence::Independent => GroupLayout::independent(layout.dim()),
            FeatureDependence::Grouped => layout,
        };
        Self {
            config,
            layout,
            gammas: Vec::new(),
            pi_m: 0.5,
            m: None,
            u: None,
            m_dist: None,
            u_dist: None,
            shared_corr: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ZeroErConfig {
        &self.config
    }

    /// The effective covariance layout.
    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    /// Posterior match probabilities γ (valid after init/fit).
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    /// Mutable posteriors — exposed for the transitivity calibrator and
    /// the linkage trainer.
    pub fn gammas_mut(&mut self) -> &mut [f64] {
        &mut self.gammas
    }

    /// Match prior π_M.
    pub fn pi_m(&self) -> f64 {
        self.pi_m
    }

    /// Fitted M-distribution parameters (after at least one M-step).
    pub fn m_params(&self) -> Option<&ClassParams> {
        self.m.as_ref()
    }

    /// Fitted U-distribution parameters (after at least one M-step).
    pub fn u_params(&self) -> Option<&ClassParams> {
        self.u.as_ref()
    }

    /// Hard labels from the current posteriors (Eq. 5): `γ_i > 0.5`.
    pub fn labels(&self) -> Vec<bool> {
        self.gammas.iter().map(|&g| g > 0.5).collect()
    }

    /// §6 initialization: min-max normalize the feature-vector magnitudes
    /// and threshold at ε.
    pub fn initialize(&mut self, x: &Matrix) {
        assert_eq!(
            x.cols(),
            self.layout.dim(),
            "feature/layout dimensionality mismatch"
        );
        let norms: Vec<f64> = (0..x.rows()).map(|i| l2_norm(x.row(i))).collect();
        let lo = norms.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = norms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = hi - lo;
        self.gammas = norms
            .iter()
            .map(|&nv| {
                let scaled = if span > 0.0 { (nv - lo) / span } else { 0.0 };
                if scaled > self.config.init_threshold {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        self.shared_corr = None;
    }

    /// The adaptive / Tikhonov regularization diagonal `K` (Eq. 13).
    fn regularization_diag(&self, mu_m: &[f64], mu_u: &[f64]) -> Vec<f64> {
        let d = mu_m.len();
        match self.config.regularization {
            Regularization::None => vec![0.0; d],
            Regularization::Tikhonov => vec![self.config.kappa; d],
            Regularization::Adaptive => mu_m
                .iter()
                .zip(mu_u)
                .map(|(&a, &b)| self.config.kappa * (a - b) * (a - b))
                .collect(),
        }
    }

    /// The M-step (Eq. 8 / 11 / 13 / 15): re-estimates π, µ_C, Σ_C from
    /// the current posteriors.
    ///
    /// One pass over the rows accumulates both class means and a second
    /// both class variances ([`class_means`], [`class_variances`]). With
    /// correlation sharing (§4) each class covariance is `Λ_C R Λ_C`,
    /// block by block, with the correlation blocks `R` estimated once
    /// from the within-group entries of the all-rows covariance
    /// ([`block_correlation`]); no `d × d` matrix is formed. The ablation
    /// without sharing slices the full weighted covariance of each class
    /// into blocks. Every statistic has its own accumulators and adds
    /// its rows in row order, so fusing the classes into shared passes
    /// changes no bit of the parameters.
    ///
    /// # Panics
    /// Panics if called before [`GenerativeModel::initialize`].
    pub fn m_step(&mut self, x: &Matrix) {
        assert_eq!(
            self.gammas.len(),
            x.rows(),
            "model not initialized for this matrix"
        );
        let n = x.rows() as f64;
        let nm: f64 = self.gammas.iter().sum();

        self.pi_m = (nm / n).clamp(PRIOR_FLOOR, 1.0 - PRIOR_FLOOR);

        let [mu_m, mu_u] = class_means(x, &self.gammas);

        let (mut cov_m, mut cov_u) = if self.config.shared_correlation {
            // S_C = Λ_C R Λ_C with R estimated once from all data.
            let layout = &self.layout;
            let r = self
                .shared_corr
                .get_or_insert_with(|| block_correlation(x, layout));
            let sd =
                |var: Vec<f64>| -> Vec<f64> { var.iter().map(|v| v.max(0.0).sqrt()).collect() };
            let [var_m, var_u] = class_variances(x, &self.gammas, [&mu_m, &mu_u]);
            (
                correlation_blocks_to_covariance(r, &sd(var_m)),
                correlation_blocks_to_covariance(r, &sd(var_u)),
            )
        } else {
            let gu: Vec<f64> = self.gammas.iter().map(|g| 1.0 - g).collect();
            (
                BlockDiag::from_dense(&weighted_covariance(x, &self.gammas, &mu_m), &self.layout),
                BlockDiag::from_dense(&weighted_covariance(x, &gu, &mu_u), &self.layout),
            )
        };

        let k = self.regularization_diag(&mu_m, &mu_u);
        cov_m.add_diag(&k);
        cov_u.add_diag(&k);
        // Numerical floor keeps the unregularized ablation runnable when a
        // feature fully degenerates (§3.3's singularity pathology).
        let floor = vec![VARIANCE_FLOOR; self.layout.dim()];
        cov_m.add_diag(&floor);
        cov_u.add_diag(&floor);

        self.m_dist = Some(
            BlockGaussian::new(mu_m.clone(), &cov_m)
                .expect("floored covariance must be positive definite"),
        );
        self.u_dist = Some(
            BlockGaussian::new(mu_u.clone(), &cov_u)
                .expect("floored covariance must be positive definite"),
        );
        self.m = Some(ClassParams {
            mean: mu_m,
            cov: cov_m,
        });
        self.u = Some(ClassParams {
            mean: mu_u,
            cov: cov_u,
        });
    }

    /// The E-step (Eq. 3): recomputes posteriors in the log domain and
    /// returns the expected log-likelihood (Eq. 4).
    ///
    /// Both class log-densities are evaluated batched: the rows are cut
    /// into fixed 1,024-row chunks, each transposed into a column-major
    /// batch for [`BlockGaussian::log_pdf_batch`], and runs of whole
    /// chunks are split across the available cores. The batch
    /// kernel reproduces [`BlockGaussian::log_pdf`] to the bit for every
    /// row, whatever the chunk it lands in. The posteriors and the
    /// log-likelihood sum are then computed sequentially in row order,
    /// so the result is bit-identical to the scalar per-row loop (which
    /// [`GenerativeModel::posterior`] still runs) at any thread count.
    ///
    /// # Panics
    /// Panics if called before the first M-step.
    pub fn e_step(&mut self, x: &Matrix) -> f64 {
        let m_dist = self.m_dist.as_ref().expect("e_step before m_step");
        let u_dist = self.u_dist.as_ref().expect("e_step before m_step");
        let mut log_pm = vec![0.0; x.rows()];
        let mut log_pu = vec![0.0; x.rows()];
        let threads = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(8);
        class_log_densities(x, [m_dist, u_dist], threads, &mut log_pm, &mut log_pu);
        let log_pi_m = self.pi_m.ln();
        let log_pi_u = (1.0 - self.pi_m).ln();
        let mut ll = 0.0;
        for (i, (&pm, &pu)) in log_pm.iter().zip(&log_pu).enumerate() {
            let lm = log_pi_m + pm;
            let lu = log_pi_u + pu;
            let gm = eq3_posterior(lm, lu);
            self.gammas[i] = gm;
            ll += gm * lm + (1.0 - gm) * lu;
        }
        ll
    }

    /// Runs Algorithm 1: initialize → loop {M-step; E-step; transitivity
    /// calibration} → label.
    ///
    /// `calibrator` supplies the candidate-pair endpoints for the
    /// transitivity soft constraint; pass `None` to skip it (it is also
    /// skipped when `config.transitivity` is false).
    pub fn fit(&mut self, x: &Matrix, calibrator: Option<&TransitivityCalibrator>) -> FitSummary {
        self.initialize(x);
        self.run_em(x, calibrator)
    }

    /// EM main loop starting from the current posteriors (used by `fit`
    /// and by the linkage trainer after joint initialization).
    pub fn run_em(
        &mut self,
        x: &Matrix,
        calibrator: Option<&TransitivityCalibrator>,
    ) -> FitSummary {
        let n = x.rows().max(1) as f64;
        let mut ll_history = Vec::new();
        let mut converged = false;
        let max_iter = self.config.max_iterations;
        // The posterior vectors of the last `averaging_window` iterations
        // before the cap, for §6's averaging fallback; earlier iterations
        // keep no copy.
        let first_kept = max_iter.saturating_sub(self.config.averaging_window);
        let mut recent: Vec<Vec<f64>> = Vec::new();

        let mut iterations = 0;
        for iter in 0..max_iter {
            iterations = iter + 1;
            self.m_step(x);
            let ll = self.e_step(x);
            if self.config.transitivity {
                if let Some(cal) = calibrator {
                    cal.calibrate(&mut self.gammas);
                }
            }
            ll_history.push(ll);
            if iter >= first_kept {
                recent.push(self.gammas.clone());
            }
            if iter > 0 {
                let prev = ll_history[iter - 1];
                if ((ll - prev).abs() / n) < self.config.tolerance {
                    converged = true;
                    break;
                }
            }
        }

        if !converged && recent.len() > 1 {
            // §6: average the posteriors over the last `window` iterations
            // when terminating on the iteration cap.
            let k = recent.len() as f64;
            for i in 0..self.gammas.len() {
                self.gammas[i] = recent.iter().map(|g| g[i]).sum::<f64>() / k;
            }
        }

        FitSummary {
            iterations,
            converged,
            ll_history,
        }
    }

    /// Observed-data log-likelihood `Σ_i log(π_M p_M(x_i) + π_U p_U(x_i))`.
    ///
    /// Unlike the expected complete-data likelihood (Eq. 4) returned by
    /// [`GenerativeModel::e_step`], this quantity is guaranteed
    /// non-decreasing under *exact* EM (no regularization, no correlation
    /// sharing) — used by tests and diagnostics.
    ///
    /// # Panics
    /// Panics if the model has no fitted parameters yet.
    pub fn observed_log_likelihood(&self, x: &Matrix) -> f64 {
        let m_dist = self.m_dist.as_ref().expect("model not fitted");
        let u_dist = self.u_dist.as_ref().expect("model not fitted");
        let log_pi_m = self.pi_m.ln();
        let log_pi_u = (1.0 - self.pi_m).ln();
        (0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let lm = log_pi_m + m_dist.log_pdf(row);
                let lu = log_pi_u + u_dist.log_pdf(row);
                let max = lm.max(lu);
                max + ((lm - max).exp() + (lu - max).exp()).ln()
            })
            .sum()
    }

    /// Posterior match probability for a single new feature vector using
    /// the fitted parameters (inference on unseen pairs, Figure 4(c)).
    ///
    /// # Panics
    /// Panics if the model is unfitted.
    pub fn posterior(&self, row: &[f64]) -> f64 {
        let m_dist = self.m_dist.as_ref().expect("model not fitted");
        let u_dist = self.u_dist.as_ref().expect("model not fitted");
        let lm = self.pi_m.ln() + m_dist.log_pdf(row);
        let lu = (1.0 - self.pi_m).ln() + u_dist.log_pdf(row);
        eq3_posterior(lm, lu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes an easy two-cluster dataset: matches near 0.9,
    /// unmatches near 0.1, with `d` features in the given groups.
    fn easy_data(
        n_match: usize,
        n_unmatch: usize,
        sizes: &[usize],
        seed: u64,
    ) -> (Matrix, Vec<bool>) {
        let d: usize = sizes.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity((n_match + n_unmatch) * d);
        let mut truth = Vec::new();
        for _ in 0..n_match {
            for _ in 0..d {
                data.push(0.9 + rng.gen_range(-0.08..0.08));
            }
            truth.push(true);
        }
        for _ in 0..n_unmatch {
            for _ in 0..d {
                data.push(0.1 + rng.gen_range(-0.08..0.08));
            }
            truth.push(false);
        }
        (Matrix::from_vec(n_match + n_unmatch, d, data), truth)
    }

    #[test]
    fn separable_clusters_are_recovered() {
        let (x, truth) = easy_data(20, 180, &[2, 3], 1);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2, 3]));
        let summary = m.fit(&x, None);
        assert_eq!(m.labels(), truth);
        assert!(summary.iterations >= 1);
    }

    #[test]
    fn heavy_imbalance_is_handled() {
        // 5 matches vs 500 unmatches — the §4 regime.
        let (x, truth) = easy_data(5, 500, &[2, 2], 2);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2, 2]));
        m.fit(&x, None);
        assert_eq!(m.labels(), truth);
        assert!(
            m.pi_m() < 0.05,
            "prior should reflect the imbalance, got {}",
            m.pi_m()
        );
    }

    #[test]
    fn gammas_stay_probabilities() {
        let (x, _) = easy_data(10, 90, &[3], 3);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[3]));
        m.fit(&x, None);
        assert!(m.gammas().iter().all(|g| (0.0..=1.0).contains(g)));
    }

    #[test]
    fn observed_likelihood_is_monotone_under_exact_em() {
        // The classical EM guarantee applies to the observed-data
        // likelihood when the M-step is the exact maximizer — i.e. no
        // regularization, no correlation sharing, no calibration.
        let (x, _) = easy_data(15, 85, &[4], 4);
        let cfg = ZeroErConfig {
            transitivity: false,
            shared_correlation: false,
            regularization: Regularization::None,
            feature_dependence: FeatureDependence::Full,
            ..Default::default()
        };
        let mut m = GenerativeModel::new(cfg, GroupLayout::from_sizes(&[4]));
        m.initialize(&x);
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..30 {
            m.m_step(&x);
            let obs = m.observed_log_likelihood(&x);
            assert!(
                obs >= prev - 1e-6,
                "observed likelihood decreased: {prev} -> {obs}"
            );
            prev = obs;
            m.e_step(&x);
        }
    }

    #[test]
    fn all_ablation_variants_run() {
        let (x, _) = easy_data(10, 90, &[2, 2, 1], 5);
        let layout = GroupLayout::from_sizes(&[2, 2, 1]);
        for dep in [
            FeatureDependence::Full,
            FeatureDependence::Independent,
            FeatureDependence::Grouped,
        ] {
            for reg in [
                Regularization::None,
                Regularization::Tikhonov,
                Regularization::Adaptive,
            ] {
                let mut m = GenerativeModel::new(ZeroErConfig::ablation(dep, reg), layout.clone());
                let s = m.fit(&x, None);
                assert!(s.iterations >= 1, "{dep:?}/{reg:?} did not run");
                assert!(
                    m.gammas().iter().all(|g| g.is_finite()),
                    "{dep:?}/{reg:?} NaN gammas"
                );
            }
        }
    }

    #[test]
    fn effective_layout_respects_dependence_mode() {
        let layout = GroupLayout::from_sizes(&[2, 3]);
        let full = GenerativeModel::new(
            ZeroErConfig::ablation(FeatureDependence::Full, Regularization::Adaptive),
            layout.clone(),
        );
        assert_eq!(full.layout().num_groups(), 1);
        let ind = GenerativeModel::new(
            ZeroErConfig::ablation(FeatureDependence::Independent, Regularization::Adaptive),
            layout.clone(),
        );
        assert_eq!(ind.layout().num_groups(), 5);
        let grp = GenerativeModel::new(ZeroErConfig::default(), layout);
        assert_eq!(grp.layout().num_groups(), 2);
    }

    #[test]
    fn degenerate_feature_survives_with_adaptive_regularization() {
        // One feature is constant 1.0 for matches (the Figure 3 f1
        // pathology). Without regularization this is a singularity;
        // adaptive regularization must keep the fit finite and correct.
        let n_m = 10;
        let n_u = 90;
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..n_m {
            data.push(1.0); // degenerate feature
            data.push(0.9 + rng.gen_range(-0.05..0.05));
        }
        for _ in 0..n_u {
            data.push(rng.gen_range(0.0..0.5));
            data.push(0.1 + rng.gen_range(-0.05..0.05));
        }
        let x = Matrix::from_vec(n_m + n_u, 2, data);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::independent(2));
        m.fit(&x, None);
        let labels = m.labels();
        assert!(labels[..n_m].iter().all(|&l| l), "matches must be found");
        assert!(
            labels[n_m..].iter().all(|&l| !l),
            "unmatches must stay unmatched"
        );
    }

    #[test]
    fn posterior_inference_on_new_rows() {
        let (x, _) = easy_data(10, 90, &[2], 8);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2]));
        m.fit(&x, None);
        assert!(m.posterior(&[0.92, 0.88]) > 0.5);
        assert!(m.posterior(&[0.05, 0.12]) < 0.5);
    }

    #[test]
    fn single_row_matrix_does_not_crash() {
        let x = Matrix::from_rows(&[&[0.9, 0.8]]);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2]));
        let s = m.fit(&x, None);
        assert!(s.iterations >= 1);
        assert!(m.gammas()[0].is_finite());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let x = Matrix::from_rows(&[&[0.9, 0.8, 0.7]]);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2]));
        m.initialize(&x);
    }
}

/// The fused, block-only M-step against the per-class, dense one it
/// replaced, to the bit: means, covariance blocks, π_M and the posteriors
/// of the next E-step, for every feature dependence × correlation
/// sharing × regularization, on singleton groups, one group spanning all
/// columns and mixed groups, with posteriors of exactly 0 and 1.
#[cfg(test)]
mod m_step_parity {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use zeroer_linalg::stats::{
        correlation_to_covariance, covariance_to_correlation, weighted_mean, weighted_variances,
    };

    /// The earlier M-step, verbatim, over explicit state.
    struct Reference {
        config: ZeroErConfig,
        layout: GroupLayout,
        shared_corr: Option<Matrix>,
        pi_m: f64,
        m: Option<ClassParams>,
        u: Option<ClassParams>,
    }

    impl Reference {
        fn new(config: ZeroErConfig, layout: GroupLayout) -> Self {
            Self {
                config,
                layout,
                shared_corr: None,
                pi_m: 0.5,
                m: None,
                u: None,
            }
        }

        fn regularization_diag(&self, mu_m: &[f64], mu_u: &[f64]) -> Vec<f64> {
            let d = mu_m.len();
            match self.config.regularization {
                Regularization::None => vec![0.0; d],
                Regularization::Tikhonov => vec![self.config.kappa; d],
                Regularization::Adaptive => mu_m
                    .iter()
                    .zip(mu_u)
                    .map(|(&a, &b)| self.config.kappa * (a - b) * (a - b))
                    .collect(),
            }
        }

        fn class_covariance(&mut self, x: &Matrix, weights: &[f64], mean: &[f64]) -> BlockDiag {
            if self.config.shared_correlation {
                if self.shared_corr.is_none() {
                    let ones = vec![1.0; x.rows()];
                    let all_mean = weighted_mean(x, &ones);
                    let all_cov = weighted_covariance(x, &ones, &all_mean);
                    self.shared_corr = Some(covariance_to_correlation(&all_cov));
                }
                let r = self.shared_corr.as_ref().expect("just populated");
                let var = weighted_variances(x, weights, mean);
                let sd: Vec<f64> = var.iter().map(|v| v.max(0.0).sqrt()).collect();
                let full = correlation_to_covariance(r, &sd);
                BlockDiag::from_dense(&full, &self.layout)
            } else {
                let full = weighted_covariance(x, weights, mean);
                BlockDiag::from_dense(&full, &self.layout)
            }
        }

        fn m_step(&mut self, x: &Matrix, gammas: &[f64]) {
            let n = x.rows() as f64;
            let gm: Vec<f64> = gammas.to_vec();
            let gu: Vec<f64> = gm.iter().map(|g| 1.0 - g).collect();
            let nm: f64 = gm.iter().sum();

            self.pi_m = (nm / n).clamp(PRIOR_FLOOR, 1.0 - PRIOR_FLOOR);

            let mu_m = weighted_mean(x, &gm);
            let mu_u = weighted_mean(x, &gu);

            let mut cov_m = self.class_covariance(x, &gm, &mu_m);
            let mut cov_u = self.class_covariance(x, &gu, &mu_u);

            let k = self.regularization_diag(&mu_m, &mu_u);
            cov_m.add_diag(&k);
            cov_u.add_diag(&k);
            let floor = vec![VARIANCE_FLOOR; self.layout.dim()];
            cov_m.add_diag(&floor);
            cov_u.add_diag(&floor);

            self.m = Some(ClassParams {
                mean: mu_m,
                cov: cov_m,
            });
            self.u = Some(ClassParams {
                mean: mu_u,
                cov: cov_u,
            });
        }

        /// Eq. 3 posteriors of every row under the reference parameters.
        fn posteriors(&self, x: &Matrix) -> Vec<f64> {
            let dist = |p: &ClassParams| BlockGaussian::new(p.mean.clone(), &p.cov).unwrap();
            let (md, ud) = (
                dist(self.m.as_ref().unwrap()),
                dist(self.u.as_ref().unwrap()),
            );
            (0..x.rows())
                .map(|i| {
                    let row = x.row(i);
                    let lm = self.pi_m.ln() + md.log_pdf(row);
                    let lu = (1.0 - self.pi_m).ln() + ud.log_pdf(row);
                    eq3_posterior(lm, lu)
                })
                .collect()
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_params_equal(got: &ClassParams, want: &ClassParams, case: &str) {
        assert_eq!(bits(&got.mean), bits(&want.mean), "mean, {case}");
        assert_eq!(got.cov.layout(), want.cov.layout(), "layout, {case}");
        for (g, (a, b)) in got.cov.blocks().iter().zip(want.cov.blocks()).enumerate() {
            assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "block {g}, {case}");
        }
    }

    /// `n` rows over `d` columns: two overlapping clusters, one constant
    /// column, and one column of exact zeros and ones.
    fn rows(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * d)
            .map(|k| {
                let (i, j) = (k / d, k % d);
                match j {
                    1 => 0.5,
                    3 => f64::from(u8::from(i % 3 == 0)),
                    _ => {
                        let centre = if i % 6 == 0 { 0.85 } else { 0.2 };
                        (centre + rng.gen_range(-0.15..0.15f64)).clamp(0.0, 1.0)
                    }
                }
            })
            .collect();
        Matrix::from_vec(n, d, data)
    }

    #[test]
    fn m_step_matches_dense_per_class_reference() {
        let x = rows(180, 7, 3);
        let layouts = [
            GroupLayout::independent(7),
            GroupLayout::single_group(7),
            GroupLayout::from_sizes(&[2, 1, 3, 1]),
        ];
        for dep in [
            FeatureDependence::Full,
            FeatureDependence::Independent,
            FeatureDependence::Grouped,
        ] {
            for shared_correlation in [false, true] {
                for reg in [
                    Regularization::None,
                    Regularization::Tikhonov,
                    Regularization::Adaptive,
                ] {
                    for layout in &layouts {
                        let config = ZeroErConfig {
                            shared_correlation,
                            ..ZeroErConfig::ablation(dep, reg)
                        };
                        let mut model = GenerativeModel::new(config.clone(), layout.clone());
                        let mut reference = Reference::new(config, model.layout().clone());
                        model.initialize(&x);
                        for round in 0..4 {
                            let case = format!(
                                "{dep:?}, shared {shared_correlation}, {reg:?}, \
                                 layout {layout:?}, round {round}"
                            );
                            reference.m_step(&x, model.gammas());
                            model.m_step(&x);
                            assert_eq!(model.pi_m().to_bits(), reference.pi_m.to_bits(), "{case}");
                            assert_params_equal(
                                model.m_params().unwrap(),
                                reference.m.as_ref().unwrap(),
                                &case,
                            );
                            assert_params_equal(
                                model.u_params().unwrap(),
                                reference.u.as_ref().unwrap(),
                                &case,
                            );
                            model.e_step(&x);
                            assert_eq!(
                                bits(model.gammas()),
                                bits(&reference.posteriors(&x)),
                                "posteriors, {case}"
                            );
                            // Pin some rows to exactly 0 and 1 for the next
                            // round, as calibration and initialization do.
                            for (i, g) in model.gammas_mut().iter_mut().enumerate() {
                                match i % 9 {
                                    0 => *g = 0.0,
                                    4 => *g = 1.0,
                                    _ => {}
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Fits that stop at the iteration cap average the posteriors of the
/// last `averaging_window` iterations (§6). The loop keeps copies only
/// from the first iteration that can fall in that window; these tests
/// check it against a reference loop over the public steps that keeps
/// every iteration's copy in a ring buffer, to the bit.
#[cfg(test)]
mod capped_fit {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Overlapping classes, so EM keeps moving and never converges at a
    /// tolerance this small.
    fn overlapping_rows(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * 4)
            .map(|k| {
                let centre = if (k / 4) % 5 == 0 { 0.7 } else { 0.3 };
                (centre + rng.gen_range(-0.3..0.3f64)).clamp(0.0, 1.0)
            })
            .collect();
        Matrix::from_vec(n, 4, data)
    }

    /// Run [`GenerativeModel::fit`]'s loop as it was: every iteration's
    /// posteriors enter a ring buffer of `averaging_window` vectors.
    fn reference_fit(
        config: &ZeroErConfig,
        x: &Matrix,
        calibrator: Option<&TransitivityCalibrator>,
    ) -> (Vec<f64>, bool, Vec<f64>) {
        let mut m = GenerativeModel::new(config.clone(), GroupLayout::from_sizes(&[2, 2]));
        m.initialize(x);
        let n = x.rows().max(1) as f64;
        let window = config.averaging_window;
        let (mut recent, mut ll_history): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
        let mut converged = false;
        for iter in 0..config.max_iterations {
            m.m_step(x);
            let ll = m.e_step(x);
            if config.transitivity {
                if let Some(cal) = calibrator {
                    cal.calibrate(m.gammas_mut());
                }
            }
            ll_history.push(ll);
            if recent.len() == window {
                recent.remove(0);
            }
            recent.push(m.gammas().to_vec());
            if iter > 0 && ((ll - ll_history[iter - 1]).abs() / n) < config.tolerance {
                converged = true;
                break;
            }
        }
        let mut gammas = m.gammas().to_vec();
        if !converged && recent.len() > 1 {
            let k = recent.len() as f64;
            for (i, g) in gammas.iter_mut().enumerate() {
                *g = recent.iter().map(|r| r[i]).sum::<f64>() / k;
            }
        }
        (gammas, converged, ll_history)
    }

    #[test]
    fn capped_fits_average_the_same_window() {
        let x = overlapping_rows(120, 9);
        let pairs: Vec<(usize, usize)> =
            (0..x.rows()).map(|i| (i % 17, (i * 7) % 23 + 17)).collect();
        let calibrator = TransitivityCalibrator::new(&pairs);
        // Caps below, at and above the window; a window of one averages
        // nothing.
        for (max_iterations, averaging_window) in [(5, 20), (20, 20), (27, 20), (9, 3), (6, 1)] {
            for transitivity in [false, true] {
                let config = ZeroErConfig {
                    max_iterations,
                    averaging_window,
                    transitivity,
                    tolerance: f64::MIN_POSITIVE,
                    ..Default::default()
                };
                let mut m = GenerativeModel::new(config.clone(), GroupLayout::from_sizes(&[2, 2]));
                let summary = m.fit(&x, Some(&calibrator));
                let (gammas, converged, ll_history) = reference_fit(&config, &x, Some(&calibrator));
                let case = format!(
                    "cap {max_iterations}, window {averaging_window}, transitivity {transitivity}"
                );
                assert!(!summary.converged && !converged, "{case} converged");
                assert_eq!(summary.iterations, max_iterations, "{case}");
                let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&summary.ll_history), bits(&ll_history), "{case}");
                assert_eq!(bits(m.gammas()), bits(&gammas), "{case}");
            }
        }
    }
}

/// The batched, chunked, multi-threaded E-step against the scalar
/// per-row oracle, to the bit, on row counts around the chunk boundary
/// and with several chunks per worker.
#[cfg(test)]
mod e_step_parity {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sizes mix a singleton block (the diagonal fast path) with
    /// coupled ones.
    const SIZES: [usize; 3] = [2, 1, 3];

    /// `n` rows, every seventh near 0.9 and the rest near 0.1, with
    /// noise that differs per row so a row read from the wrong place
    /// changes the result.
    fn mixed_rows(n: usize, seed: u64) -> Matrix {
        let d: usize = SIZES.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * d)
            .map(|k| {
                let centre = if (k / d).is_multiple_of(7) { 0.9 } else { 0.1 };
                centre + rng.gen_range(-0.09..0.09)
            })
            .collect();
        Matrix::from_vec(n, d, data)
    }

    /// Runs `rounds` M/E steps, checking after each E-step that every
    /// posterior equals [`GenerativeModel::posterior`] of its row and
    /// that the returned log-likelihood equals the sequential scalar sum.
    fn assert_e_steps_match_scalar(x: &Matrix, rounds: usize) {
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&SIZES));
        m.initialize(x);
        for round in 0..rounds {
            m.m_step(x);
            let ll = m.e_step(x);
            let (md, ud) = (m.m_dist.as_ref().unwrap(), m.u_dist.as_ref().unwrap());
            let (log_pi_m, log_pi_u) = (m.pi_m.ln(), (1.0 - m.pi_m).ln());
            let mut want = 0.0;
            for i in 0..x.rows() {
                let row = x.row(i);
                let g = m.posterior(row);
                assert_eq!(
                    m.gammas()[i].to_bits(),
                    g.to_bits(),
                    "row {i} of {} in round {round}",
                    x.rows()
                );
                let lm = log_pi_m + md.log_pdf(row);
                let lu = log_pi_u + ud.log_pdf(row);
                want += g * lm + (1.0 - g) * lu;
            }
            assert_eq!(
                ll.to_bits(),
                want.to_bits(),
                "log-likelihood of {} rows in round {round}",
                x.rows()
            );
        }
    }

    #[test]
    fn e_step_matches_scalar_around_the_chunk_boundary() {
        for n in [1, E_STEP_CHUNK - 1, E_STEP_CHUNK, E_STEP_CHUNK + 1] {
            assert_e_steps_match_scalar(&mixed_rows(n, n as u64), 3);
        }
    }

    #[test]
    fn e_step_matches_scalar_with_several_chunks_per_worker() {
        // 25 chunks, the last one partial: 4 per worker at the 8-thread
        // cap, more on fewer cores.
        let n = 3 * 8 * E_STEP_CHUNK + 517;
        assert_e_steps_match_scalar(&mixed_rows(n, 11), 2);
    }

    #[test]
    fn densities_do_not_depend_on_the_thread_count() {
        let n = 7 * E_STEP_CHUNK + 3;
        let x = mixed_rows(n, 5);
        let mut m = GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&SIZES));
        m.initialize(&x);
        m.m_step(&x);
        let dists = [m.m_dist.as_ref().unwrap(), m.u_dist.as_ref().unwrap()];
        for threads in [1, 2, 3, 4, 8, 64] {
            let (mut pm, mut pu) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            class_log_densities(&x, dists, threads, &mut pm, &mut pu);
            for i in 0..n {
                let row = x.row(i);
                assert_eq!(
                    pm[i].to_bits(),
                    dists[0].log_pdf(row).to_bits(),
                    "M row {i}, {threads} threads"
                );
                assert_eq!(
                    pu[i].to_bits(),
                    dists[1].log_pdf(row).to_bits(),
                    "U row {i}, {threads} threads"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random feature matrices with values in [0, 1] (the post-normalization
    /// domain the model is specified over).
    fn feature_matrix() -> impl Strategy<Value = Matrix> {
        (4usize..40).prop_flat_map(|n| {
            proptest::collection::vec(0.0f64..1.0, n * 4)
                .prop_map(move |v| Matrix::from_vec(n, 4, v))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn posteriors_are_probabilities_on_arbitrary_data(x in feature_matrix()) {
            let mut m = GenerativeModel::new(
                ZeroErConfig { transitivity: false, ..Default::default() },
                GroupLayout::from_sizes(&[2, 2]),
            );
            m.fit(&x, None);
            for &g in m.gammas() {
                prop_assert!(g.is_finite());
                prop_assert!((0.0..=1.0).contains(&g), "gamma out of range: {g}");
            }
            prop_assert!((0.0..=1.0).contains(&m.pi_m()));
        }

        #[test]
        fn fitting_is_deterministic(x in feature_matrix()) {
            let cfg = ZeroErConfig::default();
            let layout = GroupLayout::from_sizes(&[2, 2]);
            let mut a = GenerativeModel::new(cfg.clone(), layout.clone());
            let mut b = GenerativeModel::new(cfg, layout);
            a.fit(&x, None);
            b.fit(&x, None);
            prop_assert_eq!(a.gammas(), b.gammas());
        }

        #[test]
        fn covariances_stay_positive_definite(x in feature_matrix()) {
            let mut m = GenerativeModel::new(
                ZeroErConfig { transitivity: false, ..Default::default() },
                GroupLayout::from_sizes(&[2, 2]),
            );
            m.initialize(&x);
            for _ in 0..5 {
                m.m_step(&x);
                // Every fitted covariance must factor (PD after floor+reg).
                prop_assert!(m.m_params().unwrap().cov.factor().is_ok());
                prop_assert!(m.u_params().unwrap().cov.factor().is_ok());
                m.e_step(&x);
            }
        }

        #[test]
        fn posterior_inference_is_bounded(x in feature_matrix(), probe in proptest::collection::vec(0.0f64..1.0, 4)) {
            let mut m = GenerativeModel::new(
                ZeroErConfig { transitivity: false, ..Default::default() },
                GroupLayout::from_sizes(&[2, 2]),
            );
            m.fit(&x, None);
            let p = m.posterior(&probe);
            prop_assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    }
}
