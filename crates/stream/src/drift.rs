//! Streaming drift detection against the frozen model's expectations.
//!
//! A frozen [`ModelSnapshot`] encodes what
//! candidate pairs *should* look like: per-feature mixture moments in
//! the prepared (imputed + min-max scaled) feature space, and a match
//! prior `π_M`. As the live store grows past the bootstrap
//! distribution, the stream's scored candidates wander away from those
//! expectations — the signal that the model has gone stale and a
//! refit ([`crate::StreamPipeline::refit`],
//! [`crate::LinkPipeline::refit`]) is due.
//!
//! [`DriftMonitor`] maintains streaming summaries of everything the
//! scoring hot path already computes — prepared feature columns,
//! posteriors, match decisions — and compares them against the frozen
//! baseline. The headline number is [`DriftMonitor::divergence`]: the
//! largest per-dimension shift of the stream's mean away from the
//! baseline mean, in units of the baseline spread (a z-shift). A
//! divergence of `w` reads as "some feature's streaming mean sits `w`
//! baseline standard deviations from where the model expects it".
//! `StreamOptions::refresh_watermark` compares this value against a
//! configurable threshold to auto-trigger refit, exactly the way
//! `compact_watermark` triggers compaction.
//!
//! Determinism: accumulation is *observational* (nothing here feeds
//! back into scoring) and *thread-count independent*. Parallel ingest
//! workers compute one `DriftSample` per record — sums over that
//! record's candidate rows, in candidate order — and the single writer
//! folds samples in ingest order, so the monitor passes through exactly
//! the float states sequential ingest produces. The auto-trigger
//! therefore fires at the same batch boundary at any thread count.
//!
//! Published metrics (`drift.*` gauges, fixed-point micro-units because
//! gauges are `u64`; see `crates/obs/README.md`): divergence, match
//! rate vs. the baseline `π_M`, posterior mean/spread, and window
//! sizes, plus a `drift.posterior` histogram of per-record mean
//! posteriors.

use zeroer_core::{ModelSnapshot, ScoreBatch};

/// Fixed-point scale for publishing fractional drift values through the
/// `u64`-only gauge API: 1.0 → 1\_000\_000.
const MICRO: f64 = 1e6;

/// Baseline spreads below this floor are clamped before dividing, so a
/// feature the fit considered (near-)constant cannot turn numeric noise
/// into unbounded divergence.
const SPREAD_FLOOR: f64 = 1e-6;

/// Per-record summary of one scored candidate list: sums over the
/// record's prepared feature rows and posteriors, in candidate order.
/// Computed where the scoring happened (possibly on a worker thread)
/// and folded into the [`DriftMonitor`] sequentially in ingest order,
/// which keeps accumulation bit-identical at any thread count.
#[derive(Debug, Clone, Default)]
pub(crate) struct DriftSample {
    /// Candidate rows summed (the record's candidate count).
    rows: u64,
    /// Per-feature sums of the prepared (imputed + normalized) values.
    feature_sums: Vec<f64>,
    /// Per-feature sums of squares.
    feature_sumsqs: Vec<f64>,
    /// Sum of the candidates' posteriors.
    posterior_sum: f64,
    /// Sum of squared posteriors.
    posterior_sumsq: f64,
}

impl DriftSample {
    /// Summarizes the batch buffers `score_candidates` just filled.
    /// Returns `None` for an empty candidate list, whose stale buffers
    /// belong to some earlier record.
    pub(crate) fn from_batch(batch: &ScoreBatch, candidates: usize) -> Option<Self> {
        if candidates == 0 {
            return None;
        }
        let cols = batch.cols();
        let scores = batch.scores();
        debug_assert_eq!(cols.rows(), candidates);
        debug_assert_eq!(scores.len(), candidates);
        let dim = cols.cols();
        let mut feature_sums = vec![0.0; dim];
        let mut feature_sumsqs = vec![0.0; dim];
        for j in 0..dim {
            let (mut s, mut sq) = (0.0, 0.0);
            for &v in cols.col(j) {
                s += v;
                sq += v * v;
            }
            feature_sums[j] = s;
            feature_sumsqs[j] = sq;
        }
        let (mut ps, mut psq) = (0.0, 0.0);
        for &p in scores {
            ps += p;
            psq += p * p;
        }
        Some(Self {
            rows: candidates as u64,
            feature_sums,
            feature_sumsqs,
            posterior_sum: ps,
            posterior_sumsq: psq,
        })
    }
}

/// Streaming posterior/feature summaries compared against the frozen
/// model's expectations. One per pipeline; see the module docs for the
/// determinism and publication contract.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    /// Per-feature mixture means of the baseline model (prepared space).
    baseline_means: Vec<f64>,
    /// Per-feature mixture spreads (standard deviations) of the baseline.
    baseline_spreads: Vec<f64>,
    /// The baseline match prior `π_M` — the model's expected match rate
    /// and expected posterior mean.
    baseline_rate: f64,
    /// Per-feature streaming sums since the last (re)base.
    feature_sums: Vec<f64>,
    feature_sumsqs: Vec<f64>,
    /// Candidate rows folded into the feature/posterior sums.
    rows: u64,
    posterior_sum: f64,
    posterior_sumsq: f64,
    /// Records observed in the window (with or without candidates).
    records: u64,
    /// Candidates observed in the window.
    candidates: u64,
    /// Above-threshold match decisions in the window.
    matches: u64,
}

impl DriftMonitor {
    /// A monitor baselined on a frozen model's mixture moments.
    pub fn new(snapshot: &ModelSnapshot) -> Self {
        let (baseline_means, baseline_spreads) = snapshot.mixture_moments();
        let dim = baseline_means.len();
        Self {
            baseline_means,
            baseline_spreads,
            baseline_rate: snapshot.pi_m,
            feature_sums: vec![0.0; dim],
            feature_sumsqs: vec![0.0; dim],
            rows: 0,
            posterior_sum: 0.0,
            posterior_sumsq: 0.0,
            records: 0,
            candidates: 0,
            matches: 0,
        }
    }

    /// Folds one ingested record's outcome into the window. `sample`
    /// carries the feature/posterior sums (`None` for candidate-less
    /// records, which still contribute to the match-rate window).
    pub(crate) fn fold(&mut self, candidates: usize, matched: usize, sample: Option<&DriftSample>) {
        self.records += 1;
        self.candidates += candidates as u64;
        self.matches += matched as u64;
        if let Some(s) = sample {
            self.rows += s.rows;
            for (acc, v) in self.feature_sums.iter_mut().zip(&s.feature_sums) {
                *acc += v;
            }
            for (acc, v) in self.feature_sumsqs.iter_mut().zip(&s.feature_sumsqs) {
                *acc += v;
            }
            self.posterior_sum += s.posterior_sum;
            self.posterior_sumsq += s.posterior_sumsq;
        }
    }

    /// Re-baselines on a freshly fitted model and clears the window —
    /// called after every successful refit.
    pub(crate) fn rebase(&mut self, snapshot: &ModelSnapshot) {
        *self = Self::new(snapshot);
    }

    /// Clears the streaming window, keeping the baseline — used after a
    /// failed auto-refit so the trigger does not re-fire every record.
    pub(crate) fn clear_window(&mut self) {
        let dim = self.baseline_means.len();
        self.feature_sums = vec![0.0; dim];
        self.feature_sumsqs = vec![0.0; dim];
        self.rows = 0;
        self.posterior_sum = 0.0;
        self.posterior_sumsq = 0.0;
        self.records = 0;
        self.candidates = 0;
        self.matches = 0;
    }

    /// Records observed since the last (re)base.
    pub fn window_records(&self) -> u64 {
        self.records
    }

    /// Streaming match rate (above-threshold decisions per candidate);
    /// 0 before any candidate.
    pub fn match_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.matches as f64 / self.candidates as f64
        }
    }

    /// The baseline match prior `π_M`.
    pub fn baseline_rate(&self) -> f64 {
        self.baseline_rate
    }

    /// Mean posterior over the window's scored candidates.
    pub fn posterior_mean(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.posterior_sum / self.rows as f64
        }
    }

    /// Posterior spread (standard deviation) over the window.
    pub fn posterior_spread(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let mean = self.posterior_mean();
        (self.posterior_sumsq / self.rows as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }

    /// Largest per-feature z-shift of the streaming mean away from the
    /// baseline mixture mean (in baseline-spread units); 0 before any
    /// scored candidate.
    pub fn max_feature_shift(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let n = self.rows as f64;
        let mut max = 0.0f64;
        for ((&sum, &bm), &bs) in self
            .feature_sums
            .iter()
            .zip(&self.baseline_means)
            .zip(&self.baseline_spreads)
        {
            let shift = (sum / n - bm).abs() / bs.max(SPREAD_FLOOR);
            max = max.max(shift);
        }
        max
    }

    /// The headline divergence: the largest z-shift across every
    /// feature dimension *and* the posterior dimension (whose baseline
    /// is `π_M` with the Bernoulli spread `sqrt(π_M (1 − π_M))`, since
    /// a well-separated fit concentrates posteriors near 0 and 1).
    /// `StreamOptions::refresh_watermark` compares against this value.
    pub fn divergence(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let post_spread = (self.baseline_rate * (1.0 - self.baseline_rate))
            .max(0.0)
            .sqrt();
        let post_shift =
            (self.posterior_mean() - self.baseline_rate).abs() / post_spread.max(SPREAD_FLOOR);
        self.max_feature_shift().max(post_shift)
    }

    /// Publishes the window as `drift.*` gauges (fixed-point micros)
    /// and records the window's mean posterior into the
    /// `drift.posterior` histogram. Called at ingest-call boundaries
    /// when the pipeline's metrics are on.
    pub fn publish(&self) {
        let micros = |v: f64| (v.max(0.0) * MICRO) as u64;
        zeroer_obs::gauge("drift.divergence_micros").set(micros(self.divergence()));
        zeroer_obs::gauge("drift.max_feature_shift_micros").set(micros(self.max_feature_shift()));
        zeroer_obs::gauge("drift.match_rate_micros").set(micros(self.match_rate()));
        zeroer_obs::gauge("drift.baseline_match_rate_micros").set(micros(self.baseline_rate));
        zeroer_obs::gauge("drift.posterior_mean_micros").set(micros(self.posterior_mean()));
        zeroer_obs::gauge("drift.posterior_spread_micros").set(micros(self.posterior_spread()));
        zeroer_obs::gauge("drift.window_records").set(self.records);
        zeroer_obs::gauge("drift.window_candidates").set(self.candidates);
        if self.rows > 0 {
            zeroer_obs::histogram("drift.posterior").record(micros(self.posterior_mean()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ModelSnapshot {
        // Two singleton groups: feature 0 ~ (M: 0.9/0.01, U: 0.1/0.01),
        // feature 1 ~ (M: 0.5/0.04, U: 0.5/0.04), pi_m = 0.25.
        ModelSnapshot {
            pi_m: 0.25,
            group_sizes: vec![1, 1],
            mean_m: vec![0.9, 0.5],
            mean_u: vec![0.1, 0.5],
            cov_m: vec![vec![0.01], vec![0.04]],
            cov_u: vec![vec![0.01], vec![0.04]],
            ranges: vec![(0.0, 1.0), (0.0, 1.0)],
            impute_means: vec![0.5, 0.5],
            feature_names: vec!["f0".into(), "f1".into()],
        }
    }

    #[test]
    fn mixture_moments_match_hand_computation() {
        let snap = snapshot();
        let (means, spreads) = snap.mixture_moments();
        // mean = 0.25*0.9 + 0.75*0.1 = 0.3
        assert!((means[0] - 0.3).abs() < 1e-12);
        assert!((means[1] - 0.5).abs() < 1e-12);
        // var = 0.25*(0.01+0.81) + 0.75*(0.01+0.01) - 0.09 = 0.13
        assert!((spreads[0] - 0.13f64.sqrt()).abs() < 1e-12);
        assert!((spreads[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fresh_monitor_reports_zero_divergence() {
        let m = DriftMonitor::new(&snapshot());
        assert_eq!(m.divergence(), 0.0);
        assert_eq!(m.window_records(), 0);
        assert_eq!(m.match_rate(), 0.0);
    }

    #[test]
    fn on_distribution_samples_stay_near_zero_and_shifts_diverge() {
        let snap = snapshot();
        let mut m = DriftMonitor::new(&snap);
        // Fold synthetic samples sitting exactly on the baseline means
        // with posteriors at pi_m: divergence must stay ~0.
        let on = DriftSample {
            rows: 4,
            feature_sums: vec![0.3 * 4.0, 0.5 * 4.0],
            feature_sumsqs: vec![0.3 * 0.3 * 4.0, 0.5 * 0.5 * 4.0],
            posterior_sum: 0.25 * 4.0,
            posterior_sumsq: 0.25 * 0.25 * 4.0,
        };
        for _ in 0..8 {
            m.fold(4, 1, Some(&on));
        }
        assert!(m.divergence() < 1e-9, "divergence {}", m.divergence());
        assert!((m.match_rate() - 0.25).abs() < 1e-12);

        // Now a shifted stream: feature 0 mean drifts to 0.7 — that is
        // (0.7 - 0.3) / sqrt(0.13) ≈ 1.11 baseline spreads.
        let mut shifted = DriftMonitor::new(&snap);
        let off = DriftSample {
            rows: 4,
            feature_sums: vec![0.7 * 4.0, 0.5 * 4.0],
            feature_sumsqs: vec![0.49 * 4.0, 0.25 * 4.0],
            posterior_sum: 0.25 * 4.0,
            posterior_sumsq: 0.0625 * 4.0,
        };
        shifted.fold(4, 1, Some(&off));
        let expect = 0.4 / 0.13f64.sqrt();
        assert!((shifted.divergence() - expect).abs() < 1e-9);
    }

    #[test]
    fn posterior_dimension_feeds_divergence() {
        let snap = snapshot();
        let mut m = DriftMonitor::new(&snap);
        // Posteriors collapse to ~1 while features stay on-baseline:
        // the posterior z-shift must carry the divergence.
        let s = DriftSample {
            rows: 2,
            feature_sums: vec![0.6, 1.0],
            feature_sumsqs: vec![0.18, 0.5],
            posterior_sum: 2.0,
            posterior_sumsq: 2.0,
        };
        m.fold(2, 2, Some(&s));
        let expect = 0.75 / (0.25f64 * 0.75).sqrt();
        assert!((m.divergence() - expect).abs() < 1e-9);
    }

    #[test]
    fn rebase_and_clear_window_reset_the_stream() {
        let snap = snapshot();
        let mut m = DriftMonitor::new(&snap);
        let s = DriftSample {
            rows: 1,
            feature_sums: vec![0.9, 0.9],
            feature_sumsqs: vec![0.81, 0.81],
            posterior_sum: 0.9,
            posterior_sumsq: 0.81,
        };
        m.fold(1, 1, Some(&s));
        assert!(m.divergence() > 0.0);
        m.clear_window();
        assert_eq!(m.divergence(), 0.0);
        assert_eq!(m.window_records(), 0);
        m.fold(1, 1, Some(&s));
        m.rebase(&snap);
        assert_eq!(m.divergence(), 0.0);
    }
}
