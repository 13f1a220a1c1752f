//! Frozen-model snapshots: serialize a fitted generative model and score
//! new pairs without re-running EM.
//!
//! The batch pipeline fits Θ = (π_M, µ_M, Σ_M, µ_U, Σ_U) by EM. A
//! [`ModelSnapshot`] freezes Θ together with the feature-replay state a
//! *new* pair needs to be scored consistently with the training run:
//! per-column min-max normalization ranges and per-column imputation
//! means (both captured from the fitted `FeatureSet`). The
//! [`SnapshotScorer`] then evaluates the E-step posterior (Eq. 3) for
//! single feature rows — pure inference, no mutation, no EM — which is
//! what the streaming ingest path runs per candidate pair.

use crate::json::{Json, JsonError};
use crate::model::{eq3_posterior, GenerativeModel};
use zeroer_linalg::block::{BlockDiag, GroupLayout};
use zeroer_linalg::gaussian::BlockGaussian;
use zeroer_linalg::stats::min_max_scale;
use zeroer_linalg::{ColMatrix, MahalanobisScratch, Matrix};

/// A serializable freeze of a fitted [`GenerativeModel`] plus the feature
/// normalization/imputation state needed to replay featurization on
/// unseen pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Match prior π_M.
    pub pi_m: f64,
    /// Effective covariance group sizes (the model's layout).
    pub group_sizes: Vec<usize>,
    /// M-class mean µ_M.
    pub mean_m: Vec<f64>,
    /// U-class mean µ_U.
    pub mean_u: Vec<f64>,
    /// M-class covariance blocks, row-major per group.
    pub cov_m: Vec<Vec<f64>>,
    /// U-class covariance blocks, row-major per group.
    pub cov_u: Vec<Vec<f64>>,
    /// Per-column min-max ranges from the training `FeatureSet`.
    pub ranges: Vec<(f64, f64)>,
    /// Per-column imputation means (mean of computable training rows).
    pub impute_means: Vec<f64>,
    /// Feature names, for diagnostics and schema checks.
    pub feature_names: Vec<String>,
}

fn block_to_vec(m: &Matrix) -> Vec<f64> {
    m.as_slice().to_vec()
}

fn blocks_of(cov: &BlockDiag) -> Vec<Vec<f64>> {
    cov.blocks().iter().map(block_to_vec).collect()
}

impl ModelSnapshot {
    /// Captures a fitted model plus the feature-replay state.
    ///
    /// `ranges` and `impute_means` come from the fitted `FeatureSet`
    /// (`FeatureSet::ranges` after `normalize()`, and
    /// `FeatureSet::impute_means`); `feature_names` from the featurizer.
    ///
    /// # Panics
    /// Panics if the model has not been fitted, or if the replay vectors
    /// do not match the model dimensionality.
    pub fn capture(
        model: &GenerativeModel,
        ranges: &[(f64, f64)],
        impute_means: &[f64],
        feature_names: &[String],
    ) -> Self {
        Self::capture_checked(model, ranges, impute_means, feature_names)
            .expect("refusing to snapshot non-finite model parameters (degenerate fit)")
    }

    /// Non-panicking [`ModelSnapshot::capture`]: returns `None` instead
    /// of panicking when the fit left non-finite parameters behind (a
    /// degenerate fit on too few or pathological pairs). Used by the
    /// linkage freeze, where a tiny within-table leg may legitimately be
    /// unfreezable while the cross model is fine.
    ///
    /// # Panics
    /// Still panics on *caller* errors: an unfitted model, or replay
    /// vectors that do not match the model dimensionality.
    pub fn capture_checked(
        model: &GenerativeModel,
        ranges: &[(f64, f64)],
        impute_means: &[f64],
        feature_names: &[String],
    ) -> Option<Self> {
        let m = model.m_params().expect("snapshot of an unfitted model");
        let u = model.u_params().expect("snapshot of an unfitted model");
        let d = model.layout().dim();
        assert_eq!(ranges.len(), d, "ranges/model dimensionality mismatch");
        assert_eq!(
            impute_means.len(),
            d,
            "imputation/model dimensionality mismatch"
        );
        assert_eq!(
            feature_names.len(),
            d,
            "names/model dimensionality mismatch"
        );
        let group_sizes: Vec<usize> = model.layout().iter().map(|(_, sz)| sz).collect();
        let all_finite = m.mean.iter().chain(&u.mean).all(|v| v.is_finite())
            && m.cov
                .blocks()
                .iter()
                .chain(u.cov.blocks())
                .all(|b| !b.has_non_finite())
            && ranges
                .iter()
                .all(|(lo, hi)| lo.is_finite() && hi.is_finite())
            && impute_means.iter().all(|v| v.is_finite());
        if !all_finite {
            return None;
        }
        Some(Self {
            pi_m: model.pi_m(),
            group_sizes,
            mean_m: m.mean.clone(),
            mean_u: u.mean.clone(),
            cov_m: blocks_of(&m.cov),
            cov_u: blocks_of(&u.cov),
            ranges: ranges.to_vec(),
            impute_means: impute_means.to_vec(),
            feature_names: feature_names.to_vec(),
        })
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.group_sizes.iter().sum()
    }

    /// Per-feature mean and spread (standard deviation) of the fitted
    /// two-component mixture, in the *prepared* (imputed + min-max
    /// scaled) feature space — the space [`ModelSnapshot::prepare_row`]
    /// and [`ModelSnapshot::prepare_columns`] map incoming pairs into.
    ///
    /// For feature `j` with per-class moments `(µ_Mj, σ²_Mj)` /
    /// `(µ_Uj, σ²_Uj)` and match prior `π_M`, the mixture moments are
    ///
    /// ```text
    /// µ_j  = π_M µ_Mj + (1 − π_M) µ_Uj
    /// σ²_j = π_M (σ²_Mj + µ_Mj²) + (1 − π_M)(σ²_Uj + µ_Uj²) − µ_j²
    /// ```
    ///
    /// This is the distribution the model *expects* prepared candidate
    /// features to follow, which makes it the natural drift baseline: a
    /// stream whose per-feature means wander many baseline spreads away
    /// from `µ_j` is no longer the population the model was fitted on.
    pub fn mixture_moments(&self) -> (Vec<f64>, Vec<f64>) {
        let d = self.dim();
        let mut means = Vec::with_capacity(d);
        let mut spreads = Vec::with_capacity(d);
        let pm = self.pi_m;
        let pu = 1.0 - self.pi_m;
        let mut j = 0;
        for (g, &sz) in self.group_sizes.iter().enumerate() {
            for k in 0..sz {
                let var_m = self.cov_m[g][k * sz + k];
                let var_u = self.cov_u[g][k * sz + k];
                let mm = self.mean_m[j];
                let mu = self.mean_u[j];
                let mean = pm * mm + pu * mu;
                let var = pm * (var_m + mm * mm) + pu * (var_u + mu * mu) - mean * mean;
                means.push(mean);
                spreads.push(var.max(0.0).sqrt());
                j += 1;
            }
        }
        (means, spreads)
    }

    /// Prepares a raw (pre-normalization) feature row for scoring, in
    /// place: missing values (`NaN`) are imputed with the training means,
    /// then every column is min-max scaled with the training ranges via
    /// the *same* [`min_max_scale`] rule `apply_min_max` uses (clamped to
    /// `[0, 1]`, degenerate spans map to 0), so out-of-range values on
    /// unseen pairs cannot destabilize the frozen model.
    ///
    /// # Panics
    /// Panics if the row has the wrong dimensionality.
    pub fn prepare_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.dim(), "row dimensionality mismatch");
        for (j, v) in row.iter_mut().enumerate() {
            if !v.is_finite() {
                *v = self.impute_means[j];
            }
            let (lo, hi) = self.ranges[j];
            *v = min_max_scale(*v, lo, hi);
        }
    }

    /// Column-wise [`ModelSnapshot::prepare_row`] over a whole batch:
    /// imputes `NaN` holes with the training means and min-max scales
    /// every entry, one contiguous feature column at a time. For any
    /// row, the operations applied (and their order across columns) are
    /// exactly those of `prepare_row`, so the prepared values are
    /// bit-identical to preparing each row individually.
    ///
    /// # Panics
    /// Panics if the batch has the wrong dimensionality.
    pub fn prepare_columns(&self, batch: &mut ColMatrix) {
        assert_eq!(batch.cols(), self.dim(), "batch dimensionality mismatch");
        for j in 0..batch.cols() {
            let mean = self.impute_means[j];
            let (lo, hi) = self.ranges[j];
            for v in batch.col_mut(j) {
                if !v.is_finite() {
                    *v = mean;
                }
                *v = min_max_scale(*v, lo, hi);
            }
        }
    }

    /// Builds the frozen scorer (factors the covariances once).
    ///
    /// # Errors
    /// Fails if a stored covariance block is not positive definite — a
    /// corrupted or hand-edited snapshot.
    pub fn scorer(&self) -> Result<SnapshotScorer, JsonError> {
        let layout = GroupLayout::from_sizes(&self.group_sizes);
        let build = |blocks: &[Vec<f64>]| -> Result<BlockDiag, JsonError> {
            if blocks.len() != self.group_sizes.len() {
                return Err(JsonError::schema("covariance block count mismatch"));
            }
            let mats = blocks
                .iter()
                .zip(&self.group_sizes)
                .map(|(b, &sz)| {
                    if b.len() != sz * sz {
                        return Err(JsonError::schema("covariance block size mismatch"));
                    }
                    Ok(Matrix::from_vec(sz, sz, b.clone()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(BlockDiag::from_blocks(mats))
        };
        let d = self.dim();
        if self.mean_m.len() != d || self.mean_u.len() != d {
            return Err(JsonError::schema("mean dimensionality mismatch"));
        }
        let _ = layout; // layout is implied by the blocks
        let m = BlockGaussian::new(self.mean_m.clone(), &build(&self.cov_m)?)
            .map_err(|_| JsonError::schema("M covariance is not positive definite"))?;
        let u = BlockGaussian::new(self.mean_u.clone(), &build(&self.cov_u)?)
            .map_err(|_| JsonError::schema("U covariance is not positive definite"))?;
        if !(0.0..=1.0).contains(&self.pi_m) {
            return Err(JsonError::schema("prior out of range"));
        }
        Ok(SnapshotScorer {
            pi_m: self.pi_m,
            m,
            u,
            snapshot: self.clone(),
        })
    }

    /// Renders to a JSON value (see [`ModelSnapshot::to_json`]).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("format".into(), Json::Str("zeroer-model-snapshot".into())),
            ("version".into(), Json::Num(1.0)),
            ("pi_m".into(), Json::Num(self.pi_m)),
            (
                "group_sizes".into(),
                Json::Arr(
                    self.group_sizes
                        .iter()
                        .map(|&s| Json::Num(s as f64))
                        .collect(),
                ),
            ),
            ("mean_m".into(), Json::nums(&self.mean_m)),
            ("mean_u".into(), Json::nums(&self.mean_u)),
            (
                "cov_m".into(),
                Json::Arr(self.cov_m.iter().map(|b| Json::nums(b)).collect()),
            ),
            (
                "cov_u".into(),
                Json::Arr(self.cov_u.iter().map(|b| Json::nums(b)).collect()),
            ),
            (
                "ranges".into(),
                Json::Arr(
                    self.ranges
                        .iter()
                        .map(|&(lo, hi)| Json::nums(&[lo, hi]))
                        .collect(),
                ),
            ),
            ("impute_means".into(), Json::nums(&self.impute_means)),
            (
                "feature_names".into(),
                Json::Arr(
                    self.feature_names
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes to JSON text. Round-trips exactly: parsing the output
    /// reproduces every parameter bit-for-bit.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Reads a snapshot from a parsed JSON value.
    ///
    /// # Errors
    /// Fails on schema violations (missing fields, dimension mismatches).
    pub fn from_json_value(j: &Json) -> Result<Self, JsonError> {
        if j.get("format").and_then(Json::as_str) != Some("zeroer-model-snapshot") {
            return Err(JsonError::schema("not a zeroer model snapshot"));
        }
        if j.get("version").and_then(Json::as_f64) != Some(1.0) {
            return Err(JsonError::schema(
                "unsupported model-snapshot version (expected 1)",
            ));
        }
        let group_sizes = j
            .require("group_sizes")?
            .as_arr()
            .ok_or_else(|| JsonError::schema("group_sizes must be an array"))?
            .iter()
            .map(|v| {
                v.as_usize()
                    .ok_or_else(|| JsonError::schema("bad group size"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let blocks = |key: &str| -> Result<Vec<Vec<f64>>, JsonError> {
            j.require(key)?
                .as_arr()
                .ok_or_else(|| JsonError::schema(format!("{key} must be an array")))?
                .iter()
                .map(Json::to_nums)
                .collect()
        };
        let ranges = j
            .require("ranges")?
            .as_arr()
            .ok_or_else(|| JsonError::schema("ranges must be an array"))?
            .iter()
            .map(|pair| {
                let xs = pair.to_nums()?;
                if xs.len() != 2 {
                    return Err(JsonError::schema("each range must be [lo, hi]"));
                }
                Ok((xs[0], xs[1]))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let feature_names = j
            .require("feature_names")?
            .as_arr()
            .ok_or_else(|| JsonError::schema("feature_names must be an array"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(String::from)
                    .ok_or_else(|| JsonError::schema("feature names must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let snapshot = Self {
            pi_m: j
                .require("pi_m")?
                .as_f64()
                .ok_or_else(|| JsonError::schema("pi_m must be a number"))?,
            group_sizes,
            mean_m: j.require("mean_m")?.to_nums()?,
            mean_u: j.require("mean_u")?.to_nums()?,
            cov_m: blocks("cov_m")?,
            cov_u: blocks("cov_u")?,
            ranges,
            impute_means: j.require("impute_means")?.to_nums()?,
            feature_names,
        };
        let d = snapshot.dim();
        if snapshot.mean_m.len() != d
            || snapshot.mean_u.len() != d
            || snapshot.ranges.len() != d
            || snapshot.impute_means.len() != d
            || snapshot.feature_names.len() != d
        {
            return Err(JsonError::schema("snapshot dimensionality mismatch"));
        }
        Ok(snapshot)
    }

    /// Deserializes from JSON text.
    ///
    /// # Errors
    /// Fails on malformed JSON or schema violations.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Json::parse(text)?)
    }
}

/// Frozen-model inference: evaluates the E-step posterior for single
/// feature rows using snapshot parameters. Never mutates anything.
#[derive(Debug, Clone)]
pub struct SnapshotScorer {
    pi_m: f64,
    m: BlockGaussian,
    u: BlockGaussian,
    snapshot: ModelSnapshot,
}

impl SnapshotScorer {
    /// Posterior match probability of a *normalized* feature row — the
    /// same [`eq3_posterior`] softmax [`GenerativeModel::posterior`]
    /// evaluates, applied to the frozen parameters.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch.
    pub fn score(&self, row: &[f64]) -> f64 {
        let lm = self.pi_m.ln() + self.m.log_pdf(row);
        let lu = (1.0 - self.pi_m).ln() + self.u.log_pdf(row);
        eq3_posterior(lm, lu)
    }

    /// Scores a *raw* (pre-normalization, possibly `NaN`-holed) feature
    /// row: imputes and normalizes **in place** with the frozen training
    /// state, then scores. Takes `&mut` to avoid an extra allocation on
    /// the per-candidate hot path; the row is left in its prepared form.
    pub fn score_raw(&self, raw: &mut [f64]) -> f64 {
        self.snapshot.prepare_row(raw);
        self.score(raw)
    }

    /// Scores a whole batch of raw feature rows held column-major in
    /// `batch`: imputes/normalizes column-wise with the frozen training
    /// state, evaluates both class log-densities with one pass per
    /// covariance block over the batch, and returns one Eq. 3 posterior
    /// per row.
    ///
    /// Every value is bit-identical (`f64::to_bits`) to calling
    /// [`SnapshotScorer::score_raw`] on the corresponding row: the
    /// batched kernels preserve the scalar operation order per row, and
    /// the prior log-terms are the same `ln` the scalar path computes.
    /// The returned slice lives in `batch` and is valid until the next
    /// fill; all intermediates reuse `batch`'s buffers, so a warmed-up
    /// batch never allocates.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch.
    pub fn score_batch<'b>(&self, batch: &'b mut ScoreBatch) -> &'b [f64] {
        let n = batch.cols.rows();
        self.snapshot.prepare_columns(&mut batch.cols);
        batch.lm.clear();
        batch.lm.resize(n, 0.0);
        batch.lu.clear();
        batch.lu.resize(n, 0.0);
        self.m
            .log_pdf_batch(&batch.cols, &mut batch.maha, &mut batch.lm);
        self.u
            .log_pdf_batch(&batch.cols, &mut batch.maha, &mut batch.lu);
        let lpm = self.pi_m.ln();
        let lpu = (1.0 - self.pi_m).ln();
        batch.scores.clear();
        batch.scores.extend(
            batch
                .lm
                .iter()
                .zip(&batch.lu)
                .map(|(&lm, &lu)| eq3_posterior(lpm + lm, lpu + lu)),
        );
        &batch.scores
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.snapshot.dim()
    }

    /// The snapshot this scorer was built from.
    pub fn snapshot(&self) -> &ModelSnapshot {
        &self.snapshot
    }

    /// Frozen match prior.
    pub fn pi_m(&self) -> f64 {
        self.pi_m
    }
}

/// Reusable buffers for [`SnapshotScorer::score_batch`]: the column-major
/// raw-feature batch plus every intermediate the batched normalize → score
/// pipeline needs (per-class log-densities, Mahalanobis scratch, the
/// posterior output, and a scalar row buffer for callers that fall back to
/// per-row scoring).
///
/// One instance per scoring worker; buffers grow to the largest batch seen
/// and are reused thereafter, so the steady-state hot path is
/// allocation-free (the scalar path allocates a forward-solve vector per
/// covariance block per candidate).
#[derive(Debug, Clone, Default)]
pub struct ScoreBatch {
    cols: ColMatrix,
    lm: Vec<f64>,
    lu: Vec<f64>,
    maha: MahalanobisScratch,
    scores: Vec<f64>,
    row: Vec<f64>,
}

impl ScoreBatch {
    /// An empty batch (no allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The column-major raw-feature matrix to fill before calling
    /// [`SnapshotScorer::score_batch`] (typically via a batch
    /// featurizer's column-fill pass).
    pub fn cols_mut(&mut self) -> &mut ColMatrix {
        &mut self.cols
    }

    /// Read access to the feature matrix (post-`score_batch` it holds the
    /// prepared — imputed and normalized — values).
    pub fn cols(&self) -> &ColMatrix {
        &self.cols
    }

    /// The posteriors the last [`SnapshotScorer::score_batch`] call
    /// computed, one per batch row (empty before the first call).
    /// Together with [`ScoreBatch::cols`] this lets observers — like
    /// the streaming drift monitor — summarize what was just scored
    /// without re-running any float work.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The reusable scalar row buffer for per-row fallback scoring.
    pub fn row_scratch(&mut self) -> &mut Vec<f64> {
        &mut self.row
    }
}

/// A serializable freeze of a full three-model record-linkage fit
/// ([`crate::linkage::LinkageModel::fit_models`]): the cross-table model
/// `F` plus the within-table models `Fl`/`Fr`, each frozen as a
/// [`ModelSnapshot`] (parameters **and** feature-replay layout —
/// per-column normalization ranges, imputation means, feature names).
///
/// The fit-time [`crate::transitivity::TransitivityCalibrator`] (and its
/// cross-table counterpart) is pure training scaffolding built from the
/// candidate-pair adjacency: once EM has converged, every posterior edit
/// it made is already baked into the posteriors and the match decisions
/// derived from them. What survives into the frozen world is therefore
/// (a) the [`LinkageSnapshot::transitivity`] flag recording that the
/// calibrators ran, and (b) the calibrated match *decisions*, which the
/// streaming layer persists alongside this snapshot and replays
/// structurally through its union-find (merging clusters enforces
/// transitivity exactly rather than softly).
///
/// Like [`ModelSnapshot`], the JSON form round-trips exactly: parsing
/// [`LinkageSnapshot::to_json`] output reproduces every parameter
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkageSnapshot {
    /// The cross-table model `F` — the one streaming linkage scores
    /// with.
    pub cross: ModelSnapshot,
    /// The within-left model `Fl` (`None` when the left leg had no
    /// candidate pairs, or its fit was too degenerate to freeze).
    pub left: Option<ModelSnapshot>,
    /// The within-right model `Fr` (`None` like [`LinkageSnapshot::left`]).
    pub right: Option<ModelSnapshot>,
    /// Whether the transitivity calibrators were active during the fit.
    pub transitivity: bool,
}

impl LinkageSnapshot {
    /// Builds the frozen cross-pair scorer from the cross model — the
    /// only scorer streamed (cross-table) candidates need.
    ///
    /// # Errors
    /// Fails if the stored cross covariances are not positive definite
    /// (a corrupted or hand-edited snapshot).
    pub fn cross_scorer(&self) -> Result<SnapshotScorer, JsonError> {
        self.cross.scorer()
    }

    /// Renders to a JSON value. Absent within-table models are omitted
    /// (not serialized as `null`).
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("format".into(), Json::Str("zeroer-linkage-snapshot".into())),
            ("version".into(), Json::Num(1.0)),
            ("transitivity".into(), Json::Bool(self.transitivity)),
            ("cross".into(), self.cross.to_json_value()),
        ];
        if let Some(l) = &self.left {
            fields.push(("left".into(), l.to_json_value()));
        }
        if let Some(r) = &self.right {
            fields.push(("right".into(), r.to_json_value()));
        }
        Json::Obj(fields)
    }

    /// Serializes to JSON text. Round-trips exactly.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Reads a linkage snapshot from a parsed JSON value.
    ///
    /// # Errors
    /// Fails on schema violations (wrong format marker, malformed
    /// embedded model snapshots).
    pub fn from_json_value(j: &Json) -> Result<Self, JsonError> {
        if j.get("format").and_then(Json::as_str) != Some("zeroer-linkage-snapshot") {
            return Err(JsonError::schema("not a zeroer linkage snapshot"));
        }
        if j.get("version").and_then(Json::as_f64) != Some(1.0) {
            return Err(JsonError::schema(
                "unsupported linkage-snapshot version (expected 1)",
            ));
        }
        let transitivity = j
            .require("transitivity")?
            .as_bool()
            .ok_or_else(|| JsonError::schema("transitivity must be a boolean"))?;
        let side = |key: &str| -> Result<Option<ModelSnapshot>, JsonError> {
            j.get(key).map(ModelSnapshot::from_json_value).transpose()
        };
        Ok(Self {
            cross: ModelSnapshot::from_json_value(j.require("cross")?)?,
            left: side("left")?,
            right: side("right")?,
            transitivity,
        })
    }

    /// Deserializes from JSON text.
    ///
    /// # Errors
    /// Fails on malformed JSON or schema violations.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroErConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fitted_model() -> (GenerativeModel, Matrix) {
        let mut rng = StdRng::seed_from_u64(11);
        let (n_m, n_u, d) = (15, 150, 4);
        let mut data = Vec::new();
        for i in 0..n_m + n_u {
            let base = if i < n_m { 0.88 } else { 0.12 };
            for _ in 0..d {
                data.push((base + rng.gen_range(-0.08..0.08f64)).clamp(0.0, 1.0));
            }
        }
        let x = Matrix::from_vec(n_m + n_u, d, data);
        let mut model =
            GenerativeModel::new(ZeroErConfig::default(), GroupLayout::from_sizes(&[2, 2]));
        model.fit(&x, None);
        (model, x)
    }

    fn replay_state(d: usize) -> (Vec<(f64, f64)>, Vec<f64>, Vec<String>) {
        let ranges = vec![(0.0, 1.0); d];
        let impute = vec![0.4; d];
        let names = (0..d).map(|j| format!("f{j}")).collect();
        (ranges, impute, names)
    }

    #[test]
    fn snapshot_scoring_matches_live_posterior() {
        let (model, x) = fitted_model();
        let (ranges, impute, names) = replay_state(4);
        let snap = ModelSnapshot::capture(&model, &ranges, &impute, &names);
        let scorer = snap.scorer().unwrap();
        for i in 0..x.rows() {
            let live = model.posterior(x.row(i));
            let frozen = scorer.score(x.row(i));
            assert!(
                (live - frozen).abs() < 1e-12,
                "row {i}: live {live} vs frozen {frozen}"
            );
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let (model, x) = fitted_model();
        let (ranges, impute, names) = replay_state(4);
        let snap = ModelSnapshot::capture(&model, &ranges, &impute, &names);
        let text = snap.to_json();
        let back = ModelSnapshot::from_json(&text).unwrap();
        assert_eq!(snap, back, "snapshot must round-trip exactly");
        let scorer = back.scorer().unwrap();
        for i in 0..x.rows() {
            let live = model.posterior(x.row(i));
            let frozen = scorer.score(x.row(i));
            assert!(
                (live - frozen).abs() < 1e-12,
                "row {i}: live {live} vs reloaded {frozen}"
            );
        }
    }

    #[test]
    fn prepare_row_imputes_then_normalizes() {
        let (model, _) = fitted_model();
        let ranges = vec![(0.0, 2.0), (1.0, 1.0), (0.0, 1.0), (0.0, 1.0)];
        let impute = vec![1.0, 0.5, 0.25, 0.75];
        let names = (0..4).map(|j| format!("f{j}")).collect::<Vec<_>>();
        let snap = ModelSnapshot::capture(&model, &ranges, &impute, &names);
        let mut row = [f64::NAN, 3.0, 1.5, f64::NAN];
        snap.prepare_row(&mut row);
        assert_eq!(row[0], 0.5, "imputed to 1.0 then scaled by (0,2)");
        assert_eq!(row[1], 0.0, "degenerate range maps to 0");
        assert_eq!(
            row[2], 1.0,
            "out-of-range values clamp, matching apply_min_max"
        );
        assert_eq!(row[3], 0.75, "imputed then scaled by (0,1)");
        let mut low = [-1.0, 0.5, 0.25, 0.5];
        snap.prepare_row(&mut low);
        assert_eq!(low[0], 0.0, "below-range values clamp to 0");
    }

    #[test]
    fn linkage_snapshot_round_trip_is_bit_exact() {
        let (model, _) = fitted_model();
        let (ranges, impute, names) = replay_state(4);
        let cross = ModelSnapshot::capture(&model, &ranges, &impute, &names);
        let mut left = cross.clone();
        left.pi_m = 0.123_456_789_012_345_67;
        let snap = LinkageSnapshot {
            cross,
            left: Some(left),
            right: None,
            transitivity: true,
        };
        let back = LinkageSnapshot::from_json(&snap.to_json()).expect("round-trips");
        assert_eq!(snap, back, "linkage snapshot must round-trip exactly");
        // Exactness down to the f64 bit pattern, not mere closeness.
        for (a, b) in snap.cross.mean_m.iter().zip(&back.cross.mean_m) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            snap.left.as_ref().unwrap().pi_m.to_bits(),
            back.left.as_ref().unwrap().pi_m.to_bits()
        );
        assert!(back.right.is_none(), "absent legs stay absent");
        assert!(back.transitivity);

        // A frozen cross scorer comes straight out of the reloaded form.
        let scorer = back.cross_scorer().expect("cross model is sound");
        assert_eq!(scorer.dim(), 4);

        // Wrong/foreign formats are rejected.
        assert!(LinkageSnapshot::from_json("{\"format\":\"other\"}").is_err());
        assert!(LinkageSnapshot::from_json(&snap.cross.to_json()).is_err());
    }

    #[test]
    fn score_batch_is_bit_identical_to_score_raw() {
        let (model, _) = fitted_model();
        let ranges = vec![(0.0, 2.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)];
        let impute = vec![1.0, 0.5, 0.25, 0.75];
        let names = (0..4).map(|j| format!("f{j}")).collect::<Vec<_>>();
        let snap = ModelSnapshot::capture(&model, &ranges, &impute, &names);
        let scorer = snap.scorer().unwrap();
        // Raw rows with NaN holes and out-of-range values, exercising
        // imputation + clamping alongside the batched density kernels.
        let rows: Vec<[f64; 4]> = (0..19)
            .map(|r| {
                let r = r as f64;
                [
                    if (r as usize).is_multiple_of(3) {
                        f64::NAN
                    } else {
                        r * 0.3 - 1.0
                    },
                    (r * 0.7).sin() * 2.0,
                    if r as usize % 5 == 4 {
                        f64::NAN
                    } else {
                        r / 9.0
                    },
                    r * 0.4 - 3.0,
                ]
            })
            .collect();
        let mut batch = ScoreBatch::new();
        batch.cols_mut().reset(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                batch.cols_mut().set(i, j, v);
            }
        }
        let got: Vec<f64> = scorer.score_batch(&mut batch).to_vec();
        for (i, row) in rows.iter().enumerate() {
            let mut scalar = *row;
            let want = scorer.score_raw(&mut scalar);
            assert_eq!(got[i].to_bits(), want.to_bits(), "row {i}");
            // The prepared values left in the batch match prepare_row too.
            for (j, v) in scalar.iter().enumerate() {
                assert_eq!(batch.cols().get(i, j).to_bits(), v.to_bits());
            }
        }
        // Empty batches are fine (resolve with zero candidates).
        batch.cols_mut().reset(0, 4);
        assert!(scorer.score_batch(&mut batch).is_empty());
    }

    #[test]
    fn capture_checked_rejects_non_finite_replay_state() {
        let (model, _) = fitted_model();
        let (mut ranges, impute, names) = replay_state(4);
        assert!(ModelSnapshot::capture_checked(&model, &ranges, &impute, &names).is_some());
        ranges[2].1 = f64::INFINITY;
        assert!(ModelSnapshot::capture_checked(&model, &ranges, &impute, &names).is_none());
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let (model, _) = fitted_model();
        let (ranges, impute, names) = replay_state(4);
        let snap = ModelSnapshot::capture(&model, &ranges, &impute, &names);
        let mut truncated = snap.clone();
        truncated.mean_m.pop();
        assert!(truncated.scorer().is_err());
        assert!(ModelSnapshot::from_json("{\"format\":\"nope\"}").is_err());
        assert!(ModelSnapshot::from_json("not json at all").is_err());
    }
}
