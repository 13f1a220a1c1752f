//! The fit recipes batch and streaming share: derive → block →
//! featurize → EM, once for dedup and once for linkage.
//!
//! Batch dedup (`zeroer::pipeline::dedup_table`) and the streaming dedup
//! bootstrap and refit ([`crate::StreamPipeline::bootstrap`]) fit one
//! generative model over one table's candidate pairs: [`build_dedup_leg`]
//! then [`LegReplay::fit_dedup`]. Batch record linkage
//! (`zeroer::pipeline::match_tables`) and the streaming linkage bootstrap
//! and refit ([`crate::LinkPipeline::bootstrap`]) fit the same three
//! generative models — the cross-table model `F` plus the within-table
//! models `Fl`/`Fr` (§5 of the paper) — over three featurizers (cross,
//! within-left, within-right, each inferring attribute types over its
//! own task), three candidate sets under the standard blocking recipe
//! and three normalized feature tasks: [`build_linkage_legs`] then
//! [`LegTriple::fit`]. The streaming side adds only the freeze.
//!
//! The recipes live in `zeroer-stream` because the root crate already
//! depends on this crate (the batch pipelines sit above the streaming
//! substrate), so sharing from here keeps the root→stream layering
//! intact instead of inverting it.
//!
//! Every stage is metered here, under the batch metric names
//! (`batch.derive.ns`, `batch.block.ns`, `batch.featurize.ns`,
//! `batch.fit.ns` and the `batch.candidates` counter), so a batch run
//! and a streaming bootstrap or refit record the same meters — the work
//! is literally the same.

use crate::index::IndexConfig;
use zeroer_blocking::{standard_candidates_derived, CandidateSet, PairMode};
use zeroer_core::{
    FitSummary, FittedLinkage, GenerativeModel, LinkageModel, LinkageOutcome, LinkageTask,
    TransitivityCalibrator, ZeroErConfig,
};
use zeroer_features::PairFeaturizer;
use zeroer_tabular::Table;

/// One leg's normalized feature task plus the replay state
/// (normalization ranges, imputation means, feature names) a
/// `ModelSnapshot` capture needs after the fit.
pub struct LegReplay {
    /// The leg's candidate pairs, normalized feature matrix and layout.
    pub task: LinkageTask,
    /// Per-column min-max normalization ranges.
    pub ranges: Vec<(f64, f64)>,
    /// Per-column imputation means for missing values.
    pub impute_means: Vec<f64>,
    /// Feature names, aligned with the columns.
    pub names: Vec<String>,
}

/// The three fitted-model legs of a linkage task, plus the total
/// candidate count across them.
pub struct LegTriple {
    /// The cross-table leg (`F`).
    pub cross: LegReplay,
    /// The within-left leg (`Fl`).
    pub left: LegReplay,
    /// The within-right leg (`Fr`).
    pub right: LegReplay,
    /// Candidate pairs across all three legs (cross + left + right).
    pub candidates: usize,
}

impl LegReplay {
    /// Fits one generative model to this leg, with the transitivity
    /// calibrator over its pairs — the dedup fit (§5's `T = T'` case).
    pub fn fit_dedup(&self, config: &ZeroErConfig) -> (GenerativeModel, FitSummary) {
        zeroer_obs::time("batch.fit.ns", || {
            let mut model = GenerativeModel::new(config.clone(), self.task.layout.clone());
            let calibrator = TransitivityCalibrator::new(&self.task.pairs);
            let summary = model.fit(&self.task.features, Some(&calibrator));
            (model, summary)
        })
    }
}

impl LegTriple {
    /// Fits the three models jointly ([`LinkageModel::fit_models`]).
    pub fn fit(&self, config: &ZeroErConfig) -> (LinkageOutcome, FittedLinkage) {
        zeroer_obs::time("batch.fit.ns", || {
            LinkageModel::new(config.clone()).fit_models(
                &self.cross.task,
                &self.left.task,
                &self.right.task,
            )
        })
    }
}

/// What [`build_dedup_leg`] produced.
pub struct DedupLeg {
    /// The featurizer, holding the table's derivation and interner.
    pub fz: PairFeaturizer,
    /// The normalized leg, or `None` when blocking produced no candidate
    /// pairs (nothing to fit).
    pub leg: Option<LegReplay>,
}

/// Runs the dedup preparation: one featurizer over the table, its
/// candidate set under the standard blocking recipe, and the normalized
/// feature task. Blocking and featurization share the one derivation.
pub fn build_dedup_leg(table: &Table, index: &IndexConfig) -> DedupLeg {
    let fz = zeroer_obs::time("batch.derive.ns", || {
        PairFeaturizer::with_config(table, table, index.derive_config())
    });
    let cs = zeroer_obs::time("batch.block.ns", || {
        standard_candidates_derived(
            fz.left_derived(),
            None,
            PairMode::Dedup,
            index.min_token_overlap,
            index.max_bucket,
        )
    });
    zeroer_obs::counter("batch.candidates").add(cs.len() as u64);
    let leg = (!cs.is_empty()).then(|| build_leg(&fz, &cs));
    DedupLeg { fz, leg }
}

/// What [`build_linkage_legs`] produced.
///
/// `legs` is `None` when cross-table blocking yielded no candidate
/// pairs — there is nothing to fit, and the within-table legs are never
/// built. The cross featurizer is returned either way so callers can
/// publish derivation gauges (and, on the non-empty path, hand its
/// interner and derivations to an entity store).
pub struct LinkageLegs {
    /// The cross-table featurizer, holding the joint (left, right)
    /// derivation and interner.
    pub cross_fz: PairFeaturizer,
    /// The three legs, or `None` when cross blocking came up empty.
    pub legs: Option<LegTriple>,
}

/// Featurizes and normalizes one leg's candidate pairs, keeping the
/// replay state alongside the task.
fn build_leg(fz: &PairFeaturizer, cs: &CandidateSet) -> LegReplay {
    zeroer_obs::time("batch.featurize.ns", || {
        let mut fs = fz.featurize(cs.pairs());
        fs.normalize();
        LegReplay {
            ranges: fs.ranges.clone().expect("normalize() was called"),
            impute_means: fs.impute_means.clone(),
            names: fs.names.clone(),
            task: LinkageTask::new(fs.matrix, cs.pairs().to_vec(), fs.layout),
        }
    })
}

/// Runs the shared linkage preparation: the cross featurizer + cross
/// candidate set first (returning early with `legs: None` when cross
/// blocking is empty), then the two within-table featurizers and
/// candidate sets, then the three normalized feature tasks.
///
/// The three featurizers run three separate derivations on purpose: the
/// cross task infers attribute types jointly over (left, right) while
/// each self task infers over its own table alone — the type
/// assignments (and hence feature layouts) legitimately differ, so the
/// derivations cannot be shared across tasks. Within each task,
/// blocking and featurization share one derivation.
pub fn build_linkage_legs(left: &Table, right: &Table, index: &IndexConfig) -> LinkageLegs {
    let cfg = index.derive_config();
    let cross_fz = zeroer_obs::time("batch.derive.ns", || {
        PairFeaturizer::with_config(left, right, cfg.clone())
    });
    let cross_cs = zeroer_obs::time("batch.block.ns", || {
        standard_candidates_derived(
            cross_fz.left_derived(),
            Some(cross_fz.right_derived()),
            PairMode::Cross,
            index.min_token_overlap,
            index.max_bucket,
        )
    });
    if cross_cs.is_empty() {
        return LinkageLegs {
            cross_fz,
            legs: None,
        };
    }
    let left_fz = zeroer_obs::time("batch.derive.ns", || {
        PairFeaturizer::with_config(left, left, cfg.clone())
    });
    let right_fz = zeroer_obs::time("batch.derive.ns", || {
        PairFeaturizer::with_config(right, right, cfg.clone())
    });
    let (left_cs, right_cs) = zeroer_obs::time("batch.block.ns", || {
        let dedup = |fz: &PairFeaturizer| {
            standard_candidates_derived(
                fz.left_derived(),
                None,
                PairMode::Dedup,
                index.min_token_overlap,
                index.max_bucket,
            )
        };
        (dedup(&left_fz), dedup(&right_fz))
    });
    let candidates = cross_cs.len() + left_cs.len() + right_cs.len();
    zeroer_obs::counter("batch.candidates").add(candidates as u64);
    let legs = LegTriple {
        cross: build_leg(&cross_fz, &cross_cs),
        left: build_leg(&left_fz, &left_cs),
        right: build_leg(&right_fz, &right_cs),
        candidates,
    };
    LinkageLegs {
        cross_fz,
        legs: Some(legs),
    }
}
