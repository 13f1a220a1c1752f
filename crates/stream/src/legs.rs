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
//! ## Support rows
//!
//! The standard blocking rule keeps a pair only when its records share
//! two keys, so a tiny input can lose the only unmatch pairs it had, and
//! the §6 initialisation then splits true duplicates into two classes.
//! A leg whose candidate set is non-empty but smaller than `2·(d + 1)`
//! pairs, for feature dimension `d`, therefore also fits on *support
//! rows*: the pairs the rule pruned (`pruned_candidates_derived`),
//! evenly spaced by pair index, topping the fit up to `2·(d + 1)` rows.
//! They are unlabelled, come after the candidate rows, and appear in no
//! output: [`LegReplay::pairs`], the posteriors [`LegReplay::fit_dedup`]
//! and [`LegTriple::fit`] return, and the `batch.candidates` counter all
//! cover the candidates alone. A leg with at least `2·(d + 1)` candidate
//! pairs fits on exactly its candidates.
//!
//! Every stage is metered here, under the batch metric names
//! (`batch.derive.ns`, `batch.block.ns`, `batch.featurize.ns`,
//! `batch.fit.ns` and the `batch.candidates` counter), so a batch run
//! and a streaming bootstrap or refit record the same meters — the work
//! is literally the same.

use crate::index::IndexConfig;
use zeroer_blocking::{
    pruned_candidates_derived, standard_candidates_derived, CandidateSet, PairMode,
};
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
    /// The rows the fit sees — the leg's candidate pairs, then its
    /// support rows (see the module docs) — with their normalized
    /// feature matrix and layout.
    pub task: LinkageTask,
    /// How many leading rows of `task` are candidate pairs.
    pub candidates: usize,
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
    /// The leg's candidate pairs: the task's rows minus the support rows.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.task.pairs[..self.candidates]
    }

    /// Fits one generative model to this leg, with the transitivity
    /// calibrator over its pairs — the dedup fit (§5's `T = T'` case).
    /// Returns the model, the EM summary and the posteriors of the
    /// candidate pairs, aligned with [`LegReplay::pairs`].
    pub fn fit_dedup(&self, config: &ZeroErConfig) -> (GenerativeModel, FitSummary, Vec<f64>) {
        zeroer_obs::time("batch.fit.ns", || {
            let mut model = GenerativeModel::new(config.clone(), self.task.layout.clone());
            let calibrator = TransitivityCalibrator::new(&self.task.pairs);
            let summary = model.fit(&self.task.features, Some(&calibrator));
            let gammas = model.gammas()[..self.candidates].to_vec();
            (model, summary, gammas)
        })
    }
}

impl LegTriple {
    /// Fits the three models jointly ([`LinkageModel::fit_models`]). The
    /// outcome's posteriors and labels cover each leg's candidate pairs
    /// only.
    pub fn fit(&self, config: &ZeroErConfig) -> (LinkageOutcome, FittedLinkage) {
        zeroer_obs::time("batch.fit.ns", || {
            let (mut out, fitted) = LinkageModel::new(config.clone()).fit_models(
                &self.cross.task,
                &self.left.task,
                &self.right.task,
            );
            out.cross_gammas.truncate(self.cross.candidates);
            out.cross_labels.truncate(self.cross.candidates);
            out.left_gammas.truncate(self.left.candidates);
            out.right_gammas.truncate(self.right.candidates);
            (out, fitted)
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
/// candidate set under the standard blocking recipe (plus support rows
/// when it is too small to fit on, see the module docs), and the
/// normalized feature task. Blocking and featurization share the one
/// derivation.
pub fn build_dedup_leg(table: &Table, index: &IndexConfig) -> DedupLeg {
    let fz = zeroer_obs::time("batch.derive.ns", || {
        PairFeaturizer::with_config(table, table, index.derive_config())
    });
    let (cs, support) = zeroer_obs::time("batch.block.ns", || block(&fz, PairMode::Dedup, index));
    zeroer_obs::counter("batch.candidates").add(cs.len() as u64);
    let leg = (!cs.is_empty()).then(|| build_leg(&fz, &cs, &support));
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

/// One task's candidate set under the standard blocking recipe — the
/// featurizer's left derivation against its right one (cross) or against
/// itself (dedup) — and its support rows.
///
/// A leg whose candidate set is non-empty but holds fewer than
/// `2·(d + 1)` pairs gets as support rows the pairs the blocking rule
/// pruned, evenly spaced by pair index, up to `2·(d + 1)` rows in all.
/// Every other leg gets none.
fn block(
    fz: &PairFeaturizer,
    mode: PairMode,
    index: &IndexConfig,
) -> (CandidateSet, Vec<(usize, usize)>) {
    let right = (mode == PairMode::Cross).then(|| fz.right_derived());
    let (left, overlap, cap) = (fz.left_derived(), index.min_token_overlap, index.max_bucket);
    let cs = standard_candidates_derived(left, right, mode, overlap, cap);
    let rows = 2 * (fz.dim() + 1);
    if cs.is_empty() || cs.len() >= rows {
        return (cs, Vec::new());
    }
    let pruned = pruned_candidates_derived(left, right, mode, overlap, cap);
    let (m, k) = (pruned.len(), (rows - cs.len()).min(pruned.len()));
    let support = (0..k).map(|i| pruned.pairs()[i * m / k]).collect();
    (cs, support)
}

/// Featurizes and normalizes one leg's candidate pairs followed by its
/// support rows, keeping the replay state alongside the task.
fn build_leg(fz: &PairFeaturizer, cs: &CandidateSet, support: &[(usize, usize)]) -> LegReplay {
    zeroer_obs::time("batch.featurize.ns", || {
        let pairs = [cs.pairs(), support].concat();
        let mut fs = fz.featurize(&pairs);
        fs.normalize();
        LegReplay {
            ranges: fs.ranges.clone().expect("normalize() was called"),
            impute_means: fs.impute_means.clone(),
            names: fs.names.clone(),
            task: LinkageTask::new(fs.matrix, pairs, fs.layout),
            candidates: cs.len(),
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
    let (cross_cs, cross_support) = zeroer_obs::time("batch.block.ns", || {
        block(&cross_fz, PairMode::Cross, index)
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
    let [(left_cs, left_support), (right_cs, right_support)] =
        zeroer_obs::time("batch.block.ns", || {
            [&left_fz, &right_fz].map(|fz| block(fz, PairMode::Dedup, index))
        });
    let candidates = cross_cs.len() + left_cs.len() + right_cs.len();
    zeroer_obs::counter("batch.candidates").add(candidates as u64);
    let legs = LegTriple {
        cross: build_leg(&cross_fz, &cross_cs, &cross_support),
        left: build_leg(&left_fz, &left_cs, &left_support),
        right: build_leg(&right_fz, &right_cs, &right_support),
        candidates,
    };
    LinkageLegs {
        cross_fz,
        legs: Some(legs),
    }
}
