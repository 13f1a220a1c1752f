//! The shared dataset → blocking → features pipeline every experiment
//! harness builds on.

use std::str::FromStr;
use zeroer_blocking::{
    standard_candidates_derived, standard_rule, BlockingReport, CandidateSet, PairMode,
};
use zeroer_core::LinkageTask;
use zeroer_datagen::{generate, DatasetProfile, GeneratedDataset};
use zeroer_features::{DeriveConfig, PairFeaturizer};
use zeroer_tabular::Table;

/// Global experiment knobs, read once from the environment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Dataset scale in `(0, 1]` (`ZEROER_SCALE`, default 0.08).
    pub scale: f64,
    /// Supervised-protocol repetitions (`ZEROER_RUNS`, default 2; the
    /// paper averages 10).
    pub runs: usize,
    /// Base RNG seed (`ZEROER_SEED`, default 42).
    pub seed: u64,
}

impl ExperimentConfig {
    /// Reads the knobs from the environment.
    ///
    /// # Panics
    /// Panics, naming the variable, on a value that does not parse as
    /// the knob's type.
    pub fn from_env() -> Self {
        fn env<T: FromStr>(var: &str, default: T) -> T {
            let raw = match std::env::var(var) {
                Ok(v) => Some(v),
                Err(std::env::VarError::NotPresent) => None,
                Err(e) => panic!("{var}: {e}"),
            };
            knob(var, raw.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
        }
        Self {
            scale: env::<f64>("ZEROER_SCALE", 0.08).clamp(1e-3, 1.0),
            runs: env::<usize>("ZEROER_RUNS", 2).max(1),
            seed: env("ZEROER_SEED", 42),
        }
    }
}

/// One knob's value: `default` when the variable is unset, else its raw
/// value parsed as `T`, or an error naming the variable.
fn knob<T: FromStr>(var: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            let ty = std::any::type_name::<T>();
            format!("{var}={v:?} does not parse as {ty}")
        }),
    }
}

/// Per-dataset blocking parameters: how many shared title tokens a
/// candidate needs, cross-table and within-table, plus a dataset-specific
/// scale multiplier for the oversized Pub-DS right table.
#[derive(Debug, Clone, Copy)]
pub struct BlockingRecipe {
    /// Attribute index to block on (always the name/title here).
    pub attr: usize,
    /// Overlap floor for cross-table candidates.
    pub cross_overlap: usize,
    /// Overlap floor for within-table candidates (record-linkage legs).
    pub dedup_overlap: usize,
    /// Extra scale factor applied to this dataset only.
    pub scale_mult: f64,
}

/// The blocking recipe per paper dataset. Multi-word-title datasets get
/// overlap ≥ 2 (single shared words prune nothing there); Pub-DS
/// additionally runs at half scale because its right table is 64k rows at
/// scale 1.
pub fn recipe_for(notation: &str) -> BlockingRecipe {
    match notation {
        "Pub-DA" => BlockingRecipe {
            attr: 0,
            cross_overlap: 2,
            dedup_overlap: 3,
            scale_mult: 1.0,
        },
        "Pub-DS" => BlockingRecipe {
            attr: 0,
            cross_overlap: 2,
            dedup_overlap: 3,
            scale_mult: 0.5,
        },
        // The two small benchmarks get a scale boost so the scaled-down
        // default still leaves enough matches for stable supervised CV.
        "Rest-FZ" => BlockingRecipe {
            attr: 0,
            cross_overlap: 1,
            dedup_overlap: 1,
            scale_mult: 3.0,
        },
        "Mv-RI" => BlockingRecipe {
            attr: 0,
            cross_overlap: 1,
            dedup_overlap: 1,
            scale_mult: 2.0,
        },
        _ => BlockingRecipe {
            attr: 0,
            cross_overlap: 1,
            dedup_overlap: 1,
            scale_mult: 1.0,
        },
    }
}

/// A fully prepared experiment: generated data, candidate sets, normalized
/// features, ground-truth labels.
pub struct Prepared {
    /// The generated benchmark.
    pub ds: GeneratedDataset,
    /// Cross-table leg (the one that is evaluated).
    pub cross: LinkageTask,
    /// Within-left leg (for transitivity).
    pub left: LinkageTask,
    /// Within-right leg (for transitivity).
    pub right: LinkageTask,
    /// Ground-truth labels for the cross pairs.
    pub labels: Vec<bool>,
    /// Blocking recall (pair completeness): fraction of true matches
    /// surviving blocking.
    pub blocking_recall: f64,
}

impl Prepared {
    /// Number of cross candidate pairs.
    pub fn n_pairs(&self) -> usize {
        self.cross.pairs.len()
    }

    /// Number of true matches among the candidates.
    pub fn n_matches(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }
}

/// Runs the full preparation pipeline for one profile.
pub fn prepare(profile: &DatasetProfile, cfg: &ExperimentConfig) -> Prepared {
    let recipe = recipe_for(profile.notation);
    let scale = (cfg.scale * recipe.scale_mult).clamp(1e-3, 1.0);
    let ds = generate(profile, scale, cfg.seed);

    let (cross, cross_cs) = make_task(&ds.left, &ds.right, PairMode::Cross, &recipe);
    let (left, _) = make_task(&ds.left, &ds.left, PairMode::Dedup, &recipe);
    let (right, _) = make_task(&ds.right, &ds.right, PairMode::Dedup, &recipe);

    let labels = ds.labels_for(cross_cs.pairs());
    let report = BlockingReport::evaluate(&cross_cs, &ds.matches, ds.left.len(), ds.right.len());

    Prepared {
        ds,
        cross,
        left,
        right,
        labels,
        blocking_recall: report.pair_completeness,
    }
}

/// One task under the pipelines' standard recipe: `l` and `r` derived
/// once with blocking keys, blocked at the recipe's overlap for `mode`
/// (a dedup task passes one table twice), then featurized and
/// normalized. Short-name datasets (overlap 1) count token and 4-gram
/// keys together, so a typo in a shared word cannot lose the match
/// entirely.
fn make_task(
    l: &Table,
    r: &Table,
    mode: PairMode,
    recipe: &BlockingRecipe,
) -> (LinkageTask, CandidateSet) {
    let overlap = match mode {
        PairMode::Cross => recipe.cross_overlap,
        PairMode::Dedup => recipe.dedup_overlap,
    };
    let q = if standard_rule(overlap).qgram_leg {
        4
    } else {
        0
    };
    let fz = PairFeaturizer::with_config(l, r, DeriveConfig::blocking(recipe.attr, q));
    let right = (mode == PairMode::Cross).then(|| fz.right_derived());
    let cs = standard_candidates_derived(fz.left_derived(), right, mode, overlap, 400);
    let mut fs = fz.featurize(cs.pairs());
    fs.normalize();
    let task = LinkageTask::new(fs.matrix, cs.pairs().to_vec(), fs.layout);
    (task, cs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_datagen::profiles::{prod_ab, pub_da, rest_fz};

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.05,
            runs: 1,
            seed: 7,
        }
    }

    #[test]
    fn pipeline_produces_consistent_shapes() {
        let p = prepare(&rest_fz(), &tiny_cfg());
        assert_eq!(p.cross.features.rows(), p.cross.pairs.len());
        assert_eq!(p.labels.len(), p.n_pairs());
        assert!(p.n_pairs() > 0, "blocking must keep some candidates");
        assert!(p.n_matches() > 0, "blocking must keep some matches");
    }

    #[test]
    fn blocking_recall_is_high_on_clean_data() {
        let p = prepare(&rest_fz(), &tiny_cfg());
        assert!(
            p.blocking_recall > 0.85,
            "Rest-FZ blocking recall {}",
            p.blocking_recall
        );
    }

    #[test]
    fn candidate_sets_are_imbalanced() {
        let p = prepare(
            &prod_ab(),
            &ExperimentConfig {
                scale: 0.1,
                runs: 1,
                seed: 3,
            },
        );
        let ratio = (p.n_pairs() - p.n_matches()) as f64 / p.n_matches().max(1) as f64;
        assert!(ratio > 1.0, "unmatches must outnumber matches, got {ratio}");
    }

    #[test]
    fn publication_recipe_uses_overlap_blocking() {
        let r = recipe_for("Pub-DA");
        assert!(r.cross_overlap >= 2);
        assert_eq!(recipe_for("Rest-FZ").cross_overlap, 1);
    }

    #[test]
    fn knobs_parse_as_their_own_type() {
        assert_eq!(knob::<u64>("ZEROER_SEED", None, 42), Ok(42));
        let err = knob::<u64>("ZEROER_SEED", Some("7x"), 42).unwrap_err();
        assert!(err.contains("ZEROER_SEED"), "{err}");
        assert_eq!(
            knob::<u64>("ZEROER_SEED", Some("9007199254740993"), 42),
            Ok(9_007_199_254_740_993),
            "above 2^53 the seed stays exact"
        );
        assert!(knob::<usize>("ZEROER_RUNS", Some("2.5"), 2).is_err());
        assert_eq!(knob::<f64>("ZEROER_SCALE", Some("0.25"), 0.08), Ok(0.25));
    }

    #[test]
    fn features_are_normalized() {
        let p = prepare(&pub_da(), &tiny_cfg());
        for i in 0..p.cross.features.rows() {
            for &v in p.cross.features.row(i) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
