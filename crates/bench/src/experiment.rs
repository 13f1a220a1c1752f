//! The shared dataset → blocking → features pipeline every experiment
//! harness builds on.

use zeroer_blocking::{standard_recipe, PairMode};
use zeroer_core::LinkageTask;
use zeroer_datagen::{generate, DatasetProfile, GeneratedDataset};
use zeroer_features::PairFeaturizer;

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
    pub fn from_env() -> Self {
        let parse = |var: &str, default: f64| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self {
            scale: parse("ZEROER_SCALE", 0.08).clamp(1e-3, 1.0),
            runs: parse("ZEROER_RUNS", 2.0).max(1.0) as usize,
            seed: parse("ZEROER_SEED", 42.0) as u64,
        }
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
    /// Blocking recall: fraction of true matches surviving blocking.
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

    // The pipelines' standard recipe: short-name datasets (overlap 1)
    // count token and 4-gram keys together, so a typo in a shared word
    // cannot lose the match entirely.
    let cross_cs = standard_recipe(recipe.attr, recipe.cross_overlap, 4, 400).candidates(
        &ds.left,
        &ds.right,
        PairMode::Cross,
    );
    let within = standard_recipe(recipe.attr, recipe.dedup_overlap, 4, 400);
    let left_cs = within.candidates(&ds.left, &ds.left, PairMode::Dedup);
    let right_cs = within.candidates(&ds.right, &ds.right, PairMode::Dedup);

    let make_task =
        |l: &zeroer_tabular::Table, r: &zeroer_tabular::Table, pairs: &[(usize, usize)]| {
            let fz = PairFeaturizer::new(l, r);
            let mut fs = fz.featurize(pairs);
            fs.normalize();
            LinkageTask::new(fs.matrix, pairs.to_vec(), fs.layout)
        };

    let cross = make_task(&ds.left, &ds.right, cross_cs.pairs());
    let left = make_task(&ds.left, &ds.left, left_cs.pairs());
    let right = make_task(&ds.right, &ds.right, right_cs.pairs());

    let labels = ds.labels_for(cross_cs.pairs());
    let blocking_recall = cross_cs.recall_against(&ds.matches);

    Prepared {
        ds,
        cross,
        left,
        right,
        labels,
        blocking_recall,
    }
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
    fn features_are_normalized() {
        let p = prepare(&pub_da(), &tiny_cfg());
        for i in 0..p.cross.features.rows() {
            for &v in p.cross.features.row(i) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
