//! End-to-end integration: dataset generation → blocking → features →
//! ZeroER → evaluation, across profiles and against baselines. Blocking
//! is the pipelines' standard recipe on each task's own derivation.
//!
//! Scales are kept tiny so the suite stays fast in debug builds; the
//! full-scale numbers live in the bench harnesses.

use zeroer::baselines::common::Classifier;
use zeroer::baselines::{GaussianMixture, KMeans};
use zeroer::blocking::{standard_candidates_derived, PairMode};
use zeroer::core::{LinkageModel, LinkageTask, ZeroErConfig};
use zeroer::datagen::profiles::{prod_ag, pub_da, rest_fz};
use zeroer::datagen::{generate, GeneratedDataset};
use zeroer::eval::metrics::f_score;
use zeroer::features::{DeriveConfig, PairFeaturizer};
use zeroer::tabular::Table;

struct Pipeline {
    ds: GeneratedDataset,
    cross: LinkageTask,
    left: LinkageTask,
    right: LinkageTask,
    labels: Vec<bool>,
}

fn run_pipeline(ds: GeneratedDataset, overlap: usize) -> Pipeline {
    let task = |l: &Table, r: &Table, mode: PairMode| {
        let fz = PairFeaturizer::with_config(l, r, DeriveConfig::blocking(0, 4));
        let right = (mode == PairMode::Cross).then(|| fz.right_derived());
        let cs = standard_candidates_derived(fz.left_derived(), right, mode, overlap, 400);
        let mut fs = fz.featurize(cs.pairs());
        fs.normalize();
        LinkageTask::new(fs.matrix, cs.pairs().to_vec(), fs.layout)
    };
    let cross = task(&ds.left, &ds.right, PairMode::Cross);
    let left = task(&ds.left, &ds.left, PairMode::Dedup);
    let right = task(&ds.right, &ds.right, PairMode::Dedup);
    let labels = ds.labels_for(&cross.pairs);
    Pipeline {
        ds,
        cross,
        left,
        right,
        labels,
    }
}

#[test]
fn zeroer_is_accurate_on_clean_restaurants() {
    let p = run_pipeline(generate(&rest_fz(), 0.25, 1), 1);
    let out = LinkageModel::new(ZeroErConfig::default()).fit(&p.cross, &p.left, &p.right);
    let f1 = f_score(&out.cross_labels, &p.labels);
    assert!(f1 > 0.9, "Rest-FZ end-to-end F1 = {f1}");
}

#[test]
fn zeroer_beats_unsupervised_baselines_on_publications() {
    let p = run_pipeline(generate(&pub_da(), 0.05, 2), 2);
    let out = LinkageModel::new(ZeroErConfig::default()).fit(&p.cross, &p.left, &p.right);
    let zeroer = f_score(&out.cross_labels, &p.labels);

    let mut km = KMeans::standard(1);
    km.fit(&p.cross.features, &[]);
    let km_f1 = f_score(&km.predict(&p.cross.features), &p.labels);

    let mut gmm = GaussianMixture::default();
    gmm.fit(&p.cross.features, &[]);
    let gmm_f1 = f_score(&gmm.predict(&p.cross.features), &p.labels);

    // At this tiny test scale the candidate set can be easy enough for
    // k-means to tie; ZeroER must never be worse and must beat the naive
    // GMM outright.
    assert!(
        zeroer >= km_f1 && zeroer > gmm_f1,
        "ZeroER ({zeroer}) must beat k-means ({km_f1}) and GMM ({gmm_f1})"
    );
    assert!(zeroer > 0.8, "Pub-DA end-to-end F1 = {zeroer}");
}

#[test]
fn hard_products_are_harder_than_clean_restaurants() {
    let restaurants = run_pipeline(generate(&rest_fz(), 0.25, 3), 1);
    let products = run_pipeline(generate(&prod_ag(), 0.05, 3), 1);
    let f_rest = {
        let out = LinkageModel::new(ZeroErConfig::default()).fit(
            &restaurants.cross,
            &restaurants.left,
            &restaurants.right,
        );
        f_score(&out.cross_labels, &restaurants.labels)
    };
    let f_prod = {
        let out = LinkageModel::new(ZeroErConfig::default()).fit(
            &products.cross,
            &products.left,
            &products.right,
        );
        f_score(&out.cross_labels, &products.labels)
    };
    assert!(
        f_rest > f_prod + 0.1,
        "difficulty ordering violated: Rest-FZ {f_rest} vs Prod-AG {f_prod}"
    );
}

#[test]
fn posteriors_are_probabilities_end_to_end() {
    let p = run_pipeline(generate(&rest_fz(), 0.15, 4), 1);
    let out = LinkageModel::new(ZeroErConfig::default()).fit(&p.cross, &p.left, &p.right);
    assert!(out
        .cross_gammas
        .iter()
        .all(|g| (0.0..=1.0).contains(g) && g.is_finite()));
    assert_eq!(out.cross_gammas.len(), p.labels.len());
}

#[test]
fn blocking_keeps_most_matches_on_every_profile() {
    for (profile, overlap) in [(rest_fz(), 1), (pub_da(), 2), (prod_ag(), 1)] {
        let ds = generate(&profile, 0.05, 5);
        let p = run_pipeline(ds, overlap);
        let kept = p.labels.iter().filter(|&&l| l).count();
        let recall = kept as f64 / p.ds.matches.len() as f64;
        assert!(recall > 0.8, "{}: blocking recall {recall}", p.ds.notation);
    }
}
