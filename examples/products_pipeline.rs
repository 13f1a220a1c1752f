//! The hard domain: Amazon-Google style product matching, where matched
//! listings share little surface vocabulary (§7.2's motivating failure
//! case for similarity-based matchers).
//!
//! Demonstrates the ablation switches programmatically: plain GMM-style
//! settings vs feature grouping vs the full ZeroER stack, plus a
//! supervised random forest upper bound.
//!
//! ```sh
//! cargo run --release --example products_pipeline
//! ```

use zeroer::baselines::common::{take_labels, take_rows, Classifier};
use zeroer::baselines::RandomForest;
use zeroer::blocking::{standard_candidates_derived, PairMode};
use zeroer::core::{FeatureDependence, GenerativeModel, Regularization, ZeroErConfig};
use zeroer::datagen::{generate, profiles::prod_ag};
use zeroer::eval::metrics::f_score;
use zeroer::eval::split::{oversample_minority, train_test_split};
use zeroer::features::{DeriveConfig, PairFeaturizer};

fn main() {
    let ds = generate(&prod_ag(), 0.08, 3);
    println!("Amazon-like products : {}", ds.left.len());
    println!("Google-like products : {}", ds.right.len());

    // The pipelines' blocking: both tables derived once with token and
    // 4-gram keys on the title; a pair needs two shared keys.
    let fz = PairFeaturizer::with_config(&ds.left, &ds.right, DeriveConfig::blocking(0, 4));
    let (l, r) = (fz.left_derived(), Some(fz.right_derived()));
    let cs = standard_candidates_derived(l, r, PairMode::Cross, 1, 400);
    let labels = ds.labels_for(cs.pairs());
    let n_matches = labels.iter().filter(|&&l| l).count();
    println!(
        "candidates           : {} ({} true matches)\n",
        cs.len(),
        n_matches
    );

    let mut fs = fz.featurize(cs.pairs());
    fs.normalize();
    println!(
        "features             : {} in {} attribute groups",
        fs.dim(),
        fs.layout.num_groups()
    );
    println!(
        "feature names        : {:?}\n",
        &fs.names[..fs.names.len().min(6)]
    );

    // Ablation ladder: each step adds one of the paper's innovations.
    let ladder = [
        (
            "naive GMM-ish (full cov, Tikhonov)",
            ZeroErConfig::ablation(FeatureDependence::Full, Regularization::Tikhonov),
        ),
        (
            "grouped + Tikhonov",
            ZeroErConfig::ablation(FeatureDependence::Grouped, Regularization::Tikhonov),
        ),
        (
            "grouped + adaptive reg",
            ZeroErConfig::ablation(FeatureDependence::Grouped, Regularization::Adaptive),
        ),
        ("+ shared Pearson correlation (G+A+P)", ZeroErConfig::gap()),
    ];
    for (name, cfg) in ladder {
        let mut m = GenerativeModel::new(cfg, fs.layout.clone());
        m.fit(&fs.matrix, None);
        println!("{name:<42} F1 = {:.3}", f_score(&m.labels(), &labels));
    }

    // Supervised comparison: RF trained on half the labeled pairs — the
    // paper's Table 2 shows products are where supervision still helps.
    let (train, test) = train_test_split(fs.matrix.rows(), 0.5, 9);
    let balanced = oversample_minority(&labels, &train, 9);
    let mut rf = RandomForest::new(2, 9);
    rf.fit(
        &take_rows(&fs.matrix, &balanced),
        &take_labels(&labels, &balanced),
    );
    let preds = rf.predict(&take_rows(&fs.matrix, &test));
    println!(
        "{:<42} F1 = {:.3}  (uses {} labels)",
        "supervised random forest (50% labeled)",
        f_score(&preds, &take_labels(&labels, &test)),
        train.len()
    );
}
