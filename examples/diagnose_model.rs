//! Model diagnostics: inspect what a fitted ZeroER model learned and how
//! well its posteriors are calibrated.
//!
//! Fits ZeroER on the movie stand-in, prints the per-feature report
//! (which similarity features drive the match decision), the blocking
//! quality report, and the precision-recall trade-off of the posterior
//! scores including the best-F1 threshold.
//!
//! ```sh
//! cargo run --release --example diagnose_model
//! ```

use zeroer::blocking::{standard_candidates_derived, BlockingReport, PairMode};
use zeroer::core::{GenerativeModel, ModelReport, TransitivityCalibrator, ZeroErConfig};
use zeroer::datagen::{generate, profiles::mv_ri};
use zeroer::eval::curves::{auc_pr, best_f1_threshold, brier_score};
use zeroer::eval::metrics::f_score;
use zeroer::features::{DeriveConfig, PairFeaturizer};

fn main() {
    let ds = generate(&mv_ri(), 0.3, 21);

    // The pipelines' blocking: both tables derived once with token and
    // 4-gram keys on the movie name; a pair needs two shared keys.
    let fz = PairFeaturizer::with_config(&ds.left, &ds.right, DeriveConfig::blocking(0, 4));
    let (l, r) = (fz.left_derived(), Some(fz.right_derived()));
    let cs = standard_candidates_derived(l, r, PairMode::Cross, 1, 400);
    let report = BlockingReport::evaluate(&cs, &ds.matches, ds.left.len(), ds.right.len());
    println!("blocking: {report}");
    println!("blocking figure of merit: {:.3}\n", report.f_measure());

    let mut fs = fz.featurize(cs.pairs());
    fs.normalize();
    let labels = ds.labels_for(cs.pairs());

    let mut model = GenerativeModel::new(ZeroErConfig::default(), fs.layout.clone());
    let cal = TransitivityCalibrator::new(cs.pairs());
    let summary = model.fit(&fs.matrix, Some(&cal));
    println!(
        "EM: {} iterations, converged = {}\n",
        summary.iterations, summary.converged
    );

    // What did the model learn? Per-feature fitted statistics, most
    // discriminative first.
    let report = ModelReport::from_model(&model, Some(&fs.names));
    println!("{}", report.to_text());

    // How good are the posteriors as scores?
    let gammas = model.gammas();
    println!(
        "F1 @ 0.5 threshold : {:.3}",
        f_score(&model.labels(), &labels)
    );
    println!("AUC-PR             : {:.3}", auc_pr(gammas, &labels));
    println!("Brier score        : {:.3}", brier_score(gammas, &labels));
    if let Some(best) = best_f1_threshold(gammas, &labels) {
        println!(
            "best F1 threshold  : {:.3} (P = {:.3}, R = {:.3}, F1 = {:.3})",
            best.threshold, best.precision, best.recall, best.f1
        );
    }
}
