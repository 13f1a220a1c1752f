//! Record linkage (`T ≠ T'`) on the DBLP-ACM stand-in, exercising the
//! three-model transitivity trainer of §5 and comparing against the
//! unsupervised baselines of Table 2 — then serving the same workload
//! **online**: the fit is frozen into a linkage snapshot and the last
//! 30 % of the right catalog is streamed through the frozen cross model
//! (`LinkPipeline`, zero EM iterations at ingest time).
//!
//! ```sh
//! cargo run --release --example link_publications
//! ```

use std::collections::HashSet;
use zeroer::baselines::common::Classifier;
use zeroer::baselines::{GaussianMixture, KMeans};
use zeroer::blocking::{standard_candidates_derived, BlockingReport, PairMode};
use zeroer::core::{LinkageModel, LinkageTask, ZeroErConfig};
use zeroer::datagen::{generate, profiles::pub_da};
use zeroer::eval::metrics::f_score;
use zeroer::features::{DeriveConfig, PairFeaturizer};
use zeroer::stream::{LinkPipeline, Side, StreamOptions};
use zeroer::tabular::Table;

fn main() {
    let ds = generate(&pub_da(), 0.08, 11);
    println!("left (DBLP-like)  : {} records", ds.left.len());
    println!("right (ACM-like)  : {} records", ds.right.len());
    println!("true matches      : {}\n", ds.matches.len());

    // Per leg: derive the tables once with title token keys, keep the
    // pairs sharing 2 title tokens (overlap blocking), featurize them.
    let make_task = |l: &Table, r: &Table, mode: PairMode| {
        let fz = PairFeaturizer::with_config(l, r, DeriveConfig::blocking(0, 0));
        let right = (mode == PairMode::Cross).then(|| fz.right_derived());
        let cs = standard_candidates_derived(fz.left_derived(), right, mode, 2, 400);
        let mut fs = fz.featurize(cs.pairs());
        fs.normalize();
        let task = LinkageTask::new(fs.matrix, cs.pairs().to_vec(), fs.layout);
        (task, cs)
    };
    let (cross, cross_cs) = make_task(&ds.left, &ds.right, PairMode::Cross);
    let (left, _) = make_task(&ds.left, &ds.left, PairMode::Dedup);
    let (right, _) = make_task(&ds.right, &ds.right, PairMode::Dedup);
    let report = BlockingReport::evaluate(&cross_cs, &ds.matches, ds.left.len(), ds.right.len());
    println!("candidates (cross): {}", cross_cs.len());
    println!("blocking recall   : {:.3}\n", report.pair_completeness);
    let labels = ds.labels_for(cross_cs.pairs());

    // ZeroER: the three-model joint trainer (F, Fl, Fr).
    let out = LinkageModel::new(ZeroErConfig::default()).fit(&cross, &left, &right);
    println!(
        "ZeroER       F1 = {:.3}  ({} EM iterations, converged: {})",
        f_score(&out.cross_labels, &labels),
        out.summary.iterations,
        out.summary.converged
    );

    // Unsupervised baselines on the same features.
    let mut km = KMeans::class_weighted(1);
    km.fit(&cross.features, &[]);
    println!(
        "KMeans (RL)  F1 = {:.3}",
        f_score(&km.predict(&cross.features), &labels)
    );

    let mut gmm = GaussianMixture::default();
    gmm.fit(&cross.features, &[]);
    println!(
        "GMM          F1 = {:.3}",
        f_score(&gmm.predict(&cross.features), &labels)
    );

    // Show a few matched titles.
    println!("\nsample predicted matches:");
    for ((l, r), _) in cross
        .pairs
        .iter()
        .zip(&out.cross_labels)
        .filter(|(_, &m)| m)
        .take(5)
    {
        println!("  {}  <->  {}", ds.left.value(*l, 0), ds.right.value(*r, 0));
    }

    // ---- Streaming linkage: freeze, then serve ---------------------
    // Bootstrap the three-model fit on the left catalog plus 70 % of the
    // right one, freeze it into a linkage snapshot, and stream the remaining
    // right-side records: each probes the *left* index for candidates
    // and is scored with the frozen cross model — no EM at ingest time.
    let opts = StreamOptions {
        min_token_overlap: 2,
        ..StreamOptions::default()
    };
    let cut = ds.right.len() * 7 / 10;
    let mut boot_right = Table::new("right-boot", ds.right.schema().clone());
    for r in ds.right.records().iter().take(cut) {
        boot_right.push(r.clone());
    }
    let (mut pipeline, report) =
        LinkPipeline::bootstrap(&ds.left, &boot_right, opts).expect("linkage bootstrap");
    let snapshot_bytes = pipeline.snapshot().to_json().len();
    let outcomes = pipeline.ingest_batch_parallel(
        ds.right.records()[cut..].to_vec(),
        Side::Right,
        zeroer::stream::pipeline::available_threads(),
    );
    let linked = outcomes.iter().filter(|o| !o.is_new_entity()).count();

    let nl = ds.left.len();
    let truth: HashSet<(usize, usize)> = ds.matches.iter().map(|&(l, r)| (l, nl + r)).collect();
    let links = pipeline.cross_links();
    let pred: HashSet<(usize, usize)> = links.iter().copied().collect();
    let tp = pred.intersection(&truth).count() as f64;
    let stream_f1 = if pred.is_empty() || truth.is_empty() {
        0.0
    } else {
        let p = tp / pred.len() as f64;
        let r = tp / truth.len() as f64;
        2.0 * p * r / (p + r).max(f64::MIN_POSITIVE)
    };
    println!("\n== streaming linkage (70 % bootstrap, 30 % streamed) ==");
    println!(
        "bootstrap         : {} cross candidates, {} EM iterations, snapshot {} bytes",
        report.pairs.len(),
        report.em_iterations,
        snapshot_bytes
    );
    println!(
        "streamed          : {} right-side records, {} linked across tables, {} new entities",
        outcomes.len(),
        linked,
        outcomes.len() - linked
    );
    println!("streaming  F1 = {stream_f1:.3}  (cross links vs ground truth, zero ingest-time EM)");
}
