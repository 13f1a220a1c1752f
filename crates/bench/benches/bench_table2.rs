//! Reproduces **Table 2**: F-score of ZeroER vs four unsupervised and
//! three supervised baselines on all six datasets.
//!
//! Expected shape (paper §7.2): ZeroER dominates every unsupervised
//! baseline; plain k-means only works on easy datasets; GMM and ECM are
//! not competitive; ZeroER is comparable to the tuned supervised methods
//! (RF/LR/MLP trained on 50 % of labeled pairs with oversampling and
//! 5-fold CV) and the product datasets are the hardest. On this
//! reproduction's synthetic stand-ins, at the default scale and seed,
//! ZeroER reads 0.61 on Prod-AB and 0.89 on Prod-AG (ROADMAP, direction
//! 1).

use std::time::Instant;
use zeroer_baselines::{EcmClassifier, GaussianMixture, KMeans};
use zeroer_bench::table::fmt_f1;
use zeroer_bench::{
    prepare, print_table, supervised_f1, unsupervised_f1, zeroer_f1, ExperimentConfig,
    SupervisedKind,
};
use zeroer_core::ZeroErConfig;
use zeroer_datagen::all_profiles;

fn main() {
    let cfg = ExperimentConfig::from_env();
    println!("== Table 2: F-score for all methods ==");
    println!(
        "(scale {}, seed {}, supervised averaged over {} runs; \
         paper values in the paper's Table 2, this build's in ROADMAP.md's baseline)\n",
        cfg.scale, cfg.seed, cfg.runs
    );
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let start = Instant::now();
        let p = prepare(&profile, &cfg);
        let zeroer = zeroer_f1(&p, ZeroErConfig::default());
        let ecm = unsupervised_f1(&p, &mut EcmClassifier::default());
        let km_rl = unsupervised_f1(&p, &mut KMeans::class_weighted(cfg.seed));
        let km_sk = unsupervised_f1(&p, &mut KMeans::standard(cfg.seed));
        let gmm = unsupervised_f1(&p, &mut GaussianMixture::default());
        let rf = supervised_f1(&p, SupervisedKind::Rf, &cfg);
        let lr = supervised_f1(&p, SupervisedKind::Lr, &cfg);
        let mlp = supervised_f1(&p, SupervisedKind::Mlp, &cfg);
        rows.push(vec![
            profile.notation.to_string(),
            fmt_f1(zeroer),
            fmt_f1(ecm),
            fmt_f1(km_rl),
            fmt_f1(km_sk),
            fmt_f1(gmm),
            fmt_f1(rf),
            fmt_f1(lr),
            fmt_f1(mlp),
            format!("{:.1}s", start.elapsed().as_secs_f64()),
        ]);
    }
    print_table(
        &[
            "Dataset", "ZeroER", "ECM", "kM(RL)", "kM(SK)", "GMM", "RF", "LR", "MLP", "time",
        ],
        &rows,
    );
}
