//! `batch-dedup`: `dedup_table` on the whole corpus — the bootstrap and
//! refit path, where featurize and EM do almost all the work.
//!
//! The traced run calls the layers' public functions in the order
//! `dedup_table` calls them, timing each, and checks that this
//! composition reproduces `dedup_table`'s pairs and posteriors bit for
//! bit.

use crate::common::{
    dedup_corpus, pair_f1, permutation, repeat_setup, secs, truth_clusters, Args, Gauge, F1_FLOOR,
};
use crate::report::{median, peak_rss_mb, Report};
use std::hint::black_box;
use std::time::Instant;
use zeroer::blocking::{standard_candidates_derived, BlockingReport, PairMode};
use zeroer::core::{GenerativeModel, LinkageTask, TransitivityCalibrator, UnionFind};
use zeroer::features::PairFeaturizer;
use zeroer::stream::IndexConfig;
use zeroer::tabular::Table;
use zeroer::{dedup_table, DedupResult, MatchOptions};

/// Runs `dedup_table` untimed by any meter.
fn dedup(table: &Table) -> DedupResult {
    black_box(dedup_table(black_box(table), &MatchOptions::default()))
}

fn same_result(
    a: &DedupResult,
    pairs: &[(usize, usize)],
    probs: &[f64],
    clusters: &[Vec<usize>],
) -> bool {
    a.pairs == pairs
        && a.probabilities.len() == probs.len()
        && a.probabilities
            .iter()
            .zip(probs)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.clusters == clusters
}

pub fn run(args: &Args, rep: &mut Report) {
    // The benchmark's own timers trace this workload; `dedup_table`'s
    // meters stay off in both modes.
    zeroer::obs::set_enabled(false);
    let ((corpus, order, table), setup_s) = repeat_setup(|| {
        let corpus = dedup_corpus();
        let order = permutation(corpus.table.len(), args.seed);
        let mut table = Table::new("batch", corpus.table.schema().clone());
        for &i in &order {
            table.push(corpus.table.records()[i].clone());
        }
        (corpus, order, table)
    });
    let truth = truth_clusters(&corpus);
    rep.set("setup_s", setup_s);
    let table = &table;
    println!("set-up: {} records in seeded order", table.len());

    if args.trace {
        // Truth pairs in the table's numbering, for the blocking report.
        let mut position = vec![0; order.len()];
        for (k, &i) in order.iter().enumerate() {
            position[i] = k;
        }
        let truth_pairs: Vec<(usize, usize)> = corpus
            .truth_pairs()
            .into_iter()
            .map(|(a, b)| {
                let (a, b) = (position[a], position[b]);
                (a.min(b), a.max(b))
            })
            .collect();
        traced(args, rep, table, &truth_pairs, &order, &truth);
        return;
    }
    let mut fits = Vec::new();
    let mut gauge = Gauge::default();
    let mut first: Option<DedupResult> = None;
    let start = Instant::now();
    while fits.len() < 3 || start.elapsed() < args.seconds {
        let t = Instant::now();
        let res = dedup(table);
        let fit = secs(t);
        // The first call warms the heap and caches; it is checked, not timed.
        if first.is_some() {
            fits.push(fit);
            gauge.sample();
        }
        rep.ops(1, 0);
        match &first {
            None => {
                let f1 = pair_f1(&res.clusters, &order, &truth);
                rep.check(&format!("pair_f1 {f1:.4} >= {F1_FLOOR}"), f1 >= F1_FLOOR);
                rep.set("pair_f1", f1);
                first = Some(res);
            }
            Some(f) => rep.check(
                "a repeated dedup_table is bit-identical",
                same_result(f, &res.pairs, &res.probabilities, &res.clusters),
            ),
        }
    }
    println!(
        "dedup_table: {} candidate pairs, {} timed calls after one warm-up, taking {fits:.3?} s",
        first.as_ref().map_or(0, |r| r.pairs.len()),
        fits.len(),
    );
    let fit = median(&fits);
    let rate = fits.len() as f64 / fits.iter().sum::<f64>();
    println!("wall: op p50 {:.1} ms, {rate:.4} ops/s", fit * 1e3);
    let scale = gauge.scale("measured phase");
    rep.set("core.fit_s", fit);
    rep.set("op_p50_ms", fit * 1e3 * scale);
    rep.set("ops_per_s", rate / scale);
    rep.set("peak_rss_mb", peak_rss_mb());
}

/// Self times of one traced composition of `dedup_table`'s layers.
struct Layers {
    derive: f64,
    block: f64,
    featurize: f64,
    em: f64,
    cluster: f64,
}

impl Layers {
    fn total(&self) -> f64 {
        self.derive + self.block + self.featurize + self.em + self.cluster
    }
}

fn traced(
    args: &Args,
    rep: &mut Report,
    table: &Table,
    truth_pairs: &[(usize, usize)],
    order: &[usize],
    truth: &[Vec<usize>],
) {
    // `dedup_table`'s standard recipe is the default index configuration.
    let opts = MatchOptions::default();
    let index = IndexConfig::default();
    let mut untraced = Vec::new();
    let mut runs: Vec<Layers> = Vec::new();
    let (mut pairs, mut iterations) = (0, 0);
    let start = Instant::now();
    while runs.is_empty() || start.elapsed() < args.seconds {
        let t = Instant::now();
        let reference = dedup(table);
        untraced.push(secs(t));

        let t = Instant::now();
        let fz = PairFeaturizer::with_config(table, table, index.derive_config());
        let derive = secs(t);
        let t = Instant::now();
        let cs = standard_candidates_derived(
            fz.left_derived(),
            None,
            PairMode::Dedup,
            index.min_token_overlap,
            index.max_bucket,
        );
        let block = secs(t);
        let t = Instant::now();
        let mut fs = fz.featurize(cs.pairs());
        fs.normalize();
        let task = LinkageTask::new(fs.matrix, cs.pairs().to_vec(), fs.layout);
        let featurize = secs(t);
        let t = Instant::now();
        let mut model = GenerativeModel::new(opts.config.clone(), task.layout.clone());
        let calibrator = TransitivityCalibrator::new(&task.pairs);
        let summary = model.fit(&task.features, Some(&calibrator));
        let em = secs(t);
        let t = Instant::now();
        let labels = model.labels();
        let mut uf = UnionFind::new(table.len());
        for (&(a, b), &dup) in task.pairs.iter().zip(&labels) {
            if dup {
                uf.union(a, b);
            }
        }
        let clusters = black_box(uf.clusters(2));
        let cluster = secs(t);

        rep.ops(2, 0);
        rep.check(
            "the traced layer composition reproduces dedup_table bit for bit",
            same_result(&reference, &task.pairs, model.gammas(), &clusters),
        );
        if runs.is_empty() {
            let f1 = pair_f1(&reference.clusters, order, truth);
            rep.check(&format!("pair_f1 {f1:.4} >= {F1_FLOOR}"), f1 >= F1_FLOOR);
            rep.set("pair_f1", f1);
            let n = table.len();
            let quality = BlockingReport::evaluate(&cs, truth_pairs, n, n);
            println!("blocking: {quality}");
            rep.set("blocking.candidates_per_record", cs.len() as f64 / n as f64);
            rep.set("blocking.pair_completeness", quality.pair_completeness);
            rep.set("blocking.reduction_ratio", quality.reduction_ratio);
            rep.set("core.em_iterations", summary.iterations as f64);
            (pairs, iterations) = (cs.len(), summary.iterations);
        }
        println!(
            "traced run {}: dedup_table {:.3} s; derive {derive:.3}, block {block:.3}, \
             featurize {featurize:.3}, em {em:.3}, cluster {cluster:.4} s",
            runs.len() + 1,
            untraced[untraced.len() - 1]
        );
        runs.push(Layers {
            derive,
            block,
            featurize,
            em,
            cluster,
        });
    }
    let med = |f: fn(&Layers) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let em = med(|l| l.em);
    let featurize = med(|l| l.featurize);
    rep.set("features.derive_s", med(|l| l.derive));
    rep.set("features.featurize_s", featurize);
    rep.set("features.pairs_per_s", pairs as f64 / featurize);
    rep.set("blocking.block_s", med(|l| l.block));
    rep.set("core.em_s", em);
    rep.set("core.em_s_per_iteration", em / iterations.max(1) as f64);
    rep.set("core.cluster_s", med(|l| l.cluster));
    rep.set("core.fit_s", median(&untraced));
    let layers = med(Layers::total);
    let fit = median(&untraced);
    println!(
        "layers sum to {layers:.4} s against dedup_table {fit:.4} s ({} traced runs)",
        runs.len()
    );
    rep.set("bench.unaccounted_s", fit - layers);
    rep.set("obs.trace_overhead_ratio", layers / fit);
}
