//! Inputs shared by the workloads: seeded corpora, the fitted and
//! snapshot-restored bootstrap head, and accuracy against exact truth.

use crate::report::median;
use std::time::{Duration, Instant};
use zeroer::datagen::{generate_dedup, CorpusSpec, DedupCorpus};
use zeroer::eval::clusters::{clusters_from_pairs, pairwise_cluster_f1};
use zeroer::pipeline::{PipelineSnapshot, StreamOptions, StreamPipeline};
use zeroer::tabular::{Record, Table};

/// Corpus scale of every workload: 1,000 records.
pub const SCALE: f64 = 0.05;
/// Generator seed of the corpora. The corpus content is fixed, so that
/// EM iteration counts and candidate totals do not vary from run to run;
/// `--seed` orders the records: the table rows on `batch-dedup`, the
/// arrival order of the streamed tails, and the resolve probes.
pub const CORPUS_SEED: u64 = 42;
/// Share of the dedup corpus the streaming workloads fit on; the rest
/// is streamed.
pub const HEAD_FRACTION: f64 = 0.35;
/// A run repeats its set-up at least this many times, and until
/// [`SETUP_MIN`] has passed; `setup_s` is the median.
const SETUPS: usize = 3;
const SETUP_MIN: Duration = Duration::from_secs(2);
/// Pair-F1 below this fails a run's accuracy check.
pub const F1_FLOOR: f64 = 0.9;

/// The command line of one workload run.
pub struct Args {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repeats `setup` (see [`SETUPS`]), sampling the host gauge after each
/// repetition; returns the last result and the median time scaled to
/// the reference host (see [`Gauge`]).
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let (mut times, mut last, mut gauge) = (Vec::new(), None, Gauge::default());
    let start = Instant::now();
    while times.len() < SETUPS || start.elapsed() < SETUP_MIN {
        let t = Instant::now();
        last = Some(setup());
        times.push(secs(t));
        gauge.sample();
    }
    println!("set-up: median wall {:.6} s over {}", median(&times), times.len());
    let setup_s = median(&times) * gauge.scale("set-up");
    (last.expect("at least one set-up ran"), setup_s)
}

/// Time [`reference_loop`] takes on the reference host, in ms.
const REFERENCE_MS: f64 = 10.0;

/// A fixed single-thread arithmetic loop (splitmix64 steps); returns
/// how long it took, in ms.
fn reference_loop() -> f64 {
    let t = Instant::now();
    let (mut s, mut acc) = (std::hint::black_box(0x1234u64), 0u64);
    for _ in 0..5_000_000 {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    secs(t) * 1e3
}

/// The host's speed through a run. A shared host's speed drifts by a
/// third or more over minutes, moving every wall time of a run with it;
/// the reference loop, timed between the run's operations, drifts with
/// them. End-to-end timings are wall times multiplied by
/// [`Gauge::scale`]: times on a reference host where the loop takes
/// [`REFERENCE_MS`].
#[derive(Default)]
pub struct Gauge(Vec<f64>);

impl Gauge {
    /// Times the reference loop once, between two measured operations.
    pub fn sample(&mut self) {
        self.0.push(reference_loop());
    }

    /// Reference time over this run's median loop time; prints both.
    pub fn scale(&self, phase: &str) -> f64 {
        let loop_ms = median(&self.0);
        let scale = REFERENCE_MS / loop_ms;
        println!(
            "{phase}: reference loop median {loop_ms:.4} ms (n={}), wall times scaled by {scale:.4}",
            self.0.len()
        );
        scale
    }
}

/// A seeded permutation of `0..n` (splitmix64 + Fisher-Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    p
}

/// The dedup corpus (exact ground truth).
pub fn dedup_corpus() -> DedupCorpus {
    let spec = CorpusSpec {
        scale: SCALE,
        seed: CORPUS_SEED,
        ..CorpusSpec::default()
    };
    generate_dedup(&spec).expect("the benchmark's corpus spec is valid")
}

/// Truth clusters of a dedup corpus.
pub fn truth_clusters(corpus: &DedupCorpus) -> Vec<Vec<usize>> {
    clusters_from_pairs(&corpus.truth_pairs())
}

/// Pair-F1 of predicted clusters against truth clusters, where record
/// `i` of the prediction is record `order[i]` of the truth.
pub fn pair_f1(predicted: &[Vec<usize>], order: &[usize], truth: &[Vec<usize>]) -> f64 {
    let mapped: Vec<Vec<usize>> = predicted
        .iter()
        .map(|c| c.iter().map(|&i| order[i]).collect())
        .collect();
    pairwise_cluster_f1(&mapped, truth).f1()
}

/// Clusters in a canonical order, for equality checks.
pub fn canonical(mut clusters: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort();
    clusters
}

/// Stream options with metrics on or off.
pub fn stream_options(metrics: bool) -> StreamOptions {
    StreamOptions {
        metrics,
        ..StreamOptions::default()
    }
}

/// Cold-restores a pipeline from a parsed snapshot and replays the
/// bootstrap decisions onto the head.
pub fn restore(snap: &PipelineSnapshot, head: &Table, metrics: bool) -> StreamPipeline {
    let mut p = StreamPipeline::from_snapshot(snap, StreamOptions::default().threshold)
        .expect("the snapshot restores");
    p.set_metrics(metrics);
    p.seed_base(head).expect("the bootstrap decisions replay");
    p
}

/// The streaming workloads' set-up: a corpus, a model fitted on its
/// head, and that model's snapshot after a JSON round trip.
pub struct FittedHead {
    pub corpus: DedupCorpus,
    pub truth: Vec<Vec<usize>>,
    pub head: Table,
    /// The rest of the corpus in seeded arrival order.
    pub tail: Vec<Record>,
    /// Corpus index of each pipeline record (head, then tail).
    pub order: Vec<usize>,
    pub snap: PipelineSnapshot,
    pub snapshot_bytes: usize,
    pub em_iterations: usize,
    /// Median set-up, head fit and restore.
    pub setup_s: f64,
    pub fit_s: f64,
    pub restore_s: f64,
}

/// Generates the corpus, fits `StreamPipeline::bootstrap` on its head,
/// serializes, parses and cold-restores the snapshot — repeated (see
/// [`repeat_setup`]), keeping the last result and the timings. `seed`
/// orders the tail.
pub fn fit_head(seed: u64) -> FittedHead {
    let (mut fit, mut rest) = (Vec::new(), Vec::new());
    let ((corpus, head, order, snap, snapshot_bytes, em_iterations), setup_s) =
        repeat_setup(|| {
            let corpus = dedup_corpus();
            let n = corpus.table.len();
            let cut = (n as f64 * HEAD_FRACTION).round() as usize;
            let mut head = Table::new("head", corpus.table.schema().clone());
            for r in &corpus.table.records()[..cut] {
                head.push(r.clone());
            }
            let order: Vec<usize> = (0..cut)
                .chain(permutation(n - cut, seed).into_iter().map(|i| cut + i))
                .collect();
            let t = Instant::now();
            let (fitted, report) = StreamPipeline::bootstrap(&head, stream_options(false))
                .expect("the head fit succeeds");
            fit.push(secs(t));
            let json = fitted.snapshot().to_json();
            drop(fitted);
            let t = Instant::now();
            let snap = PipelineSnapshot::from_json(&json).expect("the snapshot parses back");
            drop(restore(&snap, &head, false));
            rest.push(secs(t));
            (corpus, head, order, snap, json.len(), report.em_iterations)
        });
    let tail: Vec<Record> = order[head.len()..]
        .iter()
        .map(|&i| corpus.table.records()[i].clone())
        .collect();
    println!(
        "set-up: {} records, head {} / tail {}, snapshot {snapshot_bytes} bytes",
        corpus.table.len(),
        head.len(),
        tail.len()
    );
    FittedHead {
        truth: truth_clusters(&corpus),
        corpus,
        head,
        tail,
        order,
        snap,
        snapshot_bytes,
        em_iterations,
        setup_s,
        fit_s: median(&fit),
        restore_s: median(&rest),
    }
}
