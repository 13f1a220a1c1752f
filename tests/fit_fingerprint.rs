//! Cross-commit pins on the batch fit's outputs.
//!
//! Every other parity suite compares two paths of the *same* build:
//! batched vs scalar scoring, parallel vs sequential ingest, metrics on
//! vs off. These tests compare against constants recorded from an
//! earlier build instead. Each one digests everything a fit returns on a
//! small generated corpus (candidate pairs, posterior bits, labels and
//! clusters), so a performance change to featurization, EM or the
//! similarity kernels that moves a single bit fails here.
//!
//! Update the constants **only** for an intended change to outputs (a
//! new similarity function, a different blocking recipe, a model change)
//! and say so in the change description. A speed-up must never need to.
//!
//! The constants were recorded on x86_64 Linux (glibc `exp`/`ln`).

use zeroer::datagen::{generate_dedup, generate_linkage, CorpusSpec};
use zeroer::pipeline::{LinkPipeline, Side, StreamOptions, StreamPipeline};
use zeroer::tabular::{Record, Table};
use zeroer::{dedup_table, match_tables, MatchOptions};

/// 64-bit FNV-1a over a stream of fixed-width words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn pairs(&mut self, pairs: &[(usize, usize)]) {
        self.word(pairs.len() as u64);
        for &(a, b) in pairs {
            self.word(a as u64);
            self.word(b as u64);
        }
    }

    fn posteriors(&mut self, probs: &[f64]) {
        self.word(probs.len() as u64);
        for p in probs {
            self.word(p.to_bits());
        }
    }

    fn labels(&mut self, labels: &[bool]) {
        self.word(labels.len() as u64);
        for &l in labels {
            self.word(u64::from(l));
        }
    }

    fn clusters(&mut self, clusters: &[Vec<usize>]) {
        self.word(clusters.len() as u64);
        for c in clusters {
            self.word(c.len() as u64);
            for &m in c {
                self.word(m as u64);
            }
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// 400 records: big enough for a real EM fit, small enough for the
/// debug-profile suite.
fn spec() -> CorpusSpec {
    CorpusSpec {
        scale: 0.02,
        seed: 42,
        ..CorpusSpec::default()
    }
}

fn prefix_table(t: &Table, n: usize) -> Table {
    let mut out = Table::new("prefix", t.schema().clone());
    for r in t.records().iter().take(n) {
        out.push(r.clone());
    }
    out
}

/// Recorded under the two-key blocking rule: 6,337 candidate pairs, down
/// from 11,380 when one shared key sufficed, with the same 144 matches
/// and 98 clusters. Pair-F1 of the clusters against the corpus truth is
/// 1.0 under both rules.
#[test]
fn dedup_table_outputs_are_pinned() {
    let corpus = generate_dedup(&spec()).expect("valid spec");
    let out = dedup_table(&corpus.table, &MatchOptions::default());
    let mut d = Digest::new();
    d.pairs(&out.pairs);
    d.posteriors(&out.probabilities);
    d.labels(&out.labels);
    d.clusters(&out.clusters);
    let matches = out.labels.iter().filter(|&&l| l).count();
    assert_eq!(
        (out.pairs.len(), matches, out.clusters.len(), d.0),
        (6_337, 144, 98, 12_814_440_456_397_331_983),
        "dedup_table outputs moved (pairs, matches, clusters, digest)"
    );
}

/// Recorded under the two-key blocking rule: 3,079 cross candidates,
/// down from 5,631, with the same 60 matches. F1 of the matches against
/// the corpus truth is 1.0 under both rules.
#[test]
fn match_tables_outputs_are_pinned() {
    let corpus = generate_linkage(&spec()).expect("valid spec");
    let out = match_tables(&corpus.left, &corpus.right, &MatchOptions::default());
    let mut d = Digest::new();
    d.pairs(&out.pairs);
    d.posteriors(&out.probabilities);
    d.labels(&out.labels);
    assert_eq!(
        (out.pairs.len(), out.num_matches(), d.0),
        (3_079, 60, 13_310_832_301_748_638_245),
        "match_tables outputs moved (pairs, matches, digest)"
    );
}

/// Recorded under the two-key blocking rule: 3,242 bootstrap pairs (from
/// 5,655) and 6,337 refit pairs (from 11,380). F1 of the bootstrap labels
/// against the truth among the bootstrap records, and pair-F1 of the
/// clusters after streaming the tail, are 1.0 under both rules.
#[test]
fn bootstrap_ingest_and_refit_are_pinned() {
    let corpus = generate_dedup(&spec()).expect("valid spec");
    let table = &corpus.table;
    let cut = table.len() * 7 / 10;
    let (mut pipeline, report) =
        StreamPipeline::bootstrap(&prefix_table(table, cut), StreamOptions::default())
            .expect("bootstrap fit");
    let mut boot = Digest::new();
    boot.pairs(&report.pairs);
    boot.posteriors(&report.probabilities);
    boot.labels(&report.labels);
    assert_eq!(
        (report.pairs.len(), report.em_iterations, boot.0),
        (3_242, 6, 642_580_684_813_439_090),
        "bootstrap outputs moved (pairs, EM iterations, digest)"
    );

    // Streamed decisions run the scoring kernels against the frozen
    // bootstrap model; the refit then re-runs the batch fit over the
    // whole live store. The snapshot's JSON round-trips every f64 bit.
    let tail: Vec<Record> = table.records()[cut..].to_vec();
    let mut stream = Digest::new();
    for r in tail {
        let o = pipeline.ingest(r);
        stream.word(o.cluster as u64);
        for (m, p) in o.matches {
            stream.word(m as u64);
            stream.word(p.to_bits());
        }
    }
    stream.clusters(&pipeline.clusters());
    let refresh = pipeline.refit().expect("refit");
    let mut refit = Digest::new();
    refit.text(&pipeline.snapshot().to_json());
    assert_eq!(
        (stream.0, refresh.pairs, refresh.em_iterations, refit.0),
        (
            5_615_783_830_826_120_268,
            6_337,
            7,
            11_262_578_829_185_324_076
        ),
        "streamed decisions or refit outputs moved (stream digest, refit pairs, \
         EM iterations, snapshot digest)"
    );
}

/// Recorded under the two-key blocking rule: 1,403 bootstrap cross pairs
/// (from 2,644) and 3,079 refit pairs (from 5,631); the bootstrap fit
/// converges in 5 EM iterations (from 6) and the refit in 6 (from 7).
/// F1 of the bootstrap labels, and of the cross links after streaming
/// both tails, against the corpus truth is 1.0 under both rules.
#[test]
fn link_bootstrap_ingest_and_refit_are_pinned() {
    let corpus = generate_linkage(&spec()).expect("valid spec");
    let (left, right) = (&corpus.left, &corpus.right);
    let (cut_l, cut_r) = (left.len() * 7 / 10, right.len() * 7 / 10);
    let (mut pipeline, report) = LinkPipeline::bootstrap(
        &prefix_table(left, cut_l),
        &prefix_table(right, cut_r),
        StreamOptions::default(),
    )
    .expect("bootstrap fit");

    // Each side's tail streams against the other side, then the refit
    // re-runs the three-model fit over both live sides. The snapshot
    // JSON carries all three models and the two-table provenance.
    let tails = [
        (Side::Left, &left.records()[cut_l..]),
        (Side::Right, &right.records()[cut_r..]),
    ];
    let mut stream = Digest::new();
    for (side, tail) in tails {
        for r in tail {
            let o = pipeline.ingest(r.clone(), side);
            stream.word(o.cluster as u64);
            for (m, p) in o.matches {
                stream.word(m as u64);
                stream.word(p.to_bits());
            }
        }
    }
    stream.pairs(&pipeline.cross_links());
    let refresh = pipeline.refit().expect("refit");
    let mut refit = Digest::new();
    refit.text(&pipeline.snapshot().to_json());
    assert_eq!(
        (
            report.pairs.len(),
            report.em_iterations,
            stream.0,
            refresh.pairs,
            refresh.em_iterations,
            refit.0
        ),
        (
            1_403,
            5,
            2_558_566_049_484_221_941,
            3_079,
            6,
            4_902_189_473_893_618_034
        ),
        "linkage bootstrap, streamed decisions or refit snapshot moved (bootstrap pairs, \
         EM iterations, stream digest, refit pairs, EM iterations, snapshot digest)"
    );
}
