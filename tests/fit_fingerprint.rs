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
        (11_380, 144, 98, 7_982_262_645_071_874_780),
        "dedup_table outputs moved (pairs, matches, clusters, digest)"
    );
}

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
        (5_631, 60, 15_829_405_370_097_365_586),
        "match_tables outputs moved (pairs, matches, digest)"
    );
}

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
        (5_655, 6, 156_445_940_248_448_051),
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
            1_214_162_121_046_519_576,
            11_380,
            7,
            14_757_737_102_750_050_009
        ),
        "streamed decisions or refit outputs moved (stream digest, refit pairs, \
         EM iterations, snapshot digest)"
    );
}

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
            2_644,
            6,
            17_787_776_782_607_146_794,
            5_631,
            7,
            827_599_343_596_715_399
        ),
        "linkage bootstrap, streamed decisions or refit snapshot moved (bootstrap pairs, \
         EM iterations, stream digest, refit pairs, EM iterations, snapshot digest)"
    );
}
