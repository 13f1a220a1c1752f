//! Batched scoring against the scalar oracle.
//!
//! The pipelines score through the struct-of-arrays kernels only
//! ([`BatchFeaturizer::fill_columns`] → `SnapshotScorer::score_batch`).
//! The row-at-a-time path (`RowFeaturizer::raw_row_into` →
//! `SnapshotScorer::score_raw`) survives as the oracle they must equal
//! **bit for bit** (`f64::to_bits`, never within-epsilon), on three
//! levels:
//!
//! 1. raw feature matrices — each column of the batch fill equals the
//!    corresponding entry of the scalar `raw_row_into` row, over the
//!    bootstrap's real candidate pairs ([`BootstrapReport::pairs`]) filled
//!    as one mixed batch, and over each record's real candidate list with
//!    the record fixed on either side (the shapes that run the fixed-side
//!    Monge-Elkan memo and the per-value dedup);
//! 2. posteriors — `score_batch` equals `score_raw` per pair, over the
//!    same pairs;
//! 3. match decisions — every posterior a pipeline reports (ingest and
//!    resolve) equals the oracle's score of that pair, and parallel
//!    ingest at 1, 2 and 4 threads reproduces sequential ingest's
//!    outcomes and clusters exactly.
//!
//! Bit-identity holds because the batched kernels preserve the scalar
//! per-pair operation order exactly: imputation/normalization visit
//! feature columns in ascending order (like the scalar per-row loop),
//! and the block-diagonal Mahalanobis accumulates one covariance block
//! at a time into a per-row block buffer before summing blocks in
//! layout order — the same `fold(0.0, +)` sequence as the scalar path.

use proptest::prelude::*;
use zeroer_blocking::{standard_candidates_derived, PairMode};
use zeroer_core::{ScoreBatch, SnapshotScorer};
use zeroer_datagen::profiles::rest_fz;
use zeroer_datagen::{generate, generate_dedup, CorpusSpec};
use zeroer_features::{BatchFeaturizer, DerivedRecord, Deriver, FillScratch, PairFeaturizer};
use zeroer_linalg::ColMatrix;
use zeroer_stream::{
    BootstrapReport, IndexConfig, IngestOutcome, PipelineSnapshot, StreamOptions, StreamPipeline,
};
use zeroer_tabular::{Record, Table};
use zeroer_textsim::intern::Interner;

/// Bootstrap/stream split of a generated Rest-FZ dedup table.
fn split_dataset(scale: f64, seed: u64) -> (Table, Vec<Record>) {
    let ds = generate(&rest_fz(), scale, seed);
    let (table, _) = ds.dedup_table();
    let cut = (table.len() * 7 / 10).max(4);
    let mut boot = Table::new("boot", table.schema().clone());
    for r in table.records().iter().take(cut) {
        boot.push(r.clone());
    }
    let tail: Vec<Record> = table.records()[cut..].to_vec();
    (boot, tail)
}

fn cold_pipeline(snap: &PipelineSnapshot, boot: &Table) -> StreamPipeline {
    let mut p = StreamPipeline::from_snapshot(snap, StreamOptions::default().threshold)
        .expect("snapshot restores");
    p.seed_base(boot).expect("bootstrap decisions replay");
    p
}

fn assert_outcomes_bit_identical(a: &[IngestOutcome], b: &[IngestOutcome], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{label}");
        assert_eq!(x.candidates, y.candidates, "{label} record={}", x.index);
        assert_eq!(x.cluster, y.cluster, "{label} record={}", x.index);
        assert_eq!(
            x.matches.len(),
            y.matches.len(),
            "{label} record={}",
            x.index
        );
        for ((ca, pa), (cb, pb)) in x.matches.iter().zip(&y.matches) {
            assert_eq!(ca, cb, "{label} record={}", x.index);
            assert_eq!(
                pa.to_bits(),
                pb.to_bits(),
                "{label} record={}: {pa} vs {pb}",
                x.index
            );
        }
    }
}

/// The scalar oracle: one raw row + one posterior for the pair
/// `(left, right)`.
struct Oracle {
    featurizer: BatchFeaturizer,
    scorer: SnapshotScorer,
}

impl Oracle {
    fn new(snap: &PipelineSnapshot) -> Self {
        Self {
            featurizer: BatchFeaturizer::new(&snap.attr_types),
            scorer: snap.model.scoring().scorer().expect("snapshot scorer"),
        }
    }

    fn score(&self, interner: &Interner, left: &DerivedRecord, right: &DerivedRecord) -> f64 {
        let mut buf = Vec::new();
        self.featurizer
            .row()
            .raw_row_into(interner, left, right, &mut buf);
        self.scorer.score_raw(&mut buf)
    }

    /// Every match posterior of `outcomes` equals the oracle's score of
    /// the `(candidate, new)` pair, read back from `pipeline`'s store.
    fn assert_matches(&self, pipeline: &StreamPipeline, outcomes: &[IngestOutcome]) {
        let store = pipeline.store();
        for o in outcomes {
            for &(c, p) in &o.matches {
                let want = self.score(store.interner(), store.derived(c), store.derived(o.index));
                assert_eq!(p.to_bits(), want.to_bits(), "pair ({c},{}): {p}", o.index);
            }
        }
    }
}

/// Levels 1 and 2: the batched feature fill and the batched posteriors
/// against their scalar counterparts, over the bootstrap's real
/// candidate pairs.
fn assert_kernel_parity(boot: &Table, snap: &PipelineSnapshot, report: &BootstrapReport) {
    assert!(!report.pairs.is_empty());
    let oracle = Oracle::new(snap);
    let mut deriver = Deriver::new(IndexConfig::default().derive_config());
    let caches: Vec<DerivedRecord> = boot
        .records()
        .iter()
        .map(|r| deriver.derive(&r.values))
        .collect();
    let interner = deriver.interner();
    let pairs = &report.pairs;

    // Scalar reference: one raw row + one posterior per pair.
    let row_fz = oracle.featurizer.row();
    let mut scalar_rows: Vec<Vec<f64>> = Vec::with_capacity(pairs.len());
    let mut buf: Vec<f64> = Vec::new();
    for &(i, j) in pairs {
        row_fz.raw_row_into(interner, &caches[i], &caches[j], &mut buf);
        scalar_rows.push(buf.clone());
    }

    // Batched: one column-major fill + one score_batch call.
    let mut batch = ScoreBatch::new();
    oracle.featurizer.fill_columns(
        &mut FillScratch::new(),
        interner,
        pairs.len(),
        |k| {
            let (i, j) = pairs[k];
            (&caches[i], &caches[j])
        },
        batch.cols_mut(),
    );
    // Level 1: the raw (pre-normalization) feature matrix, column by
    // column, against the scalar rows.
    for (k, row) in scalar_rows.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            let b = batch.cols().get(k, j);
            assert!(
                v.to_bits() == b.to_bits() || (v.is_nan() && b.is_nan()),
                "feature ({k},{j}): scalar {v} vs batched {b}"
            );
        }
    }
    // Level 2: posteriors to the bit.
    let batched_scores = oracle.scorer.score_batch(&mut batch);
    assert_eq!(batched_scores.len(), pairs.len());
    for (k, (row, b)) in scalar_rows.iter_mut().zip(batched_scores).enumerate() {
        let s = oracle.scorer.score_raw(row);
        assert_eq!(s.to_bits(), b.to_bits(), "posterior {k}: {s} vs {b}");
    }
}

/// Level 1 in the fixed-side shapes, over each record's real candidate
/// list of a small exact-truth corpus: once with the record fixed on the
/// right (streaming dedup arrivals) and once on the left (batch-fit runs,
/// linkage left arrivals). The corpus's `name` carries Monge-Elkan,
/// Levenshtein and Needleman-Wunsch, its `description` Monge-Elkan, so
/// both memo paths, the shared set intersections and the per-value dedup
/// all run on real values. Every cell equals the scalar row to the bit,
/// NaN included.
#[test]
fn fixed_side_fills_match_scalar_on_real_candidate_lists() {
    let spec = CorpusSpec {
        scale: 0.02,
        ..CorpusSpec::default()
    };
    let corpus = generate_dedup(&spec).expect("valid corpus spec");
    let table = &corpus.table;
    let index = IndexConfig::default();
    let fz = PairFeaturizer::with_config(table, table, index.derive_config());
    let featurizer = BatchFeaturizer::new(fz.attr_types());
    let names = fz.feature_names();
    for f in ["name_mel", "name_lev", "name_nmw", "description_mel"] {
        assert!(names.iter().any(|n| n == f), "{f} missing from {names:?}");
    }
    let derived = fz.left_derived();
    let cs = standard_candidates_derived(
        derived,
        None,
        PairMode::Dedup,
        index.min_token_overlap,
        index.max_bucket,
    );
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); derived.len()];
    for &(i, j) in cs.pairs() {
        lists[i].push(j);
        lists[j].push(i);
    }
    assert!(
        lists.iter().any(|l| l.len() > 1),
        "no fixed-side batch to fill"
    );

    let interner = fz.interner();
    let (mut scratch, mut cols, mut row) = (FillScratch::new(), ColMatrix::new(), Vec::new());
    for (r, list) in lists.iter().enumerate() {
        for fixed_left in [false, true] {
            let pair = |c: usize| {
                if fixed_left {
                    (&derived[r], &derived[c])
                } else {
                    (&derived[c], &derived[r])
                }
            };
            featurizer.fill_columns(
                &mut scratch,
                interner,
                list.len(),
                |k| pair(list[k]),
                &mut cols,
            );
            for (k, &c) in list.iter().enumerate() {
                let (left, right) = pair(c);
                featurizer
                    .row()
                    .raw_row_into(interner, left, right, &mut row);
                for (j, v) in row.iter().enumerate() {
                    let b = cols.get(k, j);
                    assert_eq!(
                        v.to_bits(),
                        b.to_bits(),
                        "record {r} fixed_left={fixed_left} candidate {c} {}: scalar {v} vs batched {b}",
                        names[j]
                    );
                }
            }
        }
    }
}

#[test]
fn batched_kernels_match_scalar_on_real_features() {
    let (boot, _) = split_dataset(0.25, 42);
    let (live, report) =
        StreamPipeline::bootstrap(&boot, StreamOptions::default()).expect("bootstrap");
    assert_kernel_parity(&boot, &live.snapshot(), &report);
}

/// Level 3, fixed seed: resolve and ingest posteriors against the
/// oracle, then parallel ingest at 1, 2 and 4 threads against
/// sequential ingest.
#[test]
fn batched_pipeline_outcomes_match_scalar() {
    let (boot, tail) = split_dataset(0.25, 42);
    let (live, _) = StreamPipeline::bootstrap(&boot, StreamOptions::default()).expect("bootstrap");
    let snap = live.snapshot();
    let oracle = Oracle::new(&snap);

    // Resolves before any streaming (pure read path): a handle derives
    // on an overlay of the pinned interner, which a deriver seeded from
    // the same interner and fed the same records reproduces symbol for
    // symbol.
    let reference = cold_pipeline(&snap, &boot);
    let store = reference.store();
    let mut reads = reference.pin_read_handle();
    let mut deriver = Deriver::with_interner(store.interner().clone(), store.derive_config());
    let mut resolved = 0;
    for r in &tail {
        let new = deriver.derive(&r.values);
        for &(c, p) in &reads.resolve(r).matches {
            let want = oracle.score(deriver.interner(), store.derived(c), &new);
            assert_eq!(p.to_bits(), want.to_bits(), "resolve pair ({c}, new)");
            resolved += 1;
        }
    }
    assert!(
        resolved > 0,
        "no resolve matched — the oracle check is vacuous"
    );

    let mut seq = cold_pipeline(&snap, &boot);
    let seq_out: Vec<IngestOutcome> = tail.iter().cloned().map(|r| seq.ingest(r)).collect();
    oracle.assert_matches(&seq, &seq_out);
    for threads in [1, 2, 4] {
        let mut par = cold_pipeline(&snap, &boot);
        let par_out = par.ingest_batch_parallel(tail.clone(), threads);
        assert_outcomes_bit_identical(&seq_out, &par_out, &format!("threads={threads}"));
        assert_eq!(seq.clusters(), par.clusters(), "threads={threads}");
    }
}

proptest! {
    // Bootstrap runs a full EM fit per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All three levels as a property: arbitrary dataset seeds and
    /// thread counts; parallel ingest against sequential ingest, whose
    /// posteriors the scalar oracle reproduces.
    #[test]
    fn batched_parallel_equals_scalar_sequential(seed in 0u64..200, threads in 1usize..5) {
        let (boot, tail) = split_dataset(0.1, seed);
        let Ok((live, report)) = StreamPipeline::bootstrap(&boot, StreamOptions::default()) else {
            // Tiny unlucky samples can yield no candidate pairs.
            return;
        };
        let snap = live.snapshot();
        assert_kernel_parity(&boot, &snap, &report);

        let mut seq = cold_pipeline(&snap, &boot);
        let seq_out: Vec<IngestOutcome> = tail.iter().cloned().map(|r| seq.ingest(r)).collect();
        Oracle::new(&snap).assert_matches(&seq, &seq_out);

        let mut par = cold_pipeline(&snap, &boot);
        let par_out = par.ingest_batch_parallel(tail, threads);
        assert_outcomes_bit_identical(&seq_out, &par_out, "parallel");
        prop_assert_eq!(seq.clusters(), par.clusters());
    }
}
