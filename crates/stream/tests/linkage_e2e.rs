//! End-to-end streaming **record linkage**: bootstrap the three-model
//! trainer on the left table plus 70 % of the right table, stream the
//! remaining 30 % of the right table through the frozen cross model
//! (zero EM iterations during ingest), and compare cross-pair F1 against
//! the full-batch `match_tables`-equivalent fit on the same data — the
//! linkage mirror of `streaming_e2e.rs`.

use std::collections::HashSet;
use zeroer_datagen::generate;
use zeroer_datagen::profiles::pub_da;
use zeroer_stream::{LinkPipeline, PipelineSnapshot, Side, StreamOptions};
use zeroer_tabular::{Record, Table};

/// Pub-DA-style linkage workload (bibliographic titles across two
/// "catalogs"), with overlap-2 token blocking like the batch e2e uses
/// for this profile.
fn opts() -> StreamOptions {
    StreamOptions {
        min_token_overlap: 2,
        ..StreamOptions::default()
    }
}

fn prefix_table(t: &Table, n: usize) -> Table {
    let mut out = Table::new("prefix", t.schema().clone());
    for r in t.records().iter().take(n) {
        out.push(r.clone());
    }
    out
}

/// F1 of predicted cross links against ground-truth matches, both in the
/// combined numbering (left records first).
fn cross_f1(links: &[(usize, usize)], truth: &HashSet<(usize, usize)>) -> f64 {
    let pred: HashSet<(usize, usize)> = links.iter().copied().collect();
    let tp = pred.intersection(truth).count() as f64;
    if pred.is_empty() || truth.is_empty() {
        return 0.0;
    }
    let precision = tp / pred.len() as f64;
    let recall = tp / truth.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

#[test]
fn streaming_linkage_f1_stays_within_two_points_of_batch() {
    let ds = generate(&pub_da(), 0.05, 2);
    let nl = ds.left.len();
    let truth: HashSet<(usize, usize)> = ds.matches.iter().map(|&(l, r)| (l, nl + r)).collect();

    // Full-batch reference: bootstrapping on 100 % of both tables runs
    // exactly the batch `match_tables` pipeline (three-model joint EM
    // with cross-table transitivity) and applies its decisions.
    let (batch, batch_report) =
        LinkPipeline::bootstrap(&ds.left, &ds.right, opts()).expect("batch fit");
    let batch_f1 = cross_f1(&batch.cross_links(), &truth);

    // Streaming: fit on the left table + the first 70 % of the right
    // table, then stream the remaining 30 % as right-side records.
    let cut = ds.right.len() * 7 / 10;
    let (mut stream, report) =
        LinkPipeline::bootstrap(&ds.left, &prefix_table(&ds.right, cut), opts())
            .expect("bootstrap fit");
    assert!(report.em_iterations >= 1, "bootstrap runs EM");

    let tail: Vec<Record> = ds.right.records()[cut..].to_vec();
    for chunk in tail.chunks(16) {
        let outcomes = stream.ingest_batch(chunk.to_vec(), Side::Right);
        assert_eq!(outcomes.len(), chunk.len());
    }
    assert_eq!(stream.len(), nl + ds.right.len());
    // Streamed right records live at the end of the combined numbering;
    // remap their links onto the batch numbering (left + full right) to
    // compare against the same truth. Bootstrap right record `i` sits at
    // `nl + i` in both numberings; streamed record `cut + j` sits at
    // `nl + cut + j` in both (ingest order preserves table order).
    let stream_f1 = cross_f1(&stream.cross_links(), &truth);

    assert!(
        batch_f1 > 0.8,
        "batch linkage reference must be accurate on Pub-DA, got {batch_f1}"
    );
    assert!(
        batch_f1 - stream_f1 <= 0.02,
        "streaming linkage F1 {stream_f1} must be within 2 points of batch F1 {batch_f1}"
    );
    // Sanity: the batch report agrees with the ground truth reasonably
    // well at the raw cross-label level too.
    let labelled = batch_report
        .pairs
        .iter()
        .zip(&batch_report.labels)
        .filter(|(_, &m)| m)
        .map(|(&(l, r), _)| (l, nl + r))
        .collect::<Vec<_>>();
    assert!(cross_f1(&labelled, &truth) > 0.8);
}

/// One outcome with its posteriors reduced to bits: index, candidate
/// count, cluster and `(candidate, posterior bits)` matches.
type OutcomeDigest = (usize, usize, usize, Vec<(usize, u64)>);

#[test]
fn streamed_linkage_is_bit_identical_across_thread_counts() {
    let ds = generate(&pub_da(), 0.03, 7);
    let cut = ds.right.len() * 7 / 10;
    let (live, _) = LinkPipeline::bootstrap(&ds.left, &prefix_table(&ds.right, cut), opts())
        .expect("bootstrap fit");
    let snap = live.snapshot();
    let tail: Vec<Record> = ds.right.records()[cut..].to_vec();

    let mut reference: Option<(Vec<_>, Vec<Vec<usize>>)> = None;
    for threads in [1, 2, 4] {
        let mut p = LinkPipeline::from_snapshot(&snap, 0.5).expect("restore");
        p.seed_base(&ds.left, &prefix_table(&ds.right, cut))
            .expect("seed");
        let outcomes = p.ingest_batch_parallel(tail.clone(), Side::Right, threads);
        let digest: Vec<OutcomeDigest> = outcomes
            .iter()
            .map(|o| {
                (
                    o.index,
                    o.candidates,
                    o.cluster,
                    o.matches
                        .iter()
                        .map(|&(c, p)| (c, p.to_bits()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let clusters = p.clusters();
        match &reference {
            None => reference = Some((digest, clusters)),
            Some((want_digest, want_clusters)) => {
                assert_eq!(
                    want_digest, &digest,
                    "threads={threads}: outcomes must be bit-identical"
                );
                assert_eq!(
                    want_clusters, &clusters,
                    "threads={threads}: clusters must be identical"
                );
            }
        }
    }
}

#[test]
fn link_snapshot_round_trips_byte_for_byte_on_real_data() {
    let ds = generate(&pub_da(), 0.03, 11);
    let (live, _) = LinkPipeline::bootstrap(&ds.left, &ds.right, opts()).expect("bootstrap");
    let snap = live.snapshot();
    let text = snap.to_json();
    let back = PipelineSnapshot::from_json(&text).expect("parses");
    assert_eq!(back.model, snap.model, "models round-trip exactly");
    assert_eq!(back.bootstrap_pairs, snap.bootstrap_pairs);
    assert_eq!(back.bootstrap[0].digest, snap.bootstrap[0].digest);
    assert_eq!(back.bootstrap[1].digest, snap.bootstrap[1].digest);
    // Re-serializing the parsed form reproduces the byte stream — the
    // strongest possible exactness statement for the JSON format.
    assert_eq!(back.to_json(), text);

    // A cold pipeline from the reloaded snapshot behaves identically.
    let mut cold = LinkPipeline::from_snapshot(&back, 0.5).expect("restore");
    cold.seed_base(&ds.left, &ds.right).expect("seed");
    assert_eq!(cold.clusters(), live.clusters());
}
